//! The five benchmark workloads. They differ in *where* the host cost
//! falls (pipeline-bound, coherence-bound, embedded-engine, parallel engine,
//! fault recovery), so a layer optimisation and its side effects both show.
//! All run at 2 GHz with prefetch on; scales are sized for reps of 2–3 s on
//! the 2-core reference host.

use smtp::{AppKind, EngineKind, ExperimentConfig, FaultConfig, MachineModel};

/// One benchmark workload: a named, fixed simulation point.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The simulation point; `cfg.engine` selects serial or parallel.
    pub cfg: ExperimentConfig,
    /// Whether `--seed` changes the guest (only the chaos workload).
    pub seeded: bool,
}

impl Workload {
    /// Whether the workload runs on the parallel engine.
    pub fn parallel(&self) -> bool {
        self.cfg.engine == EngineKind::Parallel
    }
}

/// Worker threads of the parallel workloads; never above the reference
/// host's two cores.
pub const PAR_WORKERS: usize = 2;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "lu_1n4w_pipe",
    "radix_16n_coh",
    "ocean_8n_base",
    "fft_32n_par",
    "fft_8n_chaos",
];

fn point(
    model: MachineModel,
    app: AppKind,
    nodes: usize,
    ways: usize,
    scale: f64,
) -> ExperimentConfig {
    let mut c = ExperimentConfig::new(model, app, nodes, ways);
    c.cpu_ghz = 2.0;
    c.scale = scale;
    c
}

fn parallel(mut c: ExperimentConfig) -> ExperimentConfig {
    c.engine = EngineKind::Parallel;
    c.workers = Some(PAR_WORKERS);
    c
}

/// Build the workload called `name` (`None` for an unknown name). Only
/// `fft_8n_chaos` depends on `seed`.
pub fn by_name(name: &str, seed: u64) -> Option<Workload> {
    let (name, cfg) = match name {
        // One node, four threads, no network: the pipeline and the cache
        // hit path do nearly all the work.
        "lu_1n4w_pipe" => (NAMES[0], point(MachineModel::SMTp, AppKind::Lu, 1, 4, 1.2)),
        // All-to-all permutation writes: directory transitions, protocol
        // thread handlers, NoC and SDRAM are busy while most pipelines sit
        // memory-stalled, so stalled-tick cost and the coherence path show.
        "radix_16n_coh" => (
            NAMES[1],
            point(MachineModel::SMTp, AppKind::Radix, 16, 2, 0.0625),
        ),
        // The same protocol layer used differently: handlers run on the
        // embedded protocol engine with a directory cache.
        "ocean_8n_base" => (
            NAMES[2],
            point(MachineModel::Base, AppKind::Ocean, 8, 2, 0.5),
        ),
        // The paper's largest machine; the parallel engine (epochs,
        // barriers, idle skipping, adaptive windows) decides the wall clock.
        "fft_32n_par" => (
            NAMES[3],
            parallel(point(MachineModel::SMTp, AppKind::Fft, 32, 2, 0.5)),
        ),
        // The same NoC and engine used differently: link-level retry, ECC
        // and stall windows are live, and adaptive epochs collapse to the
        // static bound because faults are armed.
        "fft_8n_chaos" => {
            let mut cfg = parallel(point(MachineModel::SMTp, AppKind::Fft, 8, 2, 1.0));
            cfg.faults = FaultConfig::chaos(seed);
            (NAMES[4], cfg)
        }
        _ => return None,
    };
    Some(Workload {
        name,
        seeded: cfg.faults.enabled,
        cfg,
    })
}

/// All five workloads for `seed`.
pub fn all(seed: u64) -> Vec<Workload> {
    NAMES
        .iter()
        .map(|n| by_name(n, seed).expect("NAMES lists only known workloads"))
        .collect()
}
