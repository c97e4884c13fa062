//! Experiment runner: one simulation per (model, app, nodes, ways, clock)
//! point of the paper's evaluation.

use crate::engine::EngineKind;
use crate::error::RunError;
use crate::stats::RunStats;
use crate::system::System;
use smtp_types::{FaultConfig, Fingerprint, MachineModel, SystemConfig};
use smtp_workloads::AppKind;

/// One point of the evaluation space.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Machine model.
    pub model: MachineModel,
    /// Application.
    pub app: AppKind,
    /// Nodes.
    pub nodes: usize,
    /// Application threads per node (the paper's "n-way").
    pub ways: usize,
    /// CPU clock in GHz (2 or 4 in the paper).
    pub cpu_ghz: f64,
    /// Workload scale relative to DESIGN.md §7 (see also
    /// [`ExperimentConfig::quick`]).
    pub scale: f64,
    /// Look-ahead scheduling enabled (paper §2.3; ablatable).
    pub look_ahead: bool,
    /// Override the bypass-buffer size (paper §2.2; ablatable).
    pub bypass_lines: Option<usize>,
    /// Separate perfect protocol caches (the paper's §2.3 experiment).
    pub perfect_protocol_caches: bool,
    /// Software prefetching in the applications (paper §3; off models the
    /// "less-tuned" variant whose trends stay qualitatively identical).
    pub prefetch: bool,
    /// Simulation watchdog in cycles.
    pub max_cycles: u64,
    /// Fault-injection plan (all-off by default).
    pub faults: FaultConfig,
    /// Execution engine (a wall-clock choice; results are bit-identical).
    pub engine: EngineKind,
    /// Pin the parallel engine's worker count (`None` = available
    /// parallelism). Host-side only; guest results are identical for any
    /// worker count.
    pub workers: Option<usize>,
}

impl ExperimentConfig {
    /// A standard-scale experiment point.
    pub fn new(model: MachineModel, app: AppKind, nodes: usize, ways: usize) -> ExperimentConfig {
        ExperimentConfig {
            model,
            app,
            nodes,
            ways,
            cpu_ghz: 2.0,
            scale: default_scale(),
            look_ahead: true,
            bypass_lines: None,
            perfect_protocol_caches: false,
            prefetch: true,
            max_cycles: 2_000_000_000,
            faults: FaultConfig::default(),
            engine: EngineKind::Serial,
            workers: None,
        }
    }

    /// A reduced-scale point for smoke tests.
    pub fn quick(model: MachineModel, app: AppKind, nodes: usize, ways: usize) -> ExperimentConfig {
        let mut c = ExperimentConfig::new(model, app, nodes, ways);
        c.scale = 0.12;
        c
    }

    /// Deterministic 64-bit fingerprint of everything that shapes the
    /// *guest* simulation: model, app, machine geometry, clock, scale,
    /// ablation knobs, watchdog budget and the full fault plan.
    ///
    /// Host-side choices — [`ExperimentConfig::engine`] and
    /// [`ExperimentConfig::workers`] — are deliberately excluded: the
    /// engines are bit-identical, so runs differing only in them share a
    /// fingerprint and are directly comparable in the archive (the archive
    /// key carries the engine separately for wall-clock comparisons).
    ///
    /// The hash is platform- and build-independent
    /// ([`smtp_types::Fingerprint`]), so archived fingerprints remain
    /// valid across machines.
    pub fn fingerprint(&self) -> u64 {
        let mut f = Fingerprint::new();
        f.mix_str(self.model.label());
        f.mix_str(self.app.name());
        f.mix_u64(self.nodes as u64);
        f.mix_u64(self.ways as u64);
        f.mix_f64(self.cpu_ghz);
        f.mix_f64(self.scale);
        f.mix_bool(self.look_ahead);
        f.mix_opt_u64(self.bypass_lines.map(|v| v as u64));
        f.mix_bool(self.perfect_protocol_caches);
        f.mix_bool(self.prefetch);
        f.mix_u64(self.max_cycles);
        // The fault plan is part of guest behaviour; its Debug rendering
        // covers every rate and the seed deterministically.
        f.mix_str(&format!("{:?}", self.faults));
        f.finish()
    }

    fn system_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::new(self.model, self.nodes, self.ways);
        cfg.cpu_ghz = self.cpu_ghz;
        cfg.pipeline.look_ahead_scheduling = self.look_ahead;
        if let Some(lines) = self.bypass_lines {
            cfg.pipeline.bypass_lines = lines;
        }
        cfg.pipeline.perfect_protocol_caches = self.perfect_protocol_caches;
        cfg.faults = self.faults.clone();
        cfg.workers = self.workers;
        cfg
    }
}

/// Default workload scale; `SMTP_SCALE` overrides it so the full
/// experiment suite can be shrunk or grown without recompiling.
pub fn default_scale() -> f64 {
    std::env::var("SMTP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5)
}

/// Build (but do not run) the machine for an experiment point — the hook
/// for attaching tracing or metrics sampling before [`System::run`].
pub fn build_system(e: &ExperimentConfig) -> System {
    let cfg = e.system_config();
    let wl = smtp_workloads::WorkloadCfg {
        nodes: cfg.nodes,
        app_threads: cfg.app_threads,
        scale: e.scale,
        prefetch: e.prefetch,
    };
    System::with_workload(cfg, e.app, wl)
}

/// Run one experiment point to completion.
///
/// # Panics
///
/// Panics (with the full diagnosis) if the run fails; sweeps and table
/// generators treat a deadlocked point as a fatal bug. Use
/// [`try_run_experiment`] to handle failures structurally.
pub fn run_experiment(e: &ExperimentConfig) -> RunStats {
    try_run_experiment(e).unwrap_or_else(|err| panic!("{err}"))
}

/// Run one experiment point, returning the failure class and diagnosis
/// instead of panicking when the machine cannot complete.
pub fn try_run_experiment(e: &ExperimentConfig) -> Result<RunStats, RunError> {
    build_system(e).run_with(e.max_cycles, e.engine)
}

/// The differential-testing helper: run `e` on the tick-everything
/// reference loop ([`System::run_reference`]), on [`EngineKind::Serial`]
/// (inline) and on [`EngineKind::Parallel`] (threads, for `e.workers` > 1),
/// and assert that what `observe` extracts from each engine run equals what
/// it extracts from the reference run, which is returned. `arm` attaches
/// sinks and switches to each freshly built machine and may hand `observe`
/// a handle to them.
///
/// # Panics
///
/// Panics, naming `label` and the first divergence, if an engine differs.
#[doc(hidden)]
pub fn assert_engines_match_reference<A, T: PartialEq + std::fmt::Debug>(
    e: &ExperimentConfig,
    label: &str,
    arm: impl Fn(&mut System) -> A,
    observe: impl Fn(&mut System, A, Result<RunStats, RunError>) -> T,
) -> T {
    let leg = |engine: Option<EngineKind>| {
        let mut sys = build_system(e);
        let armed = arm(&mut sys);
        let res = match engine {
            None => sys.run_reference(e.max_cycles),
            Some(engine) => sys.run_with(e.max_cycles, engine),
        };
        observe(&mut sys, armed, res)
    };
    let oracle = leg(None);
    for engine in [EngineKind::Serial, EngineKind::Parallel] {
        let got = leg(Some(engine));
        if got != oracle {
            let (want, got) = (format!("{oracle:?}"), format!("{got:?}"));
            let same = want.bytes().zip(got.bytes()).take_while(|(a, b)| a == b);
            let at = same.count();
            let around = |s: &str| {
                let bytes = &s.as_bytes()[at.saturating_sub(120)..s.len().min(at + 120)];
                String::from_utf8_lossy(bytes).into_owned()
            };
            panic!(
                "[{label}] {engine} engine diverged from the reference loop at byte {at}:\n  \
                 reference: ...{}\n  {engine}: ...{}",
                around(&want),
                around(&got)
            );
        }
    }
    oracle
}

/// Normalized execution times of all five machine models for one
/// (app, nodes, ways) point — one group of bars in the paper's figures.
/// Returns `(model, total_norm, memory_stall_norm)` with `Base = 1.0`.
pub fn model_comparison(
    app: AppKind,
    nodes: usize,
    ways: usize,
    cpu_ghz: f64,
    scale: f64,
) -> Vec<(MachineModel, f64, f64)> {
    let runs: Vec<RunStats> = MachineModel::ALL
        .iter()
        .map(|&model| {
            let mut e = ExperimentConfig::new(model, app, nodes, ways);
            e.cpu_ghz = cpu_ghz;
            e.scale = scale;
            run_experiment(&e)
        })
        .collect();
    let base = runs[0].cycles as f64;
    runs.iter()
        .map(|r| {
            let total = r.cycles as f64 / base;
            let mem = r.memory_stall_cycles / base;
            (r.model, total, mem)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_completes_single_node() {
        let e = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, 1, 1);
        let r = run_experiment(&e);
        assert!(r.cycles > 1_000);
        assert!(r.app_instructions > 5_000);
        assert!(r.protocol_instructions > 0, "protocol thread never ran");
    }

    #[test]
    fn quick_experiment_completes_base_two_nodes() {
        let e = ExperimentConfig::quick(MachineModel::Base, AppKind::Fft, 2, 1);
        let r = run_experiment(&e);
        assert!(r.cycles > 1_000);
        assert!(r.network.messages > 0, "no network traffic on 2 nodes");
        assert_eq!(r.protocol_instructions, 0, "no protocol thread in Base");
        assert!(r.handlers > 0);
    }
}
