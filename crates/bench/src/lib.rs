//! Shared experiment-harness helpers for the paper-artifact benches.
//!
//! Every table and figure of the paper's evaluation (§4) has a bench
//! target in `benches/` that re-runs the corresponding simulations and
//! prints the same rows/series the paper reports. Absolute numbers differ
//! from the paper (scaled problems, synthetic kernels — DESIGN.md §2/§7);
//! the *shapes* are the reproduction target.
//!
//! Environment knobs:
//!
//! * `SMTP_SCALE` — workload scale (default 0.5); lower for quick runs.
//! * `SMTP_NODES_CAP` — cap the largest machine size (for smoke runs).
//! * `SMTP_ENGINE` — execution engine for the figure benches
//!   (`serial` = one inline worker | `parallel` = `workers` threads or the
//!   host's parallelism, the default; guest results are bit-identical,
//!   the choice is wall-clock only).

use smtp_core::{build_system, run_experiment, EngineKind, ExperimentConfig, RunStats};
use smtp_trace::HostProfile;
use smtp_types::MachineModel;
use smtp_workloads::AppKind;
use std::time::Instant;

pub mod archive;
pub mod diff;

pub use archive::{Archive, ArchiveEntry, Query, RunKey, ARCHIVE_SCHEMA_VERSION};
pub use diff::{
    diff_bench_reports, diff_reports, BenchDiff, DiffOptions, MetricDelta, NoiseBand, ReportDiff,
};
pub use smtp_core::experiment::default_scale;

/// Schema version of `BENCH_report.json`. Version 1 wraps the legacy bare
/// row array in `{"schema_version":1,"rows":[...]}` and adds per-row
/// config `fingerprint` columns; readers still accept the legacy array.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Cap on machine sizes (env `SMTP_NODES_CAP`, default unlimited).
pub fn nodes_cap() -> usize {
    std::env::var("SMTP_NODES_CAP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(usize::MAX)
}

/// Execution engine the figure benches run on (env `SMTP_ENGINE`,
/// default parallel). Guest results are bit-identical on either engine —
/// the `engine_equivalence` sweep enforces it — so the figures are
/// unchanged; the parallel default just regenerates them faster on
/// multi-core hosts (on a one-core host it is the same inline loop).
pub fn bench_engine() -> EngineKind {
    std::env::var("SMTP_ENGINE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(EngineKind::Parallel)
}

/// Run one point, echoing progress to stderr.
pub fn run_point(
    model: MachineModel,
    app: AppKind,
    nodes: usize,
    ways: usize,
    cpu_ghz: f64,
) -> RunStats {
    let mut e = ExperimentConfig::new(model, app, nodes, ways);
    e.cpu_ghz = cpu_ghz;
    e.engine = bench_engine();
    let t = Instant::now();
    let r = run_experiment(&e);
    eprintln!(
        "  [{} {} n={} w={} @{}GHz] {} cycles ({:.1}s)",
        model.label(),
        app.name(),
        nodes,
        ways,
        cpu_ghz,
        r.cycles,
        t.elapsed().as_secs_f64()
    );
    r
}

/// Run one experiment point on the given engine with host telemetry on,
/// returning the stats, the wall-clock seconds the run took, and the
/// engine's [`HostProfile`] (wall-clock attribution, barrier-wait share,
/// idle-skip efficiency, worker imbalance).
pub fn timed_point(
    e: &ExperimentConfig,
    engine: EngineKind,
) -> (RunStats, f64, Option<HostProfile>) {
    let mut e = e.clone();
    e.engine = engine;
    let mut sys = build_system(&e);
    sys.enable_host_telemetry();
    let t = Instant::now();
    let r = sys
        .run_with(e.max_cycles, engine)
        .unwrap_or_else(|err| panic!("{err}"));
    let wall = t.elapsed().as_secs_f64();
    eprintln!(
        "  [{} {} n={} w={} engine={engine}] {} cycles ({wall:.2}s)",
        e.model.label(),
        e.app.name(),
        e.nodes,
        e.ways,
        r.cycles,
    );
    (r, wall, sys.take_host_profile())
}

/// The benches' correctness check, run once per point: every engine's
/// `stats` for `e` must be exactly what the tick-everything reference loop
/// ([`smtp_core::System::run_reference`]) produces.
///
/// # Panics
///
/// Panics naming `what` if the reference run fails or any `stats` differ.
pub fn assert_matches_reference(e: &ExperimentConfig, stats: &[&RunStats], what: &str) {
    let oracle = build_system(e)
        .run_reference(e.max_cycles)
        .unwrap_or_else(|err| panic!("{err}"));
    let oracle = format!("{oracle:?}");
    for s in stats {
        assert_eq!(
            oracle,
            format!("{s:?}"),
            "an engine diverged from the reference loop on {what}"
        );
    }
}

/// Print one paper-style normalized-execution-time figure: for each
/// application, five bars (machine models) split into memory-stall and
/// non-memory components, normalized to `Base`.
pub fn print_model_figure(title: &str, nodes: usize, ways: usize, cpu_ghz: f64) {
    println!("\n=== {title} ===");
    println!(
        "{:6} | {}",
        "app",
        MachineModel::ALL
            .map(|m| format!("{:>16}", m.label()))
            .join(" ")
    );
    println!("{:6} | {}", "", "   total(mem+cpu)".repeat(5));
    for app in AppKind::ALL {
        let runs: Vec<RunStats> = MachineModel::ALL
            .iter()
            .map(|&m| run_point(m, app, nodes, ways, cpu_ghz))
            .collect();
        let base = runs[0].cycles as f64;
        let cells: Vec<String> = runs
            .iter()
            .map(|r| {
                let total = r.cycles as f64 / base;
                let mem = r.memory_stall_cycles / base;
                format!("{:>5.3}({:.2}+{:.2})", total, mem, total - mem)
            })
            .collect();
        println!("{:6} | {}", app.name(), cells.join(" "));
    }
}

/// Self-relative speedup of `model` on `nodes` with 1/2/4 application
/// threads, relative to its own 1-node 1-way execution (paper Tables 5/6).
pub fn print_speedup_table(title: &str, model: MachineModel, nodes: usize) {
    println!("\n=== {title} ===");
    println!("{:6} | {:>7} {:>7} {:>7}", "app", "1-way", "2-way", "4-way");
    for app in AppKind::ALL {
        let uni = run_point(model, app, 1, 1, 2.0).cycles as f64;
        let mut row = format!("{:6} |", app.name());
        for ways in [1, 2, 4] {
            let c = run_point(model, app, nodes, ways, 2.0).cycles as f64;
            row.push_str(&format!(" {:>7.2}", uni / c));
        }
        println!("{row}");
    }
}

/// Shorthand percentage formatter.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// One row of the machine-readable benchmark report (`BENCH_report.json`).
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Machine model label.
    pub model: String,
    /// Application name.
    pub app: String,
    /// Machine size.
    pub nodes: usize,
    /// Application threads per node.
    pub ways: usize,
    /// Parallel execution time.
    pub cycles: u64,
    /// Committed application instructions per cycle.
    pub ipc: f64,
    /// Mean remote L2 miss latency in cycles (0 when none occurred).
    pub remote_miss_mean: f64,
    /// 95th-percentile remote L2 miss latency in cycles.
    pub remote_miss_p95: u64,
    /// Wall-clock seconds on the serial reference engine (0 when the
    /// point was only run once).
    pub serial_secs: f64,
    /// Wall-clock seconds on the parallel epoch engine.
    pub parallel_secs: f64,
    /// Simulator speedup: `serial_secs / parallel_secs` (1.0 when the
    /// point was only run once).
    pub speedup: f64,
    /// Worker threads the parallel engine used (1 when the point was only
    /// run serially).
    pub workers: usize,
    /// Percentage of parallel-worker wall-clock spent waiting at epoch
    /// barriers (host telemetry).
    pub barrier_wait_pct: f64,
    /// Mean per-epoch owned-node tick imbalance across workers
    /// (`max/mean`; 1.0 = perfectly balanced). `None` — serialized as
    /// JSON `null` — when the point ran single-worker: imbalance across
    /// one worker is not a meaningful quantity.
    pub imbalance: Option<f64>,
    /// Percentage of node-cycles the parallel engine skipped as provably
    /// idle instead of ticking.
    pub skip_efficiency_pct: f64,
    /// Deterministic [`ExperimentConfig::fingerprint`] of the point's
    /// guest configuration (0 when the row was built from bare
    /// [`RunStats`] without a config in hand).
    pub fingerprint: u64,
    /// Home node with the peak protocol-occupancy fraction (`None` —
    /// serialized as JSON `null` — when the run reported no home heat,
    /// e.g. a row rebuilt from a pre-spatial archive).
    pub home_occ_peak_node: Option<u64>,
    /// Busy fraction of the hottest NoC link (0 when no traffic flowed or
    /// the row predates the spatial section).
    pub link_util_peak: f64,
}

impl BenchRow {
    /// Extract the report row from one run's statistics.
    pub fn from_stats(r: &RunStats) -> BenchRow {
        // Classes 2/3 are remote read / remote read-exclusive.
        let mut remote = r.latency.end_to_end[2].clone();
        remote.merge(&r.latency.end_to_end[3]);
        BenchRow {
            model: r.model.label().to_string(),
            app: r.app.to_string(),
            nodes: r.nodes,
            ways: r.ways,
            cycles: r.cycles,
            ipc: r.ipc(),
            remote_miss_mean: remote.mean(),
            remote_miss_p95: remote.percentile(95.0),
            serial_secs: 0.0,
            parallel_secs: 0.0,
            speedup: 1.0,
            workers: 1,
            barrier_wait_pct: 0.0,
            imbalance: None,
            skip_efficiency_pct: 0.0,
            fingerprint: 0,
            home_occ_peak_node: r.spatial.peak_home().map(|h| h.node as u64),
            link_util_peak: r.spatial.peak_link_util(),
        }
    }

    /// Report row from a serial/parallel engine pair over the same point
    /// (the stats are bit-identical; the wall clocks differ).
    pub fn from_engine_pair(r: &RunStats, serial_secs: f64, parallel_secs: f64) -> BenchRow {
        let mut row = BenchRow::from_stats(r);
        row.serial_secs = serial_secs;
        row.parallel_secs = parallel_secs;
        row.speedup = serial_secs / parallel_secs.max(1e-9);
        row
    }

    /// Fold the parallel run's host telemetry into the row: worker count,
    /// barrier-wait percentage, per-epoch imbalance and skip efficiency.
    /// Imbalance stays `None` for single-worker runs — a one-worker
    /// "max/mean" ratio is vacuously 1.0 and would only mislead readers.
    pub fn apply_host_profile(&mut self, h: &HostProfile) {
        self.workers = h.workers;
        self.barrier_wait_pct = 100.0 * h.barrier_wait_frac();
        self.imbalance = (h.workers > 1).then(|| h.imbalance_ratio());
        self.skip_efficiency_pct = 100.0 * h.skip_efficiency();
    }

    /// Rebuild a report row from a serial/parallel pair of **archived**
    /// runs of the same configuration — the path `bench_report` uses so
    /// the committed `BENCH_report.json` is provably derivable from the
    /// archive alone. Errors if the two entries disagree on any guest
    /// metric (that would be a determinism regression, not a usable
    /// pair).
    pub fn from_archive_pair(
        serial: &ArchiveEntry,
        parallel: &ArchiveEntry,
    ) -> Result<BenchRow, String> {
        let (a, b) = (&serial.report, &parallel.report);
        if serial.key.fingerprint != parallel.key.fingerprint {
            return Err(format!(
                "archive pair fingerprints differ: {:016x} vs {:016x}",
                serial.key.fingerprint, parallel.key.fingerprint
            ));
        }
        let d = diff::diff_reports(a, b, &DiffOptions::default());
        if d.has_guest_drift() {
            return Err(format!(
                "archived serial/parallel runs drifted:\n{}",
                d.gate().unwrap_err()
            ));
        }
        let remote = a
            .remote_miss
            .as_ref()
            .ok_or("archived report predates the remote_miss histogram (schema < 3)")?;
        let host_secs =
            |r: &smtp_core::ParsedReport| r.host.as_ref().map_or(0.0, |h| h.wall_ns as f64 / 1e9);
        let (serial_secs, parallel_secs) = (host_secs(a), host_secs(b));
        let mut row = BenchRow {
            model: a.model.clone(),
            app: a.app.clone(),
            nodes: a.nodes as usize,
            ways: a.ways as usize,
            cycles: a.cycles,
            ipc: a.ipc,
            remote_miss_mean: remote.mean,
            remote_miss_p95: remote.p95,
            serial_secs,
            parallel_secs,
            speedup: if parallel_secs > 0.0 {
                serial_secs / parallel_secs
            } else {
                1.0
            },
            workers: 1,
            barrier_wait_pct: 0.0,
            imbalance: None,
            skip_efficiency_pct: 0.0,
            fingerprint: serial.key.fingerprint,
            home_occ_peak_node: a.spatial.as_ref().and_then(|sp| sp.home_occ_peak_node),
            link_util_peak: a.spatial.as_ref().map_or(0.0, |sp| sp.link_util_peak),
        };
        if let Some(h) = &b.host {
            row.workers = h.workers as usize;
            row.barrier_wait_pct = 100.0 * h.barrier_wait_frac;
            row.imbalance = (h.workers > 1).then_some(h.imbalance_ratio);
            row.skip_efficiency_pct = 100.0 * h.skip_efficiency;
        }
        Ok(row)
    }
}

/// The 32-node smoke configuration shared by the `fig8_9_32node` bench and
/// `bench_report`'s 32-node row: the largest machine the paper evaluates,
/// shrunk to a scale that completes quickly. Node count is capped by
/// `SMTP_NODES_CAP` (rounded down to a power of two), and the parallel
/// engine is pinned to 2 workers so barrier/imbalance telemetry is
/// exercised even on single-core hosts.
pub fn fig32_smoke_config(app: AppKind) -> ExperimentConfig {
    let cap = nodes_cap().clamp(1, 32);
    let mut nodes = 1;
    while nodes * 2 <= cap {
        nodes *= 2;
    }
    let mut e = ExperimentConfig::new(MachineModel::SMTp, app, nodes, 2);
    e.cpu_ghz = 2.0;
    e.scale = default_scale().min(0.12);
    e.workers = Some(2);
    e
}

/// A scaling point *past* the paper: an SMTp bristled-hypercube machine
/// of `nodes` (any power of two up to the 128 the config supports),
/// 2-way, with the workload scaled down inversely with machine size so a
/// sweep's points complete in comparable wall time. Worker count is left
/// to the host (capped at the node count by the engine).
pub fn scaling_config(app: AppKind, nodes: usize) -> ExperimentConfig {
    let mut e = ExperimentConfig::new(MachineModel::SMTp, app, nodes, 2);
    e.cpu_ghz = 2.0;
    e.scale = (default_scale().min(0.12) * 32.0 / nodes as f64).max(0.02);
    e
}

/// Render `rows` as the schema-versioned bench report document
/// (hand-rolled, deterministic): `{"schema_version":1,"rows":[...]}`,
/// each row carrying its guest-config `fingerprint` (hex) and `null`
/// imbalance for single-worker points.
pub fn render_bench_report(rows: &[BenchRow]) -> String {
    use std::fmt::Write as _;
    // Wall-clock ratios only mean something relative to the host's
    // parallelism; stamp it so committed reports are comparable.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = format!("{{\"schema_version\":{BENCH_SCHEMA_VERSION},\"rows\":[\n");
    for (i, r) in rows.iter().enumerate() {
        let imbalance = match r.imbalance {
            Some(v) => format!("{v:.2}"),
            None => "null".to_string(),
        };
        let peak_node = match r.home_occ_peak_node {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "  {{\"model\":\"{}\",\"app\":\"{}\",\"nodes\":{},\"ways\":{},\"cycles\":{},\
             \"ipc\":{:.4},\"remote_miss_mean\":{:.1},\"remote_miss_p95\":{},\
             \"serial_secs\":{:.3},\"parallel_secs\":{:.3},\"speedup\":{:.2},\
             \"workers\":{},\"barrier_wait_pct\":{:.1},\"imbalance\":{imbalance},\
             \"skip_efficiency_pct\":{:.1},\"fingerprint\":\"{:016x}\",\
             \"home_occ_peak_node\":{peak_node},\"link_util_peak\":{:.4},\
             \"host_cores\":{cores}}}",
            r.model,
            r.app,
            r.nodes,
            r.ways,
            r.cycles,
            r.ipc,
            r.remote_miss_mean,
            r.remote_miss_p95,
            r.serial_secs,
            r.parallel_secs,
            r.speedup,
            r.workers,
            r.barrier_wait_pct,
            r.skip_efficiency_pct,
            r.fingerprint,
            r.link_util_peak
        );
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    out.push_str("]}\n");
    out
}

/// Write `rows` as the schema-versioned bench report to `path` — the
/// artifact CI uploads from benchmark runs and diffs against the
/// committed baseline.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_bench_report(path: &str, rows: &[BenchRow]) {
    std::fs::write(path, render_bench_report(rows)).expect("write bench report");
    eprintln!("wrote {path} ({} rows)", rows.len());
}

/// A minimal dependency-free micro-benchmark harness: warms up, then times
/// `iters` calls of `f` per sample over `samples` samples and prints the
/// best sample as ns/iter (best-of-N rejects scheduler noise the way
/// statistical harnesses reject outliers).
pub fn bench_micro<R>(name: &str, iters: u64, mut f: impl FnMut() -> R) -> f64 {
    const SAMPLES: u32 = 7;
    for _ in 0..iters / 4 + 1 {
        std::hint::black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    println!("{name:<40} {best:>12.1} ns/iter");
    best
}
