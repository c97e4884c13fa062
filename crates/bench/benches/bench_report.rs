//! Machine-readable benchmark report: run every machine model on a fixed
//! configuration under **both execution engines** and emit
//! `BENCH_report.json` with cycles, IPC, mean/95th-percentile remote-miss
//! latency, the serial-vs-parallel simulator speedup per model, and the
//! parallel engine's host telemetry (worker count, barrier-wait share,
//! imbalance, idle-skip efficiency) — the artifact CI uploads so
//! run-to-run performance is diffable *and attributable*.
//!
//! Every run's full report lands in the cross-run **archive** first
//! (`SMTP_ARCHIVE_DIR`, default `target/bench_archive`), and the report
//! rows are then rebuilt from the archived entries — so the committed
//! `BENCH_report.json` is provably derivable from the archive alone, and
//! the archive keeps the complete per-run reports the summary rows were
//! distilled from.
//!
//! Every point is run on the `serial` engine (one inline worker) and on the
//! `parallel` engine (the point's pinned `workers`, else the host's
//! parallelism, on threads), and checked once against the tick-everything
//! reference loop; the archive pair is then diffed and must be guest
//! bit-identical before the wall-clock ratio is reported. A `"workers":1`
//! row times the same inline path on both legs, so its ratio reads
//! run-to-run noise, not an engine difference. Two legs ride
//! along past the main model×app grid: SMTp at the largest 16-capped
//! machine pinned to 2 workers (so the report always carries multi-worker
//! speedup/imbalance rows), and a 32-node SMTp smoke point (shared with
//! the `fig8_9_32node` bench) as the scaling sentinel.
//!
//! ```text
//! cargo bench --bench bench_report
//! SMTP_SCALE=0.05 SMTP_NODES_CAP=4 cargo bench --bench bench_report
//! SMTP_BENCH_OUT=other.json SMTP_ARCHIVE_DIR=archive cargo bench --bench bench_report
//! ```

use smtp_bench::{
    assert_matches_reference, fig32_smoke_config, nodes_cap, timed_point, Archive, BenchRow, RunKey,
};
use smtp_core::{EngineKind, ExperimentConfig, Report};
use smtp_types::MachineModel;
use smtp_workloads::AppKind;

/// Run one point on both engines, check them against the reference loop,
/// archive both full reports, and rebuild the summary row from the
/// archived pair.
fn engine_pair_row(archive: &mut Archive, e: &ExperimentConfig, label: &str) -> BenchRow {
    let (serial, _, serial_host) = timed_point(e, EngineKind::Serial);
    let (parallel, _, parallel_host) = timed_point(e, EngineKind::Parallel);
    assert_matches_reference(e, &[&serial, &parallel], label);
    let (serial_host, parallel_host) = (
        serial_host.expect("serial host profile"),
        parallel_host.expect("parallel host profile"),
    );
    let mut se = e.clone();
    se.engine = EngineKind::Serial;
    let mut pe = e.clone();
    pe.engine = EngineKind::Parallel;
    let serial_entry = archive
        .append(
            &RunKey::for_experiment(&se),
            &Report::with_host_profile(&serial, &serial_host).json(),
        )
        .unwrap_or_else(|err| panic!("archive {label} serial: {err}"))
        .clone();
    let parallel_entry = archive
        .append(
            &RunKey::for_experiment(&pe),
            &Report::with_host_profile(&parallel, &parallel_host).json(),
        )
        .unwrap_or_else(|err| panic!("archive {label} parallel: {err}"))
        .clone();
    BenchRow::from_archive_pair(&serial_entry, &parallel_entry)
        .unwrap_or_else(|err| panic!("engines diverged on {label}: {err}"))
}

fn main() {
    let nodes = 8.min(nodes_cap());
    let ways = 2;
    // Default next to the workspace root (cargo runs benches with the
    // package directory as CWD), where CI picks the artifact up.
    let out = std::env::var("SMTP_BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json").into());
    let archive_dir = std::env::var("SMTP_ARCHIVE_DIR").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench_archive").into()
    });
    let mut archive = Archive::open(&archive_dir).unwrap_or_else(|err| panic!("{err}"));
    let mut rows = Vec::new();
    for model in MachineModel::ALL {
        for app in [AppKind::Fft, AppKind::Ocean] {
            let mut e = ExperimentConfig::new(model, app, nodes, ways);
            e.cpu_ghz = 2.0;
            rows.push(engine_pair_row(
                &mut archive,
                &e,
                &format!("{model:?} {app:?}"),
            ));
        }
    }
    // Multi-worker leg: the SMTp points again at the largest 16-capped
    // machine with the parallel engine pinned to 2 workers, so the report
    // always carries workers>=2 rows (speedup, barrier share, imbalance)
    // even on hosts whose default worker count would be 1. These rows are
    // a separate measurement population from the single-worker ones — the
    // diff gate compares rows only within matching worker counts.
    let mw_nodes = 16.min(nodes_cap());
    for app in [AppKind::Fft, AppKind::Ocean] {
        if mw_nodes <= nodes {
            // The cap collapsed this leg onto the main rows' machine
            // size; skip rather than emit near-duplicate keys.
            break;
        }
        let mut e = ExperimentConfig::new(MachineModel::SMTp, app, mw_nodes, ways);
        e.cpu_ghz = 2.0;
        e.workers = Some(2);
        rows.push(engine_pair_row(
            &mut archive,
            &e,
            &format!("SMTp {app:?} {mw_nodes}-node workers=2"),
        ));
    }
    // The 32-node scaling sentinel (smoke scale, 2 pinned workers). Under
    // a tight SMTP_NODES_CAP the sentinel collapses onto the multi-worker
    // leg's Fft point exactly (same nodes, workers and scale) — skip it
    // then rather than archive and report the same config twice.
    let e32 = fig32_smoke_config(AppKind::Fft);
    if !(mw_nodes > nodes && e32.nodes == mw_nodes) {
        rows.push(engine_pair_row(
            &mut archive,
            &e32,
            "SMTp Fft 32-node smoke",
        ));
    }
    for r in &rows {
        println!(
            "{:>10} {:6} n={} w={}: {:>9} cycles, IPC {:.3}, remote miss {:>6.0} / p95 {}, \
             serial {:.2}s / parallel {:.2}s = {:.2}x \
             [{} workers, barrier {:.1}%, imbalance {}, skip {:.1}%, fp {:016x}, \
             hot home {} / link {:.1}%]",
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
            r.imbalance.map_or("n/a".to_string(), |v| format!("{v:.2}")),
            r.skip_efficiency_pct,
            r.fingerprint,
            r.home_occ_peak_node
                .map_or("n/a".to_string(), |n| format!("n{n}")),
            100.0 * r.link_util_peak
        );
    }
    eprintln!(
        "archived {} runs in {archive_dir}",
        archive.query().run().len()
    );
    smtp_bench::write_bench_report(&out, &rows);
}
