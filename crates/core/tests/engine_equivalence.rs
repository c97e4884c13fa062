//! Engine-vs-reference equivalence.
//!
//! The epoch engine promises results *bit-identical* to the
//! tick-everything reference loop (`System::run_reference`), whether it
//! runs inline (`Serial`) or on threads (`Parallel`): the same `RunStats`
//! (down to every latency histogram and fault counter), the same trace
//! event stream, and the same metrics sample rows, for every seed, node
//! count, worker count and fault plan. These tests hold it to that promise
//! over a grid of machine shapes and a seeded random sweep, and pin down
//! the idle-skipping schedules (a skip must never jump past a scheduled
//! network arrival, a fault window, or a sampler tick — any overshoot
//! shows up as a diverging trace or sample row).

use smtp_core::experiment::assert_engines_match_reference;
use smtp_core::ExperimentConfig;
use smtp_trace::MemorySink;
use smtp_types::{Cycle, FaultConfig, MachineModel, SplitMix64, SystemConfig};
use smtp_workloads::AppKind;

/// Everything observable from one run — stats or structured error
/// (Debug-formatted, so every field participates), the full trace stream,
/// and any metrics rows — must match the reference loop's on both engines.
fn assert_equivalent(e: &ExperimentConfig, metrics_interval: Option<Cycle>, label: &str) {
    assert_engines_match_reference(
        e,
        label,
        |sys| {
            sys.tracer().enable_all();
            let store = MemorySink::shared();
            sys.tracer().add_sink(Box::new(MemorySink::attach(&store)));
            if let Some(interval) = metrics_interval {
                sys.enable_metrics(interval);
            }
            store
        },
        |sys, store, res| {
            let metrics = sys.metrics().map(|s| s.rows().to_vec()).unwrap_or_default();
            let events = store.borrow().clone();
            (format!("{res:?}"), events, metrics)
        },
    );
}

fn point(model: MachineModel, nodes: usize, ways: usize, seed: Option<u64>) -> ExperimentConfig {
    let mut e = ExperimentConfig::quick(model, AppKind::Fft, nodes, ways);
    e.scale = 0.1;
    if let Some(seed) = seed {
        e.faults = FaultConfig::chaos(seed);
    }
    e
}

#[test]
fn single_node_matches() {
    assert_equivalent(&point(MachineModel::SMTp, 1, 2, None), None, "smtp x1");
}

#[test]
fn two_nodes_match() {
    assert_equivalent(&point(MachineModel::SMTp, 2, 2, None), None, "smtp x2");
}

#[test]
fn four_nodes_match() {
    assert_equivalent(&point(MachineModel::SMTp, 4, 1, None), None, "smtp x4");
}

#[test]
fn base_model_matches() {
    assert_equivalent(&point(MachineModel::Base, 4, 1, None), None, "base x4");
}

#[test]
fn single_node_with_faults_matches() {
    assert_equivalent(
        &point(MachineModel::SMTp, 1, 1, Some(7)),
        None,
        "smtp x1 chaos",
    );
}

#[test]
fn two_nodes_with_faults_match() {
    assert_equivalent(
        &point(MachineModel::SMTp, 2, 1, Some(11)),
        None,
        "smtp x2 chaos",
    );
}

#[test]
fn four_nodes_with_faults_match() {
    assert_equivalent(
        &point(MachineModel::SMTp, 4, 1, Some(42)),
        None,
        "smtp x4 chaos",
    );
}

/// Idle-skipping must not jump past sampler ticks: with a short sampling
/// interval every epoch is cut at the sampler schedule, and the sampled
/// utilization/occupancy rows (computed from exact cycle counters at the
/// sample cycle) must match the reference loop row for row.
#[test]
fn metrics_sampling_matches_under_idle_skip() {
    assert_equivalent(
        &point(MachineModel::SMTp, 4, 1, None),
        Some(2_000),
        "smtp x4 sampled",
    );
    assert_equivalent(
        &point(MachineModel::SMTp, 2, 2, Some(3)),
        Some(1_000),
        "smtp x2 chaos sampled",
    );
}

/// Error paths are part of the contract too: a run that hits the cycle
/// limit must report the same structured Deadlock, at the same cycle with
/// the same diagnosis and trace, from the reference loop and both engines.
#[test]
fn deadlock_diagnosis_matches() {
    let mut e = point(MachineModel::SMTp, 2, 1, None);
    e.max_cycles = 20_000;
    e.workers = Some(2);
    assert_equivalent(&e, Some(3_000), "smtp x2 out of budget");
}

/// A seeded sweep over the whole configuration space the engine branches
/// on: machine model × application × 1–8 nodes × 1–2 ways × fault plan ×
/// sampler × worker count (1 runs `Parallel` inline, 3 splits unevenly,
/// 64 clamps to one worker per node — never an empty partition).
#[test]
fn differential_sweep_matches_reference() {
    const APPS: [AppKind; 6] = [
        AppKind::Fft,
        AppKind::Fftw,
        AppKind::Lu,
        AppKind::Ocean,
        AppKind::Radix,
        AppKind::Water,
    ];
    let mut rng = SplitMix64::new(0x5EED_E9C4);
    let mut pick = |n: u64| rng.below(n) as usize;
    for i in 0..16u64 {
        let model = MachineModel::ALL[pick(5)];
        let mut e = ExperimentConfig::quick(model, APPS[pick(6)], 1 << pick(4), 1 + pick(2));
        e.scale = 0.05;
        e.workers = Some([1, 2, 3, 64][pick(4)]);
        if pick(2) == 1 {
            e.faults = FaultConfig::chaos(0xC0FFEE + i);
        }
        let sampler = (pick(2) == 1).then_some(1_500);
        let label = format!(
            "sweep {i}: {model:?} {} x{} {}-way workers={:?} chaos={} sampler={sampler:?}",
            e.app, e.nodes, e.ways, e.workers, e.faults.enabled
        );
        assert_equivalent(&e, sampler, &label);
    }
}

/// A pinned worker count larger than the node count must clamp to one
/// worker per node — never spawn empty partitions — and stay
/// bit-identical to the reference loop.
#[test]
fn worker_count_above_node_count_clamps() {
    let mut e = point(MachineModel::SMTp, 4, 2, None);
    e.workers = Some(64);
    assert_equivalent(&e, None, "smtp x4 workers=64");
    let mut e = point(MachineModel::SMTp, 2, 1, Some(11));
    e.workers = Some(9);
    assert_equivalent(&e, None, "smtp x2 chaos workers=9");
}

/// A pinned worker count of zero is rejected deterministically at
/// configuration validation — before any thread is spawned — not
/// discovered as a hang or an empty-partition panic mid-run.
#[test]
fn zero_workers_rejected_at_validation() {
    let err = std::panic::catch_unwind(|| {
        let mut cfg = SystemConfig::new(MachineModel::SMTp, 2, 1);
        cfg.workers = Some(0);
        cfg.validate();
    })
    .expect_err("workers=0 must be rejected");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("worker count"),
        "validation panic should name the worker count, got: {msg}"
    );
}

/// The 64-node bristled hypercube — past the paper's largest machine,
/// and the scale that first exposed the store-drain quiescence hole
/// (a node reported quiescent while its last stores were still draining
/// to L1d, so the engine's overshoot-and-retract past exact quiescence
/// executed un-rewindable cache accesses).
#[test]
#[ignore = "tens of seconds in release, minutes in debug; CI runs it in release via the engine-scaling leg"]
fn large_hypercube_matches() {
    let mut e = point(MachineModel::SMTp, 64, 2, None);
    e.scale = 0.02;
    assert_equivalent(&e, None, "x64");
}
