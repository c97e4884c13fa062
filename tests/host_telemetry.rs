//! Host-side engine telemetry: wall-clock attribution must *telescope*
//! (per-phase time sums to lane total), the heartbeat must emit valid
//! JSONL even when a run dies mid-flight, and — the load-bearing property
//! — turning telemetry on must never perturb a single guest-visible bit:
//! the same `RunStats`, trace events and metrics rows as the tick-everything
//! reference loop fall out whether the engine profiles itself or not, inline
//! or on threads, faults or no faults.

use smtp::core::experiment::assert_engines_match_reference;
use smtp::trace::{MemorySink, SharedBuf};
use smtp::{
    build_system, AppKind, EngineKind, ExperimentConfig, FaultConfig, HostPhase, HostProfile,
    MachineModel,
};
use std::cell::RefCell;

fn point(model: MachineModel, nodes: usize, ways: usize, seed: Option<u64>) -> ExperimentConfig {
    let mut e = ExperimentConfig::quick(model, AppKind::Fft, nodes, ways);
    e.scale = 0.1;
    // Pinned in the *config* so every run records the same
    // `RunStats.workers` and the parallel engine really uses threads.
    e.workers = Some(2);
    if let Some(seed) = seed {
        e.faults = FaultConfig::chaos(seed);
    }
    e
}

/// Everything guest-visible from one run: stats, trace length and head,
/// metrics rows.
type Guest = (String, usize, String, Vec<(u64, Vec<f64>)>);

/// Run `e` on the reference loop and on both engines with host telemetry
/// (and whatever else `arm` switches on), asserting that each engine's
/// guest-visible output matches the reference loop's. Returns it, with the
/// serial and parallel engines' host profiles (none with telemetry off).
fn observe(
    e: &ExperimentConfig,
    telemetry: bool,
    arm: impl Fn(&mut smtp::System),
    label: &str,
) -> (Guest, Vec<HostProfile>) {
    let hosts = RefCell::new(Vec::new());
    let guest = assert_engines_match_reference(
        e,
        label,
        |sys| {
            sys.tracer().enable_all();
            let store = MemorySink::shared();
            sys.tracer().add_sink(Box::new(MemorySink::attach(&store)));
            sys.enable_metrics(5_000);
            if telemetry {
                sys.enable_host_telemetry();
            }
            arm(sys);
            store
        },
        |sys, store, res| {
            let stats = res.unwrap_or_else(|err| panic!("[{label}] run failed: {err}"));
            hosts.borrow_mut().extend(sys.take_host_profile());
            let metrics = sys.metrics().map(|s| s.rows().to_vec()).unwrap_or_default();
            let events = store.borrow().len();
            let first_events = format!("{:?}", &store.borrow()[..events.min(64)]);
            (format!("{stats:?}"), events, first_events, metrics)
        },
    );
    (guest, hosts.into_inner())
}

/// Per-lane phase attribution must telescope: the per-phase nanoseconds
/// sum to the lane's total within epsilon (the `PhaseTimer` charges every
/// interval between consecutive clock stamps to exactly one phase, so the
/// error should in fact be zero), lane 0 spans the run's wall clock, and
/// every simulated node-cycle was either ticked or skipped.
fn assert_telescopes(host: &HostProfile, nodes: usize, label: &str) {
    const EPS: f64 = 1e-6;
    assert_eq!(host.lanes[0].total_ns, host.wall_ns, "[{label}] lane 0");
    for lane in &host.lanes {
        let sum = lane.phase_sum();
        let err = (sum as f64 - lane.total_ns as f64).abs() / (lane.total_ns.max(1) as f64);
        assert!(
            err <= EPS,
            "[{label}] lane {} does not telescope: phases sum to {sum} ns, total {} ns",
            lane.name,
            lane.total_ns
        );
    }
    assert!(
        host.telescoping_error() <= EPS,
        "[{label}] telescoping_error {} exceeds epsilon",
        host.telescoping_error()
    );
    assert!(host.epochs > 0 && host.sim_cycles > 0 && host.wall_ns > 0);
    assert_eq!(host.epochs, host.epoch_cycles.count());
    assert_eq!(
        host.ticked_cycles + host.skipped_cycles,
        host.sim_cycles * nodes as u64,
        "[{label}] node-cycles are not conserved"
    );
}

#[test]
fn serial_profile_telescopes_and_covers_the_run() {
    let e = point(MachineModel::SMTp, 2, 2, None);
    let (_, hosts) = observe(&e, true, |_| {}, "x2");
    // One worker runs inline — `Serial`, or `Parallel` pinned to one.
    let mut pinned = e.clone();
    pinned.workers = Some(1);
    let (_, pinned) = observe(&pinned, true, |_| {}, "x2 workers=1");
    for (host, engine) in [(&hosts[0], "serial"), (&pinned[1], "parallel")] {
        assert_eq!(host.engine, engine);
        assert_eq!(host.workers, 1);
        assert_eq!(host.lanes.len(), 1, "one inline lane, no coordinator");
        let lane = &host.lanes[0];
        let waits = [HostPhase::BarrierArrive, HostPhase::BarrierDepart];
        assert!(waits.iter().all(|&p| lane.phase_ns[p as usize] == 0));
        assert_eq!(host.barrier_wait_frac(), 0.0);
        assert_telescopes(host, e.nodes, engine);
    }
}

#[test]
fn parallel_profile_telescopes_and_covers_the_run() {
    let e = point(MachineModel::SMTp, 4, 2, None);
    let (_, hosts) = observe(&e, true, |_| {}, "x4");
    let host = &hosts[1];
    assert_eq!(host.engine, "parallel");
    assert_eq!(host.workers, 2);
    // Coordinator lane plus one lane per worker.
    assert_eq!(host.lanes.len(), 1 + host.workers);
    assert_telescopes(host, e.nodes, "parallel");
    // Derived metrics stay in range.
    let bw = host.barrier_wait_frac();
    assert!(
        (0.0..=1.0).contains(&bw),
        "barrier_wait_frac {bw} out of range"
    );
    let skip = host.skip_efficiency();
    assert!(
        (0.0..=1.0).contains(&skip),
        "skip_efficiency {skip} out of range"
    );
    for u in host.worker_utilization() {
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }
}

#[test]
fn telemetry_never_perturbs_guest_state() {
    let e = point(MachineModel::SMTp, 2, 2, None);
    let (off, no_hosts) = observe(&e, false, |_| {}, "telemetry off");
    let (on, hosts) = observe(&e, true, |_| {}, "telemetry on");
    assert_eq!(off, on, "telemetry perturbed the guest");
    assert!(no_hosts.is_empty(), "telemetry off must not profile");
    assert_eq!(hosts.len(), 2, "both engines must profile");
}

/// Both promises at once, with the fault machinery live (armed nodes
/// never idle-skip, and exits retract real ticks): guest bits identical to
/// the reference loop, host attribution that still telescopes.
#[test]
fn telemetry_never_perturbs_guest_state_under_chaos_faults() {
    for (nodes, seed) in [(2, 7u64), (2, 0xC8A05), (4, 7)] {
        let e = point(MachineModel::SMTp, nodes, 2, Some(seed));
        let label = format!("x{nodes} chaos({seed})");
        let (off, _) = observe(&e, false, |_| {}, &label);
        let (on, hosts) = observe(&e, true, |_| {}, &label);
        assert_eq!(off, on, "[{label}] telemetry perturbed the guest");
        for host in &hosts {
            assert_telescopes(host, nodes, &label);
        }
    }
}

#[test]
fn heartbeat_never_perturbs_guest_state() {
    let e = point(MachineModel::SMTp, 2, 2, None);
    let (plain, _) = observe(&e, false, |_| {}, "no heartbeat");
    // Beats are snapped to epoch boundaries; the quick run is ~25k cycles,
    // so a 4k-cycle interval yields several on top of the start and end
    // records.
    let buf = SharedBuf::new();
    let arm = |sys: &mut smtp::System| sys.enable_heartbeat(4_000, Some(Box::new(buf.clone())));
    let (beating, _) = observe(&e, false, arm, "heartbeat");
    assert_eq!(plain, beating, "heartbeat perturbed the guest");
    assert_heartbeat_jsonl(&buf.to_string_lossy(), 2 * 4);
}

/// Validate a heartbeat stream: line-complete JSONL, each line one
/// balanced JSON object carrying the expected keys.
fn assert_heartbeat_jsonl(text: &str, min_lines: usize) {
    assert!(!text.is_empty(), "no heartbeat output");
    assert!(
        text.ends_with('\n'),
        "heartbeat stream truncated mid-line: {:?}",
        &text[text.len().saturating_sub(80)..]
    );
    let mut lines = 0usize;
    for line in text.lines() {
        assert!(
            line.starts_with("{\"hb\":") && line.ends_with('}'),
            "malformed heartbeat line: {line:?}"
        );
        for key in [
            "\"cycle\":",
            "\"sim_cycles_per_sec\":",
            "\"workers\":",
            "\"util\":[",
        ] {
            assert!(line.contains(key), "heartbeat line missing {key}: {line:?}");
        }
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in line.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' if !in_str => depth += 1,
                '}' if !in_str => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0, "unbalanced braces: {line:?}");
        assert!(!in_str, "unterminated string: {line:?}");
        lines += 1;
    }
    assert!(
        lines >= min_lines,
        "expected at least {min_lines} heartbeat lines, got {lines}"
    );
}

#[test]
fn parallel_heartbeat_emits_valid_jsonl() {
    let e = point(MachineModel::SMTp, 4, 2, None);
    let buf = SharedBuf::new();
    let mut sys = build_system(&e);
    sys.enable_heartbeat(10_000, Some(Box::new(buf.clone())));
    sys.run_with(e.max_cycles, EngineKind::Parallel)
        .expect("run must complete");
    assert_heartbeat_jsonl(&buf.to_string_lossy(), 2);
}

/// A run far shorter than the heartbeat interval must still leave liveness
/// records: one at run start, one at run end, on both engines. (The first
/// beat used to arrive only after a full interval, so short runs logged
/// nothing at all.)
#[test]
fn short_runs_still_emit_start_and_end_heartbeats() {
    for engine in [EngineKind::Serial, EngineKind::Parallel] {
        let e = point(MachineModel::SMTp, 2, 2, None);
        let buf = SharedBuf::new();
        let mut sys = build_system(&e);
        // An interval no quick run can ever reach.
        sys.enable_heartbeat(1_000_000_000, Some(Box::new(buf.clone())));
        sys.run_with(e.max_cycles, engine)
            .expect("run must complete");
        let text = buf.to_string_lossy();
        assert_heartbeat_jsonl(&text, 2);
        let first = text.lines().next().expect("checked non-empty");
        assert!(
            first.contains("\"epochs\":0"),
            "first beat should be the run-start record: {first:?}"
        );
    }
}

/// A sink that forwards to a [`SharedBuf`] but panics once it has seen a
/// given number of complete lines — simulating a run dying mid-flight
/// *inside* the heartbeat path.
struct PanicAfterLines {
    inner: SharedBuf,
    lines: usize,
    panic_after: usize,
}

impl std::io::Write for PanicAfterLines {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.inner.write(data)?;
        self.lines += data.iter().filter(|&&b| b == b'\n').count();
        if self.lines >= self.panic_after {
            panic!("sink failure after {} heartbeat lines", self.lines);
        }
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[test]
fn heartbeat_log_is_line_complete_even_after_a_mid_run_panic() {
    let e = point(MachineModel::SMTp, 2, 2, None);
    let buf = SharedBuf::new();
    let sink = PanicAfterLines {
        inner: buf.clone(),
        lines: 0,
        panic_after: 2,
    };
    let mut sys = build_system(&e);
    sys.enable_heartbeat(4_000, Some(Box::new(sink)));
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sys.run(e.max_cycles)));
    assert!(res.is_err(), "sink panic must surface");
    // The writer flushes per line, so everything before the failure is
    // still readable, line-complete JSONL.
    assert_heartbeat_jsonl(&buf.to_string_lossy(), 2);
}
