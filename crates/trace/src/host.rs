//! Host-side engine telemetry: where the *simulator itself* spends
//! wall-clock time.
//!
//! Everything else in this crate observes the simulated machine; this
//! module observes the machine running the simulation. The execution
//! engine in `smtp-core` stamps a monotonic clock ([`std::time::Instant`])
//! at every phase transition of its run loop and aggregates the
//! intervals into a [`HostProfile`]:
//!
//! * one [`LaneProfile`] per host thread — the coordinator plus each
//!   worker when threads are spawned, or the single lane of a run with
//!   one inline worker — attributing every nanosecond of the lane's
//!   lifetime to exactly one [`HostPhase`] (tick/compute, barrier-arrival
//!   wait, barrier-departure wait, message exchange, harvest merge,
//!   capture/replay of the trace+profiler streams, injection replay,
//!   quiescence retraction, scheduled checks, loop bookkeeping);
//! * per-epoch counters: epoch length in simulated cycles, node-cycles
//!   actually ticked vs. idle-skipped, messages exchanged at each barrier,
//!   and the per-worker owned-node tick imbalance.
//!
//! Phase attribution telescopes by construction: a [`PhaseTimer`] records
//! the interval between consecutive stamps into the phase being left, so
//! the per-phase sums add up to the lane's total wall-clock exactly (the
//! telemetry tests assert this within a measurement epsilon). Per-epoch phase
//! durations land in mergeable log2 [`Histogram`]s, so profiles from
//! sharded runs can be folded together like every other statistic in the
//! workspace.
//!
//! Telemetry is strictly host-side: it never touches simulated state, so
//! guest-visible results (RunStats, trace streams, span allocation) are
//! bit-identical with telemetry on or off, inline or on threads.
//!
//! The module also provides the [`Heartbeat`] emitter: periodic JSONL
//! records (cycle, simulated cycles per wall second, epoch rate, worker
//! utilization) written to stderr or any sink, each line flushed
//! immediately so a run that dies mid-flight still leaves a readable,
//! line-complete log behind.

use smtp_types::{Cycle, Histogram};
use std::io::Write;
use std::time::Instant;

/// Number of host phases a lane's wall-clock is attributed into.
pub const NUM_HOST_PHASES: usize = 10;

/// JSON/report names of the host phases, indexed by `HostPhase as usize`.
pub const HOST_PHASE_NAMES: [&str; NUM_HOST_PHASES] = [
    "tick",
    "barrier_arrive",
    "barrier_depart",
    "exchange",
    "merge",
    "capture_replay",
    "inject_replay",
    "quiescence",
    "checks",
    "other",
];

/// One phase of an execution engine's run loop. Every nanosecond of a
/// lane's lifetime is attributed to exactly one phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostPhase {
    /// Advancing simulated state: node ticks, deliveries, idle skipping
    /// (includes the sync-fabric spin waits, which happen mid-tick).
    Tick = 0,
    /// Waiting at the epoch-close barrier for straggler workers (workers),
    /// or for the epoch to finish (coordinator).
    BarrierArrive = 1,
    /// Waiting at the epoch-open barrier for the next window plan.
    BarrierDepart = 2,
    /// Cross-node message exchange: popping arrivals from the network and
    /// pre-distributing them to per-node inboxes (coordinator pre-pass).
    Exchange = 3,
    /// Collecting and sorting the workers' harvest (captured events,
    /// profiler ops, recorded injections) into serial order.
    Merge = 4,
    /// Replaying captured trace events and profiler operations into the
    /// shared tracer/profiler at their serial positions.
    CaptureReplay = 5,
    /// Replaying recorded message injections into the network.
    InjectReplay = 6,
    /// Exact-quiescence detection and idle-overshoot retraction.
    Quiescence = 7,
    /// Scheduled checks: watchdog, coherence sanitizer, metrics sampler.
    Checks = 8,
    /// Run-loop bookkeeping not covered by a phase above (epoch planning,
    /// heartbeat I/O, setup/teardown).
    Other = 9,
}

/// Wall-clock attribution for one host thread (lane) of an engine run.
#[derive(Clone, Debug)]
pub struct LaneProfile {
    /// Lane name: `"inline"` (one worker, no threads), `"coord"`, or
    /// `"w<N>"` for worker thread N.
    pub name: String,
    /// Total lane lifetime in nanoseconds (first to last stamp).
    pub total_ns: u64,
    /// Nanoseconds attributed to each phase; sums to `total_ns` exactly.
    pub phase_ns: [u64; NUM_HOST_PHASES],
    /// Per-epoch nanoseconds per phase (log2 histogram, mergeable).
    pub epoch_ns: [Histogram; NUM_HOST_PHASES],
}

impl LaneProfile {
    /// Sum of the per-phase attributions — equals [`LaneProfile::total_ns`]
    /// up to measurement epsilon.
    pub fn phase_sum(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Fold another lane into this one (for cross-run merges).
    pub fn merge(&mut self, other: &LaneProfile) {
        self.total_ns += other.total_ns;
        for (a, b) in self.phase_ns.iter_mut().zip(other.phase_ns.iter()) {
            *a += b;
        }
        for (a, b) in self.epoch_ns.iter_mut().zip(other.epoch_ns.iter()) {
            a.merge(b);
        }
    }
}

/// Attributes elapsed wall-clock to [`HostPhase`]s via consecutive
/// monotonic stamps. The interval between two stamps is charged to the
/// phase that was active when it began, so attribution telescopes: after
/// [`PhaseTimer::finish`], the per-phase sums equal the lane total.
#[derive(Debug)]
pub struct PhaseTimer {
    start: Instant,
    last: Instant,
    phase: HostPhase,
    phase_ns: [u64; NUM_HOST_PHASES],
    epoch_acc: [u64; NUM_HOST_PHASES],
    epoch_ns: [Histogram; NUM_HOST_PHASES],
}

impl PhaseTimer {
    /// Start timing, in `initial` phase.
    pub fn new(initial: HostPhase) -> PhaseTimer {
        let now = Instant::now();
        PhaseTimer {
            start: now,
            last: now,
            phase: initial,
            phase_ns: [0; NUM_HOST_PHASES],
            epoch_acc: [0; NUM_HOST_PHASES],
            epoch_ns: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Charge the interval since the previous stamp to the current phase
    /// and switch to `next`.
    #[inline]
    pub fn switch(&mut self, next: HostPhase) {
        let now = Instant::now();
        let d = now.duration_since(self.last).as_nanos() as u64;
        self.phase_ns[self.phase as usize] += d;
        self.epoch_acc[self.phase as usize] += d;
        self.last = now;
        self.phase = next;
    }

    /// Charge the pending interval without changing phase (so accumulated
    /// totals are current before reading them).
    #[inline]
    pub fn flush(&mut self) {
        let p = self.phase;
        self.switch(p);
    }

    /// The currently active phase.
    pub fn phase(&self) -> HostPhase {
        self.phase
    }

    /// Nanoseconds charged to `p` in the current epoch (call
    /// [`PhaseTimer::flush`] first for an up-to-the-stamp value).
    pub fn epoch_phase_ns(&self, p: HostPhase) -> u64 {
        self.epoch_acc[p as usize]
    }

    /// Total nanoseconds charged to `p` so far.
    pub fn phase_total_ns(&self, p: HostPhase) -> u64 {
        self.phase_ns[p as usize]
    }

    /// Total nanoseconds charged to all phases so far (call
    /// [`PhaseTimer::flush`] first for an up-to-the-stamp value).
    pub fn charged_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Close the current epoch: record each phase's accumulated epoch
    /// nanoseconds into its histogram and reset the epoch accumulators.
    pub fn end_epoch(&mut self) {
        for (acc, h) in self.epoch_acc.iter_mut().zip(self.epoch_ns.iter_mut()) {
            h.record(*acc);
            *acc = 0;
        }
    }

    /// Charge the final interval and package the lane profile.
    pub fn finish(mut self, name: &str) -> LaneProfile {
        self.flush();
        LaneProfile {
            name: name.to_string(),
            total_ns: self.last.duration_since(self.start).as_nanos() as u64,
            phase_ns: self.phase_ns,
            epoch_ns: self.epoch_ns,
        }
    }
}

/// Host-side profile of one engine run: per-lane wall-clock attribution
/// plus per-epoch counters. All fields are mergeable (integer sums and
/// log2 histograms), so profiles from repeated or sharded runs fold
/// together exactly associatively.
#[derive(Clone, Debug, Default)]
pub struct HostProfile {
    /// Engine the run asked for (`"serial"` or `"parallel"`).
    pub engine: String,
    /// Workers that advanced the nodes (1 = inline, no threads).
    pub workers: usize,
    /// Epochs executed.
    pub epochs: u64,
    /// Epoch lookahead in simulated cycles (the minimum cross-node
    /// message latency; the watchdog interval on a 1-node machine).
    pub lookahead: Cycle,
    /// Simulated cycles the run advanced.
    pub sim_cycles: Cycle,
    /// Engine wall-clock in nanoseconds (the coordinator lane's total).
    pub wall_ns: u64,
    /// Lane 0 is the calling thread — the coordinator, or the whole loop
    /// when one worker runs inline; lanes 1.. are the worker threads.
    pub lanes: Vec<LaneProfile>,
    /// Epoch length in simulated cycles, per epoch.
    pub epoch_cycles: Histogram,
    /// Messages injected into the network in each epoch.
    pub barrier_msgs: Histogram,
    /// Per-epoch owned-node tick imbalance across workers, as
    /// `1000 * max(ticks per worker) / mean(ticks per worker)` (1000 =
    /// perfectly balanced; only recorded for multi-worker epochs that
    /// ticked at all).
    pub imbalance_x1000: Histogram,
    /// Node-cycles actually ticked (one node, one cycle). With
    /// `skipped_cycles` it sums to `sim_cycles` × nodes: idle ticks past the
    /// exit cycle, which the engine rolls back, are not counted.
    pub ticked_cycles: u64,
    /// Node-cycles skipped as provably idle.
    pub skipped_cycles: u64,
}

impl HostProfile {
    /// Fold another profile into this one. Lane lists are matched by
    /// index; a longer lane list is appended.
    pub fn merge(&mut self, other: &HostProfile) {
        if self.engine.is_empty() {
            self.engine = other.engine.clone();
        }
        self.workers = self.workers.max(other.workers);
        self.epochs += other.epochs;
        self.lookahead = self.lookahead.max(other.lookahead);
        self.sim_cycles += other.sim_cycles;
        self.wall_ns += other.wall_ns;
        for (i, lane) in other.lanes.iter().enumerate() {
            match self.lanes.get_mut(i) {
                Some(mine) => mine.merge(lane),
                None => self.lanes.push(lane.clone()),
            }
        }
        self.epoch_cycles.merge(&other.epoch_cycles);
        self.barrier_msgs.merge(&other.barrier_msgs);
        self.imbalance_x1000.merge(&other.imbalance_x1000);
        self.ticked_cycles += other.ticked_cycles;
        self.skipped_cycles += other.skipped_cycles;
    }

    /// Worker lanes (everything after the coordinator lane).
    pub fn worker_lanes(&self) -> &[LaneProfile] {
        if self.lanes.len() > 1 {
            &self.lanes[1..]
        } else {
            &self.lanes
        }
    }

    /// Fraction of worker wall-clock spent waiting at epoch barriers
    /// (arrival + departure). 0 when one worker ran inline.
    pub fn barrier_wait_frac(&self) -> f64 {
        let lanes = self.worker_lanes();
        let total: u64 = lanes.iter().map(|l| l.total_ns).sum();
        if total == 0 {
            return 0.0;
        }
        let wait: u64 = lanes
            .iter()
            .map(|l| {
                l.phase_ns[HostPhase::BarrierArrive as usize]
                    + l.phase_ns[HostPhase::BarrierDepart as usize]
            })
            .sum();
        wait as f64 / total as f64
    }

    /// Fraction of node-cycles the engine skipped as provably idle
    /// instead of ticking.
    pub fn skip_efficiency(&self) -> f64 {
        let total = self.ticked_cycles + self.skipped_cycles;
        if total == 0 {
            0.0
        } else {
            self.skipped_cycles as f64 / total as f64
        }
    }

    /// Mean per-epoch owned-node tick imbalance (`max / mean` across
    /// workers; 1.0 = perfectly balanced, 0 when never recorded).
    pub fn imbalance_ratio(&self) -> f64 {
        if self.imbalance_x1000.is_empty() {
            0.0
        } else {
            self.imbalance_x1000.mean() / 1000.0
        }
    }

    /// Simulated cycles per wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.sim_cycles as f64 * 1e9 / self.wall_ns as f64
        }
    }

    /// Per-worker utilization: tick/compute share of each worker lane's
    /// wall-clock.
    pub fn worker_utilization(&self) -> Vec<f64> {
        self.worker_lanes()
            .iter()
            .map(|l| {
                if l.total_ns == 0 {
                    0.0
                } else {
                    l.phase_ns[HostPhase::Tick as usize] as f64 / l.total_ns as f64
                }
            })
            .collect()
    }

    /// Worst relative telescoping error across lanes:
    /// `max |phase_sum - total| / total`. Phases are stamped over the
    /// lane's whole lifetime, so this is 0 up to clock granularity.
    pub fn telescoping_error(&self) -> f64 {
        self.lanes
            .iter()
            .filter(|l| l.total_ns > 0)
            .map(|l| l.phase_sum().abs_diff(l.total_ns) as f64 / l.total_ns as f64)
            .fold(0.0, f64::max)
    }

    /// Render as a JSON object (hand-rolled, deterministic field order) —
    /// the artifact CI uploads and the `host_profile` section of report
    /// JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push('{');
        push_kv_str(&mut out, "engine", &self.engine);
        push_kv_num(&mut out, "workers", self.workers as f64);
        push_kv_num(&mut out, "epochs", self.epochs as f64);
        push_kv_num(&mut out, "lookahead", self.lookahead as f64);
        push_kv_num(&mut out, "sim_cycles", self.sim_cycles as f64);
        push_kv_num(&mut out, "wall_ns", self.wall_ns as f64);
        push_kv_num(&mut out, "sim_cycles_per_sec", self.sim_cycles_per_sec());
        push_kv_num(&mut out, "barrier_wait_frac", self.barrier_wait_frac());
        push_kv_num(&mut out, "imbalance_ratio", self.imbalance_ratio());
        push_kv_num(&mut out, "skip_efficiency", self.skip_efficiency());
        push_kv_num(&mut out, "ticked_cycles", self.ticked_cycles as f64);
        push_kv_num(&mut out, "skipped_cycles", self.skipped_cycles as f64);
        push_kv_num(&mut out, "telescoping_error", self.telescoping_error());
        out.push_str(",\"epoch_cycles\":");
        push_hist(&mut out, &self.epoch_cycles);
        out.push_str(",\"barrier_msgs\":");
        push_hist(&mut out, &self.barrier_msgs);
        out.push_str(",\"lanes\":[");
        for (i, lane) in self.lanes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_kv_str(&mut out, "name", &lane.name);
            push_kv_num(&mut out, "total_ns", lane.total_ns as f64);
            out.push_str(",\"phases\":{");
            for (p, name) in HOST_PHASE_NAMES.iter().enumerate() {
                if p > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{name}\":{}", lane.phase_ns[p]));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// A one-screen plain-text summary (for quickstart and bench output).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "host profile ({} engine, {} worker(s), {} epochs): {:.1} ms wall, {:.2} Msim-cycles/s",
            self.engine,
            self.workers,
            self.epochs,
            self.wall_ns as f64 / 1e6,
            self.sim_cycles_per_sec() / 1e6,
        );
        let _ = writeln!(
            s,
            "  barrier wait {:.1}%  imbalance {:.2}x  skip efficiency {:.1}%",
            100.0 * self.barrier_wait_frac(),
            self.imbalance_ratio(),
            100.0 * self.skip_efficiency(),
        );
        for lane in &self.lanes {
            let total = lane.total_ns.max(1);
            let mut parts: Vec<String> = Vec::new();
            for (p, name) in HOST_PHASE_NAMES.iter().enumerate() {
                let ns = lane.phase_ns[p];
                if ns * 200 >= total {
                    // only phases worth >= 0.5%
                    parts.push(format!("{name} {:.1}%", 100.0 * ns as f64 / total as f64));
                }
            }
            let _ = writeln!(
                s,
                "  {:>6}: {:>9.1} ms  {}",
                lane.name,
                lane.total_ns as f64 / 1e6,
                parts.join(", ")
            );
        }
        s
    }
}

fn push_kv_str(out: &mut String, k: &str, v: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push_str(&format!(
        "\"{k}\":\"{}\"",
        v.replace('\\', "\\\\").replace('"', "\\\"")
    ));
}

fn push_kv_num(out: &mut String, k: &str, v: f64) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push_str(&format!("\"{k}\":{}", json_num(v)));
}

fn push_hist(out: &mut String, h: &Histogram) {
    out.push_str(&format!(
        "{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{}}}",
        h.count(),
        json_num(h.mean()),
        h.min(),
        h.max(),
        h.percentile(50.0),
        h.percentile(95.0)
    ));
}

/// Format a finite number: integers without a fraction, everything else
/// with four digits (locale-independent).
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        "0".to_string()
    } else if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

// ---------------------------------------------------------------------------
// Heartbeat
// ---------------------------------------------------------------------------

/// Periodic liveness records for long runs: one JSON object per line,
/// flushed immediately, so an interrupted run still leaves a readable,
/// line-complete log. Each record carries the simulated cycle, wall-clock
/// progress, simulated-cycles-per-second and epoch rate since the previous
/// record, and per-worker utilization.
pub struct Heartbeat {
    out: Box<dyn Write + Send>,
    every: Cycle,
    next_due: Cycle,
    started: Option<Instant>,
    last_wall: Option<Instant>,
    last_cycle: Cycle,
    last_epochs: u64,
    records: u64,
}

impl Heartbeat {
    /// A heartbeat emitting every `every` simulated cycles into `out`
    /// (`None` = stderr).
    pub fn new(every: Cycle, out: Option<Box<dyn Write + Send>>) -> Heartbeat {
        Heartbeat {
            out: out.unwrap_or_else(|| Box::new(std::io::stderr())),
            every: every.max(1),
            next_due: 0,
            started: None,
            last_wall: None,
            last_cycle: 0,
            last_epochs: 0,
            records: 0,
        }
    }

    /// Arm the emitter at the run's starting cycle.
    pub fn start(&mut self, cycle: Cycle) {
        let now = Instant::now();
        self.started = Some(now);
        self.last_wall = Some(now);
        self.last_cycle = cycle;
        self.last_epochs = 0;
        self.next_due = cycle.saturating_add(self.every);
    }

    /// Whether a record is due at `cycle` (call [`Heartbeat::start`] first).
    #[inline]
    pub fn due(&self, cycle: Cycle) -> bool {
        self.started.is_some() && cycle >= self.next_due
    }

    /// Records emitted so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The configured emission interval in simulated cycles.
    pub fn every(&self) -> Cycle {
        self.every
    }

    /// Emit one record at `cycle`. `util` is per-worker utilization since
    /// the previous record (tick share of wall-clock, `0.0..=1.0`).
    pub fn emit(&mut self, cycle: Cycle, engine: &str, workers: usize, epochs: u64, util: &[f64]) {
        let now = Instant::now();
        let (Some(started), Some(last)) = (self.started, self.last_wall) else {
            return;
        };
        let dt = now.duration_since(last).as_secs_f64();
        let wall_ms = now.duration_since(started).as_secs_f64() * 1e3;
        let d_cycles = cycle.saturating_sub(self.last_cycle);
        let d_epochs = epochs.saturating_sub(self.last_epochs);
        let (cps, eps) = if dt > 0.0 {
            (d_cycles as f64 / dt, d_epochs as f64 / dt)
        } else {
            (0.0, 0.0)
        };
        self.records += 1;
        let mut line = format!(
            "{{\"hb\":{},\"engine\":\"{engine}\",\"cycle\":{cycle},\"wall_ms\":{},\
             \"sim_cycles_per_sec\":{},\"epochs\":{epochs},\"epoch_rate\":{},\"workers\":{workers},\"util\":[",
            self.records,
            json_num(wall_ms),
            json_num(cps),
            json_num(eps),
        );
        for (i, u) in util.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&json_num(u.clamp(0.0, 1.0)));
        }
        line.push_str("]}\n");
        let _ = self.out.write_all(line.as_bytes());
        let _ = self.out.flush();
        self.last_wall = Some(now);
        self.last_cycle = cycle;
        self.last_epochs = epochs;
        while self.next_due <= cycle {
            self.next_due = self.next_due.saturating_add(self.every);
        }
    }
}

impl std::fmt::Debug for Heartbeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heartbeat")
            .field("every", &self.every)
            .field("records", &self.records)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timer_telescopes_exactly() {
        let mut t = PhaseTimer::new(HostPhase::Tick);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.switch(HostPhase::BarrierArrive);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.switch(HostPhase::Merge);
        t.end_epoch();
        t.switch(HostPhase::Tick);
        let lane = t.finish("w0");
        assert_eq!(lane.name, "w0");
        // Every interval lands in exactly one phase, so the sums telescope
        // to the lane total exactly (both come from the same stamps).
        assert_eq!(lane.phase_sum(), lane.total_ns);
        assert!(lane.phase_ns[HostPhase::Tick as usize] >= 1_000_000);
        assert!(lane.phase_ns[HostPhase::BarrierArrive as usize] >= 500_000);
    }

    #[test]
    fn epoch_histograms_record_per_epoch_values() {
        let mut t = PhaseTimer::new(HostPhase::Tick);
        for _ in 0..3 {
            t.flush();
            t.end_epoch();
        }
        let lane = t.finish("coord");
        assert_eq!(lane.epoch_ns[HostPhase::Tick as usize].count(), 3);
    }

    #[test]
    fn profile_merge_sums_counters() {
        let mk = || {
            let mut p = HostProfile {
                engine: "parallel".into(),
                workers: 2,
                epochs: 4,
                sim_cycles: 100,
                wall_ns: 1000,
                ticked_cycles: 50,
                skipped_cycles: 150,
                ..HostProfile::default()
            };
            p.epoch_cycles.record(25);
            p.imbalance_x1000.record(1500);
            p
        };
        let mut a = mk();
        a.merge(&mk());
        assert_eq!(a.epochs, 8);
        assert_eq!(a.sim_cycles, 200);
        assert_eq!(a.epoch_cycles.count(), 2);
        assert!((a.skip_efficiency() - 0.75).abs() < 1e-12);
        assert!((a.imbalance_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn profile_json_is_balanced() {
        let mut p = HostProfile {
            engine: "serial".into(),
            workers: 1,
            ..HostProfile::default()
        };
        p.lanes.push(LaneProfile {
            name: "serial".into(),
            total_ns: 10,
            phase_ns: [0; NUM_HOST_PHASES],
            epoch_ns: std::array::from_fn(|_| Histogram::new()),
        });
        let json = p.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"engine\":\"serial\""));
        assert!(json.contains("\"tick\":"));
    }

    #[test]
    fn heartbeat_emits_valid_jsonl_lines() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone, Default)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, d: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(d);
                Ok(d.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        let mut hb = Heartbeat::new(1000, Some(Box::new(buf.clone())));
        hb.start(0);
        assert!(!hb.due(999));
        assert!(hb.due(1000));
        hb.emit(1000, "serial", 1, 0, &[0.5]);
        assert!(!hb.due(1999));
        assert!(hb.due(2048));
        hb.emit(2048, "serial", 1, 0, &[1.0]);
        assert_eq!(hb.records(), 2);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(line.starts_with("{\"hb\":"));
            assert!(line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(text.lines().next().unwrap().contains("\"cycle\":1000"));
    }
}
