//! One benchmark run of one workload: set-up timing, a discarded warm-up
//! rep, timed reps of the identical simulation, guest-output checks and —
//! for the traced run — one instrumented rep, the serial oracle and the
//! per-layer metrics.

use crate::layers::LayerTimes;
use crate::spans::Spans;
use crate::workloads::Workload;
use smtp::types::Fingerprint;
use smtp::{build_system, EngineKind, ExperimentConfig, HostProfile, RunStats};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long and how often to measure.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Keep starting timed reps until this many seconds have been measured.
    pub seconds: f64,
    /// Timed reps to run even when `seconds` is already used up.
    pub min_reps: usize,
    /// `build_system` construct+drop calls behind `setup_s`: at least this
    /// many, and at least `setup_secs` seconds of them (a 15 us set-up
    /// needs thousands of calls before its median settles).
    pub setup_calls: usize,
    pub setup_secs: f64,
    /// Measuring time of each of a layer timer's samples.
    pub timer_sample: Duration,
}

impl Opts {
    /// The settings the contract command runs with.
    pub fn standard(seconds: f64) -> Opts {
        Opts {
            seconds,
            min_reps: 3,
            setup_calls: 200,
            setup_secs: 0.25,
            timer_sample: Duration::from_millis(15),
        }
    }
}

/// N, min, quartiles and max of a set of timings.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// Summarise `samples` (quartiles by linear interpolation).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "no samples to summarise");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    Summary {
        n: v.len(),
        min: v[0],
        q1: at(0.25),
        median: at(0.5),
        q3: at(0.75),
        max: v[v.len() - 1],
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "N={} min={:.4e} q1={:.4e} median={:.4e} q3={:.4e} max={:.4e}",
            self.n, self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// The exact guest-visible outcome of a rep; two reps of one simulation
/// must agree on every field, whatever engine or instrumentation ran them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Guest {
    pub cycles: u64,
    pub app_insts: u64,
    pub protocol_insts: u64,
    pub handlers: u64,
    pub messages: u64,
    /// FNV digest of the `RunStats` debug rendering (per-line hot-spot
    /// tracker blanked, because only the traced rep arms it).
    pub digest: u64,
}

impl Guest {
    pub fn of(stats: &RunStats) -> Guest {
        let mut s = stats.clone();
        s.spatial.enabled = false;
        s.spatial.tracked_events = 0;
        s.spatial.hot_lines.clear();
        let mut f = Fingerprint::new();
        f.mix_str(&format!("{s:?}"));
        Guest {
            cycles: stats.cycles,
            app_insts: stats.app_instructions,
            protocol_insts: stats.protocol_instructions,
            handlers: stats.handlers,
            messages: stats.network.messages,
            digest: f.finish(),
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Spread of the timings behind a median, printed beside it.
    pub detail: Option<Summary>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        detail: None,
    }
}

/// Result of one run of one workload.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: &'static str,
    /// Reps run (warm-up, timed, traced, oracle); each is one operation.
    pub attempted: u64,
    /// Why each failed rep failed, one entry per failed operation.
    pub failures: Vec<String>,
    /// Guest outcome of the first rep that ran.
    pub guest: Guest,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The contract's result object, on one line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed(),
            metrics.join(", ")
        )
    }

    /// `name workload value unit` lines, timings with their spread.
    pub fn print_lines(&self) {
        for m in &self.metrics {
            match &m.detail {
                Some(d) => println!("{} {} {} {}  [{d}]", m.name, self.workload, m.value, m.unit),
                None => println!("{} {} {} {}", m.name, self.workload, m.value, m.unit),
            }
        }
        let g = &self.guest;
        println!(
            "guest {} cycles={} app_insts={} protocol_insts={} handlers={} messages={} \
             digest={:016x}",
            self.workload,
            g.cycles,
            g.app_insts,
            g.protocol_insts,
            g.handlers,
            g.messages,
            g.digest
        );
        for f in &self.failures {
            println!("FAILED {} {f}", self.workload);
        }
        println!(
            "operations {} attempted={} failed={}",
            self.workload,
            self.attempted,
            self.failed()
        );
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Median seconds of one `build_system` construct+drop.
fn time_setup(cfg: &ExperimentConfig, opts: &Opts) -> Summary {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < opts.setup_calls.max(1)
        || started.elapsed().as_secs_f64() < opts.setup_secs
    {
        let t = Instant::now();
        drop(black_box(build_system(black_box(cfg))));
        samples.push(t.elapsed().as_secs_f64());
    }
    summarize(&samples)
}

struct Rep {
    stats: RunStats,
    secs: f64,
    host: Option<HostProfile>,
}

/// Build the machine and run it once; only `run_with` is timed (set-up has
/// its own metric). `instrument` arms host telemetry, every tracer category
/// into a 256-entry ring, and the spatial tracker.
fn run_rep(cfg: &ExperimentConfig, engine: EngineKind, instrument: bool) -> Result<Rep, String> {
    let mut sys = build_system(cfg);
    if instrument {
        sys.enable_host_telemetry();
        sys.tracer().enable_all();
        sys.tracer().enable_ring(256);
        sys.enable_spatial(64);
    }
    let t = Instant::now();
    let stats = sys
        .run_with(cfg.max_cycles, engine)
        .map_err(|e| format!("{} at cycle {}: {}", e.kind.name(), e.cycle, e.message))?;
    let secs = t.elapsed().as_secs_f64();
    Ok(Rep {
        stats,
        secs,
        host: sys.take_host_profile(),
    })
}

/// The guest outcome of `w`, from one rep on the serial reference engine
/// (what `regolden` pins).
pub fn guest_once(w: &Workload) -> Result<Guest, String> {
    run_rep(&w.cfg, EngineKind::Serial, false).map(|r| Guest::of(&r.stats))
}

/// Counts operations and checks every rep's guest outcome against the
/// golden pin and against the first rep that ran.
struct Checker<'a> {
    golden: Option<&'a Guest>,
    reference: Option<(Guest, RunStats)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Checker<'_> {
    /// Count `rep` as one operation and record why it failed, if it did.
    /// Returns the rep when the simulation ran to completion (a rep with a
    /// wrong guest outcome is a failed operation, but its timing is real).
    fn admit(&mut self, label: &str, rep: Result<Rep, String>) -> Option<Rep> {
        self.attempted += 1;
        let rep = match rep {
            Ok(r) => r,
            Err(e) => {
                self.failures.push(format!("{label}: {e}"));
                return None;
            }
        };
        let guest = Guest::of(&rep.stats);
        let (first, _) = self
            .reference
            .get_or_insert_with(|| (guest.clone(), rep.stats.clone()));
        match self.golden {
            Some(g) if *g != guest => self.failures.push(format!(
                "{label}: guest {guest:?} differs from golden {g:?}"
            )),
            _ if *first != guest => self.failures.push(format!(
                "{label}: guest {guest:?} differs from the first rep {first:?}"
            )),
            _ => {}
        }
        Some(rep)
    }
}

/// Run `w` once as the benchmark defines it.
///
/// With `trace == None` this is the end-to-end run (tracer mask 0, no host
/// telemetry, no spatial tracker) and the outcome holds the end-to-end
/// metrics. With `Some(layer_times)` it is the traced run: half the timed
/// budget, then one instrumented rep, the serial oracle for a parallel
/// workload, and the per-layer metrics.
///
/// Returns `Err` only when no timed rep ran to completion, so there is
/// nothing to report.
pub fn run_workload(
    w: &Workload,
    opts: &Opts,
    golden: Option<&Guest>,
    trace: Option<&LayerTimes>,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    spans.scope(w.name, "perflab", |spans| {
        let engine = w.cfg.engine;
        let setup = spans.scope("setup", "core", |_| time_setup(&w.cfg, opts));

        let mut check = Checker {
            golden,
            reference: None,
            attempted: 0,
            failures: Vec::new(),
        };
        let warmup = spans.scope("rep.warmup", "core", |_| run_rep(&w.cfg, engine, false));
        let warmup_secs = check.admit("warm-up rep", warmup).map(|r| r.secs);

        let budget = if trace.is_some() {
            opts.seconds / 2.0
        } else {
            opts.seconds
        };
        let mut secs = Vec::new();
        let started = Instant::now();
        while secs.len() < opts.min_reps || started.elapsed().as_secs_f64() < budget {
            let label = format!("rep.timed.{}", secs.len());
            let rep = spans.scope(label.as_str(), "core", |_| run_rep(&w.cfg, engine, false));
            match check.admit(&label, rep) {
                Some(r) => secs.push(r.secs),
                // A simulation that cannot complete fails every rep.
                None => break,
            }
        }
        if secs.is_empty() {
            return Err(format!(
                "{}: no timed rep completed: {}",
                w.name,
                check.failures.join("; ")
            ));
        }
        let timing = summarize(&secs);
        let (guest, stats) = check
            .reference
            .clone()
            .expect("a timed rep ran, so a reference exists");
        let node_cycles = stats.cycles as f64 * stats.nodes as f64;

        let metrics = if let Some(layers) = trace {
            let traced = spans.scope("rep.traced", "core", |_| run_rep(&w.cfg, engine, true));
            let traced = check.admit("traced rep", traced);
            if w.parallel() {
                let oracle = spans.scope("rep.serial_oracle", "core", |_| {
                    run_rep(&w.cfg, EngineKind::Serial, false)
                });
                check.admit("serial oracle", oracle);
            }
            per_layer_metrics(
                &stats,
                layers,
                timing.median,
                warmup_secs.unwrap_or(0.0),
                traced.as_ref(),
            )
        } else {
            vec![
                Metric {
                    detail: Some(timing),
                    ..metric("sim_node_cycles_per_s", node_cycles / timing.median, "1/s")
                },
                metric("peak_rss_mb", peak_rss_mb()?, "MB"),
                Metric {
                    detail: Some(setup),
                    ..metric("setup_s", setup.median, "s")
                },
            ]
        };
        Ok(Outcome {
            workload: w.name,
            attempted: check.attempted,
            failures: check.failures,
            guest,
            metrics,
        })
    })
}

/// The workload's per-layer metrics: the layer timers (the same for every
/// workload of a run), the exact per-layer counts of `stats`, the outside-in
/// wall-share estimates and the engine's host profile from the traced rep.
fn per_layer_metrics(
    stats: &RunStats,
    layers: &LayerTimes,
    wall_secs: f64,
    warmup_secs: f64,
    traced: Option<&Rep>,
) -> Vec<Metric> {
    let wall_ns = wall_secs * 1e9;
    let handlers = stats.handlers as f64;
    let messages = stats.network.messages as f64;
    // layer ns/op x the workload's exact op count / untraced wall ns.
    let protocol_ns = (layers.get("protocol.directory_process_ns")
        + layers.get("protocol.handler_program_ns"))
        * handlers;
    let noc_ns = messages
        * if stats.faults.any() {
            layers.get("noc.inject_deliver_chaos_ns")
        } else {
            layers.get("noc.inject_deliver_32n_ns")
        };
    let mut mem_ns = layers.get("mem.sdram_read_ns") * stats.sdram_queue_wait.count() as f64;
    if stats.model.has_protocol_engine() {
        mem_ns += (layers.get("mem.engine_run_handler_ns") + layers.get("mem.dircache_access_ns"))
            * handlers;
    }
    let [protocol_share, noc_share, mem_share] =
        [protocol_ns, noc_ns, mem_ns].map(|ns| ns / wall_ns);
    // The serial engine profiles itself too (one lane, no barriers, nothing
    // skipped), so the engine rows read 1/0/0 on the serial workloads.
    let host = traced.and_then(|t| t.host.as_ref());
    let engine = |f: &dyn Fn(&HostProfile) -> f64| host.map_or(0.0, f);
    let tick_frac = |h: &HostProfile| {
        let lanes = h.worker_utilization();
        lanes.iter().sum::<f64>() / lanes.len().max(1) as f64
    };

    let guest = [
        ("guest_cycles", stats.cycles as f64, "cycles"),
        ("guest_ipc", stats.ipc(), "inst/cycle"),
    ];
    let per_workload = [
        ("pipeline.app_insts", stats.app_instructions as f64, "count"),
        (
            "pipeline.protocol_insts",
            stats.protocol_instructions as f64,
            "count",
        ),
        ("cache.l1d_miss_rate", stats.l1d_app_miss_rate, "ratio"),
        ("cache.l2_miss_rate", stats.l2_app_miss_rate, "ratio"),
        ("protocol.handlers", handlers, "count"),
        (
            "protocol.occupancy_peak",
            stats.protocol_occupancy_peak,
            "ratio",
        ),
        ("protocol.est_wall_share", protocol_share, "ratio"),
        ("noc.messages", messages, "count"),
        (
            "noc.mean_latency_cycles",
            stats.network.mean_latency(),
            "cycles",
        ),
        (
            "noc.retransmits",
            stats.faults.link_retransmits as f64,
            "count",
        ),
        ("noc.est_wall_share", noc_share, "ratio"),
        ("mem.dir_cache_hit_rate", stats.dir_cache_hit_rate, "ratio"),
        (
            "mem.sdram_queue_wait_mean",
            stats.sdram_queue_wait.mean(),
            "cycles",
        ),
        ("mem.est_wall_share", mem_share, "ratio"),
        (
            "trace.overhead_frac",
            traced.map_or(0.0, |t| t.secs / wall_secs - 1.0),
            "ratio",
        ),
        (
            "core.host_ns_per_node_cycle",
            wall_ns / (stats.cycles as f64 * stats.nodes as f64),
            "ns",
        ),
        (
            "core.host_ns_per_app_inst",
            wall_ns / stats.app_instructions.max(1) as f64,
            "ns",
        ),
        ("core.warmup_rep_s", warmup_secs, "s"),
        (
            "core.residual_wall_share",
            1.0 - protocol_share - noc_share - mem_share,
            "ratio",
        ),
        ("core.engine.tick_frac", engine(&tick_frac), "ratio"),
        (
            "core.engine.barrier_wait_frac",
            engine(&|h| h.barrier_wait_frac()),
            "ratio",
        ),
        (
            "core.engine.skip_efficiency",
            engine(&|h| h.skip_efficiency()),
            "ratio",
        ),
        (
            "core.engine.imbalance_ratio",
            engine(&|h| h.imbalance_ratio()),
            "ratio",
        ),
        ("core.engine.epochs", engine(&|h| h.epochs as f64), "count"),
        (
            "core.engine.telescoping_error",
            engine(&|h| h.telescoping_error()),
            "ratio",
        ),
    ];
    guest
        .into_iter()
        .chain(layers.iter().map(|(name, ns)| (name, ns, "ns")))
        .chain(per_workload)
        .map(|(name, value, unit)| metric(name, value, unit))
        .collect()
}
