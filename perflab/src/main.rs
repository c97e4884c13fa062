//! Command line of the benchmark.
//!
//! ```text
//! perflab --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result JSON on the last line
//! perflab all      [--seed n] [--seconds s]   every workload in its own child process
//! perflab traced   [--seed n] [--seconds s]   per-layer metrics of every workload, spans to perflab_trace.json
//! perflab repeat   [--seed n] [--seconds s]   `all` twice, compared against the bounds
//! perflab regolden                            rewrite golden.json
//! perflab selftest                            prove the golden check can fail
//! ```

use perflab::contract::Contract;
use perflab::golden::{self, Pin, DEFAULT_SEED, HELD_OUT_SEED};
use perflab::run::{guest_once, run_workload, Opts, Outcome};
use perflab::spans::Spans;
use perflab::{layers, workloads};
use smtp::core::json::{self, JsonValue};
use std::process::{Command, ExitCode, Stdio};

const TRACE_FILE: &str = "perflab_trace.json";
const RESULTS_FILE: &str = "perflab_results.json";

/// The `[profile.release]` settings of a manifest, sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// A nested workspace applies its own profile to path dependencies, so this
/// package must repeat the root's; refuse to measure anything else than the
/// code users build.
fn check_profile_parity() -> Result<(), String> {
    let root = release_profile(include_str!("../../Cargo.toml"));
    let ours = release_profile(include_str!("../Cargo.toml"));
    if root == ours {
        Ok(())
    } else {
        Err(format!(
            "perflab/Cargo.toml [profile.release] {ours:?} differs from the root's {root:?}"
        ))
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn git_rev() -> String {
    std::env::var("SMTP_GIT_REV")
        .ok()
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_stamps() {
    println!("host_cores {}", host_cores());
    println!("rustc {}", env!("PERFLAB_RUSTC"));
    println!("git_rev {}", git_rev());
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {s} is not a duration"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            cmd if !cmd.starts_with('-') && args.command.is_none() => {
                args.command = Some(cmd.to_string())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run of one workload in this process (the contract command).
fn run_one(name: &str, seed: u64, opts: &Opts, trace: bool) -> Result<(), String> {
    let w = workloads::by_name(name, seed).ok_or(format!(
        "unknown workload {name}; known: {}",
        workloads::NAMES.join(" ")
    ))?;
    if let Some(shortage) = core_shortage(&w) {
        eprintln!("warning: {name} {shortage}; its timings mean little");
    }
    print_stamps();
    let pins = golden::embedded()?;
    let mut spans = Spans::new();
    let layer_times = trace.then(|| layers::time_all(seed, opts, &mut spans));
    let out = run_workload(
        &w,
        opts,
        golden::lookup(&pins, &w, seed),
        layer_times.as_ref(),
        &mut spans,
    )?;
    out.print_lines();
    if trace {
        std::fs::write(TRACE_FILE, spans.to_json()).map_err(|e| format!("{TRACE_FILE}: {e}"))?;
    }
    println!("{}", out.to_json());
    Ok(())
}

/// Why a parallel workload cannot be measured on this host, if so.
fn core_shortage(w: &workloads::Workload) -> Option<String> {
    (w.parallel() && host_cores() < workloads::PAR_WORKERS).then(|| {
        format!(
            "needs {} host cores for its worker threads, this host has {}",
            workloads::PAR_WORKERS,
            host_cores()
        )
    })
}

/// The contract result of one child run.
struct ChildResult {
    workload: &'static str,
    /// The child's `guest ...` line: the exact simulated outcome.
    guest: String,
    line: String,
    doc: JsonValue,
}

impl ChildResult {
    fn metric(&self, name: &str) -> Option<f64> {
        self.doc.get("metrics")?.get(name)?.get("value")?.as_f64()
    }

    fn failed(&self) -> u64 {
        self.doc
            .get("failed")
            .and_then(JsonValue::as_u64)
            .unwrap_or(u64::MAX)
    }
}

/// Every workload, each in a child process of its own (so `peak_rss_mb` is
/// the workload's), one at a time. Writes the results file.
fn run_all(seed: u64, seconds: f64) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for w in workloads::all(seed) {
        if let Some(shortage) = core_shortage(&w) {
            println!("skipped {}: {shortage}", w.name);
            continue;
        }
        let child = Command::new(&exe)
            .args(["--workload", w.name, "--trace", "0"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .stdout(Stdio::piped())
            .output()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let (body, line) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{body}");
        if !child.status.success() {
            return Err(format!("{} exited with {}", w.name, child.status));
        }
        let doc = json::parse(line).map_err(|e| format!("{} result line: {e}", w.name))?;
        results.push(ChildResult {
            workload: w.name,
            guest: body
                .lines()
                .find(|l| l.starts_with("guest "))
                .unwrap_or_default()
                .to_string(),
            line: line.to_string(),
            doc,
        });
    }
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "  {{\"workload\":\"{}\",\"result\":{}}}",
                r.workload, r.line
            )
        })
        .collect();
    let doc = format!(
        "{{\"host_cores\":{},\"rustc\":\"{}\",\"git_rev\":\"{}\",\"seed\":{seed},\"results\":[\n{}\n]}}\n",
        host_cores(),
        env!("PERFLAB_RUSTC"),
        git_rev(),
        rows.join(",\n")
    );
    std::fs::write(RESULTS_FILE, doc).map_err(|e| format!("{RESULTS_FILE}: {e}"))?;
    Ok(results)
}

/// The traced run of every workload, in this process, sharing one set of
/// layer timers and one span dump.
fn run_traced(seed: u64, opts: &Opts) -> Result<bool, String> {
    print_stamps();
    let pins = golden::embedded()?;
    let mut spans = Spans::new();
    let layer_times = layers::time_all(seed, opts, &mut spans);
    let mut ok = true;
    for w in workloads::all(seed) {
        if let Some(shortage) = core_shortage(&w) {
            println!("skipped {}: {shortage}", w.name);
            continue;
        }
        let pin = golden::lookup(&pins, &w, seed);
        let out = run_workload(&w, opts, pin, Some(&layer_times), &mut spans)?;
        out.print_lines();
        ok &= out.correct();
    }
    std::fs::write(TRACE_FILE, spans.to_json()).map_err(|e| format!("{TRACE_FILE}: {e}"))?;
    println!("wrote {TRACE_FILE} ({} spans)", spans.spans().len());
    Ok(ok)
}

/// `all` twice; every end-to-end metric of every workload must agree within
/// its bound, the guest outcomes must be identical and no operation may fail.
fn run_repeat(seed: u64, seconds: f64) -> Result<bool, String> {
    let contract = Contract::load()?;
    let first = run_all(seed, seconds)?;
    let second = run_all(seed, seconds)?;
    let mut ok = true;
    println!("metric workload first second rel_diff bound verdict");
    for (a, b) in first.iter().zip(&second) {
        for m in &contract.end_to_end {
            let bound = m.bound.ok_or(format!("{} has no bound", m.name))?;
            let (Some(x), Some(y)) = (a.metric(&m.name), b.metric(&m.name)) else {
                return Err(format!("{} missing for {}", m.name, a.workload));
            };
            let diff = (y - x) / x;
            let pass = diff.abs() <= bound;
            ok &= pass;
            println!(
                "{} {} {x} {y} {diff:+.4} {bound} {}",
                m.name,
                a.workload,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        let same_guest = !a.guest.is_empty() && a.guest == b.guest;
        ok &= same_guest;
        println!(
            "guest {} {}",
            a.workload,
            if same_guest {
                "identical PASS"
            } else {
                "differs FAIL"
            }
        );
        for r in [a, b] {
            if r.failed() != 0 {
                ok = false;
                println!("operations {} failed={} FAIL", r.workload, r.failed());
            }
        }
    }
    Ok(ok)
}

/// Re-pin the guest outcomes. A benchmark-only change: a perf change must
/// leave `golden.json` alone.
fn regolden() -> Result<(), String> {
    let mut pins = Vec::new();
    for name in workloads::NAMES {
        let probe = workloads::by_name(name, DEFAULT_SEED).expect("NAMES are known");
        let seeds: &[Option<u64>] = if probe.seeded {
            &[Some(DEFAULT_SEED), Some(HELD_OUT_SEED)]
        } else {
            &[None]
        };
        for &seed in seeds {
            let w =
                workloads::by_name(name, seed.unwrap_or(DEFAULT_SEED)).expect("NAMES are known");
            let guest = guest_once(&w)?;
            println!("pinned {name} seed={seed:?} {guest:?}");
            pins.push(Pin {
                workload: name.to_string(),
                seed,
                guest,
            });
        }
    }
    std::fs::write(golden::GOLDEN_PATH, golden::render(&pins))
        .map_err(|e| format!("{}: {e}", golden::GOLDEN_PATH))
}

/// Perturb one pinned value in memory; every rep must then be reported as a
/// failed operation.
fn selftest() -> Result<bool, String> {
    let w = workloads::by_name(workloads::NAMES[0], DEFAULT_SEED).expect("NAMES are known");
    let pins = golden::embedded()?;
    let mut pin = golden::lookup(&pins, &w, DEFAULT_SEED)
        .ok_or(format!("golden.json has no pin for {}", w.name))?
        .clone();
    pin.cycles += 1;
    let opts = Opts {
        seconds: 0.0,
        min_reps: 1,
        setup_calls: 1,
        setup_secs: 0.0,
        ..Opts::standard(0.0)
    };
    let out: Outcome = run_workload(&w, &opts, Some(&pin), None, &mut Spans::new())?;
    out.print_lines();
    let caught = out.attempted >= 2 && out.failed() == out.attempted;
    println!(
        "selftest {}: perturbed golden guest_cycles, {} of {} operations reported failed",
        if caught { "ok" } else { "BROKEN" },
        out.failed(),
        out.attempted
    );
    Ok(caught)
}

fn run() -> Result<bool, String> {
    check_profile_parity()?;
    let args = parse_args()?;
    let seconds = match args.seconds {
        Some(s) => s,
        None => Contract::load()?.run_seconds,
    };
    let opts = Opts::standard(seconds);
    match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => run_one(name, args.seed, &opts, args.trace).map(|()| true),
        (Some("all"), None) => {
            run_all(args.seed, seconds).map(|r| r.iter().all(|r| r.failed() == 0))
        }
        (Some("traced"), None) => run_traced(args.seed, &opts),
        (Some("repeat"), None) => run_repeat(args.seed, seconds),
        (Some("regolden"), None) => regolden().map(|()| true),
        (Some("selftest"), None) => selftest(),
        _ => Err(
            "usage: perflab --workload <name> --seed <n> --seconds <s> --trace <0|1> \
             | all | traced | repeat | regolden | selftest"
                .to_string(),
        ),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perflab: {e}");
            ExitCode::from(2)
        }
    }
}
