//! Quickstart: simulate one SMTp machine end to end and print the
//! headline statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! cargo run --release --example quickstart -- ocean 8 2
//! cargo run --release --example quickstart -- fft 2 2 --trace out.trace.json
//! cargo run --release --example quickstart -- --trace          # default path
//! cargo run --release --example quickstart -- --faults 42      # chaos run
//! cargo run --release --example quickstart -- --engine parallel
//! cargo run --release --example quickstart -- --engine parallel --workers 2
//! cargo run --release --example quickstart -- --telemetry host_profile.json
//! cargo run --release --example quickstart -- --heartbeat hb.jsonl
//! cargo run --release --example quickstart -- --archive runs/
//! cargo run --release --example quickstart -- --hotspots [hotspots.json]
//! ```
//!
//! With `--trace <path>` the full event stream is exported in Chrome
//! trace-event format — open the file at <https://ui.perfetto.dev> or in
//! `chrome://tracing` to see pipelines, protocol handlers, coherence
//! transactions and network traffic on a shared timeline.
//!
//! `--engine <serial|parallel>` chooses how many host threads run the one
//! epoch loop (which skips provably idle cycles either way): `serial`, the
//! default, is one worker inline on the calling thread; `parallel`
//! partitions the nodes across worker threads, so large machines simulate
//! faster on multi-core hosts. Results are bit-identical. `--workers N`
//! pins `parallel`'s worker count (default: the host's available
//! parallelism, never more than nodes; at 1 it runs inline like `serial`)
//! — a host-side knob that never changes the simulated results.
//!
//! With `--telemetry [path]` the engine profiles *itself*: host-side
//! wall-clock attribution per run-loop phase (tick, barrier waits, merge,
//! replay, …) is printed after the run and written as JSON to `path`
//! (default `host_profile.json`). With `--heartbeat [path]` a periodic
//! JSONL liveness record (cycle, sim-cycles/sec, epoch rate, worker
//! utilization) is appended to `path` (default: stderr) while the run is
//! in flight.
//!
//! With `--archive <dir>` the run's full JSON report is appended to the
//! cross-run archive at `dir` (created on first use), keyed by the
//! configuration fingerprint — compare archived runs afterwards with the
//! `compare` example.
//!
//! With `--hotspots [path]` the run arms the spatial attribution layer:
//! after the run the top contended cache lines (with their sharing-pattern
//! classification), the hottest home nodes and the busiest NoC links are
//! printed, and the full spatial section is written as JSON to `path`
//! (default `hotspots.json`).
//!
//! With `--faults <seed>` the run injects seeded faults everywhere at once
//! (link drops/corruption/duplication, correctable ECC errors, dispatch
//! stalls, protocol-thread starvation) and relies on the link-level retry
//! layer and recovery machinery to finish correctly anyway. If the machine
//! cannot recover, the diagnosis is written to `fault_diagnosis.txt`.

use smtp::trace::ChromeTraceSink;
use smtp::{build_system, AppKind, EngineKind, ExperimentConfig, FaultConfig, MachineModel};

fn parse_app(s: &str) -> AppKind {
    AppKind::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(s))
        .unwrap_or_else(|| {
            eprintln!("unknown app {s:?}; one of: fft fftw lu ocean radix water");
            std::process::exit(2)
        })
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let looks_app = |s: &str| {
        AppKind::ALL
            .iter()
            .any(|a| a.name().eq_ignore_ascii_case(s))
    };
    let looks_positional = |s: &str| s.parse::<usize>().is_ok() || looks_app(s);
    let trace_path = match args.iter().position(|a| a == "--trace") {
        Some(i) => {
            args.remove(i);
            // An explicit path may follow; otherwise use a default.
            if i < args.len() && !args[i].starts_with("--") && !looks_positional(&args[i]) {
                Some(args.remove(i))
            } else {
                Some("quickstart.trace.json".to_string())
            }
        }
        None => None,
    };
    let engine = match args.iter().position(|a| a == "--engine") {
        Some(i) => {
            args.remove(i);
            if i >= args.len() {
                eprintln!("--engine expects serial or parallel");
                std::process::exit(2);
            }
            let s = args.remove(i);
            s.parse::<EngineKind>().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2)
            })
        }
        None => EngineKind::Serial,
    };
    let workers = match args.iter().position(|a| a == "--workers") {
        Some(i) => {
            args.remove(i);
            if i >= args.len() {
                eprintln!("--workers expects a thread count");
                std::process::exit(2);
            }
            let s = args.remove(i);
            match s.parse::<usize>() {
                Ok(w) if w >= 1 => Some(w),
                _ => {
                    eprintln!("--workers expects a count >= 1, got {s:?}");
                    std::process::exit(2);
                }
            }
        }
        None => None,
    };
    let telemetry_path = match args.iter().position(|a| a == "--telemetry") {
        Some(i) => {
            args.remove(i);
            // An explicit path may follow; otherwise use a default.
            if i < args.len() && !args[i].starts_with("--") && !looks_positional(&args[i]) {
                Some(args.remove(i))
            } else {
                Some("host_profile.json".to_string())
            }
        }
        None => None,
    };
    let heartbeat_path = match args.iter().position(|a| a == "--heartbeat") {
        Some(i) => {
            args.remove(i);
            // An explicit path may follow; otherwise beat to stderr.
            if i < args.len() && !args[i].starts_with("--") && !looks_positional(&args[i]) {
                Some(Some(args.remove(i)))
            } else {
                Some(None)
            }
        }
        None => None,
    };
    let hotspots_path = match args.iter().position(|a| a == "--hotspots") {
        Some(i) => {
            args.remove(i);
            // An explicit path may follow; otherwise use a default.
            if i < args.len() && !args[i].starts_with("--") && !looks_positional(&args[i]) {
                Some(args.remove(i))
            } else {
                Some("hotspots.json".to_string())
            }
        }
        None => None,
    };
    let archive_dir = match args.iter().position(|a| a == "--archive") {
        Some(i) => {
            args.remove(i);
            if i >= args.len() || args[i].starts_with("--") {
                eprintln!("--archive expects a directory path");
                std::process::exit(2);
            }
            Some(args.remove(i))
        }
        None => None,
    };
    let fault_seed = match args.iter().position(|a| a == "--faults") {
        Some(i) => {
            args.remove(i);
            // An explicit seed may follow; otherwise use a default.
            if i < args.len() && !args[i].starts_with("--") && !looks_app(&args[i]) {
                let s = args.remove(i);
                Some(s.parse::<u64>().unwrap_or_else(|_| {
                    eprintln!("--faults expects a numeric seed, got {s:?}");
                    std::process::exit(2)
                }))
            } else {
                Some(0xC8A05)
            }
        }
        None => None,
    };
    let app = args.first().map(|s| parse_app(s)).unwrap_or(AppKind::Fft);
    let nodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let ways: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(2);

    println!(
        "SMTp machine: {nodes} node(s), {ways} application thread(s) per node, \
         running {app} ({engine} engine)"
    );
    let mut exp = ExperimentConfig::new(MachineModel::SMTp, app, nodes, ways);
    exp.engine = engine;
    exp.workers = workers;
    if let Some(w) = workers {
        println!("worker threads pinned   : {w}");
    }
    if trace_path.is_some() {
        // Tracing a full-scale run produces an enormous file; shrink the
        // workload so the timeline stays explorable.
        exp.scale = 0.12;
    }
    if let Some(seed) = fault_seed {
        println!("fault injection enabled : chaos plan, seed {seed}");
        exp.faults = FaultConfig::chaos(seed);
        // Chaos runs pay retry and stall latency; keep them short.
        exp.scale = exp.scale.min(0.12);
    }
    let mut sys = build_system(&exp);
    if fault_seed.is_some() {
        sys.enable_invariant_checks(50_000);
    }
    if hotspots_path.is_some() {
        println!("spatial attribution     : tracking top 64 lines per node");
        sys.enable_spatial(64);
    }
    if telemetry_path.is_some() || archive_dir.is_some() {
        // Archived reports carry the host profile so wall clocks from the
        // same host can be compared later.
        sys.enable_host_telemetry();
    }
    if let Some(path) = &heartbeat_path {
        let out: Option<Box<dyn std::io::Write + Send>> = match path {
            Some(p) => {
                let file = std::fs::File::create(p).unwrap_or_else(|e| {
                    eprintln!("cannot create {p}: {e}");
                    std::process::exit(2);
                });
                Some(Box::new(file))
            }
            None => None, // stderr
        };
        sys.enable_heartbeat(50_000, out);
    }
    if let Some(path) = &trace_path {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("cannot create {path}: {e}");
            std::process::exit(2);
        });
        sys.tracer().enable_all();
        sys.tracer().add_sink(Box::new(ChromeTraceSink::new(
            Box::new(std::io::BufWriter::new(file)),
            nodes,
        )));
    }
    let stats = match sys.run_with(exp.max_cycles, exp.engine) {
        Ok(stats) => stats,
        Err(err) => {
            let path = "fault_diagnosis.txt";
            let report = err.to_string();
            eprintln!("\nrun failed: {}", report.lines().next().unwrap_or(""));
            match std::fs::write(path, &report) {
                Ok(()) => eprintln!("full diagnosis written to {path}"),
                Err(e) => eprintln!("cannot write {path}: {e}\n{report}"),
            }
            std::process::exit(1);
        }
    };

    println!();
    println!(
        "parallel execution time : {} cycles ({:.2} ms at 2 GHz)",
        stats.cycles,
        stats.cycles as f64 / 2.0e6
    );
    println!("application instructions: {}", stats.app_instructions);
    println!(
        "protocol instructions   : {} ({:.2}% of all retired)",
        stats.protocol_instructions,
        stats.protocol_retired_frac * 100.0
    );
    println!("coherence handlers      : {}", stats.handlers);
    println!(
        "memory-stall fraction   : {:.1}%",
        stats.memory_stall_frac() * 100.0
    );
    println!(
        "protocol occupancy peak : {:.1}%",
        stats.protocol_occupancy_peak * 100.0
    );
    println!(
        "L1D app miss rate       : {:.2}%",
        stats.l1d_app_miss_rate * 100.0
    );
    println!(
        "network messages        : {} (mean latency {:.0} cycles)",
        stats.network.messages,
        stats.network.mean_latency()
    );
    println!(
        "locks / barrier episodes: {} / {}",
        stats.lock_acquires, stats.barrier_episodes
    );
    if stats.faults.any() {
        let f = &stats.faults;
        println!(
            "faults injected         : {} drops, {} CRC, {} dups, {} delays -> {} retransmits",
            f.link_drops, f.link_crc_errors, f.link_duplicates, f.link_delays, f.link_retransmits
        );
        println!(
            "                          {} ECC corrected, {} stall windows, {} starvation windows, {} handler delays",
            f.ecc_corrected,
            f.dispatch_stall_windows,
            f.starvation_windows,
            f.handler_delays
        );
        println!("recovery                : all transactions completed despite injected faults");
    }
    if let Some(path) = &trace_path {
        println!("trace written           : {path} (load it at https://ui.perfetto.dev)");
    }
    if let Some(path) = &hotspots_path {
        let sp = &stats.spatial;
        println!();
        println!(
            "Hot lines (top {} of {} tracked events):",
            5, sp.tracked_events
        );
        for h in sp.hot_lines.iter().take(5) {
            println!(
                "  {:#012x} home n{}: {:<22} {}±{} events, {} reads / {} writes, \
                 {} invals, {} nacks",
                h.line,
                h.home,
                h.class.as_str(),
                h.weight,
                h.err,
                h.c.reads,
                h.c.writes,
                h.c.invals_sent,
                h.c.nacks
            );
        }
        println!("Hottest home nodes:");
        let mut homes: Vec<_> = sp.homes.iter().collect();
        homes.sort_by_key(|h| (std::cmp::Reverse(h.occupancy_cycles), h.node));
        for h in homes.iter().take(3) {
            println!(
                "  n{}: {:.1}% occupancy, {} handlers, {} nacks, queue wait mean {:.1} cyc",
                h.node,
                100.0 * sp.home_occ(h),
                h.handlers,
                h.nacks,
                h.queue_wait.mean()
            );
        }
        println!("Busiest NoC links:");
        let mut links: Vec<_> = sp.links.iter().collect();
        links.sort_by_key(|l| (std::cmp::Reverse(l.busy), l.link));
        for l in links.iter().take(3) {
            println!(
                "  {:<10} {:.1}% util, {} msgs, {} bytes, {} retx",
                l.label,
                100.0 * sp.link_util(l),
                l.msgs,
                l.bytes,
                l.retx
            );
        }
        match std::fs::write(path, smtp::spatial_json(sp)) {
            Ok(()) => println!("hot spots written       : {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    let profile = sys.take_host_profile();
    if let Some(dir) = &archive_dir {
        let report = match &profile {
            Some(p) => smtp::Report::with_host_profile(&stats, p).json(),
            None => smtp::Report::new(&stats).json(),
        };
        let mut archive = smtp::Archive::open(dir).unwrap_or_else(|e| {
            eprintln!("cannot open archive {dir}: {e}");
            std::process::exit(2);
        });
        let key = smtp::RunKey::for_experiment(&exp);
        match archive.append(&key, &report) {
            Ok(entry) => println!(
                "run archived            : {dir}/runs.jsonl line {} \
                 (fingerprint {:016x}, seed {})",
                entry.line, entry.key.fingerprint, entry.key.seed
            ),
            Err(e) => {
                eprintln!("cannot archive run: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(profile) = profile {
        println!();
        print!("{}", profile.summary());
        if let Some(path) = &telemetry_path {
            match std::fs::write(path, profile.to_json()) {
                Ok(()) => println!("host profile written    : {path}"),
                Err(e) => eprintln!("cannot write {path}: {e}"),
            }
        }
    }
}
