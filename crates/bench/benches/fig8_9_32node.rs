//! Paper Figures 8–9: the 32-node machine — the largest the paper
//! evaluates.
//!
//! By default this runs the shared 32-node *smoke* configuration
//! ([`smtp_bench::fig32_smoke_config`], the same point `bench_report`
//! reports as its scaling sentinel) on both execution engines with host
//! telemetry, asserting guest results bit-identical to the
//! tick-everything reference loop (run once per point) and printing the
//! engines' wall-clock attribution. `serial` is one inline worker;
//! `parallel` is the point's pinned `workers` (2 here) on threads — on a
//! point whose worker count comes to 1, both legs time the same inline
//! path.
//!
//! Set `SMTP_FULL_FIGURE=1` to instead regenerate the full normalized
//! execution-time figure (all five machine models × six applications,
//! 1/2-way), which takes much longer. Set `SMTP_SCALE_SWEEP=1` to also
//! run the scaling sweep *past* the paper — 32-, 64- and 128-node
//! bristled hypercubes (capped by `SMTP_NODES_CAP`), each on both
//! engines with the same reference check and wall-clock attribution
//! printed.
//!
//! ```text
//! cargo bench --bench fig8_9_32node
//! SMTP_SCALE_SWEEP=1 cargo bench --bench fig8_9_32node
//! SMTP_FULL_FIGURE=1 SMTP_SCALE=0.25 cargo bench --bench fig8_9_32node
//! ```

use smtp_bench::{assert_matches_reference, fig32_smoke_config, scaling_config, timed_point};
use smtp_core::EngineKind;
use smtp_workloads::AppKind;

fn main() {
    if std::env::var("SMTP_FULL_FIGURE").is_ok_and(|v| v == "1") {
        println!("# Paper Figures 8-9: 32-node normalized execution time");
        let nodes = 32.min(smtp_bench::nodes_cap());
        for ways in [1usize, 2] {
            smtp_bench::print_model_figure(
                &format!("Figure {}: {}-node, {}-way", 7 + ways, nodes, ways),
                nodes,
                ways,
                2.0,
            );
        }
        return;
    }
    println!("# 32-node smoke point (SMTP_FULL_FIGURE=1 for the full figure)");
    for app in [AppKind::Fft, AppKind::Ocean] {
        let e = fig32_smoke_config(app);
        let (serial, serial_secs, serial_host) = timed_point(&e, EngineKind::Serial);
        let (parallel, parallel_secs, parallel_host) = timed_point(&e, EngineKind::Parallel);
        let what = format!("the 32-node smoke point ({app})");
        assert_matches_reference(&e, &[&serial, &parallel], &what);
        println!(
            "\n{} n={} w={}: {} cycles, serial {serial_secs:.2}s / parallel {parallel_secs:.2}s \
             = {:.2}x",
            app,
            serial.nodes,
            serial.ways,
            serial.cycles,
            serial_secs / parallel_secs.max(1e-9)
        );
        for host in [serial_host, parallel_host].into_iter().flatten() {
            print!("{}", host.summary());
        }
    }
    if std::env::var("SMTP_SCALE_SWEEP").is_ok_and(|v| v == "1") {
        println!("\n# Scaling sweep past the paper: 32/64/128-node bristled hypercubes");
        for nodes in [32usize, 64, 128] {
            if nodes > smtp_bench::nodes_cap() {
                println!("  (skipping n={nodes}: SMTP_NODES_CAP)");
                continue;
            }
            let e = scaling_config(AppKind::Fft, nodes);
            let (serial, serial_secs, _) = timed_point(&e, EngineKind::Serial);
            let (parallel, parallel_secs, host) = timed_point(&e, EngineKind::Parallel);
            assert_matches_reference(&e, &[&serial, &parallel], &format!("n={nodes}"));
            println!(
                "\nFFT n={nodes} w=2: {} cycles, serial {serial_secs:.2}s / parallel \
                 {parallel_secs:.2}s = {:.2}x",
                serial.cycles,
                serial_secs / parallel_secs.max(1e-9)
            );
            if let Some(host) = host {
                print!("{}", host.summary());
            }
        }
    }
}
