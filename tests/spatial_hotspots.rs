//! Spatial hot-spot attribution: the per-line trackers, home-node heatmap
//! and link utilization matrix are *guest state* — they must come out
//! bit-identical to the tick-everything reference loop on the engine,
//! inline or on threads, with or without chaos faults. And arming the
//! layer must never perturb the rest of the guest: same cycles, same
//! instructions, same trace.

use smtp::core::experiment::assert_engines_match_reference;
use smtp::trace::MemorySink;
use smtp::{build_system, AppKind, ExperimentConfig, FaultConfig, MachineModel, Report};

fn point(nodes: usize, ways: usize, seed: Option<u64>) -> ExperimentConfig {
    let mut e = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, nodes, ways);
    e.scale = 0.1;
    e.workers = Some(2);
    if let Some(seed) = seed {
        e.faults = FaultConfig::chaos(seed);
    }
    e
}

/// Run `e` with spatial attribution armed on the reference loop and both
/// engines; the full `RunStats` debug rendering (which includes every
/// spatial counter) and the v4 report JSON (which includes the serialized
/// `spatial` section) must match. Returns the report JSON.
fn observe(e: &ExperimentConfig, label: &str) -> String {
    let arm = |sys: &mut smtp::System| sys.enable_spatial(32);
    let (_, json) = assert_engines_match_reference(e, label, arm, |_, (), res| {
        let stats = res.unwrap_or_else(|err| panic!("[{label}] run failed: {err}"));
        let json = Report::new(&stats).json();
        (format!("{stats:?}"), json)
    });
    json
}

#[test]
fn spatial_state_is_bit_identical_across_engines_and_chaos() {
    for seed in [None, Some(7u64), Some(0xC8A05)] {
        let json = observe(&point(4, 2, seed), &format!("chaos={seed:?}"));
        // The runs above actually exercised the layer.
        assert!(
            json.contains("\"spatial\":{\"enabled\":true"),
            "spatial layer was not armed"
        );
    }
}

/// Arming the spatial layer must be free of guest side effects: the
/// tracker only observes traffic, never changes it. Everything outside
/// `RunStats::spatial` — and the full trace-event stream — must match a
/// run with the layer off bit for bit.
#[test]
fn arming_spatial_never_perturbs_the_rest_of_the_guest() {
    let e = point(4, 2, Some(7));
    let run = |spatial: bool| {
        let mut sys = build_system(&e);
        sys.tracer().enable_all();
        let store = MemorySink::shared();
        sys.tracer().add_sink(Box::new(MemorySink::attach(&store)));
        if spatial {
            sys.enable_spatial(32);
        }
        let mut stats = sys.run(e.max_cycles).expect("run must complete");
        let events = store.borrow().len();
        let first = format!("{:?}", &store.borrow()[..events.min(64)]);
        // Blank out the spatial section so the rest compares exactly.
        stats.spatial = Default::default();
        (format!("{stats:?}"), events, first)
    };
    let off = run(false);
    let on = run(true);
    assert_eq!(off.0, on.0, "spatial layer perturbed non-spatial RunStats");
    assert_eq!(off.1, on.1, "spatial layer perturbed trace length");
    assert_eq!(off.2, on.2, "spatial layer perturbed trace events");
}

/// With the layer off, reports still carry the always-on home heatmap and
/// link matrix — only the per-line tracker is dark.
#[test]
fn heatmaps_are_collected_even_with_the_line_tracker_off() {
    let e = point(4, 2, None);
    let mut sys = build_system(&e);
    assert!(!sys.spatial_enabled());
    let stats = sys.run(e.max_cycles).expect("run must complete");
    let sp = &stats.spatial;
    assert!(!sp.enabled);
    assert!(sp.hot_lines.is_empty(), "tracker off must track nothing");
    assert_eq!(sp.homes.len(), 4, "home heatmap is always collected");
    assert!(!sp.links.is_empty(), "link matrix is always collected");
    assert!(sp.homes.iter().any(|h| h.handlers > 0));
    let msgs: u64 = sp.links.iter().map(|l| l.msgs).sum();
    // Every network message traverses >= 2 links (inject + eject).
    assert!(msgs >= 2 * stats.network.messages);
}

/// The interval sampler's optional hot-spot columns: armed via
/// `enable_metrics_hotspots`, the two extra columns land in every row,
/// survive a CSV round trip, and stay deterministic run to run.
#[test]
fn hotspot_metrics_columns_round_trip_through_csv() {
    let e = point(4, 2, None);
    let run = || {
        let mut sys = build_system(&e);
        sys.enable_metrics_hotspots(5_000);
        sys.enable_spatial(32);
        sys.run(e.max_cycles).expect("run must complete");
        sys.metrics().expect("metrics armed").to_csv()
    };
    let csv = run();
    assert_eq!(csv, run(), "hot-spot metrics columns are not deterministic");

    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("csv header").split(',').collect();
    let occ_col = header
        .iter()
        .position(|c| *c == "hot_home_occ")
        .expect("hot_home_occ column");
    let util_col = header
        .iter()
        .position(|c| *c == "hot_link_util")
        .expect("hot_link_util column");
    let mut rows = 0usize;
    let (mut occ_seen, mut util_seen) = (0.0f64, 0.0f64);
    for line in lines {
        let vals: Vec<f64> = line
            .split(',')
            .map(|v| v.parse().unwrap_or_else(|_| panic!("bad csv cell {v:?}")))
            .collect();
        assert_eq!(vals.len(), header.len(), "ragged csv row");
        // Both columns are per-interval fractions of cycles. Link busy is
        // booked at reservation time (serialization can span into the next
        // interval), so a boundary interval may read slightly above 1.
        assert!((0.0..=1.0).contains(&vals[occ_col]), "occ out of range");
        assert!(
            (0.0..2.0).contains(&vals[util_col]),
            "util out of range: {}",
            vals[util_col]
        );
        occ_seen = occ_seen.max(vals[occ_col]);
        util_seen = util_seen.max(vals[util_col]);
        rows += 1;
    }
    assert!(rows >= 2, "expected at least 2 sampled intervals");
    assert!(util_seen > 0.0, "no interval saw link traffic");
    assert!(occ_seen > 0.0, "no interval saw protocol occupancy");

    // The plain sampler must NOT carry the columns (opt-in only).
    let mut plain = build_system(&e);
    plain.enable_metrics(5_000);
    plain.run(e.max_cycles).expect("run must complete");
    let cols = plain.metrics().expect("metrics armed").columns().to_vec();
    assert!(!cols.iter().any(|c| c.starts_with("hot_")));
}

/// The 32-node scaling sentinel: spatial state stays bit-identical between
/// the reference loop and both engines at the paper's largest machine.
/// Release-only (`--ignored`), wired into the CI engine-scaling job.
#[test]
#[ignore = "release-scale: run with --ignored"]
fn spatial_32node_bit_identity() {
    let mut e = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, 32, 2);
    e.scale = 0.05;
    e.workers = Some(2);
    assert!(observe(&e, "x32").contains("\"spatial\":{\"enabled\":true"));
}
