//! End-to-end acceptance for the cross-run archive and the diff gate:
//!
//! * the same configuration run twice archives two entries whose diff has
//!   **zero guest delta**;
//! * a reference-loop, a serial and a parallel run of the same
//!   configuration also diff to zero guest delta (the engines are
//!   bit-identical to the tick-everything loop);
//! * a perturbed guest metric is detected and fails the gate.

use smtp::bench::{diff_reports, Archive, DiffOptions, RunKey};
use smtp::{
    build_system, AppKind, EngineKind, ExperimentConfig, MachineModel, ParsedReport, Report,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let d = std::env::temp_dir().join(format!(
        "smtp_archive_it_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn run_archived(archive: &mut Archive, e: &ExperimentConfig) -> usize {
    let mut sys = build_system(e);
    sys.enable_host_telemetry();
    let stats = sys.run_with(e.max_cycles, e.engine).expect("run");
    let prof = sys.take_host_profile().expect("host profile");
    let json = Report::with_host_profile(&stats, &prof).json();
    archive
        .append(&RunKey::for_experiment(e), &json)
        .expect("archive append")
        .line
}

#[test]
fn same_config_twice_diffs_to_zero_guest_delta() {
    let dir = tmp_dir("twice");
    let e = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, 2, 2);
    let mut archive = Archive::open(&dir).unwrap();
    run_archived(&mut archive, &e);
    run_archived(&mut archive, &e);

    // Reopen from disk: the comparison must work from the archive alone.
    let archive = Archive::open(&dir).unwrap();
    let runs = archive.query().fingerprint(e.fingerprint()).run();
    assert_eq!(runs.len(), 2);
    assert_eq!(runs[0].key.guest_key(), runs[1].key.guest_key());
    let d = diff_reports(&runs[0].report, &runs[1].report, &DiffOptions::default());
    assert!(
        !d.has_guest_drift(),
        "same config drifted:\n{}",
        d.render_text()
    );
    assert!(d.gate().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serial_vs_parallel_engines_diff_to_zero_guest_delta() {
    let dir = tmp_dir("engines");
    let mut e = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Ocean, 2, 1);
    let mut archive = Archive::open(&dir).unwrap();
    e.engine = EngineKind::Serial;
    run_archived(&mut archive, &e);
    e.engine = EngineKind::Parallel;
    e.workers = Some(2);
    run_archived(&mut archive, &e);

    // Engine choice must not change the fingerprint…
    let serial = archive
        .query()
        .engine("serial")
        .latest()
        .expect("serial entry");
    let parallel = archive
        .query()
        .engine("parallel")
        .latest()
        .expect("parallel entry");
    assert_eq!(serial.key.fingerprint, parallel.key.fingerprint);

    // …and the guest metrics must be bit-identical across engines, and to
    // the tick-everything reference loop's report.
    let d = diff_reports(&serial.report, &parallel.report, &DiffOptions::default());
    assert!(
        !d.has_guest_drift(),
        "engines diverged:\n{}",
        d.render_text()
    );
    let stats = build_system(&e).run_reference(e.max_cycles).expect("run");
    let oracle = ParsedReport::from_json(&Report::new(&stats).json()).expect("report parses");
    let d = diff_reports(&oracle, &serial.report, &DiffOptions::default());
    assert!(
        !d.has_guest_drift(),
        "engine diverged from the reference loop:\n{}",
        d.render_text()
    );
    // Wall clocks come from different engine populations: reported as a
    // note, never gated.
    assert!(d.wall.is_none() && d.wall_note.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn perturbed_guest_cycles_fails_the_gate() {
    let e = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, 1, 1);
    let stats = smtp::run_experiment(&e);
    let json = Report::new(&stats).json();
    let a = ParsedReport::from_json(&json).unwrap();
    // The same perturbation the CI self-test injects: prepend a digit to
    // the committed cycles value.
    let perturbed = json.replacen(
        &format!("\"cycles\":{}", stats.cycles),
        &format!("\"cycles\":1{}", stats.cycles),
        1,
    );
    assert_ne!(json, perturbed, "perturbation did not apply");
    let b = ParsedReport::from_json(&perturbed).unwrap();
    let d = diff_reports(&a, &b, &DiffOptions::default());
    assert!(d.has_guest_drift());
    let gate = d.gate().unwrap_err();
    assert!(gate.contains("cycles"), "gate message: {gate}");
}

#[test]
fn quickstart_archive_flag_layout_round_trips() {
    // The `--archive` flag writes through the same Archive API; prove the
    // on-disk layout survives an open/append/reopen cycle with a bare
    // (host-profile-free) report too.
    let dir = tmp_dir("layout");
    let e = ExperimentConfig::quick(MachineModel::Base, AppKind::Fft, 1, 1);
    let stats = smtp::run_experiment(&e);
    {
        let mut archive = Archive::open(&dir).unwrap();
        archive
            .append(&RunKey::for_experiment(&e), &Report::new(&stats).json())
            .unwrap();
    }
    let archive = Archive::open(&dir).unwrap();
    assert_eq!(archive.len(), 1);
    assert!(dir.join("runs.jsonl").is_file());
    let entry = archive.query().latest().unwrap();
    assert_eq!(entry.report.cycles, stats.cycles);
    assert!(entry.report.host.is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
