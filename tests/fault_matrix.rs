//! Chaos soak: sweep a matrix of fault intensities — link loss × ECC error
//! rate × stall windows — over small end-to-end machines. Every cell must
//! either complete with sane statistics or return a diagnosable
//! [`smtp::RunError`]. **No cell may panic**: each run is wrapped in
//! `catch_unwind` to prove the failure path is structured all the way down.

use smtp::core::experiment::assert_engines_match_reference;
use smtp::types::{EccFaults, LinkFaults, StallFaults};
use smtp::{
    build_system, try_run_experiment, AppKind, ExperimentConfig, FaultConfig, MachineModel,
    RunError, RunErrorKind, RunStats,
};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Run one small SMTp machine under `faults`, inside `catch_unwind`: a panic
/// anywhere in the fault path fails the test with the cell label. Every cell
/// runs on the reference loop and on both engines (inline and two worker
/// threads), and the outcomes (stats or structured error, every field) must
/// match exactly.
fn run_cell(label: &str, faults: FaultConfig) -> Result<RunStats, RunError> {
    let mut exp = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, 2, 1);
    exp.scale = 0.05;
    exp.faults = faults;
    exp.workers = Some(2);
    // Bound each cell: a machine that limps along under heavy faults without
    // quiescing ends in a diagnosable `Deadlock`, which the matrix accepts.
    exp.max_cycles = 4_000_000;
    let arm = |sys: &mut smtp::System| sys.enable_invariant_checks(25_000);
    let outcome = RefCell::new(None);
    catch_unwind(AssertUnwindSafe(|| {
        assert_engines_match_reference(&exp, label, arm, |_, (), res| {
            let rendered = format!("{res:?}");
            outcome.replace(Some(res));
            rendered
        })
    }))
    .unwrap_or_else(|_| panic!("cell {label}: panicked or diverged under faults"));
    outcome.into_inner().expect("every leg records its outcome")
}

#[test]
fn fault_matrix_completes_or_diagnoses_without_panicking() {
    let drop_rates: [u32; 3] = [0, 30_000, 120_000];
    let ecc_rates: [u32; 2] = [0, 60_000];
    let stall_modes: [bool; 2] = [false, true];

    for &drop in &drop_rates {
        for &ecc in &ecc_rates {
            for &stall in &stall_modes {
                if drop == 0 && ecc == 0 && !stall {
                    continue; // the clean cell is the rest of the test suite
                }
                let label = format!("drop={drop} ecc={ecc} stall={stall}");
                let seed = 0x50A4 ^ u64::from(drop) ^ (u64::from(ecc) << 20) ^ (stall as u64);
                let faults = FaultConfig {
                    enabled: true,
                    seed,
                    link: LinkFaults {
                        drop_per_million: drop,
                        corrupt_per_million: drop / 2,
                        duplicate_per_million: drop / 2,
                        delay_per_million: drop,
                        max_delay_cycles: 150,
                    },
                    ecc: EccFaults {
                        correctable_per_million: ecc,
                        uncorrectable_per_million: 0,
                        correction_cycles: 24,
                    },
                    dispatch_stall: if stall {
                        StallFaults {
                            window_per_million: 80_000,
                            window_cycles: 400,
                            check_every: 4096,
                        }
                    } else {
                        StallFaults::default()
                    },
                    starvation: if stall {
                        StallFaults {
                            window_per_million: 80_000,
                            window_cycles: 250,
                            check_every: 4096,
                        }
                    } else {
                        StallFaults::default()
                    },
                    handler_delay: Default::default(),
                };
                match run_cell(&label, faults) {
                    Ok(_) => {} // recovered end to end — the common case
                    Err(err) => {
                        // A structured failure is acceptable, but only with a
                        // usable diagnosis attached.
                        assert!(
                            !err.message.is_empty(),
                            "cell {label}: error without a message"
                        );
                        assert!(
                            !err.diagnosis.nodes.is_empty(),
                            "cell {label}: {} without per-node diagnosis",
                            err.kind.name()
                        );
                    }
                }
            }
        }
    }
}

/// Moderate chaos must be fully recoverable: the run completes, the fault
/// counters show the injector actually fired, and the retry layer earned
/// its keep.
#[test]
fn chaos_run_recovers_and_reports_fault_counters() {
    let mut exp = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, 2, 1);
    exp.scale = 0.08;
    exp.faults = FaultConfig::chaos(0xC4A0);
    let stats = try_run_experiment(&exp).expect("chaos run must recover");
    assert!(stats.cycles > 0);
    let f = &stats.faults;
    assert!(f.any(), "chaos preset injected nothing");
    assert!(
        f.link_drops + f.link_crc_errors == 0 || f.link_retransmits > 0,
        "packets were lost ({} drops, {} CRC) but never retransmitted",
        f.link_drops,
        f.link_crc_errors
    );
    assert_eq!(f.ecc_uncorrectable, 0, "chaos preset must stay correctable");
}

/// Identically seeded fault runs are cycle-for-cycle reproducible — the whole
/// point of deterministic injection.
#[test]
fn seeded_fault_runs_are_deterministic() {
    let mut exp = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Ocean, 2, 1);
    exp.scale = 0.06;
    exp.faults = FaultConfig::chaos(99);
    let a = try_run_experiment(&exp).expect("run must complete");
    let b = try_run_experiment(&exp).expect("run must complete");
    assert_eq!(a.cycles, b.cycles, "fault runs diverged in cycle count");
    assert_eq!(a.faults, b.faults, "fault runs diverged in fault schedule");
    assert_eq!(a.network.messages, b.network.messages);
    assert!(a.faults.any());
}

/// Total packet loss is unrecoverable by design: the retry layer keeps
/// retransmitting but nothing ever arrives, so the forward-progress watchdog
/// must report a deadlock with a populated diagnosis — not hang, not panic.
#[test]
fn total_packet_loss_is_diagnosed_as_deadlock() {
    let mut exp = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, 2, 1);
    exp.scale = 0.05;
    // Spinning threads keep committing instructions, so the watchdog sees
    // "progress" while the interconnect is dead; the cycle budget is what
    // bounds this run.
    exp.max_cycles = 1_500_000;
    exp.faults = FaultConfig {
        enabled: true,
        seed: 0xDEAD,
        link: LinkFaults {
            drop_per_million: 1_000_000,
            ..Default::default()
        },
        ..FaultConfig::default()
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut sys = build_system(&exp);
        sys.run(exp.max_cycles)
    }))
    .expect("total packet loss must not panic")
    .expect_err("a machine with a dead interconnect cannot finish");
    assert_eq!(err.kind, RunErrorKind::Deadlock, "got: {err}");
    assert!(err.cycle > 0);
    assert!(
        !err.diagnosis.nodes.is_empty(),
        "deadlock diagnosis must carry per-node state"
    );
    assert!(
        !err.diagnosis.stuck_transactions.is_empty(),
        "deadlock diagnosis must name the stuck transactions"
    );
}

/// An uncorrectable ECC error is a data-integrity loss: the watchdog must
/// stop the run with `UnrecoverableFault` naming the faulting channel.
#[test]
fn uncorrectable_ecc_is_surfaced_as_unrecoverable_fault() {
    let mut exp = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, 2, 1);
    exp.scale = 0.05;
    exp.max_cycles = 2_000_000;
    exp.faults = FaultConfig {
        enabled: true,
        seed: 7,
        ecc: EccFaults {
            correctable_per_million: 0,
            uncorrectable_per_million: 1_000_000,
            correction_cycles: 24,
        },
        ..FaultConfig::default()
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        let mut sys = build_system(&exp);
        sys.run(exp.max_cycles)
    }))
    .expect("uncorrectable ECC must not panic")
    .expect_err("poisoned data must abort the run");
    assert_eq!(err.kind, RunErrorKind::UnrecoverableFault, "got: {err}");
    assert!(
        err.message.contains("uncorrectable ECC"),
        "message must name the fault: {}",
        err.message
    );
    assert!(err.diagnosis.faults.ecc_uncorrectable > 0);
}
