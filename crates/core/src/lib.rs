//! The SMTp system simulator: node assembly for the five machine models of
//! paper Table 4, the global cycle loop, and the experiment harness that
//! regenerates every table and figure of the paper's evaluation.
//!
//! A [`Node`] wires together one SMT pipeline, its cache hierarchy, the
//! directory for lines homed at the node, the SDRAM, the network
//! interface, and — depending on the [`smtp_types::MachineModel`] — either
//! an embedded dual-issue protocol engine (`Base`, `Int*`) or the
//! [`node::DispatchUnit`] that feeds coherence handlers to the SMT
//! **protocol thread** (`SMTp`).
//!
//! A [`System`] owns the nodes, the interconnect and the global
//! synchronization manager and advances everything on a single CPU-cycle
//! clock until the application completes.

pub mod engine;
pub mod error;
pub mod experiment;
pub mod json;
pub mod node;
pub mod report;
pub mod stats;
pub mod system;

pub use engine::EngineKind;
pub use error::{Diagnosis, RunError, RunErrorKind};
pub use experiment::{build_system, run_experiment, try_run_experiment, ExperimentConfig};
pub use json::{JsonError, JsonValue};
pub use node::Node;
pub use report::{
    spatial_json, ParsedCriticalPath, ParsedHist, ParsedHomeHeat, ParsedHostProfile, ParsedHotLine,
    ParsedLinkHeat, ParsedPhase, ParsedReport, ParsedSpatial, ParsedThreadTime, Report,
    MIN_REPORT_SCHEMA_VERSION, REPORT_SCHEMA_VERSION,
};
pub use stats::{RunStats, ThreadTime};
pub use system::System;
