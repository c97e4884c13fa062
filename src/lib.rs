//! **smtp** — a full-system simulator reproducing *Chaudhuri & Heinrich,
//! "SMTp: An Architecture for Next-generation Scalable Multi-threading"
//! (ISCA 2004)*.
//!
//! SMTp augments a simultaneous multi-threading processor with a reserved
//! **coherence protocol thread** context. Together with a standard
//! integrated memory controller, the protocol thread runs the
//! directory-based cache-coherence handlers that would otherwise require a
//! DSM-specific programmable memory controller — enabling scalable
//! hardware distributed shared memory built from commodity nodes.
//!
//! This workspace implements the complete evaluation system of the paper:
//!
//! * an out-of-order SMT pipeline with the SMTp extensions
//!   ([`pipeline`]),
//! * a three-level cache hierarchy with MSHRs and protocol bypass buffers
//!   ([`cache`]),
//! * the bitvector directory protocol with handler timing programs
//!   ([`protocol`]),
//! * SDRAM, directory caches and the embedded protocol engine of the
//!   non-SMTp machine models ([`mem`]),
//! * a bristled-hypercube interconnect ([`noc`]),
//! * synthetic kernels for the six applications ([`workloads`]),
//! * the machine assembly and experiment harness ([`core`]), and
//! * an event-tracing and metrics-sampling layer with JSONL and
//!   Chrome-trace/Perfetto sinks ([`trace`]).
//!
//! # Quickstart
//!
//! ```
//! use smtp::{run_experiment, AppKind, ExperimentConfig, MachineModel};
//!
//! let exp = ExperimentConfig::quick(MachineModel::SMTp, AppKind::Fft, 2, 1);
//! let stats = run_experiment(&exp);
//! assert!(stats.cycles > 0);
//! println!("ran {} cycles, {} handlers", stats.cycles, stats.handlers);
//! ```

pub use smtp_bench as bench;
pub use smtp_cache as cache;
pub use smtp_core as core;
pub use smtp_isa as isa;
pub use smtp_mem as mem;
pub use smtp_noc as noc;
pub use smtp_pipeline as pipeline;
pub use smtp_protocol as protocol;
pub use smtp_trace as trace;
pub use smtp_types as types;
pub use smtp_workloads as workloads;

pub use smtp_bench::{Archive, DiffOptions, NoiseBand, ReportDiff, RunKey};
pub use smtp_core::{
    build_system, run_experiment, spatial_json, try_run_experiment, Diagnosis, EngineKind,
    ExperimentConfig, JsonValue, ParsedReport, ParsedSpatial, Report, RunError, RunErrorKind,
    RunStats, System, ThreadTime, REPORT_SCHEMA_VERSION,
};
pub use smtp_trace::{Heartbeat, HostPhase, HostProfile, LaneProfile};
pub use smtp_trace::{HotLine, SharingClass, SpatialStats};
pub use smtp_types::{
    Distribution, FaultConfig, FaultSummary, Histogram, LatencyBreakdown, MachineModel,
    PhaseProfiler, SystemConfig,
};
pub use smtp_workloads::AppKind;
