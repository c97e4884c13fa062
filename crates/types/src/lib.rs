//! Common identifiers, the physical address map, machine configuration and
//! statistics primitives shared by every crate of the SMTp simulator.
//!
//! The SMTp simulator reproduces the system evaluated in *Chaudhuri &
//! Heinrich, "SMTp: An Architecture for Next-generation Scalable
//! Multi-threading", ISCA 2004*: a directory-based hardware DSM built from
//! nodes whose SMT processor hosts a coherence **protocol thread**.
//!
//! This crate deliberately contains no simulation logic — only the vocabulary
//! types the rest of the workspace agrees on:
//!
//! * [`NodeId`], [`Ctx`] — node and hardware-thread-context identifiers,
//! * [`Addr`] / [`LineAddr`] — the global physical address map (home node and
//!   region are encoded in the address, mirroring a real DSM),
//! * [`SharerSet`] — the directory's sharer bitvector,
//! * [`config`] — every knob of paper Tables 2, 3 and 4,
//! * [`stats`] — counters, peak trackers and histograms used for the
//!   paper's tables and figures.

pub mod addr;
pub mod capture;
pub mod config;
pub mod faults;
pub mod fingerprint;
pub mod ids;
pub mod latency;
pub mod rng;
pub mod sharers;
pub mod span;
pub mod stats;

pub use addr::{app_code_addr, Addr, LineAddr, Region, APP_CODE_BASE, DIR_ENTRY_BYTES, L2_LINE};
pub use capture::CapturePoint;
pub use config::{
    CacheParams, MachineModel, MemParams, NetParams, PipelineParams, SystemConfig, MAX_NODES,
};
pub use faults::{
    EccFaults, FaultConfig, FaultStream, FaultSummary, FaultWindows, HandlerDelayFaults,
    LinkFaults, StallFaults,
};
pub use fingerprint::Fingerprint;
pub use ids::{Ctx, NodeId, MAX_APP_THREADS, MAX_CTX};
pub use latency::{
    take_captured_prof_ops, LatencyBreakdown, LatencyRecord, PhaseBoundary, PhaseProfiler, ProfOp,
    TxnClass, CLASS_NAMES, NUM_CLASSES, NUM_PHASES, PHASE_NAMES,
};
pub use rng::SplitMix64;
pub use sharers::SharerSet;
pub use span::{SpanAlloc, SpanId};
pub use stats::{Distribution, Histogram, PeakTracker, RunningStat, HISTOGRAM_BUCKETS};

/// Simulation time in CPU cycles.
pub type Cycle = u64;
