//! The out-of-order simultaneous multi-threading pipeline, with the SMTp
//! protocol-thread extensions.
//!
//! The model follows paper §2 and Table 2: nine stages (fetch, decode,
//! rename, issue, two operand-read stages, execute, cache access, commit),
//! ICOUNT.2.8 fetch, per-thread active lists, shared issue/load-store
//! queues, a 21264-style tournament predictor with per-thread histories,
//! and round-robin commit.
//!
//! SMTp extensions (§2.1–2.3):
//!
//! * a statically bound **protocol thread context** whose instructions are
//!   supplied by the handler dispatch unit through [`PipeEnv`] — the
//!   "Protocol PC Valid" bit is modeled by
//!   [`PipeEnv::next_protocol_inst`] returning `Some`;
//! * **reserved resources** (one decode/rename-queue slot, branch-stack
//!   entry, integer register, integer-queue slot, LSQ slot, store-buffer
//!   entry) usable only by the protocol thread, breaking the cyclic
//!   resource dependence between application L2 misses and the handler
//!   that services them;
//! * non-speculative execution of `send`, `switch`, `ldctxt` and protocol
//!   stores at graduation;
//! * **look-ahead scheduling** support: squashed handler instructions are
//!   recycled through the per-thread refetch buffer, which reproduces the
//!   paper's `ldctxt_id`/`LookAhead` recovery behaviour.

pub mod branch;
pub mod env;
mod iq;
pub mod regs;
pub mod smt;
pub mod stats;
pub mod window;

pub use branch::{BranchPredictor, Btb, ReturnAddressStack};
pub use env::PipeEnv;
pub use regs::{RegFiles, RenameOutcome};
pub use smt::SmtPipeline;
pub use stats::{PipeStats, BREAKDOWN_NAMES};
pub use window::DynInst;
