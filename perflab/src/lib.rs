//! **perflab** — the SMTp simulator's benchmark: five workloads that put
//! the host cost in different layers, end-to-end metrics measured with all
//! instrumentation off, and a separate traced run that times calls into
//! each layer from outside. See `README.md` for the metric catalogue.

pub mod contract;
pub mod golden;
pub mod layers;
pub mod run;
pub mod spans;
pub mod workloads;
