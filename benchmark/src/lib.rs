#![warn(missing_docs)]

//! The repository's benchmark: seven named paper-scale workloads, fourteen
//! end-to-end metrics, and an outside-in per-layer ledger. See `README.md`
//! beside this crate for what each workload and metric is and why.

pub mod checks;
pub mod cli;
pub mod compare;
pub mod e2e;
pub mod host;
pub mod layers;
pub mod machine;
pub mod metrics;
pub mod spans;
pub mod stat;
pub mod traced;
pub mod workloads;
