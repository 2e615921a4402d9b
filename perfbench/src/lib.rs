//! End-to-end and per-layer host benchmark of the ScalableBulk
//! simulator.
//!
//! The benchmark drives the simulator only through its public entry
//! points (`Machine::new`, `Machine::run`, `FuzzCase::config`,
//! `verify_result`, `verify_observability` and the substrate crates'
//! functions), times every call from its own code, and checks each
//! machine's simulated digest. See `NOTES.md` beside this crate for the
//! workloads, the metrics and how they relate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod digest;
pub mod machine;
pub mod probes;
pub mod rss;
pub mod spans;
pub mod stats;
pub mod workload;
