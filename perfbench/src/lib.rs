//! # perfbench
//!
//! The repository's benchmark: three seeded, fixed-work workloads driven
//! through the public API of `pgssi-engine` and `pgssi-server`, an
//! end-to-end report, and a traced per-layer report. See `README.md` beside
//! this crate for the workloads, the metrics and the measuring protocol.

pub mod cli;
pub mod measure;
pub mod point_rw;
pub mod range_conflict;
pub mod report;
pub mod rng;
pub mod trace;
pub mod wire_durable;
