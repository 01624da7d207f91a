//! # pardfs-bench
//!
//! The experiment harness that regenerates every quantitative claim of the
//! paper (see DESIGN.md §5 for the experiment index and EXPERIMENTS.md for the
//! recorded results). Each experiment is a function returning a printable
//! table; the `experiments` binary prints them, and the Criterion benches in
//! `benches/` provide statistically robust wall-clock numbers for the
//! latency-style experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod experiments;
pub mod gate;
pub mod table;

pub use driver::{drive, DriveSummary};
pub use experiments::*;
pub use gate::{GateComparison, GateRecord, GateReport};
pub use table::{BenchRecord, Table};
