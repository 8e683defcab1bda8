//! # jrs-bench — experiment harness for the JOSHUA reproduction
//!
//! One runner per paper artifact (tables/figures) plus ablations; the
//! binaries in `src/bin/` print paper-style tables, and the repo
//! benchmark in `src/benchmark/` (a package of its own, see
//! `BENCHMARK.json`) measures the real implementation's host time.

#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::{latency_experiment, throughput_experiment, LatencyRow, ThroughputRow};
