//! Experiment harness: reproduces every table and figure of the paper.
//!
//! One `experiments` binary with one subcommand per artifact (`fig1`–
//! `fig5`, `tab1`–`tab4`, `eq4`, …; `experiments --help` lists them), each
//! printing the same rows/series the paper reports, side by side with the
//! paper's published values where applicable, and writing CSV output
//! under `results/`.
//!
//! The library half hosts the data-producing functions so the tests and
//! the benchmark (`benchmark/`) can run the identical workloads. It reads
//! nothing from the environment: scale, thread count and the telemetry
//! switch are arguments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod scenario_runner;

pub use report::Table;
pub use runner::{run_all, run_all_instrumented, RunSpec, RunTrace, TraceSet, Traced};
