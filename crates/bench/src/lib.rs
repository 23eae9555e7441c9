//! Benchmark harness: regenerates every table and figure of the
//! paper's (reconstructed) evaluation.
//!
//! The `paper` binary is the entry point:
//!
//! ```text
//! cargo run -p rce-bench --release --bin paper -- all
//! cargo run -p rce-bench --release --bin paper -- fig-runtime --cores 32 --scale 4
//! ```
//!
//! [`runner`] executes (workload × protocol × core-count) sweeps in
//! parallel across OS threads — each simulation is single-threaded and
//! deterministic, so the sweep is embarrassingly parallel.
//! [`figures`] renders each experiment as an aligned text table plus a
//! machine-readable JSON row set (consumed by EXPERIMENTS.md).

#![warn(missing_docs)]

pub mod ablations;
pub mod diff;
pub mod figures;
pub mod hotpath;
pub mod profile;
pub mod runner;
pub mod summary;

pub use ablations::Ablation;
pub use figures::{Experiment, FigureOutput};
pub use runner::{
    run_one, run_one_obs, run_suite, run_suite_with, EvalParams, RunKey, SweepResults,
};
