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
//! One catalog lists every result: each [`Experiment`] row is a CLI
//! name, a result ID, a title and a renderer, and [`Experiment::ALL`]
//! (the paper's tables and figures, rendered in [`figures`]) and
//! [`Experiment::ABLATIONS`] (rendered in the `ablations` module) hold
//! the rows. A renderer returns an aligned text table plus a
//! machine-readable JSON row set (consumed by EXPERIMENTS.md).
//!
//! The `runner` module holds the keyed run store: a [`RunKey`] names one
//! simulation completely, and each renderer asks its store for every
//! run it reads before rendering, so the store runs each missing key
//! once, in one batch parallel across OS threads — each simulation is
//! single-threaded and deterministic, so a batch is embarrassingly
//! parallel. `paper all` computes the base sweep once and seeds every
//! experiment's store with it.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod ablations;
pub mod diff;
pub mod figures;
pub mod hotpath;
pub mod profile;
mod runner;
pub mod summary;

pub use figures::{Experiment, FigureOutput};
pub use runner::{EvalParams, RunKey, SweepResults};
