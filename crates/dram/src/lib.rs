//! Off-chip DRAM model.
//!
//! CE's defining cost is metadata traffic to main memory, and the
//! paper's C1/C3 claims are about how much off-chip traffic each
//! design generates. The model here is a channel/bank structure with
//! row-buffer state and bandwidth-limited FIFO service per channel:
//! enough fidelity to make (a) metadata accesses visibly expensive,
//! (b) row locality matter (sequential metadata scrubbing is cheaper
//! than scattered), and (c) saturation possible when a design floods
//! the memory network.
//!
//! Accesses are classified as program data vs. conflict metadata so
//! the harness can attribute off-chip traffic per design.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod controller;
mod stats;

pub use controller::{AccessKind, Dram};
pub use stats::DramStats;
