//! Synthetic multithreaded memory-trace workloads with SFR structure.
//!
//! The paper evaluates CE/CE+/ARC on PARSEC applications running on a
//! cycle-level simulator. Neither the simulator nor the traces are
//! available, so this crate provides the substitution described in
//! DESIGN.md: seed-deterministic generators that reproduce each PARSEC
//! application's *sharing pattern* — the property that actually drives
//! conflict-exception cost (region length, synchronization density,
//! eviction pressure, and which lines are shared between which cores).
//!
//! A workload is a [`Program`]: one operation list per thread, where
//! operations are reads/writes (with byte addresses), lock
//! acquire/release, barriers, and local compute. *Synchronization-free
//! regions* (SFRs) — the unit conflict exceptions protect — are implied:
//! every synchronization operation is a region boundary.
//!
//! Entry points:
//! - [`workloads::WorkloadSpec`] enumerates the PARSEC-like suite and
//!   builds a `Program` from `(cores, scale, seed)`.
//! - [`racey::inject_races`] plants unsynchronized conflicting accesses
//!   into any program.
//! - [`chars::characterize`] computes the Table II statistics.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod builder;
mod chars;
mod op;
mod program;
mod racey;
pub mod validate;
mod workloads;

pub use builder::Builder;
pub use chars::characterize;
pub use op::Op;
pub use program::Program;
pub use racey::inject_races;
pub use validate::validate;
pub use workloads::WorkloadSpec;
