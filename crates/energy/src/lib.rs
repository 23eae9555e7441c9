//! Per-event energy model.
//!
//! The paper's energy comparison (our reconstructed Fig. R-F2) is a
//! ratio between designs whose event mixes differ: CE trades SRAM
//! events for DRAM events, ARC trades network flits for extra LLC
//! fills. A per-event model with CACTI/McPAT-class constants preserves
//! exactly those ratios, which is what the substitution table in
//! DESIGN.md promises. Events are counted by the substrates; this
//! crate turns counts into picojoules and a component breakdown.
//!
//! Constants (45 nm-class, order-of-magnitude; the *relative*
//! magnitudes are what matter):
//! - L1 access ≈ 15 pJ, LLC access ≈ 60 pJ, AIM access ≈ 20 pJ,
//!   directory lookup ≈ 10 pJ,
//! - NoC ≈ 6 pJ per flit-hop,
//! - DRAM ≈ 20 pJ/byte + 2 nJ activation amortized per access,
//! - static leakage ≈ 0.1 W/core-equivalent charged per cycle.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod model;

pub use model::{EnergyBreakdown, EnergyModel, EventCounts};
