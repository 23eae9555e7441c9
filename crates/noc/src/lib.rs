//! 2D-mesh on-chip network model.
//!
//! The paper's C2 claim — CE+ "stresses or saturates the on-chip
//! interconnect" — needs a network model in which latency *degrades
//! under load*. This crate models a 2D mesh with XY dimension-order
//! routing where every directed link is a FIFO server: a message
//! occupies each link on its path for `bytes / bandwidth` cycles, and
//! a link busy with earlier messages queues later ones. Offered load
//! beyond link capacity therefore shows up directly as growing
//! queueing delay (saturation), and per-link busy-cycle accounting
//! yields the utilization figures for the saturation experiment.
//!
//! Topology: one tile per core; each tile hosts the core, one LLC
//! bank, and (on up to four edge tiles) a memory controller. Message
//! classes are accounted separately so the harness can attribute
//! traffic to coherence requests, data, invalidations, and — the
//! quantity the paper's designs differ most on — metadata.
//!
//! This crate is a pure timing model — routing, link contention,
//! accounting. It emits no trace events: `rce-core`'s substrate,
//! which sends every message through it, records each routed one
//! (with [`Noc::wire_bytes`] as its size).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod mesh;
mod network;
mod stats;

pub use mesh::NodeId;
pub use network::{MsgClass, Noc};
pub use stats::NocStats;
