//! Shared primitives for the region-conflict-exception (RCE) simulator.
//!
//! This crate holds the vocabulary types that every other crate in the
//! workspace speaks: physical addresses and cache-line geometry
//! ([`Addr`], [`LineAddr`], [`WordMask`]), identifiers for
//! cores/threads/regions/locks ([`CoreId`], [`RegionId`], ...), the
//! machine configuration tree ([`MachineConfig`]), counters and summary
//! statistics ([`Counter`], [`Histogram`]), deterministic random number
//! generation ([`SplitMix64`]), ASCII table rendering for the benchmark
//! harness ([`table`]), the error taxonomy ([`RceError`]), in-tree JSON
//! serialization ([`mod@json`]), the property-test harness ([`check`]),
//! a fast non-cryptographic hasher for in-process sets
//! ([`FxBuildHasher`]), and the observability layer — event tracing and
//! interval metrics — ([`obs`]).
//!
//! The workspace builds fully offline with zero third-party crates;
//! [`mod@json`] and [`check`] exist to keep it that way.
//!
//! Nothing in this crate models hardware behavior; it only provides the
//! data types the models are built from. Keeping these in one leaf crate
//! lets the substrate crates (`rce-noc`, `rce-dram`, `rce-cache`) stay
//! independent of each other.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod addr;
pub mod check;
mod config;
mod error;
mod hash;
mod ids;
pub mod json;
mod line;
pub mod obs;
mod rng;
mod stats;
pub mod table;
mod units;

pub use addr::{Addr, LineAddr, LineGeometry, WordIdx, WordMask};
pub use config::{
    AimConfig, CacheGeometry, DetectionGranularity, DramConfig, MachineConfig, MetaPlacement,
    NocConfig, ProtocolKind, MAX_CORES,
};
pub use error::{RceError, RceResult};
pub use hash::FxBuildHasher;
pub use ids::{BarrierId, CoreId, LockId, RegionId, ThreadId};
pub use json::{FromJson, JsonValue, ToJson};
pub use line::{LineFlags, LineId, LineMap, LineSet, LineTable};
pub use obs::{
    EventKind, GaugeSnapshot, MetricsSampler, MetricsTimeline, ObsConfig, SharedTracer, SimEvent,
    TraceLog, Tracer,
};
pub use rng::{Rng, SplitMix64};
pub use stats::{geomean, Counter, Histogram};
pub use units::{Bytes, Cycles, PicoJoules};
