//! Shared primitives for the region-conflict-exception (RCE) simulator.
//!
//! This crate holds the vocabulary types that every other crate in the
//! workspace speaks: physical addresses and cache-line geometry
//! ([`addr`]), identifiers for cores/threads/regions/locks ([`ids`]),
//! the machine configuration tree ([`config`]), counters and summary
//! statistics ([`stats`]), deterministic random number generation
//! ([`rng`]), ASCII table rendering for the benchmark harness
//! ([`table`]), the error/exception taxonomy ([`error`]), in-tree JSON
//! serialization ([`json`]), the property-test harness ([`check`]),
//! and the observability layer — event tracing and interval metrics —
//! ([`obs`]).
//!
//! The workspace builds fully offline with zero third-party crates;
//! [`json`] and [`check`] exist to keep it that way.
//!
//! Nothing in this crate models hardware behavior; it only provides the
//! data types the models are built from. Keeping these in one leaf crate
//! lets the substrate crates (`rce-noc`, `rce-dram`, `rce-cache`) stay
//! independent of each other.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod addr;
pub mod check;
pub mod config;
pub mod error;
pub mod ids;
pub mod json;
pub mod line;
pub mod obs;
pub mod rng;
pub mod stats;
pub mod table;
pub mod units;

pub use addr::{Addr, LineAddr, LineGeometry, WordIdx, WordMask};
pub use config::{
    AimConfig, CacheGeometry, DetectionGranularity, DramConfig, MachineConfig, MetaPlacement,
    NocConfig, ProtocolKind, MAX_CORES,
};
pub use error::{RceError, RceResult};
pub use ids::{BarrierId, CoreId, LockId, RegionId, ThreadId};
pub use json::{FromJson, JsonValue, ToJson};
pub use line::{LineFlags, LineId, LineMap, LineSet, LineTable};
pub use obs::{
    EventClass, EventKind, ForensicsConfig, GaugeSnapshot, IntervalSample, MetricsSampler,
    MetricsTimeline, ObsConfig, SharedTracer, SimEvent, TraceConfig, TraceFilter, TraceLog, Tracer,
};
pub use rng::{Rng, SplitMix64};
pub use stats::{geomean, Counter, Histogram, Summary};
pub use units::{Bytes, Cycles, PicoJoules};
