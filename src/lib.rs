//! # rce — Region Conflict Exceptions
//!
//! Facade crate for the reproduction of *"Rethinking Support for
//! Region Conflict Exceptions"* (Biswas, Zhang, Bond, Lucia — IPDPS
//! 2019). Re-exports the whole workspace under one roof:
//!
//! - [`trace`] — synthetic PARSEC-like workloads with SFR structure,
//! - [`noc`] / [`dram`] / [`cache`] — the architectural substrates,
//! - [`energy`] — the per-event energy model,
//! - [`core`] — the paper's contribution: the MESI baseline and the
//!   CE, CE+ and ARC conflict-exception engines plus the machine
//!   driver,
//! - [`common`] — shared vocabulary types.
//!
//! ## Quickstart
//!
//! ```
//! use rce::prelude::*;
//!
//! // Build a workload, pick a machine, run each design.
//! let program = WorkloadSpec::Fluidanimate.build(8, 1, 42);
//! for proto in ProtocolKind::ALL {
//!     let config = MachineConfig::paper_default(8, proto);
//!     let report = Machine::new(&config).unwrap().run(&program).unwrap();
//!     println!("{:>5}: {} cycles", proto.name(), report.cycles.0);
//! }
//! ```

#![deny(unsafe_code)]
#![warn(unreachable_pub)]

pub use rce_cache as cache;
pub use rce_common as common;
pub use rce_core as core;
pub use rce_dram as dram;
pub use rce_energy as energy;
pub use rce_noc as noc;
pub use rce_trace as trace;

/// Convenient glob-import surface: the types almost every user needs.
pub mod prelude {
    pub use rce_common::{
        Addr, Bytes, CoreId, Cycles, DetectionGranularity, LineAddr, MachineConfig, PicoJoules,
        ProtocolKind, RegionId, ThreadId, WordIdx, WordMask,
    };
    pub use rce_core::{ConflictException, ExceptionPolicy, Machine, SimReport};
    pub use rce_trace::{characterize, inject_races, Program, WorkloadSpec};
}
