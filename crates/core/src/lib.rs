//! Region conflict exception engines — the paper's contribution.
//!
//! Four architectures share one machine driver and one substrate
//! (NoC + DRAM + LLC); the MESI family adds its own sharer directory:
//!
//! - [`engines::MesiFamilyEngine`] in *baseline* mode: plain MESI
//!   write-invalidation coherence, no detection. Every figure
//!   normalizes to this.
//! - The same engine in *CE* mode: Conflict Exceptions — per-word
//!   access bits ride with cache lines, are checked on every coherence
//!   action, and spill to an **in-memory** metadata table when an
//!   accessed line leaves the L1 mid-region. Region ends must scrub
//!   spilled bits in memory: the off-chip metadata tax the paper
//!   starts from.
//! - *CE+* mode: identical coherence, but spills/scrubs go to the
//!   **access information memory (AIM)** — an on-chip metadata cache at
//!   the LLC banks ([`AimMeta`]). Off-chip metadata traffic mostly
//!   disappears (claim C1) while eager invalidation coherence plus
//!   per-message metadata piggybacks keep stressing the NoC (claim C2).
//! - [`engines::ArcEngine`]: the ARC design — coherence based on
//!   release consistency + self-invalidation (DeNovo-flavored
//!   private/shared classification, word registration at the LLC,
//!   acquire-time self-invalidation, release-time dirty-word flush),
//!   with conflict detection at the LLC-side AIM. No invalidation
//!   storms, no piggybacks (claim C3).
//!
//! [`Machine`] drives a `rce-trace` [`rce_trace::Program`] through a
//! chosen engine and produces a [`SimReport`]. An independent
//! [`oracle::Oracle`] observes the same committed access stream and
//! computes ground-truth region conflicts; differential tests require
//! every engine to detect exactly the oracle's conflict set.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod access;
mod detect;
mod engines;
mod exception;
mod forensics;
pub mod machine;
mod meta;
mod oracle;
pub mod protocol;
pub mod report;
mod sched;
pub mod sync;

pub use access::MetaMap;
pub use engines::{find_variant, ArcEngine, EngineVariant, MesiFamilyEngine, REGISTRY};
pub use exception::{AccessType, ConflictException, ExceptionPolicy};
pub use forensics::Forensics;
pub use machine::Machine;
pub use meta::{AimMeta, IdealMeta, MetaBackend};
pub use oracle::Oracle;
pub use protocol::{AccessResult, Engine, Substrate};
pub use report::SimReport;
pub use sched::ReadyQueue;

/// Build the engine selected by a configuration.
pub fn engine_for(cfg: &rce_common::MachineConfig) -> Box<dyn Engine> {
    use rce_common::ProtocolKind::*;
    match cfg.protocol {
        MesiBaseline | Ce | CePlus => Box::new(MesiFamilyEngine::new(cfg)),
        Arc => Box::new(ArcEngine::new(cfg)),
    }
}
