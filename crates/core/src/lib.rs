//! Region conflict exception engines — the paper's contribution.
//!
//! Four architectures share one machine driver and one substrate
//! (NoC + DRAM + LLC). They come from two coherence mechanisms, the two
//! variants of the closed [`Engine`] enum:
//!
//! - [`Engine::MesiFamily`] in *baseline* mode: plain MESI
//!   write-invalidation coherence with a sharer directory, no
//!   detection. Every figure normalizes to this.
//! - The same engine in *CE* mode: Conflict Exceptions — per-word
//!   access bits ride with cache lines, are checked on every coherence
//!   action, and spill to an **in-memory** metadata table when an
//!   accessed line leaves the L1 mid-region. Region ends must scrub
//!   spilled bits in memory: the off-chip metadata tax the paper
//!   starts from.
//! - *CE+* mode: identical coherence, but spills/scrubs go to the
//!   **access information memory (AIM)** — an on-chip metadata cache at
//!   the LLC banks, one placement of the engines' metadata store
//!   beside CE's DRAM table and an ideal, free bound. Off-chip
//!   metadata traffic mostly disappears (claim C1) while eager
//!   invalidation coherence plus per-message metadata piggybacks keep
//!   stressing the NoC (claim C2).
//! - [`Engine::Arc`]: the ARC design — coherence based on
//!   release consistency + self-invalidation (DeNovo-flavored
//!   private/shared classification, word registration at the LLC,
//!   acquire-time self-invalidation, release-time dirty-word flush),
//!   with conflict detection at the LLC-side AIM. No invalidation
//!   storms, no piggybacks (claim C3).
//!
//! [`Machine`] drives a `rce-trace` [`rce_trace::Program`] through the
//! engine [`engine_for`] builds and produces a [`SimReport`]. An
//! independent [`Oracle`] observes the same committed access stream
//! and computes ground-truth region conflicts; differential tests
//! require every engine to detect exactly the oracle's conflict set.
//! Debug builds of every run also check the engine's structural
//! invariants ([`Engine::check_invariants`]).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod access;
mod engines;
mod exception;
mod forensics;
pub mod machine;
mod meta;
mod oracle;
mod protocol;
pub mod report;
mod sched;
pub mod sync;

pub use engines::{find_variant, EngineVariant, REGISTRY};
pub use exception::{AccessType, ConflictException, ExceptionPolicy};
pub use machine::Machine;
pub use oracle::Oracle;
pub use protocol::{engine_for, AccessResult, Engine, Substrate};
pub use report::SimReport;
pub use sched::ReadyQueue;
