//! Cache structures: generic set-associative arrays, private L1
//! caches, a banked shared LLC, full-map directory entries, and MESI
//! state.
//!
//! This crate is pure structure — placement, replacement, residency,
//! sharer tracking. The *protocols* that drive these structures (MESI
//! baseline, CE, CE+, ARC) live in `rce-core`, because they also need
//! the NoC and DRAM models to charge time and traffic. Keeping the
//! structures protocol-agnostic lets all four engines share one
//! well-tested implementation of the hard, boring parts (indexing,
//! LRU, eviction) and differ only in the state they attach to lines.
//!
//! Design notes:
//! - The L1 array is generic over its per-line state (`L1Cache<S>`):
//!   MESI attaches a coherence state, CE adds access bits, ARC attaches
//!   word-valid/dirty masks.
//! - A directory entry ([`DirEntry`]) is full-map (one sharer bit per
//!   core, up to 64 cores). The crate has no directory container: the
//!   one design with a sharer directory (the MESI family in `rce-core`)
//!   keeps an entry per line in the same flat per-line table as its
//!   other line state. The directory is modeled as unbounded: real
//!   systems back the on-chip directory with memory; the engines
//!   account that cost rather than modeling directory evictions
//!   structurally.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod array;
mod directory;
mod l1;
mod llc;
mod mesi;

pub use array::SetAssoc;
pub use directory::DirEntry;
pub use l1::L1Cache;
pub use llc::Llc;
pub use mesi::MesiState;
