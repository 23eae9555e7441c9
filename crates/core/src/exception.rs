//! Conflict exceptions: the mechanism's deliverable.
//!
//! A region conflict exception reports that two *concurrent*
//! synchronization-free regions performed overlapping accesses to the
//! same word, at least one a write. The exception is precise: it
//! carries both cores, both region IDs, the word, and the access
//! kinds, which is what lets a language runtime deliver fail-stop
//! semantics for data races.

use rce_common::{impl_json_struct, impl_json_unit_enum, Addr, CoreId, Cycles, RegionId};

/// Which kind of access participated in the conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessType {
    /// A load.
    Read,
    /// A store.
    Write,
}

impl AccessType {
    /// Display letter ("R"/"W").
    pub(crate) fn letter(self) -> char {
        match self {
            AccessType::Read => 'R',
            AccessType::Write => 'W',
        }
    }
}

impl_json_unit_enum!(to_json AccessType { Read, Write });

/// One endpoint of a conflict: who accessed what, how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConflictSide {
    /// The core.
    pub core: CoreId,
    /// Its region at the time of the access.
    pub region: RegionId,
    /// Read or write.
    pub kind: AccessType,
}

/// A precise region conflict exception.
///
/// Equality and ordering deliberately ignore `detected_at`: the same
/// logical conflict may be detected at different times by different
/// designs (CE eagerly at the coherence action, ARC at a registration
/// or region end), and the differential tests compare conflict
/// *identities* across engines.
#[derive(Debug, Clone, Copy)]
pub struct ConflictException {
    /// First side (lower core ID).
    pub a: ConflictSide,
    /// Second side (higher core ID).
    pub b: ConflictSide,
    /// Word address of the overlap.
    pub word_addr: Addr,
    /// When the engine delivered the exception.
    pub detected_at: Cycles,
}

impl_json_struct!(to_json ConflictSide { core, region, kind });
impl_json_struct!(to_json ConflictException {
    a,
    b,
    word_addr,
    detected_at,
});

impl ConflictException {
    /// Build with canonical side ordering (lower core first). Panics
    /// if both sides are the same core (not a cross-thread conflict).
    pub(crate) fn new(
        x: ConflictSide,
        y: ConflictSide,
        word_addr: Addr,
        detected_at: Cycles,
    ) -> Self {
        assert_ne!(x.core, y.core, "conflict requires two distinct cores");
        let (a, b) = if x.core < y.core { (x, y) } else { (y, x) };
        ConflictException {
            a,
            b,
            word_addr,
            detected_at,
        }
    }

    /// The identity used for deduplication and differential
    /// comparison: everything except the detection time.
    pub fn key(&self) -> (ConflictSide, ConflictSide, Addr) {
        (self.a, self.b, self.word_addr)
    }

    /// True if at least one side wrote (always true for a real
    /// conflict; asserted in debug builds at construction sites).
    pub fn involves_write(&self) -> bool {
        self.a.kind == AccessType::Write || self.b.kind == AccessType::Write
    }
}

impl PartialEq for ConflictException {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for ConflictException {}

impl PartialOrd for ConflictException {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ConflictException {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl std::hash::Hash for ConflictException {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl std::fmt::Display for ConflictException {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conflict at {}: {}({}) {} vs {}({}) {} [cycle {}]",
            self.word_addr,
            self.a.core,
            self.a.region,
            self.a.kind.letter(),
            self.b.core,
            self.b.region,
            self.b.kind.letter(),
            self.detected_at.0
        )
    }
}

/// What the machine does when an engine raises an exception.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExceptionPolicy {
    /// Record the exception and keep executing (the evaluation mode:
    /// the paper measures full runs of racy programs).
    #[default]
    CountAndContinue,
    /// Stop the simulation at the first exception (the deployment
    /// semantics: fail-stop).
    AbortOnFirst,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(core: u16, region: u64, kind: AccessType) -> ConflictSide {
        ConflictSide {
            core: CoreId(core),
            region: RegionId(region),
            kind,
        }
    }

    #[test]
    fn sides_are_canonicalized() {
        let e1 = ConflictException::new(
            side(3, 1, AccessType::Write),
            side(1, 2, AccessType::Read),
            Addr(64),
            Cycles(10),
        );
        assert_eq!(e1.a.core, CoreId(1));
        assert_eq!(e1.b.core, CoreId(3));
        assert_eq!(e1.b.kind, AccessType::Write);
    }

    #[test]
    fn equality_ignores_time() {
        let x = side(0, 1, AccessType::Write);
        let y = side(1, 5, AccessType::Read);
        let e1 = ConflictException::new(x, y, Addr(8), Cycles(1));
        let e2 = ConflictException::new(y, x, Addr(8), Cycles(999));
        assert_eq!(e1, e2);
        let mut set = std::collections::HashSet::new();
        set.insert(e1);
        assert!(!set.insert(e2), "dedup by identity");
    }

    #[test]
    fn different_words_differ() {
        let x = side(0, 1, AccessType::Write);
        let y = side(1, 5, AccessType::Read);
        assert_ne!(
            ConflictException::new(x, y, Addr(8), Cycles(1)),
            ConflictException::new(x, y, Addr(16), Cycles(1))
        );
    }

    #[test]
    #[should_panic(expected = "distinct cores")]
    fn same_core_rejected() {
        let x = side(2, 1, AccessType::Write);
        let y = side(2, 2, AccessType::Read);
        ConflictException::new(x, y, Addr(0), Cycles(0));
    }

    #[test]
    fn display_is_informative() {
        let e = ConflictException::new(
            side(0, 7, AccessType::Write),
            side(1, 9, AccessType::Read),
            Addr(0x40),
            Cycles(123),
        );
        let s = e.to_string();
        assert!(s.contains("c0") && s.contains("c1"));
        assert!(s.contains('W') && s.contains('R'));
        assert!(s.contains("123"));
        assert!(e.involves_write());
    }
}
