//! Conflict exceptions: the mechanism's deliverable.
//!
//! A region conflict exception reports that two *concurrent*
//! synchronization-free regions performed overlapping accesses to the
//! same word, at least one a write. The exception is precise: it
//! carries both cores, both region IDs, the word, and the access
//! kinds, which is what lets a language runtime deliver fail-stop
//! semantics for data races.

use rce_common::json::{JsonValue, ToJson};
use rce_common::{
    impl_json_struct, impl_json_unit_enum, Addr, CoreId, Cycles, RegionId, MAX_CORES,
};

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

// A conflict side packs into one `u64`: `core << 58 | region << 1 |
// kind`. The widths are bounds the machine already keeps, not guesses:
// - core: 6 bits. Machines have at most `MAX_CORES` cores (checked
//   here and by `MachineConfig::validate`), so a core ID is below 64.
// - region: 57 bits. Region IDs come from the substrate's one counter,
//   which starts at 0 and advances once per region boundary, and every
//   boundary costs `Machine::run` a scheduler step. So every region ID is
//   below `cores + step limit`, and the step limit (`default_step_limit`)
//   is `8 * (ops + 1) + 100_000`: 2^57 would take a program of 2^54
//   operations. `ConflictException::new` asserts it anyway.
// - kind: 1 bit, `Read` = 0 and `Write` = 1, the enum's own order.
// With each field at or below its width, the integer order of a packed
// side is the derived order of `ConflictSide` (core, then region, then
// kind), and the order of `(a, b, word_addr)` is the order of
// `(a.core, a.region, a.kind, b.core, b.region, b.kind, word_addr)`.
const CORE_SHIFT: u32 = 58;
const REGION_MASK: u64 = (1 << (CORE_SHIFT - 1)) - 1;
const _: () = assert!(
    MAX_CORES <= 1 << (64 - CORE_SHIFT),
    "a core ID must fit its 6 bits"
);

/// The largest region ID a conflict side can carry: 2^57 - 1.
pub(crate) const MAX_REGION: RegionId = RegionId(REGION_MASK);

impl ConflictSide {
    fn pack(self) -> u64 {
        u64::from(self.core.0) << CORE_SHIFT | self.region.0 << 1 | self.kind as u64
    }

    fn unpack(p: u64) -> Self {
        ConflictSide {
            core: CoreId((p >> CORE_SHIFT) as u16),
            region: RegionId(p >> 1 & REGION_MASK),
            kind: if p & 1 == 0 {
                AccessType::Read
            } else {
                AccessType::Write
            },
        }
    }
}

/// A precise region conflict exception, 32 bytes: both sides packed
/// into one `u64` each (see `ConflictSide`'s packing above), the word
/// and the delivery time. Read the sides with [`a`](Self::a) and
/// [`b`](Self::b).
///
/// Equality, ordering and hashing work on the three integers of
/// [`key`](Self::key) and deliberately ignore `detected_at`: the same
/// logical conflict may be detected at different times by different
/// designs (CE eagerly at the coherence action, ARC at a registration
/// or region end), and the differential tests compare conflict
/// *identities* across engines.
#[derive(Debug, Clone, Copy)]
pub struct ConflictException {
    /// First side (lower core ID), packed.
    a: u64,
    /// Second side (higher core ID), packed.
    b: u64,
    /// Word address of the overlap.
    pub word_addr: Addr,
    /// When the engine delivered the exception.
    pub detected_at: Cycles,
}

const _: () = assert!(std::mem::size_of::<ConflictException>() == 32);

impl_json_struct!(to_json ConflictSide { core, region, kind });

impl ToJson for ConflictException {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("a".to_string(), self.a().to_json()),
            ("b".to_string(), self.b().to_json()),
            ("word_addr".to_string(), self.word_addr.to_json()),
            ("detected_at".to_string(), self.detected_at.to_json()),
        ])
    }
}

impl ConflictException {
    /// Build with canonical side ordering (lower core first).
    ///
    /// # Panics
    /// If both sides are the same core (not a cross-thread conflict),
    /// or a region ID exceeds [`MAX_REGION`].
    pub(crate) fn new(
        x: ConflictSide,
        y: ConflictSide,
        word_addr: Addr,
        detected_at: Cycles,
    ) -> Self {
        assert_ne!(x.core, y.core, "conflict requires two distinct cores");
        assert!(
            x.region <= MAX_REGION && y.region <= MAX_REGION,
            "region ID past the packed width: {} / {}",
            x.region,
            y.region
        );
        let (a, b) = if x.core < y.core { (x, y) } else { (y, x) };
        ConflictException {
            a: a.pack(),
            b: b.pack(),
            word_addr,
            detected_at,
        }
    }

    /// First side (lower core ID).
    pub fn a(&self) -> ConflictSide {
        ConflictSide::unpack(self.a)
    }

    /// Second side (higher core ID).
    pub fn b(&self) -> ConflictSide {
        ConflictSide::unpack(self.b)
    }

    /// The identity used for deduplication and differential
    /// comparison: everything except the detection time, as the packed
    /// sides and the word.
    pub fn key(&self) -> (u64, u64, Addr) {
        (self.a, self.b, self.word_addr)
    }

    /// True if at least one side wrote (always true for a real
    /// conflict).
    pub fn involves_write(&self) -> bool {
        (self.a | self.b) & 1 == 1
    }
}

/// Sort one core's region-scoped list into `Ord` order. Every entry
/// shares `a`'s core and region, so the order is that of `(a.kind, b,
/// word_addr)`, which fits one `u128`: `a.kind` in the top bit, `b` in
/// the next 64, and the word index (the address over 8; word addresses
/// are aligned) in the low 61.
pub(crate) fn sort_region_scoped(list: &mut [ConflictException]) {
    debug_assert!(list.windows(2).all(|w| w[0].a >> 1 == w[1].a >> 1));
    list.sort_unstable_by_key(|e| {
        debug_assert_eq!(e.word_addr.0 % 8, 0, "word addresses are aligned");
        u128::from(e.a & 1) << 127 | u128::from(e.b) << 63 | u128::from(e.word_addr.0 >> 3)
    });
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
        let (a, b) = (self.a(), self.b());
        write!(
            f,
            "conflict at {}: {}({}) {} vs {}({}) {} [cycle {}]",
            self.word_addr,
            a.core,
            a.region,
            a.kind.letter(),
            b.core,
            b.region,
            b.kind.letter(),
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
    use rce_common::check::{check, Unshrunk};
    use rce_common::{prop_assert_eq, Rng, SplitMix64};

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
        assert_eq!(e1.a().core, CoreId(1));
        assert_eq!(e1.b().core, CoreId(3));
        assert_eq!(e1.b().kind, AccessType::Write);
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
    #[should_panic(expected = "packed width")]
    fn region_past_packed_width_rejected() {
        let x = side(0, MAX_REGION.0 + 1, AccessType::Write);
        let y = side(1, 2, AccessType::Read);
        ConflictException::new(x, y, Addr(0), Cycles(0));
    }

    #[test]
    fn json_is_field_for_field() {
        let e = ConflictException::new(
            side(5, 12, AccessType::Read),
            side(2, 7, AccessType::Write),
            Addr(0x1238),
            Cycles(99),
        );
        assert_eq!(
            rce_common::json::to_string(&e),
            r#"{"a":{"core":2,"region":7,"kind":"Write"},"b":{"core":5,"region":12,"kind":"Read"},"word_addr":4664,"detected_at":99}"#
        );
    }

    /// A side drawn with its extremes overweighted: core 0 and 63,
    /// region 0 and `MAX_REGION`.
    fn gen_side(rng: &mut SplitMix64) -> ConflictSide {
        let core = match rng.gen_range(4) {
            0 => 0,
            1 => MAX_CORES as u16 - 1,
            _ => rng.gen_range(MAX_CORES as u64) as u16,
        };
        let region = match rng.gen_range(5) {
            0 => 0,
            1 => MAX_REGION.0,
            2 => MAX_REGION.0 - rng.gen_range(4),
            3 => rng.gen_range(8),
            _ => rng.gen_range(MAX_REGION.0 + 1),
        };
        let kind = if rng.gen_bool(0.5) {
            AccessType::Write
        } else {
            AccessType::Read
        };
        side(core, region, kind)
    }

    /// Two distinct-core sides and a word address near either end of
    /// the address space or anywhere in it.
    fn gen_identity(rng: &mut SplitMix64) -> (ConflictSide, ConflictSide, Addr) {
        let x = gen_side(rng);
        let mut y = gen_side(rng);
        while y.core == x.core {
            y = gen_side(rng);
        }
        let word = match rng.gen_range(3) {
            0 => !7 - 8 * rng.gen_range(4),
            1 => 8 * rng.gen_range(4),
            _ => rng.next_u64() & !7,
        };
        (x, y, Addr(word))
    }

    /// The order every identity had before packing: the derived order
    /// of the seven fields, lower core's side first.
    type Reference = (
        CoreId,
        RegionId,
        AccessType,
        CoreId,
        RegionId,
        AccessType,
        Addr,
    );

    fn reference((x, y, w): (ConflictSide, ConflictSide, Addr)) -> Reference {
        let (a, b) = if x.core < y.core { (x, y) } else { (y, x) };
        (a.core, a.region, a.kind, b.core, b.region, b.kind, w)
    }

    #[test]
    fn prop_packed_identity_orders_like_the_seven_tuple() {
        fn hash(e: &ConflictException) -> u64 {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        }
        check(
            "packed identity orders like the seven-tuple",
            |rng| {
                let i1 = gen_identity(rng);
                let (x, y, w) = gen_identity(rng);
                // Most second identities share a prefix of the first,
                // so ties reach every field and equality is exercised.
                let i2 = match rng.gen_range(8) {
                    0 => (i1.1, i1.0, i1.2),
                    1 if x.core != i1.1.core => (i1.1, x, i1.2),
                    2 if y.core != i1.0.core => (i1.0, y, i1.2),
                    3 => (i1.0, i1.1, w),
                    4 if x.core != i1.0.core => (i1.0, ConflictSide { kind: y.kind, ..x }, w),
                    _ => (x, y, w),
                };
                Unshrunk((i1, i2))
            },
            |Unshrunk((i1, i2))| {
                let build = |(x, y, w): (ConflictSide, ConflictSide, Addr), at| {
                    ConflictException::new(x, y, w, Cycles(at))
                };
                let (e1, e2) = (build(*i1, 1), build(*i2, 2));
                let (r1, r2) = (reference(*i1), reference(*i2));
                // The sides decode to what was packed, lower core first.
                prop_assert_eq!(reference((e1.a(), e1.b(), e1.word_addr)), r1);
                prop_assert_eq!(e1.cmp(&e2), r1.cmp(&r2));
                prop_assert_eq!(e1 == e2, r1 == r2);
                if e1 == e2 {
                    prop_assert_eq!(hash(&e1), hash(&e2));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn prop_region_scoped_sort_is_the_ord_sort() {
        check(
            "region-scoped sort is the Ord sort",
            |rng| {
                let me = gen_side(rng);
                let n = rng.gen_range(40) as usize;
                let list: Vec<ConflictException> = (0..n)
                    .map(|_| {
                        let (x, y, w) = gen_identity(rng);
                        let other = if x.core != me.core { x } else { y };
                        let kind = if rng.gen_bool(0.5) {
                            AccessType::Write
                        } else {
                            AccessType::Read
                        };
                        ConflictException::new(ConflictSide { kind, ..me }, other, w, Cycles(0))
                    })
                    // One core's list holds the entries whose `a` is
                    // that core: keep the ones where `me` is lower.
                    .filter(|e| e.a().core == me.core)
                    .collect();
                Unshrunk(list)
            },
            |Unshrunk(list)| {
                let mut fast = list.clone();
                sort_region_scoped(&mut fast);
                let mut reference = list.clone();
                reference.sort();
                prop_assert_eq!(fast, reference);
                Ok(())
            },
        );
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
