//! Access metadata: per-line, per-core, per-word read/write bits.
//!
//! A [`MetaMap`] is the unit of conflict-detection state attached to a
//! cache line wherever it lives (an L1 line, the in-memory metadata
//! table, an AIM entry). Every entry is tagged with the region that
//! created it; entries from regions that have since ended are treated
//! as cleared (region tags make stale metadata harmless while the
//! engines still pay the modeled cost of explicitly scrubbing it —
//! see DESIGN.md).

use crate::exception::{AccessType, ConflictSide};
use rce_common::{CoreId, RegionId, WordMask, MAX_CORES};

/// One core's access bits for one line within one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MetaEntry {
    /// Which core.
    pub core: CoreId,
    /// The region the bits belong to. Bits are live only while this
    /// is the core's current region.
    pub region: RegionId,
    /// Words read.
    pub read: WordMask,
    /// Words written.
    pub written: WordMask,
}

impl MetaEntry {
    /// True if no bits are set.
    pub(crate) fn is_empty(&self) -> bool {
        self.read.is_empty() && self.written.is_empty()
    }

    /// Fold `e`, an entry of the same core, into this one: a newer
    /// region replaces the bits, an equal one unions them, an older one
    /// is dropped. Branch-free, because on a shared line which case
    /// applies is close to random.
    fn absorb(&mut self, e: &MetaEntry) {
        let take = if e.region >= self.region { 0xff } else { 0 };
        let keep = if e.region <= self.region { 0xff } else { 0 };
        self.read = WordMask(self.read.0 & keep | e.read.0 & take);
        self.written = WordMask(self.written.0 & keep | e.written.0 & take);
        self.region = self.region.max(e.region);
    }
}

/// All cores' access bits for one line.
///
/// Stored as a vector with at most one entry per core, in insertion
/// order. Exceptions are discovered in entry order, so forensics
/// records and `AbortOnFirst` depend on it. Maps on a conflict-heavy
/// line are not small (canneal's checked maps hold about 24 entries at
/// 32 cores): single-core lookups scan, but `MetaMap::merge` indexes
/// by core so it stays linear.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetaMap {
    entries: Vec<MetaEntry>,
}

impl MetaMap {
    /// Empty map.
    pub fn new() -> Self {
        MetaMap::default()
    }

    /// True if there are no entries at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries (including possibly-stale ones).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entry for `core`, if present.
    pub(crate) fn get(&self, core: CoreId) -> Option<&MetaEntry> {
        self.entries.iter().find(|e| e.core == core)
    }

    /// Record an access by `core` in `region`: set `mask` bits of the
    /// given kind. If the core's existing entry is from an older
    /// region it is replaced (its bits are dead by definition).
    pub fn record(&mut self, core: CoreId, region: RegionId, kind: AccessType, mask: WordMask) {
        match self.entries.iter_mut().find(|e| e.core == core) {
            Some(e) => {
                if e.region != region {
                    e.region = region;
                    e.read = WordMask::EMPTY;
                    e.written = WordMask::EMPTY;
                }
                match kind {
                    AccessType::Read => e.read |= mask,
                    AccessType::Write => e.written |= mask,
                }
            }
            None => {
                let (read, written) = match kind {
                    AccessType::Read => (mask, WordMask::EMPTY),
                    AccessType::Write => (WordMask::EMPTY, mask),
                };
                self.entries.push(MetaEntry {
                    core,
                    region,
                    read,
                    written,
                });
            }
        }
    }

    /// Check an access (`core`, `kind`, `mask`) against every *live*
    /// opposing entry, calling `found(opposing side, overlapping words)`
    /// for each conflict in entry order. `live` decides whether an
    /// entry's region is still the owning core's current region.
    pub(crate) fn each_conflict(
        &self,
        core: CoreId,
        kind: AccessType,
        mask: WordMask,
        live: impl Fn(CoreId, RegionId) -> bool,
        mut found: impl FnMut(ConflictSide, WordMask),
    ) {
        for e in &self.entries {
            if e.core == core || !live(e.core, e.region) {
                continue;
            }
            // A write conflicts with remote reads and writes; a read
            // conflicts with remote writes only. When the remote
            // region both read and wrote a word, *both* identities are
            // reported: conflict identity follows set-intersection
            // semantics (each overlapping kind pair is one conflict),
            // which is what makes eager (CE) and lazy/self-invalidation
            // (ARC) detection agree — a stale re-read in ARC dedups
            // against the identity created when the remote write first
            // met the read bit.
            let (write_part, read_part) = match kind {
                AccessType::Write => (mask.intersect(e.written), mask.intersect(e.read)),
                AccessType::Read => (mask.intersect(e.written), WordMask::EMPTY),
            };
            for (kind, words) in [
                (AccessType::Write, write_part),
                (AccessType::Read, read_part),
            ] {
                if !words.is_empty() {
                    let side = ConflictSide {
                        core: e.core,
                        region: e.region,
                        kind,
                    };
                    found(side, words);
                }
            }
        }
    }

    /// Merge another map into this one (entry-wise union; newer region
    /// wins within a core). Cores new to this map are appended in
    /// `other`'s order. A per-call slot table indexed by core makes
    /// this O(n + m) rather than a scan per incoming entry.
    pub(crate) fn merge(&mut self, other: &MetaMap) {
        if other.entries.is_empty() {
            return;
        }
        // slot[core] = 1 + index of core's entry, or 0 if absent.
        let mut slot = [0u8; MAX_CORES];
        for (i, m) in self.entries.iter().enumerate() {
            slot[m.core.index()] = i as u8 + 1;
        }
        let fresh = other.entries.iter().filter(|e| slot[e.core.index()] == 0);
        self.reserve_pushes(fresh.count());
        // `other` holds at most one entry per core, so a core appended
        // here is never looked up again in this merge.
        for e in &other.entries {
            match slot[e.core.index()] {
                0 => self.entries.push(*e),
                s => self.entries[usize::from(s) - 1].absorb(e),
            }
        }
    }

    /// Make room for `extra` more entries in one step, at the capacity
    /// one-at-a-time pushes would reach (doubling from 4): a merge
    /// reallocates at most once, and the heap footprint is unchanged.
    fn reserve_pushes(&mut self, extra: usize) {
        let need = self.entries.len() + extra;
        let mut cap = self.entries.capacity();
        if need > cap {
            while cap < need {
                cap = (cap * 2).max(4);
            }
            self.entries.reserve_exact(cap - self.entries.len());
        }
    }

    /// Remove `core`'s entry (explicit scrub), returning whether one
    /// was present.
    pub(crate) fn clear_core(&mut self, core: CoreId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.core != core);
        self.entries.len() != before
    }

    /// Drop entries that are no longer live (housekeeping to bound
    /// growth in long simulations).
    pub(crate) fn prune(&mut self, live: impl Fn(CoreId, RegionId) -> bool) {
        self.entries.retain(|e| live(e.core, e.region));
    }

    /// True if any *live* bits exist for a core other than `except`.
    pub(crate) fn any_live_other(
        &self,
        except: CoreId,
        live: impl Fn(CoreId, RegionId) -> bool,
    ) -> bool {
        self.entries
            .iter()
            .any(|e| e.core != except && !e.is_empty() && live(e.core, e.region))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_common::WordIdx;

    const fn c(i: u16) -> CoreId {
        CoreId(i)
    }
    const fn r(i: u64) -> RegionId {
        RegionId(i)
    }
    fn w(i: u8) -> WordMask {
        WordMask::single(WordIdx(i))
    }
    fn live_all(_: CoreId, _: RegionId) -> bool {
        true
    }
    fn check(
        m: &MetaMap,
        core: CoreId,
        kind: AccessType,
        mask: WordMask,
        live: impl Fn(CoreId, RegionId) -> bool,
    ) -> Vec<(ConflictSide, WordMask)> {
        let mut found = Vec::new();
        m.each_conflict(core, kind, mask, live, |side, words| {
            found.push((side, words))
        });
        found
    }

    #[test]
    fn record_and_get() {
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Read, w(2));
        m.record(c(0), r(1), AccessType::Write, w(3));
        let e = m.get(c(0)).unwrap();
        assert_eq!(e.read, w(2));
        assert_eq!(e.written, w(3));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn newer_region_replaces_stale_bits() {
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Write, w(0));
        m.record(c(0), r(2), AccessType::Read, w(1));
        let e = m.get(c(0)).unwrap();
        assert_eq!(e.region, r(2));
        assert!(e.written.is_empty(), "old region's bits are dead");
        assert_eq!(e.read, w(1));
    }

    #[test]
    fn write_read_conflict_detected() {
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Read, w(4));
        let chk = check(&m, c(1), AccessType::Write, w(4), live_all);
        assert!(!chk.is_empty());
        assert_eq!(chk[0].0.core, c(0));
        assert_eq!(chk[0].0.kind, AccessType::Read);
    }

    #[test]
    fn read_read_is_not_a_conflict() {
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Read, w(4));
        let chk = check(&m, c(1), AccessType::Read, w(4), live_all);
        assert!(chk.is_empty());
    }

    #[test]
    fn write_write_conflict_detected() {
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Write, w(7));
        let chk = check(&m, c(1), AccessType::Write, w(7), live_all);
        assert!(!chk.is_empty());
        assert_eq!(chk[0].0.kind, AccessType::Write);
    }

    #[test]
    fn disjoint_words_do_not_conflict() {
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Write, w(0));
        let chk = check(&m, c(1), AccessType::Write, w(1), live_all);
        assert!(chk.is_empty());
    }

    #[test]
    fn own_bits_never_conflict() {
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Write, w(0));
        let chk = check(&m, c(0), AccessType::Write, w(0), live_all);
        assert!(chk.is_empty());
    }

    #[test]
    fn stale_entries_are_ignored_by_liveness() {
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Write, w(0));
        let live = |core: CoreId, region: RegionId| !(core == c(0) && region == r(1));
        let chk = check(&m, c(1), AccessType::Write, w(0), live);
        assert!(chk.is_empty());
    }

    #[test]
    fn both_kinds_reported_when_opponent_read_and_wrote() {
        // Word both read and written by the opponent: a write against
        // it is two conflict identities (W-W and W-R). See the check()
        // comment for why this matters for lazy detection.
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Read, w(5));
        m.record(c(0), r(1), AccessType::Write, w(5));
        let chk = check(&m, c(1), AccessType::Write, w(5), live_all);
        assert_eq!(chk.len(), 2);
        let kinds: Vec<_> = chk.iter().map(|(s, _)| s.kind).collect();
        assert!(kinds.contains(&AccessType::Write));
        assert!(kinds.contains(&AccessType::Read));
        // A read against the same map conflicts only with the write.
        let chk = check(&m, c(1), AccessType::Read, w(5), live_all);
        assert_eq!(chk.len(), 1);
        assert_eq!(chk[0].0.kind, AccessType::Write);
    }

    #[test]
    fn merge_unions_same_region() {
        let mut a = MetaMap::new();
        a.record(c(0), r(1), AccessType::Read, w(0));
        let mut b = MetaMap::new();
        b.record(c(0), r(1), AccessType::Write, w(1));
        b.record(c(1), r(3), AccessType::Read, w(2));
        a.merge(&b);
        let e = a.get(c(0)).unwrap();
        assert_eq!(e.read, w(0));
        assert_eq!(e.written, w(1));
        assert!(a.get(c(1)).is_some());
    }

    #[test]
    fn merge_newer_region_wins() {
        let mut a = MetaMap::new();
        a.record(c(0), r(1), AccessType::Read, w(0));
        let mut b = MetaMap::new();
        b.record(c(0), r(2), AccessType::Write, w(1));
        a.merge(&b);
        let e = a.get(c(0)).unwrap();
        assert_eq!(e.region, r(2));
        assert!(e.read.is_empty());
        // And merging the older one back changes nothing.
        let mut old = MetaMap::new();
        old.record(c(0), r(1), AccessType::Read, w(3));
        a.merge(&old);
        assert_eq!(a.get(c(0)).unwrap().region, r(2));
    }

    /// The find-per-entry merge `MetaMap::merge` replaced: the
    /// reference for its order and union semantics.
    fn merge_linear(into: &mut Vec<MetaEntry>, other: &[MetaEntry]) {
        for e in other {
            match into.iter_mut().find(|m| m.core == e.core) {
                Some(m) if m.region < e.region => *m = *e,
                Some(m) if m.region == e.region => {
                    m.read |= e.read;
                    m.written |= e.written;
                }
                Some(_) => {}
                None => into.push(*e),
            }
        }
    }

    /// A map over `cores` cores, at most one entry per core, in random
    /// core order. The top core is favoured, and regions span a narrow
    /// range so merges meet older, equal and newer tags alike.
    fn gen_entries(rng: &mut rce_common::SplitMix64, cores: usize) -> Vec<MetaEntry> {
        use rce_common::Rng;
        let mut used = 0u64;
        let mut entries = Vec::new();
        for _ in 0..rng.gen_range(cores as u64 + 1) {
            let core = if rng.gen_bool(0.2) {
                cores - 1
            } else {
                rng.gen_range(cores as u64) as usize
            };
            if used & (1 << core) != 0 {
                continue;
            }
            used |= 1 << core;
            entries.push(MetaEntry {
                core: c(core as u16),
                region: r(rng.gen_range(4)),
                read: WordMask(rng.gen_range(256) as u8),
                written: WordMask(rng.gen_range(256) as u8),
            });
        }
        entries
    }

    #[test]
    fn prop_merge_matches_linear_reference() {
        use rce_common::check::{check, Unshrunk};
        use rce_common::Rng;
        check(
            "meta merge matches the linear reference",
            |rng| {
                let cores = if rng.gen_bool(0.5) {
                    MAX_CORES
                } else {
                    1 + rng.gen_range(MAX_CORES as u64) as usize
                };
                let maps: Vec<_> = (0..1 + rng.gen_range(8))
                    .map(|_| gen_entries(rng, cores))
                    .collect();
                (Unshrunk(cores), maps)
            },
            |(_, maps)| {
                let mut fast = MetaMap::new();
                let mut reference = Vec::new();
                for (i, entries) in maps.iter().enumerate() {
                    fast.merge(&MetaMap {
                        entries: entries.clone(),
                    });
                    merge_linear(&mut reference, entries);
                    rce_common::prop_assert_eq!(fast.entries, reference, "after merge {i}");
                }
                Ok(())
            },
        );
    }

    #[test]
    fn clear_and_prune() {
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Read, w(0));
        m.record(c(1), r(2), AccessType::Write, w(1));
        assert!(m.clear_core(c(0)));
        assert!(!m.clear_core(c(0)));
        assert_eq!(m.len(), 1);
        m.prune(|_, _| false);
        assert!(m.is_empty());
    }

    #[test]
    fn any_live_other() {
        let mut m = MetaMap::new();
        m.record(c(0), r(1), AccessType::Read, w(0));
        assert!(m.any_live_other(c(1), live_all));
        assert!(!m.any_live_other(c(0), live_all));
        assert!(!m.any_live_other(c(1), |_, _| false));
    }
}
