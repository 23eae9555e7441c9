//! The golden region-conflict detector.
//!
//! The oracle observes the committed access stream in the exact order
//! the machine executes it and maintains, per core, the read/write
//! word sets of the core's *current* region. An access conflicts iff
//! it overlaps an opposing live set with at least one write — the
//! definitional semantics of region conflict exceptions. Every engine
//! must detect exactly the oracle's conflict set on the same schedule;
//! the differential tests enforce this.
//!
//! The oracle is infrastructure, not architecture: it charges no time.
//! Its storage, however, sits on the machine's hot loop (one observe
//! per committed word), so it is laid out **word-major**: one interned
//! [`LineMap`] holds, per word, a reader mask and a writer mask with
//! one bit per core that holds the word live in its current region.
//! An observe is one intern plus one load, and the opponent scan walks
//! only the set bits of the opposing masks, so its cost scales with
//! the conflicts present, not with the core count. Each core also
//! lists the words it set bits on this region; a region boundary
//! clears this core's bit in exactly those words — one clear per bit
//! the region set.
//!
//! If the observing core's own same-kind bit is already set, the
//! observe returns at once: every conflict identity the access could
//! discover pairs that bit with a live opponent bit, and was recorded
//! when the later of the two was first set. That early return is what
//! makes the machine's fast-path oracle skip exact, and it also means
//! the oracle discovers each identity exactly once, so it needs no
//! conflict set to deduplicate.
//!
//! Conflicts are kept region-scoped. Both sides of a new conflict are
//! live, so it joins the pending list of its lower core (`a.core`),
//! whose every entry names that core's current region. At the core's
//! boundary the list is sorted and appended to the core's done list.
//! A core's regions end in ID order, so the done lists concatenated
//! in core order are already in `Ord` order: no run-wide sort.

use crate::exception::{sort_region_scoped, AccessType, ConflictException, ConflictSide};
use rce_common::{Addr, CoreId, Cycles, LineAddr, LineId, LineMap, LineTable, RegionId, MAX_CORES};

// One bit per core in a `u64` mask: a larger machine would silently
// lose the cores above bit 63.
const _: () = assert!(MAX_CORES <= 64, "the oracle's word masks hold 64 cores");

/// The cores holding one word live in their current region.
#[derive(Debug, Clone, Copy, Default)]
struct WordBits {
    readers: u64,
    writers: u64,
}

/// One core's current region, the words it set bits on in it, and the
/// conflicts whose lower side is this core.
#[derive(Debug, Clone)]
struct CoreRegion {
    region: RegionId,
    read: Vec<LineId>,
    written: Vec<LineId>,
    /// Conflicts whose `a` side is the current region, unsorted.
    pending: Vec<ConflictException>,
    /// Conflicts whose `a` side is an ended region, sorted.
    done: Vec<ConflictException>,
}

/// The shadow detector.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Interner over word-aligned addresses (not lines — the oracle
    /// tracks words; the table is just a dense id allocator).
    words: LineTable,
    bits: LineMap<WordBits>,
    cores: Vec<CoreRegion>,
}

impl Oracle {
    /// Build for `n` cores with their initial region IDs.
    ///
    /// # Panics
    /// If `n` exceeds [`MAX_CORES`].
    pub fn new(initial_regions: &[RegionId]) -> Self {
        assert!(
            initial_regions.len() <= MAX_CORES,
            "the oracle tracks at most {MAX_CORES} cores"
        );
        Oracle {
            words: LineTable::new(),
            bits: LineMap::new(),
            cores: initial_regions
                .iter()
                .map(|&region| CoreRegion {
                    region,
                    read: Vec::new(),
                    written: Vec::new(),
                    pending: Vec::new(),
                    done: Vec::new(),
                })
                .collect(),
        }
    }

    /// Observe one committed word access. `word_addr` must be
    /// word-aligned. Returns the number of conflicts newly discovered
    /// by this access.
    pub fn observe(
        &mut self,
        core: CoreId,
        word_addr: Addr,
        kind: AccessType,
        now: Cycles,
    ) -> usize {
        debug_assert_eq!(word_addr.0 % 8, 0, "oracle expects word-aligned addresses");
        let id = self.words.intern(LineAddr(word_addr.0));
        let bits = self.bits.slot(id);
        let me_bit = 1u64 << core.index();
        let write = kind == AccessType::Write;

        // Early return: this core already holds the same-kind bit in
        // its current region (see the module docs).
        let own = if write { bits.writers } else { bits.readers };
        if own & me_bit != 0 {
            return 0;
        }

        // Set-intersection semantics: every overlapping kind pair with
        // at least one write is its own conflict identity (see
        // `MetaMap::check` for why both identities are emitted when
        // the opponent both read and wrote).
        let opp_writers = bits.writers & !me_bit;
        let opp_readers = if write { bits.readers & !me_bit } else { 0 };
        let me = ConflictSide {
            core,
            region: self.cores[core.index()].region,
            kind,
        };
        let mut found = 0;
        let mut opponents = opp_writers | opp_readers;
        while opponents != 0 {
            let i = opponents.trailing_zeros() as usize;
            let bit = opponents & opponents.wrapping_neg();
            opponents ^= bit;
            for (mask, ok) in [
                (opp_writers, AccessType::Write),
                (opp_readers, AccessType::Read),
            ] {
                if mask & bit == 0 {
                    continue;
                }
                let other = ConflictSide {
                    core: CoreId(i as u16),
                    region: self.cores[i].region,
                    kind: ok,
                };
                let ex = ConflictException::new(me, other, word_addr, now);
                self.cores[ex.a().core.index()].pending.push(ex);
                found += 1;
            }
        }

        let sets = &mut self.cores[core.index()];
        if write {
            bits.writers |= me_bit;
            sets.written.push(id);
        } else {
            bits.readers |= me_bit;
            sets.read.push(id);
        }
        found
    }

    /// The core's region ended: its bits clear from every word it set
    /// them on, and the new region begins.
    pub fn region_boundary(&mut self, core: CoreId, new_region: RegionId) {
        let keep = !(1u64 << core.index());
        let sets = &mut self.cores[core.index()];
        debug_assert!(new_region > sets.region, "regions end in ID order");
        sets.region = new_region;
        sort_region_scoped(&mut sets.pending);
        sets.done.append(&mut sets.pending);
        for id in sets.read.drain(..) {
            self.bits.slot(id).readers &= keep;
        }
        for id in sets.written.drain(..) {
            self.bits.slot(id).writers &= keep;
        }
    }

    /// Every conflict observed, sorted: each core's done list, then its
    /// pending list sorted, in core order.
    pub(crate) fn into_conflicts(self) -> Vec<ConflictException> {
        let mut all = Vec::with_capacity(self.count());
        for mut c in self.cores {
            sort_region_scoped(&mut c.pending);
            all.append(&mut c.done);
            all.append(&mut c.pending);
        }
        all
    }

    /// Number of distinct conflicts.
    pub fn count(&self) -> usize {
        self.cores
            .iter()
            .map(|c| c.pending.len() + c.done.len())
            .sum()
    }

    /// Live word-set sizes per core (diagnostics).
    #[cfg(test)]
    pub(crate) fn live_set_sizes(&self) -> std::collections::HashMap<CoreId, (usize, usize)> {
        self.cores
            .iter()
            .enumerate()
            .map(|(i, s)| (CoreId(i as u16), (s.read.len(), s.written.len())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn oracle(n: usize) -> Oracle {
        let regions: Vec<_> = (0..n as u64).map(RegionId).collect();
        Oracle::new(&regions)
    }

    const W: AccessType = AccessType::Write;
    const R: AccessType = AccessType::Read;

    /// Every conflict found so far, sorted, without ending the run.
    fn conflicts(o: &Oracle) -> Vec<ConflictException> {
        o.clone().into_conflicts()
    }

    #[test]
    fn write_write_conflict() {
        let mut o = oracle(2);
        assert_eq!(o.observe(CoreId(0), Addr(8), W, Cycles(0)), 0);
        assert_eq!(o.observe(CoreId(1), Addr(8), W, Cycles(1)), 1);
        let c = conflicts(&o);
        assert_eq!(c.len(), 1);
        assert!(c[0].involves_write());
        assert_eq!(o.count(), 1);
    }

    #[test]
    fn read_write_conflict_both_orders() {
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), R, Cycles(0));
        assert_eq!(o.observe(CoreId(1), Addr(8), W, Cycles(1)), 1);

        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        assert_eq!(o.observe(CoreId(1), Addr(8), R, Cycles(1)), 1);
    }

    #[test]
    fn read_read_no_conflict() {
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), R, Cycles(0));
        assert_eq!(o.observe(CoreId(1), Addr(8), R, Cycles(1)), 0);
        assert_eq!(o.count(), 0);
    }

    #[test]
    fn region_boundary_clears() {
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        o.region_boundary(CoreId(0), RegionId(100));
        assert_eq!(
            o.observe(CoreId(1), Addr(8), W, Cycles(1)),
            0,
            "regions no longer concurrent"
        );
    }

    #[test]
    fn duplicate_conflicts_dedup() {
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        assert_eq!(o.observe(CoreId(1), Addr(8), W, Cycles(1)), 1);
        // Repeat in the same regions: same identity.
        assert_eq!(o.observe(CoreId(1), Addr(8), W, Cycles(2)), 0);
        assert_eq!(o.count(), 1);
        // New region on core 1: new identity.
        o.region_boundary(CoreId(1), RegionId(50));
        assert_eq!(o.observe(CoreId(1), Addr(8), W, Cycles(3)), 1);
        assert_eq!(o.count(), 2);
    }

    #[test]
    fn three_core_conflicts() {
        let mut o = oracle(3);
        o.observe(CoreId(0), Addr(16), W, Cycles(0));
        o.observe(CoreId(1), Addr(16), R, Cycles(1)); // conflict 0-1
        let c = o.observe(CoreId(2), Addr(16), W, Cycles(2)); // conflicts 2-0, 2-1
        assert_eq!(c, 2);
        assert_eq!(o.count(), 3);
    }

    #[test]
    fn different_words_independent() {
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        assert_eq!(o.observe(CoreId(1), Addr(16), W, Cycles(1)), 0);
    }

    #[test]
    fn write_then_read_same_core_then_remote_read() {
        // Core 0 writes then reads a word; core 1's read conflicts
        // with the *write* (the read side alone would be fine).
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        o.observe(CoreId(0), Addr(8), R, Cycles(1));
        assert_eq!(o.observe(CoreId(1), Addr(8), R, Cycles(2)), 1);
        let c = conflicts(&o);
        assert_eq!(c.len(), 1);
        assert!(c[0].involves_write());
    }

    #[test]
    fn reuse_after_boundary_is_fresh() {
        // A word touched in an old region must read as dead after the
        // boundary, and re-touching it must make it live again (and
        // repopulate the live-set sizes).
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        o.observe(CoreId(0), Addr(16), R, Cycles(1));
        assert_eq!(o.live_set_sizes()[&CoreId(0)], (1, 1));
        o.region_boundary(CoreId(0), RegionId(100));
        assert_eq!(o.live_set_sizes()[&CoreId(0)], (0, 0));
        o.observe(CoreId(0), Addr(8), W, Cycles(2));
        assert_eq!(o.live_set_sizes()[&CoreId(0)], (0, 1));
        // The new-region write is live: a remote write now conflicts.
        assert_eq!(o.observe(CoreId(1), Addr(8), W, Cycles(3)), 1);
    }

    #[test]
    fn repeat_observe_is_a_fast_path_noop() {
        // The same core re-observing a live same-kind bit must change
        // nothing — not the conflict set, not the live sizes.
        let mut o = oracle(2);
        o.observe(CoreId(0), Addr(8), W, Cycles(0));
        for t in 1..5 {
            assert_eq!(o.observe(CoreId(0), Addr(8), W, Cycles(t)), 0);
        }
        assert_eq!(o.live_set_sizes()[&CoreId(0)], (0, 1));
        assert_eq!(o.count(), 0);
    }

    #[test]
    fn top_core_bit_is_tracked() {
        // Core 63 owns bit 63 of the word masks: it must conflict,
        // repeat as a no-op, and clear at its boundary like any other.
        let mut o = oracle(64);
        o.observe(CoreId(63), Addr(8), W, Cycles(0));
        assert_eq!(o.observe(CoreId(0), Addr(8), R, Cycles(1)), 1);
        let c = conflicts(&o);
        assert_eq!(c.len(), 1);
        assert_eq!((c[0].a().core, c[0].b().core), (CoreId(0), CoreId(63)));
        assert_eq!(c[0].b().kind, W);
        assert_eq!(o.observe(CoreId(63), Addr(8), W, Cycles(2)), 0);
        let c = o.observe(CoreId(63), Addr(8), R, Cycles(3));
        assert_eq!(c, 0, "read-read with core 0 is no conflict");
        assert_eq!(o.live_set_sizes()[&CoreId(63)], (1, 1));
        o.region_boundary(CoreId(63), RegionId(1000));
        assert_eq!(o.live_set_sizes()[&CoreId(63)], (0, 0));
        assert_eq!(o.observe(CoreId(0), Addr(8), W, Cycles(4)), 0);
        // Core 0's write is now the only live bit; core 63's new
        // region conflicts with it.
        assert_eq!(o.observe(CoreId(63), Addr(8), R, Cycles(5)), 1);
        let c = conflicts(&o);
        assert_eq!(c.len(), 2);
        assert!(c.contains(&ConflictException::new(
            ConflictSide {
                core: CoreId(63),
                region: RegionId(1000),
                kind: R,
            },
            ConflictSide {
                core: CoreId(0),
                region: RegionId(0),
                kind: W,
            },
            Addr(8),
            Cycles(5),
        )));
    }

    #[test]
    #[should_panic(expected = "at most 64 cores")]
    fn more_cores_than_mask_bits_is_rejected() {
        oracle(MAX_CORES + 1);
    }

    /// One step of a random oracle stream.
    #[derive(Debug, Clone)]
    enum Step {
        Observe { core: usize, word: u64, write: bool },
        Boundary { core: usize },
    }

    /// The definition, spelled out: per-core word sets in hash sets,
    /// every other core scanned on each observe, sets emptied at a
    /// boundary.
    struct Reference {
        regions: Vec<RegionId>,
        read: Vec<HashSet<u64>>,
        written: Vec<HashSet<u64>>,
        conflicts: HashSet<ConflictException>,
    }

    impl Reference {
        fn new(regions: &[RegionId]) -> Self {
            let n = regions.len();
            Reference {
                regions: regions.to_vec(),
                read: vec![HashSet::new(); n],
                written: vec![HashSet::new(); n],
                conflicts: HashSet::new(),
            }
        }

        /// The number of new conflicts.
        fn observe(&mut self, c: usize, word: u64, kind: AccessType) -> usize {
            let me = ConflictSide {
                core: CoreId(c as u16),
                region: self.regions[c],
                kind,
            };
            let mut found = 0;
            for o in (0..self.regions.len()).filter(|&o| o != c) {
                let mut kinds = Vec::new();
                if self.written[o].contains(&word) {
                    kinds.push(W);
                }
                if kind == W && self.read[o].contains(&word) {
                    kinds.push(R);
                }
                for ok in kinds {
                    let other = ConflictSide {
                        core: CoreId(o as u16),
                        region: self.regions[o],
                        kind: ok,
                    };
                    let ex = ConflictException::new(me, other, Addr(word), Cycles(0));
                    if self.conflicts.insert(ex) {
                        found += 1;
                    }
                }
            }
            match kind {
                R => self.read[c].insert(word),
                W => self.written[c].insert(word),
            };
            found
        }

        fn boundary(&mut self, c: usize, region: RegionId) {
            self.regions[c] = region;
            self.read[c].clear();
            self.written[c].clear();
        }

        fn live_set_sizes(&self) -> HashMap<CoreId, (usize, usize)> {
            (0..self.regions.len())
                .map(|c| {
                    (
                        CoreId(c as u16),
                        (self.read[c].len(), self.written[c].len()),
                    )
                })
                .collect()
        }
    }

    #[test]
    fn prop_matches_reference_sets() {
        use rce_common::check::{check, Unshrunk};
        use rce_common::{prop_assert_eq, Rng};

        check(
            "oracle matches per-core reference sets",
            |rng| {
                // A quarter of the cases use the full 64-bit mask.
                let cores = match rng.gen_range(4) {
                    0 => MAX_CORES,
                    _ => 1 + rng.gen_range(MAX_CORES as u64) as usize,
                };
                // Favor the two lowest and two highest cores, so the
                // edge bits of the masks meet each other and a
                // neighbour.
                let pick = |rng: &mut rce_common::SplitMix64| match rng.gen_range(3) {
                    0 => (rng.gen_range(2) as usize).min(cores - 1),
                    1 => cores.saturating_sub(1 + rng.gen_range(2) as usize),
                    _ => rng.gen_range(cores as u64) as usize,
                };
                let steps = (0..rng.gen_range(300))
                    .map(|_| {
                        let core = pick(rng);
                        if rng.gen_range(8) == 0 {
                            Step::Boundary { core }
                        } else {
                            Step::Observe {
                                core,
                                word: 8 * rng.gen_range(12),
                                write: rng.gen_bool(0.4),
                            }
                        }
                    })
                    .collect::<Vec<_>>();
                (Unshrunk(cores), steps)
            },
            |(Unshrunk(cores), steps)| {
                let regions: Vec<_> = (0..*cores as u64).map(RegionId).collect();
                let mut o = Oracle::new(&regions);
                let mut r = Reference::new(&regions);
                let mut next_region = *cores as u64;
                for (t, step) in steps.iter().enumerate() {
                    match *step {
                        Step::Observe { core, word, write } => {
                            let kind = if write { W } else { R };
                            let got = o.observe(CoreId(core as u16), Addr(word), kind, Cycles(0));
                            let want = r.observe(core, word, kind);
                            prop_assert_eq!(got, want, "step {t}: new conflicts");
                        }
                        Step::Boundary { core } => {
                            o.region_boundary(CoreId(core as u16), RegionId(next_region));
                            r.boundary(core, RegionId(next_region));
                            next_region += 1;
                        }
                    }
                    prop_assert_eq!(o.count(), r.conflicts.len(), "step {t}: count");
                    let mut want: Vec<_> = r.conflicts.iter().copied().collect();
                    want.sort();
                    prop_assert_eq!(conflicts(&o), want, "step {t}: conflicts");
                    prop_assert_eq!(o.live_set_sizes(), r.live_set_sizes(), "step {t}: sizes");
                }
                Ok(())
            },
        );
    }
}
