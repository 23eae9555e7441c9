//! The detection layer: region-conflict checking over access bits.
//!
//! Both coherence families funnel their conflict checks through one
//! [`Detector`]: look up the opposing bits in a [`MetaMap`] (wherever
//! the metadata layer keeps it — an L1 line's riding bits, an AIM
//! entry, the DRAM table), materialize a per-word
//! [`ConflictException`] for every overlap with a *live* region, count
//! it, and record the new access so later accesses see it. The
//! coherence layer decides *when* a check happens (on every coherence
//! action for the MESI family, on first-touch registration for ARC)
//! and *which* map is consulted; the detector owns *what a conflict
//! is*.

use crate::access::MetaMap;
use crate::exception::{ConflictException, ConflictSide};
use rce_common::{CoreId, Counter, Cycles, LineAddr, RegionId, WordMask};

/// The conflict detector shared by every engine family.
///
/// Stateless apart from its exception counter: the access bits
/// themselves live in the metadata layer (or ride L1 lines), and the
/// liveness oracle is the substrate's region table.
#[derive(Debug, Default)]
pub(crate) struct Detector {
    conflicts: Counter,
}

impl Detector {
    /// Fresh detector.
    pub(crate) fn new() -> Self {
        Detector::default()
    }

    /// Check `me`'s access against the opposing bits in `entry`,
    /// append one exception per overlapping word to `out` (none when
    /// no live opposing bits overlap `dmask`), and record the access.
    /// `live` is the region liveness oracle — entries of ended regions
    /// are treated as absent, which is what makes lazy scrubbing
    /// harmless.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check_and_record(
        &mut self,
        entry: &mut MetaMap,
        me: ConflictSide,
        dmask: WordMask,
        line: LineAddr,
        at: Cycles,
        live: impl Fn(CoreId, RegionId) -> bool,
        out: &mut Vec<ConflictException>,
    ) {
        let before = out.len();
        entry.each_conflict(me.core, me.kind, dmask, live, |side, words| {
            for w in words.iter() {
                out.push(ConflictException::new(me, side, line.word_addr(w), at));
            }
        });
        self.conflicts.add((out.len() - before) as u64);
        entry.record(me.core, me.region, me.kind, dmask);
    }

    /// Exceptions raised so far (the `conflict_checks_hit` counter).
    pub(crate) fn conflicts(&self) -> u64 {
        self.conflicts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exception::AccessType;
    use rce_common::WordIdx;

    fn side(core: u16, region: u64, kind: AccessType) -> ConflictSide {
        ConflictSide {
            core: CoreId(core),
            region: RegionId(region),
            kind,
        }
    }

    #[test]
    fn detects_and_counts_live_overlaps() {
        let mut d = Detector::new();
        let mut m = MetaMap::new();
        let w = WordMask::single(WordIdx(3));
        let mut none = Vec::new();
        d.check_and_record(
            &mut m,
            side(0, 1, AccessType::Write),
            w,
            LineAddr(7),
            Cycles(5),
            |_, _| true,
            &mut none,
        );
        assert!(none.is_empty(), "first access conflicts with nothing");
        let mut ex = Vec::new();
        d.check_and_record(
            &mut m,
            side(1, 2, AccessType::Write),
            w,
            LineAddr(7),
            Cycles(9),
            |_, _| true,
            &mut ex,
        );
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].word_addr, LineAddr(7).word_addr(WordIdx(3)));
        assert_eq!(d.conflicts(), 1);
    }

    #[test]
    fn dead_regions_do_not_conflict() {
        let mut d = Detector::new();
        let mut m = MetaMap::new();
        let w = WordMask::single(WordIdx(0));
        let mut _ex = Vec::new();
        d.check_and_record(
            &mut m,
            side(0, 1, AccessType::Write),
            w,
            LineAddr(1),
            Cycles(0),
            |_, _| true,
            &mut _ex,
        );
        // Core 0's region 1 has ended by the time core 1 accesses.
        let mut ex = Vec::new();
        d.check_and_record(
            &mut m,
            side(1, 5, AccessType::Write),
            w,
            LineAddr(1),
            Cycles(1),
            |c, r| !(c == CoreId(0) && r == RegionId(1)),
            &mut ex,
        );
        assert!(ex.is_empty());
        assert_eq!(d.conflicts(), 0);
    }

    #[test]
    fn recording_happens_even_without_conflict() {
        let mut d = Detector::new();
        let mut m = MetaMap::new();
        let w = WordMask::single(WordIdx(2));
        let mut _ex = Vec::new();
        d.check_and_record(
            &mut m,
            side(0, 1, AccessType::Read),
            w,
            LineAddr(3),
            Cycles(0),
            |_, _| true,
            &mut _ex,
        );
        assert!(!m.is_empty(), "the access was recorded");
        // A second same-core access never self-conflicts.
        let mut ex = Vec::new();
        d.check_and_record(
            &mut m,
            side(0, 1, AccessType::Write),
            w,
            LineAddr(3),
            Cycles(1),
            |_, _| true,
            &mut ex,
        );
        assert!(ex.is_empty());
    }
}
