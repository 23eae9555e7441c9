//! ARC: conflict detection on release-consistency +
//! self-invalidation coherence.
//!
//! The design (reconstructed from the abstract; see DESIGN.md):
//!
//! - **No eager invalidations.** Private caches hold lines as
//!   valid/invalid with per-word dirty bits; nobody is ever forced to
//!   give up a copy.
//! - **Private/shared classification at the LLC.** A line first
//!   touched by one core is *private* to it; when a second core
//!   requests it, the LLC *recalls* the owner's dirty words and
//!   current-region access bits and reclassifies the line *shared*.
//! - **Word registration.** The first access per word/kind/region to
//!   a shared line sends a small registration message to the line's
//!   home LLC bank, where the metadata layer ([`crate::meta`] —
//!   normally the **AIM**) holds every core's current-region access
//!   bits and the conflict check both families share
//!   (`MetaMap::check_and_record`) runs on the spot.
//!   Registration rides the miss request when the access misses (the
//!   common case, thanks to self-invalidation).
//! - **Region boundaries** (every synchronization operation): the core
//!   flushes dirty words of shared lines to the LLC (release
//!   semantics), clears its registrations (one small message per
//!   touched line), and *self-invalidates* its shared lines so the
//!   next region re-fetches fresh data (acquire semantics). Private
//!   lines — clean or dirty — stay put, and their region masks need no
//!   reset: each [`ArcLine`]'s masks are tagged with their region, so
//!   a new region reads them as empty. The simulator walks the L1 only
//!   when the core holds a shared line (`shared_lines`), so a boundary
//!   costs O(shared lines), as the 10-cycle flash operation it models.
//!
//! Compared with CE+: no invalidation/ack storms, no per-message
//! metadata piggybacks, dirty-word (not whole-line) writebacks — at
//! the cost of re-fetching shared data each region and paying
//! registration messages. Because the metadata placement is a
//! configuration knob, ARC can also register against CE's off-chip
//! DRAM table (the `Dram` placement of [`crate::meta::MetaStore`]) —
//! measuring exactly what the AIM buys this family.

use crate::exception::{AccessType, ConflictException, ConflictSide};
use crate::forensics::{DetectPath, DetectSite};
use crate::meta::MetaStore;
use crate::protocol::{AccessResult, Substrate};
use crate::report::AimSummary;
use rce_cache::L1Cache;
use rce_common::obs::{EventKind, SimEvent};
use rce_common::{
    Addr, CoreId, Counter, Cycles, LineAddr, LineFlags, LineId, LineMap, LineSet, MachineConfig,
    RceError, RceResult, RegionId, WordMask,
};
use rce_noc::MsgClass;

/// Per-line L1 state for ARC.
///
/// The region masks are tagged with the region that wrote them: read
/// through [`ArcLine::masks`], a tag older than the holder's current
/// region reads as empty, and [`ArcLine::retag`] resets them before a
/// write. A region boundary therefore leaves surviving lines alone.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArcLine {
    /// Classification hint delivered with the fill (or flipped by a
    /// recall): shared lines self-invalidate at region boundaries.
    pub shared: bool,
    /// Read-only hint (only with `arc_readonly_sharing`): the line had
    /// never been written when filled, so it survives region
    /// boundaries. Cleared if this core writes it. The hint may go
    /// stale when *another* core writes the line; detection stays
    /// exact regardless, because first-touch registrations are driven
    /// by the per-region masks, not by misses (see the module tests).
    pub ro: bool,
    /// Dirty words not yet written through to the LLC.
    pub dirty: WordMask,
    /// The holder's region that `read_words` and `written_words`
    /// describe.
    region: RegionId,
    /// Words this core read in `region` (registration filter).
    read_words: WordMask,
    /// Words this core wrote in `region` (registration filter).
    written_words: WordMask,
}

impl ArcLine {
    /// The words read and written in `region`: empty if the masks were
    /// last written in another (ended) region.
    fn masks(&self, region: RegionId) -> (WordMask, WordMask) {
        if self.region == region {
            (self.read_words, self.written_words)
        } else {
            (WordMask::EMPTY, WordMask::EMPTY)
        }
    }

    /// Make the masks describe `region`, dropping an ended region's.
    fn retag(&mut self, region: RegionId) {
        if self.region != region {
            self.region = region;
            self.read_words = WordMask::EMPTY;
            self.written_words = WordMask::EMPTY;
        }
    }

    /// True if an access in `region` would change nothing on this
    /// resident copy: the region masks already cover `dmask` for the
    /// access kind (so no registration is due), and a write finds its
    /// words already dirty. The slow hit path would then only charge
    /// the L1-hit latency. A recall clears `dirty` and a new region
    /// empties the masks, so neither needs a hook to switch this off.
    fn repeats(&self, region: RegionId, kind: AccessType, dmask: WordMask, mask: WordMask) -> bool {
        let (read, written) = self.masks(region);
        match kind {
            AccessType::Read => dmask.minus(read).is_empty(),
            AccessType::Write => {
                dmask.minus(written).is_empty() && mask.minus(self.dirty).is_empty()
            }
        }
    }
}

/// LLC-side classification of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Private(CoreId),
    Shared,
}

/// The ARC engine.
pub struct ArcEngine {
    pub(crate) l1: Vec<L1Cache<ArcLine>>,
    /// Where registration metadata lives (normally the AIM).
    meta: MetaStore,
    // Per-line state below is indexed by the run's `Substrate::lines`
    // ids: `access` interns its line once and passes the id down.
    /// LLC-side classification (`None` = never touched).
    class: LineMap<Option<Class>>,
    /// Lines that have ever been written (drives the read-only
    /// classification when `arc_readonly_sharing` is on).
    written_ever: LineFlags,
    /// Per core: lines with registrations this region (cleared at the
    /// boundary).
    touched: Vec<LineSet>,
    /// Per core: resident L1 lines marked shared. A boundary walks the
    /// L1 only when this is nonzero.
    shared_lines: Vec<usize>,
    /// A region boundary's registration-clear list, sorted by address;
    /// empty between boundaries, kept only for its capacity.
    clear_order: Vec<(LineAddr, LineId)>,
    registrations: Counter,
    recalls: Counter,
    self_invalidated: Counter,
    /// Shared lines retained across boundaries by the read-only
    /// optimization.
    ro_retained: Counter,
    flushed_words: Counter,
    private_spills: Counter,
    /// Exceptions raised by the conflict checks.
    conflict_checks_hit: Counter,
}

impl ArcEngine {
    /// Build from configuration; the metadata placement comes from
    /// `cfg.meta_placement`.
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        ArcEngine {
            l1: (0..cfg.cores).map(|_| L1Cache::new(&cfg.l1)).collect(),
            meta: MetaStore::new(cfg).expect("ARC has a metadata placement"),
            class: LineMap::new(),
            written_ever: LineFlags::new(),
            touched: vec![LineSet::new(); cfg.cores],
            shared_lines: vec![0; cfg.cores],
            clear_order: Vec::new(),
            registrations: Counter::default(),
            recalls: Counter::default(),
            self_invalidated: Counter::default(),
            ro_retained: Counter::default(),
            flushed_words: Counter::default(),
            private_spills: Counter::default(),
            conflict_checks_hit: Counter::default(),
        }
    }

    /// Register `mask` bits for `side` at the line's metadata entry
    /// (already ensured), checking for conflicts first. Appends the
    /// exceptions to `out` and, if there were any, returns how they
    /// were found: a registration, with the store's AIM state from
    /// the `ensure` that preceded this call.
    fn aim_check_record(
        &mut self,
        sub: &Substrate,
        side: ConflictSide,
        lid: LineId,
        mask: WordMask,
        at: Cycles,
        out: &mut Vec<ConflictException>,
    ) -> Option<DetectPath> {
        let raised = self.meta.entry_mut(sub, lid).check_and_record(
            side,
            mask,
            sub.lines.addr(lid),
            at,
            |c, r| sub.is_live(c, r),
            out,
        );
        self.conflict_checks_hit.add(raised as u64);
        self.touched[side.core.index()].insert(lid);
        (raised > 0).then(|| self.meta.path(DetectSite::Registration))
    }

    /// Recall a private owner's in-flight state when a second core
    /// requests the line: dirty words flush to the LLC, current-region
    /// access bits merge into the metadata entry, and the owner's copy
    /// is reclassified shared. Returns when the recall completes.
    fn recall(
        &mut self,
        sub: &mut Substrate,
        owner: CoreId,
        lid: LineId,
        t_at_bank: Cycles,
    ) -> Cycles {
        self.recalls.inc();
        let line = sub.lines.addr(lid);
        let bank = sub.bank_node(line);
        let owner_node = sub.core_node(owner);
        let probe = sub.send(
            bank,
            owner_node,
            sub.cfg.noc.ctrl_bytes,
            MsgClass::Request,
            t_at_bank,
        );
        let mut reply = probe;
        if let Some(st) = self.l1[owner.index()].probe_mut(line) {
            let (read_words, written_words) = st.masks(sub.region_of(owner));
            // The copy was private (`check_core` holds it to that).
            self.shared_lines[owner.index()] += 1;
            st.shared = true;
            // The same classification a fresh fill would get: read-only
            // if the line was never written. Every write marks
            // `written_ever`, so a copy with written or dirty words is
            // never read-only.
            st.ro = sub.cfg.arc_readonly_sharing && !self.written_ever.contains(lid);
            let dirty = st.dirty;
            st.dirty = WordMask::EMPTY;
            // Flush dirty words.
            if !dirty.is_empty() {
                self.flushed_words.add(dirty.count() as u64);
                let bytes = sub.cfg.noc.data_header_bytes + 8 * dirty.count() as u64;
                let wb = sub.send(owner_node, bank, bytes, MsgClass::Writeback, probe);
                sub.llc_put(line, wb);
                reply = reply.max(wb);
            }
            // Merge the owner's current-region bits into the entry.
            if !read_words.is_empty() || !written_words.is_empty() {
                let meta_at = sub.send(
                    owner_node,
                    bank,
                    sub.cfg.aim.entry_bytes,
                    MsgClass::Metadata,
                    probe,
                );
                reply = reply.max(meta_at);
                self.record_masks(sub, owner, lid, read_words, written_words);
            }
        } else {
            // Owner no longer caches it; its state already reached the
            // LLC/AIM on eviction. Just the probe/ack round trip.
            reply = sub.send(
                owner_node,
                bank,
                sub.cfg.noc.ctrl_bytes,
                MsgClass::Response,
                probe,
            );
        }
        reply
    }

    /// Record a copy's region masks for `core`'s current region at line
    /// `lid`'s metadata entry, and note that `core` touched the line
    /// this region.
    fn record_masks(
        &mut self,
        sub: &Substrate,
        core: CoreId,
        lid: LineId,
        read: WordMask,
        written: WordMask,
    ) {
        let region = sub.region_of(core);
        let entry = self.meta.entry_mut(sub, lid);
        if !read.is_empty() {
            entry.record(core, region, AccessType::Read, read);
        }
        if !written.is_empty() {
            entry.record(core, region, AccessType::Write, written);
        }
        self.touched[core.index()].insert(lid);
    }

    /// Fill `line` into `core`'s L1, handling the victim: dirty-word
    /// writeback, private-line metadata spill to the metadata layer.
    fn fill_line(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        line: LineAddr,
        state: ArcLine,
        at: Cycles,
    ) -> RceResult<()> {
        let me = sub.core_node(core);
        self.shared_lines[core.index()] += state.shared as usize;
        if let Some((victim, vstate)) = self.l1[core.index()].fill(line, state) {
            self.shared_lines[core.index()] -= vstate.shared as usize;
            // The victim was interned when it was filled.
            let vid = sub.lines.lookup(victim).ok_or_else(|| {
                RceError::InvariantViolated(format!("{core} evicted never-filled {victim}"))
            })?;
            sub.trace(|s| SimEvent {
                cycle: at.0,
                core: Some(core.0),
                region: Some(s.region_of(core).0),
                kind: EventKind::L1Evict {
                    line: victim.0,
                    dirty: !vstate.dirty.is_empty(),
                },
            });
            let vbank = sub.bank_node(victim);
            if !vstate.dirty.is_empty() {
                let bytes = sub.cfg.noc.data_header_bytes + 8 * vstate.dirty.count() as u64;
                let wb = sub.send(me, vbank, bytes, MsgClass::Writeback, at);
                sub.llc_put(victim, wb);
            }
            // A private victim's current-region bits must stay visible
            // for conflict checks: spill them to the metadata layer.
            // (Shared victims registered eagerly; nothing to do.)
            let (read, written) = vstate.masks(sub.region_of(core));
            if !vstate.shared && (!read.is_empty() || !written.is_empty()) {
                self.private_spills.inc();
                let t1 = sub.send(me, vbank, sub.cfg.aim.entry_bytes, MsgClass::Metadata, at);
                let _ready = self.meta.ensure_at(sub, vid, t1);
                self.record_masks(sub, core, vid, read, written);
            }
        }
        Ok(())
    }

    /// `core`'s L1 agrees with the LLC-side classification: every
    /// resident line is classified, a private line is private to this
    /// core and marked neither shared nor read-only, and a shared line
    /// is marked shared. No line's masks are tagged with a region newer
    /// than the core's, and `shared_lines` counts the shared lines.
    pub(crate) fn check_core(&self, sub: &Substrate, core: CoreId) -> Result<(), String> {
        let region = sub.region_of(core);
        let mut shared = 0;
        for (line, st) in self.l1[core.index()].iter() {
            if st.region > region {
                return Err(format!(
                    "{core}'s copy of {line} has masks of region {}, after its region {region}",
                    st.region
                ));
            }
            shared += st.shared as usize;
            let cls = sub.lines.lookup(line).and_then(|id| *self.class.get(id)?);
            let wrong = match cls {
                None => "is unclassified".to_string(),
                Some(Class::Private(owner)) if owner != core => format!("is private to {owner}"),
                Some(Class::Private(_)) if st.shared || st.ro => {
                    "is marked shared or ro but LLC says private".to_string()
                }
                Some(Class::Shared) if !st.shared => {
                    "is marked private but LLC says shared".to_string()
                }
                Some(_) => continue,
            };
            return Err(format!("{core}'s copy of {line} {wrong}"));
        }
        let counted = self.shared_lines[core.index()];
        if counted != shared {
            return Err(format!(
                "{core} counts {counted} shared lines but holds {shared}"
            ));
        }
        Ok(())
    }

    /// Every core's L1 agrees with the classification.
    pub(crate) fn check_invariants(&self, sub: &Substrate) -> Result<(), String> {
        (0..self.l1.len()).try_for_each(|c| self.check_core(sub, CoreId(c as u16)))
    }

    pub(crate) fn access(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        addr: Addr,
        mask: WordMask,
        kind: AccessType,
        now: Cycles,
    ) -> RceResult<AccessResult> {
        let line = addr.line();
        let l1_lat = sub.cfg.l1.latency;
        let me = sub.core_node(core);
        let bank = sub.bank_node(line);
        let side = ConflictSide {
            core,
            region: sub.region_of(core),
            kind,
        };

        // Metadata mask (may be widened to the whole line by the
        // granularity ablation); dirty tracking always uses the real
        // access words.
        let dmask = sub.cfg.detect_mask(mask);

        // L1 lookup.
        let cached = self.l1[core.index()].access(line);
        if sub.fastpath
            && cached
                .as_deref()
                .is_some_and(|st| st.repeats(side.region, kind, dmask, mask))
        {
            return Ok(AccessResult {
                fast: true,
                ..AccessResult::new(Cycles(now.0 + l1_lat))
            });
        }
        let lid = sub.lines.intern(line);
        if let Some(st) = cached {
            st.retag(side.region);
            let new_words = match kind {
                AccessType::Read => dmask.minus(st.read_words),
                AccessType::Write => dmask.minus(st.written_words),
            };
            match kind {
                AccessType::Read => st.read_words |= dmask,
                AccessType::Write => {
                    st.written_words |= dmask;
                    st.dirty |= mask;
                    st.ro = false;
                }
            }
            let is_shared = st.shared;
            if kind == AccessType::Write {
                self.written_ever.insert(lid);
            }
            let mut res = AccessResult::new(Cycles(now.0 + l1_lat));
            if is_shared && !new_words.is_empty() {
                // First touch of these words this region: register at
                // the AIM (asynchronously; the core does not stall).
                self.registrations.inc();
                let t1 = sub.send(me, bank, sub.cfg.noc.ctrl_bytes, MsgClass::Metadata, now);
                let t2 = self.meta.ensure_at(sub, lid, t1);
                res.path =
                    self.aim_check_record(sub, side, lid, new_words, t2, &mut res.exceptions);
            }
            return Ok(res);
        }

        // Miss: request to the home bank.
        let t1 = sub.send(
            me,
            bank,
            sub.cfg.noc.ctrl_bytes,
            MsgClass::Request,
            Cycles(now.0 + l1_lat),
        );
        sub.dir_accesses.inc(); // classification lookup at the bank

        // Classification update.
        if kind == AccessType::Write {
            self.written_ever.insert(lid);
        }
        let cls = *self.class.slot(lid).get_or_insert(Class::Private(core));
        let mut t_ready = t1;
        let is_shared = match cls {
            Class::Private(owner) if owner != core => {
                // Second core: recall, reclassify shared.
                let t_aim = self.meta.ensure_at(sub, lid, t1);
                let t_recall = self.recall(sub, owner, lid, t1);
                *self.class.slot(lid) = Some(Class::Shared);
                t_ready = t_ready.max(t_aim).max(t_recall);
                true
            }
            Class::Private(_) => false,
            Class::Shared => {
                let t_aim = self.meta.ensure_at(sub, lid, t1);
                t_ready = t_ready.max(t_aim);
                true
            }
        };
        // Read-only hint: shared + never written.
        let ro = is_shared && sub.cfg.arc_readonly_sharing && !self.written_ever.contains(lid);

        // Conflict check + registration for shared lines (the
        // registration rides the miss request).
        let mut exceptions = Vec::new();
        let mut path = None;
        if is_shared {
            self.registrations.inc();
            path = self.aim_check_record(sub, side, lid, dmask, t_ready, &mut exceptions);
        }

        // Data from the LLC (DRAM beneath it if needed).
        let t_llc = sub.llc_data(line, t_ready);
        let t_data = sub.send(
            bank,
            me,
            sub.cfg.noc.data_header_bytes + 64,
            MsgClass::Data,
            t_llc,
        );

        // Fill.
        let mut st = ArcLine {
            shared: is_shared,
            ro: ro && kind == AccessType::Read,
            region: side.region,
            ..ArcLine::default()
        };
        match kind {
            AccessType::Read => st.read_words = dmask,
            AccessType::Write => {
                st.written_words = dmask;
                st.dirty = mask;
            }
        }
        self.fill_line(sub, core, line, st, t_data)?;

        Ok(AccessResult {
            done: Cycles(t_data.0 + l1_lat),
            exceptions,
            path,
            fast: false,
        })
    }

    pub(crate) fn region_boundary(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        now: Cycles,
    ) -> RceResult<AccessResult> {
        let me = sub.core_node(core);
        let mut done = Cycles(now.0 + 10); // flash self-invalidate cost

        // Steps 1 and 3 only touch shared lines: a core that holds none
        // skips both L1 walks. Private lines need no reset, since the
        // next region's tag empties their masks.
        let holds_shared = self.shared_lines[core.index()] > 0;

        // 1. Flush dirty words of shared lines (release semantics).
        if holds_shared {
            for (line, st) in self.l1[core.index()].iter_mut() {
                if !st.shared || st.dirty.is_empty() {
                    continue;
                }
                let dirty = std::mem::replace(&mut st.dirty, WordMask::EMPTY);
                self.flushed_words.add(dirty.count() as u64);
                let bytes = sub.cfg.noc.data_header_bytes + 8 * dirty.count() as u64;
                let wb = sub.send(me, sub.bank_node(line), bytes, MsgClass::Writeback, now);
                done = done.max(sub.llc_put(line, wb));
            }
        }

        // 2. Clear registrations (one signature message per line, in
        //    address order: the sends contend on the NoC, so the order
        //    must not depend on the order lines were first touched).
        let mut lines = std::mem::take(&mut self.clear_order);
        lines.extend(
            self.touched[core.index()]
                .drain()
                .map(|id| (sub.lines.addr(id), id)),
        );
        lines.sort_unstable();
        for &(line, lid) in &lines {
            let t1 = sub.send(
                me,
                sub.bank_node(line),
                sub.cfg.signature_bytes_per_line.max(1),
                MsgClass::Metadata,
                now,
            );
            let t = self.meta.boundary_clear(sub, lid, core, t1);
            done = done.max(t);
        }
        lines.clear();
        self.clear_order = lines;

        // 3. Self-invalidate shared lines (read-only-classified lines
        //    are exempt when the extension is on — `ro` is only ever
        //    set in that mode).
        if holds_shared {
            let dropped = self.l1[core.index()].remove_where(|_, st| {
                if st.shared && !st.ro {
                    debug_assert!(
                        st.dirty.is_empty(),
                        "shared dirty words must have been flushed"
                    );
                    return true;
                }
                if st.shared {
                    self.ro_retained.inc();
                }
                false
            });
            self.shared_lines[core.index()] -= dropped;
            self.self_invalidated.add(dropped as u64);
            if dropped > 0 {
                sub.trace(|s| SimEvent {
                    cycle: now.0,
                    core: Some(core.0),
                    region: Some(s.region_of(core).0),
                    kind: EventKind::SelfInvalidate {
                        lines: dropped as u64,
                    },
                });
            }
        }

        Ok(AccessResult::new(done))
    }

    pub(crate) fn aim_totals(&self) -> Option<AimSummary> {
        self.meta.aim_totals()
    }

    pub(crate) fn extra_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("registrations", self.registrations.get()),
            ("recalls", self.recalls.get()),
            ("self_invalidated_lines", self.self_invalidated.get()),
            ("ro_retained_lines", self.ro_retained.get()),
            ("flushed_words", self.flushed_words.get()),
            ("private_spills", self.private_spills.get()),
            ("conflict_checks_hit", self.conflict_checks_hit.get()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_common::{MetaPlacement, ProtocolKind};

    fn setup(cores: usize) -> (ArcEngine, Substrate) {
        let cfg = MachineConfig::paper_default(cores, ProtocolKind::Arc);
        (ArcEngine::new(&cfg), Substrate::new(&cfg))
    }

    const R: AccessType = AccessType::Read;
    const W: AccessType = AccessType::Write;

    /// Bytes between consecutive lines of one L1 set (lines map to sets
    /// by their low bits): 1 KiB for the 8 KiB, 8-way, 16-set L1.
    fn set_stride(s: &Substrate) -> u64 {
        s.cfg.l1.sets() * 64
    }

    fn acc(
        e: &mut ArcEngine,
        s: &mut Substrate,
        core: u16,
        addr: u64,
        kind: AccessType,
        now: u64,
    ) -> AccessResult {
        e.access(
            s,
            CoreId(core),
            Addr(addr),
            WordMask::span(Addr(addr), 8),
            kind,
            Cycles(now),
        )
        .unwrap()
    }

    fn boundary(e: &mut ArcEngine, s: &mut Substrate, core: u16, now: u64) -> u64 {
        let b = e.region_boundary(s, CoreId(core), Cycles(now)).unwrap();
        s.advance_region(CoreId(core));
        b.done.0
    }

    #[test]
    fn private_lines_survive_boundaries() {
        let (mut e, mut s) = setup(2);
        let r = acc(&mut e, &mut s, 0, 0x1000, W, 0);
        let t = boundary(&mut e, &mut s, 0, r.done.0);
        // Still a hit: private data is exempt from self-invalidation.
        let r2 = acc(&mut e, &mut s, 0, 0x1000, R, t);
        assert_eq!(r2.done.0 - t, s.cfg.l1.latency);
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn shared_lines_self_invalidate() {
        let (mut e, mut s) = setup(2);
        let a = acc(&mut e, &mut s, 0, 0x1000, R, 0);
        let b = acc(&mut e, &mut s, 1, 0x1000, R, a.done.0); // line becomes shared
        let t0 = boundary(&mut e, &mut s, 0, b.done.0);
        let r = acc(&mut e, &mut s, 0, 0x1000, R, t0);
        assert!(
            r.done.0 - t0 > s.cfg.l1.latency,
            "shared line must re-fetch after the boundary"
        );
        assert!(e.self_invalidated.get() >= 1);
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn detects_write_write_conflict() {
        let (mut e, mut s) = setup(2);
        let w = acc(&mut e, &mut s, 0, 0x100, W, 0);
        assert!(w.exceptions.is_empty());
        let w2 = acc(&mut e, &mut s, 1, 0x100, W, w.done.0);
        assert_eq!(w2.exceptions.len(), 1);
        assert!(w2.exceptions[0].involves_write());
        assert!(e.recalls.get() >= 1, "second toucher triggers a recall");
    }

    #[test]
    fn dram_placement_detects_like_aim() {
        // ARC registering against the off-chip table: same conflicts,
        // no AIM statistics, off-chip metadata traffic instead.
        let cfg = MachineConfig::paper_default(2, ProtocolKind::Arc)
            .with_meta_placement(MetaPlacement::Dram);
        let mut e = ArcEngine::new(&cfg);
        let mut s = Substrate::new(&cfg);
        let w = acc(&mut e, &mut s, 0, 0x100, W, 0);
        assert!(w.exceptions.is_empty());
        let w2 = acc(&mut e, &mut s, 1, 0x100, W, w.done.0);
        assert_eq!(w2.exceptions.len(), 1);
        assert!(e.aim_totals().is_none(), "no AIM in the DRAM placement");
        assert!(
            s.dram.stats().metadata_bytes().0 > 0,
            "registrations pay the off-chip tax"
        );
    }

    #[test]
    fn detects_read_write_conflict_via_recall() {
        let (mut e, mut s) = setup(2);
        let r = acc(&mut e, &mut s, 0, 0x100, R, 0);
        let w = acc(&mut e, &mut s, 1, 0x100, W, r.done.0);
        assert_eq!(w.exceptions.len(), 1);
        assert_eq!(w.exceptions[0].a().kind, R);
    }

    #[test]
    fn boundary_ends_conflict_window() {
        let (mut e, mut s) = setup(2);
        let w = acc(&mut e, &mut s, 0, 0x100, W, 0);
        let t = boundary(&mut e, &mut s, 0, w.done.0);
        let w2 = acc(&mut e, &mut s, 1, 0x100, W, t);
        assert!(w2.exceptions.is_empty(), "regions were not concurrent");
    }

    #[test]
    fn word_granularity_false_sharing_ok() {
        let (mut e, mut s) = setup(2);
        let a = acc(&mut e, &mut s, 0, 0x100, W, 0);
        let b = acc(&mut e, &mut s, 1, 0x108, W, a.done.0);
        assert!(b.exceptions.is_empty());
    }

    #[test]
    fn hit_path_registration_detects_late_conflict() {
        let (mut e, mut s) = setup(2);
        // Make the line shared via reads.
        let a = acc(&mut e, &mut s, 0, 0x200, R, 0);
        let b = acc(&mut e, &mut s, 1, 0x200, R, a.done.0);
        // Core 0 hits (valid shared line) but writes a new word: the
        // registration must catch the conflict with core 1's read.
        let w = acc(&mut e, &mut s, 0, 0x200, W, b.done.0);
        assert_eq!(w.exceptions.len(), 1);
        assert_eq!(w.exceptions[0].b().kind, R);
    }

    #[test]
    fn dirty_words_flush_at_boundary() {
        let (mut e, mut s) = setup(2);
        let a = acc(&mut e, &mut s, 0, 0x300, R, 0);
        let b = acc(&mut e, &mut s, 1, 0x300, R, a.done.0);
        let w = acc(&mut e, &mut s, 0, 0x300, W, b.done.0);
        let before = e.flushed_words.get();
        boundary(&mut e, &mut s, 0, w.done.0);
        assert!(e.flushed_words.get() > before);
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn no_invalidation_traffic_ever() {
        let (mut e, mut s) = setup(4);
        let mut t = 0;
        for i in 0..50u64 {
            let r = acc(&mut e, &mut s, (i % 4) as u16, 0x400 + (i % 8) * 8, W, t);
            t = r.done.0;
            if i % 7 == 0 {
                t = boundary(&mut e, &mut s, (i % 4) as u16, t);
            }
        }
        let s_noc = s.noc.stats();
        assert_eq!(
            s_noc.invalidation_bytes().0,
            0,
            "ARC must not send invalidations or acks"
        );
    }

    #[test]
    fn readonly_lines_survive_boundaries_when_enabled() {
        let mut cfg = MachineConfig::paper_default(2, ProtocolKind::Arc);
        cfg.arc_readonly_sharing = true;
        let mut e = ArcEngine::new(&cfg);
        let mut s = Substrate::new(&cfg);
        // Both cores read the line: shared, never written.
        let a = acc(&mut e, &mut s, 0, 0x1000, R, 0);
        let b = acc(&mut e, &mut s, 1, 0x1000, R, a.done.0);
        let t = boundary(&mut e, &mut s, 0, b.done.0);
        // Still a hit for core 0: read-only shared data is retained.
        let r = acc(&mut e, &mut s, 0, 0x1000, R, t);
        assert_eq!(r.done.0 - t, s.cfg.l1.latency, "retained ro line must hit");
        assert!(e.ro_retained.get() >= 1);
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn written_lines_are_not_readonly() {
        let mut cfg = MachineConfig::paper_default(2, ProtocolKind::Arc);
        cfg.arc_readonly_sharing = true;
        let mut e = ArcEngine::new(&cfg);
        let mut s = Substrate::new(&cfg);
        // Core 0 writes first: the line is written-ever, so core 1's
        // fill is not read-only and self-invalidates at its boundary.
        let w = acc(&mut e, &mut s, 0, 0x2000, W, 0);
        let r = acc(&mut e, &mut s, 1, 0x2000, R, w.done.0);
        let t = boundary(&mut e, &mut s, 1, r.done.0);
        let r2 = acc(&mut e, &mut s, 1, 0x2000, R, t);
        assert!(
            r2.done.0 - t > s.cfg.l1.latency,
            "written-ever shared data must still self-invalidate"
        );
    }

    #[test]
    fn readonly_retention_still_detects_conflicts() {
        // The stale-hint case: a retained ro line is later written by
        // another core; the retainer's next-region first read is a hit
        // but must still register and detect the conflict.
        let mut cfg = MachineConfig::paper_default(2, ProtocolKind::Arc);
        cfg.arc_readonly_sharing = true;
        let mut e = ArcEngine::new(&cfg);
        let mut s = Substrate::new(&cfg);
        let a = acc(&mut e, &mut s, 0, 0x3000, R, 0);
        let b = acc(&mut e, &mut s, 1, 0x3000, R, a.done.0);
        let t = boundary(&mut e, &mut s, 0, b.done.0);
        // Core 1 writes the word (conflicts with nothing: core 0's
        // old region ended... core 1's region is still its first).
        let t1 = boundary(&mut e, &mut s, 1, t);
        let w = acc(&mut e, &mut s, 1, 0x3000, W, t1);
        assert!(w.exceptions.is_empty(), "no live opposing bits yet");
        // Core 0's retained ro line: the hit-read must register and
        // catch the conflict with core 1's live write.
        let r = acc(&mut e, &mut s, 0, 0x3000, R, w.done.0);
        assert_eq!(r.exceptions.len(), 1, "stale ro hit must still detect");
        assert_eq!(r.exceptions[0].b().kind, W);
    }

    #[test]
    fn line_granularity_flags_false_sharing() {
        use rce_common::DetectionGranularity;
        let mut cfg = MachineConfig::paper_default(2, ProtocolKind::Arc);
        cfg.granularity = DetectionGranularity::Line;
        let mut e = ArcEngine::new(&cfg);
        let mut s = Substrate::new(&cfg);
        // Distinct words of one line: a false-sharing "conflict" that
        // word granularity ignores and line granularity reports.
        let a = acc(&mut e, &mut s, 0, 0x100, W, 0);
        let b = acc(&mut e, &mut s, 1, 0x108, W, a.done.0);
        assert!(a.exceptions.is_empty());
        assert!(!b.exceptions.is_empty(), "line granularity must flag this");
    }

    #[test]
    fn eviction_of_private_line_spills_metadata() {
        let (mut e, mut s) = setup(2);
        let base = 0x10_0000u64;
        let mut t = acc(&mut e, &mut s, 0, base, W, 0).done.0;
        let stride = set_stride(&s);
        for i in 1..=8u64 {
            t = acc(&mut e, &mut s, 0, base + i * stride, R, t).done.0;
        }
        assert!(!e.l1[0].contains(Addr(base).line()));
        assert!(e.private_spills.get() >= 1);
        // The conflict is still caught.
        let w = acc(&mut e, &mut s, 1, base, W, t);
        assert_eq!(w.exceptions.len(), 1);
    }

    #[test]
    fn retained_readonly_line_registers_again_in_the_next_region() {
        let mut cfg = MachineConfig::paper_default(2, ProtocolKind::Arc);
        cfg.arc_readonly_sharing = true;
        let mut e = ArcEngine::new(&cfg);
        let mut s = Substrate::new(&cfg);
        let a = acc(&mut e, &mut s, 0, 0x1000, R, 0);
        let b = acc(&mut e, &mut s, 1, 0x1000, R, a.done.0);
        let t = boundary(&mut e, &mut s, 0, b.done.0);
        // The retained line's read mask belongs to the ended region, so
        // the first read of the new region is not a repeat.
        let before = e.registrations.get();
        let r = acc(&mut e, &mut s, 0, 0x1000, R, t);
        assert!(!r.fast, "an ended region's mask must not cover this read");
        assert_eq!(e.registrations.get(), before + 1);
        // A second read in the same region is.
        let r2 = acc(&mut e, &mut s, 0, 0x1000, R, r.done.0);
        assert!(r2.fast);
        assert_eq!(e.registrations.get(), before + 1);
    }

    #[test]
    fn recall_of_a_line_touched_in_an_ended_region_records_nothing() {
        let (mut e, mut s) = setup(2);
        let w = acc(&mut e, &mut s, 0, 0x100, W, 0);
        let t = boundary(&mut e, &mut s, 0, w.done.0);
        let metadata_msgs = |s: &Substrate| s.noc.stats().msgs[MsgClass::Metadata.index()].get();
        let before = metadata_msgs(&s);
        // Core 1's miss recalls core 0's private copy, whose write mask
        // belongs to core 0's ended region: there is nothing to merge.
        let r = acc(&mut e, &mut s, 1, 0x100, R, t);
        assert_eq!(e.recalls.get(), 1);
        assert!(r.exceptions.is_empty());
        assert_eq!(metadata_msgs(&s), before, "no region bits to send");
        let lid = s.lines.lookup(Addr(0x100).line()).unwrap();
        assert!(e.meta.entry_mut(&s, lid).get(CoreId(0)).is_none());
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn evicting_a_private_line_touched_in_an_ended_region_spills_nothing() {
        let (mut e, mut s) = setup(2);
        let base = 0x10_0000u64;
        let w = acc(&mut e, &mut s, 0, base, W, 0);
        let mut t = boundary(&mut e, &mut s, 0, w.done.0);
        let stride = set_stride(&s);
        for i in 1..=8u64 {
            t = acc(&mut e, &mut s, 0, base + i * stride, R, t).done.0;
        }
        assert!(!e.l1[0].contains(Addr(base).line()));
        assert_eq!(e.private_spills.get(), 0, "the write's region has ended");
        e.check_invariants(&s).unwrap();
    }

    /// The error of a two-core ping_pong run on ARC whose engine
    /// `tamper` corrupted first, checked to be an invariant violation
    /// that names the run.
    #[cfg(debug_assertions)]
    fn tampered_run_error(tamper: impl FnOnce(&mut ArcEngine)) -> String {
        use crate::protocol::Engine;
        use crate::Machine;
        use rce_trace::WorkloadSpec;
        let cfg = MachineConfig::paper_default(2, ProtocolKind::Arc);
        let p = WorkloadSpec::PingPong.build(2, 1, 42);
        let err = Machine::new(&cfg)
            .unwrap()
            .run_tampered(&p, |e| {
                let Engine::Arc(e) = e else {
                    unreachable!("ARC has its own engine")
                };
                tamper(e);
            })
            .unwrap_err();
        let RceError::InvariantViolated(msg) = err else {
            panic!("expected InvariantViolated, got {err}");
        };
        for part in [p.name.as_str(), "ARC"] {
            assert!(msg.contains(part), "{msg}");
        }
        msg
    }

    /// A resident line the LLC never classified fails the run at the
    /// end of the holder's first region.
    #[cfg(debug_assertions)]
    #[test]
    fn run_fails_on_an_unclassified_line() {
        let line = Addr(0xdead_0000).line();
        let msg = tampered_run_error(|e| {
            e.l1[1].fill(line, ArcLine::default());
        });
        for part in ["at the end of c1's region", "is unclassified"] {
            assert!(msg.contains(part), "{msg}");
        }
    }

    /// A shared-line count that disagrees with the L1 fails the run at
    /// the end of the core's first region.
    #[cfg(debug_assertions)]
    #[test]
    fn run_fails_on_a_miscounted_shared_line() {
        let msg = tampered_run_error(|e| e.shared_lines[1] += 1);
        for part in ["at the end of c1's region", "c1 counts", "shared lines"] {
            assert!(msg.contains(part), "{msg}");
        }
    }
}
