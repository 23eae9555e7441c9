//! The eager write-invalidation family: MESI baseline, CE, CE+.
//!
//! One coherence engine, composed with a metadata placement
//! ([`crate::meta`]) and the conflict check both families share
//! (`MetaMap::check_and_record`):
//! - **MESI**: directory-based MESI with cache-to-cache transfers.
//!   No metadata, no checks — the normalization baseline.
//! - **CE**: Conflict Exceptions. Every L1 line carries a [`MetaMap`]
//!   of per-word, per-core access bits. Bits ride coherence messages
//!   (modeled as `metadata_piggyback_bytes` added to data/ack
//!   messages) and are checked at every point the hardware would check
//!   them: local accesses against line-resident bits, fetches against
//!   the arriving owner/sharer bits, and misses against bits displaced
//!   to the **in-memory metadata table** (the `Dram` placement of
//!   [`crate::meta::MetaStore`]) by mid-region evictions. Region ends
//!   must scrub each line whose bits were displaced — an off-chip round
//!   trip per line: CE's defining cost.
//! - **CE+**: identical, except displaced bits go to the on-chip AIM
//!   (the `Aim` placement) colocated with the LLC banks; only AIM
//!   victims spill to DRAM. Region-end scrubs become on-chip AIM
//!   accesses.
//!
//! Because the placement is orthogonal, CE+ can also run against the
//! `Ideal` placement (the infinite store) — the upper bound
//! the AIM sensitivity study compares against.
//!
//! Correctness note (see DESIGN.md): metadata entries are tagged with
//! the region that created them, and entries from ended regions are
//! treated as absent during checks. Tags make lazily-scrubbed state
//! harmless while the model still charges the full scrub cost the
//! hardware pays.

use crate::access::MetaMap;
use crate::exception::{AccessType, ConflictSide};
use crate::forensics::DetectSite;
use crate::meta::MetaStore;
use crate::protocol::{AccessResult, Substrate};
use crate::report::AimSummary;
use rce_cache::{DirEntry, L1Cache, MesiState};
use rce_common::obs::{EventKind, SimEvent};
use rce_common::{
    Addr, CoreId, Counter, Cycles, LineAddr, LineFlags, LineId, LineMap, LineSet, MachineConfig,
    RceError, RceResult, RegionId, WordMask, MAX_CORES,
};
use rce_noc::{MsgClass, NodeId};

/// Per-line L1 state for the MESI family.
#[derive(Debug, Clone, Default)]
pub(crate) struct CeLine {
    /// Coherence state (never `I`: invalid lines are absent). `M` and
    /// `O` are the dirty states: the copy is newer than the LLC's.
    pub mesi: MesiState,
    /// Access bits riding with this copy (empty in baseline mode).
    pub meta: MetaMap,
}

impl CeLine {
    /// True if an access by `core` in `region` would change nothing on
    /// this resident copy: the core's own bits for this region already
    /// cover `dmask` for the access kind, no other core holds live bits
    /// that a re-check could conflict with, and a write finds the line
    /// already `M`. The slow path would then only charge the L1-hit
    /// latency. Evictions and remote downgrades remove or change the
    /// line, and a region boundary retags the core's bits, so none of
    /// them needs a hook to switch this off.
    fn repeats(
        &self,
        core: CoreId,
        region: RegionId,
        kind: AccessType,
        dmask: WordMask,
        sub: &Substrate,
    ) -> bool {
        let covered = match self.meta.get(core) {
            Some(e) if e.region == region => match kind {
                AccessType::Read => e.read,
                AccessType::Write => e.written,
            },
            _ => return false,
        };
        dmask.minus(covered).is_empty()
            && (kind == AccessType::Read || self.mesi == MesiState::M)
            && !self.meta.any_live_other(core, |c, r| sub.is_live(c, r))
    }
}

/// The engine.
pub struct MesiFamilyEngine {
    /// MOESI extension: dirty lines downgrade to Owned instead of
    /// writing back (see `MachineConfig::use_owned_state`).
    moesi: bool,
    pub(crate) l1: Vec<L1Cache<CeLine>>,
    /// Where displaced metadata lives (and what touching it costs);
    /// `None` for the MESI baseline, which detects nothing.
    meta: Option<MetaStore>,
    // Per-line state below is indexed by the run's `Substrate::lines`
    // ids: each miss and upgrade interns its line once.
    /// The full-map sharer directory (an idle entry means no L1 holds
    /// the line).
    dir: LineMap<DirEntry>,
    /// Access bits attached to LLC lines (CE extends the shared cache
    /// with access bits too): whenever metadata passes through the
    /// LLC/directory — owner downgrades, invalidation acks, displaced
    /// refills — a copy lands here, and every fill serves it back.
    /// This is what lets a read miss observe the write bits of a
    /// sharer that was earlier downgraded from M. On-chip; the
    /// piggyback bytes on the messages involved are already charged.
    /// An empty map means "absent".
    llc_meta: LineMap<MetaMap>,
    /// Lines that (may) have displaced metadata in the store.
    displaced: LineFlags,
    /// Per core: lines whose bits for that core's current region left
    /// its L1 and must be scrubbed at the region boundary.
    foreign: Vec<LineSet>,
    /// A region boundary's scrub list, sorted by address; empty between
    /// boundaries, kept only for its capacity.
    scrub_order: Vec<(LineAddr, LineId)>,
    // Counters.
    invalidations: Counter,
    upgrades: Counter,
    owned_downgrades: Counter,
    c2c_transfers: Counter,
    meta_pushes: Counter,
    meta_lookups: Counter,
    scrubs: Counter,
    /// Exceptions raised by the conflict checks.
    conflict_checks_hit: Counter,
}

/// The invariant-violation error for a line the directory swears a
/// core holds but its L1 does not.
fn not_resident(what: &str, core: CoreId, line: LineAddr) -> RceError {
    RceError::InvariantViolated(format!("{what}: {core} does not hold {line}"))
}

impl MesiFamilyEngine {
    /// Build for the configuration's protocol (must be MESI/CE/CE+);
    /// the metadata placement comes from `cfg.meta_placement`.
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        assert!(
            cfg.cores <= MAX_CORES,
            "full-map directory supports up to {MAX_CORES} cores"
        );
        MesiFamilyEngine {
            moesi: cfg.use_owned_state,
            l1: (0..cfg.cores).map(|_| L1Cache::new(&cfg.l1)).collect(),
            meta: MetaStore::new(cfg),
            dir: LineMap::new(),
            llc_meta: LineMap::new(),
            displaced: LineFlags::new(),
            foreign: vec![LineSet::new(); cfg.cores],
            scrub_order: Vec::new(),
            invalidations: Counter::default(),
            upgrades: Counter::default(),
            owned_downgrades: Counter::default(),
            c2c_transfers: Counter::default(),
            meta_pushes: Counter::default(),
            meta_lookups: Counter::default(),
            scrubs: Counter::default(),
            conflict_checks_hit: Counter::default(),
        }
    }

    #[inline]
    fn detection(&self) -> bool {
        self.meta.is_some()
    }

    /// The metadata store: only detection modes move metadata.
    fn store(&mut self) -> &mut MetaStore {
        self.meta
            .as_mut()
            .expect("only detection modes touch metadata")
    }

    /// Extra bytes each data/ack message carries for access bits.
    #[inline]
    fn piggy(&self, sub: &Substrate) -> u64 {
        if self.detection() {
            sub.cfg.metadata_piggyback_bytes
        } else {
            0
        }
    }

    /// Gather the bits a miss on line `lid` collects at the home bank
    /// into `incoming`: the displaced bits, fetched from the metadata
    /// layer at `t` (lines never displaced skip the lookup — the
    /// hardware's displaced filter), then the LLC-side copy served with
    /// the fill. The result folds back into the LLC copy, pruned of
    /// dead entries so the copy stays bounded by the live footprint.
    /// Returns when the fetch completes.
    fn gather_meta(
        &mut self,
        sub: &mut Substrate,
        lid: LineId,
        t: Cycles,
        incoming: &mut MetaMap,
    ) -> Cycles {
        let mut t_meta = t;
        if self.displaced.remove(lid) {
            self.meta_lookups.inc();
            let (at, displaced) = self.store().fetch(sub, lid, t);
            incoming.merge(&displaced);
            t_meta = at;
        }
        if let Some(llc) = self.llc_meta.get(lid) {
            incoming.merge(llc);
        }
        if self.detection() && !incoming.is_empty() {
            let llc = self.llc_meta.slot(lid);
            llc.merge(incoming);
            llc.prune(|c, r| sub.is_live(c, r));
        }
        t_meta
    }

    /// True if `meta` holds nonempty bits of `core`'s current region.
    fn has_live_own(meta: &MetaMap, core: CoreId, sub: &Substrate) -> bool {
        meta.get(core)
            .is_some_and(|e| !e.is_empty() && sub.is_live(core, e.region))
    }

    /// Push displaced metadata (from an evicted/invalidated copy) to
    /// the metadata layer. `src` is the node the bits leave from. Off
    /// the critical path: traffic and store occupancy only.
    fn push_displaced(
        &mut self,
        sub: &mut Substrate,
        src: rce_noc::NodeId,
        lid: LineId,
        mut meta: MetaMap,
        at: Cycles,
    ) {
        meta.prune(|c, r| sub.is_live(c, r));
        if meta.is_empty() {
            return;
        }
        self.meta_pushes.inc();
        self.displaced.insert(lid);
        self.store().push(sub, src, lid, meta, at);
    }

    /// Region-end scrub of one displaced line.
    fn scrub_displaced(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        lid: LineId,
        at: Cycles,
    ) -> Cycles {
        self.scrubs.inc();
        let me = sub.core_node(core);
        let (t, entry_gone) = self.store().scrub(sub, me, core, lid, at);
        if entry_gone {
            self.displaced.remove(lid);
        }
        t
    }

    /// Fill `line` into `core`'s L1, handling the victim: directory
    /// notice, dirty writeback, metadata displacement.
    fn fill_line(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        line: LineAddr,
        state: CeLine,
        at: Cycles,
    ) -> RceResult<()> {
        let me = sub.core_node(core);
        if let Some((victim, vstate)) = self.l1[core.index()].fill(line, state) {
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
                    dirty: vstate.mesi.may_be_dirty(),
                },
            });
            let vbank = sub.bank_node(victim);
            // Eviction notice keeps the directory exact.
            let notice_at = sub.send(me, vbank, sub.cfg.noc.ctrl_bytes, MsgClass::Response, at);
            sub.dir_accesses.inc();
            self.dir.slot(vid).remove_sharer(core);
            if vstate.mesi.may_be_dirty() {
                let wb = sub.send(
                    me,
                    vbank,
                    sub.cfg.noc.data_header_bytes + 64,
                    MsgClass::Writeback,
                    at,
                );
                sub.llc_put(victim, wb);
            }
            if self.detection() {
                if Self::has_live_own(&vstate.meta, core, sub) {
                    self.foreign[core.index()].insert(vid);
                }
                self.push_displaced(sub, me, vid, vstate.meta, notice_at);
            }
        }
        Ok(())
    }

    /// Invalidate line `lid` in every core of `sharers`. The home bank
    /// sends all the invalidations at `t1`, in ascending core order;
    /// then each sharer drops its copy, hands its access bits to
    /// `incoming` and acks the requester at `me`, in the same order.
    /// Returns the latest ack arrival (`t1` if there are no sharers).
    fn invalidate_sharers(
        &mut self,
        sub: &mut Substrate,
        lid: LineId,
        sharers: impl Iterator<Item = CoreId> + Clone,
        me: NodeId,
        t1: Cycles,
        incoming: &mut MetaMap,
    ) -> RceResult<Cycles> {
        let bank = sub.bank_node(sub.lines.addr(lid));
        let ctrl = sub.cfg.noc.ctrl_bytes;
        let mut inv_at = t1;
        for s in sharers.clone() {
            self.invalidations.inc();
            let at = sub.send(bank, sub.core_node(s), ctrl, MsgClass::Invalidation, t1);
            inv_at = inv_at.max(at);
        }
        let ack_bytes = ctrl + self.piggy(sub);
        let mut t_done = t1;
        for s in sharers {
            self.drop_copy(sub, s, lid, "directory sharer", incoming)?;
            let ack = sub.send(sub.core_node(s), me, ack_bytes, MsgClass::Ack, inv_at);
            t_done = t_done.max(ack);
        }
        Ok(t_done)
    }

    /// Invalidate `core`'s copy of line `lid`, which the directory says
    /// it holds as `what`, handing the copy's access bits to `incoming`.
    fn drop_copy(
        &mut self,
        sub: &Substrate,
        core: CoreId,
        lid: LineId,
        what: &str,
        incoming: &mut MetaMap,
    ) -> RceResult<()> {
        let line = sub.lines.addr(lid);
        let st = self.l1[core.index()]
            .invalidate(line)
            .ok_or_else(|| not_resident(what, core, line))?;
        if self.detection() {
            if Self::has_live_own(&st.meta, core, sub) {
                self.foreign[core.index()].insert(lid);
            }
            incoming.merge(&st.meta);
        }
        Ok(())
    }

    /// Send `core`'s request for `line` from its L1 to the line's home
    /// bank, which looks the line up in the directory. Returns the
    /// line's id, the requester's and the bank's nodes, when the
    /// request arrives, and the directory entry it finds there.
    fn request(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        line: LineAddr,
        now: Cycles,
    ) -> (LineId, NodeId, NodeId, Cycles, DirEntry) {
        let lid = sub.lines.intern(line);
        let (me, bank) = (sub.core_node(core), sub.bank_node(line));
        let at = Cycles(now.0 + sub.cfg.l1.latency);
        let t1 = sub.send(me, bank, sub.cfg.noc.ctrl_bytes, MsgClass::Request, at);
        sub.dir_accesses.inc();
        (lid, me, bank, t1, *self.dir.slot(lid))
    }

    /// Upgrade an S copy to M (write hit in S). The bits collected on
    /// the way merge into the core's copy.
    fn upgrade(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        line: LineAddr,
        now: Cycles,
    ) -> RceResult<Cycles> {
        self.upgrades.inc();
        let (lid, me, bank, t1, entry) = self.request(sub, core, line, now);
        let mut incoming = MetaMap::new();
        let others = entry.sharer_cores().filter(move |s| *s != core);
        let mut t_done = self.invalidate_sharers(sub, lid, others, me, t1, &mut incoming)?;
        let t_meta = self.gather_meta(sub, lid, t1, &mut incoming);
        let grant = sub.send(
            bank,
            me,
            sub.cfg.noc.ctrl_bytes,
            MsgClass::Response,
            t1.max(t_meta),
        );
        t_done = t_done.max(grant);
        self.dir.slot(lid).set_owner(core);
        let l = self.l1[core.index()]
            .probe_mut(line)
            .ok_or_else(|| not_resident("upgrading line", core, line))?;
        l.mesi = MesiState::M;
        l.meta.merge(&incoming);
        Ok(t_done)
    }

    /// Read miss. The bits collected on the way fill in with the line.
    fn fetch_read(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        line: LineAddr,
        now: Cycles,
    ) -> RceResult<Cycles> {
        let data_bytes = sub.cfg.noc.data_header_bytes + 64 + self.piggy(sub);
        let (lid, me, bank, t1, entry) = self.request(sub, core, line, now);
        let mut incoming = MetaMap::new();
        let was_idle = entry.is_idle();
        let t_data;
        if let Some(owner) = entry.owner.filter(|o| *o != core) {
            self.c2c_transfers.inc();
            let t2 = sub.send(
                bank,
                sub.core_node(owner),
                sub.cfg.noc.ctrl_bytes,
                MsgClass::Request,
                t1,
            );
            let detection = self.detection();
            let (needs_writeback, owner_stays) = {
                let st = self.l1[owner.index()]
                    .probe_mut(line)
                    .ok_or_else(|| not_resident("directory owner", owner, line))?;
                if detection {
                    incoming.merge(&st.meta);
                }
                let dirty = st.mesi.may_be_dirty();
                if self.moesi && dirty {
                    // MOESI: the dirty owner downgrades to O, keeps its
                    // dirty data, and skips the LLC writeback.
                    st.mesi = MesiState::O;
                    (false, true)
                } else {
                    st.mesi = MesiState::S;
                    (dirty, false)
                }
            };
            let owner_node = sub.core_node(owner);
            if needs_writeback {
                let wb = sub.send(
                    owner_node,
                    bank,
                    sub.cfg.noc.data_header_bytes + 64,
                    MsgClass::Writeback,
                    t2,
                );
                sub.llc_put(line, wb);
            }
            t_data = sub.send(owner_node, me, data_bytes, MsgClass::Data, t2);
            let dir = self.dir.slot(lid);
            if owner_stays {
                self.owned_downgrades.inc();
                dir.add_sharer_keep_owner(core);
            } else {
                dir.downgrade_owner();
                dir.add_sharer(core);
            }
        } else {
            let t_llc = sub.llc_data(line, t1);
            t_data = sub.send(bank, me, data_bytes, MsgClass::Data, t_llc);
            let dir = self.dir.slot(lid);
            if was_idle {
                // Exclusive grant.
                dir.set_owner(core);
            } else {
                dir.add_sharer(core);
            }
        }
        let t_meta = self.gather_meta(sub, lid, t1, &mut incoming);
        let mesi = if was_idle && entry.owner.is_none() {
            MesiState::E
        } else {
            MesiState::S
        };
        let done = t_data.max(t_meta);
        self.fill_line(
            sub,
            core,
            line,
            CeLine {
                mesi,
                meta: incoming,
            },
            done,
        )?;
        Ok(Cycles(done.0 + sub.cfg.l1.latency))
    }

    /// Write miss. The bits collected on the way fill in with the line.
    fn fetch_write(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        line: LineAddr,
        now: Cycles,
    ) -> RceResult<Cycles> {
        let data_bytes = sub.cfg.noc.data_header_bytes + 64 + self.piggy(sub);
        let (lid, me, bank, t1, entry) = self.request(sub, core, line, now);
        let mut incoming = MetaMap::new();
        let mut t_done = if let Some(owner) = entry.owner.filter(|o| *o != core) {
            self.c2c_transfers.inc();
            let t2 = sub.send(
                bank,
                sub.core_node(owner),
                sub.cfg.noc.ctrl_bytes,
                MsgClass::Request,
                t1,
            );
            self.drop_copy(sub, owner, lid, "directory owner", &mut incoming)?;
            // Dirty ownership transfers cache-to-cache.
            let t_data = sub.send(sub.core_node(owner), me, data_bytes, MsgClass::Data, t2);
            // Under MOESI the Owned line may have clean co-sharers;
            // they must be invalidated too.
            let co_sharers = entry
                .sharer_cores()
                .filter(move |s| *s != core && *s != owner);
            let t_acks = self.invalidate_sharers(sub, lid, co_sharers, me, t1, &mut incoming)?;
            t_data.max(t_acks)
        } else {
            let others = entry.sharer_cores().filter(move |s| *s != core);
            let t_acks = self.invalidate_sharers(sub, lid, others, me, t1, &mut incoming)?;
            let t_llc = sub.llc_data(line, t1);
            let t_data = sub.send(bank, me, data_bytes, MsgClass::Data, t_llc);
            t_acks.max(t_data)
        };
        let t_meta = self.gather_meta(sub, lid, t1, &mut incoming);
        t_done = t_done.max(t_meta);
        self.dir.slot(lid).set_owner(core);
        self.fill_line(
            sub,
            core,
            line,
            CeLine {
                mesi: MesiState::M,
                meta: incoming,
            },
            t_done,
        )?;
        Ok(Cycles(t_done.0 + sub.cfg.l1.latency))
    }

    /// The directory entry for `line` (idle if never seen).
    fn dir_entry(&self, sub: &Substrate, line: LineAddr) -> DirEntry {
        sub.lines
            .lookup(line)
            .and_then(|lid| self.dir.get(lid))
            .copied()
            .unwrap_or_default()
    }

    /// `core`'s L1 agrees with the directory: every copy's state is
    /// legal (O only under MOESI, never I) and matches its directory
    /// entry: M and E are the owner's only copy, O is the owner's, and
    /// S is a sharer's while no other core holds the line exclusively.
    pub(crate) fn check_core(&self, sub: &Substrate, core: CoreId) -> Result<(), String> {
        for (line, st) in self.l1[core.index()].iter() {
            let e = self.dir_entry(sub, line);
            let owns = e.owner == Some(core);
            let legal = match st.mesi {
                MesiState::M | MesiState::E => owns && e.sharer_count() == 1,
                MesiState::O => self.moesi && owns,
                MesiState::S => e.has_sharer(core) && !owns && (self.moesi || e.owner.is_none()),
                MesiState::I => false,
            };
            if !legal {
                return Err(format!(
                    "{core} holds {line} in {}, but the directory has owner {:?}, sharers {:#x}",
                    st.mesi, e.owner, e.sharers
                ));
            }
        }
        Ok(())
    }

    /// Directory/L1 consistency, both ways: every directory entry is
    /// well formed and names only sharers whose L1 holds the line, and
    /// every core's L1 agrees with the directory
    /// ([`MesiFamilyEngine::check_core`]).
    pub(crate) fn check_invariants(&self, sub: &Substrate) -> Result<(), String> {
        for (lid, e) in self.dir.iter() {
            let line = sub.lines.addr(lid);
            e.check(self.l1.len(), !self.moesi)
                .map_err(|err| format!("directory entry for {line}: {err}"))?;
            if let Some(s) = e
                .sharer_cores()
                .find(|s| !self.l1[s.index()].contains(line))
            {
                return Err(format!(
                    "directory names {s} for {line}, but its L1 lacks it"
                ));
            }
        }
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
        let region = sub.region_of(core);
        let l1_lat = sub.cfg.l1.latency;

        let dmask = sub.cfg.detect_mask(mask);

        let cached = self.l1[core.index()].access(line);
        if sub.fastpath
            && cached
                .as_deref()
                .is_some_and(|l| l.repeats(core, region, kind, dmask, sub))
        {
            return Ok(AccessResult {
                fast: true,
                ..AccessResult::new(Cycles(now.0 + l1_lat))
            });
        }
        // Snapshot the displaced-fetch counter: if it moves during this
        // access, any conflict found involved bits fetched back from
        // the metadata store rather than bits riding the L1 line.
        let lookups_before = self.meta_lookups.get();
        // A read hit or a writable write hit checks the line the lookup
        // returned; a miss or an upgrade finds the line again after
        // the protocol work. Either way the line is its set's most
        // recently used, so LRU order is the same.
        let (done, hit) = match (cached, kind) {
            (Some(l), AccessType::Read) => (Cycles(now.0 + l1_lat), Some(l)),
            (Some(l), AccessType::Write) if l.mesi.can_write() => {
                l.mesi = MesiState::M;
                (Cycles(now.0 + l1_lat), Some(l))
            }
            (Some(_), AccessType::Write) => (self.upgrade(sub, core, line, now)?, None),
            (None, AccessType::Read) => (self.fetch_read(sub, core, line, now)?, None),
            (None, AccessType::Write) => (self.fetch_write(sub, core, line, now)?, None),
        };

        let mut res = AccessResult::new(done);
        if let Some(meta) = &self.meta {
            let lref = match hit {
                Some(l) => l,
                None => self.l1[core.index()]
                    .probe_mut(line)
                    .ok_or_else(|| not_resident("line after access", core, line))?,
            };
            let me = ConflictSide { core, region, kind };
            let raised = lref.meta.check_and_record(
                me,
                dmask,
                line,
                done,
                |c, r| sub.is_live(c, r),
                &mut res.exceptions,
            );
            self.conflict_checks_hit.add(raised as u64);
            if raised > 0 {
                res.path = Some(meta.path(if self.meta_lookups.get() > lookups_before {
                    DetectSite::DisplacedFetch
                } else {
                    DetectSite::L1Bits
                }));
            }
        }
        Ok(res)
    }

    pub(crate) fn region_boundary(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        now: Cycles,
    ) -> RceResult<AccessResult> {
        if !self.detection() {
            return Ok(AccessResult::new(now));
        }
        // Local flash-clear of this core's bits (and opportunistic
        // pruning of dead remote bits riding our lines).
        for (_, st) in self.l1[core.index()].iter_mut() {
            st.meta.clear_core(core);
        }
        let mut done = Cycles(now.0 + 5);
        // Scrub every line whose bits escaped the L1 this region, in
        // address order: the scrubs contend on the NoC, so the order
        // must not depend on the order lines were first touched.
        let mut lines = std::mem::take(&mut self.scrub_order);
        lines.extend(
            self.foreign[core.index()]
                .drain()
                .map(|id| (sub.lines.addr(id), id)),
        );
        lines.sort_unstable();
        for &(_, lid) in &lines {
            let t = self.scrub_displaced(sub, core, lid, now);
            done = done.max(t);
        }
        lines.clear();
        self.scrub_order = lines;
        Ok(AccessResult::new(done))
    }

    pub(crate) fn aim_totals(&self) -> Option<AimSummary> {
        self.meta.as_ref().and_then(MetaStore::aim_totals)
    }

    pub(crate) fn extra_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("invalidations", self.invalidations.get()),
            ("upgrades", self.upgrades.get()),
            ("owned_downgrades", self.owned_downgrades.get()),
            ("c2c_transfers", self.c2c_transfers.get()),
            ("meta_pushes", self.meta_pushes.get()),
            ("meta_lookups", self.meta_lookups.get()),
            ("scrubs", self.scrubs.get()),
            ("conflict_checks_hit", self.conflict_checks_hit.get()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Engine;
    use crate::{Machine, SimReport};
    use rce_common::{MetaPlacement, ProtocolKind};
    use rce_trace::WorkloadSpec;

    fn setup(protocol: ProtocolKind, cores: usize) -> (MesiFamilyEngine, Substrate) {
        let cfg = MachineConfig::paper_default(cores, protocol);
        (MesiFamilyEngine::new(&cfg), Substrate::new(&cfg))
    }

    const R: AccessType = AccessType::Read;
    const W: AccessType = AccessType::Write;

    /// Bytes between consecutive lines of one L1 set (lines map to sets
    /// by their low bits): 1 KiB for the 8 KiB, 8-way, 16-set L1.
    fn set_stride(s: &Substrate) -> u64 {
        s.cfg.l1.sets() * 64
    }

    fn acc(
        e: &mut MesiFamilyEngine,
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

    #[test]
    fn read_miss_then_hit() {
        let (mut e, mut s) = setup(ProtocolKind::MesiBaseline, 2);
        let r1 = acc(&mut e, &mut s, 0, 0x1000, R, 0);
        assert!(r1.done.0 > 10, "miss goes through NoC/LLC/DRAM");
        let r2 = acc(&mut e, &mut s, 0, 0x1000, R, r1.done.0);
        assert_eq!(
            r2.done.0 - r1.done.0,
            s.cfg.l1.latency,
            "hit is an L1 access"
        );
        let (h, m, _) = Engine::MesiFamily(e).l1_totals();
        assert_eq!((h, m), (1, 1));
    }

    #[test]
    fn exclusive_grant_allows_silent_write() {
        let (mut e, mut s) = setup(ProtocolKind::MesiBaseline, 2);
        let r = acc(&mut e, &mut s, 0, 0x1000, R, 0);
        // First reader got E; writing is a pure L1 hit.
        let w = acc(&mut e, &mut s, 0, 0x1000, W, r.done.0);
        assert_eq!(w.done.0 - r.done.0, s.cfg.l1.latency);
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn write_invalidates_sharers() {
        let (mut e, mut s) = setup(ProtocolKind::MesiBaseline, 3);
        let a = acc(&mut e, &mut s, 0, 0x2000, R, 0);
        let b = acc(&mut e, &mut s, 1, 0x2000, R, a.done.0);
        // Both sharers; core 2 writes.
        let w = acc(&mut e, &mut s, 2, 0x2000, W, b.done.0);
        assert!(w.done > b.done);
        assert!(e.invalidations.get() >= 2);
        // Sharers lost their copies.
        assert!(!e.l1[0].contains(Addr(0x2000).line()));
        assert!(!e.l1[1].contains(Addr(0x2000).line()));
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn dirty_data_transfers_cache_to_cache() {
        let (mut e, mut s) = setup(ProtocolKind::MesiBaseline, 2);
        let w = acc(&mut e, &mut s, 0, 0x3000, W, 0);
        let r = acc(&mut e, &mut s, 1, 0x3000, R, w.done.0);
        assert!(r.done > w.done);
        assert_eq!(e.c2c_transfers.get(), 1);
        // Both now share.
        let line = Addr(0x3000).line();
        assert_eq!(e.l1[0].peek(line).unwrap().mesi, MesiState::S);
        assert_eq!(e.l1[1].peek(line).unwrap().mesi, MesiState::S);
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn baseline_detects_nothing() {
        let (mut e, mut s) = setup(ProtocolKind::MesiBaseline, 2);
        let w = acc(&mut e, &mut s, 0, 0x100, W, 0);
        let r = acc(&mut e, &mut s, 1, 0x100, W, w.done.0);
        assert!(w.exceptions.is_empty() && r.exceptions.is_empty());
    }

    #[test]
    fn ce_detects_write_write_conflict() {
        for proto in [ProtocolKind::Ce, ProtocolKind::CePlus] {
            let (mut e, mut s) = setup(proto, 2);
            let w = acc(&mut e, &mut s, 0, 0x100, W, 0);
            assert!(w.exceptions.is_empty());
            let r = acc(&mut e, &mut s, 1, 0x100, W, w.done.0);
            assert_eq!(r.exceptions.len(), 1, "{proto}");
            assert!(r.exceptions[0].involves_write());
        }
    }

    #[test]
    fn ideal_placement_detects_like_ceplus() {
        let cfg = MachineConfig::paper_default(2, ProtocolKind::CePlus)
            .with_meta_placement(MetaPlacement::Ideal);
        let mut e = MesiFamilyEngine::new(&cfg);
        let mut s = Substrate::new(&cfg);
        let w = acc(&mut e, &mut s, 0, 0x100, W, 0);
        let r = acc(&mut e, &mut s, 1, 0x100, W, w.done.0);
        assert_eq!(r.exceptions.len(), 1);
        assert!(e.aim_totals().is_none(), "ideal store has no hit stats");
    }

    #[test]
    fn ce_detects_read_write_conflict_via_invalidation() {
        let (mut e, mut s) = setup(ProtocolKind::Ce, 2);
        let r = acc(&mut e, &mut s, 0, 0x100, R, 0);
        let w = acc(&mut e, &mut s, 1, 0x100, W, r.done.0);
        assert_eq!(w.exceptions.len(), 1);
        assert_eq!(w.exceptions[0].a().kind, AccessType::Read);
        assert_eq!(w.exceptions[0].b().kind, AccessType::Write);
    }

    #[test]
    fn region_end_clears_conflict_window() {
        let (mut e, mut s) = setup(ProtocolKind::Ce, 2);
        let w = acc(&mut e, &mut s, 0, 0x100, W, 0);
        // Core 0's region ends.
        let b = e.region_boundary(&mut s, CoreId(0), w.done).unwrap();
        s.advance_region(CoreId(0));
        let r = acc(&mut e, &mut s, 1, 0x100, W, b.done.0);
        assert!(r.exceptions.is_empty(), "regions were not concurrent");
    }

    #[test]
    fn word_granularity_no_false_sharing_exception() {
        let (mut e, mut s) = setup(ProtocolKind::Ce, 2);
        let w0 = acc(&mut e, &mut s, 0, 0x100, W, 0); // word 0
        let w1 = acc(&mut e, &mut s, 1, 0x108, W, w0.done.0); // word 1
        assert!(w1.exceptions.is_empty(), "distinct words do not conflict");
    }

    #[test]
    fn displaced_metadata_found_after_eviction() {
        // Core 0 writes a word, then thrashes its set so the line is
        // evicted (bits spill). Core 1's access must still detect.
        let (mut e, mut s) = setup(ProtocolKind::Ce, 2);
        let base = 0x10_0000u64;
        let w = acc(&mut e, &mut s, 0, base, W, 0);
        // Eight more lines of the same set evict it from the 8-way L1.
        let mut t = w.done.0;
        let stride = set_stride(&s);
        for i in 1..=8u64 {
            let r = acc(&mut e, &mut s, 0, base + i * stride, R, t);
            t = r.done.0;
        }
        assert!(
            !e.l1[0].contains(Addr(base).line()),
            "line must have been evicted"
        );
        assert!(e.meta_pushes.get() >= 1);
        let r = acc(&mut e, &mut s, 1, base, W, t);
        assert_eq!(
            r.exceptions.len(),
            1,
            "conflict survives eviction via the metadata store"
        );
        assert!(e.meta_lookups.get() >= 1);
    }

    #[test]
    fn ce_uses_dram_for_metadata_ceplus_uses_aim() {
        for (proto, expect_aim) in [(ProtocolKind::Ce, false), (ProtocolKind::CePlus, true)] {
            let (mut e, mut s) = setup(proto, 2);
            let base = 0x10_0000u64;
            let mut t = acc(&mut e, &mut s, 0, base, W, 0).done.0;
            let stride = set_stride(&s);
            for i in 1..=8u64 {
                t = acc(&mut e, &mut s, 0, base + i * stride, R, t).done.0;
            }
            let meta_dram = s.dram.stats().metadata_bytes().0;
            if expect_aim {
                assert_eq!(meta_dram, 0, "CE+ spills stay on-chip");
                assert!(e.aim_totals().unwrap().accesses >= 1);
            } else {
                assert!(meta_dram > 0, "CE metadata goes off-chip");
                assert!(e.aim_totals().is_none());
            }
        }
    }

    #[test]
    fn region_boundary_scrubs_displaced_lines() {
        let (mut e, mut s) = setup(ProtocolKind::Ce, 2);
        let base = 0x10_0000u64;
        let mut t = acc(&mut e, &mut s, 0, base, W, 0).done.0;
        let stride = set_stride(&s);
        for i in 1..=8u64 {
            t = acc(&mut e, &mut s, 0, base + i * stride, R, t).done.0;
        }
        let before = s.dram.stats().metadata_bytes().0;
        let b = e.region_boundary(&mut s, CoreId(0), Cycles(t)).unwrap();
        assert!(b.done.0 > t, "scrub costs time");
        assert!(e.scrubs.get() >= 1);
        assert!(s.dram.stats().metadata_bytes().0 > before);
        s.advance_region(CoreId(0));
    }

    #[test]
    fn piggyback_inflates_ce_messages() {
        let run = |proto| {
            let (mut e, mut s) = setup(proto, 2);
            let w = acc(&mut e, &mut s, 0, 0x5000, W, 0);
            let _ = acc(&mut e, &mut s, 1, 0x5000, R, w.done.0);
            s.noc.stats().total_bytes().0
        };
        assert!(run(ProtocolKind::Ce) > run(ProtocolKind::MesiBaseline));
    }

    #[test]
    fn invariants_hold_under_random_traffic() {
        use rce_common::{Rng, SplitMix64};
        let (mut e, mut s) = setup(ProtocolKind::Ce, 4);
        let mut rng = SplitMix64::new(42);
        let mut t = 0u64;
        for i in 0..2000 {
            let core = rng.gen_range(4) as u16;
            let addr = 0x8000 + rng.gen_range(64) * 8;
            let kind = if rng.gen_bool(0.4) { W } else { R };
            let r = acc(&mut e, &mut s, core, addr, kind, t);
            t = r.done.0.max(t) + 1;
            if i % 97 == 0 {
                let b = e.region_boundary(&mut s, CoreId(core), Cycles(t)).unwrap();
                s.advance_region(CoreId(core));
                t = b.done.0.max(t) + 1;
            }
        }
        e.check_invariants(&s).unwrap();
    }

    fn setup_moesi(protocol: ProtocolKind, cores: usize) -> (MesiFamilyEngine, Substrate) {
        let mut cfg = MachineConfig::paper_default(cores, protocol);
        cfg.use_owned_state = true;
        (MesiFamilyEngine::new(&cfg), Substrate::new(&cfg))
    }

    #[test]
    fn moesi_dirty_downgrade_skips_writeback() {
        let (mut e, mut s) = setup_moesi(ProtocolKind::MesiBaseline, 2);
        let w = acc(&mut e, &mut s, 0, 0x3000, W, 0);
        let wb_before = s.noc.stats().bytes[MsgClass::Writeback.index()].0;
        let r = acc(&mut e, &mut s, 1, 0x3000, R, w.done.0);
        assert!(r.done > w.done);
        let wb_after = s.noc.stats().bytes[MsgClass::Writeback.index()].0;
        assert_eq!(wb_before, wb_after, "O downgrade must not write back");
        let line = Addr(0x3000).line();
        // O: the owner keeps the dirty data.
        assert_eq!(e.l1[0].peek(line).unwrap().mesi, MesiState::O);
        assert_eq!(e.l1[1].peek(line).unwrap().mesi, MesiState::S);
        assert_eq!(e.owned_downgrades.get(), 1);
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn mesi_mode_still_writes_back_on_downgrade() {
        let (mut e, mut s) = setup(ProtocolKind::MesiBaseline, 2);
        let w = acc(&mut e, &mut s, 0, 0x3000, W, 0);
        let _ = acc(&mut e, &mut s, 1, 0x3000, R, w.done.0);
        assert!(s.noc.stats().bytes[MsgClass::Writeback.index()].0 > 0);
        assert_eq!(e.owned_downgrades.get(), 0);
    }

    #[test]
    fn moesi_write_invalidates_owner_and_cosharers() {
        let (mut e, mut s) = setup_moesi(ProtocolKind::MesiBaseline, 3);
        // Core 0 owns dirty (O after core 1 reads); core 2 writes.
        let w = acc(&mut e, &mut s, 0, 0x4000, W, 0);
        let r = acc(&mut e, &mut s, 1, 0x4000, R, w.done.0);
        let w2 = acc(&mut e, &mut s, 2, 0x4000, W, r.done.0);
        assert!(w2.done > r.done);
        let line = Addr(0x4000).line();
        assert!(!e.l1[0].contains(line), "O owner invalidated");
        assert!(!e.l1[1].contains(line), "co-sharer invalidated");
        assert_eq!(e.l1[2].peek(line).unwrap().mesi, MesiState::M);
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn moesi_owner_eviction_writes_back_for_sharers() {
        let (mut e, mut s) = setup_moesi(ProtocolKind::MesiBaseline, 2);
        let base = 0x10_0000u64;
        let w = acc(&mut e, &mut s, 0, base, W, 0);
        let r = acc(&mut e, &mut s, 1, base, R, w.done.0); // core 0 -> O
                                                           // Thrash core 0's set so the O line evicts.
        let mut t = r.done.0;
        let stride = set_stride(&s);
        for i in 1..=8u64 {
            t = acc(&mut e, &mut s, 0, base + i * stride, R, t).done.0;
        }
        assert!(!e.l1[0].contains(Addr(base).line()));
        // The dirty data reached the LLC on eviction.
        assert!(s.llc.contains(Addr(base).line()));
        // Core 1's copy survives; a fresh reader gets LLC data.
        assert!(e.l1[1].contains(Addr(base).line()));
        e.check_invariants(&s).unwrap();
        let _ = t;
    }

    #[test]
    fn moesi_detection_still_works() {
        for proto in [ProtocolKind::Ce, ProtocolKind::CePlus] {
            let (mut e, mut s) = setup_moesi(proto, 2);
            let w = acc(&mut e, &mut s, 0, 0x100, W, 0);
            let r = acc(&mut e, &mut s, 1, 0x100, R, w.done.0);
            assert_eq!(r.exceptions.len(), 1, "{proto}");
            // Conflict metadata rode the O downgrade.
            assert!(r.exceptions[0].involves_write());
        }
    }

    #[test]
    fn moesi_invariants_under_random_traffic() {
        use rce_common::{Rng, SplitMix64};
        let (mut e, mut s) = setup_moesi(ProtocolKind::Ce, 4);
        let mut rng = SplitMix64::new(77);
        let mut t = 0u64;
        for i in 0..3000 {
            let core = rng.gen_range(4) as u16;
            let addr = 0x8000 + rng.gen_range(64) * 8;
            let kind = if rng.gen_bool(0.4) { W } else { R };
            let r = acc(&mut e, &mut s, core, addr, kind, t);
            t = r.done.0.max(t) + 1;
            if i % 89 == 0 {
                let b = e.region_boundary(&mut s, CoreId(core), Cycles(t)).unwrap();
                s.advance_region(CoreId(core));
                t = b.done.0.max(t) + 1;
            }
        }
        e.check_invariants(&s).unwrap();
    }

    #[test]
    fn invariants_hold_at_64_cores() {
        // At 64 cores the directory's sharer mask is full width: core
        // 63 owns the top bit. Core 63 takes every fourth access so it
        // owns, shares and gets invalidated throughout.
        use rce_common::{Rng, SplitMix64};
        for moesi in [false, true] {
            let mut cfg = MachineConfig::paper_default(64, ProtocolKind::CePlus);
            cfg.use_owned_state = moesi;
            let mut e = MesiFamilyEngine::new(&cfg);
            let mut s = Substrate::new(&cfg);
            let mut rng = SplitMix64::new(64);
            let mut t = 0u64;
            let mut top_shared = false;
            for i in 0..4000 {
                let core = if i % 4 == 0 {
                    63
                } else {
                    rng.gen_range(64) as u16
                };
                let addr = 0x8000 + rng.gen_range(64) * 8;
                let kind = if rng.gen_bool(0.3) { W } else { R };
                let r = acc(&mut e, &mut s, core, addr, kind, t);
                t = r.done.0.max(t) + 1;
                if i % 53 == 0 {
                    let b = e.region_boundary(&mut s, CoreId(core), Cycles(t)).unwrap();
                    s.advance_region(CoreId(core));
                    t = b.done.0.max(t) + 1;
                }
                let sharers = e.dir_entry(&s, Addr(addr).line()).sharers;
                top_shared |= sharers & (1 << 63) != 0 && sharers.count_ones() > 1;
                if i % 500 == 499 {
                    e.check_invariants(&s).unwrap();
                }
            }
            assert!(top_shared, "core 63 never shared a line (moesi={moesi})");
            assert!(e.invalidations.get() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "up to 64")]
    fn too_many_cores_rejected() {
        MesiFamilyEngine::new(&MachineConfig::paper_default(
            MAX_CORES + 1,
            ProtocolKind::CePlus,
        ));
    }

    /// The value of one of a report's engine counters.
    fn counter(r: &SimReport, name: &str) -> u64 {
        r.engine_counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or_else(|| panic!("no counter {name}"), |(_, v)| *v)
    }

    /// Run `spec` at scale 2 through the whole machine, on its own
    /// schedule. Debug builds check the ending core's L1 against the
    /// directory at every region boundary and the directory and L1s
    /// against each other, both ways, at run end.
    fn machine_run(spec: WorkloadSpec, cfg: &MachineConfig) -> SimReport {
        let program = spec.build(cfg.cores, 2, 42);
        let r = Machine::new(cfg).unwrap().run(&program).unwrap();
        assert!(r.sync_ops > 0, "{} has no region boundaries", program.name);
        r
    }

    /// `machine_run` under CE+ at 8 and 64 cores, MOESI off and on;
    /// returns the L1 evictions summed over the four runs.
    fn ceplus_runs(spec: WorkloadSpec) -> u64 {
        let mut evictions = 0;
        for cores in [8, 64] {
            for moesi in [false, true] {
                let mut cfg = MachineConfig::paper_default(cores, ProtocolKind::CePlus);
                cfg.use_owned_state = moesi;
                let r = machine_run(spec, &cfg);
                let at = format!("{spec:?} at {cores} cores, moesi={moesi}");
                assert!(counter(&r, "invalidations") > 0, "{at}");
                assert_eq!(counter(&r, "owned_downgrades") > 0, moesi, "{at}");
                evictions += r.l1_evictions;
            }
        }
        evictions
    }

    #[test]
    fn directory_matches_l1s_through_canneal() {
        let evictions = ceplus_runs(WorkloadSpec::Canneal);
        assert!(evictions > 0, "the L1 victim path must run");
    }

    #[test]
    fn directory_matches_l1s_through_streamcluster() {
        ceplus_runs(WorkloadSpec::Streamcluster);
    }

    #[test]
    fn directory_matches_l1s_through_migratory_mesi() {
        let cfg = MachineConfig::paper_default(8, ProtocolKind::MesiBaseline);
        let r = machine_run(WorkloadSpec::Migratory, &cfg);
        assert!(
            counter(&r, "c2c_transfers") > 0,
            "migratory data moves cache to cache"
        );
    }
}
