//! The metadata layer: the home of access bits that no longer ride a
//! private cache line, and what touching it costs.
//!
//! Every detection design needs one. CE keeps displaced bits in an
//! off-chip DRAM table; CE+ and ARC keep them in the on-chip **access
//! information memory (AIM)** colocated with the LLC banks, which
//! spills its victims to a DRAM overflow table. One [`MetaStore`]
//! serves every placement ([`MetaPlacement`]), and each of its
//! operations matches on the placement for its cost:
//! - `Dram` — CE's table; every touch is an off-chip round trip.
//! - `Aim` — the bounded set-associative AIM; only victims with live
//!   bits spill to DRAM.
//! - `Ideal` — infinite capacity, zero latency, zero traffic: the
//!   bound no real AIM geometry can beat.
//!
//! The MESI baseline has no placement and so no store.
//!
//! `fetch`, `push` and `scrub` serve the MESI family's displaced-bits
//! protocol; `ensure_at`, `entry_mut` and `boundary_clear` serve ARC's
//! LLC-side registration protocol. Either family runs with any
//! placement. The engines decide *when* metadata moves, the store
//! decides *what that costs*: NoC messages, DRAM metadata accesses,
//! AIM trace events and hit/miss/spill accounting, charged through the
//! substrate in a fixed order that the golden tests pin.

use crate::access::MetaMap;
use crate::forensics::{DetectPath, DetectSite};
use crate::protocol::Substrate;
use crate::report::AimSummary;
use rce_cache::SetAssoc;
use rce_common::obs::{EventKind, SimEvent};
use rce_common::{
    impl_json_struct, CoreId, Counter, Cycles, LineAddr, LineFlags, LineId, LineMap, MachineConfig,
    MetaPlacement,
};
use rce_dram::AccessKind as DramKind;
use rce_noc::{MsgClass, NodeId};

/// Bytes of a metadata request/response header on the NoC (the entry
/// payload itself is charged via `AimConfig::entry_bytes`).
const META_MSG_BYTES: u64 = 16;

/// What an AIM `ensure` had to do to make a line's entry resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AimOutcome {
    /// The entry was found resident (metadata hit).
    pub hit: bool,
    /// A spilled entry was brought back from the DRAM table (charge a
    /// metadata read).
    pub refilled: bool,
    /// A victim entry with live metadata was spilled to the DRAM table
    /// (charge a metadata write).
    pub spilled: bool,
}

impl_json_struct!(to_json AimOutcome {
    hit,
    refilled,
    spilled,
});

/// One off-chip metadata trip: a request from `from` to `line`'s
/// memory controller at `t`, a DRAM metadata access of one entry, and,
/// if `reply`, the response back to `from`. Returns when the reply
/// arrives, or when the DRAM access completes if there is none.
fn offchip(
    sub: &mut Substrate,
    from: NodeId,
    line: LineAddr,
    kind: DramKind,
    t: Cycles,
    reply: bool,
) -> Cycles {
    let mem = sub.noc.mem_node(line);
    let t1 = sub.send(from, mem, META_MSG_BYTES, MsgClass::Metadata, t);
    let t2 = sub.dram_access(line, sub.cfg.aim.entry_bytes, kind, t1);
    if reply {
        sub.send(mem, from, META_MSG_BYTES, MsgClass::Metadata, t2)
    } else {
        t2
    }
}

// ---------------------------------------------------------- FlatMetaTable

/// Flat line → [`MetaMap`] store: CE's DRAM table, the AIM's overflow
/// table, or the ideal store, by placement.
///
/// Maps live in a dense vector indexed by the run's [`LineId`]s
/// (`Substrate::lines`), so a touch is a hash-free array index.
/// Presence is tracked explicitly, because "absent" and "present but
/// empty" differ (`ensure_at` creates present-but-empty entries); a
/// non-present slot always holds an empty map, so re-inserting a line
/// starts from an empty entry.
#[derive(Debug, Clone, Default)]
struct FlatMetaTable {
    maps: LineMap<MetaMap>,
    present: LineFlags,
}

impl FlatMetaTable {
    /// Number of present entries.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.present.count()
    }

    /// The entry for `id`, creating an empty present entry if absent
    /// (the flat `entry().or_default()`).
    fn entry(&mut self, id: LineId) -> &mut MetaMap {
        self.present.insert(id);
        self.maps.slot(id)
    }

    /// Remove and return `id`'s entry; `(map, was_present)`.
    fn take(&mut self, id: LineId) -> (MetaMap, bool) {
        if self.present.remove(id) {
            (std::mem::take(self.maps.slot(id)), true)
        } else {
            (MetaMap::new(), false)
        }
    }

    /// Clear `core`'s bits in `id`'s entry, dropping the entry if it
    /// empties out; returns whether it did. Absent lines are a no-op.
    fn clear_core(&mut self, id: LineId, core: CoreId) -> bool {
        if !self.present.contains(id) {
            return false;
        }
        let m = self.maps.slot(id);
        m.clear_core(core);
        let gone = m.is_empty();
        if gone {
            self.present.remove(id);
        }
        gone
    }
}

// -------------------------------------------------------------------- Aim

/// The access information memory — the on-chip metadata cache that
/// turns CE into CE+ and backs ARC's LLC-side detection.
///
/// A set-associative cache of [`MetaMap`]s keyed by line address (its
/// set index models the hardware's), physically distributed alongside
/// the LLC banks (an AIM slice sits at each line's home bank, so
/// reaching it costs the same NoC trip a coherence request already
/// makes). Entries evicted from the AIM
/// spill to the store's DRAM table and are refilled on demand. Its
/// latency and entry size are read from `cfg.aim` where they are
/// charged.
#[derive(Debug, Clone)]
struct Aim {
    array: SetAssoc<MetaMap>,
    /// Lookups that found the entry resident.
    hits: Counter,
    /// Lookups that did not.
    misses: Counter,
    /// Entries spilled to DRAM.
    spills: Counter,
    /// Outcome of the most recent `ensure` (forensics provenance).
    last: Option<AimOutcome>,
}

impl Aim {
    /// Make line `id`'s entry resident (allocating an empty one if
    /// truly new), refilling it from or spilling a victim to `table`,
    /// and trace the outcome at `t`.
    fn ensure(
        &mut self,
        table: &mut FlatMetaTable,
        sub: &mut Substrate,
        id: LineId,
        t: Cycles,
    ) -> AimOutcome {
        let line = sub.lines.addr(id);
        let hit = self.array.get_mut(line.0).is_some();
        let (refilled, spilled) = if hit {
            self.hits.inc();
            (false, false)
        } else {
            self.misses.inc();
            let (entry, refilled) = table.take(id);
            let spilled = match self.array.insert(line.0, entry) {
                Some((victim, vmeta)) if !vmeta.is_empty() => {
                    // Every resident entry was ensured through its id.
                    let vid = sub.lines.lookup(LineAddr(victim)).expect("interned");
                    *table.entry(vid) = vmeta;
                    self.spills.inc();
                    true
                }
                _ => false,
            };
            (refilled, spilled)
        };
        let o = AimOutcome {
            hit,
            refilled,
            spilled,
        };
        self.last = Some(o);
        sub.trace(|_| SimEvent {
            cycle: t.0,
            core: None,
            region: None,
            kind: if o.hit {
                EventKind::AimHit { line: line.0 }
            } else {
                EventKind::AimMiss {
                    line: line.0,
                    refilled: o.refilled,
                }
            },
        });
        if o.spilled {
            sub.trace(|_| SimEvent {
                cycle: t.0,
                core: None,
                region: None,
                kind: EventKind::AimSpill { line: line.0 },
            });
        }
        o
    }

    /// The resident entry for `line`. Panics if not ensured first.
    fn entry(&mut self, line: LineAddr) -> &mut MetaMap {
        self.array
            .get_mut(line.0)
            .expect("AIM entry must be ensured before use")
    }

    /// Clear `core`'s bits for line `id` at `line`, wherever the entry
    /// lives (resident, or spilled to `table`).
    fn clear_core(&mut self, table: &mut FlatMetaTable, line: LineAddr, id: LineId, core: CoreId) {
        if let Some(m) = self.array.get_mut(line.0) {
            self.hits.inc();
            m.clear_core(core);
        } else {
            self.misses.inc();
            table.clear_core(id, core);
        }
    }
}

// -------------------------------------------------------------- MetaStore

/// One engine's home for not-in-L1 access bits, with its cost model.
#[derive(Debug, Clone)]
pub(crate) struct MetaStore {
    placement: MetaPlacement,
    /// The AIM array: `Some` exactly for [`MetaPlacement::Aim`].
    aim: Option<Aim>,
    /// The unbounded table: CE's off-chip table (`Dram`), the AIM's
    /// spill table (`Aim`), or the whole store (`Ideal`).
    table: FlatMetaTable,
}

impl MetaStore {
    /// The store `cfg.meta_placement` selects; `None` for
    /// [`MetaPlacement::None`], which config validation pairs with the
    /// MESI baseline alone.
    pub(crate) fn new(cfg: &MachineConfig) -> Option<Self> {
        let aim = match cfg.meta_placement {
            MetaPlacement::None => return None,
            MetaPlacement::Aim => Some(Aim {
                array: SetAssoc::with_entries(cfg.aim.entries, cfg.aim.ways),
                hits: Counter::default(),
                misses: Counter::default(),
                spills: Counter::default(),
                last: None,
            }),
            MetaPlacement::Dram | MetaPlacement::Ideal => None,
        };
        Some(MetaStore {
            placement: cfg.meta_placement,
            aim,
            table: FlatMetaTable::default(),
        })
    }

    /// What a touch of the unbounded table costs outside the AIM: one
    /// off-chip trip from `from` for CE's DRAM table (see [`offchip`]),
    /// nothing for the ideal store, which is done at `t`.
    fn table_cost(
        &self,
        sub: &mut Substrate,
        from: NodeId,
        line: LineAddr,
        kind: DramKind,
        t: Cycles,
        reply: bool,
    ) -> Cycles {
        if self.placement == MetaPlacement::Dram {
            offchip(sub, from, line, kind, t, reply)
        } else {
            t
        }
    }

    /// Consult the store for line `id`'s displaced bits; the request
    /// is at the line's home bank at `t`. Returns the ready time and
    /// the *removed* bits, which ride back into the requesting L1,
    /// matching CE's bits-travel-with-the-line design.
    pub(crate) fn fetch(
        &mut self,
        sub: &mut Substrate,
        id: LineId,
        t: Cycles,
    ) -> (Cycles, MetaMap) {
        if self.aim.is_some() {
            let ready = self.ensure_at(sub, id, t);
            return (ready, std::mem::take(self.entry_mut(sub, id)));
        }
        let line = sub.lines.addr(id);
        let (m, _) = self.table.take(id);
        let bank = sub.bank_node(line);
        let ready = self.table_cost(sub, bank, line, DramKind::MetaRead, t, true);
        (ready, m)
    }

    /// Merge displaced bits (from an evicted or invalidated copy) into
    /// the store. `src` is the node the bits leave from. Off the
    /// critical path: traffic and store occupancy only.
    pub(crate) fn push(
        &mut self,
        sub: &mut Substrate,
        src: NodeId,
        id: LineId,
        meta: MetaMap,
        at: Cycles,
    ) {
        let line = sub.lines.addr(id);
        match &mut self.aim {
            Some(aim) => {
                let bank = sub.bank_node(line);
                let t1 = sub.send(src, bank, META_MSG_BYTES, MsgClass::Metadata, at);
                let o = aim.ensure(&mut self.table, sub, id, at);
                if o.spilled {
                    offchip(sub, bank, line, DramKind::MetaWrite, t1, false);
                }
                if o.refilled {
                    offchip(sub, bank, line, DramKind::MetaRead, t1, false);
                }
                aim.entry(line).merge(&meta);
            }
            None => {
                self.table_cost(sub, src, line, DramKind::MetaWrite, at, false);
                self.table.entry(id).merge(&meta);
            }
        }
    }

    /// Region-end scrub of displaced line `id`: clear `core`'s bits
    /// wherever they live, charging the trip from `src`. Returns the
    /// completion time and whether the line's entry emptied out and
    /// was dropped (so the engine can forget the displacement). The AIM
    /// keeps scrubbed entries resident, so it never reports a drop.
    pub(crate) fn scrub(
        &mut self,
        sub: &mut Substrate,
        src: NodeId,
        core: CoreId,
        id: LineId,
        at: Cycles,
    ) -> (Cycles, bool) {
        let line = sub.lines.addr(id);
        match &mut self.aim {
            Some(aim) => {
                let t1 = sub.send(
                    src,
                    sub.bank_node(line),
                    META_MSG_BYTES,
                    MsgClass::Metadata,
                    at,
                );
                aim.clear_core(&mut self.table, line, id, core);
                (Cycles(t1.0 + sub.cfg.aim.latency), false)
            }
            None => {
                let gone = self.table.clear_core(id, core);
                let done = self.table_cost(sub, src, line, DramKind::MetaWrite, at, false);
                (done, gone)
            }
        }
    }

    /// Make line `id`'s entry usable for [`MetaStore::entry_mut`]; the
    /// request is already at the line's home bank at `t`. Returns when
    /// the entry is ready (after any spill/refill side effects).
    pub(crate) fn ensure_at(&mut self, sub: &mut Substrate, id: LineId, t: Cycles) -> Cycles {
        let line = sub.lines.addr(id);
        let bank = sub.bank_node(line);
        match &mut self.aim {
            Some(aim) => {
                let o = aim.ensure(&mut self.table, sub, id, t);
                let mut ready = Cycles(t.0 + sub.cfg.aim.latency);
                if o.refilled {
                    // The entry itself had spilled to DRAM: fetch it.
                    ready = offchip(sub, bank, line, DramKind::MetaRead, t, true);
                }
                if o.spilled {
                    // Victim spill: traffic only, off the critical path.
                    offchip(sub, bank, line, DramKind::MetaWrite, t, false);
                }
                ready
            }
            None => {
                // The registration consults the table: for CE's, bank
                // -> memory controller -> DRAM -> back.
                self.table.entry(id);
                self.table_cost(sub, bank, line, DramKind::MetaRead, t, true)
            }
        }
    }

    /// The entry for line `id`. The AIM requires a prior
    /// [`MetaStore::ensure_at`] (the entry must be resident); the
    /// unbounded placements allocate on demand.
    pub(crate) fn entry_mut(&mut self, sub: &Substrate, id: LineId) -> &mut MetaMap {
        match &mut self.aim {
            Some(aim) => aim.entry(sub.lines.addr(id)),
            None => self.table.entry(id),
        }
    }

    /// ARC region-end registration clear for line `id`: drop `core`'s
    /// bits, with the clearing message already at the home bank at
    /// `t`. Returns when the clear completes.
    pub(crate) fn boundary_clear(
        &mut self,
        sub: &mut Substrate,
        id: LineId,
        core: CoreId,
        t: Cycles,
    ) -> Cycles {
        let line = sub.lines.addr(id);
        match &mut self.aim {
            Some(aim) => {
                aim.clear_core(&mut self.table, line, id, core);
                Cycles(t.0 + sub.cfg.aim.latency)
            }
            None => {
                self.table.clear_core(id, core);
                // CE's table: the clear is forwarded off chip.
                let bank = sub.bank_node(line);
                self.table_cost(sub, bank, line, DramKind::MetaWrite, t, false)
            }
        }
    }

    /// The AIM's hit/miss/spill statistics; `None` for the placements
    /// without one (the report's AIM section is omitted).
    pub(crate) fn aim_totals(&self) -> Option<AimSummary> {
        // Every lookup is a hit or a miss.
        self.aim.as_ref().map(|a| AimSummary {
            accesses: a.hits.get() + a.misses.get(),
            hits: a.hits.get(),
            misses: a.misses.get(),
            spills: a.spills.get(),
        })
    }

    /// How a conflict found at `site` was detected: this placement,
    /// and the outcome of the most recent AIM `ensure` unless the bits
    /// rode the L1 line, a path with no AIM lookup on it.
    pub(crate) fn path(&self, site: DetectSite) -> DetectPath {
        DetectPath {
            placement: self.placement,
            site,
            aim: self
                .aim
                .as_ref()
                .and_then(|a| a.last)
                .filter(|_| site != DetectSite::L1Bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exception::AccessType;
    use rce_common::check::check_n;
    use rce_common::{prop_assert, prop_assert_eq, ProtocolKind, RegionId, Rng, WordIdx, WordMask};

    /// A store and its substrate, both built from `cfg`.
    fn setup(cfg: &MachineConfig) -> (MetaStore, Substrate) {
        let store = MetaStore::new(cfg).expect("a detecting placement");
        (store, Substrate::new(cfg))
    }

    /// The run's id for line `l`, interning it as an engine would.
    fn id(s: &mut Substrate, l: u64) -> LineId {
        s.lines.intern(LineAddr(l))
    }

    /// CE+ at 4 cores with an AIM of `entries` entries in `ways` ways.
    fn aim_cfg(entries: u64, ways: u32) -> MachineConfig {
        let mut cfg = MachineConfig::paper_default(4, ProtocolKind::CePlus);
        cfg.aim.entries = entries;
        cfg.aim.ways = ways;
        cfg
    }

    fn ideal_cfg() -> MachineConfig {
        MachineConfig::paper_default(4, ProtocolKind::CePlus)
            .with_meta_placement(MetaPlacement::Ideal)
    }

    /// A 4-set, 2-way AIM.
    fn small_aim() -> (MetaStore, Substrate) {
        setup(&aim_cfg(8, 2))
    }

    fn aim(store: &MetaStore) -> &Aim {
        store.aim.as_ref().expect("an AIM placement")
    }

    fn meta_with_bits(core: u16, region: u64) -> MetaMap {
        let mut m = MetaMap::new();
        m.record(
            CoreId(core),
            RegionId(region),
            AccessType::Write,
            WordMask::single(WordIdx(2)),
        );
        m
    }

    #[test]
    fn new_matches_placement() {
        let store =
            |cfg: &MachineConfig| MetaStore::new(cfg).map(|s| (s.placement, s.aim.is_some()));
        let baseline = MachineConfig::paper_default(4, ProtocolKind::MesiBaseline);
        assert_eq!(store(&baseline), None, "the baseline has no store");
        for (proto, want) in [
            (ProtocolKind::Ce, MetaPlacement::Dram),
            (ProtocolKind::CePlus, MetaPlacement::Aim),
            (ProtocolKind::Arc, MetaPlacement::Aim),
        ] {
            let cfg = MachineConfig::paper_default(4, proto);
            assert_eq!(store(&cfg), Some((want, want == MetaPlacement::Aim)));
        }
        assert_eq!(store(&ideal_cfg()), Some((MetaPlacement::Ideal, false)));
    }

    #[test]
    fn ensure_then_entry() {
        let (mut m, mut s) = small_aim();
        let l1 = id(&mut s, 1);
        m.ensure_at(&mut s, l1, Cycles(0));
        assert_eq!(aim(&m).last, Some(AimOutcome::default()), "a cold miss");
        m.entry_mut(&s, l1).record(
            CoreId(0),
            RegionId(1),
            AccessType::Write,
            WordMask::single(WordIdx(0)),
        );
        m.ensure_at(&mut s, l1, Cycles(1));
        assert!(aim(&m).last.is_some_and(|o| o.hit));
        assert_eq!((aim(&m).hits.get(), aim(&m).misses.get()), (1, 1));
    }

    #[test]
    fn spill_and_refill_roundtrip() {
        let (mut m, mut s) = small_aim();
        // Fill set 0 (lines 0, 4) with live metadata, then overflow it.
        for l in [0u64, 4] {
            let l = id(&mut s, l);
            m.ensure_at(&mut s, l, Cycles(0));
            m.entry_mut(&s, l)
                .record(CoreId(0), RegionId(1), AccessType::Read, WordMask::FULL);
        }
        let (l0, l8) = (id(&mut s, 0), id(&mut s, 8));
        m.ensure_at(&mut s, l8, Cycles(0)); // evicts LRU line 0
        assert!(aim(&m).last.is_some_and(|o| o.spilled));
        assert_eq!(m.table.len(), 1);
        // Touching line 0 again refills it from the spill table.
        m.ensure_at(&mut s, l0, Cycles(0));
        assert!(aim(&m).last.is_some_and(|o| o.refilled));
        assert!(
            !m.entry_mut(&s, l0).is_empty(),
            "metadata survived the spill"
        );
        assert!(m.table.len() <= 1);
        assert!(
            s.dram.stats().metadata_bytes().0 > 0,
            "spill and refill go off chip"
        );
    }

    #[test]
    fn empty_victims_are_not_spilled() {
        let (mut m, mut s) = small_aim();
        for l in [0u64, 4, 8] {
            let l = id(&mut s, l);
            m.ensure_at(&mut s, l, Cycles(0)); // all empty entries
        }
        assert_eq!(aim(&m).spills.get(), 0);
        assert_eq!(m.table.len(), 0);
    }

    #[test]
    fn boundary_clear_resident_and_spilled() {
        let (mut m, mut s) = small_aim();
        let line = id(&mut s, 3);
        m.ensure_at(&mut s, line, Cycles(0));
        m.entry_mut(&s, line).record(
            CoreId(2),
            RegionId(5),
            AccessType::Write,
            WordMask::single(WordIdx(1)),
        );
        let t = m.boundary_clear(&mut s, line, CoreId(2), Cycles(10));
        assert_eq!(t, Cycles(10 + s.cfg.aim.latency));
        assert!(m.entry_mut(&s, line).is_empty(), "resident bits cleared");

        // Spilled path.
        m.entry_mut(&s, line).record(
            CoreId(1),
            RegionId(9),
            AccessType::Read,
            WordMask::single(WordIdx(0)),
        );
        let (l7, l11) = (id(&mut s, 7), id(&mut s, 11));
        m.ensure_at(&mut s, l7, Cycles(20));
        m.ensure_at(&mut s, l11, Cycles(20)); // set 3: 3, 7, 11 -> spills line 3
        assert_eq!(m.table.len(), 1);
        m.boundary_clear(&mut s, line, CoreId(1), Cycles(30));
        assert_eq!(m.table.len(), 0, "empty spilled entries are dropped");
    }

    #[test]
    #[should_panic(expected = "ensured")]
    fn entry_requires_ensure() {
        let (mut m, mut s) = small_aim();
        let l = id(&mut s, 42);
        let _ = m.entry_mut(&s, l);
    }

    #[test]
    fn dram_push_fetch_roundtrip_charges_offchip() {
        let (mut m, mut s) = setup(&MachineConfig::paper_default(4, ProtocolKind::Ce));
        let line = id(&mut s, 12);
        let src = s.core_node(CoreId(0));
        m.push(&mut s, src, line, meta_with_bits(0, 0), Cycles(0));
        assert_eq!(m.table.len(), 1);
        assert!(s.dram.stats().metadata_bytes().0 > 0, "push writes DRAM");
        let before = s.dram.stats().metadata_bytes().0;
        let (ready, bits) = m.fetch(&mut s, line, Cycles(100));
        assert!(ready.0 > 100, "fetch is an off-chip round trip");
        assert!(!bits.is_empty(), "bits came back");
        assert_eq!(m.table.len(), 0, "fetch removes the entry");
        assert!(s.dram.stats().metadata_bytes().0 > before);
    }

    #[test]
    fn dram_scrub_reports_emptied_entries() {
        let (mut m, mut s) = setup(&MachineConfig::paper_default(4, ProtocolKind::Ce));
        let line = id(&mut s, 5);
        let src = s.core_node(CoreId(1));
        m.push(&mut s, src, line, meta_with_bits(1, 7), Cycles(0));
        let (t, gone) = m.scrub(&mut s, src, CoreId(1), line, Cycles(50));
        assert!(gone, "the only core's bits were cleared");
        assert!(t.0 > 50, "scrub pays the off-chip write");
        // Scrubbing an absent line still charges (the hardware cannot
        // know the entry is gone without the round trip).
        let (t2, gone2) = m.scrub(&mut s, src, CoreId(1), line, t);
        assert!(!gone2);
        assert!(t2 > t);
    }

    #[test]
    fn ideal_is_free_and_lossless() {
        let (mut m, mut s) = setup(&ideal_cfg());
        let line = id(&mut s, 3);
        let src = s.core_node(CoreId(0));
        let noc0 = s.noc.stats().total_bytes().0;
        let dram0 = s.dram.stats().total_bytes().0;
        m.push(&mut s, src, line, meta_with_bits(0, 0), Cycles(0));
        assert_eq!(m.ensure_at(&mut s, line, Cycles(9)), Cycles(9));
        let t = m.boundary_clear(&mut s, line, CoreId(3), Cycles(11));
        assert_eq!(t, Cycles(11));
        let (ready, bits) = m.fetch(&mut s, line, Cycles(20));
        assert_eq!(ready, Cycles(20), "ideal fetch is instantaneous");
        assert_eq!(bits, meta_with_bits(0, 0), "ideal storage is lossless");
        assert_eq!(s.noc.stats().total_bytes().0, noc0, "no NoC traffic");
        assert_eq!(s.dram.stats().total_bytes().0, dram0, "no DRAM traffic");
        assert!(m.aim_totals().is_none(), "no cache, no hit statistics");
        let path = m.path(DetectSite::DisplacedFetch);
        assert_eq!((path.placement, path.aim), (MetaPlacement::Ideal, None));
    }

    #[test]
    fn aim_fetch_removes_bits_and_counts() {
        let (mut m, mut s) = setup(&MachineConfig::paper_default(4, ProtocolKind::CePlus));
        let line = id(&mut s, 9);
        let src = s.core_node(CoreId(2));
        m.push(&mut s, src, line, meta_with_bits(2, 4), Cycles(0));
        let (ready, bits) = m.fetch(&mut s, line, Cycles(30));
        assert_eq!(
            ready,
            Cycles(30 + s.cfg.aim.latency),
            "resident: latency only"
        );
        assert_eq!(bits, meta_with_bits(2, 4));
        assert!(m.entry_mut(&s, line).is_empty(), "fetch drains the entry");
        let a = m.aim_totals().unwrap();
        assert_eq!((a.accesses, a.hits, a.misses, a.spills), (2, 1, 1, 0));
        assert_eq!(
            s.dram.stats().metadata_bytes().0,
            0,
            "no spill, no off-chip traffic"
        );
        // The last ensure was a hit: a displaced-fetch path reports it,
        // an L1-bits path carries no AIM state.
        assert!(m
            .path(DetectSite::DisplacedFetch)
            .aim
            .is_some_and(|o| o.hit));
        assert_eq!(m.path(DetectSite::L1Bits).aim, None);
    }

    // Property tests: every placement stores bits losslessly, whatever
    // its cost model does. The ideal store *is* the specification (an
    // infinite map with no cost model), so each property compares an
    // AIM against it over random operation sequences. "Observably
    // identical" means every `fetch` returns the same `MetaMap`; timing
    // and traffic are allowed (required, even) to differ.

    /// One packed metadata operation: `(opcode, line, bits)`, a plain
    /// tuple so `Vec<Op>` shrinks through the stock `check` machinery.
    type Op = (u8, u64, u64);

    const LINES: u64 = 16;

    fn decode_side(bits: u64) -> (CoreId, RegionId, AccessType, WordMask) {
        let core = CoreId((bits % 4) as u16);
        let region = RegionId((bits >> 2) % 4);
        let kind = if bits & 0x10 != 0 {
            AccessType::Write
        } else {
            AccessType::Read
        };
        let word = WordMask::single(WordIdx(((bits >> 5) % 8) as u8));
        (core, region, kind, word)
    }

    fn gen_ops(rng: &mut impl Rng, max_len: u64) -> Vec<Op> {
        let n = 1 + rng.gen_range(max_len) as usize;
        (0..n)
            .map(|_| (rng.gen_range(5) as u8, rng.gen_range(LINES), rng.next_u64()))
            .collect()
    }

    /// Drive an AIM store built from `cfg` and the ideal reference
    /// through the same ops, comparing every fetched map; then drain
    /// both and compare the full final state. Returns the AIM store.
    fn aim_matches_ideal(cfg: &MachineConfig, ops: &[Op]) -> Result<MetaStore, String> {
        let (mut real, mut s_real) = setup(cfg);
        let (mut ideal, mut s_ideal) = setup(&ideal_cfg());
        let mut t = 0u64;
        for &(op, line, bits) in ops {
            let (line_r, line_i) = (id(&mut s_real, line), id(&mut s_ideal, line));
            let (core, region, kind, mask) = decode_side(bits);
            t += 10;
            let at = Cycles(t);
            let src = s_real.core_node(core);
            match op % 5 {
                0 => {
                    let mut m = MetaMap::new();
                    m.record(core, region, kind, mask);
                    real.push(&mut s_real, src, line_r, m.clone(), at);
                    ideal.push(&mut s_ideal, src, line_i, m, at);
                }
                1 => {
                    // `gone` flags legitimately differ (the AIM keeps
                    // scrubbed entries resident; the ideal store drops
                    // them): only contents must agree.
                    real.scrub(&mut s_real, src, core, line_r, at);
                    ideal.scrub(&mut s_ideal, src, core, line_i, at);
                }
                2 => {
                    real.boundary_clear(&mut s_real, line_r, core, at);
                    ideal.boundary_clear(&mut s_ideal, line_i, core, at);
                }
                3 => {
                    // ARC-style registration: ensure, then record in place.
                    real.ensure_at(&mut s_real, line_r, at);
                    ideal.ensure_at(&mut s_ideal, line_i, at);
                    real.entry_mut(&s_real, line_r)
                        .record(core, region, kind, mask);
                    ideal
                        .entry_mut(&s_ideal, line_i)
                        .record(core, region, kind, mask);
                }
                _ => {
                    let (_, got) = real.fetch(&mut s_real, line_r, at);
                    let (_, want) = ideal.fetch(&mut s_ideal, line_i, at);
                    prop_assert_eq!(got, want, "fetch of line {line} diverged mid-sequence");
                }
            }
        }
        // Drain everything: the final states must agree line for line.
        for l in 0..LINES {
            let (line_r, line_i) = (id(&mut s_real, l), id(&mut s_ideal, l));
            let at = Cycles(t + 10 + l);
            let (_, got) = real.fetch(&mut s_real, line_r, at);
            let (_, want) = ideal.fetch(&mut s_ideal, line_i, at);
            prop_assert_eq!(got, want, "final state of line {l} diverged");
        }
        Ok(real)
    }

    /// With capacity for every line, the AIM never spills and behaves
    /// exactly like the infinite ideal store.
    #[test]
    fn unbounded_aim_is_observably_ideal() {
        check_n(
            "unbounded_aim_is_observably_ideal",
            64,
            |rng| gen_ops(rng, 120),
            |ops| {
                let aim = aim_matches_ideal(&aim_cfg(256, 16), ops)?;
                prop_assert!(
                    aim.aim_totals().unwrap().spills == 0,
                    "capacity AIM must not spill"
                );
                prop_assert!(aim.table.len() == 0, "nothing may reach the spill table");
                Ok(())
            },
        );
    }

    /// A thrashing AIM (4 entries, direct-mapped) spills and refills
    /// constantly, yet no metadata is ever lost or corrupted on the way
    /// through the DRAM spill table.
    #[test]
    fn spill_refill_roundtrip_is_lossless() {
        let tiny = aim_cfg(4, 1);
        check_n(
            "spill_refill_roundtrip_is_lossless",
            64,
            |rng| gen_ops(rng, 64),
            |ops| aim_matches_ideal(&tiny, ops).map(drop),
        );
        // The property is vacuous if nothing ever spilled; run one long
        // deterministic sequence and insist the spill path was exercised.
        let ops: Vec<Op> = (0..256)
            .map(|i| (0u8, i % LINES, 0x17 + (i << 5)))
            .collect();
        let aim = aim_matches_ideal(&tiny, &ops).unwrap();
        assert!(
            aim.aim_totals().unwrap().spills > 0,
            "the thrashing AIM never spilled"
        );
    }
}
