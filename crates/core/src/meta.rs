//! The metadata layer: pluggable backends for displaced/registered
//! access bits.
//!
//! Every detection design needs a home for access metadata that is no
//! longer attached to a private cache line: CE keeps it in an off-chip
//! DRAM table, CE+ and ARC in the on-chip **access information memory
//! (AIM)** colocated with the LLC banks, spilling AIM victims to a
//! DRAM overflow table. The [`MetaBackend`] trait captures everything
//! the coherence layers need from that store — fetch/push/scrub for
//! the MESI family's displaced-bits protocol, ensure/entry/clear for
//! ARC's LLC-side registration protocol — and each implementation owns
//! its full cost model: NoC messages, DRAM metadata accesses,
//! AIM trace events, and hit/miss/spill accounting.
//!
//! Placements ([`rce_common::MetaPlacement`]):
//! - [`DramMeta`] — CE's table; every touch is an off-chip round trip.
//! - [`AimMeta`] — the bounded set-associative AIM; only victims with
//!   live bits spill to DRAM.
//! - [`IdealMeta`] — infinite capacity, zero latency, zero traffic:
//!   the bound no real AIM geometry can beat.
//!
//! The MESI baseline has no placement and so no backend.
//!
//! The engines stay storage-agnostic: they decide *when* metadata
//! moves, the backend decides *what that costs*.

use crate::access::MetaMap;
use crate::protocol::Substrate;
use crate::report::AimSummary;
use rce_cache::SetAssoc;
use rce_common::obs::{EventKind, SimEvent};
use rce_common::{
    impl_json_struct, AimConfig, CoreId, Counter, Cycles, LineAddr, LineFlags, LineMap, LineTable,
    MachineConfig, MetaPlacement,
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

/// One home for not-in-L1 access metadata, with its cost model.
///
/// The first three methods implement the MESI family's displaced-bits
/// protocol, the last three ARC's LLC-side registration protocol; both
/// families may be composed with any placement. Implementations must
/// charge their NoC/DRAM costs through `sub` in a fixed order — the
/// byte-identity golden tests pin the resulting contention patterns.
pub trait MetaBackend {
    /// Consult the store for displaced metadata of `line`; the request
    /// is at the line's home bank at `t`. Returns the ready time and
    /// the *removed* metadata — bits ride back into the requesting L1,
    /// matching CE's bits-travel-with-the-line design.
    fn fetch(&mut self, sub: &mut Substrate, line: LineAddr, t: Cycles) -> (Cycles, MetaMap);

    /// Merge displaced metadata (from an evicted/invalidated copy)
    /// into the store. `src` is the node the bits leave from. Off the
    /// critical path: traffic and store occupancy only.
    fn push(&mut self, sub: &mut Substrate, src: NodeId, line: LineAddr, meta: MetaMap, at: Cycles);

    /// Region-end scrub of one displaced line: clear `core`'s bits
    /// wherever they live, charging the round trip from `src`. Returns
    /// the completion time and whether the line's entry emptied out
    /// and was dropped (so the engine can forget the displacement).
    fn scrub(
        &mut self,
        sub: &mut Substrate,
        src: NodeId,
        core: CoreId,
        line: LineAddr,
        at: Cycles,
    ) -> (Cycles, bool);

    /// Make `line`'s entry usable for [`MetaBackend::entry_mut`]; the
    /// request is already at the line's home bank at `t`. Returns when
    /// the entry is ready (after any spill/refill side effects).
    fn ensure_at(&mut self, sub: &mut Substrate, line: LineAddr, t: Cycles) -> Cycles;

    /// The entry for `line`. For the AIM this requires a prior
    /// [`MetaBackend::ensure_at`] (the entry must be resident);
    /// unbounded placements allocate on demand.
    fn entry_mut(&mut self, line: LineAddr) -> &mut MetaMap;

    /// ARC region-end registration clear for one line: drop `core`'s
    /// bits, with the clearing message already at the home bank at
    /// `t`. Returns when the clear completes.
    fn boundary_clear(
        &mut self,
        sub: &mut Substrate,
        line: LineAddr,
        core: CoreId,
        t: Cycles,
    ) -> Cycles;

    /// Hit/miss/spill statistics when the placement has a meaningful
    /// cache behind it; `None` otherwise (the report's AIM section is
    /// omitted).
    fn totals(&self) -> Option<AimSummary> {
        None
    }

    /// The outcome of the most recent AIM `ensure`, for forensics
    /// provenance: what the metadata cache had to do the last time an
    /// entry was made resident. `None` for placements without a
    /// bounded cache (DRAM/ideal never hit, miss, or spill).
    fn last_outcome(&self) -> Option<AimOutcome> {
        None
    }

    /// Which placement this backend implements.
    fn placement(&self) -> MetaPlacement;
}

/// Build the backend selected by `cfg.meta_placement`; `None` for
/// [`MetaPlacement::None`], which config validation pairs with the MESI
/// baseline alone.
pub(crate) fn backend_for(cfg: &MachineConfig) -> Option<Box<dyn MetaBackend>> {
    Some(match cfg.meta_placement {
        MetaPlacement::None => return None,
        MetaPlacement::Dram => Box::new(DramMeta::new()),
        MetaPlacement::Aim => Box::new(AimMeta::new(&cfg.aim)),
        MetaPlacement::Ideal => Box::new(IdealMeta::new()),
    })
}

/// One off-chip metadata trip: a request from `from` to `line`'s
/// memory controller at `t`, a DRAM metadata access of `bytes`, and,
/// if `reply`, the response back to `from`. Returns when the reply
/// arrives, or when the DRAM access completes if there is none.
fn offchip(
    sub: &mut Substrate,
    from: NodeId,
    line: LineAddr,
    bytes: u64,
    kind: DramKind,
    t: Cycles,
    reply: bool,
) -> Cycles {
    let mem = sub.noc.mem_node(line);
    let t1 = sub
        .noc
        .send(from, mem, META_MSG_BYTES, MsgClass::Metadata, t);
    let t2 = sub.dram.access(line, bytes, kind, t1);
    if reply {
        sub.noc
            .send(mem, from, META_MSG_BYTES, MsgClass::Metadata, t2)
    } else {
        t2
    }
}

// ---------------------------------------------------------- FlatMetaTable

/// Flat line → [`MetaMap`] store shared by every unbounded table in
/// this module (CE's DRAM table, the AIM overflow table, the ideal
/// store).
///
/// Lines are interned once into a [`LineTable`] and maps live in a
/// dense vector, so the per-access path is a hash-free array index
/// after the first touch of a line. Presence is tracked explicitly,
/// because "absent" and "present but empty" differ (`ensure_at`
/// creates present-but-empty entries); a non-present slot always holds
/// an empty map, so re-inserting a line starts from an empty entry.
#[derive(Debug, Clone, Default)]
struct FlatMetaTable {
    table: LineTable,
    maps: LineMap<MetaMap>,
    present: LineFlags,
}

impl FlatMetaTable {
    /// Number of present entries.
    fn len(&self) -> usize {
        self.present.count()
    }

    /// The entry for `line`, creating an empty present entry if absent
    /// (the flat `entry().or_default()`).
    fn entry(&mut self, line: LineAddr) -> &mut MetaMap {
        let id = self.table.intern(line);
        self.present.insert(id);
        self.maps.slot(id)
    }

    /// Remove and return `line`'s entry; `(map, was_present)`.
    fn take(&mut self, line: LineAddr) -> (MetaMap, bool) {
        match self.table.lookup(line) {
            Some(id) if self.present.contains(id) => {
                self.present.remove(id);
                (std::mem::take(self.maps.slot(id)), true)
            }
            _ => (MetaMap::new(), false),
        }
    }

    /// Clear `core`'s bits in `line`'s entry, dropping the entry if it
    /// empties out; `(had_bits, entry_gone)`. Absent lines are a
    /// no-op.
    fn clear_core(&mut self, line: LineAddr, core: CoreId) -> (bool, bool) {
        match self.table.lookup(line) {
            Some(id) if self.present.contains(id) => {
                let m = self.maps.slot(id);
                let had = m.clear_core(core);
                let gone = m.is_empty();
                if gone {
                    self.present.remove(id);
                }
                (had, gone)
            }
            _ => (false, false),
        }
    }
}

// --------------------------------------------------------------- DramMeta

/// CE's off-chip metadata table: a DRAM-resident map, reached through
/// the line's home bank and memory controller. Every touch is a full
/// off-chip round trip — the metadata tax CE+ exists to remove.
#[derive(Debug, Clone, Default)]
pub(crate) struct DramMeta {
    table: FlatMetaTable,
}

impl DramMeta {
    /// Empty table.
    pub(crate) fn new() -> Self {
        DramMeta::default()
    }

    /// Number of lines with displaced metadata.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.table.len()
    }
}

impl MetaBackend for DramMeta {
    fn fetch(&mut self, sub: &mut Substrate, line: LineAddr, t: Cycles) -> (Cycles, MetaMap) {
        let (m, _) = self.table.take(line);
        let (bank, bytes) = (sub.bank_node(line), sub.cfg.aim.entry_bytes);
        (
            offchip(sub, bank, line, bytes, DramKind::MetaRead, t, true),
            m,
        )
    }

    fn push(
        &mut self,
        sub: &mut Substrate,
        src: NodeId,
        line: LineAddr,
        meta: MetaMap,
        at: Cycles,
    ) {
        let bytes = sub.cfg.aim.entry_bytes;
        offchip(sub, src, line, bytes, DramKind::MetaWrite, at, false);
        self.table.entry(line).merge(&meta);
    }

    fn scrub(
        &mut self,
        sub: &mut Substrate,
        src: NodeId,
        core: CoreId,
        line: LineAddr,
        at: Cycles,
    ) -> (Cycles, bool) {
        let (_, gone) = self.table.clear_core(line, core);
        let bytes = sub.cfg.aim.entry_bytes;
        (
            offchip(sub, src, line, bytes, DramKind::MetaWrite, at, false),
            gone,
        )
    }

    fn ensure_at(&mut self, sub: &mut Substrate, line: LineAddr, t: Cycles) -> Cycles {
        // The registration must consult the off-chip table: bank ->
        // memory controller -> DRAM -> back.
        self.table.entry(line);
        let (bank, bytes) = (sub.bank_node(line), sub.cfg.aim.entry_bytes);
        offchip(sub, bank, line, bytes, DramKind::MetaRead, t, true)
    }

    fn entry_mut(&mut self, line: LineAddr) -> &mut MetaMap {
        self.table.entry(line)
    }

    fn boundary_clear(
        &mut self,
        sub: &mut Substrate,
        line: LineAddr,
        core: CoreId,
        t: Cycles,
    ) -> Cycles {
        self.table.clear_core(line, core);
        // The clear is forwarded to the off-chip table.
        let (bank, bytes) = (sub.bank_node(line), sub.cfg.aim.entry_bytes);
        offchip(sub, bank, line, bytes, DramKind::MetaWrite, t, false)
    }

    fn placement(&self) -> MetaPlacement {
        MetaPlacement::Dram
    }
}

// ---------------------------------------------------------------- AimMeta

/// The access information memory — the on-chip metadata cache that
/// turns CE into CE+ and backs ARC's LLC-side detection.
///
/// A set-associative cache of [`MetaMap`]s keyed by line address,
/// physically distributed alongside the LLC banks (an AIM slice sits
/// at each line's home bank, so reaching it costs the same NoC trip a
/// coherence request already makes). Entries evicted from the AIM
/// spill to a DRAM-backed table and are refilled on demand.
#[derive(Debug, Clone)]
pub struct AimMeta {
    array: SetAssoc<MetaMap>,
    /// DRAM-backed overflow table.
    backing: FlatMetaTable,
    /// Entry size in bytes when spilled / transferred.
    pub entry_bytes: u64,
    /// Access latency in cycles.
    pub latency: u64,
    /// Lookups that found the entry resident.
    pub hits: Counter,
    /// Lookups that did not.
    pub misses: Counter,
    /// Entries spilled to DRAM.
    pub spills: Counter,
    /// Outcome of the most recent `ensure` (forensics provenance).
    last: Option<AimOutcome>,
}

impl AimMeta {
    /// Build from configuration.
    pub fn new(cfg: &AimConfig) -> Self {
        AimMeta {
            array: SetAssoc::with_entries(cfg.entries, cfg.ways),
            backing: FlatMetaTable::default(),
            entry_bytes: cfg.entry_bytes,
            latency: cfg.latency,
            hits: Counter::default(),
            misses: Counter::default(),
            spills: Counter::default(),
            last: None,
        }
    }

    /// Make `line`'s entry resident (allocating an empty one if truly
    /// new), possibly refilling from or spilling to the DRAM table.
    pub(crate) fn ensure(&mut self, line: LineAddr) -> AimOutcome {
        let outcome = if self.array.contains(line.0) {
            self.hits.inc();
            // Touch for recency.
            let _ = self.array.get_mut(line.0);
            AimOutcome {
                hit: true,
                ..Default::default()
            }
        } else {
            self.misses.inc();
            let (entry, refilled) = self.backing.take(line);
            let mut spilled = false;
            if let Some((victim, vmeta)) = self.array.insert(line.0, entry) {
                if !vmeta.is_empty() {
                    *self.backing.entry(LineAddr(victim)) = vmeta;
                    self.spills.inc();
                    spilled = true;
                }
            }
            AimOutcome {
                hit: false,
                refilled,
                spilled,
            }
        };
        self.last = Some(outcome);
        outcome
    }

    /// The resident entry for `line`. Panics if not ensured first.
    pub(crate) fn entry(&mut self, line: LineAddr) -> &mut MetaMap {
        self.array
            .get_mut(line.0)
            .expect("AIM entry must be ensured before use")
    }

    /// Scrub one core's bits for `line`, wherever the entry lives
    /// (resident or spilled). Returns true if bits were present.
    pub(crate) fn clear_core(&mut self, line: LineAddr, core: CoreId) -> bool {
        if let Some(m) = self.array.get_mut(line.0) {
            self.hits.inc();
            return m.clear_core(core);
        }
        self.misses.inc();
        let (had, _) = self.backing.clear_core(line, core);
        had
    }

    /// Spilled entry count.
    pub fn spilled_entries(&self) -> usize {
        self.backing.len()
    }

    /// Emit the hit/miss (and spill) trace events for one `ensure`.
    fn trace_outcome(&self, sub: &Substrate, line: LineAddr, o: AimOutcome, t: Cycles) {
        sub.trace(|| SimEvent {
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
            sub.trace(|| SimEvent {
                cycle: t.0,
                core: None,
                region: None,
                kind: EventKind::AimSpill { line: line.0 },
            });
        }
    }
}

impl MetaBackend for AimMeta {
    fn fetch(&mut self, sub: &mut Substrate, line: LineAddr, t: Cycles) -> (Cycles, MetaMap) {
        let ready = self.ensure_at(sub, line, t);
        (ready, std::mem::take(self.entry(line)))
    }

    fn push(
        &mut self,
        sub: &mut Substrate,
        src: NodeId,
        line: LineAddr,
        meta: MetaMap,
        at: Cycles,
    ) {
        let bank = sub.bank_node(line);
        let t1 = sub
            .noc
            .send(src, bank, META_MSG_BYTES, MsgClass::Metadata, at);
        let o = self.ensure(line);
        self.trace_outcome(sub, line, o, at);
        let bytes = self.entry_bytes;
        if o.spilled {
            offchip(sub, bank, line, bytes, DramKind::MetaWrite, t1, false);
        }
        if o.refilled {
            offchip(sub, bank, line, bytes, DramKind::MetaRead, t1, false);
        }
        self.entry(line).merge(&meta);
    }

    fn scrub(
        &mut self,
        sub: &mut Substrate,
        src: NodeId,
        core: CoreId,
        line: LineAddr,
        at: Cycles,
    ) -> (Cycles, bool) {
        let bank = sub.bank_node(line);
        let t1 = sub
            .noc
            .send(src, bank, META_MSG_BYTES, MsgClass::Metadata, at);
        self.clear_core(line, core);
        (Cycles(t1.0 + self.latency), false)
    }

    fn ensure_at(&mut self, sub: &mut Substrate, line: LineAddr, t: Cycles) -> Cycles {
        let o = self.ensure(line);
        self.trace_outcome(sub, line, o, t);
        let (bank, bytes) = (sub.bank_node(line), self.entry_bytes);
        let mut ready = Cycles(t.0 + self.latency);
        if o.refilled {
            // The entry itself had spilled to DRAM: fetch it.
            ready = offchip(sub, bank, line, bytes, DramKind::MetaRead, t, true);
        }
        if o.spilled {
            // Victim spill: traffic only, off the critical path.
            offchip(sub, bank, line, bytes, DramKind::MetaWrite, t, false);
        }
        ready
    }

    fn entry_mut(&mut self, line: LineAddr) -> &mut MetaMap {
        self.entry(line)
    }

    fn boundary_clear(
        &mut self,
        _sub: &mut Substrate,
        line: LineAddr,
        core: CoreId,
        t: Cycles,
    ) -> Cycles {
        self.clear_core(line, core);
        Cycles(t.0 + self.latency)
    }

    fn totals(&self) -> Option<AimSummary> {
        // Every lookup is a hit or a miss.
        Some(AimSummary {
            accesses: self.hits.get() + self.misses.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            spills: self.spills.get(),
        })
    }

    fn last_outcome(&self) -> Option<AimOutcome> {
        self.last
    }

    fn placement(&self) -> MetaPlacement {
        MetaPlacement::Aim
    }
}

// -------------------------------------------------------------- IdealMeta

/// An infinite zero-latency metadata store: never spills, never pays a
/// cycle or a byte. Physically unbuildable; it bounds from below what
/// any AIM geometry could achieve, which is exactly what the
/// sensitivity study needs.
#[derive(Debug, Clone, Default)]
pub struct IdealMeta {
    table: FlatMetaTable,
}

impl IdealMeta {
    /// Empty store.
    pub fn new() -> Self {
        IdealMeta::default()
    }
}

impl MetaBackend for IdealMeta {
    fn fetch(&mut self, _sub: &mut Substrate, line: LineAddr, t: Cycles) -> (Cycles, MetaMap) {
        (t, self.table.take(line).0)
    }

    fn push(
        &mut self,
        _sub: &mut Substrate,
        _src: NodeId,
        line: LineAddr,
        meta: MetaMap,
        _at: Cycles,
    ) {
        self.table.entry(line).merge(&meta);
    }

    fn scrub(
        &mut self,
        _sub: &mut Substrate,
        _src: NodeId,
        core: CoreId,
        line: LineAddr,
        at: Cycles,
    ) -> (Cycles, bool) {
        let (_, gone) = self.table.clear_core(line, core);
        (at, gone)
    }

    fn ensure_at(&mut self, _sub: &mut Substrate, line: LineAddr, t: Cycles) -> Cycles {
        self.table.entry(line);
        t
    }

    fn entry_mut(&mut self, line: LineAddr) -> &mut MetaMap {
        self.table.entry(line)
    }

    fn boundary_clear(
        &mut self,
        _sub: &mut Substrate,
        line: LineAddr,
        core: CoreId,
        t: Cycles,
    ) -> Cycles {
        self.table.clear_core(line, core);
        t
    }

    fn placement(&self) -> MetaPlacement {
        MetaPlacement::Ideal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exception::AccessType;
    use rce_common::{ProtocolKind, RegionId, WordIdx, WordMask};

    fn small_aim() -> AimMeta {
        AimMeta::new(&AimConfig {
            entries: 8,
            ways: 2,
            latency: 4,
            entry_bytes: 16,
        })
    }

    #[test]
    fn ensure_then_entry() {
        let mut a = small_aim();
        let o = a.ensure(LineAddr(1));
        assert!(!o.hit && !o.refilled && !o.spilled);
        a.entry(LineAddr(1)).record(
            CoreId(0),
            RegionId(1),
            AccessType::Write,
            WordMask::single(WordIdx(0)),
        );
        let o = a.ensure(LineAddr(1));
        assert!(o.hit);
        assert_eq!((a.hits.get(), a.misses.get()), (1, 1));
    }

    #[test]
    fn spill_and_refill_roundtrip() {
        let mut a = small_aim(); // 4 sets x 2 ways
                                 // Fill set 0 (lines 0, 4) with live metadata, then overflow it.
        for l in [0u64, 4] {
            a.ensure(LineAddr(l));
            a.entry(LineAddr(l))
                .record(CoreId(0), RegionId(1), AccessType::Read, WordMask::FULL);
        }
        let o = a.ensure(LineAddr(8)); // same set, evicts LRU (line 0)
        assert!(o.spilled);
        assert_eq!(a.spilled_entries(), 1);
        // Touching line 0 again refills from backing.
        let o = a.ensure(LineAddr(0));
        assert!(o.refilled);
        assert!(
            !a.entry(LineAddr(0)).is_empty(),
            "metadata survived the spill"
        );
        assert!(a.spilled_entries() <= 1);
    }

    #[test]
    fn empty_victims_are_not_spilled() {
        let mut a = small_aim();
        for l in [0u64, 4, 8] {
            a.ensure(LineAddr(l)); // all empty entries
        }
        assert_eq!(a.spills.get(), 0);
        assert_eq!(a.spilled_entries(), 0);
    }

    #[test]
    fn clear_core_resident_and_spilled() {
        let mut a = small_aim();
        a.ensure(LineAddr(3));
        a.entry(LineAddr(3)).record(
            CoreId(2),
            RegionId(5),
            AccessType::Write,
            WordMask::single(WordIdx(1)),
        );
        assert!(a.clear_core(LineAddr(3), CoreId(2)));
        assert!(!a.clear_core(LineAddr(3), CoreId(2)));

        // Spilled path.
        a.entry(LineAddr(3)).record(
            CoreId(1),
            RegionId(9),
            AccessType::Read,
            WordMask::single(WordIdx(0)),
        );
        a.ensure(LineAddr(7));
        a.ensure(LineAddr(11)); // set 3: 3, 7, 11 -> spills line 3
        assert_eq!(a.spilled_entries(), 1);
        assert!(a.clear_core(LineAddr(3), CoreId(1)));
        assert_eq!(a.spilled_entries(), 0, "empty spilled entries are dropped");
    }

    #[test]
    #[should_panic(expected = "ensured")]
    fn entry_requires_ensure() {
        let mut a = small_aim();
        let _ = a.entry(LineAddr(42));
    }

    fn sub() -> Substrate {
        Substrate::new(&MachineConfig::paper_default(4, ProtocolKind::CePlus))
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

    /// Property (interned-storage equivalence): an AIM big enough to
    /// never evict holds exactly the metadata the ideal unbounded
    /// store does, under any interleaving of the `MetaBackend` ops.
    /// Timing differs (the AIM charges latency); contents must not.
    #[test]
    fn prop_unbounded_aim_equals_ideal() {
        use rce_common::check::check_n;
        use rce_common::{prop_assert, prop_assert_eq, Rng, SplitMix64};
        check_n(
            "prop_unbounded_aim_equals_ideal",
            64,
            |rng: &mut SplitMix64| {
                let n = 1 + rng.gen_range(120) as usize;
                (0..n).map(|_| rng.next_u64()).collect::<Vec<u64>>()
            },
            |ops| {
                let mut s = sub();
                // 1024 entries / 16 distinct lines: no eviction, so no
                // spill path — the AIM degenerates to an unbounded map.
                let mut aim = AimMeta::new(&AimConfig {
                    entries: 1024,
                    ways: 4,
                    latency: 4,
                    entry_bytes: 16,
                });
                let mut ideal = IdealMeta::new();
                let src = s.core_node(CoreId(0));
                for (step, &raw) in ops.iter().enumerate() {
                    let line = LineAddr((raw >> 8) % 16);
                    let core = CoreId(((raw >> 16) % 4) as u16);
                    let region = RegionId((raw >> 24) % 8);
                    let at = Cycles(step as u64 * 10);
                    match raw % 5 {
                        0 => {
                            // Displaced-bits push of one core's access.
                            let mut m = MetaMap::new();
                            m.record(
                                core,
                                region,
                                if raw & 1 == 0 {
                                    AccessType::Read
                                } else {
                                    AccessType::Write
                                },
                                WordMask::single(WordIdx(((raw >> 32) % 8) as u8)),
                            );
                            aim.push(&mut s, src, line, m.clone(), at);
                            ideal.push(&mut s, src, line, m, at);
                        }
                        1 => {
                            let (_, got_a) = aim.fetch(&mut s, line, at);
                            let (_, got_i) = ideal.fetch(&mut s, line, at);
                            prop_assert_eq!(got_a, got_i, "fetched bits diverge at op {step}");
                        }
                        2 => {
                            // `gone` flags legitimately differ (the AIM
                            // keeps scrubbed entries resident; the ideal
                            // store drops them) — only contents must
                            // agree, which the fetches below check.
                            let _ = aim.scrub(&mut s, src, core, line, at);
                            let _ = ideal.scrub(&mut s, src, core, line, at);
                        }
                        3 => {
                            // ARC-style registration write-through.
                            aim.ensure_at(&mut s, line, at);
                            ideal.ensure_at(&mut s, line, at);
                            aim.entry_mut(line).record(
                                core,
                                region,
                                AccessType::Write,
                                WordMask::single(WordIdx(0)),
                            );
                            ideal.entry_mut(line).record(
                                core,
                                region,
                                AccessType::Write,
                                WordMask::single(WordIdx(0)),
                            );
                        }
                        _ => {
                            aim.boundary_clear(&mut s, line, core, at);
                            ideal.boundary_clear(&mut s, line, core, at);
                        }
                    }
                    if let Some(a) = aim.totals() {
                        prop_assert_eq!(a.spills, 0, "unbounded AIM must never spill");
                    }
                }
                // Final sweep: every line's surviving metadata matches.
                for l in 0..16u64 {
                    let at = Cycles(1_000_000);
                    let (_, got_a) = aim.fetch(&mut s, LineAddr(l), at);
                    let (_, got_i) = ideal.fetch(&mut s, LineAddr(l), at);
                    prop_assert_eq!(got_a, got_i, "line {l} diverges in the final sweep");
                }
                prop_assert!(
                    aim.spilled_entries() == 0,
                    "nothing may have reached the overflow table"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn backend_for_matches_placement() {
        let placement = |cfg: &MachineConfig| backend_for(cfg).map(|b| b.placement());
        let baseline = MachineConfig::paper_default(4, ProtocolKind::MesiBaseline);
        assert_eq!(placement(&baseline), None, "the baseline has no backend");
        for (proto, want) in [
            (ProtocolKind::Ce, MetaPlacement::Dram),
            (ProtocolKind::CePlus, MetaPlacement::Aim),
            (ProtocolKind::Arc, MetaPlacement::Aim),
        ] {
            let cfg = MachineConfig::paper_default(4, proto);
            assert_eq!(placement(&cfg), Some(want));
        }
        let cfg = MachineConfig::paper_default(4, ProtocolKind::CePlus)
            .with_meta_placement(MetaPlacement::Ideal);
        assert_eq!(placement(&cfg), Some(MetaPlacement::Ideal));
    }

    #[test]
    fn dram_push_fetch_roundtrip_charges_offchip() {
        let mut s = sub();
        let mut b = DramMeta::new();
        let line = LineAddr(12);
        let src = s.core_node(CoreId(0));
        b.push(&mut s, src, line, meta_with_bits(0, 0), Cycles(0));
        assert_eq!(b.entries(), 1);
        assert!(s.dram.stats().metadata_bytes().0 > 0, "push writes DRAM");
        let before = s.dram.stats().metadata_bytes().0;
        let (ready, m) = b.fetch(&mut s, line, Cycles(100));
        assert!(ready.0 > 100, "fetch is an off-chip round trip");
        assert!(!m.is_empty(), "bits came back");
        assert_eq!(b.entries(), 0, "fetch removes the entry");
        assert!(s.dram.stats().metadata_bytes().0 > before);
    }

    #[test]
    fn dram_scrub_reports_emptied_entries() {
        let mut s = sub();
        let mut b = DramMeta::new();
        let line = LineAddr(5);
        let src = s.core_node(CoreId(1));
        b.push(&mut s, src, line, meta_with_bits(1, 7), Cycles(0));
        let (t, gone) = b.scrub(&mut s, src, CoreId(1), line, Cycles(50));
        assert!(gone, "the only core's bits were cleared");
        assert!(t.0 > 50, "scrub pays the off-chip write");
        // Scrubbing an absent line still charges (the hardware cannot
        // know the entry is gone without the round trip).
        let (_, gone2) = b.scrub(&mut s, src, CoreId(1), line, t);
        assert!(!gone2);
    }

    #[test]
    fn ideal_is_free_and_lossless() {
        let mut s = sub();
        let mut b = IdealMeta::new();
        let line = LineAddr(3);
        let src = s.core_node(CoreId(0));
        let noc0 = s.noc.stats().total_bytes().0;
        let dram0 = s.dram.stats().total_bytes().0;
        b.push(&mut s, src, line, meta_with_bits(0, 0), Cycles(0));
        assert_eq!(b.ensure_at(&mut s, line, Cycles(9)), Cycles(9));
        let t = b.boundary_clear(&mut s, line, CoreId(3), Cycles(11));
        assert_eq!(t, Cycles(11));
        let (ready, m) = b.fetch(&mut s, line, Cycles(20));
        assert_eq!(ready, Cycles(20), "ideal fetch is instantaneous");
        assert_eq!(m, meta_with_bits(0, 0), "ideal storage is lossless");
        assert_eq!(s.noc.stats().total_bytes().0, noc0, "no NoC traffic");
        assert_eq!(s.dram.stats().total_bytes().0, dram0, "no DRAM traffic");
        assert!(b.totals().is_none(), "no cache, no hit statistics");
    }

    #[test]
    fn aim_backend_fetch_removes_bits_and_counts() {
        let mut s = sub();
        let mut b = AimMeta::new(&s.cfg.aim.clone());
        let line = LineAddr(9);
        let src = s.core_node(CoreId(2));
        b.push(&mut s, src, line, meta_with_bits(2, 4), Cycles(0));
        let (ready, m) = b.fetch(&mut s, line, Cycles(30));
        assert_eq!(ready, Cycles(30 + b.latency), "resident: latency only");
        assert_eq!(m, meta_with_bits(2, 4));
        assert!(b.entry(line).is_empty(), "fetch drains the entry");
        let a = b.totals().unwrap();
        assert_eq!((a.accesses, a.hits, a.misses, a.spills), (2, 1, 1, 0));
        assert_eq!(
            s.dram.stats().metadata_bytes().0,
            0,
            "no spill, no off-chip traffic"
        );
    }
}
