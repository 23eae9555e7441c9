//! The engine and the shared substrate.
//!
//! A [`Substrate`] bundles everything all four designs share: the NoC,
//! the DRAM, the shared LLC, the run's one line intern table, the
//! per-core region clocks, the event counters the energy model
//! consumes, the fast-path switch and the run's one event ring. An
//! [`Engine`] is one of the two
//! coherence mechanisms the designs come from, and implements a
//! design's behavior for the three things designs differ on: memory
//! accesses, region boundaries, and what state they attach to lines.
//! The sharer directory is such state: the MESI family keeps one
//! beside its other per-line tables, while ARC has none (it only
//! charges classification lookups at the bank to `dir_accesses`).
//! The enum is closed, so the driver holds it by value, and each of
//! its methods matches once.

use crate::engines::{ArcEngine, MesiFamilyEngine};
use crate::exception::{AccessType, ConflictException};
use crate::forensics::DetectPath;
use crate::report::AimSummary;
use rce_cache::Llc;
use rce_common::obs::{EventKind, SimEvent, Tracer};
use rce_common::{
    Addr, CoreId, Counter, Cycles, LineAddr, LineTable, MachineConfig, ProtocolKind, RceResult,
    RegionId, WordMask,
};
use rce_dram::{AccessKind as DramKind, Dram};
use rce_noc::{MsgClass, Noc, NodeId};

/// The completion of one memory access.
#[derive(Debug, Clone)]
pub struct AccessResult {
    /// When the access completes (the core stalls until then).
    pub done: Cycles,
    /// Conflicts detected while performing it.
    pub exceptions: Vec<ConflictException>,
    /// How the engine found `exceptions`: one provenance path for the
    /// whole access, since every exception of one access is found by
    /// the same check. `Some` exactly when `exceptions` is non-empty.
    pub path: Option<DetectPath>,
    /// True iff the engine short-circuited this access as a repeat its
    /// L1 line already covers (see [`crate::Machine::with_fastpath`]): the core
    /// already made the same-kind access to these words this region,
    /// so the machine may also skip the per-word oracle observation,
    /// which would be a no-op.
    pub fast: bool,
}

impl AccessResult {
    /// A slow-path completion at `done` that raised nothing.
    pub(crate) fn new(done: Cycles) -> Self {
        AccessResult {
            done,
            exceptions: Vec::new(),
            path: None,
            fast: false,
        }
    }
}

/// Everything shared between designs, and nothing that only some of
/// them hold.
///
/// The substrate owns the run's event ring by value and is the only
/// thing that writes to it: engines, the metadata store and the LLC
/// reach the NoC and DRAM through `send` and `dram_access`, which
/// emit the `CohMsg` and `DramAccess` events the timing models know
/// nothing of. A clone is a deep copy, ring included, so a forked run
/// never writes into its parent's trace.
#[derive(Clone)]
pub struct Substrate {
    /// Machine configuration.
    pub cfg: MachineConfig,
    /// On-chip network.
    pub noc: Noc,
    /// Off-chip memory.
    pub dram: Dram,
    /// Shared last-level cache.
    pub llc: Llc,
    /// The run's one line intern table: engines, the metadata store
    /// and forensics index their per-line state by its ids. Any line
    /// resident in an L1 or the AIM has one.
    pub lines: LineTable,
    /// Current region of each core. An access-bit entry is *live* iff
    /// its region equals the owning core's current region.
    pub regions: Vec<RegionId>,
    /// LLC bank accesses (energy).
    pub llc_accesses: Counter,
    /// Directory accesses (energy): sharer-directory lookups in the
    /// MESI family, classification lookups in ARC.
    pub dir_accesses: Counter,
    /// The engines' repeat-access fast path (on unless
    /// [`crate::Machine::with_fastpath`] turns it off): an L1 hit whose
    /// line state shows it would change nothing returns the L1-hit
    /// latency at once, with `fast` set.
    pub(crate) fastpath: bool,
    /// The run's event ring, when observability is on. `None` costs
    /// one branch per emission site (the zero-overhead-when-off
    /// contract).
    pub(crate) tracer: Option<Tracer>,
    next_region: u64,
}

impl Substrate {
    /// Build from configuration.
    pub fn new(cfg: &MachineConfig) -> Self {
        // Core `i` starts in region `i`.
        Substrate {
            cfg: cfg.clone(),
            noc: Noc::new(cfg.cores, cfg.noc),
            dram: Dram::new(cfg.dram),
            llc: Llc::new(&cfg.llc),
            lines: LineTable::new(),
            regions: (0..cfg.cores as u64).map(RegionId).collect(),
            llc_accesses: Counter::default(),
            dir_accesses: Counter::default(),
            fastpath: true,
            tracer: None,
            next_region: cfg.cores as u64,
        }
    }

    /// Emit a trace event; the event is only *built* (the closure only
    /// runs, handed the substrate) if the ring exists.
    #[inline]
    pub(crate) fn trace(&mut self, build: impl FnOnce(&Substrate) -> SimEvent) {
        if self.tracer.is_some() {
            let ev = build(self);
            if let Some(tr) = &mut self.tracer {
                tr.emit(ev);
            }
        }
    }

    /// Send a NoC message (see [`Noc::send`]) and trace it if it is
    /// routed; returns the arrival time.
    #[inline]
    pub(crate) fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        class: MsgClass,
        now: Cycles,
    ) -> Cycles {
        let arrival = self.noc.send(src, dst, bytes, class, now);
        if src != dst {
            self.trace(|s| SimEvent {
                cycle: now.0,
                core: None,
                region: None,
                kind: EventKind::CohMsg {
                    class: class.name(),
                    src: src.0 as u64,
                    dst: dst.0 as u64,
                    bytes: s.noc.wire_bytes(bytes),
                },
            });
        }
        arrival
    }

    /// Make a DRAM access (see [`Dram::access`]) and trace it; returns
    /// the completion time.
    #[inline]
    pub(crate) fn dram_access(
        &mut self,
        line: LineAddr,
        bytes: u64,
        kind: DramKind,
        now: Cycles,
    ) -> Cycles {
        let done = self.dram.access(line, bytes, kind, now);
        self.trace(|_| SimEvent {
            cycle: now.0,
            core: None,
            region: None,
            kind: EventKind::DramAccess {
                kind: kind.name(),
                line: line.0,
                bytes,
            },
        });
        done
    }

    /// Current region of a core.
    #[inline]
    pub(crate) fn region_of(&self, c: CoreId) -> RegionId {
        self.regions[c.index()]
    }

    /// Regions ended so far, over all cores.
    pub(crate) fn regions_ended(&self) -> u64 {
        self.next_region - self.regions.len() as u64
    }

    /// End `c`'s region and start a fresh one; returns the new region.
    pub fn advance_region(&mut self, c: CoreId) -> RegionId {
        let r = RegionId(self.next_region);
        self.next_region += 1;
        self.regions[c.index()] = r;
        r
    }

    /// Liveness predicate for metadata entries: the entry's region is
    /// its core's current region.
    #[inline]
    pub(crate) fn is_live(&self, core: CoreId, region: RegionId) -> bool {
        self.regions[core.index()] == region
    }

    /// NoC node of a core.
    #[inline]
    pub(crate) fn core_node(&self, c: CoreId) -> NodeId {
        self.noc.core_node(c)
    }

    /// NoC node of the LLC bank (and AIM slice) holding `line`.
    #[inline]
    pub(crate) fn bank_node(&self, line: LineAddr) -> NodeId {
        self.noc.bank_node(line)
    }

    /// Access the LLC data array for `line` at `now` (the request is
    /// already at the bank). On a miss the line is fetched from DRAM
    /// and filled (evicting dirty victims to DRAM off the critical
    /// path). Returns the time the data is ready at the bank.
    pub(crate) fn llc_data(&mut self, line: LineAddr, now: Cycles) -> Cycles {
        self.llc_accesses.inc();
        let t = Cycles(now.0 + self.cfg.llc.latency);
        if self.llc.access(line) {
            return t;
        }
        // Miss: bank -> memory controller -> DRAM -> back.
        let bank = self.bank_node(line);
        let mem = self.noc.mem_node(line);
        let req_at = self.send(bank, mem, self.cfg.noc.ctrl_bytes, MsgClass::Request, t);
        let dram_done = self.dram_access(line, 64, DramKind::DataRead, req_at);
        let back = self.send(
            mem,
            bank,
            self.cfg.noc.data_header_bytes + 64,
            MsgClass::Data,
            dram_done,
        );
        self.llc_fill(line, false, back);
        back
    }

    /// Write `bytes` of dirty data for `line` into the LLC at `now`
    /// (the data is already at the bank). Marks the line dirty,
    /// allocating it if absent (without a DRAM fetch: full-line or
    /// partial writeback both overwrite).
    pub(crate) fn llc_put(&mut self, line: LineAddr, now: Cycles) -> Cycles {
        self.llc_accesses.inc();
        if self.llc.contains(line) {
            self.llc.mark_dirty(line);
        } else {
            self.llc_fill(line, true, now);
        }
        Cycles(now.0 + self.cfg.llc.latency)
    }

    /// Fill `line` into the LLC (dirty or clean) at `at` and retire the
    /// victim, if any: a dirty victim is written back to DRAM, traffic
    /// and DRAM time but off the requester's critical path.
    fn llc_fill(&mut self, line: LineAddr, dirty: bool, at: Cycles) {
        let Some((victim, state)) = self.llc.fill(line, dirty) else {
            return;
        };
        if state.dirty {
            let vmem = self.noc.mem_node(victim);
            let sent = self.send(
                self.bank_node(victim),
                vmem,
                self.cfg.noc.data_header_bytes + 64,
                MsgClass::Writeback,
                at,
            );
            let _ = self.dram_access(victim, 64, DramKind::DataWrite, sent);
        }
        self.trace(|_| SimEvent {
            cycle: at.0,
            core: None,
            region: None,
            kind: EventKind::LlcEvict {
                line: victim.0,
                dirty: state.dirty,
            },
        });
    }
}

/// One conflict-detection design (or the baseline): one of the two
/// coherence mechanisms the paper's four designs come from.
///
/// `access` and `region_boundary` are fallible: a broken model
/// invariant (e.g. the directory naming a sharer whose L1 lost the
/// line) surfaces as [`rce_common::RceError::InvariantViolated`]
/// instead of a panic, so a long sweep fails only the offending run.
pub enum Engine {
    /// Eager write-invalidation: the MESI baseline, CE and CE+.
    MesiFamily(MesiFamilyEngine),
    /// Release consistency with self-invalidation.
    Arc(ArcEngine),
}

/// Build the engine selected by a configuration.
pub fn engine_for(cfg: &MachineConfig) -> Engine {
    use ProtocolKind::*;
    match cfg.protocol {
        MesiBaseline | Ce | CePlus => Engine::MesiFamily(MesiFamilyEngine::new(cfg)),
        Arc => Engine::Arc(ArcEngine::new(cfg)),
    }
}

/// Evaluate `$body` with `$e` bound to the engine `$engine` holds: the
/// one `match` behind each of [`Engine`]'s methods.
macro_rules! each {
    ($engine:expr, $e:ident => $body:expr) => {
        match $engine {
            Engine::MesiFamily($e) => $body,
            Engine::Arc($e) => $body,
        }
    };
}

impl Engine {
    /// Perform a memory access of `len` bytes at `addr` by `core`,
    /// starting at `now`. `mask` is the word span within the line.
    pub fn access(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        addr: Addr,
        mask: WordMask,
        kind: AccessType,
        now: Cycles,
    ) -> RceResult<AccessResult> {
        each!(self, e => e.access(sub, core, addr, mask, kind, now))
    }

    /// The core reached a synchronization operation: finish its
    /// current region (flush/scrub/self-invalidate per design) and
    /// return when the boundary work completes. No design detects a
    /// conflict at a boundary, so the result carries no exceptions and
    /// no path; the machine fails a run whose boundary result does.
    /// The machine advances the region clock *after* this returns.
    pub fn region_boundary(
        &mut self,
        sub: &mut Substrate,
        core: CoreId,
        now: Cycles,
    ) -> RceResult<AccessResult> {
        each!(self, e => e.region_boundary(sub, core, now))
    }

    /// Check `core`'s L1 against the design's shared state: the sharer
    /// directory in the MESI family, the line classification in ARC.
    /// The machine runs this at each of the core's region boundaries
    /// in debug builds.
    pub(crate) fn check_core(&self, sub: &Substrate, core: CoreId) -> Result<(), String> {
        each!(self, e => e.check_core(sub, core))
    }

    /// Check the whole machine: every L1 against the shared state and,
    /// in the MESI family, every directory entry against the L1s it
    /// names. The machine runs this at run end in debug builds.
    pub fn check_invariants(&self, sub: &Substrate) -> Result<(), String> {
        each!(self, e => e.check_invariants(sub))
    }

    /// Aggregate L1 statistics: `(hits, misses, evictions)` summed
    /// over cores.
    pub fn l1_totals(&self) -> (u64, u64, u64) {
        each!(self, e => e.l1.iter().fold((0, 0, 0), |(h, m, ev), c| {
            (h + c.hits.get(), m + c.misses.get(), ev + c.evictions.get())
        }))
    }

    /// AIM statistics if this design's metadata lives in one.
    pub(crate) fn aim_totals(&self) -> Option<AimSummary> {
        each!(self, e => e.aim_totals())
    }

    /// Design-specific named counters for the report.
    pub(crate) fn extra_counters(&self) -> Vec<(&'static str, u64)> {
        each!(self, e => e.extra_counters())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub() -> Substrate {
        Substrate::new(&MachineConfig::paper_default(4, ProtocolKind::MesiBaseline))
    }

    #[test]
    fn region_clock_advances() {
        let mut s = sub();
        let r0 = s.region_of(CoreId(0));
        let r1 = s.advance_region(CoreId(0));
        assert_ne!(r0, r1);
        assert!(s.is_live(CoreId(0), r1));
        assert!(!s.is_live(CoreId(0), r0));
        // Other cores unaffected.
        assert!(s.is_live(CoreId(1), s.region_of(CoreId(1))));
    }

    #[test]
    fn region_ids_globally_unique() {
        let mut s = sub();
        let mut seen = std::collections::HashSet::new();
        for c in 0..4u16 {
            assert!(seen.insert(s.region_of(CoreId(c))));
        }
        for c in 0..4u16 {
            assert!(seen.insert(s.advance_region(CoreId(c))));
        }
    }

    /// A substrate with an empty event ring.
    fn traced_sub() -> Substrate {
        let mut s = sub();
        s.tracer = Some(Tracer::default());
        s
    }

    #[test]
    fn tracer_sees_routed_messages_only() {
        let mut s = traced_sub();
        let (a, b) = (s.core_node(CoreId(0)), s.core_node(CoreId(3)));
        s.send(a, a, 64, MsgClass::Data, Cycles(0)); // local: no event
        s.send(a, b, 64, MsgClass::Data, Cycles(7));
        let wire = s.noc.wire_bytes(64);
        let log = s.tracer.take().unwrap().into_log();
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].cycle, 7);
        match &log.events[0].kind {
            EventKind::CohMsg {
                class,
                src,
                dst,
                bytes,
            } => {
                assert_eq!(*class, "data");
                assert_eq!((*src, *dst), (a.0 as u64, b.0 as u64));
                assert_eq!(*bytes, wire);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn tracer_sees_accesses() {
        let mut s = traced_sub();
        s.dram_access(LineAddr(9), 64, DramKind::DataRead, Cycles(3));
        s.dram_access(LineAddr(9), 16, DramKind::MetaWrite, Cycles(50));
        let log = s.tracer.take().unwrap().into_log();
        assert_eq!(log.events.len(), 2);
        match &log.events[1].kind {
            EventKind::DramAccess { kind, line, bytes } => {
                assert_eq!(*kind, "meta-wr");
                assert_eq!((*line, *bytes), (9, 16));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn a_cloned_substrate_traces_into_its_own_ring() {
        let mut s = traced_sub();
        let (a, b) = (s.core_node(CoreId(0)), s.core_node(CoreId(3)));
        s.send(a, b, 8, MsgClass::Request, Cycles(1));
        let mut fork = s.clone();
        fork.send(b, a, 72, MsgClass::Data, Cycles(2));
        let ring = |s: &Substrate| s.tracer.as_ref().unwrap().events().count();
        assert_eq!(ring(&fork), 2);
        assert_eq!(ring(&s), 1, "the fork wrote into its parent's ring");
        assert_eq!(s.noc.stats().total_msgs(), 1);
    }

    #[test]
    fn llc_data_miss_then_hit() {
        let mut s = sub();
        let line = LineAddr(100);
        let t_miss = s.llc_data(line, Cycles(0));
        assert!(t_miss.0 > s.cfg.llc.latency, "miss goes to DRAM");
        let t0 = Cycles(100_000);
        let t_hit = s.llc_data(line, t0);
        assert_eq!(t_hit.0 - t0.0, s.cfg.llc.latency);
        assert_eq!(s.llc_accesses.get(), 2);
        assert!(s.dram.stats().total_accesses() >= 1);
    }

    #[test]
    fn llc_put_marks_dirty() {
        let mut s = sub();
        let line = LineAddr(7);
        s.llc_put(line, Cycles(0));
        assert!(s.llc.contains(line));
        // Putting again is a hit-path dirty mark.
        let before = s.dram.stats().total_accesses();
        s.llc_put(line, Cycles(10));
        assert_eq!(s.dram.stats().total_accesses(), before);
    }

    /// A substrate with a tiny LLC (16 sets × 2 ways) so one set
    /// overflows after three same-set lines.
    fn tiny_llc_sub() -> Substrate {
        let mut cfg = MachineConfig::paper_default(4, ProtocolKind::MesiBaseline);
        cfg.llc = rce_common::CacheGeometry {
            capacity: rce_common::Bytes(2048),
            ways: 2,
            latency: cfg.llc.latency,
        };
        Substrate::new(&cfg)
    }

    /// Three lines mapping to the same LLC set, picked so the first
    /// (the eventual LRU victim) has its bank and memory controller on
    /// *different* tiles — its writeback must cross the NoC.
    fn colliding_lines(s: &Substrate) -> (LineAddr, LineAddr, LineAddr) {
        let sets = s.cfg.llc.sets();
        let victim = (0..64)
            .map(|k| LineAddr(k * sets))
            .find(|l| s.bank_node(*l) != s.noc.mem_node(*l))
            .expect("some set-0 line has a remote memory controller");
        let mut rest = (0..64).map(|k| LineAddr(k * sets)).filter(|l| *l != victim);
        let b = rest.next().unwrap();
        let c = rest.next().unwrap();
        (victim, b, c)
    }

    #[test]
    fn llc_put_dirty_victim_charges_writeback_once() {
        let mut s = tiny_llc_sub();
        assert_eq!(s.cfg.llc.sets(), 16);
        let (victim, b, c) = colliding_lines(&s);
        // Fill one set with two dirty lines, then overflow it.
        s.llc_put(victim, Cycles(0));
        s.llc_put(b, Cycles(0));
        let wb_idx = MsgClass::Writeback.index();
        let dw_idx = DramKind::DataWrite.index();
        assert_eq!(s.noc.stats().msgs[wb_idx].get(), 0);
        assert_eq!(s.dram.stats().accesses[dw_idx].get(), 0);

        let now = Cycles(1_000);
        let done = s.llc_put(c, now);

        // The dirty LRU victim is written back exactly once: one NoC
        // writeback message and one 64-byte DRAM data write.
        assert_eq!(s.noc.stats().msgs[wb_idx].get(), 1);
        assert_eq!(s.dram.stats().accesses[dw_idx].get(), 1);
        assert_eq!(s.dram.stats().bytes[dw_idx].0, 64);
        // Off the critical path: the put completes at the plain LLC
        // latency regardless of the victim traffic.
        assert_eq!(done.0, now.0 + s.cfg.llc.latency);
        assert!(!s.llc.contains(victim), "LRU victim evicted");
    }

    #[test]
    fn llc_data_dirty_victim_writeback_is_off_critical_path() {
        let (victim, b, c) = colliding_lines(&tiny_llc_sub());
        let now = Cycles(10_000);

        // Control: a cold miss with no victims to evict.
        let mut clean = tiny_llc_sub();
        let control = clean.llc_data(c, now);

        // Same miss, but the set is full of dirty lines. llc_put
        // touches neither the NoC nor DRAM, so both substrates face
        // the miss in identical contention state.
        let mut s = tiny_llc_sub();
        s.llc_put(victim, Cycles(0));
        s.llc_put(b, Cycles(0));
        let back = s.llc_data(c, now);

        let wb_idx = MsgClass::Writeback.index();
        let dw_idx = DramKind::DataWrite.index();
        assert_eq!(s.noc.stats().msgs[wb_idx].get(), 1);
        assert_eq!(s.dram.stats().accesses[dw_idx].get(), 1);
        assert_eq!(s.dram.stats().bytes[dw_idx].0, 64);
        assert_eq!(
            back, control,
            "victim writeback must not delay the requester"
        );
        // The writeback traffic is real: strictly more NoC bytes than
        // the clean miss.
        assert!(s.noc.total_bytes() > clean.noc.total_bytes());
    }
}
