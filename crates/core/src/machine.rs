//! The machine driver: runs a program through an engine.
//!
//! Cores execute their thread's operations in a deterministic
//! event-driven interleaving: at every step the runnable core with the
//! smallest local clock (ties broken by core ID) commits its next
//! operation. Memory operations go through the engine (which charges
//! NoC/LLC/DRAM time and may raise exceptions); synchronization
//! operations first end the core's region (engine boundary work +
//! region-clock advance + oracle clear) and then go through the
//! functional lock/barrier managers. The oracle observes the identical
//! committed stream, giving ground truth for differential testing.
//!
//! Debug builds also check the model's invariants: the ending core's
//! L1 at every region boundary, the whole machine at run end.

use crate::exception::{sort_region_scoped, AccessType, ConflictException, ExceptionPolicy};
use crate::forensics::Forensics;
use crate::oracle::Oracle;
use crate::protocol::{engine_for, AccessResult, Engine, Substrate};
use crate::report::{CoreStats, SimReport};
use crate::sched::ReadyQueue;
use crate::sync::{AcquireOutcome, BarrierManager, BarrierOutcome, LockManager};
use rce_common::obs::{EventKind, GaugeSnapshot, MetricsSampler, ObsConfig, SimEvent, Tracer};
use rce_common::{
    Addr, BarrierId, CoreId, Cycles, FxBuildHasher, Histogram, LockId, MachineConfig, RceError,
    RceResult, RegionId, WordMask,
};
use rce_energy::{EnergyModel, EventCounts};
use rce_trace::{Op, Program};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Per-core execution status. Blocked states carry the object the core
/// is waiting on, so a deadlock report can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    BlockedLock(LockId),
    BlockedBarrier(BarrierId),
    Done,
}

/// Describe a deadlock: every live core, what it waits on, and who is
/// in the way. The prefix is stable (tests and callers match on it);
/// the per-core detail follows.
fn deadlock_error(status: &[Status], locks: &LockManager, barriers: &BarrierManager) -> RceError {
    let mut msg = String::from("all live cores are blocked (deadlock)");
    for (i, s) in status.iter().enumerate() {
        match s {
            Status::BlockedLock(l) => {
                let _ = match locks.holder(*l) {
                    Some(h) => write!(msg, "; c{i} waits on {l} held by {h}"),
                    None => write!(msg, "; c{i} waits on {l} (unheld)"),
                };
            }
            Status::BlockedBarrier(b) => {
                let _ = write!(
                    msg,
                    "; c{i} waits at {b} ({} of {} cores arrived)",
                    barriers.waiting(*b),
                    status.len()
                );
            }
            Status::Ready | Status::Done => {}
        }
    }
    RceError::DriverProtocol(msg)
}

/// Scheduler steps allowed per program operation before the driver
/// declares a livelock.
///
/// Every committed operation takes one step, but blocked cores and the
/// per-thread final-region boundaries also consume steps, so the
/// budget must be a comfortable multiple of the op count. Eight covers
/// the worst legal interleaving (every core re-examined between each
/// commit) with a wide margin while still catching a scheduler that
/// stops making progress.
pub(crate) const STEP_LIMIT_FACTOR: u64 = 8;

/// Flat step allowance added on top of the per-op budget so that tiny
/// programs (few ops, many cores) still get room for boundary and
/// wake-up bookkeeping.
pub(crate) const STEP_LIMIT_BASE: u64 = 100_000;

/// The default scheduler-step budget for a program:
/// `(total_ops + 1) * STEP_LIMIT_FACTOR + STEP_LIMIT_BASE`.
pub fn default_step_limit(total_ops: u64) -> u64 {
    (total_ops + 1) * STEP_LIMIT_FACTOR + STEP_LIMIT_BASE
}

/// An engine may raise a conflict only while both of its regions are
/// live: that is what a region conflict is, and the driver's
/// region-scoped dedup relies on it.
fn check_live(sub: &Substrate, ex: &ConflictException) -> RceResult<()> {
    let (a, b) = (ex.a(), ex.b());
    if sub.is_live(a.core, a.region) && sub.is_live(b.core, b.region) {
        Ok(())
    } else {
        Err(RceError::InvariantViolated(format!(
            "exception names an ended region: {ex}"
        )))
    }
}

/// One core's delivered exceptions, kept region-scoped: every identity
/// is filed under its lower core, `a.core`.
#[derive(Default)]
struct CoreExceptions {
    /// Identities whose `a` side is the core's current region. Asked
    /// for membership and flushed sorted, so the fast hasher's order
    /// never reaches a report.
    live: HashSet<ConflictException, FxBuildHasher>,
    /// Identities whose `a` side is an ended region, sorted: a core's
    /// regions end in ID order.
    done: Vec<ConflictException>,
}

/// Exceptions delivered so far, over all cores.
fn delivered(exceptions: &[CoreExceptions]) -> u64 {
    exceptions
        .iter()
        .map(|e| (e.live.len() + e.done.len()) as u64)
        .sum()
}

impl CoreExceptions {
    /// The core's region ended: move its identities, sorted, to `done`.
    fn flush(&mut self) {
        // Draining walks the whole table, which keeps the capacity of
        // the core's busiest region: skip it when there is nothing.
        if self.live.is_empty() {
            return;
        }
        let start = self.done.len();
        self.done.extend(self.live.drain());
        sort_region_scoped(&mut self.done[start..]);
    }
}

/// The simulator.
pub struct Machine {
    cfg: MachineConfig,
    step_limit: Option<u64>,
    obs: ObsConfig,
    /// Each run's `Substrate::fastpath` (on by default). Reports are
    /// byte-identical either way.
    fastpath: bool,
}

/// Read every cumulative gauge the interval sampler differences.
fn gauges(sub: &Substrate, engine: &Engine, exceptions: u64) -> GaugeSnapshot {
    let noc = sub.noc.stats();
    let dram = sub.dram.stats();
    let (aim_hits, aim_misses) = engine.aim_totals().map_or((0, 0), |a| (a.hits, a.misses));
    let (_, _, l1_evictions) = engine.l1_totals();
    GaugeSnapshot {
        noc_msgs: noc.total_msgs(),
        noc_bytes: noc.total_bytes().0,
        noc_queue_delay: noc.total_queue_delay.get(),
        link_busy: sub.noc.link_busy_cycles(),
        dram_accesses: dram.total_accesses(),
        dram_bytes: dram.total_bytes().0,
        dram_queue_delay: dram.total_queue_delay.get(),
        aim_hits,
        aim_misses,
        llc_misses: sub.llc.misses.get(),
        l1_evictions,
        exceptions,
    }
}

impl Machine {
    /// Build for a validated configuration.
    pub fn new(cfg: &MachineConfig) -> RceResult<Self> {
        cfg.validate().map_err(RceError::InvalidConfig)?;
        Ok(Machine {
            cfg: cfg.clone(),
            step_limit: None,
            obs: ObsConfig::default(),
            fastpath: true,
        })
    }

    /// Turn the engines' repeat-access fast path on (the default) or
    /// off for subsequent runs: it sets each run's [`Substrate`]
    /// switch. `tests/fastpath_equiv.rs` and the golden
    /// tests run programs both ways and require byte-identical reports.
    pub fn with_fastpath(mut self, on: bool) -> Self {
        self.fastpath = on;
        self
    }

    /// Switch observability layers (event trace, metrics timeline,
    /// conflict forensics) on for subsequent runs. The default is fully
    /// off, and off-mode reports are byte-identical to builds without
    /// the subsystem.
    pub fn with_observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Override the scheduler-step budget (default:
    /// [`default_step_limit`] of the program's op count). Mostly for
    /// tests that want a livelock to trip quickly.
    #[cfg(test)]
    pub(crate) fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = Some(limit);
        self
    }

    /// Run with the default count-and-continue policy.
    pub fn run(&self, program: &Program) -> RceResult<SimReport> {
        self.run_with_policy(program, ExceptionPolicy::CountAndContinue)
    }

    /// Run under an explicit exception policy.
    pub fn run_with_policy(
        &self,
        program: &Program,
        policy: ExceptionPolicy,
    ) -> RceResult<SimReport> {
        Run::new(self, program)?.run(policy)
    }

    /// Run with `tamper` applied to the engine before the first step:
    /// tests of the debug-build invariant checks corrupt engine state
    /// with it.
    #[cfg(all(test, debug_assertions))]
    pub(crate) fn run_tampered(
        &self,
        program: &Program,
        tamper: impl FnOnce(&mut Engine),
    ) -> RceResult<SimReport> {
        let mut run = Run::new(self, program)?;
        tamper(&mut run.engine);
        run.run(ExceptionPolicy::CountAndContinue)
    }
}

/// One run's driver state: the simulated machine, the functional
/// lock/barrier managers, the scheduler, the oracle, the
/// observability layers and every counter the report reads.
struct Run<'a> {
    cfg: &'a MachineConfig,
    program: &'a Program,
    /// Scheduler steps allowed before the run is declared a livelock.
    limit: u64,
    /// Whether the caller asked for the event trace (forensics alone
    /// runs an internal ring that never reaches the report).
    export_trace: bool,
    engine: Engine,
    sub: Substrate,
    oracle: Oracle,
    locks: LockManager,
    barriers: BarrierManager,
    /// Index of each core's next operation in its thread.
    cursor: Vec<usize>,
    clock: Vec<Cycles>,
    status: Vec<Status>,
    /// Index-min scheduler: every Ready core except the running one
    /// has exactly one queued entry carrying its current clock. Pop
    /// order is smallest clock, lowest core ID on ties — the driver's
    /// deterministic interleaving (pinned by `sched::tests` and the
    /// golden gate) — in O(log n).
    ready: ReadyQueue,
    access_latency: Histogram,
    region_len: Histogram,
    boundary_cost: Histogram,
    /// Memory ops committed in each core's current region.
    region_ops: Vec<u64>,
    per_core: Vec<CoreStats>,
    /// Delivered exceptions, per lower core. An identity is delivered
    /// once, the first time an engine raises it.
    exceptions: Vec<CoreExceptions>,
    aborted: bool,
    forensics: Option<Forensics>,
    sampler: Option<MetricsSampler>,
}

impl<'a> Run<'a> {
    /// Validate `program` for the machine and set up its run.
    fn new(m: &'a Machine, program: &'a Program) -> RceResult<Self> {
        let cfg = &m.cfg;
        let n = cfg.cores;
        rce_trace::validate(program)?;
        if program.n_threads() != n {
            return Err(RceError::MalformedProgram(format!(
                "program has {} threads but the machine has {n} cores",
                program.n_threads(),
            )));
        }
        let engine = engine_for(cfg);
        let mut sub = Substrate::new(cfg);
        sub.fastpath = m.fastpath;
        // Forensics wants recent-event windows even when the user did
        // not ask for a trace: it runs the same ring, never exported.
        if m.obs.trace || m.obs.forensics {
            sub.tracer = Some(Tracer::default());
            // Every core's first region opens at t=0.
            for c in 0..n {
                let core = CoreId(c as u16);
                sub.trace(|s| SimEvent {
                    cycle: 0,
                    core: Some(core.0),
                    region: Some(s.region_of(core).0),
                    kind: EventKind::RegionBegin,
                });
            }
        }
        let mut ready = ReadyQueue::with_capacity(n);
        for c in 0..n {
            ready.push(Cycles::ZERO, c);
        }
        Ok(Run {
            cfg,
            program,
            limit: m
                .step_limit
                .unwrap_or_else(|| default_step_limit(program.total_ops() as u64)),
            export_trace: m.obs.trace,
            engine,
            oracle: Oracle::new(&sub.regions),
            sub,
            locks: LockManager::new(program.n_locks),
            barriers: BarrierManager::new(n, program.n_barriers),
            cursor: vec![0; n],
            clock: vec![Cycles::ZERO; n],
            status: vec![Status::Ready; n],
            ready,
            access_latency: Histogram::new(),
            region_len: Histogram::new(),
            boundary_cost: Histogram::new(),
            region_ops: vec![0; n],
            per_core: vec![CoreStats::default(); n],
            exceptions: (0..n).map(|_| CoreExceptions::default()).collect(),
            aborted: false,
            forensics: m.obs.forensics.then(|| Forensics::new(n)),
            sampler: m.obs.timeline.then(MetricsSampler::default),
        })
    }

    /// Drive the run to its end, check the whole machine (in debug
    /// builds), and assemble the report.
    fn run(mut self, policy: ExceptionPolicy) -> RceResult<SimReport> {
        self.drive(policy)?;
        if cfg!(debug_assertions) {
            self.engine
                .check_invariants(&self.sub)
                .map_err(|err| self.violation("at run end", &err))?;
        }
        Ok(self.finish())
    }

    /// The error for a broken model invariant, naming the run: its
    /// workload and its design (protocol and metadata placement).
    fn violation(&self, when: &str, err: &str) -> RceError {
        let (cfg, workload) = (self.cfg, &self.program.name);
        RceError::InvariantViolated(format!(
            "{workload} on {}/{}, {when}: {err}",
            cfg.protocol, cfg.meta_placement
        ))
    }

    /// Step the runnable core with the smallest clock (lowest ID on
    /// ties) until every core is done or the policy aborts the run.
    fn drive(&mut self, policy: ExceptionPolicy) -> RceResult<()> {
        let (program, limit) = (self.program, self.limit);
        let mut steps = 0u64;
        // The running core stays out of the queue: `next` is the pick.
        let mut next = self.ready.pop();
        while !self.aborted {
            steps += 1;
            if steps > limit {
                return Err(RceError::StepLimitExceeded {
                    steps,
                    limit,
                    cursors: self.cursor.iter().map(|&c| c as u64).collect(),
                    mem_ops: self.per_core.iter().map(|s| s.mem_ops).sum(),
                });
            }
            let Some((popped_clock, c)) = next else {
                if self.status.iter().all(|s| *s == Status::Done) {
                    return Ok(());
                }
                return Err(deadlock_error(&self.status, &self.locks, &self.barriers));
            };
            debug_assert_eq!(self.status[c], Status::Ready);
            debug_assert_eq!(popped_clock, self.clock[c], "queued entry went stale");
            let core = CoreId(c as u16);
            let now = self.clock[c];

            if let Some(s) = &mut self.sampler {
                if s.due(now.0) {
                    let delivered = delivered(&self.exceptions);
                    s.tick(now.0, gauges(&self.sub, &self.engine, delivered));
                }
            }

            // Thread finished? Its final region ends at thread end.
            if self.cursor[c] >= program.threads[c].len() {
                let done = self.boundary(core, now)?;
                self.clock[c] = done;
                self.status[c] = Status::Done;
                self.per_core[c].finish = done;
                next = self.ready.pop();
                continue;
            }

            let op = program.threads[c][self.cursor[c]];
            self.cursor[c] += 1;
            match op {
                Op::Work { cycles } => {
                    let scaled = (cycles as f64 * self.cfg.ipc_scale).round() as u64;
                    self.clock[c] = Cycles(now.0 + scaled.max(1));
                }
                Op::Read { addr, len } | Op::Write { addr, len } => {
                    let kind = if op.is_write() {
                        AccessType::Write
                    } else {
                        AccessType::Read
                    };
                    self.access(core, addr, len, kind, now, policy)?
                }
                Op::Acquire { .. } | Op::Release { .. } | Op::Barrier { .. } => {
                    self.sync(core, op, now)?
                }
            }

            // Re-queue the stepped core at its new clock unless it
            // blocked (or finished, which `continue`s above). Blocked
            // cores are pushed by whoever wakes them.
            next = if self.status[c] == Status::Ready {
                Some(self.ready.requeue(self.clock[c], c))
            } else {
                self.ready.pop()
            };
        }
        Ok(())
    }

    /// Commit one memory access, then deliver the exceptions it raised.
    fn access(
        &mut self,
        core: CoreId,
        addr: Addr,
        len: u32,
        kind: AccessType,
        now: Cycles,
        policy: ExceptionPolicy,
    ) -> RceResult<()> {
        let c = core.index();
        let mask = WordMask::span(addr, len as u64);
        let res = self
            .engine
            .access(&mut self.sub, core, addr, mask, kind, now)?;
        self.sub.trace(|s| SimEvent {
            cycle: now.0,
            core: Some(core.0),
            region: Some(s.region_of(core).0),
            kind: EventKind::MemAccess {
                addr: addr.0,
                write: kind == AccessType::Write,
                exceptions: res.exceptions.len() as u64,
            },
        });
        // Oracle sees the same committed access, word by word, at the
        // configured detection granularity. A fast-path access repeats
        // words this core+kind already observed this region, so every
        // observe would take the oracle's own early-return; skip the
        // loop entirely.
        let line = addr.line();
        if !res.fast {
            for w in self.cfg.detect_mask(mask).iter() {
                self.oracle.observe(core, line.word_addr(w), kind, now);
            }
        }
        // The access completes before its exceptions are delivered, so
        // a run that aborts on one still counts it.
        self.clock[c] = res.done.max(Cycles(now.0 + 1));
        self.access_latency.record(self.clock[c].0 - now.0);
        self.region_ops[c] += 1;
        self.per_core[c].mem_ops += 1;

        for ex in res.exceptions {
            check_live(&self.sub, &ex)?;
            if let Some(f) = &mut self.forensics {
                f.observe(&ex, &mut self.sub.lines);
            }
            let (a, b) = (ex.a(), ex.b());
            if !self.exceptions[a.core.index()].live.insert(ex) {
                continue;
            }
            self.sub.trace(|s| {
                let other = if a.core == core { b.core } else { a.core };
                SimEvent {
                    cycle: now.0,
                    core: Some(core.0),
                    region: Some(s.region_of(core).0),
                    kind: EventKind::Conflict {
                        word: ex.word_addr.0 / 8,
                        other_core: other.0 as u64,
                        kinds: match (a.kind, b.kind) {
                            (AccessType::Write, AccessType::Write) => "W/W",
                            (AccessType::Write, AccessType::Read) => "W/R",
                            (AccessType::Read, AccessType::Write) => "R/W",
                            (AccessType::Read, AccessType::Read) => "R/R",
                        },
                    },
                }
            });
            if let (Some(f), Some(path)) = (&mut self.forensics, res.path) {
                f.deliver(ex, path, self.sub.tracer.as_ref(), line.0);
            }
            if policy == ExceptionPolicy::AbortOnFirst {
                self.aborted = true;
                break;
            }
        }
        Ok(())
    }

    /// Execute a lock or barrier operation: it ends the core's region
    /// first, then goes through the functional sync managers.
    fn sync(&mut self, core: CoreId, op: Op, now: Cycles) -> RceResult<()> {
        let c = core.index();
        self.per_core[c].sync_ops += 1;
        let done = self.boundary(core, now)?;
        match op {
            Op::Acquire { lock } => match self.locks.acquire(lock, core, done) {
                AcquireOutcome::Granted(t) => self.clock[c] = t,
                AcquireOutcome::Blocked => {
                    self.clock[c] = done;
                    self.status[c] = Status::BlockedLock(lock);
                }
            },
            Op::Release { lock } => {
                if let Some((next, t)) = self.locks.release(lock, core, done) {
                    let ni = next.index();
                    debug_assert_eq!(self.status[ni], Status::BlockedLock(lock));
                    self.status[ni] = Status::Ready;
                    self.clock[ni] = self.clock[ni].max(t);
                    self.ready.push(self.clock[ni], ni);
                }
                self.clock[c] = done;
            }
            Op::Barrier { bar } => {
                self.clock[c] = done;
                match self.barriers.arrive(bar, core, done) {
                    BarrierOutcome::Blocked => self.status[c] = Status::BlockedBarrier(bar),
                    BarrierOutcome::Released(cores, t) => {
                        for rc in cores {
                            let ri = rc.index();
                            self.status[ri] = Status::Ready;
                            self.clock[ri] = self.clock[ri].max(t);
                            // The arriving core is re-queued by the
                            // generic end-of-step requeue.
                            if ri != c {
                                self.ready.push(self.clock[ri], ri);
                            }
                        }
                    }
                }
            }
            Op::Work { .. } | Op::Read { .. } | Op::Write { .. } => {
                unreachable!("not a sync operation: {op:?}")
            }
        }
        Ok(())
    }

    /// End the core's current region: engine boundary work, region
    /// clock advance, oracle clear, exception flush, statistics.
    /// Returns when the boundary work completes.
    fn boundary(&mut self, core: CoreId, now: Cycles) -> RceResult<Cycles> {
        let c = core.index();
        let old_region = self.sub.region_of(core);
        let b = self.engine.region_boundary(&mut self.sub, core, now)?;
        self.check_boundary(core, old_region, &b)?;
        if cfg!(debug_assertions) {
            self.engine.check_core(&self.sub, core).map_err(|err| {
                self.violation(&format!("at the end of {core}'s region {old_region}"), &err)
            })?;
        }
        let new_region = self.sub.advance_region(core);
        self.oracle.region_boundary(core, new_region);
        self.exceptions[c].flush();
        let ops = std::mem::take(&mut self.region_ops[c]);
        if ops > 0 {
            self.region_len.record(ops);
        }
        let done = b.done.max(now);
        self.boundary_cost.record(done.0 - now.0);
        if let Some(f) = self.forensics.as_mut() {
            f.region_ended(core, done);
        }
        self.sub.trace(|_| SimEvent {
            cycle: done.0,
            core: Some(core.0),
            region: Some(old_region.0),
            kind: EventKind::RegionEnd {
                cost: done.0 - now.0,
            },
        });
        self.sub.trace(|_| SimEvent {
            cycle: done.0,
            core: Some(core.0),
            region: Some(new_region.0),
            kind: EventKind::RegionBegin,
        });
        Ok(done)
    }

    /// A region boundary raises nothing: conflicts are found on
    /// accesses, and the driver delivers only an access's exceptions.
    /// A boundary result that carries exceptions or a detection path
    /// would lose them, so it fails the run.
    fn check_boundary(&self, core: CoreId, region: RegionId, b: &AccessResult) -> RceResult<()> {
        if b.exceptions.is_empty() && b.path.is_none() {
            return Ok(());
        }
        Err(self.violation(
            &format!("at the end of {core}'s region {region}"),
            &format!(
                "the boundary raised {} exceptions (path {:?})",
                b.exceptions.len(),
                b.path
            ),
        ))
    }

    /// Close out the run and assemble its report.
    fn finish(self) -> SimReport {
        let Run {
            cfg,
            program,
            export_trace,
            engine,
            mut sub,
            oracle,
            clock,
            access_latency,
            region_len,
            boundary_cost,
            per_core,
            exceptions: per_core_exceptions,
            aborted,
            forensics,
            sampler,
            ..
        } = self;
        let end = clock.iter().copied().max().unwrap_or(Cycles::ZERO);
        sub.noc.finalize(end);
        sub.dram.finalize(end);

        // Close out the observability layers.
        let delivered = delivered(&per_core_exceptions);
        let timeline = sampler.map(|s| s.finish(end.0, gauges(&sub, &engine, delivered)));
        let trace = sub
            .tracer
            .take()
            .filter(|_| export_trace)
            .map(Tracer::into_log);

        let (l1_hits, l1_misses, l1_evictions) = engine.l1_totals();
        let aim = engine.aim_totals();
        let energy = EnergyModel::default().evaluate(&EventCounts {
            l1_accesses: l1_hits + l1_misses,
            llc_accesses: sub.llc_accesses.get(),
            aim_accesses: aim.map_or(0, |a| a.accesses),
            dir_accesses: sub.dir_accesses.get(),
            noc_flit_hops: sub.noc.stats().flit_hops.get(),
            dram_bytes: sub.dram.total_bytes().0,
            dram_accesses: sub.dram.stats().total_accesses(),
            cycles: end.0,
            cores: cfg.cores as u64,
        });

        // An aborted run ends with regions still open: flush them too.
        // Core order then gives the sorted list.
        let mut exceptions = Vec::with_capacity(delivered as usize);
        for mut e in per_core_exceptions {
            e.flush();
            exceptions.append(&mut e.done);
        }
        SimReport {
            protocol: cfg.protocol,
            workload: program.name.clone(),
            cores: cfg.cores,
            cycles: end,
            mem_ops: per_core.iter().map(|s| s.mem_ops).sum(),
            sync_ops: per_core.iter().map(|s| s.sync_ops).sum(),
            regions: sub.regions_ended(),
            l1_hits,
            l1_misses,
            l1_evictions,
            llc_hits: sub.llc.hits.get(),
            llc_misses: sub.llc.misses.get(),
            noc: sub.noc.stats().clone(),
            dram: sub.dram.stats().clone(),
            aim,
            energy,
            engine_counters: engine
                .extra_counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            access_latency,
            region_len,
            boundary_cost,
            per_core,
            exceptions,
            oracle_conflicts: oracle.into_conflicts(),
            aborted,
            timeline,
            trace,
            forensics: forensics.map(|f| f.finish(&sub.lines)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forensics::{MAX_RECORDS, RECENT_WINDOW};
    use rce_common::ProtocolKind;
    use rce_trace::WorkloadSpec;

    fn run(w: WorkloadSpec, proto: ProtocolKind, cores: usize) -> SimReport {
        let cfg = MachineConfig::paper_default(cores, proto);
        let p = w.build(cores, 1, 42);
        Machine::new(&cfg).unwrap().run(&p).unwrap()
    }

    #[test]
    fn private_only_runs_clean_on_all_protocols() {
        for proto in ProtocolKind::ALL {
            let r = run(WorkloadSpec::PrivateOnly, proto, 4);
            assert!(r.cycles.0 > 0, "{proto}");
            assert!(r.exceptions.is_empty(), "{proto}");
            assert!(r.oracle_conflicts.is_empty(), "{proto}");
            assert!(r.mem_ops > 0);
        }
    }

    #[test]
    fn racy_pair_detected_by_all_detectors() {
        for proto in ProtocolKind::DETECTORS {
            let r = run(WorkloadSpec::RacyPair, proto, 4);
            assert!(
                !r.oracle_conflicts.is_empty(),
                "{proto}: oracle saw nothing"
            );
            assert!(!r.exceptions.is_empty(), "{proto}: engine missed the race");
            assert!(r.matches_oracle(), "{proto}: engine != oracle");
        }
    }

    #[test]
    fn baseline_never_raises() {
        let r = run(WorkloadSpec::RacyPair, ProtocolKind::MesiBaseline, 4);
        assert!(r.exceptions.is_empty());
        assert!(!r.oracle_conflicts.is_empty(), "the race is still there");
    }

    #[test]
    fn false_sharing_raises_nothing() {
        for proto in ProtocolKind::DETECTORS {
            let r = run(WorkloadSpec::FalseSharing, proto, 8);
            assert!(
                r.exceptions.is_empty(),
                "{proto}: word granularity must not flag false sharing"
            );
            assert!(r.matches_oracle(), "{proto}");
        }
    }

    #[test]
    fn ping_pong_is_race_free() {
        for proto in ProtocolKind::DETECTORS {
            let r = run(WorkloadSpec::PingPong, proto, 4);
            assert!(r.exceptions.is_empty(), "{proto}: lock-protected accesses");
            assert!(r.matches_oracle(), "{proto}");
        }
    }

    #[test]
    fn abort_policy_stops_early() {
        let p = WorkloadSpec::RacyPair.build(4, 1, 42);
        for proto in ProtocolKind::DETECTORS {
            let cfg = MachineConfig::paper_default(4, proto);
            let m = Machine::new(&cfg).unwrap();
            let r = m
                .run_with_policy(&p, ExceptionPolicy::AbortOnFirst)
                .unwrap();
            assert!(r.aborted, "{proto}");
            assert_eq!(r.exceptions.len(), 1, "{proto}");
            let full = m.run(&p).unwrap();
            assert!(full.mem_ops > r.mem_ops, "{proto}: the run stopped early");
            // The aborting access is committed: every count sees it.
            assert_eq!(r.l1_hits + r.l1_misses, r.mem_ops, "{proto}");
            let per_core: u64 = r.per_core.iter().map(|s| s.mem_ops).sum();
            assert_eq!(per_core, r.mem_ops, "{proto}");
            assert_eq!(r.access_latency.count(), r.mem_ops, "{proto}");
        }
    }

    #[test]
    fn step_limit_is_structured_and_overridable() {
        use rce_common::Addr;
        use rce_trace::Program;
        // Classic ABBA deadlock: each core holds one lock and wants
        // the other's.
        let abba = Program {
            name: "abba".into(),
            threads: vec![
                vec![
                    Op::Acquire {
                        lock: rce_common::LockId(0),
                    },
                    Op::Work { cycles: 10 },
                    Op::Acquire {
                        lock: rce_common::LockId(1),
                    },
                    Op::Release {
                        lock: rce_common::LockId(1),
                    },
                    Op::Release {
                        lock: rce_common::LockId(0),
                    },
                ],
                vec![
                    Op::Acquire {
                        lock: rce_common::LockId(1),
                    },
                    Op::Work { cycles: 10 },
                    Op::Acquire {
                        lock: rce_common::LockId(0),
                    },
                    Op::Release {
                        lock: rce_common::LockId(0),
                    },
                    Op::Release {
                        lock: rce_common::LockId(1),
                    },
                ],
            ],
            n_locks: 2,
            n_barriers: 0,
            shared_base: Addr(0),
            shared_end: Addr(4096),
        };
        let cfg = MachineConfig::paper_default(2, ProtocolKind::Ce);

        // With the default budget the scheduler reaches the blocked
        // state and reports the deadlock itself, naming each waiting
        // core, the lock it wants, and the holder.
        let err = Machine::new(&cfg).unwrap().run(&abba).unwrap_err();
        assert!(matches!(err, RceError::DriverProtocol(_)), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("deadlock"), "{msg}");
        assert!(msg.contains("c0 waits on lk1 held by c1"), "{msg}");
        assert!(msg.contains("c1 waits on lk0 held by c0"), "{msg}");

        // A tiny explicit budget trips the structured step limit
        // before the deadlock is even reached, carrying enough state
        // to see where each core was stuck.
        let err = Machine::new(&cfg)
            .unwrap()
            .with_step_limit(2)
            .run(&abba)
            .unwrap_err();
        match err {
            RceError::StepLimitExceeded {
                steps,
                limit,
                cursors,
                mem_ops,
            } => {
                assert_eq!(limit, 2);
                assert!(steps > limit);
                assert_eq!(cursors.len(), 2);
                assert!(cursors.iter().all(|&cu| cu <= 5));
                assert_eq!(mem_ops, 0, "abba issues no memory ops");
            }
            other => panic!("expected StepLimitExceeded, got {other}"),
        }

        // The default budget formula is the documented one.
        assert_eq!(
            default_step_limit(100),
            101 * STEP_LIMIT_FACTOR + STEP_LIMIT_BASE
        );
    }

    #[test]
    fn exceptions_naming_an_ended_region_are_rejected() {
        use crate::exception::ConflictSide;
        use rce_common::RegionId;
        let mut sub = Substrate::new(&MachineConfig::paper_default(4, ProtocolKind::Ce));
        let side = |c: u16, region: RegionId| ConflictSide {
            core: CoreId(c),
            region,
            kind: AccessType::Write,
        };
        let ex =
            |a: ConflictSide, b: ConflictSide| ConflictException::new(a, b, Addr(8), Cycles(5));
        let (r1, r2) = (sub.region_of(CoreId(1)), sub.region_of(CoreId(2)));
        assert!(check_live(&sub, &ex(side(1, r1), side(2, r2))).is_ok());
        let new_r1 = sub.advance_region(CoreId(1));
        // The ended region on the `a` side, then on the `b` side.
        for bad in [
            ex(side(1, r1), side(2, r2)),
            ex(side(0, RegionId(0)), side(1, r1)),
        ] {
            match check_live(&sub, &bad) {
                Err(RceError::InvariantViolated(msg)) => {
                    assert!(msg.contains(&bad.to_string()), "{msg}")
                }
                other => panic!("{bad}: expected InvariantViolated, got {other:?}"),
            }
        }
        assert!(check_live(&sub, &ex(side(0, RegionId(0)), side(1, new_r1))).is_ok());
    }

    #[test]
    fn boundary_results_that_raise_fail_the_run() {
        use crate::exception::ConflictSide;
        use crate::forensics::{DetectPath, DetectSite};
        use rce_common::{MetaPlacement, RegionId};
        let cfg = MachineConfig::paper_default(4, ProtocolKind::CePlus);
        let m = Machine::new(&cfg).unwrap();
        let p = WorkloadSpec::RacyPair.build(4, 1, 42);
        let run = Run::new(&m, &p).unwrap();
        let (core, region) = (CoreId(1), RegionId(1));
        let clean = AccessResult::new(Cycles(9));
        assert!(run.check_boundary(core, region, &clean).is_ok());

        let side = |c: u16| ConflictSide {
            core: CoreId(c),
            region: RegionId(c as u64),
            kind: AccessType::Write,
        };
        let path = DetectPath {
            placement: MetaPlacement::Aim,
            site: DetectSite::L1Bits,
            aim: None,
        };
        let raised = AccessResult {
            exceptions: vec![ConflictException::new(side(0), side(1), Addr(8), Cycles(5))],
            path: Some(path),
            ..AccessResult::new(Cycles(9))
        };
        let path_only = AccessResult {
            path: Some(path),
            ..AccessResult::new(Cycles(9))
        };
        let lost = AccessResult {
            path: None,
            ..raised.clone()
        };
        for b in [raised, path_only, lost] {
            match run.check_boundary(core, region, &b) {
                Err(RceError::InvariantViolated(msg)) => {
                    assert!(msg.starts_with("racy_pair on CE+/"), "{msg}");
                    assert!(msg.contains("at the end of c1's region r1"), "{msg}");
                    assert!(msg.contains("the boundary raised"), "{msg}");
                }
                other => panic!("{b:?}: expected InvariantViolated, got {other:?}"),
            }
        }
    }

    #[test]
    fn thread_count_mismatch_rejected() {
        let cfg = MachineConfig::paper_default(8, ProtocolKind::MesiBaseline);
        let p = WorkloadSpec::PingPong.build(4, 1, 1);
        let err = Machine::new(&cfg).unwrap().run(&p).unwrap_err();
        assert!(err.to_string().contains("threads"));
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let cfg = MachineConfig::paper_default(4, ProtocolKind::Ce);
        let m = Machine::new(&cfg).unwrap();
        let p = WorkloadSpec::Canneal.build(4, 1, 7);
        let a = m.run(&p).unwrap();
        let b = m.run(&p).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.exceptions, b.exceptions);
        assert_eq!(a.noc.total_bytes(), b.noc.total_bytes());
        assert_eq!(a.dram.total_bytes(), b.dram.total_bytes());
    }

    #[test]
    fn reports_have_consistent_counts() {
        let p = WorkloadSpec::Streamcluster.build(4, 1, 3);
        let r = run(WorkloadSpec::Streamcluster, ProtocolKind::CePlus, 4);
        assert_eq!(r.mem_ops as usize, p.total_mem_ops());
        assert_eq!(r.sync_ops as usize, p.total_sync_ops());
        assert_eq!(r.l1_hits + r.l1_misses, r.mem_ops);
        assert!(r.energy_total().0 > 0.0);
        assert!(r.aim.is_some());
    }

    #[test]
    fn observability_off_report_is_byte_identical() {
        let cfg = MachineConfig::paper_default(4, ProtocolKind::CePlus);
        let p = WorkloadSpec::Canneal.build(4, 1, 42);
        let plain = Machine::new(&cfg).unwrap().run(&p).unwrap();
        let observed = Machine::new(&cfg)
            .unwrap()
            .with_observability(ObsConfig::FULL)
            .run(&p)
            .unwrap();
        let t = observed.timeline.as_ref().expect("sampling was on");
        assert!(t.samples.len() > 2, "the sampler ticks mid-run");
        assert!(observed.trace.is_some());
        assert!(observed.forensics.is_some());
        // Observability must not perturb the simulation: stripping the
        // obs fields yields the exact bytes of the plain run.
        let mut stripped = observed.clone();
        stripped.timeline = None;
        stripped.trace = None;
        stripped.forensics = None;
        assert_eq!(
            rce_common::json::to_string(&plain),
            rce_common::json::to_string(&stripped)
        );
        // And the off-mode report carries no trace of the subsystem.
        let off = rce_common::json::to_string(&plain);
        assert!(!off.contains("\"timeline\""));
        assert!(!off.contains("\"trace\""));
        assert!(!off.contains("\"forensics\""));
    }

    #[test]
    fn timeline_is_deterministic_and_covers_the_run() {
        let cfg = MachineConfig::paper_default(4, ProtocolKind::Arc);
        let m = || {
            Machine::new(&cfg).unwrap().with_observability(ObsConfig {
                timeline: true,
                ..ObsConfig::default()
            })
        };
        let p = WorkloadSpec::Canneal.build(4, 1, 7);
        let a = m().run(&p).unwrap();
        let b = m().run(&p).unwrap();
        let ta = a.timeline.expect("sampling was on");
        let tb = b.timeline.expect("sampling was on");
        assert_eq!(
            rce_common::json::to_string(&ta),
            rce_common::json::to_string(&tb),
            "same seed + config must give byte-identical timeline JSON"
        );
        assert!(ta.samples.len() > 2, "the run spans several intervals");
        assert_eq!(ta.samples.last().unwrap().cycle, a.cycles.0);
        assert!(ta.samples.iter().any(|s| s.noc_msgs > 0));
        // Cumulative deltas reconstruct the end-of-run totals.
        let msgs: u64 = ta.samples.iter().map(|s| s.noc_msgs).sum();
        assert_eq!(msgs, a.noc.total_msgs());
    }

    #[test]
    fn tracer_overflow_is_surfaced_in_the_report() {
        use rce_common::obs::TRACE_CAPACITY;
        // canneal at scale 5 emits about 97k events on 4 CE cores.
        let cfg = MachineConfig::paper_default(4, ProtocolKind::Ce);
        let obs = ObsConfig {
            trace: true,
            ..ObsConfig::default()
        };
        let p = WorkloadSpec::Canneal.build(4, 5, 42);
        let r = Machine::new(&cfg)
            .unwrap()
            .with_observability(obs)
            .run(&p)
            .unwrap();
        let log = r.trace.expect("tracing was on");
        let cap = TRACE_CAPACITY as u64;
        assert_eq!(log.capacity, cap);
        assert_eq!(log.events.len(), TRACE_CAPACITY, "ring keeps its capacity");
        assert!(log.emitted > cap, "the run overflows the ring");
        assert_eq!(log.drops, log.emitted - cap, "drops are never silent");
        // The oldest events went: the run's cycle-0 region begins.
        assert!(log.events[0].cycle > 0);
    }

    #[test]
    fn traced_run_records_region_structure() {
        let cfg = MachineConfig::paper_default(4, ProtocolKind::CePlus);
        let p = WorkloadSpec::PingPong.build(4, 1, 3);
        let r = Machine::new(&cfg)
            .unwrap()
            .with_observability(ObsConfig::FULL)
            .run(&p)
            .unwrap();
        let log = r.trace.expect("tracing was on");
        let begins = log
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RegionBegin))
            .count();
        let ends = log
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RegionEnd { .. }))
            .count();
        assert_eq!(ends as u64, r.regions, "one end event per region");
        // 4 initial begins at t=0, plus one per boundary.
        assert_eq!(begins, ends + 4);
        // Every traced event carries a usable timestamp.
        assert!(log.events.iter().all(|e| e.cycle <= r.cycles.0));
        // Accesses were traced with provenance.
        assert!(log
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::MemAccess { .. }) && e.core.is_some()));
    }

    #[test]
    fn forensics_records_provenance_for_every_delivered_exception() {
        for (proto, fastpath) in ProtocolKind::DETECTORS
            .into_iter()
            .flat_map(|p| [(p, true), (p, false)])
        {
            let cfg = MachineConfig::paper_default(4, proto);
            let p = WorkloadSpec::RacyPair.build(4, 1, 42);
            let r = Machine::new(&cfg)
                .unwrap()
                .with_fastpath(fastpath)
                .with_observability(ObsConfig::FORENSICS)
                .run(&p)
                .unwrap();
            let f = r.forensics.as_ref().expect("forensics was on");
            // The internal event ring used for windows is not a trace.
            assert!(r.trace.is_none(), "{proto}: internal ring leaked");
            assert!(!r.exceptions.is_empty(), "{proto}: racy_pair must race");
            assert_eq!(f.delivered, r.exceptions.len() as u64, "{proto}");
            assert_eq!(f.records.len(), r.exceptions.len(), "{proto}");
            // Heatmap totals count materialized (pre-dedup) detections,
            // exactly the engines' conflict_checks_hit counter.
            let hits = r
                .engine_counters
                .iter()
                .find(|(k, _)| k == "conflict_checks_hit")
                .map(|(_, v)| *v)
                .expect("detector counter");
            assert_eq!(f.heatmap_total(), hits, "{proto}");
            assert_eq!(f.total_detections, hits, "{proto}");
            // Every record names both endpoints and a detection path.
            for rec in &f.records {
                assert_ne!(rec.exception.a().core, rec.exception.b().core, "{proto}");
                assert!(!rec.path.describe().is_empty(), "{proto}");
            }
            // Lifetimes were recorded for every completed region.
            assert_eq!(f.region_lifetime.count(), r.regions, "{proto}");
        }
    }

    #[test]
    fn race_on_the_last_word_of_the_address_space() {
        use rce_common::Addr;
        use rce_trace::Program;
        let addr = Addr(u64::MAX - 7);
        let p = Program {
            name: "top_word".into(),
            threads: vec![
                vec![Op::Write { addr, len: 8 }],
                vec![Op::Read { addr, len: 8 }],
            ],
            n_locks: 0,
            n_barriers: 0,
            shared_base: Addr(0),
            shared_end: Addr(0),
        };
        for v in &crate::REGISTRY {
            for obs in [ObsConfig::default(), ObsConfig::FULL] {
                let r = Machine::new(&v.config(2))
                    .unwrap()
                    .with_observability(obs)
                    .run(&p)
                    .unwrap();
                assert_eq!(r.oracle_conflicts.len(), 1, "{}", v.cli_name);
                if v.protocol == ProtocolKind::MesiBaseline {
                    continue;
                }
                assert!(r.matches_oracle(), "{}", v.cli_name);
                if let Some(f) = &r.forensics {
                    assert_eq!(f.records.len(), 1, "{}", v.cli_name);
                    assert!(!f.records[0].recent.is_empty(), "{}", v.cli_name);
                }
            }
        }
    }

    #[test]
    fn forensics_windows_hold_in_a_ring_overflowing_run() {
        // Canneal on CE at 4 cores, scale 5 delivers about four times
        // MAX_RECORDS exceptions and overflows the trace ring. Only the
        // kept records carry windows, and each window holds at most
        // RECENT_WINDOW events on the record's line, oldest first.
        let cfg = MachineConfig::paper_default(4, ProtocolKind::Ce);
        let p = WorkloadSpec::Canneal.build(4, 5, 42);
        let r = Machine::new(&cfg)
            .unwrap()
            .with_observability(ObsConfig {
                trace: true,
                forensics: true,
                ..ObsConfig::default()
            })
            .run(&p)
            .unwrap();
        assert!(r.trace.as_ref().expect("trace was on").drops > 0);
        let f = r.forensics.as_ref().expect("forensics was on");
        assert!(f.delivered > 2 * MAX_RECORDS as u64, "{}", f.delivered);
        assert_eq!(f.records.len(), MAX_RECORDS);
        assert_eq!(f.truncated_records, f.delivered - MAX_RECORDS as u64);
        for rec in &f.records {
            let lo = rec.exception.word_addr.line().0 * 64;
            let w = &rec.recent;
            assert!(w.len() <= RECENT_WINDOW, "{} events", w.len());
            assert!(
                w.iter()
                    .all(|e| matches!(e.kind.addr_span(), Some((a, b)) if a <= lo + 63 && b >= lo)),
                "a window event misses line {lo:#x}"
            );
            assert!(w.windows(2).all(|p| p[0].cycle <= p[1].cycle));
        }
        assert!(f
            .records
            .iter()
            .any(|rec| rec.recent.len() == RECENT_WINDOW));
    }

    #[test]
    fn forensics_is_deterministic() {
        let cfg = MachineConfig::paper_default(4, ProtocolKind::CePlus);
        let p = WorkloadSpec::Canneal.build(4, 1, 7);
        let m = || {
            Machine::new(&cfg)
                .unwrap()
                .with_observability(ObsConfig::FORENSICS)
        };
        let a = m().run(&p).unwrap().forensics.unwrap();
        let b = m().run(&p).unwrap().forensics.unwrap();
        assert_eq!(
            rce_common::json::to_string(&a),
            rce_common::json::to_string(&b)
        );
    }

    #[test]
    fn exceptions_gauge_sums_to_delivered_total() {
        let cfg = MachineConfig::paper_default(4, ProtocolKind::Ce);
        let p = WorkloadSpec::Canneal.build(4, 1, 7);
        let r = Machine::new(&cfg)
            .unwrap()
            .with_observability(ObsConfig {
                timeline: true,
                ..ObsConfig::default()
            })
            .run(&p)
            .unwrap();
        assert!(!r.exceptions.is_empty());
        let t = r.timeline.expect("sampling was on");
        assert!(t.samples.len() > 2, "the run spans several intervals");
        let racy = t.samples.iter().filter(|s| s.exceptions > 0).count();
        assert!(
            racy > 1,
            "exceptions are delivered mid-run, not only at the end"
        );
        let total: u64 = t.samples.iter().map(|s| s.exceptions).sum();
        assert_eq!(total, r.exceptions.len() as u64);
    }

    #[test]
    fn all_parsec_run_on_all_protocols_small() {
        for w in [
            WorkloadSpec::Blackscholes,
            WorkloadSpec::Fluidanimate,
            WorkloadSpec::Dedup,
        ] {
            for proto in ProtocolKind::ALL {
                let r = run(w, proto, 4);
                assert!(r.cycles.0 > 0, "{w} {proto}");
            }
        }
    }
}
