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

use crate::exception::{AccessType, ConflictException, ExceptionPolicy};
use crate::forensics::Forensics;
use crate::oracle::Oracle;
use crate::protocol::{Engine, Substrate};
use crate::report::{AimSummary, SimReport};
use crate::sched::ReadyQueue;
use crate::sync::{AcquireOutcome, BarrierManager, BarrierOutcome, LockManager};
use rce_common::obs::{
    shared_tracer, EventClass, EventKind, GaugeSnapshot, MetricsSampler, ObsConfig, SimEvent,
    TraceConfig, Tracer,
};
use rce_common::{
    BarrierId, CoreId, Cycles, FxBuildHasher, LockId, MachineConfig, RceError, RceResult, WordMask,
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
pub const STEP_LIMIT_FACTOR: u64 = 8;

/// Flat step allowance added on top of the per-op budget so that tiny
/// programs (few ops, many cores) still get room for boundary and
/// wake-up bookkeeping.
pub const STEP_LIMIT_BASE: u64 = 100_000;

/// The default scheduler-step budget for a program:
/// `(total_ops + 1) * STEP_LIMIT_FACTOR + STEP_LIMIT_BASE`.
pub fn default_step_limit(total_ops: u64) -> u64 {
    (total_ops + 1) * STEP_LIMIT_FACTOR + STEP_LIMIT_BASE
}

/// The simulator.
pub struct Machine {
    cfg: MachineConfig,
    energy_model: EnergyModel,
    step_limit: Option<u64>,
    obs: ObsConfig,
    /// Explicit override for the engine's repeat-access fast path
    /// (`None` = engine default: on unless `RCE_DISABLE_FASTPATH` is
    /// set). Reports are byte-identical either way.
    fastpath: Option<bool>,
}

/// Read every cumulative gauge the interval sampler differences.
fn gauges(sub: &Substrate, engine: &dyn Engine, exceptions: u64) -> GaugeSnapshot {
    let noc = sub.noc.stats();
    let dram = sub.dram.stats();
    let (aim_hits, aim_misses) = engine
        .aim_totals()
        .map(|(_, h, m, _)| (h, m))
        .unwrap_or((0, 0));
    let (_, llc_misses, _) = sub.llc.gauges();
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
        llc_misses,
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
            energy_model: EnergyModel::default(),
            step_limit: None,
            obs: ObsConfig::default(),
            fastpath: None,
        })
    }

    /// Force the engine's repeat-access fast path on or off for
    /// subsequent runs, overriding the `RCE_DISABLE_FASTPATH`
    /// environment default. The equivalence property tests run every
    /// workload both ways and require byte-identical reports.
    pub fn with_fastpath(mut self, on: bool) -> Self {
        self.fastpath = Some(on);
        self
    }

    /// Enable observability (event tracing and/or interval metrics)
    /// for subsequent runs. The default is fully off, and off-mode
    /// reports are byte-identical to builds without the subsystem.
    pub fn with_observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Override the energy model.
    pub fn with_energy_model(mut self, m: EnergyModel) -> Self {
        self.energy_model = m;
        self
    }

    /// Override the scheduler-step budget (default:
    /// [`default_step_limit`] of the program's op count). Mostly for
    /// tests that want a livelock to trip quickly.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
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
        rce_trace::validate(program)?;
        if program.n_threads() != self.cfg.cores {
            return Err(RceError::MalformedProgram(format!(
                "program has {} threads but the machine has {} cores",
                program.n_threads(),
                self.cfg.cores
            )));
        }

        let mut engine = crate::engine_for(&self.cfg);
        if let Some(on) = self.fastpath {
            engine.set_fastpath(on);
        }
        let mut sub = Substrate::new(&self.cfg);
        let mut oracle = Oracle::new(&sub.regions);
        let mut locks = LockManager::new(program.n_locks);
        let mut barriers = BarrierManager::new(self.cfg.cores, program.n_barriers);

        let n = self.cfg.cores;
        let mut cursor = vec![0usize; n];
        let mut clock = vec![Cycles::ZERO; n];
        let mut status = vec![Status::Ready; n];
        // Index-min scheduler: every Ready core has exactly one queued
        // entry carrying its current clock. Pop order — smallest clock,
        // lowest core ID on ties — matches the old linear scan exactly
        // (pinned by `sched::tests` and the golden gate) in O(log n).
        let mut ready = ReadyQueue::with_capacity(n);
        for c in 0..n {
            ready.push(Cycles::ZERO, c);
        }

        let mut mem_ops = 0u64;
        let mut sync_ops = 0u64;
        let mut regions = 0u64;
        let mut access_latency = rce_common::Histogram::new();
        let mut region_len = rce_common::Histogram::new();
        let mut boundary_cost = rce_common::Histogram::new();
        // Memory ops committed in each core's current region.
        let mut region_ops = vec![0u64; n];
        let mut per_core = vec![crate::report::CoreStats::default(); n];
        let mut exceptions: Vec<ConflictException> = Vec::new();
        // Membership only (exceptions keep delivery order), so the
        // fast hasher never reaches a report.
        let mut seen = HashSet::<_, FxBuildHasher>::default();
        let mut aborted = false;
        let obs = &self.obs;
        let trace_requested = obs.trace.is_some();
        let mut tracer = obs.trace.clone().map(|tc| shared_tracer(Tracer::new(tc)));
        if tracer.is_none() && obs.forensics.is_some() {
            // Forensics wants recent-event windows even when the user
            // did not ask for a trace: run an internal ring that is
            // never exported in the report.
            tracer = Some(shared_tracer(Tracer::new(TraceConfig::default())));
        }
        let mut forensics = obs.forensics.clone().map(Forensics::new);
        let mut region_start = vec![Cycles::ZERO; n];
        if let Some(t) = &tracer {
            sub.attach_tracer(t.clone());
            // Every core's first region opens at t=0.
            for c in 0..n {
                let core = CoreId(c as u16);
                sub.trace(EventClass::Region, || SimEvent {
                    cycle: 0,
                    core: Some(core.0),
                    region: Some(sub.region_of(core).0),
                    kind: EventKind::RegionBegin,
                });
            }
        }
        let mut sampler = obs.sample_interval.map(MetricsSampler::new);

        let limit = self
            .step_limit
            .unwrap_or_else(|| default_step_limit(program.total_ops() as u64));
        let mut steps = 0u64;

        // End the core's current region: engine boundary work, region
        // clock advance, oracle clear, statistics.
        #[allow(clippy::too_many_arguments)]
        fn boundary(
            engine: &mut Box<dyn Engine>,
            sub: &mut Substrate,
            oracle: &mut Oracle,
            core: CoreId,
            now: Cycles,
            regions: &mut u64,
            region_ops: &mut [u64],
            region_len: &mut rce_common::Histogram,
            boundary_cost: &mut rce_common::Histogram,
            region_start: &mut [Cycles],
            forensics: &mut Option<Forensics>,
        ) -> RceResult<Cycles> {
            let old_region = sub.region_of(core);
            let b = engine.region_boundary(sub, core, now)?;
            let new_region = sub.advance_region(core);
            oracle.region_boundary(core, new_region);
            *regions += 1;
            let ops = std::mem::take(&mut region_ops[core.index()]);
            if ops > 0 {
                region_len.record(ops);
            }
            let done = b.done.max(now);
            boundary_cost.record(done.0 - now.0);
            if let Some(f) = forensics.as_mut() {
                f.region_ended(done.0.saturating_sub(region_start[core.index()].0));
            }
            region_start[core.index()] = done;
            sub.trace(EventClass::Region, || SimEvent {
                cycle: done.0,
                core: Some(core.0),
                region: Some(old_region.0),
                kind: EventKind::RegionEnd {
                    cost: done.0 - now.0,
                },
            });
            sub.trace(EventClass::Region, || SimEvent {
                cycle: done.0,
                core: Some(core.0),
                region: Some(new_region.0),
                kind: EventKind::RegionBegin,
            });
            Ok(done)
        }

        'run: loop {
            steps += 1;
            if steps > limit {
                return Err(RceError::StepLimitExceeded {
                    steps,
                    limit,
                    cursors: cursor.iter().map(|&c| c as u64).collect(),
                    mem_ops,
                });
            }
            // Pop the runnable core with the smallest clock (lowest ID
            // on ties).
            let Some((popped_clock, c)) = ready.pop() else {
                if status.iter().all(|s| *s == Status::Done) {
                    break 'run;
                }
                return Err(deadlock_error(&status, &locks, &barriers));
            };
            debug_assert_eq!(status[c], Status::Ready);
            debug_assert_eq!(popped_clock, clock[c], "queued entry went stale");
            let core = CoreId(c as u16);
            let now = clock[c];

            if let Some(s) = &mut sampler {
                if s.due(now.0) {
                    s.tick(now.0, gauges(&sub, &*engine, exceptions.len() as u64));
                }
            }

            // Thread finished?
            if cursor[c] >= program.threads[c].len() {
                // Final region ends at thread end.
                let done = boundary(
                    &mut engine,
                    &mut sub,
                    &mut oracle,
                    core,
                    now,
                    &mut regions,
                    &mut region_ops,
                    &mut region_len,
                    &mut boundary_cost,
                    &mut region_start,
                    &mut forensics,
                )?;
                clock[c] = done;
                status[c] = Status::Done;
                per_core[c].finish = done;
                continue;
            }

            let op = program.threads[c][cursor[c]];
            cursor[c] += 1;
            match op {
                Op::Work { cycles } => {
                    let scaled = (cycles as f64 * self.cfg.ipc_scale).round() as u64;
                    clock[c] = Cycles(now.0 + scaled.max(1));
                }
                Op::Read { addr, len } | Op::Write { addr, len } => {
                    let kind = if matches!(op, Op::Write { .. }) {
                        AccessType::Write
                    } else {
                        AccessType::Read
                    };
                    mem_ops += 1;
                    let mask = WordMask::span(addr, len as u64);
                    let res = engine.access(&mut sub, core, addr, mask, kind, now)?;
                    let dmask = self.cfg.detect_mask(mask);
                    sub.trace(EventClass::Access, || SimEvent {
                        cycle: now.0,
                        core: Some(core.0),
                        region: Some(sub.region_of(core).0),
                        kind: EventKind::MemAccess {
                            addr: addr.0,
                            write: kind == AccessType::Write,
                            exceptions: res.exceptions.len() as u64,
                        },
                    });
                    // Oracle sees the same committed access, word by
                    // word, at the configured detection granularity.
                    // A fast-path access repeats words this core+kind
                    // already observed this region, so every observe
                    // would take the oracle's own early-return; skip
                    // the loop entirely.
                    let line = addr.line();
                    if !res.fast {
                        for w in dmask.iter() {
                            let _ = oracle.observe(core, line.word_addr(w), kind, now);
                        }
                    }
                    for (i, ex) in res.exceptions.into_iter().enumerate() {
                        if let Some(f) = &mut forensics {
                            f.observe(&ex);
                        }
                        if seen.insert(ex.key()) {
                            sub.trace(EventClass::Conflict, || {
                                let letter =
                                    |k: AccessType| if k == AccessType::Write { "W" } else { "R" };
                                let other = if ex.a.core == core {
                                    ex.b.core
                                } else {
                                    ex.a.core
                                };
                                SimEvent {
                                    cycle: now.0,
                                    core: Some(core.0),
                                    region: Some(sub.region_of(core).0),
                                    kind: EventKind::Conflict {
                                        word: ex.word_addr.0 / 8,
                                        other_core: other.0 as u64,
                                        kinds: format!(
                                            "{}/{}",
                                            letter(ex.a.kind),
                                            letter(ex.b.kind)
                                        ),
                                    },
                                }
                            });
                            if let Some(f) = &mut forensics {
                                if let Some(path) = res.paths.get(i).copied() {
                                    let recent = tracer
                                        .as_ref()
                                        .map(|t| f.window(&t.borrow(), line.0))
                                        .unwrap_or_default();
                                    f.deliver(ex.clone(), path, recent);
                                }
                            }
                            exceptions.push(ex);
                            if policy == ExceptionPolicy::AbortOnFirst {
                                clock[c] = res.done.max(Cycles(now.0 + 1));
                                aborted = true;
                                break 'run;
                            }
                        }
                    }
                    clock[c] = res.done.max(Cycles(now.0 + 1));
                    access_latency.record(clock[c].0 - now.0);
                    region_ops[c] += 1;
                    per_core[c].mem_ops += 1;
                }
                Op::Acquire { lock } => {
                    sync_ops += 1;
                    per_core[c].sync_ops += 1;
                    let done = boundary(
                        &mut engine,
                        &mut sub,
                        &mut oracle,
                        core,
                        now,
                        &mut regions,
                        &mut region_ops,
                        &mut region_len,
                        &mut boundary_cost,
                        &mut region_start,
                        &mut forensics,
                    )?;
                    match locks.acquire(lock, core, done) {
                        AcquireOutcome::Granted(t) => clock[c] = t,
                        AcquireOutcome::Blocked => {
                            clock[c] = done;
                            status[c] = Status::BlockedLock(lock);
                        }
                    }
                }
                Op::Release { lock } => {
                    sync_ops += 1;
                    per_core[c].sync_ops += 1;
                    let done = boundary(
                        &mut engine,
                        &mut sub,
                        &mut oracle,
                        core,
                        now,
                        &mut regions,
                        &mut region_ops,
                        &mut region_len,
                        &mut boundary_cost,
                        &mut region_start,
                        &mut forensics,
                    )?;
                    if let Some((next, t)) = locks.release(lock, core, done) {
                        let ni = next.index();
                        debug_assert_eq!(status[ni], Status::BlockedLock(lock));
                        status[ni] = Status::Ready;
                        clock[ni] = clock[ni].max(t);
                        ready.push(clock[ni], ni);
                    }
                    clock[c] = done;
                }
                Op::Barrier { bar } => {
                    sync_ops += 1;
                    per_core[c].sync_ops += 1;
                    let done = boundary(
                        &mut engine,
                        &mut sub,
                        &mut oracle,
                        core,
                        now,
                        &mut regions,
                        &mut region_ops,
                        &mut region_len,
                        &mut boundary_cost,
                        &mut region_start,
                        &mut forensics,
                    )?;
                    clock[c] = done;
                    match barriers.arrive(bar, core, done) {
                        BarrierOutcome::Blocked => status[c] = Status::BlockedBarrier(bar),
                        BarrierOutcome::Released(cores, t) => {
                            for rc in cores {
                                let ri = rc.index();
                                status[ri] = Status::Ready;
                                clock[ri] = clock[ri].max(t);
                                // The arriving core is re-queued by the
                                // generic end-of-step push below.
                                if ri != c {
                                    ready.push(clock[ri], ri);
                                }
                            }
                        }
                    }
                }
            }

            // Re-queue the stepped core at its new clock unless it
            // blocked (or finished, which `continue`s above). Blocked
            // cores are pushed by whoever wakes them.
            if status[c] == Status::Ready {
                ready.push(clock[c], c);
            }
        }

        let end = clock.iter().copied().max().unwrap_or(Cycles::ZERO);
        sub.noc.finalize(end);
        sub.dram.finalize(end);

        // Close out the observability layers. The tracer is drained
        // (not unwrapped) because the NoC and DRAM still hold clones.
        let timeline =
            sampler.map(|s| s.finish(end.0, gauges(&sub, &*engine, exceptions.len() as u64)));
        // The internal forensics-only ring never reaches the report.
        let trace = if trace_requested {
            tracer.map(|t| t.borrow_mut().take_log())
        } else {
            None
        };
        let forensics = forensics.map(Forensics::finish);

        let (l1_hits, l1_misses, l1_evictions) = engine.l1_totals();
        let aim = engine.aim_totals().map(|(a, h, m, s)| AimSummary {
            accesses: a,
            hits: h,
            misses: m,
            spills: s,
        });
        let counts = EventCounts {
            l1_accesses: engine.l1_accesses(),
            llc_accesses: sub.llc_accesses.get(),
            aim_accesses: aim.map_or(0, |a| a.accesses),
            dir_accesses: sub.dir_accesses.get(),
            noc_flit_hops: sub.noc.stats().flit_hops.get(),
            dram_bytes: sub.dram.total_bytes().0,
            dram_accesses: sub.dram.stats().total_accesses(),
            cycles: end.0,
            cores: self.cfg.cores as u64,
        };
        let energy = self.energy_model.evaluate(&counts);

        exceptions.sort();
        Ok(SimReport {
            protocol: self.cfg.protocol,
            workload: program.name.clone(),
            cores: self.cfg.cores,
            cycles: end,
            mem_ops,
            sync_ops,
            regions,
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
            oracle_conflicts: oracle.conflicts(),
            aborted,
            timeline,
            trace,
            forensics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let cfg = MachineConfig::paper_default(4, ProtocolKind::Ce);
        let p = WorkloadSpec::RacyPair.build(4, 1, 42);
        let m = Machine::new(&cfg).unwrap();
        let r = m
            .run_with_policy(&p, ExceptionPolicy::AbortOnFirst)
            .unwrap();
        assert!(r.aborted);
        assert_eq!(r.exceptions.len(), 1);
        let full = m.run(&p).unwrap();
        assert!(full.mem_ops >= r.mem_ops);
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
        let p = WorkloadSpec::FalseSharing.build(4, 1, 42);
        let plain = Machine::new(&cfg).unwrap().run(&p).unwrap();
        let observed = Machine::new(&cfg)
            .unwrap()
            .with_observability(ObsConfig::full(1000))
            .run(&p)
            .unwrap();
        assert!(observed.timeline.is_some());
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
                trace: None,
                sample_interval: Some(512),
                forensics: None,
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
        assert_eq!(ta.samples.last().unwrap().cycle, a.cycles.0);
        assert!(ta.samples.iter().any(|s| s.noc_msgs > 0));
        // Cumulative deltas reconstruct the end-of-run totals.
        let msgs: u64 = ta.samples.iter().map(|s| s.noc_msgs).sum();
        assert_eq!(msgs, a.noc.total_msgs());
    }

    #[test]
    fn tracer_overflow_is_surfaced_in_the_report() {
        let cfg = MachineConfig::paper_default(4, ProtocolKind::Ce);
        let obs = ObsConfig {
            trace: Some(TraceConfig {
                capacity: 8,
                ..TraceConfig::default()
            }),
            sample_interval: None,
            forensics: None,
        };
        let p = WorkloadSpec::Canneal.build(4, 1, 7);
        let r = Machine::new(&cfg)
            .unwrap()
            .with_observability(obs)
            .run(&p)
            .unwrap();
        let log = r.trace.expect("tracing was on");
        assert_eq!(log.events.len(), 8, "ring keeps exactly its capacity");
        assert!(log.emitted > 8);
        assert_eq!(log.drops, log.emitted - 8, "drops are never silent");
    }

    #[test]
    fn traced_run_records_region_structure() {
        let cfg = MachineConfig::paper_default(4, ProtocolKind::CePlus);
        let p = WorkloadSpec::PingPong.build(4, 1, 3);
        let r = Machine::new(&cfg)
            .unwrap()
            .with_observability(ObsConfig::full(4096))
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
        for proto in ProtocolKind::DETECTORS {
            let cfg = MachineConfig::paper_default(4, proto);
            let p = WorkloadSpec::RacyPair.build(4, 1, 42);
            let r = Machine::new(&cfg)
                .unwrap()
                .with_observability(ObsConfig::forensics_only())
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
                assert_ne!(rec.exception.a.core, rec.exception.b.core, "{proto}");
                assert!(!rec.path.describe().is_empty(), "{proto}");
            }
            // Lifetimes were recorded for every completed region.
            assert_eq!(f.region_lifetime.count(), r.regions, "{proto}");
        }
    }

    #[test]
    fn forensics_is_deterministic() {
        let cfg = MachineConfig::paper_default(4, ProtocolKind::CePlus);
        let p = WorkloadSpec::Canneal.build(4, 1, 7);
        let m = || {
            Machine::new(&cfg)
                .unwrap()
                .with_observability(ObsConfig::forensics_only())
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
        let p = WorkloadSpec::RacyPair.build(4, 1, 42);
        let r = Machine::new(&cfg)
            .unwrap()
            .with_observability(ObsConfig {
                trace: None,
                sample_interval: Some(256),
                forensics: None,
            })
            .run(&p)
            .unwrap();
        assert!(!r.exceptions.is_empty());
        let t = r.timeline.expect("sampling was on");
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
