//! A benchmark-side copy of `Machine::run`'s driver loop that times
//! every call it makes into a simulator layer.
//!
//! The replay makes the same public calls as the machine driver, in the
//! same order: `ReadyQueue::push/pop` (scheduler), `Engine::access` and
//! `Engine::region_boundary`, `Oracle::observe/region_boundary`, the
//! exception dedup set, and `LockManager`/`BarrierManager`. Observability
//! (tracer, sampler, forensics) and the report's histograms are left out;
//! they are off in the plain passes too. One difference is deliberate:
//! the replay observes every access in the oracle, where `Machine::run`
//! skips the observe loop for accesses the access filter short-circuited
//! (each such observe is an early return). The replay so does not
//! depend on `AccessResult::fast`, which the roadmap removes.
//!
//! Every call is counted; one call in [`SAMPLE_EVERY`] per layer is
//! timed with two clock reads, and the calibrated cost of a clock read
//! is subtracted. A layer's estimated time is its call count times its
//! mean sampled call time; whatever the layers do not cover is the
//! driver's own (unattributed) time.

use crate::{median, Outcome, TRACED_REPS};
use rce_common::{CoreId, Cycles, MachineConfig, RceError, RceResult, WordMask};
use rce_core::machine::default_step_limit;
use rce_core::sync::{AcquireOutcome, BarrierManager, BarrierOutcome, LockManager};
use rce_core::{
    engine_for, AccessType, ConflictException, Oracle, ReadyQueue, SimReport, Substrate,
};
use rce_trace::{Op, Program};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Layer names, in the order of [`Replay::layers`].
pub const LAYERS: [&str; 6] = [
    "engine.access",
    "engine.boundary",
    "oracle",
    "dedup",
    "sched",
    "sync",
];
const ACCESS: usize = 0;
const BOUNDARY: usize = 1;
const ORACLE: usize = 2;
const DEDUP: usize = 3;
const SCHED: usize = 4;
const SYNC: usize = 5;

/// One call in this many per layer is timed.
pub const SAMPLE_EVERY: u64 = 64;

/// Calls and sampled time of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerStat {
    /// Every call made into the layer.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Summed wall time of the timed calls, clock cost included.
    pub sampled_ns: u64,
}

impl LayerStat {
    fn add(&mut self, o: &LayerStat) {
        self.calls += o.calls;
        self.sampled += o.sampled;
        self.sampled_ns += o.sampled_ns;
    }

    /// Mean host time of one call, net of one clock read.
    pub fn ns_per_call(&self, clock_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        (self.sampled_ns as f64 / self.sampled as f64 - clock_ns).max(0.0)
    }

    /// Estimated host time spent in the layer.
    pub fn total_ns(&self, clock_ns: f64) -> f64 {
        self.calls as f64 * self.ns_per_call(clock_ns)
    }
}

/// Sums over one or more replays.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTotals {
    /// Per layer, in [`LAYERS`] order.
    layers: [LayerStat; 6],
    /// Summed replay wall time.
    wall_ns: u64,
}

impl LayerTotals {
    /// Fold one replay in.
    fn add(&mut self, r: &Replay) {
        for (t, l) in self.layers.iter_mut().zip(&r.layers) {
            t.add(l);
        }
        self.wall_ns += r.wall_ns;
    }

    /// Report each layer's calls per replay, host ns per call and share
    /// of the timed wall time, the unattributed rest, and the tracing
    /// overhead from the untimed (`plain`) and timed wall times in ns,
    /// one entry per repetition.
    fn emit(&self, out: &mut Outcome, clock_ns: f64, plain: &[f64], traced: &[f64]) {
        eprintln!("clock read: {clock_ns:.1} ns, subtracted from each timed call");
        let wall = self.wall_ns as f64;
        let mut attributed = 0.0;
        for (name, l) in LAYERS.iter().zip(&self.layers) {
            let share = l.total_ns(clock_ns) / wall;
            attributed += share;
            out.metric(
                format!("{name}.calls"),
                (l.calls / plain.len() as u64) as f64,
                "count",
            );
            out.metric(format!("{name}.ns_per_call"), l.ns_per_call(clock_ns), "ns");
            out.metric(format!("{name}.share"), share, "ratio");
        }
        out.metric("driver.unattributed_share", 1.0 - attributed, "ratio");
        out.metric("trace.wall_s", median(traced) / 1e9, "s");
        out.metric(
            "trace.overhead",
            median(traced) / median(plain) - 1.0,
            "ratio",
        );
    }
}

/// What a replay produced: the results the self-check compares with
/// `Machine::run`'s report, plus the layer timings.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Final simulated cycle (the latest core clock).
    pub cycles: u64,
    /// Memory operations committed.
    pub mem_ops: u64,
    /// Regions ended.
    pub regions: u64,
    /// Delivered exceptions, deduplicated and sorted as in the report.
    pub exceptions: Vec<ConflictException>,
    /// Distinct conflicts the oracle found.
    pub oracle_conflicts: usize,
    /// Host wall time of the whole replay.
    pub wall_ns: u64,
    /// Per layer, in [`LAYERS`] order.
    pub layers: [LayerStat; 6],
}

impl Replay {
    /// Compare with `Machine::run`'s report for the same program and
    /// configuration; `Err` names the first field that differs.
    pub fn check_against(&self, r: &SimReport) -> Result<(), String> {
        let same_exceptions = self.exceptions.len() == r.exceptions.len()
            && self
                .exceptions
                .iter()
                .zip(&r.exceptions)
                .all(|(a, b)| a.key() == b.key() && a.detected_at == b.detected_at);
        let fields = [
            ("cycles", self.cycles == r.cycles.0),
            ("mem_ops", self.mem_ops == r.mem_ops),
            ("regions", self.regions == r.regions),
            ("exceptions", same_exceptions),
            (
                "oracle conflicts",
                self.oracle_conflicts == r.oracle_conflicts.len(),
            ),
        ];
        match fields.iter().find(|(_, ok)| !ok) {
            Some((name, _)) => Err(format!(
                "replay of {} on {} differs from Machine::run in {name}",
                r.workload, r.protocol
            )),
            None => Ok(()),
        }
    }
}

/// Replay each of `runs` (a configuration, its program, and
/// `Machine::run`'s report for them) untimed and then timed,
/// [`TRACED_REPS`] times; check every replay against its report and
/// report the layer metrics of the timed replays.
pub fn replay_runs(
    out: &mut Outcome,
    runs: &[(MachineConfig, &Program, &SimReport)],
) -> RceResult<()> {
    let mut totals = LayerTotals::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_REPS {
        let (mut plain_ns, mut traced_ns) = (0, 0);
        for (cfg, program, report) in runs {
            let r = replay::<false>(cfg, program)?;
            out.check("untimed replay", r.check_against(report));
            plain_ns += r.wall_ns;
        }
        for (cfg, program, report) in runs {
            let r = replay::<true>(cfg, program)?;
            out.check("timed replay", r.check_against(report));
            traced_ns += r.wall_ns;
            totals.add(&r);
        }
        plain.push(plain_ns as f64);
        traced.push(traced_ns as f64);
    }
    totals.emit(out, clock_cost_ns(), &plain, &traced);
    Ok(())
}

/// Host cost of one timed empty call: the median of many back-to-back
/// clock-read pairs.
pub fn clock_cost_ns() -> f64 {
    let mut v: Vec<u64> = (0..10_001)
        .map(|_| {
            let t = Instant::now();
            black_box(());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2] as f64
}

struct Timers<const TIMED: bool> {
    layers: [LayerStat; 6],
}

impl<const TIMED: bool> Timers<TIMED> {
    #[inline(always)]
    fn call<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R {
        let s = &mut self.layers[layer];
        s.calls += 1;
        if TIMED && s.calls.is_multiple_of(SAMPLE_EVERY) {
            let t = Instant::now();
            let r = f();
            s.sampled_ns += t.elapsed().as_nanos() as u64;
            s.sampled += 1;
            r
        } else {
            f()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ready,
    Blocked,
    Done,
}

/// Run `program` on `cfg` through the replayed driver loop. With
/// `TIMED = false` no clock is read inside the loop, which gives the
/// baseline for the tracing overhead.
pub fn replay<const TIMED: bool>(cfg: &MachineConfig, program: &Program) -> RceResult<Replay> {
    let start = Instant::now();
    rce_trace::validate(program)?;
    if program.n_threads() != cfg.cores {
        return Err(RceError::MalformedProgram(format!(
            "program has {} threads but the machine has {} cores",
            program.n_threads(),
            cfg.cores
        )));
    }
    let mut t = Timers::<TIMED> {
        layers: [LayerStat::default(); 6],
    };
    let mut engine = engine_for(cfg);
    let mut sub = Substrate::new(cfg);
    let mut oracle = Oracle::new(&sub.regions);
    let mut locks = LockManager::new(program.n_locks);
    let mut barriers = BarrierManager::new(cfg.cores, program.n_barriers);

    let n = cfg.cores;
    let mut cursor = vec![0usize; n];
    let mut clock = vec![Cycles::ZERO; n];
    let mut status = vec![Status::Ready; n];
    let mut ready = ReadyQueue::with_capacity(n);
    for c in 0..n {
        t.call(SCHED, || ready.push(Cycles::ZERO, c));
    }
    let mut mem_ops = 0u64;
    let mut regions = 0u64;
    let mut exceptions: Vec<ConflictException> = Vec::new();
    let mut seen = HashSet::new();
    let limit = default_step_limit(program.total_ops() as u64);
    let mut steps = 0u64;

    // End the core's region: engine boundary work, region clock
    // advance, oracle clear.
    macro_rules! boundary {
        ($core:expr, $now:expr) => {{
            let (core, now) = ($core, $now);
            let b = t.call(BOUNDARY, || engine.region_boundary(&mut sub, core, now))?;
            let new_region = sub.advance_region(core);
            t.call(ORACLE, || oracle.region_boundary(core, new_region));
            regions += 1;
            b.done.max(now)
        }};
    }

    loop {
        steps += 1;
        if steps > limit {
            return Err(RceError::StepLimitExceeded {
                steps,
                limit,
                cursors: cursor.iter().map(|&c| c as u64).collect(),
                mem_ops,
            });
        }
        let Some((_, c)) = t.call(SCHED, || ready.pop()) else {
            if status.iter().all(|s| *s == Status::Done) {
                break;
            }
            return Err(RceError::DriverProtocol(
                "all live cores are blocked (deadlock)".into(),
            ));
        };
        let core = CoreId(c as u16);
        let now = clock[c];

        if cursor[c] >= program.threads[c].len() {
            clock[c] = boundary!(core, now);
            status[c] = Status::Done;
            continue;
        }
        let op = program.threads[c][cursor[c]];
        cursor[c] += 1;
        match op {
            Op::Work { cycles } => {
                let scaled = (cycles as f64 * cfg.ipc_scale).round() as u64;
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
                let res = t.call(ACCESS, || {
                    engine.access(&mut sub, core, addr, mask, kind, now)
                })?;
                let dmask = cfg.detect_mask(mask);
                let line = addr.line();
                t.call(ORACLE, || {
                    for w in dmask.iter() {
                        let _ = oracle.observe(core, line.word_addr(w), kind, now);
                    }
                });
                t.call(DEDUP, || {
                    for ex in res.exceptions {
                        if seen.insert(ex.key()) {
                            exceptions.push(ex);
                        }
                    }
                });
                clock[c] = res.done.max(Cycles(now.0 + 1));
            }
            Op::Acquire { lock } => {
                let done = boundary!(core, now);
                match t.call(SYNC, || locks.acquire(lock, core, done)) {
                    AcquireOutcome::Granted(at) => clock[c] = at,
                    AcquireOutcome::Blocked => {
                        clock[c] = done;
                        status[c] = Status::Blocked;
                    }
                }
            }
            Op::Release { lock } => {
                let done = boundary!(core, now);
                if let Some((next, at)) = t.call(SYNC, || locks.release(lock, core, done)) {
                    let ni = next.index();
                    status[ni] = Status::Ready;
                    clock[ni] = clock[ni].max(at);
                    let woke = clock[ni];
                    t.call(SCHED, || ready.push(woke, ni));
                }
                clock[c] = done;
            }
            Op::Barrier { bar } => {
                let done = boundary!(core, now);
                clock[c] = done;
                match t.call(SYNC, || barriers.arrive(bar, core, done)) {
                    BarrierOutcome::Blocked => status[c] = Status::Blocked,
                    BarrierOutcome::Released(cores, at) => {
                        for rc in cores {
                            let ri = rc.index();
                            status[ri] = Status::Ready;
                            clock[ri] = clock[ri].max(at);
                            if ri != c {
                                let woke = clock[ri];
                                t.call(SCHED, || ready.push(woke, ri));
                            }
                        }
                    }
                }
            }
        }
        if status[c] == Status::Ready {
            let at = clock[c];
            t.call(SCHED, || ready.push(at, c));
        }
    }

    exceptions.sort();
    Ok(Replay {
        cycles: clock.iter().map(|c| c.0).max().unwrap_or(0),
        mem_ops,
        regions,
        exceptions,
        oracle_conflicts: oracle.count(),
        wall_ns: start.elapsed().as_nanos() as u64,
        layers: t.layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_core::{Machine, REGISTRY};
    use rce_trace::WorkloadSpec;

    #[test]
    fn replay_agrees_with_machine_run_for_every_registry_variant() {
        let workloads = [
            WorkloadSpec::Canneal,
            WorkloadSpec::Fluidanimate,
            WorkloadSpec::Swaptions,
            WorkloadSpec::PingPong,
            WorkloadSpec::RacyPair,
        ];
        for v in REGISTRY {
            let cfg = v.config(4);
            for w in workloads {
                let p = w.build(4, 1, 7);
                let report = Machine::new(&cfg).unwrap().run(&p).unwrap();
                let timed = replay::<true>(&cfg, &p).unwrap();
                let plain = replay::<false>(&cfg, &p).unwrap();
                timed.check_against(&report).unwrap();
                plain.check_against(&report).unwrap();
                assert_eq!(timed.layers[ACCESS].calls, report.mem_ops);
                assert_eq!(timed.layers[BOUNDARY].calls, report.regions);
            }
        }
    }

    #[test]
    fn check_names_the_first_differing_field() {
        let cfg = REGISTRY[2].config(4);
        let p = WorkloadSpec::RacyPair.build(4, 1, 7);
        let report = Machine::new(&cfg).unwrap().run(&p).unwrap();
        let mut r = replay::<false>(&cfg, &p).unwrap();
        r.regions += 1;
        let err = r.check_against(&report).unwrap_err();
        assert!(err.contains("regions"), "{err}");
    }
}
