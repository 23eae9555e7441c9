//! Hot-path microbenchmarks (`paper bench-hot`).
//!
//! The simulator's per-access path is dominated by metadata and
//! sharer-state lookups. This module times the three structures that
//! carry that load — the interned flat access-bit tables, the
//! region-boundary flush sets, and the AIM spill/refill path — plus
//! one end-to-end simulation to anchor wall time per simulated access.
//! The flat-table cases run against a `std::collections` reference
//! implementation doing the identical work, which is what backs the
//! "flat storage is ≥2x a hash map on the raw access path" claim in
//! EXPERIMENTS.md; [`MIN_SPEEDUP_X`] pins that floor and `paper
//! bench-hot` exits nonzero below it, so a hot-path regression fails
//! CI even when reports stay byte-identical.
//!
//! Everything here is deterministic in *work* (fixed seeds, fixed op
//! streams); only the measured wall times vary by machine, which is
//! why `results/bench_trajectory.json` keeps them in a `measured`
//! section that the CI diff ignores.

use crate::bencher::Bencher;
use crate::runner::run_one;
use rce_common::{
    AimConfig, CoreId, Cycles, LineAddr, LineFlags, LineMap, LineSet, LineTable, MachineConfig,
    ProtocolKind, RegionId, Rng, SplitMix64, WordIdx, WordMask,
};
use rce_core::{AccessType, AimMeta, Machine, ReadyQueue};
use rce_trace::{Builder, Program, WorkloadSpec};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Hard floor for flat-vs-hashmap raw access throughput. `paper
/// bench-hot` fails below this, and the pinned section of the
/// trajectory baseline records it so it cannot be lowered silently.
pub const MIN_SPEEDUP_X: f64 = 2.0;

/// Hard floor for the end-to-end speedup the repeat fast path buys on
/// a repeat-heavy workload (fast path on vs the same machine with
/// `with_fastpath(false)`). `paper bench-hot` fails below this.
pub const MIN_FASTPATH_SPEEDUP_X: f64 = 1.5;

/// Seed for every synthetic op stream (arbitrary, fixed).
const STREAM_SEED: u64 = 0x5EED_C0FF_EE11_D00D;

/// Distinct lines in the synthetic working set — roughly the per-run
/// footprint of the paper's micro workloads.
const WORKING_SET_LINES: u64 = 4096;

/// The measured half of the hot-path summary: machine-dependent
/// numbers that CI tracks but never gates exactly.
#[derive(Debug, Clone, Copy)]
pub struct HotPathMeasurement {
    /// Simulator wall time per simulated memory access (nanoseconds),
    /// from one pinned end-to-end run.
    pub ns_per_access: f64,
    /// Raw access-table throughput of the interned flat path relative
    /// to the `HashMap` reference doing identical work.
    pub speedup_vs_hashmap: f64,
    /// End-to-end speedup of the repeat fast path on the repeat-heavy
    /// pinned workload (on vs off, same machine).
    pub fastpath_speedup_x: f64,
}

/// One deterministic pseudo-random line stream. Re-created per timing
/// closure so every implementation sees the identical sequence.
fn line_stream(ops: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(STREAM_SEED);
    (0..ops)
        .map(|_| (rng.next_u64() % WORKING_SET_LINES) * 64)
        .collect()
}

/// Cores in the synthetic access mix (the trajectory core count).
const MIX_CORES: usize = 4;

/// The reference raw access path: what one engine access did before
/// interning — a displaced-line `HashSet` probe, an access-bit
/// `HashMap` `entry().or_default()` merge, and a per-core touched-set
/// `HashSet` insert. Three independent hashes of the same address.
fn raw_access_hashmap(stream: &[u64]) -> u64 {
    let mut displaced: HashSet<u64> = HashSet::new();
    let mut bits_by_line: HashMap<u64, u64> = HashMap::new();
    let mut touched: Vec<HashSet<u64>> = (0..MIX_CORES).map(|_| HashSet::new()).collect();
    let mut acc = 0u64;
    for (i, &line) in stream.iter().enumerate() {
        if displaced.contains(&line) {
            acc = acc.wrapping_add(1);
        }
        let bits = bits_by_line.entry(line).or_default();
        *bits |= 1 << (i % 64);
        acc = acc.wrapping_add(*bits);
        touched[i % MIX_CORES].insert(line);
        // Every 16th access displaces its line (eviction pressure).
        if i % 16 == 0 {
            displaced.insert(line);
        }
    }
    acc.wrapping_add(touched.iter().map(|t| t.len() as u64).sum())
}

/// The flat raw access path doing identical work: intern the address
/// once, then the displaced probe, bit merge, and touched insert are
/// all dense bitset/vector ops on the same id.
fn raw_access_flat(stream: &[u64]) -> u64 {
    let mut table = LineTable::new();
    let mut displaced = LineFlags::new();
    let mut bits_by_line: LineMap<u64> = LineMap::new();
    let mut touched: Vec<LineSet> = (0..MIX_CORES).map(|_| LineSet::new()).collect();
    let mut acc = 0u64;
    for (i, &line) in stream.iter().enumerate() {
        let id = table.intern(LineAddr(line));
        if displaced.contains(id) {
            acc = acc.wrapping_add(1);
        }
        let bits = bits_by_line.slot(id);
        *bits |= 1 << (i % 64);
        acc = acc.wrapping_add(*bits);
        touched[i % MIX_CORES].insert(id);
        if i % 16 == 0 {
            displaced.insert(id);
        }
    }
    acc.wrapping_add(touched.iter().map(|t| t.len() as u64).sum())
}

/// Reference region-boundary flush: accumulate touched lines in a
/// `HashSet`, then drain and address-sort (what the engines did before
/// [`LineSet`]).
fn region_flush_hashset(stream: &[u64], region_len: usize) -> u64 {
    let mut touched: HashSet<u64> = HashSet::new();
    let mut acc = 0u64;
    for chunk in stream.chunks(region_len) {
        for &line in chunk {
            touched.insert(line);
        }
        let mut drained: Vec<u64> = touched.drain().collect();
        drained.sort_unstable();
        acc = acc.wrapping_add(drained.len() as u64);
    }
    acc
}

/// Flat region-boundary flush: [`LineSet`] insert-dedup, then the
/// engines' actual drain path (take ids, map back to addresses, sort).
fn region_flush_flat(stream: &[u64], region_len: usize) -> u64 {
    let mut table = LineTable::new();
    let mut touched = LineSet::new();
    let mut acc = 0u64;
    for chunk in stream.chunks(region_len) {
        for &line in chunk {
            let id = table.intern(LineAddr(line));
            touched.insert(id);
        }
        let mut drained: Vec<u64> = touched
            .take()
            .into_iter()
            .map(|id| table.addr(id).0)
            .collect();
        drained.sort_unstable();
        acc = acc.wrapping_add(drained.len() as u64);
    }
    acc
}

/// AIM spill/refill churn: a working set several times the AIM's
/// capacity, so nearly every `ensure` misses, spills a victim to the
/// flat overflow table, and later refills it.
fn aim_spill_refill(stream: &[u64]) -> u64 {
    let mut aim = AimMeta::new(&AimConfig {
        entries: 64,
        ways: 4,
        latency: 4,
        entry_bytes: 16,
    });
    let mut acc = 0u64;
    for &line in stream {
        let o = aim.ensure(LineAddr(line));
        aim.entry(LineAddr(line)).record(
            CoreId(0),
            RegionId(1),
            AccessType::Write,
            WordMask::single(WordIdx(0)),
        );
        acc = acc.wrapping_add(u64::from(o.spilled) + u64::from(o.refilled));
    }
    acc
}

/// Lines each core loops over in the repeat-heavy pinned workload.
/// Small enough to stay resident in every core's L1, so after the
/// first pass every access is a same-region repeat — the fast path's
/// target shape.
const REPEAT_LINES_PER_CORE: usize = 32;

/// The pinned repeat-heavy program for the fast-path pair: each core
/// sweeps its own [`REPEAT_LINES_PER_CORE`]-line slice `iters` times
/// with a full-line write+read per line, no synchronization — one
/// long region per core, so no boundary ends the repeats.
/// Full-line masks make each covered repeat skip the full per-word
/// detection and oracle work, the shape the fast path is built for.
fn repeat_heavy_program(iters: usize) -> Program {
    let mut b = Builder::new("repeat-heavy", MIX_CORES);
    let arena = b.shared((MIX_CORES * REPEAT_LINES_PER_CORE * 64) as u64);
    for t in 0..MIX_CORES {
        for _ in 0..iters {
            for l in 0..REPEAT_LINES_PER_CORE {
                let w = arena.word(((t * REPEAT_LINES_PER_CORE + l) * 8) as u64);
                b.write_n(t, w, 64);
                b.read_n(t, w, 64);
            }
        }
    }
    b.finish()
}

/// One end-to-end run of the repeat-heavy program with the fast path
/// forced on or off. Returns end cycles (for `black_box`).
fn repeat_heavy_run(p: &Program, fastpath: bool) -> u64 {
    let cfg = MachineConfig::paper_default(MIX_CORES, ProtocolKind::CePlus);
    Machine::new(&cfg)
        .unwrap()
        .with_fastpath(fastpath)
        .run(p)
        .unwrap()
        .cycles
        .0
}

/// Cores in the scheduler microbench — the paper's largest sweep
/// point, where the old linear scan hurt most.
const SCHED_CORES: usize = 64;

/// The reference scheduler: scan all cores for the minimum clock
/// (strict `<`, so ties resolve to the lowest ID) every step. This is
/// what `Machine::run_with_policy` did before the index-min queue.
fn sched_linear(steps: usize) -> u64 {
    let mut rng = SplitMix64::new(STREAM_SEED);
    let mut clock = vec![0u64; SCHED_CORES];
    let mut acc = 0u64;
    for _ in 0..steps {
        let mut pick = 0usize;
        for c in 1..SCHED_CORES {
            if clock[c] < clock[pick] {
                pick = c;
            }
        }
        acc = acc.wrapping_add(pick as u64);
        clock[pick] += 1 + rng.gen_range(8);
    }
    acc
}

/// The index-min queue doing identical work: pop the (clock, core)
/// minimum, advance it by the same pseudo-random stride, re-push.
fn sched_heap(steps: usize) -> u64 {
    let mut rng = SplitMix64::new(STREAM_SEED);
    let mut ready = ReadyQueue::with_capacity(SCHED_CORES);
    for c in 0..SCHED_CORES {
        ready.push(Cycles::ZERO, c);
    }
    let mut acc = 0u64;
    for _ in 0..steps {
        let (t, c) = ready.pop().expect("queue never drains");
        acc = acc.wrapping_add(c as u64);
        ready.push(Cycles(t.0 + 1 + rng.gen_range(8)), c);
    }
    acc
}

/// Median wall time of `samples` runs of `f`, in seconds.
fn median_secs<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_unstable_by(|a, b| a.partial_cmp(b).expect("bench times are finite"));
    times[times.len() / 2]
}

/// Silent measurement of the two headline hot-path numbers, sized for
/// a CI gate. Used by `paper trajectory` (which embeds them in the
/// baseline's `measured` section) and by [`run`].
pub fn measure(smoke: bool) -> HotPathMeasurement {
    let ops = if smoke { 200_000 } else { 2_000_000 };
    let stream = line_stream(ops);
    let samples = if smoke { 3 } else { 5 };
    let t_hash = median_secs(samples, || raw_access_hashmap(&stream));
    let t_flat = median_secs(samples, || raw_access_flat(&stream));

    // One pinned end-to-end run anchors simulated-access wall cost.
    let t0 = Instant::now();
    let r = run_one(WorkloadSpec::PingPong, ProtocolKind::CePlus, 4, 1, 42);
    let wall = t0.elapsed().as_secs_f64();
    let accesses = (r.mem_ops + r.sync_ops).max(1);

    // The fast-path pair: the identical repeat-heavy run with the
    // fast path on and off.
    let iters = if smoke { 60 } else { 300 };
    let program = repeat_heavy_program(iters);
    let t_on = median_secs(samples, || repeat_heavy_run(&program, true));
    let t_off = median_secs(samples, || repeat_heavy_run(&program, false));

    HotPathMeasurement {
        ns_per_access: wall * 1e9 / accesses as f64,
        speedup_vs_hashmap: t_hash / t_flat.max(f64::MIN_POSITIVE),
        fastpath_speedup_x: t_off / t_on.max(f64::MIN_POSITIVE),
    }
}

/// Run the full printed suite (`paper bench-hot`). Returns the
/// headline measurement so the caller can enforce [`MIN_SPEEDUP_X`].
pub fn run(smoke: bool) -> HotPathMeasurement {
    let ops = if smoke { 200_000 } else { 2_000_000 };
    let stream = line_stream(ops);
    let elements = Some(ops as u64);

    let mut b = Bencher::group("hot-path");
    b.case("raw-access/hashmap", elements, || {
        raw_access_hashmap(&stream)
    });
    b.case("raw-access/flat", elements, || raw_access_flat(&stream));
    b.case("region-flush/hashset", elements, || {
        region_flush_hashset(&stream, 256)
    });
    b.case("region-flush/flat", elements, || {
        region_flush_flat(&stream, 256)
    });
    b.case("aim-spill-refill/flat", elements, || {
        aim_spill_refill(&stream)
    });
    let sched_steps = ops;
    b.case(
        "scheduler-64c/linear-scan",
        Some(sched_steps as u64),
        || sched_linear(sched_steps),
    );
    b.case("scheduler-64c/index-min", Some(sched_steps as u64), || {
        sched_heap(sched_steps)
    });
    b.case("sim/end-to-end", None, || {
        run_one(WorkloadSpec::PingPong, ProtocolKind::CePlus, 4, 1, 42).cycles
    });

    let m = measure(smoke);
    println!(
        "hot-path summary: {:.1} ns per simulated access, flat raw-access path {:.2}x the \
         HashMap reference (floor {MIN_SPEEDUP_X}x), repeat fast path {:.2}x end-to-end \
         (floor {MIN_FASTPATH_SPEEDUP_X}x)",
        m.ns_per_access, m.speedup_vs_hashmap, m.fastpath_speedup_x
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implementations_agree_on_the_work() {
        // The timed closures must do identical logical work, or the
        // comparison is meaningless: same accumulator on the same
        // stream, same drain counts at every region boundary.
        let stream = line_stream(10_000);
        assert_eq!(raw_access_hashmap(&stream), raw_access_flat(&stream));
        assert_eq!(
            region_flush_hashset(&stream, 128),
            region_flush_flat(&stream, 128)
        );
    }

    #[test]
    fn aim_churn_actually_spills_and_refills() {
        let stream = line_stream(20_000);
        assert!(
            aim_spill_refill(&stream) > 0,
            "the working set must exceed AIM capacity"
        );
    }

    #[test]
    fn measure_reports_positive_numbers() {
        let m = measure(true);
        assert!(m.ns_per_access > 0.0);
        assert!(m.speedup_vs_hashmap > 0.0);
        assert!(m.fastpath_speedup_x > 0.0);
    }

    #[test]
    fn schedulers_agree_on_the_schedule() {
        // Identical strides, identical min-(clock, id) semantics: the
        // linear scan and the index-min queue must pick the same core
        // at every step.
        assert_eq!(sched_linear(50_000), sched_heap(50_000));
    }

    #[test]
    fn repeat_heavy_pair_is_cycle_identical() {
        // The fast-path pair only makes sense if both runs simulate
        // the same machine: identical end cycles, fast path on or off.
        let p = repeat_heavy_program(8);
        assert_eq!(repeat_heavy_run(&p, true), repeat_heavy_run(&p, false));
    }
}
