//! Hot-path measurement for `paper trajectory`.
//!
//! The simulator's per-access path is dominated by metadata and
//! sharer-state lookups. This module times six pinned microstreams
//! over the structures that carry that load — the interned flat
//! access-bit tables, the region-boundary flush sets, the AIM
//! spill/refill path, the scheduler's ready queue, the golden
//! oracle's observe/boundary path and the CE/CE+ miss path's
//! access-bit merges — plus the repeat fast path on vs off on a
//! repeat-heavy workload. That ratio is the one gated number:
//! [`MIN_FASTPATH_SPEEDUP_X`] pins its floor and `paper trajectory`
//! exits nonzero below it, so a fast-path regression fails CI even
//! when reports stay byte-identical.
//!
//! Everything here is deterministic in *work* (fixed seeds, fixed op
//! streams); only the measured wall times vary by machine, which is
//! why `results/bench_trajectory.json` keeps them in a `measured`
//! section that the CI diff ignores.

use rce_common::{
    Addr, AimConfig, CoreId, Cycles, LineAddr, LineFlags, LineMap, LineSet, LineTable,
    MachineConfig, ProtocolKind, RegionId, Rng, SplitMix64, WordIdx, WordMask,
};
use rce_core::{AccessType, AimMeta, Machine, MetaMap, Oracle, ReadyQueue};
use rce_trace::{Builder, Program};
use std::hint::black_box;
use std::time::Instant;

/// Hard floor for the end-to-end speedup the repeat fast path buys on
/// a repeat-heavy workload (fast path on vs the same machine with
/// `with_fastpath(false)`). `paper trajectory` fails below this.
pub const MIN_FASTPATH_SPEEDUP_X: f64 = 1.5;

/// Seed for every synthetic op stream (arbitrary, fixed).
const STREAM_SEED: u64 = 0x5EED_C0FF_EE11_D00D;

/// Distinct lines in the synthetic working set — roughly the per-run
/// footprint of the paper's micro workloads.
const WORKING_SET_LINES: u64 = 4096;

/// Operations per microstream.
const STREAM_OPS: usize = 200_000;

/// Timed samples per case; the median is reported.
const SAMPLES: usize = 3;

/// Sweeps over each core's slice in the repeat-heavy pinned workload.
const REPEAT_ITERS: usize = 60;

/// The measured hot-path numbers: machine-dependent, tracked by CI but
/// never diffed exactly.
#[derive(Debug, Clone, Copy)]
pub struct HotPathMeasurement {
    /// End-to-end speedup of the repeat fast path on the repeat-heavy
    /// pinned workload (on vs off, same machine).
    pub fastpath_speedup_x: f64,
    /// Nanoseconds per operation of each microstream, by name.
    pub ns_per_op: [(&'static str, f64); 6],
}

/// One deterministic pseudo-random line stream.
fn line_stream(ops: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(STREAM_SEED);
    (0..ops)
        .map(|_| (rng.next_u64() % WORKING_SET_LINES) * 64)
        .collect()
}

/// Cores in the synthetic access mix (the trajectory core count).
const MIX_CORES: usize = 4;

/// The raw access path of one engine access: intern the address once,
/// then a displaced-line probe, an access-bit merge and a per-core
/// touched-set insert, all dense bitset/vector ops on the same id.
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
        // Every 16th access displaces its line (eviction pressure).
        if i % 16 == 0 {
            displaced.insert(id);
        }
    }
    acc.wrapping_add(touched.iter().map(|t| t.len() as u64).sum())
}

/// Region-boundary flush: [`LineSet`] insert-dedup, then the engines'
/// actual drain path (take ids, map back to addresses, sort).
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

/// Cores in the scheduler microstream — the paper's largest sweep
/// point.
const SCHED_CORES: usize = 64;

/// The ready queue under a run's pop/re-push pattern: pop the
/// (clock, core) minimum, advance it by a pseudo-random stride,
/// re-push.
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

/// Cores in the oracle microstream — the width of the 32-core
/// simulator benchmarks.
const ORACLE_CORES: usize = 32;

/// Observes per core between its region boundaries in the oracle
/// microstream.
const ORACLE_REGION_OPS: usize = 64;

/// The oracle under a run's observe pattern: cores take turns
/// observing a random word of the working set (one in four a write),
/// and each core ends its region every [`ORACLE_REGION_OPS`] of its
/// observes.
fn oracle_observe(ops: usize) -> u64 {
    let mut rng = SplitMix64::new(STREAM_SEED);
    let regions: Vec<_> = (0..ORACLE_CORES as u64).map(RegionId).collect();
    let mut oracle = Oracle::new(&regions);
    let mut next_region = ORACLE_CORES as u64;
    let mut acc = 0u64;
    for i in 0..ops {
        let core = CoreId((i % ORACLE_CORES) as u16);
        let word = Addr(rng.gen_range(WORKING_SET_LINES * 8) * 8);
        let kind = if rng.gen_range(4) == 0 {
            AccessType::Write
        } else {
            AccessType::Read
        };
        acc = acc.wrapping_add(oracle.observe(core, word, kind, Cycles(i as u64)).len() as u64);
        if (i / ORACLE_CORES) % ORACLE_REGION_OPS == ORACLE_REGION_OPS - 1 {
            oracle.region_boundary(core, RegionId(next_region));
            next_region += 1;
        }
    }
    acc.wrapping_add(oracle.count() as u64)
}

/// Cores in the merge microstream — the width of the 32-core simulator
/// benchmarks.
const MERGE_CORES: u64 = 32;

/// Entries per map in the merge microstream: canneal's checked maps
/// hold about 24 at 32 cores.
const MERGE_ENTRIES: usize = 24;

/// Distinct maps the merge microstream draws its inputs from.
const MERGE_POOL: usize = 64;

/// Misses per run of the merge microstream (each is five merges).
const MERGE_MISSES: usize = STREAM_OPS / 8;

/// [`MERGE_POOL`] maps of [`MERGE_ENTRIES`] entries each, cores in
/// random order, region tags from a narrow range so merges meet older,
/// equal and newer tags alike.
fn merge_pool() -> Vec<MetaMap> {
    let mut rng = SplitMix64::new(STREAM_SEED);
    (0..MERGE_POOL)
        .map(|_| {
            let mut m = MetaMap::new();
            while m.len() < MERGE_ENTRIES {
                let kind = [AccessType::Read, AccessType::Write][rng.gen_range(2) as usize];
                m.record(
                    CoreId(rng.gen_range(MERGE_CORES) as u16),
                    RegionId(rng.gen_range(3)),
                    kind,
                    WordMask::single(WordIdx(rng.gen_range(8) as u8)),
                );
            }
            m
        })
        .collect()
}

/// The access-bit gather of a shared-line write miss: the owner's,
/// two sharers' and the LLC copy's maps merge into one incoming map,
/// which then merges into an L1 copy. Returns the summed map sizes.
fn meta_merge_wide(pool: &[MetaMap], misses: usize) -> u64 {
    let mut rng = SplitMix64::new(STREAM_SEED);
    let mut l1 = pool.to_vec();
    let mut acc = 0u64;
    for _ in 0..misses {
        let mut incoming = MetaMap::new();
        for _ in 0..4 {
            incoming.merge(&pool[rng.gen_range(MERGE_POOL as u64) as usize]);
        }
        let copy = &mut l1[rng.gen_range(MERGE_POOL as u64) as usize];
        copy.merge(&incoming);
        acc += (incoming.len() + copy.len()) as u64;
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

/// Median wall time of [`SAMPLES`] runs of `f` after one warm-up, in
/// seconds.
fn median_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_unstable_by(|a, b| a.partial_cmp(b).expect("bench times are finite"));
    times[times.len() / 2]
}

/// Silent measurement of every hot-path number, sized for a CI gate
/// (a few seconds). Used by `paper trajectory`, which embeds the
/// numbers in the baseline's `measured` section.
pub fn measure() -> HotPathMeasurement {
    let stream = line_stream(STREAM_OPS);
    let pool = merge_pool();
    let ns_per_op = |secs: f64| secs * 1e9 / STREAM_OPS as f64;
    let micro = [
        (
            "raw_access_flat",
            ns_per_op(median_secs(|| raw_access_flat(&stream))),
        ),
        (
            "region_flush_flat",
            ns_per_op(median_secs(|| region_flush_flat(&stream, 256))),
        ),
        (
            "aim_spill_refill",
            ns_per_op(median_secs(|| aim_spill_refill(&stream))),
        ),
        (
            "sched_heap",
            ns_per_op(median_secs(|| sched_heap(STREAM_OPS))),
        ),
        (
            "oracle_observe",
            ns_per_op(median_secs(|| oracle_observe(STREAM_OPS))),
        ),
        (
            "meta_merge_wide",
            median_secs(|| meta_merge_wide(&pool, MERGE_MISSES)) * 1e9 / MERGE_MISSES as f64,
        ),
    ];

    // The fast-path pair: the identical repeat-heavy run with the
    // fast path on and off.
    let program = repeat_heavy_program(REPEAT_ITERS);
    let t_on = median_secs(|| repeat_heavy_run(&program, true));
    let t_off = median_secs(|| repeat_heavy_run(&program, false));

    HotPathMeasurement {
        fastpath_speedup_x: t_off / t_on.max(f64::MIN_POSITIVE),
        ns_per_op: micro,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aim_churn_actually_spills_and_refills() {
        let stream = line_stream(20_000);
        assert!(
            aim_spill_refill(&stream) > 0,
            "the working set must exceed AIM capacity"
        );
    }

    #[test]
    fn oracle_stream_finds_conflicts_across_boundaries() {
        // The stream must load the opponent scan, not only the own-bit
        // early return: it finds conflicts, and keeps finding new ones
        // as regions end and fresh region identities begin.
        let few = oracle_observe(ORACLE_CORES * ORACLE_REGION_OPS);
        let many = oracle_observe(4 * ORACLE_CORES * ORACLE_REGION_OPS);
        assert!(few > 0 && many > 2 * few, "{few} then {many} conflicts");
    }

    #[test]
    fn merge_stream_gathers_wide_maps() {
        // Every input is 24 entries wide, and a miss's union of four of
        // them, plus the L1 copy it lands in, is wider still: the
        // merges do real slot lookups, appends and updates.
        let pool = merge_pool();
        assert!(pool.iter().all(|m| m.len() == MERGE_ENTRIES));
        let misses = 200;
        let per_miss = meta_merge_wide(&pool, misses) / misses as u64;
        assert!(
            per_miss > 2 * MERGE_ENTRIES as u64,
            "{per_miss} entries per miss"
        );
    }

    #[test]
    fn measure_reports_positive_numbers() {
        let m = measure();
        assert!(m.fastpath_speedup_x > 0.0);
        let names: Vec<&str> = m.ns_per_op.iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            [
                "raw_access_flat",
                "region_flush_flat",
                "aim_spill_refill",
                "sched_heap",
                "oracle_observe",
                "meta_merge_wide"
            ]
        );
        for (name, ns) in m.ns_per_op {
            assert!(ns > 0.0 && ns.is_finite(), "{name}: {ns} ns/op");
        }
    }

    #[test]
    fn repeat_heavy_pair_is_cycle_identical() {
        // The fast-path pair only makes sense if both runs simulate
        // the same machine: identical end cycles, fast path on or off.
        let p = repeat_heavy_program(8);
        assert_eq!(repeat_heavy_run(&p, true), repeat_heavy_run(&p, false));
    }
}
