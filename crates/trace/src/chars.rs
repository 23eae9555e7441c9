//! Workload characterization — the data behind the paper's Table II.
//!
//! For each program we report the static properties that explain the
//! designs' relative costs: total memory operations, synchronization
//! density, dynamic region count and mean size, the footprint in
//! distinct lines, and what fraction of accesses touch data that more
//! than one thread touches (true sharing at line granularity).
//!
//! A region is the maximal run of operations between a thread's sync
//! ops (and its start and end); only regions with a memory op count.
//! Short regions stress ARC (frequent self-invalidation and flush),
//! long regions with large footprints stress CE (evictions of accessed
//! lines spill metadata to memory).

use crate::program::Program;
use rce_common::impl_json_struct;
use std::collections::{HashMap, HashSet};

/// Table II row for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadChar {
    /// Workload name.
    pub name: String,
    /// Number of threads.
    pub threads: usize,
    /// Total memory operations.
    pub mem_ops: u64,
    /// Total synchronization operations.
    pub sync_ops: u64,
    /// Dynamic regions containing at least one memory op.
    pub regions: u64,
    /// Mean memory ops per region.
    pub mean_region_len: f64,
    /// Distinct lines touched.
    pub footprint_lines: u64,
    /// Distinct lines touched by more than one thread.
    pub shared_lines: u64,
    /// Fraction of memory ops that touch multi-thread lines.
    pub shared_access_frac: f64,
    /// Fraction of memory ops that are writes.
    pub write_frac: f64,
}

impl_json_struct!(to_json WorkloadChar {
    name,
    threads,
    mem_ops,
    sync_ops,
    regions,
    mean_region_len,
    footprint_lines,
    shared_lines,
    shared_access_frac,
    write_frac,
});

/// Compute the Table II row for `p`.
pub fn characterize(p: &Program) -> WorkloadChar {
    let mut toucher: HashMap<u64, (usize, bool)> = HashMap::new(); // line -> (first thread, multi)
    let mut mem_ops = 0u64;
    let mut writes = 0u64;
    let mut regions = 0u64;
    // The thread whose current region already holds a memory op.
    let mut open = None;
    for (t, op) in p.iter_ops() {
        if op.is_sync() {
            open = None;
        }
        if let Some(a) = op.addr() {
            if open != Some(t) {
                regions += 1;
                open = Some(t);
            }
            mem_ops += 1;
            if op.is_write() {
                writes += 1;
            }
            let e = toucher.entry(a.line().0).or_insert((t, false));
            if e.0 != t {
                e.1 = true;
            }
        }
    }
    let shared_lines: HashSet<u64> = toucher
        .iter()
        .filter(|(_, (_, multi))| *multi)
        .map(|(l, _)| *l)
        .collect();
    let mut shared_accesses = 0u64;
    for (_, op) in p.iter_ops() {
        if let Some(a) = op.addr() {
            if shared_lines.contains(&a.line().0) {
                shared_accesses += 1;
            }
        }
    }
    WorkloadChar {
        name: p.name.clone(),
        threads: p.n_threads(),
        mem_ops,
        sync_ops: p.total_sync_ops() as u64,
        regions,
        mean_region_len: if regions == 0 {
            0.0
        } else {
            mem_ops as f64 / regions as f64
        },
        footprint_lines: toucher.len() as u64,
        shared_lines: shared_lines.len() as u64,
        shared_access_frac: if mem_ops == 0 {
            0.0
        } else {
            shared_accesses as f64 / mem_ops as f64
        },
        write_frac: if mem_ops == 0 {
            0.0
        } else {
            writes as f64 / mem_ops as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;
    use crate::workloads::WorkloadSpec;
    use rce_common::{Addr, LockId};

    fn r(a: u64) -> Op {
        Op::Read {
            addr: Addr(a),
            len: 8,
        }
    }

    fn program(threads: Vec<Vec<Op>>) -> Program {
        Program {
            name: "x".into(),
            threads,
            n_locks: 1,
            n_barriers: 0,
            shared_base: Addr(0),
            shared_end: Addr(0),
        }
    }

    /// `(regions, mean_region_len)` of `p`.
    fn region_counts(p: &Program) -> (u64, f64) {
        let c = characterize(p);
        (c.regions, c.mean_region_len)
    }

    #[test]
    fn regions_split_at_sync() {
        let p = program(vec![vec![
            r(0),
            r(8),
            Op::Acquire { lock: LockId(0) },
            r(16),
            Op::Release { lock: LockId(0) },
            r(24),
            r(32),
            r(40),
        ]]);
        assert_eq!(region_counts(&p), (3, 2.0));
    }

    #[test]
    fn empty_regions_not_counted() {
        let p = program(vec![vec![
            Op::Acquire { lock: LockId(0) },
            Op::Release { lock: LockId(0) },
        ]]);
        assert_eq!(region_counts(&p), (0, 0.0));
    }

    #[test]
    fn work_ops_do_not_count_as_mem() {
        let p = program(vec![vec![r(0), Op::Work { cycles: 100 }, r(8)]]);
        assert_eq!(region_counts(&p), (1, 2.0));
    }

    #[test]
    fn regions_aggregate_threads() {
        let p = program(vec![
            vec![
                r(0),
                r(8),
                Op::Acquire { lock: LockId(0) },
                r(16),
                Op::Release { lock: LockId(0) },
            ],
            vec![r(24)],
        ]);
        let c = characterize(&p);
        assert_eq!(c.regions, 3);
        assert_eq!(c.mem_ops, 4);
        assert!((c.mean_region_len - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn swaptions_has_no_sharing() {
        let c = characterize(&WorkloadSpec::Swaptions.build(4, 1, 1));
        assert_eq!(c.shared_lines, 0);
        assert_eq!(c.shared_access_frac, 0.0);
        assert!(c.mem_ops > 0);
    }

    #[test]
    fn canneal_is_heavily_shared() {
        let c = characterize(&WorkloadSpec::Canneal.build(4, 1, 1));
        assert!(c.shared_access_frac > 0.3, "frac={}", c.shared_access_frac);
    }

    #[test]
    fn fluidanimate_has_short_regions() {
        let c = characterize(&WorkloadSpec::Fluidanimate.build(4, 1, 1));
        let b = characterize(&WorkloadSpec::Blackscholes.build(4, 1, 1));
        assert!(c.mean_region_len < b.mean_region_len);
    }

    #[test]
    fn fractions_are_in_range() {
        for w in WorkloadSpec::PARSEC {
            let c = characterize(&w.build(2, 1, 3));
            assert!((0.0..=1.0).contains(&c.shared_access_frac), "{w}");
            assert!((0.0..=1.0).contains(&c.write_frac), "{w}");
            assert!(c.footprint_lines >= c.shared_lines, "{w}");
        }
    }
}
