//! Synchronization-free-region accounting.
//!
//! A region is the maximal run of non-synchronization operations
//! between sync ops (and the trace ends). These statistics drive the
//! Table II characterization and the intuition for each design's cost:
//! short regions stress ARC (frequent self-invalidation/flush), long
//! regions with large footprints stress CE (evictions of accessed
//! lines spill metadata to memory).

use crate::op::Op;
use crate::program::Program;

/// Per-program region statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct RegionStats {
    /// Total number of (dynamic) regions across all threads, counting
    /// only regions containing at least one memory operation.
    pub regions: u64,
    /// Total memory operations.
    pub mem_ops: u64,
    /// Mean memory operations per non-empty region.
    pub mean_mem_ops_per_region: f64,
    /// Largest region (memory ops).
    pub max_mem_ops_per_region: u64,
}

/// Lengths (in memory ops) of every non-empty region of one thread.
pub(crate) fn region_lengths(ops: &[Op]) -> Vec<u64> {
    let mut lens = Vec::new();
    let mut cur = 0u64;
    for op in ops {
        if op.is_sync() {
            if cur > 0 {
                lens.push(cur);
            }
            cur = 0;
        } else if op.is_mem() {
            cur += 1;
        }
    }
    if cur > 0 {
        lens.push(cur);
    }
    lens
}

/// Compute region statistics over the whole program.
pub(crate) fn region_stats(p: &Program) -> RegionStats {
    let mut regions = 0u64;
    let mut mem_ops = 0u64;
    let mut max_len = 0u64;
    for t in &p.threads {
        for len in region_lengths(t) {
            regions += 1;
            mem_ops += len;
            max_len = max_len.max(len);
        }
    }
    RegionStats {
        regions,
        mem_ops,
        mean_mem_ops_per_region: if regions == 0 {
            0.0
        } else {
            mem_ops as f64 / regions as f64
        },
        max_mem_ops_per_region: max_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_common::{Addr, LockId};

    fn r(a: u64) -> Op {
        Op::Read {
            addr: Addr(a),
            len: 8,
        }
    }

    #[test]
    fn region_lengths_split_at_sync() {
        let ops = vec![
            r(0),
            r(8),
            Op::Acquire { lock: LockId(0) },
            r(16),
            Op::Release { lock: LockId(0) },
            r(24),
            r(32),
            r(40),
        ];
        assert_eq!(region_lengths(&ops), vec![2, 1, 3]);
    }

    #[test]
    fn empty_regions_not_counted() {
        let ops = vec![
            Op::Acquire { lock: LockId(0) },
            Op::Release { lock: LockId(0) },
        ];
        assert!(region_lengths(&ops).is_empty());
    }

    #[test]
    fn work_ops_do_not_count_as_mem() {
        let ops = vec![r(0), Op::Work { cycles: 100 }, r(8)];
        assert_eq!(region_lengths(&ops), vec![2]);
    }

    #[test]
    fn region_stats_aggregates_threads() {
        let p = Program {
            name: "x".into(),
            threads: vec![
                vec![
                    r(0),
                    r(8),
                    Op::Acquire { lock: LockId(0) },
                    r(16),
                    Op::Release { lock: LockId(0) },
                ],
                vec![r(24)],
            ],
            n_locks: 1,
            n_barriers: 0,
            shared_base: Addr(0),
            shared_end: Addr(0),
        };
        let s = region_stats(&p);
        assert_eq!(s.regions, 3);
        assert_eq!(s.mem_ops, 4);
        assert!((s.mean_mem_ops_per_region - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max_mem_ops_per_region, 2);
    }

    use crate::program::Program;
}
