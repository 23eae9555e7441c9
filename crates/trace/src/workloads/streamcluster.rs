//! `streamcluster`-like workload: read-shared points with contended
//! center updates.
//!
//! Real streamcluster repeatedly scans a shared point set, computes
//! distances to candidate centers, and updates shared cost/center
//! state under locks, with barriers between phases. It is the
//! most barrier-dense PARSEC application; its signature is wide
//! read-sharing plus a small, hot, write-shared working set.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Points per thread (scaled).
const POINTS: u64 = 32;
/// Clustering phases (scaled).
const PHASES: u32 = 4;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("streamcluster", cores);
    let root = SplitMix64::new(seed ^ 0x57c1);
    let bar = b.barrier();
    let cost_lock = b.lock();
    let n_points = cores as u64 * POINTS * scale as u64;
    // Shared point coordinates: read by the owning thread each phase.
    let points = b.shared(n_points * 64);
    let point_chunks = points.chunks(cores);
    // Hot shared center/cost block.
    let centers = b.shared(512);

    for phase in 0..PHASES * scale {
        // Compute sub-phase: read points and centers (centers are
        // read-only here; updates happen in the next sub-phase, after
        // the barrier — the same phase structure the real application
        // uses to keep cost evaluation race-free).
        for t in 0..cores {
            let mut rng = root.split((phase as u64) << 32 | t as u64);
            for l in 0..point_chunks[t].lines() {
                b.read(t, point_chunks[t].line(l));
                for _ in 0..2 {
                    b.read(t, centers.word(rng.gen_range(centers.words())));
                }
                b.work(t, 10 + rng.gen_range(6) as u32);
            }
        }
        b.barrier_all(bar);
        // Update sub-phase: fold per-thread costs into the shared
        // centers under the lock.
        for t in 0..cores {
            let mut rng = root.split((phase as u64) << 32 | (t as u64) << 16);
            b.critical(t, cost_lock, |b| {
                let w = rng.gen_range(centers.words());
                b.read(t, centers.word(w));
                b.write(t, centers.word(w));
            });
        }
        b.barrier_all(bar);
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn builds_and_validates() {
        validate(&build(4, 1, 1)).unwrap();
    }

    #[test]
    fn barrier_dense() {
        let p = build(4, 2, 3);
        let barriers = p
            .iter_ops()
            .filter(|(_, o)| matches!(o, crate::op::Op::Barrier { .. }))
            .count();
        assert!(barriers >= 4 * 4, "expected many barriers, got {barriers}");
    }

    #[test]
    fn center_block_is_hot() {
        // Center words are both read and written by multiple threads.
        let p = build(4, 1, 9);
        use std::collections::HashSet;
        let mut writers_per_line: std::collections::HashMap<u64, HashSet<usize>> =
            Default::default();
        for (t, op) in p.iter_ops() {
            if op.is_write() {
                if let Some(a) = op.addr() {
                    if p.is_shared_addr(a) {
                        writers_per_line.entry(a.line().0).or_default().insert(t);
                    }
                }
            }
        }
        assert!(
            writers_per_line.values().any(|s| s.len() > 1),
            "no line written by multiple threads"
        );
    }
}
