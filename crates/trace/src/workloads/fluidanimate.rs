//! `fluidanimate`-like workload: fine-grained per-cell locking with
//! border sharing.
//!
//! Real fluidanimate partitions a particle grid across threads and
//! protects each cell with its own mutex; updating a cell touches its
//! neighbors, so border cells are locked and written by two threads.
//! The signature is *many tiny critical sections* — the highest
//! synchronization density in the suite — which makes regions very
//! short. Short regions are the worst case for ARC's region-end work
//! and the best case for its self-invalidation (little to invalidate).

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Grid cells per thread (scaled).
const CELLS_PER_THREAD: u64 = 12;
/// Timesteps (scaled).
const STEPS: u32 = 3;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("fluidanimate", cores);
    let root = SplitMix64::new(seed ^ 0xf1d0);
    let bar = b.barrier();
    let n_cells = cores as u64 * CELLS_PER_THREAD * scale as u64;
    // One line per cell.
    let cells = b.shared(n_cells * 64);
    // One lock per cell (capped; lock striping beyond the cap).
    let n_locks = n_cells.min(256) as usize;
    let locks: Vec<_> = (0..n_locks).map(|_| b.lock()).collect();
    let lock_of = |cell: u64| locks[(cell % n_locks as u64) as usize];

    for step in 0..STEPS * scale {
        for t in 0..cores {
            let mut rng = root.split((step as u64) << 32 | t as u64);
            let first = t as u64 * CELLS_PER_THREAD * scale as u64;
            let last = first + CELLS_PER_THREAD * scale as u64;
            for cell in first..last {
                // Update the cell and one neighbor (maybe owned by the
                // adjacent thread). Locks are taken in ascending ID
                // order to avoid deadlock.
                let neighbor = if rng.gen_bool(0.3) && cell + 1 < n_cells {
                    cell + 1
                } else if cell > 0 {
                    cell - 1
                } else {
                    cell
                };
                let (l_lo, l_hi) = {
                    let a = lock_of(cell);
                    let b = lock_of(neighbor);
                    if a.0 <= b.0 {
                        (a, b)
                    } else {
                        (b, a)
                    }
                };
                b.acquire(t, l_lo);
                if l_hi != l_lo {
                    b.acquire(t, l_hi);
                }
                b.read(t, cells.line(cell));
                if neighbor != cell {
                    b.read(t, cells.line(neighbor));
                }
                b.work(t, 4 + rng.gen_range(4) as u32);
                b.write(t, cells.line(cell));
                if neighbor != cell && rng.gen_bool(0.5) {
                    b.write(t, cells.line(neighbor));
                }
                if l_hi != l_lo {
                    b.release(t, l_hi);
                }
                b.release(t, l_lo);
            }
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
        for cores in [1, 2, 4, 8] {
            validate(&build(cores, 1, 1)).unwrap_or_else(|e| panic!("cores={cores}: {e}"));
        }
    }

    #[test]
    fn many_locks_allocated() {
        let p = build(4, 1, 1);
        assert!(
            p.n_locks >= 16,
            "expected fine-grained locks, got {}",
            p.n_locks
        );
    }

    #[test]
    fn regions_are_short() {
        let p = build(4, 1, 2);
        let s = crate::chars::characterize(&p);
        assert!(
            s.mean_region_len < 8.0,
            "expected tiny critical-section regions, got {}",
            s.mean_region_len
        );
    }

    #[test]
    fn lock_order_is_ascending() {
        // Guard against deadlock: within any nest, the second acquire
        // has a lock ID greater than the first.
        let p = build(8, 1, 3);
        for ops in &p.threads {
            let mut held: Vec<u32> = Vec::new();
            for op in ops {
                match op {
                    crate::op::Op::Acquire { lock } => {
                        if let Some(&top) = held.last() {
                            assert!(lock.0 > top, "non-ascending lock nest");
                        }
                        held.push(lock.0);
                    }
                    crate::op::Op::Release { lock } => {
                        held.retain(|l| l != &lock.0);
                    }
                    _ => {}
                }
            }
        }
    }
}
