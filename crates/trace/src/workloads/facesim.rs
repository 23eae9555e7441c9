//! `facesim`-like workload: row-partitioned stencil with neighbor
//! boundary reads.
//!
//! Real facesim integrates a physical face model whose mesh is
//! partitioned across threads; each iteration a thread updates its
//! partition and reads the boundary of adjacent partitions, with a
//! barrier per iteration. The sharing signature is stable
//! producer→consumer pairs at partition borders, synchronized by
//! barriers (so the sharing is *not* conflicting).

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Lines per thread partition (scaled).
const PART_LINES: u64 = 12;
/// Stencil iterations (scaled).
const ITERS: u32 = 4;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("facesim", cores);
    let root = SplitMix64::new(seed ^ 0xface);
    let bar = b.barrier();
    let part_lines = PART_LINES * scale as u64;
    // Double-buffered grid: read generation g, write generation g+1.
    // This is how the real application avoids racing on boundaries.
    let grid_a = b.shared(cores as u64 * part_lines * 64);
    let grid_b = b.shared(cores as u64 * part_lines * 64);
    let parts = [grid_a.chunks(cores), grid_b.chunks(cores)];

    for it in 0..ITERS * scale {
        let src = &parts[it as usize % 2];
        let dst = &parts[(it as usize + 1) % 2];
        for t in 0..cores {
            let mut rng = root.split((it as u64) << 32 | t as u64);
            // Read the boundary line of each neighbor's *previous*
            // generation.
            if t > 0 {
                let nb = &src[t - 1];
                let base = nb.line(nb.lines() - 1);
                for w in 0..8u64 {
                    b.read(t, rce_common::Addr(base.0 + w * 8));
                }
            }
            if t + 1 < cores {
                let nb = &src[t + 1];
                let base = nb.line(0);
                for w in 0..8u64 {
                    b.read(t, rce_common::Addr(base.0 + w * 8));
                }
            }
            // Read own previous generation, write next generation.
            for l in 0..src[t].lines() {
                b.read(t, src[t].line(l));
                b.work(t, 4 + rng.gen_range(4) as u32);
                b.write(t, dst[t].line(l));
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
        for cores in [1, 2, 4] {
            validate(&build(cores, 1, 1)).unwrap();
        }
    }

    #[test]
    fn neighbors_read_each_others_boundaries() {
        let p = build(4, 1, 3);
        // Thread 1 must read a line that thread 0 writes.
        use std::collections::HashSet;
        let writes0: HashSet<u64> = p.threads[0]
            .iter()
            .filter(|o| o.is_write())
            .filter_map(|o| o.addr())
            .map(|a| a.line().0)
            .collect();
        let reads1: HashSet<u64> = p.threads[1]
            .iter()
            .filter(|o| o.is_mem() && !o.is_write())
            .filter_map(|o| o.addr())
            .map(|a| a.line().0)
            .collect();
        assert!(
            writes0.intersection(&reads1).count() > 0,
            "no boundary sharing found"
        );
    }

    #[test]
    fn all_sharing_is_barrier_separated() {
        // facesim writes shared data but never under a lock; the only
        // sync is the barrier, so the generator must emit barriers.
        let p = build(4, 1, 3);
        assert_eq!(p.n_locks, 0);
        assert!(p.total_sync_ops() > 0);
    }
}
