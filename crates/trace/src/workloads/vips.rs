//! `vips`-like workload: producer/consumer image tiles.
//!
//! Real vips evaluates an image-processing pipeline over tiles: a
//! coordinator materializes input tiles, workers claim tiles under a
//! lock, read them, and write private output regions. The signature is
//! single-producer/many-consumer sharing — every shared line is
//! written once by thread 0 and read once by exactly one worker.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Tiles per batch (scaled).
const TILES: u64 = 24;
/// Batches (scaled).
const BATCHES: u32 = 2;
/// Lines per tile.
const TILE_LINES: u64 = 4;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("vips", cores);
    let root = SplitMix64::new(seed ^ 0x1995);
    let bar = b.barrier();
    let claim_lock = b.lock();
    let n_tiles = TILES * scale as u64;
    let tiles = b.shared(n_tiles * TILE_LINES * 64);
    let claim = b.shared(64);
    let outputs: Vec<_> = (0..cores).map(|t| b.private(t, 16 * 1024)).collect();

    for batch in 0..BATCHES * scale {
        // Producer (thread 0) writes every tile of this batch.
        {
            let mut rng = root.split((batch as u64) << 32);
            for tile in 0..n_tiles {
                for l in 0..TILE_LINES {
                    b.write(0, tiles.line(tile * TILE_LINES + l));
                }
                b.work(0, 4 + rng.gen_range(4) as u32);
            }
        }
        // Hand off to workers.
        b.barrier_all(bar);
        // Workers claim and process tiles (static assignment models
        // the dynamic queue's steady state; the claim word models its
        // contention).
        let workers = (cores - 1).max(1);
        for t in 0..cores {
            if cores > 1 && t == 0 {
                continue;
            }
            let lane = if cores > 1 { t - 1 } else { 0 };
            let mut rng = root.split((batch as u64) << 32 | (t as u64) << 16);
            for tile in (lane..n_tiles as usize).step_by(workers) {
                b.critical(t, claim_lock, |b| {
                    b.read(t, claim.word(0));
                    b.write(t, claim.word(0));
                });
                for l in 0..TILE_LINES {
                    b.read(t, tiles.line(tile as u64 * TILE_LINES + l));
                }
                b.work(t, 16 + rng.gen_range(8) as u32);
                let out = (tile as u64 * 3) % outputs[t].words();
                b.write(t, outputs[t].word(out));
            }
        }
        // Batch boundary.
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
    fn producer_writes_workers_read() {
        let p = build(4, 1, 2);
        use std::collections::HashSet;
        let tile_writes_t0: HashSet<u64> = p.threads[0]
            .iter()
            .filter(|o| o.is_write())
            .filter_map(|o| o.addr())
            .filter(|a| p.is_shared_addr(*a))
            .map(|a| a.line().0)
            .collect();
        let reads_workers: HashSet<u64> = p
            .iter_ops()
            .filter(|(t, o)| *t != 0 && o.is_mem() && !o.is_write())
            .filter_map(|(_, o)| o.addr())
            .filter(|a| p.is_shared_addr(*a))
            .map(|a| a.line().0)
            .collect();
        assert!(tile_writes_t0.intersection(&reads_workers).count() > 10);
    }
}
