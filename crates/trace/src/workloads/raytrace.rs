//! `raytrace`-like workload: read-shared scene plus a lock-protected
//! work queue.
//!
//! Real raytrace casts rays against a large read-only scene structure
//! (BVH + geometry) and writes a private framebuffer tile; tiles are
//! claimed from a central counter under a lock. The signature is
//! overwhelming read-sharing with a single contended word — which
//! isolates the cost each design pays for *read-only* shared data
//! (ideally nothing).

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Tiles rendered per thread (scaled).
const TILES: u64 = 12;
/// Rays per tile.
const RAYS: u64 = 6;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("raytrace", cores);
    let root = SplitMix64::new(seed ^ 0x4a71);
    let bar = b.barrier();
    let queue_lock = b.lock();
    let queue = b.shared(64);
    // Large read-only scene.
    let scene = b.shared(512 * 1024);
    let framebuf: Vec<_> = (0..cores).map(|t| b.private(t, 16 * 1024)).collect();

    for t in 0..cores {
        let mut rng = root.split(t as u64);
        for tile in 0..TILES * scale as u64 {
            // Claim the next tile.
            b.critical(t, queue_lock, |b| {
                b.read(t, queue.word(0));
                b.write(t, queue.word(0));
            });
            for ray in 0..RAYS {
                // BVH traversal: a chain of dependent scene reads.
                for _ in 0..10 {
                    b.read(t, scene.word(rng.gen_range(scene.words())));
                }
                b.work(t, 12 + rng.gen_range(10) as u32);
                // Write the pixel (private).
                let px = (tile * RAYS + ray) % framebuf[t].words();
                b.write(t, framebuf[t].word(px));
            }
        }
    }
    b.barrier_all(bar);
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
    fn only_queue_words_are_written_shared() {
        let p = build(4, 1, 8);
        use std::collections::HashSet;
        let shared_written: HashSet<u64> = p
            .iter_ops()
            .filter(|(_, o)| o.is_write())
            .filter_map(|(_, o)| o.addr())
            .filter(|a| p.is_shared_addr(*a))
            .map(|a| a.0)
            .collect();
        assert_eq!(shared_written.len(), 1, "only the queue counter is written");
    }

    #[test]
    fn scene_reads_dominate_traffic() {
        let p = build(2, 1, 4);
        let shared_reads = p
            .iter_ops()
            .filter(|(_, o)| o.is_mem() && !o.is_write())
            .filter_map(|(_, o)| o.addr())
            .filter(|a| p.is_shared_addr(*a))
            .count();
        let writes = p.iter_ops().filter(|(_, o)| o.is_write()).count();
        assert!(
            shared_reads > writes,
            "reads={shared_reads} writes={writes}"
        );
    }
}
