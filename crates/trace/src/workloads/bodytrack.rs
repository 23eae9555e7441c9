//! `bodytrack`-like workload: read-shared model with lock-protected
//! reductions.
//!
//! Real bodytrack evaluates particle likelihoods against a shared body
//! model: all threads read the model heavily, keep private particles,
//! and fold per-thread results into shared accumulators under a lock
//! at the end of every frame, with a barrier between frames. The
//! sharing signature is read-mostly with bursts of contended writes.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Particles evaluated per thread per frame (scaled).
const PARTICLES: u64 = 16;
/// Frames (scaled).
const FRAMES: u32 = 3;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("bodytrack", cores);
    let root = SplitMix64::new(seed ^ 0xb0d7);
    let bar = b.barrier();
    let reduce_lock = b.lock();
    // Shared read-mostly model (large enough to spill small L1s).
    let model = b.shared(64 * 1024);
    // Shared accumulator block, written under the lock.
    let accum = b.shared(256);
    let scratch: Vec<_> = (0..cores).map(|t| b.private(t, 4096)).collect();

    for frame in 0..FRAMES * scale {
        for t in 0..cores {
            let mut rng = root.split((frame as u64) << 32 | t as u64);
            for p in 0..PARTICLES {
                // Gather model samples (read-shared).
                for _ in 0..6 {
                    b.read(t, model.word(rng.gen_range(model.words())));
                }
                b.work(t, 12 + rng.gen_range(12) as u32);
                // Private particle state update.
                let w = (p * 7 + frame as u64) % scratch[t].words();
                b.write(t, scratch[t].word(w));
            }
            // Fold this thread's result into shared accumulators.
            b.critical(t, reduce_lock, |b| {
                let w = rng.gen_range(accum.words());
                b.read(t, accum.word(w));
                b.write(t, accum.word(w));
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
        let p = build(4, 1, 1);
        validate(&p).unwrap();
        assert_eq!(p.n_locks, 1);
        assert!(p.n_barriers >= 1);
    }

    #[test]
    fn shared_writes_happen_only_in_critical_sections() {
        let p = build(3, 1, 5);
        for (t, ops) in p.threads.iter().enumerate() {
            let mut depth = 0i32;
            for op in ops {
                match op {
                    crate::op::Op::Acquire { .. } => depth += 1,
                    crate::op::Op::Release { .. } => depth -= 1,
                    crate::op::Op::Write { addr, .. } if p.is_shared_addr(*addr) => {
                        assert!(depth > 0, "thread {t}: unlocked shared write");
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn model_reads_dominate() {
        let p = build(2, 1, 3);
        let reads = p
            .iter_ops()
            .filter(|(_, o)| o.is_mem() && !o.is_write())
            .count();
        let writes = p.iter_ops().filter(|(_, o)| o.is_write()).count();
        assert!(reads > 3 * writes, "reads={reads} writes={writes}");
    }
}
