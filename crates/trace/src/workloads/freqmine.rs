//! `freqmine`-like workload: private tree building with lock-protected
//! merges.
//!
//! Real freqmine builds per-thread FP-tree fragments (long private
//! phases) and periodically merges them into shared structures. The
//! signature is long private regions punctuated by bursty contended
//! writes — CE-friendly between merges, contention-bound at merges.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Items mined per thread per round (scaled).
const ITEMS: u64 = 48;
/// Mining rounds (scaled).
const ROUNDS: u32 = 3;
/// Merge into the shared tree every this many items.
const MERGE_EVERY: u64 = 16;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("freqmine", cores);
    let root = SplitMix64::new(seed ^ 0xf4e0);
    let bar = b.barrier();
    let merge_lock = b.lock();
    let shared_tree = b.shared(16 * 1024);
    let privates: Vec<_> = (0..cores).map(|t| b.private(t, 32 * 1024)).collect();

    for round in 0..ROUNDS * scale {
        for t in 0..cores {
            let mut rng = root.split((round as u64) << 32 | t as u64);
            for i in 0..ITEMS * scale as u64 {
                // Walk and extend the private tree fragment.
                for _ in 0..3 {
                    b.read(t, privates[t].word(rng.gen_range(privates[t].words())));
                }
                b.work(t, 8 + rng.gen_range(8) as u32);
                b.write(t, privates[t].word(rng.gen_range(privates[t].words())));
                // Periodic merge into the shared tree.
                if (i + 1) % MERGE_EVERY == 0 {
                    b.critical(t, merge_lock, |b| {
                        for _ in 0..4 {
                            let w = rng.gen_range(shared_tree.words());
                            b.read(t, shared_tree.word(w));
                            b.write(t, shared_tree.word(w));
                        }
                    });
                }
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
        validate(&build(4, 1, 1)).unwrap();
    }

    #[test]
    fn private_ops_dominate() {
        let p = build(4, 1, 5);
        let (mut private, mut shared) = (0usize, 0usize);
        for (_, op) in p.iter_ops() {
            if let Some(a) = op.addr() {
                if p.is_shared_addr(a) {
                    shared += 1;
                } else {
                    private += 1;
                }
            }
        }
        assert!(private > 2 * shared, "private={private} shared={shared}");
    }

    #[test]
    fn merges_are_locked() {
        let p = build(2, 1, 6);
        for (t, ops) in p.threads.iter().enumerate() {
            let mut depth = 0;
            for op in ops {
                match op {
                    crate::op::Op::Acquire { .. } => depth += 1,
                    crate::op::Op::Release { .. } => depth -= 1,
                    crate::op::Op::Write { addr, .. } if p.is_shared_addr(*addr) => {
                        assert!(depth > 0, "thread {t}: unlocked shared write")
                    }
                    _ => {}
                }
            }
        }
    }
}
