//! `swaptions`-like workload: fully private Monte-Carlo pricing.
//!
//! Real swaptions statically partitions swaption instruments across
//! threads; each thread runs Monte-Carlo trials over entirely private
//! data with no synchronization until the final join. It has the
//! longest regions and the smallest shared footprint in the suite —
//! every conflict-detection design should be near-free here.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Monte-Carlo trials per thread (scaled).
const TRIALS: u64 = 64;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("swaptions", cores);
    let root = SplitMix64::new(seed ^ 0x5a9c);
    let bar = b.barrier();
    let state: Vec<_> = (0..cores).map(|t| b.private(t, 8 * 1024)).collect();
    let results: Vec<_> = (0..cores).map(|t| b.private(t, 1024)).collect();

    for t in 0..cores {
        let mut rng = root.split(t as u64);
        for trial in 0..TRIALS * scale as u64 {
            // Simulate a rate path: read-modify-write private state.
            for _ in 0..4 {
                let w = rng.gen_range(state[t].words());
                b.read(t, state[t].word(w));
                b.write(t, state[t].word(w));
            }
            b.work(t, 20 + rng.gen_range(16) as u32);
            b.write(t, results[t].word(trial % results[t].words()));
        }
    }
    // Single join at the end.
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
    fn zero_shared_accesses() {
        let p = build(4, 2, 5);
        let shared = p
            .iter_ops()
            .filter_map(|(_, o)| o.addr())
            .filter(|a| p.is_shared_addr(*a))
            .count();
        assert_eq!(shared, 0, "swaptions must touch no shared data");
    }

    #[test]
    fn single_sync_per_thread() {
        let p = build(4, 1, 1);
        for ops in &p.threads {
            assert_eq!(ops.iter().filter(|o| o.is_sync()).count(), 1);
        }
    }
}
