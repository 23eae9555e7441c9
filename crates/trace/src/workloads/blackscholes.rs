//! `blackscholes`-like workload: embarrassingly parallel option
//! pricing.
//!
//! Real blackscholes partitions an option array across threads; each
//! thread reads its options and writes prices, with barriers between
//! repeated pricing rounds and essentially zero inter-thread sharing.
//! Regions are long (one whole round) and private-heavy, which makes
//! this a best case for every design: few evictions of *shared* data,
//! no conflicts.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Options processed per thread per round (scaled).
const OPTIONS_PER_THREAD: u64 = 24;
/// Pricing rounds (scaled).
const ROUNDS: u32 = 4;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("blackscholes", cores);
    let root = SplitMix64::new(seed ^ 0xb1ac);
    let bar = b.barrier();
    // Small read-only global parameter block (riskless rate etc.).
    let params = b.shared(64);
    let options: Vec<_> = (0..cores)
        .map(|t| b.private(t, OPTIONS_PER_THREAD * scale as u64 * 32))
        .collect();
    let prices: Vec<_> = (0..cores)
        .map(|t| b.private(t, OPTIONS_PER_THREAD * scale as u64 * 8))
        .collect();

    for round in 0..ROUNDS * scale.min(4) {
        for t in 0..cores {
            let mut rng = root.split((round as u64) << 32 | t as u64);
            // Read the global parameter block once per round.
            b.read(t, params.word(rng.gen_range(8)));
            for i in 0..OPTIONS_PER_THREAD * scale as u64 {
                // Read 4 option fields, compute, write the price.
                for f in 0..4 {
                    b.read(t, options[t].word(i * 4 + f));
                }
                b.work(t, 16 + rng.gen_range(8) as u32);
                b.write(t, prices[t].word(i));
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
        let p = build(4, 1, 1);
        validate(&p).unwrap();
        assert_eq!(p.n_locks, 0, "blackscholes uses no locks");
        assert!(p.n_barriers >= 1);
    }

    #[test]
    fn shared_accesses_are_read_only() {
        let p = build(4, 1, 9);
        for (_, op) in p.iter_ops() {
            if let Some(a) = op.addr() {
                if p.is_shared_addr(a) {
                    assert!(!op.is_write(), "blackscholes must not write shared data");
                }
            }
        }
    }

    #[test]
    fn regions_are_long() {
        let p = build(2, 2, 5);
        let s = crate::chars::characterize(&p);
        assert!(
            s.mean_region_len > 50.0,
            "expected long regions, got {}",
            s.mean_region_len
        );
    }
}
