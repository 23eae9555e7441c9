//! `canneal`-like workload: lock-free random element swaps —
//! *intentionally racy*.
//!
//! Real canneal performs simulated-annealing swaps of netlist elements
//! using unsynchronized (deliberately racy) pointer exchanges; PARSEC
//! documents the races as benign-by-design. For a region-conflict
//! system this is the stress case: conflicting accesses between
//! concurrent regions are *expected*, so an exception-delivering
//! design must detect them (and a deployment would either tolerate or
//! annotate them). Regions are short (a barrier every few dozen moves
//! models temperature steps) and the footprint is large and random.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Swap moves per thread per temperature step (scaled).
const MOVES: u64 = 24;
/// Temperature steps (scaled).
const STEPS: u32 = 3;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("canneal", cores);
    let root = SplitMix64::new(seed ^ 0xca22);
    let bar = b.barrier();
    // Shared netlist elements: uniformly accessed. Sized so the
    // scaled-down move count still produces real inter-thread line
    // sharing (as the full-size app does at full scale).
    let elements = b.shared(16 * 1024);

    for step in 0..STEPS * scale {
        for t in 0..cores {
            let mut rng = root.split((step as u64) << 32 | t as u64);
            for _ in 0..MOVES * scale as u64 {
                // Pick two random elements; read both, maybe swap.
                let i = rng.gen_range(elements.words());
                let j = rng.gen_range(elements.words());
                b.read(t, elements.word(i));
                b.read(t, elements.word(j));
                b.work(t, 6 + rng.gen_range(6) as u32);
                if rng.gen_bool(0.7) {
                    b.write(t, elements.word(i));
                    b.write(t, elements.word(j));
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
        let p = build(4, 1, 1);
        validate(&p).unwrap();
        assert_eq!(p.n_locks, 0, "canneal's swaps are lock-free");
    }

    #[test]
    fn has_unsynchronized_shared_writes() {
        let p = build(2, 1, 2);
        let shared_writes = p
            .iter_ops()
            .filter(|(_, o)| o.is_write() && o.addr().is_some_and(|a| p.is_shared_addr(a)))
            .count();
        assert!(shared_writes > 0, "canneal must write shared data racily");
    }

    #[test]
    fn footprint_is_large() {
        let p = build(2, 1, 4);
        use std::collections::HashSet;
        let lines: HashSet<_> = p
            .iter_ops()
            .filter_map(|(_, o)| o.addr())
            .map(|a| a.line())
            .collect();
        assert!(lines.len() > 64, "only {} distinct lines", lines.len());
    }
}
