//! `ferret`-like workload: deep pipeline over a large read-shared
//! database.
//!
//! Real ferret is a four-stage similarity-search pipeline
//! (segment → extract → index → rank) whose index/rank stages probe a
//! large read-only database. The signature is dedup-style migratory
//! query buffers plus heavy read-sharing of database lines that every
//! core caches — which stresses L1 capacity and, for CE, evicts lines
//! whose access bits must spill.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Queries per pass (scaled).
const QUERIES: u64 = 16;
/// Passes (scaled).
const PASSES: u32 = 2;
/// Words per query buffer.
const QUERY_WORDS: u64 = 8;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("ferret", cores);
    let root = SplitMix64::new(seed ^ 0xfe44);
    let bar = b.barrier();
    let n_queries = QUERIES * scale as u64;
    let queries = b.shared(n_queries * QUERY_WORDS * 8);
    // Large read-only database.
    let db = b.shared(256 * 1024);
    let qlock = b.lock();
    let qcounters = b.shared(64);
    // Striped per-query locks express the queue's happens-before at
    // trace level (see dedup.rs for the rationale).
    let query_locks: Vec<_> = (0..16.min(n_queries) as usize).map(|_| b.lock()).collect();
    let lock_of = |q: u64| query_locks[(q % query_locks.len() as u64) as usize];

    let nstages = 4.min(cores);

    for pass in 0..PASSES * scale {
        for t in 0..cores {
            let mut rng = root.split((pass as u64) << 32 | t as u64);
            let stage = t % nstages;
            let lane = t / nstages;
            let lanes = (cores - stage).div_ceil(nstages);
            for q in (lane..n_queries as usize).step_by(lanes) {
                let q = q as u64;
                // Claim work from the stage queue.
                b.critical(t, qlock, |b| {
                    b.read(t, qcounters.word(stage as u64));
                    b.write(t, qcounters.word(stage as u64));
                });
                match stage {
                    0 => {
                        // Segment: produce the query descriptor.
                        b.critical(t, lock_of(q), |b| {
                            for w in 0..QUERY_WORDS / 2 {
                                b.write(t, queries.word(q * QUERY_WORDS + w));
                            }
                        });
                        b.work(t, 10 + rng.gen_range(6) as u32);
                    }
                    1 => {
                        // Extract: read descriptor, append features.
                        b.critical(t, lock_of(q), |b| {
                            for w in 0..QUERY_WORDS / 2 {
                                b.read(t, queries.word(q * QUERY_WORDS + w));
                            }
                            for w in QUERY_WORDS / 2..QUERY_WORDS * 3 / 4 {
                                b.write(t, queries.word(q * QUERY_WORDS + w));
                            }
                        });
                        b.work(t, 14 + rng.gen_range(8) as u32);
                    }
                    2 => {
                        // Index: probe the database.
                        b.critical(t, lock_of(q), |b| {
                            for w in 0..QUERY_WORDS * 3 / 4 {
                                b.read(t, queries.word(q * QUERY_WORDS + w));
                            }
                        });
                        for _ in 0..12 {
                            b.read(t, db.word(rng.gen_range(db.words())));
                        }
                        b.work(t, 20 + rng.gen_range(10) as u32);
                    }
                    _ => {
                        // Rank: probe + finalize the query.
                        for _ in 0..8 {
                            b.read(t, db.word(rng.gen_range(db.words())));
                        }
                        b.work(t, 16 + rng.gen_range(8) as u32);
                        b.critical(t, lock_of(q), |b| {
                            for w in QUERY_WORDS * 3 / 4..QUERY_WORDS {
                                b.write(t, queries.word(q * QUERY_WORDS + w));
                            }
                        });
                    }
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
        for cores in [1, 2, 4, 8] {
            validate(&build(cores, 1, 1)).unwrap_or_else(|e| panic!("cores={cores}: {e}"));
        }
    }

    #[test]
    fn database_reads_are_widespread() {
        let p = build(8, 1, 5);
        use std::collections::HashSet;
        let lines: HashSet<u64> = p
            .iter_ops()
            .filter(|(_, o)| o.is_mem() && !o.is_write())
            .filter_map(|(_, o)| o.addr())
            .map(|a| a.line().0)
            .collect();
        assert!(
            lines.len() > 100,
            "only {} distinct read lines",
            lines.len()
        );
    }
}
