//! `dedup`-like workload: multi-stage pipeline with migratory chunk
//! lines.
//!
//! Real dedup streams data chunks through fragment → hash → compress
//! stages connected by locked queues. Chunk buffers are written by one
//! stage and read by the next, so their lines migrate core-to-core —
//! the pattern that triggers the most coherence (and metadata) traffic
//! per access. Threads are assigned round-robin to three stage groups.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Chunks processed per pipeline pass (scaled).
const CHUNKS: u64 = 24;
/// Pipeline passes (scaled).
const PASSES: u32 = 2;
/// Words per chunk buffer.
const CHUNK_WORDS: u64 = 16;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("dedup", cores);
    let root = SplitMix64::new(seed ^ 0xdedb);
    let bar = b.barrier();
    let n_chunks = CHUNKS * scale as u64;
    // One buffer per in-flight chunk (written by stage s, read by s+1).
    let chunk_buf = b.shared(n_chunks * CHUNK_WORDS * 8);
    // Locked queue head/tail counters per stage boundary.
    let q0 = b.lock();
    let q1 = b.lock();
    let queues = b.shared(128);
    // Striped per-chunk locks: the real code's queues block a consumer
    // until its chunk is produced; at trace level the same
    // happens-before is expressed by putting each chunk's buffer
    // accesses under the chunk's lock (critical sections under one
    // lock are never concurrent).
    let chunk_locks: Vec<_> = (0..16.min(n_chunks) as usize).map(|_| b.lock()).collect();
    let lock_of = |c: u64| chunk_locks[(c % chunk_locks.len() as u64) as usize];

    // Assign threads round-robin to 3 stages (all stages nonempty when
    // cores >= 3; with fewer cores threads take multiple roles).
    let nstages = 3.min(cores);

    for pass in 0..PASSES * scale {
        for t in 0..cores {
            let mut rng = root.split((pass as u64) << 32 | t as u64);
            let stage = t % nstages;
            let lane = t / nstages; // index within the stage group
            let lanes = (cores - stage).div_ceil(nstages); // group size
                                                           // Threads in a stage group partition the chunks.
            for c in (lane..n_chunks as usize).step_by(lanes) {
                let c = c as u64;
                match stage {
                    0 => {
                        // Fragment: produce the chunk, enqueue.
                        b.critical(t, lock_of(c), |b| {
                            for w in 0..CHUNK_WORDS / 2 {
                                b.write(t, chunk_buf.word(c * CHUNK_WORDS + w));
                            }
                        });
                        b.work(t, 8 + rng.gen_range(8) as u32);
                        b.critical(t, q0, |b| {
                            b.read(t, queues.word(0));
                            b.write(t, queues.word(0));
                        });
                    }
                    1 => {
                        // Hash: dequeue, read chunk, write digest words.
                        b.critical(t, q0, |b| {
                            b.read(t, queues.word(1));
                            b.write(t, queues.word(1));
                        });
                        b.critical(t, lock_of(c), |b| {
                            for w in 0..CHUNK_WORDS / 2 {
                                b.read(t, chunk_buf.word(c * CHUNK_WORDS + w));
                            }
                            for w in CHUNK_WORDS / 2..CHUNK_WORDS * 3 / 4 {
                                b.write(t, chunk_buf.word(c * CHUNK_WORDS + w));
                            }
                        });
                        b.work(t, 20 + rng.gen_range(10) as u32);
                        b.critical(t, q1, |b| {
                            b.read(t, queues.word(2));
                            b.write(t, queues.word(2));
                        });
                    }
                    _ => {
                        // Compress: dequeue, read digest, write output.
                        b.critical(t, q1, |b| {
                            b.read(t, queues.word(3));
                            b.write(t, queues.word(3));
                        });
                        b.critical(t, lock_of(c), |b| {
                            for w in 0..CHUNK_WORDS * 3 / 4 {
                                b.read(t, chunk_buf.word(c * CHUNK_WORDS + w));
                            }
                            for w in CHUNK_WORDS * 3 / 4..CHUNK_WORDS {
                                b.write(t, chunk_buf.word(c * CHUNK_WORDS + w));
                            }
                        });
                        b.work(t, 24 + rng.gen_range(12) as u32);
                    }
                }
            }
        }
        // Pass boundary: pipeline drains.
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
        for cores in [1, 2, 3, 4, 8] {
            let p = build(cores, 1, 1);
            validate(&p).unwrap_or_else(|e| panic!("cores={cores}: {e}"));
        }
        let p = build(6, 1, 1);
        // Two queue locks plus the striped chunk locks.
        assert_eq!(p.n_locks, 2 + 16);
    }

    #[test]
    fn chunk_lines_migrate_between_stage_threads() {
        let p = build(6, 1, 7);
        // Some shared line must be written by one thread and read by
        // a different one.
        use std::collections::HashMap;
        let mut writers: HashMap<u64, usize> = HashMap::new();
        let mut migratory = false;
        for (t, op) in p.iter_ops() {
            if let Some(a) = op.addr() {
                if !p.is_shared_addr(a) {
                    continue;
                }
                let l = a.line().0;
                if op.is_write() {
                    writers.insert(l, t);
                } else if let Some(&w) = writers.get(&l) {
                    if w != t {
                        migratory = true;
                    }
                }
            }
        }
        assert!(migratory, "dedup should migrate chunk lines across threads");
    }
}
