//! Microbenchmarks: minimal programs that isolate one sharing pattern
//! each. Used heavily by unit/integration tests and the ablation
//! benches.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Threads alternate lock-protected read-modify-writes of one shared
/// line: pure migratory sharing, tiny regions, no conflicts.
pub(crate) fn ping_pong(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("ping_pong", cores);
    let mut rng = SplitMix64::new(seed ^ 0x9199);
    let l = b.lock();
    let line = b.shared(64);
    let rounds = 16 * scale as u64;
    for _ in 0..rounds {
        for t in 0..cores {
            b.critical(t, l, |b| {
                b.read(t, line.word(0));
                b.write(t, line.word(0));
            });
            b.work(t, 2 + rng.gen_range(4) as u32);
        }
    }
    b.finish()
}

/// Every access is private; the only sync is a final barrier. The
/// zero-sharing control: all designs should match the MESI baseline.
pub(crate) fn private_only(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("private_only", cores);
    let root = SplitMix64::new(seed ^ 0x9417);
    let bar = b.barrier();
    let arenas: Vec<_> = (0..cores).map(|t| b.private(t, 4 * 1024)).collect();
    for t in 0..cores {
        let mut rng = root.split(t as u64);
        for _ in 0..64 * scale as u64 {
            let w = rng.gen_range(arenas[t].words());
            b.read(t, arenas[t].word(w));
            b.work(t, 3);
            b.write(t, arenas[t].word(w));
        }
    }
    b.barrier_all(bar);
    b.finish()
}

/// A guaranteed region conflict: with at least two threads, thread 0
/// writes a shared word and thread 1 writes the same word, both in
/// unbounded regions (no sync until the end), so the regions overlap
/// in any interleaving. With one thread, degenerates to private use.
pub(crate) fn racy_pair(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("racy_pair", cores);
    let mut rng = SplitMix64::new(seed ^ 0x4ace);
    let bar = b.barrier();
    let hot = b.shared(64);
    let pads: Vec<_> = (0..cores).map(|t| b.private(t, 1024)).collect();
    for t in 0..cores {
        // Padding work so the conflicting accesses overlap in time.
        for i in 0..8 * scale as u64 {
            b.read(t, pads[t].word(i % pads[t].words()));
            b.work(t, 4 + rng.gen_range(4) as u32);
        }
        if t < 2 {
            // The race: both threads write word 0 with no ordering.
            b.write(t, hot.word(0));
            if t == 1 {
                b.read(t, hot.word(0));
            }
        }
        for i in 0..8 * scale as u64 {
            b.write(t, pads[t].word(i % pads[t].words()));
        }
    }
    b.barrier_all(bar);
    b.finish()
}

/// False sharing: each thread hammers its *own* word of one shared
/// line with no synchronization. At word granularity there is no
/// conflict (disjoint words), but MESI-based designs ping-pong the
/// line. Distinguishes word-granularity detection from line-granularity.
pub(crate) fn false_sharing(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("false_sharing", cores);
    let mut rng = SplitMix64::new(seed ^ 0xfa15e);
    let bar = b.barrier();
    // One line per 8 threads; thread t uses word t%8 of line t/8.
    let n_lines = cores.div_ceil(8) as u64;
    let arena = b.shared(n_lines * 64);
    for t in 0..cores {
        let line = (t / 8) as u64;
        let word = (t % 8) as u64;
        let addr = rce_common::Addr(arena.line(line).0 + word * 8);
        for _ in 0..32 * scale as u64 {
            b.read(t, addr);
            b.work(t, 1 + rng.gen_range(3) as u32);
            b.write(t, addr);
        }
    }
    b.barrier_all(bar);
    b.finish()
}

/// A working-set token passed around the cores under one lock: each
/// holder reads and rewrites the whole token block, so its lines
/// migrate core-to-core on every handoff. The sharpest migratory
/// pattern we have; stresses cache-to-cache transfers (MESI family)
/// and region-end flushes (ARC).
pub(crate) fn migratory(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("migratory", cores);
    let mut rng = SplitMix64::new(seed ^ 0x3194);
    let l = b.lock();
    // A 4-line token block.
    let token = b.shared(4 * 64);
    for _ in 0..8 * scale as u64 {
        for t in 0..cores {
            b.critical(t, l, |b| {
                for line in 0..token.lines() {
                    b.read(t, token.line(line));
                    b.write(t, token.line(line));
                }
            });
            b.work(t, 4 + rng.gen_range(8) as u32);
        }
    }
    b.finish()
}

/// Phased reader/writer: a writer thread updates a shared table in
/// its phase, then all threads read it in the next phase, with
/// barriers between. Models configuration/epoch data: single-writer,
/// many-reader, never conflicting.
pub(crate) fn reader_writer(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("reader_writer", cores);
    let root = SplitMix64::new(seed ^ 0x4ead);
    let bar = b.barrier();
    let table = b.shared(32 * 64);
    for epoch in 0..4 * scale as u64 {
        // Writer phase: thread (epoch % cores) rewrites part of the
        // table.
        let writer = (epoch % cores as u64) as usize;
        let mut rng = root.split(epoch);
        for _ in 0..12 {
            b.write(writer, table.word(rng.gen_range(table.words())));
        }
        b.barrier_all(bar);
        // Reader phase: everyone reads.
        for t in 0..cores {
            let mut rng = root.split(epoch << 16 | t as u64);
            for _ in 0..8 {
                b.read(t, table.word(rng.gen_range(table.words())));
            }
            b.work(t, 6);
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
    fn all_micro_validate() {
        for cores in [1, 2, 4, 8, 9] {
            validate(&ping_pong(cores, 1, 1)).unwrap();
            validate(&private_only(cores, 1, 1)).unwrap();
            validate(&racy_pair(cores, 1, 1)).unwrap();
            validate(&false_sharing(cores, 1, 1)).unwrap();
            validate(&migratory(cores, 1, 1)).unwrap();
            validate(&reader_writer(cores, 1, 1)).unwrap();
        }
    }

    #[test]
    fn migratory_lines_visit_every_core() {
        let p = migratory(4, 1, 5);
        use std::collections::HashSet;
        let token_line = p.shared_base.line().0;
        let writers: HashSet<usize> = p
            .iter_ops()
            .filter(|(_, o)| o.is_write())
            .filter(|(_, o)| o.addr().is_some_and(|a| a.line().0 == token_line))
            .map(|(t, _)| t)
            .collect();
        assert_eq!(writers.len(), 4, "every core writes the token");
    }

    #[test]
    fn reader_writer_is_single_writer_per_epoch() {
        let p = reader_writer(4, 1, 9);
        // Between two consecutive barriers, at most one thread writes
        // shared data. Check per-thread: writes only happen in the
        // thread's own writer epochs — structurally, every write is
        // immediately followed (eventually) by a barrier before any
        // other thread's write. Simplest check: total write phases ==
        // epochs.
        let writers = p
            .threads
            .iter()
            .map(|ops| ops.iter().filter(|o| o.is_write()).count())
            .sum::<usize>();
        assert_eq!(writers, 4 * 12, "4 epochs x 12 writes each");
    }

    #[test]
    fn private_only_touches_no_shared() {
        let p = private_only(4, 1, 3);
        assert_eq!(
            p.iter_ops()
                .filter_map(|(_, o)| o.addr())
                .filter(|a| p.is_shared_addr(*a))
                .count(),
            0
        );
    }

    #[test]
    fn racy_pair_has_overlapping_unsynchronized_writes() {
        let p = racy_pair(2, 1, 7);
        // Both threads write the same shared word with no sync op
        // before it.
        for t in 0..2 {
            let pre_sync: Vec<_> = p.threads[t].iter().take_while(|o| !o.is_sync()).collect();
            assert!(
                pre_sync
                    .iter()
                    .any(|o| o.is_write() && o.addr().is_some_and(|a| p.is_shared_addr(a))),
                "thread {t} lacks the racy write"
            );
        }
    }

    #[test]
    fn false_sharing_words_are_disjoint() {
        let p = false_sharing(8, 1, 1);
        use std::collections::HashMap;
        let mut word_owner: HashMap<u64, usize> = HashMap::new();
        for (t, op) in p.iter_ops() {
            if let Some(a) = op.addr() {
                if p.is_shared_addr(a) {
                    let prev = word_owner.insert(a.0, t);
                    assert!(
                        prev.is_none() || prev == Some(t),
                        "word shared between threads"
                    );
                }
            }
        }
        // But all 8 threads share one line.
        let lines: std::collections::HashSet<u64> = p
            .iter_ops()
            .filter_map(|(_, o)| o.addr())
            .filter(|a| p.is_shared_addr(*a))
            .map(|a| a.line().0)
            .collect();
        assert_eq!(lines.len(), 1);
    }
}
