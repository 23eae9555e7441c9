//! The one random-program generator of the root tests:
//! `random_program(seed, shape)`, a deterministic function of its
//! arguments. A [`Shape`] fixes the thread and op counts, the shared
//! arena and the op mix; the seed picks everything else.

pub mod conformance;

use rce::prelude::*;
use rce_common::{Rng, SplitMix64};
use rce_trace::Builder;

/// A family of random programs.
pub struct Shape {
    pub name: &'static str,
    /// Inclusive bounds on the thread count, and on the ops per thread.
    pub threads: (u64, u64),
    pub ops: (u64, u64),
    /// The shared arena, in 64-byte lines.
    pub lines: u64,
    /// Cumulative thresholds on a uniform draw `r` in `[0, 1)`: a read
    /// below `mix[0]`, a write below `mix[1]`, a write-then-read repeat
    /// pair below `mix[2]`, an empty lock pair below `mix[3]`, and a
    /// lock-protected write above it.
    pub mix: [f64; 4],
    /// End with a barrier every thread reaches.
    pub barrier: bool,
}

/// Dense conflicts over four lines: every interleaving corner.
pub static DENSE: Shape = Shape {
    name: "dense",
    threads: (2, 4),
    ops: (4, 15),
    lines: 4,
    mix: [0.4, 0.8, 0.8, 1.0],
    barrier: false,
};

/// Repeat pairs (the fast path's bread and butter), lock-protected
/// writes and a closing barrier over eight lines.
pub static SYNCED: Shape = Shape {
    name: "synced",
    threads: (2, 4),
    ops: (4, 31),
    lines: 8,
    mix: [2.0 / 6.0, 4.0 / 6.0, 5.0 / 6.0, 5.0 / 6.0],
    barrier: true,
};

/// 512 lines, far beyond the 8 KiB L1: L1 evictions, metadata
/// displacement, AIM spills and recalls.
pub static EVICTION: Shape = Shape {
    name: "eviction",
    threads: (4, 4),
    ops: (200, 200),
    lines: 512,
    mix: [0.4, 0.85, 0.85, 1.0],
    barrier: false,
};

/// A uniform draw in `lo..=hi`; a fixed bound draws nothing.
fn draw(rng: &mut SplitMix64, (lo, hi): (u64, u64)) -> u64 {
    if lo == hi {
        lo
    } else {
        lo + rng.gen_range(hi - lo + 1)
    }
}

impl Shape {
    /// The thread count of `random_program(seed, self)`: its first draw.
    pub fn threads(&self, seed: u64) -> usize {
        draw(&mut SplitMix64::new(seed), self.threads) as usize
    }
}

/// The program `seed` names in `shape`. Every thread runs the same
/// number of ops; each op draws its kind, then its word.
pub fn random_program(seed: u64, shape: &Shape) -> Program {
    let mut rng = SplitMix64::new(seed);
    let n = draw(&mut rng, shape.threads) as usize;
    let mut b = Builder::new(format!("{}{seed}", shape.name), n);
    let arena = b.shared(shape.lines * 64);
    let ops = draw(&mut rng, shape.ops);
    let [read, write, repeat, empty_lock] = shape.mix;
    for t in 0..n {
        for _ in 0..ops {
            let r = rng.gen_f64();
            let w = arena.word(rng.gen_range(arena.words()));
            if r < read {
                b.read(t, w);
            } else if r < write {
                b.write(t, w);
            } else if r < repeat {
                b.write(t, w);
                b.read(t, w);
            } else {
                let l = b.lock();
                b.acquire(t, l);
                if r >= empty_lock {
                    b.write(t, w);
                }
                b.release(t, l);
            }
        }
    }
    if shape.barrier {
        let bar = b.barrier();
        b.barrier_all(bar);
    }
    b.finish()
}
