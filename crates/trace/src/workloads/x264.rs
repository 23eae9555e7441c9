//! `x264`-like workload: wavefront row pipeline with migratory
//! boundary lines.
//!
//! Real x264 encodes frames with one thread per row band; a band can
//! only encode a macroblock once its upper neighbor has finished the
//! blocks it predicts from, producing a diagonal wavefront. We model
//! the wavefront with per-step barriers (the real code uses condition
//! variables; the dependency structure — thread `t` reads what thread
//! `t-1` wrote in the previous step — is identical), plus a
//! lock-protected shared rate-control accumulator.

use crate::builder::Builder;
use crate::program::Program;
use rce_common::{Rng, SplitMix64};

/// Macroblocks per row band per step.
const BLOCKS: u64 = 6;
/// Wavefront steps per frame.
const STEPS: u32 = 4;
/// Frames (scaled).
const FRAMES: u32 = 2;

/// Build the workload.
pub(crate) fn build(cores: usize, scale: u32, seed: u64) -> Program {
    let mut b = Builder::new("x264", cores);
    let root = SplitMix64::new(seed ^ 0x2640);
    let bar = b.barrier();
    let rc_lock = b.lock();
    let rc = b.shared(64);
    // One row band per thread; each band has a line per step holding
    // the reconstructed boundary pixels the next band predicts from.
    let bands: Vec<_> = (0..cores)
        .map(|_| b.shared(STEPS as u64 * scale as u64 * 64))
        .collect();
    let scratch: Vec<_> = (0..cores).map(|t| b.private(t, 8 * 1024)).collect();

    for frame in 0..FRAMES * scale {
        for step in 0..STEPS * scale {
            for t in 0..cores {
                let mut rng = root.split(((frame as u64) << 40) | ((step as u64) << 20) | t as u64);
                // Read the boundary line the upper band produced in the
                // previous wavefront step.
                if t > 0 && step > 0 {
                    b.read_n(t, bands[t - 1].line((step - 1) as u64), 64);
                }
                // Encode the blocks: private scratch traffic.
                for blk in 0..BLOCKS {
                    let w = (blk * 17 + step as u64) % scratch[t].words();
                    b.read(t, scratch[t].word(w));
                    b.work(t, 8 + rng.gen_range(8) as u32);
                    b.write(t, scratch[t].word(w));
                }
                // Publish this band's boundary for the next step.
                b.write_n(t, bands[t].line(step as u64), 64);
                // Rate control update (contended).
                if rng.gen_bool(0.25) {
                    b.critical(t, rc_lock, |b| {
                        b.read(t, rc.word(0));
                        b.write(t, rc.word(0));
                    });
                }
            }
            // Wavefront step boundary.
            b.barrier_all(bar);
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn builds_and_validates() {
        for cores in [1, 2, 4] {
            validate(&build(cores, 1, 1)).unwrap_or_else(|e| panic!("cores={cores}: {e}"));
        }
    }

    #[test]
    fn wavefront_dependency_exists() {
        let p = build(3, 1, 4);
        // Thread 1 reads lines thread 0 writes.
        use std::collections::HashSet;
        let w0: HashSet<u64> = p.threads[0]
            .iter()
            .filter(|o| o.is_write())
            .filter_map(|o| o.addr())
            .filter(|a| p.is_shared_addr(*a))
            .map(|a| a.line().0)
            .collect();
        let r1: HashSet<u64> = p.threads[1]
            .iter()
            .filter(|o| o.is_mem() && !o.is_write())
            .filter_map(|o| o.addr())
            .filter(|a| p.is_shared_addr(*a))
            .map(|a| a.line().0)
            .collect();
        assert!(w0.intersection(&r1).count() > 0);
    }

    #[test]
    fn full_line_accesses_used() {
        // x264 moves whole boundary lines, exercising multi-word ops.
        let p = build(2, 1, 3);
        assert!(p
            .iter_ops()
            .any(|(_, o)| matches!(o, crate::op::Op::Write { len: 64, .. })));
    }
}
