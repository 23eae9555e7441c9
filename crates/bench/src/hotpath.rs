//! The fast-path gate of `paper trajectory`.
//!
//! Times one repeat-heavy workload end to end with the repeat fast
//! path on and off. That ratio is the one gated number:
//! [`MIN_FASTPATH_SPEEDUP_X`] pins its floor and `paper trajectory`
//! exits nonzero below it, so a fast-path regression fails CI even
//! when reports stay byte-identical.
//!
//! The work is deterministic (a fixed program); only the measured wall
//! times vary by machine, which is why `results/bench_trajectory.json`
//! keeps the ratio in a `measured` section that the CI diff ignores.

use rce_common::{MachineConfig, ProtocolKind};
use rce_core::Machine;
use rce_trace::{Builder, Program};
use std::hint::black_box;
use std::time::Instant;

/// Hard floor for the end-to-end speedup the repeat fast path buys on
/// a repeat-heavy workload (fast path on vs the same machine with
/// `with_fastpath(false)`). `paper trajectory` fails below this.
pub const MIN_FASTPATH_SPEEDUP_X: f64 = 1.5;

/// Timed samples per run; the median is reported.
const SAMPLES: usize = 3;

/// Sweeps over each core's slice in the repeat-heavy pinned workload.
const REPEAT_ITERS: usize = 60;

/// Cores in the repeat-heavy pinned workload.
const REPEAT_CORES: usize = 4;

/// Lines each core loops over in the repeat-heavy pinned workload.
/// Small enough to stay resident in every core's L1, so after the
/// first pass every access is a same-region repeat — the fast path's
/// target shape.
const REPEAT_LINES_PER_CORE: usize = 32;

/// The pinned repeat-heavy program for the fast-path pair: each core
/// sweeps its own [`REPEAT_LINES_PER_CORE`]-line slice `iters` times
/// with a full-line write+read per line, no synchronization — one
/// long region per core, so no boundary ends the repeats.
/// Full-line masks make each covered repeat skip the full per-word
/// detection and oracle work, the shape the fast path is built for.
fn repeat_heavy_program(iters: usize) -> Program {
    let mut b = Builder::new("repeat-heavy", REPEAT_CORES);
    let arena = b.shared((REPEAT_CORES * REPEAT_LINES_PER_CORE * 64) as u64);
    for t in 0..REPEAT_CORES {
        for _ in 0..iters {
            for l in 0..REPEAT_LINES_PER_CORE {
                let w = arena.word(((t * REPEAT_LINES_PER_CORE + l) * 8) as u64);
                b.write_n(t, w, 64);
                b.read_n(t, w, 64);
            }
        }
    }
    b.finish()
}

/// One end-to-end run of the repeat-heavy program with the fast path
/// forced on or off. Returns end cycles (for `black_box`).
fn repeat_heavy_run(p: &Program, fastpath: bool) -> u64 {
    let cfg = MachineConfig::paper_default(REPEAT_CORES, ProtocolKind::CePlus);
    Machine::new(&cfg)
        .unwrap()
        .with_fastpath(fastpath)
        .run(p)
        .unwrap()
        .cycles
        .0
}

/// Median wall time of [`SAMPLES`] runs of `f` after one warm-up, in
/// seconds.
fn median_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_unstable_by(|a, b| a.partial_cmp(b).expect("bench times are finite"));
    times[times.len() / 2]
}

/// End-to-end speedup of the repeat fast path on the repeat-heavy
/// pinned workload (the identical run with the fast path on and off,
/// same machine), sized for a CI gate (a few seconds).
pub fn measure() -> f64 {
    let program = repeat_heavy_program(REPEAT_ITERS);
    let t_on = median_secs(|| repeat_heavy_run(&program, true));
    let t_off = median_secs(|| repeat_heavy_run(&program, false));
    t_off / t_on.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_positive_numbers() {
        let x = measure();
        assert!(x > 0.0 && x.is_finite(), "{x}x");
    }

    #[test]
    fn repeat_heavy_pair_is_cycle_identical() {
        // The fast-path pair only makes sense if both runs simulate
        // the same machine: identical end cycles, fast path on or off.
        let p = repeat_heavy_program(8);
        assert_eq!(repeat_heavy_run(&p, true), repeat_heavy_run(&p, false));
    }
}
