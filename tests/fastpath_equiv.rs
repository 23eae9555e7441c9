//! Fast-path equivalence gate: the engines' repeat fast path, the
//! oracle's epoch-stamped early return, and the machine's oracle skip
//! are pure accelerations — with the fast path on or off, every engine
//! must emit a byte-identical `SimReport` on every program.
//!
//! This is the property the golden files check for four pinned
//! configurations; here it is checked for the full `REGISTRY`
//! (including the cross-compositions) under every mode that changes
//! what the L1 line holds, for racy and sharing-heavy workloads, and
//! for random programs. Every report is rendered with forensics on:
//! its heatmaps count each re-detection, so a repeat that wrongly
//! skipped detection would show there even when the exception set
//! itself dedups to the same answer.

use rce::prelude::*;
use rce_common::check::check_n;
use rce_common::{ObsConfig, Rng as RceRng, SplitMix64};
use rce_core::REGISTRY;
use rce_trace::Builder;

/// Render the report of one run with forensics on, the fast path
/// forced on or off (`None` leaves the engine default).
fn render(cfg: &MachineConfig, program: &Program, fastpath: Option<bool>) -> String {
    let mut machine = Machine::new(cfg)
        .unwrap()
        .with_observability(ObsConfig::forensics_only());
    if let Some(on) = fastpath {
        machine = machine.with_fastpath(on);
    }
    rce_common::json::to_string_pretty(&machine.run(program).unwrap())
}

fn assert_equivalent(cfg: &MachineConfig, program: &Program, label: &str) {
    let on = render(cfg, program, Some(true));
    let off = render(cfg, program, Some(false));
    assert!(
        on == off,
        "{label}: SimReport differs between fast path on and off"
    );
}

/// The modes that change what an L1 line holds, and so what the fast
/// path reads: line-granularity detection masks, MOESI's dirty `O`
/// state, ARC's read-only lines that survive boundaries, and an AIM
/// small enough to spill constantly. `paper` is the unmodified default.
const MODES: [(&str, fn(MachineConfig) -> MachineConfig); 5] = [
    ("paper", |c| c),
    ("line-granularity", |mut c| {
        c.granularity = DetectionGranularity::Line;
        c
    }),
    ("moesi", |mut c| {
        c.use_owned_state = true;
        c
    }),
    ("arc-readonly", |mut c| {
        c.arc_readonly_sharing = true;
        c
    }),
    ("aim16", |c| c.with_aim_entries(16)),
];

/// Workloads chosen to stress the fast path: genuine races
/// (conflicting repeats must re-detect), lock-protected ping-pong
/// (remote invalidations), false sharing (word-disjoint line
/// contention), and pipeline/streaming sharing with long private runs.
const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec::RacyPair,
    WorkloadSpec::PingPong,
    WorkloadSpec::FalseSharing,
    WorkloadSpec::Canneal,
    WorkloadSpec::Dedup,
    WorkloadSpec::Streamcluster,
];

/// Every registry variant × [`MODES`] × [`WORKLOADS`] at scale 2, for
/// seeds 42 and 7. One mode per call keeps each test short enough for
/// the harness to run them in parallel.
fn registry_matrix(mode: usize) {
    let (mode_name, apply) = MODES[mode];
    for v in &REGISTRY {
        let cfg = apply(v.config(4));
        for w in WORKLOADS {
            for seed in [42, 7] {
                let program = w.build(4, 2, seed);
                let label = format!("{} ({mode_name}) on {w:?} seed {seed}", v.cli_name);
                assert_equivalent(&cfg, &program, &label);
            }
        }
    }
}

#[test]
fn registry_variants_match_with_fastpath_off() {
    registry_matrix(0);
}

#[test]
fn line_granularity_matches_with_fastpath_off() {
    registry_matrix(1);
}

#[test]
fn moesi_matches_with_fastpath_off() {
    registry_matrix(2);
}

#[test]
fn arc_readonly_matches_with_fastpath_off() {
    registry_matrix(3);
}

#[test]
fn small_aim_matches_with_fastpath_off() {
    registry_matrix(4);
}

/// Random racy programs: arbitrary interleavings of reads, writes, and
/// lock-protected writes over a small shared arena, for every paper
/// protocol.
#[test]
fn random_programs_match_with_fastpath_off() {
    check_n(
        "random_programs_match_with_fastpath_off",
        24,
        |rng: &mut SplitMix64| {
            (
                rng.next_u64(),
                2 + rng.gen_range(3) as usize,
                8 + rng.gen_range(24) as usize,
            )
        },
        |&(seed, threads, ops)| {
            let mut rng = SplitMix64::new(seed);
            let mut b = Builder::new("fastpath-equiv", threads);
            let arena = b.shared(8 * 64);
            let bar = b.barrier();
            for t in 0..threads {
                for _ in 0..ops {
                    let w = arena.word(rng.gen_range(arena.words()));
                    match rng.gen_range(6) {
                        0 | 1 => b.read(t, w),
                        2 | 3 => b.write(t, w),
                        4 => {
                            // Repeat pair: the second access is the
                            // fast path's bread and butter.
                            b.write(t, w);
                            b.read(t, w);
                        }
                        _ => {
                            let l = b.lock();
                            b.acquire(t, l);
                            b.write(t, w);
                            b.release(t, l);
                        }
                    }
                }
            }
            b.barrier_all(bar);
            let program = b.finish();
            for proto in ProtocolKind::ALL {
                let cfg = MachineConfig::paper_default(threads, proto);
                let on = render(&cfg, &program, Some(true));
                let off = render(&cfg, &program, Some(false));
                rce_common::prop_assert!(
                    on == off,
                    "{proto}: seed {seed} diverges between fast path on and off"
                );
            }
            Ok(())
        },
    );
}

/// The env knob and the builder agree: a machine with no explicit
/// override still produces the same report as both forced modes.
#[test]
fn default_mode_matches_forced_modes() {
    let program = WorkloadSpec::RacyPair.build(2, 1, 7);
    let cfg = MachineConfig::paper_default(2, ProtocolKind::CePlus);
    let default = render(&cfg, &program, None);
    assert_eq!(default, render(&cfg, &program, Some(true)));
    assert_eq!(default, render(&cfg, &program, Some(false)));
}
