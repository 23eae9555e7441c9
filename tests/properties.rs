//! Property-based tests (in-tree `check` harness) over cross-crate
//! invariants.

use rce::prelude::*;
use rce_common::check::check_n;
use rce_common::{prop_assert, prop_assert_eq, LineGeometry, Rng as RceRng, SplitMix64};
use rce_trace::Builder;

/// A small random program description: (seed, threads, ops/thread).
fn gen_program_desc(rng: &mut SplitMix64) -> (u64, usize, usize) {
    (
        rng.next_u64(),
        2 + rng.gen_range(3) as usize,
        4 + rng.gen_range(20) as usize,
    )
}

fn build_program(seed: u64, threads: usize, ops: usize) -> Program {
    let mut rng = SplitMix64::new(seed);
    let mut b = Builder::new("prop", threads);
    let arena = b.shared(8 * 64);
    let bar = b.barrier();
    for t in 0..threads {
        for _ in 0..ops {
            let w = arena.word(rng.gen_range(arena.words()));
            match rng.gen_range(5) {
                0 | 1 => b.read(t, w),
                2 | 3 => b.write(t, w),
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
    b.finish()
}

/// Generated programs are always structurally valid.
#[test]
fn generated_programs_validate() {
    check_n(
        "generated_programs_validate",
        64,
        gen_program_desc,
        |&(seed, threads, ops)| {
            let p = build_program(seed, threads, ops);
            prop_assert!(rce::trace::validate(&p).is_ok());
            Ok(())
        },
    );
}

/// Every engine's exception set equals the oracle's, on arbitrary
/// programs.
#[test]
fn engines_equal_oracle() {
    check_n(
        "engines_equal_oracle",
        64,
        gen_program_desc,
        |&(seed, threads, ops)| {
            let p = build_program(seed, threads, ops);
            for proto in ProtocolKind::DETECTORS {
                let cfg = MachineConfig::paper_default(threads, proto);
                let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
                prop_assert!(
                    r.matches_oracle(),
                    "{proto}: {} vs {}",
                    r.exceptions.len(),
                    r.oracle_conflicts.len()
                );
            }
            Ok(())
        },
    );
}

/// Simulations are deterministic functions of (program, config).
#[test]
fn simulation_deterministic() {
    check_n(
        "simulation_deterministic",
        64,
        gen_program_desc,
        |&(seed, threads, ops)| {
            let p = build_program(seed, threads, ops);
            let cfg = MachineConfig::paper_default(threads, ProtocolKind::Arc);
            let m = Machine::new(&cfg).unwrap();
            let a = m.run(&p).unwrap();
            let b = m.run(&p).unwrap();
            prop_assert_eq!(a.cycles, b.cycles);
            prop_assert_eq!(a.exceptions, b.exceptions);
            Ok(())
        },
    );
}

/// The baseline never raises exceptions, whatever the program.
#[test]
fn baseline_never_raises() {
    check_n(
        "baseline_never_raises",
        64,
        gen_program_desc,
        |&(seed, threads, ops)| {
            let p = build_program(seed, threads, ops);
            let cfg = MachineConfig::paper_default(threads, ProtocolKind::MesiBaseline);
            let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
            prop_assert!(r.exceptions.is_empty());
            Ok(())
        },
    );
}

/// Exceptions always involve a write, two distinct cores, and a word
/// inside the program's address space.
#[test]
fn exceptions_are_well_formed() {
    check_n(
        "exceptions_are_well_formed",
        64,
        gen_program_desc,
        |&(seed, threads, ops)| {
            let p = build_program(seed, threads, ops);
            let cfg = MachineConfig::paper_default(threads, ProtocolKind::Ce);
            let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
            for ex in &r.exceptions {
                prop_assert!(ex.involves_write());
                prop_assert!(ex.a.core < ex.b.core);
                prop_assert_eq!(ex.word_addr.0 % LineGeometry::WORD_BYTES, 0);
            }
            Ok(())
        },
    );
}

/// Mask span arithmetic: the mask covers exactly the bytes of the
/// access.
#[test]
fn word_mask_span_covers_access() {
    check_n(
        "word_mask_span_covers_access",
        64,
        |rng: &mut SplitMix64| (rng.gen_range(1_000_000), 1 + rng.gen_range(63)),
        |&(addr, len)| {
            let a = rce::common::Addr(addr);
            let line_end = (a.line().0 + 1) << LineGeometry::LINE_SHIFT;
            let len = len.min(line_end - addr);
            let mask = rce::common::WordMask::span(a, len);
            // First and last byte's words are covered.
            prop_assert!(mask.contains(a.word()));
            let last = rce::common::Addr(addr + len - 1);
            prop_assert!(mask.contains(last.word()));
            prop_assert!(mask.count() as u64 <= len / 8 + 2);
            Ok(())
        },
    );
}

/// Forensics heatmaps account for every materialized detection: on
/// arbitrary (racy) programs, the heatmap total equals the detector's
/// `conflict_checks_hit` counter and the record count equals the
/// delivered exception set, for every detecting engine.
#[test]
fn forensics_heatmaps_match_detector_counters() {
    check_n(
        "forensics_heatmaps_match_detector_counters",
        32,
        gen_program_desc,
        |&(seed, threads, ops)| {
            let p = build_program(seed, threads, ops);
            for proto in ProtocolKind::DETECTORS {
                let cfg = MachineConfig::paper_default(threads, proto);
                let r = Machine::new(&cfg)
                    .unwrap()
                    .with_observability(rce_common::ObsConfig::FORENSICS)
                    .run(&p)
                    .unwrap();
                let f = r.forensics.as_ref().expect("forensics was on");
                let hits = r
                    .engine_counters
                    .iter()
                    .find(|(k, _)| k == "conflict_checks_hit")
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                prop_assert_eq!(f.total_detections, hits, "{proto}: totals");
                prop_assert_eq!(f.heatmap_total(), hits, "{proto}: heatmap sum");
                prop_assert_eq!(f.delivered, r.exceptions.len() as u64, "{proto}: delivered");
                prop_assert!(
                    f.records.len() as u64 + f.truncated_records == f.delivered,
                    "{proto}: records + truncated == delivered"
                );
            }
            Ok(())
        },
    );
}

/// Workload generation is deterministic in the seed.
#[test]
fn workloads_deterministic() {
    check_n(
        "workloads_deterministic",
        16,
        |rng: &mut SplitMix64| rng.gen_range(1000),
        |&seed| {
            let w = WorkloadSpec::Dedup;
            prop_assert_eq!(w.build(4, 1, seed), w.build(4, 1, seed));
            Ok(())
        },
    );
}
