//! Differential tests: every detection engine must report exactly the
//! oracle's conflict set on the same schedule.
//!
//! This is the repository's strongest correctness statement: CE, CE+,
//! and ARC implement three very different mechanisms (eager
//! invalidation piggybacks with an in-memory table, the same with an
//! on-chip AIM, and self-invalidation with LLC-side registration), and
//! all three must agree — per conflict identity, not just count — with
//! a simple declarative detector.

use rce::prelude::*;
use rce_common::{Rng, SplitMix64};
use rce_trace::Builder;
use std::collections::HashSet;

fn assert_matches_oracle(name: &str, program: &Program, protocol: ProtocolKind) {
    let cfg = MachineConfig::paper_default(program.n_threads(), protocol);
    assert_matches_oracle_cfg(name, program, &cfg, &protocol.to_string());
}

fn assert_matches_oracle_cfg(name: &str, program: &Program, cfg: &MachineConfig, engine: &str) {
    let report = Machine::new(cfg).unwrap().run(program).unwrap();
    let detected: HashSet<_> = report.exceptions.iter().map(|x| x.key()).collect();
    let oracle: HashSet<_> = report.oracle_conflicts.iter().map(|x| x.key()).collect();
    let missed: Vec<_> = oracle.difference(&detected).collect();
    let spurious: Vec<_> = detected.difference(&oracle).collect();
    assert!(
        missed.is_empty() && spurious.is_empty(),
        "{name} under {engine}: engine={} oracle={} missed={missed:?} spurious={spurious:?}",
        detected.len(),
        oracle.len(),
    );
}

/// Random small programs over a handful of shared lines: dense
/// conflicts, every interleaving corner.
fn fuzz_program(seed: u64) -> Program {
    let mut rng = SplitMix64::new(seed);
    let n = 2 + (rng.gen_range(3) as usize);
    let mut b = Builder::new(format!("fuzz{seed}"), n);
    let arena = b.shared(4 * 64);
    let nops = 4 + rng.gen_range(12);
    for t in 0..n {
        for _ in 0..nops {
            let r = rng.gen_f64();
            let w = arena.word(rng.gen_range(arena.words()));
            if r < 0.4 {
                b.read(t, w);
            } else if r < 0.8 {
                b.write(t, w);
            } else {
                let l = b.lock();
                b.acquire(t, l);
                b.release(t, l);
            }
        }
    }
    b.finish()
}

/// Random large-footprint programs: forces L1 evictions, metadata
/// displacement, AIM spills, and recalls.
fn fuzz_big_program(seed: u64) -> Program {
    let mut rng = SplitMix64::new(seed ^ 0xbeef);
    let n = 4;
    let mut b = Builder::new(format!("fuzz-big{seed}"), n);
    let arena = b.shared(512 * 64); // 512 lines >> the 8 KiB L1
    for t in 0..n {
        for _ in 0..200 {
            let r = rng.gen_f64();
            let w = arena.word(rng.gen_range(arena.words()));
            if r < 0.4 {
                b.read(t, w);
            } else if r < 0.85 {
                b.write(t, w);
            } else {
                let l = b.lock();
                b.acquire(t, l);
                b.release(t, l);
            }
        }
    }
    b.finish()
}

#[test]
fn small_fuzz_all_engines_match_oracle() {
    for seed in 0..1500u64 {
        let p = fuzz_program(seed);
        for protocol in ProtocolKind::DETECTORS {
            assert_matches_oracle(&p.name.clone(), &p, protocol);
        }
    }
}

#[test]
fn eviction_heavy_fuzz_all_engines_match_oracle() {
    for seed in 0..60u64 {
        let p = fuzz_big_program(seed);
        for protocol in ProtocolKind::DETECTORS {
            assert_matches_oracle(&p.name.clone(), &p, protocol);
        }
    }
}

#[test]
fn parsec_with_injected_races_matches_oracle() {
    for w in WorkloadSpec::PARSEC {
        let mut p = w.build(8, 1, 42);
        rce::trace::inject_races(&mut p, 4, 42).unwrap();
        for protocol in ProtocolKind::DETECTORS {
            assert_matches_oracle(w.name(), &p, protocol);
        }
    }
}

#[test]
fn naturally_racy_workloads_match_oracle() {
    for w in [WorkloadSpec::Canneal, WorkloadSpec::RacyPair] {
        let p = w.build(8, 1, 7);
        for protocol in ProtocolKind::DETECTORS {
            assert_matches_oracle(w.name(), &p, protocol);
        }
    }
}

/// The cross-composition variants (CE+ on an ideal store, ARC on CE's
/// DRAM table) change only the metadata cost model, so they must
/// detect exactly the oracle's conflict set too.
#[test]
fn cross_composition_variants_match_oracle() {
    let variants: Vec<_> = rce_core::REGISTRY
        .iter()
        .filter(|v| !v.is_paper_design())
        .collect();
    assert_eq!(variants.len(), 2, "expected CE+ideal and ARC-dram");
    for seed in 0..200u64 {
        let p = fuzz_program(seed);
        for v in &variants {
            let cfg = v.config(p.n_threads());
            assert_matches_oracle_cfg(&p.name.clone(), &p, &cfg, v.cli_name);
        }
    }
    for seed in 0..20u64 {
        let p = fuzz_big_program(seed);
        for v in &variants {
            let cfg = v.config(p.n_threads());
            assert_matches_oracle_cfg(&p.name.clone(), &p, &cfg, v.cli_name);
        }
    }
}

/// At the widest machine every core owns a bit of the oracle's 64-bit
/// word masks, bit 63 included. Every registry variant must still
/// agree with the oracle (the MESI baseline detects nothing by
/// design), and canneal's conflicts must reach the top cores.
#[test]
fn registry_variants_match_oracle_at_64_cores() {
    let cores = rce_common::MAX_CORES;
    for w in [WorkloadSpec::RacyPair, WorkloadSpec::Canneal] {
        let p = w.build(cores, 1, 42);
        for v in &rce_core::REGISTRY {
            let r = Machine::new(&v.config(cores)).unwrap().run(&p).unwrap();
            assert!(!r.oracle_conflicts.is_empty(), "{} is racy", w.name());
            if v.protocol == ProtocolKind::MesiBaseline {
                assert!(r.exceptions.is_empty(), "{} under MESI", w.name());
            } else {
                assert!(r.matches_oracle(), "{} under {}", w.name(), v.cli_name);
            }
            if w == WorkloadSpec::Canneal {
                let top = r.oracle_conflicts.iter().map(|x| x.b().core).max();
                assert_eq!(top, Some(CoreId(cores as u16 - 1)), "{}", v.cli_name);
            }
        }
    }
}

/// Both report lists are sorted and unique by identity, and every entry
/// is a real conflict in canonical form. The driver and the oracle
/// build them region by region, so whole-machine runs check it; an
/// `AbortOnFirst` run's single exception is one the full run delivers.
#[test]
fn report_lists_are_sorted_canonical_conflicts() {
    for cores in [8, rce_common::MAX_CORES] {
        for w in [
            WorkloadSpec::RacyPair,
            WorkloadSpec::Canneal,
            WorkloadSpec::Streamcluster,
        ] {
            let p = w.build(cores, 1, 42);
            for v in &rce_core::REGISTRY {
                let m = Machine::new(&v.config(cores)).unwrap();
                let r = m.run(&p).unwrap();
                let ctx = format!("{} under {} at {cores} cores", w.name(), v.cli_name);
                for (list, name) in [
                    (&r.exceptions, "exceptions"),
                    (&r.oracle_conflicts, "oracle"),
                ] {
                    for pair in list.windows(2) {
                        assert!(
                            pair[0].key() < pair[1].key(),
                            "{ctx}: {name} out of order at {}",
                            pair[1]
                        );
                    }
                    for ex in list {
                        assert!(
                            ex.a().core < ex.b().core,
                            "{ctx}: {name} sides not canonical: {ex}"
                        );
                        assert!(ex.involves_write(), "{ctx}: {name} read-read entry: {ex}");
                    }
                }
                if v.protocol == ProtocolKind::MesiBaseline {
                    continue;
                }
                let first = m
                    .run_with_policy(&p, ExceptionPolicy::AbortOnFirst)
                    .unwrap();
                assert_eq!(first.aborted, !r.exceptions.is_empty(), "{ctx}");
                for ex in &first.exceptions {
                    assert!(
                        r.exceptions.binary_search(ex).is_ok(),
                        "{ctx}: {ex} not in the full run"
                    );
                }
                assert_eq!(first.exceptions.len(), usize::from(first.aborted), "{ctx}");
            }
        }
    }
}

#[test]
fn race_free_workloads_raise_nothing() {
    for w in WorkloadSpec::PARSEC {
        if w.is_racy() {
            continue;
        }
        let p = w.build(8, 1, 11);
        for protocol in ProtocolKind::DETECTORS {
            let cfg = MachineConfig::paper_default(8, protocol);
            let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
            assert!(
                r.exceptions.is_empty(),
                "{} under {protocol}: spurious exceptions {:?}",
                w.name(),
                r.exceptions.first()
            );
            assert!(
                r.oracle_conflicts.is_empty(),
                "{} oracle disagrees",
                w.name()
            );
        }
    }
}

#[test]
fn detection_is_independent_of_detector() {
    // All detectors run the same program; conflict identities can
    // legitimately differ across engines (different timing, different
    // interleavings), but for programs whose racy accesses are ordered
    // by padding (racy_pair), the sets must be identical.
    let p = WorkloadSpec::RacyPair.build(4, 1, 3);
    let sets: Vec<HashSet<_>> = ProtocolKind::DETECTORS
        .iter()
        .map(|proto| {
            let cfg = MachineConfig::paper_default(4, *proto);
            let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
            r.exceptions
                .iter()
                .map(|x| (x.word_addr, x.a().core, x.b().core))
                .collect()
        })
        .collect();
    assert_eq!(sets[0], sets[1]);
    assert_eq!(sets[1], sets[2]);
}
