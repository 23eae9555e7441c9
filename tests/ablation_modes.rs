//! The ablation modes (line granularity, ARC read-only sharing) must
//! preserve the engine↔oracle equivalence: the oracle observes at the
//! same granularity, and retention must never hide a conflict.

use rce::prelude::*;
use rce_common::{DetectionGranularity, Rng, SplitMix64};
use rce_trace::Builder;
use std::collections::HashSet;

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

fn check(p: &Program, cfg: &MachineConfig) {
    let r = Machine::new(cfg).unwrap().run(p).unwrap();
    let engine: HashSet<_> = r.exceptions.iter().map(|x| x.key()).collect();
    let oracle: HashSet<_> = r.oracle_conflicts.iter().map(|x| x.key()).collect();
    assert_eq!(
        engine,
        oracle,
        "{} under {} ({:?}, ro={}): engine={} oracle={}",
        p.name,
        cfg.protocol,
        cfg.granularity,
        cfg.arc_readonly_sharing,
        engine.len(),
        oracle.len()
    );
}

#[test]
fn line_granularity_matches_line_oracle() {
    for seed in 0..400u64 {
        let p = fuzz_program(seed);
        for proto in ProtocolKind::DETECTORS {
            let mut cfg = MachineConfig::paper_default(p.n_threads(), proto);
            cfg.granularity = DetectionGranularity::Line;
            check(&p, &cfg);
        }
    }
}

#[test]
fn arc_readonly_matches_oracle() {
    for seed in 0..400u64 {
        let p = fuzz_program(seed ^ 0x5a5a);
        let mut cfg = MachineConfig::paper_default(p.n_threads(), ProtocolKind::Arc);
        cfg.arc_readonly_sharing = true;
        check(&p, &cfg);
    }
}

#[test]
fn arc_readonly_matches_oracle_on_workloads() {
    for w in [
        WorkloadSpec::Raytrace,
        WorkloadSpec::Canneal,
        WorkloadSpec::Streamcluster,
        WorkloadSpec::RacyPair,
    ] {
        let p = w.build(8, 1, 42);
        let mut cfg = MachineConfig::paper_default(8, ProtocolKind::Arc);
        cfg.arc_readonly_sharing = true;
        check(&p, &cfg);
    }
}

#[test]
fn line_granularity_is_superset_of_word() {
    // Every word-granularity conflict is also a line-granularity
    // conflict (identity modulo word address: compare by line+cores).
    for seed in 0..100u64 {
        let p = fuzz_program(seed ^ 0x1111);
        let cfg_w = MachineConfig::paper_default(p.n_threads(), ProtocolKind::CePlus);
        let mut cfg_l = cfg_w.clone();
        cfg_l.granularity = DetectionGranularity::Line;
        let rw = Machine::new(&cfg_w).unwrap().run(&p).unwrap();
        let rl = Machine::new(&cfg_l).unwrap().run(&p).unwrap();
        let lines_l: HashSet<_> = rl
            .exceptions
            .iter()
            .map(|x| (x.word_addr.line(), x.a().core, x.b().core))
            .collect();
        for x in &rw.exceptions {
            assert!(
                lines_l.contains(&(x.word_addr.line(), x.a().core, x.b().core)),
                "word conflict {x} missing at line granularity"
            );
        }
    }
}

#[test]
fn false_sharing_only_flagged_at_line_granularity() {
    let p = WorkloadSpec::FalseSharing.build(8, 1, 42);
    for proto in ProtocolKind::DETECTORS {
        let cfg = MachineConfig::paper_default(8, proto);
        let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
        assert!(r.exceptions.is_empty(), "{proto} word granularity");

        let mut cfg = cfg;
        cfg.granularity = DetectionGranularity::Line;
        let r = Machine::new(&cfg).unwrap().run(&p).unwrap();
        assert!(!r.exceptions.is_empty(), "{proto} line granularity");
        assert!(r.matches_oracle(), "{proto}");
    }
}

#[test]
fn moesi_matches_oracle() {
    for seed in 0..400u64 {
        let p = fuzz_program(seed ^ 0xabcd);
        for proto in [ProtocolKind::Ce, ProtocolKind::CePlus] {
            let mut cfg = MachineConfig::paper_default(p.n_threads(), proto);
            cfg.use_owned_state = true;
            check(&p, &cfg);
        }
    }
}

#[test]
fn moesi_matches_oracle_on_workloads() {
    for w in [
        WorkloadSpec::Canneal,
        WorkloadSpec::Migratory,
        WorkloadSpec::RacyPair,
        WorkloadSpec::Dedup,
    ] {
        let p = w.build(8, 1, 42);
        for proto in [ProtocolKind::Ce, ProtocolKind::CePlus] {
            let mut cfg = MachineConfig::paper_default(8, proto);
            cfg.use_owned_state = true;
            check(&p, &cfg);
        }
    }
}

#[test]
fn moesi_reduces_writeback_traffic_on_migratory_sharing() {
    // The point of O: dirty data bounces producer->consumer without
    // touching the LLC on every handoff.
    let p = WorkloadSpec::Migratory.build(8, 2, 42);
    let mesi = {
        let cfg = MachineConfig::paper_default(8, ProtocolKind::MesiBaseline);
        Machine::new(&cfg).unwrap().run(&p).unwrap()
    };
    let moesi = {
        let mut cfg = MachineConfig::paper_default(8, ProtocolKind::MesiBaseline);
        cfg.use_owned_state = true;
        Machine::new(&cfg).unwrap().run(&p).unwrap()
    };
    let wb = |r: &SimReport| r.noc.bytes[rce_noc::MsgClass::Writeback.index()].0;
    assert!(
        wb(&moesi) < wb(&mesi),
        "MOESI {} vs MESI {} writeback bytes",
        wb(&moesi),
        wb(&mesi)
    );
}

#[test]
fn readonly_retention_reduces_misses_on_read_shared_data() {
    let p = WorkloadSpec::Streamcluster.build(8, 2, 42);
    let off = {
        let cfg = MachineConfig::paper_default(8, ProtocolKind::Arc);
        Machine::new(&cfg).unwrap().run(&p).unwrap()
    };
    let on = {
        let mut cfg = MachineConfig::paper_default(8, ProtocolKind::Arc);
        cfg.arc_readonly_sharing = true;
        Machine::new(&cfg).unwrap().run(&p).unwrap()
    };
    assert!(
        on.l1_misses < off.l1_misses,
        "ro retention should cut misses: {} vs {}",
        on.l1_misses,
        off.l1_misses
    );
    assert_eq!(on.exceptions, off.exceptions, "detection unchanged");
}
