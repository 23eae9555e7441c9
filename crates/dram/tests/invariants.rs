//! DRAM model invariants under random traffic.

use rce_common::check::{check_n, Unshrunk};
use rce_common::{prop_assert, prop_assert_eq, Cycles, DramConfig, Rng};
use rce_dram::{AccessKind, Dram};

/// Completion is causal and bank accesses serialize.
#[test]
fn completion_causal() {
    check_n(
        "dram completion causal",
        128,
        |rng| {
            let n = 1 + rng.gen_range(99) as usize;
            (0..n)
                .map(|_| (rng.gen_range(4096), rng.gen_range(1000)))
                .collect::<Vec<(u64, u64)>>()
        },
        |accesses| {
            let mut d = Dram::new(DramConfig::default());
            for &(line, t) in accesses {
                let done = d.access(LineAddr(line), 64, AccessKind::DataRead, Cycles(t));
                prop_assert!(done.0 > t, "an access takes nonzero time");
            }
            Ok(())
        },
    );
}

/// Byte accounting is exact.
#[test]
fn bytes_accounted() {
    check_n(
        "dram bytes accounted",
        128,
        |rng| {
            let n = 1 + rng.gen_range(79) as usize;
            (0..n)
                .map(|_| (rng.gen_range(1024), 1 + rng.gen_range(127)))
                .collect::<Vec<(u64, u64)>>()
        },
        |accesses| {
            let mut d = Dram::new(DramConfig::default());
            let mut expected = 0u64;
            for &(line, bytes) in accesses {
                d.access(LineAddr(line), bytes, AccessKind::MetaWrite, Cycles(0));
                expected += bytes;
            }
            prop_assert_eq!(d.total_bytes().0, expected);
            prop_assert_eq!(d.stats().metadata_bytes().0, expected);
            Ok(())
        },
    );
}

/// Row hits + misses equals total accesses; hit rate bounded.
#[test]
fn hit_accounting() {
    check_n(
        "dram hit accounting",
        128,
        |rng| {
            let n = 1 + rng.gen_range(199) as usize;
            (0..n).map(|_| rng.gen_range(256)).collect::<Vec<u64>>()
        },
        |lines| {
            let mut d = Dram::new(DramConfig::default());
            for (i, l) in lines.iter().enumerate() {
                d.access(
                    LineAddr(*l),
                    64,
                    AccessKind::DataRead,
                    Cycles(i as u64 * 10),
                );
            }
            let s = d.stats();
            prop_assert_eq!(s.row_hits.get() + s.row_misses.get(), s.total_accesses());
            Ok(())
        },
    );
}

/// Sequential same-row accesses beat row-conflicting ones in total
/// time.
#[test]
fn row_locality_pays() {
    check_n(
        "dram row locality pays",
        128,
        |rng| Unshrunk(4 + rng.gen_range(28)),
        |Unshrunk(n)| {
            let seq_done = {
                let mut d = Dram::new(DramConfig::default());
                let mut t = Cycles(0);
                for i in 0..*n {
                    // Same 4 KiB row: lines 0..64.
                    t = d.access(LineAddr(i % 64), 64, AccessKind::DataRead, t);
                }
                t
            };
            let scattered_done = {
                let mut d = Dram::new(DramConfig::default());
                let mut t = Cycles(0);
                for i in 0..*n {
                    // Same channel+bank stride but distinct rows.
                    t = d.access(LineAddr(i * 4096), 64, AccessKind::DataRead, t);
                }
                t
            };
            // Not every mapping collides into one bank, so allow equality,
            // but sequential must never be slower.
            prop_assert!(seq_done <= scattered_done);
            Ok(())
        },
    );
}

use rce_common::LineAddr;
