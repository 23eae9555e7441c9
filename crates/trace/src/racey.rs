//! Race injection: plant unsynchronized conflicting accesses into any
//! program.
//!
//! Used by the exception-delivery experiments (reconstructed Table
//! III): starting from a race-free workload, inject `n` conflicting
//! pairs and check that every engine detects conflicts the oracle
//! confirms. Injection appends a *pre-barrier racy prologue*: the
//! chosen pair of threads both access a fresh shared word before their
//! first synchronization operation, so the two accesses are in
//! concurrent regions under any interleaving — the conflict is
//! guaranteed, not probabilistic.

use crate::op::Op;
use crate::program::Program;
use rce_common::{Addr, RceError, RceResult, Rng, SplitMix64};

/// Inject `n` guaranteed region conflicts into `p`.
///
/// Each injected race `i` allocates a fresh shared word above the
/// program's existing shared range and prepends a write on one thread
/// and a read or write on another. Returns the injected addresses so
/// tests can check detection provenance.
///
/// A race needs two threads: a one-thread program is a
/// [`RceError::MalformedProgram`], and is left unchanged.
pub fn inject_races(p: &mut Program, n: usize, seed: u64) -> RceResult<Vec<Addr>> {
    if p.n_threads() < 2 {
        return Err(RceError::MalformedProgram(format!(
            "race injection needs at least two threads; {} has {}",
            p.name,
            p.n_threads()
        )));
    }
    let mut rng = SplitMix64::new(seed ^ 0x4acf);
    let mut injected = Vec::with_capacity(n);
    // Fresh line-aligned words beyond the current shared range.
    let base = (p.shared_end.0 + 63) & !63;
    for i in 0..n {
        let addr = Addr(base + (i as u64) * 64);
        let tw = rng.gen_range(p.n_threads() as u64) as usize;
        let mut tr = rng.gen_range(p.n_threads() as u64) as usize;
        if tr == tw {
            tr = (tr + 1) % p.n_threads();
        }
        // Prepend (insert at front) so both accesses precede any sync
        // op of their thread: their enclosing regions must overlap.
        p.threads[tw].insert(0, Op::Write { addr, len: 8 });
        let second = if rng.gen_bool(0.5) {
            Op::Read { addr, len: 8 }
        } else {
            Op::Write { addr, len: 8 }
        };
        p.threads[tr].insert(0, second);
        injected.push(addr);
    }
    p.shared_end = Addr(base + n as u64 * 64);
    p.name = format!("{}+{}races", p.name, n);
    Ok(injected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use crate::workloads::WorkloadSpec;

    #[test]
    fn injection_preserves_validity() {
        let mut p = WorkloadSpec::Blackscholes.build(4, 1, 1);
        let addrs = inject_races(&mut p, 3, 9).unwrap();
        assert_eq!(addrs.len(), 3);
        validate(&p).unwrap();
    }

    #[test]
    fn injected_accesses_precede_all_sync() {
        let mut p = WorkloadSpec::Streamcluster.build(4, 1, 2);
        let addrs = inject_races(&mut p, 2, 5).unwrap();
        for addr in &addrs {
            let mut touchers = 0;
            for ops in &p.threads {
                let pre_sync_touch = ops
                    .iter()
                    .take_while(|o| !o.is_sync())
                    .any(|o| o.addr() == Some(*addr));
                if pre_sync_touch {
                    touchers += 1;
                }
            }
            assert!(touchers >= 2, "race at {addr} not concurrent");
        }
    }

    #[test]
    fn injected_addrs_are_fresh() {
        let mut p = WorkloadSpec::Canneal.build(2, 1, 3);
        let before_end = p.shared_end;
        let addrs = inject_races(&mut p, 4, 11).unwrap();
        for a in addrs {
            assert!(
                a >= before_end,
                "injected address collides with workload data"
            );
            assert!(p.is_shared_addr(a));
        }
    }

    #[test]
    fn name_records_injection() {
        let mut p = WorkloadSpec::Vips.build(2, 1, 1);
        inject_races(&mut p, 2, 1).unwrap();
        assert!(p.name.ends_with("+2races"));
    }

    #[test]
    fn single_thread_rejected() {
        let mut p = WorkloadSpec::Swaptions.build(1, 1, 1);
        let before = p.clone();
        match inject_races(&mut p, 1, 1) {
            Err(RceError::MalformedProgram(m)) => assert!(m.contains("at least two"), "{m}"),
            other => panic!("expected MalformedProgram, got {other:?}"),
        }
        assert_eq!(p, before, "a rejected program is left unchanged");
    }
}
