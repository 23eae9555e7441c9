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
    // Fresh line-aligned words beyond the current shared range.
    let base = p.shared_end.0.checked_add(63).map(|a| a & !63);
    let end = base.and_then(|b| b.checked_add(u64::try_from(n).ok()?.checked_mul(64)?));
    let (Some(base), Some(end)) = (base, end) else {
        return Err(RceError::MalformedProgram(format!(
            "{n} races do not fit above {}'s shared range, which ends at {}",
            p.name, p.shared_end
        )));
    };
    let mut rng = SplitMix64::new(seed ^ 0x4acf);
    let mut injected = Vec::new();
    // Each thread's racy ops, in injection order.
    let mut prologues: Vec<Vec<Op>> = vec![Vec::new(); p.n_threads()];
    for i in 0..n as u64 {
        let addr = Addr(base + i * 64);
        let tw = rng.gen_range(p.n_threads() as u64) as usize;
        let mut tr = rng.gen_range(p.n_threads() as u64) as usize;
        if tr == tw {
            tr = (tr + 1) % p.n_threads();
        }
        prologues[tw].push(Op::Write { addr, len: 8 });
        let second = if rng.gen_bool(0.5) {
            Op::Read { addr, len: 8 }
        } else {
            Op::Write { addr, len: 8 }
        };
        prologues[tr].push(second);
        injected.push(addr);
    }
    // Prepend so both accesses of a race precede any sync op of their
    // thread: their enclosing regions must overlap. The latest race
    // comes first, as if each op had been inserted at the front.
    for (ops, prologue) in p.threads.iter_mut().zip(prologues) {
        ops.splice(0..0, prologue.into_iter().rev());
    }
    p.shared_end = Addr(end);
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

    #[test]
    fn overflowing_injection_rejected() {
        let mut p = WorkloadSpec::Canneal.build(2, 1, 1);
        let before = p.clone();
        // 2^58 races need 2^64 bytes above the shared range.
        match inject_races(&mut p, 1 << 58, 1) {
            Err(RceError::MalformedProgram(m)) => assert!(m.contains("do not fit"), "{m}"),
            other => panic!("expected MalformedProgram, got {other:?}"),
        }
        assert_eq!(p, before, "a rejected program is left unchanged");
        // A shared range ending within a line of 2^64 has no room left.
        p.shared_end = Addr(u64::MAX - 10);
        assert!(inject_races(&mut p, 1, 1).is_err());
        assert!(inject_races(&mut p, 0, 1).is_err());
    }

    #[test]
    fn prologues_hold_the_latest_race_first() {
        let mut p = WorkloadSpec::Streamcluster.build(2, 1, 2);
        let lens: Vec<usize> = p.threads.iter().map(Vec::len).collect();
        let addrs = inject_races(&mut p, 5, 3).unwrap();
        // Two threads: every race touches both, so each thread's
        // prologue is the five addresses in reverse.
        let want: Vec<Option<Addr>> = addrs.iter().rev().map(|&a| Some(a)).collect();
        for (ops, len) in p.threads.iter().zip(lens) {
            assert_eq!(ops.len(), len + 5);
            let got: Vec<Option<Addr>> = ops[..5].iter().map(Op::addr).collect();
            assert_eq!(got, want);
        }
    }
}
