//! Structural validation of programs.
//!
//! Catches generator bugs before they turn into simulator deadlocks:
//! unbalanced or recursive locking, barrier arity mismatches, memory
//! accesses that straddle a cache line, out-of-universe lock or
//! barrier IDs, and declared universes too large for the program.

use crate::op::Op;
use crate::program::Program;
use rce_common::{LineGeometry, RceError, RceResult};
use std::collections::HashSet;

/// Validate `p`; returns the first structural problem found.
///
/// Rules:
/// 1. Locks are non-recursive mutexes: a thread may not acquire a lock
///    it holds, may only release locks it holds, and must hold nothing
///    at thread end.
/// 2. Barriers are global: every thread executes every barrier ID the
///    same number of times (otherwise the simulation would deadlock).
/// 3. Memory accesses have `1 <= len <= 64` and do not cross a line
///    boundary (the simulator charges exactly one line per access).
/// 4. Lock/barrier IDs are within the program's declared universe.
/// 5. Neither universe is larger than the program's count of
///    synchronization operations, which bounds how many IDs it can
///    name. The check runs first: the per-ID tables here and in the
///    simulator are sized by the declared counts, so a header
///    declaring billions of IDs would otherwise allocate that many.
pub fn validate(p: &Program) -> RceResult<()> {
    if p.threads.is_empty() {
        return Err(RceError::MalformedProgram("no threads".into()));
    }
    let sync_ops = p.total_sync_ops() as u64;
    for (what, n) in [("locks", p.n_locks), ("barriers", p.n_barriers)] {
        if u64::from(n) > sync_ops {
            return Err(RceError::MalformedProgram(format!(
                "declares {n} {what} but has only {sync_ops} synchronization operations"
            )));
        }
    }

    // Per-thread lock discipline and per-thread barrier counts.
    let mut barrier_counts: Vec<Vec<u64>> = Vec::with_capacity(p.n_threads());
    for (t, ops) in p.threads.iter().enumerate() {
        let mut held: HashSet<u32> = HashSet::new();
        let mut counts = vec![0u64; p.n_barriers as usize];
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Acquire { lock } => {
                    if lock.0 >= p.n_locks {
                        return Err(RceError::MalformedProgram(format!(
                            "thread {t} op {i}: acquire of undeclared {lock}"
                        )));
                    }
                    if !held.insert(lock.0) {
                        return Err(RceError::MalformedProgram(format!(
                            "thread {t} op {i}: recursive acquire of {lock}"
                        )));
                    }
                }
                Op::Release { lock } => {
                    if !held.remove(&lock.0) {
                        return Err(RceError::MalformedProgram(format!(
                            "thread {t} op {i}: release of unheld {lock}"
                        )));
                    }
                }
                Op::Barrier { bar } => {
                    if bar.0 >= p.n_barriers {
                        return Err(RceError::MalformedProgram(format!(
                            "thread {t} op {i}: undeclared {bar}"
                        )));
                    }
                    counts[bar.0 as usize] += 1;
                }
                Op::Read { addr, len } | Op::Write { addr, len } => {
                    if len == 0 || len as u64 > LineGeometry::LINE_BYTES {
                        return Err(RceError::MalformedProgram(format!(
                            "thread {t} op {i}: access len {len} out of range"
                        )));
                    }
                    // An access running past 2^64 crosses out of the
                    // last line too.
                    let last = addr.0.checked_add(len as u64 - 1);
                    if last.map(|a| rce_common::Addr(a).line()) != Some(addr.line()) {
                        return Err(RceError::MalformedProgram(format!(
                            "thread {t} op {i}: access at {addr} len {len} crosses a line"
                        )));
                    }
                }
                Op::Work { .. } => {}
            }
        }
        if !held.is_empty() {
            return Err(RceError::MalformedProgram(format!(
                "thread {t} ends holding {} lock(s)",
                held.len()
            )));
        }
        barrier_counts.push(counts);
    }

    // Global barrier arity: identical counts across threads.
    if p.n_barriers > 0 {
        let first = &barrier_counts[0];
        for (t, counts) in barrier_counts.iter().enumerate().skip(1) {
            if counts != first {
                return Err(RceError::MalformedProgram(format!(
                    "barrier count mismatch between thread 0 and thread {t}"
                )));
            }
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Builder;
    use rce_common::{Addr, BarrierId, LockId};

    #[test]
    fn valid_program_passes() {
        let mut b = Builder::new("ok", 2);
        let l = b.lock();
        let bar = b.barrier();
        let a = b.shared(128);
        for t in 0..2 {
            b.critical(t, l, |b| b.write(t, a.word(t as u64)));
        }
        b.barrier_all(bar);
        assert!(validate(&b.finish()).is_ok());
    }

    #[test]
    fn recursive_acquire_rejected() {
        let mut b = Builder::new("bad", 1);
        let l = b.lock();
        b.acquire(0, l);
        b.acquire(0, l);
        b.release(0, l);
        b.release(0, l);
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("recursive"));
    }

    #[test]
    fn unheld_release_rejected() {
        let mut b = Builder::new("bad", 1);
        let l = b.lock();
        b.release(0, l);
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("unheld"));
    }

    #[test]
    fn dangling_hold_rejected() {
        let mut b = Builder::new("bad", 1);
        let l = b.lock();
        b.acquire(0, l);
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("ends holding"));
    }

    #[test]
    fn undeclared_lock_rejected() {
        let mut b = Builder::new("bad", 1);
        b.push(0, crate::op::Op::Acquire { lock: LockId(99) });
        b.push(0, crate::op::Op::Release { lock: LockId(99) });
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn barrier_mismatch_rejected() {
        let mut b = Builder::new("bad", 2);
        let bar = b.barrier();
        b.barrier_one(0, bar); // thread 1 never arrives
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn undeclared_barrier_rejected() {
        let mut b = Builder::new("bad", 1);
        b.push(0, crate::op::Op::Barrier { bar: BarrierId(7) });
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn oversized_lock_universe_rejected() {
        let mut b = Builder::new("bad", 1);
        let l = b.lock();
        b.critical(0, l, |b| b.write(0, Addr(0)));
        let mut p = b.finish();
        // Two sync ops (an acquire and a release) bound the universe.
        p.n_locks = 2;
        assert!(validate(&p).is_ok());
        p.n_locks = 3;
        let err = validate(&p).unwrap_err();
        assert!(err.to_string().contains("declares 3 locks"), "{err}");
    }

    #[test]
    fn oversized_barrier_universe_rejected() {
        let mut b = Builder::new("bad", 1);
        b.write(0, Addr(0));
        let mut p = b.finish();
        // One op and no sync at all: the header may declare nothing.
        p.n_barriers = u32::MAX;
        let err = validate(&p).unwrap_err();
        assert!(err.to_string().contains("barriers"), "{err}");
    }

    #[test]
    fn line_crossing_access_rejected() {
        let mut b = Builder::new("bad", 1);
        b.push(
            0,
            crate::op::Op::Read {
                addr: Addr(60),
                len: 8,
            },
        );
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.to_string().contains("crosses a line"));
    }

    #[test]
    fn access_past_the_address_space_rejected() {
        let mut b = Builder::new("bad", 1);
        b.push(
            0,
            crate::op::Op::Read {
                addr: Addr(u64::MAX - 3),
                len: 8,
            },
        );
        match validate(&b.finish()) {
            Err(RceError::MalformedProgram(m)) => assert!(m.contains("crosses a line"), "{m}"),
            other => panic!("expected MalformedProgram, got {other:?}"),
        }
    }

    #[test]
    fn zero_len_access_rejected() {
        let mut b = Builder::new("bad", 1);
        b.push(
            0,
            crate::op::Op::Read {
                addr: Addr(0),
                len: 0,
            },
        );
        assert!(validate(&b.finish()).is_err());
    }

    #[test]
    fn empty_program_rejected() {
        let p = Program {
            name: "empty".into(),
            threads: vec![],
            n_locks: 0,
            n_barriers: 0,
            shared_base: Addr(0),
            shared_end: Addr(0),
        };
        assert!(validate(&p).is_err());
    }

    use crate::program::Program;
}
