//! Synchronization managers: FIFO mutexes and global barriers.
//!
//! Locks and barriers are modeled functionally (grant queues and
//! arrival counts) with fixed hardware-ish latencies, rather than as
//! memory accesses — the engines under study differ on *data*
//! accesses, and modeling synchronization through the coherence
//! protocol would entangle the designs with the semantics of atomics,
//! which the paper holds constant across designs. Lock handoff and
//! barrier release latencies are charged identically to every design.

use rce_common::{BarrierId, CoreId, Cycles, LockId};

/// Cycles charged for an uncontended acquire (atomic RMW round trip).
pub(crate) const ACQUIRE_LATENCY: u64 = 40;
/// Cycles from a release to the next waiter resuming.
pub(crate) const HANDOFF_LATENCY: u64 = 60;
/// Cycles from the last barrier arrival to every core resuming.
pub(crate) const BARRIER_RELEASE_LATENCY: u64 = 100;

/// FIFO mutexes.
#[derive(Debug, Clone)]
pub struct LockManager {
    /// Each lock's holder.
    holders: Vec<Option<CoreId>>,
    /// FIFO wait queues.
    waiters: Vec<Vec<CoreId>>,
}

/// Result of an acquire attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// Granted; the core resumes at the given time.
    Granted(Cycles),
    /// The core must block until a release hands the lock over.
    Blocked,
}

impl LockManager {
    /// Build for `n_locks` locks.
    pub fn new(n_locks: u32) -> Self {
        LockManager {
            holders: vec![None; n_locks as usize],
            waiters: vec![Vec::new(); n_locks as usize],
        }
    }

    /// Try to acquire at `now`.
    pub fn acquire(&mut self, lock: LockId, core: CoreId, now: Cycles) -> AcquireOutcome {
        let i = lock.index();
        match self.holders[i] {
            None => {
                self.holders[i] = Some(core);
                AcquireOutcome::Granted(Cycles(now.0 + ACQUIRE_LATENCY))
            }
            Some(h) => {
                assert_ne!(h, core, "recursive acquire must be caught by validation");
                self.waiters[i].push(core);
                AcquireOutcome::Blocked
            }
        }
    }

    /// Release at `now`; if a waiter exists it becomes the holder and
    /// `(waiter, resume_time)` is returned.
    pub fn release(&mut self, lock: LockId, core: CoreId, now: Cycles) -> Option<(CoreId, Cycles)> {
        let i = lock.index();
        assert_eq!(
            self.holders[i],
            Some(core),
            "release by non-holder must be caught by validation"
        );
        if self.waiters[i].is_empty() {
            self.holders[i] = None;
            None
        } else {
            let next = self.waiters[i].remove(0);
            self.holders[i] = Some(next);
            Some((next, Cycles(now.0 + HANDOFF_LATENCY)))
        }
    }

    /// Current holder (diagnostics).
    pub(crate) fn holder(&self, lock: LockId) -> Option<CoreId> {
        self.holders[lock.index()]
    }
}

/// Global barriers: every core participates in every barrier episode.
#[derive(Debug, Clone)]
pub struct BarrierManager {
    n_cores: usize,
    arrived: Vec<Vec<CoreId>>,
}

/// Result of a barrier arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BarrierOutcome {
    /// Not everyone is here yet; the core blocks.
    Blocked,
    /// This arrival completed the barrier: all listed cores resume at
    /// the given time.
    Released(Vec<CoreId>, Cycles),
}

impl BarrierManager {
    /// Build for `n_cores` cores and `n_barriers` barrier objects.
    pub fn new(n_cores: usize, n_barriers: u32) -> Self {
        BarrierManager {
            n_cores,
            arrived: vec![Vec::new(); n_barriers as usize],
        }
    }

    /// A core arrives at `bar` at time `now`.
    pub fn arrive(&mut self, bar: BarrierId, core: CoreId, now: Cycles) -> BarrierOutcome {
        let q = &mut self.arrived[bar.index()];
        assert!(
            !q.contains(&core),
            "double arrival at {bar} by {core} without release"
        );
        q.push(core);
        if q.len() == self.n_cores {
            let released = std::mem::take(q);
            BarrierOutcome::Released(released, Cycles(now.0 + BARRIER_RELEASE_LATENCY))
        } else {
            BarrierOutcome::Blocked
        }
    }

    /// How many cores are currently waiting at `bar`.
    pub(crate) fn waiting(&self, bar: BarrierId) -> usize {
        self.arrived[bar.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_grants() {
        let mut lm = LockManager::new(1);
        match lm.acquire(LockId(0), CoreId(0), Cycles(10)) {
            AcquireOutcome::Granted(t) => assert_eq!(t.0, 10 + ACQUIRE_LATENCY),
            _ => panic!("should grant"),
        }
        assert_eq!(lm.holder(LockId(0)), Some(CoreId(0)));
    }

    #[test]
    fn contended_acquire_blocks_then_hands_off_fifo() {
        let mut lm = LockManager::new(1);
        lm.acquire(LockId(0), CoreId(0), Cycles(0));
        assert_eq!(
            lm.acquire(LockId(0), CoreId(1), Cycles(5)),
            AcquireOutcome::Blocked
        );
        assert_eq!(
            lm.acquire(LockId(0), CoreId(2), Cycles(6)),
            AcquireOutcome::Blocked
        );
        // FIFO: core 1 first.
        let (next, t) = lm.release(LockId(0), CoreId(0), Cycles(100)).unwrap();
        assert_eq!(next, CoreId(1));
        assert_eq!(t.0, 100 + HANDOFF_LATENCY);
        assert_eq!(lm.holder(LockId(0)), Some(CoreId(1)));
        let (next, _) = lm.release(LockId(0), CoreId(1), Cycles(200)).unwrap();
        assert_eq!(next, CoreId(2));
        assert!(lm.release(LockId(0), CoreId(2), Cycles(300)).is_none());
        assert_eq!(lm.holder(LockId(0)), None);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_non_holder_panics() {
        let mut lm = LockManager::new(1);
        lm.acquire(LockId(0), CoreId(0), Cycles(0));
        lm.release(LockId(0), CoreId(1), Cycles(1));
    }

    #[test]
    fn barrier_releases_when_all_arrive() {
        let mut bm = BarrierManager::new(3, 1);
        assert_eq!(
            bm.arrive(BarrierId(0), CoreId(0), Cycles(10)),
            BarrierOutcome::Blocked
        );
        assert_eq!(
            bm.arrive(BarrierId(0), CoreId(1), Cycles(20)),
            BarrierOutcome::Blocked
        );
        assert_eq!(bm.waiting(BarrierId(0)), 2);
        match bm.arrive(BarrierId(0), CoreId(2), Cycles(30)) {
            BarrierOutcome::Released(cores, t) => {
                assert_eq!(cores.len(), 3);
                assert_eq!(t.0, 30 + BARRIER_RELEASE_LATENCY);
            }
            _ => panic!("should release"),
        }
        assert_eq!(bm.waiting(BarrierId(0)), 0);
    }

    #[test]
    fn barrier_reusable_across_episodes() {
        let mut bm = BarrierManager::new(2, 1);
        bm.arrive(BarrierId(0), CoreId(0), Cycles(0));
        bm.arrive(BarrierId(0), CoreId(1), Cycles(1));
        bm.arrive(BarrierId(0), CoreId(1), Cycles(2));
        match bm.arrive(BarrierId(0), CoreId(0), Cycles(3)) {
            BarrierOutcome::Released(_, _) => {}
            _ => panic!("second episode should release"),
        }
    }

    #[test]
    fn single_core_barrier_releases_immediately() {
        let mut bm = BarrierManager::new(1, 1);
        match bm.arrive(BarrierId(0), CoreId(0), Cycles(5)) {
            BarrierOutcome::Released(cores, _) => assert_eq!(cores, vec![CoreId(0)]),
            _ => panic!(),
        }
    }
}
