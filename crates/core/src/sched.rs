//! Index-min ready queue for the machine scheduler.
//!
//! The driver repeatedly runs the Ready core with the smallest local
//! clock, ties broken by the lowest core ID. The original
//! implementation rescanned every core on every step — O(cores) per
//! committed operation, which starts to dominate the driver loop at
//! high core counts. [`ReadyQueue`] is the standard library's
//! `BinaryHeap` over `Reverse((clock, core))`: it pops exactly the core
//! the linear scan would have picked, in O(log cores), with the
//! identical deterministic tie-break (equal clocks resolve to the
//! lowest core ID) at any core count.
//!
//! Invariant maintained by the machine loop: the queue holds every
//! Ready core except the running one, each exactly once and carrying
//! its current clock, and a core's clock never changes while its entry
//! is queued. Clocks move only when a core executes (it is out of the
//! queue then) or when a wake-up raises a *blocked* core's clock
//! immediately before its push. A stepped core that is still Ready
//! goes back through [`ReadyQueue::requeue`], which hands it straight
//! back when it would pop first anyway: after a short step the core
//! just run is often still the earliest.

use rce_common::Cycles;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A binary min-heap of `(clock, core)` pairs with deterministic
/// ordering: smallest clock first, lowest core ID on ties. Every queued
/// core has exactly one entry, so no two keys are equal and the pop
/// sequence does not depend on the heap's internal layout.
#[derive(Debug, Clone, Default)]
pub struct ReadyQueue {
    heap: BinaryHeap<Reverse<(Cycles, usize)>>,
}

impl ReadyQueue {
    /// An empty queue.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        ReadyQueue::default()
    }

    /// An empty queue with room for `n` cores.
    pub fn with_capacity(n: usize) -> Self {
        ReadyQueue {
            heap: BinaryHeap::with_capacity(n),
        }
    }

    /// Number of queued cores.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no core is queued.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Queue `core` as runnable at `clock`.
    pub fn push(&mut self, clock: Cycles, core: usize) {
        self.heap.push(Reverse((clock, core)));
    }

    /// Remove and return the `(clock, core)` pair with the smallest
    /// clock (lowest core ID on ties), or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycles, usize)> {
        self.heap.pop().map(|Reverse(top)| top)
    }

    /// Queue `core` at `clock` and pop the next pick, as `push` then
    /// `pop` would. The core comes back untouched if it still pops
    /// first; otherwise it takes the heap top's place, which costs one
    /// sift instead of a push and a pop.
    pub(crate) fn requeue(&mut self, clock: Cycles, core: usize) -> (Cycles, usize) {
        match self.heap.peek_mut() {
            Some(mut top) if top.0 < (clock, core) => {
                std::mem::replace(&mut *top, Reverse((clock, core))).0
            }
            _ => (clock, core),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_common::{Rng, SplitMix64};

    /// The reference the heap replaces: the machine's old scan walked
    /// cores in ID order with a strict `<` on the clock, which is
    /// exactly "minimize (clock, core ID)".
    fn linear_pick(ready: &[(Cycles, usize)]) -> Option<usize> {
        let mut pick: Option<usize> = None;
        for (i, entry) in ready.iter().enumerate() {
            if pick.is_none_or(|p| *entry < ready[p]) {
                pick = Some(i);
            }
        }
        pick
    }

    #[test]
    fn pops_in_clock_then_id_order() {
        let mut q = ReadyQueue::new();
        q.push(Cycles(5), 2);
        q.push(Cycles(3), 7);
        q.push(Cycles(5), 0);
        q.push(Cycles(3), 1);
        assert_eq!(q.pop(), Some((Cycles(3), 1)));
        assert_eq!(q.pop(), Some((Cycles(3), 7)));
        assert_eq!(q.pop(), Some((Cycles(5), 0)));
        assert_eq!(q.pop(), Some((Cycles(5), 2)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_resolve_to_lowest_core_id() {
        let mut q = ReadyQueue::with_capacity(64);
        for c in (0..64).rev() {
            q.push(Cycles(100), c);
        }
        for c in 0..64 {
            assert_eq!(q.pop(), Some((Cycles(100), c)));
        }
    }

    #[test]
    fn requeue_matches_push_then_pop_and_the_scan() {
        // The machine's loop with the running core held out of the
        // queue: step the pick, wake random blocked cores mid-step
        // (at a clock no earlier than theirs), then either requeue the
        // stepped core, block it, or retire it. The same schedule runs
        // through a push-then-pop queue and the linear scan; all three
        // must pick the same core at every step.
        let mut rng = SplitMix64::new(0x5EED);
        for cores in 1..=64usize {
            let mut fast = ReadyQueue::with_capacity(cores);
            let mut slow = ReadyQueue::with_capacity(cores);
            let mut scan: Vec<(Cycles, usize)> = Vec::new();
            for c in 0..cores {
                let t = Cycles(rng.gen_range(8));
                fast.push(t, c);
                slow.push(t, c);
                scan.push((t, c));
            }
            let mut blocked: Vec<(Cycles, usize)> = Vec::new();
            let mut next = fast.pop();
            for _ in 0..400 {
                let Some((t, c)) = next else {
                    assert!(slow.pop().is_none() && scan.is_empty());
                    break;
                };
                let want = scan.swap_remove(linear_pick(&scan).expect("scan has a pick"));
                assert_eq!(
                    slow.pop(),
                    Some(want),
                    "push-then-pop diverged from the scan"
                );
                assert_eq!((t, c), want, "requeue diverged from the scan");
                // Short steps, so clock ties are common.
                let now = Cycles(t.0 + rng.gen_range(4));
                // Mid-step wake-ups: a release or a barrier readies
                // blocked cores, no earlier than the waker's clock.
                while !blocked.is_empty() && rng.gen_bool(0.2) {
                    let (bt, b) = blocked.swap_remove(rng.gen_range(blocked.len() as u64) as usize);
                    let woke = bt.max(Cycles(now.0 + rng.gen_range(3)));
                    fast.push(woke, b);
                    slow.push(woke, b);
                    scan.push((woke, b));
                }
                let roll = rng.gen_range(20);
                next = if roll < 2 && scan.len() + 1 < cores {
                    blocked.push((now, c));
                    fast.pop()
                } else if roll < 3 && cores > 1 {
                    fast.pop() // retired
                } else {
                    slow.push(now, c);
                    scan.push((now, c));
                    Some(fast.requeue(now, c))
                };
                // Every Ready core but the pick is queued, once.
                assert_eq!(fast.len() + usize::from(next.is_some()), scan.len());
                if next.is_none() && !blocked.is_empty() {
                    // Keep the run going: wake one blocked core.
                    let (bt, b) = blocked.pop().unwrap();
                    slow.push(bt, b);
                    scan.push((bt, b));
                    next = Some((bt, b));
                }
            }
        }
    }
}
