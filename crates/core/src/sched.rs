//! Index-min ready queue for the machine scheduler.
//!
//! The driver repeatedly runs the Ready core with the smallest local
//! clock, ties broken by the lowest core ID. The original
//! implementation rescanned every core on every step — O(cores) per
//! committed operation, which starts to dominate the driver loop at
//! high core counts. [`ReadyQueue`] is a binary min-heap keyed by
//! `(clock, core)`: it pops exactly the core the linear scan would
//! have picked, in O(log cores), with the identical deterministic
//! tie-break (equal clocks resolve to the lowest core ID) at any core
//! count.
//!
//! Invariant maintained by the machine loop: every Ready core has
//! exactly one queued entry carrying its current clock, and a core's
//! clock never changes while its entry is queued. Clocks move only
//! when a core executes (after its entry is popped) or when a wake-up
//! raises a *blocked* core's clock immediately before its push.

use rce_common::Cycles;

/// A binary min-heap of `(clock, core)` pairs with deterministic
/// ordering: smallest clock first, lowest core ID on ties.
#[derive(Debug, Clone, Default)]
pub struct ReadyQueue {
    heap: Vec<(Cycles, usize)>,
}

impl ReadyQueue {
    /// An empty queue.
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        ReadyQueue { heap: Vec::new() }
    }

    /// An empty queue with room for `n` cores.
    pub fn with_capacity(n: usize) -> Self {
        ReadyQueue {
            heap: Vec::with_capacity(n),
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
        self.heap.push((clock, core));
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the `(clock, core)` pair with the smallest
    /// clock (lowest core ID on ties), or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycles, usize)> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] < self.heap[parent] {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut min = i;
            if l < n && self.heap[l] < self.heap[min] {
                min = l;
            }
            if r < n && self.heap[r] < self.heap[min] {
                min = r;
            }
            if min == i {
                break;
            }
            self.heap.swap(i, min);
            i = min;
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
    fn matches_linear_scan_under_random_schedules() {
        // Simulate the machine's usage pattern: pop-min, advance that
        // core's clock by a random amount, re-queue — against a vector
        // the linear scan searches. Both must pick the same core every
        // step.
        let mut rng = SplitMix64::new(0xD00D);
        for cores in [1usize, 2, 3, 8, 64] {
            let mut q = ReadyQueue::with_capacity(cores);
            let mut reference: Vec<(Cycles, usize)> = Vec::new();
            for c in 0..cores {
                q.push(Cycles::ZERO, c);
                reference.push((Cycles::ZERO, c));
            }
            for _ in 0..2000 {
                let Some(want) = linear_pick(&reference) else {
                    assert!(q.is_empty());
                    break;
                };
                let expected = reference.swap_remove(want);
                let (t, c) = q.pop().unwrap();
                assert_eq!((t, c), expected, "heap diverged from the scan");
                let next = Cycles(t.0 + rng.gen_range(4)); // ties common
                if rng.gen_bool(0.1) {
                    // "Blocked": re-queue later (a lock handoff raises
                    // the clock before the push) or drop entirely.
                    if rng.gen_bool(0.8) {
                        let wake = Cycles(next.0 + rng.gen_range(10));
                        q.push(wake, c);
                        reference.push((wake, c));
                    }
                } else {
                    q.push(next, c);
                    reference.push((next, c));
                }
                // The mirror must track the heap exactly.
                assert_eq!(q.len(), reference.len());
            }
        }
    }
}
