//! Generic set-associative array with true-LRU replacement.
//!
//! Keys are line-granularity addresses (or any u64 identifier); the
//! set index is the low bits of the key, so callers should pass keys
//! whose low bits vary (line numbers do). Used for L1 data arrays, the
//! LLC, and the AIM metadata cache.

/// One slot of a set.
#[derive(Debug, Clone)]
struct Slot<T> {
    key: u64,
    stamp: u64,
    value: T,
}

/// A set-associative array mapping `u64` keys to `T`, with per-set
/// true-LRU replacement.
#[derive(Debug, Clone)]
pub struct SetAssoc<T> {
    sets: u64,
    ways: u32,
    slots: Vec<Vec<Slot<T>>>,
    clock: u64,
    len: usize,
}

impl<T> SetAssoc<T> {
    /// Create with `sets` sets (power of two) × `ways` ways.
    pub fn new(sets: u64, ways: u32) -> Self {
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be positive");
        SetAssoc {
            sets,
            ways,
            slots: (0..sets)
                .map(|_| Vec::with_capacity(ways as usize))
                .collect(),
            clock: 0,
            len: 0,
        }
    }

    /// Create from a total entry count and associativity.
    pub fn with_entries(entries: u64, ways: u32) -> Self {
        assert!(
            entries.is_multiple_of(ways as u64),
            "entries must divide by ways"
        );
        Self::new((entries / ways as u64).max(1), ways)
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total capacity in entries.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> u64 {
        self.sets * self.ways as u64
    }

    /// Number of sets.
    #[cfg(test)]
    pub(crate) fn sets(&self) -> u64 {
        self.sets
    }

    #[inline]
    fn set_of(&self, key: u64) -> usize {
        (key & (self.sets - 1)) as usize
    }

    /// Look up `key`, updating recency. Returns a mutable reference on
    /// hit.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(key);
        self.slots[set].iter_mut().find(|s| s.key == key).map(|s| {
            s.stamp = clock;
            &mut s.value
        })
    }

    /// Look up `key` without touching recency.
    pub fn peek(&self, key: u64) -> Option<&T> {
        let set = self.set_of(key);
        self.slots[set]
            .iter()
            .find(|s| s.key == key)
            .map(|s| &s.value)
    }

    /// True if `key` is resident (no recency update).
    pub fn contains(&self, key: u64) -> bool {
        self.peek(key).is_some()
    }

    /// Insert `key -> value`; if the set is full, evicts the LRU entry
    /// and returns it as `(key, value)`. Panics if `key` is already
    /// resident (callers must use `get_mut` first).
    pub fn insert(&mut self, key: u64, value: T) -> Option<(u64, T)> {
        self.clock += 1;
        let clock = self.clock;
        let ways = self.ways as usize;
        let set_idx = self.set_of(key);
        let set = &mut self.slots[set_idx];
        assert!(
            set.iter().all(|s| s.key != key),
            "insert of already-resident key {key:#x}"
        );
        // Evict the LRU slot when the set is full (full => nonempty,
        // so `min_by_key` finding nothing just means no eviction).
        let lru_idx = if set.len() == ways {
            set.iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .map(|(i, _)| i)
        } else {
            None
        };
        let evicted = if let Some(i) = lru_idx {
            let slot = set.swap_remove(i);
            self.len -= 1;
            Some((slot.key, slot.value))
        } else {
            None
        };
        set.push(Slot {
            key,
            stamp: clock,
            value,
        });
        self.len += 1;
        evicted
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let set_idx = self.set_of(key);
        let set = &mut self.slots[set_idx];
        let pos = set.iter().position(|s| s.key == key)?;
        self.len -= 1;
        Some(set.swap_remove(pos).value)
    }

    /// Iterate `(key, &value)` over all resident entries.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots.iter().flatten().map(|s| (s.key, &s.value))
    }

    /// Iterate `(key, &mut value)` over all resident entries.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.slots
            .iter_mut()
            .flatten()
            .map(|s| (s.key, &mut s.value))
    }

    /// Visit every entry once, set by set, and remove those for which
    /// `pred` returns true; `pred` may also change the entries it
    /// keeps. Returns how many were removed. A removal moves the set's
    /// last slot into the freed one (`swap_remove`), and that slot is
    /// visited next. Allocates nothing.
    pub(crate) fn remove_where(&mut self, mut pred: impl FnMut(u64, &mut T) -> bool) -> usize {
        let before = self.len;
        for set in &mut self.slots {
            let mut i = 0;
            while i < set.len() {
                let slot = &mut set[i];
                if pred(slot.key, &mut slot.value) {
                    set.swap_remove(i);
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
        }
        before - self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_lookup() {
        let mut a: SetAssoc<u32> = SetAssoc::new(4, 2);
        assert!(a.insert(0, 10).is_none());
        assert!(a.insert(4, 20).is_none()); // same set (4 sets), different key
        assert_eq!(a.peek(0), Some(&10));
        assert_eq!(*a.get_mut(4).unwrap(), 20);
        assert_eq!(a.len(), 2);
        assert!(a.contains(0));
        assert!(!a.contains(8));
    }

    #[test]
    fn lru_eviction_order() {
        let mut a: SetAssoc<u32> = SetAssoc::new(1, 2);
        a.insert(1, 1);
        a.insert(2, 2);
        // Touch key 1 so key 2 becomes LRU.
        a.get_mut(1);
        let evicted = a.insert(3, 3).unwrap();
        assert_eq!(evicted, (2, 2));
        assert!(a.contains(1) && a.contains(3));
    }

    #[test]
    fn eviction_only_within_set() {
        let mut a: SetAssoc<u32> = SetAssoc::new(2, 1);
        a.insert(0, 0); // set 0
        a.insert(1, 1); // set 1
                        // Inserting into set 0 evicts key 0, not key 1.
        let ev = a.insert(2, 2).unwrap();
        assert_eq!(ev.0, 0);
        assert!(a.contains(1));
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_insert_panics() {
        let mut a: SetAssoc<u32> = SetAssoc::new(2, 2);
        a.insert(5, 1);
        a.insert(5, 2);
    }

    #[test]
    fn remove_works() {
        let mut a: SetAssoc<u32> = SetAssoc::new(2, 2);
        a.insert(1, 11);
        assert_eq!(a.remove(1), Some(11));
        assert_eq!(a.remove(1), None);
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn with_entries_capacity() {
        let a: SetAssoc<u8> = SetAssoc::with_entries(1024, 8);
        assert_eq!(a.capacity(), 1024);
        assert_eq!(a.sets(), 128);
    }

    #[test]
    fn iter_visits_everything() {
        let mut a: SetAssoc<u32> = SetAssoc::new(4, 2);
        for k in 0..6u64 {
            a.insert(k, k as u32 * 10);
        }
        let mut seen: Vec<_> = a.iter().map(|(k, v)| (k, *v)).collect();
        seen.sort();
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[3], (3, 30));
    }

    #[test]
    fn remove_where_removes_matching_and_updates_survivors() {
        let mut a: SetAssoc<u32> = SetAssoc::new(4, 4);
        for k in 0..16u64 {
            a.insert(k, k as u32);
        }
        let removed = a.remove_where(|_, v| {
            if *v % 3 == 0 {
                return true;
            }
            *v += 100;
            false
        });
        assert_eq!(removed, 6); // 0, 3, 6, 9, 12, 15
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|(k, v)| k % 3 != 0 && *v == k as u32 + 100));
        // Set 0 held 0, 4, 8, 12: removing 0 moves 12 into its slot,
        // and 12 goes too, leaving 8 first. Set 3 held 3, 7, 11, 15:
        // removing 3 moves 15 in, which goes as well.
        let order: Vec<u64> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(order, [8, 4, 1, 5, 13, 2, 14, 10, 11, 7]);
        assert_eq!(a.remove_where(|_, _| false), 0);
    }

    #[test]
    fn stress_respects_capacity() {
        let mut a: SetAssoc<u64> = SetAssoc::new(8, 4);
        for k in 0..1000u64 {
            if !a.contains(k) {
                a.insert(k, k);
            }
        }
        assert!(a.len() as u64 <= a.capacity());
    }
}
