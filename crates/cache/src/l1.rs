//! Private L1 data cache, generic over per-line protocol state.

use crate::array::SetAssoc;
use rce_common::{CacheGeometry, Counter, LineAddr};

/// A private L1 data cache holding per-line protocol state `S`.
///
/// The cache tracks residency and replacement; the protocol engines
/// own what `S` means. Hits/misses/evictions are counted here so every
/// engine reports them identically.
#[derive(Debug, Clone)]
pub struct L1Cache<S> {
    array: SetAssoc<S>,
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
    /// Capacity evictions.
    pub evictions: Counter,
}

impl<S> L1Cache<S> {
    /// Build from geometry (64-byte lines).
    pub fn new(geom: &CacheGeometry) -> Self {
        L1Cache {
            array: SetAssoc::new(geom.sets(), geom.ways),
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
        }
    }

    /// Look up a line, counting hit/miss. Returns state on hit.
    ///
    /// One set walk: a miss still ticks the LRU clock, which leaves
    /// every set's stamp order, and so every eviction, unchanged.
    pub fn access(&mut self, line: LineAddr) -> Option<&mut S> {
        let hit = self.array.get_mut(line.0);
        if hit.is_some() {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        hit
    }

    /// Look up without counting (for region walks and invariants).
    pub fn peek(&self, line: LineAddr) -> Option<&S> {
        self.array.peek(line.0)
    }

    /// Mutable lookup without hit/miss counting (protocol updates that
    /// are not program accesses, e.g. remote invalidations).
    pub fn probe_mut(&mut self, line: LineAddr) -> Option<&mut S> {
        self.array.get_mut(line.0)
    }

    /// True if resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.array.contains(line.0)
    }

    /// Insert a line after a fill; returns the evicted `(line, state)`
    /// if the set was full.
    pub fn fill(&mut self, line: LineAddr, state: S) -> Option<(LineAddr, S)> {
        let ev = self.array.insert(line.0, state);
        if ev.is_some() {
            self.evictions.inc();
        }
        ev.map(|(k, s)| (LineAddr(k), s))
    }

    /// Remove a line (invalidation).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<S> {
        self.array.remove(line.0)
    }

    /// Iterate all resident lines.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &S)> {
        self.array.iter().map(|(k, s)| (LineAddr(k), s))
    }

    /// Iterate all resident lines mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (LineAddr, &mut S)> {
        self.array.iter_mut().map(|(k, s)| (LineAddr(k), s))
    }

    /// Remove and return all lines matching `pred` (bulk
    /// self-invalidation).
    pub fn drain_filter(
        &mut self,
        mut pred: impl FnMut(LineAddr, &S) -> bool,
    ) -> Vec<(LineAddr, S)> {
        self.array
            .drain_filter(|k, s| pred(LineAddr(k), s))
            .into_iter()
            .map(|(k, s)| (LineAddr(k), s))
            .collect()
    }

    /// Resident line count.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.array.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_common::Bytes;

    fn geom() -> CacheGeometry {
        CacheGeometry {
            capacity: Bytes::kib(4), // 64 lines
            ways: 4,
            latency: 2,
        }
    }

    #[test]
    fn hit_miss_counting() {
        let mut c: L1Cache<u8> = L1Cache::new(&geom());
        assert!(c.access(LineAddr(1)).is_none());
        c.fill(LineAddr(1), 7);
        assert_eq!(c.access(LineAddr(1)), Some(&mut 7));
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
    }

    #[test]
    fn fill_evicts_when_full() {
        let mut c: L1Cache<u64> = L1Cache::new(&geom());
        // 16 sets × 4 ways; fill 5 lines mapping to set 0.
        for i in 0..5u64 {
            let line = LineAddr(i * 16);
            if c.fill(line, i).is_some() {
                assert_eq!(c.evictions.get(), 1);
            }
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.evictions.get(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c: L1Cache<u8> = L1Cache::new(&geom());
        c.fill(LineAddr(3), 1);
        assert_eq!(c.invalidate(LineAddr(3)), Some(1));
        assert!(!c.contains(LineAddr(3)));
        assert_eq!(c.invalidate(LineAddr(3)), None);
    }

    #[test]
    fn probe_does_not_count() {
        let mut c: L1Cache<u8> = L1Cache::new(&geom());
        c.fill(LineAddr(9), 2);
        assert!(c.probe_mut(LineAddr(9)).is_some());
        assert_eq!(c.hits.get() + c.misses.get(), 0);
    }

    #[test]
    fn drain_filter_bulk_invalidation() {
        let mut c: L1Cache<bool> = L1Cache::new(&geom());
        for i in 0..8u64 {
            c.fill(LineAddr(i), i % 2 == 0);
        }
        let drained = c.drain_filter(|_, &shared| shared);
        assert_eq!(drained.len(), 4);
        assert_eq!(c.len(), 4);
        assert!(c.iter().all(|(_, &s)| !s));
    }
}
