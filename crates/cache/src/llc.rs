//! Shared last-level cache (banked by address for NoC placement; one
//! logical array for residency).

use crate::array::SetAssoc;
use rce_common::{CacheGeometry, Counter, LineAddr};

/// Per-line LLC state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LlcLine {
    /// Dirty with respect to DRAM.
    pub dirty: bool,
}

/// The shared LLC. Residency and replacement are modeled on the
/// aggregate capacity; the per-bank NoC placement is derived from the
/// address by the network layer.
#[derive(Debug, Clone)]
pub struct Llc {
    array: SetAssoc<LlcLine>,
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
}

impl Llc {
    /// Build from geometry.
    pub fn new(geom: &CacheGeometry) -> Self {
        Llc {
            array: SetAssoc::new(geom.sets(), geom.ways),
            hits: Counter::default(),
            misses: Counter::default(),
        }
    }

    /// Look up a line; counts hit/miss.
    pub fn access(&mut self, line: LineAddr) -> bool {
        if self.array.get_mut(line.0).is_some() {
            self.hits.inc();
            true
        } else {
            self.misses.inc();
            false
        }
    }

    /// True if resident (no counting).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.array.contains(line.0)
    }

    /// Mark a resident line dirty (a core wrote it back / registered a
    /// write). No-op if absent.
    pub fn mark_dirty(&mut self, line: LineAddr) {
        if let Some(l) = self.array.get_mut(line.0) {
            l.dirty = true;
        }
    }

    /// Insert after a DRAM fill. Returns the evicted line if any;
    /// `evicted.1.dirty` tells the caller to charge a DRAM writeback.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<(LineAddr, LlcLine)> {
        self.array
            .insert(line.0, LlcLine { dirty })
            .map(|(k, l)| (LineAddr(k), l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rce_common::Bytes;

    fn llc() -> Llc {
        Llc::new(&CacheGeometry {
            capacity: Bytes::kib(64), // 1024 lines
            ways: 8,
            latency: 30,
        })
    }

    #[test]
    fn access_counts() {
        let mut l = llc();
        assert!(!l.access(LineAddr(5)));
        l.fill(LineAddr(5), false);
        assert!(l.access(LineAddr(5)));
        assert_eq!(l.hits.get(), 1);
        assert_eq!(l.misses.get(), 1);
    }

    #[test]
    fn dirty_evictions_counted() {
        let mut l = llc();
        // 128 sets × 8 ways. Fill 9 lines in one set, dirty: the 9th
        // evicts the LRU line, which carries its dirty flag.
        for i in 0..8u64 {
            assert!(l.fill(LineAddr(i * 128), true).is_none());
        }
        let ev = l.fill(LineAddr(8 * 128), true).unwrap();
        assert_eq!(ev.0, LineAddr(0));
        assert!(ev.1.dirty);
    }

    #[test]
    fn mark_dirty_then_evict() {
        let mut l = llc();
        for i in 0..8u64 {
            l.fill(LineAddr(i * 128), false);
        }
        l.mark_dirty(LineAddr(0));
        // Touch the others so line 0 is LRU.
        for i in 1..8u64 {
            l.access(LineAddr(i * 128));
        }
        let ev = l.fill(LineAddr(8 * 128), false).unwrap();
        assert_eq!(ev.0, LineAddr(0));
        assert!(ev.1.dirty);
    }

    #[test]
    fn mark_dirty_on_absent_is_noop() {
        let mut l = llc();
        l.mark_dirty(LineAddr(77)); // must not panic
        assert!(!l.contains(LineAddr(77)));
    }
}
