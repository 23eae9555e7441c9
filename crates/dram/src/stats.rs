//! DRAM accounting.

use crate::controller::AccessKind;
use rce_common::{impl_json_struct, Bytes, Counter};

/// Accumulated DRAM statistics.
#[derive(Debug, Clone, Default)]
pub struct DramStats {
    /// Access counts by kind (indexed by [`AccessKind::index`]).
    pub accesses: [Counter; 4],
    /// Bytes by kind.
    pub bytes: [Bytes; 4],
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Row-buffer misses.
    pub row_misses: Counter,
    /// Total cycles requests waited for busy channels/banks.
    pub total_queue_delay: Counter,
    /// Peak per-channel utilization (set by `finalize`).
    pub peak_channel_utilization: f64,
    /// Mean channel utilization.
    pub mean_channel_utilization: f64,
}

impl_json_struct!(to_json DramStats {
    accesses,
    bytes,
    row_hits,
    row_misses,
    total_queue_delay,
    peak_channel_utilization,
    mean_channel_utilization,
});

impl DramStats {
    pub(crate) fn record(&mut self, kind: AccessKind, bytes: u64, row_hit: bool, queue: u64) {
        self.accesses[kind.index()].inc();
        self.bytes[kind.index()] += Bytes(bytes);
        if row_hit {
            self.row_hits.inc();
        } else {
            self.row_misses.inc();
        }
        self.total_queue_delay.add(queue);
    }

    /// Total accesses.
    pub fn total_accesses(&self) -> u64 {
        self.accesses.iter().map(|c| c.get()).sum()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> Bytes {
        Bytes(self.bytes.iter().map(|b| b.0).sum())
    }

    /// Metadata bytes (the CE off-chip tax).
    pub fn metadata_bytes(&self) -> Bytes {
        Bytes(
            self.bytes[AccessKind::MetaRead.index()].0
                + self.bytes[AccessKind::MetaWrite.index()].0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let mut s = DramStats::default();
        s.record(AccessKind::DataRead, 64, false, 0);
        s.record(AccessKind::MetaWrite, 16, true, 5);
        assert_eq!(s.total_accesses(), 2);
        assert_eq!(s.total_bytes(), Bytes(80));
        assert_eq!(s.metadata_bytes(), Bytes(16));
        assert_eq!((s.row_hits.get(), s.row_misses.get()), (1, 1));
        assert_eq!(s.total_queue_delay.get(), 5);
    }
}
