//! NoC accounting.

use crate::network::MsgClass;
use rce_common::{impl_json_struct, Bytes, Counter, Histogram};

/// Accumulated network statistics.
#[derive(Debug, Clone, Default)]
pub struct NocStats {
    /// Messages per class (indexed by [`MsgClass::index`]).
    pub msgs: [Counter; 7],
    /// Wire bytes per class (flit-padded).
    pub bytes: [Bytes; 7],
    /// Total flit-hops (energy proxy: one flit crossing one link).
    pub flit_hops: Counter,
    /// Messages that stayed on-tile.
    pub local_msgs: Counter,
    /// Total cycles messages spent queued behind busy links.
    pub total_queue_delay: Counter,
    /// Distribution of per-message hop counts.
    pub hop_hist: Histogram,
    /// Peak per-link utilization over the run (set by `finalize`).
    pub peak_link_utilization: f64,
    /// Mean utilization over links that carried traffic.
    pub mean_link_utilization: f64,
    /// Distribution of per-message queueing delays (for tail
    /// percentiles). Runtime-only: not serialized.
    pub queue_delay_hist: Histogram,
}

// `queue_delay_hist` is left out of the serialized form: reports
// produced with observability off stay byte-identical to those from
// before it existed.
impl_json_struct!(to_json NocStats {
    msgs,
    bytes,
    flit_hops,
    local_msgs,
    total_queue_delay,
    hop_hist,
    peak_link_utilization,
    mean_link_utilization,
});

impl NocStats {
    /// Record one routed message.
    pub(crate) fn record_msg(
        &mut self,
        class: MsgClass,
        wire_bytes: u64,
        flit_hops: u64,
        hops: u64,
        queue_delay: u64,
    ) {
        self.msgs[class.index()].inc();
        self.bytes[class.index()] += Bytes(wire_bytes);
        self.flit_hops.add(flit_hops);
        self.total_queue_delay.add(queue_delay);
        self.hop_hist.record(hops);
        self.queue_delay_hist.record(queue_delay);
    }

    /// Total messages routed (excluding local).
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().map(|c| c.get()).sum()
    }

    /// Total wire bytes (all classes).
    pub fn total_bytes(&self) -> Bytes {
        Bytes(self.bytes.iter().map(|b| b.0).sum())
    }

    /// Bytes of conflict-detection metadata.
    pub fn metadata_bytes(&self) -> Bytes {
        self.bytes[MsgClass::Metadata.index()]
    }

    /// Bytes of invalidation + ack traffic (the eager-coherence tax).
    pub fn invalidation_bytes(&self) -> Bytes {
        Bytes(self.bytes[MsgClass::Invalidation.index()].0 + self.bytes[MsgClass::Ack.index()].0)
    }

    /// Mean queueing delay per routed message (cycles).
    pub fn mean_queue_delay(&self) -> f64 {
        let n = self.total_msgs();
        if n == 0 {
            0.0
        } else {
            self.total_queue_delay.as_f64() / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_helpers() {
        let mut s = NocStats::default();
        s.record_msg(MsgClass::Data, 64, 4, 2, 10);
        s.record_msg(MsgClass::Invalidation, 16, 1, 1, 0);
        s.record_msg(MsgClass::Ack, 16, 1, 1, 5);
        s.record_msg(MsgClass::Metadata, 32, 2, 2, 0);
        assert_eq!(s.total_msgs(), 4);
        assert_eq!(s.total_bytes(), Bytes(128));
        assert_eq!(s.metadata_bytes(), Bytes(32));
        assert_eq!(s.invalidation_bytes(), Bytes(32));
        assert!((s.mean_queue_delay() - 3.75).abs() < 1e-12);
        assert_eq!(s.flit_hops.get(), 8);
    }

    #[test]
    fn queue_delay_percentiles() {
        let mut s = NocStats::default();
        // 99 fast messages, one straggler.
        for _ in 0..99 {
            s.record_msg(MsgClass::Request, 16, 1, 1, 2);
        }
        s.record_msg(MsgClass::Request, 16, 1, 1, 4000);
        assert!(s.queue_delay_hist.percentile(50.0) <= 3);
        assert!(
            s.queue_delay_hist.percentile(99.5) >= 2048,
            "p99.5={} must surface the straggler",
            s.queue_delay_hist.percentile(99.5)
        );
        // The ends of the range are well defined: p=0 lands in the
        // fast messages' bucket, p=100 covers the straggler, and
        // out-of-range p clamps to those ends instead of misbehaving.
        assert!(s.queue_delay_hist.percentile(0.0) <= 3);
        assert!(s.queue_delay_hist.percentile(100.0) >= 2048);
        assert_eq!(
            s.queue_delay_hist.percentile(-1.0),
            s.queue_delay_hist.percentile(0.0)
        );
        assert_eq!(
            s.queue_delay_hist.percentile(101.0),
            s.queue_delay_hist.percentile(100.0)
        );
        // The histogram stays out of the serialized form.
        let j = rce_common::json::to_string(&s);
        assert!(!j.contains("queue_delay_hist"));
    }

    #[test]
    fn empty_stats() {
        let s = NocStats::default();
        assert_eq!(s.total_msgs(), 0);
        assert_eq!(s.mean_queue_delay(), 0.0);
        assert_eq!(s.total_bytes(), Bytes::ZERO);
    }
}
