//! The network itself: FIFO-server links, message classes, send().

use crate::mesh::{Mesh, NodeId};
use crate::stats::NocStats;
use rce_common::{Bytes, CoreId, Cycles, LineAddr, NocConfig};

/// Message classes, accounted separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Coherence request (read/upgrade miss) or forward.
    Request,
    /// Control response without data (grant, ack of request).
    Response,
    /// Data transfer (line fill, dirty-word flush, writeback data).
    Data,
    /// Invalidation.
    Invalidation,
    /// Invalidation acknowledgement.
    Ack,
    /// Conflict-detection metadata (access bits, signatures, AIM
    /// spills). The designs differ most on this class.
    Metadata,
    /// Writeback of evicted dirty data toward LLC/memory.
    Writeback,
}

impl MsgClass {
    /// Stable index for accounting arrays.
    pub fn index(self) -> usize {
        match self {
            MsgClass::Request => 0,
            MsgClass::Response => 1,
            MsgClass::Data => 2,
            MsgClass::Invalidation => 3,
            MsgClass::Ack => 4,
            MsgClass::Metadata => 5,
            MsgClass::Writeback => 6,
        }
    }

    /// Short display name (`req`, `data`, `inv`, ...).
    pub fn name(self) -> &'static str {
        match self {
            MsgClass::Request => "req",
            MsgClass::Response => "resp",
            MsgClass::Data => "data",
            MsgClass::Invalidation => "inv",
            MsgClass::Ack => "ack",
            MsgClass::Metadata => "meta",
            MsgClass::Writeback => "wb",
        }
    }
}

/// One directed link's FIFO-server state.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    /// The link is serving earlier messages until this time.
    busy_until: u64,
    /// Cumulative cycles spent serving (for utilization).
    busy_cycles: u64,
    /// Cumulative bytes carried.
    bytes: u64,
}

/// The on-chip network: mesh + per-link FIFO servers + accounting.
#[derive(Debug, Clone)]
pub struct Noc {
    cfg: NocConfig,
    mesh: Mesh,
    links: Vec<Link>,
    stats: NocStats,
}

impl Noc {
    /// Build a network for `cores` tiles.
    pub fn new(cores: usize, cfg: NocConfig) -> Self {
        let mesh = Mesh::for_tiles(cores);
        let links = vec![Link::default(); mesh.link_count()];
        Noc {
            cfg,
            mesh,
            links,
            stats: NocStats::default(),
        }
    }

    /// The underlying mesh (for topology queries).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// Tile of a core.
    pub fn core_node(&self, c: CoreId) -> NodeId {
        self.mesh.core_node(c)
    }

    /// Tile of the LLC bank holding `line`.
    pub fn bank_node(&self, line: LineAddr) -> NodeId {
        self.mesh.bank_node(line, self.mesh.tiles())
    }

    /// Tile of the memory controller serving `line`.
    pub fn mem_node(&self, line: LineAddr) -> NodeId {
        self.mesh.mem_node(line)
    }

    /// Flits a routed message of `bytes` takes: whole flits, at least
    /// one.
    fn flits(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.cfg.flit_bytes).max(1)
    }

    /// What a routed message of `bytes` puts on each link: its flits'
    /// bytes.
    pub fn wire_bytes(&self, bytes: u64) -> u64 {
        self.flits(bytes) * self.cfg.flit_bytes
    }

    /// Send `bytes` from `src` to `dst` at time `now`; returns the
    /// arrival time.
    ///
    /// The message serializes over every link of the XY route in
    /// order; each link is a FIFO server (`max(now, busy_until)` start,
    /// `bytes / bandwidth` service). Per-hop router latency is added on
    /// top. A local message (`src == dst`) arrives immediately and
    /// produces no traffic.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        class: MsgClass,
        now: Cycles,
    ) -> Cycles {
        if src == dst {
            self.stats.local_msgs.inc();
            return now;
        }
        let hops = self.mesh.hops(src, dst) as u64;
        let flits = self.flits(bytes);
        let wire_bytes = flits * self.cfg.flit_bytes;
        let service = ((wire_bytes as f64) / self.cfg.link_bandwidth).ceil() as u64;

        let mut t = now.0;
        let mut queue_delay = 0u64;
        for l in self.mesh.route(src, dst) {
            let link = &mut self.links[l];
            let start = t.max(link.busy_until);
            queue_delay += start - t;
            let finish = start + service;
            link.busy_until = finish;
            link.busy_cycles += service;
            link.bytes += wire_bytes;
            // The head flit moves on after the hop latency; full
            // serialization is charged once per link via `service`.
            t = start + self.cfg.hop_latency;
        }
        let arrival = t + service; // tail arrives after final serialization
        self.stats
            .record_msg(class, wire_bytes, flits * hops, hops, queue_delay);
        Cycles(arrival)
    }

    /// Finalize utilization statistics given the simulation end time.
    pub fn finalize(&mut self, end: Cycles) {
        let elapsed = end.0.max(1);
        let mut peak = 0.0f64;
        let mut total_busy = 0u64;
        let mut active_links = 0u64;
        for l in &self.links {
            if l.bytes == 0 {
                continue;
            }
            active_links += 1;
            total_busy += l.busy_cycles;
            let u = (l.busy_cycles.min(elapsed)) as f64 / elapsed as f64;
            peak = peak.max(u);
        }
        self.stats.peak_link_utilization = peak;
        self.stats.mean_link_utilization = if active_links == 0 {
            0.0
        } else {
            (total_busy as f64 / active_links as f64) / elapsed as f64
        };
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Cumulative busy cycles per link — a samplable gauge for the
    /// interval metrics timeline.
    pub fn link_busy_cycles(&self) -> Vec<u64> {
        self.links.iter().map(|l| l.busy_cycles).collect()
    }

    /// Total bytes injected (all classes).
    pub fn total_bytes(&self) -> Bytes {
        self.stats.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noc16() -> Noc {
        Noc::new(16, NocConfig::default())
    }

    #[test]
    fn local_send_is_free() {
        let mut n = noc16();
        let t = n.send(NodeId(3), NodeId(3), 64, MsgClass::Data, Cycles(100));
        assert_eq!(t, Cycles(100));
        assert_eq!(n.total_bytes(), Bytes::ZERO);
        assert_eq!(n.stats().local_msgs.get(), 1);
    }

    #[test]
    fn latency_scales_with_distance() {
        let mut n = noc16();
        let near = n.send(NodeId(0), NodeId(1), 8, MsgClass::Request, Cycles(0));
        let mut n2 = noc16();
        let far = n2.send(NodeId(0), NodeId(15), 8, MsgClass::Request, Cycles(0));
        assert!(far > near, "far={far:?} near={near:?}");
    }

    #[test]
    fn contention_queues_messages() {
        let mut n = noc16();
        // Saturate the 0->1 link with many big messages at t=0.
        let first = n.send(NodeId(0), NodeId(1), 1024, MsgClass::Data, Cycles(0));
        let mut last = first;
        for _ in 0..50 {
            last = n.send(NodeId(0), NodeId(1), 1024, MsgClass::Data, Cycles(0));
        }
        assert!(
            last.0 > first.0 * 10,
            "queueing should accumulate: {last:?}"
        );
        assert!(n.stats().total_queue_delay.get() > 0);
    }

    #[test]
    fn traffic_accounted_per_class() {
        let mut n = noc16();
        n.send(NodeId(0), NodeId(1), 8, MsgClass::Request, Cycles(0));
        n.send(NodeId(0), NodeId(2), 72, MsgClass::Data, Cycles(0));
        n.send(NodeId(0), NodeId(3), 16, MsgClass::Metadata, Cycles(0));
        let s = n.stats();
        assert_eq!(s.msgs[MsgClass::Request.index()].get(), 1);
        assert_eq!(s.msgs[MsgClass::Data.index()].get(), 1);
        assert_eq!(s.msgs[MsgClass::Metadata.index()].get(), 1);
        assert!(s.bytes[MsgClass::Data.index()].0 >= 72);
        // Bytes are padded to flit multiples.
        assert_eq!(s.bytes[MsgClass::Request.index()].0 % 16, 0);
    }

    #[test]
    fn multicast_returns_latest() {
        // An invalidation fan-out: one send per destination, all at
        // the same time, completing with the latest arrival.
        let mut n = noc16();
        let t = [NodeId(1), NodeId(15)]
            .into_iter()
            .map(|d| n.send(NodeId(0), d, 8, MsgClass::Invalidation, Cycles(0)))
            .fold(Cycles(0), Cycles::max);
        let mut n2 = noc16();
        let far = n2.send(NodeId(0), NodeId(15), 8, MsgClass::Invalidation, Cycles(0));
        assert!(t >= far);
        assert_eq!(n.stats().msgs[MsgClass::Invalidation.index()].get(), 2);
    }

    #[test]
    fn utilization_finalization() {
        let mut n = noc16();
        for _ in 0..100 {
            n.send(NodeId(0), NodeId(1), 256, MsgClass::Data, Cycles(0));
        }
        n.finalize(Cycles(1000));
        let s = n.stats();
        assert!(
            s.peak_link_utilization > 0.5,
            "peak={}",
            s.peak_link_utilization
        );
        assert!(s.peak_link_utilization <= 1.0);
        assert!(s.mean_link_utilization <= s.peak_link_utilization);
    }

    #[test]
    fn flit_hops_counted() {
        let mut n = noc16();
        n.send(NodeId(0), NodeId(3), 16, MsgClass::Data, Cycles(0)); // 3 hops, 1 flit
        assert_eq!(n.stats().flit_hops.get(), 3);
    }

    #[test]
    fn link_busy_gauge_accumulates() {
        let mut n = noc16();
        assert!(n.link_busy_cycles().iter().all(|&b| b == 0));
        n.send(NodeId(0), NodeId(1), 256, MsgClass::Data, Cycles(0));
        let busy: u64 = n.link_busy_cycles().iter().sum();
        assert!(busy > 0);
    }

    #[test]
    fn single_tile_mesh_everything_local() {
        let mut n = Noc::new(1, NocConfig::default());
        let t = n.send(NodeId(0), NodeId(0), 64, MsgClass::Data, Cycles(5));
        assert_eq!(t, Cycles(5));
        assert_eq!(n.total_bytes(), Bytes::ZERO);
    }
}
