//! The memory controller: channels, banks, row buffers, service.

use crate::stats::DramStats;
use rce_common::{Bytes, Cycles, DramConfig, LineAddr};

/// What an access is for — program data or conflict metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Line fill toward the cache hierarchy.
    DataRead,
    /// Dirty line (or dirty words) written back.
    DataWrite,
    /// Conflict-detection metadata read (CE spill lookup, region-end
    /// scrub read).
    MetaRead,
    /// Conflict-detection metadata write (CE eviction spill, AIM
    /// overflow).
    MetaWrite,
}

impl AccessKind {
    /// Stable accounting index.
    pub fn index(self) -> usize {
        match self {
            AccessKind::DataRead => 0,
            AccessKind::DataWrite => 1,
            AccessKind::MetaRead => 2,
            AccessKind::MetaWrite => 3,
        }
    }

    /// Short display name (`data-rd`, `meta-wr`, ...).
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::DataRead => "data-rd",
            AccessKind::DataWrite => "data-wr",
            AccessKind::MetaRead => "meta-rd",
            AccessKind::MetaWrite => "meta-wr",
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Channel {
    busy_until: u64,
    busy_cycles: u64,
}

/// The DRAM subsystem.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    channels: Vec<Channel>,
    stats: DramStats,
}

impl Dram {
    /// Build from configuration.
    pub fn new(cfg: DramConfig) -> Self {
        let n_banks = (cfg.channels * cfg.banks_per_channel) as usize;
        Dram {
            cfg,
            banks: vec![Bank::default(); n_banks],
            channels: vec![Channel::default(); cfg.channels as usize],
            stats: DramStats::default(),
        }
    }

    fn channel_of(&self, line: LineAddr) -> usize {
        let h = line.0.wrapping_mul(0xd1b54a32d192ed03) >> 32;
        (h % self.cfg.channels as u64) as usize
    }

    fn bank_of(&self, line: LineAddr, channel: usize) -> usize {
        let h = line.0.wrapping_mul(0x9e3779b97f4a7c15) >> 40;
        channel * self.cfg.banks_per_channel as usize
            + (h % self.cfg.banks_per_channel as u64) as usize
    }

    fn row_of(&self, line: LineAddr) -> u64 {
        line.base().0 / self.cfg.row_bytes
    }

    /// Perform an access of `bytes` for `line` at time `now`; returns
    /// the completion time.
    ///
    /// Timing: the channel serializes transfers
    /// (`bytes / channel_bandwidth`); the target bank contributes a
    /// row-hit or row-miss latency and is unavailable until the access
    /// completes. Completion is
    /// `max(channel free, bank free, now) + access latency + transfer`.
    pub fn access(&mut self, line: LineAddr, bytes: u64, kind: AccessKind, now: Cycles) -> Cycles {
        let ch_idx = self.channel_of(line);
        let bank_idx = self.bank_of(line, ch_idx);
        let row = self.row_of(line);

        let row_hit = self.banks[bank_idx].open_row == Some(row);
        let access_lat = if row_hit {
            self.cfg.row_hit_latency
        } else {
            self.cfg.row_miss_latency
        };
        let transfer = ((bytes as f64) / self.cfg.channel_bandwidth).ceil() as u64;

        let ch = &mut self.channels[ch_idx];
        let bank_free = self.banks[bank_idx].busy_until;
        let start = now.0.max(ch.busy_until).max(bank_free);
        let queue_delay = start - now.0;
        let done = start + access_lat + transfer;

        ch.busy_until = start + transfer.max(1);
        ch.busy_cycles += transfer.max(1);
        let bank = &mut self.banks[bank_idx];
        bank.busy_until = done;
        bank.open_row = Some(row);

        self.stats.record(kind, bytes, row_hit, queue_delay);
        Cycles(done)
    }

    /// Finalize channel utilization given the simulation end time.
    pub fn finalize(&mut self, end: Cycles) {
        let elapsed = end.0.max(1);
        let mut peak = 0.0f64;
        let mut total = 0u64;
        for ch in &self.channels {
            let u = ch.busy_cycles.min(elapsed) as f64 / elapsed as f64;
            peak = peak.max(u);
            total += ch.busy_cycles;
        }
        self.stats.peak_channel_utilization = peak;
        self.stats.mean_channel_utilization =
            (total as f64 / self.channels.len() as f64) / elapsed as f64;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Total off-chip bytes moved.
    pub fn total_bytes(&self) -> Bytes {
        self.stats.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::default())
    }

    #[test]
    fn row_hits_are_faster() {
        let mut d = dram();
        let first = d.access(LineAddr(0), 64, AccessKind::DataRead, Cycles(0));
        // Same line again, much later (no queueing): row hit.
        let t0 = Cycles(10_000);
        let second = d.access(LineAddr(0), 64, AccessKind::DataRead, t0);
        let miss_lat = first.0;
        let hit_lat = second.0 - t0.0;
        assert!(hit_lat < miss_lat, "hit={hit_lat} miss={miss_lat}");
        assert_eq!(d.stats().row_hits.get(), 1);
        assert_eq!(d.stats().row_misses.get(), 1);
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut d = dram();
        let a = d.access(LineAddr(7), 64, AccessKind::DataRead, Cycles(0));
        // Same line (thus same bank) at the same instant queues.
        let b = d.access(LineAddr(7), 64, AccessKind::DataRead, Cycles(0));
        assert!(b > a);
        assert!(d.stats().total_queue_delay.get() > 0);
    }

    #[test]
    fn different_lines_spread_over_channels() {
        let d = dram();
        let mut channels = std::collections::HashSet::new();
        for l in 0..512u64 {
            channels.insert(d.channel_of(LineAddr(l)));
        }
        assert_eq!(channels.len(), DramConfig::default().channels as usize);
    }

    #[test]
    fn traffic_accounted_by_kind() {
        let mut d = dram();
        d.access(LineAddr(1), 64, AccessKind::DataRead, Cycles(0));
        d.access(LineAddr(2), 64, AccessKind::DataWrite, Cycles(0));
        d.access(LineAddr(3), 16, AccessKind::MetaWrite, Cycles(0));
        d.access(LineAddr(4), 16, AccessKind::MetaRead, Cycles(0));
        let s = d.stats();
        assert_eq!(s.accesses[AccessKind::DataRead.index()].get(), 1);
        assert_eq!(s.bytes[AccessKind::MetaWrite.index()], Bytes(16));
        assert_eq!(s.metadata_bytes(), Bytes(32));
        assert_eq!(s.total_bytes(), Bytes(160));
    }

    #[test]
    fn utilization_finalization() {
        let mut d = dram();
        for l in 0..200u64 {
            d.access(LineAddr(l), 64, AccessKind::DataRead, Cycles(0));
        }
        d.finalize(Cycles(2000));
        let s = d.stats();
        assert!(s.peak_channel_utilization > 0.0);
        assert!(s.peak_channel_utilization <= 1.0);
    }

    #[test]
    fn completion_monotone_with_queue() {
        let mut d = dram();
        let mut prev = Cycles(0);
        for _ in 0..20 {
            let t = d.access(LineAddr(42), 64, AccessKind::DataRead, Cycles(0));
            assert!(t >= prev);
            prev = t;
        }
    }
}
