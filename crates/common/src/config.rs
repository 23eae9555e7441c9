//! Machine configuration: the simulated system's parameters.
//!
//! One [`MachineConfig`] describes everything the simulator needs:
//! core count, private cache and LLC geometry, NoC mesh and link
//! bandwidth, DRAM channels and timing, AIM geometry, and per-design
//! cost knobs (metadata piggyback size, signature bytes). The defaults
//! reproduce the paper's Table I configuration as far as the abstract
//! allows us to reconstruct it (32 cores, 32 KiB L1, 2 MiB-per-bank
//! shared LLC, 2D mesh, 4 DRAM channels).

use crate::impl_json_unit_enum;
use crate::units::Bytes;

/// Which conflict-detection architecture (or baseline) to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Plain MESI coherence, no conflict detection: the normalization
    /// baseline of every figure.
    MesiBaseline,
    /// Conflict Exceptions (Lucia et al., ISCA 2010): MESI + access
    /// bits, metadata spilled to DRAM.
    Ce,
    /// CE+ — CE with the on-chip access information memory (AIM).
    CePlus,
    /// ARC — conflict detection on release-consistency +
    /// self-invalidation coherence, detection at the LLC-side AIM.
    Arc,
}

impl ProtocolKind {
    /// All protocol kinds, baseline first.
    pub const ALL: [ProtocolKind; 4] = [
        ProtocolKind::MesiBaseline,
        ProtocolKind::Ce,
        ProtocolKind::CePlus,
        ProtocolKind::Arc,
    ];

    /// The three detection designs (everything except the baseline).
    pub const DETECTORS: [ProtocolKind; 3] =
        [ProtocolKind::Ce, ProtocolKind::CePlus, ProtocolKind::Arc];

    /// Short display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::MesiBaseline => "MESI",
            ProtocolKind::Ce => "CE",
            ProtocolKind::CePlus => "CE+",
            ProtocolKind::Arc => "ARC",
        }
    }

    /// The metadata placement that recovers this design as published:
    /// CE keeps displaced bits in an off-chip DRAM table, CE+ and ARC
    /// keep them in the on-chip AIM, the baseline has no metadata.
    pub fn default_meta_placement(self) -> MetaPlacement {
        match self {
            ProtocolKind::MesiBaseline => MetaPlacement::None,
            ProtocolKind::Ce => MetaPlacement::Dram,
            ProtocolKind::CePlus | ProtocolKind::Arc => MetaPlacement::Aim,
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where displaced/registered access metadata physically lives.
///
/// Orthogonal to the coherence+detection design selected by
/// [`ProtocolKind`]: CE is the MESI-family detector with [`Dram`]
/// placement, CE+ the same detector with [`Aim`] placement, and ARC
/// registers at the LLC-side [`Aim`]. Overriding the placement yields
/// the paper's missing sensitivity points — e.g. CE+ with an infinite
/// zero-latency metadata store ([`Ideal`], the upper bound the AIM
/// approximates) or ARC forced to keep every registration off-chip
/// ([`Dram`], the lower bound).
///
/// [`Dram`]: MetaPlacement::Dram
/// [`Aim`]: MetaPlacement::Aim
/// [`Ideal`]: MetaPlacement::Ideal
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MetaPlacement {
    /// No metadata store at all (baseline only).
    #[default]
    None,
    /// Off-chip DRAM table: every metadata touch is a memory access.
    Dram,
    /// The on-chip AIM: bounded, spills victims to a DRAM table.
    Aim,
    /// Infinite on-chip store with zero access cost: the ideal bound
    /// no real AIM geometry can beat.
    Ideal,
}

impl MetaPlacement {
    /// Short display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MetaPlacement::None => "none",
            MetaPlacement::Dram => "dram",
            MetaPlacement::Aim => "aim",
            MetaPlacement::Ideal => "ideal",
        }
    }
}

impl std::fmt::Display for MetaPlacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Granularity at which access metadata is kept and conflicts are
/// detected.
///
/// The paper's designs (like CE before them) track per-word bits so
/// that false sharing — distinct words of one line — never raises an
/// exception. `Line` collapses the masks to whole lines, reproducing
/// the cheaper-but-imprecise alternative; the granularity ablation
/// (`paper ablate-granularity`) quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DetectionGranularity {
    /// Per 8-byte word (the paper's designs).
    #[default]
    Word,
    /// Per 64-byte line (imprecise: false sharing raises exceptions).
    Line,
}

impl_json_unit_enum!(to_json ProtocolKind {
    MesiBaseline,
    Ce,
    CePlus,
    Arc
});
impl_json_unit_enum!(to_json MetaPlacement {
    None,
    Dram,
    Aim,
    Ideal
});

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: Bytes,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in cycles (tag+data, pipelined).
    pub latency: u64,
}

impl CacheGeometry {
    /// Number of sets implied by capacity/ways and 64-byte lines.
    pub fn sets(&self) -> u64 {
        let lines = self.capacity.0 / crate::addr::LineGeometry::LINE_BYTES;
        let sets = lines / self.ways as u64;
        assert!(sets.is_power_of_two(), "cache sets must be a power of two");
        sets
    }
}

/// On-chip network parameters (2D mesh).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Per-hop latency (router traversal + link) in cycles.
    pub hop_latency: u64,
    /// Per-link bandwidth in bytes per cycle.
    pub link_bandwidth: f64,
    /// Flit size in bytes (traffic is accounted in flits of this size).
    pub flit_bytes: u64,
    /// Size of a control (request/inv/ack) message in bytes.
    pub ctrl_bytes: u64,
    /// Header bytes added to a data message (the payload is a line or
    /// a set of dirty words).
    pub data_header_bytes: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            hop_latency: 2,
            link_bandwidth: 32.0,
            flit_bytes: 16,
            ctrl_bytes: 8,
            data_header_bytes: 8,
        }
    }
}

/// DRAM / memory-controller parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: u32,
    /// Banks per channel.
    pub banks_per_channel: u32,
    /// Row-buffer hit latency in cycles.
    pub row_hit_latency: u64,
    /// Row-buffer miss (activate+access) latency in cycles.
    pub row_miss_latency: u64,
    /// Per-channel bandwidth in bytes per cycle.
    pub channel_bandwidth: f64,
    /// Row-buffer size in bytes (consecutive accesses within this span
    /// count as row hits).
    pub row_bytes: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 4,
            banks_per_channel: 8,
            row_hit_latency: 90,
            row_miss_latency: 160,
            channel_bandwidth: 16.0,
            row_bytes: 4096,
        }
    }
}

/// Access information memory (AIM) parameters — the on-chip metadata
/// cache introduced by CE+ and reused at the LLC side by ARC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AimConfig {
    /// Number of metadata entries (one per tracked line).
    pub entries: u64,
    /// Associativity.
    pub ways: u32,
    /// Access latency in cycles.
    pub latency: u64,
    /// Bytes occupied by one entry when it travels over the NoC or
    /// spills to DRAM (per-core read/write word masks, compressed).
    pub entry_bytes: u64,
}

impl Default for AimConfig {
    fn default() -> Self {
        AimConfig {
            // Scaled with the caches (see `paper_default`).
            entries: 8 * 1024,
            ways: 8,
            latency: 4,
            entry_bytes: 16,
        }
    }
}

/// The most cores a machine can have: the full-map directory keeps
/// one sharer bit per core in a `u64`.
pub const MAX_CORES: usize = 64;

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of cores (threads are pinned 1:1). Must be in
    /// `1..=MAX_CORES`, and even or 1 so a near-square mesh exists.
    pub cores: usize,
    /// Private L1 data cache per core.
    pub l1: CacheGeometry,
    /// Shared LLC (total capacity across banks; one bank per core
    /// tile).
    pub llc: CacheGeometry,
    /// NoC parameters.
    pub noc: NocConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// AIM parameters (used by CE+ and ARC).
    pub aim: AimConfig,
    /// Protocol to simulate.
    pub protocol: ProtocolKind,
    /// Where the protocol's displaced/registered metadata lives (see
    /// [`MetaPlacement`]). `paper_default` picks
    /// the placement that recovers the published design; override it
    /// (via [`MachineConfig::with_meta_placement`]) for the placement
    /// sensitivity variants.
    pub meta_placement: MetaPlacement,
    /// Extra bytes piggybacked onto each coherence message by CE/CE+
    /// to carry access bits.
    pub metadata_piggyback_bytes: u64,
    /// Bytes per touched line in ARC's region-end access signature.
    pub signature_bytes_per_line: u64,
    /// Non-memory instructions retire one per cycle; each memory access
    /// additionally costs its latency. This scales the compute between
    /// memory events.
    pub ipc_scale: f64,
    /// Metadata granularity (see [`DetectionGranularity`]).
    pub granularity: DetectionGranularity,
    /// ARC only: classify lines that have never been written as
    /// read-only; read-only shared lines are exempt from
    /// self-invalidation at region boundaries (an extension evaluated
    /// by `paper ablate-readonly`; detection precision is unaffected —
    /// the differential tests prove it).
    pub arc_readonly_sharing: bool,
    /// MESI family only: enable the Owned (O) state — MOESI. A dirty
    /// line downgraded by a remote read stays dirty in the owner's
    /// cache (no LLC writeback) and is supplied cache-to-cache; the
    /// paper's "M(O)ESI-based coherence" phrasing covers both, and
    /// `paper ablate-moesi` quantifies the difference.
    pub use_owned_state: bool,
}

impl MachineConfig {
    /// The paper-style default configuration at a given core count and
    /// protocol.
    ///
    /// Cache capacities are scaled down ~4x from the hardware the
    /// paper simulates (32 KiB L1, 1 MiB/core LLC) because the
    /// synthetic traces are scaled down from full PARSEC runs by a
    /// larger factor; keeping capacity/working-set ratios comparable
    /// preserves the eviction behavior that drives each design's
    /// metadata costs (see DESIGN.md).
    pub fn paper_default(cores: usize, protocol: ProtocolKind) -> Self {
        MachineConfig {
            cores,
            l1: CacheGeometry {
                capacity: Bytes::kib(8),
                ways: 8,
                latency: 2,
            },
            llc: CacheGeometry {
                // ~256 KiB per core, banked; rounded up to keep the
                // set count a power of two.
                capacity: Bytes::kib(256 * (cores.max(1) as u64).next_power_of_two()),
                ways: 16,
                latency: 30,
            },
            noc: NocConfig::default(),
            dram: DramConfig::default(),
            aim: AimConfig::default(),
            protocol,
            meta_placement: protocol.default_meta_placement(),
            metadata_piggyback_bytes: 16,
            signature_bytes_per_line: 4,
            ipc_scale: 1.0,
            granularity: DetectionGranularity::Word,
            arc_readonly_sharing: false,
            use_owned_state: false,
        }
    }

    /// The word mask used for *metadata* purposes: the access's real
    /// words at word granularity, the whole line at line granularity.
    /// (Dirty-data tracking always uses the real mask.)
    #[inline]
    pub fn detect_mask(&self, mask: crate::addr::WordMask) -> crate::addr::WordMask {
        match self.granularity {
            DetectionGranularity::Word => mask,
            DetectionGranularity::Line => crate::addr::WordMask::FULL,
        }
    }

    /// Same configuration with a different metadata placement (for
    /// the placement variants: CE+/ideal, ARC/dram, ...).
    pub fn with_meta_placement(&self, placement: MetaPlacement) -> Self {
        let mut c = self.clone();
        c.meta_placement = placement;
        c
    }

    /// Same configuration with a different AIM entry count (for the
    /// AIM sensitivity sweep).
    pub fn with_aim_entries(&self, entries: u64) -> Self {
        let mut c = self.clone();
        c.aim.entries = entries;
        c
    }

    /// Same configuration with a different AIM access latency (for
    /// the AIM sensitivity sweep).
    pub fn with_aim_latency(&self, latency: u64) -> Self {
        let mut c = self.clone();
        c.aim.latency = latency;
        c
    }

    /// Validate internal consistency; returns an error message on the
    /// first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("cores must be positive".into());
        }
        if self.cores > MAX_CORES {
            return Err(format!(
                "at most {MAX_CORES} cores are supported (got {})",
                self.cores
            ));
        }
        if !self
            .l1
            .capacity
            .0
            .is_multiple_of(self.l1.ways as u64 * crate::addr::LineGeometry::LINE_BYTES)
        {
            return Err("L1 capacity must be a multiple of ways*line".into());
        }
        let l1_sets =
            self.l1.capacity.0 / (self.l1.ways as u64 * crate::addr::LineGeometry::LINE_BYTES);
        if !l1_sets.is_power_of_two() {
            return Err("L1 set count must be a power of two".into());
        }
        let llc_sets =
            self.llc.capacity.0 / (self.llc.ways as u64 * crate::addr::LineGeometry::LINE_BYTES);
        if llc_sets == 0 || !llc_sets.is_power_of_two() {
            return Err("LLC set count must be a power of two".into());
        }
        if self.noc.link_bandwidth <= 0.0 || self.dram.channel_bandwidth <= 0.0 {
            return Err("bandwidths must be positive".into());
        }
        if self.aim.entries == 0 || !self.aim.entries.is_power_of_two() {
            return Err("AIM entries must be a positive power of two".into());
        }
        if !self.aim.entries.is_multiple_of(self.aim.ways as u64) {
            return Err("AIM entries must be a multiple of ways".into());
        }
        match (self.protocol, self.meta_placement) {
            (ProtocolKind::MesiBaseline, MetaPlacement::None) => {}
            (ProtocolKind::MesiBaseline, p) => {
                return Err(format!(
                    "the MESI baseline keeps no metadata; placement '{p}' is meaningless"
                ));
            }
            (p, MetaPlacement::None) => {
                return Err(format!(
                    "detector '{p}' needs a metadata store; placement 'none' only fits MESI"
                ));
            }
            _ => {}
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper_default(32, ProtocolKind::MesiBaseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        for cores in [1, 8, 16, 32, 64] {
            for p in ProtocolKind::ALL {
                let c = MachineConfig::paper_default(cores, p);
                assert!(c.validate().is_ok(), "cores={cores} proto={p}");
            }
        }
    }

    #[test]
    fn cache_geometry_sets_and_lines() {
        let g = CacheGeometry {
            capacity: Bytes::kib(32),
            ways: 8,
            latency: 2,
        };
        assert_eq!(g.sets(), 64);
    }

    #[test]
    fn invalid_configs_rejected() {
        let c = MachineConfig {
            cores: 0,
            ..MachineConfig::default()
        };
        assert!(c.validate().is_err());

        // One past the directory's sharer-vector width.
        let c = MachineConfig::paper_default(MAX_CORES + 1, ProtocolKind::CePlus);
        assert!(c.validate().unwrap_err().contains("at most 64 cores"));

        let mut c = MachineConfig::default();
        c.aim.entries = 3000; // not a power of two
        assert!(c.validate().is_err());

        let mut c = MachineConfig::default();
        c.noc.link_bandwidth = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_placements_recover_the_paper_designs() {
        assert_eq!(
            ProtocolKind::MesiBaseline.default_meta_placement(),
            MetaPlacement::None
        );
        assert_eq!(
            ProtocolKind::Ce.default_meta_placement(),
            MetaPlacement::Dram
        );
        assert_eq!(
            ProtocolKind::CePlus.default_meta_placement(),
            MetaPlacement::Aim
        );
        assert_eq!(
            ProtocolKind::Arc.default_meta_placement(),
            MetaPlacement::Aim
        );
    }

    #[test]
    fn placement_overrides_validate() {
        // The two variants the layering makes runnable.
        let ideal = MachineConfig::paper_default(4, ProtocolKind::CePlus)
            .with_meta_placement(MetaPlacement::Ideal);
        assert!(ideal.validate().is_ok());
        let dram = MachineConfig::paper_default(4, ProtocolKind::Arc)
            .with_meta_placement(MetaPlacement::Dram);
        assert!(dram.validate().is_ok());
        // Nonsense combinations are rejected.
        let c = MachineConfig::paper_default(4, ProtocolKind::MesiBaseline)
            .with_meta_placement(MetaPlacement::Aim);
        assert!(c.validate().is_err());
        let c = MachineConfig::paper_default(4, ProtocolKind::Ce)
            .with_meta_placement(MetaPlacement::None);
        assert!(c.validate().is_err());
    }

    #[test]
    fn aim_knob_helpers_change_one_field() {
        let base = MachineConfig::paper_default(4, ProtocolKind::CePlus);
        let c = base.with_aim_entries(256).with_aim_latency(9);
        assert_eq!(c.aim.entries, 256);
        assert_eq!(c.aim.latency, 9);
        assert_eq!(c.aim.ways, base.aim.ways);
        assert_eq!(c.protocol, base.protocol);
    }

    #[test]
    fn protocol_names_match_paper() {
        assert_eq!(ProtocolKind::MesiBaseline.name(), "MESI");
        assert_eq!(ProtocolKind::Ce.name(), "CE");
        assert_eq!(ProtocolKind::CePlus.name(), "CE+");
        assert_eq!(ProtocolKind::Arc.name(), "ARC");
        assert_eq!(ProtocolKind::DETECTORS.len(), 3);
    }
}
