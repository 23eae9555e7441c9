//! Simulation reports and cross-design normalization.

use crate::exception::ConflictException;
use crate::forensics::ForensicsReport;
use rce_common::json::{JsonValue, ToJson};
use rce_common::obs::{MetricsTimeline, TraceLog};
use rce_common::{impl_json_struct, Bytes, Cycles, PicoJoules, ProtocolKind};
use rce_dram::DramStats;
use rce_energy::EnergyBreakdown;
use rce_noc::NocStats;

/// Per-core execution summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// The core's local clock when its thread finished.
    pub finish: Cycles,
    /// Memory operations the core committed.
    pub mem_ops: u64,
    /// Synchronization operations the core executed.
    pub sync_ops: u64,
}

impl_json_struct!(to_json CoreStats {
    finish,
    mem_ops,
    sync_ops,
});

/// AIM summary for designs that have one.
#[derive(Debug, Clone, Copy)]
pub struct AimSummary {
    /// Total lookups.
    pub accesses: u64,
    /// Resident hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Entries spilled to DRAM.
    pub spills: u64,
}

impl AimSummary {
    /// Hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        let t = self.hits + self.misses;
        if t == 0 {
            0.0
        } else {
            self.hits as f64 / t as f64
        }
    }
}

impl_json_struct!(to_json AimSummary {
    accesses,
    hits,
    misses,
    spills,
});

/// Everything one simulation run produced.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Simulated design.
    pub protocol: ProtocolKind,
    /// Workload name.
    pub workload: String,
    /// Core count.
    pub cores: usize,
    /// Execution time (cycles until the last core finished).
    pub cycles: Cycles,
    /// Committed memory operations.
    pub mem_ops: u64,
    /// Synchronization operations executed.
    pub sync_ops: u64,
    /// Region boundaries processed.
    pub regions: u64,
    /// L1 hits (all cores).
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L1 capacity evictions.
    pub l1_evictions: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Network statistics.
    pub noc: NocStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// AIM summary (CE+ and ARC).
    pub aim: Option<AimSummary>,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
    /// Engine-specific counters.
    pub engine_counters: Vec<(String, u64)>,
    /// Distribution of memory-access latencies (cycles from issue to
    /// completion, including queueing).
    pub access_latency: rce_common::Histogram,
    /// Distribution of region lengths (memory ops per region,
    /// non-empty regions only).
    pub region_len: rce_common::Histogram,
    /// Distribution of region-boundary costs (cycles spent in
    /// flush/scrub/self-invalidate work).
    pub boundary_cost: rce_common::Histogram,
    /// Per-core finish time and committed memory operations (load
    /// imbalance diagnostics).
    pub per_core: Vec<CoreStats>,
    /// Deduplicated conflict exceptions the engine delivered, sorted.
    pub exceptions: Vec<ConflictException>,
    /// Ground-truth conflicts from the oracle on the same schedule,
    /// sorted.
    pub oracle_conflicts: Vec<ConflictException>,
    /// True if the run stopped at the first exception
    /// (`ExceptionPolicy::AbortOnFirst`).
    pub aborted: bool,
    /// Interval metrics timeline (observability runs only).
    pub timeline: Option<MetricsTimeline>,
    /// Event trace (observability runs only).
    pub trace: Option<TraceLog>,
    /// Conflict provenance: heatmaps, lifetimes, and per-exception
    /// root-cause records (forensics runs only).
    pub forensics: Option<ForensicsReport>,
}

// Hand-written (not `impl_json_struct!`) for one reason: the
// observability fields must be *omitted* — not `null` — when absent,
// so a report produced with observability off serializes byte-for-byte
// the same as before the fields existed.
impl ToJson for SimReport {
    fn to_json(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = vec![
            ("protocol".to_string(), self.protocol.to_json()),
            ("workload".to_string(), self.workload.to_json()),
            ("cores".to_string(), self.cores.to_json()),
            ("cycles".to_string(), self.cycles.to_json()),
            ("mem_ops".to_string(), self.mem_ops.to_json()),
            ("sync_ops".to_string(), self.sync_ops.to_json()),
            ("regions".to_string(), self.regions.to_json()),
            ("l1_hits".to_string(), self.l1_hits.to_json()),
            ("l1_misses".to_string(), self.l1_misses.to_json()),
            ("l1_evictions".to_string(), self.l1_evictions.to_json()),
            ("llc_hits".to_string(), self.llc_hits.to_json()),
            ("llc_misses".to_string(), self.llc_misses.to_json()),
            ("noc".to_string(), self.noc.to_json()),
            ("dram".to_string(), self.dram.to_json()),
            ("aim".to_string(), self.aim.to_json()),
            ("energy".to_string(), self.energy.to_json()),
            (
                "engine_counters".to_string(),
                self.engine_counters.to_json(),
            ),
            ("access_latency".to_string(), self.access_latency.to_json()),
            ("region_len".to_string(), self.region_len.to_json()),
            ("boundary_cost".to_string(), self.boundary_cost.to_json()),
            ("per_core".to_string(), self.per_core.to_json()),
            ("exceptions".to_string(), self.exceptions.to_json()),
            (
                "oracle_conflicts".to_string(),
                self.oracle_conflicts.to_json(),
            ),
            ("aborted".to_string(), self.aborted.to_json()),
        ];
        if let Some(t) = &self.timeline {
            fields.push(("timeline".to_string(), t.to_json()));
        }
        if let Some(t) = &self.trace {
            fields.push(("trace".to_string(), t.to_json()));
        }
        if let Some(f) = &self.forensics {
            fields.push(("forensics".to_string(), f.to_json()));
        }
        JsonValue::Object(fields)
    }
}

impl SimReport {
    /// Total on-chip traffic.
    pub fn noc_bytes(&self) -> Bytes {
        self.noc.total_bytes()
    }

    /// Total off-chip traffic.
    pub fn dram_bytes(&self) -> Bytes {
        self.dram.total_bytes()
    }

    /// Total energy.
    pub fn energy_total(&self) -> PicoJoules {
        self.energy.total()
    }

    /// L1 miss rate.
    pub fn l1_miss_rate(&self) -> f64 {
        let t = self.l1_hits + self.l1_misses;
        if t == 0 {
            0.0
        } else {
            self.l1_misses as f64 / t as f64
        }
    }

    /// Load imbalance: slowest core finish / mean finish (1.0 =
    /// perfectly balanced). Returns 1.0 when per-core data is absent.
    pub fn load_imbalance(&self) -> f64 {
        if self.per_core.is_empty() {
            return 1.0;
        }
        let finishes: Vec<f64> = self.per_core.iter().map(|c| c.finish.0 as f64).collect();
        let max = finishes.iter().cloned().fold(0.0f64, f64::max);
        let mean = finishes.iter().sum::<f64>() / finishes.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// True if the engine's exception set matches the oracle's
    /// (identity comparison; detection times may differ). Both lists
    /// are sorted and unique, so this is one pairwise pass.
    pub fn matches_oracle(&self) -> bool {
        let increasing = |v: &[ConflictException]| v.windows(2).all(|w| w[0] < w[1]);
        debug_assert!(increasing(&self.exceptions), "exceptions not sorted");
        debug_assert!(increasing(&self.oracle_conflicts), "oracle not sorted");
        // `ConflictException` equality is identity: it ignores the
        // detection time.
        self.exceptions == self.oracle_conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(protocol: ProtocolKind, cycles: u64) -> SimReport {
        SimReport {
            protocol,
            workload: "w".into(),
            cores: 4,
            cycles: Cycles(cycles),
            mem_ops: 10,
            sync_ops: 2,
            regions: 3,
            l1_hits: 8,
            l1_misses: 2,
            l1_evictions: 0,
            llc_hits: 1,
            llc_misses: 1,
            noc: NocStats::default(),
            dram: DramStats::default(),
            aim: None,
            energy: EnergyBreakdown::default(),
            engine_counters: vec![],
            access_latency: rce_common::Histogram::new(),
            region_len: rce_common::Histogram::new(),
            boundary_cost: rce_common::Histogram::new(),
            per_core: vec![],
            exceptions: vec![],
            oracle_conflicts: vec![],
            aborted: false,
            timeline: None,
            trace: None,
            forensics: None,
        }
    }

    #[test]
    fn obs_fields_are_written_only_when_present() {
        let plain = dummy(ProtocolKind::Ce, 10);
        let j = rce_common::json::to_string(&plain);
        assert!(!j.contains("\"timeline\""));
        assert!(!j.contains("\"trace\""));
        assert!(!j.contains("\"forensics\""));

        let mut obs = dummy(ProtocolKind::Ce, 10);
        obs.timeline = Some(MetricsTimeline {
            interval: 8,
            samples: vec![],
        });
        obs.trace = Some(TraceLog {
            capacity: 4,
            emitted: 9,
            drops: 5,
            events: vec![],
        });
        let v = JsonValue::parse(&rce_common::json::to_string(&obs)).unwrap();
        assert_eq!(v["timeline"]["interval"], JsonValue::UInt(8));
        assert_eq!(v["trace"]["drops"], JsonValue::UInt(5));
        assert!(v.get("forensics").is_none());
    }

    #[test]
    fn l1_miss_rate() {
        let r = dummy(ProtocolKind::MesiBaseline, 1);
        assert!((r.l1_miss_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn oracle_match_on_empty() {
        let r = dummy(ProtocolKind::Ce, 1);
        assert!(r.matches_oracle());
    }

    #[test]
    fn oracle_match_compares_identities_pairwise() {
        use crate::exception::{AccessType, ConflictSide};
        use rce_common::{Addr, CoreId, RegionId};
        let ex = |core: u16, word: u64, at: u64| {
            let side = |c: u16, kind| ConflictSide {
                core: CoreId(c),
                region: RegionId(c as u64),
                kind,
            };
            ConflictException::new(
                side(core, AccessType::Write),
                side(core + 1, AccessType::Read),
                Addr(word),
                Cycles(at),
            )
        };
        let mut r = dummy(ProtocolKind::Ce, 1);
        r.oracle_conflicts = vec![ex(0, 8, 1), ex(0, 16, 2), ex(1, 8, 3)];
        // Detection times differ from the oracle's: still a match.
        r.exceptions = vec![ex(0, 8, 9), ex(0, 16, 9), ex(1, 8, 9)];
        assert!(r.matches_oracle());
        // One identity swapped for another: no match.
        r.exceptions[1] = ex(0, 24, 2);
        assert!(!r.matches_oracle());
        // One identity missing: no match.
        r.exceptions.truncate(2);
        assert!(!r.matches_oracle());
    }

    #[test]
    fn aim_summary_hit_rate() {
        let a = AimSummary {
            accesses: 10,
            hits: 8,
            misses: 2,
            spills: 1,
        };
        assert!((a.hit_rate() - 0.8).abs() < 1e-12);
        let z = AimSummary {
            accesses: 0,
            hits: 0,
            misses: 0,
            spills: 0,
        };
        assert_eq!(z.hit_rate(), 0.0);
    }
}
