//! Conflict forensics: provenance records and heatmaps for delivered
//! exceptions.
//!
//! A counter tells you *that* conflicts happened; this layer tells you
//! *where and why*. When `ObsConfig::forensics` is on, the machine
//! feeds every materialized exception (pre-dedup) into the heatmaps
//! and captures a full [`ConflictRecord`] for every exception it
//! actually delivers, up to [`MAX_RECORDS`]: both access endpoints, the
//! engine's [`DetectPath`] (metadata placement, detection site, AIM
//! state at detection time), and the [`RECENT_WINDOW`] most recent
//! trace events that touched the conflicting line. Everything
//! aggregates into a [`ForensicsReport`] that rides
//! `SimReport.forensics` — omitted
//! byte-for-byte when the layer is off, like every other observability
//! field.
//!
//! Invariant pinned by tests: the heatmap totals count *materialized*
//! detections, so the sum over any heatmap equals the detector's
//! `conflict_checks_hit` counter, while `delivered` equals
//! `SimReport.exceptions.len()`.

use crate::exception::ConflictException;
use crate::meta::AimOutcome;
use rce_common::obs::{SimEvent, Tracer};
use rce_common::{
    impl_json_struct, impl_json_unit_enum, CoreId, Cycles, Histogram, LineMap, LineTable,
    MetaPlacement, MAX_CORES,
};

/// Recent trace events kept per provenance record (the window of
/// events touching the conflicting line, newest last).
pub(crate) const RECENT_WINDOW: usize = 8;

/// Full provenance records kept per run; later deliveries still feed
/// the heatmaps but are counted as truncated.
pub(crate) const MAX_RECORDS: usize = 1024;

/// Where the opposing access bits lived when the conflict surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectSite {
    /// Bits riding the requester's L1 line (merged from sharers'
    /// acks / owner downgrades): the MESI family's common case.
    L1Bits,
    /// Bits displaced out of every L1 and fetched back from the
    /// metadata store during this access (CE/CE+ displaced path).
    DisplacedFetch,
    /// ARC's LLC-side registration check against the line's metadata
    /// entry.
    Registration,
}

impl_json_unit_enum!(to_json DetectSite {
    L1Bits,
    DisplacedFetch,
    Registration,
});

impl DetectSite {
    /// Human-readable phrase for `paper explain`.
    pub(crate) fn describe(self) -> &'static str {
        match self {
            DetectSite::L1Bits => "bits riding the L1 line",
            DetectSite::DisplacedFetch => "displaced bits fetched from the metadata store",
            DetectSite::Registration => "LLC-side registration check",
        }
    }
}

/// The metadata path one detection went through: which placement was
/// consulted, at which site, and what the AIM had to do (if one was
/// involved in this access).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectPath {
    /// The engine's metadata placement.
    pub placement: MetaPlacement,
    /// Where the opposing bits were found.
    pub site: DetectSite,
    /// AIM hit/miss/spill state at detection time; `None` when no AIM
    /// lookup was on this access's path.
    pub aim: Option<AimOutcome>,
}

impl_json_struct!(to_json DetectPath {
    placement,
    site,
    aim,
});

impl DetectPath {
    /// One-line summary for `paper explain`.
    pub fn describe(&self) -> String {
        let mut s = format!("{} metadata, {}", self.placement, self.site.describe());
        if let Some(o) = self.aim {
            s.push_str(if o.hit { ", AIM hit" } else { ", AIM miss" });
            if o.refilled {
                s.push_str(" (refilled from DRAM)");
            }
            if o.spilled {
                s.push_str(", victim spilled");
            }
        }
        s
    }
}

/// One delivered exception with full provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ConflictRecord {
    /// The exception itself: both endpoints (core, region serial,
    /// access type), the word address, and the delivery cycle.
    pub exception: ConflictException,
    /// How the engine found it.
    pub path: DetectPath,
    /// Recent trace events touching the conflicting line, oldest
    /// first, at most [`RECENT_WINDOW`] of them.
    pub recent: Vec<SimEvent>,
}

impl_json_struct!(to_json ConflictRecord {
    exception,
    path,
    recent,
});

/// Conflict count for one 64-byte line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineHeat {
    /// Line index.
    pub line: u64,
    /// Materialized detections on this line.
    pub conflicts: u64,
}

impl_json_struct!(to_json LineHeat { line, conflicts });

/// Conflict count for one pair of cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairHeat {
    /// Lower core ID of the pair.
    pub core_a: u16,
    /// Higher core ID of the pair.
    pub core_b: u16,
    /// Materialized detections between the pair.
    pub conflicts: u64,
}

impl_json_struct!(to_json PairHeat {
    core_a,
    core_b,
    conflicts,
});

/// Conflict count for one region serial (each endpoint region of a
/// detection is charged once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionHeat {
    /// Region serial.
    pub region: u64,
    /// Detection endpoints in this region.
    pub conflicts: u64,
}

impl_json_struct!(to_json RegionHeat { region, conflicts });

/// The forensics section of a `SimReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsReport {
    /// Every materialized detection, pre-dedup (equals the engines'
    /// `conflict_checks_hit` counter).
    pub total_detections: u64,
    /// Deduplicated exceptions actually delivered (equals
    /// `SimReport.exceptions.len()`).
    pub delivered: u64,
    /// Delivered exceptions whose full record was dropped to the
    /// [`MAX_RECORDS`] bound (their heatmap contributions remain).
    pub truncated_records: u64,
    /// Full provenance records, delivery order.
    pub records: Vec<ConflictRecord>,
    /// Per-line conflict counts, hottest first (ties by line).
    pub line_heatmap: Vec<LineHeat>,
    /// Per-core-pair conflict counts, hottest first.
    pub core_pair_heatmap: Vec<PairHeat>,
    /// Per-region detection-endpoint counts, hottest first.
    pub region_heatmap: Vec<RegionHeat>,
    /// Completed-region lifetimes in cycles.
    pub region_lifetime: Histogram,
}

impl_json_struct!(to_json ForensicsReport {
    total_detections,
    delivered,
    truncated_records,
    records,
    line_heatmap,
    core_pair_heatmap,
    region_heatmap,
    region_lifetime,
});

impl ForensicsReport {
    /// The `k` hottest conflict lines.
    pub fn hottest_lines(&self, k: usize) -> &[LineHeat] {
        &self.line_heatmap[..k.min(self.line_heatmap.len())]
    }

    /// The `k` hottest core pairs.
    pub fn hottest_pairs(&self, k: usize) -> &[PairHeat] {
        &self.core_pair_heatmap[..k.min(self.core_pair_heatmap.len())]
    }

    /// Sum over the line heatmap (equals `total_detections`).
    pub fn heatmap_total(&self) -> u64 {
        self.line_heatmap.iter().map(|h| h.conflicts).sum()
    }
}

/// The in-run collector the machine drives.
///
/// Every heat table is charged once per materialized detection, so
/// each accumulates in a flat array and `finish` sorts once, by (count
/// desc, key asc), a total order over distinct keys. Line heat is a
/// [`LineMap`] keyed by the run's line ids (`Substrate::lines`); pair
/// heat a count `Vec` indexed `a * MAX_CORES + b`; region heat one
/// indexed by region ID, which is dense from 0 (one substrate counter).
#[derive(Debug, Default)]
pub(crate) struct Forensics {
    total: u64,
    delivered: u64,
    truncated: u64,
    records: Vec<ConflictRecord>,
    line_heat: LineMap<u64>,
    pair_heat: Vec<u64>,
    region_heat: Vec<u64>,
    region_lifetime: Histogram,
    /// When each core's current region began.
    region_start: Vec<Cycles>,
}

/// Count one hit at `i`, growing the table to reach it.
fn bump(counts: &mut Vec<u64>, i: usize) {
    if i >= counts.len() {
        counts.resize(i + 1, 0);
    }
    counts[i] += 1;
}

impl Forensics {
    /// An empty collector for a run on `cores` cores, whose first
    /// regions all begin at cycle 0.
    pub(crate) fn new(cores: usize) -> Self {
        Forensics {
            region_start: vec![Cycles::ZERO; cores],
            ..Forensics::default()
        }
    }

    /// Feed one materialized detection (called for *every* exception an
    /// access raises, before the machine's delivery dedup, so heatmap
    /// totals match the detector's counter). The engine interned the
    /// conflicting line when it accessed it, so `lines` gains nothing.
    pub(crate) fn observe(&mut self, ex: &ConflictException, lines: &mut LineTable) {
        self.total += 1;
        let id = lines.intern(ex.word_addr.line());
        *self.line_heat.slot(id) += 1;
        let (a, b) = (ex.a(), ex.b());
        bump(
            &mut self.pair_heat,
            a.core.index() * MAX_CORES + b.core.index(),
        );
        bump(&mut self.region_heat, a.region.0 as usize);
        bump(&mut self.region_heat, b.region.0 as usize);
    }

    /// Capture a delivered (deduplicated) exception's full record, with
    /// the recent-event window for `line` from `tracer`. Only a kept
    /// record (one of the first [`MAX_RECORDS`]) builds its window; a
    /// later delivery is only counted as truncated.
    pub(crate) fn deliver(
        &mut self,
        ex: ConflictException,
        path: DetectPath,
        tracer: Option<&Tracer>,
        line: u64,
    ) {
        self.delivered += 1;
        if self.records.len() < MAX_RECORDS {
            self.records.push(ConflictRecord {
                exception: ex,
                path,
                recent: tracer.map(|t| window(t, line)).unwrap_or_default(),
            });
        } else {
            self.truncated += 1;
        }
    }

    /// `core`'s region ended at `end`, and its next one begins there:
    /// record the ended region's lifetime in cycles.
    pub(crate) fn region_ended(&mut self, core: CoreId, end: Cycles) {
        let start = std::mem::replace(&mut self.region_start[core.index()], end);
        self.region_lifetime.record(end.0.saturating_sub(start.0));
    }

    /// Finish: sort the heatmaps hottest-first (ties by key, so the
    /// output is deterministic) and assemble the report. `lines` turns
    /// line heat's ids back into addresses.
    pub(crate) fn finish(self, lines: &LineTable) -> ForensicsReport {
        // Nonzero slots of a flat table, hottest first (ties by index).
        fn sorted<T>(counts: &[u64], build: impl Fn(usize, u64) -> T) -> Vec<T> {
            let mut v: Vec<(usize, u64)> = counts
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(i, &n)| (i, n))
                .collect();
            v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v.into_iter().map(|(i, n)| build(i, n)).collect()
        }
        // Line ids follow the run's interning order; the (count desc,
        // line asc) sort is a total order over distinct lines, so the
        // report does not depend on that order.
        let mut line_heat: Vec<(u64, u64)> = self
            .line_heat
            .iter()
            .filter(|&(_, &n)| n > 0)
            .map(|(id, &n)| (lines.addr(id).0, n))
            .collect();
        line_heat.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ForensicsReport {
            total_detections: self.total,
            delivered: self.delivered,
            truncated_records: self.truncated,
            records: self.records,
            line_heatmap: line_heat
                .into_iter()
                .map(|(line, conflicts)| LineHeat { line, conflicts })
                .collect(),
            core_pair_heatmap: sorted(&self.pair_heat, |i, conflicts| PairHeat {
                core_a: (i / MAX_CORES) as u16,
                core_b: (i % MAX_CORES) as u16,
                conflicts,
            }),
            region_heatmap: sorted(&self.region_heat, |region, conflicts| RegionHeat {
                region: region as u64,
                conflicts,
            }),
            region_lifetime: self.region_lifetime,
        }
    }
}

/// The recent-event window for a delivered exception: the newest
/// [`RECENT_WINDOW`] tracer events whose address span overlaps the
/// conflicting line, returned oldest first by cycle (engines emit
/// substrate events mid-access, so ring order alone is not cycle order).
fn window(tracer: &Tracer, line: u64) -> Vec<SimEvent> {
    let (lo, hi) = (line * 64, line * 64 + 63);
    let mut v: Vec<SimEvent> = tracer
        .events()
        .rev()
        .filter(|e| matches!(e.kind.addr_span(), Some((a, b)) if a <= hi && b >= lo))
        .take(RECENT_WINDOW)
        .cloned()
        .collect();
    v.reverse();
    v.sort_by_key(|e| e.cycle);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exception::{AccessType, ConflictSide};
    use rce_common::obs::EventKind;
    use rce_common::{Addr, CoreId, Cycles, JsonValue, RegionId};

    fn ex(a: u16, b: u16, word_addr: u64, at: u64) -> ConflictException {
        ConflictException::new(
            ConflictSide {
                core: CoreId(a),
                region: RegionId(a as u64 + 10),
                kind: AccessType::Write,
            },
            ConflictSide {
                core: CoreId(b),
                region: RegionId(b as u64 + 10),
                kind: AccessType::Read,
            },
            Addr(word_addr),
            Cycles(at),
        )
    }

    fn path() -> DetectPath {
        DetectPath {
            placement: MetaPlacement::Aim,
            site: DetectSite::Registration,
            aim: Some(AimOutcome {
                hit: true,
                refilled: false,
                spilled: false,
            }),
        }
    }

    #[test]
    fn heatmaps_count_every_observation() {
        let (mut f, mut lines) = (Forensics::default(), LineTable::new());
        // Same conflict observed twice (e.g. by two coherence actions),
        // plus one on another line.
        f.observe(&ex(0, 1, 64, 5), &mut lines);
        f.observe(&ex(0, 1, 64, 9), &mut lines);
        f.observe(&ex(2, 3, 256, 7), &mut lines);
        f.deliver(ex(0, 1, 64, 5), path(), None, 0);
        f.deliver(ex(2, 3, 256, 7), path(), None, 0);
        let r = f.finish(&lines);
        assert_eq!(r.total_detections, 3);
        assert_eq!(r.delivered, 2);
        assert_eq!(r.heatmap_total(), 3, "heatmap counts pre-dedup detections");
        assert_eq!(
            r.line_heatmap[0],
            LineHeat {
                line: 1,
                conflicts: 2
            }
        );
        assert_eq!(
            r.core_pair_heatmap[0],
            PairHeat {
                core_a: 0,
                core_b: 1,
                conflicts: 2
            }
        );
        // Each endpoint region charged once per observation.
        let region_total: u64 = r.region_heatmap.iter().map(|h| h.conflicts).sum();
        assert_eq!(region_total, 6);
    }

    #[test]
    fn equal_heat_lists_the_lower_line_first() {
        // The run's table interns line 9 before line 2, as an engine
        // that touched 9 first would; both lines get equal heat.
        let (mut f, mut lines) = (Forensics::default(), LineTable::new());
        lines.intern(rce_common::LineAddr(9));
        f.observe(&ex(0, 1, 9 * 64, 1), &mut lines);
        f.observe(&ex(2, 3, 2 * 64, 2), &mut lines);
        let heat: Vec<(u64, u64)> = f
            .finish(&lines)
            .line_heatmap
            .iter()
            .map(|h| (h.line, h.conflicts))
            .collect();
        assert_eq!(heat, [(2, 1), (9, 1)], "ties by line, not interning order");
    }

    #[test]
    fn records_are_bounded_and_truncation_is_counted() {
        let (mut f, mut lines) = (Forensics::default(), LineTable::new());
        let n = MAX_RECORDS as u64 + 3;
        for i in 0..n {
            let e = ex(0, 1, i * 8, i);
            f.observe(&e, &mut lines);
            f.deliver(e, path(), None, 0);
        }
        let r = f.finish(&lines);
        assert_eq!(r.records.len(), MAX_RECORDS);
        assert_eq!(r.truncated_records, 3);
        assert_eq!(r.delivered, n);
        assert_eq!(r.heatmap_total(), n, "truncation never drops heat");
    }

    #[test]
    fn window_filters_by_line_and_bounds_length() {
        let mut t = Tracer::default();
        for i in 0..4 * RECENT_WINDOW as u64 {
            t.emit(SimEvent {
                cycle: i,
                core: Some(0),
                region: None,
                kind: EventKind::MemAccess {
                    // Alternate between line 1 and line 9.
                    addr: if i % 2 == 0 { 64 } else { 9 * 64 },
                    write: true,
                    exceptions: 0,
                },
            });
        }
        let w = window(&t, 1);
        assert_eq!(w.len(), RECENT_WINDOW, "window is bounded");
        assert!(
            w.windows(2).all(|p| p[0].cycle < p[1].cycle),
            "oldest first"
        );
        // The newest line-1 events are the ones kept.
        assert_eq!(w.last().unwrap().cycle, 4 * RECENT_WINDOW as u64 - 2);
        for e in &w {
            let (a, b) = e.kind.addr_span().unwrap();
            assert!(a <= 127 && b >= 64, "only line-1 events");
        }
        assert!(window(&t, 500).is_empty());
    }

    #[test]
    fn report_serializes_records_and_lifetimes() {
        let (mut f, mut lines) = (Forensics::new(4), LineTable::new());
        let e = ex(1, 3, 128, 42);
        f.observe(&e, &mut lines);
        let mut t = Tracer::default();
        t.emit(SimEvent {
            cycle: 40,
            core: Some(1),
            region: Some(11),
            kind: EventKind::MemAccess {
                addr: 128,
                write: true,
                exceptions: 0,
            },
        });
        f.deliver(
            e,
            DetectPath {
                placement: MetaPlacement::Dram,
                site: DetectSite::DisplacedFetch,
                aim: None,
            },
            Some(&t),
            2,
        );
        f.region_ended(CoreId(2), Cycles(777));
        let r = f.finish(&lines);
        let v = JsonValue::parse(&rce_common::json::to_string(&r)).unwrap();
        let rec = &v["records"][0];
        assert_eq!(rec["path"]["site"], JsonValue::Str("DisplacedFetch".into()));
        assert!(rec["path"]["aim"].is_null());
        assert_eq!(
            rec["recent"][0]["event"],
            JsonValue::Str("mem_access".into())
        );
        assert_eq!(v["region_lifetime"]["count"], JsonValue::UInt(1));
    }

    #[test]
    fn describe_paths() {
        let p = path();
        let s = p.describe();
        assert!(s.contains("AIM hit"), "{s}");
        assert!(s.contains("registration"), "{s}");
        let d = DetectPath {
            placement: MetaPlacement::Aim,
            site: DetectSite::DisplacedFetch,
            aim: Some(AimOutcome {
                hit: false,
                refilled: true,
                spilled: true,
            }),
        };
        let s = d.describe();
        assert!(s.contains("AIM miss") && s.contains("refilled") && s.contains("spilled"));
    }
}
