//! Structured simulation observability: event tracing and interval
//! metrics.
//!
//! Three gated layers, all hermetic and std-only:
//!
//! 1. **Event tracing** — a bounded ring-buffer [`Tracer`] records
//!    typed [`SimEvent`]s (region boundaries, coherence messages,
//!    cache evictions, AIM activity, DRAM accesses, self-invalidation,
//!    conflict exceptions) with cycle timestamps and
//!    core/region/address provenance. The finished [`TraceLog`] exports as
//!    NDJSON or as Chrome `trace_event` JSON (loadable in
//!    `chrome://tracing` / Perfetto). A run's one ring is owned by
//!    value by its `rce_core::Substrate`, which emits every event,
//!    the NoC's and DRAM's included: the timing models do not know
//!    this module, and a cloned substrate gets its own copy of the
//!    ring.
//! 2. **Interval metrics** — a [`MetricsSampler`] turns cumulative
//!    gauge snapshots ([`GaugeSnapshot`]) into a per-interval
//!    time-series ([`MetricsTimeline`]): NoC link utilization and
//!    queueing, AIM hit rate, DRAM bandwidth and queueing, exception
//!    counts.
//! 3. **Configuration** — [`ObsConfig`] is three on/off switches:
//!    trace, timeline and conflict forensics. Their bounds are fixed
//!    constants ([`TRACE_CAPACITY`], [`TIMELINE_INTERVAL`] here, the
//!    forensics window and record bound in `rce_core::forensics`). The
//!    default is fully off; a simulation run with observability off must
//!    be *byte-identical* to one that never linked this module (the
//!    zero-overhead contract — hooks are `Option` checks only, and no
//!    event is even constructed unless the run has a ring).
//!
//! Everything here is deterministic: the same simulated execution
//! produces the same events and the same timeline, byte for byte.

use crate::impl_json_struct;
use crate::json::{self, JsonValue, ToJson};
use std::collections::VecDeque;

/// Ring-buffer capacity of every tracer: the newest this many events
/// are kept, older ones are dropped and counted.
pub const TRACE_CAPACITY: usize = 65_536;

/// Metrics-sampling interval, in simulated cycles.
pub const TIMELINE_INTERVAL: u64 = 4096;

// ---------------------------------------------------------------------------
// Event taxonomy
// ---------------------------------------------------------------------------

/// What happened. Addresses are byte addresses; `line` fields are
/// line indices (64-byte lines); `word` fields are word indices
/// (8-byte words).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A core started a region.
    RegionBegin,
    /// A core finished a region; `cost` is the boundary work in cycles.
    RegionEnd {
        /// Cycles the boundary work took.
        cost: u64,
    },
    /// A committed program load/store.
    MemAccess {
        /// Byte address.
        addr: u64,
        /// True for stores.
        write: bool,
        /// Conflict exceptions this access raised.
        exceptions: u64,
    },
    /// One routed NoC message.
    CohMsg {
        /// Message class short name (`req`, `data`, `inv`, ...).
        class: &'static str,
        /// Source tile.
        src: u64,
        /// Destination tile.
        dst: u64,
        /// Flit-padded wire bytes.
        bytes: u64,
    },
    /// A private-cache line was evicted.
    L1Evict {
        /// Evicted line index.
        line: u64,
        /// True if dirty data was written back.
        dirty: bool,
    },
    /// An LLC line was evicted.
    LlcEvict {
        /// Evicted line index.
        line: u64,
        /// True if the victim required a DRAM writeback.
        dirty: bool,
    },
    /// An AIM lookup found the entry resident.
    AimHit {
        /// Looked-up line index.
        line: u64,
    },
    /// An AIM lookup missed.
    AimMiss {
        /// Looked-up line index.
        line: u64,
        /// True if the entry was refilled from the DRAM table.
        refilled: bool,
    },
    /// An AIM victim with live metadata spilled to the DRAM table.
    AimSpill {
        /// The line whose insertion caused the spill.
        line: u64,
    },
    /// One DRAM access.
    DramAccess {
        /// Access kind short name (`data-rd`, `meta-wr`, ...).
        kind: &'static str,
        /// Target line index.
        line: u64,
        /// Bytes moved.
        bytes: u64,
    },
    /// A core self-invalidated shared lines at a region boundary.
    SelfInvalidate {
        /// Lines dropped.
        lines: u64,
    },
    /// A conflict exception was delivered.
    Conflict {
        /// Conflicting word index.
        word: u64,
        /// The other side's core.
        other_core: u64,
        /// Access kinds, `<mine>/<other>` (e.g. `W/R`).
        kinds: &'static str,
    },
}

impl EventKind {
    /// Coarse category name (the `cat` field of a Chrome trace).
    pub(crate) fn category(&self) -> &'static str {
        match self {
            EventKind::RegionBegin | EventKind::RegionEnd { .. } => "region",
            EventKind::MemAccess { .. } => "access",
            EventKind::CohMsg { .. } => "coh",
            EventKind::L1Evict { .. } | EventKind::LlcEvict { .. } => "cache",
            EventKind::AimHit { .. } | EventKind::AimMiss { .. } | EventKind::AimSpill { .. } => {
                "aim"
            }
            EventKind::DramAccess { .. } => "dram",
            EventKind::SelfInvalidate { .. } => "selfinv",
            EventKind::Conflict { .. } => "conflict",
        }
    }

    /// Export name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EventKind::RegionBegin => "region_begin",
            EventKind::RegionEnd { .. } => "region_end",
            EventKind::MemAccess { .. } => "mem_access",
            EventKind::CohMsg { .. } => "coh_msg",
            EventKind::L1Evict { .. } => "l1_evict",
            EventKind::LlcEvict { .. } => "llc_evict",
            EventKind::AimHit { .. } => "aim_hit",
            EventKind::AimMiss { .. } => "aim_miss",
            EventKind::AimSpill { .. } => "aim_spill",
            EventKind::DramAccess { .. } => "dram_access",
            EventKind::SelfInvalidate { .. } => "self_invalidate",
            EventKind::Conflict { .. } => "conflict",
        }
    }

    /// First and last byte address this event touches, if it has any
    /// (forensics windows select events by it). The span is inclusive,
    /// so the last line of the address space has one too.
    pub fn addr_span(&self) -> Option<(u64, u64)> {
        let line_span = |l: u64| Some((l * 64, l * 64 + 63));
        match self {
            // The event keeps no access length: one word's span, cut at
            // the top of the address space.
            EventKind::MemAccess { addr, .. } => Some((*addr, addr.saturating_add(7))),
            EventKind::L1Evict { line, .. }
            | EventKind::LlcEvict { line, .. }
            | EventKind::AimHit { line }
            | EventKind::AimMiss { line, .. }
            | EventKind::AimSpill { line }
            | EventKind::DramAccess { line, .. } => line_span(*line),
            EventKind::Conflict { word, .. } => Some((word * 8, word * 8 + 7)),
            _ => None,
        }
    }

    /// Kind-specific payload fields for export.
    fn args(&self) -> Vec<(String, JsonValue)> {
        fn kv<T: ToJson>(k: &str, v: &T) -> (String, JsonValue) {
            (k.to_string(), v.to_json())
        }
        match self {
            EventKind::RegionBegin => vec![],
            EventKind::RegionEnd { cost } => vec![kv("cost", cost)],
            EventKind::MemAccess {
                addr,
                write,
                exceptions,
            } => vec![
                kv("addr", addr),
                kv("write", write),
                kv("exceptions", exceptions),
            ],
            EventKind::CohMsg {
                class,
                src,
                dst,
                bytes,
            } => vec![
                kv("class", class),
                kv("src", src),
                kv("dst", dst),
                kv("bytes", bytes),
            ],
            EventKind::L1Evict { line, dirty } | EventKind::LlcEvict { line, dirty } => {
                vec![kv("line", line), kv("dirty", dirty)]
            }
            EventKind::AimHit { line } | EventKind::AimSpill { line } => vec![kv("line", line)],
            EventKind::AimMiss { line, refilled } => {
                vec![kv("line", line), kv("refilled", refilled)]
            }
            EventKind::DramAccess { kind, line, bytes } => {
                vec![kv("kind", kind), kv("line", line), kv("bytes", bytes)]
            }
            EventKind::SelfInvalidate { lines } => vec![kv("lines", lines)],
            EventKind::Conflict {
                word,
                other_core,
                kinds,
            } => vec![
                kv("word", word),
                kv("other_core", other_core),
                kv("kinds", kinds),
            ],
        }
    }
}

/// One traced event: a timestamp, provenance, and what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct SimEvent {
    /// Simulated cycle the event occurred at.
    pub cycle: u64,
    /// Originating core, if the event has one.
    pub core: Option<u16>,
    /// The originating core's region at the time, if known.
    pub region: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

impl ToJson for SimEvent {
    fn to_json(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = vec![
            ("cycle".into(), self.cycle.to_json()),
            ("core".into(), self.core.to_json()),
            ("region".into(), self.region.to_json()),
            ("event".into(), JsonValue::Str(self.kind.name().into())),
        ];
        fields.extend(self.kind.args());
        JsonValue::Object(fields)
    }
}

// ---------------------------------------------------------------------------
// Tracer: bounded ring buffer
// ---------------------------------------------------------------------------

/// A bounded ring buffer of events. When full, the *oldest*
/// event is dropped and `drops` is incremented — overflow is always
/// surfaced, never silent.
#[derive(Debug, Clone)]
pub struct Tracer {
    capacity: usize,
    events: VecDeque<SimEvent>,
    emitted: u64,
    drops: u64,
}

impl Default for Tracer {
    /// An empty ring of [`TRACE_CAPACITY`] events.
    fn default() -> Self {
        Tracer::with_capacity(TRACE_CAPACITY)
    }
}

impl Tracer {
    /// An empty ring of `capacity` events (unit tests use small ones).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Tracer {
            capacity,
            events: VecDeque::new(),
            emitted: 0,
            drops: 0,
        }
    }

    /// Record an event, dropping the oldest one if the ring is full.
    pub fn emit(&mut self, ev: SimEvent) {
        self.emitted += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.drops += 1;
        }
        self.events.push_back(ev);
    }

    /// Events currently held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Events that fell off the ring.
    #[cfg(test)]
    pub(crate) fn drops(&self) -> u64 {
        self.drops
    }

    /// The retained events, oldest first (the forensics layer walks
    /// these backward to build per-conflict recent-event windows).
    pub fn events(&self) -> std::collections::vec_deque::Iter<'_, SimEvent> {
        self.events.iter()
    }

    /// Total events emitted (kept + dropped).
    #[cfg(test)]
    pub(crate) fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Finish into an exportable log.
    pub fn into_log(self) -> TraceLog {
        TraceLog {
            capacity: self.capacity as u64,
            emitted: self.emitted,
            drops: self.drops,
            events: self.events.into(),
        }
    }
}

/// The finished trace: everything the ring retained, plus overflow
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Ring capacity the trace ran with.
    pub capacity: u64,
    /// Events emitted (kept + dropped).
    pub emitted: u64,
    /// Events dropped to overflow (oldest-first).
    pub drops: u64,
    /// Retained events, oldest first.
    pub events: Vec<SimEvent>,
}

impl_json_struct!(to_json TraceLog {
    capacity,
    emitted,
    drops,
    events,
});

impl TraceLog {
    /// Newline-delimited JSON: one event object per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&json::to_string(ev));
            out.push('\n');
        }
        out
    }

    /// One-line NDJSON trailer summarizing ring accounting, so a
    /// consumer of the `.ndjson` file can detect overflow truncation
    /// without the surrounding report. Appended by `paper trace`, not
    /// part of [`TraceLog::to_ndjson`] (whose lines are all events).
    pub fn ndjson_footer(&self) -> String {
        let mut s = json::to_string(&JsonValue::Object(vec![
            ("event".into(), JsonValue::Str("trace_summary".into())),
            ("capacity".into(), self.capacity.to_json()),
            ("emitted".into(), self.emitted.to_json()),
            ("drops".into(), self.drops.to_json()),
        ]));
        s.push('\n');
        s
    }

    /// Chrome `trace_event` JSON (object format), loadable in
    /// `chrome://tracing` and Perfetto. Regions map to duration
    /// begin/end pairs on the core's track; everything else maps to
    /// thread-scoped instant events. Timestamps are simulated cycles.
    pub fn to_chrome_trace(&self) -> JsonValue {
        let mut events = Vec::with_capacity(self.events.len());
        for ev in &self.events {
            let tid = ev.core.map(u64::from).unwrap_or(999_999);
            let mut fields: Vec<(String, JsonValue)> = Vec::with_capacity(8);
            let (name, ph) = match &ev.kind {
                EventKind::RegionBegin => ("region".to_string(), "B"),
                EventKind::RegionEnd { .. } => ("region".to_string(), "E"),
                k => (k.name().to_string(), "i"),
            };
            fields.push(("name".into(), JsonValue::Str(name)));
            fields.push(("cat".into(), JsonValue::Str(ev.kind.category().into())));
            fields.push(("ph".into(), JsonValue::Str(ph.into())));
            if ph == "i" {
                fields.push(("s".into(), JsonValue::Str("t".into())));
            }
            fields.push(("ts".into(), ev.cycle.to_json()));
            fields.push(("pid".into(), 0u64.to_json()));
            fields.push(("tid".into(), tid.to_json()));
            let mut args = ev.kind.args();
            if let Some(r) = ev.region {
                args.push(("region".into(), r.to_json()));
            }
            fields.push(("args".into(), JsonValue::Object(args)));
            events.push(JsonValue::Object(fields));
        }
        JsonValue::Object(vec![
            ("traceEvents".into(), JsonValue::Array(events)),
            ("displayTimeUnit".into(), JsonValue::Str("ns".into())),
            (
                "otherData".into(),
                JsonValue::Object(vec![
                    ("emitted".into(), self.emitted.to_json()),
                    ("drops".into(), self.drops.to_json()),
                    ("capacity".into(), self.capacity.to_json()),
                ]),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Interval metrics
// ---------------------------------------------------------------------------

/// Cumulative gauge values read from the simulator at one instant.
/// The sampler differences consecutive snapshots into intervals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GaugeSnapshot {
    /// Total NoC messages routed.
    pub noc_msgs: u64,
    /// Total NoC wire bytes.
    pub noc_bytes: u64,
    /// Total NoC queueing delay (cycles).
    pub noc_queue_delay: u64,
    /// Cumulative busy cycles per NoC link.
    pub link_busy: Vec<u64>,
    /// Total DRAM accesses.
    pub dram_accesses: u64,
    /// Total DRAM bytes.
    pub dram_bytes: u64,
    /// Total DRAM queueing delay (cycles).
    pub dram_queue_delay: u64,
    /// Total AIM hits.
    pub aim_hits: u64,
    /// Total AIM misses.
    pub aim_misses: u64,
    /// Total LLC misses.
    pub llc_misses: u64,
    /// Total L1 evictions.
    pub l1_evictions: u64,
    /// Conflict exceptions delivered so far.
    pub exceptions: u64,
}

/// One interval of the metrics timeline. Counts are deltas within the
/// interval; rates are normalized by the interval length.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// Cycle the interval ends at.
    pub cycle: u64,
    /// NoC messages routed this interval.
    pub noc_msgs: u64,
    /// NoC wire bytes this interval.
    pub noc_bytes: u64,
    /// NoC queueing delay accrued this interval (cycles).
    pub noc_queue_delay: u64,
    /// Mean per-link utilization over the interval, all links.
    pub noc_mean_link_util: f64,
    /// Utilization of the busiest link over the interval (clamped to 1).
    pub noc_peak_link_util: f64,
    /// AIM lookups this interval.
    pub aim_lookups: u64,
    /// AIM hit rate over this interval's lookups (0 when idle).
    pub aim_hit_rate: f64,
    /// DRAM accesses this interval.
    pub dram_accesses: u64,
    /// DRAM bytes this interval.
    pub dram_bytes: u64,
    /// DRAM bandwidth, bytes per cycle over the interval.
    pub dram_bandwidth: f64,
    /// DRAM queueing delay accrued this interval (cycles).
    pub dram_queue_delay: u64,
    /// LLC misses this interval.
    pub llc_misses: u64,
    /// L1 evictions this interval.
    pub l1_evictions: u64,
    /// Conflict exceptions delivered this interval.
    pub exceptions: u64,
}

impl_json_struct!(to_json IntervalSample {
    cycle,
    noc_msgs,
    noc_bytes,
    noc_queue_delay,
    noc_mean_link_util,
    noc_peak_link_util,
    aim_lookups,
    aim_hit_rate,
    dram_accesses,
    dram_bytes,
    dram_bandwidth,
    dram_queue_delay,
    llc_misses,
    l1_evictions,
    exceptions,
});

/// The full per-interval time-series of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsTimeline {
    /// Nominal sampling interval in cycles (the trailing sample may
    /// cover a shorter span).
    pub interval: u64,
    /// Samples in time order.
    pub samples: Vec<IntervalSample>,
}

impl_json_struct!(to_json MetricsTimeline { interval, samples });

/// Differences cumulative [`GaugeSnapshot`]s into a
/// [`MetricsTimeline`] every `interval` cycles.
///
/// The simulator's clock advances in jumps, so a snapshot is taken the
/// first time the clock is observed at or past a boundary; the whole
/// delta since the previous snapshot is attributed to that boundary's
/// interval (later boundaries crossed in the same jump record idle
/// samples). Utilizations are clamped to 1.
#[derive(Debug)]
pub struct MetricsSampler {
    interval: u64,
    next_at: u64,
    last_at: u64,
    prev: GaugeSnapshot,
    samples: Vec<IntervalSample>,
}

impl Default for MetricsSampler {
    /// A sampler every [`TIMELINE_INTERVAL`] cycles.
    fn default() -> Self {
        MetricsSampler::with_interval(TIMELINE_INTERVAL)
    }
}

impl MetricsSampler {
    /// A sampler every `interval` cycles (unit tests use short ones).
    pub(crate) fn with_interval(interval: u64) -> Self {
        MetricsSampler {
            interval,
            next_at: interval,
            last_at: 0,
            prev: GaugeSnapshot::default(),
            samples: Vec::new(),
        }
    }

    /// True if the clock has reached the next sample boundary — check
    /// this before paying for a [`GaugeSnapshot`].
    #[inline]
    pub fn due(&self, now: u64) -> bool {
        now >= self.next_at
    }

    /// Record a snapshot for every boundary at or before `now`.
    pub fn tick(&mut self, now: u64, snap: GaugeSnapshot) {
        if now < self.next_at {
            return;
        }
        let mut first = true;
        while self.next_at <= now {
            let cycle = self.next_at;
            if first {
                self.push(cycle, &snap);
                first = false;
            } else {
                self.push_idle(cycle);
            }
            self.next_at += self.interval;
        }
        self.prev = snap;
    }

    /// Close the timeline at the end of the run, capturing the final
    /// partial interval if anything happened after the last boundary.
    pub fn finish(mut self, end: u64, snap: GaugeSnapshot) -> MetricsTimeline {
        if end > self.last_at {
            self.push(end, &snap);
        }
        MetricsTimeline {
            interval: self.interval,
            samples: self.samples,
        }
    }

    fn push(&mut self, cycle: u64, snap: &GaugeSnapshot) {
        let span = (cycle - self.last_at).max(1);
        let d = |now: u64, then: u64| now.saturating_sub(then);
        let links = snap.link_busy.len().max(1) as f64;
        let mut busy_total = 0u64;
        let mut busy_peak = 0u64;
        for (i, &b) in snap.link_busy.iter().enumerate() {
            let prev = self.prev.link_busy.get(i).copied().unwrap_or(0);
            let delta = d(b, prev);
            busy_total += delta;
            busy_peak = busy_peak.max(delta);
        }
        let aim_lookups =
            d(snap.aim_hits, self.prev.aim_hits) + d(snap.aim_misses, self.prev.aim_misses);
        let aim_hits = d(snap.aim_hits, self.prev.aim_hits);
        let dram_bytes = d(snap.dram_bytes, self.prev.dram_bytes);
        self.samples.push(IntervalSample {
            cycle,
            noc_msgs: d(snap.noc_msgs, self.prev.noc_msgs),
            noc_bytes: d(snap.noc_bytes, self.prev.noc_bytes),
            noc_queue_delay: d(snap.noc_queue_delay, self.prev.noc_queue_delay),
            noc_mean_link_util: (busy_total as f64 / links / span as f64).min(1.0),
            noc_peak_link_util: (busy_peak as f64 / span as f64).min(1.0),
            aim_lookups,
            aim_hit_rate: if aim_lookups == 0 {
                0.0
            } else {
                aim_hits as f64 / aim_lookups as f64
            },
            dram_accesses: d(snap.dram_accesses, self.prev.dram_accesses),
            dram_bytes,
            dram_bandwidth: dram_bytes as f64 / span as f64,
            dram_queue_delay: d(snap.dram_queue_delay, self.prev.dram_queue_delay),
            llc_misses: d(snap.llc_misses, self.prev.llc_misses),
            l1_evictions: d(snap.l1_evictions, self.prev.l1_evictions),
            exceptions: d(snap.exceptions, self.prev.exceptions),
        });
        self.last_at = cycle;
    }

    fn push_idle(&mut self, cycle: u64) {
        self.samples.push(IntervalSample {
            cycle,
            noc_msgs: 0,
            noc_bytes: 0,
            noc_queue_delay: 0,
            noc_mean_link_util: 0.0,
            noc_peak_link_util: 0.0,
            aim_lookups: 0,
            aim_hit_rate: 0.0,
            dram_accesses: 0,
            dram_bytes: 0,
            dram_bandwidth: 0.0,
            dram_queue_delay: 0,
            llc_misses: 0,
            l1_evictions: 0,
            exceptions: 0,
        });
        self.last_at = cycle;
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// The three observability switches. The default is fully off; a run
/// with the default config is byte-identical to one before this module
/// existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    /// Event tracing into a [`TRACE_CAPACITY`]-event ring, exported in
    /// the report.
    pub trace: bool,
    /// A metrics timeline sampled every [`TIMELINE_INTERVAL`] cycles.
    pub timeline: bool,
    /// Conflict forensics: provenance records and heatmaps.
    pub forensics: bool,
}

impl ObsConfig {
    /// Everything on.
    pub const FULL: ObsConfig = ObsConfig {
        trace: true,
        timeline: true,
        forensics: true,
    };

    /// Forensics only: provenance records and heatmaps without an
    /// exported trace or timeline (what `paper explain` runs with).
    pub const FORENSICS: ObsConfig = ObsConfig {
        trace: false,
        timeline: false,
        forensics: true,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64, core: u16, kind: EventKind) -> SimEvent {
        SimEvent {
            cycle,
            core: Some(core),
            region: Some(1),
            kind,
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_is_surfaced() {
        let mut t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.emit(ev(i, 0, EventKind::AimHit { line: i }));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.drops(), 6, "drops must be counted, never silent");
        assert_eq!(t.emitted(), 10);
        let log = t.into_log();
        assert_eq!(log.drops, 6);
        assert_eq!(log.emitted, 10);
        // The newest events are the ones retained.
        let cycles: Vec<u64> = log.events.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
        // And the accounting survives export.
        let chrome = log.to_chrome_trace();
        assert_eq!(chrome["otherData"]["drops"], JsonValue::UInt(6));
    }

    #[test]
    fn ndjson_lines_parse_back() {
        let mut t = Tracer::default();
        t.emit(ev(5, 2, EventKind::RegionBegin));
        t.emit(ev(
            9,
            2,
            EventKind::Conflict {
                word: 77,
                other_core: 3,
                kinds: "W/R",
            },
        ));
        let log = t.into_log();
        let nd = log.to_ndjson();
        let lines: Vec<&str> = nd.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = JsonValue::parse(line).expect("NDJSON line must parse");
            assert!(v.get("cycle").is_some());
            assert!(v.get("event").is_some());
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let mut t = Tracer::default();
        t.emit(ev(0, 1, EventKind::RegionBegin));
        t.emit(ev(
            4,
            1,
            EventKind::CohMsg {
                class: "data",
                src: 0,
                dst: 3,
                bytes: 80,
            },
        ));
        t.emit(ev(10, 1, EventKind::RegionEnd { cost: 6 }));
        let log = t.into_log();
        let v = log.to_chrome_trace();
        let evs = v["traceEvents"].as_array().unwrap();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0]["ph"], JsonValue::Str("B".into()));
        assert_eq!(evs[1]["ph"], JsonValue::Str("i".into()));
        assert_eq!(evs[2]["ph"], JsonValue::Str("E".into()));
        assert_eq!(evs[0]["tid"], JsonValue::UInt(1));
        assert_eq!(evs[0]["cat"], JsonValue::Str("region".into()));
        assert_eq!(evs[1]["cat"], JsonValue::Str("coh".into()));
        assert_eq!(evs[1]["args"]["bytes"], JsonValue::UInt(80));
        // The whole trace must re-parse from its serialized text.
        let text = json::to_string_pretty(&v);
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    fn snap(msgs: u64, bytes: u64, busy: Vec<u64>, hits: u64, misses: u64) -> GaugeSnapshot {
        GaugeSnapshot {
            noc_msgs: msgs,
            noc_bytes: bytes,
            link_busy: busy,
            aim_hits: hits,
            aim_misses: misses,
            ..GaugeSnapshot::default()
        }
    }

    #[test]
    fn sampler_differences_snapshots() {
        let mut s = MetricsSampler::with_interval(100);
        assert!(!s.due(99));
        assert!(s.due(100));
        s.tick(100, snap(10, 640, vec![50, 0], 8, 2));
        s.tick(230, snap(30, 1920, vec![90, 60], 10, 10));
        let tl = s.finish(260, snap(31, 1984, vec![92, 60], 10, 10));
        // Boundaries: 100, 200, then the trailing partial at 260.
        assert_eq!(tl.interval, 100);
        let c: Vec<u64> = tl.samples.iter().map(|x| x.cycle).collect();
        assert_eq!(c, vec![100, 200, 260]);
        assert_eq!(tl.samples[0].noc_msgs, 10);
        assert!((tl.samples[0].noc_peak_link_util - 0.5).abs() < 1e-12);
        assert!((tl.samples[0].aim_hit_rate - 0.8).abs() < 1e-12);
        assert_eq!(tl.samples[1].noc_msgs, 20);
        assert_eq!(tl.samples[1].noc_bytes, 1280);
        // Interval 2's AIM lookups: (10-8) hits + (10-2) misses.
        assert_eq!(tl.samples[1].aim_lookups, 10);
        assert!((tl.samples[1].aim_hit_rate - 0.2).abs() < 1e-12);
        // Trailing partial interval covers 60 cycles.
        assert_eq!(tl.samples[2].noc_msgs, 1);
        assert!((tl.samples[2].noc_peak_link_util - 2.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn sampler_emits_idle_intervals_for_skipped_boundaries() {
        let mut s = MetricsSampler::with_interval(10);
        s.tick(35, snap(5, 320, vec![7], 0, 0));
        let tl = s.finish(35, snap(5, 320, vec![7], 0, 0));
        let c: Vec<u64> = tl.samples.iter().map(|x| x.cycle).collect();
        assert_eq!(c, vec![10, 20, 30, 35], "trailing partial interval at end");
        assert_eq!(tl.samples[0].noc_msgs, 5, "delta lands on first boundary");
        assert_eq!(tl.samples[1].noc_msgs, 0);
        assert_eq!(tl.samples[2].noc_msgs, 0);
        assert_eq!(tl.samples[3].noc_msgs, 0);
    }

    #[test]
    fn sampler_output_is_deterministic() {
        let run = || {
            let mut s = MetricsSampler::with_interval(64);
            for i in 1..=20u64 {
                s.tick(i * 40, snap(i * 3, i * 100, vec![i * 7, i * 2], i, i / 2));
            }
            json::to_string(&s.finish(900, snap(70, 2100, vec![150, 45], 21, 10)))
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same inputs must give byte-identical timelines");
        assert!(a.contains("noc_peak_link_util"));
    }

    #[test]
    fn ndjson_footer_surfaces_drops() {
        let mut t = Tracer::with_capacity(2);
        for i in 0..5u64 {
            t.emit(ev(i, 0, EventKind::AimHit { line: i }));
        }
        let log = t.into_log();
        let footer = log.ndjson_footer();
        assert!(footer.ends_with('\n'));
        let v = JsonValue::parse(footer.trim()).unwrap();
        assert_eq!(v["event"], JsonValue::Str("trace_summary".into()));
        assert_eq!(v["drops"], JsonValue::UInt(3));
        assert_eq!(v["emitted"], JsonValue::UInt(5));
        assert_eq!(v["capacity"], JsonValue::UInt(2));
        // The footer is one line and is not part of the event stream.
        assert_eq!(footer.lines().count(), 1);
        assert_eq!(log.to_ndjson().lines().count(), 2);
    }
}
