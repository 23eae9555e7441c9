//! Structured simulation observability: event tracing and interval
//! metrics.
//!
//! Three gated layers, all hermetic and std-only:
//!
//! 1. **Event tracing** — a bounded ring-buffer [`Tracer`] records
//!    typed [`SimEvent`]s (region boundaries, coherence messages,
//!    cache evictions, AIM activity, DRAM accesses, self-invalidation,
//!    conflict exceptions) with cycle timestamps and
//!    core/region/address provenance, filterable by core, address
//!    range, and event class. The finished [`TraceLog`] exports as
//!    NDJSON or as Chrome `trace_event` JSON (loadable in
//!    `chrome://tracing` / Perfetto).
//! 2. **Interval metrics** — a [`MetricsSampler`] turns cumulative
//!    gauge snapshots ([`GaugeSnapshot`]) into a per-interval
//!    time-series ([`MetricsTimeline`]): NoC link utilization and
//!    queueing, AIM hit rate, DRAM bandwidth and queueing, exception
//!    counts.
//! 3. **Configuration** — [`ObsConfig`] gates both layers. The default
//!    is fully off; a simulation run with observability off must be
//!    *byte-identical* to one that never linked this module (the
//!    zero-overhead contract — hooks are `Option` checks only, and no
//!    event is even constructed unless a tracer wants its class).
//!
//! Everything here is deterministic: the same simulated execution
//! produces the same events and the same timeline, byte for byte.

use crate::json::{self, JsonValue, ToJson};
use crate::{impl_json_struct, impl_json_unit_enum};
use std::collections::VecDeque;

/// Default ring-buffer capacity (events kept) when not specified.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// A shared handle to one run's tracer. The simulator hands clones to
/// the NoC, the DRAM controller, and the engine substrate so each can
/// emit events into the same ring; a run is single-threaded, so
/// `Rc<RefCell<_>>` suffices and keeps the disabled path to a single
/// `Option` check.
pub type SharedTracer = std::rc::Rc<std::cell::RefCell<Tracer>>;

/// Wrap a tracer for sharing across simulator components.
pub fn shared_tracer(t: Tracer) -> SharedTracer {
    std::rc::Rc::new(std::cell::RefCell::new(t))
}

// ---------------------------------------------------------------------------
// Event taxonomy
// ---------------------------------------------------------------------------

/// Coarse event classes, the unit of filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventClass {
    /// Region begin/end.
    Region,
    /// Committed program memory accesses.
    Access,
    /// Coherence / NoC messages.
    Coherence,
    /// L1 and LLC evictions.
    Cache,
    /// AIM hits, misses, spills.
    Aim,
    /// Off-chip DRAM accesses.
    Dram,
    /// ARC self-invalidation at region boundaries.
    SelfInv,
    /// Conflict exceptions delivered to the program.
    Conflict,
}

impl_json_unit_enum!(EventClass {
    Region,
    Access,
    Coherence,
    Cache,
    Aim,
    Dram,
    SelfInv,
    Conflict,
});

impl EventClass {
    /// All classes, display order.
    pub const ALL: [EventClass; 8] = [
        EventClass::Region,
        EventClass::Access,
        EventClass::Coherence,
        EventClass::Cache,
        EventClass::Aim,
        EventClass::Dram,
        EventClass::SelfInv,
        EventClass::Conflict,
    ];

    /// Short category name (used as `cat` in Chrome traces).
    pub fn name(self) -> &'static str {
        match self {
            EventClass::Region => "region",
            EventClass::Access => "access",
            EventClass::Coherence => "coh",
            EventClass::Cache => "cache",
            EventClass::Aim => "aim",
            EventClass::Dram => "dram",
            EventClass::SelfInv => "selfinv",
            EventClass::Conflict => "conflict",
        }
    }
}

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
        class: String,
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
        kind: String,
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
        kinds: String,
    },
}

impl EventKind {
    /// The class this kind belongs to.
    pub fn class(&self) -> EventClass {
        match self {
            EventKind::RegionBegin | EventKind::RegionEnd { .. } => EventClass::Region,
            EventKind::MemAccess { .. } => EventClass::Access,
            EventKind::CohMsg { .. } => EventClass::Coherence,
            EventKind::L1Evict { .. } | EventKind::LlcEvict { .. } => EventClass::Cache,
            EventKind::AimHit { .. } | EventKind::AimMiss { .. } | EventKind::AimSpill { .. } => {
                EventClass::Aim
            }
            EventKind::DramAccess { .. } => EventClass::Dram,
            EventKind::SelfInvalidate { .. } => EventClass::SelfInv,
            EventKind::Conflict { .. } => EventClass::Conflict,
        }
    }

    /// Export name.
    pub fn name(&self) -> &'static str {
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

    /// Byte-address span `[lo, hi)` this event touches, if it has one
    /// (used by address-range filters).
    pub fn addr_span(&self) -> Option<(u64, u64)> {
        let line_span = |l: u64| Some((l * 64, l * 64 + 64));
        match self {
            EventKind::MemAccess { addr, .. } => Some((*addr, addr + 8)),
            EventKind::L1Evict { line, .. }
            | EventKind::LlcEvict { line, .. }
            | EventKind::AimHit { line }
            | EventKind::AimMiss { line, .. }
            | EventKind::AimSpill { line }
            | EventKind::DramAccess { line, .. } => line_span(*line),
            EventKind::Conflict { word, .. } => Some((word * 8, word * 8 + 8)),
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

    fn from_name_and_fields(name: &str, v: &JsonValue) -> Result<EventKind, String> {
        fn f<T: json::FromJson>(v: &JsonValue, k: &str) -> Result<T, String> {
            T::from_json(v.field(k)?)
        }
        Ok(match name {
            "region_begin" => EventKind::RegionBegin,
            "region_end" => EventKind::RegionEnd {
                cost: f(v, "cost")?,
            },
            "mem_access" => EventKind::MemAccess {
                addr: f(v, "addr")?,
                write: f(v, "write")?,
                exceptions: f(v, "exceptions")?,
            },
            "coh_msg" => EventKind::CohMsg {
                class: f(v, "class")?,
                src: f(v, "src")?,
                dst: f(v, "dst")?,
                bytes: f(v, "bytes")?,
            },
            "l1_evict" => EventKind::L1Evict {
                line: f(v, "line")?,
                dirty: f(v, "dirty")?,
            },
            "llc_evict" => EventKind::LlcEvict {
                line: f(v, "line")?,
                dirty: f(v, "dirty")?,
            },
            "aim_hit" => EventKind::AimHit {
                line: f(v, "line")?,
            },
            "aim_miss" => EventKind::AimMiss {
                line: f(v, "line")?,
                refilled: f(v, "refilled")?,
            },
            "aim_spill" => EventKind::AimSpill {
                line: f(v, "line")?,
            },
            "dram_access" => EventKind::DramAccess {
                kind: f(v, "kind")?,
                line: f(v, "line")?,
                bytes: f(v, "bytes")?,
            },
            "self_invalidate" => EventKind::SelfInvalidate {
                lines: f(v, "lines")?,
            },
            "conflict" => EventKind::Conflict {
                word: f(v, "word")?,
                other_core: f(v, "other_core")?,
                kinds: f(v, "kinds")?,
            },
            other => return Err(format!("unknown event kind '{other}'")),
        })
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

impl json::FromJson for SimEvent {
    fn from_json(v: &JsonValue) -> Result<Self, String> {
        let name = String::from_json(v.field("event")?)?;
        Ok(SimEvent {
            cycle: json::FromJson::from_json(v.field("cycle")?)?,
            core: json::FromJson::from_json(v.field("core")?)?,
            region: json::FromJson::from_json(v.field("region")?)?,
            kind: EventKind::from_name_and_fields(&name, v)?,
        })
    }
}

// ---------------------------------------------------------------------------
// Tracer: filter + bounded ring buffer
// ---------------------------------------------------------------------------

/// Which events a tracer keeps. `None` dimensions accept everything.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceFilter {
    /// Keep only events from these cores (events without a core
    /// provenance are rejected when set).
    pub cores: Option<Vec<u16>>,
    /// Keep only events whose address span overlaps `[lo, hi)` (events
    /// without an address are rejected when set).
    pub addr_range: Option<(u64, u64)>,
    /// Keep only these event classes.
    pub classes: Option<Vec<EventClass>>,
}

impl TraceFilter {
    /// Would an event of class `c` pass the class dimension? Cheap
    /// pre-check so call sites can skip building rejected events.
    pub fn wants_class(&self, c: EventClass) -> bool {
        self.classes.as_ref().map_or(true, |v| v.contains(&c))
    }

    /// Full filter decision for a built event.
    pub fn accepts(&self, ev: &SimEvent) -> bool {
        if !self.wants_class(ev.kind.class()) {
            return false;
        }
        if let Some(cores) = &self.cores {
            match ev.core {
                Some(c) if cores.contains(&c) => {}
                _ => return false,
            }
        }
        if let Some((lo, hi)) = self.addr_range {
            match ev.kind.addr_span() {
                Some((a, b)) if a < hi && b > lo => {}
                _ => return false,
            }
        }
        true
    }
}

/// Tracer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Ring-buffer capacity: the newest `capacity` accepted events are
    /// kept; older ones are dropped (and counted).
    pub capacity: usize,
    /// Event filter.
    pub filter: TraceFilter,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: DEFAULT_TRACE_CAPACITY,
            filter: TraceFilter::default(),
        }
    }
}

/// A bounded ring buffer of accepted events. When full, the *oldest*
/// event is dropped and `drops` is incremented — overflow is always
/// surfaced, never silent.
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    filter: TraceFilter,
    events: VecDeque<SimEvent>,
    emitted: u64,
    drops: u64,
}

impl Tracer {
    /// Build from configuration (capacity is clamped to at least 1).
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            capacity: cfg.capacity.max(1),
            filter: cfg.filter,
            events: VecDeque::new(),
            emitted: 0,
            drops: 0,
        }
    }

    /// Cheap class pre-check: should the call site bother building an
    /// event of this class?
    #[inline]
    pub fn wants(&self, class: EventClass) -> bool {
        self.filter.wants_class(class)
    }

    /// Offer an event; it is kept if the filter accepts it.
    pub fn emit(&mut self, ev: SimEvent) {
        if !self.filter.accepts(&ev) {
            return;
        }
        self.emitted += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.drops += 1;
        }
        self.events.push_back(ev);
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was kept.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Accepted events that fell off the ring.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// The retained events, oldest first (the forensics layer walks
    /// these backward to build per-conflict recent-event windows).
    pub fn events(&self) -> std::collections::vec_deque::Iter<'_, SimEvent> {
        self.events.iter()
    }

    /// Total events accepted by the filter (kept + dropped).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Drain into an exportable log (the tracer is left empty but
    /// keeps filtering, so shared holders stay valid).
    pub fn take_log(&mut self) -> TraceLog {
        TraceLog {
            capacity: self.capacity as u64,
            emitted: self.emitted,
            drops: self.drops,
            events: std::mem::take(&mut self.events).into(),
        }
    }
}

/// The finished trace: everything the ring retained, plus overflow
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Ring capacity the trace ran with.
    pub capacity: u64,
    /// Events accepted by the filter (kept + dropped).
    pub emitted: u64,
    /// Accepted events dropped to overflow (oldest-first).
    pub drops: u64,
    /// Retained events, oldest first.
    pub events: Vec<SimEvent>,
}

impl_json_struct!(TraceLog {
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
            fields.push(("cat".into(), JsonValue::Str(ev.kind.class().name().into())));
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

impl_json_struct!(IntervalSample {
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

impl_json_struct!(MetricsTimeline { interval, samples });

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

impl MetricsSampler {
    /// Build a sampler with the given interval (clamped to at least 1).
    pub fn new(interval: u64) -> Self {
        let interval = interval.max(1);
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

/// Conflict-forensics capture configuration. The collector itself
/// lives in `rce_core::forensics`; this gate lives here so `ObsConfig`
/// stays the single switchboard for every observability layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ForensicsConfig {
    /// Recent trace events retained per provenance record (the window
    /// of events touching the conflicting line, newest last).
    pub recent_window: usize,
    /// Full provenance records retained per run; later deliveries
    /// still feed the heatmaps but are counted as truncated.
    pub max_records: usize,
}

impl Default for ForensicsConfig {
    fn default() -> Self {
        ForensicsConfig {
            recent_window: 8,
            max_records: 1024,
        }
    }
}

/// Gate for the whole subsystem. The default is fully off; a run with
/// the default config is byte-identical to one before this module
/// existed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsConfig {
    /// Event tracing, if enabled.
    pub trace: Option<TraceConfig>,
    /// Metrics sampling interval in cycles, if enabled.
    pub sample_interval: Option<u64>,
    /// Conflict forensics (provenance records + heatmaps), if enabled.
    pub forensics: Option<ForensicsConfig>,
}

impl ObsConfig {
    /// True if any layer is on.
    pub fn is_enabled(&self) -> bool {
        self.trace.is_some() || self.sample_interval.is_some() || self.forensics.is_some()
    }

    /// Everything on: unfiltered tracing at the default capacity,
    /// sampling at `interval`, and default-bounded forensics.
    pub fn full(interval: u64) -> ObsConfig {
        ObsConfig {
            trace: Some(TraceConfig::default()),
            sample_interval: Some(interval),
            forensics: Some(ForensicsConfig::default()),
        }
    }

    /// Forensics only: provenance records and heatmaps without an
    /// exported trace or timeline (what `paper explain` runs with).
    pub fn forensics_only() -> ObsConfig {
        ObsConfig {
            forensics: Some(ForensicsConfig::default()),
            ..ObsConfig::default()
        }
    }
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
        let mut t = Tracer::new(TraceConfig {
            capacity: 4,
            ..TraceConfig::default()
        });
        for i in 0..10u64 {
            t.emit(ev(i, 0, EventKind::AimHit { line: i }));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.drops(), 6, "drops must be counted, never silent");
        assert_eq!(t.emitted(), 10);
        let log = t.take_log();
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
    fn filters_by_core_class_and_addr() {
        let mut t = Tracer::new(TraceConfig {
            capacity: 64,
            filter: TraceFilter {
                cores: Some(vec![1]),
                addr_range: Some((64, 128)), // line 1 only
                classes: Some(vec![EventClass::Aim]),
            },
        });
        t.emit(ev(0, 1, EventKind::AimHit { line: 1 })); // kept
        t.emit(ev(1, 0, EventKind::AimHit { line: 1 })); // wrong core
        t.emit(ev(2, 1, EventKind::AimHit { line: 9 })); // wrong addr
        t.emit(ev(
            3,
            1,
            EventKind::L1Evict {
                line: 1,
                dirty: false,
            },
        )); // wrong class
        assert_eq!(t.len(), 1);
        assert_eq!(t.emitted(), 1, "filtered events are not 'accepted'");
        assert_eq!(t.drops(), 0);
    }

    #[test]
    fn ndjson_lines_parse_back() {
        let mut t = Tracer::new(TraceConfig::default());
        t.emit(ev(5, 2, EventKind::RegionBegin));
        t.emit(ev(
            9,
            2,
            EventKind::Conflict {
                word: 77,
                other_core: 3,
                kinds: "W/R".into(),
            },
        ));
        let log = t.take_log();
        let nd = log.to_ndjson();
        let lines: Vec<&str> = nd.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = JsonValue::parse(line).expect("NDJSON line must parse");
            assert!(v.get("cycle").is_some());
            assert!(v.get("event").is_some());
        }
        // Full struct round-trip, too.
        let back: TraceLog = json::from_str(&json::to_string(&log)).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn chrome_trace_shape() {
        let mut t = Tracer::new(TraceConfig::default());
        t.emit(ev(0, 1, EventKind::RegionBegin));
        t.emit(ev(
            4,
            1,
            EventKind::CohMsg {
                class: "data".into(),
                src: 0,
                dst: 3,
                bytes: 80,
            },
        ));
        t.emit(ev(10, 1, EventKind::RegionEnd { cost: 6 }));
        let log = t.take_log();
        let v = log.to_chrome_trace();
        let evs = v["traceEvents"].as_array().unwrap();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0]["ph"], JsonValue::Str("B".into()));
        assert_eq!(evs[1]["ph"], JsonValue::Str("i".into()));
        assert_eq!(evs[2]["ph"], JsonValue::Str("E".into()));
        assert_eq!(evs[0]["tid"], JsonValue::UInt(1));
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
        let mut s = MetricsSampler::new(100);
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
        let mut s = MetricsSampler::new(10);
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
            let mut s = MetricsSampler::new(64);
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
    fn obs_config_gating() {
        assert!(!ObsConfig::default().is_enabled());
        assert!(ObsConfig::full(1000).is_enabled());
        assert!(ObsConfig {
            trace: None,
            sample_interval: Some(5),
            forensics: None,
        }
        .is_enabled());
        let f = ObsConfig::forensics_only();
        assert!(f.is_enabled());
        assert!(f.trace.is_none() && f.sample_interval.is_none());
        assert!(ObsConfig::full(1000).forensics.is_some());
    }

    #[test]
    fn ndjson_footer_surfaces_drops() {
        let mut t = Tracer::new(TraceConfig {
            capacity: 2,
            ..TraceConfig::default()
        });
        for i in 0..5u64 {
            t.emit(ev(i, 0, EventKind::AimHit { line: i }));
        }
        let log = t.take_log();
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
