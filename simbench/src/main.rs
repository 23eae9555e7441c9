//! `rce-simbench`: the RCE simulator's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! rce-simbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process, one client, closed loop: each pass starts when the
//! previous one ends. `--trace 0` times passes of the workload and
//! prints the end-to-end metrics; `--trace 1` is the separate traced
//! run that prints the per-layer metrics. Every report a pass produces
//! is checked, and the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The metric
//! names and units printed must be exactly those `BENCHMARK.json`
//! lists; a mismatch is a benchmark bug and exits 1 without a result.
//! See README.md for the workloads and what each metric should move.

mod heap;
mod replay;
mod single;
mod sweep;

use rce_common::json::{self, JsonValue};
use std::hint::black_box;
use std::time::Instant;

/// The workload seed when `--seed` is not given; the committed report
/// digests are taken at this seed.
pub const DEFAULT_SEED: u64 = 42;

/// Simulated cores on every workload.
pub const CORES: usize = 32;

/// Timed passes per plain run, at least, whatever `--seconds` says.
pub const MIN_PASSES: usize = 3;

/// Repetitions of each A/B side in a traced run.
pub const TRACED_REPS: usize = 3;

/// The parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed passes in a plain run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: rce-simbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        workload_names().join("|")
    );
    std::process::exit(2);
}

fn workload_names() -> Vec<&'static str> {
    single::SINGLES
        .iter()
        .map(|s| s.name)
        .chain([sweep::NAME])
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let val = argv.get(i + 1).unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = val.parse::<u64>().unwrap_or_else(|_| usage()) as f64;
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    if !workload_names().contains(&args.workload.as_str()) || args.seconds < 1.0 {
        usage();
    }
    args
}

/// A run's outcome, or the error that stopped it before it could
/// report.
pub type RunResult = Result<Outcome, Box<dyn std::error::Error>>;

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    /// Checks attempted (passes, replays, A/B runs).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Metrics in print order: name, value, unit.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Count one checked result; a failure is reported on stderr.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            eprintln!("FAILED {what}: {e}");
        }
    }

    /// Add one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }
}

/// Median seconds of `reps` calls of `f`.
pub fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a, the digest the committed report values use.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    /// The FNV offset basis.
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feed bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Compare a digest with the value committed in `digests.txt`.
pub fn check_digest(key: &str, got: &str) -> Result<(), String> {
    let want = include_str!("../digests.txt")
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.trim());
    match want {
        Some(w) if w == got => Ok(()),
        Some(w) => Err(format!("digest of {key} is {got}, committed value is {w}")),
        None => Err(format!("no committed digest for {key} (computed {got})")),
    }
}

/// The probe's time on a quiet host (the VM the workloads' pass times
/// in README.md come from). Host times are reported at this machine
/// speed; the value only sets the scale, not the spread.
pub const PROBE_REF_MS: f64 = 20.0;

/// Slots of the probe's table (1 MiB of `u32`): half a core's L2.
const PROBE_SLOTS: usize = 1 << 18;

/// The machine-speed probe: a fixed cache-bound kernel from this
/// package. It makes independent random read-modify-writes with a
/// data-dependent branch over an L2-sized table, so its time moves with
/// what slows the simulator on a shared host: co-tenants contending for
/// the core and its caches, not only for the CPU. Beside the simulator
/// it tracked pass times better than a dependent integer chain or the
/// same kernel over a last-level-cache- or DRAM-sized table (README.md
/// has the figures). No change to the simulator moves the probe, so a
/// change moves a rescaled time by the same factor as the measured one.
/// It is not reported as a metric.
pub struct Probe {
    table: Vec<u32>,
    /// Every reading in milliseconds, in order.
    readings: Vec<f64>,
}

impl Probe {
    /// Allocate and touch the table.
    pub fn new() -> Self {
        Probe {
            table: (0..PROBE_SLOTS as u32).collect(),
            readings: Vec::new(),
        }
    }

    /// Run the kernel once and keep its milliseconds.
    pub fn read(&mut self) -> f64 {
        let t = Instant::now();
        self.rmw(2_000_000);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.readings.push(ms);
        ms
    }

    fn rmw(&mut self, n: usize) {
        let mask = PROBE_SLOTS - 1;
        let (mut a, mut b) = (0x9e37_79b9_7f4a_7c15u64, 0x2545_f491_4f6c_dd1du64);
        for _ in 0..n {
            a ^= a << 13;
            a ^= a >> 7;
            a ^= a << 17;
            b = b
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            let v = self.table[a as usize & mask];
            let j = (b >> 20) as usize & mask;
            if v & 1 == 0 {
                self.table[j] = self.table[j].wrapping_add(v);
            } else {
                self.table[j] ^= v;
            }
        }
        black_box(&self.table);
    }
}

/// Set-ups timed in each gap, at least.
pub const SETUPS_PER_GAP: usize = 5;
/// Seconds of set-ups in each gap, at least.
pub const SETUP_SECONDS_PER_GAP: f64 = 0.03;

/// A boxed error, as the timing loop passes them on.
pub type BoxError = Box<dyn std::error::Error>;

/// The timing of passes, split into segments by gaps. A pass times its
/// work with [`Gaps::timed`] and may open gaps inside itself with
/// [`Gaps::gap`]; each gap runs a batch of timed set-ups and then reads
/// the probe. A segment is rescaled to [`PROBE_REF_MS`] by the mean of
/// the readings that open and close it, and a set-up by the reading that
/// closes its gap, so each host time is measured against the host's
/// speed at that moment.
pub struct Gaps<'a> {
    probe: Probe,
    setup: Box<dyn FnMut() -> Result<f64, BoxError> + 'a>,
    setups: Vec<f64>,
    scaled_setups: Vec<f64>,
    /// The probe reading that opened the current segment.
    opened: f64,
    /// Timed seconds of the current segment.
    segment: f64,
    /// Timed seconds of the current pass, raw and rescaled.
    pass: (f64, f64),
    /// Peak heap MiB of each piece of timed work.
    heap_peaks: Vec<f64>,
}

impl Gaps<'_> {
    /// Run `f` as timed work of the current segment, and keep the peak
    /// heap in use while it ran.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        heap::reset_peak();
        let t = Instant::now();
        let r = f();
        self.segment += t.elapsed().as_secs_f64();
        self.heap_peaks.push(heap::peak_mb());
        r
    }

    /// Time [`SETUPS_PER_GAP`] set-ups (and at least
    /// [`SETUP_SECONDS_PER_GAP`] of them), read the probe, rescale the
    /// set-ups and the segment the reading closes, and open the next
    /// segment. Returns the gap's seconds.
    pub fn gap(&mut self) -> Result<f64, BoxError> {
        let t = Instant::now();
        let first = self.setups.len();
        while self.setups.len() - first < SETUPS_PER_GAP
            || t.elapsed().as_secs_f64() < SETUP_SECONDS_PER_GAP
        {
            self.setups.push((self.setup)()?);
        }
        let reading = self.probe.read();
        let scaled = self.setups[first..]
            .iter()
            .map(|s| s * PROBE_REF_MS / reading);
        self.scaled_setups.extend(scaled);
        self.pass.0 += self.segment;
        self.pass.1 += self.segment * PROBE_REF_MS * 2.0 / (self.opened + reading);
        self.opened = reading;
        self.segment = 0.0;
        Ok(t.elapsed().as_secs_f64())
    }
}

/// Time back-to-back passes for `seconds` (at least [`MIN_PASSES`]) and
/// report the end-to-end metrics: `wall_s` and `setup_s` are the
/// medians of the rescaled pass and set-up times (see [`Gaps`]),
/// `ns_per_access` is `wall_s` per access, and `peak_heap_mb` is the
/// median over the pieces of timed work of the peak heap in use during
/// each (a simulation on a single-simulation workload; the base sweep or
/// one experiment on `paper-sweep`). A gap comes before each pass
/// and after the last. `pass` runs and checks one pass, timing only the
/// simulator's work; `setup` repeats the workload's set-up and returns
/// its seconds.
pub fn timed_passes<'a>(
    out: &mut Outcome,
    seconds: f64,
    accesses: f64,
    setup: impl FnMut() -> Result<f64, BoxError> + 'a,
    mut pass: impl FnMut(&mut Outcome, &mut Gaps<'a>) -> Result<(), BoxError>,
) -> Result<(), BoxError> {
    let mut gaps = Gaps {
        probe: Probe::new(),
        setup: Box::new(setup),
        setups: Vec::new(),
        scaled_setups: Vec::new(),
        opened: 0.0,
        segment: 0.0,
        pass: (0.0, 0.0),
        heap_peaks: Vec::new(),
    };
    let (mut walls, mut scaled_walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    gaps.gap()?;
    // Stop before a pass that would likely end past `seconds`, so a run
    // lasts about `seconds` however long its passes are.
    let mut last = 0.0;
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() + last < seconds {
        let t = Instant::now();
        gaps.pass = (0.0, 0.0);
        pass(out, &mut gaps)?;
        gaps.gap()?;
        walls.push(gaps.pass.0);
        scaled_walls.push(gaps.pass.1);
        last = t.elapsed().as_secs_f64();
    }
    let r = &gaps.probe.readings;
    eprintln!(
        "machine-speed probe: median {:.2} ms, min {:.2}, max {:.2} over {} reads; \
         {} passes, {} set-ups",
        median(r),
        r.iter().copied().fold(f64::INFINITY, f64::min),
        r.iter().copied().fold(0.0, f64::max),
        r.len(),
        walls.len(),
        gaps.setups.len()
    );
    eprintln!(
        "unscaled medians: pass {:.6} s, set-up {:.6} s",
        median(&walls),
        median(&gaps.setups)
    );
    let wall = median(&scaled_walls);
    out.metric("wall_s", wall, "s");
    out.metric("ns_per_access", wall * 1e9 / accesses, "ns");
    out.metric("setup_s", median(&gaps.scaled_setups), "s");
    out.metric("peak_heap_mb", median(&gaps.heap_peaks), "MiB");
    Ok(())
}

/// The metric names and units `BENCHMARK.json` lists for this mode.
fn listed_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("BENCHMARK.json: malformed `{key}` entry"))
        })
        .collect()
}

fn main() {
    // Free one large block first: glibc then raises its dynamic mmap and
    // trim thresholds, as a simulator process does anyway after its first
    // large free. Without this, repeated millisecond set-ups either reuse
    // freed memory or fault in fresh pages, depending on the process, and
    // their median jumps between two modes from one run to the next.
    drop(black_box(Vec::<u8>::with_capacity(24 << 20)));
    let args = parse_args();
    let listed = listed_metrics(args.trace).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let outcome = if args.workload == sweep::NAME {
        sweep::run(&args)
    } else {
        let w = single::SINGLES
            .iter()
            .find(|s| s.name == args.workload)
            .expect("parse_args accepted the name");
        w.run(&args)
    };
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("{}: {e}", args.workload);
        std::process::exit(1);
    });

    let emitted: Vec<(String, String)> = outcome
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect();
    let (mut a, mut b) = (emitted.clone(), listed.clone());
    a.sort();
    b.sort();
    if a != b {
        eprintln!(
            "metrics emitted do not match BENCHMARK.json:\n  emitted: {emitted:?}\n  listed:  {listed:?}"
        );
        std::process::exit(1);
    }

    for (n, v, u) in &outcome.metrics {
        eprintln!("  {n:<32} {v:>16.6} {u}");
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|(n, v, u)| {
            let obj = JsonValue::Object(vec![
                ("value".into(), JsonValue::Float(*v)),
                ("unit".into(), JsonValue::Str(u.to_string())),
            ]);
            (n.clone(), obj)
        })
        .collect();
    let line = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(outcome.failed == 0)),
        ("attempted".into(), JsonValue::UInt(outcome.attempted)),
        ("failed".into(), JsonValue::UInt(outcome.failed)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ]);
    println!("{}", json::to_string(&line));
}
