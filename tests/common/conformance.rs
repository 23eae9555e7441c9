//! The conformance matrix: every engine delivers exactly the conflicts
//! the declarative oracle sees, on every cell of one list.
//!
//! A [`Cell`] is one run: a registry variant in a [`Mode`], on a core
//! count, running a [`Source`]'s program. [`cells`] builds the whole
//! list up front; [`conform`] runs one cell and checks every property
//! that holds on it. Its `props` bits name the properties that need a
//! twin run or hold only on some cells: they are the one place that
//! says which property is checked where. Each cell names the `#[test]`
//! that runs it; the root test files declare those tests with
//! [`shards!`], so `cargo test --test differential eviction` narrows a
//! failure, and each failure names its cell.

use super::{random_program, Shape, DENSE, EVICTION, SYNCED};
use rce::prelude::*;
use rce_common::json::to_value;
use rce_common::{JsonValue, LineGeometry, ObsConfig, MAX_CORES};
use rce_core::{find_variant, EngineVariant, REGISTRY};
use std::collections::HashSet;
use std::fmt;
use std::ops::Range;

/// A change to a variant's paper-default configuration. `Word` is the
/// default; `Line` detects, and the oracle observes, whole lines;
/// `Moesi` adds MOESI's dirty `O` state; `ArcReadOnly` keeps ARC's
/// read-only lines across region boundaries; `Aim16` has an AIM small
/// enough to spill constantly. All but `Word` change what an L1 line
/// holds, and so what the fast path reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    Word,
    Line,
    Moesi,
    ArcReadOnly,
    Aim16,
}

/// Where a cell's program comes from.
#[derive(Clone, Copy)]
pub enum Source {
    /// `random_program(seed, shape)`.
    Random(&'static Shape, u64),
    /// A named workload at (scale, seed).
    Workload(WorkloadSpec, u32, u64),
    /// A PARSEC workload at scale 1, seed 42, with four races injected.
    Injected(WorkloadSpec),
}

/// The fast-path matrix's workloads, chosen to stress it: genuine races
/// (conflicting repeats must re-detect), lock-protected ping-pong
/// (remote invalidations), false sharing (word-disjoint line
/// contention), and pipeline and streaming sharing with long private
/// runs.
const STRESS: [WorkloadSpec; 6] = [
    WorkloadSpec::RacyPair,
    WorkloadSpec::PingPong,
    WorkloadSpec::FalseSharing,
    WorkloadSpec::Canneal,
    WorkloadSpec::Dedup,
    WorkloadSpec::Streamcluster,
];

impl Source {
    fn program(self, cores: usize) -> Program {
        match self {
            Source::Random(shape, seed) => random_program(seed, shape),
            Source::Workload(w, scale, seed) => w.build(cores, scale, seed),
            Source::Injected(w) => {
                let mut p = w.build(cores, 1, 42);
                rce::trace::inject_races(&mut p, 4, 42).unwrap();
                p
            }
        }
    }
}

// The properties a cell checks beyond those every cell checks, as bits
// of `Cell::props`. All but `FORENSICS` need a twin run.

/// An `AbortOnFirst` twin stops iff the full run raises, and its one
/// exception is in the full run.
const ABORT: u8 = 1;
/// A Word-granularity twin's conflicts are all in this Line run's, by
/// (line, core, core).
const SUPERSET: u8 = 1 << 1;
/// The forensics totals equal `conflict_checks_hit`, and records plus
/// truncated records equal the delivered exceptions.
const FORENSICS: u8 = 1 << 2;
/// A fast-path-off twin renders identically. Both run with forensics
/// on, whose heatmaps count every re-detection, so a repeat that
/// wrongly skipped detection shows even when the exception set dedups
/// to the same answer.
const FASTPATH: u8 = 1 << 3;
/// `FASTPATH`, and a fast-path-forced-on twin also renders identically.
const FASTPATH_ON: u8 = 1 << 4;
/// A second run on the same machine renders identically.
const DETERMINISM: u8 = 1 << 5;
/// CE, CE+ and ARC deliver the same (word, core, core) set.
const SIBLINGS: u8 = 1 << 6;

#[derive(Clone, Copy)]
pub struct Cell {
    /// The `#[test]` that runs this cell.
    pub test: &'static str,
    pub variant: &'static EngineVariant,
    pub mode: Mode,
    pub cores: usize,
    pub source: Source,
    props: u8,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (v, mode, cores) = (self.variant.cli_name, self.mode, self.cores);
        write!(f, "{v} ({mode:?}) at {cores} cores on ")?;
        match self.source {
            Source::Random(shape, seed) => write!(f, "{} seed {seed}", shape.name),
            Source::Workload(w, scale, seed) => write!(f, "{w} scale {scale} seed {seed}"),
            Source::Injected(w) => write!(f, "{w} with injected races"),
        }
    }
}

/// `v`'s paper-default configuration at `cores`, changed by `mode`.
fn configure(v: &EngineVariant, mode: Mode, cores: usize) -> MachineConfig {
    let mut cfg = v.config(cores);
    match mode {
        Mode::Word => {}
        Mode::Line => cfg.granularity = DetectionGranularity::Line,
        Mode::Moesi => cfg.use_owned_state = true,
        Mode::ArcReadOnly => cfg.arc_readonly_sharing = true,
        Mode::Aim16 => cfg = cfg.with_aim_entries(16),
    }
    cfg
}

const DETECTORS: [&str; 3] = ["CE", "CE+", "ARC"];
/// CE+ on an ideal store, ARC on CE's DRAM table.
const CROSS: [&str; 2] = ["CE+ideal", "ARC-dram"];

/// Every protocol, the MESI baseline included.
const PROTOCOLS: [&str; 4] = ["MESI", "CE", "CE+", "ARC"];

/// The list under construction: each cell goes to the current `test`.
struct Cells {
    test: &'static str,
    out: Vec<Cell>,
}

impl Cells {
    /// One cell per variant in `names` per (cores, source).
    fn add<S>(&mut self, names: &[&str], mode: Mode, sources: S, props: u8)
    where
        S: IntoIterator<Item = (usize, Source)>,
    {
        for (cores, source) in sources {
            for name in names {
                self.out.push(Cell {
                    test: self.test,
                    variant: find_variant(name).unwrap(),
                    mode,
                    cores,
                    source,
                    props,
                });
            }
        }
    }
}

/// Random programs `seed ^ mask` of `shape`, each on as many cores as it
/// has threads (the seed's first draw).
fn random(shape: &'static Shape, seeds: Range<u64>, mask: u64) -> Vec<(usize, Source)> {
    let seeds = seeds.map(|seed| seed ^ mask);
    seeds
        .map(|seed| (shape.threads(seed), Source::Random(shape, seed)))
        .collect()
}

/// Each of `ws` at (scale, seed) on `cores` cores.
fn named<const N: usize>(
    cores: usize,
    ws: [WorkloadSpec; N],
    scale: u32,
    seed: u64,
) -> [(usize, Source); N] {
    ws.map(|w| (cores, Source::Workload(w, scale, seed)))
}

/// Every cell of the matrix, grouped by the `#[test]` that runs it. The
/// mode tests XOR-mask their dense seeds, so each sees 400 programs of
/// its own.
pub fn cells() -> Vec<Cell> {
    use Mode::*;
    use Source::*;
    use WorkloadSpec::*;
    let registry = REGISTRY.map(|v| v.cli_name);
    let mut c = Cells {
        test: "",
        out: Vec::new(),
    };

    // differential.rs: every detector on random, racy and PARSEC
    // programs; every variant on racy ones at 8 and 64 cores, where
    // every core owns a bit of the oracle's word masks.
    c.test = "small_fuzz_all_engines_match_oracle";
    c.add(&DETECTORS, Word, random(&DENSE, 0..1500, 0), 0);
    c.test = "eviction_heavy_fuzz_all_engines_match_oracle";
    c.add(&DETECTORS, Word, random(&EVICTION, 0..60, 0xbeef), 0);
    c.test = "cross_composition_variants_match_oracle";
    c.add(&CROSS, Word, random(&DENSE, 0..200, 0), 0);
    c.add(&CROSS, Word, random(&EVICTION, 0..20, 0xbeef), 0);
    let parsec = WorkloadSpec::PARSEC;
    c.test = "parsec_with_injected_races_matches_oracle";
    c.add(&DETECTORS, Word, parsec.map(|w| (8, Injected(w))), 0);
    c.test = "race_free_workloads_raise_nothing";
    let race_free = parsec.into_iter().filter(|w| !w.is_racy());
    let race_free = race_free.map(|w| (8, Workload(w, 1, 11)));
    c.add(&DETECTORS, Word, race_free, 0);
    c.test = "naturally_racy_workloads_match_oracle";
    c.add(&DETECTORS, Word, named(8, [Canneal, RacyPair], 1, 7), 0);
    c.test = "registry_variants_match_oracle_at_64_cores";
    let racy = named(MAX_CORES, [RacyPair, Canneal], 1, 42);
    c.add(&registry, Word, racy, 0);
    c.test = "report_lists_are_sorted_canonical_conflicts";
    for cores in [8, MAX_CORES] {
        let racy = named(cores, [RacyPair, Canneal, Streamcluster], 1, 42);
        c.add(&registry, Word, racy, ABORT);
    }
    c.test = "detection_is_independent_of_detector";
    c.add(&["CE"], Word, named(4, [RacyPair], 1, 3), SIBLINGS);

    // ablation_modes.rs: the Line, MOESI and ARC read-only modes.
    c.test = "line_granularity_matches_line_oracle";
    c.add(&DETECTORS, Line, random(&DENSE, 0..400, 0), 0);
    c.test = "line_granularity_is_superset_of_word";
    c.add(&["CE+"], Line, random(&DENSE, 0..400, 0x1111), SUPERSET);
    c.test = "arc_readonly_matches_oracle";
    c.add(&["ARC"], ArcReadOnly, random(&DENSE, 0..400, 0x5a5a), 0);
    c.test = "arc_readonly_matches_oracle_on_workloads";
    let read_shared = named(8, [Raytrace, Canneal, Streamcluster, RacyPair], 1, 42);
    c.add(&["ARC"], ArcReadOnly, read_shared, 0);
    c.test = "moesi_matches_oracle";
    c.add(&["CE", "CE+"], Moesi, random(&DENSE, 0..400, 0xabcd), 0);
    c.test = "moesi_matches_oracle_on_workloads";
    let migratory = named(8, [Canneal, Migratory, RacyPair, Dedup], 1, 42);
    c.add(&["CE", "CE+"], Moesi, migratory, 0);

    // fastpath_equiv.rs: every variant in every mode, and every
    // protocol on random synced programs, with the fast path off.
    for (test, mode) in [
        ("registry_variants_match_with_fastpath_off", Word),
        ("line_granularity_matches_with_fastpath_off", Line),
        ("moesi_matches_with_fastpath_off", Moesi),
        ("arc_readonly_matches_with_fastpath_off", ArcReadOnly),
        ("small_aim_matches_with_fastpath_off", Aim16),
    ] {
        c.test = test;
        for seed in [42, 7] {
            c.add(&registry, mode, named(4, STRESS, 2, seed), FASTPATH);
        }
    }
    c.test = "random_programs_match_with_fastpath_off";
    c.add(&PROTOCOLS, Word, random(&SYNCED, 0..24, 0), FASTPATH);
    c.test = "default_mode_matches_forced_modes";
    c.add(&["CE+"], Word, named(2, [RacyPair], 1, 7), FASTPATH_ON);

    // properties.rs: random synced programs.
    c.test = "engines_equal_oracle";
    c.add(&DETECTORS, Word, random(&SYNCED, 0..64, 0), 0);
    c.test = "baseline_never_raises";
    c.add(&["MESI"], Word, random(&SYNCED, 0..64, 0), 0);
    c.test = "simulation_deterministic";
    c.add(&["ARC"], Word, random(&SYNCED, 0..64, 0), DETERMINISM);
    c.test = "forensics_heatmaps_match_detector_counters";
    c.add(&DETECTORS, Word, random(&SYNCED, 0..32, 0), FORENSICS);

    // conformance.rs: every variant on the racy workloads at 32 cores
    // (the 4-core ones are the fast-path cells').
    for (test, w) in [
        ("racy_pair_at_32_cores", RacyPair),
        ("canneal_at_32_cores", Canneal),
    ] {
        c.test = test;
        for mode in [Word, Line] {
            c.add(&registry, mode, named(32, [w], 1, 42), 0);
        }
    }
    c.out
}

/// Fail with a formatted message unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// Sorted and unique by identity, canonical (`a`'s core below `b`'s),
/// a write on some side, and word-aligned.
fn well_formed(list: &[ConflictException], name: &str) -> Result<(), String> {
    for (i, x) in list.iter().enumerate() {
        let sorted = i == 0 || list[i - 1].key() < x.key();
        let aligned = x.word_addr.0 % LineGeometry::WORD_BYTES == 0;
        let canonical = x.a().core < x.b().core;
        ensure!(
            sorted && canonical && x.involves_write() && aligned,
            "{name}[{i}] {x}: sorted {sorted}, canonical {canonical}, aligned {aligned}"
        );
    }
    Ok(())
}

/// Exact equality of two JSON trees, so equal trees render to equal
/// bytes: unlike `JsonValue`'s `==`, a number only equals a number of
/// the same flavor and bits. Comparing the trees costs a fifth of
/// formatting them.
fn same(a: &JsonValue, b: &JsonValue) -> bool {
    use JsonValue::*;
    match (a, b) {
        (Array(x), Array(y)) => x.len() == y.len() && x.iter().zip(y).all(|(a, b)| same(a, b)),
        (Object(x), Object(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|((k, a), (l, b))| k == l && same(a, b))
        }
        (Float(x), Float(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

/// Run `cell` and check every property that holds on it.
pub fn conform(cell: &Cell) -> Result<(), String> {
    let program = cell.source.program(cell.cores);
    rce::trace::validate(&program).map_err(|e| format!("invalid program: {e}"))?;
    ensure!(program.n_threads() == cell.cores, "thread count");
    let cfg = configure(cell.variant, cell.mode, cell.cores);
    let has = |p| cell.props & p != 0;
    let obs = if has(FASTPATH | FASTPATH_ON | FORENSICS) {
        ObsConfig::FORENSICS
    } else {
        ObsConfig::default()
    };
    let machine = |cfg: &MachineConfig| Machine::new(cfg).unwrap().with_observability(obs);
    let run = |m: &Machine| m.run(&program).map_err(|e| e.to_string());
    let m = machine(&cfg);
    let r = run(&m)?;

    well_formed(&r.exceptions, "exceptions")?;
    well_formed(&r.oracle_conflicts, "oracle")?;
    if cell.variant.protocol == ProtocolKind::MesiBaseline {
        ensure!(r.exceptions.is_empty(), "MESI raised {}", r.exceptions[0]);
    } else if !r.matches_oracle() {
        let engine: HashSet<_> = r.exceptions.iter().map(|x| x.key()).collect();
        let oracle: HashSet<_> = r.oracle_conflicts.iter().map(|x| x.key()).collect();
        let missed: Vec<_> = oracle.difference(&engine).collect();
        let spurious: Vec<_> = engine.difference(&oracle).collect();
        let (e, o) = (engine.len(), oracle.len());
        return Err(format!(
            "engine={e} oracle={o} missed={missed:?} spurious={spurious:?}"
        ));
    }
    let conflicts = r.oracle_conflicts.len();
    match cell.source {
        Source::Workload(w, ..) if !w.is_racy() && cell.mode != Mode::Line => {
            let n = r.exceptions.len() + conflicts;
            ensure!(n == 0, "race-free, yet engine and oracle saw {n}");
        }
        Source::Workload(w, ..) if w.is_racy() && cell.cores == MAX_CORES => {
            ensure!(conflicts > 0, "racy, yet the oracle saw nothing");
            let top = r.oracle_conflicts.iter().map(|x| x.b().core).max();
            let top_ok = top == Some(CoreId(MAX_CORES as u16 - 1));
            ensure!(top_ok || w != WorkloadSpec::Canneal, "top core {top:?}");
        }
        _ => {}
    }

    if has(ABORT) {
        let first = m
            .run_with_policy(&program, ExceptionPolicy::AbortOnFirst)
            .map_err(|e| e.to_string())?;
        let stops = first.aborted != r.exceptions.is_empty();
        let one = first.exceptions.len() == usize::from(first.aborted);
        let got = &first.exceptions;
        let known = got.iter().all(|x| r.exceptions.binary_search(x).is_ok());
        ensure!(stops && one && known, "AbortOnFirst gave {got:?}");
    }
    if has(SUPERSET) {
        let mut word = cfg.clone();
        word.granularity = DetectionGranularity::Word;
        let line_key = |x: &ConflictException| (x.word_addr.line(), x.a().core, x.b().core);
        let lines: HashSet<_> = r.exceptions.iter().map(line_key).collect();
        for x in &run(&machine(&word))?.exceptions {
            ensure!(lines.contains(&line_key(x)), "{x} missing at Line");
        }
    }
    if obs.forensics {
        let f = r.forensics.as_ref().ok_or("forensics missing")?;
        let hits = r
            .engine_counters
            .iter()
            .find(|(k, _)| k == "conflict_checks_hit")
            .map_or(0, |(_, v)| *v);
        let totals = (f.total_detections, f.heatmap_total(), f.delivered);
        let want = (hits, hits, r.exceptions.len() as u64);
        ensure!(totals == want, "forensics totals {totals:?}, want {want:?}");
        let kept = f.records.len() as u64 + f.truncated_records;
        ensure!(kept == f.delivered, "records + truncated = {kept}");
    }
    let twins = [
        (FASTPATH | FASTPATH_ON, Some(false), "fast path off"),
        (FASTPATH_ON, Some(true), "fast path forced on"),
        (DETERMINISM, None, "a second run"),
    ];
    let mut mine = None;
    for (_, fastpath, what) in twins.into_iter().filter(|t| has(t.0)) {
        let twin = match fastpath {
            Some(on) => run(&machine(&cfg).with_fastpath(on))?,
            None => run(&m)?,
        };
        let mine = mine.get_or_insert_with(|| to_value(&r));
        ensure!(same(&to_value(&twin), mine), "report differs under {what}");
    }
    if has(SIBLINGS) {
        let set = |r: &SimReport| -> HashSet<_> {
            r.exceptions
                .iter()
                .map(|x| (x.word_addr, x.a().core, x.b().core))
                .collect()
        };
        for name in DETECTORS {
            let v = find_variant(name).unwrap();
            let twin = run(&machine(&configure(v, cell.mode, cell.cores)))?;
            ensure!(set(&twin) == set(&r), "{name} detects a different set");
        }
    }
    Ok(())
}

/// Run every cell of the `#[test]` `name`; fail naming the first
/// failing cells. A panic in the simulator fails its cell with the
/// panic's message.
pub fn shard(name: &str) {
    let cells: Vec<Cell> = cells().into_iter().filter(|c| c.test == name).collect();
    assert!(!cells.is_empty(), "shard {name} has no cells");
    let failures: Vec<String> = cells
        .iter()
        .filter_map(|c| {
            let result = std::panic::catch_unwind(|| conform(c)).unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied());
                Err(format!("panicked: {}", msg.unwrap_or("?")))
            });
            result.err().map(|e| format!("{c}: {e}"))
        })
        .collect();
    let shown = failures[..failures.len().min(20)].join("\n");
    let (n, total) = (failures.len(), cells.len());
    assert!(n == 0, "{n} of {total} fail:\n{shown}");
}

/// One `#[test]` per name, each running the cells that name it.
macro_rules! shards {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                $crate::common::conformance::shard(stringify!($name));
            }
        )*
    };
}
pub(crate) use shards;
