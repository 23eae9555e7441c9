//! `paper` — regenerate the paper's tables and figures, and run,
//! replay or export single simulations.
//!
//! ```text
//! paper all                      # every experiment
//! paper fig-runtime              # one experiment
//! paper table2 --cores 16 --scale 2 --seed 7 --jobs 8
//! paper list                     # experiments, workloads and engines
//! paper report canneal CE+ideal  # one run -> SimReport JSON on stdout
//! paper trace ping_pong CE+      # one traced run -> Chrome trace JSON
//! paper dump canneal --cores 8 --races 4 --out c.json  # program -> JSON
//! paper explain c.json ARC       # replay a dumped program
//! paper diff a.json b.json       # structural drift between two reports
//! paper trajectory               # fast-path and forensics ratio gates
//! ```
//!
//! Each experiment prints its text table and writes machine-readable
//! rows to `results/<id>.json` (used by EXPERIMENTS.md). `trace` runs
//! one simulation with full observability on and writes
//! `results/trace-<workload>-<engine>.json` (Chrome `trace_event`
//! format, loadable in Perfetto / `chrome://tracing`) plus a `.ndjson`
//! event log, then re-runs with observability off and fails loudly if
//! instrumentation perturbed the simulation.
//!
//! `dump` writes a workload's program (every operation of every
//! thread) as JSON. `report`, `explain` and `trace` take a workload
//! name or such a file, so any tool that emits the same JSON shape can
//! drive every engine. A trace file fixes the program: the machine
//! takes its thread count, and `--cores`, `--scale`, `--seed` and
//! `--races` apply to workloads only.
//!
//! Bad input (an unknown name, an unreadable or invalid trace file, an
//! out-of-range flag) exits 2; a run the model fails exits 1. Standard
//! output goes through [`emit`]: a reader that stops early (`paper
//! report canneal CE+ | head`) ends the program quietly, with exit 0
//! unless the command had already failed (`summary`, `diff`).

use rce_bench::{
    diff::{diff_values, parse_tolerance},
    figures::{base_sweep, HEATMAP_TOP_K},
    hotpath, profile, simulate, EvalParams, Experiment, RunKey,
};
use rce_common::{json, MachineConfig, ObsConfig, RceResult, MAX_CORES};
use rce_core::{find_variant, AccessType, EngineVariant, SimReport, REGISTRY};
use rce_trace::{characterize, Program, WorkloadSpec};
use std::io::{self, Write};

fn engine_names() -> String {
    REGISTRY
        .iter()
        .map(|v| v.cli_name)
        .collect::<Vec<_>>()
        .join(", ")
}

fn experiment_names(catalog: &[Experiment]) -> String {
    catalog
        .iter()
        .map(|e| e.name())
        .collect::<Vec<_>>()
        .join(", ")
}

fn usage() -> ! {
    eprintln!(
        "usage: paper <experiment|all|ablations|summary|list> [--cores N] [--scale N] [--seed N] \
         [--jobs N] [--out DIR]\n       paper report|explain|trace <workload|trace.json> <engine> \
         [--cores N] [--scale N] [--seed N] [--races N] [--out DIR]\n       \
         paper dump <workload> [--cores N] [--scale N] [--seed N] [--races N] [--out FILE]\n       \
         paper diff <a.json> <b.json> [--tolerance PCT]\n       \
         paper trajectory\nexperiments: {} (table3, and so all, needs --cores 2 \
         or more: it injects races between threads)\n\
         ablations: {}\nengines: {}\n\
         a trace file from `paper dump` sets its own program and core count",
        experiment_names(&Experiment::ALL),
        experiment_names(&Experiment::ABLATIONS),
        engine_names()
    );
    std::process::exit(2);
}

/// Print `msg` and exit 2: bad input, not a failed run.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Write to a locked standard output with `print`, then flush it. A
/// closed pipe ends the program at once, without a message, with exit
/// code `closed`: the reader has all it wanted, so that is the code
/// the command would have ended with. Any other write error exits 2.
fn emit(closed: i32, print: impl FnOnce(&mut io::StdoutLock<'static>) -> io::Result<()>) {
    let mut out = io::stdout().lock();
    if let Err(e) = print(&mut out).and_then(|()| out.flush()) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(closed);
        }
        fail(&format!("cannot write to standard output: {e}"));
    }
}

/// The report of a run that succeeded; otherwise print that `run`
/// failed, with the machine's error, and exit 1.
fn report_or_exit(run: impl std::fmt::Display, r: RceResult<SimReport>) -> SimReport {
    r.unwrap_or_else(|e| {
        eprintln!("run {run} failed: {e}");
        std::process::exit(1);
    })
}

/// A single-run command's resolved operands: the engine, the program
/// and the machine that runs it.
struct Subject {
    variant: &'static EngineVariant,
    program: Program,
    cfg: MachineConfig,
    /// Where the program came from, for `explain`'s header.
    origin: String,
}

impl Subject {
    /// Simulate with `obs`, or print the run's error and exit 1.
    fn run(&self, obs: ObsConfig) -> SimReport {
        let name = format!("{} on {}", self.program.name, self.variant.cli_name);
        report_or_exit(name, simulate(&self.cfg, obs, &self.program))
    }
}

/// Resolve a single-run command's operands, or exit 2 naming the bad
/// one. `operand` is a workload if `WorkloadSpec::parse` knows it and
/// a trace file otherwise: the file must parse as a `Program` and pass
/// `rce_trace::validate`, and the machine takes its thread count.
fn resolve(operand: &str, engine: &str, params: &EvalParams, races: usize) -> Subject {
    let variant = find_variant(engine).unwrap_or_else(|| {
        fail(&format!(
            "unknown engine '{engine}'; valid engines: {}",
            engine_names()
        ))
    });
    let (program, origin) = match WorkloadSpec::parse(operand) {
        Some(w) => (
            build(w, params, races),
            format!(
                "{} cores, scale {}, seed {}",
                params.cores, params.scale, params.seed
            ),
        ),
        None => {
            let p = load_trace(operand);
            let origin = format!("{} cores, trace {operand}", p.n_threads());
            (p, origin)
        }
    };
    let cfg = variant.config(program.n_threads());
    if let Err(e) = cfg.validate() {
        fail(&format!("{operand}: cannot simulate: {e}"));
    }
    Subject {
        variant,
        program,
        cfg,
        origin,
    }
}

/// Workload `w`'s program at `params` with `races` injected races
/// (`RunKey::program`), or exit 2 if they cannot be injected. The
/// program does not depend on the engine, so the key takes the
/// baseline's configuration.
fn build(w: WorkloadSpec, params: &EvalParams, races: usize) -> Program {
    RunKey::new(w, REGISTRY[0].config(params.cores), params)
        .with_races(races)
        .program()
        .unwrap_or_else(|e| fail(&e.to_string()))
}

/// Read, parse and validate the trace file at `path`, or exit 2.
fn load_trace(path: &str) -> Program {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        fail(&format!(
            "'{path}' is neither a workload (see `paper list`) nor a readable trace file: {e}"
        ))
    });
    let p: Program =
        json::from_str(&text).unwrap_or_else(|e| fail(&format!("{path}: not a trace file: {e}")));
    rce_trace::validate(&p).unwrap_or_else(|e| fail(&format!("{path}: invalid trace: {e}")));
    p
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        usage()
    };
    let mut params = EvalParams::default();
    let mut out: Option<String> = None;
    let mut races = 0usize;
    let mut tolerance = 0.0f64;
    // Positional operands come before the flags: an operand and an
    // engine for `report`, `explain` and `trace`, two report files for
    // `diff`, a workload for `dump`. Every flag takes one value.
    let operands = match command {
        "trace" | "report" | "explain" | "diff" => 2,
        "dump" => 1,
        _ => 0,
    };
    if args.len() <= operands {
        usage();
    }
    for flag in args[operands + 1..].chunks(2) {
        let val = flag.get(1).cloned().unwrap_or_else(|| usage());
        match flag[0].as_str() {
            "--cores" => {
                params.cores = val
                    .parse()
                    .ok()
                    .filter(|c| (1..=MAX_CORES).contains(c))
                    .unwrap_or_else(|| usage())
            }
            "--scale" => {
                params.scale = val
                    .parse()
                    .ok()
                    .filter(|s| *s >= 1)
                    .unwrap_or_else(|| usage())
            }
            "--seed" => params.seed = val.parse().unwrap_or_else(|_| usage()),
            "--jobs" => params.jobs = val.parse().unwrap_or_else(|_| usage()),
            "--races" => races = val.parse().unwrap_or_else(|_| usage()),
            "--out" => out = Some(val),
            "--tolerance" => tolerance = parse_tolerance(&val).unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let out_dir = out.as_deref().unwrap_or("results");
    let single = || resolve(&args[1], &args[2], &params, races);
    match command {
        "trace" => run_trace(&single(), out_dir),
        "report" => {
            let r = single().run(ObsConfig::default());
            emit(0, |o| writeln!(o, "{}", json::to_string_pretty(&r)));
        }
        "explain" => run_explain(&single()),
        "dump" => run_dump(&args[1], &params, races, out.as_deref()),
        "diff" => run_diff(&args[1], &args[2], tolerance),
        "trajectory" => run_trajectory(),
        "summary" => run_summary(out_dir),
        "list" => run_list(),
        _ => run_experiments(command, &params, out_dir),
    }
}

/// `paper list`: the experiment catalog, the workloads (flagging those
/// whose intended behavior races) and the engines with their summaries.
fn run_list() {
    emit(0, |o| {
        for e in Experiment::ALL.iter().chain(&Experiment::ABLATIONS) {
            writeln!(o, "{:<24} {:<6} {}", e.name(), e.id(), e.title())?;
        }
        writeln!(o, "\nworkloads:")?;
        for w in WorkloadSpec::PARSEC.iter().chain(&WorkloadSpec::MICRO) {
            let racy = if w.is_racy() { "  (racy)" } else { "" };
            writeln!(o, "  {}{racy}", w.name())?;
        }
        writeln!(o, "\nengines:")?;
        for v in &REGISTRY {
            writeln!(o, "  {:<10} {}", v.cli_name, v.summary)?;
        }
        Ok(())
    });
}

/// `paper summary`: PASS/FAIL each headline claim against the results
/// in `out_dir`; exits 1 if any claim fails.
fn run_summary(out_dir: &str) {
    let claims =
        rce_bench::summary::evaluate(std::path::Path::new(out_dir)).unwrap_or_else(|e| fail(&e));
    let failed = claims.iter().any(|c| !c.pass);
    emit(failed.into(), |o| {
        writeln!(o, "{}", rce_bench::summary::render(&claims))
    });
    if failed {
        std::process::exit(1);
    }
}

/// `paper <experiment|all|ablations>`: run the experiments, print each
/// table and write each result to `<out_dir>/<id>.json`.
fn run_experiments(command: &str, params: &EvalParams, out_dir: &str) {
    let experiments: Vec<Experiment> = match command {
        "all" => Experiment::ALL.to_vec(),
        "ablations" => Experiment::ABLATIONS.to_vec(),
        name => vec![Experiment::find(name).unwrap_or_else(|| usage())],
    };
    // Table III injects races, and a race needs two threads.
    if params.cores < 2 && experiments.iter().any(|e| e.name() == "table3") {
        usage();
    }

    create_dir(out_dir);
    profile::enable();
    // `all` runs the base sweep once and seeds every experiment with it.
    let sweep = if command == "all" {
        eprintln!(
            "running base sweep: 13 workloads x 4 designs at {} cores, scale {} ...",
            params.cores, params.scale
        );
        profile::set_phase("base-sweep");
        Some(base_sweep(params))
    } else {
        None
    };

    for e in experiments {
        eprintln!("== {} ({}: {}) ==", e.name(), e.id(), e.title());
        profile::set_phase(e.name());
        let start = std::time::Instant::now();
        let fig = e.run(params, sweep.as_ref());
        eprintln!("   done in {:.1}s", start.elapsed().as_secs_f64());
        emit(0, |o| writeln!(o, "{}", fig.table));
        write_result(out_dir, &fig, params);
    }
    eprintln!("{}", profile::render());
}

/// `paper dump <workload>`: write the workload's program as JSON to
/// `out` (default `<program name>.json`), the format `report`,
/// `explain` and `trace` read back, and print the program's
/// characterization (Table II's columns) to stderr.
fn run_dump(workload: &str, params: &EvalParams, races: usize, out: Option<&str>) {
    let w = WorkloadSpec::parse(workload)
        .unwrap_or_else(|| fail(&format!("unknown workload '{workload}'; see `paper list`")));
    let p = build(w, params, races);
    let path = out.map_or_else(|| format!("{}.json", p.name), str::to_string);
    write_file(&path, &json::to_string(&p));
    eprintln!(
        "wrote {path}: {} threads, {} ops",
        p.n_threads(),
        p.total_ops()
    );
    eprintln!("{}", json::to_string_pretty(&characterize(&p)));
}

/// `paper trace <workload|trace.json> <engine>`: one fully-observed run.
///
/// Writes the Chrome `trace_event` export and an NDJSON event log to
/// `<out>/trace-<program>-<engine>.{json,ndjson}`, prints a summary
/// of what the tracer captured, and then re-runs the same simulation
/// with observability off — exiting nonzero if the two reports differ
/// (the zero-perturbation contract of `rce_common::obs`).
fn run_trace(s: &Subject, out_dir: &str) {
    profile::enable();
    profile::set_phase("trace");
    let r = s.run(ObsConfig::FULL);
    let log = r.trace.as_ref().expect("tracing was requested");
    let timeline = r.timeline.as_ref().expect("sampling was requested");

    create_dir(out_dir);
    let slug = s.variant.cli_name.replace('+', "plus").to_lowercase();
    // A trace file names its own program: keep that name inside `out_dir`.
    let name = s.program.name.replace(['/', '\\'], "_");
    let base = format!("{out_dir}/trace-{name}-{slug}");

    let chrome = log.to_chrome_trace();
    let chrome_text = json::to_string_pretty(&chrome);
    // Self-check: what we hand to Perfetto must at least be JSON.
    json::JsonValue::parse(&chrome_text).expect("emitted Chrome trace must parse");
    write_file(&format!("{base}.json"), &chrome_text);
    // The NDJSON log ends with a summary footer so consumers can tell
    // a complete capture from one that overflowed the ring.
    let ndjson = format!("{}{}", log.to_ndjson(), log.ndjson_footer());
    write_file(&format!("{base}.ndjson"), &ndjson);

    eprintln!(
        "traced {name} on {}: {} events emitted, {} kept (capacity {}), {} dropped; \
         {} timeline samples every {} cycles",
        s.variant.cli_name,
        log.emitted,
        log.events.len(),
        log.capacity,
        log.drops,
        timeline.samples.len(),
        timeline.interval,
    );
    if log.drops > 0 {
        eprintln!(
            "WARNING: ring overflow dropped the oldest {} of {} events — the exports keep \
             only the newest {}; a smaller --scale or --cores fits the whole run",
            log.drops, log.emitted, log.capacity
        );
    }
    eprintln!("   wrote {base}.json (Chrome trace_event; open in Perfetto)");
    eprintln!("   wrote {base}.ndjson");

    // Zero-perturbation check: strip the obs fields and compare with a
    // plain run of the exact same simulation.
    profile::set_phase("verify");
    let mut stripped = r.clone();
    stripped.timeline = None;
    stripped.trace = None;
    stripped.forensics = None;
    let plain = s.run(ObsConfig::default());
    if json::to_string(&stripped) != json::to_string(&plain) {
        eprintln!("ERROR: observability perturbed the simulation (reports differ)");
        std::process::exit(1);
    }
    eprintln!("   verified: report is byte-identical with observability off");
    eprintln!("{}", profile::render());
}

/// `paper explain <workload|trace.json> <engine>`: replay one run with
/// the forensics layer on and print a human-readable root-cause report
/// for every delivered exception, plus the [`HEATMAP_TOP_K`] hottest
/// conflict lines and core pairs (the lists R-F10 reports).
fn run_explain(s: &Subject) {
    let f = s
        .run(ObsConfig::FORENSICS)
        .forensics
        .expect("forensics was requested");
    let rw = |k: AccessType| {
        if k == AccessType::Write {
            "write"
        } else {
            "read"
        }
    };
    emit(0, |o| {
        writeln!(
            o,
            "{} on {} ({}):",
            s.program.name, s.variant.cli_name, s.origin
        )?;
        writeln!(
            o,
            "  {} conflict detections materialized, {} exceptions delivered\n",
            f.total_detections, f.delivered
        )?;
        if f.records.is_empty() {
            return writeln!(o, "no exceptions delivered: nothing to explain");
        }
        for (i, rec) in f.records.iter().enumerate() {
            let ex = &rec.exception;
            let (a, b) = (ex.a(), ex.b());
            writeln!(
                o,
                "#{}: word 0x{:x} (line {}) @ cycle {}",
                i + 1,
                ex.word_addr.0,
                ex.word_addr.line().0,
                ex.detected_at.0
            )?;
            writeln!(
                o,
                "    core {} {} in region {}  x  core {} {} in region {}",
                a.core.0,
                rw(a.kind),
                a.region.0,
                b.core.0,
                rw(b.kind),
                b.region.0
            )?;
            writeln!(o, "    found via: {}", rec.path.describe())?;
            if rec.recent.is_empty() {
                writeln!(o, "    no earlier events on the line in the window")?;
            } else {
                writeln!(o, "    recent events on the line:")?;
                for e in &rec.recent {
                    let who = e.core.map_or("-".to_string(), |c| c.to_string());
                    writeln!(o, "      cycle {:<8} core {:<3} {:?}", e.cycle, who, e.kind)?;
                }
            }
            writeln!(o)?;
        }
        if f.truncated_records > 0 {
            writeln!(
                o,
                "({} more delivered exceptions truncated from the record list)\n",
                f.truncated_records
            )?;
        }
        writeln!(o, "hottest conflict lines:")?;
        for h in f.hottest_lines(HEATMAP_TOP_K) {
            writeln!(
                o,
                "  line {:<8} (bytes {}..{}): {} detections",
                h.line,
                h.line * 64,
                h.line * 64 + 64,
                h.conflicts
            )?;
        }
        writeln!(o, "hottest core pairs:")?;
        for h in f.hottest_pairs(HEATMAP_TOP_K) {
            writeln!(
                o,
                "  cores {}-{}: {} detections",
                h.core_a, h.core_b, h.conflicts
            )?;
        }
        Ok(())
    });
}

/// `paper diff <a.json> <b.json>`: structural comparison of two report
/// documents. Prints every out-of-tolerance drift with its JSON path
/// and exits 1 if any exist; a clean comparison exits 0.
fn run_diff(path_a: &str, path_b: &str, tolerance: f64) {
    let load = |p: &str| -> json::JsonValue {
        let text =
            std::fs::read_to_string(p).unwrap_or_else(|e| fail(&format!("cannot read {p}: {e}")));
        json::JsonValue::parse(&text).unwrap_or_else(|e| fail(&format!("{p}: not valid JSON: {e}")))
    };
    let a = load(path_a);
    let b = load(path_b);
    let drifts = diff_values(&a, &b, tolerance);
    if drifts.is_empty() {
        eprintln!("{path_a} and {path_b} match within {tolerance}% tolerance");
        return;
    }
    emit(1, |o| drifts.iter().try_for_each(|d| writeln!(o, "{d}")));
    eprintln!(
        "{} drift(s) beyond {tolerance}% tolerance between {path_a} and {path_b}",
        drifts.len()
    );
    std::process::exit(1);
}

/// `paper trajectory`: time the two pinned pairs of
/// [`rce_bench::hotpath`], print each ratio with its bound to stderr,
/// and exit 1 when either is past its bound. It writes no file: both
/// ratios are wall time, which varies by machine.
fn run_trajectory() {
    let speedup_x = hotpath::measure();
    let forensics_x = hotpath::measure_forensics();
    eprintln!(
        "   {:<20} {:>8.2}x (floor {}x)",
        "fastpath_speedup_x",
        speedup_x,
        hotpath::MIN_FASTPATH_SPEEDUP_X
    );
    eprintln!(
        "   {:<20} {:>8.2}x (ceiling {}x)",
        "forensics_slowdown_x",
        forensics_x,
        hotpath::MAX_FORENSICS_SLOWDOWN_X
    );
    let mut failed = false;
    if speedup_x < hotpath::MIN_FASTPATH_SPEEDUP_X {
        eprintln!(
            "FAIL: the repeat fast path is only {:.2}x end-to-end on the \
             repeat-heavy workload (floor {}x) — the fast path has regressed",
            speedup_x,
            hotpath::MIN_FASTPATH_SPEEDUP_X
        );
        failed = true;
    }
    if forensics_x > hotpath::MAX_FORENSICS_SLOWDOWN_X {
        eprintln!(
            "FAIL: conflict forensics makes the conflict-heavy canneal CE+ \
             run {:.2}x slower (ceiling {}x) — forensics has regressed",
            forensics_x,
            hotpath::MAX_FORENSICS_SLOWDOWN_X
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

/// Create `dir` (and its parents), or exit 2 naming it and the error.
fn create_dir(dir: &str) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(&format!("cannot create directory {dir}: {e}")));
}

/// Write `contents` to `path`, or exit 2 naming it and the error.
fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
}

fn write_result(out_dir: &str, fig: &rce_bench::FigureOutput, params: &EvalParams) {
    let path = format!("{out_dir}/{}.json", fig.id);
    let payload = json!({
        "id": fig.id,
        "title": fig.title,
        "cores": params.cores,
        "scale": params.scale,
        "seed": params.seed,
        "data": fig.json,
    });
    write_file(&path, &format!("{}\n", json::to_string_pretty(&payload)));
    eprintln!("   wrote {path}");
}
