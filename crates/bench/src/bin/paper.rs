//! `paper` — regenerate the paper's tables and figures.
//!
//! ```text
//! paper all                      # every experiment
//! paper fig-runtime              # one experiment
//! paper table2 --cores 16 --scale 2 --seed 7 --jobs 8
//! paper trace ping_pong CE+      # one traced run -> Chrome trace JSON
//! paper report canneal CE+ideal  # one run -> SimReport JSON on stdout
//! paper list                     # experiment catalog
//! ```
//!
//! Each experiment prints its text table and writes machine-readable
//! rows to `results/<id>.json` (used by EXPERIMENTS.md). `trace` runs
//! one simulation with full observability on and writes
//! `results/trace-<workload>-<engine>.json` (Chrome `trace_event`
//! format, loadable in Perfetto / `chrome://tracing`) plus a `.ndjson`
//! event log, then re-runs with observability off and fails loudly if
//! instrumentation perturbed the simulation.

use rce_bench::{
    diff::{diff_values, parse_tolerance},
    figures::base_sweep,
    hotpath, profile, EvalParams, Experiment, RunKey,
};
use rce_common::{json, ObsConfig, MAX_CORES};
use rce_core::{find_variant, AccessType, EngineVariant, SimReport, REGISTRY};
use rce_trace::WorkloadSpec;

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
         [--jobs N] [--out DIR]\n       paper trace <workload> <engine> [--cores N] [--scale N] \
         [--seed N] [--out DIR]\n       paper report <workload> <engine> [--cores N] [--scale N] \
         [--seed N]\n       paper explain <workload> <engine> [--cores N] [--scale N] [--seed N] \
         [--top K]\n       paper diff <a.json> <b.json> [--tolerance PCT] [--ignore PATHSUBSTR]...\n       \
         paper trajectory [--out DIR]\nexperiments: {} (table3, and so all, needs --cores 2 \
         or more: it injects races between threads)\n\
         ablations: {}\nengines: {}",
        experiment_names(&Experiment::ALL),
        experiment_names(&Experiment::ABLATIONS),
        engine_names()
    );
    std::process::exit(2);
}

/// Resolve a single-run subcommand's workload and engine names into
/// the engine and the run's key at `params`, or exit 2 naming the bad
/// operand (and, for an engine, listing every valid name).
fn resolve_run(
    workload: &str,
    engine: &str,
    params: &EvalParams,
) -> (&'static EngineVariant, RunKey) {
    let w = WorkloadSpec::parse(workload).unwrap_or_else(|| {
        eprintln!("unknown workload '{workload}'");
        std::process::exit(2);
    });
    let v = find_variant(engine).unwrap_or_else(|| {
        eprintln!(
            "unknown engine '{engine}'; valid engines: {}",
            engine_names()
        );
        std::process::exit(2);
    });
    (v, RunKey::new(w, v.config(params.cores), params))
}

/// Simulate `key`, or print the run's error and exit 1.
fn run_or_exit(key: &RunKey) -> SimReport {
    key.run().unwrap_or_else(|e| {
        eprintln!("run {key} failed: {e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();
    let mut params = EvalParams::default();
    let mut out_dir = "results".to_string();
    let mut top = 5usize;
    let mut tolerance = 0.0f64;
    let mut ignores: Vec<String> = Vec::new();
    // `trace`, `report`, `explain` (workload + engine) and `diff`
    // (two report files) take two positional operands before the flags.
    let has_operands =
        command == "trace" || command == "report" || command == "explain" || command == "diff";
    let mut i = if has_operands { 3 } else { 1 };
    if has_operands && args.len() < 3 {
        usage();
    }
    while i < args.len() {
        let need_val = |i: usize| args.get(i + 1).unwrap_or_else(|| usage()).clone();
        match args[i].as_str() {
            "--cores" => {
                params.cores = need_val(i)
                    .parse()
                    .ok()
                    .filter(|c| (1..=MAX_CORES).contains(c))
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--scale" => {
                params.scale = need_val(i)
                    .parse()
                    .ok()
                    .filter(|s| *s >= 1)
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--seed" => {
                params.seed = need_val(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--jobs" => {
                params.jobs = need_val(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--out" => {
                out_dir = need_val(i);
                i += 2;
            }
            "--top" => {
                top = need_val(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--tolerance" => {
                tolerance = parse_tolerance(&need_val(i)).unwrap_or_else(|| usage());
                i += 2;
            }
            "--ignore" => {
                ignores.push(need_val(i));
                i += 2;
            }
            _ => usage(),
        }
    }

    if command == "trace" {
        run_trace(&args[1], &args[2], &params, &out_dir);
        return;
    }

    if command == "report" {
        run_report(&args[1], &args[2], &params);
        return;
    }

    if command == "explain" {
        run_explain(&args[1], &args[2], &params, top);
        return;
    }

    if command == "diff" {
        run_diff(&args[1], &args[2], tolerance, &ignores);
        return;
    }

    if command == "trajectory" {
        run_trajectory(&out_dir);
        return;
    }

    if command == "summary" {
        match rce_bench::summary::evaluate(std::path::Path::new(&out_dir)) {
            Some(claims) => {
                println!("{}", rce_bench::summary::render(&claims));
                if claims.iter().any(|c| !c.pass) {
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("missing results in '{out_dir}/' — run `paper all` first");
                std::process::exit(2);
            }
        }
        return;
    }

    if command == "list" {
        for e in Experiment::ALL.iter().chain(&Experiment::ABLATIONS) {
            println!("{:<24} {:<6} {}", e.name(), e.id(), e.title());
        }
        return;
    }

    let experiments: Vec<Experiment> = match command.as_str() {
        "all" => Experiment::ALL.to_vec(),
        "ablations" => Experiment::ABLATIONS.to_vec(),
        name => vec![Experiment::find(name).unwrap_or_else(|| usage())],
    };
    // Table III injects races, and a race needs two threads.
    if params.cores < 2 && experiments.iter().any(|e| e.name() == "table3") {
        usage();
    }

    create_dir(&out_dir);
    profile::enable();
    // `all` runs the base sweep once and seeds every experiment with it.
    let sweep = if command == "all" {
        eprintln!(
            "running base sweep: 13 workloads x 4 designs at {} cores, scale {} ...",
            params.cores, params.scale
        );
        profile::set_phase("base-sweep");
        Some(base_sweep(&params))
    } else {
        None
    };

    for e in experiments {
        eprintln!("== {} ({}: {}) ==", e.name(), e.id(), e.title());
        profile::set_phase(e.name());
        let start = std::time::Instant::now();
        let fig = e.run(&params, sweep.as_ref());
        eprintln!("   done in {:.1}s", start.elapsed().as_secs_f64());
        println!("{}", fig.table);
        write_result(&out_dir, &fig, &params);
    }
    eprintln!("{}", profile::render());
}

/// `paper trace <workload> <engine>`: one fully-observed run.
///
/// Writes the Chrome `trace_event` export and an NDJSON event log to
/// `<out>/trace-<workload>-<engine>.{json,ndjson}`, prints a summary
/// of what the tracer captured, and then re-runs the same simulation
/// with observability off — exiting nonzero if the two reports differ
/// (the zero-perturbation contract of `rce_common::obs`).
fn run_trace(workload: &str, engine: &str, params: &EvalParams, out_dir: &str) {
    let (v, key) = resolve_run(workload, engine, params);
    let w = key.workload;
    profile::enable();
    profile::set_phase("trace");
    let r = run_or_exit(&key.clone().with_obs(ObsConfig::FULL));
    let log = r.trace.as_ref().expect("tracing was requested");
    let timeline = r.timeline.as_ref().expect("sampling was requested");

    create_dir(out_dir);
    let slug = v.cli_name.replace('+', "plus").to_lowercase();
    let base = format!("{out_dir}/trace-{}-{slug}", w.name());

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
        "traced {} on {}: {} events emitted, {} kept (capacity {}), {} dropped; \
         {} timeline samples every {} cycles",
        w.name(),
        v.cli_name,
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
    let plain = run_or_exit(&key);
    if json::to_string(&stripped) != json::to_string(&plain) {
        eprintln!("ERROR: observability perturbed the simulation (reports differ)");
        std::process::exit(1);
    }
    eprintln!("   verified: report is byte-identical with observability off");
    eprintln!("{}", profile::render());
}

/// `paper report <workload> <engine>`: run one simulation at the
/// registry configuration and print the `SimReport` JSON to stdout.
///
/// The output is byte-identical to the matching `tests/goldens/*.json`
/// file (pretty JSON plus a trailing newline), which is exactly what
/// `scripts/ci.sh` diffs against.
fn run_report(workload: &str, engine: &str, params: &EvalParams) {
    let r = run_or_exit(&resolve_run(workload, engine, params).1);
    println!("{}", json::to_string_pretty(&r));
}

/// `paper explain <workload> <engine>`: replay one run with the
/// forensics layer on and print a human-readable root-cause report for
/// every delivered exception, plus the hottest conflict lines and core
/// pairs.
fn run_explain(workload: &str, engine: &str, params: &EvalParams, top: usize) {
    let (v, key) = resolve_run(workload, engine, params);
    let w = key.workload;
    let r = run_or_exit(&key.with_obs(ObsConfig::FORENSICS));
    let f = r.forensics.expect("forensics was requested");
    println!(
        "{} on {} ({} cores, scale {}, seed {}):",
        w.name(),
        v.cli_name,
        params.cores,
        params.scale,
        params.seed
    );
    println!(
        "  {} conflict detections materialized, {} exceptions delivered\n",
        f.total_detections, f.delivered
    );
    if f.records.is_empty() {
        println!("no exceptions delivered: nothing to explain");
        return;
    }
    let rw = |k: AccessType| {
        if k == AccessType::Write {
            "write"
        } else {
            "read"
        }
    };
    for (i, rec) in f.records.iter().enumerate() {
        let ex = &rec.exception;
        let (a, b) = (ex.a(), ex.b());
        println!(
            "#{}: word 0x{:x} (line {}) @ cycle {}",
            i + 1,
            ex.word_addr.0,
            ex.word_addr.line().0,
            ex.detected_at.0
        );
        println!(
            "    core {} {} in region {}  x  core {} {} in region {}",
            a.core.0,
            rw(a.kind),
            a.region.0,
            b.core.0,
            rw(b.kind),
            b.region.0
        );
        println!("    found via: {}", rec.path.describe());
        if rec.recent.is_empty() {
            println!("    no earlier events on the line in the window");
        } else {
            println!("    recent events on the line:");
            for e in &rec.recent {
                let who = e.core.map_or("-".to_string(), |c| c.to_string());
                println!("      cycle {:<8} core {:<3} {:?}", e.cycle, who, e.kind);
            }
        }
        println!();
    }
    if f.truncated_records > 0 {
        println!(
            "({} more delivered exceptions truncated from the record list)\n",
            f.truncated_records
        );
    }
    println!("hottest conflict lines:");
    for h in f.hottest_lines(top) {
        println!(
            "  line {:<8} (bytes {}..{}): {} detections",
            h.line,
            h.line * 64,
            h.line * 64 + 64,
            h.conflicts
        );
    }
    println!("hottest core pairs:");
    for h in f.hottest_pairs(top) {
        println!(
            "  cores {}-{}: {} detections",
            h.core_a, h.core_b, h.conflicts
        );
    }
}

/// `paper diff <a.json> <b.json>`: structural comparison of two report
/// documents. Prints every out-of-tolerance drift with its JSON path
/// and exits 1 if any exist; a clean comparison exits 0. `--ignore`
/// (repeatable) drops drifts whose path contains the given substring —
/// how CI skips the machine-dependent `hot_path.measured` section of
/// the trajectory baseline while still gating everything else.
fn run_diff(path_a: &str, path_b: &str, tolerance: f64, ignores: &[String]) {
    let load = |p: &str| -> json::JsonValue {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            std::process::exit(2);
        });
        json::JsonValue::parse(&text).unwrap_or_else(|e| {
            eprintln!("{p}: not valid JSON: {e}");
            std::process::exit(2);
        })
    };
    let a = load(path_a);
    let b = load(path_b);
    let mut drifts = diff_values(&a, &b, tolerance);
    let before = drifts.len();
    drifts.retain(|d| !ignores.iter().any(|s| d.path.contains(s.as_str())));
    if before > drifts.len() {
        eprintln!(
            "({} drift(s) in --ignore'd paths skipped)",
            before - drifts.len()
        );
    }
    if drifts.is_empty() {
        eprintln!("{path_a} and {path_b} match within {tolerance}% tolerance");
        return;
    }
    for d in &drifts {
        println!("{d}");
    }
    eprintln!(
        "{} drift(s) beyond {tolerance}% tolerance between {path_a} and {path_b}",
        drifts.len()
    );
    std::process::exit(1);
}

/// Pinned parameters for `paper trajectory`: small enough for a CI
/// gate, fixed so the committed baseline stays comparable across
/// machines and sessions.
const TRAJECTORY: EvalParams = EvalParams {
    cores: 4,
    scale: 1,
    seed: 42,
    jobs: 1,
};
const TRAJECTORY_WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec::PrivateOnly,
    WorkloadSpec::FalseSharing,
    WorkloadSpec::PingPong,
    WorkloadSpec::RacyPair,
];

/// `paper trajectory`: run the pinned micro-sweep and write
/// `<out>/bench_trajectory.json`. CI diffs this against the committed
/// baseline (`paper diff --tolerance`) to catch silent perf/behavior
/// drift; the sweep is deterministic, so any drift is a real change.
fn run_trajectory(out_dir: &str) {
    let mut rows = Vec::new();
    for w in TRAJECTORY_WORKLOADS {
        for v in REGISTRY.iter().filter(|v| v.is_paper_design()) {
            let r = run_or_exit(&RunKey::new(w, v.config(TRAJECTORY.cores), &TRAJECTORY));
            rows.push(json!({
                "workload": w.name(),
                "engine": v.cli_name,
                "cycles": r.cycles.0,
                "mem_ops": r.mem_ops,
                "noc_bytes": r.noc_bytes().0,
                "dram_bytes": r.dram_bytes().0,
                "llc_misses": r.llc_misses,
                "exceptions": r.exceptions.len(),
                "energy_pj": r.energy_total().0,
            }));
        }
    }
    // Simulator throughput rides along in a `hot_path` section: the
    // `pinned` half (the fast-path floor and the forensics ceiling)
    // diffs exactly like any other field, while the `measured` half is
    // wall-time ratios — machine-dependent by nature — so CI compares
    // with `--ignore hot_path.measured`.
    let speedup_x = hotpath::measure();
    let forensics_x = hotpath::measure_forensics();
    let payload = json!({
        "id": "bench_trajectory",
        "cores": TRAJECTORY.cores,
        "scale": TRAJECTORY.scale,
        "seed": TRAJECTORY.seed,
        "hot_path": json!({
            "pinned": json!({
                "min_fastpath_speedup_x": hotpath::MIN_FASTPATH_SPEEDUP_X,
                "max_forensics_slowdown_x": hotpath::MAX_FORENSICS_SLOWDOWN_X,
            }),
            "measured": json!({
                "fastpath_speedup_x": speedup_x,
                "forensics_slowdown_x": forensics_x,
            }),
        }),
        "rows": rows,
    });
    create_dir(out_dir);
    let path = format!("{out_dir}/bench_trajectory.json");
    write_file(&path, &format!("{}\n", json::to_string_pretty(&payload)));
    eprintln!("   wrote {path}");

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
    std::fs::create_dir_all(dir).unwrap_or_else(|e| {
        eprintln!("cannot create directory {dir}: {e}");
        std::process::exit(2);
    });
}

/// Write `contents` to `path`, or exit 2 naming it and the error.
fn write_file(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
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
