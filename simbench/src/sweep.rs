//! The `paper-sweep` workload: every experiment of `paper all`, in its
//! order, through the `rce_bench` library, sharing one base sweep as the
//! `paper` binary does, with one sweep worker.

use crate::replay;
use crate::single::{check_report, fastpath_ab, sim_counts, timed};
use crate::{Args, BoxError, Fnv, Gaps, Outcome, CORES, DEFAULT_SEED, TRACED_REPS};
use rce_bench::figures::base_sweep;
use rce_bench::{profile, EvalParams, Experiment, FigureOutput, SweepResults};
use rce_common::{json, MachineConfig, ProtocolKind, RceResult};
use rce_core::{Machine, SimReport};
use rce_trace::{Program, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Benchmark workload name.
pub const NAME: &str = "paper-sweep";

/// The profile phases that simulate: the shared base sweep and every
/// experiment that runs its own simulations through the runner.
const PHASES: [&str; 7] = [
    "base-sweep",
    "fig-scaling",
    "fig-aim",
    "fig-saturation",
    "fig-seeds",
    "fig-saturation-timeline",
    "fig-conflict-heatmap",
];

fn params(seed: u64) -> EvalParams {
    EvalParams {
        cores: CORES,
        scale: 1,
        seed,
        jobs: 1,
    }
}

/// What one sweep pass leaves behind for checking and tracing.
struct Pass {
    wall_s: f64,
    write_s: f64,
    sweep: SweepResults,
    /// `(figure id, written text)` in experiment order.
    figures: Vec<(&'static str, String)>,
    phases: Vec<profile::PhaseProfile>,
}

/// Write one figure as the `paper` binary does; returns the text.
fn write_result(dir: &Path, fig: &FigureOutput, p: &EvalParams) -> std::io::Result<String> {
    let payload = rce_common::json!({
        "id": fig.id,
        "title": fig.title,
        "cores": p.cores,
        "scale": p.scale,
        "seed": p.seed,
        "data": fig.json,
    });
    let text = format!("{}\n", json::to_string_pretty(&payload));
    std::fs::write(dir.join(format!("{}.json", fig.id)), &text)?;
    Ok(text)
}

/// One pass: what `paper all --cores 32 --scale 1 --jobs 1` does, with
/// the tables left unprinted. When given, `gaps` times the pass's work
/// and a gap is opened after the base sweep and after each experiment,
/// so the probe's readings cover the whole several-second pass; the
/// gaps' time is left out of `wall_s`.
fn pass(dir: &Path, p: &EvalParams, mut gaps: Option<&mut Gaps>) -> Result<Pass, BoxError> {
    let start = Instant::now();
    let (mut write_s, mut gap_s) = (0.0, 0.0);
    let mut gap = |gaps: &mut Option<&mut Gaps>| match gaps {
        Some(g) => g.gap().map(|s| gap_s += s),
        None => Ok(()),
    };
    profile::enable();
    profile::set_phase("base-sweep");
    let sweep = part(&mut gaps, || base_sweep(p));
    gap(&mut gaps)?;
    let mut figures = Vec::new();
    for e in Experiment::ALL {
        profile::set_phase(e.name());
        let (fig, text, s) = part(&mut gaps, || {
            let fig = e.run(p, Some(&sweep));
            let (text, s) = timed(|| write_result(dir, &fig, p));
            (fig, text, s)
        });
        write_s += s;
        figures.push((fig.id, text?));
        gap(&mut gaps)?;
    }
    Ok(Pass {
        wall_s: start.elapsed().as_secs_f64() - gap_s,
        write_s,
        sweep,
        figures,
        phases: profile::snapshot(),
    })
}

/// Run `f`, as timed work of `gaps` when given.
fn part<R>(gaps: &mut Option<&mut Gaps>, f: impl FnOnce() -> R) -> R {
    match gaps {
        Some(g) => g.timed(f),
        None => f(),
    }
}

/// Generate every base-sweep program.
fn build(seed: u64) -> Vec<Program> {
    WorkloadSpec::PARSEC
        .iter()
        .map(|w| w.build(CORES, 1, seed))
        .collect()
}

/// Set up: generate every base-sweep program and build a machine per
/// design. Returns the programs.
fn setup(seed: u64) -> RceResult<Vec<Program>> {
    let programs = build(seed);
    for proto in ProtocolKind::ALL {
        Machine::new(&MachineConfig::paper_default(CORES, proto))?;
    }
    Ok(programs)
}

/// The base sweep's runs with the program each simulated.
fn base_runs<'a>(
    sweep: &'a SweepResults,
    programs: &'a [Program],
) -> impl Iterator<Item = (MachineConfig, &'a Program, &'a SimReport)> {
    sweep.iter().map(move |(k, r)| {
        let i = WorkloadSpec::PARSEC
            .iter()
            .position(|w| *w == k.workload)
            .expect("the base sweep runs PARSEC workloads");
        (
            MachineConfig::paper_default(k.cores, k.protocol),
            &programs[i],
            r,
        )
    })
}

/// Check a pass: every base-sweep report, at the default seed every
/// figure's digest, and that the figures equal `want` when given.
/// Returns the fingerprint of the pass's figures.
fn check_pass(
    out: &mut Outcome,
    pass: &Pass,
    programs: &[Program],
    seed: u64,
    want: Option<&str>,
) -> String {
    let mut verdict = Ok(());
    for (_, program, r) in base_runs(&pass.sweep, programs) {
        if let Err(e) = check_report(r, program) {
            verdict = Err(format!("{} on {}: {e}", r.workload, r.protocol));
            break;
        }
    }
    let mut all = Fnv::default();
    for (id, text) in &pass.figures {
        all.write(text.as_bytes());
        if seed == DEFAULT_SEED && verdict.is_ok() {
            let mut h = Fnv::default();
            h.write(text.as_bytes());
            verdict = crate::check_digest(id, &h.hex());
        }
    }
    let fingerprint = all.hex();
    if verdict.is_ok() && want.is_some_and(|w| w != fingerprint) {
        verdict = Err("figures differ from the warm-up pass".into());
    }
    out.check("sweep pass", verdict);
    fingerprint
}

/// The temporary results directory, inside the working directory.
fn results_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(".simbench_tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn remove_results_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// Run the workload in the mode `args` asks for.
pub fn run(args: &Args) -> crate::RunResult {
    let dir = results_dir()?;
    let r = run_in(args, &dir);
    remove_results_dir(&dir);
    r
}

fn run_in(args: &Args, dir: &Path) -> crate::RunResult {
    let p = params(args.seed);
    let programs = setup(args.seed)?;
    let mut out = Outcome::default();
    if args.trace {
        return traced(&p, &programs, dir, out);
    }

    let warm = pass(dir, &p, None)?;
    let want = check_pass(&mut out, &warm, &programs, args.seed, None);
    let sim_ops: u64 = warm.phases.iter().map(|ph| ph.sim_ops).sum();
    drop(warm);
    crate::timed_passes(
        &mut out,
        args.seconds,
        sim_ops as f64,
        || {
            let (r, s) = timed(|| setup(args.seed));
            r?;
            Ok(s)
        },
        |out, gaps| {
            let pass = pass(dir, &p, Some(gaps))?;
            check_pass(out, &pass, &programs, args.seed, Some(&want));
            Ok(())
        },
    )?;
    Ok(out)
}

fn traced(p: &EvalParams, programs: &[Program], dir: &Path, mut out: Outcome) -> crate::RunResult {
    let build_s = crate::median_time(TRACED_REPS, || build(p.seed));
    out.metric("trace.build_ms", build_s * 1e3, "ms");
    let pass = pass(dir, p, None)?;
    check_pass(&mut out, &pass, programs, p.seed, None);
    let runs: Vec<_> = base_runs(&pass.sweep, programs).collect();

    // The driver layers and the fast path of the simulations the sweep
    // runs, from every base-sweep run.
    replay::replay_runs(&mut out, &runs)?;
    fastpath_ab(&mut out, &runs)?;

    let reports: Vec<&SimReport> = runs.iter().map(|(_, _, r)| *r).collect();
    sim_counts(&mut out, &reports);
    emit_sweep(&mut out, Some(&pass));
    Ok(out)
}

/// Report the sweep layer's metrics from a traced pass, or zeros for a
/// workload that does not run the sweep layer.
fn emit_sweep(out: &mut Outcome, pass: Option<&Pass>) {
    let phases = pass.map_or(&[][..], |p| &p.phases[..]);
    let sim_s = phases.iter().fold(0.0, |s, ph| s + ph.wall.as_secs_f64());
    out.metric(
        "sweep.runs_executed",
        phases.iter().map(|ph| ph.runs).sum::<u64>() as f64,
        "count",
    );
    out.metric("sweep.sim_s", sim_s, "s");
    out.metric(
        "sweep.harness_s",
        pass.map_or(0.0, |p| p.wall_s - sim_s),
        "s",
    );
    for name in PHASES {
        let s = phases
            .iter()
            .find(|ph| ph.name == name)
            .map_or(0.0, |ph| ph.wall.as_secs_f64());
        out.metric(format!("sweep.{name}_s"), s, "s");
    }
    out.metric(
        "results.write_ms",
        pass.map_or(0.0, |p| p.write_s * 1e3),
        "ms",
    );
}

/// The sweep layer's metrics for a single-simulation workload: zeros.
pub fn emit_no_sweep(out: &mut Outcome) {
    emit_sweep(out, None);
}
