//! The three single-simulation workloads: one engine simulating a few
//! programs of one kind, each once per pass through `Machine::run`.

use crate::replay;
use crate::{median, Args, Fnv, Outcome, CORES, DEFAULT_SEED, TRACED_REPS};
use rce_common::{json, MachineConfig, ProtocolKind, RceResult, Rng, SplitMix64};
use rce_core::{find_variant, Machine, SimReport};
use rce_trace::{Program, WorkloadSpec};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// One single-simulation workload.
pub struct Single {
    /// Benchmark workload name.
    pub name: &'static str,
    spec: WorkloadSpec,
    engine: &'static str,
    scale: u32,
    /// Programs simulated per pass, each from its own seed.
    programs: u64,
}

/// Why each exists is in README.md: canneal loads the engine access
/// path, oracle and exception dedup; fluidanimate the region boundary,
/// scheduler and sync managers; swaptions the access filter. A canneal
/// program's exception count, and its pass time with it, moves by up to
/// a fifth from one seed to another, so a canneal pass simulates four
/// programs from unrelated seeds to even the work of a pass out.
pub const SINGLES: [Single; 3] = [
    Single {
        name: "canneal-ceplus",
        spec: WorkloadSpec::Canneal,
        engine: "CE+",
        scale: 4,
        programs: 4,
    },
    Single {
        name: "fluidanimate-arc",
        spec: WorkloadSpec::Fluidanimate,
        engine: "ARC",
        scale: 12,
        programs: 1,
    },
    Single {
        name: "swaptions-ceplus",
        spec: WorkloadSpec::Swaptions,
        engine: "CE+",
        scale: 120,
        programs: 1,
    },
];

/// Checks every pass must pass: a detecting engine agrees with the
/// oracle (the MESI baseline detects nothing by design), and the access
/// counts add up.
pub fn check_report(r: &SimReport, program: &Program) -> Result<(), String> {
    let agrees = if r.protocol == ProtocolKind::MesiBaseline {
        r.exceptions.is_empty()
    } else {
        r.matches_oracle()
    };
    if !agrees {
        return Err(format!(
            "{} exceptions do not match the oracle's {}",
            r.exceptions.len(),
            r.oracle_conflicts.len()
        ));
    }
    if r.mem_ops as usize != program.total_mem_ops() {
        return Err(format!(
            "mem_ops {} but the program has {}",
            r.mem_ops,
            program.total_mem_ops()
        ));
    }
    if r.l1_hits + r.l1_misses != r.mem_ops {
        return Err(format!(
            "l1 hits {} + misses {} != mem_ops {}",
            r.l1_hits, r.l1_misses, r.mem_ops
        ));
    }
    Ok(())
}

/// A cheap fingerprint of a report, to see that every pass reproduces
/// the one whose full digest was checked.
fn fingerprint(r: &SimReport) -> u64 {
    let mut h = DefaultHasher::new();
    (r.cycles.0, r.mem_ops, r.sync_ops, r.regions).hash(&mut h);
    (
        r.l1_hits,
        r.l1_misses,
        r.l1_evictions,
        r.llc_hits,
        r.llc_misses,
    )
        .hash(&mut h);
    (r.noc.total_msgs(), r.noc_bytes().0, r.dram_bytes().0).hash(&mut h);
    r.engine_counters.hash(&mut h);
    for e in &r.exceptions {
        (e.key(), e.detected_at).hash(&mut h);
    }
    r.oracle_conflicts.len().hash(&mut h);
    h.finish()
}

/// Digest of the pretty `SimReport` JSON. The two exception lists are
/// digested entry by entry after the rest of the report, so a report
/// with hundreds of thousands of exceptions never becomes one string.
fn report_digest(mut r: SimReport) -> String {
    let exceptions = std::mem::take(&mut r.exceptions);
    let oracle = std::mem::take(&mut r.oracle_conflicts);
    let mut h = Fnv::default();
    h.write(json::to_string_pretty(&r).as_bytes());
    for e in exceptions.iter().chain(&oracle) {
        h.write(json::to_string_pretty(e).as_bytes());
    }
    h.hex()
}

/// Sum the modelled components' work counts over `reports`.
pub fn sim_counts(out: &mut Outcome, reports: &[&SimReport]) {
    let sum = |f: &dyn Fn(&SimReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
    let counter = |r: &SimReport, name: &str| {
        r.engine_counters
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    };
    let aim = |f: &dyn Fn(&rce_core::report::AimSummary) -> u64| {
        sum(&|r: &SimReport| r.aim.as_ref().map_or(0, f))
    };
    out.metric("sim.cycles", sum(&|r| r.cycles.0), "cycles");
    out.metric("sim.mem_ops", sum(&|r| r.mem_ops), "count");
    out.metric("sim.regions", sum(&|r| r.regions), "count");
    out.metric(
        "sim.exceptions",
        sum(&|r| r.exceptions.len() as u64),
        "count",
    );
    out.metric("l1.misses", sum(&|r| r.l1_misses), "count");
    out.metric("llc.misses", sum(&|r| r.llc_misses), "count");
    out.metric("noc.msgs", sum(&|r| r.noc.total_msgs()), "count");
    out.metric(
        "noc.queue_delay",
        sum(&|r| r.noc.total_queue_delay.get()),
        "cycles",
    );
    out.metric("dram.accesses", sum(&|r| r.dram.total_accesses()), "count");
    let accesses = aim(&|a| a.accesses);
    out.metric("aim.accesses", accesses, "count");
    let hit_ratio = if accesses > 0.0 {
        aim(&|a| a.hits) / accesses
    } else {
        0.0
    };
    out.metric("aim.hit_ratio", hit_ratio, "ratio");
    out.metric("aim.spills", aim(&|a| a.spills), "count");
    out.metric(
        "meta.lookups",
        sum(&|r| counter(r, "meta_lookups")),
        "count",
    );
    out.metric("meta.pushes", sum(&|r| counter(r, "meta_pushes")), "count");
    out.metric(
        "arc.registrations",
        sum(&|r| counter(r, "registrations")),
        "count",
    );
}

/// Report `fastpath.speedup_x`: the median time to run every one of
/// `runs` with the access filter off over the median with it on,
/// [`TRACED_REPS`] times each, alternating. Every report is checked.
pub fn fastpath_ab(
    out: &mut Outcome,
    runs: &[(MachineConfig, &Program, &SimReport)],
) -> RceResult<()> {
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_REPS {
        for (fast, walls) in [(false, &mut off), (true, &mut on)] {
            let mut wall = 0.0;
            for (cfg, program, _) in runs {
                let m = Machine::new(cfg)?.with_fastpath(fast);
                let (r, s) = timed(|| m.run(program));
                wall += s;
                out.check("fast-path A/B run", check_report(&r?, program));
            }
            walls.push(wall);
        }
    }
    out.metric("fastpath.speedup_x", median(&off) / median(&on), "x");
    Ok(())
}

/// Time `f` and return its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

impl Single {
    fn config(&self) -> MachineConfig {
        find_variant(self.engine)
            .expect("engine names above are registry names")
            .config(CORES)
    }

    /// The seed of each program: the workload seed for the first, then
    /// draws from a SplitMix64 stream keyed by it. Seeds near each
    /// other give canneal programs of much the same exception count, so
    /// the later programs' seeds must not be near the first.
    fn seeds(&self, seed: u64) -> impl Iterator<Item = u64> {
        let mut rng = SplitMix64::new(seed);
        (0..self.programs).map(move |i| if i == 0 { seed } else { rng.next_u64() })
    }

    /// Generate the programs.
    fn build(&self, seed: u64) -> Vec<Program> {
        self.seeds(seed)
            .map(|s| self.spec.build(CORES, self.scale, s))
            .collect()
    }

    /// The digest key of program `i`: the workload name, then
    /// `<name>.<i>` for the programs after the first.
    fn digest_key(&self, i: usize) -> String {
        match i {
            0 => self.name.to_string(),
            i => format!("{}.{i}", self.name),
        }
    }

    /// Run this workload in the mode `args` asks for.
    pub fn run(&self, args: &Args) -> crate::RunResult {
        let programs = self.build(args.seed);
        let machine = Machine::new(&self.config())?;
        let mut out = Outcome::default();
        // The warm-up pass: checked, digested at the default seed, and
        // the reference every later pass must reproduce. A plain run
        // keeps no report past its check, so the peak resident memory
        // is that of one simulation, as in the timed passes.
        let (mut want, mut warm) = (Vec::new(), Vec::new());
        for (i, program) in programs.iter().enumerate() {
            let r = machine.run(program)?;
            out.check("warm-up pass", check_report(&r, program));
            want.push(fingerprint(&r));
            if args.trace {
                warm.push(r);
            } else {
                self.check_digest(args.seed, i, r, &mut out);
            }
        }
        if args.trace {
            self.traced(args.seed, &programs, &warm, &mut out)?;
            for (i, r) in warm.into_iter().enumerate() {
                self.check_digest(args.seed, i, r, &mut out);
            }
        } else {
            self.plain(args, &programs, &machine, &want, &mut out)?;
        }
        Ok(out)
    }

    /// At the default seed, check program `i`'s report against its
    /// committed digest.
    fn check_digest(&self, seed: u64, i: usize, r: SimReport, out: &mut Outcome) {
        if seed == DEFAULT_SEED {
            let digest = report_digest(r);
            out.check(
                "report digest",
                crate::check_digest(&self.digest_key(i), &digest),
            );
        }
    }

    fn plain(
        &self,
        args: &Args,
        programs: &[Program],
        machine: &Machine,
        want: &[u64],
        out: &mut Outcome,
    ) -> Result<(), Box<dyn std::error::Error>> {
        let accesses = programs.iter().map(Program::total_mem_ops).sum::<usize>() as f64;
        let cfg = self.config();
        let setup = || {
            let t = Instant::now();
            black_box(self.build(args.seed));
            black_box(Machine::new(&cfg)?);
            Ok(t.elapsed().as_secs_f64())
        };
        // A gap between the programs of a pass too, so the probe's
        // readings cover the whole pass; only the simulations are timed.
        crate::timed_passes(out, args.seconds, accesses, setup, |out, gaps| {
            for (i, (program, want)) in programs.iter().zip(want).enumerate() {
                if i > 0 {
                    gaps.gap()?;
                }
                let r = gaps.timed(|| machine.run(program));
                let verdict = r.map_err(|e| e.to_string()).and_then(|r| {
                    check_report(&r, program)?;
                    if fingerprint(&r) != *want {
                        return Err("report differs from the warm-up pass".into());
                    }
                    Ok(())
                });
                out.check("pass", verdict);
            }
            Ok(())
        })?;
        Ok(())
    }

    fn traced(
        &self,
        seed: u64,
        programs: &[Program],
        warm: &[SimReport],
        out: &mut Outcome,
    ) -> RceResult<()> {
        let build_s = crate::median_time(TRACED_REPS, || self.build(seed));
        out.metric("trace.build_ms", build_s * 1e3, "ms");

        let cfg = self.config();
        let runs: Vec<_> = programs
            .iter()
            .zip(warm)
            .map(|(p, r)| (cfg.clone(), p, r))
            .collect();
        replay::replay_runs(out, &runs)?;
        fastpath_ab(out, &runs)?;
        sim_counts(out, &warm.iter().collect::<Vec<_>>());
        crate::sweep::emit_no_sweep(out);
        Ok(())
    }
}
