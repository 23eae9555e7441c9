//! The experiment catalog, [`Experiment`], and one renderer per
//! reconstructed table or figure (see DESIGN.md for the experiment
//! index). The ablations' renderers live in the `ablations` module.

use crate::ablations::{aim_sweep, granularity, l1_size, moesi, piggyback, readonly, signature};
use crate::runner::{EvalParams, RunKey, RunStore, SweepResults};
use rce_common::json;
use rce_common::json::JsonValue as Value;
use rce_common::obs::TIMELINE_INTERVAL;
use rce_common::{geomean, table::Table, Histogram, MachineConfig, ObsConfig, ProtocolKind};
use rce_core::SimReport;
use rce_trace::{characterize, WorkloadSpec};
use std::collections::HashMap;

/// A rendered experiment: the text table plus machine-readable rows.
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Experiment ID (e.g. `R-F1`).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Rendered text table.
    pub table: String,
    /// Machine-readable rows (written to `results/` by the binary).
    pub json: Value,
}

/// An experiment's renderer: it reads every run it needs from the
/// store and returns the text table and the machine-readable rows.
type Render = fn(&EvalParams, &mut RunStore) -> (String, Value);

/// One row of the experiment catalog: a reconstructed table or figure,
/// or an ablation.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    name: &'static str,
    id: &'static str,
    title: &'static str,
    render: Render,
}

impl Experiment {
    const fn new(
        name: &'static str,
        id: &'static str,
        title: &'static str,
        render: Render,
    ) -> Self {
        Experiment {
            name,
            id,
            title,
            render,
        }
    }

    /// The paper's tables and figures, in presentation order.
    pub const ALL: [Experiment; 13] = [
        Experiment::new("table1", "R-T1", "System configuration", table1),
        Experiment::new("table2", "R-T2", "Workload characteristics", table2),
        Experiment::new("fig-runtime", "R-F1", "Run time", fig_runtime),
        Experiment::new("fig-energy", "R-F2", "Energy", fig_energy),
        Experiment::new("fig-noc", "R-F3", "On-chip network traffic", fig_noc),
        Experiment::new("fig-dram", "R-F4", "Off-chip memory traffic", fig_dram),
        Experiment::new(
            "fig-scaling",
            "R-F5",
            "Scaling with core count",
            fig_scaling,
        ),
        Experiment::new("fig-aim", "R-F6", "AIM size sensitivity", fig_aim),
        Experiment::new("table3", "R-T3", "Conflict detection vs oracle", table3),
        Experiment::new("fig-saturation", "R-F7", "NoC saturation", fig_saturation),
        Experiment::new("fig-seeds", "R-F8", "Seed sensitivity", fig_seeds),
        Experiment::new(
            "fig-saturation-timeline",
            "R-F9",
            "NoC saturation timeline (CE+ vs ARC)",
            fig_saturation_timeline,
        ),
        Experiment::new(
            "fig-conflict-heatmap",
            "R-F10",
            "Conflict heatmap (CE+ vs ARC)",
            fig_conflict_heatmap,
        ),
    ];

    /// The ablations (see `ablations`): each varies one knob of one
    /// design.
    pub const ABLATIONS: [Experiment; 7] = [
        Experiment::new(
            "ablate-granularity",
            "R-A1",
            "Detection granularity",
            granularity,
        ),
        Experiment::new("ablate-readonly", "R-A2", "ARC read-only sharing", readonly),
        Experiment::new("ablate-piggyback", "R-A3", "CE+ piggyback size", piggyback),
        Experiment::new("ablate-l1", "R-A4", "CE vs L1 capacity", l1_size),
        Experiment::new("ablate-signature", "R-A5", "ARC signature size", signature),
        Experiment::new("ablate-moesi", "R-A6", "MESI vs MOESI", moesi),
        Experiment::new(
            "ablate-aim",
            "R-A7",
            "AIM capacity x latency sensitivity",
            aim_sweep,
        ),
    ];

    /// The experiment or ablation named `name` on the command line.
    pub fn find(name: &str) -> Option<Experiment> {
        Experiment::ALL
            .into_iter()
            .chain(Experiment::ABLATIONS)
            .find(|e| e.name == name)
    }

    /// CLI name.
    pub fn name(self) -> &'static str {
        self.name
    }

    /// Result ID (e.g. `R-F1`), which names its `results/` file.
    pub fn id(self) -> &'static str {
        self.id
    }

    /// Human title.
    pub fn title(self) -> &'static str {
        self.title
    }

    /// Run the experiment. Its reports come from a store over `sweep`,
    /// an optional pre-computed base sweep (see [`base_sweep`]); the
    /// experiment simulates only the runs the sweep lacks, each once.
    pub fn run(self, params: &EvalParams, sweep: Option<&SweepResults>) -> FigureOutput {
        let (table, json) = (self.render)(params, &mut RunStore::new(sweep, params.jobs));
        FigureOutput {
            id: self.id,
            title: self.title,
            table,
            json,
        }
    }
}

/// Paper-configuration keys for every (workload, design, core count),
/// workload-major.
fn grid(
    workloads: &[WorkloadSpec],
    protocols: &[ProtocolKind],
    core_counts: &[usize],
    params: &EvalParams,
) -> Vec<RunKey> {
    let mut keys = Vec::new();
    for &w in workloads {
        for &p in protocols {
            for &c in core_counts {
                keys.push(RunKey::paper(w, p, c, params));
            }
        }
    }
    keys
}

/// The base sweep's keys: every PARSEC workload on every design at
/// `params.cores`.
fn base_keys(params: &EvalParams) -> Vec<RunKey> {
    grid(
        &WorkloadSpec::PARSEC,
        &ProtocolKind::ALL,
        &[params.cores],
        params,
    )
}

/// The base sweep, which most experiments read: `paper all` runs it
/// once and seeds every experiment's store with it.
pub fn base_sweep(params: &EvalParams) -> SweepResults {
    let mut sweep = RunStore::new(None, params.jobs);
    sweep.ensure(base_keys(params));
    sweep
}

/// The report of `w` on `p`'s paper configuration at `cores`.
fn get<'r>(
    runs: &'r RunStore,
    params: &EvalParams,
    w: WorkloadSpec,
    p: ProtocolKind,
    cores: usize,
) -> &'r SimReport {
    runs.get(&RunKey::paper(w, p, cores, params))
}

/// R-T1: the simulated system's parameters.
fn table1(params: &EvalParams, _: &mut RunStore) -> (String, Value) {
    let cfg = MachineConfig::paper_default(params.cores, ProtocolKind::MesiBaseline);
    let mut t = Table::new(
        "Table I: simulated system configuration",
        &["parameter", "value"],
    );
    let rows: Vec<(String, String)> = vec![
        ("cores".into(), format!("{}", cfg.cores)),
        (
            "L1 (private)".into(),
            format!(
                "{} / {}-way / {} cyc",
                cfg.l1.capacity, cfg.l1.ways, cfg.l1.latency
            ),
        ),
        (
            "LLC (shared, banked)".into(),
            format!(
                "{} / {}-way / {} cyc",
                cfg.llc.capacity, cfg.llc.ways, cfg.llc.latency
            ),
        ),
        (
            "NoC".into(),
            format!(
                "2D mesh, {} cyc/hop, {} B/cyc/link, {} B flits",
                cfg.noc.hop_latency, cfg.noc.link_bandwidth, cfg.noc.flit_bytes
            ),
        ),
        (
            "DRAM".into(),
            format!(
                "{} ch x {} banks, {}/{} cyc hit/miss, {} B/cyc/ch",
                cfg.dram.channels,
                cfg.dram.banks_per_channel,
                cfg.dram.row_hit_latency,
                cfg.dram.row_miss_latency,
                cfg.dram.channel_bandwidth
            ),
        ),
        (
            "AIM".into(),
            format!(
                "{} entries / {}-way / {} cyc / {} B entries",
                cfg.aim.entries, cfg.aim.ways, cfg.aim.latency, cfg.aim.entry_bytes
            ),
        ),
        (
            "CE/CE+ piggyback".into(),
            format!("{} B per coherence message", cfg.metadata_piggyback_bytes),
        ),
        (
            "ARC signature".into(),
            format!("{} B per touched line", cfg.signature_bytes_per_line),
        ),
        ("workload scale".into(), format!("{}", params.scale)),
        ("seed".into(), format!("{}", params.seed)),
    ];
    for (k, v) in &rows {
        t.row(vec![k.clone(), v.clone()]);
    }
    (t.render(), json!(rows))
}

/// R-T2: workload characteristics.
fn table2(params: &EvalParams, _: &mut RunStore) -> (String, Value) {
    let mut t = Table::new(
        "Table II: workload characteristics",
        &[
            "workload",
            "mem ops",
            "sync ops",
            "regions",
            "ops/region",
            "lines",
            "shared lines",
            "shared acc %",
            "write %",
        ],
    );
    let mut rows = Vec::new();
    for w in WorkloadSpec::PARSEC {
        let p = w.build(params.cores, params.scale, params.seed);
        let c = characterize(&p);
        t.row(vec![
            c.name.clone(),
            c.mem_ops.to_string(),
            c.sync_ops.to_string(),
            c.regions.to_string(),
            format!("{:.1}", c.mean_region_len),
            c.footprint_lines.to_string(),
            c.shared_lines.to_string(),
            format!("{:.1}", c.shared_access_frac * 100.0),
            format!("{:.1}", c.write_frac * 100.0),
        ]);
        rows.push(json::to_value(&c));
    }
    (t.render(), Value::Array(rows))
}

/// Shared scaffolding for the four normalized-metric figures.
fn normalized_figure(
    params: &EvalParams,
    runs: &mut RunStore,
    title: &str,
    metric_name: &str,
    metric: impl Fn(&SimReport) -> f64,
) -> (String, Value) {
    let mut t = Table::new(
        format!("{title} (normalized to MESI, {} cores)", params.cores),
        &["workload", "CE", "CE+", "ARC"],
    );
    runs.ensure(base_keys(params));
    let mut per_proto: HashMap<ProtocolKind, Vec<f64>> = HashMap::new();
    let mut rows = Vec::new();
    for w in WorkloadSpec::PARSEC {
        let mesi = get(runs, params, w, ProtocolKind::MesiBaseline, params.cores);
        let base = metric(mesi);
        let mut cells = vec![w.name().to_string()];
        let mut row = json!({ "workload": w.name() });
        for p in ProtocolKind::DETECTORS {
            let v = metric(get(runs, params, w, p, params.cores));
            let norm = if base == 0.0 { 1.0 } else { v / base };
            per_proto.entry(p).or_default().push(norm.max(1e-9));
            cells.push(format!("{norm:.3}"));
            row[p.name()] = json!(norm);
        }
        t.row(cells);
        rows.push(row);
    }
    let mut cells = vec!["geomean".to_string()];
    let mut row = json!({ "workload": "geomean" });
    for p in ProtocolKind::DETECTORS {
        let g = geomean(&per_proto[&p]);
        cells.push(format!("{g:.3}"));
        row[p.name()] = json!(g);
    }
    t.row(cells);
    rows.push(row);
    let json = json!({ "metric": metric_name, "cores": params.cores, "rows": rows });
    (t.render(), json)
}

/// R-F1: normalized run time.
fn fig_runtime(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    normalized_figure(params, runs, "Run time", "runtime", |r| r.cycles.0 as f64)
}

/// R-F2: normalized energy, with component breakdown per design.
fn fig_energy(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let (mut table, mut json) =
        normalized_figure(params, runs, "Energy", "energy", |r| r.energy_total().0);
    // Append a geomean component-share table.
    let mut t = Table::new(
        "Energy breakdown (% of each design's total, geomean workload)",
        &["design", "L1", "LLC", "AIM", "Dir", "NoC", "DRAM", "Static"],
    );
    let mut breakdown_rows = Vec::new();
    for p in ProtocolKind::ALL {
        let mut shares = [0.0f64; 7];
        let mut n = 0;
        for w in WorkloadSpec::PARSEC {
            let r = get(runs, params, w, p, params.cores);
            let total = r.energy_total().0.max(1e-12);
            for (i, (_, v)) in r.energy.components().iter().enumerate() {
                shares[i] += v.0 / total;
            }
            n += 1;
        }
        let mut cells = vec![p.name().to_string()];
        let mut row = json!({ "design": p.name() });
        let names = ["L1", "LLC", "AIM", "Dir", "NoC", "DRAM", "Static"];
        for (i, s) in shares.iter().enumerate() {
            let pct = s / n as f64 * 100.0;
            cells.push(format!("{pct:.1}"));
            row[names[i]] = json!(pct);
        }
        t.row(cells);
        breakdown_rows.push(row);
    }
    table.push('\n');
    table.push_str(&t.render());
    json["breakdown"] = Value::Array(breakdown_rows);
    (table, json)
}

/// R-F3: normalized on-chip traffic, plus the metadata/invalidation
/// decomposition that explains it.
fn fig_noc(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let (mut table, mut json) =
        normalized_figure(params, runs, "On-chip network traffic", "noc_bytes", |r| {
            r.noc_bytes().as_f64()
        });
    let mut t = Table::new(
        "NoC traffic composition (total MiB across PARSEC suite)",
        &["design", "total", "data", "inv+ack", "metadata"],
    );
    let mut comp_rows = Vec::new();
    for p in ProtocolKind::ALL {
        let (mut total, mut data, mut inv, mut meta) = (0u64, 0u64, 0u64, 0u64);
        for w in WorkloadSpec::PARSEC {
            let r = get(runs, params, w, p, params.cores);
            total += r.noc.total_bytes().0;
            data += r.noc.bytes[rce_noc::MsgClass::Data.index()].0
                + r.noc.bytes[rce_noc::MsgClass::Writeback.index()].0;
            inv += r.noc.invalidation_bytes().0;
            meta += r.noc.metadata_bytes().0;
        }
        let mib = |b: u64| b as f64 / (1 << 20) as f64;
        t.row(vec![
            p.name().to_string(),
            format!("{:.1}", mib(total)),
            format!("{:.1}", mib(data)),
            format!("{:.1}", mib(inv)),
            format!("{:.1}", mib(meta)),
        ]);
        comp_rows.push(json!({
            "design": p.name(), "total": total, "data": data,
            "inv_ack": inv, "metadata": meta
        }));
    }
    table.push('\n');
    table.push_str(&t.render());
    json["composition"] = Value::Array(comp_rows);
    (table, json)
}

/// R-F4: normalized off-chip traffic, with the metadata share.
fn fig_dram(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let (mut table, mut json) =
        normalized_figure(params, runs, "Off-chip memory traffic", "dram_bytes", |r| {
            r.dram_bytes().as_f64()
        });
    let mut t = Table::new(
        "Off-chip metadata share (MiB across PARSEC suite)",
        &["design", "data", "metadata"],
    );
    let mut comp_rows = Vec::new();
    for p in ProtocolKind::ALL {
        let (mut data, mut meta) = (0u64, 0u64);
        for w in WorkloadSpec::PARSEC {
            let r = get(runs, params, w, p, params.cores);
            meta += r.dram.metadata_bytes().0;
            data += r.dram.total_bytes().0 - r.dram.metadata_bytes().0;
        }
        let mib = |b: u64| b as f64 / (1 << 20) as f64;
        t.row(vec![
            p.name().to_string(),
            format!("{:.1}", mib(data)),
            format!("{:.1}", mib(meta)),
        ]);
        comp_rows.push(json!({ "design": p.name(), "data": data, "metadata": meta }));
    }
    table.push('\n');
    table.push_str(&t.render());
    json["composition"] = Value::Array(comp_rows);
    (table, json)
}

/// Core counts used by the scaling and saturation figures.
const SCALING_CORES: [usize; 4] = [8, 16, 32, 64];

/// R-F5: geomean normalized run time vs core count.
fn fig_scaling(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    runs.ensure(grid(
        &WorkloadSpec::PARSEC,
        &ProtocolKind::ALL,
        &SCALING_CORES,
        params,
    ));
    let mut t = Table::new(
        "Run time vs core count (geomean over PARSEC, normalized to MESI at each count)",
        &["cores", "CE", "CE+", "ARC"],
    );
    let mut rows = Vec::new();
    for c in SCALING_CORES {
        let mut cells = vec![c.to_string()];
        let mut row = json!({ "cores": c });
        for p in ProtocolKind::DETECTORS {
            let norms: Vec<f64> = WorkloadSpec::PARSEC
                .iter()
                .map(|w| {
                    let base = get(runs, params, *w, ProtocolKind::MesiBaseline, c)
                        .cycles
                        .0 as f64;
                    let v = get(runs, params, *w, p, c).cycles.0 as f64;
                    (v / base).max(1e-9)
                })
                .collect();
            let g = geomean(&norms);
            cells.push(format!("{g:.3}"));
            row[p.name()] = json!(g);
        }
        t.row(cells);
        rows.push(row);
    }
    (t.render(), json!({ "rows": rows }))
}

/// AIM entry counts for the sensitivity sweep. The interesting knee
/// is where the AIM stops covering the metadata working set, so the
/// sweep reaches well below the default (8K entries).
const AIM_SIZES: [u64; 5] = [256, 1024, 4 * 1024, 16 * 1024, 64 * 1024];

/// Workloads with enough metadata pressure to exercise the AIM.
const AIM_WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec::Canneal,
    WorkloadSpec::Ferret,
    WorkloadSpec::Streamcluster,
    WorkloadSpec::Bodytrack,
];

/// R-F6: AIM size sensitivity for CE+ and ARC.
fn fig_aim(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let mut t = Table::new(
        "AIM sensitivity (geomean over metadata-heavy workloads)",
        &[
            "entries",
            "CE+ hit%",
            "CE+ runtime",
            "ARC hit%",
            "ARC runtime",
        ],
    );
    // Baselines (per workload, at default AIM) for normalization.
    let mut keys = AIM_WORKLOADS
        .map(|w| RunKey::paper(w, ProtocolKind::MesiBaseline, params.cores, params))
        .to_vec();
    let sized = |w, p, entries| {
        let cfg = MachineConfig::paper_default(params.cores, p).with_aim_entries(entries);
        RunKey::new(w, cfg, params)
    };
    for entries in AIM_SIZES {
        for p in [ProtocolKind::CePlus, ProtocolKind::Arc] {
            keys.extend(AIM_WORKLOADS.map(|w| sized(w, p, entries)));
        }
    }
    runs.ensure(keys);
    let mut rows = Vec::new();
    for entries in AIM_SIZES {
        let mut cells = vec![entries.to_string()];
        let mut row = json!({ "entries": entries });
        for p in [ProtocolKind::CePlus, ProtocolKind::Arc] {
            let mut hits = Vec::new();
            let mut norms = Vec::new();
            for w in AIM_WORKLOADS {
                let r = runs.get(&sized(w, p, entries));
                if let Some(a) = &r.aim {
                    hits.push(a.hit_rate());
                }
                let base = get(runs, params, w, ProtocolKind::MesiBaseline, params.cores);
                norms.push((r.cycles.0 as f64 / base.cycles.0 as f64).max(1e-9));
            }
            let hit = if hits.is_empty() {
                0.0
            } else {
                hits.iter().sum::<f64>() / hits.len() as f64
            };
            let g = geomean(&norms);
            cells.push(format!("{:.1}", hit * 100.0));
            cells.push(format!("{g:.3}"));
            row[p.name()] = json!({ "hit_rate": hit, "runtime": g });
        }
        t.row(cells);
        rows.push(row);
    }
    (t.render(), json!({ "rows": rows }))
}

/// R-T3: exception delivery — every design must agree with the oracle.
fn table3(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let mut t = Table::new(
        "Table III: region conflicts detected (vs oracle ground truth)",
        &["workload", "oracle", "CE", "CE+", "ARC", "all match"],
    );
    // Naturally racy workloads plus race-injected race-free ones, as
    // (workload, scale, injected races).
    let cases = [
        (WorkloadSpec::Canneal, params.scale.min(2), 0),
        (WorkloadSpec::RacyPair, params.scale, 0),
        (WorkloadSpec::Blackscholes, 1, 4),
        (WorkloadSpec::Streamcluster, 1, 8),
    ];
    let key = |(w, scale, races): (WorkloadSpec, u32, usize), proto| {
        RunKey::paper(w, proto, params.cores, params)
            .with_scale(scale)
            .with_races(races)
    };
    runs.ensure(
        cases
            .iter()
            .flat_map(|&c| ProtocolKind::DETECTORS.map(|p| key(c, p))),
    );
    let mut rows = Vec::new();
    for case in cases {
        let reports = ProtocolKind::DETECTORS.map(|proto| runs.get(&key(case, proto)));
        let name = &reports[0].workload;
        let counts = reports.map(|r| r.exceptions.len());
        // Each design runs its own schedule, so each has its own oracle
        // count; the column shows the last design's.
        let oracle_count = reports[reports.len() - 1].oracle_conflicts.len();
        let all_match = reports.iter().all(|r| r.matches_oracle());
        t.row(vec![
            name.clone(),
            oracle_count.to_string(),
            counts[0].to_string(),
            counts[1].to_string(),
            counts[2].to_string(),
            if all_match { "yes" } else { "NO" }.to_string(),
        ]);
        rows.push(json!({
            "workload": name, "oracle": oracle_count,
            "CE": counts[0], "CE+": counts[1], "ARC": counts[2],
            "all_match": all_match
        }));
    }
    (t.render(), json!({ "rows": rows }))
}

/// Workloads whose writes hit widely-shared lines — the invalidation
/// storms that make eager coherence stress the NoC as cores grow.
const SATURATION_WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec::Canneal,
    WorkloadSpec::Bodytrack,
    WorkloadSpec::Streamcluster,
    WorkloadSpec::FalseSharing,
];

/// R-F7: NoC saturation vs core count.
fn fig_saturation(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    runs.ensure(grid(
        &SATURATION_WORKLOADS,
        &ProtocolKind::ALL,
        &SCALING_CORES,
        params,
    ));
    let mut t = Table::new(
        "NoC load vs core count (totals over invalidation-heavy workloads)",
        &[
            "cores",
            "design",
            "NoC MiB",
            "inv+ack MiB",
            "peak link util %",
            "mean queue delay (cyc)",
            "qdelay p50/p95/p99 (cyc)",
        ],
    );
    let mut rows = Vec::new();
    for c in SCALING_CORES {
        for p in ProtocolKind::ALL {
            let (mut util, mut delay, mut bytes, mut inv) = (0.0f64, 0.0, 0u64, 0u64);
            // A mean hides saturation onset; merge the per-message
            // queue-delay histograms so the tail is visible too.
            let mut qhist = Histogram::new();
            for w in SATURATION_WORKLOADS {
                let r = get(runs, params, w, p, c);
                util = util.max(r.noc.peak_link_utilization);
                delay += r.noc.mean_queue_delay();
                bytes += r.noc.total_bytes().0;
                inv += r.noc.invalidation_bytes().0;
                qhist.merge(&r.noc.queue_delay_hist);
            }
            let (p50, p95, p99) = (
                qhist.percentile(50.0),
                qhist.percentile(95.0),
                qhist.percentile(99.0),
            );
            let n = SATURATION_WORKLOADS.len() as f64;
            let mib = |b: u64| b as f64 / (1 << 20) as f64;
            t.row(vec![
                c.to_string(),
                p.name().to_string(),
                format!("{:.1}", mib(bytes)),
                format!("{:.2}", mib(inv)),
                format!("{:.1}", util * 100.0),
                format!("{:.1}", delay / n),
                format!("{p50}/{p95}/{p99}"),
            ]);
            rows.push(json!({
                "cores": c, "design": p.name(),
                "noc_bytes": bytes, "inv_ack_bytes": inv,
                "peak_util": util, "mean_queue_delay": delay / n,
                "queue_delay_p50": p50, "queue_delay_p95": p95,
                "queue_delay_p99": p99
            }));
        }
    }
    (t.render(), json!({ "rows": rows }))
}

/// At most this many timeline rows in the rendered text table (the
/// JSON keeps every sample; long runs are strided for display).
const TIMELINE_TABLE_ROWS: usize = 48;

/// R-F9: per-interval NoC load on a saturating workload. Where R-F7
/// reports end-of-run totals, this shows the *shape* over time: CE+'s
/// eager invalidation storms spike per-interval link utilization and
/// queue delay around conflicting phases, while ARC — which replaces
/// invalidation traffic with self-invalidation at region boundaries —
/// stays comparatively flat.
fn fig_saturation_timeline(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    const DESIGNS: [ProtocolKind; 2] = [ProtocolKind::CePlus, ProtocolKind::Arc];
    let w = WorkloadSpec::FalseSharing;
    let obs = ObsConfig {
        timeline: true,
        ..ObsConfig::default()
    };
    let keys = DESIGNS.map(|p| RunKey::paper(w, p, params.cores, params).with_obs(obs));
    runs.ensure(keys.clone());
    let timelines: Vec<(ProtocolKind, &rce_common::MetricsTimeline)> = keys
        .iter()
        .map(|k| {
            let tl = runs.get(k).timeline.as_ref();
            (k.protocol, tl.expect("sampling was requested"))
        })
        .collect();

    let mut t = Table::new(
        "NoC utilization timeline on false_sharing (one row per sampling interval)",
        &[
            "cycle",
            "CE+ peak util %",
            "CE+ mean util %",
            "CE+ qdelay (cyc)",
            "ARC peak util %",
            "ARC mean util %",
            "ARC qdelay (cyc)",
        ],
    );
    let n = timelines
        .iter()
        .map(|(_, tl)| tl.samples.len())
        .max()
        .unwrap_or(0);
    let stride = n.div_ceil(TIMELINE_TABLE_ROWS).max(1);
    for i in (0..n).step_by(stride) {
        // Runs end at different cycles; label the row with whichever
        // design still has a sample at this interval index.
        let cycle = timelines
            .iter()
            .find_map(|(_, tl)| tl.samples.get(i).map(|s| s.cycle))
            .unwrap_or(0);
        let mut cells = vec![cycle.to_string()];
        for (_, tl) in &timelines {
            match tl.samples.get(i) {
                Some(s) => {
                    cells.push(format!("{:.1}", s.noc_peak_link_util * 100.0));
                    cells.push(format!("{:.1}", s.noc_mean_link_util * 100.0));
                    cells.push(s.noc_queue_delay.to_string());
                }
                None => cells.extend(["-".to_string(), "-".to_string(), "-".to_string()]),
            }
        }
        t.row(cells);
    }

    let series: Vec<Value> = timelines
        .iter()
        .map(|(p, tl)| {
            json!({
                "design": p.name(),
                "interval": tl.interval,
                "samples": tl.samples,
            })
        })
        .collect();
    (
        t.render(),
        json!({
            "workload": w.name(),
            "interval": TIMELINE_INTERVAL,
            "series": series
        }),
    )
}

/// Hottest lines and core pairs shown per row of R-F10, and by
/// `paper explain`.
pub const HEATMAP_TOP_K: usize = 5;

/// R-F10: conflict heatmap from the forensics layer. For the racy
/// workloads, which lines and which core pairs carry the conflicts,
/// and do CE+ (eager invalidation detection) and ARC (LLC-side
/// registration) agree on where the heat is? The detection *sites*
/// differ by design; the hot lines must not.
fn fig_conflict_heatmap(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    const DESIGNS: [ProtocolKind; 2] = [ProtocolKind::CePlus, ProtocolKind::Arc];
    let mut t = Table::new(
        "Conflict heatmap (forensics): hottest lines and core pairs",
        &[
            "workload",
            "design",
            "detections",
            "delivered",
            "hottest lines (line:count)",
            "hottest pairs (a-b:count)",
        ],
    );
    let cases = [
        (WorkloadSpec::RacyPair, params.scale),
        (WorkloadSpec::Canneal, params.scale.min(2)),
    ];
    let key = |(w, scale): (WorkloadSpec, u32), p| {
        RunKey::paper(w, p, params.cores, params)
            .with_scale(scale)
            .with_obs(ObsConfig::FORENSICS)
    };
    runs.ensure(cases.iter().flat_map(|&c| DESIGNS.map(|p| key(c, p))));
    let mut rows = Vec::new();
    for (w, scale) in cases {
        for p in DESIGNS {
            let f = runs.get(&key((w, scale), p)).forensics.as_ref();
            let f = f.expect("forensics was requested");
            let lines = f
                .hottest_lines(HEATMAP_TOP_K)
                .iter()
                .map(|h| format!("{}:{}", h.line, h.conflicts))
                .collect::<Vec<_>>()
                .join(" ");
            let pairs = f
                .hottest_pairs(HEATMAP_TOP_K)
                .iter()
                .map(|h| format!("{}-{}:{}", h.core_a, h.core_b, h.conflicts))
                .collect::<Vec<_>>()
                .join(" ");
            t.row(vec![
                w.name().to_string(),
                p.name().to_string(),
                f.total_detections.to_string(),
                f.delivered.to_string(),
                if lines.is_empty() { "-".into() } else { lines },
                if pairs.is_empty() { "-".into() } else { pairs },
            ]);
            rows.push(json!({
                "workload": w.name(),
                "design": p.name(),
                "total_detections": f.total_detections,
                "delivered": f.delivered,
                "lines": f.hottest_lines(HEATMAP_TOP_K).to_vec(),
                "core_pairs": f.hottest_pairs(HEATMAP_TOP_K).to_vec(),
                "region_lifetime_mean": f.region_lifetime.mean(),
            }));
        }
    }
    (t.render(), json!({ "top_k": HEATMAP_TOP_K, "rows": rows }))
}

/// R-F8: are the headline geomeans artifacts of one seed? Re-run the
/// runtime figure's geomean at several seeds and report the spread.
fn fig_seeds(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    const SEEDS: [u64; 3] = [42, 1337, 90210];
    let seeded = SEEDS.map(|seed| EvalParams { seed, ..*params });
    runs.ensure(seeded.iter().flat_map(base_keys));
    let mut t = Table::new(
        "Seed sensitivity (runtime geomean normalized to MESI)",
        &["seed", "CE", "CE+", "ARC"],
    );
    let mut rows = Vec::new();
    let mut per_design: HashMap<ProtocolKind, Vec<f64>> = HashMap::new();
    for (seed, p) in SEEDS.into_iter().zip(&seeded) {
        let mut cells = vec![seed.to_string()];
        let mut row = json!({ "seed": seed });
        for proto in ProtocolKind::DETECTORS {
            let norms: Vec<f64> = WorkloadSpec::PARSEC
                .iter()
                .map(|w| {
                    let base = get(runs, p, *w, ProtocolKind::MesiBaseline, p.cores)
                        .cycles
                        .0 as f64;
                    let v = get(runs, p, *w, proto, p.cores).cycles.0 as f64;
                    (v / base).max(1e-9)
                })
                .collect();
            let g = geomean(&norms);
            per_design.entry(proto).or_default().push(g);
            cells.push(format!("{g:.3}"));
            row[proto.name()] = json!(g);
        }
        t.row(cells);
        rows.push(row);
    }
    let mut cells = vec!["spread".to_string()];
    let mut row = json!({ "seed": "spread" });
    for proto in ProtocolKind::DETECTORS {
        let v = &per_design[&proto];
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(0.0f64, f64::max);
        cells.push(format!("{:.3}", max - min));
        row[proto.name()] = json!(max - min);
    }
    t.row(cells);
    rows.push(row);
    (t.render(), json!({ "rows": rows }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> EvalParams {
        EvalParams {
            cores: 4,
            scale: 1,
            seed: 1,
            jobs: 0,
        }
    }

    /// The catalog row named `name`.
    fn experiment(name: &str) -> Experiment {
        Experiment::find(name).unwrap_or_else(|| panic!("no experiment named {name}"))
    }

    #[test]
    fn conflict_heatmap_localizes_the_racy_pair_race() {
        let f = experiment("fig-conflict-heatmap").run(&tiny_params(), None);
        let rows = f.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4, "two workloads x CE+/ARC");
        let racy: Vec<_> = rows
            .iter()
            .filter(|r| r["workload"] == json!("racy_pair"))
            .collect();
        assert_eq!(racy.len(), 2);
        let mut hottest = Vec::new();
        for r in &racy {
            assert!(r["total_detections"].as_f64().unwrap() > 0.0);
            assert!(r["delivered"].as_f64().unwrap() > 0.0);
            let lines = r["lines"].as_array().unwrap();
            assert!(!lines.is_empty());
            hottest.push(lines[0]["line"].clone());
        }
        // CE+ and ARC detect at different sites but must agree on
        // where the heat is.
        assert_eq!(hottest[0], hottest[1]);
    }

    #[test]
    fn table1_renders() {
        let f = experiment("table1").run(&tiny_params(), None);
        assert!(f.table.contains("cores"));
        assert!(f.table.contains("AIM"));
        assert_eq!(f.id, "R-T1");
    }

    #[test]
    fn table2_covers_suite() {
        let f = experiment("table2").run(&tiny_params(), None);
        for w in WorkloadSpec::PARSEC {
            assert!(f.table.contains(w.name()), "{} missing", w.name());
        }
        assert_eq!(f.json.as_array().unwrap().len(), 13);
    }

    #[test]
    fn runtime_figure_has_geomean() {
        let params = tiny_params();
        let sweep = base_sweep(&params);
        let f = experiment("fig-runtime").run(&params, Some(&sweep));
        assert!(f.table.contains("geomean"));
        let rows = f.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 14); // 13 workloads + geomean
                                    // All normalized values are positive and finite.
        for r in rows {
            for p in ["CE", "CE+", "ARC"] {
                let v = r[p].as_f64().unwrap();
                assert!(v.is_finite() && v > 0.0, "{p}: {v}");
            }
        }
    }

    #[test]
    fn figure_json_payload_parse_roundtrip() {
        // The `paper` binary writes results/<id>.json in exactly this
        // shape; assert the emitted text parses back to the same value.
        let f = experiment("table2").run(&tiny_params(), None);
        let payload = json!({
            "id": f.id,
            "title": f.title,
            "cores": 4,
            "scale": 1,
            "seed": 1,
            "data": f.json,
        });
        let text = json::to_string_pretty(&payload);
        let back = Value::parse(&text).expect("emitted JSON must parse");
        assert_eq!(back, payload);
        assert_eq!(back["id"], f.id);
        assert_eq!(back["data"].as_array().unwrap().len(), 13);
        // Compact form round-trips too.
        let compact = json::to_string(&payload);
        assert_eq!(Value::parse(&compact).unwrap(), payload);
    }

    #[test]
    fn saturation_timeline_covers_both_designs() {
        let f = experiment("fig-saturation-timeline").run(&tiny_params(), None);
        assert_eq!(f.id, "R-F9");
        assert!(f.table.contains("CE+ peak util %"));
        assert!(f.table.contains("ARC peak util %"));
        let series = f.json["series"].as_array().unwrap();
        let designs: Vec<&str> = series
            .iter()
            .map(|s| s["design"].as_str().unwrap())
            .collect();
        assert_eq!(designs, ["CE+", "ARC"]);
        for s in series {
            assert_eq!(s["interval"].as_u64().unwrap(), TIMELINE_INTERVAL);
            let samples = s["samples"].as_array().unwrap();
            assert!(!samples.is_empty(), "{}: empty timeline", s["design"]);
            let mut prev = 0u64;
            for smp in samples {
                let cycle = smp["cycle"].as_u64().unwrap();
                assert!(cycle > prev, "sample cycles must be increasing");
                prev = cycle;
                for key in ["noc_peak_link_util", "noc_mean_link_util"] {
                    let u = smp[key].as_f64().unwrap();
                    assert!((0.0..=1.0).contains(&u), "{key} out of range: {u}");
                }
            }
        }
    }

    #[test]
    fn catalog_matches_committed_results() {
        let rows: Vec<Experiment> = Experiment::ALL
            .into_iter()
            .chain(Experiment::ABLATIONS)
            .collect();
        for (i, e) in rows.iter().enumerate() {
            for other in &rows[i + 1..] {
                assert_ne!(e.name, other.name, "duplicate name");
                assert_ne!(e.id, other.id, "duplicate ID");
            }
            assert_eq!(Experiment::find(e.name).map(|f| f.id), Some(e.id));
        }
        assert!(Experiment::find("nope").is_none());
        assert!(Experiment::ALL.iter().all(|e| !e.id.starts_with("R-A")));
        assert!(Experiment::ABLATIONS
            .iter()
            .all(|e| e.id.starts_with("R-A")));
        // Every row writes one committed results/ file, and every
        // committed R-* file comes from one row.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut committed: Vec<String> = std::fs::read_dir(dir)
            .expect("results/ is committed")
            .map(|f| f.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.starts_with("R-"))
            .map(|f| f.trim_end_matches(".json").to_string())
            .collect();
        committed.sort();
        let mut ids: Vec<String> = rows.iter().map(|e| e.id.to_string()).collect();
        ids.sort();
        assert_eq!(ids, committed);
    }

    #[test]
    fn table3_all_engines_match_their_oracles() {
        let f = experiment("table3").run(&tiny_params(), None);
        let rows = f.json["rows"].as_array().unwrap();
        assert!(rows.len() >= 4);
        for r in rows {
            assert_eq!(
                r["all_match"],
                json!(true),
                "engine/oracle mismatch in {}",
                r["workload"]
            );
        }
        assert!(!f.table.contains("NO"));
    }

    #[test]
    fn aim_sweep_hit_rates_monotone_nondecreasing() {
        let f = experiment("fig-aim").run(&tiny_params(), None);
        let rows = f.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 5);
        for design in ["CE+", "ARC"] {
            let hits: Vec<f64> = rows
                .iter()
                .map(|r| r[design]["hit_rate"].as_f64().unwrap())
                .collect();
            for w in hits.windows(2) {
                assert!(
                    w[1] >= w[0] - 0.02,
                    "{design}: hit rate should not fall as the AIM grows: {hits:?}"
                );
            }
        }
    }

    #[test]
    fn energy_breakdown_shares_sum_to_one() {
        let params = tiny_params();
        let sweep = base_sweep(&params);
        let f = experiment("fig-energy").run(&params, Some(&sweep));
        for row in f.json["breakdown"].as_array().unwrap() {
            let total: f64 = ["L1", "LLC", "AIM", "Dir", "NoC", "DRAM", "Static"]
                .iter()
                .map(|k| row[*k].as_f64().unwrap())
                .sum();
            assert!(
                (total - 100.0).abs() < 0.5,
                "{}: breakdown sums to {total}",
                row["design"]
            );
        }
    }

    #[test]
    fn figures_over_the_base_sweep_match_and_skip_its_runs() {
        // Seed 42 is one of fig-seeds' seeds, so every figure here
        // reads some base-sweep runs.
        let params = EvalParams {
            seed: 42,
            ..tiny_params()
        };
        let sweep = base_sweep(&params);
        for (name, base_runs_read) in [("fig-aim", 4), ("table3", 3), ("fig-seeds", 52)] {
            let render = experiment(name).render;
            let mut alone = RunStore::new(None, 0);
            let mut over_base = RunStore::new(Some(&sweep), 0);
            let a = render(&params, &mut alone);
            let b = render(&params, &mut over_base);
            assert_eq!(a, b, "{name}");
            assert_eq!(alone.len() - over_base.len(), base_runs_read, "{name}");
        }
    }
}
