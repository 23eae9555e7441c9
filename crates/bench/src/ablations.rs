//! Ablation studies: quantify the design choices DESIGN.md calls out.
//!
//! Each ablation varies exactly one knob of one design and reports the
//! headline metrics against the default. These are the experiments a
//! reviewer asks for: *why* word granularity, *why* a 16-byte
//! piggyback, *what if* ARC skipped self-invalidating read-only data.
//! Their rows are `Experiment::ABLATIONS`.

use crate::runner::{EvalParams, RunKey, RunStore};
use rce_common::json::JsonValue as Value;
use rce_common::{json, table::Table, Bytes, DetectionGranularity, MachineConfig, ProtocolKind};
use rce_core::SimReport;
use rce_trace::WorkloadSpec;

/// `w` on `proto`'s paper configuration, changed by `edit`.
fn tuned(
    w: WorkloadSpec,
    proto: ProtocolKind,
    params: &EvalParams,
    edit: impl FnOnce(&mut MachineConfig),
) -> RunKey {
    let mut cfg = MachineConfig::paper_default(params.cores, proto);
    edit(&mut cfg);
    RunKey::new(w, cfg, params)
}

/// `r`'s engine counter `name`, or 0.
fn counter(r: &SimReport, name: &str) -> u64 {
    r.engine_counters
        .iter()
        .find(|(k, _)| k == name)
        .map_or(0, |(_, v)| *v)
}

/// Word vs line granularity: exception counts and run time.
pub(crate) fn granularity(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let mut t = Table::new(
        "Detection granularity ablation (CE+, exceptions & runtime vs word-granularity)",
        &["workload", "word ex", "line ex", "word time", "line time"],
    );
    let workloads = [
        WorkloadSpec::FalseSharing,
        WorkloadSpec::Fluidanimate,
        WorkloadSpec::Canneal,
        WorkloadSpec::X264,
    ];
    let grains = [DetectionGranularity::Word, DetectionGranularity::Line];
    let small = EvalParams {
        cores: params.cores.min(16),
        ..*params
    };
    let key = |w, g| tuned(w, ProtocolKind::CePlus, &small, |c| c.granularity = g);
    runs.ensure(workloads.iter().flat_map(|&w| grains.map(|g| key(w, g))));
    let mut rows = Vec::new();
    for w in workloads {
        let mut cells = vec![w.name().to_string()];
        let mut row = json!({ "workload": w.name() });
        let mut times = Vec::new();
        for g in grains {
            let r = runs.get(&key(w, g));
            cells.push(r.exceptions.len().to_string());
            times.push(r.cycles.0);
            row[format!("{g:?}")] = json!({
                "exceptions": r.exceptions.len(),
                "cycles": r.cycles.0,
            });
        }
        cells.push(times[0].to_string());
        cells.push(times[1].to_string());
        t.row(cells);
        rows.push(row);
    }
    (t.render(), json!({ "rows": rows }))
}

/// ARC read-only sharing classification on/off.
pub(crate) fn readonly(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let mut t = Table::new(
        "ARC read-only sharing ablation (normalized to MESI)",
        &[
            "workload",
            "ARC runtime",
            "ARC+ro runtime",
            "ARC L1 miss%",
            "ARC+ro L1 miss%",
            "ro retained",
        ],
    );
    let workloads = [
        WorkloadSpec::Raytrace,
        WorkloadSpec::Bodytrack,
        WorkloadSpec::Ferret,
        WorkloadSpec::Streamcluster,
        WorkloadSpec::Canneal,
    ];
    let base = |w| RunKey::paper(w, ProtocolKind::MesiBaseline, params.cores, params);
    let arc = |w, ro| {
        tuned(w, ProtocolKind::Arc, params, |c| {
            c.arc_readonly_sharing = ro
        })
    };
    runs.ensure(
        workloads
            .iter()
            .flat_map(|&w| [base(w), arc(w, false), arc(w, true)]),
    );
    let mut rows = Vec::new();
    for w in workloads {
        let base = runs.get(&base(w));
        let [without, with] = [false, true].map(|ro| runs.get(&arc(w, ro)));
        let norm = |r: &SimReport| r.cycles.0 as f64 / base.cycles.0 as f64;
        let stats = |r: &SimReport| json!({ "runtime": norm(r), "l1_miss_rate": r.l1_miss_rate() });
        t.row(vec![
            w.name().to_string(),
            format!("{:.3}", norm(without)),
            format!("{:.3}", norm(with)),
            format!("{:.1}", without.l1_miss_rate() * 100.0),
            format!("{:.1}", with.l1_miss_rate() * 100.0),
            counter(with, "ro_retained_lines").to_string(),
        ]);
        rows.push(json!({
            "workload": w.name(),
            "without_ro": stats(without),
            "with_ro": stats(with),
        }));
    }
    (t.render(), json!({ "rows": rows }))
}

/// CE+ piggyback size sweep.
pub(crate) fn piggyback(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let mut t = Table::new(
        "CE+ metadata piggyback size (geomean over sharing-heavy workloads, vs MESI)",
        &["piggyback B", "runtime", "noc traffic"],
    );
    let workloads = [
        WorkloadSpec::Canneal,
        WorkloadSpec::Dedup,
        WorkloadSpec::Bodytrack,
        WorkloadSpec::Streamcluster,
    ];
    let sizes = [0u64, 8, 16, 32, 64];
    let base = |w| RunKey::paper(w, ProtocolKind::MesiBaseline, params.cores, params);
    let ceplus = |w, b| {
        tuned(w, ProtocolKind::CePlus, params, |c| {
            c.metadata_piggyback_bytes = b
        })
    };
    let mut keys = workloads.map(base).to_vec();
    for b in sizes {
        keys.extend(workloads.map(|w| ceplus(w, b)));
    }
    runs.ensure(keys);
    let mut rows = Vec::new();
    for bytes in sizes {
        let mut rt = Vec::new();
        let mut noc = Vec::new();
        for w in workloads {
            let base = runs.get(&base(w));
            let r = runs.get(&ceplus(w, bytes));
            rt.push((r.cycles.0 as f64 / base.cycles.0 as f64).max(1e-9));
            noc.push((r.noc_bytes().as_f64() / base.noc_bytes().as_f64()).max(1e-9));
        }
        let g = rce_common::geomean(&rt);
        let gn = rce_common::geomean(&noc);
        t.row(vec![
            bytes.to_string(),
            format!("{g:.3}"),
            format!("{gn:.3}"),
        ]);
        rows.push(json!({ "bytes": bytes, "runtime": g, "noc": gn }));
    }
    (t.render(), json!({ "rows": rows }))
}

/// CE under L1 size sweep: smaller L1s displace more metadata.
pub(crate) fn l1_size(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let mut t = Table::new(
        "CE vs L1 capacity (canneal + swaptions, vs same-L1 MESI)",
        &["L1 KiB", "CE runtime", "CE meta DRAM KiB"],
    );
    let sizes = [4u64, 8, 16, 32];
    let workloads = [WorkloadSpec::Canneal, WorkloadSpec::Swaptions];
    let key = |w, proto, kib| tuned(w, proto, params, |c| c.l1.capacity = Bytes::kib(kib));
    let designs = [ProtocolKind::MesiBaseline, ProtocolKind::Ce];
    runs.ensure(sizes.iter().flat_map(|&kib| {
        workloads
            .iter()
            .flat_map(move |&w| designs.map(|proto| key(w, proto, kib)))
    }));
    let mut rows = Vec::new();
    for kib in sizes {
        let mut rt = Vec::new();
        let mut meta = 0u64;
        for w in workloads {
            let base = runs.get(&key(w, ProtocolKind::MesiBaseline, kib));
            let r = runs.get(&key(w, ProtocolKind::Ce, kib));
            rt.push((r.cycles.0 as f64 / base.cycles.0 as f64).max(1e-9));
            meta += r.dram.metadata_bytes().0;
        }
        let g = rce_common::geomean(&rt);
        t.row(vec![
            kib.to_string(),
            format!("{g:.3}"),
            format!("{}", meta / 1024),
        ]);
        rows.push(json!({ "l1_kib": kib, "runtime": g, "meta_dram_bytes": meta }));
    }
    (t.render(), json!({ "rows": rows }))
}

/// ARC signature size sweep.
pub(crate) fn signature(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let mut t = Table::new(
        "ARC region-end signature size (sync-dense workloads, vs MESI)",
        &["sig B/line", "runtime", "metadata noc KiB"],
    );
    let workloads = [
        WorkloadSpec::Fluidanimate,
        WorkloadSpec::Dedup,
        WorkloadSpec::X264,
    ];
    let sizes = [2u64, 4, 8, 16, 32];
    let base = |w| RunKey::paper(w, ProtocolKind::MesiBaseline, params.cores, params);
    let arc = |w, b| {
        tuned(w, ProtocolKind::Arc, params, |c| {
            c.signature_bytes_per_line = b
        })
    };
    let mut keys = workloads.map(base).to_vec();
    for b in sizes {
        keys.extend(workloads.map(|w| arc(w, b)));
    }
    runs.ensure(keys);
    let mut rows = Vec::new();
    for bytes in sizes {
        let mut rt = Vec::new();
        let mut meta = 0u64;
        for w in workloads {
            let base = runs.get(&base(w));
            let r = runs.get(&arc(w, bytes));
            rt.push((r.cycles.0 as f64 / base.cycles.0 as f64).max(1e-9));
            meta += r.noc.metadata_bytes().0;
        }
        let g = rce_common::geomean(&rt);
        t.row(vec![
            bytes.to_string(),
            format!("{g:.3}"),
            format!("{}", meta / 1024),
        ]);
        rows.push(json!({ "sig_bytes": bytes, "runtime": g, "meta_noc_bytes": meta }));
    }
    (t.render(), json!({ "rows": rows }))
}

/// AIM capacity x latency sweep over both AIM-backed designs.
///
/// The paper sizes the AIM once (Table III) and never reports how
/// sensitive CE+ and ARC are to that choice. This sweep fills the gap:
/// geomean runtime vs MESI as the AIM shrinks from "effectively
/// infinite" down to thrash territory, crossed with the AIM access
/// latency. ARC leans on the AIM for *every* LLC registration, so it
/// should degrade faster than CE+ (which only touches the AIM on
/// displacement and scrub).
pub(crate) fn aim_sweep(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let mut t = Table::new(
        "AIM capacity x latency (CE+/ARC, geomean runtime vs MESI)",
        &[
            "design", "entries", "latency", "runtime", "AIM hit%", "spills",
        ],
    );
    let workloads = [WorkloadSpec::Canneal, WorkloadSpec::Bodytrack];
    let base = |w| RunKey::paper(w, ProtocolKind::MesiBaseline, params.cores, params);
    let sized = |w, (proto, entries, latency): (ProtocolKind, u64, u64)| {
        let cfg = MachineConfig::paper_default(params.cores, proto)
            .with_aim_entries(entries)
            .with_aim_latency(latency);
        RunKey::new(w, cfg, params)
    };
    let mut points = Vec::new();
    let mut keys = workloads.map(base).to_vec();
    for proto in [ProtocolKind::CePlus, ProtocolKind::Arc] {
        for entries in [256u64, 1024, 8192, 65536] {
            for latency in [2u64, 4, 8] {
                points.push((proto, entries, latency));
                keys.extend(workloads.map(|w| sized(w, (proto, entries, latency))));
            }
        }
    }
    runs.ensure(keys);
    let mut rows = Vec::new();
    for (proto, entries, latency) in points {
        let mut rt = Vec::new();
        let (mut accesses, mut hits, mut spills) = (0u64, 0u64, 0u64);
        for w in workloads {
            let base = runs.get(&base(w));
            let r = runs.get(&sized(w, (proto, entries, latency)));
            rt.push((r.cycles.0 as f64 / base.cycles.0 as f64).max(1e-9));
            if let Some(a) = &r.aim {
                accesses += a.accesses;
                hits += a.hits;
                spills += a.spills;
            }
        }
        let g = rce_common::geomean(&rt);
        let hit_pct = if accesses == 0 {
            0.0
        } else {
            100.0 * hits as f64 / accesses as f64
        };
        t.row(vec![
            proto.name().to_string(),
            entries.to_string(),
            latency.to_string(),
            format!("{g:.3}"),
            format!("{hit_pct:.1}"),
            spills.to_string(),
        ]);
        rows.push(json!({
            "design": proto.name(), "entries": entries,
            "latency": latency, "runtime": g,
            "aim_hit_rate": hit_pct / 100.0, "spills": spills
        }));
    }
    (t.render(), json!({ "rows": rows }))
}

/// MESI vs MOESI: writeback elision on migratory sharing.
pub(crate) fn moesi(params: &EvalParams, runs: &mut RunStore) -> (String, Value) {
    let mut t = Table::new(
        "MESI vs MOESI substrate (migratory-sharing workloads)",
        &[
            "workload",
            "design",
            "runtime ratio (MOESI/MESI)",
            "writeback ratio",
            "O downgrades",
        ],
    );
    let workloads = [
        WorkloadSpec::Migratory,
        WorkloadSpec::Dedup,
        WorkloadSpec::Canneal,
        WorkloadSpec::PingPong,
    ];
    let designs = [ProtocolKind::MesiBaseline, ProtocolKind::CePlus];
    let key = |w, proto, owned| tuned(w, proto, params, |c| c.use_owned_state = owned);
    runs.ensure(workloads.iter().flat_map(|&w| {
        designs
            .iter()
            .flat_map(move |&proto| [false, true].map(|owned| key(w, proto, owned)))
    }));
    let mut rows = Vec::new();
    for w in workloads {
        for proto in designs {
            let [mesi, moesi] = [false, true].map(|owned| runs.get(&key(w, proto, owned)));
            let wb = |r: &SimReport| r.noc.bytes[rce_noc::MsgClass::Writeback.index()].0.max(1);
            let downgrades = counter(moesi, "owned_downgrades");
            let rt = moesi.cycles.0 as f64 / mesi.cycles.0 as f64;
            let wbr = wb(moesi) as f64 / wb(mesi) as f64;
            t.row(vec![
                w.name().to_string(),
                proto.name().to_string(),
                format!("{rt:.3}"),
                format!("{wbr:.3}"),
                downgrades.to_string(),
            ]);
            rows.push(json!({
                "workload": w.name(), "design": proto.name(),
                "runtime_ratio": rt, "writeback_ratio": wbr,
                "owned_downgrades": downgrades
            }));
        }
    }
    (t.render(), json!({ "rows": rows }))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: EvalParams = EvalParams {
        cores: 4,
        scale: 1,
        seed: 1,
        jobs: 0,
    };

    #[test]
    fn granularity_ablation_runs_small() {
        let (table, json) = granularity(&SMALL, &mut RunStore::new(None, 0));
        assert!(table.contains("false_sharing"));
        // Line granularity flags false sharing; word does not.
        let rows = json["rows"].as_array().unwrap();
        let fs = &rows[0];
        assert_eq!(fs["Word"]["exceptions"].as_u64(), Some(0));
        assert!(fs["Line"]["exceptions"].as_u64().unwrap() > 0);
    }

    #[test]
    fn readonly_simulates_each_run_once() {
        let mut store = RunStore::new(None, 0);
        let first = readonly(&SMALL, &mut store);
        assert_eq!(
            store.len(),
            15,
            "5 workloads x (MESI, ARC, ARC+ro), once each"
        );
        let again = readonly(&SMALL, &mut store);
        assert_eq!(store.len(), 15, "re-asking for present keys runs nothing");
        assert_eq!(first, again);
    }
}
