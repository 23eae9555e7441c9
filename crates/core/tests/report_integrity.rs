//! Report integrity: histograms, JSON serialization, and
//! cross-field consistency of `SimReport`.

use rce_common::{json, MachineConfig, ProtocolKind};
use rce_core::Machine;
use rce_trace::WorkloadSpec;

fn report(w: WorkloadSpec, proto: ProtocolKind) -> rce_core::SimReport {
    let cfg = MachineConfig::paper_default(8, proto);
    let p = w.build(8, 1, 42);
    Machine::new(&cfg).unwrap().run(&p).unwrap()
}

#[test]
fn histograms_are_populated() {
    let r = report(WorkloadSpec::Streamcluster, ProtocolKind::CePlus);
    assert_eq!(r.access_latency.count(), r.mem_ops);
    assert!(r.access_latency.mean() >= 1.0);
    // Every non-empty region appears once in the region-length
    // histogram, and their op counts sum to the committed ops.
    assert!(r.region_len.count() > 0);
    assert_eq!(r.region_len.sum(), r.mem_ops);
    assert_eq!(r.boundary_cost.count(), r.regions);
}

#[test]
fn boundary_costs_reflect_design() {
    // CE's boundaries scrub displaced metadata; the baseline's are
    // free. canneal displaces heavily.
    let base = report(WorkloadSpec::Canneal, ProtocolKind::MesiBaseline);
    let ce = report(WorkloadSpec::Canneal, ProtocolKind::Ce);
    assert!(
        ce.boundary_cost.mean() > base.boundary_cost.mean(),
        "CE {} vs MESI {}",
        ce.boundary_cost.mean(),
        base.boundary_cost.mean()
    );
}

#[test]
fn access_latency_tracks_misses() {
    // A workload with near-zero misses has far lower mean latency
    // than a thrashing one under the same design.
    let cheap = report(WorkloadSpec::PingPong, ProtocolKind::MesiBaseline);
    let thrash = report(WorkloadSpec::Canneal, ProtocolKind::MesiBaseline);
    assert!(thrash.access_latency.mean() > cheap.access_latency.mean());
}

#[test]
fn report_json_is_well_formed() {
    let r = report(WorkloadSpec::RacyPair, ProtocolKind::Arc);
    let v = json::JsonValue::parse(&json::to_string(&r)).expect("parse");
    assert_eq!(v["cycles"].as_u64(), Some(r.cycles.0));
    assert_eq!(v["mem_ops"].as_u64(), Some(r.mem_ops));
    let exceptions = v["exceptions"].as_array().unwrap();
    assert_eq!(exceptions.len(), r.exceptions.len());
    assert!(!exceptions.is_empty(), "racy_pair must race");
    assert_eq!(v["protocol"], json::JsonValue::Str("Arc".into()));
    assert_eq!(
        v["access_latency"]["count"].as_u64(),
        Some(r.access_latency.count())
    );
}

#[test]
fn engine_counters_present_per_design() {
    let names = |p| {
        report(WorkloadSpec::Dedup, p)
            .engine_counters
            .iter()
            .map(|(k, _)| k.clone())
            .collect::<Vec<_>>()
    };
    let ce = names(ProtocolKind::Ce);
    assert!(ce.iter().any(|k| k == "invalidations"));
    assert!(ce.iter().any(|k| k == "scrubs"));
    let arc = names(ProtocolKind::Arc);
    assert!(arc.iter().any(|k| k == "registrations"));
    assert!(arc.iter().any(|k| k == "self_invalidated_lines"));
}

#[test]
fn per_core_stats_sum_to_totals() {
    let r = report(WorkloadSpec::Dedup, ProtocolKind::Arc);
    assert_eq!(r.per_core.len(), r.cores);
    let mem: u64 = r.per_core.iter().map(|c| c.mem_ops).sum();
    let sync: u64 = r.per_core.iter().map(|c| c.sync_ops).sum();
    assert_eq!(mem, r.mem_ops);
    assert_eq!(sync, r.sync_ops);
    // The run ends when the last core finishes.
    let max_finish = r.per_core.iter().map(|c| c.finish).max().unwrap();
    assert_eq!(max_finish, r.cycles);
    assert!(r.load_imbalance() >= 1.0);
}

#[test]
fn balanced_workloads_have_low_imbalance() {
    let r = report(WorkloadSpec::Blackscholes, ProtocolKind::MesiBaseline);
    assert!(
        r.load_imbalance() < 1.2,
        "barrier-synced data-parallel work should balance, got {}",
        r.load_imbalance()
    );
}

#[test]
fn cycle_counts_exceed_critical_path_lower_bound() {
    // Sanity: total cycles at least mem_ops / cores (each op costs
    // at least a cycle on its core).
    for proto in ProtocolKind::ALL {
        let r = report(WorkloadSpec::Facesim, proto);
        assert!(r.cycles.0 >= r.mem_ops / r.cores as u64, "{proto}");
    }
}
