//! Trace interchange: programs serialize to JSON and back without
//! loss (the contract behind `paper dump` and replaying its file).

use rce_common::json;
use rce_trace::{validate, Program, WorkloadSpec};

#[test]
fn every_workload_round_trips_through_json() {
    for w in WorkloadSpec::PARSEC
        .iter()
        .chain(WorkloadSpec::MICRO.iter())
    {
        let p = w.build(4, 1, 42);
        let text = json::to_string(&p);
        let back: Program = json::from_str(&text).expect("deserialize");
        assert_eq!(p, back, "{w} did not round-trip");
        validate(&back).unwrap();
    }
}

#[test]
fn injected_races_survive_round_trip() {
    let mut p = WorkloadSpec::Blackscholes.build(4, 1, 7);
    let addrs = rce_trace::inject_races(&mut p, 3, 7).unwrap();
    let text = json::to_string(&p);
    let back: Program = json::from_str(&text).unwrap();
    assert_eq!(p, back);
    // The racy accesses are still in place.
    for a in addrs {
        let touchers = back
            .threads
            .iter()
            .filter(|ops| ops.iter().any(|o| o.addr() == Some(a)))
            .count();
        assert!(touchers >= 2);
    }
}

#[test]
fn foreign_json_is_validated_not_trusted() {
    // A structurally broken program (unbalanced lock) deserializes
    // fine but must be rejected by validate() — `paper`'s trace-file
    // operands depend on this.
    let text = r#"{
        "name": "hostile",
        "threads": [[{"Acquire": {"lock": 0}}]],
        "n_locks": 1,
        "n_barriers": 0,
        "shared_base": 268435456,
        "shared_end": 268435520
    }"#;
    let p: Program = json::from_str(text).expect("shape is valid JSON");
    assert!(validate(&p).is_err(), "unbalanced lock must be rejected");
}

#[test]
fn compact_encoding_is_reasonable() {
    // Guard against accidental bloat in the interchange format: one
    // op should serialize to well under 100 bytes.
    let p = WorkloadSpec::Canneal.build(8, 1, 1);
    let text = json::to_string(&p);
    let per_op = text.len() as f64 / p.total_ops() as f64;
    assert!(per_op < 100.0, "{per_op:.1} bytes/op is too fat");
}
