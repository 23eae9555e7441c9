//! The conformance matrix's own tests: its cells on the racy workloads
//! at 32 cores, and a check of the list itself. The list and `conform`
//! are in `tests/common/conformance.rs`; its other cells run in
//! `tests/differential.rs`, `tests/ablation_modes.rs`,
//! `tests/fastpath_equiv.rs` and `tests/properties.rs`.

mod common;

use common::conformance::{cells, shards, Mode, Source};
use rce::prelude::*;
use rce_core::REGISTRY;
use std::collections::HashSet;

shards! {
    racy_pair_at_32_cores,
    canneal_at_32_cores,
}

/// Every cell's test is declared by a root test file's `shards!`, and
/// the list holds the racy grid: every variant on racy_pair and
/// canneal, at Word and Line, at 4 and 32 cores.
#[test]
fn every_cell_is_in_a_shard() {
    let files = [
        include_str!("ablation_modes.rs"),
        include_str!("differential.rs"),
        include_str!("fastpath_equiv.rs"),
        include_str!("properties.rs"),
        include_str!("conformance.rs"),
    ];
    let declared: HashSet<&str> = files
        .iter()
        .filter_map(|f| f.split_once("shards! {")?.1.split_once('}'))
        .flat_map(|(list, _)| list.split(',').map(str::trim))
        .collect();
    let cells = cells();
    for c in &cells {
        assert!(declared.contains(c.test), "{c} names test {}", c.test);
    }
    for v in &REGISTRY {
        for w in [WorkloadSpec::RacyPair, WorkloadSpec::Canneal] {
            for (mode, cores) in [Mode::Word, Mode::Line].map(|m| [(m, 4), (m, 32)]).concat() {
                let found = cells.iter().any(|c| {
                    let on_w = matches!(c.source, Source::Workload(cw, ..) if cw == w);
                    on_w && c.variant == v && c.mode == mode && c.cores == cores
                });
                assert!(found, "{} ({mode:?}) at {cores} cores on {w}", v.cli_name);
            }
        }
    }
}
