//! The ablation modes (Line granularity, MOESI, ARC read-only
//! retention) still deliver exactly the oracle's conflicts. Each test
//! runs its cells of the conformance matrix
//! (`tests/common/conformance.rs`).

mod common;

common::conformance::shards! {
    line_granularity_matches_line_oracle,
    line_granularity_is_superset_of_word,
    arc_readonly_matches_oracle,
    arc_readonly_matches_oracle_on_workloads,
    moesi_matches_oracle,
    moesi_matches_oracle_on_workloads,
}
