//! Differential tests: every detection engine must report exactly the
//! oracle's conflict set on the same schedule, on random, racy and
//! PARSEC programs. Each test runs its cells of the conformance matrix
//! (`tests/common/conformance.rs`), which names the inputs and the
//! properties checked on each.

mod common;

common::conformance::shards! {
    small_fuzz_all_engines_match_oracle,
    eviction_heavy_fuzz_all_engines_match_oracle,
    cross_composition_variants_match_oracle,
    parsec_with_injected_races_matches_oracle,
    race_free_workloads_raise_nothing,
    naturally_racy_workloads_match_oracle,
    registry_variants_match_oracle_at_64_cores,
    report_lists_are_sorted_canonical_conflicts,
    detection_is_independent_of_detector,
}
