//! Properties of every run on random synced programs: engines equal the
//! oracle, the baseline never raises, runs are deterministic, and the
//! forensics totals match the detector's counters. Each test runs its
//! cells of the conformance matrix (`tests/common/conformance.rs`).

mod common;

common::conformance::shards! {
    engines_equal_oracle,
    baseline_never_raises,
    simulation_deterministic,
    forensics_heatmaps_match_detector_counters,
}
