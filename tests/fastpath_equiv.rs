//! The L1 fast path changes no report: every variant in every mode, and
//! every protocol on random programs, renders the same with it on and
//! off (forensics on). Each test runs its cells of the conformance
//! matrix (`tests/common/conformance.rs`).

mod common;

common::conformance::shards! {
    registry_variants_match_with_fastpath_off,
    line_granularity_matches_with_fastpath_off,
    moesi_matches_with_fastpath_off,
    arc_readonly_matches_with_fastpath_off,
    small_aim_matches_with_fastpath_off,
    random_programs_match_with_fastpath_off,
    default_mode_matches_forced_modes,
}
