//! The workload catalog.
//!
//! Thirteen PARSEC-like applications (the suite the paper evaluates)
//! plus four microbenchmarks used by tests and ablations. Each
//! generator is seed-deterministic: `build(cores, scale, seed)` always
//! returns the identical [`Program`].
//!
//! The PARSEC stand-ins reproduce each application's *sharing
//! pattern*, which is what determines conflict-exception cost:
//!
//! | Workload | Pattern |
//! |---|---|
//! | blackscholes | embarrassingly parallel, barrier-separated phases |
//! | bodytrack | read-shared model + lock-protected reductions |
//! | canneal | lock-free random swaps — *intentionally racy* |
//! | dedup | multi-stage pipeline, migratory chunk lines |
//! | facesim | row stencil, neighbor boundary reads |
//! | ferret | deeper pipeline + large read-shared database |
//! | fluidanimate | fine-grained per-cell locks, border sharing |
//! | freqmine | private build + lock-protected merges |
//! | raytrace | read-shared scene + lock-protected work queue |
//! | streamcluster | read-shared points, contended center updates |
//! | swaptions | fully private, almost no synchronization |
//! | vips | producer/consumer tiles |
//! | x264 | wavefront row pipeline, migratory boundary lines |

// Generators index per-thread arenas by the thread loop variable —
// the clearest expression of "thread t's arena".
#![allow(clippy::needless_range_loop)]

use crate::program::Program;

mod blackscholes;
mod bodytrack;
mod canneal;
mod dedup;
mod facesim;
mod ferret;
mod fluidanimate;
mod freqmine;
mod micro;
mod raytrace;
mod streamcluster;
mod swaptions;
mod vips;
mod x264;

/// Identifies a workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum WorkloadSpec {
    Blackscholes,
    Bodytrack,
    Canneal,
    Dedup,
    Facesim,
    Ferret,
    Fluidanimate,
    Freqmine,
    Raytrace,
    Streamcluster,
    Swaptions,
    Vips,
    X264,
    /// Micro: two threads ping-pong one line under a lock.
    PingPong,
    /// Micro: purely private accesses, no sharing at all.
    PrivateOnly,
    /// Micro: a guaranteed region conflict on one shared word.
    RacyPair,
    /// Micro: threads write distinct words of one line (false sharing —
    /// no word-granularity conflict, heavy line ping-pong).
    FalseSharing,
    /// Micro: a token block passed around all cores under a lock
    /// (sharpest migratory pattern).
    Migratory,
    /// Micro: barrier-phased single-writer/many-reader table.
    ReaderWriter,
}

impl WorkloadSpec {
    /// The PARSEC-like evaluation suite, in figure order.
    pub const PARSEC: [WorkloadSpec; 13] = [
        WorkloadSpec::Blackscholes,
        WorkloadSpec::Bodytrack,
        WorkloadSpec::Canneal,
        WorkloadSpec::Dedup,
        WorkloadSpec::Facesim,
        WorkloadSpec::Ferret,
        WorkloadSpec::Fluidanimate,
        WorkloadSpec::Freqmine,
        WorkloadSpec::Raytrace,
        WorkloadSpec::Streamcluster,
        WorkloadSpec::Swaptions,
        WorkloadSpec::Vips,
        WorkloadSpec::X264,
    ];

    /// The microbenchmarks.
    pub const MICRO: [WorkloadSpec; 6] = [
        WorkloadSpec::PingPong,
        WorkloadSpec::PrivateOnly,
        WorkloadSpec::RacyPair,
        WorkloadSpec::FalseSharing,
        WorkloadSpec::Migratory,
        WorkloadSpec::ReaderWriter,
    ];

    /// Figure row label.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadSpec::Blackscholes => "blackscholes",
            WorkloadSpec::Bodytrack => "bodytrack",
            WorkloadSpec::Canneal => "canneal",
            WorkloadSpec::Dedup => "dedup",
            WorkloadSpec::Facesim => "facesim",
            WorkloadSpec::Ferret => "ferret",
            WorkloadSpec::Fluidanimate => "fluidanimate",
            WorkloadSpec::Freqmine => "freqmine",
            WorkloadSpec::Raytrace => "raytrace",
            WorkloadSpec::Streamcluster => "streamcluster",
            WorkloadSpec::Swaptions => "swaptions",
            WorkloadSpec::Vips => "vips",
            WorkloadSpec::X264 => "x264",
            WorkloadSpec::PingPong => "ping_pong",
            WorkloadSpec::PrivateOnly => "private_only",
            WorkloadSpec::RacyPair => "racy_pair",
            WorkloadSpec::FalseSharing => "false_sharing",
            WorkloadSpec::Migratory => "migratory",
            WorkloadSpec::ReaderWriter => "reader_writer",
        }
    }

    /// Parse a name as produced by [`WorkloadSpec::name`].
    pub fn parse(s: &str) -> Option<WorkloadSpec> {
        WorkloadSpec::PARSEC
            .iter()
            .chain(WorkloadSpec::MICRO.iter())
            .copied()
            .find(|w| w.name() == s)
    }

    /// True for workloads whose *intended* behavior contains data
    /// races (conflict exceptions are expected even on a correct run).
    pub fn is_racy(self) -> bool {
        matches!(self, WorkloadSpec::Canneal | WorkloadSpec::RacyPair)
    }

    /// Build the program for `cores` threads at difficulty `scale`
    /// (linear in trace length) with deterministic `seed`.
    pub fn build(self, cores: usize, scale: u32, seed: u64) -> Program {
        assert!(cores >= 1, "need at least one core");
        assert!(scale >= 1, "scale must be at least 1");
        match self {
            WorkloadSpec::Blackscholes => blackscholes::build(cores, scale, seed),
            WorkloadSpec::Bodytrack => bodytrack::build(cores, scale, seed),
            WorkloadSpec::Canneal => canneal::build(cores, scale, seed),
            WorkloadSpec::Dedup => dedup::build(cores, scale, seed),
            WorkloadSpec::Facesim => facesim::build(cores, scale, seed),
            WorkloadSpec::Ferret => ferret::build(cores, scale, seed),
            WorkloadSpec::Fluidanimate => fluidanimate::build(cores, scale, seed),
            WorkloadSpec::Freqmine => freqmine::build(cores, scale, seed),
            WorkloadSpec::Raytrace => raytrace::build(cores, scale, seed),
            WorkloadSpec::Streamcluster => streamcluster::build(cores, scale, seed),
            WorkloadSpec::Swaptions => swaptions::build(cores, scale, seed),
            WorkloadSpec::Vips => vips::build(cores, scale, seed),
            WorkloadSpec::X264 => x264::build(cores, scale, seed),
            WorkloadSpec::PingPong => micro::ping_pong(cores, scale, seed),
            WorkloadSpec::PrivateOnly => micro::private_only(cores, scale, seed),
            WorkloadSpec::RacyPair => micro::racy_pair(cores, scale, seed),
            WorkloadSpec::FalseSharing => micro::false_sharing(cores, scale, seed),
            WorkloadSpec::Migratory => micro::migratory(cores, scale, seed),
            WorkloadSpec::ReaderWriter => micro::reader_writer(cores, scale, seed),
        }
    }
}

impl std::fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;
    use rce_common::check::check_n;
    use rce_common::{prop_assert_eq, Rng, SplitMix64};

    #[test]
    fn every_workload_builds_valid_programs() {
        for w in WorkloadSpec::PARSEC
            .iter()
            .chain(WorkloadSpec::MICRO.iter())
        {
            for cores in [1, 2, 4, 8] {
                let p = w.build(cores, 1, 42);
                validate(&p).unwrap_or_else(|e| panic!("{w} cores={cores}: {e}"));
                assert_eq!(p.n_threads(), cores, "{w}");
                assert!(p.total_mem_ops() > 0, "{w} has no memory ops");
            }
        }
    }

    #[test]
    fn builds_are_deterministic() {
        for w in WorkloadSpec::PARSEC
            .iter()
            .chain(WorkloadSpec::MICRO.iter())
        {
            let a = w.build(4, 2, 7);
            let b = w.build(4, 2, 7);
            assert_eq!(a, b, "{w} not deterministic");
        }
        // Dedup draws its work lengths from the seed: 16 more seeds.
        check_n(
            "workloads_deterministic",
            16,
            |rng: &mut SplitMix64| rng.gen_range(1000),
            |&seed| {
                let w = WorkloadSpec::Dedup;
                prop_assert_eq!(w.build(4, 1, seed), w.build(4, 1, seed));
                Ok(())
            },
        );
    }

    #[test]
    fn different_seeds_usually_differ() {
        // Deterministic-but-seedless generators (pure structure) are
        // allowed; at least the stochastic ones must differ.
        let mut differing = 0;
        for w in WorkloadSpec::PARSEC {
            if w.build(4, 1, 1) != w.build(4, 1, 2) {
                differing += 1;
            }
        }
        assert!(differing >= 6, "only {differing} workloads vary with seed");
    }

    #[test]
    fn scale_grows_traces() {
        for w in WorkloadSpec::PARSEC {
            let small = w.build(4, 1, 3).total_ops();
            let big = w.build(4, 4, 3).total_ops();
            assert!(
                big > small,
                "{w}: scale did not grow trace ({small} -> {big})"
            );
        }
    }

    #[test]
    fn name_parse_roundtrip() {
        for w in WorkloadSpec::PARSEC
            .iter()
            .chain(WorkloadSpec::MICRO.iter())
        {
            assert_eq!(WorkloadSpec::parse(w.name()), Some(*w));
        }
        assert_eq!(WorkloadSpec::parse("nonesuch"), None);
    }

    #[test]
    fn racy_flags() {
        assert!(WorkloadSpec::Canneal.is_racy());
        assert!(WorkloadSpec::RacyPair.is_racy());
        assert!(!WorkloadSpec::Blackscholes.is_racy());
        assert!(!WorkloadSpec::FalseSharing.is_racy());
    }
}
