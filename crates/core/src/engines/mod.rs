//! The engines behind [`crate::Engine`]'s variants, and the registry.
//!
//! `MesiFamilyEngine` implements the eager write-invalidation family
//! (MESI baseline, CE, CE+ — one coherence mechanism, pluggable
//! metadata placements); `ArcEngine` implements the
//! release-consistency + self-invalidation design. Each engine runs
//! its own coherence and conflict detection (both check accesses with
//! `MetaMap::check_and_record` from `crate::access`), and each checks
//! its L1s against its own shared state: the sharer directory, or the
//! line classification. Where displaced access bits live is the
//! second, orthogonal layer, the metadata placement (`crate::meta`).
//! The [`REGISTRY`] names the compositions worth running, including
//! two that exist only because the layers are orthogonal: CE+ with an
//! ideal metadata store, and ARC paying CE's off-chip metadata tax.
//! See the crate docs for the design overview and DESIGN.md for the
//! cost model.

mod arc;
mod mesi_family;

pub(crate) use arc::ArcEngine;
pub(crate) use mesi_family::MesiFamilyEngine;

use rce_common::{MachineConfig, MetaPlacement, ProtocolKind};

/// One named engine composition: a coherence/detection family plus a
/// metadata placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineVariant {
    /// The name accepted by CLIs (matched case-insensitively).
    pub cli_name: &'static str,
    /// Coherence + detection family.
    pub protocol: ProtocolKind,
    /// Metadata placement.
    pub placement: MetaPlacement,
    /// One-line description for listings.
    pub summary: &'static str,
}

impl EngineVariant {
    /// The paper-default configuration for this variant.
    pub fn config(&self, cores: usize) -> MachineConfig {
        MachineConfig::paper_default(cores, self.protocol).with_meta_placement(self.placement)
    }

    /// True when this is one of the paper's four designs (placement is
    /// the protocol's default) rather than a cross-composition.
    pub fn is_paper_design(&self) -> bool {
        self.placement == self.protocol.default_meta_placement()
    }
}

/// Every named engine composition, paper designs first.
pub const REGISTRY: [EngineVariant; 6] = [
    EngineVariant {
        cli_name: "MESI",
        protocol: ProtocolKind::MesiBaseline,
        placement: MetaPlacement::None,
        summary: "eager-invalidation baseline, no detection",
    },
    EngineVariant {
        cli_name: "CE",
        protocol: ProtocolKind::Ce,
        placement: MetaPlacement::Dram,
        summary: "Conflict Exceptions, metadata in an off-chip DRAM table",
    },
    EngineVariant {
        cli_name: "CE+",
        protocol: ProtocolKind::CePlus,
        placement: MetaPlacement::Aim,
        summary: "Conflict Exceptions, metadata in the on-chip AIM",
    },
    EngineVariant {
        cli_name: "ARC",
        protocol: ProtocolKind::Arc,
        placement: MetaPlacement::Aim,
        summary: "self-invalidation coherence, detection at the LLC-side AIM",
    },
    EngineVariant {
        cli_name: "CE+ideal",
        protocol: ProtocolKind::CePlus,
        placement: MetaPlacement::Ideal,
        summary: "CE+ with an infinite zero-cost metadata store (upper bound)",
    },
    EngineVariant {
        cli_name: "ARC-dram",
        protocol: ProtocolKind::Arc,
        placement: MetaPlacement::Dram,
        summary: "ARC registering against CE's off-chip table (what the AIM buys)",
    },
];

/// Look a variant up by CLI name, case-insensitively.
pub fn find_variant(name: &str) -> Option<&'static EngineVariant> {
    REGISTRY
        .iter()
        .find(|v| v.cli_name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookup_is_case_insensitive() {
        assert_eq!(find_variant("ce+").unwrap().cli_name, "CE+");
        assert_eq!(
            find_variant("ARC-DRAM").unwrap().placement,
            MetaPlacement::Dram
        );
        assert!(find_variant("nonesuch").is_none());
    }

    #[test]
    fn registry_configs_validate() {
        for v in &REGISTRY {
            let cfg = v.config(4);
            cfg.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", v.cli_name));
            assert_eq!(cfg.protocol, v.protocol);
            assert_eq!(cfg.meta_placement, v.placement);
        }
    }

    #[test]
    fn paper_designs_lead_the_registry() {
        assert!(REGISTRY[..4].iter().all(|v| v.is_paper_design()));
        assert!(REGISTRY[4..].iter().all(|v| !v.is_paper_design()));
        // CLI names are unique even case-insensitively.
        for (i, a) in REGISTRY.iter().enumerate() {
            for b in &REGISTRY[i + 1..] {
                assert!(!a.cli_name.eq_ignore_ascii_case(b.cli_name));
            }
        }
    }
}
