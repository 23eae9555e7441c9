//! Energy accounting: event counts → picojoules with a component
//! breakdown.

use rce_common::{impl_json_struct, PicoJoules};

/// Per-event energy constants. All values in picojoules unless noted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One L1 tag+data access.
    pub l1_access: f64,
    /// One LLC bank access.
    pub llc_access: f64,
    /// One AIM (metadata cache) access.
    pub aim_access: f64,
    /// One directory lookup/update.
    pub dir_access: f64,
    /// One flit crossing one link (router + wire).
    pub noc_flit_hop: f64,
    /// DRAM energy per byte transferred.
    pub dram_per_byte: f64,
    /// DRAM activation energy amortized per access.
    pub dram_per_access: f64,
    /// Static leakage per core per cycle.
    pub static_per_core_cycle: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            l1_access: 15.0,
            llc_access: 60.0,
            aim_access: 20.0,
            dir_access: 10.0,
            noc_flit_hop: 6.0,
            dram_per_byte: 20.0,
            dram_per_access: 2000.0,
            static_per_core_cycle: 0.1,
        }
    }
}

impl_json_struct!(to_json EnergyBreakdown {
    l1,
    llc,
    aim,
    dir,
    noc,
    dram,
    static_
});

/// Raw event counts collected by a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// L1 accesses (hits and misses both touch the array).
    pub l1_accesses: u64,
    /// LLC bank accesses.
    pub llc_accesses: u64,
    /// AIM accesses.
    pub aim_accesses: u64,
    /// Directory lookups/updates.
    pub dir_accesses: u64,
    /// Total NoC flit-hops.
    pub noc_flit_hops: u64,
    /// Total DRAM bytes.
    pub dram_bytes: u64,
    /// Total DRAM accesses.
    pub dram_accesses: u64,
    /// Execution cycles.
    pub cycles: u64,
    /// Core count.
    pub cores: u64,
}

/// Energy per component, plus the total.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Private cache energy.
    pub l1: PicoJoules,
    /// LLC energy.
    pub llc: PicoJoules,
    /// AIM energy.
    pub aim: PicoJoules,
    /// Directory energy.
    pub dir: PicoJoules,
    /// Network energy.
    pub noc: PicoJoules,
    /// Off-chip DRAM energy.
    pub dram: PicoJoules,
    /// Static leakage.
    pub static_: PicoJoules,
}

impl EnergyBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> PicoJoules {
        self.l1 + self.llc + self.aim + self.dir + self.noc + self.dram + self.static_
    }

    /// `(component name, value)` pairs, display order.
    pub fn components(&self) -> [(&'static str, PicoJoules); 7] {
        [
            ("L1", self.l1),
            ("LLC", self.llc),
            ("AIM", self.aim),
            ("Dir", self.dir),
            ("NoC", self.noc),
            ("DRAM", self.dram),
            ("Static", self.static_),
        ]
    }
}

impl EnergyModel {
    /// Evaluate the model on `counts`.
    pub fn evaluate(&self, counts: &EventCounts) -> EnergyBreakdown {
        EnergyBreakdown {
            l1: PicoJoules(self.l1_access * counts.l1_accesses as f64),
            llc: PicoJoules(self.llc_access * counts.llc_accesses as f64),
            aim: PicoJoules(self.aim_access * counts.aim_accesses as f64),
            dir: PicoJoules(self.dir_access * counts.dir_accesses as f64),
            noc: PicoJoules(self.noc_flit_hop * counts.noc_flit_hops as f64),
            dram: PicoJoules(
                self.dram_per_byte * counts.dram_bytes as f64
                    + self.dram_per_access * counts.dram_accesses as f64,
            ),
            static_: PicoJoules(
                self.static_per_core_cycle * counts.cycles as f64 * counts.cores as f64,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_counts_zero_energy() {
        let e = EnergyModel::default().evaluate(&EventCounts::default());
        assert_eq!(e.total(), PicoJoules::ZERO);
    }

    #[test]
    fn components_add_up() {
        let counts = EventCounts {
            l1_accesses: 100,
            llc_accesses: 10,
            aim_accesses: 5,
            dir_accesses: 10,
            noc_flit_hops: 50,
            dram_bytes: 640,
            dram_accesses: 10,
            cycles: 1000,
            cores: 4,
        };
        let m = EnergyModel::default();
        let e = m.evaluate(&counts);
        let manual = e.l1.0 + e.llc.0 + e.aim.0 + e.dir.0 + e.noc.0 + e.dram.0 + e.static_.0;
        assert!((e.total().0 - manual).abs() < 1e-9);
        assert!((e.l1.0 - 1500.0).abs() < 1e-9);
        assert!((e.dram.0 - (20.0 * 640.0 + 2000.0 * 10.0)).abs() < 1e-9);
        assert!((e.static_.0 - 0.1 * 1000.0 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn energy_monotone_in_events() {
        let m = EnergyModel::default();
        let a = EventCounts {
            dram_bytes: 64,
            dram_accesses: 1,
            ..EventCounts::default()
        };
        let mut b = a;
        b.dram_bytes = 128;
        b.dram_accesses = 2;
        assert!(m.evaluate(&b).total() > m.evaluate(&a).total());
    }

    #[test]
    fn dram_byte_dominates_sram_access() {
        // A 64-byte DRAM transfer must cost much more than an L1
        // access — the ratio CE's costs hinge on.
        let m = EnergyModel::default();
        let dram_per_line = m.dram_per_byte * 64.0 + m.dram_per_access;
        assert!(dram_per_line > 20.0 * m.l1_access);
    }

    #[test]
    fn component_labels() {
        let e = EnergyModel::default().evaluate(&EventCounts::default());
        let names: Vec<_> = e.components().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["L1", "LLC", "AIM", "Dir", "NoC", "DRAM", "Static"]
        );
    }
}
