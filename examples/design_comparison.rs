//! The paper's argument in one program: compare CE, CE+, and ARC on
//! the two workloads that expose the design trade-off —
//! eviction-heavy random sharing (canneal) and tiny critical sections
//! (fluidanimate) — and decompose *where* each design pays.
//!
//! ```text
//! cargo run --release --example design_comparison
//! ```

use rce::prelude::*;

fn main() {
    let cores = 16;
    let scale = 2;
    for workload in [WorkloadSpec::Canneal, WorkloadSpec::Fluidanimate] {
        let program = workload.build(cores, scale, 42);
        println!("== {} ({} cores) ==", program.name, cores);
        let base = run(workload, ProtocolKind::MesiBaseline, cores, scale);
        println!(
            "{:<6} {:>9} {:>9} {:>9} {:>11} {:>11} {:>10}",
            "design", "runtime", "noc", "dram", "inv+ack B", "metadata B", "AIM hit%"
        );
        for proto in ProtocolKind::ALL {
            let r = run(workload, proto, cores, scale);
            println!(
                "{:<6} {:>8.3}x {:>8.3}x {:>8.3}x {:>11} {:>11} {:>10}",
                proto.name(),
                r.cycles.0 as f64 / base.cycles.0 as f64,
                r.noc_bytes().as_f64() / base.noc_bytes().as_f64(),
                r.dram_bytes().as_f64() / base.dram_bytes().as_f64(),
                r.noc.invalidation_bytes().0,
                r.noc.metadata_bytes().0 + r.dram.metadata_bytes().0,
                r.aim
                    .map(|a| format!("{:.1}", a.hit_rate() * 100.0))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        println!();
    }
    println!("Reading the table:");
    println!(" - CE's dram column grows where lines leave the L1 mid-region;");
    println!(" - CE+ removes that but keeps the invalidation/piggyback NoC load;");
    println!(" - ARC has zero inv+ack traffic and pays instead in L1 re-misses");
    println!("   (self-invalidation) and region-end flush/clear messages.");
}

fn run(w: WorkloadSpec, proto: ProtocolKind, cores: usize, scale: u32) -> SimReport {
    let cfg = MachineConfig::paper_default(cores, proto);
    let p = w.build(cores, scale, 42);
    Machine::new(&cfg).unwrap().run(&p).unwrap()
}
