//! Region conflict exceptions in action: run an intentionally racy
//! workload (canneal-style lock-free swaps), deliver precise
//! exceptions, and cross-check every engine against the oracle.
//!
//! ```text
//! cargo run --release --example race_detection
//! ```

use rce::core::ExceptionPolicy;
use rce::prelude::*;

fn main() {
    let cores = 8;

    // 1. A naturally racy workload: canneal's unsynchronized swaps.
    let racy = WorkloadSpec::Canneal.build(cores, 1, 7);
    println!("== {} (intentionally racy) ==", racy.name);
    for proto in ProtocolKind::DETECTORS {
        let config = MachineConfig::paper_default(cores, proto);
        let report = Machine::new(&config).unwrap().run(&racy).unwrap();
        println!(
            "{:<4}: {} conflicts detected, oracle agrees: {}",
            proto.name(),
            report.exceptions.len(),
            report.matches_oracle()
        );
    }

    // 2. Precise provenance: inspect the first few exceptions.
    let config = MachineConfig::paper_default(cores, ProtocolKind::Arc);
    let report = Machine::new(&config).unwrap().run(&racy).unwrap();
    println!("\nfirst exceptions (ARC):");
    for ex in report.exceptions.iter().take(5) {
        println!("  {ex}");
    }

    // 3. Injecting races into a race-free program.
    let mut seeded = WorkloadSpec::Blackscholes.build(cores, 1, 42);
    let planted = rce::trace::inject_races(&mut seeded, 3, 42).expect("8 threads can race");
    println!(
        "\n== {} with {} planted races ==",
        seeded.name,
        planted.len()
    );
    let report = Machine::new(&config).unwrap().run(&seeded).unwrap();
    println!("detected {} conflicts:", report.exceptions.len());
    for ex in &report.exceptions {
        let known = planted.iter().any(|a| a.line() == ex.word_addr.line());
        println!("  {ex}  (planted: {known})");
    }

    // 4. Fail-stop semantics: abort at the first conflict.
    let aborted = Machine::new(&config)
        .unwrap()
        .run_with_policy(&seeded, ExceptionPolicy::AbortOnFirst)
        .unwrap();
    println!(
        "\nfail-stop run: aborted={} after {} memory ops (full run: {})",
        aborted.aborted, aborted.mem_ops, report.mem_ops
    );
}
