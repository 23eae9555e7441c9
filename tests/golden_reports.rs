//! Golden-report gate: the four seed engine configurations (plus two
//! small-AIM variants that force the spill/refill paths) must produce
//! byte-identical `SimReport` JSON, forever, with the repeat fast path
//! on and off.
//!
//! The files in `tests/goldens/` were pinned before the engines were
//! split into coherence/detection/metadata layers; this test is what
//! makes "refactor" a checkable claim rather than a hope. Regenerate
//! deliberately with `cargo run --release --example dump_goldens` when
//! a simulation-visible change is intended.

use rce::prelude::*;

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name)
}

fn render(cfg: &MachineConfig, program: &Program, fastpath: bool) -> String {
    let report = Machine::new(cfg)
        .unwrap()
        .with_fastpath(fastpath)
        .run(program)
        .unwrap();
    let mut text = rce_common::json::to_string_pretty(&report);
    text.push('\n');
    text
}

#[test]
fn seed_engine_reports_are_byte_identical() {
    let program = WorkloadSpec::Canneal.build(4, 3, 42);
    let mut cases: Vec<(String, MachineConfig)> = ProtocolKind::ALL
        .iter()
        .map(|&p| {
            let slug = p.name().replace('+', "plus").to_lowercase();
            (
                format!("canneal-4c-{slug}.json"),
                MachineConfig::paper_default(4, p),
            )
        })
        .collect();
    for p in [ProtocolKind::CePlus, ProtocolKind::Arc] {
        let slug = p.name().replace('+', "plus").to_lowercase();
        cases.push((
            format!("canneal-4c-aim64-{slug}.json"),
            MachineConfig::paper_default(4, p).with_aim_entries(64),
        ));
    }
    for (name, cfg) in cases {
        let want = std::fs::read_to_string(golden_path(&name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        // The repeat fast path is a pure acceleration: with it off, the
        // slow path must reproduce the same bytes.
        for fastpath in [true, false] {
            let got = render(&cfg, &program, fastpath);
            assert!(
                got == want,
                "{name} (fast path {}): report drifted from the pinned golden \
                 (run `cargo run --release --example dump_goldens` and diff \
                 tests/goldens/ if the change is intended)",
                if fastpath { "on" } else { "off" }
            );
        }
    }
}

/// The forensics layer obeys the same zero-perturbation contract as
/// tracing and sampling: run every seed engine with forensics on,
/// strip the `forensics` section, and the bytes must equal the pinned
/// goldens exactly.
#[test]
fn forensics_on_reports_strip_to_the_seed_goldens() {
    let program = WorkloadSpec::Canneal.build(4, 3, 42);
    for &p in ProtocolKind::ALL.iter() {
        let slug = p.name().replace('+', "plus").to_lowercase();
        let name = format!("canneal-4c-{slug}.json");
        let want = std::fs::read_to_string(golden_path(&name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        let cfg = MachineConfig::paper_default(4, p);
        let mut report = Machine::new(&cfg)
            .unwrap()
            .with_observability(rce_common::ObsConfig::FORENSICS)
            .run(&program)
            .unwrap();
        assert!(report.forensics.is_some(), "{name}: forensics was on");
        report.forensics = None;
        let mut got = rce_common::json::to_string_pretty(&report);
        got.push('\n');
        assert!(
            got == want,
            "{name}: forensics perturbed the simulation (stripped report \
             differs from the pinned golden)"
        );
    }
}
