//! Process-wide profiling hooks for the bench harness.
//!
//! The harness runs hundreds of simulations per invocation. When
//! profiling is on ([`enable`]), every simulation the runner executes
//! records its wall time plus the simulated work it represented
//! (operations and cycles) into the current named *phase* — typically
//! one phase per experiment. The rendered summary answers the two
//! questions a profiling session actually asks: where did the harness
//! spend its wall time, and how fast was the simulator going while it
//! was there (simulated events per second)?
//!
//! Off by default: `record_run` takes one uncontended mutex lock and
//! returns when profiling is disabled, so ordinary sweeps pay nothing
//! measurable. Phases are set by the driving thread between sweeps;
//! recording is safe from sweep worker threads, and per-run wall times
//! from parallel workers simply sum (the "wall s" column is therefore
//! CPU-seconds of simulation, not elapsed time, when `--jobs > 1`).

use rce_common::table::Table;
use std::sync::Mutex;
use std::time::Duration;

/// Aggregated profile of one named phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    /// Phase name (usually an experiment's CLI name).
    pub name: String,
    /// Simulation runs recorded in this phase.
    pub runs: u64,
    /// Summed per-run wall time (CPU-seconds when runs were parallel).
    pub wall: Duration,
    /// Simulated operations (memory + sync) those runs committed.
    pub sim_ops: u64,
    /// Simulated cycles those runs covered.
    pub sim_cycles: u64,
}

impl PhaseProfile {
    /// Simulated operations per second of simulation time.
    pub(crate) fn ops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.sim_ops as f64 / s
        }
    }

    /// Simulated cycles per second of simulation time.
    pub(crate) fn cycles_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.sim_cycles as f64 / s
        }
    }
}

/// Phases in first-entered order, and the one runs are recorded into.
struct Profiler {
    phases: Vec<PhaseProfile>,
    current: usize,
}

impl Profiler {
    /// An empty profile: runs recorded before the first
    /// [`Profiler::set_phase`] land in a phase named `"-"`.
    fn new() -> Profiler {
        Profiler {
            phases: vec![PhaseProfile {
                name: "-".into(),
                ..PhaseProfile::default()
            }],
            current: 0,
        }
    }

    /// Enter a named phase (find-or-create).
    fn set_phase(&mut self, name: &str) {
        self.current = match self.phases.iter().position(|ph| ph.name == name) {
            Some(i) => i,
            None => {
                self.phases.push(PhaseProfile {
                    name: name.to_string(),
                    ..PhaseProfile::default()
                });
                self.phases.len() - 1
            }
        };
    }

    /// Record one finished simulation into the current phase.
    fn record(&mut self, wall: Duration, sim_ops: u64, sim_cycles: u64) {
        let ph = &mut self.phases[self.current];
        ph.runs += 1;
        ph.wall += wall;
        ph.sim_ops += sim_ops;
        ph.sim_cycles += sim_cycles;
    }

    /// All non-empty phases in first-entered order.
    fn snapshot(&self) -> Vec<PhaseProfile> {
        self.phases
            .iter()
            .filter(|ph| ph.runs > 0)
            .cloned()
            .collect()
    }

    /// The profile as a text table; empty when nothing was recorded.
    fn render(&self) -> String {
        let phases = self.snapshot();
        if phases.is_empty() {
            return String::new();
        }
        fn cells(ph: &PhaseProfile) -> Vec<String> {
            vec![
                ph.name.clone(),
                ph.runs.to_string(),
                format!("{:.2}", ph.wall.as_secs_f64()),
                format!("{:.2}", ph.ops_per_sec() / 1e6),
                format!("{:.2}", ph.cycles_per_sec() / 1e6),
            ]
        }
        let mut t = Table::new(
            "Profile: per-phase wall time and simulation throughput",
            &["phase", "runs", "wall s", "sim Mops/s", "sim Mcyc/s"],
        );
        let mut total = PhaseProfile {
            name: "total".into(),
            ..PhaseProfile::default()
        };
        for ph in &phases {
            total.runs += ph.runs;
            total.wall += ph.wall;
            total.sim_ops += ph.sim_ops;
            total.sim_cycles += ph.sim_cycles;
            t.row(cells(ph));
        }
        if phases.len() > 1 {
            t.row(cells(&total));
        }
        t.render()
    }
}

/// The process-wide profile; `None` while profiling is off.
static PROFILER: Mutex<Option<Profiler>> = Mutex::new(None);

fn with<R>(f: impl FnOnce(&mut Profiler) -> R) -> Option<R> {
    PROFILER
        .lock()
        .expect("profiler lock poisoned")
        .as_mut()
        .map(f)
}

/// Turn profiling on, resetting any previous profile. Runs recorded
/// before the first [`set_phase`] land in a phase named `"-"`.
pub fn enable() {
    *PROFILER.lock().expect("profiler lock poisoned") = Some(Profiler::new());
}

/// Enter a named phase (find-or-create). No-op while disabled.
pub fn set_phase(name: &str) {
    with(|p| p.set_phase(name));
}

/// Record one finished simulation into the current phase. The runner
/// calls this for every run; it is a no-op while profiling is off.
pub(crate) fn record_run(wall: Duration, sim_ops: u64, sim_cycles: u64) {
    with(|p| p.record(wall, sim_ops, sim_cycles));
}

/// Snapshot all non-empty phases in first-entered order.
pub fn snapshot() -> Vec<PhaseProfile> {
    with(|p| p.snapshot()).unwrap_or_default()
}

/// Render the profile as a text table; empty string when profiling is
/// disabled or nothing was recorded.
pub fn render() -> String {
    with(|p| p.render()).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    // A local profile: the process-wide one also records the runs that
    // other tests simulate on parallel threads.
    #[test]
    fn profile_lifecycle() {
        let mut p = Profiler::new();
        assert_eq!(p.render(), "");
        p.set_phase("alpha");
        p.record(Duration::from_millis(500), 1_000_000, 2_000_000);
        p.set_phase("beta");
        p.record(Duration::from_millis(250), 300, 400);
        p.set_phase("alpha"); // re-entry accumulates, not duplicates
        p.record(Duration::from_millis(500), 1_000_000, 2_000_000);

        let snap = p.snapshot();
        let alpha = snap.iter().find(|p| p.name == "alpha").unwrap();
        assert_eq!(alpha.runs, 2);
        assert_eq!(alpha.sim_ops, 2_000_000);
        // 2M ops over ~1s of recorded wall time.
        assert!((alpha.ops_per_sec() - 2_000_000.0).abs() < 1.0);
        assert!((alpha.cycles_per_sec() - 4_000_000.0).abs() < 1.0);

        let table = p.render();
        assert!(table.contains("alpha"));
        assert!(table.contains("beta"));
        assert!(table.contains("total"));

        let zero = PhaseProfile::default();
        assert_eq!(zero.ops_per_sec(), 0.0);
    }
}
