//! The keyed run store and its parallel batch runner.
//!
//! A [`RunKey`] names one simulation completely; [`RunKey::run`] builds
//! its program ([`RunKey::program`]) and hands it to [`simulate`], the
//! one function that simulates and profiles a run.
//! A [`RunStore`] holds reports by key; every experiment asks its store
//! for all the runs it reads before rendering, so no experiment
//! simulates a key twice.
//!
//! A batch is built on `std::thread::scope` and `std::sync::Mutex`
//! only: workers claim work-queue indices through a shared counter
//! (FIFO), and each finished report lands in its key's pre-assigned
//! slot, so a store's order never depends on how the OS schedules the
//! workers.

use rce_common::{MachineConfig, ObsConfig, ProtocolKind, RceError, RceResult};
use rce_core::{Machine, SimReport};
use rce_trace::{inject_races, Program, WorkloadSpec};
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Lock acquisition that survives poisoning. Every mutex in a batch
/// guards plain data (a cursor integer, a result slot) that is valid
/// at every sequence point, so a worker that panicked while holding
/// one leaves nothing half-updated — recover the guard instead of
/// cascading the panic into every other worker and losing the whole
/// sweep's results.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Evaluation parameters shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct EvalParams {
    /// Core count (threads are pinned 1:1).
    pub cores: usize,
    /// Workload scale factor (linear in trace length).
    pub scale: u32,
    /// Workload seed.
    pub seed: u64,
    /// OS threads for the sweep (0 = all available).
    pub jobs: usize,
}

impl Default for EvalParams {
    fn default() -> Self {
        EvalParams {
            cores: 32,
            scale: 3,
            seed: 42,
            jobs: 0,
        }
    }
}

/// The full identity of one simulation: everything its report depends
/// on. Two equal keys always produce byte-identical reports, so a store
/// never needs to simulate a key twice.
#[derive(Debug, Clone, PartialEq)]
pub struct RunKey {
    /// Workload.
    pub workload: WorkloadSpec,
    /// Design; the constructors set it to the configuration's.
    pub protocol: ProtocolKind,
    /// Core count; the constructors set it to the configuration's.
    pub cores: usize,
    cfg: MachineConfig,
    scale: u32,
    seed: u64,
    obs: ObsConfig,
    /// Races injected into the program with `rce_trace::inject_races`.
    races: usize,
}

impl RunKey {
    /// `workload` on `cfg` at `params`' scale and seed, unobserved.
    pub fn new(workload: WorkloadSpec, cfg: MachineConfig, params: &EvalParams) -> RunKey {
        RunKey {
            workload,
            protocol: cfg.protocol,
            cores: cfg.cores,
            cfg,
            scale: params.scale,
            seed: params.seed,
            obs: ObsConfig::default(),
            races: 0,
        }
    }

    /// `w` on the paper configuration of `p` at `cores`.
    pub(crate) fn paper(
        w: WorkloadSpec,
        p: ProtocolKind,
        cores: usize,
        params: &EvalParams,
    ) -> RunKey {
        RunKey::new(w, MachineConfig::paper_default(cores, p), params)
    }

    /// The same run at another workload scale.
    pub(crate) fn with_scale(self, scale: u32) -> RunKey {
        RunKey { scale, ..self }
    }

    /// The same run with observability on (see `rce_common::obs`).
    pub(crate) fn with_obs(self, obs: ObsConfig) -> RunKey {
        RunKey { obs, ..self }
    }

    /// The same run on the program with `races` injected races.
    pub fn with_races(self, races: usize) -> RunKey {
        RunKey { races, ..self }
    }

    /// The run's program: the workload at the key's cores, scale and
    /// seed, with its races injected. Fails if races are asked of a
    /// one-thread program.
    pub fn program(&self) -> RceResult<Program> {
        let mut program = self.workload.build(self.cores, self.scale, self.seed);
        if self.races > 0 {
            inject_races(&mut program, self.races, self.seed)?;
        }
        Ok(program)
    }

    /// Build the program and [`simulate`] it. Every simulation the
    /// harness's experiments run goes through here.
    pub fn run(&self) -> RceResult<SimReport> {
        simulate(&self.cfg, self.obs, &self.program()?)
    }
}

/// Simulate `program` on `cfg` with `obs` and record the run into the
/// current [`crate::profile`] phase (a no-op unless profiling was
/// enabled). A failed run returns the machine's own error: an invalid
/// configuration, or a broken model invariant naming the run.
pub fn simulate(cfg: &MachineConfig, obs: ObsConfig, program: &Program) -> RceResult<SimReport> {
    let t0 = Instant::now();
    let report = Machine::new(cfg)?.with_observability(obs).run(program)?;
    crate::profile::record_run(
        t0.elapsed(),
        report.mem_ops + report.sync_ops,
        report.cycles.0,
    );
    Ok(report)
}

impl std::fmt::Display for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{:?}/{}c",
            self.workload.name(),
            self.protocol,
            self.cores
        )
    }
}

/// The keyed run store: simulation reports by [`RunKey`], in the order
/// their keys were first ensured, over an optional borrowed base store
/// whose reports it also serves. An experiment's store lives for that
/// experiment only, so its reports are freed when it ends.
#[derive(Debug, Clone)]
pub struct RunStore<'a> {
    base: Option<&'a SweepResults>,
    entries: Vec<(RunKey, SimReport)>,
    /// Sweep workers (0 = all available).
    jobs: usize,
}

/// A store that owns all its reports, such as the base sweep `paper
/// all` computes once and seeds every experiment's store with.
pub type SweepResults = RunStore<'static>;

impl<'a> RunStore<'a> {
    /// An empty store over `base`, simulating on `jobs` workers.
    pub(crate) fn new(base: Option<&'a SweepResults>, jobs: usize) -> RunStore<'a> {
        RunStore {
            base,
            entries: Vec::new(),
            jobs,
        }
    }

    /// Simulate every key of `keys` the store (base included) lacks,
    /// each once, in one parallel batch. Returns how many runs
    /// executed. Panics if a run fails, naming its key and the
    /// machine's error — paper workloads always simulate cleanly, so a
    /// failure is a bug in the model or the harness.
    pub(crate) fn ensure(&mut self, keys: impl IntoIterator<Item = RunKey>) -> usize {
        let mut missing: Vec<RunKey> = Vec::new();
        for k in keys {
            if self.find(&k).is_none() && !missing.contains(&k) {
                missing.push(k);
            }
        }
        let outcomes = run_suite_with(&missing, self.jobs, RunKey::run);
        let executed = missing.len();
        for (k, r) in missing.into_iter().zip(outcomes) {
            match r {
                Ok(report) => self.entries.push((k, report)),
                Err(e) => panic!("sweep run {k} failed: {e}"),
            }
        }
        executed
    }

    /// The report for `key`, from this store or its base. A store
    /// holds a few hundred runs at most, so a scan is fast enough.
    fn find(&self, key: &RunKey) -> Option<&SimReport> {
        let own = self.entries.iter().find(|(k, _)| k == key);
        own.map(|(_, r)| r).or_else(|| self.base?.find(key))
    }

    /// The report for `key`. Panics if `key` was never ensured.
    pub(crate) fn get(&self, key: &RunKey) -> &SimReport {
        self.find(key)
            .unwrap_or_else(|| panic!("run {key} was never ensured"))
    }

    /// Number of runs this store executed (its base's are not counted).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The `(key, report)` pairs this store executed, in store order.
    pub fn iter(&self) -> impl Iterator<Item = &(RunKey, SimReport)> {
        self.entries.iter()
    }
}

/// Fallible parallel batch over an arbitrary per-key runner.
///
/// Each key's outcome comes back in `keys` order. One run failing — or
/// even panicking — never takes down the rest of the batch: a panic
/// inside `run` is caught and surfaced as
/// [`RceError::InvariantViolated`] naming the offending key, poisoned
/// queue/slot locks are recovered (see [`lock_unpoisoned`]), and every
/// other queued run still executes and reports.
fn run_suite_with<F>(keys: &[RunKey], jobs: usize, run: F) -> Vec<RceResult<SimReport>>
where
    F: Fn(&RunKey) -> RceResult<SimReport> + Sync,
{
    let jobs = if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        jobs
    }
    .min(keys.len().max(1));

    // FIFO work queue: a shared cursor into `keys`; per-key result
    // slots keep the output in enqueue order.
    let next = Mutex::new(0usize);
    let slots: Vec<Mutex<Option<RceResult<SimReport>>>> =
        keys.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = {
                    let mut n = lock_unpoisoned(&next);
                    if *n >= keys.len() {
                        break;
                    }
                    let i = *n;
                    *n += 1;
                    i
                };
                let key = &keys[i];
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run(key)))
                    .unwrap_or_else(|payload| {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| s.to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_string());
                        Err(RceError::InvariantViolated(format!(
                            "sweep run {key} panicked: {msg}"
                        )))
                    });
                *lock_unpoisoned(&slots[i]) = Some(outcome);
            });
        }
    });
    keys.iter()
        .zip(slots)
        .map(|(k, slot)| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .unwrap_or_else(|| {
                    Err(RceError::InvariantViolated(format!(
                        "sweep run {k} was claimed but never reported"
                    )))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: EvalParams = EvalParams {
        cores: 2,
        scale: 1,
        seed: 1,
        jobs: 0,
    };

    fn grid(
        workloads: &[WorkloadSpec],
        protocols: &[ProtocolKind],
        cores: &[usize],
    ) -> Vec<RunKey> {
        let mut keys = Vec::new();
        for &w in workloads {
            for &proto in protocols {
                for &c in cores {
                    keys.push(RunKey::paper(w, proto, c, &P));
                }
            }
        }
        keys
    }

    #[test]
    fn ensure_keeps_key_order_and_finds_every_key() {
        let keys = grid(
            &[WorkloadSpec::PingPong, WorkloadSpec::PrivateOnly],
            &[ProtocolKind::MesiBaseline, ProtocolKind::Ce],
            &[2, 4],
        );
        let mut store = RunStore::new(None, 3);
        assert_eq!(store.ensure(keys.clone()), 8);
        let got: Vec<&RunKey> = store.iter().map(|(k, _)| k).collect();
        assert_eq!(
            got,
            keys.iter().collect::<Vec<_>>(),
            "store keeps key order"
        );
        for (k, r) in store.iter() {
            assert_eq!(r.cores, k.cores);
            assert_eq!(r.protocol, k.protocol);
            assert_eq!(r.workload.as_str(), k.workload.name());
            assert!(std::ptr::eq(store.get(k), r), "get({k}) finds it");
        }
        let absent = RunKey::paper(WorkloadSpec::PingPong, ProtocolKind::Ce, 8, &P);
        assert!(store.find(&absent).is_none());
    }

    #[test]
    fn ensure_never_simulates_a_key_twice() {
        let keys = grid(
            &[WorkloadSpec::PingPong],
            &[ProtocolKind::MesiBaseline, ProtocolKind::Arc],
            &[2],
        );
        let mut base = RunStore::new(None, 2);
        let twice = keys.iter().chain(&keys).cloned();
        assert_eq!(base.ensure(twice), 2, "a repeated key runs once");
        assert_eq!(
            base.ensure(keys.clone()),
            0,
            "present keys do not run again"
        );
        assert_eq!(base.len(), 2);

        // A store over a base runs only what both lack, and serves the
        // base's reports without copying them.
        let more = grid(
            &[WorkloadSpec::PingPong],
            &[
                ProtocolKind::MesiBaseline,
                ProtocolKind::Arc,
                ProtocolKind::Ce,
            ],
            &[2],
        );
        let mut store = RunStore::new(Some(&base), 2);
        assert_eq!(store.ensure(more.clone()), 1);
        assert_eq!(store.ensure(more.clone()), 0);
        assert_eq!(store.len(), 1);
        assert!(std::ptr::eq(store.get(&keys[0]), base.get(&keys[0])));
        assert_eq!(store.get(&more[2]).protocol, ProtocolKind::Ce);
    }

    #[test]
    fn every_key_field_is_part_of_the_identity() {
        let base = RunKey::paper(WorkloadSpec::PingPong, ProtocolKind::CePlus, 2, &P);
        let mut cfg = MachineConfig::paper_default(2, ProtocolKind::CePlus);
        cfg.metadata_piggyback_bytes = 8;
        let variants = [
            RunKey::new(WorkloadSpec::PingPong, cfg, &P),
            base.clone().with_scale(2),
            base.clone().with_obs(ObsConfig::FORENSICS),
            base.clone().with_races(1),
            RunKey::paper(
                WorkloadSpec::PingPong,
                ProtocolKind::CePlus,
                2,
                &EvalParams { seed: 2, ..P },
            ),
        ];
        for v in &variants {
            assert_ne!(&base, v);
        }
        let mut store = RunStore::new(None, 2);
        assert_eq!(store.ensure(variants.into_iter().chain([base])), 6);
    }

    #[test]
    fn observability_does_not_perturb_the_simulation() {
        let key = RunKey::paper(WorkloadSpec::PingPong, ProtocolKind::CePlus, 2, &P);
        let plain = key.run().unwrap();
        let obs = key.with_obs(ObsConfig::FULL).run().unwrap();
        assert_eq!(plain.cycles, obs.cycles);
        assert_eq!(plain.noc.total_bytes(), obs.noc.total_bytes());
        assert_eq!(plain.exceptions.len(), obs.exceptions.len());
        assert!(obs.trace.is_some() && obs.timeline.is_some());
        assert!(plain.trace.is_none() && plain.timeline.is_none());
    }

    #[test]
    fn failed_run_does_not_sink_the_batch() {
        let keys = grid(
            &[WorkloadSpec::PingPong, WorkloadSpec::PrivateOnly],
            &[ProtocolKind::MesiBaseline, ProtocolKind::Ce],
            &[2],
        );
        // The second enqueued run (PingPong/Ce) fails; the rest must
        // still execute and come back in enqueue order.
        let out = run_suite_with(&keys, 2, |key| {
            if key.protocol == ProtocolKind::Ce && key.workload == WorkloadSpec::PingPong {
                Err(RceError::LimitExceeded("injected mid-sweep failure".into()))
            } else {
                key.run()
            }
        });
        assert_eq!(out.len(), keys.len());
        for (i, (key, r)) in keys.iter().zip(&out).enumerate() {
            if i == 1 {
                assert!(
                    matches!(r, Err(RceError::LimitExceeded(_))),
                    "injected failure surfaces as its own error"
                );
            } else {
                let report = r.as_ref().expect("other queued runs still complete");
                assert_eq!(report.cores, key.cores);
                assert_eq!(report.protocol, key.protocol);
            }
        }
    }

    #[test]
    fn panicking_run_surfaces_as_error_with_its_key() {
        let keys = grid(
            &[WorkloadSpec::PingPong, WorkloadSpec::PrivateOnly],
            &[ProtocolKind::MesiBaseline],
            &[2],
        );
        // Keep the worker's caught panic out of the test log.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = run_suite_with(&keys, 2, |key| {
            if key.workload == WorkloadSpec::PingPong {
                panic!("worker died mid-run");
            }
            key.run()
        });
        std::panic::set_hook(prev);
        assert_eq!(out.len(), 2);
        match &out[0] {
            Err(RceError::InvariantViolated(m)) => {
                assert!(m.contains("ping_pong"), "names the offending key: {m}");
                assert!(m.contains("worker died mid-run"), "{m}");
            }
            other => panic!("expected InvariantViolated, got {other:?}"),
        }
        assert!(out[1].is_ok(), "the other queued run still completes");
    }

    #[test]
    fn parallel_equals_serial() {
        let key = RunKey::paper(WorkloadSpec::PingPong, ProtocolKind::Ce, 2, &P);
        let serial = key.run().unwrap();
        let mut store = RunStore::new(None, 4);
        store.ensure([key.clone()]);
        let parallel = store.get(&key);
        assert_eq!(serial.cycles, parallel.cycles);
        assert_eq!(serial.noc.total_bytes(), parallel.noc.total_bytes());
    }

    #[test]
    fn a_program_read_back_from_json_simulates_like_its_key_on_every_engine() {
        use rce_common::json;
        let w = WorkloadSpec::RacyPair;
        let key = |v: &rce_core::EngineVariant| RunKey::new(w, v.config(P.cores), &P).with_races(2);
        let text = json::to_string(&key(&rce_core::REGISTRY[0]).program().unwrap());
        let back: Program = json::from_str(&text).unwrap();
        rce_trace::validate(&back).unwrap();
        for v in &rce_core::REGISTRY {
            let replay = simulate(&v.config(back.n_threads()), ObsConfig::default(), &back);
            assert_eq!(
                json::to_string(&replay.unwrap()),
                json::to_string(&key(v).run().unwrap()),
                "{}",
                v.cli_name
            );
        }
    }

    #[test]
    fn races_in_a_one_thread_program_are_an_error() {
        let key = RunKey::paper(WorkloadSpec::PingPong, ProtocolKind::Ce, 1, &P).with_races(2);
        assert!(matches!(key.program(), Err(RceError::MalformedProgram(_))));
        assert!(matches!(key.run(), Err(RceError::MalformedProgram(_))));
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let mut cfg = MachineConfig::paper_default(4, ProtocolKind::Ce);
        cfg.l1.ways = 3; // 8 KiB is not a multiple of 3 ways of 64 B
        let key = RunKey::new(WorkloadSpec::PingPong, cfg, &P);
        match key.run() {
            Err(RceError::InvalidConfig(msg)) => assert!(msg.contains("L1"), "{msg}"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
