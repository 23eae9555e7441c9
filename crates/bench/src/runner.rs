//! Parallel sweep execution.
//!
//! Built on `std::thread::scope` and `std::sync::Mutex` only: workers
//! claim work-queue indices through a shared counter (FIFO), and each
//! finished report lands in its key's pre-assigned slot, so the
//! returned [`SweepResults`] is always in cross-product order no
//! matter how the OS schedules the workers.

use rce_common::{MachineConfig, ObsConfig, ProtocolKind, RceError, RceResult};
use rce_core::{Machine, SimReport};
use rce_trace::WorkloadSpec;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Lock acquisition that survives poisoning. Every mutex in the sweep
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

/// Identifies one simulation run of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Workload.
    pub workload: WorkloadSpec,
    /// Design.
    pub protocol: ProtocolKind,
    /// Core count.
    pub cores: usize,
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

/// Sweep reports in deterministic cross-product order
/// (workload-major, then protocol, then core count) — the order
/// [`run_suite`] enqueued them.
#[derive(Debug, Clone, Default)]
pub struct SweepResults {
    entries: Vec<(RunKey, SimReport)>,
    /// Position of each key in `entries`.
    index: HashMap<RunKey, usize>,
}

impl SweepResults {
    /// The report for `key`, if the sweep ran it.
    pub fn get(&self, key: &RunKey) -> Option<&SimReport> {
        self.index.get(key).map(|&i| &self.entries[i].1)
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keys in sweep order.
    pub fn keys(&self) -> impl Iterator<Item = &RunKey> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Reports in sweep order.
    pub fn values(&self) -> impl Iterator<Item = &SimReport> {
        self.entries.iter().map(|(_, r)| r)
    }

    /// `(key, report)` pairs in sweep order.
    pub fn iter(&self) -> impl Iterator<Item = &(RunKey, SimReport)> {
        self.entries.iter()
    }
}

impl IntoIterator for SweepResults {
    type Item = (RunKey, SimReport);
    type IntoIter = std::vec::IntoIter<(RunKey, SimReport)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a SweepResults {
    type Item = &'a (RunKey, SimReport);
    type IntoIter = std::slice::Iter<'a, (RunKey, SimReport)>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Run one simulation.
pub fn run_one(
    workload: WorkloadSpec,
    protocol: ProtocolKind,
    cores: usize,
    scale: u32,
    seed: u64,
) -> SimReport {
    run_one_cfg(
        workload,
        &MachineConfig::paper_default(cores, protocol),
        scale,
        seed,
    )
}

/// Run one simulation with an explicit machine configuration.
pub fn run_one_cfg(
    workload: WorkloadSpec,
    cfg: &MachineConfig,
    scale: u32,
    seed: u64,
) -> SimReport {
    run_one_obs(workload, cfg, scale, seed, ObsConfig::default())
}

/// Run one simulation with explicit configuration *and* observability
/// (event trace and/or interval metrics timeline — see
/// `rce_common::obs`). This is also the harness's profiling
/// choke-point: every run's wall time and simulated work are recorded
/// into the current [`crate::profile`] phase (a no-op unless profiling
/// was enabled).
pub fn run_one_obs(
    workload: WorkloadSpec,
    cfg: &MachineConfig,
    scale: u32,
    seed: u64,
    obs: ObsConfig,
) -> SimReport {
    let program = workload.build(cfg.cores, scale, seed);
    let t0 = Instant::now();
    let report = Machine::new(cfg)
        .expect("paper_default configs are valid")
        .with_observability(obs)
        .run(&program)
        .expect("generated workloads are valid programs");
    crate::profile::record_run(
        t0.elapsed(),
        report.mem_ops + report.sync_ops,
        report.cycles.0,
    );
    report
}

/// Run a full sweep in parallel; returns reports in cross-product
/// (FIFO) key order regardless of worker scheduling. Panics if any
/// run fails — paper workloads always simulate cleanly, so a failure
/// here is a harness bug (use [`run_suite_with`] for fallible runs).
pub fn run_suite(
    workloads: &[WorkloadSpec],
    protocols: &[ProtocolKind],
    core_counts: &[usize],
    params: &EvalParams,
) -> SweepResults {
    let outcomes = run_suite_with(workloads, protocols, core_counts, params, |key| {
        Ok(run_one(
            key.workload,
            key.protocol,
            key.cores,
            params.scale,
            params.seed,
        ))
    });
    let entries: Vec<(RunKey, SimReport)> = outcomes
        .into_iter()
        .map(|(k, r)| match r {
            Ok(report) => (k, report),
            Err(e) => panic!("sweep run {k} failed: {e}"),
        })
        .collect();
    let index = entries
        .iter()
        .enumerate()
        .map(|(i, (k, _))| (*k, i))
        .collect();
    SweepResults { entries, index }
}

/// Fallible parallel sweep over an arbitrary per-key runner.
///
/// Each key's outcome comes back in enqueue (cross-product) order. One
/// run failing — or even panicking — never takes down the rest of the
/// sweep: a panic inside `run` is caught and surfaced as
/// [`RceError::InvariantViolated`] naming the offending sweep key,
/// poisoned queue/slot locks are recovered (see [`lock_unpoisoned`]),
/// and every other queued run still executes and reports.
pub fn run_suite_with<F>(
    workloads: &[WorkloadSpec],
    protocols: &[ProtocolKind],
    core_counts: &[usize],
    params: &EvalParams,
    run: F,
) -> Vec<(RunKey, RceResult<SimReport>)>
where
    F: Fn(RunKey) -> RceResult<SimReport> + Sync,
{
    let mut keys = Vec::new();
    for &w in workloads {
        for &p in protocols {
            for &c in core_counts {
                keys.push(RunKey {
                    workload: w,
                    protocol: p,
                    cores: c,
                });
            }
        }
    }
    let jobs = if params.jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        params.jobs
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
                let key = keys[i];
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
    keys.into_iter()
        .zip(slots)
        .map(|(k, slot)| {
            let r = slot
                .into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .unwrap_or_else(|| {
                    Err(RceError::InvariantViolated(format!(
                        "sweep run {k} was claimed but never reported"
                    )))
                });
            (k, r)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_one_produces_report() {
        let r = run_one(WorkloadSpec::PingPong, ProtocolKind::MesiBaseline, 2, 1, 1);
        assert_eq!(r.cores, 2);
        assert!(r.cycles.0 > 0);
    }

    #[test]
    fn suite_covers_cross_product() {
        let params = EvalParams {
            cores: 2,
            scale: 1,
            seed: 1,
            jobs: 2,
        };
        let out = run_suite(
            &[WorkloadSpec::PingPong, WorkloadSpec::PrivateOnly],
            &[ProtocolKind::MesiBaseline, ProtocolKind::Arc],
            &[2],
            &params,
        );
        assert_eq!(out.len(), 4);
        for (k, r) in &out {
            assert_eq!(r.protocol, k.protocol);
            assert_eq!(r.workload.as_str(), k.workload.name());
        }
    }

    #[test]
    fn suite_results_are_in_cross_product_order() {
        let workloads = [WorkloadSpec::PingPong, WorkloadSpec::PrivateOnly];
        let protocols = [ProtocolKind::MesiBaseline, ProtocolKind::Ce];
        let core_counts = [2usize, 4];
        let params = EvalParams {
            cores: 2,
            scale: 1,
            seed: 1,
            jobs: 3,
        };
        let out = run_suite(&workloads, &protocols, &core_counts, &params);
        let mut expected = Vec::new();
        for w in workloads {
            for p in protocols {
                for c in core_counts {
                    expected.push(RunKey {
                        workload: w,
                        protocol: p,
                        cores: c,
                    });
                }
            }
        }
        let got: Vec<RunKey> = out.keys().copied().collect();
        assert_eq!(got, expected, "results must come back in enqueue order");
        for (k, r) in &out {
            assert_eq!(r.cores, k.cores);
            assert!(
                std::ptr::eq(out.get(k).unwrap(), r),
                "get({k}) finds its entry"
            );
        }
        let absent = RunKey {
            cores: 8,
            ..expected[0]
        };
        assert!(out.get(&absent).is_none());
    }

    #[test]
    fn observability_does_not_perturb_the_simulation() {
        let cfg = MachineConfig::paper_default(2, ProtocolKind::CePlus);
        let plain = run_one_cfg(WorkloadSpec::PingPong, &cfg, 1, 3);
        let obs = run_one_obs(WorkloadSpec::PingPong, &cfg, 1, 3, ObsConfig::full(256));
        assert_eq!(plain.cycles, obs.cycles);
        assert_eq!(plain.noc.total_bytes(), obs.noc.total_bytes());
        assert_eq!(plain.exceptions.len(), obs.exceptions.len());
        assert!(obs.trace.is_some() && obs.timeline.is_some());
        assert!(plain.trace.is_none() && plain.timeline.is_none());
    }

    #[test]
    fn failed_run_does_not_sink_the_sweep() {
        let workloads = [WorkloadSpec::PingPong, WorkloadSpec::PrivateOnly];
        let protocols = [ProtocolKind::MesiBaseline, ProtocolKind::Ce];
        let params = EvalParams {
            cores: 2,
            scale: 1,
            seed: 1,
            jobs: 2,
        };
        // The second enqueued run (PingPong/Ce) fails; the rest must
        // still execute and come back in enqueue order.
        let out = run_suite_with(&workloads, &protocols, &[2], &params, |key| {
            if key.protocol == ProtocolKind::Ce && key.workload == WorkloadSpec::PingPong {
                Err(RceError::LimitExceeded("injected mid-sweep failure".into()))
            } else {
                Ok(run_one(key.workload, key.protocol, key.cores, 1, 1))
            }
        });
        assert_eq!(out.len(), 4);
        let expected: Vec<RunKey> = workloads
            .iter()
            .flat_map(|&w| {
                protocols.iter().map(move |&p| RunKey {
                    workload: w,
                    protocol: p,
                    cores: 2,
                })
            })
            .collect();
        let got: Vec<RunKey> = out.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, expected, "outcomes stay in enqueue order");
        for (i, (key, r)) in out.iter().enumerate() {
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
        let params = EvalParams {
            cores: 2,
            scale: 1,
            seed: 1,
            jobs: 2,
        };
        // Keep the worker's caught panic out of the test log.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = run_suite_with(
            &[WorkloadSpec::PingPong, WorkloadSpec::PrivateOnly],
            &[ProtocolKind::MesiBaseline],
            &[2],
            &params,
            |key| {
                if key.workload == WorkloadSpec::PingPong {
                    panic!("worker died mid-run");
                }
                Ok(run_one(key.workload, key.protocol, key.cores, 1, 1))
            },
        );
        std::panic::set_hook(prev);
        assert_eq!(out.len(), 2);
        match &out[0].1 {
            Err(RceError::InvariantViolated(m)) => {
                assert!(m.contains("ping_pong"), "names the offending key: {m}");
                assert!(m.contains("worker died mid-run"), "{m}");
            }
            other => panic!("expected InvariantViolated, got {other:?}"),
        }
        assert!(out[1].1.is_ok(), "the other queued run still completes");
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = run_one(WorkloadSpec::PingPong, ProtocolKind::Ce, 2, 1, 7);
        let params = EvalParams {
            cores: 2,
            scale: 1,
            seed: 7,
            jobs: 4,
        };
        let out = run_suite(
            &[WorkloadSpec::PingPong],
            &[ProtocolKind::Ce],
            &[2],
            &params,
        );
        let parallel = out.values().next().unwrap();
        assert_eq!(serial.cycles, parallel.cycles);
        assert_eq!(serial.noc.total_bytes(), parallel.noc.total_bytes());
    }
}
