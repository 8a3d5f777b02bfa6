//! The programmatic run API: [`RunRequest`] → [`RunResponse`].
//!
//! Every way of running a benchmark cell — the `repro` CLI (via the
//! sweep executor), the serving daemon, and the integration tests —
//! constructs a [`RunRequest`] and calls [`RunRequest::execute`] (or
//! [`RunRequest::execute_cached`]). There is exactly one code path from
//! "described run" to "engine dispatch", so the digest and the 64-bit
//! identity hash ([`RunRequest::key`]) of a run are bit-identical
//! whether it was produced offline by `repro`, online by the daemon, or
//! inline by a test.
//!
//! A request is a [`SweepCell`] (algorithm, framework, workload spec,
//! node count, extrapolation factor, params, fault plan) plus the
//! experiment namespace and an optional wall-clock budget; the response
//! carries the outcome, the identity hash it is filed under, the
//! provenance (computed now vs served from cache) and the real
//! wall-clock spent.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use graphmaze_cluster::{with_faults, with_work_scale};

use crate::cache::{CachedOutcome, ResultCache};
use crate::runner::{run_benchmark, RunOutcome};
use crate::sweep::{CellError, SweepCell, WorkloadCache};
use crate::workload::Workload;

/// How a [`RunResponse`]'s outcome was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provenance {
    /// Executed by this call.
    Computed,
    /// Served from a [`ResultCache`] hit without re-running.
    Cached,
}

impl Provenance {
    /// Stable wire tag (`"miss"` for computed, `"hit"` for cached).
    pub fn wire_tag(&self) -> &'static str {
        match self {
            Provenance::Computed => "miss",
            Provenance::Cached => "hit",
        }
    }
}

/// A fully-described benchmark run: one sweep cell under an experiment
/// namespace, with an optional per-run wall-clock budget.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// Experiment namespace (part of the identity hash, so the same
    /// cell under different experiments journals separately).
    pub experiment: String,
    /// The cell to run.
    pub cell: SweepCell,
    /// Wall-clock budget for the benchmark run (`None` disables). The
    /// workload build is excluded — it is cached and shared.
    pub timeout: Option<Duration>,
}

/// The answer to a [`RunRequest`].
#[derive(Clone, Debug)]
pub struct RunResponse {
    /// The identity hash the outcome is filed under (journal and result
    /// cache key).
    pub key: u64,
    /// The benchmark outcome, or why the cell failed.
    pub outcome: Result<RunOutcome, CellError>,
    /// Computed now vs served from cache.
    pub provenance: Provenance,
    /// Real wall-clock spent answering, seconds (cache hits still pay
    /// the lookup, so this is never exactly zero for them — just small).
    pub wall_secs: f64,
    /// Wall-clock spent resolving the result cache (zero for the
    /// uncached [`RunRequest::execute`] path, which never looks).
    pub cache_lookup: Duration,
    /// Wall-clock spent actually running the cell, admission included.
    /// Exactly [`Duration::ZERO`] for cache hits — nothing ran — which
    /// is what lets span accounting assert `execute == 0` on hits.
    pub execute: Duration,
}

impl RunRequest {
    /// A request for `cell` under `experiment`, with no budget.
    pub fn new(experiment: impl Into<String>, cell: SweepCell) -> Self {
        RunRequest {
            experiment: experiment.into(),
            cell,
            timeout: None,
        }
    }

    /// The same request with a wall-clock budget.
    pub fn with_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// The run's 64-bit identity hash — [`SweepCell::key`] under this
    /// request's experiment namespace. Cache and journal key.
    pub fn key(&self) -> u64 {
        self.cell.key(&self.experiment)
    }

    /// Executes the request unconditionally (no result cache; the
    /// workload itself still resolves through `workloads`).
    pub fn execute(&self, workloads: &WorkloadCache) -> RunResponse {
        let t = Instant::now();
        let outcome = execute_cell(&self.cell, workloads, self.timeout);
        let execute = t.elapsed();
        RunResponse {
            key: self.key(),
            outcome,
            provenance: Provenance::Computed,
            wall_secs: execute.as_secs_f64(),
            cache_lookup: Duration::ZERO,
            execute,
        }
    }

    /// Answers the request from `results` when possible, executing and
    /// admitting the outcome otherwise. Admission follows
    /// [`ResultCache::admissible`] — deterministic outcomes only.
    pub fn execute_cached(&self, workloads: &WorkloadCache, results: &ResultCache) -> RunResponse {
        self.execute_shared(workloads, results).into_response()
    }

    /// [`RunRequest::execute_cached`] with the outcome left shared with
    /// the cache: a hit copies nothing.
    pub fn execute_shared(
        &self,
        workloads: &WorkloadCache,
        results: &ResultCache,
    ) -> SharedResponse {
        let t = Instant::now();
        let key = self.key();
        let looked_up = results.get(key);
        let cache_lookup = t.elapsed();
        if let Some(outcome) = looked_up {
            return SharedResponse {
                key,
                outcome,
                provenance: Provenance::Cached,
                wall_secs: cache_lookup.as_secs_f64(),
                cache_lookup,
                execute: Duration::ZERO,
            };
        }
        let run_start = Instant::now();
        let outcome = Arc::new(execute_cell(&self.cell, workloads, self.timeout));
        results.admit_arc(key, Arc::clone(&outcome));
        SharedResponse {
            key,
            outcome,
            provenance: Provenance::Computed,
            wall_secs: t.elapsed().as_secs_f64(),
            cache_lookup,
            // admission is charged to the run, not the lookup: it only
            // happens when something actually ran
            execute: run_start.elapsed(),
        }
    }
}

/// A [`RunResponse`] whose outcome is shared with the [`ResultCache`]
/// instead of owned, as [`RunRequest::execute_shared`] returns it.
#[derive(Debug)]
pub struct SharedResponse {
    /// The identity hash the outcome is filed under.
    pub key: u64,
    /// The benchmark outcome, or why the cell failed.
    pub outcome: Arc<CachedOutcome>,
    /// Computed now vs served from cache.
    pub provenance: Provenance,
    /// Real wall-clock spent answering, seconds.
    pub wall_secs: f64,
    /// Wall-clock spent resolving the result cache.
    pub cache_lookup: Duration,
    /// Wall-clock spent running the cell; [`Duration::ZERO`] on a hit.
    pub execute: Duration,
}

impl SharedResponse {
    /// The owned [`RunResponse`], copying the outcome only when the
    /// cache still shares it.
    pub fn into_response(self) -> RunResponse {
        RunResponse {
            key: self.key,
            outcome: Arc::unwrap_or_clone(self.outcome),
            provenance: self.provenance,
            wall_secs: self.wall_secs,
            cache_lookup: self.cache_lookup,
            execute: self.execute,
        }
    }
}

/// Runs one cell with panic isolation and, when `timeout` is set, a
/// wall-clock budget on the benchmark run. The workload is resolved
/// through the cache on the calling thread first so the budget never
/// charges (shared, one-off) construction time to an unlucky cell.
pub(crate) fn execute_cell(
    cell: &SweepCell,
    cache: &WorkloadCache,
    timeout: Option<Duration>,
) -> Result<RunOutcome, CellError> {
    let wl = match catch_unwind(AssertUnwindSafe(|| cache.get(&cell.spec))) {
        Ok(wl) => wl,
        Err(payload) => return Err(CellError::Panicked(panic_message(&payload))),
    };
    match timeout {
        None => run_cell(cell, &wl),
        // a zero budget forfeits every cell up front; skipping the spawn
        // keeps the outcome deterministic instead of racing a fast cell
        // against an already-expired deadline
        Some(limit) if limit.is_zero() => Err(CellError::TimedOut(
            "cell exceeded its 0.000 s wall-clock budget".to_string(),
        )),
        Some(limit) => {
            // the benchmark runs on a detached thread so a runaway cell
            // can be abandoned: Rust threads cannot be killed, but the
            // receiver gives up at the deadline and the orphan's eventual
            // send goes nowhere
            let (tx, rx) = std::sync::mpsc::channel();
            let cell = cell.clone();
            std::thread::spawn(move || {
                let _ = tx.send(run_cell(&cell, &wl));
            });
            match rx.recv_timeout(limit) {
                Ok(outcome) => outcome,
                Err(_) => Err(CellError::TimedOut(format!(
                    "cell exceeded its {:.3} s wall-clock budget",
                    limit.as_secs_f64()
                ))),
            }
        }
    }
}

/// The benchmark body of one cell: panic isolation plus the cell's work
/// scale and fault plan (both thread-local, so concurrent requests never
/// leak either into each other's cells).
fn run_cell(cell: &SweepCell, wl: &Workload) -> Result<RunOutcome, CellError> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        with_faults(cell.faults, || {
            with_work_scale(cell.factor, || {
                run_benchmark(cell.algorithm, cell.framework, wl, cell.nodes, &cell.params)
            })
        })
    }));
    match caught {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(sim_err)) => Err(sim_err.into()),
        Err(payload) => Err(CellError::Panicked(panic_message(&payload))),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "engine panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Algorithm, BenchParams, Framework};
    use crate::sweep::WorkloadSpec;
    use graphmaze_cluster::FaultPlan;

    fn request() -> RunRequest {
        RunRequest::new(
            "req",
            SweepCell {
                label: "t".into(),
                algorithm: Algorithm::PageRank,
                framework: Framework::Native,
                spec: WorkloadSpec::Rmat {
                    scale: 7,
                    edge_factor: 4,
                    seed: 11,
                },
                nodes: 2,
                factor: 1.0,
                params: BenchParams::default(),
                faults: FaultPlan::none(),
            },
        )
    }

    #[test]
    fn execute_and_cached_paths_agree_bit_exactly() {
        let workloads = WorkloadCache::new();
        let results = ResultCache::new(8);
        let direct = request().execute(&workloads);
        let miss = request().execute_cached(&workloads, &results);
        let hit = request().execute_cached(&workloads, &results);
        assert_eq!(direct.provenance, Provenance::Computed);
        assert_eq!(miss.provenance, Provenance::Computed);
        assert_eq!(hit.provenance, Provenance::Cached);
        assert_eq!(direct.key, hit.key);
        let d = direct.outcome.unwrap();
        let m = miss.outcome.unwrap();
        let h = hit.outcome.unwrap();
        assert_eq!(d.digest, m.digest);
        assert_eq!(d, h, "the cached outcome is the computed one, bit-exact");
    }

    #[test]
    fn key_matches_the_sweep_cell_key() {
        let req = request();
        assert_eq!(req.key(), req.cell.key("req"));
        assert_ne!(req.key(), req.cell.key("other-experiment"));
    }

    #[test]
    fn zero_timeout_times_out_and_is_not_cached() {
        let workloads = WorkloadCache::new();
        let results = ResultCache::new(8);
        let resp = request()
            .with_timeout(Some(Duration::ZERO))
            .execute_cached(&workloads, &results);
        assert!(matches!(resp.outcome, Err(CellError::TimedOut(_))));
        // the timeout was refused admission: the next call computes
        let retry = request().execute_cached(&workloads, &results);
        assert_eq!(retry.provenance, Provenance::Computed);
        assert!(retry.outcome.is_ok());
    }

    #[test]
    fn stage_durations_distinguish_hits_from_misses() {
        let workloads = WorkloadCache::new();
        let results = ResultCache::new(8);
        let miss = request().execute_cached(&workloads, &results);
        let hit = request().execute_cached(&workloads, &results);
        assert!(miss.execute > Duration::ZERO, "a miss actually ran");
        assert_eq!(hit.execute, Duration::ZERO, "nothing ran on a hit");
        let direct = request().execute(&workloads);
        assert_eq!(direct.cache_lookup, Duration::ZERO, "no cache, no lookup");
        assert!(direct.execute > Duration::ZERO);
    }

    #[test]
    fn wire_tags_are_stable() {
        assert_eq!(Provenance::Computed.wire_tag(), "miss");
        assert_eq!(Provenance::Cached.wire_tag(), "hit");
    }
}
