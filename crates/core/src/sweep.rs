//! The sweep subsystem: declarative, parallel, resumable execution of
//! `algorithm × framework × workload × nodes` crossbars.
//!
//! Every paper artifact (Fig 3–7, Tables 4–7) is a sweep over the same
//! crossbar. A [`Sweep`] describes its cells declaratively
//! ([`SweepCell`]: algorithm, framework, [`WorkloadSpec`], node count,
//! extrapolation factor, parameters); the executor then runs them across
//! a thread pool with per-cell `catch_unwind` isolation, so one engine
//! panic marks that cell [`CellError::Panicked`] instead of aborting the
//! whole `repro all` run.
//!
//! Three properties the experiments rely on:
//!
//! * **Shared workload cache** — workload construction (generation +
//!   CSR + orientation) dominates wall-clock across fig3/fig4/fig5/fig6,
//!   which historically each rebuilt the same graphs. A [`WorkloadCache`]
//!   keyed by canonical [`WorkloadSpec`] builds each workload once per
//!   process and hands out `Arc<Workload>` clones.
//! * **Determinism under parallelism** — results are collected by cell
//!   index, engines are deterministic, and the work scale is a
//!   thread-local override (`graphmaze_cluster::work_scale`), so `--jobs
//!   N` produces byte-identical CSVs to a serial run.
//! * **Resumability** — completed cells (successes *and* deterministic
//!   failures like OOM) append a JSONL record carrying the cell's params
//!   hash, digest and full [`RunReport`] to a journal; a re-run with
//!   `resume` skips journaled cells and reconstructs their results
//!   exactly, so an interrupted `repro all` finishes where it left off.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use graphmaze_cluster::{FaultPlan, SimError};
use graphmaze_datagen::Dataset;
use graphmaze_metrics::{Registry, RunReport, StepRecord, Timeline, TrafficMatrix};

use crate::flatjson::{FlatFields, FlatJsonBuilder, FlatObject};
use crate::request::RunRequest;
use crate::runner::{Algorithm, BenchParams, Framework, RunOutcome};
use crate::workload::Workload;

/// Canonical description of how to construct a [`Workload`] — the cache
/// key. Two spec values compare equal iff they build identical workloads.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum WorkloadSpec {
    /// Graph500-parameter RMAT graph ([`Workload::rmat`]).
    Rmat {
        scale: u32,
        edge_factor: u32,
        seed: u64,
    },
    /// Triangle-tuned RMAT graph ([`Workload::rmat_triangle`]).
    RmatTriangle {
        scale: u32,
        edge_factor: u32,
        seed: u64,
    },
    /// Synthetic bipartite ratings ([`Workload::rmat_ratings`]).
    RmatRatings {
        scale: u32,
        num_items: u32,
        seed: u64,
    },
    /// A Table 3 dataset stand-in ([`Workload::from_dataset`]).
    Dataset {
        ds: Dataset,
        scale_down: u32,
        seed: u64,
    },
}

impl WorkloadSpec {
    /// Builds the workload this spec describes (use [`WorkloadCache::get`]
    /// to share the result).
    pub fn build(&self) -> Workload {
        match *self {
            WorkloadSpec::Rmat {
                scale,
                edge_factor,
                seed,
            } => Workload::rmat(scale, edge_factor, seed),
            WorkloadSpec::RmatTriangle {
                scale,
                edge_factor,
                seed,
            } => Workload::rmat_triangle(scale, edge_factor, seed),
            WorkloadSpec::RmatRatings {
                scale,
                num_items,
                seed,
            } => Workload::rmat_ratings(scale, num_items, seed),
            WorkloadSpec::Dataset {
                ds,
                scale_down,
                seed,
            } => Workload::from_dataset(ds, scale_down, seed),
        }
    }

    /// Canonical string form, used in the cell hash and the journal (the
    /// [`Display`](std::fmt::Display) form).
    pub fn key(&self) -> String {
        self.to_string()
    }

    /// Parses the canonical string form back into a spec — the exact
    /// inverse of [`WorkloadSpec::key`], used by the serving wire
    /// protocol so a client names a workload by the same string the
    /// journal records. Returns a descriptive error for anything that
    /// does not round-trip.
    pub fn parse_key(s: &str) -> Result<WorkloadSpec, String> {
        fn field<T: std::str::FromStr>(part: &str, prefix: char) -> Result<T, String> {
            let rest = part
                .strip_prefix(prefix)
                .ok_or_else(|| format!("expected `{prefix}<N>`, got `{part}`"))?;
            rest.parse()
                .map_err(|_| format!("invalid integer `{rest}` in `{part}`"))
        }
        // exactly four parts: a fifth makes the spec unrecognized
        let mut split = s.split('/');
        match [(); 5].map(|()| split.next()) {
            [Some(kind @ ("rmat" | "rmat-tc")), Some(sc), Some(ef), Some(seed), None] => {
                let (scale, edge_factor, seed) =
                    (field(sc, 's')?, field(ef, 'e')?, field(seed, 'x')?);
                Ok(if kind == "rmat" {
                    WorkloadSpec::Rmat {
                        scale,
                        edge_factor,
                        seed,
                    }
                } else {
                    WorkloadSpec::RmatTriangle {
                        scale,
                        edge_factor,
                        seed,
                    }
                })
            }
            [Some("cf"), Some(sc), Some(items), Some(seed), None] => {
                Ok(WorkloadSpec::RmatRatings {
                    scale: field(sc, 's')?,
                    num_items: field(items, 'i')?,
                    seed: field(seed, 'x')?,
                })
            }
            [Some("ds"), Some(ds), Some(down), Some(seed), None] => Ok(WorkloadSpec::Dataset {
                ds: parse_dataset_debug(ds)?,
                scale_down: field(down, 'd')?,
                seed: field(seed, 'x')?,
            }),
            _ => Err(format!(
                "unrecognized workload spec `{s}` (expected e.g. `rmat/s13/e16/x42`, \
                 `rmat-tc/s13/e16/x42`, `cf/s13/i64/x42` or `ds/LiveJournalLike/d4/x42`)"
            )),
        }
    }
}

impl std::fmt::Display for WorkloadSpec {
    /// The canonical string form [`WorkloadSpec::parse_key`] inverts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WorkloadSpec::Rmat {
                scale,
                edge_factor,
                seed,
            } => write!(f, "rmat/s{scale}/e{edge_factor}/x{seed}"),
            WorkloadSpec::RmatTriangle {
                scale,
                edge_factor,
                seed,
            } => write!(f, "rmat-tc/s{scale}/e{edge_factor}/x{seed}"),
            WorkloadSpec::RmatRatings {
                scale,
                num_items,
                seed,
            } => write!(f, "cf/s{scale}/i{num_items}/x{seed}"),
            WorkloadSpec::Dataset {
                ds,
                scale_down,
                seed,
            } => write!(f, "ds/{ds:?}/d{scale_down}/x{seed}"),
        }
    }
}

/// Parses a [`Dataset`]'s `{:?}` form (the spelling [`WorkloadSpec::key`]
/// embeds), including the parameterized `Graph500 { scale: N }` /
/// `CfSynthetic { scale: N }` variants.
fn parse_dataset_debug(s: &str) -> Result<Dataset, String> {
    match s {
        "FacebookLike" => return Ok(Dataset::FacebookLike),
        "WikipediaLike" => return Ok(Dataset::WikipediaLike),
        "LiveJournalLike" => return Ok(Dataset::LiveJournalLike),
        "TwitterLike" => return Ok(Dataset::TwitterLike),
        "NetflixLike" => return Ok(Dataset::NetflixLike),
        "YahooMusicLike" => return Ok(Dataset::YahooMusicLike),
        _ => {}
    }
    for (name, mk) in [
        (
            "Graph500",
            &(|scale| Dataset::Graph500 { scale }) as &dyn Fn(u32) -> Dataset,
        ),
        ("CfSynthetic", &(|scale| Dataset::CfSynthetic { scale })),
    ] {
        if let Some(rest) = s
            .strip_prefix(name)
            .and_then(|r| r.strip_prefix(" { scale: "))
            .and_then(|r| r.strip_suffix(" }"))
        {
            return rest
                .parse()
                .map(mk)
                .map_err(|_| format!("invalid integer `{rest}` in dataset `{s}`"));
        }
    }
    Err(format!("unknown dataset `{s}`"))
}

/// Process-wide cache of built workloads, keyed by [`WorkloadSpec`].
/// Concurrent requests for the same spec build it exactly once (the
/// losers block on the builder); every other caller gets an `Arc` clone.
#[derive(Default)]
pub struct WorkloadCache {
    map: Mutex<HashMap<WorkloadSpec, Arc<OnceLock<Arc<Workload>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for WorkloadCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadCache")
            .field("entries", &self.map.lock().unwrap().len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl WorkloadCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The workload for `spec`, building it on first request.
    pub fn get(&self, spec: &WorkloadSpec) -> Arc<Workload> {
        let slot = {
            let mut map = self.map.lock().unwrap();
            map.entry(spec.clone()).or_default().clone()
        };
        let mut built = false;
        let wl = slot
            .get_or_init(|| {
                built = true;
                Arc::new(spec.build())
            })
            .clone();
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        wl
    }

    /// Requests served from cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to build the workload.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// One cell of a sweep: a single `run_benchmark` invocation plus the
/// metadata the experiment needs to render its row.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Row label in the experiment's table (e.g. the dataset name).
    pub label: String,
    /// Algorithm under test.
    pub algorithm: Algorithm,
    /// Framework under test.
    pub framework: Framework,
    /// Workload to run on (resolved through the cache).
    pub spec: WorkloadSpec,
    /// Simulated node count.
    pub nodes: usize,
    /// Work-scale extrapolation factor (≥ 1; see DESIGN.md §2).
    pub factor: f64,
    /// Benchmark parameters.
    pub params: BenchParams,
    /// Fault-injection plan the cell runs under ([`FaultPlan::none`] for
    /// the fault-free crossbar).
    pub faults: FaultPlan,
}

impl SweepCell {
    /// The cell's 64-bit params hash (FNV-1a over the canonical string of
    /// every field), used as the journal key.
    ///
    /// The canonical string is the fields joined by `\x1f`: experiment,
    /// label, algorithm and framework names, the spec and fault-plan
    /// [`Display`](std::fmt::Display) forms, integers in decimal, and f64
    /// bit patterns and the msbfs seed in 16 lowercase hex digits. It is
    /// hashed as it is written, never built.
    pub fn key(&self, experiment: &str) -> u64 {
        let p = &self.params;
        let mut h = Fnv1a::default();
        h.text(experiment);
        for name in [
            self.label.as_str(),
            self.algorithm.name(),
            self.framework.name(),
        ] {
            h.field().text(name);
        }
        let _ = write!(h.field(), "{}", self.spec);
        let _ = write!(h.field(), "{}", self.nodes);
        let _ = write!(h.field(), "{:016x}", self.factor.to_bits());
        for n in [
            u64::from(p.pr_iterations),
            u64::from(p.bfs_source),
            p.cf.k as u64,
        ] {
            let _ = write!(h.field(), "{n}");
        }
        for x in [p.cf.lambda, p.cf.gamma0, p.cf.step_decay] {
            let _ = write!(h.field(), "{:016x}", x.to_bits());
        }
        for n in [
            p.cf.seed,
            u64::from(p.cf_iterations),
            u64::from(p.giraph_splits),
            u64::from(p.msbfs_sources),
        ] {
            let _ = write!(h.field(), "{n}");
        }
        let _ = write!(h.field(), "{:016x}", p.msbfs_seed);
        let _ = write!(h.field(), "{}", self.faults);
        h.0
    }
}

/// FNV-1a over the bytes written into it: hashes a canonical string
/// without building it.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn text(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes())
    }

    /// Starts the next field: the `\x1f` separator.
    fn field(&mut self) -> &mut Self {
        self.bytes(b"\x1f")
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.text(s);
        Ok(())
    }
}

/// Why a cell failed. Unlike [`SimError`], this includes panics (caught
/// per-cell) and survives the journal round-trip as kind + message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellError {
    /// A node exceeded its memory capacity (the paper's "OOM" cells).
    OutOfMemory(String),
    /// Impossible combination (e.g. Galois multi-node) — rendered "n/a".
    InvalidConfig(String),
    /// The engine panicked; the cell is marked failed instead of taking
    /// down the run.
    Panicked(String),
    /// The fault plan killed a node and the framework fail-stops (no
    /// checkpoint/restart) — the paper's "job lost" cells.
    NodeFailed(String),
    /// The cell exceeded the per-cell wall-clock budget
    /// ([`SweepOptions::cell_timeout`]). Journaled, so a `resume`
    /// quarantines the cell instead of re-running it forever.
    TimedOut(String),
}

impl CellError {
    /// Stable kind tag for the journal.
    pub fn kind(&self) -> &'static str {
        match self {
            CellError::OutOfMemory(_) => "oom",
            CellError::InvalidConfig(_) => "invalid",
            CellError::Panicked(_) => "panic",
            CellError::NodeFailed(_) => "failed",
            CellError::TimedOut(_) => "timeout",
        }
    }

    /// Human-readable message.
    pub fn message(&self) -> &str {
        match self {
            CellError::OutOfMemory(m)
            | CellError::InvalidConfig(m)
            | CellError::Panicked(m)
            | CellError::NodeFailed(m)
            | CellError::TimedOut(m) => m,
        }
    }

    /// The annotation the paper's figures use for this failure mode.
    pub fn annotation(&self) -> &'static str {
        match self {
            CellError::OutOfMemory(_) => "OOM",
            CellError::InvalidConfig(_) => "n/a",
            CellError::Panicked(_) => "fail",
            CellError::NodeFailed(_) => "failed",
            CellError::TimedOut(_) => "timeout",
        }
    }

    fn from_kind(kind: &str, message: String) -> CellError {
        match kind {
            "oom" => CellError::OutOfMemory(message),
            "invalid" => CellError::InvalidConfig(message),
            "failed" => CellError::NodeFailed(message),
            "timeout" => CellError::TimedOut(message),
            _ => CellError::Panicked(message),
        }
    }
}

impl From<SimError> for CellError {
    fn from(e: SimError) -> CellError {
        match e {
            SimError::OutOfMemory(oom) => CellError::OutOfMemory(oom.to_string()),
            SimError::InvalidConfig(m) => CellError::InvalidConfig(m),
            SimError::NodeFailed { .. } => CellError::NodeFailed(e.to_string()),
        }
    }
}

/// How a cell's result was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellStatus {
    /// Executed in this process.
    Ran,
    /// Reconstructed from the journal by `resume` without re-running.
    Resumed,
}

/// The result of one cell.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Executed now vs reconstructed from the journal.
    pub status: CellStatus,
    /// The benchmark outcome, or why the cell failed.
    pub outcome: Result<RunOutcome, CellError>,
    /// Real wall-clock spent executing the cell (0 when resumed).
    pub wall_secs: f64,
}

/// A structured progress event from [`Sweep::execute`].
///
/// Events fire from worker threads as the sweep makes progress. Every
/// cell produces exactly one terminal event ([`SweepEvent::Finished`] or
/// [`SweepEvent::Failed`]); cells executed in-process additionally
/// produce a [`SweepEvent::Started`] first, while resumed cells go
/// straight to their terminal event during the upfront journal scan.
#[derive(Debug)]
pub enum SweepEvent<'a> {
    /// A worker picked up `cell` and is about to execute it.
    Started {
        /// Cell index in [`Sweep::cells`] order.
        index: usize,
        /// The cell being executed.
        cell: &'a SweepCell,
        /// Cells without a terminal event yet (including this one).
        remaining: usize,
        /// Wall-clock seconds since the sweep started.
        elapsed_s: f64,
    },
    /// `cell` completed with a successful outcome (ran or resumed).
    Finished {
        /// Cell index in [`Sweep::cells`] order.
        index: usize,
        /// The completed cell.
        cell: &'a SweepCell,
        /// Its result (`outcome` is `Ok`).
        result: &'a CellResult,
        /// Cells still without a terminal event after this one.
        remaining: usize,
        /// Wall-clock seconds since the sweep started.
        elapsed_s: f64,
    },
    /// `cell` completed with an error outcome (ran or resumed).
    Failed {
        /// Cell index in [`Sweep::cells`] order.
        index: usize,
        /// The failed cell.
        cell: &'a SweepCell,
        /// Its result (`outcome` is `Err`).
        result: &'a CellResult,
        /// Cells still without a terminal event after this one.
        remaining: usize,
        /// Wall-clock seconds since the sweep started.
        elapsed_s: f64,
    },
}

/// Observer of sweep progress: receives every [`SweepEvent`] as the
/// executor makes progress (from worker threads, unordered).
///
/// This is the single extension point of [`Sweep::execute`]. Any
/// `Fn(&SweepEvent<'_>) + Sync` closure is an observer, so ad-hoc
/// callers need no impl block; long-lived consumers (progress printers,
/// trace recorders, serving metrics) implement the trait on a struct.
pub trait SweepObserver: Sync {
    /// Called for every event. Invoked from worker threads; must be
    /// cheap or internally buffered — the executor does not decouple
    /// observation from execution.
    fn on_event(&self, event: &SweepEvent<'_>);
}

impl<F: Fn(&SweepEvent<'_>) + Sync> SweepObserver for F {
    fn on_event(&self, event: &SweepEvent<'_>) {
        self(event)
    }
}

/// The do-nothing observer, for callers that only want the
/// [`SweepReport`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentObserver;

impl SweepObserver for SilentObserver {
    fn on_event(&self, _event: &SweepEvent<'_>) {}
}

/// Executor configuration.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Worker threads (values ≤ 1 run serially on the caller's thread
    /// count of one worker).
    pub jobs: usize,
    /// JSONL journal to append completed cells to (`None` disables).
    pub journal: Option<PathBuf>,
    /// Skip cells already present in the journal.
    pub resume: bool,
    /// Per-cell wall-clock budget for the benchmark run (workload
    /// construction is excluded — it is cached and shared). A cell that
    /// exceeds it records [`CellError::TimedOut`] and its runaway engine
    /// thread is detached (the eventual result discarded); because the
    /// outcome is journaled, a `resume` quarantines the cell instead of
    /// re-running it forever. `None` disables the budget.
    pub cell_timeout: Option<std::time::Duration>,
    /// Telemetry registry the workers record into (`None` disables).
    /// Offline sweeps share the serving daemon's instrumentation: each
    /// executed cell increments `graphmaze_sweep_cells_total{outcome}`
    /// and observes `graphmaze_sweep_cell_seconds{algorithm,framework}`
    /// (real wall-clock) plus the jobs-invariant
    /// `graphmaze_sim_seconds{algorithm,framework}` (simulated time, a
    /// pure function of the cell).
    pub telemetry: Option<Arc<Registry>>,
}

/// Aggregate result of a sweep.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Per-cell results, in the same order as [`Sweep::cells`].
    pub results: Vec<CellResult>,
    /// Cells executed in this process.
    pub ran: usize,
    /// Cells reconstructed from the journal.
    pub resumed: usize,
    /// Cells whose outcome is an error (including panics).
    pub failed: usize,
    /// Real wall-clock of the whole sweep, seconds.
    pub wall_secs: f64,
}

/// A declarative crossbar sweep: an experiment name plus its cells.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Experiment name (namespaces cell keys in the journal).
    pub experiment: String,
    /// The cells, in presentation order.
    pub cells: Vec<SweepCell>,
}

impl Sweep {
    /// An empty sweep for `experiment`.
    pub fn new(experiment: impl Into<String>) -> Self {
        Sweep {
            experiment: experiment.into(),
            cells: Vec::new(),
        }
    }

    /// Appends a cell.
    pub fn push(&mut self, cell: SweepCell) {
        self.cells.push(cell);
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the sweep has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Runs every cell across `opts.jobs` worker threads, journaling and
    /// resuming per `opts`, notifying `observer` with a [`SweepEvent`]
    /// as the sweep makes progress (from worker threads, unordered).
    /// Every cell gets exactly one terminal event; resumed cells skip
    /// [`SweepEvent::Started`]. Results come back in cell order
    /// regardless of scheduling.
    ///
    /// This is the one entry point of the executor — run silently with
    /// [`SilentObserver`], or pass a closure (closures are observers).
    /// Each pending cell executes through [`RunRequest`], the same code
    /// path the serving daemon and the integration tests use, so
    /// digests and identity hashes are bit-identical between online and
    /// offline runs.
    pub fn execute(
        &self,
        opts: &SweepOptions,
        cache: &WorkloadCache,
        observer: &(impl SweepObserver + ?Sized),
    ) -> SweepReport {
        let t0 = Instant::now();
        let journaled = match (&opts.journal, opts.resume) {
            (Some(path), true) => load_journal(path),
            _ => HashMap::new(),
        };

        let done = AtomicUsize::new(0);
        let total = self.cells.len();
        let terminal = |i: usize, cell: &SweepCell, r: &CellResult| {
            let remaining = total - 1 - done.fetch_add(1, Ordering::Relaxed);
            let elapsed_s = t0.elapsed().as_secs_f64();
            let ev = match &r.outcome {
                Ok(_) => SweepEvent::Finished {
                    index: i,
                    cell,
                    result: r,
                    remaining,
                    elapsed_s,
                },
                Err(_) => SweepEvent::Failed {
                    index: i,
                    cell,
                    result: r,
                    remaining,
                    elapsed_s,
                },
            };
            observer.on_event(&ev);
        };

        let mut results: Vec<Option<CellResult>> = vec![None; self.cells.len()];
        let mut pending: Vec<usize> = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            match journaled.get(&cell.key(&self.experiment)) {
                Some(outcome) => {
                    let r = CellResult {
                        status: CellStatus::Resumed,
                        outcome: outcome.clone(),
                        wall_secs: 0.0,
                    };
                    terminal(i, cell, &r);
                    results[i] = Some(r);
                }
                None => pending.push(i),
            }
        }

        let writer = opts.journal.as_ref().and_then(|path| {
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match open_journal(path) {
                Ok(f) => Some(Mutex::new(f)),
                Err(e) => {
                    eprintln!("warning: cannot open journal {}: {e}", path.display());
                    None
                }
            }
        });

        let results = Mutex::new(results);
        if !pending.is_empty() {
            let cursor = AtomicUsize::new(0);
            let workers = opts.jobs.max(1).min(pending.len());
            let (pending, terminal, results, writer, done) =
                (&pending, &terminal, &results, &writer, &done);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let n = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = pending.get(n) else { break };
                        let cell = &self.cells[i];
                        observer.on_event(&SweepEvent::Started {
                            index: i,
                            cell,
                            remaining: total - done.load(Ordering::Relaxed),
                            elapsed_s: t0.elapsed().as_secs_f64(),
                        });
                        let resp = RunRequest::new(self.experiment.clone(), cell.clone())
                            .with_timeout(opts.cell_timeout)
                            .execute(cache);
                        if let Some(registry) = &opts.telemetry {
                            record_cell_telemetry(registry, cell, &resp);
                        }
                        let r = CellResult {
                            status: CellStatus::Ran,
                            outcome: resp.outcome,
                            wall_secs: resp.wall_secs,
                        };
                        if let Some(w) = writer {
                            let line = journal_line(&self.experiment, cell, &r);
                            let mut f = w.lock().unwrap();
                            // line-buffered with an immediate flush so a
                            // killed run loses at most the in-flight cell
                            let _ = f.write_all(line.as_bytes()).and_then(|_| f.flush());
                        }
                        terminal(i, cell, &r);
                        results.lock().unwrap()[i] = Some(r);
                    });
                }
            });
        }

        let results: Vec<CellResult> = results
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|r| r.expect("every cell produced a result"))
            .collect();
        let ran = results
            .iter()
            .filter(|r| r.status == CellStatus::Ran)
            .count();
        let resumed = results.len() - ran;
        let failed = results.iter().filter(|r| r.outcome.is_err()).count();
        SweepReport {
            results,
            ran,
            resumed,
            failed,
            wall_secs: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Records one executed cell into the sweep telemetry registry: an
/// outcome-labelled counter, the real per-cell wall-clock histogram,
/// and the *simulated* seconds histogram. The last one is the
/// determinism anchor: simulated time is a pure function of the cell,
/// so its bucket counts are bit-identical across `--jobs 1` and
/// `--jobs N` even though wall-clock histograms never are.
fn record_cell_telemetry(registry: &Registry, cell: &SweepCell, resp: &crate::RunResponse) {
    let outcome = match &resp.outcome {
        Ok(_) => "ok",
        Err(e) => e.kind(),
    };
    registry
        .counter(
            "graphmaze_sweep_cells_total",
            "cells executed by the sweep workers, by outcome",
            &[("outcome", outcome)],
        )
        .inc();
    let labels = [
        ("algorithm", cell.algorithm.name()),
        ("framework", cell.framework.name()),
    ];
    registry
        .histogram(
            "graphmaze_sweep_cell_seconds",
            "real wall-clock per executed cell",
            &labels,
        )
        .observe_duration(resp.execute);
    if let Ok(out) = &resp.outcome {
        registry
            .histogram(
                "graphmaze_sim_seconds",
                "simulated seconds per successful cell (jobs-invariant)",
                &labels,
            )
            .observe(out.report.sim_seconds);
        let reb = &out.report.rebalance;
        if !reb.is_zero() {
            registry
                .gauge(
                    "graphmaze_cluster_nodes",
                    "physical nodes active at the end of the latest elastic run",
                    &[],
                )
                .set(i64::from(reb.final_nodes));
            registry
                .counter(
                    "graphmaze_rebalance_bytes_total",
                    "partition state migrated by elastic rebalances, bytes",
                    &[],
                )
                .add(reb.migrated_bytes);
        }
    }
}

// ---------------------------------------------------------------------
// JSONL journal, schema v6 (DESIGN §7 has the version history)
//
// One flat JSON object per line: the cell identity (`v`, `key`,
// `experiment`, `label`, `algorithm`, `framework`, `spec`, `nodes`,
// `factor`, `faults`), `status`, then either the digest and the complete
// RunReport (`put_outcome`) or `error_kind` and `error`, and last
// `wall_secs`. f64s are shortest-round-trip (non-finite ones quoted), so
// a resumed run's CSVs are byte-identical. Lines at another version or
// without `faults` are skipped with a warning and their cells re-run.
// ---------------------------------------------------------------------

/// Journal line schema version. Bump when the line format changes
/// incompatibly; `load_journal` skips lines from other versions.
pub const JOURNAL_SCHEMA_VERSION: u32 = 6;

/// A scalar journal value: written through [`FlatJsonBuilder`] and read
/// back by parsing as its own type, so an out-of-range value rejects the
/// line instead of wrapping.
trait Scalar: std::str::FromStr {
    fn put(self, b: &mut FlatJsonBuilder, key: &str);
}

impl Scalar for f64 {
    fn put(self, b: &mut FlatJsonBuilder, key: &str) {
        b.f64(key, self);
    }
}

macro_rules! integer_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn put(self, b: &mut FlatJsonBuilder, key: &str) {
                b.u64(key, self as u64);
            }
        }
    )*};
}

integer_scalar!(u32, u64, usize);

/// Declares each scalar field of a successful journal line once — its
/// key, its place in a [`RunOutcome`] and its type, in line order — and
/// generates from that one list both `put_outcome`, the writer, and
/// `get_outcome`, the reader.
macro_rules! outcome_fields {
    ($($key:literal => $($field:ident).+ : $ty:ty,)*) => {
        /// Appends a successful outcome's fields in line order.
        fn put_outcome(b: &mut FlatJsonBuilder, out: &RunOutcome) {
            $(<$ty as Scalar>::put(out.$($field).+, b, $key);)*
            put_series(b, &out.report);
        }

        /// Reads back what `put_outcome` wrote; `None` if any field is
        /// missing or does not parse as its declared type.
        fn get_outcome(fields: &impl FlatFields) -> Option<RunOutcome> {
            let mut out = RunOutcome {
                digest: 0.0,
                report: RunReport::default(),
            };
            $(out.$($field).+ = fields.field($key)?.parse::<$ty>().ok()?;)*
            get_series(fields, &mut out.report)?;
            Some(out)
        }
    };
}

outcome_fields! {
    "digest" => digest: f64,
    "sim_seconds" => report.sim_seconds: f64,
    "steps" => report.steps: u32,
    "iterations" => report.iterations: u32,
    "run_nodes" => report.nodes: usize,
    "cpu_utilization" => report.cpu_utilization: f64,
    "peak_mem_bytes" => report.peak_mem_bytes: u64,
    "compute_seconds" => report.compute_seconds: f64,
    "comm_seconds" => report.comm_seconds: f64,
    "bytes_sent" => report.traffic.bytes_sent: u64,
    "messages" => report.traffic.messages: u64,
    "bytes_uncompressed" => report.traffic.bytes_uncompressed: u64,
    "peak_bw_bps" => report.traffic.peak_bw_bps: f64,
    "traffic_steps" => report.traffic.steps: u32,
    "seq_bytes" => report.total_work.seq_bytes: u64,
    "rand_accesses" => report.total_work.rand_accesses: u64,
    "flops" => report.total_work.flops: u64,
    "rec_checkpoints" => report.recovery.checkpoints: u32,
    "rec_checkpoint_bytes" => report.recovery.checkpoint_bytes: u64,
    "rec_checkpoint_seconds" => report.recovery.checkpoint_seconds: f64,
    "rec_failures" => report.recovery.failures: u32,
    "rec_steps_replayed" => report.recovery.steps_replayed: u32,
    "rec_restore_seconds" => report.recovery.restore_seconds: f64,
    "rec_replay_seconds" => report.recovery.replay_seconds: f64,
    "rec_stragglers" => report.recovery.straggler_events: u64,
    "rec_dropped_sends" => report.recovery.dropped_sends: u64,
    "rec_retransmitted_bytes" => report.recovery.retransmitted_bytes: u64,
    "rec_mem_pressure" => report.recovery.mem_pressure_events: u64,
    "ret_retransmits" => report.retransmit.retransmits: u64,
    "ret_retransmitted_bytes" => report.retransmit.retransmitted_bytes: u64,
    "ret_duplicates" => report.retransmit.duplicates: u64,
    "ret_duplicate_bytes" => report.retransmit.duplicate_bytes: u64,
    "ret_timeout_seconds" => report.retransmit.timeout_seconds: f64,
    "ret_heartbeats" => report.retransmit.heartbeats: u64,
    "ret_heartbeat_bytes" => report.retransmit.heartbeat_bytes: u64,
    "ret_missed_beats" => report.retransmit.missed_beats: u64,
    "ret_suspicions" => report.retransmit.suspicions: u32,
    "ret_detection_seconds" => report.retransmit.detection_seconds: f64,
    "ret_spec_reexecs" => report.retransmit.speculative_reexecs: u64,
    "ret_spec_seconds" => report.retransmit.speculative_seconds: f64,
    "ret_suppressed" => report.retransmit.suppressed_duplicates: u64,
    "reb_joins" => report.rebalance.joins: u32,
    "reb_leaves" => report.rebalance.leaves: u32,
    "reb_rebalances" => report.rebalance.rebalances: u32,
    "reb_migrated_bytes" => report.rebalance.migrated_bytes: u64,
    "reb_migrated_vertices" => report.rebalance.migrated_vertices: u64,
    "reb_stall_seconds" => report.rebalance.stall_seconds: f64,
    "reb_warmstart_seconds" => report.rebalance.warmstart_seconds: f64,
    "reb_drained" => report.rebalance.drained_messages: u64,
    "reb_colocated_bytes" => report.rebalance.colocated_bytes: u64,
    "reb_peak_nodes" => report.rebalance.peak_nodes: u32,
    "reb_final_nodes" => report.rebalance.final_nodes: u32,
}

/// Appends the series that follow the scalar fields: the step timeline,
/// the per-node sent bytes and the communication matrix.
fn put_series(b: &mut FlatJsonBuilder, r: &RunReport) {
    let (mx, n) = (&r.matrix, r.matrix.nodes);
    let row_major = |f: fn(&TrafficMatrix, usize, usize) -> u64| {
        u64_list_string((0..n).flat_map(|s| (0..n).map(move |d| f(mx, s, d))))
    };
    b.u64("tl_nodes", r.timeline.nodes as u64)
        .str("timeline", &timeline_string(&r.timeline))
        .u64("mtx_nodes", n as u64)
        .str(
            "node_sent",
            &u64_list_string(r.node_sent_bytes.iter().copied()),
        )
        .str("mtx_bytes", &row_major(TrafficMatrix::bytes))
        .str("mtx_msgs", &row_major(TrafficMatrix::messages));
}

/// Reads what `put_series` wrote into `r`, whose scalars are already
/// read: a line without `mtx_nodes` has a `run_nodes`-square matrix.
fn get_series(fields: &impl FlatFields, r: &mut RunReport) -> Option<()> {
    let tl_nodes = fields.field("tl_nodes")?.parse().ok()?;
    r.timeline = timeline_from_string(tl_nodes, fields.field("timeline")?)?;
    r.node_sent_bytes = u64_list_from_string(fields.field("node_sent")?)?;
    let mtx_nodes = fields.field("mtx_nodes").and_then(|n| n.parse().ok());
    r.matrix = matrix_from_strings(
        mtx_nodes.unwrap_or(r.nodes),
        fields.field("mtx_bytes")?,
        fields.field("mtx_msgs")?,
    )?;
    Some(())
}

/// Appends `s` to `out` with the timeline delimiters (`%`, `|`, `;`)
/// percent-escaped, so records stay splittable.
fn push_esc_phase(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            ';' => out.push_str("%3B"),
            c => out.push(c),
        }
    }
}

fn unesc_phase(s: &str) -> String {
    // safe in this order: escaping turns a literal "%7C" into "%257C",
    // which contains no "%7C" substring
    s.replace("%7C", "|")
        .replace("%3B", ";")
        .replace("%25", "%")
}

/// Encodes a [`Timeline`]'s steps as one string value: each step's
/// cells ([`StepRecord::write_cells`]) joined by `|`, steps joined by
/// `;`. The phase is the only cell that can hold a delimiter, so it
/// alone is escaped.
fn timeline_string(tl: &Timeline) -> String {
    let mut out = String::new();
    for r in &tl.steps {
        r.write_cells(&mut out, '|', push_esc_phase);
        out.push(';');
    }
    out.pop();
    out
}

fn timeline_from_string(nodes: usize, s: &str) -> Option<Timeline> {
    let mut tl = Timeline::new(nodes);
    if s.is_empty() {
        return Some(tl);
    }
    for rec in s.split(';') {
        let mut r = StepRecord::from_cells(rec.split('|'))?;
        r.phase = unesc_phase(&r.phase);
        tl.steps.push(r);
    }
    Some(tl)
}

/// Comma-joins u64s; empty slice encodes as the empty string.
fn u64_list_string(vals: impl Iterator<Item = u64>) -> String {
    vals.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

fn u64_list_from_string(s: &str) -> Option<Vec<u64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(|v| v.parse().ok()).collect()
}

/// Rebuilds a `nodes × nodes` [`TrafficMatrix`] from its comma-joined
/// row-major byte and message lists; `None` unless both lists hold
/// exactly `nodes²` values.
fn matrix_from_strings(nodes: usize, bytes: &str, msgs: &str) -> Option<TrafficMatrix> {
    let bytes = u64_list_from_string(bytes)?;
    let msgs = u64_list_from_string(msgs)?;
    let len = nodes.checked_mul(nodes)?;
    if bytes.len() != len || msgs.len() != len {
        return None;
    }
    let mut m = TrafficMatrix::new(nodes);
    for src in 0..nodes {
        for dst in 0..nodes {
            let i = src * nodes + dst;
            if bytes[i] > 0 || msgs[i] > 0 {
                m.record(src, dst, bytes[i], msgs[i]);
            }
        }
    }
    Some(m)
}

fn journal_line(experiment: &str, cell: &SweepCell, result: &CellResult) -> String {
    let mut b = FlatJsonBuilder::new();
    b.u64("v", JOURNAL_SCHEMA_VERSION.into())
        .hex64("key", cell.key(experiment))
        .str("experiment", experiment)
        .str("label", &cell.label)
        .str("algorithm", cell.algorithm.name())
        .str("framework", cell.framework.name())
        .str("spec", &cell.spec.key())
        .u64("nodes", cell.nodes as u64)
        .f64("factor", cell.factor)
        .str("faults", &cell.faults.key());
    match &result.outcome {
        Ok(out) => put_outcome(b.str("status", "done"), out),
        Err(e) => {
            b.str("status", "failed")
                .str("error_kind", e.kind())
                .str("error", e.message());
        }
    }
    let mut line = b.f64("wall_secs", result.wall_secs).finish();
    line.push('\n');
    line
}

fn entry_outcome(fields: &impl FlatFields) -> Option<Result<RunOutcome, CellError>> {
    match fields.field("status")? {
        "done" => get_outcome(fields).map(Ok),
        "failed" => Some(Err(CellError::from_kind(
            fields.field("error_kind")?,
            fields.field("error")?.to_string(),
        ))),
        _ => None,
    }
}

/// Opens the journal for appending. A run killed mid-write leaves a torn
/// last line, which [`load_journal`] skips; the file is first cut back to
/// its last `\n` so the next line does not glue onto the fragment.
fn open_journal(path: &Path) -> std::io::Result<std::fs::File> {
    let f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let body = std::fs::read(path)?;
    if body.last().is_some_and(|&b| b != b'\n') {
        let whole_lines = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        f.set_len(whole_lines as u64)?;
    }
    Ok(f)
}

/// Loads a journal into `key → outcome`, silently skipping malformed
/// lines (e.g. the torn last line of a killed run) and, with a counted
/// warning, lines from a different schema version (those cells re-run).
/// A missing file is an empty journal.
pub(crate) fn load_journal(path: &Path) -> HashMap<u64, Result<RunOutcome, CellError>> {
    let mut out = HashMap::new();
    let Ok(body) = std::fs::read_to_string(path) else {
        return out;
    };
    let mut version_skipped = 0usize;
    let mut faults_skipped = 0usize;
    for line in body.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(m) = FlatObject::parse(line) else {
            continue;
        };
        if m.get("v").and_then(|v| v.parse::<u32>().ok()) != Some(JOURNAL_SCHEMA_VERSION) {
            version_skipped += 1;
            continue;
        }
        // Lines written before fault injection existed carry no "faults"
        // field; their cell keys were hashed without the fault spec, so
        // they can never match a current key — skip them (counted) rather
        // than let them silently shadow re-runs.
        if m.get("faults").is_none() {
            faults_skipped += 1;
            continue;
        }
        let Some(key) = m.get("key").and_then(|k| u64::from_str_radix(k, 16).ok()) else {
            continue;
        };
        if let Some(outcome) = entry_outcome(&m) {
            out.insert(key, outcome);
        }
    }
    if version_skipped > 0 {
        eprintln!(
            "warning: {}: skipped {version_skipped} journal line(s) not at schema version \
             {JOURNAL_SCHEMA_VERSION}; those cells will re-run",
            path.display()
        );
    }
    if faults_skipped > 0 {
        eprintln!(
            "warning: {}: skipped {faults_skipped} pre-fault-injection journal line(s) \
             (no \"faults\" field); those cells will re-run",
            path.display()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flatjson::parse_flat_json;
    use graphmaze_metrics::{RebalanceStats, RecoveryStats, RetransmitStats, TrafficStats, Work};

    fn small_cell(fw: Framework, nodes: usize) -> SweepCell {
        SweepCell {
            label: "t".into(),
            algorithm: Algorithm::PageRank,
            framework: fw,
            spec: WorkloadSpec::Rmat {
                scale: 7,
                edge_factor: 4,
                seed: 11,
            },
            nodes,
            factor: 1.0,
            params: BenchParams::default(),
            faults: FaultPlan::none(),
        }
    }

    #[test]
    fn cache_builds_once_and_counts() {
        let cache = WorkloadCache::new();
        let spec = WorkloadSpec::Rmat {
            scale: 6,
            edge_factor: 4,
            seed: 1,
        };
        let a = cache.get(&spec);
        let b = cache.get(&spec);
        assert!(Arc::ptr_eq(&a, &b), "same built workload");
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        cache.get(&WorkloadSpec::Rmat {
            scale: 6,
            edge_factor: 4,
            seed: 2,
        });
        assert_eq!(cache.misses(), 2, "different seed is a different workload");
    }

    #[test]
    fn workload_spec_keys_round_trip_through_parse_key() {
        let specs = [
            WorkloadSpec::Rmat {
                scale: 13,
                edge_factor: 16,
                seed: 42,
            },
            WorkloadSpec::RmatTriangle {
                scale: 10,
                edge_factor: 8,
                seed: 7,
            },
            WorkloadSpec::RmatRatings {
                scale: 12,
                num_items: 64,
                seed: 9,
            },
            WorkloadSpec::Dataset {
                ds: Dataset::LiveJournalLike,
                scale_down: 4,
                seed: 42,
            },
            WorkloadSpec::Dataset {
                ds: Dataset::Graph500 { scale: 29 },
                scale_down: 16,
                seed: 1,
            },
            WorkloadSpec::Dataset {
                ds: Dataset::CfSynthetic { scale: 26 },
                scale_down: 12,
                seed: 3,
            },
        ];
        for spec in specs {
            assert_eq!(WorkloadSpec::parse_key(&spec.key()), Ok(spec.clone()));
        }
        for bad in [
            "",
            "rmat/s13/e16",
            "rmat/s13/e16/x42/x7",
            "rmat/sx/e16/x42",
            "ds/NoSuch/d4/x1",
        ] {
            assert!(WorkloadSpec::parse_key(bad).is_err(), "{bad:?}");
        }
        assert!(WorkloadSpec::parse_key("rmat/s2x/e16/x42")
            .unwrap_err()
            .contains("invalid integer `2x`"));
    }

    #[test]
    fn cell_keys_are_stable_and_distinguish_params() {
        let c = small_cell(Framework::Native, 2);
        assert_eq!(c.key("fig3"), c.key("fig3"), "deterministic");
        assert_ne!(c.key("fig3"), c.key("fig4"), "experiment namespaces");
        let mut c2 = c.clone();
        c2.nodes = 4;
        assert_ne!(c.key("fig3"), c2.key("fig3"));
        let mut c3 = c.clone();
        c3.params.pr_iterations += 1;
        assert_ne!(c.key("fig3"), c3.key("fig3"));
        let mut c4 = c.clone();
        c4.factor = 2.0;
        assert_ne!(c.key("fig3"), c4.key("fig3"));
        let mut c5 = c.clone();
        c5.faults = FaultPlan::parse("seed=1,straggler=0.1x4").unwrap();
        assert_ne!(
            c.key("fig3"),
            c5.key("fig3"),
            "fault plan is part of the cell identity"
        );
    }

    /// The identity hash as it was first written: FNV-1a over one
    /// `format!`ed string. `SweepCell::key` must match it bit for bit.
    fn reference_key(c: &SweepCell, experiment: &str) -> u64 {
        let p = &c.params;
        let canonical = format!(
            "{experiment}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{:016x}\x1f{}\x1f{}\x1f{}\x1f{:016x}\x1f{:016x}\x1f{:016x}\x1f{}\x1f{}\x1f{}\x1f{}\x1f{:016x}\x1f{}",
            c.label,
            c.algorithm.name(),
            c.framework.name(),
            c.spec.key(),
            c.nodes,
            c.factor.to_bits(),
            p.pr_iterations,
            p.bfs_source,
            p.cf.k,
            p.cf.lambda.to_bits(),
            p.cf.gamma0.to_bits(),
            p.cf.step_decay.to_bits(),
            p.cf.seed,
            p.cf_iterations,
            p.giraph_splits,
            p.msbfs_sources,
            p.msbfs_seed,
            c.faults.key(),
        );
        canonical.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn cell_keys_match_the_formatted_reference() {
        let mut cells = vec![small_cell(Framework::Native, 2)];
        let mut c = small_cell(Framework::GraphMat, 64);
        c.label = "é\u{1f}/😀".into();
        c.algorithm = Algorithm::MsBfs;
        c.spec = WorkloadSpec::Dataset {
            ds: Dataset::Graph500 { scale: 29 },
            scale_down: 16,
            seed: u64::MAX,
        };
        c.factor = 1234.5678;
        c.params.pr_iterations = 0;
        c.params.bfs_source = u32::MAX;
        c.params.cf.k = 0;
        c.params.cf.lambda = -0.0;
        c.params.cf.gamma0 = f64::MIN_POSITIVE;
        c.params.cf.seed = u64::MAX;
        c.params.msbfs_seed = 0;
        c.faults =
            FaultPlan::parse("seed=7,straggler=0.1x4,linkdrop=0.02,join=2@1,ckpt=4").expect("plan");
        cells.push(c);
        let mut c = small_cell(Framework::SociaLiteUnopt, 1);
        c.spec = WorkloadSpec::RmatRatings {
            scale: 12,
            num_items: 64,
            seed: 9,
        };
        c.params.msbfs_seed = 0xfeed_f00d_dead_beef;
        cells.push(c);
        for c in &cells {
            for experiment in ["", "fig3", "serve"] {
                assert_eq!(c.key(experiment), reference_key(c, experiment), "{c:?}");
            }
        }
    }

    #[test]
    fn sweep_telemetry_is_jobs_invariant_on_simulated_time() {
        let mut sweep = Sweep::new("telemetry");
        for fw in [Framework::Native, Framework::GraphLab, Framework::Galois] {
            for nodes in [1, 2] {
                sweep.push(small_cell(fw, nodes));
            }
        }
        let run = |jobs: usize| {
            let registry = Arc::new(Registry::new());
            let opts = SweepOptions {
                jobs,
                telemetry: Some(Arc::clone(&registry)),
                ..SweepOptions::default()
            };
            let report = sweep.execute(&opts, &WorkloadCache::new(), &SilentObserver);
            (registry, report)
        };
        let (serial, report) = run(1);
        let (parallel, _) = run(4);
        // every cell produced exactly one outcome-labelled count
        let samples =
            graphmaze_metrics::parse_exposition(&graphmaze_metrics::render_exposition(&serial))
                .expect("exposition parses");
        let cells: f64 = samples
            .iter()
            .filter(|s| s.name == "graphmaze_sweep_cells_total")
            .map(|s| s.value)
            .sum();
        assert_eq!(cells as usize, sweep.len());
        assert_eq!(
            graphmaze_metrics::expose::sample_value(
                &samples,
                "graphmaze_sweep_cells_total",
                &[("outcome", "invalid")]
            ),
            Some(1.0),
            "Galois×2-nodes fails deterministically"
        );
        assert_eq!(
            graphmaze_metrics::expose::sample_value(
                &samples,
                "graphmaze_sweep_cell_seconds_count",
                &[("algorithm", "pagerank"), ("framework", "native")]
            ),
            Some(2.0)
        );
        // simulated time is a pure function of the cell: the rendered
        // sim-seconds section is byte-identical across --jobs 1 and 4
        let sim_section = |reg: &Registry| {
            graphmaze_metrics::render_exposition(reg)
                .lines()
                .filter(|l| l.starts_with("graphmaze_sim_seconds"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let section = sim_section(&serial);
        assert!(!section.is_empty());
        assert_eq!(section, sim_section(&parallel), "jobs-invariant buckets");
        assert_eq!(report.failed, 1);
    }

    #[test]
    fn node_failed_cells_round_trip_and_annotate() {
        let err = CellError::NodeFailed(
            "node 0 failed during step 3 and the engine cannot recover (fail-stop)".into(),
        );
        assert_eq!(err.kind(), "failed");
        assert_eq!(err.annotation(), "failed");
        assert_eq!(
            CellError::from_kind("failed", err.message().to_string()),
            err
        );
        let cell = small_cell(Framework::GraphLab, 8);
        let r = CellResult {
            status: CellStatus::Ran,
            outcome: Err(err.clone()),
            wall_secs: 0.2,
        };
        let m = parse_flat_json(&journal_line("tabler", &cell, &r)).expect("parses");
        let back = entry_outcome(&m).expect("entry").expect_err("failure");
        assert_eq!(back, err);
    }

    #[test]
    fn journal_lines_without_a_faults_field_are_skipped() {
        let dir = std::env::temp_dir().join(format!("gm-sweep-f-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("prefaults.jsonl");
        let cell = small_cell(Framework::Native, 1);
        let good = CellResult {
            status: CellStatus::Ran,
            outcome: Err(CellError::InvalidConfig("x".into())),
            wall_secs: 0.0,
        };
        let mut body = journal_line("e", &cell, &good);
        // a pre-fault-injection v2 line: same version, no "faults" field
        let old = small_cell(Framework::Giraph, 2);
        body.push_str(&journal_line("e", &old, &good).replacen(",\"faults\":\"none\"", "", 1));
        std::fs::write(&path, body).unwrap();
        let loaded = load_journal(&path);
        assert_eq!(loaded.len(), 1, "only the faults-carrying line survives");
        assert!(loaded.contains_key(&cell.key("e")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_line_round_trips_success_exactly() {
        let cell = small_cell(Framework::Native, 2);
        let outcome = RunOutcome {
            digest: 1234.567890123,
            report: RunReport {
                sim_seconds: 0.1234567890123456,
                steps: 7,
                iterations: 5,
                nodes: 2,
                cpu_utilization: 0.875,
                peak_mem_bytes: 123_456_789,
                compute_seconds: 0.1,
                comm_seconds: 0.023456789,
                traffic: TrafficStats {
                    bytes_sent: 999,
                    messages: 55,
                    bytes_uncompressed: 2000,
                    peak_bw_bps: 1.5e9,
                    steps: 7,
                },
                total_work: Work {
                    seq_bytes: 1,
                    rand_accesses: 2,
                    flops: 3,
                },
                timeline: {
                    let mut tl = Timeline::new(2);
                    tl.steps.push(StepRecord {
                        step: 0,
                        phase: "bfs:top-down".into(),
                        compute_s: 0.0625,
                        comm_s: 0.0078125,
                        barrier_s: 0.001,
                        recovery_s: 0.03125,
                        resilience_s: 0.0009765625,
                        rebalance_s: 0.0078125,
                        bytes_sent: 999,
                        messages: 55,
                        max_node_bytes: 600,
                        mem_peak_bytes: 123_456_789,
                    });
                    tl.steps.push(StepRecord {
                        step: 1,
                        // delimiter-hostile label: all three escapes plus
                        // JSON-relevant characters
                        phase: "a|b;c%d\"e\\f".into(),
                        compute_s: 0.1234567890123456,
                        comm_s: 0.0,
                        barrier_s: 0.001,
                        recovery_s: 0.0,
                        resilience_s: 0.0,
                        rebalance_s: 0.0,
                        bytes_sent: 0,
                        messages: 0,
                        max_node_bytes: 0,
                        mem_peak_bytes: 123_456_789,
                    });
                    tl
                },
                recovery: RecoveryStats {
                    checkpoints: 3,
                    checkpoint_bytes: 1 << 30,
                    checkpoint_seconds: 5.368709119999999,
                    failures: 1,
                    steps_replayed: 4,
                    restore_seconds: 5.36870912,
                    replay_seconds: 0.1234567890123456,
                    straggler_events: 7,
                    dropped_sends: 11,
                    retransmitted_bytes: 4096,
                    mem_pressure_events: 2,
                },
                node_sent_bytes: vec![700, 299],
                matrix: {
                    let mut m = TrafficMatrix::new(2);
                    m.record(0, 1, 700, 30);
                    m.record(1, 0, 299, 25);
                    m
                },
                retransmit: RetransmitStats {
                    retransmits: 9,
                    retransmitted_bytes: 4321,
                    duplicates: 2,
                    duplicate_bytes: 128,
                    timeout_seconds: 0.0009765625,
                    heartbeats: 14,
                    heartbeat_bytes: 224,
                    missed_beats: 3,
                    suspicions: 1,
                    detection_seconds: 3.0000000000000004,
                    speculative_reexecs: 5,
                    speculative_seconds: 0.1234567890123456,
                    suppressed_duplicates: 77,
                },
                rebalance: RebalanceStats {
                    joins: 2,
                    leaves: 1,
                    rebalances: 3,
                    migrated_bytes: 5_000_000,
                    migrated_vertices: 1234,
                    stall_seconds: 0.0087890625,
                    warmstart_seconds: 0.00390625,
                    drained_messages: 42,
                    colocated_bytes: 8192,
                    peak_nodes: 4,
                    final_nodes: 3,
                },
            },
        };
        let r = CellResult {
            status: CellStatus::Ran,
            outcome: Ok(outcome.clone()),
            wall_secs: 0.5,
        };
        let line = journal_line("fig9", &cell, &r);
        let m = parse_flat_json(&line).expect("parses");
        assert_eq!(m["framework"], "native");
        assert_eq!(m["v"], JOURNAL_SCHEMA_VERSION.to_string());
        let back = entry_outcome(&m).expect("entry").expect("success");
        assert_eq!(back.digest, outcome.digest);
        assert_eq!(
            back.report, outcome.report,
            "full report round-trips bit-exactly"
        );
    }

    #[test]
    fn phase_escaping_round_trips() {
        for s in ["", "plain", "%", "%%", "|;%", "a%7Cb", "%25", "x|y;z"] {
            let mut escaped = String::new();
            push_esc_phase(&mut escaped, s);
            assert_eq!(unesc_phase(&escaped), s, "label {s:?}");
        }
    }

    #[test]
    fn journal_lines_from_other_schema_versions_are_skipped() {
        let dir = std::env::temp_dir().join(format!("gm-sweep-v-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("versioned.jsonl");
        let cell = small_cell(Framework::Native, 1);
        let good = CellResult {
            status: CellStatus::Ran,
            outcome: Err(CellError::InvalidConfig("x".into())),
            wall_secs: 0.0,
        };
        let mut body = journal_line("e", &cell, &good);
        // a v1-era line (no `v` field) and a future version: both skipped
        let old = small_cell(Framework::Giraph, 2);
        let v = format!("\"v\":{JOURNAL_SCHEMA_VERSION}");
        body.push_str(&journal_line("e", &old, &good).replacen(&format!("{{{v},"), "{", 1));
        body.push_str(&journal_line("e", &old, &good).replacen(&v, "\"v\":99", 1));
        std::fs::write(&path, body).unwrap();
        let loaded = load_journal(&path);
        assert_eq!(loaded.len(), 1, "only the current-version line survives");
        assert!(loaded.contains_key(&cell.key("e")));
        let _ = std::fs::remove_file(&path);
    }

    /// The exact bytes of a success line whose 52 scalar fields all hold
    /// distinct non-zero values, so any two fields swapped, renamed or
    /// reordered change the line, and of a failure line.
    #[test]
    fn journal_line_bytes_are_pinned() {
        let report = RunReport {
            sim_seconds: 2.25,
            steps: 3,
            iterations: 4,
            nodes: 5,
            cpu_utilization: 0.625,
            peak_mem_bytes: (1 << 40) + 7,
            compute_seconds: 0.8,
            comm_seconds: 0.09,
            traffic: TrafficStats {
                bytes_sent: 10,
                messages: 11,
                bytes_uncompressed: 12,
                peak_bw_bps: 1.3e10,
                steps: 14,
            },
            total_work: Work {
                seq_bytes: 15,
                rand_accesses: 16,
                flops: 17,
            },
            timeline: Timeline {
                nodes: 2,
                steps: vec![
                    StepRecord {
                        step: 53,
                        phase: "gd:q-side".into(),
                        compute_s: 0.5,
                        comm_s: 0.25,
                        barrier_s: 0.125,
                        recovery_s: 0.0625,
                        resilience_s: 0.03125,
                        rebalance_s: 0.015625,
                        bytes_sent: 54,
                        messages: 55,
                        max_node_bytes: 56,
                        mem_peak_bytes: 57,
                    },
                    StepRecord {
                        step: 58,
                        phase: "a|b;c%7Cd\"e\\f\n".into(),
                        compute_s: 5.9,
                        comm_s: 6.1,
                        barrier_s: 6.2,
                        recovery_s: 6.3,
                        resilience_s: 6.4,
                        rebalance_s: 6.5,
                        bytes_sent: 66,
                        messages: 67,
                        max_node_bytes: 68,
                        mem_peak_bytes: 69,
                    },
                ],
            },
            node_sent_bytes: vec![70, 71],
            matrix: {
                let mut m = TrafficMatrix::new(2);
                m.record(0, 1, 72, 73);
                m.record(1, 0, 74, 75);
                m
            },
            recovery: RecoveryStats {
                checkpoints: 18,
                checkpoint_bytes: 19,
                checkpoint_seconds: 0.2,
                failures: 21,
                steps_replayed: 22,
                restore_seconds: 2.3,
                replay_seconds: 2.4,
                straggler_events: 25,
                dropped_sends: 26,
                retransmitted_bytes: 27,
                mem_pressure_events: 28,
            },
            retransmit: RetransmitStats {
                retransmits: 29,
                retransmitted_bytes: 30,
                duplicates: 31,
                duplicate_bytes: 32,
                timeout_seconds: 3.3,
                heartbeats: 34,
                heartbeat_bytes: 35,
                missed_beats: 36,
                suspicions: 37,
                detection_seconds: f64::INFINITY,
                speculative_reexecs: 39,
                speculative_seconds: 4.5,
                suppressed_duplicates: 41,
            },
            rebalance: RebalanceStats {
                joins: 42,
                leaves: 43,
                rebalances: 44,
                migrated_bytes: 45,
                migrated_vertices: 46,
                stall_seconds: 4.7,
                warmstart_seconds: 4.8,
                drained_messages: 49,
                colocated_bytes: 50,
                peak_nodes: 51,
                final_nodes: 52,
            },
        };
        let cell = small_cell(Framework::GraphLab, 5);
        let done = CellResult {
            status: CellStatus::Ran,
            outcome: Ok(RunOutcome {
                digest: 1234.5,
                report,
            }),
            wall_secs: 0.75,
        };
        assert_eq!(
            journal_line("fig\"9", &cell, &done),
            concat!(
                r#"{"v":6,"key":"3accfce7f517afb3","experiment":"fig\"9","label":"t","algorithm":"pagerank","framework":"graphlab","spec":"rmat/s7/e4/x11","nodes":5,"factor":1.0,"faults":"none""#,
                r#","status":"done","digest":1234.5"#,
                r#","sim_seconds":2.25,"steps":3,"iterations":4,"run_nodes":5,"cpu_utilization":0.625,"peak_mem_bytes":1099511627783,"compute_seconds":0.8,"comm_seconds":0.09"#,
                r#","bytes_sent":10,"messages":11,"bytes_uncompressed":12,"peak_bw_bps":13000000000.0,"traffic_steps":14"#,
                r#","seq_bytes":15,"rand_accesses":16,"flops":17"#,
                r#","rec_checkpoints":18,"rec_checkpoint_bytes":19,"rec_checkpoint_seconds":0.2,"rec_failures":21,"rec_steps_replayed":22,"rec_restore_seconds":2.3,"rec_replay_seconds":2.4"#,
                r#","rec_stragglers":25,"rec_dropped_sends":26,"rec_retransmitted_bytes":27,"rec_mem_pressure":28"#,
                r#","ret_retransmits":29,"ret_retransmitted_bytes":30,"ret_duplicates":31,"ret_duplicate_bytes":32,"ret_timeout_seconds":3.3"#,
                r#","ret_heartbeats":34,"ret_heartbeat_bytes":35,"ret_missed_beats":36,"ret_suspicions":37"#,
                r#","ret_detection_seconds":"inf","ret_spec_reexecs":39,"ret_spec_seconds":4.5,"ret_suppressed":41"#,
                r#","reb_joins":42,"reb_leaves":43,"reb_rebalances":44,"reb_migrated_bytes":45,"reb_migrated_vertices":46,"reb_stall_seconds":4.7,"reb_warmstart_seconds":4.8"#,
                r#","reb_drained":49,"reb_colocated_bytes":50,"reb_peak_nodes":51,"reb_final_nodes":52"#,
                r#","tl_nodes":2"#,
                r#","timeline":"53|gd:q-side|0.5|0.25|0.125|0.0625|0.03125|0.015625|54|55|56|57;58|a%7Cb%3Bc%257Cd\"e\\f\n|5.9|6.1|6.2|6.3|6.4|6.5|66|67|68|69""#,
                r#","mtx_nodes":2,"node_sent":"70,71","mtx_bytes":"0,72,74,0","mtx_msgs":"0,73,75,0""#,
                r#","wall_secs":0.75}"#,
                "\n",
            )
        );
        let failed = CellResult {
            status: CellStatus::Ran,
            outcome: Err(CellError::OutOfMemory(
                "node 3: wanted 5 GB \"extra\"\n".into(),
            )),
            wall_secs: 0.125,
        };
        assert_eq!(
            journal_line("tabler", &cell, &failed),
            concat!(
                r#"{"v":6,"key":"52956117e3c44c6c","experiment":"tabler","label":"t","algorithm":"pagerank","framework":"graphlab","spec":"rmat/s7/e4/x11","nodes":5,"factor":1.0,"faults":"none""#,
                r#","status":"failed","error_kind":"oom","error":"node 3: wanted 5 GB \"extra\"\n","wall_secs":0.125}"#,
                "\n",
            )
        );
    }

    #[test]
    fn journal_line_round_trips_failure() {
        let cell = small_cell(Framework::Giraph, 4);
        let err = CellError::OutOfMemory("node 3: wanted 5 GB \"extra\"".into());
        let r = CellResult {
            status: CellStatus::Ran,
            outcome: Err(err.clone()),
            wall_secs: 0.1,
        };
        let line = journal_line("fig9", &cell, &r);
        let m = parse_flat_json(&line).expect("parses");
        let back = entry_outcome(&m).expect("entry").expect_err("failure");
        assert_eq!(back, err);
    }

    #[test]
    fn non_finite_floats_survive_the_journal() {
        let mut outcome = RunOutcome {
            digest: f64::NAN,
            report: RunReport::default(),
        };
        outcome.report.sim_seconds = f64::INFINITY;
        let cell = small_cell(Framework::Native, 1);
        let r = CellResult {
            status: CellStatus::Ran,
            outcome: Ok(outcome),
            wall_secs: 0.0,
        };
        let m = parse_flat_json(&journal_line("x", &cell, &r)).expect("parses");
        let back = entry_outcome(&m).expect("entry").expect("success");
        assert!(back.digest.is_nan());
        assert_eq!(back.report.sim_seconds, f64::INFINITY);
    }

    #[test]
    fn malformed_journal_lines_are_skipped() {
        let dir = std::env::temp_dir().join(format!("gm-sweep-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("torn.jsonl");
        let cell = small_cell(Framework::Native, 1);
        let good = CellResult {
            status: CellStatus::Ran,
            outcome: Err(CellError::InvalidConfig("x".into())),
            wall_secs: 0.0,
        };
        let mut body = journal_line("e", &cell, &good);
        body.push_str("{\"key\":\"00ff\",\"status\":\"done\",\"digest\":1"); // torn line
        std::fs::write(&path, body).unwrap();
        let loaded = load_journal(&path);
        assert_eq!(loaded.len(), 1);
        assert!(loaded.contains_key(&cell.key("e")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_range_journal_values_skip_the_line_instead_of_wrapping_or_panicking() {
        let dir = std::env::temp_dir().join(format!("gm-sweep-h-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("hostile.jsonl");
        let done = CellResult {
            status: CellStatus::Ran,
            outcome: Ok(RunOutcome {
                digest: 1.0,
                report: RunReport::default(),
            }),
            wall_secs: 0.0,
        };
        let (good, wide, huge) = (
            small_cell(Framework::Native, 1),
            small_cell(Framework::Native, 2),
            small_cell(Framework::Native, 3),
        );
        let mut body = journal_line("e", &good, &done);
        // `steps` is a u32: 2^32 + 1 must not reload as 1
        let line = journal_line("e", &wide, &done);
        assert!(line.contains(",\"steps\":0,"));
        body.push_str(&line.replacen(",\"steps\":0,", ",\"steps\":4294967297,", 1));
        // a 2^32-node matrix: its squared size overflows, so the empty
        // byte and message lists must not pass for it
        let line = journal_line("e", &huge, &done);
        assert!(line.contains("\"mtx_nodes\":0,\"node_sent\":\"\",\"mtx_bytes\":\"\""));
        body.push_str(&line.replacen("\"mtx_nodes\":0,", "\"mtx_nodes\":4294967296,", 1));
        std::fs::write(&path, body).unwrap();
        let loaded = load_journal(&path);
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.len(), 1, "both hostile lines are skipped");
        assert!(loaded.contains_key(&good.key("e")));
    }

    #[test]
    fn timed_out_cells_round_trip_through_the_journal() {
        let err = CellError::TimedOut("cell exceeded its 30.000 s wall-clock budget".into());
        assert_eq!(err.kind(), "timeout");
        assert_eq!(err.annotation(), "timeout");
        let cell = small_cell(Framework::Giraph, 8);
        let r = CellResult {
            status: CellStatus::Ran,
            outcome: Err(err.clone()),
            wall_secs: 30.0,
        };
        let m = parse_flat_json(&journal_line("resilience", &cell, &r)).expect("parses");
        let back = entry_outcome(&m).expect("entry").expect_err("failure");
        assert_eq!(back, err);
    }

    #[test]
    fn cell_timeout_records_timed_out_and_resume_quarantines() {
        let dir = std::env::temp_dir().join(format!("gm-sweep-t-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("timeout.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut sweep = Sweep::new("tmo");
        sweep.push(small_cell(Framework::Native, 2));
        let cache = WorkloadCache::new();
        // a zero budget times out before any benchmark can finish
        let opts = SweepOptions {
            jobs: 1,
            journal: Some(path.clone()),
            resume: false,
            cell_timeout: Some(std::time::Duration::ZERO),
            telemetry: None,
        };
        let rep = sweep.execute(&opts, &cache, &SilentObserver);
        assert_eq!(rep.ran, 1);
        assert!(
            matches!(rep.results[0].outcome, Err(CellError::TimedOut(_))),
            "{:?}",
            rep.results[0].outcome
        );
        // resume must quarantine the journaled timeout, not retry it —
        // even with the budget lifted
        let opts2 = SweepOptions {
            jobs: 1,
            journal: Some(path.clone()),
            resume: true,
            cell_timeout: None,
            telemetry: None,
        };
        let rep2 = sweep.execute(&opts2, &cache, &SilentObserver);
        assert_eq!((rep2.ran, rep2.resumed), (0, 1));
        assert_eq!(rep2.results[0].status, CellStatus::Resumed);
        assert!(matches!(
            rep2.results[0].outcome,
            Err(CellError::TimedOut(_))
        ));
        let _ = std::fs::remove_file(&path);
    }
}
