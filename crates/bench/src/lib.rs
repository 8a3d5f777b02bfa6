//! # graphmaze-bench
//!
//! The benchmark harness: [`experiments`] regenerates **every table and
//! figure** of the paper's evaluation (run the `repro` binary). The host
//! wall-clock of the kernels and engines is measured from outside, by the
//! stand-alone `benchmark/` package at the repository root.
//!
//! ## Scale and extrapolation
//!
//! The paper's runs use up to 16 B edges on 64 physical nodes; the repro
//! harness executes the same algorithms on scaled-down inputs and, for
//! absolute numbers, applies the simulator's *work-scale extrapolation*
//! ([`with_work_scale`](graphmaze_core::cluster::with_work_scale), a
//! thread-local override, so concurrent sweep cells each see only their
//! own scale): every metered byte, flop, message and allocation is
//! multiplied by `paper_size / generated_size`, which is exact for
//! per-edge-linear algorithms (PageRank, CF) and a documented
//! approximation for BFS/TC. Ratios between frameworks — the paper's
//! actual findings — do not depend on the extrapolation.
//!
//! ## Sweeps
//!
//! The crossbar experiments declare their cells as a
//! [`Sweep`] and execute through [`run_sweep`]: workloads are built once
//! per process through the shared [`WorkloadCache`], cells run across
//! `--jobs N` worker threads, and completed cells append to
//! `results/journal.jsonl` so a killed run restarted with `--resume`
//! skips everything already measured.
#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod trace;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use graphmaze_core::prelude::*;

/// Cell counters accumulated across every sweep of a `repro` invocation,
/// for the end-of-run summary.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Total cells dispatched.
    pub cells: AtomicUsize,
    /// Cells executed in this process.
    pub ran: AtomicUsize,
    /// Cells reconstructed from the journal.
    pub resumed: AtomicUsize,
    /// Cells that ended in an error (OOM / n/a / panic).
    pub failed: AtomicUsize,
}

/// Harness-wide configuration.
#[derive(Clone, Debug)]
pub struct ReproConfig {
    /// Target log2 vertex count for generated graphs (a knob: larger is
    /// slower but closer to paper scale).
    pub target_scale: u32,
    /// RNG seed.
    pub seed: u64,
    /// Extrapolate metered costs to paper scale (absolute seconds) —
    /// ratios are unaffected either way.
    pub extrapolate: bool,
    /// Output directory for CSV artifacts (`None` disables writing).
    pub out_dir: Option<std::path::PathBuf>,
    /// Sweep worker threads (`--jobs`).
    pub jobs: usize,
    /// Skip cells already recorded in the journal (`--resume`).
    pub resume: bool,
    /// Print live per-cell progress events to stderr (`--progress`/`-v`).
    pub progress: bool,
    /// Write Chrome-trace JSON + per-step CSVs for every sweep under
    /// this directory (`--trace DIR`; `None` disables).
    pub trace_dir: Option<std::path::PathBuf>,
    /// Fault-injection plan applied to every sweep cell (`--faults SPEC`;
    /// [`FaultPlan::none`] runs the fault-free crossbar).
    pub faults: FaultPlan,
    /// Per-cell wall-clock budget (`--cell-timeout SECS`; `None`
    /// disables). Cells over budget record a `timeout` outcome in the
    /// journal and are quarantined by `--resume` instead of re-running.
    pub cell_timeout: Option<std::time::Duration>,
    /// Workloads built so far, shared by every experiment in this
    /// process.
    pub cache: Arc<WorkloadCache>,
    /// Cross-sweep cell counters for the final summary.
    pub stats: Arc<RunStats>,
    /// Telemetry registry the sweep workers record into (`--telemetry`;
    /// `None` disables). One registry spans every sweep of the
    /// invocation; `repro` renders it to `results/metrics.prom` at exit.
    pub telemetry: Option<Arc<graphmaze_core::metrics::Registry>>,
}

impl Default for ReproConfig {
    fn default() -> Self {
        ReproConfig {
            target_scale: 13,
            seed: 20140622, // SIGMOD'14 started June 22
            extrapolate: true,
            out_dir: Some(std::path::PathBuf::from("results")),
            jobs: 1,
            resume: false,
            progress: false,
            trace_dir: None,
            faults: FaultPlan::none(),
            cell_timeout: None,
            cache: Arc::new(WorkloadCache::new()),
            stats: Arc::new(RunStats::default()),
            telemetry: None,
        }
    }
}

impl ReproConfig {
    /// Extrapolation factor for a dataset with `paper_edges` at paper
    /// scale when we generated `actual_edges` (1.0 when extrapolation is
    /// off).
    pub fn scale_factor(&self, paper_edges: u64, actual_edges: u64) -> f64 {
        if self.extrapolate {
            (paper_edges as f64 / actual_edges.max(1) as f64).max(1.0)
        } else {
            1.0
        }
    }

    /// Extrapolation factor of `spec` against a paper input of
    /// `paper_edges`, measured on the view `alg` reads: oriented edges
    /// for triangle counting, ratings for CF, directed edges otherwise.
    pub(crate) fn factor(&self, spec: &WorkloadSpec, alg: Algorithm, paper_edges: u64) -> f64 {
        let wl = self.workload(spec);
        let actual = match alg {
            Algorithm::TriangleCount => wl.oriented().map(|g| g.num_edges()),
            Algorithm::CollaborativeFiltering => wl.ratings().map(|g| g.num_ratings()),
            _ => wl.directed().map(|g| g.num_edges()),
        };
        self.scale_factor(paper_edges, actual.expect("the view the algorithm reads"))
    }

    /// The Graph500 RMAT input (edge factor 16) at `scale`, under the
    /// run's seed.
    pub(crate) fn rmat(&self, scale: u32) -> WorkloadSpec {
        WorkloadSpec::Rmat {
            scale,
            edge_factor: 16,
            seed: self.seed,
        }
    }

    /// A sweep cell with the standard parameters under the run's fault
    /// plan: the one place every cell field is spelled. A cell with a
    /// plan of its own is `SweepCell { faults, ..cfg.cell(…) }`.
    pub(crate) fn cell(
        &self,
        label: impl Into<String>,
        algorithm: Algorithm,
        framework: Framework,
        spec: &WorkloadSpec,
        nodes: usize,
        factor: f64,
    ) -> SweepCell {
        SweepCell {
            label: label.into(),
            algorithm,
            framework,
            spec: spec.clone(),
            nodes,
            factor,
            params: standard_params(),
            faults: self.faults,
        }
    }

    /// The cached workload for `spec`, building it on first use.
    pub fn workload(&self, spec: &WorkloadSpec) -> Arc<Workload> {
        self.cache.get(spec)
    }

    /// Where the sweep journal lives (`journal.jsonl` next to the CSVs;
    /// disabled together with CSV output).
    pub fn journal_path(&self) -> Option<std::path::PathBuf> {
        self.out_dir.as_ref().map(|d| d.join("journal.jsonl"))
    }

    /// The executor options this configuration implies.
    pub fn sweep_options(&self) -> SweepOptions {
        SweepOptions {
            jobs: self.jobs,
            journal: self.journal_path(),
            resume: self.resume,
            cell_timeout: self.cell_timeout,
            telemetry: self.telemetry.clone(),
        }
    }

    /// Writes a CSV artifact if an output directory is configured.
    pub fn write_csv(&self, name: &str, headers: &[&str], rows: &[Vec<String>]) {
        let body = graphmaze_core::report::format_csv(headers, rows);
        self.write_artifact(&format!("{name}.csv"), &body);
    }

    /// Writes `body` to the file `name` in the output directory, if one
    /// is configured; a failed write is a warning, not an abort.
    pub(crate) fn write_artifact(&self, name: &str, body: &str) {
        if let Some(dir) = &self.out_dir {
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: failed to write {}: {e}", path.display());
            }
        }
    }
}

/// Executes a sweep under `cfg`: live per-cell progress events go to
/// stderr when `cfg.progress` is set (stdout is reserved for the
/// rendered tables and CSVs), a completion summary always prints, and
/// trace artifacts are written when `cfg.trace_dir` is set.
pub fn run_sweep(cfg: &ReproConfig, sweep: &Sweep) -> SweepReport {
    let total = sweep.len();
    let done = AtomicUsize::new(0);
    let report = sweep.execute(&cfg.sweep_options(), &cfg.cache, &|ev: &SweepEvent<'_>| {
        if !cfg.progress {
            return;
        }
        let describe = |cell: &SweepCell| {
            format!(
                "{}×{} @ {}, {} node{}",
                cell.algorithm.name(),
                cell.framework.name(),
                cell.label,
                cell.nodes,
                if cell.nodes == 1 { "" } else { "s" },
            )
        };
        match ev {
            SweepEvent::Started {
                cell,
                remaining,
                elapsed_s,
                ..
            } => {
                eprintln!(
                    "  [{}] started {} — {remaining} cell{} to go, {elapsed_s:.1}s elapsed",
                    sweep.experiment,
                    describe(cell),
                    if *remaining == 1 { "" } else { "s" },
                );
            }
            SweepEvent::Finished {
                cell,
                result,
                remaining,
                elapsed_s,
                ..
            }
            | SweepEvent::Failed {
                cell,
                result,
                remaining,
                elapsed_s,
                ..
            } => {
                let n = done.fetch_add(1, Ordering::Relaxed) + 1;
                let outcome = match (result.status, &result.outcome) {
                    (CellStatus::Resumed, Ok(_)) => "resumed".to_string(),
                    (CellStatus::Resumed, Err(e)) => format!("resumed ({})", e.annotation()),
                    (CellStatus::Ran, Ok(_)) => format!("ok in {:.2}s", result.wall_secs),
                    (CellStatus::Ran, Err(e)) => {
                        format!("{} in {:.2}s", e.annotation(), result.wall_secs)
                    }
                };
                eprintln!(
                    "  [{}] {n:>3}/{total} {} — {outcome} ({remaining} left, {elapsed_s:.1}s elapsed)",
                    sweep.experiment,
                    describe(cell),
                );
            }
        }
    });
    eprintln!(
        "  [{}] {} cells in {:.1}s — {} run, {} resumed, {} failed",
        sweep.experiment, total, report.wall_secs, report.ran, report.resumed, report.failed
    );
    if let Some(dir) = &cfg.trace_dir {
        match trace::write_sweep_trace(dir, sweep, &report) {
            Ok(traced) => eprintln!(
                "  [{}] trace: {} cell{} -> {}",
                sweep.experiment,
                traced,
                if traced == 1 { "" } else { "s" },
                dir.join(format!("{}.trace.json", sweep.experiment))
                    .display()
            ),
            Err(e) => eprintln!(
                "warning: failed to write trace for {}: {e}",
                sweep.experiment
            ),
        }
    }
    cfg.stats.cells.fetch_add(total, Ordering::Relaxed);
    cfg.stats.ran.fetch_add(report.ran, Ordering::Relaxed);
    cfg.stats
        .resumed
        .fetch_add(report.resumed, Ordering::Relaxed);
    cfg.stats.failed.fetch_add(report.failed, Ordering::Relaxed);
    report
}

/// Standard per-algorithm benchmark parameters used across experiments.
pub fn standard_params() -> BenchParams {
    BenchParams {
        pr_iterations: 5,
        bfs_source: u32::MAX,
        cf: CfConfig {
            k: 32,
            lambda: 0.05,
            gamma0: 0.005,
            step_decay: 0.98,
            seed: 42,
        },
        cf_iterations: 2,
        giraph_splits: 16,
        msbfs_sources: 64,
        msbfs_seed: 0x6d73_6266_7331,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factor_math() {
        let cfg = ReproConfig::default();
        assert_eq!(cfg.scale_factor(1000, 10), 100.0);
        assert_eq!(cfg.scale_factor(5, 10), 1.0);
        let off = ReproConfig {
            extrapolate: false,
            ..ReproConfig::default()
        };
        assert_eq!(off.scale_factor(1000, 10), 1.0);
    }

    #[test]
    fn config_workloads_are_cached() {
        let cfg = ReproConfig {
            out_dir: None,
            ..ReproConfig::default()
        };
        let spec = WorkloadSpec::Rmat {
            scale: 7,
            edge_factor: 4,
            seed: 5,
        };
        let a = cfg.workload(&spec);
        let b = cfg.workload(&spec);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cfg.cache.misses(), 1);
    }

    #[test]
    fn journal_path_follows_out_dir() {
        let cfg = ReproConfig::default();
        assert_eq!(
            cfg.journal_path(),
            Some(std::path::PathBuf::from("results").join("journal.jsonl"))
        );
        let off = ReproConfig {
            out_dir: None,
            ..ReproConfig::default()
        };
        assert_eq!(off.journal_path(), None);
        assert!(off.sweep_options().journal.is_none());
    }
}
