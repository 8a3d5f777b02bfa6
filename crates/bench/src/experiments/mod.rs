//! One module per paper artifact. Every function returns the rendered
//! report text (also printed by the `repro` binary) and writes CSV
//! artifacts through [`ReproConfig::write_csv`]. [`EXPERIMENTS`] is the
//! list of them.
//!
//! The experiments with a cell count there declare their cells as a
//! `Sweep` and execute through [`crate::run_sweep`] — parallel across
//! `--jobs` workers, journaled for `--resume`, with workloads shared via
//! the process-wide cache. The direct ones call engine internals
//! (ablations, roadmap mechanisms, convergence studies) but still pull
//! their workloads from the same cache.

pub mod extras;
pub mod figures;
pub mod tables;

use graphmaze_core::cluster::with_work_scale;
use graphmaze_core::prelude::*;
use graphmaze_core::report::{fmt_secs, fmt_slowdown, geomean};
use graphmaze_core::sweep::CellResult;

use crate::ReproConfig;

/// One `repro` experiment.
pub struct Experiment {
    /// The names it answers to on the command line (the first is its
    /// `--list` name; Figures 3 and 4 also render Tables 5 and 6).
    pub names: &'static [&'static str],
    /// Sweep cells it journals at the default settings, whatever the
    /// scale; `None` for a direct experiment, which journals nothing.
    pub cells: Option<usize>,
    /// One line, drawn from the entry point's doc comment.
    pub description: &'static str,
    /// The entry point: renders the report and writes the artifacts.
    pub run: fn(&ReproConfig) -> String,
}

/// Every experiment, in `repro all` order. The `repro` usage block,
/// `--list` and name resolution are all rendered from this table.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        names: &["table2"],
        cells: None,
        description: "high-level framework comparison, generated from the engines",
        run: tables::table2,
    },
    Experiment {
        names: &["table3"],
        cells: None,
        description: "dataset inventory: paper-scale dimensions next to the stand-ins",
        run: tables::table3,
    },
    Experiment {
        names: &["table4"],
        cells: Some(8),
        description: "native efficiency against hardware limits, 1 and 4 nodes",
        run: tables::table4,
    },
    Experiment {
        names: &["fig3", "table5"],
        cells: Some(98),
        description: "single-node runtimes per dataset and framework, geomean slowdowns",
        run: figures::fig3_and_table5,
    },
    Experiment {
        names: &["fig4", "table6"],
        cells: Some(140),
        description: "weak scaling from 1 to 64 nodes, multi-node geomean slowdowns",
        run: figures::fig4_and_table6,
    },
    Experiment {
        names: &["fig5"],
        cells: Some(20),
        description: "large real-world graphs on multiple nodes",
        run: figures::fig5,
    },
    Experiment {
        names: &["fig6"],
        cells: Some(20),
        description: "CPU, network and memory metrics of 4-node runs",
        run: figures::fig6,
    },
    Experiment {
        names: &["fig7"],
        cells: None,
        description: "cumulative native optimization speedups, 4 nodes",
        run: figures::fig7,
    },
    Experiment {
        names: &["table7"],
        cells: Some(4),
        description: "SociaLite before/after the network optimization, 4 nodes",
        run: tables::table7,
    },
    Experiment {
        names: &["tabler"],
        cells: Some(18),
        description: "PageRank under stragglers, drops and a node failure (extension)",
        run: tables::table_r,
    },
    Experiment {
        names: &["netestimate"],
        cells: Some(5),
        description: "§5.4 slowdown predicted from network traffic vs measured",
        run: extras::net_estimate,
    },
    Experiment {
        names: &["commmatrix"],
        cells: Some(5),
        description: "per-(src, dst) wire bytes of 4-node PageRank per framework",
        run: extras::comm_matrix,
    },
    Experiment {
        names: &["sgdvsgd"],
        cells: None,
        description: "§3.2 SGD vs GD convergence for CF",
        run: extras::sgd_vs_gd,
    },
    Experiment {
        names: &["giraphsplit"],
        cells: None,
        description: "§6.1.3 Giraph triangle counting with superstep splitting",
        run: extras::giraph_split,
    },
    Experiment {
        names: &["ablations"],
        cells: None,
        description: "§6.1.1 partitioning, compression, overlap and hub replication",
        run: extras::ablations,
    },
    Experiment {
        names: &["strongscaling"],
        cells: Some(28),
        description: "PageRank strong scaling on a fixed graph (extension)",
        run: extras::strong_scaling,
    },
    Experiment {
        names: &["roadmap"],
        cells: None,
        description: "§6.2 slowdowns vs native before/after the recommended changes",
        run: extras::roadmap,
    },
    Experiment {
        names: &["relatedwork"],
        cells: None,
        description: "§7 GPS and GraphX slowdowns vs native",
        run: extras::related_work,
    },
    Experiment {
        names: &["resilience"],
        cells: Some(22),
        description: "retransmission overhead vs link-drop probability (extension)",
        run: extras::resilience,
    },
    Experiment {
        names: &["msbfs"],
        cells: Some(8),
        description: "bit-parallel multi-source BFS per engine at two scales (extension)",
        run: extras::msbfs,
    },
    Experiment {
        names: &["ninjagap"],
        cells: Some(20),
        description: "GraphMat lowering vs hand-tuned frameworks vs native (extension)",
        run: extras::ninja_gap,
    },
    Experiment {
        names: &["elastic"],
        cells: Some(9),
        description: "PageRank under mid-run joins, leaves and mixed hardware (extension)",
        run: extras::elastic,
    },
];

/// The five frameworks of the paper's multi-node runs (Figures 4–6; Galois
/// is single-node only), also used by the communication matrix and the
/// resilience curve.
pub(crate) const MULTI_NODE: [Framework; 5] = [
    Framework::Native,
    Framework::CombBlas,
    Framework::GraphLab,
    Framework::SociaLite,
    Framework::Giraph,
];

/// A Table 3 stand-in scaled down to about `cfg.target_scale`.
fn dataset(cfg: &ReproConfig, ds: Dataset) -> WorkloadSpec {
    WorkloadSpec::Dataset {
        ds,
        scale_down: ds.scale_down_to(cfg.target_scale),
        seed: cfg.seed,
    }
}

/// The Fig 3 graph datasets (real-world stand-ins + one synthetic) as
/// workload specs, with per-dataset scale-downs that bring them near
/// `cfg.target_scale`. Building through the cache here (to size the
/// extrapolation factor) means the sweep executor gets cache hits. Each
/// dataset has one factor, sized by its directed edges, for every
/// algorithm that runs on it.
pub fn fig3_graph_specs(cfg: &ReproConfig) -> Vec<(String, WorkloadSpec, f64)> {
    let real = [
        Dataset::LiveJournalLike,
        Dataset::FacebookLike,
        Dataset::WikipediaLike,
    ];
    // the synthetic RMAT dataset of Fig 3. The paper picks sizes "so
    // that all frameworks could complete without running out of memory"
    // (§5.3); scale 24 keeps even Giraph's whole-superstep buffers under
    // 64 GB on one node.
    let synthetic = Dataset::Graph500 { scale: 24 }.spec().num_edges;
    real.into_iter()
        .map(|ds| (ds.spec().name, dataset(cfg, ds), ds.spec().num_edges))
        .chain([("synthetic", cfg.rmat(cfg.target_scale), synthetic)])
        .map(|(name, spec, paper)| {
            let factor = cfg.factor(&spec, Algorithm::PageRank, paper);
            (name.to_string(), spec, factor)
        })
        .collect()
}

/// The Fig 3 ratings datasets (Netflix stand-in + synthetic) as specs.
/// K substitution (paper ≈1024, ours 32) is documented in DESIGN.md; the
/// factor scales only the rating count so memory stays faithful.
pub fn fig3_ratings_specs(cfg: &ReproConfig) -> Vec<(String, WorkloadSpec, f64)> {
    let synthetic = WorkloadSpec::RmatRatings {
        scale: cfg.target_scale,
        num_items: 1 << (cfg.target_scale / 2),
        seed: cfg.seed,
    };
    [
        (
            "netflix",
            dataset(cfg, Dataset::NetflixLike),
            Dataset::NetflixLike.spec().num_edges,
        ),
        ("synthetic", synthetic, 500_000_000),
    ]
    .into_iter()
    .map(|(name, spec, paper)| {
        let factor = cfg.factor(&spec, Algorithm::CollaborativeFiltering, paper);
        (name.to_string(), spec, factor)
    })
    .collect()
}

/// A sweep cell paired with its result.
pub(crate) type Measured = (SweepCell, CellResult);

/// Runs `cells` as the sweep `experiment` and pairs every cell with its
/// result, in declaration order. Renderers chunk the pairs by the width
/// of the innermost declaration loop, so a row's cells carry their own
/// labels and frameworks.
pub(crate) fn measure(
    cfg: &ReproConfig,
    experiment: &str,
    cells: impl IntoIterator<Item = SweepCell>,
) -> Vec<Measured> {
    let sweep = Sweep {
        experiment: experiment.to_string(),
        cells: cells.into_iter().collect(),
    };
    let report = crate::run_sweep(cfg, &sweep);
    sweep.cells.into_iter().zip(report.results).collect()
}

/// Runs one cell of the benchmark crossbar under `factor` extrapolation,
/// returning the report or the annotation its failure carries in the
/// paper's figures. Direct (non-sweep) experiments use this.
pub fn run_cell(
    alg: Algorithm,
    fw: Framework,
    wl: &Workload,
    nodes: usize,
    factor: f64,
    params: &BenchParams,
) -> Result<RunReport, &'static str> {
    with_work_scale(factor, || {
        run_benchmark(alg, fw, wl, nodes, params)
            .map(|o| o.report)
            .map_err(|e| CellError::from(e).annotation())
    })
}

/// The report of a sweep cell, or the annotation string its failure mode
/// carries in the paper's figures (OOM / n/a / fail).
pub fn cell_report(result: &CellResult) -> Result<&RunReport, &'static str> {
    result
        .outcome
        .as_ref()
        .map(|o| &o.report)
        .map_err(CellError::annotation)
}

/// Reported time for an algorithm: per-iteration where the paper uses
/// per-iteration (PageRank, CF), overall otherwise.
pub fn reported_seconds(alg: Algorithm, r: &RunReport) -> f64 {
    if alg.per_iteration() {
        r.seconds_per_iteration()
    } else {
        r.sim_seconds
    }
}

/// A measured cell's reported seconds, or its failure annotation.
fn seconds((cell, result): &Measured) -> Result<f64, &'static str> {
    cell_report(result).map(|r| reported_seconds(cell.algorithm, r))
}

/// `num / den`, or the annotation of the side that failed (the
/// denominator's when both did).
fn ratio(
    num: Result<f64, &'static str>,
    den: Result<f64, &'static str>,
) -> Result<f64, &'static str> {
    den.and_then(|d| num.map(|n| n / d))
}

/// A rendered value, or the failure annotation in its place.
fn or_annotation<T>(value: Result<T, &'static str>, render: impl FnOnce(T) -> String) -> String {
    value.map_or_else(str::to_string, render)
}

/// A table row: `label`, then each cell's reported seconds or failure
/// annotation.
fn seconds_row(label: String, row: &[Measured]) -> Vec<String> {
    std::iter::once(label)
        .chain(row.iter().map(|m| or_annotation(seconds(m), fmt_secs)))
        .collect()
}

/// A header row: `first`, then the framework of each cell of `row`.
fn framework_headers<'a>(first: &'a str, row: &[Measured]) -> Vec<&'a str> {
    std::iter::once(first)
        .chain(row.iter().map(|(c, _)| c.framework.name()))
        .collect()
}

/// Adds each cell's slowdown over the row's first (native) cell to its
/// column of `cols`. A row whose native cell failed adds nothing.
fn add_slowdowns(row: &[Measured], cols: &mut [Vec<f64>]) {
    let native = seconds(&row[0]);
    for (col, m) in cols.iter_mut().zip(&row[1..]) {
        if let Ok(s) = ratio(seconds(m), native) {
            col.push(s);
        }
    }
}

/// A Table 5/6 row: `label`, then each column's geomean slowdown, or
/// n/a for a column without one.
fn geomean_row(label: &str, cols: &[Vec<f64>]) -> Vec<String> {
    std::iter::once(label.to_string())
        .chain(cols.iter().map(|v| {
            if v.is_empty() {
                "n/a".to_string()
            } else {
                fmt_slowdown(geomean(v))
            }
        }))
        .collect()
}
