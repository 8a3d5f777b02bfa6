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

/// The Fig 3 graph datasets (real-world stand-ins + one synthetic) as
/// workload specs, with per-dataset scale-downs that bring them near
/// `cfg.target_scale`. Building through the cache here (to size the
/// extrapolation factor) means the sweep executor gets cache hits.
pub fn fig3_graph_specs(cfg: &ReproConfig) -> Vec<(String, WorkloadSpec, f64)> {
    let mut out = Vec::new();
    for ds in [
        Dataset::LiveJournalLike,
        Dataset::FacebookLike,
        Dataset::WikipediaLike,
    ] {
        let info = ds.spec();
        let full = 64 - (info.num_vertices.max(1) - 1).leading_zeros();
        let scale_down = full.saturating_sub(cfg.target_scale);
        let spec = WorkloadSpec::Dataset {
            ds,
            scale_down,
            seed: cfg.seed,
        };
        let actual = cfg.workload(&spec).directed().expect("graph").num_edges();
        let factor = cfg.scale_factor(info.num_edges, actual);
        out.push((info.name.to_string(), spec, factor));
    }
    // the synthetic RMAT dataset of Fig 3. The paper picks sizes "so
    // that all frameworks could complete without running out of memory"
    // (§5.3); scale 24 keeps even Giraph's whole-superstep buffers under
    // 64 GB on one node.
    let spec = WorkloadSpec::Rmat {
        scale: cfg.target_scale,
        edge_factor: 16,
        seed: cfg.seed,
    };
    let actual = cfg.workload(&spec).directed().expect("graph").num_edges();
    let paper = Dataset::Graph500 { scale: 24 }.spec().num_edges;
    out.push(("synthetic".into(), spec, cfg.scale_factor(paper, actual)));
    out
}

/// The Fig 3 ratings datasets (Netflix stand-in + synthetic) as specs.
pub fn fig3_ratings_specs(cfg: &ReproConfig) -> Vec<(String, WorkloadSpec, f64)> {
    let mut out = Vec::new();
    let info = Dataset::NetflixLike.spec();
    let full = 64 - (info.num_vertices.max(1) - 1).leading_zeros();
    let scale_down = full.saturating_sub(cfg.target_scale.min(full));
    let spec = WorkloadSpec::Dataset {
        ds: Dataset::NetflixLike,
        scale_down,
        seed: cfg.seed,
    };
    let actual = cfg
        .workload(&spec)
        .ratings()
        .expect("ratings")
        .num_ratings();
    // K substitution (paper ≈1024, ours 32) is documented in DESIGN.md;
    // the factor scales only the rating count so memory stays faithful.
    out.push((
        "netflix".into(),
        spec,
        cfg.scale_factor(info.num_edges, actual),
    ));
    let spec = WorkloadSpec::RmatRatings {
        scale: cfg.target_scale,
        num_items: 1 << (cfg.target_scale / 2),
        seed: cfg.seed,
    };
    let actual = cfg
        .workload(&spec)
        .ratings()
        .expect("ratings")
        .num_ratings();
    out.push((
        "synthetic".into(),
        spec,
        cfg.scale_factor(500_000_000, actual),
    ));
    out
}

/// Runs one cell of the benchmark crossbar under `factor` extrapolation,
/// returning the report or the error string the paper's figures annotate
/// (OOM / single-node-only). Direct (non-sweep) experiments use this.
pub fn run_cell(
    alg: Algorithm,
    fw: Framework,
    wl: &Workload,
    nodes: usize,
    factor: f64,
    params: &BenchParams,
) -> Result<RunReport, String> {
    with_work_scale(factor, || {
        run_benchmark(alg, fw, wl, nodes, params)
            .map(|o| o.report)
            .map_err(|e| match e {
                SimError::OutOfMemory(_) => "OOM".to_string(),
                SimError::InvalidConfig(_) => "n/a".to_string(),
                SimError::NodeFailed { .. } => "failed".to_string(),
            })
    })
}

/// The report of a sweep cell, or the annotation string its failure mode
/// carries in the paper's figures (OOM / n/a / fail).
pub fn cell_report(result: &CellResult) -> Result<&RunReport, String> {
    match &result.outcome {
        Ok(o) => Ok(&o.report),
        Err(e) => Err(e.annotation().to_string()),
    }
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
