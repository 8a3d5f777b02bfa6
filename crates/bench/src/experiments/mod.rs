//! One module per paper artifact. Every function returns the rendered
//! report text (also printed by the `repro` binary) and writes CSV
//! artifacts through [`ReproConfig::write_csv`].
//!
//! The crossbar experiments (Fig 3–6, Tables 4/5/6/7, the §5.4 estimate
//! and the strong-scaling extension) declare their cells as a
//! `Sweep` and execute through [`crate::run_sweep`] — parallel across
//! `--jobs` workers, journaled for `--resume`, with workloads shared via
//! the process-wide cache. The remaining experiments call engine
//! internals directly (ablations, roadmap mechanisms, convergence
//! studies) but still pull their workloads from the same cache.
//!
//! | function | paper artifact |
//! |---|---|
//! | [`tables::table3`] | Table 3 — dataset inventory |
//! | [`tables::table4`] | Table 4 — native efficiency vs hardware limits |
//! | [`figures::fig3_and_table5`] | Figure 3a–d + Table 5 — single-node runtimes and geomean slowdowns |
//! | [`figures::fig4_and_table6`] | Figure 4a–d + Table 6 — weak scaling and multi-node geomeans |
//! | [`figures::fig5`] | Figure 5 — large real-world graphs, multi-node |
//! | [`figures::fig6`] | Figure 6 — system metrics at 4 nodes |
//! | [`figures::fig7`] | Figure 7 — native optimization ablation |
//! | [`tables::table7`] | Table 7 — SociaLite network fix |
//! | [`extras::net_estimate`] | §5.4 — traffic-based slowdown prediction |
//! | [`extras::sgd_vs_gd`] | §3.2/§6.1.2 — SGD vs GD convergence |
//! | [`extras::giraph_split`] | §6.1.3 — Giraph superstep splitting |
//! | [`extras::ablations`] | §6.1.1 — partitioning / compression / overlap / data structures |

pub mod extras;
pub mod figures;
pub mod tables;

use graphmaze_core::cluster::with_work_scale;
use graphmaze_core::prelude::*;
use graphmaze_core::sweep::CellResult;

use crate::ReproConfig;

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
