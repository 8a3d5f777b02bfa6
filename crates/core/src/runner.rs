//! The benchmark runner: `algorithm × framework × workload × nodes →
//! RunReport`, the crossbar behind every figure and table of the paper.
//!
//! Per-framework behaviour lives in the [`crate::engine::Engine`] impls;
//! this module only selects the workload view (and BFS source) per
//! algorithm and dispatches through [`Framework::engine`].

use graphmaze_cluster::SimError;
use graphmaze_metrics::RunReport;
use graphmaze_native::cf::CfConfig;

use crate::workload::Workload;

/// The paper's four algorithms (§2), plus the repo's bit-parallel
/// multi-source BFS extension (ROADMAP item 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Iterative PageRank, reported per iteration.
    PageRank,
    /// Breadth-first search, reported as overall time.
    Bfs,
    /// Triangle counting, reported as overall time.
    TriangleCount,
    /// Collaborative filtering, reported per iteration.
    CollaborativeFiltering,
    /// Bit-parallel multi-source BFS (64 sources per u64 word pass),
    /// reported as overall time. Not part of the paper's Table 5 set —
    /// it extends it with the word-level kernel per-vertex frameworks
    /// struggle to express.
    MsBfs,
}

impl Algorithm {
    /// The paper's four algorithms (Figures 3–5 / Table 5).
    pub const ALL: [Algorithm; 4] = [
        Algorithm::PageRank,
        Algorithm::Bfs,
        Algorithm::TriangleCount,
        Algorithm::CollaborativeFiltering,
    ];

    /// The paper's four plus the repo's extensions — the full set the
    /// serving layer and extended Table 5 cover.
    pub const EXTENDED: [Algorithm; 5] = [
        Algorithm::PageRank,
        Algorithm::Bfs,
        Algorithm::TriangleCount,
        Algorithm::CollaborativeFiltering,
        Algorithm::MsBfs,
    ];

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::PageRank => "pagerank",
            Algorithm::Bfs => "bfs",
            Algorithm::TriangleCount => "triangle",
            Algorithm::CollaborativeFiltering => "cf",
            Algorithm::MsBfs => "msbfs",
        }
    }

    /// Whether the paper reports time per iteration (vs overall time).
    pub fn per_iteration(&self) -> bool {
        matches!(
            self,
            Algorithm::PageRank | Algorithm::CollaborativeFiltering
        )
    }
}

/// The six implementations compared in Figures 3–5 (§3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Framework {
    /// Hand-optimized native code (the reference point).
    Native,
    /// CombBLAS — sparse-matrix semirings, 2-D partitioning, MPI.
    CombBlas,
    /// GraphLab — vertex programs, sockets.
    GraphLab,
    /// SociaLite — Datalog over sharded tables (post-§6.1.3 network fix).
    SociaLite,
    /// SociaLite with the pre-fix network stack (Table 7 "Before").
    SociaLiteUnopt,
    /// Giraph — Hadoop BSP vertex programs.
    Giraph,
    /// Galois — task-based, single node only.
    Galois,
    /// GraphMat — vertex programs auto-lowered onto masked SpMSpV
    /// (closes the ninja gap; the repo's sixth engine, not part of the
    /// paper's headline set).
    GraphMat,
}

impl Framework {
    /// The six headline implementations (the unoptimized SociaLite is
    /// only used by the Table 7 experiment).
    pub const ALL: [Framework; 6] = [
        Framework::Native,
        Framework::CombBlas,
        Framework::GraphLab,
        Framework::SociaLite,
        Framework::Giraph,
        Framework::Galois,
    ];

    /// The headline six plus the repo's GraphMat extension — the full
    /// set the serving layer, conformance matrix and ninja-gap
    /// experiment cover (mirrors [`Algorithm::EXTENDED`]).
    pub const EXTENDED: [Framework; 7] = [
        Framework::Native,
        Framework::CombBlas,
        Framework::GraphLab,
        Framework::SociaLite,
        Framework::Giraph,
        Framework::Galois,
        Framework::GraphMat,
    ];

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Framework::Native => "native",
            Framework::CombBlas => "combblas",
            Framework::GraphLab => "graphlab",
            Framework::SociaLite => "socialite",
            Framework::SociaLiteUnopt => "socialite-unopt",
            Framework::Giraph => "giraph",
            Framework::Galois => "galois",
            Framework::GraphMat => "graphmat",
        }
    }

    /// Whether the framework has a multi-node implementation (Table 2).
    pub fn multi_node(&self) -> bool {
        !matches!(self, Framework::Galois)
    }
}

/// Tunable benchmark parameters.
#[derive(Clone, Copy, Debug)]
pub struct BenchParams {
    /// PageRank iterations (time is reported per iteration).
    pub pr_iterations: u32,
    /// BFS source vertex; `u32::MAX` (the default) selects the
    /// highest-degree vertex of the workload, guaranteeing a non-trivial
    /// traversal on scrambled RMAT graphs.
    pub bfs_source: u32,
    /// CF hyper-parameters.
    pub cf: CfConfig,
    /// CF iterations (time is reported per iteration).
    pub cf_iterations: u32,
    /// Giraph superstep-splitting factor for TC/CF (§6.1.3).
    pub giraph_splits: u32,
    /// Multi-source BFS batch size (clamped to the vertex count; the
    /// kernel runs one u64 word pass per 64 sources, up to 512).
    pub msbfs_sources: u32,
    /// Seed for the deterministic msbfs source draw ([`msbfs_sources`]).
    pub msbfs_seed: u64,
}

impl Default for BenchParams {
    fn default() -> Self {
        BenchParams {
            pr_iterations: 5,
            bfs_source: u32::MAX,
            cf: CfConfig {
                k: 16,
                lambda: 0.05,
                gamma0: 0.005,
                step_decay: 0.98,
                seed: 42,
            },
            cf_iterations: 3,
            giraph_splits: 16,
            msbfs_sources: 64,
            msbfs_seed: 0x6d73_6266_7331,
        }
    }
}

/// Draws `count` distinct msbfs source vertices from `[0, num_vertices)`
/// with a SplitMix64 stream seeded by `seed` — a pure function of its
/// arguments, so every engine, test, and serving path picks the same
/// batch. Sources are in draw order (not sorted); `count` is clamped to
/// the vertex count and to the kernel's 512-source batch cap.
pub fn msbfs_sources(num_vertices: u32, count: u32, seed: u64) -> Vec<u32> {
    if num_vertices == 0 {
        return Vec::new();
    }
    let take = count
        .min(num_vertices)
        .min(graphmaze_graph::msbfs::MAX_BATCH as u32) as usize;
    let mut sources = Vec::with_capacity(take);
    let mut picked = std::collections::HashSet::with_capacity(take);
    let mut state = seed;
    while sources.len() < take {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let v = (z % u64::from(num_vertices)) as u32;
        if picked.insert(v) {
            sources.push(v);
        }
    }
    sources
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Simulated measurements.
    pub report: RunReport,
    /// A result digest for cross-framework sanity checks: sum of ranks
    /// (PageRank), sum of finite distances (BFS), triangle count (TC),
    /// training RMSE (CF).
    pub digest: f64,
}

/// Runs `algorithm` under `framework` on `workload` over `nodes`
/// simulated nodes. Fails with [`SimError::InvalidConfig`] when the
/// combination is impossible (Galois multi-node, missing graph view, a
/// BFS source outside the graph) and propagates engine failures (e.g.
/// out-of-memory).
pub fn run_benchmark(
    algorithm: Algorithm,
    framework: Framework,
    workload: &Workload,
    nodes: usize,
    params: &BenchParams,
) -> Result<RunOutcome, SimError> {
    let engine = framework.engine();
    let (digest, report) = match algorithm {
        Algorithm::PageRank => engine.pagerank(workload.directed()?, nodes, params)?,
        Algorithm::Bfs => {
            let g = workload.undirected()?;
            let n = g.num_vertices();
            let src = match params.bfs_source {
                // highest-degree vertex: a seed the paper's Graph500-style
                // runs would accept (non-isolated, large reach)
                u32::MAX => (0..n as u32).max_by_key(|&v| g.adj.degree(v)).unwrap_or(0),
                v if (v as usize) < n => v,
                // settable from the serve socket; every engine indexes
                // its distance array with it
                v => {
                    return Err(SimError::InvalidConfig(format!(
                        "bfs_source {v} is not a vertex of a {n}-vertex graph"
                    )))
                }
            };
            engine.bfs(g, src, nodes, params)?
        }
        Algorithm::TriangleCount => engine.triangles(workload.oriented()?, nodes, params)?,
        Algorithm::CollaborativeFiltering => engine.cf(workload.ratings()?, nodes, params)?,
        Algorithm::MsBfs => {
            let g = workload.undirected()?;
            let sources = msbfs_sources(
                g.num_vertices() as u32,
                params.msbfs_sources,
                params.msbfs_seed,
            );
            engine.msbfs(g, &sources, nodes, params)?
        }
    };
    Ok(RunOutcome { digest, report })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_frameworks_run_pagerank_and_agree() {
        let wl = Workload::rmat(9, 8, 71);
        let params = BenchParams::default();
        let native =
            run_benchmark(Algorithm::PageRank, Framework::Native, &wl, 4, &params).unwrap();
        for fw in [
            Framework::CombBlas,
            Framework::GraphLab,
            Framework::SociaLite,
            Framework::Giraph,
        ] {
            let out = run_benchmark(Algorithm::PageRank, fw, &wl, 4, &params).unwrap();
            let rel = (out.digest - native.digest).abs() / native.digest.abs();
            assert!(
                rel < 1e-9,
                "{fw:?} digest {} vs {}",
                out.digest,
                native.digest
            );
            assert!(
                out.report.sim_seconds >= native.report.sim_seconds,
                "{fw:?} cannot beat native"
            );
        }
    }

    #[test]
    fn galois_single_node_only() {
        let wl = Workload::rmat(8, 4, 72);
        let params = BenchParams::default();
        assert!(run_benchmark(Algorithm::Bfs, Framework::Galois, &wl, 1, &params).is_ok());
        assert!(matches!(
            run_benchmark(Algorithm::Bfs, Framework::Galois, &wl, 2, &params),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(!Framework::Galois.multi_node());
    }

    #[test]
    fn bfs_source_outside_the_graph_is_a_typed_failure_on_every_framework() {
        let wl = Workload::rmat(7, 4, 75);
        let n = wl.undirected().unwrap().num_vertices() as u32;
        let run = |fw, bfs_source| {
            let params = BenchParams {
                bfs_source,
                ..BenchParams::default()
            };
            run_benchmark(Algorithm::Bfs, fw, &wl, 1, &params)
        };
        for fw in Framework::ALL {
            for bfs_source in [n, n + 1, u32::MAX - 1] {
                let err = run(fw, bfs_source).unwrap_err();
                assert!(
                    matches!(&err, SimError::InvalidConfig(m) if m.contains("bfs_source")),
                    "{fw:?} source {bfs_source}: {err}"
                );
            }
            // the last vertex and the "pick the hub" default still run
            run(fw, n - 1).unwrap();
            run(fw, u32::MAX).unwrap();
        }
    }

    #[test]
    fn triangle_counts_agree_across_frameworks() {
        let wl = Workload::rmat_triangle(9, 8, 73);
        let params = BenchParams::default();
        let counts: Vec<f64> = [
            Framework::Native,
            Framework::CombBlas,
            Framework::GraphLab,
            Framework::SociaLite,
            Framework::Giraph,
        ]
        .iter()
        .map(|&fw| {
            run_benchmark(Algorithm::TriangleCount, fw, &wl, 4, &params)
                .unwrap()
                .digest
        })
        .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "counts {counts:?}");
    }

    #[test]
    fn cf_runs_on_every_framework() {
        let wl = Workload::rmat_ratings(9, 64, 74);
        let params = BenchParams::default();
        for fw in Framework::ALL {
            if !fw.multi_node() {
                continue;
            }
            let out =
                run_benchmark(Algorithm::CollaborativeFiltering, fw, &wl, 4, &params).unwrap();
            assert!(
                out.digest.is_finite() && out.digest > 0.0,
                "{fw:?} rmse {}",
                out.digest
            );
            assert!(out.report.sim_seconds > 0.0);
        }
    }

    #[test]
    fn ratings_workload_rejects_graph_algorithms() {
        let wl = Workload::rmat_ratings(9, 64, 75);
        let params = BenchParams::default();
        assert!(matches!(
            run_benchmark(Algorithm::PageRank, Framework::Native, &wl, 1, &params),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn per_iteration_flags_match_paper() {
        assert!(Algorithm::PageRank.per_iteration());
        assert!(Algorithm::CollaborativeFiltering.per_iteration());
        assert!(!Algorithm::Bfs.per_iteration());
        assert!(!Algorithm::TriangleCount.per_iteration());
    }
}
