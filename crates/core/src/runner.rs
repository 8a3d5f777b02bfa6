//! The benchmark runner: `algorithm × framework × workload × nodes →
//! (Output, RunReport)`, the crossbar behind every figure and table of
//! the paper.
//!
//! The crossbar is spelled once, in [`run_output`]: a private `Input`
//! resolves what the algorithm consumes (workload view, BFS source, msbfs
//! source batch), then one algorithm-major `match` calls each framework's
//! engine function directly. Which cells exist at all is
//! [`Framework::supports`]; what a cell's answer digests to is
//! [`Output::digest`]. DESIGN.md §7 says how to add a row or a column.

use graphmaze_cluster::SimError;
use graphmaze_engines::datalog::socialite;
use graphmaze_engines::spmv::combblas;
use graphmaze_engines::taskpar::galois;
use graphmaze_engines::vertex::{giraph, graphlab, programs, Backend};
use graphmaze_graph::csr::Csr;
use graphmaze_graph::rng;
use graphmaze_graph::{DirectedGraph, RatingsGraph, UndirectedGraph};
use graphmaze_metrics::RunReport;
use graphmaze_native::cf::CfConfig;
use graphmaze_native::{bfs, cf, msbfs, pagerank, triangle, NativeOptions, PAGERANK_R};

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

    /// Whether the framework has a port of `algorithm` — the capability
    /// table behind the extended Table 5's "n/a" cells. [`run_output`]
    /// refuses the rest with [`SimError::InvalidConfig`] instead of
    /// fabricating a result.
    pub fn supports(&self, algorithm: Algorithm) -> bool {
        match algorithm {
            Algorithm::PageRank
            | Algorithm::Bfs
            | Algorithm::TriangleCount
            | Algorithm::CollaborativeFiltering => true,
            // the word-level kernel does not fit every programming model:
            // Datalog tables and task queues have no word-parallel
            // equivalent (GraphMat's port is the lowered `OR_PASS` gather)
            Algorithm::MsBfs => match self {
                Framework::Native
                | Framework::CombBlas
                | Framework::GraphLab
                | Framework::Giraph
                | Framework::GraphMat => true,
                Framework::SociaLite | Framework::SociaLiteUnopt | Framework::Galois => false,
            },
        }
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
        let v = (rng::splitmix64(state) % u64::from(num_vertices)) as u32;
        state = state.wrapping_add(rng::GOLDEN);
        if picked.insert(v) {
            sources.push(v);
        }
    }
    sources
}

/// What one run computed: the per-vertex (or scalar) answer of the
/// algorithm, the same shape under every framework.
#[derive(Clone, Debug, PartialEq)]
pub enum Output {
    /// PageRank: one rank per vertex.
    Ranks(Vec<f64>),
    /// BFS: hop distance per vertex, `u32::MAX` when unreached.
    Distances(Vec<u32>),
    /// Triangle counting: the count.
    Triangles(u64),
    /// Collaborative filtering: training RMSE of the learned factors.
    Rmse(f64),
    /// Multi-source BFS: one distance row per source, in source order.
    Rows(Vec<Vec<u32>>),
}

impl Output {
    /// The result digest for cross-framework sanity checks: sum of ranks
    /// (PageRank), sum of finite distances (BFS, and msbfs over all
    /// rows), triangle count (TC), training RMSE (CF).
    pub fn digest(&self) -> f64 {
        fn finite_sum(dist: &[u32]) -> f64 {
            dist.iter()
                .filter(|&&d| d != u32::MAX)
                .map(|&d| f64::from(d))
                .sum()
        }
        match self {
            Output::Ranks(ranks) => ranks.iter().sum(),
            Output::Distances(dist) => finite_sum(dist),
            Output::Triangles(count) => *count as f64,
            Output::Rmse(rmse) => *rmse,
            Output::Rows(rows) => rows.iter().map(|row| finite_sum(row)).sum(),
        }
    }
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Simulated measurements.
    pub report: RunReport,
    /// [`Output::digest`] of the run's answer.
    pub digest: f64,
}

/// What an algorithm consumes, resolved once from the workload and the
/// parameters so every framework arm receives the same thing.
enum Input<'w> {
    PageRank(&'w DirectedGraph),
    /// Symmetrized view and the validated source.
    Bfs(&'w UndirectedGraph, u32),
    TriangleCount(&'w Csr),
    CollaborativeFiltering(&'w RatingsGraph),
    /// Symmetrized view and the drawn source batch.
    MsBfs(&'w UndirectedGraph, Vec<u32>),
}

impl<'w> Input<'w> {
    fn resolve(
        algorithm: Algorithm,
        workload: &'w Workload,
        params: &BenchParams,
    ) -> Result<Self, SimError> {
        Ok(match algorithm {
            Algorithm::PageRank => Input::PageRank(workload.directed()?),
            Algorithm::Bfs => {
                let g = workload.undirected()?;
                let n = g.num_vertices();
                let source = match params.bfs_source {
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
                Input::Bfs(g, source)
            }
            Algorithm::TriangleCount => Input::TriangleCount(workload.oriented()?),
            Algorithm::CollaborativeFiltering => Input::CollaborativeFiltering(workload.ratings()?),
            Algorithm::MsBfs => {
                let g = workload.undirected()?;
                let sources = msbfs_sources(
                    g.num_vertices() as u32,
                    params.msbfs_sources,
                    params.msbfs_seed,
                );
                Input::MsBfs(g, sources)
            }
        })
    }
}

/// The executor behind a GAS framework: GraphLab, Giraph and GraphMat run
/// the *same* `vertex::programs` job — on the BSP vertex engine under
/// GraphLab's (sockets, combiners, hub replication) or Giraph's (Hadoop
/// BSP, whole-superstep buffering) configuration, or lowered onto masked
/// SpMSpV.
fn backend(framework: Framework, algorithm: Algorithm, params: &BenchParams) -> Backend {
    match framework {
        Framework::GraphLab => Backend::Bsp(graphlab::config()),
        // superstep splitting is the §6.1.3 fix for the two algorithms
        // whose messages are whole vectors
        Framework::Giraph => Backend::Bsp(giraph::config(match algorithm {
            Algorithm::TriangleCount | Algorithm::CollaborativeFiltering => params.giraph_splits,
            Algorithm::PageRank | Algorithm::Bfs | Algorithm::MsBfs => 1,
        })),
        Framework::GraphMat => Backend::GraphMat,
        Framework::Native
        | Framework::CombBlas
        | Framework::SociaLite
        | Framework::SociaLiteUnopt
        | Framework::Galois => unreachable!("{} runs no GAS program", framework.name()),
    }
}

/// Training RMSE of the factors `user(u)`, `item(v)` over the ratings, in
/// user-major rating order.
fn cf_rmse<'a>(
    g: &RatingsGraph,
    user: impl Fn(usize) -> &'a [f64],
    item: impl Fn(usize) -> &'a [f64],
) -> f64 {
    let mut sse = 0.0;
    for (u, v, r) in g.triples() {
        let dot: f64 = user(u as usize)
            .iter()
            .zip(item(v as usize))
            .map(|(x, y)| x * y)
            .sum();
        let e = f64::from(r) - dot;
        sse += e * e;
    }
    (sse / g.num_ratings().max(1) as f64).sqrt()
}

/// Runs `algorithm` under `framework` on `workload` over `nodes`
/// simulated nodes and returns the answer itself beside the report.
/// Fails with [`SimError::InvalidConfig`] when the combination is
/// impossible (no port — see [`Framework::supports`] — Galois multi-node,
/// missing graph view, a BFS source outside the graph) and propagates
/// engine failures (e.g. out-of-memory).
pub fn run_output(
    algorithm: Algorithm,
    framework: Framework,
    workload: &Workload,
    nodes: usize,
    params: &BenchParams,
) -> Result<(Output, RunReport), SimError> {
    use Framework::*;
    if !framework.supports(algorithm) {
        return Err(SimError::InvalidConfig(format!(
            "{} has no {} port",
            framework.name(),
            algorithm.name()
        )));
    }
    let opts = NativeOptions::all();
    let gas = || backend(framework, algorithm, params);
    // SociaLite's post-§6.1.3 network stack (Table 7 "After") vs the
    // original one
    let optimized = framework == SociaLite;
    Ok(match Input::resolve(algorithm, workload, params)? {
        Input::PageRank(g) => {
            let iters = params.pr_iterations;
            let (ranks, report) = match framework {
                Native => pagerank::pagerank_cluster(g, PAGERANK_R, iters, opts, nodes),
                CombBlas => combblas::pagerank(g, PAGERANK_R, iters, nodes),
                GraphLab | Giraph | GraphMat => {
                    gas().run(programs::pagerank_job(g, PAGERANK_R, iters), nodes)
                }
                SociaLite | SociaLiteUnopt => {
                    socialite::pagerank(g, PAGERANK_R, iters, nodes, optimized)
                }
                Galois => galois::pagerank(g, PAGERANK_R, iters, nodes),
            }?;
            (Output::Ranks(ranks), report)
        }
        Input::Bfs(g, source) => {
            let (dist, report) = match framework {
                Native => bfs::bfs_cluster(g, source, opts, nodes),
                CombBlas => combblas::bfs(g, source, nodes),
                GraphLab | Giraph | GraphMat => gas().run(programs::bfs_job(g, source), nodes),
                SociaLite | SociaLiteUnopt => socialite::bfs(g, source, nodes, optimized),
                Galois => galois::bfs(g, source, nodes),
            }?;
            (Output::Distances(dist), report)
        }
        Input::TriangleCount(g) => {
            let (count, report) = match framework {
                Native => triangle::triangles_cluster(g, opts, nodes),
                CombBlas => combblas::triangles(g, nodes),
                GraphLab | Giraph | GraphMat => gas().run(programs::triangle_job(g), nodes),
                SociaLite | SociaLiteUnopt => socialite::triangles(g, nodes, optimized),
                Galois => galois::triangles(g, nodes),
            }?;
            (Output::Triangles(count), report)
        }
        Input::CollaborativeFiltering(g) => {
            let CfConfig {
                k, lambda, gamma0, ..
            } = params.cf;
            let iters = params.cf_iterations;
            let nu = g.num_users() as usize;
            // the SGD ports report their own per-epoch training RMSE
            let sgd = |(_, hist, report): (cf::Factors, Vec<f64>, RunReport)| {
                (*hist.last().unwrap_or(&f64::NAN), report)
            };
            // the GD ports return flat row-major P and Q
            let gd = |(p, q, report): (Vec<f64>, Vec<f64>, RunReport)| {
                let rmse = cf_rmse(g, |u| &p[u * k..(u + 1) * k], |v| &q[v * k..(v + 1) * k]);
                (rmse, report)
            };
            let (rmse, report) = match framework {
                Native => cf::sgd_cluster(g, &params.cf, iters, opts, nodes).map(sgd),
                CombBlas => combblas::cf_gd(g, k, lambda, gamma0, iters, nodes).map(gd),
                // one factor row per vertex, users first
                GraphLab | Giraph | GraphMat => gas()
                    .run(programs::cf_gd_job(g, k, lambda, gamma0, iters), nodes)
                    .map(|(rows, report)| (cf_rmse(g, |u| &rows[u], |v| &rows[nu + v]), report)),
                SociaLite | SociaLiteUnopt => {
                    socialite::cf_gd(g, k, lambda, gamma0, iters, nodes, optimized).map(gd)
                }
                Galois => galois::cf_sgd(g, &params.cf, iters, nodes).map(sgd),
            }?;
            (Output::Rmse(rmse), report)
        }
        Input::MsBfs(g, sources) => {
            let (rows, report) = match framework {
                Native => msbfs::msbfs_cluster(g, &sources, opts, nodes),
                CombBlas => combblas::msbfs(g, &sources, nodes),
                GraphLab | Giraph | GraphMat => gas().run(programs::msbfs_job(g, &sources), nodes),
                SociaLite | SociaLiteUnopt | Galois => {
                    unreachable!("refused by Framework::supports above")
                }
            }?;
            (Output::Rows(rows), report)
        }
    })
}

/// [`run_output`] reduced to its digest: the `(digest, RunReport)` pair
/// sweeps, the journal and the serving layer carry.
pub fn run_benchmark(
    algorithm: Algorithm,
    framework: Framework,
    workload: &Workload,
    nodes: usize,
    params: &BenchParams,
) -> Result<RunOutcome, SimError> {
    let (output, report) = run_output(algorithm, framework, workload, nodes, params)?;
    Ok(RunOutcome {
        digest: output.digest(),
        report,
    })
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
    fn socialite_variants_differ_only_in_network_stack() {
        let wl = Workload::rmat(8, 6, 5);
        let params = BenchParams::default();
        let run = |fw| run_benchmark(Algorithm::PageRank, fw, &wl, 2, &params).unwrap();
        let (opt, unopt) = (run(Framework::SociaLite), run(Framework::SociaLiteUnopt));
        assert_eq!(opt.digest, unopt.digest, "same answer either way");
        assert!(
            unopt.report.sim_seconds > opt.report.sim_seconds,
            "unoptimized network must be slower: {} vs {}",
            unopt.report.sim_seconds,
            opt.report.sim_seconds
        );
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
