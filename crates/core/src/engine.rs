//! The [`Engine`] trait: one uniform per-framework implementation of the
//! paper's four algorithms plus multi-source BFS.
//!
//! Each framework implements [`Engine`] — `pagerank`, `bfs`,
//! `triangles`, `cf` and optionally `msbfs`, each returning the uniform
//! `(digest, RunReport)` pair — and the runner resolves it via
//! [`Framework::engine`]. GraphLab, Giraph and GraphMat share one impl,
//! [`GasEngine`]: the same `vertex::programs` job on a per-framework
//! [`Backend`]. The digest is the cross-framework sanity check of
//! [`crate::runner::RunOutcome`]: sum of ranks (PageRank), sum of finite
//! distances (BFS, msbfs), triangle count (TC), training RMSE (CF).

use graphmaze_cluster::SimError;
use graphmaze_engines::datalog::socialite;
use graphmaze_engines::spmv::combblas;
use graphmaze_engines::taskpar::galois;
use graphmaze_engines::vertex::{giraph, graphlab, programs, Backend};
use graphmaze_graph::csr::Csr;
use graphmaze_graph::{DirectedGraph, RatingsGraph, UndirectedGraph};
use graphmaze_metrics::RunReport;
use graphmaze_native::{bfs, cf, msbfs, pagerank, triangle, NativeOptions, PAGERANK_R};

use crate::runner::{Algorithm, BenchParams, Framework};

/// A framework's implementation of the benchmarked algorithms, each
/// returning `(digest, RunReport)`.
pub trait Engine: Sync {
    /// Short name for reports (matches [`Framework::name`]).
    fn name(&self) -> &'static str;

    /// Iterative PageRank on the directed view; digest = Σ ranks.
    fn pagerank(
        &self,
        g: &DirectedGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError>;

    /// BFS from `source` on the symmetrized view; digest = Σ finite
    /// distances.
    fn bfs(
        &self,
        g: &UndirectedGraph,
        source: u32,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError>;

    /// Triangle counting on the DAG-oriented view; digest = count.
    fn triangles(
        &self,
        g: &Csr,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError>;

    /// Collaborative filtering on the bipartite ratings; digest =
    /// training RMSE.
    fn cf(
        &self,
        g: &RatingsGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError>;

    /// Bit-parallel multi-source BFS from `sources` on the symmetrized
    /// view; digest = Σ finite distances over all source rows. The
    /// default says the framework has no port — the word-level kernel
    /// does not fit every programming model — so the extended Table 5
    /// renders those cells "n/a".
    fn msbfs(
        &self,
        _g: &UndirectedGraph,
        _sources: &[u32],
        _nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        Err(SimError::InvalidConfig(format!(
            "{} has no multi-source BFS port",
            self.name()
        )))
    }
}

fn bfs_digest(dist: &[u32]) -> f64 {
    dist.iter()
        .filter(|&&d| d != u32::MAX)
        .map(|&d| f64::from(d))
        .sum()
}

fn msbfs_digest(rows: &[Vec<u32>]) -> f64 {
    rows.iter().map(|row| bfs_digest(row)).sum()
}

fn cf_rmse_flat(g: &RatingsGraph, p: &[f64], q: &[f64], k: usize) -> f64 {
    let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
    let mut sse = 0.0;
    for (u, v, r) in g.triples() {
        let e = f64::from(r)
            - dot(
                &p[u as usize * k..(u as usize + 1) * k],
                &q[v as usize * k..(v as usize + 1) * k],
            );
        sse += e * e;
    }
    (sse / g.num_ratings().max(1) as f64).sqrt()
}

fn cf_rmse_rows(g: &RatingsGraph, rows: &[Vec<f64>]) -> f64 {
    let nu = g.num_users() as usize;
    let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
    let mut sse = 0.0;
    for (u, v, r) in g.triples() {
        let e = f64::from(r) - dot(&rows[u as usize], &rows[nu + v as usize]);
        sse += e * e;
    }
    (sse / g.num_ratings().max(1) as f64).sqrt()
}

/// Hand-optimized native code (the reference point).
pub struct NativeEngine;

impl Engine for NativeEngine {
    fn name(&self) -> &'static str {
        "native"
    }

    fn pagerank(
        &self,
        g: &DirectedGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (ranks, report) = pagerank::pagerank_cluster(
            g,
            PAGERANK_R,
            params.pr_iterations,
            NativeOptions::all(),
            nodes,
        )?;
        Ok((ranks.iter().sum(), report))
    }

    fn bfs(
        &self,
        g: &UndirectedGraph,
        source: u32,
        nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (dist, report) = bfs::bfs_cluster(g, source, NativeOptions::all(), nodes)?;
        Ok((bfs_digest(&dist), report))
    }

    fn triangles(
        &self,
        g: &Csr,
        nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (count, report) = triangle::triangles_cluster(g, NativeOptions::all(), nodes)?;
        Ok((count as f64, report))
    }

    fn cf(
        &self,
        g: &RatingsGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (_, hist, report) = cf::sgd_cluster(
            g,
            &params.cf,
            params.cf_iterations,
            NativeOptions::all(),
            nodes,
        )?;
        Ok((*hist.last().unwrap_or(&f64::NAN), report))
    }

    fn msbfs(
        &self,
        g: &UndirectedGraph,
        sources: &[u32],
        nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (rows, report) = msbfs::msbfs_cluster(g, sources, NativeOptions::all(), nodes)?;
        Ok((msbfs_digest(&rows), report))
    }
}

/// CombBLAS — sparse-matrix semirings, 2-D partitioning, MPI.
pub struct CombBlasEngine;

impl Engine for CombBlasEngine {
    fn name(&self) -> &'static str {
        "combblas"
    }

    fn pagerank(
        &self,
        g: &DirectedGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (ranks, report) = combblas::pagerank(g, PAGERANK_R, params.pr_iterations, nodes)?;
        Ok((ranks.iter().sum(), report))
    }

    fn bfs(
        &self,
        g: &UndirectedGraph,
        source: u32,
        nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (dist, report) = combblas::bfs(g, source, nodes)?;
        Ok((bfs_digest(&dist), report))
    }

    fn triangles(
        &self,
        g: &Csr,
        nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (count, report) = combblas::triangles(g, nodes)?;
        Ok((count as f64, report))
    }

    fn cf(
        &self,
        g: &RatingsGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let k = params.cf.k;
        let (p, q, report) = combblas::cf_gd(
            g,
            k,
            params.cf.lambda,
            params.cf.gamma0,
            params.cf_iterations,
            nodes,
        )?;
        Ok((cf_rmse_flat(g, &p, &q, k), report))
    }

    fn msbfs(
        &self,
        g: &UndirectedGraph,
        sources: &[u32],
        nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (rows, report) = combblas::msbfs(g, sources, nodes)?;
        Ok((msbfs_digest(&rows), report))
    }
}

/// GraphLab, Giraph and GraphMat: every algorithm is the *same*
/// `vertex::programs` job, run on the framework's [`Backend`] — the BSP
/// vertex engine under GraphLab's (sockets, combiners, hub replication)
/// or Giraph's (Hadoop BSP, whole-superstep buffering) configuration, or
/// the GraphMat lowering onto masked SpMSpV.
pub struct GasEngine {
    name: &'static str,
    backend: fn(Algorithm, &BenchParams) -> Backend,
}

impl Engine for GasEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn pagerank(
        &self,
        g: &DirectedGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let job = programs::pagerank_job(g, PAGERANK_R, params.pr_iterations);
        let (ranks, report) = (self.backend)(Algorithm::PageRank, params).run(job, nodes)?;
        Ok((ranks.iter().sum(), report))
    }

    fn bfs(
        &self,
        g: &UndirectedGraph,
        source: u32,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let job = programs::bfs_job(g, source);
        let (dist, report) = (self.backend)(Algorithm::Bfs, params).run(job, nodes)?;
        Ok((bfs_digest(&dist), report))
    }

    fn triangles(
        &self,
        g: &Csr,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let job = programs::triangle_job(g);
        let (count, report) = (self.backend)(Algorithm::TriangleCount, params).run(job, nodes)?;
        Ok((count as f64, report))
    }

    fn cf(
        &self,
        g: &RatingsGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let job = programs::cf_gd_job(
            g,
            params.cf.k,
            params.cf.lambda,
            params.cf.gamma0,
            params.cf_iterations,
        );
        let (vals, report) =
            (self.backend)(Algorithm::CollaborativeFiltering, params).run(job, nodes)?;
        Ok((cf_rmse_rows(g, &vals), report))
    }

    fn msbfs(
        &self,
        g: &UndirectedGraph,
        sources: &[u32],
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let job = programs::msbfs_job(g, sources);
        let (rows, report) = (self.backend)(Algorithm::MsBfs, params).run(job, nodes)?;
        Ok((msbfs_digest(&rows), report))
    }
}

/// SociaLite — Datalog over sharded tables. `optimized` selects the
/// post-§6.1.3 network stack (Table 7 "After") vs the original one.
pub struct SociaLiteEngine {
    optimized: bool,
}

impl Engine for SociaLiteEngine {
    fn name(&self) -> &'static str {
        if self.optimized {
            "socialite"
        } else {
            "socialite-unopt"
        }
    }

    fn pagerank(
        &self,
        g: &DirectedGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (ranks, report) =
            socialite::pagerank(g, PAGERANK_R, params.pr_iterations, nodes, self.optimized)?;
        Ok((ranks.iter().sum(), report))
    }

    fn bfs(
        &self,
        g: &UndirectedGraph,
        source: u32,
        nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (dist, report) = socialite::bfs(g, source, nodes, self.optimized)?;
        Ok((bfs_digest(&dist), report))
    }

    fn triangles(
        &self,
        g: &Csr,
        nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (count, report) = socialite::triangles(g, nodes, self.optimized)?;
        Ok((count as f64, report))
    }

    fn cf(
        &self,
        g: &RatingsGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let k = params.cf.k;
        let (p, q, report) = socialite::cf_gd(
            g,
            k,
            params.cf.lambda,
            params.cf.gamma0,
            params.cf_iterations,
            nodes,
            self.optimized,
        )?;
        Ok((cf_rmse_flat(g, &p, &q, k), report))
    }
}

/// Galois — task-based, single node only.
pub struct GaloisEngine;

impl Engine for GaloisEngine {
    fn name(&self) -> &'static str {
        "galois"
    }

    fn pagerank(
        &self,
        g: &DirectedGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (ranks, report) = galois::pagerank(g, PAGERANK_R, params.pr_iterations, nodes)?;
        Ok((ranks.iter().sum(), report))
    }

    fn bfs(
        &self,
        g: &UndirectedGraph,
        source: u32,
        nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (dist, report) = galois::bfs(g, source, nodes)?;
        Ok((bfs_digest(&dist), report))
    }

    fn triangles(
        &self,
        g: &Csr,
        nodes: usize,
        _params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (count, report) = galois::triangles(g, nodes)?;
        Ok((count as f64, report))
    }

    fn cf(
        &self,
        g: &RatingsGraph,
        nodes: usize,
        params: &BenchParams,
    ) -> Result<(f64, RunReport), SimError> {
        let (_, hist, report) = galois::cf_sgd(g, &params.cf, params.cf_iterations, nodes)?;
        Ok((*hist.last().unwrap_or(&f64::NAN), report))
    }
}

static NATIVE: NativeEngine = NativeEngine;
static COMBBLAS: CombBlasEngine = CombBlasEngine;
static GRAPHLAB: GasEngine = GasEngine {
    name: "graphlab",
    backend: |_, _| Backend::Bsp(graphlab::config()),
};
static SOCIALITE: SociaLiteEngine = SociaLiteEngine { optimized: true };
static SOCIALITE_UNOPT: SociaLiteEngine = SociaLiteEngine { optimized: false };
static GIRAPH: GasEngine = GasEngine {
    name: "giraph",
    // superstep splitting is the §6.1.3 fix for the two algorithms whose
    // messages are whole vectors
    backend: |algorithm, params| {
        Backend::Bsp(giraph::config(match algorithm {
            Algorithm::TriangleCount | Algorithm::CollaborativeFiltering => params.giraph_splits,
            _ => 1,
        }))
    },
};
static GALOIS: GaloisEngine = GaloisEngine;
static GRAPHMAT: GasEngine = GasEngine {
    name: "graphmat",
    backend: |_, _| Backend::GraphMat,
};

impl Framework {
    /// The framework's [`Engine`] implementation.
    pub fn engine(&self) -> &'static dyn Engine {
        match self {
            Framework::Native => &NATIVE,
            Framework::CombBlas => &COMBBLAS,
            Framework::GraphLab => &GRAPHLAB,
            Framework::SociaLite => &SOCIALITE,
            Framework::SociaLiteUnopt => &SOCIALITE_UNOPT,
            Framework::Giraph => &GIRAPH,
            Framework::Galois => &GALOIS,
            Framework::GraphMat => &GRAPHMAT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_names_match_framework_names() {
        for fw in [
            Framework::Native,
            Framework::CombBlas,
            Framework::GraphLab,
            Framework::SociaLite,
            Framework::SociaLiteUnopt,
            Framework::Giraph,
            Framework::Galois,
            Framework::GraphMat,
        ] {
            assert_eq!(fw.engine().name(), fw.name());
        }
    }

    #[test]
    fn socialite_variants_differ_only_in_network_stack() {
        let wl = crate::Workload::rmat(8, 6, 5);
        let g = wl.directed.as_ref().unwrap();
        let params = BenchParams::default();
        let (d_opt, r_opt) = SOCIALITE.pagerank(g, 2, &params).unwrap();
        let (d_unopt, r_unopt) = SOCIALITE_UNOPT.pagerank(g, 2, &params).unwrap();
        assert_eq!(d_opt, d_unopt, "same answer either way");
        assert!(
            r_unopt.sim_seconds > r_opt.sim_seconds,
            "unoptimized network must be slower: {} vs {}",
            r_unopt.sim_seconds,
            r_opt.sim_seconds
        );
    }
}
