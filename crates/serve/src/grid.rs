//! The default query population the load generator samples from: the
//! paper's experiment grid (4 algorithms × the 6 multi-node frameworks)
//! plus the `msbfs` extension × its 5 ported frameworks, at a
//! configurable scale, each cell expressed as the same [`RunRequest`]
//! the offline harness would build.

use graphmaze_core::{Algorithm, Framework, RunRequest, SweepCell, WorkloadSpec};

/// The six frameworks with multi-node implementations, in paper order
/// with the GraphMat auto-lowering engine appended (Galois is
/// single-node only; the Table 7 `socialite-unopt` variant is excluded
/// like everywhere outside Table 7).
pub const SERVING_FRAMEWORKS: [Framework; 6] = [
    Framework::Native,
    Framework::CombBlas,
    Framework::GraphLab,
    Framework::SociaLite,
    Framework::Giraph,
    Framework::GraphMat,
];

/// The workload each algorithm runs on at `scale`, mirroring the
/// crossbar experiments: Graph500 RMAT for PageRank/BFS, the
/// triangle-tuned RMAT for TC, synthetic ratings for CF.
pub fn spec_for(algorithm: Algorithm, scale: u32, seed: u64) -> WorkloadSpec {
    match algorithm {
        Algorithm::PageRank | Algorithm::Bfs => WorkloadSpec::Rmat {
            scale,
            edge_factor: 16,
            seed,
        },
        Algorithm::TriangleCount => WorkloadSpec::RmatTriangle {
            scale,
            edge_factor: 8,
            seed,
        },
        Algorithm::CollaborativeFiltering => WorkloadSpec::RmatRatings {
            scale,
            num_items: 64,
            seed,
        },
        Algorithm::MsBfs => WorkloadSpec::Rmat {
            scale,
            edge_factor: 16,
            seed,
        },
    }
}

/// Builds the 29-cell default grid at `scale` on `nodes` simulated
/// nodes, with the harness's standard parameters: the paper's 4
/// algorithms × the 6 serving frameworks, plus `msbfs` × its 5 ported
/// frameworks ([`Framework::supports`]: SociaLite's Datalog model has
/// none — that cell is "n/a" in the extended Table 5, so the grid omits
/// it rather than serving a guaranteed failure). Order is deterministic —
/// algorithm-major, paper framework order — so Zipf rank 0 is always
/// `pagerank × native`.
pub fn default_grid(scale: u32, seed: u64, nodes: usize) -> Vec<RunRequest> {
    let params = graphmaze_bench::standard_params();
    let mut grid = Vec::new();
    let cell = |algorithm: Algorithm, framework: Framework| {
        RunRequest::new(
            "serve",
            SweepCell {
                label: format!("s{scale}"),
                algorithm,
                framework,
                spec: spec_for(algorithm, scale, seed),
                nodes,
                factor: 1.0,
                params,
                faults: graphmaze_core::cluster::FaultPlan::none(),
            },
        )
    };
    for algorithm in Algorithm::EXTENDED {
        for framework in SERVING_FRAMEWORKS {
            if framework.supports(algorithm) {
                grid.push(cell(algorithm, framework));
            }
        }
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn grid_is_complete_and_identity_hashes_are_distinct() {
        let grid = default_grid(8, 42, 4);
        assert_eq!(grid.len(), 29);
        let keys: HashSet<u64> = grid.iter().map(RunRequest::key).collect();
        assert_eq!(keys.len(), 29, "every cell has a distinct identity hash");
        assert_eq!(grid[0].cell.algorithm, Algorithm::PageRank);
        assert_eq!(grid[0].cell.framework, Framework::Native);
        let msbfs: Vec<_> = grid
            .iter()
            .filter(|r| r.cell.algorithm == Algorithm::MsBfs)
            .collect();
        assert_eq!(msbfs.len(), 5);
        assert!(msbfs
            .iter()
            .all(|r| r.cell.framework != Framework::SociaLite));
        for req in &grid {
            assert_eq!(req.cell.nodes, 4);
            assert_eq!(req.experiment, "serve");
        }
    }

    #[test]
    fn grid_is_deterministic_across_calls() {
        let a: Vec<u64> = default_grid(9, 7, 2).iter().map(RunRequest::key).collect();
        let b: Vec<u64> = default_grid(9, 7, 2).iter().map(RunRequest::key).collect();
        assert_eq!(a, b);
    }
}
