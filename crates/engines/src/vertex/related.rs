//! Related-work frameworks the paper quantifies in §7: GPS and GraphX —
//! both vertex-programming runtimes, bound to the same engine with their
//! cited characteristics.
//!
//! * **GPS** \[27\]: "vertex partitioning except for the large degree
//!   vertices which are split among multiple nodes" (LALP — modelled as
//!   hub replication), with "a 12X performance improvement compared to
//!   Giraph".
//! * **GraphX** \[35\]: vertex programs on Spark; "about 7X slower than
//!   GraphLab for pagerank".

use graphmaze_cluster::ExecProfile;

use super::engine::EngineConfig;

/// GPS engine configuration: LALP hub splitting, combiners, a leaner
/// JVM runtime than Hadoop-hosted Giraph.
pub fn gps_config() -> EngineConfig {
    EngineConfig {
        profile: ExecProfile::gps(),
        use_combiner: true,
        superstep_splits: 1,
        replicate_hubs_factor: Some(8.0), // LALP
    }
}

/// GraphX engine configuration: plain 1-D vertex partitioning on Spark.
pub fn graphx_config() -> EngineConfig {
    EngineConfig {
        profile: ExecProfile::graphx(),
        use_combiner: true,
        superstep_splits: 1,
        replicate_hubs_factor: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::gas::Backend;
    use crate::vertex::programs::{bfs_job, pagerank_job};
    use crate::vertex::{giraph, graphlab};
    use graphmaze_datagen::{rmat, RmatConfig, RmatParams};
    use graphmaze_graph::csr::{DirectedGraph, UndirectedGraph};
    use graphmaze_metrics::RunReport;

    fn pagerank(cfg: EngineConfig, g: &DirectedGraph, iterations: u32) -> (Vec<f64>, RunReport) {
        Backend::Bsp(cfg)
            .run(pagerank_job(g, PAGERANK_R, iterations), 4)
            .unwrap()
    }
    use graphmaze_native::PAGERANK_R;

    fn graph(scale: u32, seed: u64) -> DirectedGraph {
        let el = rmat::generate(&RmatConfig {
            scale,
            edge_factor: 8,
            params: RmatParams::GRAPH500,
            seed,
            scramble_ids: false,
            threads: 1,
        });
        DirectedGraph::from_edge_list(&el)
    }

    #[test]
    fn gps_and_graphx_match_native_results() {
        let g = graph(9, 81);
        let want = graphmaze_native::pagerank::pagerank(&g, PAGERANK_R, 4, 1);
        for (name, got) in [
            ("gps", pagerank(gps_config(), &g, 4).0),
            ("graphx", pagerank(graphx_config(), &g, 4).0),
        ] {
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() < 1e-9, "{name}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn gps_sits_between_giraph_and_the_studied_frameworks() {
        // §7: GPS ≈ 12x faster than Giraph, "comparable to that of the
        // frameworks studied (but much slower than native code)".
        let g = graph(11, 82);
        let (_, gps) = pagerank(gps_config(), &g, 3);
        let (_, giraph) = pagerank(giraph::config(1), &g, 3);
        let (_, native) = graphmaze_native::pagerank::pagerank_cluster(
            &g,
            PAGERANK_R,
            3,
            graphmaze_native::NativeOptions::all(),
            4,
        )
        .unwrap();
        let vs_giraph = giraph.sim_seconds / gps.sim_seconds;
        assert!(
            vs_giraph > 4.0,
            "GPS should be much faster than Giraph, got {vs_giraph}x"
        );
        assert!(
            gps.sim_seconds > native.sim_seconds * 2.0,
            "but much slower than native"
        );
    }

    #[test]
    fn graphx_is_the_slow_end_of_the_non_giraph_spectrum() {
        // §7: GraphX ≈ 7x slower than GraphLab on pagerank.
        let g = graph(11, 83);
        let (_, graphx) = pagerank(graphx_config(), &g, 3);
        let (_, graphlab) = pagerank(graphlab::config(), &g, 3);
        // at unit-test scale Spark's fixed stage overhead dominates, so
        // only the ordering is asserted here; the `repro relatedwork`
        // artifact checks the ~7x band at extrapolated paper scale
        let ratio = graphx.sim_seconds / graphlab.sim_seconds;
        assert!(
            ratio > 2.0,
            "GraphX should be well behind GraphLab, got {ratio}x"
        );
    }

    #[test]
    fn gps_bfs_correct() {
        let el = rmat::generate(&RmatConfig {
            scale: 9,
            edge_factor: 8,
            params: RmatParams::GRAPH500,
            seed: 84,
            scramble_ids: false,
            threads: 1,
        });
        let mut el = el;
        el.remove_self_loops();
        el.symmetrize();
        let g = UndirectedGraph::from_symmetric_edge_list(&el);
        let want = graphmaze_native::bfs::bfs(&g, 0, 1);
        let (got, _) = Backend::Bsp(gps_config()).run(bfs_job(&g, 0), 4).unwrap();
        assert_eq!(got, want);
    }
}
