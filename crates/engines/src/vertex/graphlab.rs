//! GraphLab v2.2 runtime binding (paper §3, §5, §6.2).
//!
//! Mechanisms: C++ vertex programs over a 1-D partition with high-degree
//! awareness, **sockets** for communication (the paper's measured
//! 2.5–3× bandwidth deficit vs MPI), message **combiners** ("a limited
//! form of compression that takes advantage of local reductions"), and
//! computation/communication overlap via the async engine. For triangle
//! counting GraphLab "keeps a cuckoo-hash data structure", which shows
//! up as a lower per-probe cost than Giraph's boxed sets.

use graphmaze_cluster::ExecProfile;

use super::engine::EngineConfig;

/// GraphLab's engine configuration. Message-plane knobs come from the
/// profile's [`graphmaze_cluster::RouterConfig`].
pub fn config() -> EngineConfig {
    EngineConfig {
        profile: ExecProfile::graphlab(),
        use_combiner: true,
        superstep_splits: 1,
        // replicate vertices with ≥8x the average degree (§6.1.1)
        replicate_hubs_factor: Some(8.0),
    }
}

/// GraphLab with the paper's roadmap applied (MPI-class transport,
/// software prefetch, id compression). The paper: "incorporating these
/// changes should allow GraphLab to be within 5x of native performance."
pub fn config_improved() -> EngineConfig {
    EngineConfig {
        profile: ExecProfile::graphlab_improved(),
        ..config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::gas::Backend;
    use crate::vertex::programs::{bfs_job, pagerank_job, triangle_job};
    use graphmaze_datagen::{rmat, RmatConfig, RmatParams};
    use graphmaze_graph::csr::{DirectedGraph, UndirectedGraph};
    use graphmaze_native::pagerank::pagerank as native_pagerank;
    use graphmaze_native::triangle::{orient_and_sort, triangles as native_triangles};
    use graphmaze_native::{bfs::bfs as native_bfs, PAGERANK_R};

    fn rmat_el(scale: u32, seed: u64) -> graphmaze_graph::EdgeList {
        rmat::generate(&RmatConfig {
            scale,
            edge_factor: 8,
            params: RmatParams::GRAPH500,
            seed,
            scramble_ids: false,
            threads: 1,
        })
    }

    #[test]
    fn pagerank_matches_native() {
        let el = rmat_el(9, 21);
        let g = DirectedGraph::from_edge_list(&el);
        let want = native_pagerank(&g, PAGERANK_R, 5, 2);
        let (got, report) = Backend::Bsp(config())
            .run(pagerank_job(&g, PAGERANK_R, 5), 4)
            .unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
        assert!(report.traffic.bytes_sent > 0);
    }

    #[test]
    fn bfs_matches_native() {
        let mut el = rmat_el(9, 22);
        el.remove_self_loops();
        el.symmetrize();
        let g = UndirectedGraph::from_symmetric_edge_list(&el);
        let want = native_bfs(&g, 0, 2);
        let (got, _) = Backend::Bsp(config()).run(bfs_job(&g, 0), 4).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn triangles_match_native() {
        let el = rmat_el(9, 23);
        let oriented = orient_and_sort(&el);
        let want = native_triangles(&oriented, 2);
        let (got, _) = Backend::Bsp(config())
            .run(triangle_job(&oriented), 4)
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn hub_replication_cuts_traffic_without_changing_results() {
        // RMAT hubs have thousands of out-edges; replication sends one
        // value per (hub, node) instead of one per edge (§6.1.1).
        let el = rmat_el(11, 25);
        let g = DirectedGraph::from_edge_list(&el);
        let run = |cfg| {
            Backend::Bsp(cfg)
                .run(pagerank_job(&g, PAGERANK_R, 3), 4)
                .unwrap()
        };
        let with = run(config());
        let without = run(EngineConfig {
            replicate_hubs_factor: None,
            ..config()
        });
        for (a, b) in with.0.iter().zip(&without.0) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(
            with.1.traffic.bytes_sent < without.1.traffic.bytes_sent,
            "replication should cut traffic: {} !< {}",
            with.1.traffic.bytes_sent,
            without.1.traffic.bytes_sent
        );
    }

    #[test]
    fn graphlab_is_slower_than_native_pagerank() {
        let el = rmat_el(10, 24);
        let g = DirectedGraph::from_edge_list(&el);
        let (_, native_rep) = graphmaze_native::pagerank::pagerank_cluster(
            &g,
            PAGERANK_R,
            5,
            graphmaze_native::NativeOptions::all(),
            4,
        )
        .unwrap();
        let (_, gl_rep) = Backend::Bsp(config())
            .run(pagerank_job(&g, PAGERANK_R, 5), 4)
            .unwrap();
        let slowdown = gl_rep.slowdown_vs(&native_rep);
        assert!(slowdown > 1.5, "GraphLab slowdown {slowdown} vs native");
    }
}
