//! Giraph 1.1 runtime binding (paper §3, §5.4, §6.1.3).
//!
//! Mechanisms, all named by the paper: Hadoop-hosted BSP with a heavy
//! per-superstep coordination cost; only **4 workers per 24-core node**
//! (memory pressure), capping CPU utilization near 16%; a Netty-class
//! transport under 0.5 GB/s; **whole-superstep message buffering** with
//! JVM object overhead per message — the reason Triangle Counting runs
//! out of memory unless each superstep is split into many
//! mini-supersteps (§6.1.3, "it was only using this optimization that we
//! were able to run Triangle Counting on Giraph").

use graphmaze_cluster::ExecProfile;

use super::engine::EngineConfig;

/// Giraph's engine configuration. `splits` is the superstep-splitting
/// factor (1 = the stock runtime, which exhausts memory on triangle
/// counting at scale; the paper's fix uses 100 — "message passing
/// happens in phases so that only 1/s vertices have to send messages in
/// a given superstep", §3.2). Whole-superstep buffering and the JVM
/// per-message overhead come from the profile's
/// [`graphmaze_cluster::RouterConfig`].
pub fn config(splits: u32) -> EngineConfig {
    EngineConfig {
        profile: ExecProfile::giraph(),
        use_combiner: false,
        superstep_splits: splits,
        replicate_hubs_factor: None, // plain 1-D vertex partitioning
    }
}

/// Giraph with the paper's roadmap applied: 10x network, all 24 workers
/// (enabled by streaming message buffers instead of whole-superstep
/// buffering), id compression, lighter barriers. "Boosting network
/// bandwidth by 10x should make Giraph very competitive with other
/// frameworks."
pub fn config_improved(splits: u32) -> EngineConfig {
    EngineConfig {
        profile: ExecProfile::giraph_improved(),
        ..config(splits)
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
    use graphmaze_native::PAGERANK_R;

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
    fn pagerank_matches_native_but_much_slower() {
        let el = rmat_el(9, 31);
        let g = DirectedGraph::from_edge_list(&el);
        let want = native_pagerank(&g, PAGERANK_R, 5, 2);
        let (got, giraph_rep) = Backend::Bsp(config(1))
            .run(pagerank_job(&g, PAGERANK_R, 5), 4)
            .unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
        let (_, native_rep) = graphmaze_native::pagerank::pagerank_cluster(
            &g,
            PAGERANK_R,
            5,
            graphmaze_native::NativeOptions::all(),
            4,
        )
        .unwrap();
        // Giraph is 1–3 orders of magnitude off native (Table 5/6).
        let slowdown = giraph_rep.slowdown_vs(&native_rep);
        assert!(slowdown > 10.0, "Giraph slowdown {slowdown}");
    }

    #[test]
    fn giraph_cpu_utilization_capped_by_workers() {
        let el = rmat_el(9, 32);
        let g = DirectedGraph::from_edge_list(&el);
        let (_, rep) = Backend::Bsp(config(1))
            .run(pagerank_job(&g, PAGERANK_R, 5), 4)
            .unwrap();
        assert!(
            rep.cpu_utilization <= 4.0 / 24.0 + 1e-9,
            "util {}",
            rep.cpu_utilization
        );
    }

    #[test]
    fn triangle_split_matches_native_count() {
        let el = rmat_el(9, 33);
        let oriented = orient_and_sort(&el);
        let want = native_triangles(&oriented, 2);
        let run = |splits| {
            Backend::Bsp(config(splits))
                .run(triangle_job(&oriented), 4)
                .unwrap()
        };
        let (got, _) = run(100);
        assert_eq!(got, want);
        let (got_split, rep_split) = run(8);
        assert_eq!(got_split, want);
        let (_, rep_whole) = run(1);
        assert!(
            rep_split.peak_mem_bytes < rep_whole.peak_mem_bytes,
            "{} !< {}",
            rep_split.peak_mem_bytes,
            rep_whole.peak_mem_bytes
        );
    }

    #[test]
    fn bfs_pays_per_superstep_overhead() {
        let mut el = rmat_el(9, 34);
        el.remove_self_loops();
        el.symmetrize();
        let g = UndirectedGraph::from_symmetric_edge_list(&el);
        let (dist, rep) = Backend::Bsp(config(1)).run(bfs_job(&g, 0), 4).unwrap();
        let want = graphmaze_native::bfs::bfs(&g, 0, 2);
        assert_eq!(dist, want);
        // each superstep costs ≈1 s of Hadoop coordination
        assert!(
            rep.sim_seconds > 0.8 * f64::from(rep.steps),
            "sim {} steps {}",
            rep.sim_seconds,
            rep.steps
        );
    }
}
