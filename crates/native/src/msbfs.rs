//! Hand-optimized bit-parallel multi-source BFS (ROADMAP item 2).
//!
//! Wraps [`graphmaze_graph::msbfs`] — 64 sources advanced per u64 word
//! pass — as a native workload next to [`crate::bfs`], plus a simulated
//! distributed port: 1-D edge-balanced partition, per-level exchange of
//! `(vertex, mask)` pairs with compressed id payloads, masks OR-merged at
//! the owner. Where scalar distributed BFS ships 4-byte discoveries, the
//! multi-source version ships an 8-byte source mask per discovered
//! vertex but amortizes the traversal over 64 sources — the word-level
//! trick per-vertex frameworks cannot express (GraphMat, PAPERS.md).

use graphmaze_cluster::{ClusterSpec, Partition1D, Router, Sim, SimError};
use graphmaze_graph::csr::UndirectedGraph;
use graphmaze_graph::msbfs::{WordPass, WORD_SOURCES};
use graphmaze_graph::{BitVec, VertexId};
use graphmaze_metrics::{RunReport, Work};

use crate::common::{edge_stream_work, send_ids_with_values, NativeOptions};

/// Distance value for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Single-node bit-parallel multi-source BFS. Returns one distance row
/// per source, in source order (see [`graphmaze_graph::msbfs::msbfs`]).
/// An [`UndirectedGraph`] stores every edge in both directions, so the
/// direction-optimizing bottom-up gather is safe to enable.
pub fn msbfs(g: &UndirectedGraph, sources: &[VertexId], threads: usize) -> Vec<Vec<u32>> {
    graphmaze_graph::msbfs::msbfs_with(&g.adj, sources, threads, true)
}

/// Distributed bit-parallel multi-source BFS on the simulated cluster.
/// Returns distances identical to [`msbfs`] plus the run report. Sources
/// beyond 64 run as consecutive word passes inside the same simulation.
///
/// The kernel's own level loop computes the frontiers; each level is
/// charged from them. A node scans the edges of the frontier vertices it
/// owns, ships the distinct remote vertices those edges bring a new bit
/// to (ids compressed, one 8-byte mask each), and probes one seen-word
/// per candidate it receives.
pub fn msbfs_cluster(
    g: &UndirectedGraph,
    sources: &[VertexId],
    opts: NativeOptions,
    nodes: usize,
) -> Result<(Vec<Vec<u32>>, RunReport), SimError> {
    let mut sim = Sim::new(ClusterSpec::paper(nodes), opts.profile());
    let mut router = Router::new(nodes, sim.profile());
    let part = Partition1D::balanced_by_edges(&g.adj, nodes);
    let n = g.num_vertices();

    let width = sources.len().min(WORD_SOURCES) as u64;
    for node in 0..nodes {
        let local_edges = part.edges_of(&g.adj, node);
        let local_vertices = part.len(node) as u64;
        // CSR slice + per-vertex seen word + packed per-pass distances
        sim.alloc(
            node,
            local_edges * 4 + local_vertices * (8 + 4 * width.max(1)),
            "msbfs:graph+state",
        )?;
    }

    // v is already on the current sender's remote lists
    let mut listed = BitVec::new(if nodes > 1 { n } else { 0 });
    let mut remote: Vec<Vec<VertexId>> = vec![Vec::new(); nodes];
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(sources.len());
    sim.phase("msbfs:gossip");
    for group in sources.chunks(WORD_SOURCES) {
        let mut pass = WordPass::new(&g.adj, group, 1, true);
        while !pass.frontier().is_empty() {
            for node in 0..nodes {
                let scanned: u64 = owned(pass.frontier(), &part, node)
                    .iter()
                    .map(|&(u, _)| u64::from(g.adj.degree(u)))
                    .sum();
                // Work: stream frontier adjacency + one 8-byte seen-word
                // probe per scanned edge, plus the OR (1 flop per edge).
                let mut w = edge_stream_work(scanned, 1);
                w.accumulate(Work::random(scanned));
                sim.charge(node, w);
            }
            if nodes > 1 {
                let seen = pass.seen();
                for from in 0..nodes {
                    let home = part.range(from);
                    for &(u, m) in owned(pass.frontier(), &part, from) {
                        for &v in g.adj.neighbors(u) {
                            let vi = v as usize;
                            if !home.contains(&v) && m & !seen[vi] != 0 && listed.test_and_set(vi) {
                                remote[part.owner(v)].push(v);
                            }
                        }
                    }
                    for (to, ids) in remote.iter_mut().enumerate() {
                        ids.sort_unstable();
                        send_ids_with_values(
                            &mut router,
                            &mut sim,
                            from,
                            to,
                            ids,
                            n as u64,
                            8,
                            opts.compression,
                            /* masks stay 8 bytes on the wire */ false,
                        );
                        ids.drain(..).for_each(|v| listed.clear(v as usize));
                    }
                }
            }
            router.flush(&mut sim);
            pass.advance();
            // A vertex is a candidate only if some frontier mask carried
            // a bit it had not seen, so every candidate gains a bit: a
            // node's candidates are exactly its share of the new frontier.
            for node in 0..nodes {
                let candidates = owned(pass.frontier(), &part, node).len() as u64;
                sim.charge(node, Work::random(candidates));
            }
            sim.end_step()?;
        }
        rows.extend(pass.into_rows());
    }
    sim.end_iteration();
    Ok((rows, sim.finish()))
}

/// The entries of an ascending frontier that `node` owns.
fn owned<'f>(
    frontier: &'f [(VertexId, u64)],
    part: &Partition1D,
    node: usize,
) -> &'f [(VertexId, u64)] {
    let r = part.range(node);
    let lo = frontier.partition_point(|&(v, _)| v < r.start);
    let hi = frontier.partition_point(|&(v, _)| v < r.end);
    &frontier[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;
    use graphmaze_datagen::{rmat, RmatConfig, RmatParams};

    fn rmat_undirected(scale: u32, seed: u64) -> UndirectedGraph {
        let cfg = RmatConfig {
            scale,
            edge_factor: 8,
            params: RmatParams::GRAPH500,
            seed,
            scramble_ids: false,
            threads: 1,
        };
        let mut el = rmat::generate(&cfg);
        el.remove_self_loops();
        el.symmetrize();
        UndirectedGraph::from_symmetric_edge_list(&el)
    }

    #[test]
    fn single_node_matches_scalar_bfs() {
        let g = rmat_undirected(9, 7);
        let sources: Vec<u32> = (0..64).map(|i| (i * 5) % g.num_vertices() as u32).collect();
        let rows = msbfs(&g, &sources, 4);
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(rows[i], bfs::bfs(&g, s, 2), "source {s}");
        }
    }

    #[test]
    fn cluster_matches_single_node() {
        let g = rmat_undirected(9, 23);
        let sources: Vec<u32> = (0..70)
            .map(|i| (i * 11) % g.num_vertices() as u32)
            .collect();
        let single = msbfs(&g, &sources, 2);
        for nodes in [1, 2, 4] {
            let (rows, report) = msbfs_cluster(&g, &sources, NativeOptions::all(), nodes).unwrap();
            assert_eq!(rows, single, "nodes={nodes}");
            assert!(report.sim_seconds > 0.0);
            if nodes > 1 {
                assert!(report.traffic.bytes_sent > 0);
            }
        }
    }

    #[test]
    fn cluster_traffic_is_sublinear_in_sources() {
        // one batched 64-source pass must ship far less than 64 scalar
        // BFS exchanges: masks amortize the id stream across sources
        let g = rmat_undirected(10, 31);
        let sources: Vec<u32> = (0..64)
            .map(|i| (i * 13) % g.num_vertices() as u32)
            .collect();
        let (_, batched) = msbfs_cluster(&g, &sources, NativeOptions::all(), 4).unwrap();
        let mut scalar_total = 0u64;
        for &s in &sources {
            let (_, rep) = bfs::bfs_cluster(&g, s, NativeOptions::all(), 4).unwrap();
            scalar_total += rep.traffic.bytes_sent;
        }
        assert!(
            batched.traffic.bytes_sent * 2 < scalar_total,
            "batched {} vs 64 scalar {}",
            batched.traffic.bytes_sent,
            scalar_total
        );
    }
}
