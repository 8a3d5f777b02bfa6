//! Hand-optimized Breadth-First Search (paper §2 eq. (2), §3.2, §6.1).
//!
//! The native implementation "follows the approach explained in \[28\]"
//! (Satish et al., SC'12): level-synchronous traversal with a bit-vector
//! visited set, direction-optimizing top-down/bottom-up switching, and —
//! across nodes — compressed frontier exchange (delta coding for sparse
//! frontiers, bitmaps for dense ones, which [`encode_best`] picks
//! automatically).

use graphmaze_cluster::compress::encode_best;
use graphmaze_cluster::{ClusterSpec, Partition1D, Router, Sim, SimError};
use graphmaze_graph::bitvec::AtomicBitVec;
use graphmaze_graph::csr::UndirectedGraph;
use graphmaze_graph::par::par_tasks;
use graphmaze_graph::{BitVec, VertexId};
use graphmaze_metrics::{RunReport, Work};

use crate::common::{edge_stream_work, NativeOptions};

/// Distance value for unreached vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Occupancy threshold above which the bottom-up direction is preferred.
const BOTTOM_UP_THRESHOLD: f64 = 0.05;

/// Single-node parallel BFS from `source`. Returns hop distances
/// (`UNREACHED` for unreachable vertices).
pub fn bfs(g: &UndirectedGraph, source: VertexId, threads: usize) -> Vec<u32> {
    bfs_with(g, source, threads, true)
}

/// BFS with the direction-optimizing switch controllable (for ablation).
pub fn bfs_with(
    g: &UndirectedGraph,
    source: VertexId,
    threads: usize,
    direction_optimizing: bool,
) -> Vec<u32> {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHED; n];
    if n == 0 {
        return dist;
    }
    let visited = AtomicBitVec::new(n);
    visited.set(source as usize);
    dist[source as usize] = 0;
    let mut frontier: Vec<VertexId> = vec![source];
    let mut level: u32 = 0;
    while !frontier.is_empty() {
        level += 1;
        let occupancy = frontier.len() as f64 / n as f64;
        let next: Vec<VertexId> = if direction_optimizing && occupancy > BOTTOM_UP_THRESHOLD {
            bottom_up_level(g, &frontier, &visited, threads)
        } else {
            top_down_level(g, &frontier, &visited, threads)
        };
        for &v in &next {
            dist[v as usize] = level;
        }
        frontier = next;
    }
    dist
}

/// Expands `frontier` over out-edges, claiming unvisited targets.
fn top_down_level(
    g: &UndirectedGraph,
    frontier: &[VertexId],
    visited: &AtomicBitVec,
    threads: usize,
) -> Vec<VertexId> {
    let parts = par_tasks(threads.max(1), |t| {
        let mut local = Vec::new();
        let chunk = frontier.len().div_ceil(threads.max(1)).max(1);
        let lo = (t * chunk).min(frontier.len());
        let hi = ((t + 1) * chunk).min(frontier.len());
        for &u in &frontier[lo..hi] {
            for &v in g.adj.neighbors(u) {
                if visited.test_and_set(v as usize) {
                    local.push(v);
                }
            }
        }
        local
    });
    let mut next: Vec<VertexId> = parts.into_iter().flatten().collect();
    next.sort_unstable();
    next
}

/// Scans unvisited vertices, joining the next frontier if any neighbor is
/// in the current frontier — the bottom-up direction of \[28\].
fn bottom_up_level(
    g: &UndirectedGraph,
    frontier: &[VertexId],
    visited: &AtomicBitVec,
    threads: usize,
) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut fmask = BitVec::new(n);
    for &v in frontier {
        fmask.set(v as usize);
    }
    let fmask = &fmask;
    let parts = par_tasks(threads.max(1), |t| {
        let mut local = Vec::new();
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let lo = (t * chunk).min(n);
        let hi = ((t + 1) * chunk).min(n);
        for v in lo..hi {
            if visited.get(v) {
                continue;
            }
            for &u in g.adj.neighbors(v as VertexId) {
                if fmask.get(u as usize) {
                    // only this worker scans v, so the claim always wins
                    visited.set(v);
                    local.push(v as VertexId);
                    break;
                }
            }
        }
        local
    });
    parts.into_iter().flatten().collect()
}

/// BFS that also records a parent per reached vertex — the output the
/// Graph500 benchmark (which BFS "is part of", §2) validates. Sequential
/// reference; parents are the first-discovering neighbor in scan order.
pub fn bfs_with_parents(g: &UndirectedGraph, source: VertexId) -> (Vec<u32>, Vec<VertexId>) {
    let n = g.num_vertices();
    let mut dist = vec![UNREACHED; n];
    let mut parent = vec![UNREACHED; n];
    if n == 0 {
        return (dist, parent);
    }
    dist[source as usize] = 0;
    parent[source as usize] = source;
    let mut frontier = vec![source];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in g.adj.neighbors(u) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = level;
                    parent[v as usize] = u;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    (dist, parent)
}

/// Graph500-style validation of a parent tree: the source is its own
/// parent; every reached vertex's parent is a real neighbor exactly one
/// level closer; parents are reached.
pub fn validate_parents(
    g: &UndirectedGraph,
    source: VertexId,
    dist: &[u32],
    parent: &[VertexId],
) -> bool {
    if parent[source as usize] != source || dist[source as usize] != 0 {
        return false;
    }
    for v in 0..g.num_vertices() as u32 {
        let p = parent[v as usize];
        if dist[v as usize] == UNREACHED {
            if p != UNREACHED {
                return false;
            }
            continue;
        }
        if v == source {
            continue;
        }
        if p == UNREACHED || dist[p as usize] == UNREACHED {
            return false;
        }
        if dist[p as usize] + 1 != dist[v as usize] {
            return false;
        }
        if !g.adj.neighbors(v).contains(&p) {
            return false;
        }
    }
    true
}

/// Validates a distance labelling against the graph (Graph500-style):
/// source has distance 0, every edge spans at most one level, every
/// reached vertex has a neighbor one level closer, unreached vertices
/// have no reached neighbors.
pub fn validate_distances(g: &UndirectedGraph, source: VertexId, dist: &[u32]) -> bool {
    if dist[source as usize] != 0 {
        return false;
    }
    for v in 0..g.num_vertices() as u32 {
        let dv = dist[v as usize];
        if dv == UNREACHED {
            if g.adj
                .neighbors(v)
                .iter()
                .any(|&u| dist[u as usize] != UNREACHED)
            {
                return false;
            }
            continue;
        }
        if dv > 0 {
            let mut ok = false;
            for &u in g.adj.neighbors(v) {
                let du = dist[u as usize];
                if du != UNREACHED && du + 1 < dv {
                    return false; // an edge shortcuts more than one level
                }
                if du != UNREACHED && du + 1 == dv {
                    ok = true;
                }
            }
            if !ok {
                return false;
            }
        }
    }
    true
}

/// Distributed BFS on the simulated cluster: 1-D partition, per-level
/// frontier exchange. Returns distances identical to [`bfs`] plus the
/// run report.
pub fn bfs_cluster(
    g: &UndirectedGraph,
    source: VertexId,
    opts: NativeOptions,
    nodes: usize,
) -> Result<(Vec<u32>, RunReport), SimError> {
    let mut sim = Sim::new(ClusterSpec::paper(nodes), opts.profile());
    let mut router = Router::new(nodes, sim.profile());
    let n = g.num_vertices();
    let part = Partition1D::balanced_by_edges(&g.adj, nodes);

    for node in 0..nodes {
        let local_edges = part.edges_of(&g.adj, node);
        let local_vertices = part.len(node) as u64;
        sim.declare_partition(node, local_vertices, local_edges);
        // CSR slice + distance array + visited bit-vector (or u32 flags
        // when the bit-vector lever is off)
        let visited_bytes = if opts.bitvector {
            local_vertices / 8 + 8
        } else {
            local_vertices * 4
        };
        sim.alloc(
            node,
            local_edges * 4 + local_vertices * 4 + visited_bytes,
            "bfs:graph+state",
        )?;
    }

    let mut dist = vec![UNREACHED; n];
    dist[source as usize] = 0;
    // per-node frontiers (owned vertices only): the level before the
    // current one, the current one, and the next
    let mut prev: Vec<Vec<VertexId>> = vec![Vec::new(); nodes];
    let mut frontiers: Vec<Vec<VertexId>> = vec![Vec::new(); nodes];
    let mut next: Vec<Vec<VertexId>> = vec![Vec::new(); nodes];
    frontiers[part.owner(source)].push(source);
    let mut visited = BitVec::new(n);
    visited.set(source as usize);
    // this level's candidates: the distinct neighbors of every frontier
    let mut counted = BitVec::new(n);
    let mut candidates = vec![0u64; nodes];
    // v is already on the current sender's remote lists
    let mut listed = BitVec::new(if nodes > 1 { n } else { 0 });
    let mut remote: Vec<Vec<VertexId>> = vec![Vec::new(); nodes];
    let mut level = 0u32;

    sim.phase("bfs:top-down");
    while frontiers.iter().any(|f| !f.is_empty()) {
        level += 1;
        for (node, frontier) in frontiers.iter().enumerate() {
            let scanned: u64 = frontier.iter().map(|&u| u64::from(g.adj.degree(u))).sum();
            // Work: stream frontier + its adjacency; one visited-structure
            // probe per scanned edge. Without bit-vectors the probe
            // footprint quadruples (u32 flags vs 1 bit), costing extra
            // random accesses — the paper's "slightly over 2X" lever.
            let probe_factor = if opts.bitvector { 1 } else { 2 };
            let mut w = edge_stream_work(scanned, 1);
            w.accumulate(Work::random(scanned * probe_factor));
            sim.charge(node, w);
        }
        if nodes == 1 && frontiers[0].len() as f64 / n as f64 > BOTTOM_UP_THRESHOLD {
            // one node sends nothing, so a dense level may find its
            // candidates bottom-up, as the kernel does
            candidates[0] =
                bottom_up_candidates(g, &prev[0], &frontiers[0], &mut visited, &mut next[0]);
        } else {
            // scan each sender's frontier edges: mark every candidate,
            // claim the unvisited ones, and send each remote owner the
            // distinct ids this sender found in its range
            for (from, frontier) in frontiers.iter().enumerate() {
                let home = part.range(from);
                for &u in frontier {
                    for &v in g.adj.neighbors(u) {
                        let vi = v as usize;
                        counted.set(vi);
                        if visited.test_and_set(vi) {
                            next[if nodes > 1 { part.owner(v) } else { 0 }].push(v);
                        }
                        if nodes > 1 && !home.contains(&v) && listed.test_and_set(vi) {
                            remote[part.owner(v)].push(v);
                        }
                    }
                }
                for (to, ids) in remote.iter_mut().enumerate() {
                    if ids.is_empty() {
                        continue;
                    }
                    ids.sort_unstable();
                    let raw = ids.len() as u64 * 4;
                    let wire = if opts.compression {
                        encode_best(ids, n as u64).len() as u64
                    } else {
                        raw
                    };
                    router.send(&mut sim, from, to, wire, raw);
                    ids.drain(..).for_each(|v| listed.clear(v as usize));
                }
            }
            for (node, count) in candidates.iter_mut().enumerate() {
                let r = part.range(node);
                *count = counted.count_ones_in(r.start as usize..r.end as usize) as u64;
            }
            counted.clear_all();
        }
        router.flush(&mut sim);
        // merging the inbox costs a probe per candidate
        for (node, &count) in candidates.iter().enumerate() {
            sim.charge(node, Work::random(count));
        }
        for &v in next.iter().flatten() {
            dist[v as usize] = level;
        }
        // prev <- frontiers <- next <- (cleared) prev
        std::mem::swap(&mut prev, &mut frontiers);
        std::mem::swap(&mut frontiers, &mut next);
        next.iter_mut().for_each(Vec::clear);
        sim.end_step()?;
    }
    sim.end_iteration();
    Ok((dist, sim.finish()))
}

/// One bottom-up level on one node. Claims every unvisited vertex with
/// a neighbor in `frontier` into `next` (empty on entry) and returns the
/// level's candidates: the distinct neighbors of `frontier`, visited or
/// not. Edges are symmetric and adjacent vertices' levels differ by at
/// most one, so a visited candidate lies in `frontier` or in the level
/// before it (`prev`), and is one exactly when it has a frontier
/// neighbor.
fn bottom_up_candidates(
    g: &UndirectedGraph,
    prev: &[VertexId],
    frontier: &[VertexId],
    visited: &mut BitVec,
    next: &mut Vec<VertexId>,
) -> u64 {
    let n = g.num_vertices();
    let mut fmask = BitVec::new(n);
    for &u in frontier {
        fmask.set(u as usize);
    }
    let touches = |v: VertexId| g.adj.neighbors(v).iter().any(|&u| fmask.get(u as usize));
    for v in 0..n as VertexId {
        if !visited.get(v as usize) && touches(v) {
            visited.set(v as usize);
            next.push(v);
        }
    }
    let seen_before = prev.iter().chain(frontier).filter(|&&v| touches(v)).count();
    (next.len() + seen_before) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmaze_datagen::{rmat, RmatConfig, RmatParams};

    fn sample() -> UndirectedGraph {
        // 0-1, 0-2, 1-3, 2-3, 3-4; 5 isolated
        UndirectedGraph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    }

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
    fn distances_on_small_graph() {
        let g = sample();
        let d = bfs(&g, 0, 2);
        assert_eq!(d, vec![0, 1, 1, 2, 3, UNREACHED]);
        assert!(validate_distances(&g, 0, &d));
    }

    #[test]
    fn bfs_from_other_source() {
        let g = sample();
        let d = bfs(&g, 4, 1);
        assert_eq!(d, vec![3, 2, 2, 1, 0, UNREACHED]);
    }

    #[test]
    fn direction_optimization_does_not_change_results() {
        let g = rmat_undirected(10, 5);
        let a = bfs_with(&g, 0, 4, true);
        let b = bfs_with(&g, 0, 4, false);
        assert_eq!(a, b);
        assert!(validate_distances(&g, 0, &a));
    }

    #[test]
    fn thread_counts_agree() {
        let g = rmat_undirected(9, 2);
        let a = bfs(&g, 1, 1);
        let b = bfs(&g, 1, 8);
        assert_eq!(a, b);
    }

    #[test]
    fn validator_rejects_wrong_labelling() {
        let g = sample();
        let mut d = bfs(&g, 0, 1);
        d[3] = 9; // break it
        assert!(!validate_distances(&g, 0, &d));
        let mut d2 = bfs(&g, 0, 1);
        d2[5] = 4; // unreachable marked reached
        assert!(!validate_distances(&g, 0, &d2));
    }

    #[test]
    fn cluster_matches_single_node() {
        let g = rmat_undirected(10, 11);
        let single = bfs(&g, 0, 2);
        for nodes in [1, 2, 4] {
            let (dist, report) = bfs_cluster(&g, 0, NativeOptions::all(), nodes).unwrap();
            assert_eq!(dist, single, "nodes={nodes}");
            assert!(report.sim_seconds > 0.0);
            if nodes > 1 {
                assert!(report.traffic.bytes_sent > 0);
            }
        }
    }

    #[test]
    fn cluster_compression_shrinks_traffic() {
        let g = rmat_undirected(11, 13);
        let mut on = NativeOptions::all();
        on.compression = true;
        let mut off = NativeOptions::all();
        off.compression = false;
        let (_, rep_on) = bfs_cluster(&g, 0, on, 4).unwrap();
        let (_, rep_off) = bfs_cluster(&g, 0, off, 4).unwrap();
        let factor = rep_off.traffic.bytes_sent as f64 / rep_on.traffic.bytes_sent as f64;
        // the paper reports ~3.2x net for BFS
        assert!(factor > 2.0, "BFS compression factor {factor}");
    }

    #[test]
    fn parents_form_valid_bfs_tree() {
        let g = rmat_undirected(10, 19);
        let (dist, parent) = bfs_with_parents(&g, 3);
        assert!(validate_parents(&g, 3, &dist, &parent));
        // distances agree with the parallel implementation
        assert_eq!(dist, bfs(&g, 3, 4));
    }

    #[test]
    fn parent_validator_rejects_corruption() {
        let g = sample();
        let (dist, mut parent) = bfs_with_parents(&g, 0);
        assert!(validate_parents(&g, 0, &dist, &parent));
        parent[4] = 0; // 0 is not a neighbor of 4
        assert!(!validate_parents(&g, 0, &dist, &parent));
        let (mut dist2, parent2) = bfs_with_parents(&g, 0);
        dist2[0] = 1; // source must be level 0
        assert!(!validate_parents(&g, 0, &dist2, &parent2));
    }

    #[test]
    fn empty_graph_and_singleton() {
        let g = UndirectedGraph::from_edges(1, &[]);
        let d = bfs(&g, 0, 2);
        assert_eq!(d, vec![0]);
        assert!(validate_distances(&g, 0, &d));
    }
}
