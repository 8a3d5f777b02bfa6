//! Hand-optimized triangle counting (paper §2 eq. (3), §3.2, §6.1).
//!
//! Native algorithm per the paper: every vertex "shares its neighborhood
//! list with each of its neighbors", each vertex intersects received
//! lists with its own. Edges are pre-oriented into a DAG (smaller id →
//! larger id, §4.1.2) so each triangle is counted exactly once. Adjacency
//! lists are sorted for linear-time merge intersection; the bit-vector
//! lever (§6.1.1, worth ~2.2×) replaces the merge by constant-time
//! membership probes: mark `N+(u)` in a per-worker [`RowBitmap`], probe
//! every `N+(v)`, unmark. The simulated cost of a row is a closed form
//! over degrees, so the host counts every row through the bitmap while
//! the cost model still charges only hub rows as probes.

use std::sync::atomic::{AtomicU64, Ordering};

use graphmaze_cluster::compress::encode_best;
use graphmaze_cluster::{ClusterSpec, Partition1D, Router, Sim, SimError};
use graphmaze_graph::csr::Csr;
use graphmaze_graph::par::par_tasks;
use graphmaze_graph::{intersect_count, BitVec, EdgeList, RowBitmap, VertexId};
use graphmaze_metrics::{RunReport, Work};

use crate::common::{edge_stream_work, NativeOptions};

/// Degree above which a vertex's row is *charged* as bit-vector probes
/// rather than as a merge stream (a cost-model input; the host kernel
/// does not consult it).
const BITVEC_DEGREE_THRESHOLD: u32 = 256;

/// Oriented edges per dynamically claimed block of rows: small enough
/// that two workers split a power-law graph evenly, large enough that the
/// shared cursor is touched once per few thousand probes.
const ROW_BLOCK_EDGES: u64 = 2048;

/// Orients edges from smaller to larger vertex id (dropping self-loops
/// and duplicates) and returns a sorted-adjacency CSR — the preprocessing
/// the paper applies to make "the implementations efficient on all
/// frameworks" (§4.1.2).
pub fn orient_and_sort(el: &EdgeList) -> Csr {
    let oriented = el
        .edges()
        .iter()
        .filter(|&&(s, d)| s != d)
        .map(|&(s, d)| (s.min(d), s.max(d)));
    Csr::from_pairs_dedup(el.num_vertices(), oriented)
}

/// Counts the triangles of a DAG-oriented, sorted-adjacency CSR:
/// `|N+(u) ∩ N+(v)|` summed over every edge `(u, v)`.
pub fn triangles(g: &Csr, threads: usize) -> u64 {
    triangles_with(g, threads, true)
}

/// Triangle counting with the bit-vector lever controllable: on, every
/// row is marked once in the worker's [`RowBitmap`] and its neighbors'
/// lists are probed against it; off, every pair is merge-intersected
/// (the reference the Fig 7 ablation and the benches compare against).
/// Workers claim blocks of consecutive rows holding about
/// `ROW_BLOCK_EDGES` oriented edges each, so the split follows edges,
/// not vertices.
pub fn triangles_with(g: &Csr, threads: usize, use_bitvector: bool) -> u64 {
    debug_assert!(g.neighbors_sorted(), "adjacency must be sorted");
    let n = g.num_vertices();
    let row_starts = &g.offsets()[..n];
    let cursor = AtomicU64::new(0);
    let worker = |_| {
        let mut marks = RowBitmap::new(n);
        let mut count = 0u64;
        loop {
            let lo = cursor.fetch_add(ROW_BLOCK_EDGES, Ordering::Relaxed);
            if lo >= g.num_edges() {
                return count;
            }
            // the rows whose first edge falls in this block
            let first = row_starts.partition_point(|&o| o < lo);
            let last = row_starts.partition_point(|&o| o < lo + ROW_BLOCK_EDGES);
            for u in first..last {
                let nu = g.neighbors(u as VertexId);
                if use_bitvector {
                    marks.mark(nu);
                    for &v in nu {
                        count += marks.probe(g.neighbors(v));
                    }
                    marks.unmark(nu);
                } else {
                    for &v in nu {
                        count += intersect_count(nu, g.neighbors(v));
                    }
                }
            }
        }
    };
    let blocks = g.num_edges().div_ceil(ROW_BLOCK_EDGES) as usize;
    par_tasks(threads.clamp(1, blocks.max(1)), worker)
        .into_iter()
        .sum()
}

/// Brute-force triangle count over all vertex triples — the O(n³) oracle
/// for tests.
pub fn triangles_brute_force(edges: &[(VertexId, VertexId)], n: usize) -> u64 {
    let mut adj = vec![BitVec::new(n); n];
    for &(s, d) in edges {
        if s != d {
            adj[s as usize].set(d as usize);
            adj[d as usize].set(s as usize);
        }
    }
    let mut count = 0u64;
    for i in 0..n {
        for j in (i + 1)..n {
            if !adj[i].get(j) {
                continue;
            }
            for k in (j + 1)..n {
                if adj[i].get(k) && adj[j].get(k) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// The number of BSP phases the native code splits the neighbor-list
/// exchange into when overlap is enabled (bounds buffer memory, §6.1.1).
const EXCHANGE_PHASES: usize = 16;

/// Distributed triangle counting on the simulated cluster. Returns the
/// exact count (equal to [`triangles`]) and the run report. Fails with
/// [`SimError::OutOfMemory`] if message buffering exceeds node capacity —
/// which is precisely what the paper reports for naive whole-exchange
/// implementations on large graphs.
pub fn triangles_cluster(
    g: &Csr,
    opts: NativeOptions,
    nodes: usize,
) -> Result<(u64, RunReport), SimError> {
    debug_assert!(g.neighbors_sorted(), "adjacency must be sorted");
    let mut sim = Sim::new(ClusterSpec::paper(nodes), opts.profile());
    let n = g.num_vertices();
    let part = Partition1D::balanced_by_edges(g, nodes);

    for node in 0..nodes {
        let local_edges = part.edges_of(g, node);
        sim.alloc(
            node,
            local_edges * 4 + part.len(node) as u64 * 8,
            "tc:graph",
        )?;
    }

    // Which remote adjacency lists does each node need? v is needed by
    // node c when v ∈ N+(u) for some u owned by c.
    let mut needed: Vec<Vec<VertexId>> = vec![Vec::new(); nodes];
    for node in 0..nodes {
        let r = part.range(node);
        let mut ids: Vec<VertexId> = (r.start..r.end)
            .flat_map(|u| g.neighbors(u).iter().copied())
            .filter(|&v| part.owner(v) != node)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        needed[node] = ids;
    }

    // Exchange: owners ship each requested adjacency list once per
    // consumer. Buffer memory is the whole inbound volume, unless overlap
    // is on and the exchange is phased (§6.1.1 "blocking of a very large
    // message into multiple smaller ones").
    for consumer in 0..nodes {
        let mut inbound_bytes = 0u64;
        // batch all lists from one owner into a single bulk message
        let mut per_owner: Vec<(u64, u64)> = vec![(0, 0); nodes]; // (wire, raw)
        for &v in &needed[consumer] {
            let owner = part.owner(v);
            let deg = g.degree(v) as u64;
            let raw = 4 + deg * 4;
            let wire = if opts.compression {
                4 + encode_best(g.neighbors(v), n as u64).len() as u64
            } else {
                raw
            };
            per_owner[owner].0 += wire;
            per_owner[owner].1 += raw;
            inbound_bytes += raw;
        }
        let mut router = Router::new(nodes, sim.profile());
        for (owner, &(wire, raw)) in per_owner.iter().enumerate() {
            if wire > 0 {
                router.send(&mut sim, owner, consumer, wire, raw);
            }
        }
        router.flush(&mut sim);
        let buffer = if opts.overlap {
            inbound_bytes / EXCHANGE_PHASES as u64 + 1
        } else {
            inbound_bytes
        };
        sim.alloc(consumer, buffer, "tc:inbound-lists")?;
    }

    // Local counting, charged per owner node from degree sums alone: a
    // hub row costs one probe per neighbor-list entry, any other row
    // streams both lists of every pair.
    sim.phase("tc:exchange+count");
    for node in 0..nodes {
        let r = part.range(node);
        let mut stream_edges = 0u64;
        let mut probes = 0u64;
        for u in r.start..r.end {
            let du = u64::from(g.degree(u));
            let neighbor_degrees: u64 =
                g.neighbors(u).iter().map(|&v| u64::from(g.degree(v))).sum();
            if opts.bitvector && du >= u64::from(BITVEC_DEGREE_THRESHOLD) {
                probes += neighbor_degrees;
            } else {
                stream_edges += du * du + neighbor_degrees;
            }
        }
        // Merge scans stream both lists; probe strategy costs one random
        // access per probe; without the bit-vector lever probes double
        // (word-sized flags, worse cache behaviour).
        let probe_factor = if opts.bitvector { 1 } else { 2 };
        let mut w = edge_stream_work(stream_edges, 1);
        w.accumulate(Work::random(probes * probe_factor));
        sim.charge(node, w);
    }
    sim.end_step()?;
    sim.end_iteration();
    // the real computation: what is counted never depended on who owns it
    Ok((triangles_with(g, 1, true), sim.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmaze_datagen::{rmat, RmatConfig, RmatParams};

    fn k4() -> EdgeList {
        // complete graph on 4 vertices: 4 triangles
        EdgeList::from_edges(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    fn rmat_el(scale: u32, seed: u64) -> EdgeList {
        let cfg = RmatConfig {
            scale,
            edge_factor: 8,
            params: RmatParams::TRIANGLE,
            seed,
            scramble_ids: false,
            threads: 1,
        };
        rmat::generate(&cfg)
    }

    #[test]
    fn paper_fig2_example_has_two_triangles() {
        // §3.2: the CombBLAS example counts nnz(A ∩ A²) = 2 for Figure 2.
        let el = EdgeList::from_edges(4, vec![(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]).unwrap();
        let g = orient_and_sort(&el);
        assert_eq!(triangles(&g, 1), 2);
    }

    #[test]
    fn k4_has_four_triangles() {
        let g = orient_and_sort(&k4());
        assert_eq!(triangles(&g, 2), 4);
    }

    #[test]
    fn triangle_free_graph_counts_zero() {
        // a star has no triangles
        let el = EdgeList::from_edges(6, vec![(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]).unwrap();
        let g = orient_and_sort(&el);
        assert_eq!(triangles(&g, 2), 0);
    }

    #[test]
    fn matches_brute_force_on_rmat() {
        let el = rmat_el(8, 5);
        let g = orient_and_sort(&el);
        let fast = triangles(&g, 4);
        let brute = triangles_brute_force(el.edges(), el.num_vertices() as usize);
        assert_eq!(fast, brute);
    }

    #[test]
    fn bitvector_lever_does_not_change_count() {
        let el = rmat_el(10, 9);
        let g = orient_and_sort(&el);
        assert_eq!(triangles_with(&g, 4, true), triangles_with(&g, 4, false));
    }

    /// One oriented row far above the charge threshold (vertex 0 sees
    /// everyone), one long row below it (vertex 1 sees every even id)
    /// and a sparse band closing triangles through both.
    fn hub_el() -> EdgeList {
        let n: u32 = 320;
        let mut edges: Vec<(VertexId, VertexId)> = (1..n).map(|v| (0, v)).collect();
        edges.extend((2..n).step_by(2).map(|v| (v, 1)));
        for v in 2..n {
            edges.extend(
                [1, 5, 13]
                    .iter()
                    .filter(|&&d| v + d < n)
                    .map(|&d| (v, v + d)),
            );
        }
        EdgeList::from_edges(u64::from(n), edges).unwrap()
    }

    #[test]
    fn count_is_thread_count_and_lever_invariant() {
        for el in [hub_el(), rmat_el(11, 21)] {
            let g = orient_and_sort(&el);
            let want = triangles_with(&g, 1, false);
            for threads in [1, 2, 3, 8] {
                assert_eq!(triangles(&g, threads), want, "threads={threads}");
                assert_eq!(triangles_with(&g, threads, false), want);
            }
        }
        let hub = hub_el();
        let g = orient_and_sort(&hub);
        assert!(g.degree(0) >= BITVEC_DEGREE_THRESHOLD);
        assert_eq!(
            triangles(&g, 2),
            triangles_brute_force(hub.edges(), hub.num_vertices() as usize)
        );
    }

    #[test]
    fn empty_and_edgeless_graphs_count_zero() {
        for n in [0u64, 1, 100] {
            let g = orient_and_sort(&EdgeList::from_edges(n, vec![]).unwrap());
            for threads in [1, 4] {
                assert_eq!(triangles(&g, threads), 0);
                assert_eq!(triangles_with(&g, threads, false), 0);
            }
            if n > 0 {
                let (count, _) = triangles_cluster(&g, NativeOptions::all(), 1).unwrap();
                assert_eq!(count, 0);
            }
        }
    }

    #[test]
    fn orientation_handles_duplicates_and_loops() {
        let el =
            EdgeList::from_edges(3, vec![(0, 1), (1, 0), (1, 1), (1, 2), (2, 0), (0, 2)]).unwrap();
        let g = orient_and_sort(&el);
        assert_eq!(triangles(&g, 1), 1);
    }

    #[test]
    fn cluster_matches_single_node() {
        let el = rmat_el(10, 3);
        let g = orient_and_sort(&el);
        let single = triangles(&g, 2);
        let mut traffic = Vec::new();
        for nodes in [1, 2, 4] {
            let (count, report) = triangles_cluster(&g, NativeOptions::all(), nodes).unwrap();
            assert_eq!(count, single, "nodes={nodes}");
            if nodes > 1 {
                assert!(report.traffic.bytes_sent > 0);
            }
            traffic.push(report.traffic.bytes_uncompressed);
        }
        // neighbor-list traffic grows with node count (§2.1: total message
        // size for TC is much larger than the graph itself at scale)
        assert_eq!(traffic[0], 0);
        assert!(traffic[2] > traffic[1], "traffic {traffic:?}");
    }

    #[test]
    fn overlap_bounds_buffer_memory() {
        let el = rmat_el(11, 17);
        let g = orient_and_sort(&el);
        let mut on = NativeOptions::all();
        on.overlap = true;
        let mut off = NativeOptions::all();
        off.overlap = false;
        let (_, rep_on) = triangles_cluster(&g, on, 4).unwrap();
        let (_, rep_off) = triangles_cluster(&g, off, 4).unwrap();
        assert!(
            rep_on.peak_mem_bytes < rep_off.peak_mem_bytes,
            "{} !< {}",
            rep_on.peak_mem_bytes,
            rep_off.peak_mem_bytes
        );
    }
}
