//! Graph partitioning schemes (§6.1.1 "Partitioning schemes").
//!
//! * [`Partition1D`] — vertex partitioning "so that each node has roughly
//!   the same number of edges" (§3.1): contiguous vertex ranges balanced
//!   by edge count. Used by native, GraphLab, SociaLite and Giraph.
//! * [`Partition2D`] — CombBLAS's edge partitioning: a √P × √P process
//!   grid over blocks of the adjacency matrix.
//!
//! GraphLab's "advanced partitioning scheme where some nodes with large
//! degree are duplicated in multiple nodes" (§6.1.1) is not a partition
//! here: the vertex engine (`graphmaze_engines::vertex::engine`) keeps the
//! 1-D partition and replicates hubs as it delivers messages.

use graphmaze_graph::csr::Csr;
use graphmaze_graph::VertexId;

/// 1-D contiguous vertex partition balanced by edge count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition1D {
    /// `bounds[i]..bounds[i+1]` are the vertices of node `i`.
    bounds: Vec<VertexId>,
}

impl Partition1D {
    /// Splits `0..num_vertices` into `nodes` contiguous ranges with nearly
    /// equal total degree, using the CSR offsets array (degree prefix sums).
    pub fn balanced_by_edges(csr: &Csr, nodes: usize) -> Self {
        assert!(nodes >= 1, "need at least one node");
        let n = csr.num_vertices();
        let total = csr.num_edges();
        // Degenerate regimes used to collapse silently: with `nodes ≥ n`
        // (or an edgeless graph) every intermediate target rounds to
        // zero, all bounds stick at 0 and the *last* part ends up owning
        // the whole graph while the rest idle. Distribute one vertex per
        // part (resp. equal vertex ranges) instead, with the surplus
        // parts explicitly empty at the end — `empty_parts` names them.
        if nodes >= n {
            let bounds = (0..=nodes).map(|k| k.min(n) as VertexId).collect();
            return Partition1D { bounds };
        }
        if total == 0 {
            return Self::balanced_by_vertices(n, nodes);
        }
        let offsets = csr.offsets();
        let mut bounds = Vec::with_capacity(nodes + 1);
        bounds.push(0 as VertexId);
        for k in 1..nodes {
            let target = total * k as u64 / nodes as u64;
            // first vertex whose prefix-degree exceeds the target
            let idx = offsets.partition_point(|&o| o < target);
            let idx = idx.min(n) as VertexId;
            let last = *bounds.last().expect("non-empty");
            bounds.push(idx.max(last));
        }
        bounds.push(n as VertexId);
        Partition1D { bounds }
    }

    /// Splits by equal vertex counts (the naive scheme, for ablation).
    pub fn balanced_by_vertices(num_vertices: usize, nodes: usize) -> Self {
        assert!(nodes >= 1, "need at least one node");
        let per = num_vertices.div_ceil(nodes);
        let mut bounds = Vec::with_capacity(nodes + 1);
        for k in 0..=nodes {
            bounds.push(((k * per).min(num_vertices)) as VertexId);
        }
        Partition1D { bounds }
    }

    /// Number of parts.
    pub fn nodes(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Owner node of vertex `v`.
    #[inline]
    pub fn owner(&self, v: VertexId) -> usize {
        // bounds is sorted; find the last bound <= v
        debug_assert!(v < *self.bounds.last().expect("non-empty") || self.bounds.len() == 1);
        match self.bounds.binary_search(&v) {
            Ok(mut i) => {
                // v may equal several identical bounds (empty parts); the
                // owning part is the one whose range starts at v and is
                // non-empty — step forward past empties.
                while i + 1 < self.bounds.len() - 1 && self.bounds[i + 1] == v {
                    i += 1;
                }
                i.min(self.nodes() - 1)
            }
            Err(i) => i - 1,
        }
    }

    /// Vertex range of node `i`.
    #[inline]
    pub fn range(&self, node: usize) -> std::ops::Range<VertexId> {
        self.bounds[node]..self.bounds[node + 1]
    }

    /// Number of vertices on node `i`.
    pub fn len(&self, node: usize) -> usize {
        (self.bounds[node + 1] - self.bounds[node]) as usize
    }

    /// True if node `i` owns no vertices.
    pub fn is_empty(&self, node: usize) -> bool {
        self.len(node) == 0
    }

    /// Sum of degrees (edge count) owned by node `i` under `csr`.
    pub fn edges_of(&self, csr: &Csr, node: usize) -> u64 {
        let r = self.range(node);
        csr.offsets()[r.end as usize] - csr.offsets()[r.start as usize]
    }

    /// Whether any part owns no vertices (guaranteed when there are more
    /// parts than vertices).
    pub fn has_empty_parts(&self) -> bool {
        (0..self.nodes()).any(|k| self.is_empty(k))
    }

    /// The parts that own no vertices, in index order. Empty parts are
    /// explicit zero-width ranges: they appear in `range`/`len`, and
    /// [`Partition1D::owner`] never resolves a vertex to one.
    pub fn empty_parts(&self) -> Vec<usize> {
        (0..self.nodes()).filter(|&k| self.is_empty(k)).collect()
    }
}

/// Splits items `0..loads.len()` into `weights.len()` contiguous parts
/// whose *load* shares are proportional to `weights`: cut `k` lands at
/// the first item whose load prefix reaches
/// `total_load · (w₀+…+w_k)/Σw`. This is the simulator's elastic
/// placement of logical partitions onto heterogeneous physical nodes
/// (items = logical partitions, loads = their edge counts, weights =
/// capacity weights).
///
/// Negative weights count as zero (an empty part); if all weights are
/// zero, or the total load is zero, items are split by count instead.
/// The returned bounds vector has `weights.len() + 1` monotone entries
/// starting at 0 and ending at `loads.len()` — parts may be empty, never
/// overlapping. Pure arithmetic on the inputs: deterministic on any
/// thread count.
pub fn weighted_bounds(loads: &[u64], weights: &[f64]) -> Vec<usize> {
    assert!(!weights.is_empty(), "need at least one part");
    let parts = weights.len();
    let total_w: f64 = weights.iter().map(|w| w.max(0.0)).sum();
    let mut prefix: Vec<u64> = Vec::with_capacity(loads.len() + 1);
    prefix.push(0);
    for &l in loads {
        prefix.push(prefix.last().expect("non-empty") + l);
    }
    if *prefix.last().expect("non-empty") == 0 {
        // zero total load: split by item count
        prefix = (0..=loads.len() as u64).collect();
    }
    let total = *prefix.last().expect("non-empty");
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0usize);
    let mut cum_w = 0.0;
    for (k, w) in weights.iter().enumerate().take(parts - 1) {
        cum_w += w.max(0.0);
        let target = if total_w > 0.0 {
            (total as f64 * (cum_w / total_w)).round() as u64
        } else {
            // all-zero weights: equal shares
            total * (k as u64 + 1) / parts as u64
        };
        let idx = prefix.partition_point(|&o| o < target).min(loads.len());
        let last = *bounds.last().expect("non-empty");
        bounds.push(idx.max(last));
    }
    bounds.push(loads.len());
    bounds
}

/// 2-D block partition over a `pr × pc` process grid (CombBLAS).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition2D {
    /// Grid rows.
    pub pr: usize,
    /// Grid columns.
    pub pc: usize,
    /// Matrix dimension (vertex count).
    pub n: u64,
}

impl Partition2D {
    /// A square grid of `nodes` processes; `nodes` must be a perfect
    /// square (CombBLAS "requires the total number of processes to be a
    /// square", §4.3).
    pub fn square(nodes: usize, num_vertices: u64) -> Result<Self, String> {
        let side = (nodes as f64).sqrt().round() as usize;
        if side * side != nodes {
            return Err(format!(
                "CombBLAS requires a square process count, got {nodes}"
            ));
        }
        Ok(Partition2D {
            pr: side,
            pc: side,
            n: num_vertices,
        })
    }

    /// The most-square `pr × pc` grid with `pr · pc == nodes`
    /// (`pr ≤ pc`). Used when the runner must place CombBLAS on a
    /// non-square node count, as the paper does by adjusting process
    /// counts (§4.3).
    pub fn nearly_square(nodes: usize, num_vertices: u64) -> Self {
        assert!(nodes >= 1, "need at least one process");
        let mut pr = (nodes as f64).sqrt().floor() as usize;
        while pr > 1 && !nodes.is_multiple_of(pr) {
            pr -= 1;
        }
        Partition2D {
            pr,
            pc: nodes / pr,
            n: num_vertices,
        }
    }

    /// Rows per block (ceiling).
    #[inline]
    pub fn rows_per_block(&self) -> u64 {
        self.n.div_ceil(self.pr as u64)
    }

    /// Cols per block (ceiling).
    #[inline]
    pub fn cols_per_block(&self) -> u64 {
        self.n.div_ceil(self.pc as u64)
    }

    /// Owner process (grid-row-major) of matrix entry `(u, v)` — i.e. edge
    /// `u → v`.
    #[inline]
    pub fn owner(&self, u: VertexId, v: VertexId) -> usize {
        let br = (u64::from(u) / self.rows_per_block()) as usize;
        let bc = (u64::from(v) / self.cols_per_block()) as usize;
        br * self.pc + bc
    }

    /// Grid coordinates of process `p`.
    #[inline]
    pub fn coords(&self, p: usize) -> (usize, usize) {
        (p / self.pc, p % self.pc)
    }

    /// Process at grid coordinates `(r, c)` — the inverse of
    /// [`Partition2D::coords`].
    #[inline]
    pub fn node_at(&self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.pr && c < self.pc);
        r * self.pc + c
    }

    /// Total processes.
    pub fn nodes(&self) -> usize {
        self.pr * self.pc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> Csr {
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        Csr::from_edges(u64::from(n), &edges)
    }

    #[test]
    fn one_d_by_edges_covers_all_vertices_disjointly() {
        let g = path_graph(100);
        let p = Partition1D::balanced_by_edges(&g, 7);
        assert_eq!(p.nodes(), 7);
        let mut seen = 0u32;
        for node in 0..7 {
            let r = p.range(node);
            assert_eq!(r.start, seen);
            seen = r.end;
        }
        assert_eq!(seen, 100);
        for v in 0..100u32 {
            let o = p.owner(v);
            assert!(
                p.range(o).contains(&v),
                "owner({v})={o} range {:?}",
                p.range(o)
            );
        }
    }

    #[test]
    fn one_d_balances_skewed_degrees() {
        // vertex 0 is a hub with 1000 edges; 1000 other vertices have 1 edge.
        let mut edges: Vec<(u32, u32)> = (1..=1000).map(|v| (0, v)).collect();
        edges.extend((1..=1000).map(|v| (v, 0)));
        let g = Csr::from_edges(1001, &edges);
        let p = Partition1D::balanced_by_edges(&g, 4);
        // node 0 should hold ~the hub only; its edge share near 1/4 of 2000
        let e0 = p.edges_of(&g, 0);
        assert!((500..=1100).contains(&e0), "hub node edges {e0}");
        // remaining nodes share the rest roughly evenly
        let total: u64 = (0..4).map(|k| p.edges_of(&g, k)).sum();
        assert_eq!(total, 2000);
    }

    #[test]
    fn one_d_by_vertices_even_ranges() {
        let p = Partition1D::balanced_by_vertices(10, 3);
        assert_eq!(p.range(0), 0..4);
        assert_eq!(p.range(1), 4..8);
        assert_eq!(p.range(2), 8..10);
        assert_eq!(p.owner(9), 2);
        assert_eq!(p.owner(0), 0);
    }

    #[test]
    fn one_d_single_node_owns_everything() {
        let g = path_graph(10);
        let p = Partition1D::balanced_by_edges(&g, 1);
        assert_eq!(p.range(0), 0..10);
        assert_eq!(p.owner(5), 0);
    }

    #[test]
    fn one_d_more_nodes_than_vertices() {
        let p = Partition1D::balanced_by_vertices(2, 5);
        let owners: Vec<usize> = (0..2u32).map(|v| p.owner(v)).collect();
        for (v, &o) in owners.iter().enumerate() {
            assert!(p.range(o).contains(&(v as u32)));
        }
        let covered: usize = (0..5).map(|k| p.len(k)).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn two_d_square_grid() {
        let p = Partition2D::square(4, 100).unwrap();
        assert_eq!((p.pr, p.pc), (2, 2));
        assert_eq!(p.rows_per_block(), 50);
        assert_eq!(p.owner(0, 0), 0);
        assert_eq!(p.owner(0, 99), 1);
        assert_eq!(p.owner(99, 0), 2);
        assert_eq!(p.owner(99, 99), 3);
        assert_eq!(p.coords(3), (1, 1));
    }

    #[test]
    fn two_d_rejects_non_square() {
        assert!(Partition2D::square(3, 10).is_err());
        assert!(Partition2D::square(9, 10).is_ok());
    }

    #[test]
    fn two_d_every_edge_has_one_owner() {
        let p = Partition2D::square(9, 30).unwrap();
        for u in 0..30u32 {
            for v in 0..30u32 {
                let o = p.owner(u, v);
                assert!(o < 9);
                let (r, c) = p.coords(o);
                assert_eq!(u64::from(u) / p.rows_per_block(), r as u64);
                assert_eq!(u64::from(v) / p.cols_per_block(), c as u64);
            }
        }
    }

    #[test]
    fn nearly_square_covers_all_node_counts() {
        for nodes in 1..=64 {
            let p = Partition2D::nearly_square(nodes, 100);
            assert_eq!(p.pr * p.pc, nodes, "nodes={nodes}");
            assert!(p.pr <= p.pc);
        }
        let p = Partition2D::nearly_square(8, 100);
        assert_eq!((p.pr, p.pc), (2, 4));
    }

    #[test]
    fn one_d_by_edges_more_nodes_than_vertices_distributes() {
        // 2 vertices, 1 edge, 5 nodes: every intermediate edge target
        // rounds to zero — the old code put *everything* on node 4.
        let g = path_graph(2);
        let p = Partition1D::balanced_by_edges(&g, 5);
        assert_eq!(p.nodes(), 5);
        assert_eq!(p.len(0), 1);
        assert_eq!(p.len(1), 1);
        assert_eq!(p.empty_parts(), vec![2, 3, 4]);
        assert!(p.has_empty_parts());
        // every vertex still has exactly one owner
        for v in 0..2u32 {
            assert!(p.range(p.owner(v)).contains(&v));
        }
        let covered: usize = (0..5).map(|k| p.len(k)).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn one_d_by_edges_nodes_equal_vertices() {
        let g = path_graph(4);
        let p = Partition1D::balanced_by_edges(&g, 4);
        for k in 0..4 {
            assert_eq!(p.len(k), 1, "part {k}");
        }
        assert!(!p.has_empty_parts());
        assert!(p.empty_parts().is_empty());
    }

    #[test]
    fn one_d_by_edges_edgeless_graph_splits_by_vertices() {
        let g = Csr::from_edges(10, &[]);
        let p = Partition1D::balanced_by_edges(&g, 3);
        let covered: usize = (0..3).map(|k| p.len(k)).sum();
        assert_eq!(covered, 10);
        // no part holds everything
        for k in 0..3 {
            assert!(p.len(k) <= 4, "part {k} has {}", p.len(k));
        }
    }

    #[test]
    fn dense_partitions_have_no_empty_parts() {
        let g = path_graph(100);
        let p = Partition1D::balanced_by_edges(&g, 7);
        assert!(!p.has_empty_parts());
    }

    #[test]
    fn weighted_bounds_equal_weights_balances() {
        let loads = vec![1u64; 12];
        let b = weighted_bounds(&loads, &[1.0, 1.0, 1.0]);
        assert_eq!(b, vec![0, 4, 8, 12]);
    }

    #[test]
    fn weighted_bounds_half_weight_gets_half_load() {
        // 3 parts, middle one at half capacity: shares 2:1:2
        let loads = vec![1u64; 10];
        let b = weighted_bounds(&loads, &[1.0, 0.5, 1.0]);
        assert_eq!(b.len(), 4);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 10);
        let shares: Vec<usize> = (0..3).map(|k| b[k + 1] - b[k]).collect();
        assert_eq!(shares, vec![4, 2, 4]);
    }

    #[test]
    fn weighted_bounds_zero_weight_part_is_empty() {
        let loads = vec![5u64, 5, 5, 5];
        let b = weighted_bounds(&loads, &[1.0, 0.0, 1.0]);
        assert_eq!(b[1], b[2], "zero-weight part must be empty");
        assert_eq!(b[0], 0);
        assert_eq!(b[3], 4);
    }

    #[test]
    fn weighted_bounds_degenerate_inputs() {
        // all-zero weights: equal shares
        let b = weighted_bounds(&[1, 1, 1, 1], &[0.0, 0.0]);
        assert_eq!(b, vec![0, 2, 4]);
        // zero total load: split by count
        let b = weighted_bounds(&[0, 0, 0, 0], &[1.0, 1.0]);
        assert_eq!(b, vec![0, 2, 4]);
        // no items: all parts empty
        let b = weighted_bounds(&[], &[1.0, 1.0, 1.0]);
        assert_eq!(b, vec![0, 0, 0, 0]);
        // negative weight counts as zero
        let b = weighted_bounds(&[1, 1], &[-3.0, 1.0]);
        assert_eq!(b, vec![0, 0, 2]);
    }
}
