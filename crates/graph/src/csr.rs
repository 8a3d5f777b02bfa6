//! Compressed Sparse Row graph storage.
//!
//! CSR "allows for the edges to be stored as a single, contiguous array"
//! so that edge streams hit hardware prefetchers (paper §3.1). PageRank
//! stores **incoming** edges in CSR (each vertex pulls the ranks of its
//! in-neighbors); BFS and triangle counting use outgoing adjacency.

use crate::par::{default_threads, par_chunks_mut};
use crate::{EdgeList, VertexId, Weight, WeightedEdgeList};

/// A CSR adjacency structure: `targets[offsets[v]..offsets[v+1]]` are the
/// neighbors of vertex `v`.
///
/// ```
/// use graphmaze_graph::csr::Csr;
/// // the paper's Figure 2 graph
/// let g = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
/// assert_eq!(g.neighbors(1), &[2, 3]);
/// assert_eq!(g.transpose().neighbors(3), &[1, 2]); // in-edges of 3
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
}

impl Csr {
    /// Builds a CSR from directed edge tuples using a two-pass counting
    /// sort: one pass to histogram out-degrees, one to scatter targets.
    pub fn from_edges(num_vertices: u64, edges: &[(VertexId, VertexId)]) -> Self {
        let n = usize::try_from(num_vertices).expect("vertex count fits usize");
        let mut offsets = vec![0u64; n + 1];
        for &(s, _) in edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; edges.len()];
        for &(s, d) in edges {
            let c = &mut cursor[s as usize];
            targets[*c as usize] = d;
            *c += 1;
        }
        Csr { offsets, targets }
    }

    /// Builds a CSR whose every adjacency list is sorted ascending and
    /// duplicate-free from the directed pairs `pairs` yields (it is walked
    /// twice): a counting pass sizes the rows, a scatter fills them, and
    /// each row is sorted and deduplicated, compacting in place. The
    /// result equals [`Csr::from_edges`] over the sorted, deduplicated
    /// pair list, without sorting or copying that list. Rows are sorted on
    /// [`default_threads`] scoped threads; the result does not depend on
    /// their number.
    ///
    /// ```
    /// use graphmaze_graph::csr::Csr;
    /// let pairs = [(1, 3), (0, 2), (1, 0), (1, 3), (0, 1)];
    /// let g = Csr::from_pairs_dedup(4, pairs.iter().copied());
    /// assert_eq!(g.neighbors(0), &[1, 2]);
    /// assert_eq!(g.neighbors(1), &[0, 3]);
    /// assert_eq!(g.num_edges(), 4);
    /// ```
    pub fn from_pairs_dedup<I>(num_vertices: u64, pairs: I) -> Self
    where
        I: Iterator<Item = (VertexId, VertexId)> + Clone,
    {
        let n = usize::try_from(num_vertices).expect("vertex count fits usize");
        let mut offsets = vec![0u64; n + 1];
        pairs
            .clone()
            .for_each(|(s, _)| offsets[s as usize + 1] += 1);
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut targets = vec![0 as VertexId; offsets[n] as usize];
        pairs.for_each(|(s, d)| {
            let c = &mut cursor[s as usize];
            targets[*c as usize] = d;
            *c += 1;
        });
        // sort and dedup the rows in parallel (they are disjoint slices),
        // keeping each row's distinct count in `cursor`
        let mut rows = Vec::with_capacity(n);
        let mut rest = targets.as_mut_slice();
        for v in 0..n {
            let (row, tail) = rest.split_at_mut((offsets[v + 1] - offsets[v]) as usize);
            rows.push(row);
            rest = tail;
        }
        par_chunks_mut(&mut rows, SORT_BLOCK_ROWS, default_threads(), |_, block| {
            for row in block {
                row.sort_unstable();
                let kept = dedup_sorted(row);
                *row = &mut std::mem::take(row)[..kept];
            }
        });
        for (c, row) in cursor.iter_mut().zip(rows) {
            *c = row.len() as u64;
        }
        // slide each row's distinct prefix to the front
        let (mut start, mut kept) = (0usize, 0usize);
        for (v, &k) in cursor.iter().enumerate() {
            let k = k as usize;
            targets.copy_within(start..start + k, kept);
            start = offsets[v + 1] as usize;
            kept += k;
            offsets[v + 1] = kept as u64;
        }
        targets.truncate(kept);
        targets.shrink_to_fit();
        Csr { offsets, targets }
    }

    /// Builds a CSR from an [`EdgeList`] (interpreting tuples as directed).
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Csr::from_edges(el.num_vertices(), el.edges())
    }

    /// Rebuilds a CSR from raw parts (deserialization). Panics (debug) on
    /// violated invariants; use `graphmaze_graph::io::read_binary_csr`
    /// for validated input.
    pub fn from_parts(offsets: Vec<u64>, targets: Vec<VertexId>) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().expect("non-empty") as usize, targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Csr { offsets, targets }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// The offsets array (length `num_vertices + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The flat targets array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Returns the transposed graph (in-edges become out-edges).
    pub fn transpose(&self) -> Csr {
        let n = self.num_vertices();
        let mut offsets = vec![0u64; n + 1];
        for &d in &self.targets {
            offsets[d as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; self.targets.len()];
        for v in 0..n {
            for &d in self.neighbors(v as VertexId) {
                let c = &mut cursor[d as usize];
                targets[*c as usize] = v as VertexId;
                *c += 1;
            }
        }
        Csr { offsets, targets }
    }

    /// Sorts every adjacency list ascending. Sorted adjacency enables the
    /// linear-time set intersections Galois and native triangle counting
    /// rely on (paper §3.2).
    pub fn sort_neighbors(&mut self) {
        for v in 0..self.num_vertices() {
            let (a, b) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            self.targets[a..b].sort_unstable();
        }
    }

    /// True if every adjacency list is sorted ascending.
    pub fn neighbors_sorted(&self) -> bool {
        (0..self.num_vertices()).all(|v| {
            self.neighbors(v as VertexId)
                .windows(2)
                .all(|w| w[0] <= w[1])
        })
    }

    /// Binary-searches `v`'s (sorted) adjacency list for `target`.
    #[inline]
    pub fn has_edge_sorted(&self, v: VertexId, target: VertexId) -> bool {
        self.neighbors(v).binary_search(&target).is_ok()
    }

    /// Bytes of backing storage (offsets + targets).
    pub fn byte_size(&self) -> u64 {
        (self.offsets.len() * 8 + self.targets.len() * 4) as u64
    }

    /// Total degree histogram convenience: max out-degree.
    pub fn max_degree(&self) -> u32 {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }
}

/// Rows per block [`Csr::from_pairs_dedup`] hands a worker to sort.
const SORT_BLOCK_ROWS: usize = 1024;

/// Moves the distinct values of an ascending `row` to its front, in
/// order, and returns how many there are.
fn dedup_sorted(row: &mut [VertexId]) -> usize {
    let mut kept = 0;
    for i in 0..row.len() {
        if kept == 0 || row[i] != row[kept - 1] {
            row[kept] = row[i];
            kept += 1;
        }
    }
    kept
}

/// Counts the common elements of two ascending-sorted adjacency lists by
/// a linear merge — the set intersection triangle counting runs once per
/// oriented edge (paper §3.2), shared by the native kernel and every
/// engine so the kernel choice is a one-site change.
#[inline]
pub fn intersect_count(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut count) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// A reusable one-bit-per-vertex row bitmap — the §6.1.1 bit-vector lever
/// as a kernel: [`mark`](RowBitmap::mark) one adjacency list,
/// [`probe`](RowBitmap::probe) any number of others against it (each
/// returns what [`intersect_count`] would), then
/// [`unmark`](RowBitmap::unmark) the same list, which clears only the
/// words it set. Allocate one per run or per worker, never per row.
///
/// ```
/// use graphmaze_graph::{intersect_count, RowBitmap};
/// let mut marks = RowBitmap::new(100);
/// let (row, other) = ([3, 64, 99], [0, 3, 50, 99]);
/// marks.mark(&row);
/// assert_eq!(marks.probe(&other), intersect_count(&row, &other));
/// marks.unmark(&row);
/// assert_eq!(marks.probe(&other), 0);
/// ```
#[derive(Clone, Debug)]
pub struct RowBitmap {
    words: Vec<u64>,
}

impl RowBitmap {
    /// An all-clear bitmap over vertex ids `0..n`.
    pub fn new(n: usize) -> Self {
        RowBitmap {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Sets the bit of every id in `list`. Panics on an id `>= n`
    /// (rounded up to a whole word).
    #[inline]
    pub fn mark(&mut self, list: &[VertexId]) {
        for &v in list {
            self.words[(v >> 6) as usize] |= 1u64 << (v & 63);
        }
    }

    /// Number of ids in `list` whose bit is set — `count += bit`, no
    /// data-dependent branch. Equals `intersect_count(marked, list)` when
    /// `list` is duplicate-free.
    #[inline]
    pub fn probe(&self, list: &[VertexId]) -> u64 {
        list.iter().map(|&v| self.bit(v)).sum()
    }

    /// The bit of `v`, as 0 or 1.
    #[inline]
    pub fn bit(&self, v: VertexId) -> u64 {
        (self.words[(v >> 6) as usize] >> (v & 63)) & 1
    }

    /// Clears the words [`mark`](RowBitmap::mark) touched for `list`;
    /// after `mark(l); unmark(l)` the bitmap is all-clear again.
    #[inline]
    pub fn unmark(&mut self, list: &[VertexId]) {
        for &v in list {
            self.words[(v >> 6) as usize] = 0;
        }
    }
}

/// A CSR with a parallel weight per target (for ratings graphs).
#[derive(Clone, Debug, PartialEq)]
pub struct WeightedCsr {
    csr: Csr,
    weights: Vec<Weight>,
}

impl WeightedCsr {
    /// Builds a weighted CSR from weighted directed edges.
    pub fn from_edges(num_vertices: u64, edges: &[(VertexId, VertexId, Weight)]) -> Self {
        let n = usize::try_from(num_vertices).expect("vertex count fits usize");
        let mut offsets = vec![0u64; n + 1];
        for &(s, _, _) in edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; edges.len()];
        let mut weights = vec![0.0 as Weight; edges.len()];
        for &(s, d, w) in edges {
            let c = &mut cursor[s as usize];
            targets[*c as usize] = d;
            weights[*c as usize] = w;
            *c += 1;
        }
        WeightedCsr {
            csr: Csr { offsets, targets },
            weights,
        }
    }

    /// Builds from a [`WeightedEdgeList`].
    pub fn from_edge_list(el: &WeightedEdgeList) -> Self {
        WeightedCsr::from_edges(el.num_vertices(), el.edges())
    }

    /// The unweighted structure.
    #[inline]
    pub fn structure(&self) -> &Csr {
        &self.csr
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.csr.num_edges()
    }

    /// Neighbor ids of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.csr.neighbors(v)
    }

    /// Weights parallel to [`WeightedCsr::neighbors`].
    #[inline]
    pub fn weights_of(&self, v: VertexId) -> &[Weight] {
        &self.weights
            [self.csr.offsets[v as usize] as usize..self.csr.offsets[v as usize + 1] as usize]
    }

    /// `(neighbor, weight)` pairs of `v`.
    pub fn edges_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.weights_of(v).iter().copied())
    }

    /// Bytes of backing storage.
    pub fn byte_size(&self) -> u64 {
        self.csr.byte_size() + (self.weights.len() * std::mem::size_of::<Weight>()) as u64
    }

    /// Returns the transpose with weights carried along.
    pub fn transpose(&self) -> WeightedCsr {
        let n = self.num_vertices();
        let mut edges = Vec::with_capacity(self.weights.len());
        for v in 0..n {
            for (d, w) in self.edges_of(v as VertexId) {
                edges.push((d, v as VertexId, w));
            }
        }
        WeightedCsr::from_edges(n as u64, &edges)
    }
}

/// A directed graph holding both orientations: `out` (forward) and `inn`
/// (transpose). PageRank streams `inn`; traversals stream `out`.
#[derive(Clone, Debug)]
pub struct DirectedGraph {
    /// Forward adjacency (out-edges).
    pub out: Csr,
    /// Reverse adjacency (in-edges).
    pub inn: Csr,
}

impl DirectedGraph {
    /// Builds both orientations from directed edge tuples.
    pub fn from_edges(num_vertices: u64, edges: &[(VertexId, VertexId)]) -> Self {
        let out = Csr::from_edges(num_vertices, edges);
        let inn = out.transpose();
        DirectedGraph { out, inn }
    }

    /// Builds from an [`EdgeList`].
    pub fn from_edge_list(el: &EdgeList) -> Self {
        DirectedGraph::from_edges(el.num_vertices(), el.edges())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.out.num_edges()
    }

    /// Bytes of backing storage (both orientations).
    pub fn byte_size(&self) -> u64 {
        self.out.byte_size() + self.inn.byte_size()
    }
}

/// An undirected graph stored as a symmetric CSR (each undirected edge
/// appears in both adjacency lists).
#[derive(Clone, Debug)]
pub struct UndirectedGraph {
    /// Symmetric adjacency.
    pub adj: Csr,
}

impl UndirectedGraph {
    /// Builds from undirected edge tuples: each `(u, v)` contributes both
    /// `u → v` and `v → u` (self-loops contribute once).
    pub fn from_edges(num_vertices: u64, edges: &[(VertexId, VertexId)]) -> Self {
        let mut sym = Vec::with_capacity(edges.len() * 2);
        for &(s, d) in edges {
            sym.push((s, d));
            if s != d {
                sym.push((d, s));
            }
        }
        UndirectedGraph {
            adj: Csr::from_edges(num_vertices, &sym),
        }
    }

    /// Builds from an already-symmetrized [`EdgeList`] without duplicating.
    pub fn from_symmetric_edge_list(el: &EdgeList) -> Self {
        UndirectedGraph {
            adj: Csr::from_edge_list(el),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.num_vertices()
    }

    /// Number of undirected edges (half the stored directed count, plus
    /// self-loops counted once).
    #[inline]
    pub fn num_directed_edges(&self) -> u64 {
        self.adj.num_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fixtures::fig2_edges as fig2;
    use crate::rng::SmallRng;

    #[test]
    fn csr_matches_fig2_adjacency() {
        let g = Csr::from_edges(4, &fig2());
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[2, 3]);
        assert_eq!(g.neighbors(2), &[3]);
        assert_eq!(g.neighbors(3), &[] as &[u32]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn transpose_matches_fig2_in_edges() {
        let g = Csr::from_edges(4, &fig2());
        let t = g.transpose();
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(3), &[1, 2]);
        // double transpose is identity
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn csr_preserves_insertion_order_within_vertex() {
        let g = Csr::from_edges(3, &[(0, 2), (0, 1)]);
        assert_eq!(g.neighbors(0), &[2, 1]);
        let mut g = g;
        g.sort_neighbors();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.neighbors_sorted());
        assert!(g.has_edge_sorted(0, 2));
        assert!(!g.has_edge_sorted(0, 0));
    }

    #[test]
    fn intersect_count_merges_sorted_lists() {
        assert_eq!(intersect_count(&[], &[1, 2]), 0);
        assert_eq!(intersect_count(&[1, 3, 5, 7], &[2, 3, 4, 7, 9]), 2);
        assert_eq!(intersect_count(&[4, 8], &[4, 8]), 2);
        assert_eq!(intersect_count(&[1, 2], &[3, 4]), 0);
    }

    /// A random ascending duplicate-free id list over `0..n` that keeps
    /// each id with probability `keep`/256 and always considers the word
    /// boundaries and `n - 1`.
    fn random_row(rng: &mut SmallRng, n: u32, keep: u32) -> Vec<VertexId> {
        (0..n)
            .filter(|&v| {
                let edge = v % 64 == 0 || v % 64 == 63 || v == n - 1;
                (rng.below(256) as u32) < if edge { keep.max(128) } else { keep }
            })
            .collect()
    }

    #[test]
    fn row_bitmap_probe_equals_merge_and_unmark_leaves_no_bit() {
        let mut rng = SmallRng::seed_from_u64(23);
        for n in [1u32, 63, 64, 65, 4096] {
            let mut marks = RowBitmap::new(n as usize);
            for round in 0..200 {
                let keep = [2, 32, 128, 250][round % 4];
                let a = random_row(&mut rng, n, keep);
                let b = random_row(&mut rng, n, 64);
                marks.mark(&a);
                assert_eq!(marks.probe(&b), intersect_count(&a, &b), "n={n}");
                assert_eq!(marks.probe(&a), a.len() as u64, "n={n}");
                marks.unmark(&a);
                assert!(marks.words.iter().all(|&w| w == 0), "n={n} leaked a bit");
            }
        }
    }

    #[test]
    fn row_bitmap_reused_across_a_thousand_rows_never_leaks() {
        let mut rng = SmallRng::seed_from_u64(24);
        let n = 4096;
        let mut marks = RowBitmap::new(n as usize);
        let everyone: Vec<VertexId> = (0..n).collect();
        for _ in 0..1000 {
            let row = random_row(&mut rng, n, 8);
            marks.mark(&row);
            // exactly the marked ids answer, whatever earlier rows held
            assert_eq!(marks.probe(&everyone), row.len() as u64);
            marks.unmark(&row);
        }
        assert_eq!(marks.probe(&everyone), 0);
    }

    #[test]
    fn from_pairs_dedup_equals_sort_dedup_then_counting_sort() {
        let mut rng = SmallRng::seed_from_u64(25);
        for (n, m) in [(1u32, 5usize), (7, 0), (50, 400), (3000, 30000)] {
            let mut id = || rng.below(u64::from(n)) as VertexId;
            let pairs: Vec<(VertexId, VertexId)> = (0..m).map(|_| (id(), id())).collect();
            let mut sorted = pairs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let want = Csr::from_edges(u64::from(n), &sorted);
            let got = Csr::from_pairs_dedup(u64::from(n), pairs.iter().copied());
            assert_eq!(got, want, "n={n} m={m}");
        }
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn vertices_with_no_edges() {
        let g = Csr::from_edges(5, &[(2, 3)]);
        assert_eq!(g.neighbors(0), &[] as &[u32]);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
        assert_eq!(g.max_degree(), 1);
    }

    #[test]
    fn weighted_csr_carries_weights() {
        let w = WeightedCsr::from_edges(3, &[(0, 1, 5.0), (0, 2, 2.5), (2, 0, 1.0)]);
        assert_eq!(w.neighbors(0), &[1, 2]);
        assert_eq!(w.weights_of(0), &[5.0, 2.5]);
        let pairs: Vec<_> = w.edges_of(0).collect();
        assert_eq!(pairs, vec![(1, 5.0), (2, 2.5)]);
        assert_eq!(w.num_edges(), 3);
    }

    #[test]
    fn weighted_transpose_preserves_weights() {
        let w = WeightedCsr::from_edges(3, &[(0, 1, 5.0), (2, 1, 7.0)]);
        let t = w.transpose();
        let mut pairs: Vec<_> = t.edges_of(1).collect();
        pairs.sort_by_key(|p| p.0);
        assert_eq!(pairs, vec![(0, 5.0), (2, 7.0)]);
    }

    #[test]
    fn directed_graph_both_orientations() {
        let g = DirectedGraph::from_edges(4, &fig2());
        assert_eq!(g.out.neighbors(0), &[1, 2]);
        assert_eq!(g.inn.neighbors(3), &[1, 2]);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn undirected_graph_symmetric() {
        let g = UndirectedGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.adj.neighbors(1), &[0, 2]);
        assert_eq!(g.num_directed_edges(), 4);
    }

    #[test]
    fn undirected_self_loop_counted_once() {
        let g = UndirectedGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.adj.neighbors(0), &[0, 1]);
        assert_eq!(g.num_directed_edges(), 3);
    }

    #[test]
    fn byte_size_accounts_offsets_and_targets() {
        let g = Csr::from_edges(4, &fig2());
        assert_eq!(g.byte_size(), 5 * 8 + 5 * 4);
    }
}
