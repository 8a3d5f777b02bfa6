//! The distributed sparse matrix and its kernels.
//!
//! A [`DistMatrix`] wraps a CSR with a √P × √P block decomposition
//! ([`Partition2D`]); kernels execute the real computation over the whole
//! matrix while charging each grid process for its block's share of work
//! and for the column-broadcast / row-reduce communication pattern of
//! 2-D SpMV.

use graphmaze_cluster::{Partition2D, Router, Sim, SimError};
use graphmaze_graph::csr::Csr;
use graphmaze_graph::{RowBitmap, VertexId};
use graphmaze_metrics::Work;

use super::semiring::Semiring;

/// A sparse matrix distributed over a square process grid. The matrix is
/// the graph's adjacency: entry `(u, v)` is edge `u → v`; numeric entry
/// values are supplied per-kernel (unweighted graphs use 1).
pub struct DistMatrix<'a> {
    csr: &'a Csr,
    grid: Partition2D,
    /// nnz of each grid block, for work charging.
    block_nnz: Vec<u64>,
}

impl<'a> DistMatrix<'a> {
    /// Wraps `csr` on a square grid of `nodes` processes. Fails if
    /// `nodes` is not a perfect square (CombBLAS requirement, §4.3).
    pub fn new(csr: &'a Csr, nodes: usize) -> Result<Self, SimError> {
        let grid = Partition2D::square(nodes, csr.num_vertices() as u64)
            .map_err(SimError::InvalidConfig)?;
        Ok(Self::on_grid(csr, grid))
    }

    /// Wraps `csr` on the most-square factorization of `nodes` — the
    /// paper sidesteps CombBLAS's square requirement by adjusting process
    /// counts per node (§4.3); this is the equivalent placement for node
    /// counts like 2, 8, 32.
    pub fn new_nearly_square(csr: &'a Csr, nodes: usize) -> Self {
        Self::on_grid(
            csr,
            Partition2D::nearly_square(nodes, csr.num_vertices() as u64),
        )
    }

    fn on_grid(csr: &'a Csr, grid: Partition2D) -> Self {
        let mut block_nnz = vec![0u64; grid.nodes()];
        for u in 0..csr.num_vertices() as u32 {
            for &v in csr.neighbors(u) {
                block_nnz[grid.owner(u, v)] += 1;
            }
        }
        DistMatrix {
            csr,
            grid,
            block_nnz,
        }
    }

    /// The underlying CSR.
    pub fn csr(&self) -> &Csr {
        self.csr
    }

    /// The process grid.
    pub fn grid(&self) -> Partition2D {
        self.grid
    }

    /// nnz of block `p`.
    pub fn block_nnz(&self, p: usize) -> u64 {
        self.block_nnz[p]
    }

    /// Processes in grid column `c` other than row `r` — the peer group
    /// of a column broadcast originating at `(r, c)`.
    pub(crate) fn column_peers(&self, r: usize, c: usize) -> Vec<usize> {
        (0..self.grid.pr)
            .filter(|&rr| rr != r)
            .map(|rr| self.grid.node_at(rr, c))
            .collect()
    }

    /// Processes in grid row `r` other than column `c` — the peer group
    /// of a SUMMA block circulation from `(r, c)`.
    pub(crate) fn row_peers(&self, r: usize, c: usize) -> Vec<usize> {
        (0..self.grid.pc)
            .filter(|&cc| cc != c)
            .map(|cc| self.grid.node_at(r, cc))
            .collect()
    }

    /// Charges every process for streaming its block plus per-entry
    /// arithmetic (`flops_per_nnz`).
    fn charge_blocks(&self, sim: &mut Sim, flops_per_nnz: u64, elem_bytes: u64) {
        for (p, &nnz) in self.block_nnz.iter().enumerate() {
            sim.charge(
                p,
                Work {
                    seq_bytes: nnz * (4 + elem_bytes),
                    rand_accesses: nnz,
                    flops: nnz * flops_per_nnz,
                },
            );
        }
    }

    /// Charges the 2-D SpMV communication pattern for a dense vector of
    /// `elem_bytes`-byte entries: the input vector is broadcast down each
    /// process column, partial outputs are reduced along each process row.
    fn charge_dense_vector_comm(&self, sim: &mut Sim, elem_bytes: u64) {
        let (pr, pc) = (self.grid.pr, self.grid.pc);
        if pr * pc <= 1 {
            return;
        }
        let mut router = Router::new(sim.nodes(), sim.profile());
        let x_seg = self.grid.cols_per_block() * elem_bytes;
        let y_seg = self.grid.rows_per_block() * elem_bytes;
        for p in 0..pr * pc {
            let (r, c) = self.grid.coords(p);
            // column broadcast originates at the diagonal process: one
            // x-segment to each other process in the column
            if r == c {
                router.scatter(
                    sim,
                    p,
                    &self.column_peers(r, c),
                    x_seg * (pr as u64 - 1),
                    x_seg * (pr as u64 - 1),
                );
            }
            // row reduction: off-diagonal processes send partial y to
            // their row's diagonal
            if r != c {
                router.send(sim, p, self.grid.node_at(r, r), y_seg, y_seg);
            }
        }
        router.flush(sim);
    }

    /// `y = Aᵀ x` over `semiring` with all matrix entries equal to
    /// `entry`: `y[v] = ⊕_{u→v} entry ⊗ x[u]`. Executed for real;
    /// charges block work plus dense-vector communication.
    pub fn spmv_transpose<T: Copy>(
        &self,
        sim: &mut Sim,
        x: &[T],
        entry: T,
        semiring: &Semiring<T>,
        elem_bytes: u64,
        flops_per_nnz: u64,
    ) -> Vec<T> {
        assert_eq!(x.len(), self.csr.num_vertices());
        let mut y = vec![semiring.zero; x.len()];
        for u in 0..x.len() as u32 {
            let xu = x[u as usize];
            for &v in self.csr.neighbors(u) {
                y[v as usize] = (semiring.add)(y[v as usize], (semiring.mul)(entry, xu));
            }
        }
        self.charge_blocks(sim, flops_per_nnz, elem_bytes);
        self.charge_dense_vector_comm(sim, elem_bytes);
        y
    }

    /// Sparse-vector product `y = Aᵀ x` where `x` is the sparse set
    /// `{(u, value)}` — the BFS kernel (paper eq. (10)). Returns the
    /// sparse result sorted by index. Work is proportional to the edges
    /// out of `x`'s support; communication to the support sizes.
    ///
    /// `compress_indices` turns on **bit-vector compression of the
    /// frontier indices** — the §6.2 roadmap item for CombBLAS BFS
    /// ("needs to use data structures such as bitvectors for compression
    /// in order to improve BFS performance"). The index sets are really
    /// encoded (delta or bitmap, whichever is smaller).
    #[allow(clippy::too_many_arguments)]
    pub fn spmspv_transpose<T: Copy>(
        &self,
        sim: &mut Sim,
        x: &[(VertexId, T)],
        entry: T,
        semiring: &Semiring<T>,
        elem_bytes: u64,
        compress_indices: bool,
    ) -> Vec<(VertexId, T)> {
        let mut acc: Vec<(VertexId, T)> = Vec::new();
        let mut per_block_edges = vec![0u64; self.grid.nodes()];
        for &(u, xu) in x {
            for &v in self.csr.neighbors(u) {
                acc.push((v, (semiring.mul)(entry, xu)));
                per_block_edges[self.grid.owner(u, v)] += 1;
            }
        }
        acc.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(VertexId, T)> = Vec::new();
        for (v, val) in acc {
            match out.last_mut() {
                Some((lv, lval)) if *lv == v => *lval = (semiring.add)(*lval, val),
                _ => out.push((v, val)),
            }
        }
        for (p, &e) in per_block_edges.iter().enumerate() {
            sim.charge(
                p,
                Work {
                    seq_bytes: e * (4 + elem_bytes),
                    rand_accesses: e,
                    flops: e * 2,
                },
            );
        }
        // frontier broadcast + sparse result exchange
        if self.grid.nodes() > 1 {
            let pr = self.grid.pr as u64;
            let index_bytes = |ids: &[VertexId]| -> u64 {
                if compress_indices && !ids.is_empty() {
                    let mut sorted: Vec<VertexId> = ids.to_vec();
                    sorted.sort_unstable();
                    sorted.dedup();
                    crate::spmv::matrix::encode_ids(&sorted, self.grid.n)
                } else {
                    ids.len() as u64 * 4
                }
            };
            let x_ids: Vec<VertexId> = x.iter().map(|&(v, _)| v).collect();
            let out_ids: Vec<VertexId> = out.iter().map(|&(v, _)| v).collect();
            let in_bytes = index_bytes(&x_ids) + x.len() as u64 * elem_bytes;
            let in_raw = x.len() as u64 * (4 + elem_bytes);
            let out_bytes = index_bytes(&out_ids) + out.len() as u64 * elem_bytes;
            let out_raw = out.len() as u64 * (4 + elem_bytes);
            let mut router = Router::new(sim.nodes(), sim.profile());
            for p in 0..self.grid.nodes() {
                let (r, c) = self.grid.coords(p);
                // frontier broadcast down the process column
                if r == c {
                    router.scatter(
                        sim,
                        p,
                        &self.column_peers(r, c),
                        in_bytes / pr * (pr - 1) + 1,
                        in_raw,
                    );
                }
                // sparse partial results gathered at the row's diagonal
                if r != c {
                    router.send(
                        sim,
                        p,
                        self.grid.node_at(r, r),
                        out_bytes / (pr * pr) + 1,
                        out_raw / (pr * pr) + 1,
                    );
                }
            }
            router.flush(sim);
        }
        out
    }

    /// The §6.2 roadmap's CombBLAS fix: "combine A² computation with
    /// intersection with A, thereby also achieving overlap of computation
    /// and communication" — a *fused, masked* SpGEMM that only evaluates
    /// `A²` at positions where `A` is nonzero, never materializing the
    /// product. Returns the masked sum (the triangle count on a DAG
    /// orientation). Requires sorted adjacency.
    pub fn spgemm_masked_count_fused(&self, sim: &mut Sim) -> u64 {
        let n = self.csr.num_vertices();
        let mut masked_sum = 0u64;
        let mut per_block_stream = vec![0u64; self.grid.nodes()];
        let mut row = RowBitmap::new(n);
        for i in 0..n as u32 {
            let ni = self.csr.neighbors(i);
            row.mark(ni);
            for &j in ni {
                // A²_ij restricted to the mask = |N(i) ∩ N(j)|; charged
                // as the merge of both rows, counted by probing row i
                let nj = self.csr.neighbors(j);
                per_block_stream[self.grid.owner(i, j)] += (ni.len() + nj.len()) as u64 * 4;
                masked_sum += row.probe(nj);
            }
            row.unmark(ni);
        }
        let mut router = Router::new(sim.nodes(), sim.profile());
        for (p, &stream) in per_block_stream.iter().enumerate() {
            sim.charge(
                p,
                Work {
                    seq_bytes: stream,
                    rand_accesses: 0,
                    flops: stream / 4,
                },
            );
            // SUMMA block circulation still happens, overlapped with the
            // intersection work (charged as traffic only)
            if self.grid.nodes() > 1 {
                let bytes = self.block_nnz[p] * 8 * self.grid.pr as u64;
                let (r, c) = self.grid.coords(p);
                router.scatter(sim, p, &self.row_peers(r, c), bytes, bytes);
            }
        }
        router.flush(sim);
        masked_sum
    }

    /// Computes `A² = A × A` over the counting semiring and returns
    /// `(masked_sum, nnz_a2)` where `masked_sum = Σ_{(i,j) ∈ A} A²_ij` —
    /// CombBLAS triangle counting, `nnz(A ∩ A²)` with multiplicities
    /// (§3.2). **Materializes A²**, charging its memory to the grid —
    /// the paper's CombBLAS OOM on real-world inputs comes from exactly
    /// this allocation (`label "spgemm:A2"`).
    pub fn spgemm_masked_count(&self, sim: &mut Sim) -> Result<(u64, u64), SimError> {
        let n = self.csr.num_vertices();
        let mut masked_sum = 0u64;
        let mut nnz_a2 = 0u64;
        let mut block_a2_bytes = vec![0u64; self.grid.nodes()];
        let mut flops = vec![0u64; self.grid.nodes()];
        // symbolic pass over a dense sparse-accumulator: `paths[j]` counts
        // the length-2 paths i → k → j of the current row, `touched` lists
        // its nonzero columns so the reset walks only those
        let mut paths = vec![0u32; n];
        let mut touched: Vec<VertexId> = Vec::new();
        let mut mask = RowBitmap::new(n);
        for i in 0..n as u32 {
            let ni = self.csr.neighbors(i);
            for &k in ni {
                for &j in self.csr.neighbors(k) {
                    if paths[j as usize] == 0 {
                        touched.push(j);
                    }
                    paths[j as usize] += 1;
                }
            }
            nnz_a2 += touched.len() as u64;
            mask.mark(ni);
            for j in touched.drain(..) {
                let count = u64::from(std::mem::take(&mut paths[j as usize]));
                let owner = self.grid.owner(i, j);
                // one multiply-add per path; 12 bytes per stored
                // (col, count) entry of A²
                flops[owner] += 2 * count;
                block_a2_bytes[owner] += 12;
                masked_sum += count * mask.bit(j);
            }
            mask.unmark(ni);
        }
        let mut router = Router::new(sim.nodes(), sim.profile());
        for p in 0..self.grid.nodes() {
            sim.alloc(p, block_a2_bytes[p], "spgemm:A2")?;
            sim.charge(
                p,
                Work {
                    seq_bytes: block_a2_bytes[p],
                    rand_accesses: flops[p] / 2,
                    flops: flops[p],
                },
            );
            // SpGEMM on 2-D grids circulates blocks of A: each process
            // ships its block √P times (SUMMA) around its grid row.
            if self.grid.nodes() > 1 {
                let bytes = self.block_nnz[p] * 8 * self.grid.pr as u64;
                let (r, c) = self.grid.coords(p);
                router.scatter(sim, p, &self.row_peers(r, c), bytes, bytes);
            }
        }
        router.flush(sim);
        for p in 0..self.grid.nodes() {
            sim.free(p, block_a2_bytes[p]);
        }
        Ok((masked_sum, nnz_a2))
    }
}

/// Encoded wire size of a sorted unique id list (delta or bitmap,
/// whichever is smaller) — shared by the compressed SpMSpV path.
pub(crate) fn encode_ids(sorted_ids: &[VertexId], universe: u64) -> u64 {
    graphmaze_cluster::compress::encode_best(sorted_ids, universe).len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::semiring::{MIN_PLUS, PLUS_TIMES};
    use graphmaze_cluster::{ClusterSpec, ExecProfile};

    use graphmaze_graph::fixtures::fig2_csr as fig2;

    fn sim(nodes: usize) -> Sim {
        Sim::new(ClusterSpec::paper(nodes), ExecProfile::combblas())
    }

    #[test]
    fn requires_square_process_count() {
        let c = fig2();
        assert!(DistMatrix::new(&c, 3).is_err());
        assert!(DistMatrix::new(&c, 4).is_ok());
    }

    #[test]
    fn block_nnz_partitions_all_edges() {
        let c = fig2();
        let m = DistMatrix::new(&c, 4).unwrap();
        let total: u64 = (0..4).map(|p| m.block_nnz(p)).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn spmv_transpose_matches_paper_equation_9() {
        // pᵗ⁺¹ = r·1 + (1−r)·Aᵀ p̃ᵗ; with p̃⁰ = p⁰/d
        let c = fig2();
        let m = DistMatrix::new(&c, 1).unwrap();
        let mut s = sim(1);
        let degrees = [2.0, 2.0, 1.0, 1.0];
        let x: Vec<f64> = (0..4).map(|i| 1.0 / degrees[i]).collect();
        let y = m.spmv_transpose(&mut s, &x, 1.0, &PLUS_TIMES, 8, 2);
        let pr: Vec<f64> = y.iter().map(|&v| 0.3 + 0.7 * v).collect();
        let want = [0.3, 0.65, 1.0, 1.35];
        for (a, b) in pr.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn spmspv_matches_paper_equation_10() {
        // From the paper: Aᵀ · [1,1,0,0]ᵀ = [0,1,2,1]ᵀ on Figure 2
        // (counting semiring over path multiplicity).
        let c = fig2();
        let m = DistMatrix::new(&c, 1).unwrap();
        let mut s = sim(1);
        let x = vec![(0u32, 1.0f64), (1, 1.0)];
        let y = m.spmspv_transpose(&mut s, &x, 1.0, &PLUS_TIMES, 8, false);
        assert_eq!(y, vec![(1, 1.0), (2, 2.0), (3, 1.0)]);
    }

    #[test]
    fn spmspv_min_plus_propagates_levels() {
        let c = fig2();
        let m = DistMatrix::new(&c, 1).unwrap();
        let mut s = sim(1);
        let x = vec![(0u32, 0u32)];
        // level 1 = neighbors of 0 with distance 0 (+ edge weight 1 via entry)
        let y = m.spmspv_transpose(&mut s, &x, 1, &MIN_PLUS, 4, false);
        assert_eq!(y, vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn spgemm_masked_count_matches_paper_example() {
        // §3.2: for Figure 2, nnz-sum of A ∩ A² = 2 triangles,
        // and A² = [[0,0,1,2],[0,0,0,1],[0,0,0,0],[0,0,0,0]] has 3 nnz.
        let c = fig2();
        let m = DistMatrix::new(&c, 1).unwrap();
        let mut s = sim(1);
        let (count, nnz) = m.spgemm_masked_count(&mut s).unwrap();
        assert_eq!(count, 2);
        assert_eq!(nnz, 3);
    }

    #[test]
    fn fused_masked_count_matches_materialized() {
        let c = fig2();
        for nodes in [1usize, 4] {
            let m = DistMatrix::new(&c, nodes).unwrap();
            let mut s1 = sim(nodes);
            let (want, _) = m.spgemm_masked_count(&mut s1).unwrap();
            let mut s2 = sim(nodes);
            let got = m.spgemm_masked_count_fused(&mut s2);
            assert_eq!(got, want);
            // the fused version never allocates A²
            let r1 = s1.finish();
            let r2 = s2.finish();
            assert!(r2.peak_mem_bytes < r1.peak_mem_bytes.max(1) + 1);
        }
    }

    /// The symbolic pass as it was before the dense accumulator: a hash
    /// map per row, the mask tested by binary search — same charges, same
    /// call order.
    fn spgemm_masked_count_hashed(m: &DistMatrix, sim: &mut Sim) -> (u64, u64) {
        let nodes = m.grid.nodes();
        let (mut masked_sum, mut nnz_a2) = (0u64, 0u64);
        let mut block_a2_bytes = vec![0u64; nodes];
        let mut flops = vec![0u64; nodes];
        for i in 0..m.csr.num_vertices() as u32 {
            let mut row_counts = std::collections::HashMap::new();
            for &k in m.csr.neighbors(i) {
                for &j in m.csr.neighbors(k) {
                    *row_counts.entry(j).or_insert(0u64) += 1;
                    flops[m.grid.owner(i, j)] += 2;
                }
            }
            nnz_a2 += row_counts.len() as u64;
            for (&j, &paths) in &row_counts {
                block_a2_bytes[m.grid.owner(i, j)] += 12;
                if m.csr.has_edge_sorted(i, j) {
                    masked_sum += paths;
                }
            }
        }
        let mut router = Router::new(sim.nodes(), sim.profile());
        for p in 0..nodes {
            sim.alloc(p, block_a2_bytes[p], "spgemm:A2").unwrap();
            sim.charge(
                p,
                Work {
                    seq_bytes: block_a2_bytes[p],
                    rand_accesses: flops[p] / 2,
                    flops: flops[p],
                },
            );
            if nodes > 1 {
                let bytes = m.block_nnz[p] * 8 * m.grid.pr as u64;
                let (r, c) = m.grid.coords(p);
                router.scatter(sim, p, &m.row_peers(r, c), bytes, bytes);
            }
        }
        router.flush(sim);
        for p in 0..nodes {
            sim.free(p, block_a2_bytes[p]);
        }
        (masked_sum, nnz_a2)
    }

    #[test]
    fn accumulator_pass_matches_the_hashed_reference_bit_for_bit() {
        use graphmaze_graph::rng::SmallRng;
        let mut rng = SmallRng::seed_from_u64(2302);
        let n = 200u32;
        // a DAG-oriented random graph with a dense head, so rows overlap
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if rng.below(100) < if u < 8 { 60 } else { 4 } {
                    edges.push((u, v));
                }
            }
        }
        let mut csr = Csr::from_edges(u64::from(n), &edges);
        csr.sort_neighbors();
        for nodes in [1usize, 4] {
            let m = DistMatrix::new(&csr, nodes).unwrap();
            let (mut got_sim, mut want_sim) = (sim(nodes), sim(nodes));
            let got = m.spgemm_masked_count(&mut got_sim).unwrap();
            let want = spgemm_masked_count_hashed(&m, &mut want_sim);
            assert_eq!(got, want, "nodes={nodes}");
            assert!(got.0 > 0 && got.1 > 0);
            got_sim.end_step().unwrap();
            want_sim.end_step().unwrap();
            assert_eq!(got_sim.finish(), want_sim.finish(), "nodes={nodes}");
        }
    }

    #[test]
    fn multi_node_spmv_communicates() {
        let c = fig2();
        let m = DistMatrix::new(&c, 4).unwrap();
        let mut s = sim(4);
        let x = vec![1.0f64; 4];
        let _ = m.spmv_transpose(&mut s, &x, 1.0, &PLUS_TIMES, 8, 2);
        let r = s.finish();
        assert!(r.traffic.bytes_sent > 0);
    }

    #[test]
    fn spgemm_charges_a2_memory() {
        let c = fig2();
        let m = DistMatrix::new(&c, 1).unwrap();
        let mut s = sim(1);
        m.spgemm_masked_count(&mut s).unwrap();
        let r = s.finish();
        assert!(r.peak_mem_bytes >= 36, "A² bytes {}", r.peak_mem_bytes);
    }
}
