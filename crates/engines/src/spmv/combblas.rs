//! The four algorithms in the CombBLAS model (paper §3.1–3.2).

use graphmaze_cluster::{ClusterSpec, ExecProfile, Router, Sim, SimError};
use graphmaze_graph::csr::{Csr, DirectedGraph, UndirectedGraph};
use graphmaze_graph::{RatingsGraph, VertexId};
use graphmaze_metrics::{RunReport, Work};

use super::matrix::DistMatrix;
use super::semiring::PLUS_TIMES;

/// Builds the CombBLAS simulator for `nodes` processes.
fn new_sim(nodes: usize) -> Sim {
    Sim::new(ClusterSpec::paper(nodes), ExecProfile::combblas())
}

/// Charges the per-process share of storing the matrix.
fn alloc_matrix(sim: &mut Sim, m: &DistMatrix<'_>, label: &str) -> Result<(), SimError> {
    for p in 0..m.grid().nodes() {
        // doubly-compressed block: ~12 bytes per stored edge
        sim.alloc(p, m.block_nnz(p) * 12, label)?;
    }
    Ok(())
}

/// PageRank as iterated SpMV (eq. (9)): `pᵗ⁺¹ = r·1 + (1−r)·Aᵀ p̃ᵗ`.
pub fn pagerank(
    g: &DirectedGraph,
    r: f64,
    iterations: u32,
    nodes: usize,
) -> Result<(Vec<f64>, RunReport), SimError> {
    let m = DistMatrix::new_nearly_square(&g.out, nodes);
    let mut sim = new_sim(nodes);
    alloc_matrix(&mut sim, &m, "combblas:A")?;
    let n = g.num_vertices();
    let mut pr = vec![1.0f64; n];
    let mut scaled = vec![0.0f64; n];
    sim.phase("spmv:pagerank");
    for _ in 0..iterations {
        for i in 0..n {
            let d = g.out.degree(i as VertexId);
            scaled[i] = if d == 0 { 0.0 } else { pr[i] / f64::from(d) };
        }
        let y = m.spmv_transpose(&mut sim, &scaled, 1.0, &PLUS_TIMES, 8, 2);
        for i in 0..n {
            pr[i] = r + (1.0 - r) * y[i];
        }
        // dense vector scale/axpy passes
        for p in 0..nodes {
            sim.charge(p, Work::stream((n as u64 * 24) / nodes as u64));
        }
        sim.end_step()?;
        sim.end_iteration();
    }
    Ok((pr, sim.finish()))
}

/// BFS as iterated sparse matrix-vector products (eq. (10)): the
/// frontier is a sparse vector; each product yields the next frontier,
/// masked by the already-visited set.
pub fn bfs(
    g: &UndirectedGraph,
    source: VertexId,
    nodes: usize,
) -> Result<(Vec<u32>, RunReport), SimError> {
    bfs_with_compression(g, source, nodes, false)
}

/// BFS with the §6.2 roadmap applied: frontier index sets are really
/// bit-vector/delta compressed before crossing the wire.
pub fn bfs_improved(
    g: &UndirectedGraph,
    source: VertexId,
    nodes: usize,
) -> Result<(Vec<u32>, RunReport), SimError> {
    bfs_with_compression(g, source, nodes, true)
}

fn bfs_with_compression(
    g: &UndirectedGraph,
    source: VertexId,
    nodes: usize,
    compress: bool,
) -> Result<(Vec<u32>, RunReport), SimError> {
    let m = DistMatrix::new_nearly_square(&g.adj, nodes);
    let mut sim = new_sim(nodes);
    alloc_matrix(&mut sim, &m, "combblas:A")?;
    let n = g.num_vertices();
    let mut dist = vec![u32::MAX; n];
    dist[source as usize] = 0;
    let mut frontier: Vec<(VertexId, u32)> = vec![(source, 0)];
    let mut level = 0u32;
    sim.phase("spmspv:frontier");
    while !frontier.is_empty() {
        level += 1;
        let product = m.spmspv_transpose(
            &mut sim,
            &frontier,
            1,
            &super::semiring::MIN_PLUS,
            4,
            compress,
        );
        frontier = product
            .into_iter()
            .filter(|&(v, _)| dist[v as usize] == u32::MAX)
            .map(|(v, _)| (v, level))
            .collect();
        for &(v, d) in &frontier {
            dist[v as usize] = d;
        }
        for p in 0..nodes {
            sim.charge(p, Work::random(frontier.len() as u64 / nodes as u64 + 1));
        }
        sim.end_step()?;
    }
    sim.end_iteration();
    Ok((dist, sim.finish()))
}

/// Bit-parallel multi-source BFS as iterated SpMSpV over the
/// [`super::semiring::OR_PASS`] mask semiring: the frontier is a sparse
/// vector of `u64` source masks, one matrix product OR-gossips every
/// mask over the edges, and newly arrived bits settle at the current
/// level. Sources beyond 64 run as consecutive word passes in the same
/// simulation. Returns one distance row per source, identical to
/// `graphmaze_native::msbfs::msbfs`.
pub fn msbfs(
    g: &UndirectedGraph,
    sources: &[VertexId],
    nodes: usize,
) -> Result<(Vec<Vec<u32>>, RunReport), SimError> {
    let m = DistMatrix::new_nearly_square(&g.adj, nodes);
    let mut sim = new_sim(nodes);
    alloc_matrix(&mut sim, &m, "combblas:A")?;
    let n = g.num_vertices();
    // per-vertex seen word + per-pass packed distances
    sim.alloc_all(
        (n * (8 + 4 * sources.len().clamp(1, 64))) as u64 / nodes as u64 + 1,
        "combblas:msbfs-state",
    )?;
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(sources.len());
    sim.phase("spmspv:mask-frontier");
    for group in sources.chunks(64) {
        let k = group.len();
        let mut seen = vec![0u64; n];
        let mut dist = vec![u32::MAX; n * 64];
        let mut frontier: Vec<(VertexId, u64)> = {
            let mut seeds: Vec<(VertexId, u64)> = group
                .iter()
                .enumerate()
                .map(|(b, &s)| (s, 1u64 << b))
                .collect();
            seeds.sort_unstable_by_key(|&(v, _)| v);
            let mut merged: Vec<(VertexId, u64)> = Vec::new();
            for (v, mask) in seeds {
                match merged.last_mut() {
                    Some((lv, lm)) if *lv == v => *lm |= mask,
                    _ => merged.push((v, mask)),
                }
            }
            merged
        };
        for &(v, mask) in &frontier {
            seen[v as usize] = mask;
            settle_mask(&mut dist, v, mask, 0);
        }
        let mut level = 0u32;
        while !frontier.is_empty() {
            level += 1;
            let product = m.spmspv_transpose(
                &mut sim,
                &frontier,
                0, // matrix entries are boolean; ⊗ passes the mask through
                &super::semiring::OR_PASS,
                8,
                false,
            );
            frontier = product
                .into_iter()
                .filter_map(|(v, mask)| {
                    let newly = mask & !seen[v as usize];
                    (newly != 0).then_some((v, newly))
                })
                .collect();
            for &(v, newly) in &frontier {
                seen[v as usize] |= newly;
                settle_mask(&mut dist, v, newly, level);
            }
            for p in 0..nodes {
                sim.charge(p, Work::random(frontier.len() as u64 / nodes as u64 + 1));
            }
            sim.end_step()?;
        }
        for b in 0..k {
            rows.push((0..n).map(|v| dist[v * 64 + b]).collect());
        }
    }
    sim.end_iteration();
    Ok((rows, sim.finish()))
}

/// Records `level` for every set bit of `mask` at vertex `v` in the
/// packed `dist[v * 64 + bit]` layout.
fn settle_mask(dist: &mut [u32], v: VertexId, mask: u64, level: u32) {
    let mut bits = mask;
    while bits != 0 {
        let b = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        dist[v as usize * 64 + b] = level;
    }
}

/// Triangle counting as `Σ nnz-values of A ∩ A²` (§3.2) — limited by the
/// programming abstraction: A² is materialized, which exhausts memory on
/// large inputs ("it ran out of memory for real-world inputs while
/// computing the A² matrix product. This is an expressibility problem in
/// CombBLAS.").
pub fn triangles(oriented: &Csr, nodes: usize) -> Result<(u64, RunReport), SimError> {
    triangles_on(oriented, nodes, ClusterSpec::paper(nodes))
}

/// [`triangles`] with an explicit cluster spec (lets tests shrink node
/// memory to reproduce the paper's OOM).
pub fn triangles_on(
    oriented: &Csr,
    nodes: usize,
    spec: ClusterSpec,
) -> Result<(u64, RunReport), SimError> {
    let m = DistMatrix::new_nearly_square(oriented, nodes);
    let mut sim = Sim::new(spec, ExecProfile::combblas());
    alloc_matrix(&mut sim, &m, "combblas:A")?;
    sim.phase("spgemm:A2-mask");
    let (count, _nnz_a2) = m.spgemm_masked_count(&mut sim)?;
    sim.end_step()?;
    sim.end_iteration();
    Ok((count, sim.finish()))
}

/// Triangle counting with the §6.2 roadmap applied (fused masked SpGEMM
/// — no `A²` materialization, no OOM). See
/// [`DistMatrix::spgemm_masked_count_fused`].
pub fn triangles_improved(oriented: &Csr, nodes: usize) -> Result<(u64, RunReport), SimError> {
    let m = DistMatrix::new_nearly_square(oriented, nodes);
    let mut sim = new_sim(nodes);
    alloc_matrix(&mut sim, &m, "combblas:A")?;
    sim.phase("spgemm:fused-mask");
    let count = m.spgemm_masked_count_fused(&mut sim);
    sim.end_step()?;
    sim.end_iteration();
    Ok((count, sim.finish()))
}

/// Collaborative filtering by alternating GD expressed as K
/// matrix-vector products per side per iteration (§3.2: "a single GD
/// iteration consists of K matrix-vector multiplications ... Since
/// CombBLAS does not allow matrices with dimension < number of
/// processors, multiplication with the p matrix has to be performed in K
/// steps"). Returns `(p, q)` factor matrices row-major and the report.
#[allow(clippy::too_many_arguments)]
pub fn cf_gd(
    g: &RatingsGraph,
    k: usize,
    lambda: f64,
    gamma: f64,
    iterations: u32,
    nodes: usize,
) -> Result<(Vec<f64>, Vec<f64>, RunReport), SimError> {
    let nu = g.num_users() as usize;
    let nv = g.num_items() as usize;
    let nnz = g.num_ratings();
    // R as a user→item matrix on the grid
    let triples = g.triples();
    let plain: Vec<(VertexId, VertexId)> = triples.iter().map(|&(u, v, _)| (u, v)).collect();
    // pack users and items in one square id space for the 2-D grid
    let side = (nu + nv) as u64;
    let packed: Vec<(VertexId, VertexId)> =
        plain.iter().map(|&(u, v)| (u, nu as u32 + v)).collect();
    let csr = Csr::from_edges(side, &packed);
    let m = DistMatrix::new_nearly_square(&csr, nodes);
    let mut sim = new_sim(nodes);
    alloc_matrix(&mut sim, &m, "combblas:R")?;
    // dense factor vectors (K per side)
    sim.alloc_all(
        ((nu + nv) * k * 8) as u64 / nodes as u64 + 1,
        "combblas:factors",
    )?;

    let init = |i: usize, j: usize, salt: u64| -> f64 {
        let x = (i as u64 * 131 + j as u64 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (x >> 11) as f64 / (1u64 << 53) as f64 * 0.1
    };
    let mut p: Vec<f64> = (0..nu * k).map(|i| init(i / k, i % k, 1)).collect();
    let mut q: Vec<f64> = (0..nv * k).map(|i| init(i / k, i % k, 2)).collect();

    let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
    for _ in 0..iterations {
        // q-side update (eq. 12), then p-side (eq. 11) — each side costs
        // K passes over the nonzeros plus the SpMV communication pattern.
        sim.phase("gd:q-side");
        let mut grad_q = vec![0.0f64; nv * k];
        for &(u, v, r) in &triples {
            let pu = &p[u as usize * k..(u as usize + 1) * k];
            let qv = &q[v as usize * k..(v as usize + 1) * k];
            let e = f64::from(r) - dot(pu, qv);
            for i in 0..k {
                grad_q[v as usize * k + i] += e * pu[i] - lambda * qv[i];
            }
        }
        for (qi, gi) in q.iter_mut().zip(&grad_q) {
            *qi += gamma * gi;
        }
        charge_k_spmv_passes(&mut sim, &m, k, nnz, nodes);
        sim.end_step()?;

        sim.phase("gd:p-side");
        let mut grad_p = vec![0.0f64; nu * k];
        for &(u, v, r) in &triples {
            let pu = &p[u as usize * k..(u as usize + 1) * k];
            let qv = &q[v as usize * k..(v as usize + 1) * k];
            let e = f64::from(r) - dot(pu, qv);
            for i in 0..k {
                grad_p[u as usize * k + i] += e * qv[i] - lambda * pu[i];
            }
        }
        for (pi, gi) in p.iter_mut().zip(&grad_p) {
            *pi += gamma * gi;
        }
        charge_k_spmv_passes(&mut sim, &m, k, nnz, nodes);
        sim.end_step()?;
        sim.end_iteration();
    }
    Ok((p, q, sim.finish()))
}

/// Charges K SpMV-shaped passes over the rating nonzeros. This is the
/// §3.2 expressibility penalty in full: CombBLAS cannot fuse the K
/// latent dimensions into one sparse-matrix-dense-matrix pass, so the
/// sparse structure (12 bytes/entry) is re-streamed **K times**, once
/// per dimension, each pass also touching the dimension's dense vectors.
fn charge_k_spmv_passes(sim: &mut Sim, m: &DistMatrix<'_>, k: usize, nnz: u64, nodes: usize) {
    for p in 0..nodes {
        let share = m.block_nnz(p);
        sim.charge(
            p,
            Work {
                seq_bytes: share * 12 * k as u64 + share * k as u64 * 8 * 2,
                rand_accesses: share,
                flops: share * k as u64 * 4,
            },
        );
    }
    let _ = nnz;
    if nodes > 1 {
        let grid = m.grid();
        let mut router = Router::new(sim.nodes(), sim.profile());
        let x_seg = grid.cols_per_block() * 8 * k as u64;
        let y_seg = grid.rows_per_block() * 8 * k as u64;
        for p in 0..nodes {
            let (r, c) = grid.coords(p);
            if r == c {
                // factor-segment broadcast down the process column
                router.scatter(
                    sim,
                    p,
                    &m.column_peers(r, c),
                    x_seg * (grid.pr as u64 - 1),
                    x_seg * (grid.pr as u64 - 1),
                );
            } else {
                // partial-gradient reduction to the row's diagonal
                router.send(sim, p, grid.node_at(r, r), y_seg, y_seg);
            }
        }
        router.flush(sim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmaze_cluster::HardwareSpec;
    use graphmaze_datagen::ratings::{self, RatingsGenConfig};
    use graphmaze_datagen::{rmat, RmatConfig, RmatParams};
    use graphmaze_native::triangle::orient_and_sort;
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
    fn pagerank_matches_native() {
        let el = rmat_el(9, 41);
        let g = DirectedGraph::from_edge_list(&el);
        let want = graphmaze_native::pagerank::pagerank(&g, PAGERANK_R, 5, 2);
        let (got, rep) = pagerank(&g, PAGERANK_R, 5, 4).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(rep.traffic.bytes_sent > 0);
    }

    #[test]
    fn pagerank_runs_on_non_square_node_counts_via_rect_grid() {
        let el = rmat_el(8, 42);
        let g = DirectedGraph::from_edge_list(&el);
        let want = graphmaze_native::pagerank::pagerank(&g, PAGERANK_R, 2, 1);
        let (got, _) = pagerank(&g, PAGERANK_R, 2, 8).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn bfs_matches_native() {
        let mut el = rmat_el(9, 43);
        el.remove_self_loops();
        el.symmetrize();
        let g = UndirectedGraph::from_symmetric_edge_list(&el);
        let want = graphmaze_native::bfs::bfs(&g, 0, 2);
        let (got, _) = bfs(&g, 0, 4).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn improved_bfs_matches_and_shrinks_traffic() {
        let mut el = rmat_el(10, 47);
        el.remove_self_loops();
        el.symmetrize();
        let g = UndirectedGraph::from_symmetric_edge_list(&el);
        let (plain, rep_plain) = bfs(&g, 0, 4).unwrap();
        let (comp, rep_comp) = bfs_improved(&g, 0, 4).unwrap();
        assert_eq!(plain, comp);
        assert!(
            rep_comp.traffic.bytes_sent < rep_plain.traffic.bytes_sent,
            "{} !< {}",
            rep_comp.traffic.bytes_sent,
            rep_plain.traffic.bytes_sent
        );
    }

    #[test]
    fn improved_triangles_match_and_use_less_memory() {
        let el = rmat_el(10, 48);
        let oriented = orient_and_sort(&el);
        let (want, rep_mat) = triangles(&oriented, 4).unwrap();
        let (got, rep_fused) = triangles_improved(&oriented, 4).unwrap();
        assert_eq!(got, want);
        assert!(rep_fused.peak_mem_bytes < rep_mat.peak_mem_bytes);
    }

    #[test]
    fn triangles_match_native() {
        let el = rmat_el(9, 44);
        let oriented = orient_and_sort(&el);
        let want = graphmaze_native::triangle::triangles(&oriented, 2);
        let (got, _) = triangles(&oriented, 4).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn triangles_oom_on_small_memory_nodes() {
        // shrink node memory to force the paper's A² OOM
        let el = rmat_el(10, 45);
        let oriented = orient_and_sort(&el);
        let mut spec = ClusterSpec::paper(4);
        spec.hw = HardwareSpec {
            mem_capacity_bytes: 16 << 10,
            ..spec.hw
        };
        match triangles_on(&oriented, 4, spec) {
            Err(SimError::OutOfMemory(o)) => {
                assert!(o.label.contains("A2") || o.label.contains("combblas"));
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn cf_gd_reduces_rmse() {
        let g = ratings::generate(&RatingsGenConfig {
            scale: 8,
            edge_factor: 8,
            num_items: 32,
            min_degree: 3,
            seed: 46,
        });
        let k = 4;
        let (p, q, rep) = cf_gd(&g, k, 0.05, 0.005, 10, 4).unwrap();
        let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };
        let mut sse = 0.0;
        for (u, v, r) in g.triples() {
            let e = f64::from(r)
                - dot(
                    &p[u as usize * k..(u as usize + 1) * k],
                    &q[v as usize * k..(v as usize + 1) * k],
                );
            sse += e * e;
        }
        let rmse = (sse / g.num_ratings() as f64).sqrt();
        // initial factors ~0.05 ⇒ predictions ~0 ⇒ rmse ~3.7; GD must cut it
        assert!(rmse < 3.0, "rmse {rmse}");
        assert_eq!(rep.iterations, 10);
        assert!(rep.traffic.bytes_sent > 0);
    }
}
