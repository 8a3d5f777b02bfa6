//! Hand-optimized collaborative filtering (paper §2 eq. (4)–(8), §3.2,
//! §6.1.2).
//!
//! Native code implements **Stochastic Gradient Descent** parallelized
//! with the diagonal 2-D blocking of Gemulla et al. \[16\]: the ratings
//! matrix is split into `P × P` blocks; an epoch runs `P` sub-steps, and
//! in sub-step `s` worker `w` owns block `(w, (w + s) mod P)` — no two
//! workers ever touch the same user or item rows, so each worker takes
//! its two block rows once per sub-step and updates them without locks
//! ("without using locks", §6.1.2). **Gradient Descent**
//! (eq. (11)/(12)) is also provided: it is what the restricted
//! programming models of the frameworks can express, and the paper's
//! SGD-vs-GD convergence comparison (≈40× on Netflix) needs both.

use std::sync::Mutex;

use graphmaze_cluster::{ClusterSpec, Router, Sim, SimError};
use graphmaze_graph::par::par_tasks;
use graphmaze_graph::{RatingsGraph, VertexId};
use graphmaze_metrics::{RunReport, Work};

use crate::common::NativeOptions;

/// Hyper-parameters of the factorization.
#[derive(Clone, Copy, Debug)]
pub struct CfConfig {
    /// Latent dimension `K`. The paper's runs imply K = 1024 (8 KB
    /// messages, Table 1); tests use smaller K — the kernels are K-generic.
    pub k: usize,
    /// Regularization λ (used for both users and items).
    pub lambda: f64,
    /// Initial step size γ₀.
    pub gamma0: f64,
    /// Per-iteration step-size decay `s` (γ_t = γ₀ · sᵗ), `0 < s ≤ 1`.
    pub step_decay: f64,
    /// Seed for factor initialization and shuffling.
    pub seed: u64,
}

impl CfConfig {
    /// Sensible defaults for tests and examples.
    pub fn defaults(k: usize) -> Self {
        CfConfig {
            k,
            lambda: 0.05,
            gamma0: 0.01,
            step_decay: 0.95,
            seed: 42,
        }
    }
}

/// Dense factor matrices: `p` is `num_users × k` row-major, `q` is
/// `num_items × k` row-major.
#[derive(Clone, Debug, PartialEq)]
pub struct Factors {
    /// User factors.
    pub p: Vec<f64>,
    /// Item factors.
    pub q: Vec<f64>,
    /// Latent dimension.
    pub k: usize,
}

impl Factors {
    /// Deterministic pseudo-random initialization in `[0, 0.1)`.
    pub fn init(num_users: u32, num_items: u32, cfg: &CfConfig) -> Self {
        let gen = |i: u64| -> f64 {
            let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ cfg.seed;
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            (x >> 11) as f64 / (1u64 << 53) as f64 * 0.1
        };
        let p = (0..num_users as u64 * cfg.k as u64).map(gen).collect();
        let q = (0..num_items as u64 * cfg.k as u64)
            .map(|i| gen(i + (1 << 40)))
            .collect();
        Factors { p, q, k: cfg.k }
    }

    /// User row `u`.
    #[inline]
    pub fn p_row(&self, u: VertexId) -> &[f64] {
        &self.p[u as usize * self.k..(u as usize + 1) * self.k]
    }

    /// Item row `v`.
    #[inline]
    pub fn q_row(&self, v: VertexId) -> &[f64] {
        &self.q[v as usize * self.k..(v as usize + 1) * self.k]
    }

    /// Predicted rating for `(u, v)`.
    pub fn predict(&self, u: VertexId, v: VertexId) -> f64 {
        dot(self.p_row(u), self.q_row(v))
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Root-mean-square training error of `f` on `g`.
pub fn rmse(g: &RatingsGraph, f: &Factors) -> f64 {
    if g.num_ratings() == 0 {
        return 0.0;
    }
    let mut sse = 0.0;
    for u in 0..g.num_users() {
        let pu = f.p_row(u);
        for (v, r) in g.ratings_of_user(u) {
            let e = f64::from(r) - dot(pu, f.q_row(v));
            sse += e * e;
        }
    }
    (sse / g.num_ratings() as f64).sqrt()
}

/// One SGD update on rating `(u, v, r)` with step `gamma` — eq. (5)–(8).
/// Public so other schedulers (Galois's work-item model) can drive the
/// identical update kernel.
#[inline]
pub fn sgd_update(p: &mut [f64], q: &mut [f64], r: f64, gamma: f64, lambda: f64) {
    let e = r - dot(p, q);
    for i in 0..p.len() {
        let (pu, qv) = (p[i], q[i]);
        p[i] = pu + gamma * (e * qv - lambda * pu);
        q[i] = qv + gamma * (e * pu - lambda * qv);
    }
}

/// The `P × P` diagonal block schedule of Gemulla et al. \[16\]: ratings
/// bucketed by `(user_block, item_block)`. Public so the Galois engine
/// can apply "the n² uniform 2D chunk partitioning" (§3.2) itself.
pub struct DiagonalBlocks {
    /// `buckets[ub * P + ib]` = ratings in that block, fixed order.
    buckets: Vec<Vec<(VertexId, VertexId, f64)>>,
    /// Users per user block: block `b` is rows `b * ub_size..`.
    ub_size: usize,
    /// Items per item block.
    ib_size: usize,
}

impl DiagonalBlocks {
    /// Buckets `g`'s ratings into a `p_blocks × p_blocks` grid.
    pub fn build(g: &RatingsGraph, p_blocks: usize) -> Self {
        let p_blocks = p_blocks.max(1);
        let ub_size = (g.num_users() as usize).div_ceil(p_blocks).max(1);
        let ib_size = (g.num_items() as usize).div_ceil(p_blocks).max(1);
        let user_block_of: Vec<usize> = (0..g.num_users() as usize)
            .map(|u| (u / ub_size).min(p_blocks - 1))
            .collect();
        let item_block_of: Vec<usize> = (0..g.num_items() as usize)
            .map(|v| (v / ib_size).min(p_blocks - 1))
            .collect();
        let mut buckets = vec![Vec::new(); p_blocks * p_blocks];
        for (u, v, r) in g.triples() {
            let ub = user_block_of[u as usize];
            let ib = item_block_of[v as usize];
            buckets[ub * p_blocks + ib].push((u, v, f64::from(r)));
        }
        DiagonalBlocks {
            buckets,
            ub_size,
            ib_size,
        }
    }

    /// The ratings of block `(user_block, item_block)`.
    pub fn bucket(
        &self,
        user_block: usize,
        item_block: usize,
        p_blocks: usize,
    ) -> &[(VertexId, VertexId, f64)] {
        &self.buckets[user_block * p_blocks + item_block]
    }
}

/// Parallel SGD with `P = threads` diagonal blocking. Returns the factors
/// and the RMSE after each epoch. Deterministic for fixed `threads`.
pub fn sgd(g: &RatingsGraph, cfg: &CfConfig, epochs: u32, threads: usize) -> (Factors, Vec<f64>) {
    let p_blocks = threads.max(1);
    let blocks = DiagonalBlocks::build(g, p_blocks);
    let mut f = Factors::init(g.num_users(), g.num_items(), cfg);
    let mut history = Vec::with_capacity(epochs as usize);
    let mut gamma = cfg.gamma0;
    let k = cfg.k;
    let (ub_size, ib_size) = (blocks.ub_size, blocks.ib_size);
    for _ in 0..epochs {
        for s in 0..p_blocks {
            // worker w owns user block w and item block (w + s) % P, so
            // each block row goes to exactly one worker
            let mut q_blocks = block_rows(&mut f.q, ib_size * k, p_blocks);
            let tasks: Vec<_> = block_rows(&mut f.p, ub_size * k, p_blocks)
                .into_iter()
                .enumerate()
                .map(|(w, p)| Mutex::new((p, std::mem::take(&mut q_blocks[(w + s) % p_blocks]))))
                .collect();
            par_tasks(p_blocks, |w| {
                let ib = (w + s) % p_blocks;
                let (p, q) = &mut *tasks[w].lock().expect("locked once, by its own worker");
                for &(u, v, r) in blocks.bucket(w, ib, p_blocks) {
                    let pu = &mut p[(u as usize - w * ub_size) * k..][..k];
                    let qv = &mut q[(v as usize - ib * ib_size) * k..][..k];
                    sgd_update(pu, qv, r, gamma, cfg.lambda);
                }
            });
        }
        gamma *= cfg.step_decay;
        history.push(rmse(g, &f));
    }
    (f, history)
}

/// `rows` cut into `blocks` consecutive blocks of `block_len` values,
/// padded with empty blocks when the rows run out first.
fn block_rows(rows: &mut [f64], block_len: usize, blocks: usize) -> Vec<&mut [f64]> {
    let mut out: Vec<&mut [f64]> = rows.chunks_mut(block_len.max(1)).collect();
    out.resize_with(blocks, Default::default);
    out
}

/// Full-batch Gradient Descent — eq. (11)/(12). One iteration aggregates
/// gradients over all ratings, then applies them; parallel by user rows
/// then item rows (no write conflicts).
pub fn gd(g: &RatingsGraph, cfg: &CfConfig, epochs: u32, threads: usize) -> (Factors, Vec<f64>) {
    let mut f = Factors::init(g.num_users(), g.num_items(), cfg);
    let k = cfg.k;
    let mut history = Vec::with_capacity(epochs as usize);
    let mut gamma = cfg.gamma0;
    let nu = g.num_users() as usize;
    let nv = g.num_items() as usize;
    for _ in 0..epochs {
        // user-side gradients
        let grads_p: Vec<Vec<f64>> = par_tasks(threads.max(1), |t| {
            let chunk = nu.div_ceil(threads.max(1));
            let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(nu));
            let mut grad = vec![0.0; (hi.saturating_sub(lo)) * k];
            for u in lo..hi {
                let pu = f.p_row(u as u32);
                let gslice = &mut grad[(u - lo) * k..(u - lo + 1) * k];
                for (v, r) in g.ratings_of_user(u as u32) {
                    let qv = f.q_row(v);
                    let e = f64::from(r) - dot(pu, qv);
                    for i in 0..k {
                        gslice[i] += e * qv[i] - cfg.lambda * pu[i];
                    }
                }
            }
            grad
        });
        // item-side gradients
        let grads_q: Vec<Vec<f64>> = par_tasks(threads.max(1), |t| {
            let chunk = nv.div_ceil(threads.max(1));
            let (lo, hi) = (t * chunk, ((t + 1) * chunk).min(nv));
            let mut grad = vec![0.0; (hi.saturating_sub(lo)) * k];
            for v in lo..hi {
                let qv = f.q_row(v as u32);
                let gslice = &mut grad[(v - lo) * k..(v - lo + 1) * k];
                for (u, r) in g.ratings_of_item(v as u32) {
                    let pu = f.p_row(u);
                    let e = f64::from(r) - dot(pu, qv);
                    for i in 0..k {
                        gslice[i] += e * pu[i] - cfg.lambda * qv[i];
                    }
                }
            }
            grad
        });
        // apply
        let chunk_u = nu.div_ceil(threads.max(1));
        for (t, grad) in grads_p.iter().enumerate() {
            let lo = t * chunk_u;
            for (off, gval) in grad.iter().enumerate() {
                f.p[lo * k + off] += gamma * gval;
            }
        }
        let chunk_v = nv.div_ceil(threads.max(1));
        for (t, grad) in grads_q.iter().enumerate() {
            let lo = t * chunk_v;
            for (off, gval) in grad.iter().enumerate() {
                f.q[lo * k + off] += gamma * gval;
            }
        }
        gamma *= cfg.step_decay;
        history.push(rmse(g, &f));
    }
    (f, history)
}

/// Epochs needed to reach `target` RMSE, or `None` within `max_epochs`.
pub fn epochs_to_reach(history: &[f64], target: f64) -> Option<u32> {
    history
        .iter()
        .position(|&r| r <= target)
        .map(|i| i as u32 + 1)
}

/// Distributed SGD on the simulated cluster: `P = nodes` diagonal
/// blocking, item-factor blocks rotating between nodes each sub-step
/// ("partitioning is done so that all updates are local within a single
/// iteration and data sharing happens between iterations", §3.2).
/// Result is identical to [`sgd`] with `threads = nodes`.
pub fn sgd_cluster(
    g: &RatingsGraph,
    cfg: &CfConfig,
    epochs: u32,
    opts: NativeOptions,
    nodes: usize,
) -> Result<(Factors, Vec<f64>, RunReport), SimError> {
    let mut sim = Sim::new(ClusterSpec::paper(nodes), opts.profile());
    let mut router = Router::new(nodes, sim.profile());
    let p_blocks = nodes.max(1);
    let blocks = DiagonalBlocks::build(g, p_blocks);
    let mut f = Factors::init(g.num_users(), g.num_items(), cfg);
    let k = cfg.k as u64;

    // Memory: each node stores its user block's p rows, one item block's
    // q rows, and its rating blocks.
    let users_per = (g.num_users() as u64).div_ceil(p_blocks as u64);
    let items_per = (g.num_items() as u64).div_ceil(p_blocks as u64);
    for node in 0..nodes {
        let ratings: u64 = (0..p_blocks)
            .map(|ib| blocks.buckets[node * p_blocks + ib].len() as u64)
            .sum();
        sim.alloc(
            node,
            users_per * k * 8 + items_per * k * 8 + ratings * 12,
            "cf:factors+ratings",
        )?;
    }

    let mut history = Vec::with_capacity(epochs as usize);
    let mut gamma = cfg.gamma0;
    sim.phase("sgd:diag-block");
    for _ in 0..epochs {
        for s in 0..p_blocks {
            for w in 0..p_blocks {
                let ib = (w + s) % p_blocks;
                let bucket = &blocks.buckets[w * p_blocks + ib];
                for &(u, v, r) in bucket {
                    let pu = &mut f.p[u as usize * cfg.k..(u as usize + 1) * cfg.k];
                    // split borrow: q is a different vec
                    let qv = &mut f.q[v as usize * cfg.k..(v as usize + 1) * cfg.k];
                    sgd_update(pu, qv, r, gamma, cfg.lambda);
                }
                // Work: per rating, stream p and q rows (read+write) and
                // the rating record; ~8K flops; 2 row gathers.
                let nr = bucket.len() as u64;
                let w_node = Work {
                    seq_bytes: nr * (4 * k * 8 + 12),
                    rand_accesses: nr * 2,
                    flops: nr * 8 * k,
                };
                sim.charge(w, w_node);
                // Rotate: ship the q block to the next node (uncompressed;
                // factor state does not tolerate narrowing).
                if nodes > 1 {
                    let bytes = items_per * k * 8;
                    router.send(&mut sim, w, (w + nodes - 1) % nodes, bytes, bytes);
                }
            }
            router.flush(&mut sim);
            sim.end_step()?;
        }
        gamma *= cfg.step_decay;
        sim.end_iteration();
        history.push(rmse(g, &f));
    }
    Ok((f, history, sim.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmaze_datagen::ratings::{self, RatingsGenConfig};

    fn small_ratings(seed: u64) -> RatingsGraph {
        ratings::generate(&RatingsGenConfig {
            scale: 9,
            edge_factor: 16,
            num_items: 64,
            min_degree: 5,
            seed,
        })
    }

    fn cfg() -> CfConfig {
        CfConfig {
            k: 8,
            lambda: 0.05,
            gamma0: 0.02,
            step_decay: 0.98,
            seed: 7,
        }
    }

    #[test]
    fn factors_init_deterministic_and_bounded() {
        let a = Factors::init(10, 5, &cfg());
        let b = Factors::init(10, 5, &cfg());
        assert_eq!(a, b);
        assert!(a.p.iter().chain(&a.q).all(|&x| (0.0..0.1).contains(&x)));
        assert_eq!(a.p.len(), 80);
        assert_eq!(a.q.len(), 40);
    }

    #[test]
    fn sgd_reduces_rmse() {
        let g = small_ratings(3);
        let f0 = Factors::init(g.num_users(), g.num_items(), &cfg());
        let initial = rmse(&g, &f0);
        let (_, hist) = sgd(&g, &cfg(), 10, 2);
        assert!(hist[9] < initial * 0.7, "rmse {} -> {}", initial, hist[9]);
        // monotone-ish: last better than first epoch
        assert!(hist[9] < hist[0]);
    }

    #[test]
    fn gd_reduces_rmse() {
        let g = small_ratings(3);
        let mut c = cfg();
        c.gamma0 = 0.002; // GD needs a smaller step for stability
        let f0 = Factors::init(g.num_users(), g.num_items(), &c);
        let initial = rmse(&g, &f0);
        let (_, hist) = gd(&g, &c, 20, 2);
        assert!(hist[19] < initial, "rmse {} -> {}", initial, hist[19]);
        assert!(hist[19] < hist[0]);
    }

    #[test]
    fn sgd_converges_faster_than_gd() {
        // The paper: "SGD converges in about 40x fewer iterations than GD"
        // (Netflix, fixed criterion). At our scale we assert a large gap.
        let g = small_ratings(5);
        let (_, sgd_hist) = sgd(&g, &cfg(), 30, 2);
        let mut c = cfg();
        c.gamma0 = 0.002;
        let (_, gd_hist) = gd(&g, &c, 30, 2);
        let target = 1.0;
        let se = epochs_to_reach(&sgd_hist, target);
        let ge = epochs_to_reach(&gd_hist, target);
        assert!(se.is_some(), "SGD should reach {target}: {sgd_hist:?}");
        match ge {
            None => {} // GD did not reach it at all within 30 epochs — fine
            Some(ge) => {
                assert!(ge > se.unwrap() * 3, "SGD {:?} vs GD {:?}", se, ge);
            }
        }
    }

    #[test]
    fn sgd_deterministic_for_fixed_threads() {
        let g = small_ratings(9);
        let (fa, _) = sgd(&g, &cfg(), 3, 4);
        let (fb, _) = sgd(&g, &cfg(), 3, 4);
        assert_eq!(fa, fb);
    }

    #[test]
    fn cluster_matches_threaded_sgd() {
        let g = small_ratings(11);
        let nodes = 4;
        let (f_thread, _) = sgd(&g, &cfg(), 3, nodes);
        let (f_cluster, hist, report) =
            sgd_cluster(&g, &cfg(), 3, NativeOptions::all(), nodes).unwrap();
        for (a, b) in f_thread.p.iter().zip(&f_cluster.p) {
            assert!((a - b).abs() < 1e-12);
        }
        assert_eq!(hist.len(), 3);
        assert_eq!(report.iterations, 3);
        assert!(report.traffic.bytes_sent > 0);
    }

    #[test]
    fn single_node_cluster_no_traffic() {
        let g = small_ratings(13);
        let (_, _, report) = sgd_cluster(&g, &cfg(), 2, NativeOptions::all(), 1).unwrap();
        assert_eq!(report.traffic.bytes_sent, 0);
    }

    #[test]
    fn predict_and_rmse_consistency() {
        let g = RatingsGraph::from_ratings(2, 2, &[(0, 0, 4.0), (1, 1, 2.0)]);
        let f = Factors {
            p: vec![1.0, 0.0, 0.0, 1.0],
            q: vec![4.0, 0.0, 0.0, 2.0],
            k: 2,
        };
        assert!((f.predict(0, 0) - 4.0).abs() < 1e-12);
        assert!((f.predict(1, 1) - 2.0).abs() < 1e-12);
        assert!(rmse(&g, &f).abs() < 1e-12);
    }

    #[test]
    fn epochs_to_reach_finds_first_crossing() {
        let hist = [2.0, 1.5, 0.9, 0.8];
        assert_eq!(epochs_to_reach(&hist, 1.0), Some(3));
        assert_eq!(epochs_to_reach(&hist, 0.1), None);
    }
}
