//! Power-law ratings-matrix generator (paper §4.1.2).
//!
//! The paper's recipe, reproduced step by step:
//!
//! 1. generate a Graph500 RMAT graph with `A = 0.40, B = C = 0.22` (tail
//!    tuned to the Netflix dataset);
//! 2. "chunk the columns of the Graph500 matrix into chunks of size
//!    `N_items`", then "fold" by logical OR — i.e. item id = column mod
//!    `N_items`, duplicate cells merged;
//! 3. remove all vertices with degree < 5;
//! 4. assign star ratings. We draw ratings 1–5 from a Netflix-shaped
//!    marginal (mean ≈ 3.6) with a per-edge hash, keeping the generator
//!    deterministic and parallel-safe.

use graphmaze_graph::csr::Csr;
use graphmaze_graph::rng::{splitmix64, GOLDEN};
use graphmaze_graph::{RatingsGraph, VertexId, Weight};

use crate::rmat::{self, RmatConfig, RmatParams};

/// Probability of each star rating 1..=5 (Netflix-prize-shaped marginal).
const STAR_PROBS: [f64; 5] = [0.05, 0.10, 0.25, 0.35, 0.25];

/// Configuration of the ratings generator.
#[derive(Clone, Copy, Debug)]
pub struct RatingsGenConfig {
    /// `log2` of the square RMAT matrix dimension.
    pub scale: u32,
    /// Raw edges generated = `edge_factor * 2^scale`.
    pub edge_factor: u32,
    /// Number of items after folding (`N_items`, "movies" for Netflix).
    pub num_items: u32,
    /// Minimum degree kept by the filter pass (paper uses 5).
    pub min_degree: u32,
    /// RNG seed.
    pub seed: u64,
}

impl RatingsGenConfig {
    /// A config following the paper's defaults for a given scale.
    pub fn paper_defaults(scale: u32, num_items: u32, seed: u64) -> Self {
        RatingsGenConfig {
            scale,
            edge_factor: 16,
            num_items,
            min_degree: 5,
            seed,
        }
    }
}

/// Deterministically maps an edge to a star rating in `1.0..=5.0`.
#[inline]
fn star_for(u: VertexId, v: VertexId, seed: u64) -> Weight {
    let h = splitmix64(seed ^ (u64::from(u) << 32 | u64::from(v)).wrapping_mul(GOLDEN));
    // map to [0,1)
    let r = (h >> 11) as f64 / (1u64 << 53) as f64;
    let mut acc = 0.0;
    for (i, &p) in STAR_PROBS.iter().enumerate() {
        acc += p;
        if r < acc {
            return (i + 1) as Weight;
        }
    }
    5.0
}

/// Runs the full pipeline and returns the bipartite ratings graph.
///
/// Users and items are compacted to dense id ranges after the min-degree
/// filter; the returned graph's `num_users()`/`num_items()` reflect the
/// surviving counts.
pub fn generate(cfg: &RatingsGenConfig) -> RatingsGraph {
    assert!(cfg.num_items > 0, "need at least one item");
    let rcfg = RmatConfig {
        scale: cfg.scale,
        edge_factor: cfg.edge_factor,
        params: RmatParams::RATINGS,
        seed: cfg.seed,
        scramble_ids: true,
        threads: 0,
    };
    // Fold columns: item = col % num_items; logical OR = dedup. Each row
    // comes out sorted and duplicate-free, so the cells are in (row, item)
    // order without a global sort.
    let cells = {
        let raw = rmat::generate(&rcfg);
        let folded = raw
            .edges()
            .iter()
            .map(|&(row, col)| (row, col % cfg.num_items));
        Csr::from_pairs_dedup(raw.num_vertices(), folded)
    };

    // Min-degree filter on both sides (single pass, as in the paper).
    let row_deg: Vec<u32> = (0..cells.num_vertices())
        .map(|r| cells.degree(r as VertexId))
        .collect();
    let mut col_deg = vec![0u32; cfg.num_items as usize];
    for &c in cells.targets() {
        col_deg[c as usize] += 1;
    }
    let row_map = compact_ids(&row_deg, cfg.min_degree);
    let col_map = compact_ids(&col_deg, cfg.min_degree);
    let num_users = row_map.iter().filter(|m| m.is_some()).count() as u32;
    let num_items = col_map.iter().filter(|m| m.is_some()).count() as u32;

    let ratings: Vec<(VertexId, VertexId, Weight)> = (0..cells.num_vertices())
        .filter_map(|r| Some((row_map[r]?, cells.neighbors(r as VertexId))))
        .flat_map(|(u, items)| {
            let col_map = &col_map;
            items.iter().filter_map(move |&c| {
                let v = col_map[c as usize]?;
                Some((u, v, star_for(u, v, cfg.seed)))
            })
        })
        .collect();

    RatingsGraph::from_ratings(num_users, num_items, &ratings)
}

/// Maps ids with `deg >= min_degree` to dense `0..k`, dropping the rest.
fn compact_ids(degrees: &[u32], min_degree: u32) -> Vec<Option<VertexId>> {
    let mut next = 0 as VertexId;
    degrees
        .iter()
        .map(|&d| {
            if d >= min_degree {
                let id = next;
                next += 1;
                Some(id)
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> RatingsGenConfig {
        RatingsGenConfig {
            scale: 12,
            edge_factor: 16,
            num_items: 256,
            min_degree: 5,
            seed: 99,
        }
    }

    #[test]
    fn generates_bipartite_graph_with_filter_applied() {
        let g = generate(&small_cfg());
        assert!(g.num_users() > 0 && g.num_items() > 0);
        assert!(g.num_items() <= 256);
        for u in 0..g.num_users() {
            assert!(
                g.user_degree(u) >= 5,
                "user {u} kept with degree {}",
                g.user_degree(u)
            );
        }
        for v in 0..g.num_items() {
            assert!(
                g.item_degree(v) >= 5,
                "item {v} kept with degree {}",
                g.item_degree(v)
            );
        }
    }

    #[test]
    fn ratings_are_stars() {
        let g = generate(&small_cfg());
        for (_, _, w) in g.triples() {
            assert!((1.0..=5.0).contains(&w) && w.fract() == 0.0, "rating {w}");
        }
    }

    #[test]
    fn mean_rating_netflix_shaped() {
        let g = generate(&small_cfg());
        let mean = g.mean_rating();
        assert!(
            (3.2..4.1).contains(&mean),
            "mean rating {mean} outside Netflix-like band"
        );
    }

    #[test]
    fn deterministic() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a.triples(), b.triples());
        let mut cfg = small_cfg();
        cfg.seed = 100;
        let c = generate(&cfg);
        assert_ne!(a.triples(), c.triples());
    }

    #[test]
    fn user_degrees_are_skewed() {
        // The paper tunes RMAT so the *user* (row) degree tail matches
        // Netflix; the fold never touches rows, so their skew must survive
        // the pipeline. The fold averages item-side skew at small scale,
        // so items only get a loose check.
        let g = generate(&small_cfg());
        let mut udegs: Vec<u32> = (0..g.num_users()).map(|u| g.user_degree(u)).collect();
        let ustats = graphmaze_graph::degree::DegreeStats::of_degrees(&mut udegs, g.num_ratings());
        assert!(
            ustats.gini > 0.25,
            "user degree gini {} too uniform",
            ustats.gini
        );
        let mut idegs: Vec<u32> = (0..g.num_items()).map(|v| g.item_degree(v)).collect();
        let istats = graphmaze_graph::degree::DegreeStats::of_degrees(&mut idegs, g.num_ratings());
        assert!(
            istats.gini > 0.05,
            "item degree gini {} too uniform",
            istats.gini
        );
    }

    #[test]
    fn star_distribution_roughly_matches_marginal() {
        let mut counts = [0u64; 5];
        for i in 0..20_000u64 {
            let s = star_for((i >> 8) as u32, (i & 255) as u32, 7);
            counts[s as usize - 1] += 1;
        }
        let total: u64 = counts.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let p = c as f64 / total as f64;
            assert!(
                (p - STAR_PROBS[i]).abs() < 0.03,
                "star {} probability {p} vs expected {}",
                i + 1,
                STAR_PROBS[i]
            );
        }
    }
}
