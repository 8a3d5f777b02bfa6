//! Graph500 RMAT (Recursive MATrix) generator.
//!
//! Each edge is placed by recursively choosing one of four quadrants of the
//! adjacency matrix with probabilities `(A, B, C, D)` until a single cell
//! remains. Skew in `A` produces the power-law degree distributions that
//! define "massive graph datasets" in the paper. Parameter presets come
//! straight from §4.1.2.
//!
//! Determinism: edges are generated in fixed 64 K-edge blocks, each block
//! seeded by `splitmix64(seed ^ block_index << 1)`, so output is
//! identical for any thread count.

use graphmaze_graph::par::par_for_chunks;
use graphmaze_graph::rng::{splitmix64, SmallRng};
use graphmaze_graph::{EdgeList, VertexId};

/// Quadrant probabilities of the recursive matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
}

impl RmatParams {
    /// The Graph500 defaults used by the paper for PageRank/BFS graphs:
    /// `A = 0.57, B = C = 0.19` (§4.1.2).
    pub const GRAPH500: RmatParams = RmatParams {
        a: 0.57,
        b: 0.19,
        c: 0.19,
    };

    /// The paper's triangle-counting parameters, chosen "to reduce the
    /// number of triangles": `A = 0.45, B = C = 0.15`.
    pub const TRIANGLE: RmatParams = RmatParams {
        a: 0.45,
        b: 0.15,
        c: 0.15,
    };

    /// The paper's ratings-matrix parameters whose degree tail matches the
    /// Netflix dataset: `A = 0.40, B = C = 0.22`.
    pub const RATINGS: RmatParams = RmatParams {
        a: 0.40,
        b: 0.22,
        c: 0.22,
    };

    /// The implied bottom-right probability `D = 1 - A - B - C`.
    #[inline]
    pub fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }

    /// Validates that all four probabilities are within `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d())] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("rmat parameter {name}={p} outside [0,1]"));
            }
        }
        Ok(())
    }
}

/// Full generator configuration.
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// `log2` of the number of vertices (Graph500 "scale").
    pub scale: u32,
    /// Edges generated = `edge_factor * 2^scale` (Graph500 uses 16).
    pub edge_factor: u32,
    /// Quadrant probabilities.
    pub params: RmatParams,
    /// RNG seed; same seed ⇒ same graph.
    pub seed: u64,
    /// Scramble vertex ids with a pseudorandom permutation, as Graph500
    /// requires, so that vertex id carries no degree information.
    pub scramble_ids: bool,
    /// Threads for generation (0 ⇒ default).
    pub threads: usize,
}

impl RmatConfig {
    /// A Graph500-flavored config at the given scale with edge factor 16.
    pub fn graph500(scale: u32, seed: u64) -> Self {
        RmatConfig {
            scale,
            edge_factor: 16,
            params: RmatParams::GRAPH500,
            seed,
            scramble_ids: true,
            threads: 0,
        }
    }

    /// Number of vertices, `2^scale`.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        1u64 << self.scale
    }

    /// Number of raw edges generated (before any dedup).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        u64::from(self.edge_factor) << self.scale
    }
}

/// Feistel-style reversible id scramble on `scale` bits: a pseudorandom
/// permutation of `0..2^scale` without materializing it.
#[inline]
fn scramble(v: u64, scale: u32, seed: u64) -> u64 {
    debug_assert!(scale >= 2, "scramble needs at least 2 bits");
    let half = scale / 2;
    let lo_bits = half;
    let hi_bits = scale - half;
    let lo_mask = (1u64 << lo_bits) - 1;
    let hi_mask = (1u64 << hi_bits) - 1;
    let mut lo = v & lo_mask;
    let mut hi = (v >> lo_bits) & hi_mask;
    for round in 0..3u64 {
        let f = splitmix64(hi ^ seed.wrapping_add(round)) & lo_mask;
        let nl = (lo ^ f) & lo_mask;
        let nh = hi ^ (splitmix64(nl ^ seed.wrapping_mul(31).wrapping_add(round)) & hi_mask);
        lo = nl;
        hi = nh & hi_mask;
    }
    (hi << lo_bits) | lo
}

/// Generates one RMAT edge with the given RNG.
#[inline]
fn gen_edge(rng: &mut SmallRng, scale: u32, p: RmatParams) -> (u64, u64) {
    let mut src = 0u64;
    let mut dst = 0u64;
    let ab = p.a + p.b;
    let abc = ab + p.c;
    for _ in 0..scale {
        src <<= 1;
        dst <<= 1;
        let r = rng.unit_f64();
        if r < p.a {
            // top-left
        } else if r < ab {
            dst |= 1;
        } else if r < abc {
            src |= 1;
        } else {
            src |= 1;
            dst |= 1;
        }
    }
    (src, dst)
}

const BLOCK: usize = 1 << 16;

/// Generates the raw RMAT edge list (duplicates and self-loops included —
/// normalize with [`EdgeList::dedup`] etc. as each algorithm requires).
///
/// ```
/// use graphmaze_datagen::{rmat, RmatConfig};
/// let el = rmat::generate(&RmatConfig::graph500(10, 42));
/// assert_eq!(el.num_vertices(), 1024);
/// assert_eq!(el.num_edges(), 16 * 1024); // Graph500 edge factor 16
/// ```
pub fn generate(cfg: &RmatConfig) -> EdgeList {
    cfg.params.validate().expect("invalid RMAT parameters");
    assert!(cfg.scale >= 2 && cfg.scale <= 32, "scale must be in 2..=32");
    let m = cfg.num_edges() as usize;
    let threads = if cfg.threads == 0 {
        graphmaze_graph::par::default_threads()
    } else {
        cfg.threads
    };
    let mut edges = vec![(0 as VertexId, 0 as VertexId); m];
    let nblocks = m.div_ceil(BLOCK);
    {
        let edges_slices: Vec<&mut [(VertexId, VertexId)]> = edges.chunks_mut(BLOCK).collect();
        let edges_cells: Vec<parking_slot::SliceCell<'_>> = edges_slices
            .into_iter()
            .map(parking_slot::SliceCell::new)
            .collect();
        par_for_chunks(nblocks, threads, |_, range| {
            for b in range {
                let mut rng = SmallRng::seed_from_u64(splitmix64(cfg.seed ^ (b as u64) << 1));
                let out = edges_cells[b].get_mut();
                for e in out.iter_mut() {
                    let (s, d) = gen_edge(&mut rng, cfg.scale, cfg.params);
                    let (s, d) = if cfg.scramble_ids {
                        (
                            scramble(s, cfg.scale, cfg.seed),
                            scramble(d, cfg.scale, cfg.seed),
                        )
                    } else {
                        (s, d)
                    };
                    *e = (s as VertexId, d as VertexId);
                }
            }
        });
    }
    EdgeList::from_edges(cfg.num_vertices(), edges).expect("generated ids in range")
}

/// Tiny unsafe cell wrapper letting disjoint mutable chunks be filled from
/// scoped threads. Each chunk is owned by exactly one block index.
mod parking_slot {
    use std::cell::UnsafeCell;

    pub struct SliceCell<'a>(UnsafeCell<&'a mut [(u32, u32)]>);

    // SAFETY: each SliceCell wraps a disjoint chunk and is accessed by at
    // most one worker (block indices are partitioned across threads).
    unsafe impl Sync for SliceCell<'_> {}

    impl<'a> SliceCell<'a> {
        pub fn new(s: &'a mut [(u32, u32)]) -> Self {
            SliceCell(UnsafeCell::new(s))
        }

        /// Callers must ensure exclusive access per block (par_for_chunks
        /// assigns each index to exactly one worker).
        #[allow(clippy::mut_from_ref)]
        pub fn get_mut(&self) -> &mut [(u32, u32)] {
            unsafe { *self.0.get() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmaze_graph::csr::Csr;
    use graphmaze_graph::degree::{DegreeHistogram, DegreeStats};

    fn cfg(scale: u32) -> RmatConfig {
        RmatConfig {
            scale,
            edge_factor: 8,
            params: RmatParams::GRAPH500,
            seed: 42,
            scramble_ids: false,
            threads: 2,
        }
    }

    #[test]
    fn params_presets_are_valid_distributions() {
        for p in [
            RmatParams::GRAPH500,
            RmatParams::TRIANGLE,
            RmatParams::RATINGS,
        ] {
            p.validate().unwrap();
            assert!((p.a + p.b + p.c + p.d() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(RmatParams {
            a: 0.9,
            b: 0.9,
            c: 0.9
        }
        .validate()
        .is_err());
        assert!(RmatParams {
            a: -0.1,
            b: 0.5,
            c: 0.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn generates_requested_counts_in_range() {
        let c = cfg(10);
        let el = generate(&c);
        assert_eq!(el.num_vertices(), 1024);
        assert_eq!(el.num_edges(), 8 * 1024);
        assert!(el.edges().iter().all(|&(s, d)| s < 1024 && d < 1024));
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut c = cfg(9);
        c.threads = 1;
        let a = generate(&c);
        c.threads = 4;
        let b = generate(&c);
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn different_seeds_differ() {
        let mut c = cfg(9);
        let a = generate(&c);
        c.seed = 43;
        let b = generate(&c);
        assert_ne!(a.edges(), b.edges());
    }

    #[test]
    fn skewed_params_give_power_law_tail() {
        let c = cfg(12);
        let el = generate(&c);
        let g = Csr::from_edges(el.num_vertices(), el.edges());
        let stats = DegreeStats::of(&g);
        // RMAT with A=0.57 concentrates degree on few vertices.
        assert!(stats.gini > 0.4, "gini {} too uniform for RMAT", stats.gini);
        let h = DegreeHistogram::of(&g);
        let slope = h.log_log_slope().expect("histogram has ≥2 buckets");
        assert!(slope < -0.3, "log-log slope {slope} not a decaying tail");
    }

    #[test]
    fn scramble_preserves_degree_distribution_but_moves_ids() {
        let mut c = cfg(10);
        c.scramble_ids = false;
        let plain = generate(&c);
        c.scramble_ids = true;
        let scrambled = generate(&c);
        assert_ne!(plain.edges(), scrambled.edges());
        // same number of edges, same multiset size
        assert_eq!(plain.num_edges(), scrambled.num_edges());
        // scramble is a bijection: degree multisets match
        let dg = |el: &EdgeList| {
            let g = Csr::from_edges(el.num_vertices(), el.edges());
            let mut d: Vec<u32> = (0..g.num_vertices()).map(|v| g.degree(v as u32)).collect();
            d.sort_unstable();
            d
        };
        assert_eq!(dg(&plain), dg(&scrambled));
    }

    #[test]
    fn scramble_is_bijective_on_small_domain() {
        let scale = 8;
        let mut seen = vec![false; 1 << scale];
        for v in 0..(1u64 << scale) {
            let s = scramble(v, scale, 1234) as usize;
            assert!(s < 1 << scale);
            assert!(!seen[s], "collision at {v} -> {s}");
            seen[s] = true;
        }
    }
}
