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
//! identical for any thread count. The blocks are handed to the workers
//! as disjoint `&mut` slices by [`par_chunks_mut`], so the borrow checker
//! proves them disjoint: this module holds no unchecked code.
//!
//! Two exact shortcuts keep generation cheap without moving one output bit:
//!
//! * *Integer quadrant thresholds.* Each level draws `bits = x >> 11`
//!   (53 bits) and the uniform `r = bits · 2⁻⁵³`. That multiply is exact,
//!   so for any f64 threshold `t`, `r < t` holds exactly when
//!   `bits < ⌈t · 2⁵³⌉` (`bits` is an integer, and `t · 2⁵³` is exact
//!   too). The three cumulative sums `A`, `A + B`, `A + B + C` become three
//!   `u64` thresholds once per call, and the quadrant is two comparisons
//!   combined with bit operations instead of three unpredictable branches.
//! * *Scramble table.* The Feistel id scramble costs six `splitmix64`
//!   calls per endpoint. It is a function of `(id, scale, seed)` alone, so
//!   [`generate`] tabulates it once over all `2^scale` ids (4 bytes per
//!   vertex, 1/32 of the edge array at edge factor 16) and each endpoint
//!   becomes one lookup.

use graphmaze_graph::par::par_chunks_mut;
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

/// `2⁵³`: a uniform draw is `bits · 2⁻⁵³` with `bits` the top 53 bits
/// of one `u64`.
const UNIT: f64 = (1u64 << 53) as f64;

/// The quadrant boundaries `A`, `A + B` and `A + B + C` as integer
/// thresholds on the 53-bit draw: `bits · 2⁻⁵³ < t` exactly when
/// `bits < ⌈t · 2⁵³⌉` (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Thresholds {
    a: u64,
    ab: u64,
    abc: u64,
}

impl Thresholds {
    /// The thresholds of `p`, from the same f64 sums the f64 compare uses.
    fn of(p: RmatParams) -> Self {
        let ab = p.a + p.b;
        let abc = ab + p.c;
        let t = |x: f64| (x * UNIT).ceil() as u64;
        Thresholds {
            a: t(p.a),
            ab: t(ab),
            abc: t(abc),
        }
    }

    /// The `(src, dst)` bit pair of the quadrant a draw of `bits` selects:
    /// top-left `(0, 0)` below `A`, top-right `(0, 1)` below `A + B`,
    /// bottom-left `(1, 0)` below `A + B + C`, else bottom-right `(1, 1)`.
    #[inline]
    fn quadrant(&self, bits: u64) -> (u64, u64) {
        let ge_a = u64::from(bits >= self.a);
        let ge_ab = u64::from(bits >= self.ab);
        let ge_abc = u64::from(bits >= self.abc);
        (ge_ab, (ge_a ^ ge_ab) | ge_abc)
    }
}

/// Generates one RMAT edge with the given RNG: one 53-bit draw per level.
#[inline]
fn gen_edge(rng: &mut SmallRng, scale: u32, t: &Thresholds) -> (u64, u64) {
    let mut src = 0u64;
    let mut dst = 0u64;
    for _ in 0..scale {
        let (s, d) = t.quadrant(rng.next_u64() >> 11);
        src = src << 1 | s;
        dst = dst << 1 | d;
    }
    (src, dst)
}

const BLOCK: usize = 1 << 16;

/// [`scramble`] tabulated over every id of `0..2^scale`.
fn scramble_table(scale: u32, seed: u64, threads: usize) -> Vec<VertexId> {
    let mut table = vec![0 as VertexId; 1usize << scale];
    par_chunks_mut(&mut table, BLOCK, threads, |b, block| {
        for (i, id) in block.iter_mut().enumerate() {
            *id = scramble((b * BLOCK + i) as u64, scale, seed) as VertexId;
        }
    });
    table
}

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
    let thresholds = Thresholds::of(cfg.params);
    let ids = if cfg.scramble_ids {
        scramble_table(cfg.scale, cfg.seed, threads)
    } else {
        Vec::new()
    };
    let mut edges = vec![(0 as VertexId, 0 as VertexId); m];
    par_chunks_mut(&mut edges, BLOCK, threads, |b, block| {
        let mut rng = SmallRng::seed_from_u64(splitmix64(cfg.seed ^ (b as u64) << 1));
        for e in block.iter_mut() {
            let (s, d) = gen_edge(&mut rng, cfg.scale, &thresholds);
            *e = if cfg.scramble_ids {
                (ids[s as usize], ids[d as usize])
            } else {
                (s as VertexId, d as VertexId)
            };
        }
    });
    EdgeList::from_edges(cfg.num_vertices(), edges).expect("generated ids in range")
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
        for scramble_ids in [false, true] {
            let mut c = cfg(9);
            c.scramble_ids = scramble_ids;
            c.edge_factor = 300; // several 64 K-edge blocks
            c.threads = 1;
            let a = generate(&c);
            for threads in [2, 3, 4, 8] {
                c.threads = threads;
                let b = generate(&c);
                assert_eq!(a.edges(), b.edges(), "threads {threads}");
            }
        }
    }

    /// The branching f64 select the integer thresholds replace.
    fn quadrant_f64(p: RmatParams, bits: u64) -> (u64, u64) {
        let r = bits as f64 * (1.0 / UNIT);
        let ab = p.a + p.b;
        let abc = ab + p.c;
        if r < p.a {
            (0, 0)
        } else if r < ab {
            (0, 1)
        } else if r < abc {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    #[test]
    fn integer_thresholds_select_exactly_the_f64_quadrant() {
        let exact = RmatParams {
            a: 0.5,
            b: 0.25,
            c: 0.125,
        };
        for p in [
            RmatParams::GRAPH500,
            RmatParams::TRIANGLE,
            RmatParams::RATINGS,
            exact,
        ] {
            let t = Thresholds::of(p);
            assert!(t.a <= t.ab && t.ab <= t.abc, "{p:?}");
            let max = (1u64 << 53) - 1;
            for th in [t.a, t.ab, t.abc] {
                for bits in [0, th.saturating_sub(1), th, th + 1, max] {
                    let bits = bits.min(max);
                    assert_eq!(
                        t.quadrant(bits),
                        quadrant_f64(p, bits),
                        "{p:?} at bits {bits:#x}"
                    );
                }
            }
        }
        // the power-of-two preset lands exactly on integer thresholds
        let t = Thresholds::of(exact);
        assert_eq!(
            (t.a, t.ab, t.abc),
            (1 << 52, 3 << 51, 7 << 50),
            "exact thresholds"
        );
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
