//! The paper's algorithms as vertex programs — Algorithm 1 (PageRank),
//! Algorithm 2 (BFS), the §3.2 descriptions of triangle counting and
//! collaborative filtering in the vertex model, and bit-parallel
//! multi-source BFS — written in the declarative gather–apply–scatter
//! form of [`super::gas`].
//!
//! Each program declares its gather algebra as a `spmv::semiring`
//! monoid: PageRank folds with `(+, 0)`, BFS with `(min, MAX)`,
//! multi-source BFS with word-wise OR; triangle counting and CF need the
//! raw inbox (`Collect`). The `*_job` constructors pair each program
//! with its launch (initial values, seeds, superstep cap, finalizer) as
//! a [`GasJob`] that any [`super::gas::Backend`] runs.

use std::borrow::Cow;
use std::cell::RefCell;

use graphmaze_graph::csr::{Csr, DirectedGraph, UndirectedGraph};
use graphmaze_graph::{RatingsGraph, RowBitmap, VertexId};

use super::engine::VertexGraphView;
use super::gas::{ApplyContext, GasJob, GasProgram, GatherMode, Gathered};
use crate::spmv::semiring::{min_u32, or_words, plus_f64};

/// Algorithm 1 — one PageRank iteration per superstep:
///
/// ```text
/// PR ← r
/// for msg ∈ incoming messages: PR ← PR + (1 − r) · msg
/// send PR / degree to all outgoing edges
/// ```
///
/// Superstep 0 only scatters the initial rank; supersteps `1..=T` apply
/// the update, so after superstep `T` the values equal `T` synchronous
/// iterations of eq. (1).
pub struct PageRankProgram {
    /// Random-jump probability (the paper uses 0.3).
    pub r: f64,
    /// Number of PageRank iterations to run.
    pub iterations: u32,
}

impl GasProgram for PageRankProgram {
    type Value = f64;
    type Msg = f64;

    fn gather(&self) -> GatherMode<f64> {
        GatherMode::Fold(plus_f64())
    }

    fn apply(
        &self,
        superstep: u32,
        v: VertexId,
        value: &mut f64,
        gathered: Gathered<'_, f64>,
        g: &VertexGraphView<'_>,
        ctx: &mut ApplyContext,
    ) -> Option<f64> {
        if superstep > 0 {
            let sum = gathered.folded();
            *value = self.r + (1.0 - self.r) * sum;
        }
        if superstep < self.iterations {
            let d = g.degree(v);
            if d > 0 {
                return Some(*value / f64::from(d));
            }
        } else {
            ctx.vote_to_halt();
        }
        None
    }

    fn message_bytes(&self, _: &f64) -> u64 {
        8 // Table 1: constant 8 bytes/edge
    }

    fn value_bytes(&self) -> u64 {
        8
    }
}

/// PageRank with **early convergence detection** via the global
/// aggregator — the variant the paper notes "some Pagerank
/// implementations differ in whether early convergence is detected"
/// (§5.2, which is why it reports time per iteration). Each vertex
/// aggregates its |dPR|; when the previous superstep's global L1 delta
/// drops below `tolerance`, every vertex stops scattering and halts.
pub struct PageRankConvergentProgram {
    /// Random-jump probability.
    pub r: f64,
    /// Global L1 delta below which the computation stops.
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: u32,
}

impl GasProgram for PageRankConvergentProgram {
    type Value = f64;
    type Msg = f64;

    fn gather(&self) -> GatherMode<f64> {
        GatherMode::Fold(plus_f64())
    }

    fn apply(
        &self,
        superstep: u32,
        v: VertexId,
        value: &mut f64,
        gathered: Gathered<'_, f64>,
        g: &VertexGraphView<'_>,
        ctx: &mut ApplyContext,
    ) -> Option<f64> {
        if superstep > 0 {
            let sum = gathered.folded();
            let new = self.r + (1.0 - self.r) * sum;
            ctx.aggregate((new - *value).abs());
            *value = new;
        }
        let converged = superstep > 1 && ctx.prev_aggregate() < self.tolerance;
        if superstep < self.max_iterations && !converged {
            let d = g.degree(v);
            if d > 0 {
                return Some(*value / f64::from(d));
            }
        } else {
            ctx.vote_to_halt();
        }
        None
    }

    fn message_bytes(&self, _: &f64) -> u64 {
        8
    }

    fn value_bytes(&self) -> u64 {
        8
    }
}

/// Algorithm 2 — BFS as min-propagation:
///
/// ```text
/// for msg ∈ incoming messages: Distance ← min(Distance, msg + 1)
/// send Distance to all outgoing edges (only when improved)
/// ```
pub struct BfsProgram;

/// The unreached sentinel distance.
pub const BFS_UNREACHED: u32 = u32::MAX;

impl GasProgram for BfsProgram {
    type Value = u32;
    type Msg = u32;

    fn gather(&self) -> GatherMode<u32> {
        GatherMode::Fold(min_u32())
    }

    fn apply(
        &self,
        superstep: u32,
        _v: VertexId,
        value: &mut u32,
        gathered: Gathered<'_, u32>,
        _g: &VertexGraphView<'_>,
        ctx: &mut ApplyContext,
    ) -> Option<u32> {
        // the empty inbox folds to MAX, whose saturated +1 never improves
        let incoming = gathered.folded();
        let improved = incoming.saturating_add(1) < *value;
        if improved {
            *value = incoming + 1;
        }
        // The source (value 0, woken by its seed message) scatters once.
        let is_seed = superstep == 0 && *value == 0;
        ctx.vote_to_halt();
        if improved || is_seed {
            Some(if is_seed { 0 } else { *value })
        } else {
            None
        }
    }

    /// Unweighted BFS settles on first reach, so deliveries to an
    /// already-reached vertex can never improve it — the lowered gather
    /// masks them off.
    fn gather_mask(&self, value: &u32) -> bool {
        *value == BFS_UNREACHED
    }

    fn message_bytes(&self, _: &u32) -> u64 {
        4 // Table 1: constant 4 bytes/edge
    }

    fn value_bytes(&self) -> u64 {
        4
    }
}

/// Bit-parallel multi-source BFS as a vertex program — the word-level
/// kernel forced into the per-vertex model (ROADMAP item 2). Each vertex
/// value carries one `u64` mask word per 64 sources ("which sources
/// reached me") plus per-source distances; messages are the newly
/// settled mask words, OR-combined. Every rule is uniform: bit `b`
/// arriving at superstep `s` means source `b` is `s` hops away (seeds
/// get their own mask as an initial message, settling at superstep 0).
///
/// The structural mismatch the paper's framework critique predicts is
/// visible in the message plane: where the native kernel gossips one
/// word per edge with `fetch_or`, the vertex model re-materializes the
/// whole mask vector as a heap message per edge per level.
pub struct MsBfsProgram {
    /// Total number of sources in the batch (bits `i*64+b` with
    /// `i*64+b >= num_sources` are never set).
    pub num_sources: usize,
}

/// Per-vertex msbfs state: settled source masks + per-source distances.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsBfsState {
    /// One mask word per 64 sources; bit `b` of word `i` set means
    /// source `i*64+b` has reached this vertex.
    pub seen: Vec<u64>,
    /// Hop distance per source ([`BFS_UNREACHED`] until settled).
    pub dist: Vec<u32>,
}

impl MsBfsProgram {
    /// Mask words per message/value for this batch size.
    pub fn width(&self) -> usize {
        self.num_sources.div_ceil(64)
    }

    /// The all-unreached initial state.
    pub fn initial_state(&self) -> MsBfsState {
        MsBfsState {
            seen: vec![0u64; self.width()],
            dist: vec![BFS_UNREACHED; self.num_sources],
        }
    }
}

impl GasProgram for MsBfsProgram {
    type Value = MsBfsState;
    type Msg = Vec<u64>;

    fn gather(&self) -> GatherMode<Vec<u64>> {
        // OR distributes over the &!seen filter, so folding the inbox
        // first is bit-identical to filtering message by message
        GatherMode::Fold(or_words(self.width()))
    }

    fn apply(
        &self,
        superstep: u32,
        _v: VertexId,
        value: &mut MsBfsState,
        gathered: Gathered<'_, Vec<u64>>,
        _g: &VertexGraphView<'_>,
        ctx: &mut ApplyContext,
    ) -> Option<Vec<u64>> {
        let folded = gathered.folded();
        let mut newly = vec![0u64; self.width()];
        let mut any = false;
        for (i, &w) in folded.iter().enumerate() {
            let nw = w & !value.seen[i];
            if nw != 0 {
                newly[i] = nw;
                any = true;
            }
        }
        ctx.vote_to_halt();
        if !any {
            return None;
        }
        for (i, &nw) in newly.iter().enumerate() {
            if nw == 0 {
                continue;
            }
            value.seen[i] |= nw;
            let mut bits = nw;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                value.dist[i * 64 + b] = superstep;
            }
        }
        Some(newly)
    }

    /// Once every source has reached a vertex, arriving masks are fully
    /// `seen` and can have no effect — mask those deliveries off.
    fn gather_mask(&self, value: &MsBfsState) -> bool {
        value.dist.contains(&BFS_UNREACHED)
    }

    fn message_bytes(&self, msg: &Vec<u64>) -> u64 {
        msg.len() as u64 * 8 // one mask word per 64 sources
    }

    fn value_bytes(&self) -> u64 {
        (self.width() * 8 + self.num_sources * 4) as u64
    }

    fn flops_per_msg(&self) -> u64 {
        self.width() as u64 // one OR per mask word
    }
}

/// Triangle counting on a DAG-oriented graph (§3.2): superstep 0, every
/// vertex sends its out-neighbor list to each out-neighbor; superstep 1,
/// every vertex intersects received lists with its own out-neighbors.
/// The total count is the sum of all vertex values.
pub struct TriangleProgram {
    /// Reusable bitmap of the applying vertex's `N+(v)`, which every
    /// received list is probed against. Owned by the program value, so
    /// one run allocates it once and concurrent runs share nothing.
    marks: RefCell<RowBitmap>,
}

impl GasProgram for TriangleProgram {
    type Value = u64;
    type Msg = Vec<VertexId>;

    fn gather(&self) -> GatherMode<Vec<VertexId>> {
        // neighbor lists have no useful ⊕ — apply walks each one
        GatherMode::Collect
    }

    fn apply(
        &self,
        superstep: u32,
        v: VertexId,
        value: &mut u64,
        gathered: Gathered<'_, Vec<VertexId>>,
        g: &VertexGraphView<'_>,
        ctx: &mut ApplyContext,
    ) -> Option<Vec<VertexId>> {
        ctx.vote_to_halt();
        if superstep == 0 {
            let nv = g.neighbors(v);
            if nv.is_empty() {
                None
            } else {
                Some(nv.to_vec())
            }
        } else {
            // |list ∩ N+(v)| for each received list: mark N+(v) once,
            // probe every list against it
            let (own, mut marks) = (g.neighbors(v), self.marks.borrow_mut());
            marks.mark(own);
            for list in gathered.all() {
                *value += marks.probe(list);
            }
            marks.unmark(own);
            None
        }
    }

    fn message_bytes(&self, msg: &Vec<VertexId>) -> u64 {
        msg.len() as u64 * 4 // Table 1: variable 0–10⁶ bytes
    }

    fn value_bytes(&self) -> u64 {
        8
    }

    fn flops_per_msg(&self) -> u64 {
        8 // merge-compare per list element is folded into streamed bytes
    }
}

/// Collaborative filtering by alternating Gradient Descent (§3.2: "GD
/// involves aggregating information from all neighbors and sending the
/// updated vector at the end of the iteration").
///
/// The bipartite graph is packed into one id space: users `0..U`, items
/// `U..U+V`, with rating-weighted edges in both directions. Even
/// supersteps: users send `p_u` to rated items; odd supersteps: items
/// aggregate, update `q_v` (eq. (12)) and send it back; users then update
/// `p_u` (eq. (11)). One GD iteration = 2 supersteps.
pub struct CfGdProgram {
    /// Number of users (vertices `0..num_users` are users).
    pub num_users: u32,
    /// Latent dimension K.
    pub k: usize,
    /// Regularization λ.
    pub lambda: f64,
    /// Step size γ (constant across the run for the framework version).
    pub gamma: f64,
    /// GD iterations to run (2 supersteps each).
    pub iterations: u32,
}

/// A factor-vector message: `(sender, factors)`.
#[derive(Clone, Debug)]
pub struct FactorMsg {
    /// Sending vertex (packed id).
    pub from: VertexId,
    /// The sender's factor row.
    pub vec: Vec<f64>,
}

impl GasProgram for CfGdProgram {
    type Value = Vec<f64>;
    type Msg = FactorMsg;

    fn gather(&self) -> GatherMode<FactorMsg> {
        // the gradient needs each sender's identity for the rating
        // lookup, so the inbox cannot be pre-reduced
        GatherMode::Collect
    }

    fn apply(
        &self,
        superstep: u32,
        v: VertexId,
        value: &mut Vec<f64>,
        gathered: Gathered<'_, FactorMsg>,
        g: &VertexGraphView<'_>,
        ctx: &mut ApplyContext,
    ) -> Option<FactorMsg> {
        let msgs = gathered.all();
        let is_user = v < self.num_users;
        let my_turn_to_update = if is_user {
            superstep.is_multiple_of(2)
        } else {
            superstep % 2 == 1
        };
        if my_turn_to_update && superstep > 0 {
            // aggregate gradient from received factor vectors (eq. 11/12)
            let mut grad = vec![0.0; self.k];
            for m in msgs {
                let r = f64::from(g.edge_weight(v, m.from).expect("rated edge"));
                let e = r - dot(value, &m.vec);
                for i in 0..self.k {
                    grad[i] += e * m.vec[i] - self.lambda * value[i];
                }
            }
            for i in 0..self.k {
                value[i] += self.gamma * grad[i];
            }
        }
        ctx.vote_to_halt();
        let last_superstep = 2 * self.iterations;
        if superstep >= last_superstep {
            return None;
        }
        let my_turn_to_send = if is_user {
            superstep.is_multiple_of(2)
        } else {
            superstep % 2 == 1
        };
        if my_turn_to_send {
            Some(FactorMsg {
                from: v,
                vec: value.clone(),
            })
        } else {
            None
        }
    }

    fn message_bytes(&self, m: &FactorMsg) -> u64 {
        4 + m.vec.len() as u64 * 8 // Table 1: ~8K bytes at the paper's K
    }

    fn value_bytes(&self) -> u64 {
        self.k as u64 * 8
    }

    fn flops_per_msg(&self) -> u64 {
        (self.k * 6) as u64 // dot + gradient accumulate per message
    }
}

/// Seed messages for [`MsBfsProgram`]: source `i` wakes its vertex with
/// a mask vector carrying only bit `i`, settling it at superstep 0.
fn msbfs_seed_msgs(sources: &[VertexId]) -> Vec<(VertexId, Vec<u64>)> {
    let width = sources.len().div_ceil(64).max(1);
    sources
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let mut mask = vec![0u64; width];
            mask[i / 64] = 1u64 << (i % 64);
            (s, mask)
        })
        .collect()
}

/// Transposes per-vertex [`MsBfsState`] values into one distance row per
/// source — the layout the native kernel returns.
fn msbfs_rows(values: &[MsBfsState], num_sources: usize) -> Vec<Vec<u32>> {
    (0..num_sources)
        .map(|s| values.iter().map(|st| st.dist[s]).collect())
        .collect()
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Packs a bipartite ratings graph into one vertex id space for the
/// vertex engines: users keep their ids, item `v` becomes
/// `num_users + v`; every rating contributes both directed edges.
/// Adjacency is sorted so [`VertexGraphView::edge_weight`] can binary
/// search (a pair rated twice keeps its ratings in input order).
/// Returns `(csr, weights)` aligned per edge.
pub fn pack_bipartite(g: &RatingsGraph) -> (Csr, Vec<f32>) {
    let nu = g.num_users();
    let edges = g.num_ratings() as usize * 2;
    let mut offsets = Vec::with_capacity(nu as usize + g.num_items() as usize + 1);
    offsets.push(0u64);
    let mut targets: Vec<VertexId> = Vec::with_capacity(edges);
    let mut weights: Vec<f32> = Vec::with_capacity(edges);
    // user rows (targets shifted into the item range), then item rows:
    // both orientations are already CSRs, and the generators emit rows
    // ascending, so the stable per-row sort is the rare path
    let mut unsorted_row: Vec<(VertexId, f32)> = Vec::new();
    for (side, shift) in [(g.by_user(), nu), (g.by_item(), 0)] {
        for v in 0..side.num_vertices() as VertexId {
            let (ids, ratings) = (side.neighbors(v), side.weights_of(v));
            if ids.windows(2).all(|w| w[0] <= w[1]) {
                targets.extend(ids.iter().map(|&t| t + shift));
                weights.extend_from_slice(ratings);
            } else {
                unsorted_row.clear();
                unsorted_row.extend(side.edges_of(v));
                unsorted_row.sort_by_key(|&(t, _)| t);
                targets.extend(unsorted_row.iter().map(|&(t, _)| t + shift));
                weights.extend(unsorted_row.iter().map(|&(_, r)| r));
            }
            offsets.push(targets.len() as u64);
        }
    }
    (Csr::from_parts(offsets, targets), weights)
}

/// `iterations` PageRank iterations from uniform rank 1.
pub fn pagerank_job(g: &DirectedGraph, r: f64, iterations: u32) -> GasJob<'_, PageRankProgram> {
    GasJob::new(
        &g.out,
        PageRankProgram { r, iterations },
        vec![1.0; g.num_vertices()],
        iterations + 2,
    )
}

/// BFS from `source`; the result is the distance per vertex
/// ([`BFS_UNREACHED`] where unreachable).
pub fn bfs_job(g: &UndirectedGraph, source: VertexId) -> GasJob<'_, BfsProgram> {
    let n = g.num_vertices();
    let mut values = vec![BFS_UNREACHED; n];
    values[source as usize] = 0;
    GasJob {
        seeds: vec![(source, 0)],
        activate_all: false,
        ..GasJob::new(&g.adj, BfsProgram, values, n as u32 + 2)
    }
}

/// Bit-parallel BFS from all `sources` at once; the result is one
/// distance row per source, identical to `graphmaze_native::msbfs::msbfs`.
pub fn msbfs_job<'g>(
    g: &'g UndirectedGraph,
    sources: &[VertexId],
) -> GasJob<'g, MsBfsProgram, Vec<Vec<u32>>> {
    let n = g.num_vertices();
    let program = MsBfsProgram {
        num_sources: sources.len(),
    };
    GasJob {
        graph: Cow::Borrowed(&g.adj),
        weights: None,
        values: vec![program.initial_state(); n],
        program,
        seeds: msbfs_seed_msgs(sources),
        activate_all: false,
        max_supersteps: n as u32 + 2,
        supersteps_per_iteration: 1,
        finish: |program, values| msbfs_rows(&values, program.num_sources),
    }
}

/// Triangle count of a DAG-oriented, sorted-adjacency CSR (see
/// `graphmaze_native::triangle::orient_and_sort`).
pub fn triangle_job(oriented: &Csr) -> GasJob<'_, TriangleProgram, u64> {
    GasJob {
        graph: Cow::Borrowed(oriented),
        weights: None,
        program: TriangleProgram {
            marks: RefCell::new(RowBitmap::new(oriented.num_vertices())),
        },
        values: vec![0; oriented.num_vertices()],
        seeds: vec![],
        activate_all: true,
        max_supersteps: 4,
        supersteps_per_iteration: 2,
        finish: |_, values| values.iter().sum(),
    }
}

/// `iterations` alternating-GD sweeps over the ratings packed by
/// [`pack_bipartite`], from deterministic hashed factors in `[0, 0.1)`;
/// the result is the packed factor rows (users, then items).
pub fn cf_gd_job(
    g: &RatingsGraph,
    k: usize,
    lambda: f64,
    gamma: f64,
    iterations: u32,
) -> GasJob<'static, CfGdProgram> {
    let (csr, weights) = pack_bipartite(g);
    let values = (0..csr.num_vertices())
        .map(|i| {
            (0..k)
                .map(|j| {
                    let x = (i as u64 * 31 + j as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    (x >> 11) as f64 / (1u64 << 53) as f64 * 0.1
                })
                .collect()
        })
        .collect();
    GasJob {
        graph: Cow::Owned(csr),
        weights: Some(weights),
        program: CfGdProgram {
            num_users: g.num_users(),
            k,
            lambda,
            gamma,
            iterations,
        },
        values,
        seeds: vec![],
        activate_all: true,
        max_supersteps: 2 * iterations + 2,
        supersteps_per_iteration: 2,
        finish: |_, values| values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::engine::{run, EngineConfig};
    use graphmaze_cluster::ExecProfile;

    fn cfg() -> EngineConfig {
        EngineConfig {
            profile: ExecProfile::graphlab(),
            use_combiner: true,
            superstep_splits: 1,
            replicate_hubs_factor: None,
        }
    }

    #[test]
    fn convergent_pagerank_stops_early_and_matches_until() {
        use graphmaze_datagen::{rmat, RmatConfig, RmatParams};
        let el = rmat::generate(&RmatConfig {
            scale: 9,
            edge_factor: 8,
            params: RmatParams::GRAPH500,
            seed: 77,
            scramble_ids: false,
            threads: 1,
        });
        let g = DirectedGraph::from_edge_list(&el);
        let prog = PageRankConvergentProgram {
            r: 0.3,
            tolerance: 1e-7,
            max_iterations: 500,
        };
        let job = GasJob::new(&g.out, prog, vec![1.0f64; g.num_vertices()], 510);
        let (values, report) = run(job, &cfg(), 2).unwrap();
        assert!(
            report.steps < 500,
            "should converge early, ran {} steps",
            report.steps
        );
        // agrees with the native convergence-detecting run
        let (want, iters) = graphmaze_native::pagerank::pagerank_until(&g, 0.3, 1e-7, 500, 1);
        assert!(iters < 500);
        for (a, b) in values.iter().zip(&want) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn pagerank_program_matches_hand_computation() {
        // Figure 2 graph, 1 iteration: [0.3, 0.65, 1.0, 1.35]
        let g = DirectedGraph::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        let (values, _) = run(pagerank_job(&g, 0.3, 1), &cfg(), 2).unwrap();
        let want = [0.3, 0.65, 1.0, 1.35];
        for (a, b) in values.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn bfs_program_levels() {
        // path 0-1-2-3
        let g = UndirectedGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (values, _) = run(bfs_job(&g, 0), &cfg(), 2).unwrap();
        assert_eq!(values, vec![0, 1, 2, 3]);
    }

    /// `pack_bipartite` as first written: every rating as two triples,
    /// one global stable sort by (source, target).
    fn pack_bipartite_by_global_sort(g: &RatingsGraph) -> (Csr, Vec<f32>) {
        let nu = g.num_users();
        let total = u64::from(nu) + u64::from(g.num_items());
        let mut edges = Vec::new();
        for (u, v, r) in g.triples() {
            edges.push((u, nu + v, r));
            edges.push((nu + v, u, r));
        }
        edges.sort_by_key(|e| (e.0, e.1));
        let plain: Vec<(VertexId, VertexId)> = edges.iter().map(|&(s, d, _)| (s, d)).collect();
        let weights = edges.iter().map(|&(_, _, w)| w).collect();
        (Csr::from_edges(total, &plain), weights)
    }

    #[test]
    fn pack_bipartite_equals_the_global_sort_on_unsorted_and_repeated_ratings() {
        // rows arrive descending and interleaved; (user 1, item 2) is
        // rated twice with different ratings; user 3 and item 1 are empty
        let ratings: Vec<(u32, u32, f32)> = vec![
            (1, 3, 1.0),
            (0, 2, 2.0),
            (1, 2, 3.0),
            (2, 3, 4.0),
            (1, 0, 5.0),
            (0, 0, 6.0),
            (1, 2, 7.0),
            (2, 0, 8.0),
        ];
        let g = RatingsGraph::from_ratings(4, 4, &ratings);
        let (csr, weights) = pack_bipartite(&g);
        assert!(csr.neighbors_sorted());
        assert_eq!(csr.neighbors(1), &[4, 6, 6, 7]);
        assert_eq!(&weights[2..6], &[5.0, 3.0, 7.0, 1.0]);
        assert_eq!((csr, weights), pack_bipartite_by_global_sort(&g));
        // and on a generated graph, whose rows are already ascending
        let g = graphmaze_datagen::ratings::generate(&graphmaze_datagen::RatingsGenConfig {
            scale: 7,
            edge_factor: 8,
            num_items: 32,
            min_degree: 3,
            seed: 2303,
        });
        assert_eq!(pack_bipartite(&g), pack_bipartite_by_global_sort(&g));
    }

    #[test]
    fn triangle_program_counts_fig2() {
        // oriented Figure 2 graph has 2 triangles
        let mut csr = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        csr.sort_neighbors();
        let (count, _) = run(triangle_job(&csr), &cfg(), 2).unwrap();
        assert_eq!(count, 2);
    }

    #[test]
    fn cf_program_reduces_error() {
        // 2 users, 2 items packed as 2,3; user 0 rates both items
        let edges: Vec<(u32, u32, f32)> = vec![
            (0, 2, 5.0),
            (0, 3, 1.0),
            (1, 2, 3.0),
            (2, 0, 5.0),
            (2, 1, 3.0),
            (3, 0, 1.0),
        ];
        let mut sorted = edges.clone();
        sorted.sort_by_key(|e| (e.0, e.1));
        let plain: Vec<(u32, u32)> = sorted.iter().map(|&(s, d, _)| (s, d)).collect();
        let csr = Csr::from_edges(4, &plain);
        let weights: Vec<f32> = sorted.iter().map(|&(_, _, w)| w).collect();
        let prog = CfGdProgram {
            num_users: 2,
            k: 4,
            lambda: 0.01,
            gamma: 0.05,
            iterations: 30,
        };
        let init: Vec<Vec<f64>> = (0..4).map(|i| vec![0.1 + 0.01 * i as f64; 4]).collect();
        let err = |vals: &[Vec<f64>]| -> f64 {
            let pairs = [(0usize, 2usize, 5.0f64), (0, 3, 1.0), (1, 2, 3.0)];
            pairs
                .iter()
                .map(|&(u, v, r)| (r - dot(&vals[u], &vals[v])).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let before = err(&init);
        let job = GasJob {
            weights: Some(weights),
            supersteps_per_iteration: 2,
            ..GasJob::new(&csr, prog, init, 100)
        };
        let (values, report) = run(job, &cfg(), 1).unwrap();
        let after = err(&values);
        assert!(after < before * 0.5, "error {before} -> {after}");
        assert!(report.steps >= 60);
    }
}
