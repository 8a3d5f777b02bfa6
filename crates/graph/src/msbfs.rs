//! Bit-parallel multi-source BFS: 64 sources per u64 word pass.
//!
//! The §6.1.1 bit-vector trick taken one step further (ROADMAP item 2,
//! the `bit_gossip` technique): instead of one visited *bit* per vertex,
//! each vertex carries one visited *word* — bit `b` of vertex `v`'s word
//! means "source `b` has reached `v`". A level-synchronous pass then
//! advances **all 64 sources at once**: frontier vertices OR-gossip
//! their masks to their neighbors edge-parallel through
//! [`AtomicBitVec::fetch_or_word`], and a settle pass claims newly
//! arrived bits and records their distance. Batches larger than 64
//! sources run as consecutive word passes.
//!
//! Determinism: the kernel is level-synchronous, so bit `b` settles at
//! vertex `v` exactly at level `dist(source_b, v)` — the first level any
//! in-neighbor of `v` carried bit `b`. `fetch_or` is commutative and
//! associative, and the settle pass walks vertices in index order, so
//! distances *and* frontier order are bit-identical for every thread
//! count and every interleaving.
//!
//! [`msbfs_with`] adds the §6.1 direction-optimizing switch: levels
//! whose frontier carries a large share of the graph's edges run
//! bottom-up, each unsettled vertex *gathering* the OR of its neighbors'
//! frontier masks instead of frontier vertices scattering theirs. A
//! vertex only wants the bits still in flight (the OR of the frontier's
//! masks) that it has not seen, so vertices every live search has
//! already passed are skipped and the gather exits as soon as every
//! wanted bit is found (GraphBLAST's early exit, PAPERS.md). The gather
//! needs no atomics — each vertex is written by exactly one worker — and
//! stays bit-identical at any thread count. It requires a symmetric
//! adjacency; distances are unchanged either way (BFS hop distances are
//! unique), so the switch is a pure wall-clock lever.
//!
//! [`WordPass`] exposes the level loop one level at a time, so the
//! native cluster port charges its simulated traffic from the same
//! frontiers the kernel computes.

use crate::bitvec::AtomicBitVec;
use crate::csr::Csr;
use crate::par::par_for_chunks;
use crate::VertexId;

/// The unreached sentinel distance (matches scalar BFS).
pub const UNREACHED: u32 = u32::MAX;

/// Sources carried per word pass — the width of a `u64`.
pub const WORD_SOURCES: usize = 64;

/// Largest batch a single call accepts (8 word passes). Callers with
/// more sources should loop; the cap keeps the per-pass distance rows
/// (`64 × n` u32s) bounded.
pub const MAX_BATCH: usize = 512;

/// [`msbfs_with`] runs a level bottom-up once the frontier's edges
/// exceed `1 / BOTTOM_UP_EDGE_SHARE` of the graph's. A scattered edge
/// (an atomic OR into a random word) costs about four times a gathered
/// one (a plain load), and a gather may scan every edge once.
const BOTTOM_UP_EDGE_SHARE: u64 = 4;

/// Multi-source BFS over `adj` from `sources`, using `threads` workers.
/// Returns one distance row per source, in source order: `rows[i][v]` is
/// the hop distance from `sources[i]` to `v`, [`UNREACHED`] if `v` is
/// not reachable. Sources need not be distinct. Panics if a source is
/// out of range or the batch exceeds [`MAX_BATCH`].
///
/// Always traverses top-down, which is correct for any adjacency,
/// directed or not. For symmetric graphs, [`msbfs_with`] is faster.
pub fn msbfs(adj: &Csr, sources: &[VertexId], threads: usize) -> Vec<Vec<u32>> {
    msbfs_with(adj, sources, threads, false)
}

/// [`msbfs`] with the direction-optimizing switch controllable. When
/// `direction_optimizing` is true, dense levels run bottom-up, which
/// requires every edge of `adj` to be stored in both directions (as
/// `UndirectedGraph` guarantees) — the caller owns that invariant.
/// Distance rows are identical either way.
pub fn msbfs_with(
    adj: &Csr,
    sources: &[VertexId],
    threads: usize,
    direction_optimizing: bool,
) -> Vec<Vec<u32>> {
    assert!(
        sources.len() <= MAX_BATCH,
        "batch of {} sources exceeds MAX_BATCH ({MAX_BATCH})",
        sources.len()
    );
    let mut rows = Vec::with_capacity(sources.len());
    for group in sources.chunks(WORD_SOURCES) {
        let mut pass = WordPass::new(adj, group, threads, direction_optimizing);
        while !pass.frontier().is_empty() {
            pass.advance();
        }
        rows.extend(pass.into_rows());
    }
    rows
}

/// One 64-wide pass over up to [`WORD_SOURCES`] sources, advanced one
/// level at a time: bit `b` of a mask stands for `group[b]`.
pub struct WordPass<'a> {
    adj: &'a Csr,
    threads: usize,
    direction_optimizing: bool,
    /// Bits settled at each vertex.
    seen: Vec<u64>,
    /// `(vertex, bits settled at it last level)`, ascending by vertex.
    frontier: Vec<(VertexId, u64)>,
    /// The top-down inbox. Monotone: `& !seen` hides the bits already
    /// settled, so it is never reset.
    inbox: AtomicBitVec,
    /// Dense frontier masks for the bottom-up gather, allocated on the
    /// first bottom-up level and zero outside it.
    front: Vec<u64>,
    /// `rows[b][v]`: the level at which bit `b` settled at `v`.
    rows: Vec<Vec<u32>>,
    level: u32,
}

impl<'a> WordPass<'a> {
    /// Seeds a pass from `group` (at most [`WORD_SOURCES`] sources,
    /// duplicates allowed): every source is settled at level 0 and the
    /// frontier holds one entry per distinct source vertex. Panics if a
    /// source is out of range or the group is too wide.
    pub fn new(
        adj: &'a Csr,
        group: &[VertexId],
        threads: usize,
        direction_optimizing: bool,
    ) -> Self {
        let n = adj.num_vertices();
        assert!(
            group.len() <= WORD_SOURCES,
            "a word pass carries at most 64 sources"
        );
        for &s in group {
            assert!(
                (s as usize) < n,
                "source {s} out of range (num_vertices={n})"
            );
        }
        let mut seen = vec![0u64; n];
        let mut rows = vec![vec![UNREACHED; n]; group.len()];
        for (b, &s) in group.iter().enumerate() {
            seen[s as usize] |= 1u64 << b;
            rows[b][s as usize] = 0;
        }
        let mut frontier: Vec<(VertexId, u64)> =
            group.iter().map(|&s| (s, seen[s as usize])).collect();
        frontier.sort_unstable_by_key(|&(v, _)| v);
        frontier.dedup_by_key(|&mut (v, _)| v);
        WordPass {
            adj,
            threads,
            direction_optimizing,
            seen,
            frontier,
            inbox: AtomicBitVec::new(n * WORD_SOURCES),
            front: Vec::new(),
            rows,
            level: 0,
        }
    }

    /// The vertices that settled bits last level, with those bits,
    /// ascending by vertex. Empty once the pass is done.
    pub fn frontier(&self) -> &[(VertexId, u64)] {
        &self.frontier
    }

    /// The bits settled at each vertex so far.
    pub fn seen(&self) -> &[u64] {
        &self.seen
    }

    /// Runs one level: every vertex adjacent to the frontier settles the
    /// frontier bits it has not seen, and those vertices become the new
    /// frontier.
    pub fn advance(&mut self) {
        self.level += 1;
        let frontier_edges: u64 = self
            .frontier
            .iter()
            .map(|&(v, _)| u64::from(self.adj.degree(v)))
            .sum();
        self.frontier = if self.direction_optimizing
            && frontier_edges * BOTTOM_UP_EDGE_SHARE > self.adj.num_edges()
        {
            self.gather()
        } else {
            self.scatter()
        };
    }

    /// The distance rows, one per source of the group, in group order.
    pub fn into_rows(self) -> Vec<Vec<u32>> {
        self.rows
    }

    /// Top-down: OR-gossip every frontier mask over its edges, then
    /// claim the newly arrived bits in vertex order.
    fn scatter(&mut self) -> Vec<(VertexId, u64)> {
        // `seen` is read-only while gossiping, so the pre-filter is
        // race-free; `fetch_or_word` commutes, so thread order cannot
        // matter
        let (adj, frontier, seen, inbox) = (self.adj, &self.frontier, &self.seen, &self.inbox);
        par_for_chunks(frontier.len(), self.threads, |_, range| {
            for &(v, m) in &frontier[range] {
                for &w in adj.neighbors(v) {
                    if m & !seen[w as usize] != 0 {
                        inbox.fetch_or_word(w as usize, m);
                    }
                }
            }
        });
        let inbox = &self.inbox;
        settle_blocks(
            &mut self.seen,
            &mut self.rows,
            self.threads,
            self.level,
            |v, sv| inbox.load_word(v) & !sv,
        )
    }

    /// Bottom-up: every vertex still missing an in-flight bit gathers
    /// the OR of its neighbors' frontier masks, stopping once it has
    /// every such bit.
    fn gather(&mut self) -> Vec<(VertexId, u64)> {
        if self.front.is_empty() {
            self.front = vec![0u64; self.seen.len()];
        }
        let mut inflight = 0u64;
        for &(v, m) in &self.frontier {
            self.front[v as usize] = m;
            inflight |= m;
        }
        let (adj, front) = (self.adj, &self.front);
        let next = settle_blocks(
            &mut self.seen,
            &mut self.rows,
            self.threads,
            self.level,
            |v, sv| {
                // a bit outside `inflight` cannot arrive this level
                let want = inflight & !sv;
                if want == 0 {
                    return 0;
                }
                let mut gain = 0u64;
                for &u in adj.neighbors(v as VertexId) {
                    gain |= front[u as usize];
                    if gain & want == want {
                        break;
                    }
                }
                gain & want
            },
        );
        for &(v, _) in &self.frontier {
            self.front[v as usize] = 0;
        }
        next
    }
}

/// Settles `arrived(v, seen[v])` (bits not yet seen at `v`) at `level`
/// for every vertex, over `threads` contiguous vertex blocks — on the
/// caller's thread when there is one block. Returns the new frontier in
/// vertex order. Each block owns its slice of `seen` and of every row,
/// so the result is the same at any thread count.
fn settle_blocks<F>(
    seen: &mut [u64],
    rows: &mut [Vec<u32>],
    threads: usize,
    level: u32,
    arrived: F,
) -> Vec<(VertexId, u64)>
where
    F: Fn(usize, u64) -> u64 + Sync,
{
    let n = seen.len();
    let chunk = n.div_ceil(threads.clamp(1, n.max(1))).max(1);
    // blocks[t][b] = rows[b][t * chunk..][..chunk]
    let mut blocks: Vec<Vec<&mut [u32]>> = (0..n.div_ceil(chunk)).map(|_| Vec::new()).collect();
    for row in rows.iter_mut() {
        for (block, part) in blocks.iter_mut().zip(row.chunks_mut(chunk)) {
            block.push(part);
        }
    }
    let settle = |t: usize, seen: &mut [u64], cols: &mut [&mut [u32]]| {
        let base = t * chunk;
        let mut part = Vec::new();
        for (j, sv) in seen.iter_mut().enumerate() {
            let m = arrived(base + j, *sv);
            if m != 0 {
                *sv |= m;
                let mut bits = m;
                while bits != 0 {
                    cols[bits.trailing_zeros() as usize][j] = level;
                    bits &= bits - 1;
                }
                part.push(((base + j) as VertexId, m));
            }
        }
        part
    };
    if blocks.len() <= 1 {
        let mut cols = blocks.pop().unwrap_or_default();
        return settle(0, seen, &mut cols);
    }
    let settle = &settle;
    std::thread::scope(|sc| {
        let handles: Vec<_> = seen
            .chunks_mut(chunk)
            .zip(blocks)
            .enumerate()
            .map(|(t, (seen, mut cols))| sc.spawn(move || settle(t, seen, &mut cols)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("settle worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook sequential BFS, the oracle.
    fn scalar_bfs(adj: &Csr, source: VertexId) -> Vec<u32> {
        let n = adj.num_vertices();
        let mut dist = vec![UNREACHED; n];
        dist[source as usize] = 0;
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            for &w in adj.neighbors(v) {
                if dist[w as usize] == UNREACHED {
                    dist[w as usize] = dist[v as usize] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    fn path_graph(n: u32) -> Csr {
        let mut edges = Vec::new();
        for i in 0..n - 1 {
            edges.push((i, i + 1));
            edges.push((i + 1, i));
        }
        Csr::from_edges(u64::from(n), &edges)
    }

    #[test]
    fn path_distances_are_exact() {
        let adj = path_graph(6);
        let rows = msbfs(&adj, &[0, 5, 2], 2);
        assert_eq!(rows[0], vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rows[1], vec![5, 4, 3, 2, 1, 0]);
        assert_eq!(rows[2], vec![2, 1, 0, 1, 2, 3]);
    }

    /// A deterministic pseudo-random sparse graph, symmetrized.
    fn random_symmetric(n: u32, pairs: usize) -> Csr {
        let mut edges = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..pairs {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (state >> 33) as u32 % n;
            let b = (state & 0xffff_ffff) as u32 % n;
            edges.push((a, b));
            edges.push((b, a));
        }
        Csr::from_edges(u64::from(n), &edges)
    }

    #[test]
    fn matches_scalar_bfs_per_source() {
        let n = 300u32;
        let adj = random_symmetric(n, 900);
        let sources: Vec<u32> = (0..72).map(|i| (i * 37) % n).collect();
        let rows = msbfs(&adj, &sources, 4);
        assert_eq!(rows.len(), sources.len());
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(rows[i], scalar_bfs(&adj, s), "source {s}");
        }
    }

    #[test]
    fn direction_optimization_does_not_change_rows() {
        // dense enough that the frontier's edges cross the bottom-up
        // threshold, so both directions genuinely run
        let n = 300u32;
        let adj = random_symmetric(n, 900);
        let sources: Vec<u32> = (0..72).map(|i| (i * 37) % n).collect();
        let plain = msbfs(&adj, &sources, 2);
        for threads in [1, 4] {
            assert_eq!(
                msbfs_with(&adj, &sources, threads, true),
                plain,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let adj = path_graph(100);
        let sources: Vec<u32> = (0..64).collect();
        let base = msbfs(&adj, &sources, 1);
        for threads in [2, 3, 8] {
            assert_eq!(msbfs(&adj, &sources, threads), base, "threads={threads}");
        }
    }

    #[test]
    fn duplicate_sources_get_identical_rows() {
        let adj = path_graph(10);
        let rows = msbfs(&adj, &[3, 3, 7], 2);
        assert_eq!(rows[0], rows[1]);
        assert_eq!(rows[0][3], 0);
        assert_eq!(rows[2][7], 0);
    }

    #[test]
    fn disconnected_vertices_stay_unreached() {
        // two components: 0-1-2 and 3-4
        let adj = Csr::from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]);
        let rows = msbfs(&adj, &[0, 4], 1);
        assert_eq!(rows[0], vec![0, 1, 2, UNREACHED, UNREACHED]);
        assert_eq!(rows[1], vec![UNREACHED, UNREACHED, UNREACHED, 1, 0]);
    }

    #[test]
    fn empty_batch_returns_no_rows() {
        let adj = path_graph(4);
        assert!(msbfs(&adj, &[], 2).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let adj = path_graph(4);
        msbfs(&adj, &[4], 1);
    }

    #[test]
    #[should_panic(expected = "MAX_BATCH")]
    fn oversized_batch_panics() {
        let adj = path_graph(4);
        msbfs(&adj, &vec![0; MAX_BATCH + 1], 1);
    }
}
