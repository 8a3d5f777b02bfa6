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
//! [`msbfs_with`] adds the §6.1 direction-optimizing switch: dense
//! levels run bottom-up, each unsettled vertex *gathering* the OR of its
//! neighbors' frontier masks (early-exiting once every wanted bit is
//! found) instead of frontier vertices scattering theirs. The gather
//! needs no atomics — each vertex is written by exactly one worker — and
//! stays bit-identical at any thread count. It requires a symmetric
//! adjacency; distances are unchanged either way (BFS hop distances are
//! unique), so the switch is a pure wall-clock lever.

use crate::bitvec::AtomicBitVec;
use crate::csr::Csr;
use crate::par::par_for_chunks;
use crate::VertexId;

/// The unreached sentinel distance (matches scalar BFS).
pub const UNREACHED: u32 = u32::MAX;

/// Sources carried per word pass — the width of a `u64`.
pub const WORD_SOURCES: usize = 64;

/// Largest batch a single call accepts (8 word passes). Callers with
/// more sources should loop; the cap keeps the per-pass distance matrix
/// (`64 × n` u32s) bounded.
pub const MAX_BATCH: usize = 512;

/// Occupancy of the frontier above which [`msbfs_with`] runs a level
/// bottom-up (matches the scalar BFS switch).
const BOTTOM_UP_THRESHOLD: f64 = 0.05;

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
    let n = adj.num_vertices();
    for &s in sources {
        assert!(
            (s as usize) < n,
            "source {s} out of range (num_vertices={n})"
        );
    }
    let mut rows = Vec::with_capacity(sources.len());
    for group in sources.chunks(WORD_SOURCES) {
        word_pass(adj, group, threads, direction_optimizing, &mut rows);
    }
    rows
}

/// One 64-wide pass: advances `group` (≤ 64 sources) to completion and
/// appends one distance row per source to `rows`.
fn word_pass(
    adj: &Csr,
    group: &[VertexId],
    threads: usize,
    direction_optimizing: bool,
    rows: &mut Vec<Vec<u32>>,
) {
    let n = adj.num_vertices();
    let k = group.len();
    debug_assert!(k <= WORD_SOURCES);
    if k == 0 {
        return;
    }
    // per-vertex state: settled mask, gossip inbox, packed distances
    // (dist[v * 64 + b] = level at which bit b settled at v)
    let mut seen = vec![0u64; n];
    let next = AtomicBitVec::new(n * WORD_SOURCES);
    let mut dist = vec![UNREACHED; n * WORD_SOURCES];

    // seed: merge duplicate source vertices into one mask per vertex
    let mut seeds: Vec<(VertexId, u64)> = group
        .iter()
        .enumerate()
        .map(|(b, &s)| (s, 1u64 << b))
        .collect();
    seeds.sort_unstable_by_key(|&(v, _)| v);
    let mut frontier: Vec<(VertexId, u64)> = Vec::with_capacity(seeds.len());
    for (v, m) in seeds.drain(..) {
        match frontier.last_mut() {
            Some((lv, lm)) if *lv == v => *lm |= m,
            _ => frontier.push((v, m)),
        }
    }
    for &(v, m) in &frontier {
        seen[v as usize] = m;
        let mut bits = m;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            dist[v as usize * WORD_SOURCES + b] = 0;
        }
    }

    // bit `b` is wanted at `v` until it settles there; once `seen[v]`
    // covers the whole group the vertex is done
    let full: u64 = if k == WORD_SOURCES {
        u64::MAX
    } else {
        (1u64 << k) - 1
    };
    // dense frontier masks, allocated on the first bottom-up level and
    // kept clear between levels by erasing the old frontier's entries
    let mut front: Vec<u64> = Vec::new();

    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        if direction_optimizing && frontier.len() as f64 / n as f64 > BOTTOM_UP_THRESHOLD {
            // bottom-up: every unsettled vertex gathers the OR of its
            // neighbors' frontier masks. One writer per vertex, walked
            // in index order — deterministic without atomics. The early
            // exit fires once every still-wanted bit has been found.
            if front.is_empty() {
                front = vec![0u64; n];
            }
            for &(v, m) in &frontier {
                front[v as usize] = m;
            }
            let workers = threads.max(1).min(n.max(1));
            let chunk = n.div_ceil(workers);
            let parts: Vec<Vec<(VertexId, u64)>> = std::thread::scope(|sc| {
                let handles: Vec<_> = seen
                    .chunks_mut(chunk)
                    .zip(dist.chunks_mut(chunk * WORD_SOURCES))
                    .enumerate()
                    .map(|(t, (seen_chunk, dist_chunk))| {
                        let front = &front;
                        sc.spawn(move || {
                            let base = t * chunk;
                            let mut part: Vec<(VertexId, u64)> = Vec::new();
                            for (j, sv) in seen_chunk.iter_mut().enumerate() {
                                let want = full & !*sv;
                                if want == 0 {
                                    continue;
                                }
                                let mut gain = 0u64;
                                for &u in adj.neighbors((base + j) as VertexId) {
                                    gain |= front[u as usize];
                                    if gain & want == want {
                                        break;
                                    }
                                }
                                let m = gain & want;
                                if m != 0 {
                                    *sv |= m;
                                    let mut bits = m;
                                    while bits != 0 {
                                        let b = bits.trailing_zeros() as usize;
                                        bits &= bits - 1;
                                        dist_chunk[j * WORD_SOURCES + b] = level;
                                    }
                                    part.push(((base + j) as VertexId, m));
                                }
                            }
                            part
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("bottom-up worker panicked"))
                    .collect()
            });
            for &(v, _) in &frontier {
                front[v as usize] = 0;
            }
            frontier = parts.concat();
            continue;
        }
        // expand: OR-gossip every frontier mask over its edges. `seen`
        // is read-only in this phase, so the pre-filter is race-free;
        // `fetch_or_word` commutes, so thread order cannot matter.
        {
            let (frontier, seen) = (&frontier, &seen);
            par_for_chunks(frontier.len(), threads, |_, range| {
                for &(v, m) in &frontier[range] {
                    for &w in adj.neighbors(v) {
                        if m & !seen[w as usize] != 0 {
                            next.fetch_or_word(w as usize, m);
                        }
                    }
                }
            });
        }
        // settle: claim newly arrived bits in vertex order and record
        // their distance. The inbox is monotone (bits are never cleared);
        // `& !seen` keeps already-settled bits from re-settling, so the
        // word never needs resetting between levels.
        let workers = threads.max(1).min(n.max(1));
        let chunk = n.div_ceil(workers);
        let parts: Vec<Vec<(VertexId, u64)>> = std::thread::scope(|sc| {
            let handles: Vec<_> = seen
                .chunks_mut(chunk)
                .zip(dist.chunks_mut(chunk * WORD_SOURCES))
                .enumerate()
                .map(|(t, (seen_chunk, dist_chunk))| {
                    let next = &next;
                    sc.spawn(move || {
                        let base = t * chunk;
                        let mut part: Vec<(VertexId, u64)> = Vec::new();
                        for (j, sv) in seen_chunk.iter_mut().enumerate() {
                            let m = next.load_word(base + j) & !*sv;
                            if m != 0 {
                                *sv |= m;
                                let mut bits = m;
                                while bits != 0 {
                                    let b = bits.trailing_zeros() as usize;
                                    bits &= bits - 1;
                                    dist_chunk[j * WORD_SOURCES + b] = level;
                                }
                                part.push(((base + j) as VertexId, m));
                            }
                        }
                        part
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("settle worker panicked"))
                .collect()
        });
        frontier = parts.concat();
    }

    // per-source row extraction from the packed per-vertex layout,
    // transposed: one sequential read of each vertex's 64-entry block
    // scattered into k row streams, instead of k strided sweeps of the
    // whole packed matrix
    let start = rows.len();
    rows.extend((0..k).map(|_| vec![0u32; n]));
    let out = &mut rows[start..];
    for v in 0..n {
        let block = &dist[v * WORD_SOURCES..v * WORD_SOURCES + k];
        for (row, &d) in out.iter_mut().zip(block) {
            row[v] = d;
        }
    }
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
        // dense enough that frontier occupancy crosses the bottom-up
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
