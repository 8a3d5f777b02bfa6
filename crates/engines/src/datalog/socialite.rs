//! The four algorithms as SociaLite programs (paper §3.1–3.2).
//!
//! Each function's doc comment quotes the actual rule(s) from the paper;
//! the body is the compiled evaluation: shard-local joins, batched head
//! transfers, aggregation — driven by [`SocialiteRuntime`].

use graphmaze_cluster::{Partition1D, SimError};
use graphmaze_graph::csr::{Csr, DirectedGraph, UndirectedGraph};
use graphmaze_graph::{RatingsGraph, RowBitmap, VertexId};
use graphmaze_metrics::{RunReport, Work};

use super::eval::{Agg, SocialiteRuntime};
use super::table::{EdgeTable, VertexTable};

/// PageRank, using the paper's distributed-optimized rule:
///
/// ```text
/// RANK[n](t+1, $SUM(v)) :- v = r;
///   :- RANK[s](t, v0), OUTEDGE[s](n), OUTDEG[s](d), v = (1−r)·v0/d.
/// ```
///
/// "all join operations in the rule body are locally computed, and there
/// is only a single data transfer for the RANK table update in the rule
/// head."
pub fn pagerank(
    g: &DirectedGraph,
    r: f64,
    iterations: u32,
    nodes: usize,
    optimized: bool,
) -> Result<(Vec<f64>, RunReport), SimError> {
    let mut rt = SocialiteRuntime::new(nodes, optimized);
    let outedge = EdgeTable::new(g.out.clone(), nodes);
    // table storage: OUTEDGE shards + RANK + OUTDEG
    for node in 0..nodes {
        rt.sim().alloc(
            node,
            outedge.shard_bytes(node) + outedge.shards().len(node) as u64 * 16,
            "socialite:tables",
        )?;
    }
    let n = g.num_vertices();
    let shards = outedge.shards().clone();
    let mut rank = VertexTable::from_values(vec![1.0f64; n], shards.clone());
    rt.phase("rule:pagerank");
    for _ in 0..iterations {
        // body join, evaluated per shard of s
        let contribs: Vec<Vec<(VertexId, f64)>> = (0..nodes)
            .map(|node| {
                let range = shards.range(node);
                let mut out = Vec::new();
                for s in range.start..range.end {
                    let d = outedge.degree(s);
                    if d == 0 {
                        continue;
                    }
                    let v = (1.0 - r) * rank.get(s) / f64::from(d);
                    for &nbr in outedge.neighbors(s) {
                        out.push((nbr, v));
                    }
                }
                out
            })
            .collect();
        // first rule: RANK[n](t+1, v) :- v = r
        let mut next = VertexTable::from_values(vec![r; n], shards.clone());
        // scanning RANK + OUTDEG columns
        for node in 0..nodes {
            rt.sim()
                .charge(node, Work::stream(shards.len(node) as u64 * 16));
        }
        rt.apply_rule_f64(contribs, &mut next, Agg::Sum, 12);
        rank = next;
        rt.end_round()?;
        rt.end_iteration();
    }
    Ok((rank.into_values(), rt.finish()))
}

/// BFS as the paper's recursive rule, evaluated semi-naively:
///
/// ```text
/// BFS(t, $MIN(d)) :- t = SRC, d = 0
///   :- BFS(s, d0), EDGE(s, t), d = d0 + 1.
/// ```
pub fn bfs(
    g: &UndirectedGraph,
    source: VertexId,
    nodes: usize,
    optimized: bool,
) -> Result<(Vec<u32>, RunReport), SimError> {
    let mut rt = SocialiteRuntime::new(nodes, optimized);
    let edge = EdgeTable::new(g.adj.clone(), nodes);
    for node in 0..nodes {
        rt.sim().alloc(
            node,
            edge.shard_bytes(node) + edge.shards().len(node) as u64 * 8,
            "socialite:tables",
        )?;
    }
    let n = g.num_vertices();
    let shards = edge.shards().clone();
    let mut dist = VertexTable::from_values(vec![f64::INFINITY; n], shards.clone());
    *dist.get_mut(source) = 0.0;
    let mut delta: Vec<VertexId> = vec![source];
    rt.phase("rule:bfs-delta");
    while !delta.is_empty() {
        // join the delta with EDGE, grouped by producing shard
        let mut contribs: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); nodes];
        for &s in &delta {
            let d0 = *dist.get(s);
            let shard = shards.owner(s);
            for &t in edge.neighbors(s) {
                contribs[shard].push((t, d0 + 1.0));
            }
        }
        delta = rt.apply_rule_f64(contribs, &mut dist, Agg::Min, 12);
        rt.end_round()?;
    }
    rt.end_iteration();
    let out = dist
        .into_values()
        .into_iter()
        .map(|d| if d.is_finite() { d as u32 } else { u32::MAX })
        .collect();
    Ok((out, rt.finish()))
}

/// Triangle counting as the paper's three-way join:
///
/// ```text
/// TRIANGLE(0, $INC(1)) :- EDGE(x, y), EDGE(y, z), EDGE(x, z).
/// ```
///
/// Evaluated with `EDGE` sharded on its first column: the `EDGE(y, z)`
/// lists for remote `y` are shipped to `x`'s shard once per shard
/// (tail-nested tables keep them contiguous), then the `z` join is a
/// sorted intersection. The paper finds SociaLite the **best** non-native
/// framework for multi-node TC.
pub fn triangles(
    oriented: &Csr,
    nodes: usize,
    optimized: bool,
) -> Result<(u64, RunReport), SimError> {
    let mut rt = SocialiteRuntime::new(nodes, optimized);
    let edge = EdgeTable::new(oriented.clone(), nodes);
    for node in 0..nodes {
        rt.sim()
            .alloc(node, edge.shard_bytes(node), "socialite:tables")?;
    }
    let shards = edge.shards().clone();
    rt.phase("rule:tc-join");
    // ship EDGE[y] lists needed by each shard (dedup per shard)
    for node in 0..nodes {
        let range = shards.range(node);
        let mut needed: Vec<VertexId> = (range.start..range.end)
            .flat_map(|x| edge.neighbors(x).iter().copied())
            .filter(|&y| shards.owner(y) != node)
            .collect();
        needed.sort_unstable();
        needed.dedup();
        let mut inbound = 0u64;
        let mut per_owner = vec![0u64; nodes];
        for y in needed {
            per_owner[shards.owner(y)] += 4 + edge.degree(y) as u64 * 4;
        }
        for (owner, &bytes) in per_owner.iter().enumerate() {
            if bytes > 0 {
                rt.send(owner, node, bytes, bytes);
                inbound += bytes;
            }
        }
        rt.sim().alloc(node, inbound, "socialite:joined-lists")?;
        rt.sim().free(node, inbound);
    }
    // the z-join, per shard of x: charged as the sorted intersection of
    // both lists, counted by probing EDGE[y] against a bitmap of EDGE[x]
    let mut count = 0u64;
    let mut marks = RowBitmap::new(oriented.num_vertices());
    for node in 0..nodes {
        let range = shards.range(node);
        let mut stream = 0u64;
        let mut local = 0u64;
        for x in range.start..range.end {
            let nx = edge.neighbors(x);
            marks.mark(nx);
            for &y in nx {
                let ny = edge.neighbors(y);
                stream += (nx.len() + ny.len()) as u64 * 4;
                local += marks.probe(ny);
            }
            marks.unmark(nx);
        }
        count += local;
        rt.sim().charge(
            node,
            Work {
                seq_bytes: stream,
                rand_accesses: 0,
                flops: stream / 4,
            },
        );
        // TRIANGLE(0, $INC(1)) head updates reduce to one counter per shard
        if node != 0 {
            rt.send_now(node, 0, 8, 8);
        }
    }
    rt.end_round()?;
    rt.end_iteration();
    Ok((count, rt.finish()))
}

/// Collaborative filtering by alternating GD over `P`/`Q`/`RATING`
/// tables (§3.2): "SociaLite stores the length-K vectors for users and
/// items in separate tables. These tables are joined together with the
/// rating table ... it is helpful to transfer the tables to target
/// machines in the beginning of each iteration, so that the rest of the
/// computations do not involve any communication."
#[allow(clippy::too_many_arguments)]
pub fn cf_gd(
    g: &RatingsGraph,
    k: usize,
    lambda: f64,
    gamma: f64,
    iterations: u32,
    nodes: usize,
    optimized: bool,
) -> Result<(Vec<f64>, Vec<f64>, RunReport), SimError> {
    let mut rt = SocialiteRuntime::new(nodes, optimized);
    let nu = g.num_users() as usize;
    let nv = g.num_items() as usize;
    let user_shards = Partition1D::balanced_by_vertices(nu, nodes);
    let item_shards = Partition1D::balanced_by_vertices(nv, nodes);
    let triples = g.triples();
    for node in 0..nodes {
        let ratings_here = triples
            .iter()
            .filter(|&&(u, _, _)| user_shards.owner(u) == node)
            .count() as u64;
        rt.sim().alloc(
            node,
            (user_shards.len(node) + item_shards.len(node)) as u64 * k as u64 * 8
                + ratings_here * 12,
            "socialite:tables",
        )?;
    }
    let init = |i: usize, j: usize, salt: u64| -> f64 {
        let x = (i as u64 * 131 + j as u64 + salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (x >> 11) as f64 / (1u64 << 53) as f64 * 0.1
    };
    let mut p: Vec<f64> = (0..nu * k).map(|i| init(i / k, i % k, 1)).collect();
    let mut q: Vec<f64> = (0..nv * k).map(|i| init(i / k, i % k, 2)).collect();
    let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(x, y)| x * y).sum() };

    // which Q rows each user shard joins with (fixed across iterations)
    let mut q_needed_bytes = vec![0u64; nodes];
    for node in 0..nodes {
        let mut items: Vec<VertexId> = triples
            .iter()
            .filter(|&&(u, _, _)| user_shards.owner(u) == node)
            .map(|&(_, v, _)| v)
            .filter(|&v| item_shards.owner(v) != node)
            .collect();
        items.sort_unstable();
        items.dedup();
        q_needed_bytes[node] = items.len() as u64 * (4 + k as u64 * 8);
    }

    rt.phase("gd:rules");
    for _ in 0..iterations {
        // beginning-of-iteration table transfer: Q rows to user shards
        for node in 0..nodes {
            if q_needed_bytes[node] > 0 {
                // sent by the item shards; charge senders evenly
                let per = q_needed_bytes[node] / (nodes as u64 - 1).max(1);
                for src in 0..nodes {
                    if src != node {
                        rt.send(src, node, per, per);
                    }
                }
            }
        }
        // local join: gradient accumulation (eq. 12 then eq. 11)
        let mut grad_q = vec![0.0f64; nv * k];
        let mut grad_p = vec![0.0f64; nu * k];
        for node in 0..nodes {
            let mut local_ratings = 0u64;
            for &(u, v, r) in &triples {
                if user_shards.owner(u) != node {
                    continue;
                }
                local_ratings += 1;
                let pu = &p[u as usize * k..(u as usize + 1) * k];
                let qv = &q[v as usize * k..(v as usize + 1) * k];
                let e = f64::from(r) - dot(pu, qv);
                for i in 0..k {
                    grad_q[v as usize * k + i] += e * pu[i] - lambda * qv[i];
                    grad_p[u as usize * k + i] += e * qv[i] - lambda * pu[i];
                }
            }
            rt.sim().charge(
                node,
                Work {
                    seq_bytes: local_ratings * (12 + 4 * k as u64 * 8),
                    rand_accesses: local_ratings * 2,
                    flops: local_ratings * 10 * k as u64,
                },
            );
        }
        // ship aggregated Q-gradients back to item shards
        for node in 0..nodes {
            if q_needed_bytes[node] > 0 {
                let peers: Vec<usize> = (0..nodes).filter(|&p| p != node).collect();
                rt.scatter(node, &peers, q_needed_bytes[node], q_needed_bytes[node]);
            }
        }
        for (qi, gi) in q.iter_mut().zip(&grad_q) {
            *qi += gamma * gi;
        }
        for (pi, gi) in p.iter_mut().zip(&grad_p) {
            *pi += gamma * gi;
        }
        rt.end_round()?;
        rt.end_iteration();
    }
    Ok((p, q, rt.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let el = rmat_el(9, 51);
        let g = DirectedGraph::from_edge_list(&el);
        let want = graphmaze_native::pagerank::pagerank(&g, PAGERANK_R, 5, 2);
        let (got, rep) = pagerank(&g, PAGERANK_R, 5, 4, true).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
        assert!(rep.traffic.bytes_sent > 0);
    }

    #[test]
    fn bfs_matches_native() {
        let mut el = rmat_el(9, 52);
        el.remove_self_loops();
        el.symmetrize();
        let g = UndirectedGraph::from_symmetric_edge_list(&el);
        let want = graphmaze_native::bfs::bfs(&g, 0, 2);
        let (got, _) = bfs(&g, 0, 4, true).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn triangles_match_native() {
        let el = rmat_el(9, 53);
        let oriented = orient_and_sort(&el);
        let want = graphmaze_native::triangle::triangles(&oriented, 2);
        let (got, _) = triangles(&oriented, 4, true).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn network_optimization_speeds_up_pagerank() {
        // Table 7: the multi-socket fix gives ~2.4x on 4-node PageRank.
        // Needs a network-bound configuration: enough edges per node that
        // the per-iteration rank transfer dwarfs the 1 ms round barrier.
        let el = rmat::generate(&RmatConfig {
            scale: 13,
            edge_factor: 16,
            params: RmatParams::GRAPH500,
            seed: 54,
            scramble_ids: false,
            threads: 1,
        });
        let g = DirectedGraph::from_edge_list(&el);
        let (_, before) = pagerank(&g, PAGERANK_R, 3, 4, false).unwrap();
        let (_, after) = pagerank(&g, PAGERANK_R, 3, 4, true).unwrap();
        let speedup = before.sim_seconds / after.sim_seconds;
        assert!(speedup > 1.3, "speedup {speedup}");
    }

    #[test]
    fn cf_gd_reduces_rmse() {
        let g = ratings::generate(&RatingsGenConfig {
            scale: 8,
            edge_factor: 8,
            num_items: 32,
            min_degree: 3,
            seed: 55,
        });
        let k = 4;
        let (p, q, rep) = cf_gd(&g, k, 0.05, 0.005, 10, 4, true).unwrap();
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
        assert!(rmse < 3.0, "rmse {rmse}");
        assert!(rep.traffic.bytes_sent > 0);
    }
}
