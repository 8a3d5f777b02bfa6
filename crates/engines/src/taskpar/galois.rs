//! The four algorithms in the Galois task model (paper §3.1–3.2,
//! Algorithms 3 and 4).

use graphmaze_cluster::{ClusterSpec, ExecProfile, Sim, SimError};
use graphmaze_graph::csr::{Csr, DirectedGraph, UndirectedGraph};
use graphmaze_graph::{RatingsGraph, RowBitmap, VertexId};
use graphmaze_metrics::{RunReport, Work};
use graphmaze_native::cf::{self, CfConfig, DiagonalBlocks, Factors};

use super::executor::{for_each_parallel, BulkSyncExecutor};

/// Galois has no multi-node implementation (Table 2): any `nodes > 1`
/// request is an [`SimError::InvalidConfig`].
fn single_node_sim(nodes: usize) -> Result<Sim, SimError> {
    if nodes != 1 {
        return Err(SimError::InvalidConfig(format!(
            "Galois is a single-node framework (requested {nodes} nodes)"
        )));
    }
    Ok(Sim::new(ClusterSpec::single(), ExecProfile::galois()))
}

/// PageRank: "each work item in Galois is a vertex program for updating
/// its pagerank" (§3.1); with shared memory every task reads the full
/// rank array directly.
pub fn pagerank(
    g: &DirectedGraph,
    r: f64,
    iterations: u32,
    nodes: usize,
) -> Result<(Vec<f64>, RunReport), SimError> {
    let mut sim = single_node_sim(nodes)?;
    let n = g.num_vertices();
    sim.alloc(0, g.inn.byte_size() + n as u64 * 24, "galois:graph+ranks")?;
    let mut ranks = vec![1.0f64; n];
    let mut scaled = vec![0.0f64; n];
    sim.phase("task:pr");
    for _ in 0..iterations {
        for i in 0..n {
            let d = g.out.degree(i as VertexId);
            scaled[i] = if d == 0 { 0.0 } else { ranks[i] / f64::from(d) };
        }
        let scaled_ref = &scaled;
        let next: Vec<f64> = (0..n)
            .map(|i| {
                let acc: f64 = g
                    .inn
                    .neighbors(i as VertexId)
                    .iter()
                    .map(|&j| scaled_ref[j as usize])
                    .sum();
                r + (1.0 - r) * acc
            })
            .collect();
        ranks = next;
        let mut w = Work {
            seq_bytes: g.inn.num_edges() * 4 + n as u64 * 24,
            rand_accesses: g.inn.num_edges(),
            flops: g.inn.num_edges() * 2,
        };
        // per-task scheduling overhead: one enqueue/dequeue per vertex
        w.accumulate(Work::random(n as u64 / 4));
        sim.charge(0, w);
        sim.end_step()?;
        sim.end_iteration();
    }
    Ok((ranks, sim.finish()))
}

/// BFS — Algorithm 3, verbatim structure:
///
/// ```text
/// worklist[0] = src
/// while NOT worklist[i].empty():
///   foreach (n : worklist[i]) in parallel:
///     for dst : G.neighbors(n):
///       if dst.level == ∞: dst.level = n.level + 1; worklist[i+1].add(dst)
/// ```
pub fn bfs(
    g: &UndirectedGraph,
    source: VertexId,
    nodes: usize,
) -> Result<(Vec<u32>, RunReport), SimError> {
    let mut sim = single_node_sim(nodes)?;
    let n = g.num_vertices();
    sim.alloc(0, g.adj.byte_size() + n as u64 * 4, "galois:graph+levels")?;
    let mut level = vec![u32::MAX; n];
    level[source as usize] = 0;
    let mut ex = BulkSyncExecutor::new(vec![source]);
    // charge each level at its barrier — the executor "maintains the
    // work lists for each level behind the scenes" (§3.2)
    let scanned_edges = std::cell::Cell::new(0u64);
    let mut per_level: Vec<(u64, u64)> = Vec::new(); // (edges, items)
    ex.run_with_barrier(
        |&u, push| {
            let lvl = level[u as usize];
            for &dst in g.adj.neighbors(u) {
                scanned_edges.set(scanned_edges.get() + 1);
                if level[dst as usize] == u32::MAX {
                    level[dst as usize] = lvl + 1;
                    push.push(dst);
                }
            }
        },
        |items| {
            per_level.push((scanned_edges.replace(0), items));
        },
    );
    sim.phase("task:bfs-level");
    for (edges, items) in per_level {
        sim.charge(
            0,
            Work {
                seq_bytes: edges * 4,
                rand_accesses: edges + items,
                flops: edges,
            },
        );
        sim.end_step()?;
    }
    sim.end_iteration();
    Ok((level, sim.finish()))
}

/// Triangle counting — Algorithm 4: "computing set-intersection of
/// neighbors of a node with neighbors of neighbors. We sort the
/// adjacency list of each node by node-id, which allows computing
/// set-intersections in linear time."
pub fn triangles(oriented: &Csr, nodes: usize) -> Result<(u64, RunReport), SimError> {
    let mut sim = single_node_sim(nodes)?;
    debug_assert!(oriented.neighbors_sorted());
    sim.alloc(0, oriented.byte_size(), "galois:graph")?;
    let n = oriented.num_vertices();
    // the per-thread fold state is (bitmap of the task's S1, count)
    let (_, count) = for_each_parallel(
        n,
        graphmaze_graph::par::default_threads().min(8),
        || (RowBitmap::new(n), 0u64),
        |u, (marks, acc)| {
            let s1 = oriented.neighbors(u as VertexId);
            marks.mark(s1);
            for &m in s1 {
                *acc += marks.probe(oriented.neighbors(m));
            }
            marks.unmark(s1);
        },
        |(marks, a), (_, b)| (marks, a + b),
    );
    // charged as the linear-time merge the paper describes, whatever the
    // host ran: intersection streams both lists per oriented edge;
    // Algorithm 4 also materializes the filtered set S1 per task and pays
    // a work-item dispatch per vertex (Galois has no hub-specific data
    // structure, so unlike native it always merges — §3.2)
    let mut stream: u64 = 0;
    let mut s1_bytes: u64 = 0;
    for u in 0..n as u32 {
        let du = oriented.degree(u) as u64;
        s1_bytes += du * 4;
        for &m in oriented.neighbors(u) {
            stream += (du + oriented.degree(m) as u64) * 4;
        }
    }
    sim.phase("task:tc");
    sim.charge(
        0,
        Work {
            seq_bytes: stream + s1_bytes,
            rand_accesses: n as u64, // one work-item dispatch per vertex
            flops: stream / 4,
        },
    );
    sim.end_step()?;
    sim.end_iteration();
    Ok((count, sim.finish()))
}

/// Blocks per side of the SGD chunk schedule. The schedule fixes the
/// update order and so the answer; it is a constant, not the host's core
/// count, so the factors are the same on every machine.
const SGD_BLOCKS: usize = 2;

/// Collaborative filtering by true **SGD**: "Galois is the only framework
/// that implements SGD (not just GD) in a fashion similar to that of the
/// native implementation", using the same n² uniform 2-D chunk schedule
/// (§3.2). Each work item updates one rating's `(p_u, q_v)` pair.
pub fn cf_sgd(
    g: &RatingsGraph,
    cfg: &CfConfig,
    epochs: u32,
    nodes: usize,
) -> Result<(Factors, Vec<f64>, RunReport), SimError> {
    let mut sim = single_node_sim(nodes)?;
    sim.alloc(
        0,
        (u64::from(g.num_users()) + u64::from(g.num_items())) * cfg.k as u64 * 8
            + g.num_ratings() * 12,
        "galois:factors+ratings",
    )?;
    // the native n² chunk schedule, driven by Galois work items: each
    // sub-step's diagonal blocks are independent tasks, each rating a
    // lock-free (p_u, q_v) update (§3.2)
    let blocks = DiagonalBlocks::build(g, SGD_BLOCKS);
    let mut factors = Factors::init(g.num_users(), g.num_items(), cfg);
    let mut history = Vec::with_capacity(epochs as usize);
    let mut gamma = cfg.gamma0;
    let k = cfg.k as u64;
    sim.phase("sgd:epoch");
    for _ in 0..epochs {
        for s in 0..SGD_BLOCKS {
            // tasks of this sub-step touch disjoint (user, item) blocks;
            // process in fixed order — identical result to the threaded
            // native schedule, as the blocks never overlap
            for w in 0..SGD_BLOCKS {
                let ib = (w + s) % SGD_BLOCKS;
                for &(u, v, r) in blocks.bucket(w, ib, SGD_BLOCKS) {
                    let pu = &mut factors.p[u as usize * cfg.k..(u as usize + 1) * cfg.k];
                    let qv = &mut factors.q[v as usize * cfg.k..(v as usize + 1) * cfg.k];
                    cf::sgd_update(pu, qv, r, gamma, cfg.lambda);
                }
            }
        }
        gamma *= cfg.step_decay;
        history.push(cf::rmse(g, &factors));
        sim.charge(
            0,
            Work {
                seq_bytes: g.num_ratings() * (4 * k * 8 + 12),
                rand_accesses: g.num_ratings() * 2,
                flops: g.num_ratings() * 8 * k,
            },
        );
        sim.end_step()?;
        sim.end_iteration();
    }
    Ok((factors, history, sim.finish()))
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
    fn multi_node_is_rejected() {
        let el = rmat_el(8, 61);
        let g = DirectedGraph::from_edge_list(&el);
        assert!(matches!(
            pagerank(&g, PAGERANK_R, 2, 4),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pagerank_matches_native() {
        let el = rmat_el(9, 62);
        let g = DirectedGraph::from_edge_list(&el);
        let want = graphmaze_native::pagerank::pagerank(&g, PAGERANK_R, 5, 2);
        let (got, rep) = pagerank(&g, PAGERANK_R, 5, 1).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9);
        }
        assert_eq!(rep.traffic.bytes_sent, 0, "single node, no network");
    }

    #[test]
    fn bfs_matches_native() {
        let mut el = rmat_el(9, 63);
        el.remove_self_loops();
        el.symmetrize();
        let g = UndirectedGraph::from_symmetric_edge_list(&el);
        let want = graphmaze_native::bfs::bfs(&g, 0, 2);
        let (got, _) = bfs(&g, 0, 1).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn triangles_match_native() {
        let el = rmat_el(9, 64);
        let oriented = orient_and_sort(&el);
        let want = graphmaze_native::triangle::triangles(&oriented, 2);
        let (got, _) = triangles(&oriented, 1).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn sgd_converges() {
        let g = ratings::generate(&RatingsGenConfig {
            scale: 8,
            edge_factor: 8,
            num_items: 32,
            min_degree: 3,
            seed: 65,
        });
        let cfg = CfConfig {
            k: 4,
            lambda: 0.05,
            gamma0: 0.02,
            step_decay: 0.98,
            seed: 9,
        };
        let (_, hist, rep) = cf_sgd(&g, &cfg, 5, 1).unwrap();
        assert!(hist[4] < hist[0]);
        assert_eq!(rep.iterations, 5);
    }

    #[test]
    fn sgd_matches_native_schedule_exactly() {
        // Galois drives the same diagonal blocking as native (§3.2):
        // identical blocks + identical per-bucket order ⇒ identical
        // factors, bit for bit.
        let g = ratings::generate(&RatingsGenConfig {
            scale: 8,
            edge_factor: 8,
            num_items: 32,
            min_degree: 3,
            seed: 66,
        });
        let cfg = CfConfig {
            k: 4,
            lambda: 0.05,
            gamma0: 0.02,
            step_decay: 0.98,
            seed: 9,
        };
        let (native_f, _) = graphmaze_native::cf::sgd(&g, &cfg, 3, 2);
        let (galois_f, _, _) = cf_sgd(&g, &cfg, 3, 1).unwrap();
        assert_eq!(native_f, galois_f);
    }

    #[test]
    fn galois_is_close_to_native_single_node() {
        // Table 5: Galois ≈ 1.1–1.2x native for pagerank.
        let el = rmat_el(10, 66);
        let g = DirectedGraph::from_edge_list(&el);
        let (_, native_rep) = graphmaze_native::pagerank::pagerank_cluster(
            &g,
            PAGERANK_R,
            5,
            graphmaze_native::NativeOptions::all(),
            1,
        )
        .unwrap();
        let (_, galois_rep) = pagerank(&g, PAGERANK_R, 5, 1).unwrap();
        let slowdown = galois_rep.slowdown_vs(&native_rep);
        assert!(
            slowdown > 1.0 && slowdown < 3.0,
            "Galois slowdown {slowdown}"
        );
    }
}
