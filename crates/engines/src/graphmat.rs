//! GraphMat — auto-lowering vertex programs onto the SpMV backend.
//!
//! The paper's authors close the "ninja gap" by *compiling* the
//! productive abstraction onto the optimized one: users keep writing
//! "think like a vertex" programs, the backend runs generalized sparse
//! matrix–vector products. This engine is that lowering over our
//! existing machinery — any [`GasJob`] executes as one masked SpMSpV per
//! superstep on the 2-D [`DistMatrix`] decomposition, with no
//! per-program code:
//!
//! * the **scatter frontier** (every vertex broadcasts one message to
//!   all out-neighbors, the GAS invariant) is the sparse input vector
//!   `x`;
//! * the **gather monoid** is the semiring ⊕, reduced into a
//!   [`SparseAccumulator`] in frontier order — bit-identical to the
//!   arrival-order inbox fold of the vertex engines, so digests match
//!   Giraph's exactly;
//! * [`GasProgram::gather_mask`] becomes GraphBLAST's complement output
//!   mask `y⟨¬m⟩ = Aᵀ ⊕.⊗ x`, dropping products that provably cannot
//!   change a destination (e.g. deliveries to already-settled BFS
//!   vertices);
//! * **apply** runs per touched-or-active vertex between SpMSpVs, in
//!   ascending vertex order.
//!
//! Cost-wise the engine behaves like the C++ matrix backends: blocks
//! stream with prefetch and overlap ([`ExecProfile::graphmat`]), the
//! frontier broadcasts down grid columns and sparse partial results
//! reduce to the row diagonal through [`Router`], exactly the
//! communication pattern of `DistMatrix::spmspv_transpose_opt`.

use graphmaze_cluster::{ClusterSpec, ExecProfile, Router, Sim, SimError};
use graphmaze_graph::csr::Csr;
use graphmaze_graph::VertexId;
use graphmaze_metrics::{RunReport, Work};

use crate::spmv::matrix::DistMatrix;
use crate::spmv::semiring::{GatherMonoid, SparseAccumulator};
use crate::vertex::engine::VertexGraphView;
use crate::vertex::gas::{ApplyContext, GasJob, GasProgram, GatherMode, Gathered};

/// Streaming phases assumed for transient frontier/SPA buffers (the
/// backend never buffers a whole superstep; mirrors the vertex engine's
/// streamed path).
const STREAM_PHASES: u64 = 16;

/// The lowered inbox: a sparse accumulator shaped by the program's
/// declared gather mode.
enum Inbox<M: Clone> {
    Fold(GatherMonoid<M>, SparseAccumulator<M>),
    Collect(SparseAccumulator<Vec<M>>),
}

impl<M: Clone> Inbox<M> {
    fn touched(&self) -> usize {
        match self {
            Inbox::Fold(_, spa) => spa.len(),
            Inbox::Collect(spa) => spa.len(),
        }
    }

    fn indices(&self) -> &[u32] {
        match self {
            Inbox::Fold(_, spa) => spa.indices(),
            Inbox::Collect(spa) => spa.indices(),
        }
    }
}

/// A drained delivery, ready for one apply call.
enum Delivery<M> {
    Folded(M),
    All(Vec<M>),
}

/// Runs `job` to completion (or `job.max_supersteps`) by lowering it to
/// per-superstep masked SpMSpV over the graph's 2-D block decomposition.
/// Semantics — activation, halting, waking on delivery, the global
/// aggregator, termination — replicate the BSP vertex engine, so any
/// program produces the same values it would under Giraph/GraphLab.
pub(crate) fn run<P: GasProgram, R>(
    job: GasJob<'_, P, R>,
    nodes: usize,
) -> Result<(R, RunReport), SimError> {
    let program = &job.program;
    let out_csr: &Csr = &job.graph;
    let n = out_csr.num_vertices();
    let mut values = job.values;
    assert_eq!(values.len(), n, "one value per vertex");
    let view = VertexGraphView::new(out_csr, job.weights.as_deref());
    let profile = ExecProfile::graphmat();
    let mut sim = Sim::new(ClusterSpec::paper(nodes), profile);
    let mut router = Router::with_config(nodes, profile.router);
    let matrix = DistMatrix::new_nearly_square(out_csr, nodes);
    let grid = matrix.grid();

    // static allocations: each process's block of A (4 B col id + 8 B
    // entry per nnz) plus its segments of the value and SPA vectors
    let seg = (n as u64).div_ceil(nodes as u64);
    for p in 0..nodes {
        let bytes = matrix.block_nnz(p) * 12 + seg * (program.value_bytes() + 8);
        sim.alloc(p, bytes, "graphmat:A+vectors")?;
    }

    let mut inbox: Inbox<P::Msg> = match program.gather() {
        GatherMode::Fold(monoid) => Inbox::Fold(monoid, SparseAccumulator::new(n)),
        GatherMode::Collect => Inbox::Collect(SparseAccumulator::new(n)),
    };
    // seed messages enter the superstep-0 SPA unmasked, in their given
    // order — exactly the vertex engine's pre-seeded inboxes
    match &mut inbox {
        Inbox::Fold(monoid, spa) => {
            for (v, m) in &job.seeds {
                spa.scatter(*v, |acc| {
                    (monoid.combine)(&acc.unwrap_or_else(|| monoid.identity.clone()), m)
                });
            }
        }
        Inbox::Collect(spa) => {
            for (v, m) in &job.seeds {
                spa.scatter(*v, |acc| {
                    let mut list = acc.unwrap_or_default();
                    list.push(m.clone());
                    list
                });
            }
        }
    }

    let mut active: Vec<bool> = vec![job.activate_all; n];
    if !job.activate_all {
        for &v in inbox.indices() {
            active[v as usize] = true;
        }
    }

    let mut superstep = 0u32;
    let mut prev_aggregate = 0.0f64;
    while superstep < job.max_supersteps {
        if !active.iter().any(|&a| a) {
            break;
        }
        sim.phase(&format!("superstep:{superstep}"));

        // ---- apply: drain the SPA and step every active vertex, in
        // ascending vertex order (the SPA drains sorted, and for an
        // ascending frontier its folds replay the engines' inbox order)
        let delivered: Vec<(u32, Delivery<P::Msg>)> = match &mut inbox {
            Inbox::Fold(_, spa) => spa
                .drain_sorted()
                .into_iter()
                .map(|(i, m)| (i, Delivery::Folded(m)))
                .collect(),
            Inbox::Collect(spa) => spa
                .drain_sorted()
                .into_iter()
                .map(|(i, l)| (i, Delivery::All(l)))
                .collect(),
        };
        let mut aggregate_acc = 0.0f64;
        let mut frontier: Vec<(VertexId, P::Msg)> = Vec::new();
        let mut cursor = 0usize;
        for v in 0..n {
            if !active[v] {
                continue;
            }
            let hit = cursor < delivered.len() && delivered[cursor].0 as usize == v;
            let gathered = if hit {
                match &delivered[cursor].1 {
                    Delivery::Folded(m) => Gathered::Folded(m.clone()),
                    Delivery::All(l) => Gathered::All(l.as_slice()),
                }
            } else {
                match &inbox {
                    Inbox::Fold(monoid, _) => Gathered::Folded(monoid.identity.clone()),
                    Inbox::Collect(_) => Gathered::All(&[]),
                }
            };
            if hit {
                cursor += 1;
            }
            let mut actx = ApplyContext::new(prev_aggregate);
            let scatter = program.apply(
                superstep,
                v as VertexId,
                &mut values[v],
                gathered,
                &view,
                &mut actx,
            );
            aggregate_acc += actx.aggregate;
            if actx.halt {
                active[v] = false;
            }
            if let Some(msg) = scatter {
                frontier.push((v as VertexId, msg));
            }
        }

        // ---- gather for the next superstep: one masked SpMSpV; the
        // complement mask drops products that cannot affect their target
        let mask: Vec<bool> = values.iter().map(|val| program.gather_mask(val)).collect();
        let per_block = match &mut inbox {
            Inbox::Fold(monoid, spa) => {
                let monoid = monoid.clone();
                matrix.spmspv_monoid(&frontier, &monoid, Some(&mask), spa)
            }
            Inbox::Collect(spa) => matrix.spmspv_collect(&frontier, Some(&mask), spa),
        };
        // a message exists for every traversed edge, masked or not
        let traversed: u64 = per_block.iter().sum();
        let any_message = traversed > 0;

        // ---- cost model: block streaming + the 2-D SpMSpV exchange
        let total_msg_bytes: u64 = frontier.iter().map(|(_, m)| program.message_bytes(m)).sum();
        let elem = if frontier.is_empty() {
            0
        } else {
            total_msg_bytes / frontier.len() as u64
        };
        let mut transient = vec![0u64; nodes];
        for (p, &e) in per_block.iter().enumerate() {
            sim.charge(
                p,
                Work {
                    seq_bytes: e * (4 + elem),
                    rand_accesses: e,
                    flops: e * program.flops_per_msg(),
                },
            );
            transient[p] = e * (4 + elem) / STREAM_PHASES + 1;
            sim.alloc(p, transient[p], "graphmat:frontier+spa")?;
        }
        if nodes > 1 {
            let pr = grid.pr as u64;
            let in_bytes = frontier.len() as u64 * 4 + total_msg_bytes;
            let in_raw = frontier.len() as u64 * (4 + elem);
            let out_bytes = inbox.touched() as u64 * (4 + elem);
            for p in 0..nodes {
                let (r, c) = grid.coords(p);
                // frontier broadcast down the process column
                if r == c {
                    router.scatter(
                        &mut sim,
                        p,
                        &matrix.column_peers(r, c),
                        in_bytes / pr * (pr - 1) + 1,
                        in_raw,
                    );
                }
                // sparse partial SPAs gathered at the row's diagonal
                if r != c {
                    router.send(
                        &mut sim,
                        p,
                        grid.node_at(r, r),
                        out_bytes / (pr * pr) + 1,
                        out_bytes / (pr * pr) + 1,
                    );
                }
            }
        }
        for (p, &b) in transient.iter().enumerate() {
            sim.free(p, b);
        }
        router.flush(&mut sim);
        sim.end_step()?;

        // aggregator allreduce: each node contributes 8 bytes
        router.allreduce(&mut sim, 8);
        prev_aggregate = aggregate_acc;
        // wake destinations with (unmasked) deliveries
        for &v in inbox.indices() {
            active[v as usize] = true;
        }
        superstep += 1;
        if job.supersteps_per_iteration > 0
            && superstep.is_multiple_of(job.supersteps_per_iteration)
        {
            sim.end_iteration();
        }
        if !any_message && active.iter().all(|&a| !a) {
            break;
        }
    }
    Ok(((job.finish)(program, values), sim.finish()))
}

#[cfg(test)]
mod tests {
    use crate::vertex::programs::{bfs_job, msbfs_job, pagerank_job, triangle_job};
    use crate::vertex::{giraph, graphlab, Backend};
    use graphmaze_datagen::{rmat, RmatConfig, RmatParams};
    use graphmaze_graph::csr::{DirectedGraph, UndirectedGraph};
    use graphmaze_native::pagerank::pagerank as native_pagerank;
    use graphmaze_native::triangle::{orient_and_sort, triangles as native_triangles};
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
    fn pagerank_is_bit_identical_to_giraph() {
        let el = rmat_el(9, 31);
        let g = DirectedGraph::from_edge_list(&el);
        let job = || pagerank_job(&g, PAGERANK_R, 5);
        let (want, _) = Backend::Bsp(giraph::config(1)).run(job(), 4).unwrap();
        let (got, _) = Backend::GraphMat.run(job(), 4).unwrap();
        assert_eq!(got, want, "lowered PageRank must replay the inbox fold");
        let native = native_pagerank(&g, PAGERANK_R, 5, 2);
        for (a, b) in got.iter().zip(&native) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn bfs_matches_native_with_masked_gather() {
        let mut el = rmat_el(9, 34);
        el.remove_self_loops();
        el.symmetrize();
        let g = UndirectedGraph::from_symmetric_edge_list(&el);
        let (dist, _) = Backend::GraphMat.run(bfs_job(&g, 0), 4).unwrap();
        let want = graphmaze_native::bfs::bfs(&g, 0, 2);
        assert_eq!(dist, want);
    }

    #[test]
    fn msbfs_matches_native_rows() {
        let mut el = rmat_el(8, 35);
        el.remove_self_loops();
        el.symmetrize();
        let g = UndirectedGraph::from_symmetric_edge_list(&el);
        let sources: Vec<u32> = (0..65u32).collect(); // spans two words
        let (rows, _) = Backend::GraphMat.run(msbfs_job(&g, &sources), 4).unwrap();
        let want = graphmaze_native::msbfs::msbfs(&g, &sources, 2);
        assert_eq!(rows, want);
    }

    #[test]
    fn triangles_match_native_count() {
        let el = rmat_el(9, 33);
        let oriented = orient_and_sort(&el);
        let want = native_triangles(&oriented, 2);
        let (got, _) = Backend::GraphMat.run(triangle_job(&oriented), 4).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn closes_the_ninja_gap_but_never_beats_native() {
        let el = rmat_el(10, 36);
        let g = DirectedGraph::from_edge_list(&el);
        let run = |backend: Backend| backend.run(pagerank_job(&g, PAGERANK_R, 5), 4).unwrap();
        let (_, gm) = run(Backend::GraphMat);
        let (_, gi) = run(Backend::Bsp(giraph::config(1)));
        let (_, gl) = run(Backend::Bsp(graphlab::config()));
        let (_, native) = graphmaze_native::pagerank::pagerank_cluster(
            &g,
            PAGERANK_R,
            5,
            graphmaze_native::NativeOptions::all(),
            4,
        )
        .unwrap();
        assert!(
            gm.sim_seconds < gi.sim_seconds && gm.sim_seconds < gl.sim_seconds,
            "graphmat {} vs giraph {} / graphlab {}",
            gm.sim_seconds,
            gi.sim_seconds,
            gl.sim_seconds
        );
        assert!(
            gm.sim_seconds >= native.sim_seconds * 0.99,
            "graphmat {} must not beat native {}",
            gm.sim_seconds,
            native.sim_seconds
        );
    }

    #[test]
    fn masked_bfs_sends_less_than_giraph() {
        let mut el = rmat_el(10, 37);
        el.remove_self_loops();
        el.symmetrize();
        let g = UndirectedGraph::from_symmetric_edge_list(&el);
        let (d1, gm) = Backend::GraphMat.run(bfs_job(&g, 0), 4).unwrap();
        let (d2, gi) = Backend::Bsp(giraph::config(1))
            .run(bfs_job(&g, 0), 4)
            .unwrap();
        assert_eq!(d1, d2);
        assert!(
            gm.traffic.bytes_sent < gi.traffic.bytes_sent,
            "{} !< {}",
            gm.traffic.bytes_sent,
            gi.traffic.bytes_sent
        );
    }
}
