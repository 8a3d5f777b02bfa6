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
//! * the **gather monoid** is the semiring ⊕, folded into the shared
//!   `vertex::gas` inbox (the SPA) in frontier order — bit-identical to the
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
//! communication pattern of `DistMatrix::spmspv_transpose`.

use graphmaze_cluster::{ClusterSpec, ExecProfile, Router, Sim, SimError};
use graphmaze_graph::csr::Csr;
use graphmaze_graph::VertexId;
use graphmaze_metrics::{RunReport, Work};

use crate::spmv::matrix::DistMatrix;
use crate::vertex::engine::{VertexGraphView, STREAM_PHASES};
use crate::vertex::gas::{ApplyContext, GasJob, GasProgram, Inbox};

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

    // seed messages enter the superstep-0 SPA unmasked, in their given
    // order — exactly the vertex engine's pre-seeded inboxes
    let mut inbox = Inbox::new(program.gather(), out_csr, job.seeds, |m| {
        program.message_bytes(m)
    });
    let mut active: Vec<bool> = vec![job.activate_all; n];
    for &v in inbox.arrived() {
        active[v as usize] = true;
    }

    let column_block: Vec<u32> = (0..n as u32).map(|v| grid.owner(0, v) as u32).collect();
    // scattering vertices of the superstep with their declared bytes
    let mut frontier: Vec<(VertexId, u64)> = Vec::new();
    let mut mask = vec![true; n];
    let mut per_block = vec![0u64; nodes];
    let mut transient = vec![0u64; nodes];
    let mut superstep = 0u32;
    let mut prev_aggregate = 0.0f64;
    while superstep < job.max_supersteps && active.contains(&true) {
        sim.phase(&format!("superstep:{superstep}"));

        // ---- apply: step every active vertex in ascending vertex order
        // (for an ascending frontier the inbox's folds replay the
        // engines' arrival order)
        let mut aggregate_acc = 0.0f64;
        frontier.clear();
        for v in 0..n {
            if !active[v] {
                continue;
            }
            let (gathered, _, _) = inbox.take(v as VertexId);
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
                frontier.push((v as VertexId, program.message_bytes(&msg)));
                inbox.scatter(v as VertexId, msg);
            }
        }

        // ---- gather for the next superstep: one masked SpMSpV,
        // `y⟨¬m⟩ = Aᵀ ⊕.⊗ x` with a pass-through ⊗, delivered in frontier
        // order. The complement mask drops products that cannot affect
        // their target, but a masked edge is still streamed and counted.
        for (m, value) in mask.iter_mut().zip(&values) {
            *m = program.gather_mask(value);
        }
        per_block.fill(0);
        for &(u, bytes) in &frontier {
            // owner(u, v) = owner(u, 0) + owner(0, v): one table lookup
            // per edge instead of two divisions
            let row = grid.owner(u, 0);
            for &v in out_csr.neighbors(u) {
                per_block[row + column_block[v as usize] as usize] += 1;
                if mask[v as usize] {
                    inbox.deliver(v, u, bytes);
                }
            }
        }
        inbox.flip();

        // ---- cost model: block streaming + the 2-D SpMSpV exchange
        let total_msg_bytes: u64 = frontier.iter().map(|&(_, bytes)| bytes).sum();
        let elem = if frontier.is_empty() {
            0
        } else {
            total_msg_bytes / frontier.len() as u64
        };
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
            let out_bytes = inbox.arrived().len() as u64 * (4 + elem);
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
        for &v in inbox.arrived() {
            active[v as usize] = true;
        }
        superstep += 1;
        if job.supersteps_per_iteration > 0
            && superstep.is_multiple_of(job.supersteps_per_iteration)
        {
            sim.end_iteration();
        }
    }
    Ok(((job.finish)(program, values), sim.finish()))
}

#[cfg(test)]
mod tests {
    use crate::vertex::engine::VertexGraphView;
    use crate::vertex::gas::{ApplyContext, GasJob, GasProgram, GatherMode, Gathered};
    use crate::vertex::programs::{bfs_job, msbfs_job, pagerank_job, triangle_job};
    use crate::vertex::{giraph, graphlab, Backend};
    use graphmaze_datagen::{rmat, RmatConfig, RmatParams};
    use graphmaze_graph::csr::{DirectedGraph, UndirectedGraph};
    use graphmaze_graph::VertexId;
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

    /// Floods once; every vertex counts what it receives, but vertices
    /// whose value is `MASKED` declare (inexactly, for the test) that a
    /// delivery cannot affect them.
    struct CountUnlessMasked;

    const MASKED: u32 = 1000;

    impl GasProgram for CountUnlessMasked {
        type Value = u32;
        type Msg = u32;

        fn gather(&self) -> GatherMode<u32> {
            GatherMode::Collect
        }

        fn apply(
            &self,
            superstep: u32,
            v: VertexId,
            value: &mut u32,
            gathered: Gathered<'_, u32>,
            _g: &VertexGraphView<'_>,
            ctx: &mut ApplyContext,
        ) -> Option<u32> {
            *value += gathered.all().len() as u32;
            ctx.vote_to_halt();
            (superstep == 0).then_some(v)
        }

        fn gather_mask(&self, value: &u32) -> bool {
            *value != MASKED
        }

        fn message_bytes(&self, _: &u32) -> u64 {
            4
        }

        fn value_bytes(&self) -> u64 {
            4
        }
    }

    #[test]
    fn mask_drops_the_delivery_but_not_the_traversed_edge() {
        // Figure 2 (in-degrees 0, 1, 2, 2) with vertex 2 masked off
        let csr = graphmaze_graph::fixtures::fig2_csr();
        for nodes in [1, 4] {
            let job = GasJob::new(&csr, CountUnlessMasked, vec![0, 0, MASKED, 0], 10);
            let (values, report) = Backend::GraphMat.run(job, nodes).unwrap();
            // vertex 2 never hears of its two in-edges and stays asleep
            assert_eq!(values, [0, 1, MASKED, 2], "nodes={nodes}");
            // all five edges were streamed and charged all the same
            assert_eq!(report.total_work.rand_accesses, 5, "nodes={nodes}");
        }
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
