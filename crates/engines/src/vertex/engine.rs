//! The generic bulk-synchronous vertex-program executor.
//!
//! Semantics follow the paper's Giraph description (§3): supersteps in
//! BSP fashion; each active vertex receives the messages sent to it in
//! the previous superstep, updates its value, and sends messages;
//! "computation halts if all vertices have voted to halt and there are
//! no messages in flight". GraphLab's runtime differs in mechanisms
//! (combiners/local reduction, sockets, overlap, replication-aware
//! routing), which [`EngineConfig`] captures.

use graphmaze_cluster::{
    ClusterSpec, Combiner, FlushPolicy, Mailbox, Partition1D, Router, Sim, SimError,
};
use graphmaze_graph::csr::Csr;
use graphmaze_graph::VertexId;
use graphmaze_metrics::{RunReport, Work};

use super::gas::{ApplyContext, GasJob, GasProgram, GatherMode, Inbox};

/// Read-only view of the graph a vertex program may consult: its own
/// out-edges and degrees (a vertex program "can only access local data",
/// §3.1).
pub struct VertexGraphView<'a> {
    /// Out-adjacency CSR.
    pub out: &'a Csr,
    /// Optional edge weights aligned with `out.targets()` (ratings for
    /// collaborative filtering).
    pub weights: Option<&'a [f32]>,
}

impl<'a> VertexGraphView<'a> {
    /// A view over `out`; `weights`, when given, must align with its edges.
    pub(crate) fn new(out: &'a Csr, weights: Option<&'a [f32]>) -> Self {
        if let Some(w) = weights {
            assert_eq!(w.len(), out.targets().len(), "one weight per edge");
        }
        VertexGraphView { out, weights }
    }

    /// Out-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.out.neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u32 {
        self.out.degree(v)
    }

    /// Vertex count.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    /// Weight of the edge `v → dst`, requiring sorted adjacency. `None`
    /// if the graph is unweighted or the edge is absent.
    pub fn edge_weight(&self, v: VertexId, dst: VertexId) -> Option<f32> {
        let w = self.weights?;
        let lo = self.out.offsets()[v as usize] as usize;
        let hi = self.out.offsets()[v as usize + 1] as usize;
        let idx = self.out.targets()[lo..hi].binary_search(&dst).ok()?;
        Some(w[lo + idx])
    }
}

/// Runtime mechanisms that differ between the vertex frameworks beyond
/// what their [`graphmaze_cluster::ExecProfile`] already declares: the
/// message plane (flush policy — `Barrier` is Giraph's whole-superstep
/// buffering, §6.1.3 — per-message heap overhead, id compression) and
/// speculative re-execution are read from `profile`.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Execution profile (comm layer, cores, overlap, per-step cost,
    /// router configuration, speculation).
    pub profile: graphmaze_cluster::ExecProfile,
    /// Reduce messages with the program's gather monoid before they
    /// leave a node (GraphLab's combiner).
    pub use_combiner: bool,
    /// Split each superstep into this many mini-supersteps, each
    /// processing a slice of vertices (the paper's Giraph fix: "breaking
    /// up each superstep into 100 smaller supersteps"). 1 = no split.
    pub superstep_splits: u32,
    /// High-degree replication threshold: vertices with degree ≥
    /// `threshold × average` are mirrored on every node, so one combined
    /// message per (hub, node) crosses the wire instead of one per edge —
    /// GraphLab's "advanced partitioning scheme where some nodes with
    /// large degree are duplicated in multiple nodes" (§6.1.1).
    /// `None` disables replication.
    pub replicate_hubs_factor: Option<f64>,
}

/// Number of streaming phases assumed when messages are *not* buffered
/// whole (mirrors native overlap blocking); the GraphMat lowering streams
/// its transient frontier/SPA buffers the same way.
pub(crate) const STREAM_PHASES: u64 = 16;

/// The outgoing message plane, one reused mailbox per node. `Fold`
/// programs post the (small, algebraic) value, so the declared ⊕ still
/// combines it; `Collect` programs post the sender's id, a handle.
enum Outbox<M> {
    Values(Vec<Mailbox<M>>),
    Handles(Vec<Mailbox<u32>>),
}

/// Runs `job` to completion (or `job.max_supersteps`) on the simulated
/// cluster. Seed messages fill the superstep-0 inboxes; every seeded
/// vertex (or every vertex, with `activate_all`) is active first. Each
/// active vertex's inbox is gathered — left-folded from the monoid
/// identity in arrival order, or walked verbatim — applied, and the
/// returned scatter message posted to every out-neighbor in adjacency
/// order.
pub(crate) fn run<P: GasProgram, R>(
    job: GasJob<'_, P, R>,
    cfg: &EngineConfig,
    nodes: usize,
) -> Result<(R, RunReport), SimError> {
    let program = &job.program;
    let out_csr: &Csr = &job.graph;
    let n = out_csr.num_vertices();
    let mut values = job.values;
    assert_eq!(values.len(), n, "one value per vertex");
    let view = VertexGraphView::new(out_csr, job.weights.as_deref());
    let mut sim = Sim::new(ClusterSpec::paper(nodes), cfg.profile);
    let mut router = Router::new(nodes, &cfg.profile);
    let per_message_overhead_bytes = cfg.profile.router.per_message_overhead_bytes;
    let buffer_whole_superstep = cfg.profile.router.flush == FlushPolicy::Barrier;
    let part = Partition1D::balanced_by_edges(out_csr, nodes);
    // owner node of every vertex, looked up per edge
    let owner: Vec<u32> = (0..nodes)
        .flat_map(|node| std::iter::repeat_n(node as u32, part.len(node)))
        .collect();

    // static allocations: graph slice + values; the declared layout
    // lets an elastic plan's repartitioner weight its cuts by real
    // per-partition loads
    for node in 0..nodes {
        sim.declare_partition(node, part.len(node) as u64, part.edges_of(out_csr, node));
        let bytes =
            part.edges_of(out_csr, node) * 4 + part.len(node) as u64 * program.value_bytes();
        sim.alloc(node, bytes, "vertex:graph+values")?;
    }

    // replicated hubs: one combined value crosses the wire per (hub,
    // node); mirrors scatter locally (GraphLab's replication, §6.1.1)
    let hub_threshold = cfg.replicate_hubs_factor.map(|f| {
        let avg = out_csr.num_edges() as f64 / n.max(1) as f64;
        (avg * f).max(1.0) as u32
    });
    let is_hub = |v: VertexId| -> bool { hub_threshold.is_some_and(|t| out_csr.degree(v) >= t) };

    // the declared ⊕ reduces each inbox as messages arrive and, when the
    // framework combines, doubles as the message plane's local reduction
    let gather = program.gather();
    let combine_fn;
    let combine: Combiner<'_, P::Msg> = match &gather {
        GatherMode::Fold(monoid) if cfg.use_combiner => {
            let op = monoid.combine;
            combine_fn = move |a: &P::Msg, b: &P::Msg| {
                let mut combined = a.clone();
                op(&mut combined, b);
                Some(combined)
            };
            Some(&combine_fn)
        }
        _ => None,
    };
    let mut outbox: Outbox<P::Msg> = match &gather {
        GatherMode::Fold(_) => Outbox::Values((0..nodes).map(|i| Mailbox::new(i, nodes)).collect()),
        GatherMode::Collect => {
            Outbox::Handles((0..nodes).map(|i| Mailbox::new(i, nodes)).collect())
        }
    };
    let mut inbox = Inbox::new(gather, out_csr, job.seeds, |m| program.message_bytes(m));
    let mut active: Vec<bool> = vec![job.activate_all; n];
    for &v in inbox.arrived() {
        active[v as usize] = true;
    }

    let splits = cfg.superstep_splits.max(1);
    let mut superstep = 0u32;
    // Pregel-style global aggregator: summed at each superstep barrier,
    // visible to every vertex in the next superstep (tiny allreduce —
    // 8 bytes per node pair, charged below)
    let mut prev_aggregate = 0.0f64;
    // declared bytes of the message each vertex scattered by handle
    let mut sent_bytes: Vec<u64> = vec![0; n];
    let mut split_alloc: Vec<u64> = vec![0; nodes];
    // hub mirror syncs, batched into one bulk transfer per destination
    // node at slice end
    let mut hub_wire: Vec<u64> = vec![0; nodes];
    let mut sent_to = vec![false; nodes];
    while superstep < job.max_supersteps && active.contains(&true) {
        let mut aggregate_acc = 0.0f64;

        // process each split slice as its own barrier
        for split in 0..splits {
            if splits == 1 {
                sim.phase(&format!("superstep:{superstep}"));
            } else {
                sim.phase(&format!("superstep:{superstep}/split:{split}"));
            }
            for node in 0..nodes {
                let range = part.range(node);
                let slice_len = (range.end - range.start).div_ceil(splits);
                let lo = range.start + split * slice_len;
                let hi = (lo + slice_len).min(range.end);
                let mut recv_bytes = 0u64;
                let mut recv_msgs = 0u64;
                let mut sent_bytes_local = 0u64;
                let mut sent_msgs_local = 0u64;
                for v in lo..hi {
                    if !active[v as usize] {
                        continue;
                    }
                    let (gathered, msgs, bytes) = inbox.take(v);
                    recv_msgs += msgs;
                    recv_bytes += bytes;
                    let mut ctx = ApplyContext::new(prev_aggregate);
                    let scatter = program.apply(
                        superstep,
                        v,
                        &mut values[v as usize],
                        gathered,
                        &view,
                        &mut ctx,
                    );
                    aggregate_acc += ctx.aggregate;
                    if ctx.halt {
                        active[v as usize] = false;
                    }
                    let Some(msg) = scatter else { continue };
                    let bytes = program.message_bytes(&msg);
                    let neighbors = view.neighbors(v);
                    sent_msgs_local += neighbors.len() as u64;
                    if is_hub(v) {
                        // replication: deliver everywhere, but only one
                        // value per remote node hits the wire (mirrors
                        // hold the hub's local edges already)
                        inbox.scatter(v, msg);
                        for &dst in neighbors {
                            let dest = owner[dst as usize] as usize;
                            sent_bytes_local += bytes;
                            if dest != node && !sent_to[dest] {
                                sent_to[dest] = true;
                                hub_wire[dest] += 4 + bytes;
                            }
                            inbox.deliver(dst, v, bytes);
                        }
                        sent_to.fill(false);
                        continue;
                    }
                    match &mut outbox {
                        Outbox::Values(mboxes) => {
                            for &dst in neighbors {
                                mboxes[node].post(owner[dst as usize] as usize, dst, msg.clone());
                            }
                        }
                        Outbox::Handles(mboxes) => {
                            sent_bytes[v as usize] = bytes;
                            inbox.scatter(v, msg);
                            for &dst in neighbors {
                                mboxes[node].post(owner[dst as usize] as usize, dst, v);
                            }
                        }
                    }
                }
                // local reduction, id compression, per-message overhead
                // and wire routing all happen in the message plane
                sent_bytes_local += match &mut outbox {
                    Outbox::Values(mboxes) => mboxes[node].flush(
                        &mut router,
                        &mut sim,
                        n as u64,
                        |m| program.message_bytes(m),
                        combine,
                        |d, m| inbox.deliver_value(d, &m, program.message_bytes(&m)),
                    ),
                    Outbox::Handles(mboxes) => mboxes[node].flush(
                        &mut router,
                        &mut sim,
                        n as u64,
                        |&h| sent_bytes[h as usize],
                        None,
                        |d, h| inbox.deliver(d, h, sent_bytes[h as usize]),
                    ),
                };
                // route batched hub mirror syncs
                for (dest, bytes) in hub_wire.iter_mut().enumerate() {
                    router.send(&mut sim, node, dest, *bytes, *bytes);
                    *bytes = 0;
                }
                // compute cost for this node's slice
                let w = Work {
                    seq_bytes: recv_bytes + sent_bytes_local,
                    rand_accesses: recv_msgs,
                    flops: recv_msgs * program.flops_per_msg(),
                };
                // speculative re-execution: a straggling slice is re-run
                // on a buddy node in parallel; the faster copy wins, so
                // the slowdown is masked and the buddy's duplicate result
                // messages are suppressed by the combiner (never wired).
                // Only takes effect when the active fault plan carries
                // link-level terms.
                if cfg.profile.speculative_reexec
                    && nodes > 1
                    && sim.speculation_active()
                    && sim.straggler_at(node).is_some()
                {
                    let buddy = (node + 1) % nodes;
                    sim.charge_speculated(node, buddy, w, sent_msgs_local);
                } else {
                    sim.charge(node, w);
                }
                // buffering memory
                let buffered = if buffer_whole_superstep {
                    recv_bytes + sent_bytes_local + recv_msgs * per_message_overhead_bytes
                } else {
                    (recv_bytes + sent_bytes_local) / STREAM_PHASES + 1
                };
                split_alloc[node] = buffered;
                sim.alloc(node, buffered, "vertex:message-buffers")?;
            }
            for (node, b) in split_alloc.iter().enumerate() {
                sim.free(node, *b);
            }
            // buffered traffic is charged to the step that produced it
            router.flush(&mut sim);
            sim.end_step()?;
        }

        // aggregator allreduce: each node contributes 8 bytes
        router.allreduce(&mut sim, 8);
        prev_aggregate = aggregate_acc;
        inbox.flip();
        // wake vertices that received messages
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
    use super::*;
    use crate::spmv::semiring::GatherMonoid;
    use crate::vertex::gas::Gathered;
    use graphmaze_cluster::{ExecProfile, RouterConfig};

    /// A toy program: every vertex floods its id once, each vertex counts
    /// the messages it receives, then halts.
    struct CountIncoming;

    impl GasProgram for CountIncoming {
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

        fn message_bytes(&self, _: &u32) -> u64 {
            4
        }

        fn value_bytes(&self) -> u64 {
            4
        }
    }

    fn engine_cfg() -> EngineConfig {
        EngineConfig {
            profile: ExecProfile::graphlab(),
            use_combiner: false,
            superstep_splits: 1,
            replicate_hubs_factor: None,
        }
    }

    #[test]
    fn message_delivery_counts_in_degree() {
        // Figure 2 graph: in-degrees 0,1,2,2
        let csr = Csr::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
        for nodes in [1, 2, 4] {
            let job = GasJob::new(&csr, CountIncoming, vec![0u32; 4], 10);
            let (values, report) = run(job, &engine_cfg(), nodes).unwrap();
            assert_eq!(values, vec![0, 1, 2, 2], "nodes={nodes}");
            assert!(report.steps >= 2);
        }
    }

    #[test]
    fn halting_terminates_early() {
        let csr = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let job = GasJob::new(&csr, CountIncoming, vec![0u32; 3], 10);
        let (_, report) = run(job, &engine_cfg(), 2).unwrap();
        // flood, deliver, then quiesce well before max_supersteps
        assert!(report.steps < 10, "steps {}", report.steps);
    }

    /// Summing program over the `(+, 0)` u64 monoid.
    struct SumFlood;

    impl GasProgram for SumFlood {
        type Value = u64;
        type Msg = u64;

        fn gather(&self) -> GatherMode<u64> {
            GatherMode::Fold(GatherMonoid {
                identity: 0,
                combine: |a, b| *a += *b,
            })
        }

        fn apply(
            &self,
            superstep: u32,
            v: VertexId,
            value: &mut u64,
            gathered: Gathered<'_, u64>,
            _g: &VertexGraphView<'_>,
            ctx: &mut ApplyContext,
        ) -> Option<u64> {
            *value += gathered.folded();
            ctx.vote_to_halt();
            (superstep == 0).then_some(u64::from(v) + 1)
        }

        fn message_bytes(&self, _: &u64) -> u64 {
            8
        }

        fn value_bytes(&self) -> u64 {
            8
        }
    }

    #[test]
    fn combiner_preserves_results_and_cuts_traffic() {
        // many parallel edges to one target across a node boundary
        let edges: Vec<(u32, u32)> = (0..50u32).map(|i| (i, 99)).collect();
        let csr = Csr::from_edges(100, &edges);
        let job = || GasJob::new(&csr, SumFlood, vec![0u64; 100], 10);
        let with = EngineConfig {
            use_combiner: true,
            ..engine_cfg()
        };
        let (va, ra) = run(job(), &with, 4).unwrap();
        let (vb, rb) = run(job(), &engine_cfg(), 4).unwrap();
        assert_eq!(va, vb);
        assert_eq!(va[99], (1..=50).sum::<u64>());
        assert!(
            ra.traffic.bytes_sent < rb.traffic.bytes_sent,
            "{} !< {}",
            ra.traffic.bytes_sent,
            rb.traffic.bytes_sent
        );
    }

    #[test]
    fn superstep_splitting_keeps_results_but_lowers_buffer() {
        let edges: Vec<(u32, u32)> = (0..64u32)
            .flat_map(|i| [(i, (i + 1) % 64), (i, (i + 7) % 64)])
            .collect();
        let csr = Csr::from_edges(64, &edges);
        let job = || GasJob::new(&csr, SumFlood, vec![0u64; 64], 10);
        // Giraph's message plane: whole-superstep buffering, 48 B/message
        let mut whole = engine_cfg();
        whole.profile.router = RouterConfig::barrier().with_overhead(48);
        let split = EngineConfig {
            superstep_splits: 8,
            ..whole
        };
        let (va, ra) = run(job(), &whole, 2).unwrap();
        let (vb, rb) = run(job(), &split, 2).unwrap();
        assert_eq!(va, vb);
        assert!(rb.steps > ra.steps, "split produces more barriers");
        assert!(
            rb.peak_mem_bytes <= ra.peak_mem_bytes,
            "{} !<= {}",
            rb.peak_mem_bytes,
            ra.peak_mem_bytes
        );
    }

    #[test]
    fn initial_messages_seed_activity() {
        let csr = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        // only vertex 1 starts active, via an initial message
        let job = GasJob {
            seeds: vec![(1, 7)],
            activate_all: false,
            ..GasJob::new(&csr, CountIncoming, vec![0u32; 3], 10)
        };
        let (values, _) = run(job, &engine_cfg(), 1).unwrap();
        // vertex 1 counts its initial message; vertex 2 counts the flood from 1
        assert_eq!(values, vec![0, 1, 1]);
    }

    /// Every vertex floods its id once and records the senders it hears
    /// from, in the order the inbox yields them.
    struct RecordSenders;

    impl GasProgram for RecordSenders {
        type Value = Vec<u32>;
        type Msg = u32;

        fn gather(&self) -> GatherMode<u32> {
            GatherMode::Collect
        }

        fn apply(
            &self,
            superstep: u32,
            v: VertexId,
            value: &mut Vec<u32>,
            gathered: Gathered<'_, u32>,
            _g: &VertexGraphView<'_>,
            ctx: &mut ApplyContext,
        ) -> Option<u32> {
            value.extend(gathered.all());
            ctx.vote_to_halt();
            (superstep == 0).then_some(v)
        }

        fn message_bytes(&self, _: &u32) -> u64 {
            4
        }

        fn value_bytes(&self) -> u64 {
            4
        }
    }

    #[test]
    fn hub_deliveries_arrive_ahead_of_their_nodes_mailbox_flush() {
        // 0 and 2 each send to 5 only; 1 is a hub (five out-edges against
        // an average of 7/6). On one node a hub delivers at apply time,
        // 0 and 2 when the node's mailbox flushes at slice end.
        let edges = [(0, 5), (1, 0), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5)];
        let csr = Csr::from_edges(6, &edges);
        let job = || GasJob::new(&csr, RecordSenders, vec![vec![]; 6], 10);
        let (plain, _) = run(job(), &engine_cfg(), 1).unwrap();
        assert_eq!(plain[5], [0, 1, 2], "ascending sender without hubs");
        let hubs = EngineConfig {
            replicate_hubs_factor: Some(2.0),
            ..engine_cfg()
        };
        let (replicated, _) = run(job(), &hubs, 1).unwrap();
        assert_eq!(replicated[5], [1, 0, 2]);
        assert_eq!(replicated[0], [1]);
    }

    #[test]
    fn empty_inbox_folds_to_the_identity_and_scatter_is_broadcast() {
        // 0 -> {1, 2}, 1 -> {2}
        let csr = Csr::from_edges(3, &[(0, 1), (0, 2), (1, 2)]);
        let job = GasJob::new(&csr, SumFlood, vec![0u64; 3], 10);
        let (values, _) = run(job, &engine_cfg(), 1).unwrap();
        // superstep 0: everyone applies an empty (identity) gather, then
        // floods v+1; superstep 1: 1 gets 1, 2 gets 1 + 2
        assert_eq!(values, vec![0, 1, 3]);
    }
}
