//! The gather–apply–scatter (GAS) intermediate representation of vertex
//! programs — the declarative form every backend consumes.
//!
//! A [`GasProgram`] splits the monolithic `compute` of the classic
//! vertex model into three lowerable parts:
//!
//! * **gather** — how the inbox is reduced, declared as a
//!   [`GatherMode`]: either an associative ⊕ with identity (a
//!   [`GatherMonoid`] from `spmv::semiring`, e.g. `(+, 0)` for PageRank,
//!   `(min, MAX)` for BFS, word-wise OR for multi-source BFS) or
//!   `Collect` when the program needs every message verbatim (triangle
//!   lists, CF factor vectors).
//! * **apply** — the per-vertex state update, consuming the gathered
//!   inbox and optionally voting to halt / contributing to the global
//!   aggregator through an [`ApplyContext`].
//! * **scatter** — the message `apply` returns, broadcast by the engine
//!   to every out-neighbor. The uniform broadcast is what makes a
//!   program lowerable onto SpMV: the scatter frontier is exactly a
//!   sparse input vector.
//!
//! A [`GasJob`] is a program plus everything else that is a property of
//! the *algorithm* (graph view, initial values, seed messages, superstep
//! cap, result finalizer); a [`Backend`] is where it runs. Running job
//! `J` on backend `B` is `B.run(J, nodes)` — the only way to execute a
//! GAS program.

use std::borrow::Cow;

use graphmaze_cluster::SimError;
use graphmaze_graph::csr::Csr;
use graphmaze_graph::VertexId;
use graphmaze_metrics::RunReport;

use super::engine::{EngineConfig, VertexGraphView};
use crate::spmv::semiring::GatherMonoid;

/// How a program's gather step reduces the messages addressed to a
/// vertex.
pub enum GatherMode<M: Clone> {
    /// Reduce with an associative ⊕ folded from its identity, in arrival
    /// order — as messages arrive, and before that wherever a framework
    /// combines them on the sending node.
    Fold(GatherMonoid<M>),
    /// No algebra: apply sees every message in arrival order.
    Collect,
}

/// The gathered inbox an apply step receives.
pub enum Gathered<'a, M> {
    /// The ⊕-reduction of the inbox (the monoid identity when empty —
    /// apply always runs for active vertices, even with nothing
    /// delivered).
    Folded(M),
    /// The raw inbox in arrival order (`Collect`-mode programs).
    All(Messages<'a, M>),
}

impl<'a, M> Gathered<'a, M> {
    /// The folded reduction. Panics for `Collect`-mode programs.
    pub fn folded(self) -> M {
        match self {
            Gathered::Folded(m) => m,
            Gathered::All(_) => panic!("collect-mode program asked for a folded gather"),
        }
    }

    /// The raw inbox. Panics for `Fold`-mode programs.
    pub fn all(self) -> Messages<'a, M> {
        match self {
            Gathered::All(msgs) => msgs,
            Gathered::Folded(_) => panic!("fold-mode program asked for the raw inbox"),
        }
    }
}

/// A `Collect`-mode inbox in arrival order: each delivery is a sender
/// id, resolved here against that sender's one stored message.
pub struct Messages<'a, M> {
    senders: std::slice::Iter<'a, u32>,
    slots: &'a [Option<M>],
}

impl<'a, M> Iterator for Messages<'a, M> {
    type Item = &'a M;

    fn next(&mut self) -> Option<&'a M> {
        let sender = *self.senders.next()? as usize;
        Some(self.slots[sender].as_ref().expect("scattered"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.senders.size_hint()
    }
}

impl<M> ExactSizeIterator for Messages<'_, M> {}

/// One generation of an [`Inbox`]: filled by one superstep's scatters
/// and deliveries, drained by the next superstep's applies.
struct Mail<M> {
    /// Vertex `v`'s scattered message at `[v]`, seeds past the vertices.
    slots: Vec<Option<M>>,
    /// Messages delivered per vertex — also the `Collect` fill cursor.
    count: Vec<u32>,
    /// Declared bytes delivered per vertex.
    bytes: Vec<u64>,
    /// Vertices with a delivery, in first-arrival order.
    arrived: Vec<VertexId>,
    /// `Fold`: per-vertex accumulator, the ⊕ identity until mail arrives.
    acc: Vec<M>,
    /// `Collect`: sender ids, vertex `v`'s from `Inbox::offsets[v]`.
    senders: Vec<u32>,
}

impl<M: Clone> Mail<M> {
    fn new(slots: usize, n: usize, gather: &GatherMode<M>, arena: usize) -> Self {
        Mail {
            slots: (0..slots).map(|_| None).collect(),
            count: vec![0; n],
            bytes: vec![0; n],
            arrived: Vec::new(),
            acc: match gather {
                GatherMode::Fold(monoid) => vec![monoid.identity.clone(); n],
                GatherMode::Collect => Vec::new(),
            },
            senders: vec![0; arena],
        }
    }

    fn arrive(&mut self, d: usize, bytes: u64) {
        if self.count[d] == 0 {
            self.arrived.push(d as VertexId);
        }
        self.count[d] += 1;
        self.bytes[d] += bytes;
    }
}

/// The message store both executors gather from, allocated once per run
/// and reused across supersteps (DESIGN §7f). `Fold`: a delivery folds
/// into its destination's accumulator on arrival — the same left fold
/// from the identity, in the same order, as reducing a materialized
/// inbox. `Collect`: a CSR-shaped arena of sender ids whose regions have
/// in-degree (plus seeds) as exact capacity, since a sender broadcasts at
/// most one message per out-edge per superstep. Applies drain `cur`
/// while their scatters fill `next`; every vertex with mail is woken and
/// applied, so a generation is empty again before it is refilled.
pub(crate) struct Inbox<M: Clone> {
    gather: GatherMode<M>,
    /// `Collect`: where each vertex's region of `Mail::senders` starts.
    offsets: Vec<usize>,
    cur: Mail<M>,
    next: Mail<M>,
}

impl<M: Clone> Inbox<M> {
    /// An inbox over `graph` with `seeds`, in order, as superstep-0 mail.
    pub(crate) fn new(
        gather: GatherMode<M>,
        graph: &Csr,
        seeds: Vec<(VertexId, M)>,
        message_bytes: impl Fn(&M) -> u64,
    ) -> Self {
        let n = graph.num_vertices();
        let mut offsets = Vec::new();
        if matches!(gather, GatherMode::Collect) {
            offsets.resize(n + 1, 0);
            let seeded = seeds.iter().map(|(dst, _)| dst);
            for &dst in graph.targets().iter().chain(seeded) {
                offsets[dst as usize + 1] += 1;
            }
            for v in 0..n {
                offsets[v + 1] += offsets[v];
            }
        }
        let arena = offsets.last().copied().unwrap_or(0);
        let mut inbox = Inbox {
            cur: Mail::new(n, n, &gather, arena),
            next: Mail::new(n + seeds.len(), n, &gather, arena),
            gather,
            offsets,
        };
        // seeds are the scatter of a superstep before the first
        for (i, (dst, m)) in seeds.into_iter().enumerate() {
            let (handle, bytes) = ((n + i) as u32, message_bytes(&m));
            inbox.scatter(handle, m);
            inbox.deliver(dst, handle, bytes);
        }
        inbox.flip();
        inbox
    }

    /// Vertices holding mail for the current superstep.
    pub(crate) fn arrived(&self) -> &[VertexId] {
        &self.cur.arrived
    }

    /// Hands `v` its gathered inbox with the delivered message count and
    /// declared bytes, and resets `v` for reuse.
    pub(crate) fn take(&mut self, v: VertexId) -> (Gathered<'_, M>, u64, u64) {
        let (v, mail) = (v as usize, &mut self.cur);
        let count = std::mem::take(&mut mail.count[v]);
        let bytes = std::mem::take(&mut mail.bytes[v]);
        let gathered = match &self.gather {
            GatherMode::Fold(monoid) => {
                Gathered::Folded(std::mem::replace(&mut mail.acc[v], monoid.identity.clone()))
            }
            GatherMode::Collect => Gathered::All(Messages {
                senders: mail.senders[self.offsets[v]..][..count as usize].iter(),
                slots: &mail.slots,
            }),
        };
        (gathered, u64::from(count), bytes)
    }

    /// Stores the message `sender` broadcasts — once, whatever its degree.
    pub(crate) fn scatter(&mut self, sender: u32, msg: M) {
        self.next.slots[sender as usize] = Some(msg);
    }

    /// Delivers `sender`'s scattered message (`bytes` declared) to `dst`
    /// for the next superstep: one fold, or one more sender id.
    pub(crate) fn deliver(&mut self, dst: VertexId, sender: u32, bytes: u64) {
        let (d, mail) = (dst as usize, &mut self.next);
        match &self.gather {
            GatherMode::Fold(monoid) => {
                let m = mail.slots[sender as usize].as_ref().expect("scattered");
                (monoid.combine)(&mut mail.acc[d], m);
            }
            GatherMode::Collect => {
                mail.senders[self.offsets[d] + mail.count[d] as usize] = sender;
            }
        }
        mail.arrive(d, bytes);
    }

    /// [`Inbox::deliver`] for a `Fold` message that travelled by value
    /// (through a combining mailbox) rather than by handle.
    pub(crate) fn deliver_value(&mut self, dst: VertexId, m: &M, bytes: u64) {
        let GatherMode::Fold(monoid) = &self.gather else {
            panic!("collect-mode messages travel by handle");
        };
        (monoid.combine)(&mut self.next.acc[dst as usize], m);
        self.next.arrive(dst as usize, bytes);
    }

    /// The superstep barrier: what was delivered is what apply drains.
    pub(crate) fn flip(&mut self) {
        debug_assert!(self.cur.count.iter().all(|&c| c == 0), "undrained mail");
        self.cur.arrived.clear();
        std::mem::swap(&mut self.cur, &mut self.next);
    }
}

/// Apply-step context: halting and the global aggregator. Scatter is the
/// message `apply` returns — emission is the engine's job in the GAS
/// model, which is what lets the matrix backend batch it as a sparse
/// vector instead of per-edge sends.
pub struct ApplyContext {
    pub(crate) halt: bool,
    pub(crate) aggregate: f64,
    prev_aggregate: f64,
}

impl ApplyContext {
    pub(crate) fn new(prev_aggregate: f64) -> Self {
        ApplyContext {
            halt: false,
            aggregate: 0.0,
            prev_aggregate,
        }
    }

    /// Votes to halt: the vertex stays inactive until a message wakes it.
    #[inline]
    pub fn vote_to_halt(&mut self) {
        self.halt = true;
    }

    /// Adds to this superstep's global aggregate (summed at the barrier).
    #[inline]
    pub fn aggregate(&mut self, value: f64) {
        self.aggregate += value;
    }

    /// The global aggregate of the *previous* superstep (0.0 at start).
    #[inline]
    pub fn prev_aggregate(&self) -> f64 {
        self.prev_aggregate
    }
}

/// A vertex program in declarative gather–apply–scatter form.
///
/// Every conforming program broadcasts one message to *all* out-neighbors
/// per scatter (or none) — the invariant the SpMV lowering relies on.
pub trait GasProgram {
    /// Per-vertex state.
    type Value: Clone;
    /// Message type.
    type Msg: Clone;

    /// The gather algebra — consulted once per run by both backends.
    fn gather(&self) -> GatherMode<Self::Msg>;

    /// One apply step: consume the gathered inbox, update `value`, and
    /// return the message to broadcast to every out-neighbor (`None` =
    /// no scatter).
    fn apply(
        &self,
        superstep: u32,
        v: VertexId,
        value: &mut Self::Value,
        gathered: Gathered<'_, Self::Msg>,
        g: &VertexGraphView<'_>,
        ctx: &mut ApplyContext,
    ) -> Option<Self::Msg>;

    /// Complement output mask for the lowered gather (GraphBLAST's
    /// `y⟨¬m⟩ = Aᵀx`): return `false` when a delivery to a vertex in
    /// this state can neither change the value nor cause a scatter, so
    /// the SpMSpV may drop the entry. Must be exact — the default keeps
    /// everything.
    fn gather_mask(&self, _value: &Self::Value) -> bool {
        true
    }

    /// Wire size of a message, bytes (paper Table 1's "message size").
    fn message_bytes(&self, msg: &Self::Msg) -> u64;

    /// In-memory size of a vertex value, bytes.
    fn value_bytes(&self) -> u64;

    /// Arithmetic per received message (cost model).
    fn flops_per_msg(&self) -> u64 {
        2
    }
}

/// One run of a [`GasProgram`]: the program plus everything that is a
/// property of the *algorithm* rather than of the framework executing it.
/// `vertex::programs` has one constructor per paper algorithm.
pub struct GasJob<'g, P: GasProgram, R = Vec<<P as GasProgram>::Value>> {
    /// Out-adjacency the program runs over (CF owns its packed bipartite
    /// CSR; every other algorithm borrows a workload view).
    pub graph: Cow<'g, Csr>,
    /// Optional edge weights aligned with `graph.targets()`.
    pub weights: Option<Vec<f32>>,
    /// The vertex program.
    pub program: P,
    /// Initial per-vertex values.
    pub values: Vec<P::Value>,
    /// Messages seeding the superstep-0 inboxes, in delivery order.
    pub seeds: Vec<(VertexId, P::Msg)>,
    /// Whether every vertex starts active (otherwise only seeded ones).
    pub activate_all: bool,
    /// Supersteps after which the backend gives up.
    pub max_supersteps: u32,
    /// Supersteps per reported iteration (CF and TC take two).
    pub supersteps_per_iteration: u32,
    /// Turns the final vertex values into the algorithm's result.
    pub finish: fn(&P, Vec<P::Value>) -> R,
}

impl<'g, P: GasProgram> GasJob<'g, P> {
    /// A job over a borrowed, unweighted graph in which every vertex
    /// starts active, one superstep is one iteration and the result is
    /// the final vertex values.
    pub fn new(graph: &'g Csr, program: P, values: Vec<P::Value>, max_supersteps: u32) -> Self {
        GasJob {
            graph: Cow::Borrowed(graph),
            weights: None,
            program,
            values,
            seeds: vec![],
            activate_all: true,
            max_supersteps,
            supersteps_per_iteration: 1,
            finish: |_, values| values,
        }
    }
}

/// Where a [`GasJob`] executes: the BSP vertex engine under a
/// framework's [`EngineConfig`] (GraphLab, Giraph, GPS, GraphX), or the
/// GraphMat lowering onto masked SpMSpV.
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// [`super::engine`] with the given runtime mechanisms.
    Bsp(EngineConfig),
    /// [`crate::graphmat`].
    GraphMat,
}

impl Backend {
    /// Runs `job` to completion on a simulated `nodes`-node cluster.
    pub fn run<P: GasProgram, R>(
        &self,
        job: GasJob<'_, P, R>,
        nodes: usize,
    ) -> Result<(R, RunReport), SimError> {
        match self {
            Backend::Bsp(cfg) => super::engine::run(job, cfg, nodes),
            Backend::GraphMat => crate::graphmat::run(job, nodes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::{giraph, graphlab};
    use graphmaze_graph::fixtures::fig2_csr;
    use std::cell::Cell;

    /// Concatenation: associative but not commutative, so a fold out of
    /// arrival order shows in the result.
    fn concat() -> GatherMode<Vec<u32>> {
        GatherMode::Fold(GatherMonoid {
            identity: vec![],
            combine: |acc, m| acc.extend_from_slice(m),
        })
    }

    fn collected(gathered: Gathered<'_, u32>) -> Vec<u32> {
        gathered.all().copied().collect()
    }

    #[test]
    fn fold_runs_in_arrival_order_from_the_identity() {
        let mut inbox = Inbox::new(concat(), &fig2_csr(), vec![], |m| m.len() as u64);
        inbox.scatter(0, vec![10]);
        inbox.scatter(1, vec![20, 21]);
        // by handle, by value (a combining mailbox), by handle again
        inbox.deliver(3, 1, 2);
        inbox.deliver_value(3, &vec![30], 1);
        inbox.deliver(3, 0, 1);
        inbox.deliver(2, 0, 1);
        inbox.flip();
        assert_eq!(inbox.arrived(), &[3, 2], "first-arrival order");
        let (gathered, msgs, bytes) = inbox.take(3);
        assert_eq!(gathered.folded(), vec![20, 21, 30, 10]);
        assert_eq!((msgs, bytes), (3, 4));
        // a vertex with no mail gathers the identity
        let (gathered, msgs, bytes) = inbox.take(1);
        assert_eq!(gathered.folded(), Vec::<u32>::new());
        assert_eq!((msgs, bytes), (0, 0));
    }

    #[test]
    fn collect_walks_sender_handles_in_delivery_order() {
        // Figure 2: 0 → {1, 2}, 1 → {2, 3}, 2 → {3}
        let mut inbox = Inbox::new(GatherMode::Collect, &fig2_csr(), vec![], |_| 4);
        inbox.scatter(1, 100);
        inbox.scatter(2, 200);
        // a hub's delivery at apply time lands ahead of a lower-numbered
        // sender whose message still waits in the node's mailbox
        inbox.deliver(3, 2, 4);
        inbox.deliver(3, 1, 4);
        inbox.deliver(2, 1, 4);
        inbox.flip();
        let (gathered, msgs, bytes) = inbox.take(3);
        let walk = gathered.all();
        assert_eq!(walk.len(), 2);
        assert_eq!(walk.copied().collect::<Vec<_>>(), [200, 100]);
        assert_eq!((msgs, bytes), (2, 8));
        assert_eq!(collected(inbox.take(3).0), [] as [u32; 0], "taken once");
        assert_eq!(collected(inbox.take(2).0), [100]);
        assert_eq!(collected(inbox.take(0).0), [] as [u32; 0]);
    }

    #[test]
    fn in_degree_is_an_exact_capacity_with_multi_edges_and_seeds() {
        // three parallel edges 0 → 1 and one 2 → 1, plus two seeds for 1:
        // vertex 1's region must hold six handles, vertex 2's one
        let csr = Csr::from_edges(3, &[(0, 1), (0, 1), (0, 1), (2, 1), (1, 2)]);
        let seeds = vec![(1, 7u32), (1, 8)];
        let mut inbox = Inbox::new(GatherMode::Collect, &csr, seeds, |_| 4);
        assert_eq!(inbox.offsets, [0, 0, 6, 7]);
        // seeds sit past the vertex range, delivered in the given order
        assert_eq!(inbox.arrived(), &[1]);
        let (gathered, msgs, bytes) = inbox.take(1);
        assert_eq!(collected(gathered), [7, 8]);
        assert_eq!((msgs, bytes), (2, 8));
        // a full superstep: every edge carries its sender's message
        inbox.scatter(0, 50);
        inbox.scatter(1, 51);
        inbox.scatter(2, 52);
        for (src, dst) in [(0, 1), (0, 1), (0, 1), (1, 2), (2, 1)] {
            inbox.deliver(dst, src, 4);
        }
        inbox.flip();
        assert_eq!(collected(inbox.take(1).0), [50, 50, 50, 52]);
        assert_eq!(collected(inbox.take(2).0), [51]);
    }

    #[test]
    fn take_resets_a_vertex_for_reuse_across_generations() {
        let mut inbox = Inbox::new(concat(), &fig2_csr(), vec![(3, vec![9])], |_| 1);
        assert_eq!(inbox.arrived(), &[3]);
        assert_eq!(inbox.take(3).0.folded(), vec![9]);
        for round in 1..=4u32 {
            inbox.scatter(0, vec![round]);
            inbox.deliver(3, 0, 1);
            inbox.deliver(3, 0, 1);
            inbox.flip();
            assert_eq!(inbox.arrived(), &[3], "round {round}");
            let (gathered, msgs, _) = inbox.take(3);
            assert_eq!(gathered.folded(), vec![round, round], "round {round}");
            assert_eq!(msgs, 2);
        }
    }

    thread_local! {
        static CLONES: Cell<u64> = const { Cell::new(0) };
        static APPLIES: Cell<u64> = const { Cell::new(0) };
    }

    /// A message that counts how often the engines copy it.
    struct Counted(u64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.set(CLONES.get() + 1);
            Counted(self.0)
        }
    }

    /// Every vertex broadcasts for `ROUNDS` supersteps and sums what it
    /// receives, through either gather mode; `apply` itself never clones.
    struct Flood {
        collect: bool,
    }

    const ROUNDS: u32 = 3;

    impl GasProgram for Flood {
        type Value = u64;
        type Msg = Counted;

        fn gather(&self) -> GatherMode<Counted> {
            if self.collect {
                return GatherMode::Collect;
            }
            GatherMode::Fold(GatherMonoid {
                identity: Counted(0),
                combine: |acc, m| acc.0 += m.0,
            })
        }

        fn apply(
            &self,
            superstep: u32,
            v: VertexId,
            value: &mut u64,
            gathered: Gathered<'_, Counted>,
            _g: &VertexGraphView<'_>,
            ctx: &mut ApplyContext,
        ) -> Option<Counted> {
            APPLIES.set(APPLIES.get() + 1);
            *value += match gathered {
                Gathered::Folded(sum) => sum.0,
                Gathered::All(msgs) => msgs.map(|m| m.0).sum(),
            };
            ctx.vote_to_halt();
            (superstep < ROUNDS).then_some(Counted(u64::from(v) + 1))
        }

        fn message_bytes(&self, _: &Counted) -> u64 {
            8
        }

        fn value_bytes(&self) -> u64 {
            8
        }
    }

    /// Runs [`Flood`] on the complete digraph over 24 vertices (23 edges
    /// per vertex, so a per-edge clone cannot hide among per-vertex
    /// ones); returns `(clones, applies, edges traversed)`.
    fn flood(collect: bool, backend: Backend, nodes: usize) -> (u64, u64, u64) {
        let n = 24u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (0..n).filter(move |&v| v != u).map(move |v| (u, v)))
            .collect();
        let csr = Csr::from_edges(u64::from(n), &edges);
        CLONES.set(0);
        APPLIES.set(0);
        let job = GasJob::new(&csr, Flood { collect }, vec![0; n as usize], ROUNDS + 2);
        let (values, _) = backend.run(job, nodes).unwrap();
        // every vertex hears every other vertex ROUNDS times
        let all: u64 = (1..=u64::from(n)).sum();
        for (v, &got) in values.iter().enumerate() {
            assert_eq!(got, u64::from(ROUNDS) * (all - (v as u64 + 1)));
        }
        let traversed = edges.len() as u64 * u64::from(ROUNDS);
        (CLONES.get(), APPLIES.get(), traversed)
    }

    #[test]
    fn collect_programs_clone_no_message_on_either_backend() {
        let backends = [
            Backend::Bsp(graphlab::config()), // combiner + hub replication
            Backend::Bsp(giraph::config(4)),
            Backend::GraphMat,
        ];
        for backend in backends {
            for nodes in [1, 4] {
                let (clones, _, traversed) = flood(true, backend, nodes);
                assert_eq!(
                    clones, 0,
                    "{backend:?} at {nodes} nodes: {clones} clones over {traversed} edges"
                );
            }
        }
    }

    #[test]
    fn graphmat_fold_clones_per_apply_never_per_edge() {
        for nodes in [1, 4] {
            let (clones, applies, traversed) = flood(false, Backend::GraphMat, nodes);
            // the identity once per accumulator of the two generations
            // (24 vertices each) and once per drained accumulator, nothing
            // per delivery
            assert!(clones <= 48 + applies, "{clones} clones, {applies} applies");
            assert_eq!(
                clones / traversed,
                0,
                "{clones} clones over {traversed} edges"
            );
        }
    }
}
