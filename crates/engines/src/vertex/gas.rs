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
    /// Reduce with an associative ⊕ folded from its identity. Engines
    /// may fold eagerly (CombBLAS-style sparse accumulator), at
    /// delivery (GraphLab's combiner), or at apply time — all three
    /// orders produce bit-identical results for an associative ⊕
    /// applied in arrival order.
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
    All(&'a [M]),
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
    pub fn all(self) -> &'a [M] {
        match self {
            Gathered::All(msgs) => msgs,
            Gathered::Folded(_) => panic!("fold-mode program asked for the raw inbox"),
        }
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
