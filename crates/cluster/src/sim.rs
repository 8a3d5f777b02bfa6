//! The discrete-cost cluster simulator.
//!
//! Engines drive a [`Sim`] through a bulk-synchronous protocol:
//!
//! 1. [`Sim::charge`] — meter real computation done on behalf of a node;
//! 2. [`Sim::send`] — meter real message payloads put on the wire;
//! 3. [`Sim::alloc`]/[`Sim::free`] — account data-structure memory;
//! 4. [`Sim::end_step`] — the BSP barrier: the step costs the *maximum*
//!    over nodes of compute time and comm time (overlapped or summed per
//!    the engine's [`ExecProfile`]), plus the per-step coordination cost.
//!
//! The final [`RunReport`] carries the simulated runtime plus exactly the
//! system-level metrics of the paper's Figure 6.

use graphmaze_metrics::{
    MemTracker, OutOfMemory, RebalanceStats, RecoveryStats, RetransmitStats, RunReport, StepRecord,
    Timeline, TrafficMatrix, TrafficStats, Work,
};

use crate::faults::{FaultPlan, MAX_SEND_ATTEMPTS};
use crate::hardware::ClusterSpec;
use crate::profile::ExecProfile;

/// Wire bytes of one failure-detector heartbeat (sequence number + term,
/// sent by every worker to the master at each barrier when the fault
/// plan has link-level terms).
pub const HEARTBEAT_WIRE_BYTES: u64 = 16;

/// Errors surfaced by the simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// A node exceeded its memory capacity — the paper's CombBLAS-TC /
    /// Giraph failure mode.
    OutOfMemory(OutOfMemory),
    /// The engine asked for an impossible configuration (e.g. CombBLAS on
    /// a non-square node count).
    InvalidConfig(String),
    /// A whole node died (injected by the fault plan) under an engine
    /// without checkpoint/restart — the run cannot complete (fail-stop).
    NodeFailed {
        /// The node that died.
        node: usize,
        /// The step during which it died.
        step: u32,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfMemory(e) => write!(f, "{e}"),
            SimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::NodeFailed { node, step } => write!(
                f,
                "node {node} failed during step {step} and the engine cannot recover (fail-stop)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<OutOfMemory> for SimError {
    fn from(e: OutOfMemory) -> Self {
        SimError::OutOfMemory(e)
    }
}

/// The simulator state for one run.
#[derive(Clone, Debug)]
pub struct Sim {
    cluster: ClusterSpec,
    profile: ExecProfile,
    clock: f64,
    /// Per-node compute seconds accumulated in the current step.
    step_compute: Vec<f64>,
    /// Per-node wire bytes sent in the current step.
    step_bytes: Vec<u64>,
    /// Per-node messages sent in the current step.
    step_msgs: Vec<u64>,
    /// Per-node pre-compression bytes in the current step.
    step_raw_bytes: Vec<u64>,
    mem: Vec<MemTracker>,
    traffic: TrafficStats,
    /// Per-(src, dst) wire bytes/messages of routed transfers.
    matrix: TrafficMatrix,
    /// Cumulative wire bytes sent per node, any send path.
    node_sent_bytes: Vec<u64>,
    busy_core_seconds: f64,
    compute_seconds: f64,
    comm_seconds: f64,
    steps: u32,
    iterations: u32,
    work_scale: f64,
    total_work: Work,
    /// Phase label applied to steps folded from now on (see [`Sim::phase`]).
    phase: String,
    timeline: Timeline,
    /// Fault plan in effect (from [`crate::faults::current_faults`]).
    faults: FaultPlan,
    /// Per-node send sequence numbers (drop decisions hash these).
    send_seq: Vec<u64>,
    /// Per-(src, dst) lane transfer sequence numbers (link-fault
    /// decisions hash these); only advanced when the plan has link
    /// faults, so inactive plans stay bit-identical.
    link_seq: Vec<u64>,
    /// Per-node allocation sequence numbers (pressure decisions hash these).
    alloc_seq: Vec<u64>,
    /// Per-node resilience-protocol seconds accumulated in the current
    /// step: retransmission timeouts (exponential backoff) and slow-link
    /// excess wire time.
    step_wait: Vec<f64>,
    /// Per-node "straggler already counted this step" markers.
    straggler_hit: Vec<bool>,
    /// Fault/recovery counters for the report.
    recovery: RecoveryStats,
    /// Lossy-link resilience counters for the report.
    retransmit: RetransmitStats,
    /// Whether the plan's node failure already fired (it fires once).
    failure_fired: bool,
    /// Number of leading steps covered by the last checkpoint.
    checkpointed_steps: u32,
    /// Bytes of the last checkpoint (restore cost on failure).
    last_checkpoint_bytes: u64,
    /// Whether the elasticity machinery is engaged
    /// ([`FaultPlan::is_elastic`]). When false, `place` is the identity,
    /// every hardware factor is exactly 1.0 and all physical arrays have
    /// logical length, so the run is bit-identical to pre-elastic
    /// simulators.
    elastic: bool,
    /// Per-*physical*-node membership: `active[p]` iff node `p` is in
    /// the cluster right now. Physical arrays (`step_compute`, `mem`,
    /// `matrix`, …) cover `max(cluster.nodes, 1 + max node named by the
    /// plan)` slots; engines only ever see the *logical* count
    /// ([`Sim::nodes`]).
    active: Vec<bool>,
    /// Logical partition → physical node placement, length
    /// `cluster.nodes`. Engines charge/send against logical ids; this
    /// map is the single translation point. Identity until a membership
    /// barrier repartitions.
    place: Vec<usize>,
    /// Per-physical-node compute-time factor from `hw=` profiles (1.0
    /// baseline).
    hw_compute: Vec<f64>,
    /// Per-physical-node NIC wire-time factor (1.0 baseline).
    hw_nic: Vec<f64>,
    /// Per-physical-node capacity weight for the repartitioner (1.0
    /// baseline).
    hw_weight: Vec<f64>,
    /// Live allocated bytes per *logical* partition — the ledger of what
    /// a rebalance must migrate when the partition's placement changes.
    logical_mem: Vec<u64>,
    /// Engine-declared vertices per logical partition (see
    /// [`Sim::declare_partition`]); feeds `migrated_vertices`.
    logical_vertices: Vec<u64>,
    /// Engine-declared edge loads per logical partition; weights the
    /// repartitioner's cuts (all-zero ⇒ uniform split by count).
    logical_loads: Vec<u64>,
    /// Elasticity counters for the report.
    rebalance: RebalanceStats,
}

/// Phase label steps carry before the engine's first [`Sim::phase`] call.
pub const DEFAULT_PHASE: &str = "step";

impl Sim {
    /// A fresh simulator for `cluster` running under `profile`.
    ///
    /// The **work scale** comes from [`crate::work_scale::current_work_scale`]:
    /// the calling thread's `with_work_scale` override if any, else 1.0.
    /// Every charged work item, message and allocation is multiplied by it,
    /// extrapolating a structurally identical graph `scale`× larger. The
    /// repro harness uses this to report paper-scale runtimes (and
    /// paper-scale OOM behaviour) from scaled-down inputs; see DESIGN.md §2.
    /// The **fault plan** likewise comes from
    /// [`crate::faults::current_faults`] (thread-local override, else no
    /// faults); see
    /// `cluster::faults` for the model. With no active plan the
    /// simulation is bit-identical to one built before faults existed.
    pub fn new(cluster: ClusterSpec, profile: ExecProfile) -> Self {
        let work_scale = crate::work_scale::current_work_scale();
        let faults = crate::faults::current_faults();
        let n = cluster.nodes;
        // Physical arrays cover every node the plan may ever activate or
        // profile; without elastic terms this is exactly `n` and nothing
        // about the layout changes.
        let elastic = faults.is_elastic();
        let n_total = match faults.membership_max_node() {
            Some(m) => n.max(m + 1),
            None => n,
        };
        let mut hw_compute = vec![1.0; n_total];
        let mut hw_nic = vec![1.0; n_total];
        let mut hw_weight = vec![1.0; n_total];
        for h in faults.hw_overrides() {
            if h.node < n_total {
                hw_compute[h.node] = h.profile.compute_factor();
                hw_nic[h.node] = h.profile.nic_factor();
                hw_weight[h.node] = h.profile.capacity_weight();
            }
        }
        let mut active = vec![false; n_total];
        for a in active.iter_mut().take(n) {
            *a = true;
        }
        Sim {
            work_scale,
            faults,
            send_seq: vec![0; n],
            link_seq: vec![0; n * n],
            alloc_seq: vec![0; n],
            step_wait: vec![0.0; n],
            straggler_hit: vec![false; n],
            recovery: RecoveryStats::default(),
            retransmit: RetransmitStats::default(),
            failure_fired: false,
            checkpointed_steps: 0,
            last_checkpoint_bytes: 0,
            elastic,
            active,
            place: (0..n).collect(),
            hw_compute,
            hw_nic,
            hw_weight,
            logical_mem: vec![0; n],
            logical_vertices: vec![0; n],
            logical_loads: vec![0; n],
            rebalance: RebalanceStats::default(),
            total_work: Work::ZERO,
            cluster,
            profile,
            clock: 0.0,
            step_compute: vec![0.0; n_total],
            step_bytes: vec![0; n_total],
            step_msgs: vec![0; n_total],
            step_raw_bytes: vec![0; n_total],
            mem: (0..n_total)
                .map(|i| MemTracker::new(i, cluster.hw.mem_capacity_bytes))
                .collect(),
            traffic: TrafficStats::default(),
            matrix: TrafficMatrix::new(n_total),
            node_sent_bytes: vec![0; n_total],
            busy_core_seconds: 0.0,
            compute_seconds: 0.0,
            comm_seconds: 0.0,
            steps: 0,
            iterations: 0,
            phase: DEFAULT_PHASE.to_string(),
            timeline: Timeline::new(n),
        }
    }

    /// Number of simulated *logical* nodes — what engines partition
    /// over. Fixed for the whole run: membership events change which
    /// physical node hosts each logical partition, never this count.
    #[inline]
    pub fn nodes(&self) -> usize {
        self.cluster.nodes
    }

    /// The physical node currently hosting logical partition `node`
    /// (identity unless an elastic plan has repartitioned).
    #[inline]
    pub fn placement(&self, node: usize) -> usize {
        self.place[node]
    }

    /// Physical nodes currently in the cluster (equals [`Sim::nodes`]
    /// unless membership events changed it).
    pub fn active_nodes(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Declares the engine's partition layout for logical `node`:
    /// `vertices` owned and `edges` of load. Optional — consulted only
    /// by the elastic repartitioner, which weights its cuts by these
    /// loads (uniform split when never declared) and counts
    /// `migrated_vertices` from the vertex figures.
    pub fn declare_partition(&mut self, node: usize, vertices: u64, edges: u64) {
        self.logical_vertices[node] = vertices;
        self.logical_loads[node] = edges;
    }

    /// The active execution profile.
    #[inline]
    pub fn profile(&self) -> &ExecProfile {
        &self.profile
    }

    /// The cluster specification.
    #[inline]
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Converts counted work to node-seconds under the current profile —
    /// a roofline over the three node resources (paper §5.1: every kernel
    /// is limited by memory bandwidth, random-access latency or
    /// arithmetic). Each random access moves a full cache line, so heavy
    /// gather loads consume *bandwidth* as well as latency; whichever
    /// ceiling is hit first binds.
    pub fn compute_seconds_for(&self, work: Work) -> f64 {
        const CACHE_LINE: f64 = 64.0;
        let hw = &self.cluster.hw;
        let p = &self.profile;
        let cf = p.core_fraction.clamp(0.0, 1.0);
        let cores_used = (f64::from(hw.cores) * cf).max(1.0);
        let m = p.work_multiplier;
        let dram_bytes = work.seq_bytes as f64 + work.rand_accesses as f64 * CACHE_LINE;
        let stream_t = dram_bytes * m / hw.effective_mem_bw(cf).max(1.0);
        let mlp = if p.sw_prefetch {
            hw.mlp_prefetch
        } else {
            hw.mlp_base
        };
        let rand_t = work.rand_accesses as f64 * m * hw.rand_latency_s / (mlp * cores_used);
        let flop_t = work.flops as f64 * m / (hw.freq_hz * hw.ipc * cores_used);
        stream_t.max(rand_t).max(flop_t)
    }

    /// Meters `work` done on behalf of `node` in the current step. If the
    /// fault plan marks this (node, step) a straggler, the time (not the
    /// counted work) is multiplied by the plan's slowdown — the node does
    /// the same work, slower.
    pub fn charge(&mut self, node: usize, work: Work) {
        let work = work.scaled(self.work_scale);
        self.total_work.accumulate(work);
        let mut secs = self.compute_seconds_for(work);
        if let Some(m) = self.faults.straggler_multiplier(node, self.steps) {
            secs *= m;
            if !self.straggler_hit[node] {
                self.straggler_hit[node] = true;
                self.recovery.straggler_events += 1;
            }
        }
        // Placement maps the logical partition to its physical host;
        // the host's hardware factor is exactly 1.0 on baseline nodes,
        // so non-elastic runs stay bit-identical.
        let pn = self.place[node];
        self.step_compute[pn] += secs * self.hw_compute[pn];
    }

    /// Whether speculative straggler re-execution is in effect: the
    /// profile opts in (Giraph/GraphLab family) *and* the fault plan has
    /// link-level terms — the same gate as the rest of the lossy-link
    /// machinery, so plans without link terms keep bit-identical
    /// timelines.
    pub fn speculation_active(&self) -> bool {
        self.profile.speculative_reexec && self.faults.has_link_faults()
    }

    /// The straggler multiplier the fault plan assigns `node` for the
    /// *current* step, if any — lets an engine decide to speculate
    /// before charging the partition's work.
    pub fn straggler_at(&self, node: usize) -> Option<f64> {
        self.faults.straggler_multiplier(node, self.steps)
    }

    /// Meters `work` for a straggler partition of `node` that a `buddy`
    /// node speculatively re-executed. Both nodes pay the *un-slowed*
    /// compute time (the primary is preempted as soon as the buddy's
    /// copy finishes), the work is counted twice (it really ran twice),
    /// and the buddy's `dup_msgs` duplicate result messages — suppressed
    /// by the caller's Mailbox combiner before reaching the wire — are
    /// tallied in [`RetransmitStats::suppressed_duplicates`].
    pub fn charge_speculated(&mut self, node: usize, buddy: usize, work: Work, dup_msgs: u64) {
        debug_assert_ne!(node, buddy, "speculation needs a second node");
        let work = work.scaled(self.work_scale);
        self.total_work.accumulate(work);
        self.total_work.accumulate(work);
        let secs = self.compute_seconds_for(work);
        let (pn, pb) = (self.place[node], self.place[buddy]);
        self.step_compute[pn] += secs * self.hw_compute[pn];
        self.step_compute[pb] += secs * self.hw_compute[pb];
        if !self.straggler_hit[node] {
            self.straggler_hit[node] = true;
            self.recovery.straggler_events += 1;
        }
        self.retransmit.speculative_reexecs += 1;
        self.retransmit.speculative_seconds += secs;
        self.retransmit.suppressed_duplicates += dup_msgs;
    }

    /// Meters a message of `wire_bytes` (post-compression) sent by `node`.
    /// `raw_bytes` is the pre-compression payload size; CPU-side message
    /// handling (serialization/boxing) is charged per the comm layer.
    ///
    /// This destination-blind entry point is for cost-model unit tests;
    /// engines route every transfer through `cluster::router`, which
    /// calls [`Sim::send_to`] so the per-(src, dst) traffic matrix stays
    /// complete.
    pub fn send(&mut self, node: usize, wire_bytes: u64, raw_bytes: u64, msgs: u64) {
        self.send_inner(node, wire_bytes, raw_bytes, msgs);
    }

    /// [`Sim::send`] with an explicit destination: additionally records
    /// the transfer (post-scaling, post-retransmission) into the
    /// per-(src, dst) traffic matrix of the run report, and — when the
    /// fault plan has link-level terms — runs the lane through the
    /// ack/retransmit protocol (timeout + exponential backoff; see
    /// DESIGN.md §7c "Lossy-link message plane").
    pub fn send_to(&mut self, src: usize, dst: usize, wire_bytes: u64, raw_bytes: u64, msgs: u64) {
        debug_assert_ne!(src, dst, "local delivery never touches the wire");
        let (psrc, pdst) = (self.place[src], self.place[dst]);
        if psrc == pdst {
            // Both logical partitions live on one physical node after a
            // shrink: the payload moves in-memory, never on the wire.
            self.rebalance.colocated_bytes += (wire_bytes as f64 * self.work_scale) as u64;
            return;
        }
        let (wire_sent, raw_sent, msgs_sent) = self.send_inner(src, wire_bytes, raw_bytes, msgs);
        self.matrix.record(psrc, pdst, wire_sent, msgs_sent);
        if self.faults.has_link_faults() {
            self.link_protocol(src, dst, wire_sent, raw_sent, msgs_sent);
        }
    }

    /// The ack/retransmit protocol for one lane transfer on a lossy
    /// link. Attempt `k` of transfer `seq` is lost iff one fixed hash of
    /// `(seed, src, dst, seq, k)` falls under `linkdrop` — a threshold
    /// test, so raising the probability only *adds* losses and the event
    /// set is identical at any `--jobs`. Every loss costs the sender one
    /// retransmission (full wire bytes, re-charged to the step, the
    /// traffic matrix and the comm-layer CPU) plus a timeout of
    /// `retransmit_timeout_s × 2^k` (exponential backoff) accounted in
    /// the step's `resilience` lane. A delivered transfer may then be
    /// duplicated in flight (`dup`), and a configured `slowlink` charges
    /// the excess wire time of every transmission on that link.
    fn link_protocol(&mut self, src: usize, dst: usize, wire: u64, raw: u64, msgs: u64) {
        let n = self.nodes();
        let seq = self.link_seq[src * n + dst];
        self.link_seq[src * n + dst] += 1;
        let rto = self.profile.retransmit_timeout_s;
        let mut attempt = 0u32;
        while attempt + 1 < MAX_SEND_ATTEMPTS && self.faults.link_drop_hits(src, dst, seq, attempt)
        {
            self.retransmit.retransmits += 1;
            self.retransmit.retransmitted_bytes += wire;
            self.meter_extra(src, dst, wire, raw, msgs);
            self.step_wait[src] += rto * f64::from(1u32 << attempt.min(20));
            attempt += 1;
        }
        if self.faults.duplicates_delivery(src, dst, seq) {
            self.retransmit.duplicates += 1;
            self.retransmit.duplicate_bytes += wire;
            self.meter_extra(src, dst, wire, raw, msgs);
        }
        if let Some(x) = self.faults.slow_link_factor(src, dst) {
            let txs = f64::from(attempt + 1);
            let excess = (x - 1.0) * self.profile.comm.transfer_seconds(wire, msgs) * txs;
            self.step_wait[src] += excess;
        }
    }

    /// Meters protocol-level extra traffic (retransmissions, duplicate
    /// deliveries, heartbeats): the same accounting as [`Sim::send_inner`]
    /// — step counters, cumulative per-node bytes, comm-layer CPU and the
    /// traffic matrix — but without consulting fault decisions (values
    /// are already final).
    fn meter_extra(&mut self, src: usize, dst: usize, wire: u64, raw: u64, msgs: u64) {
        let (psrc, pdst) = (self.place[src], self.place[dst]);
        if psrc == pdst {
            self.rebalance.colocated_bytes += wire;
            return;
        }
        self.step_bytes[psrc] += wire;
        self.step_raw_bytes[psrc] += raw;
        self.step_msgs[psrc] += msgs;
        self.node_sent_bytes[psrc] += wire;
        let cpu_bytes = (wire as f64 * self.profile.comm.cpu_bytes_per_wire_byte) as u64;
        if cpu_bytes > 0 {
            let w = Work::stream(cpu_bytes);
            self.total_work.accumulate(w);
            self.step_compute[psrc] += self.compute_seconds_for(w) * self.hw_compute[psrc];
        }
        self.matrix.record(psrc, pdst, wire, msgs);
    }

    /// Shared metering body; returns the (wire bytes, raw bytes,
    /// messages) that actually hit the network after extrapolation and
    /// fault doubling.
    fn send_inner(
        &mut self,
        node: usize,
        wire_bytes: u64,
        raw_bytes: u64,
        msgs: u64,
    ) -> (u64, u64, u64) {
        // Extrapolation grows message *sizes*, not message counts: a
        // scale×-larger graph ships scale×-bigger bulk transfers over the
        // same communication pattern.
        let scale = self.work_scale;
        let mut wire_bytes = (wire_bytes as f64 * scale) as u64;
        let mut raw_bytes = (raw_bytes as f64 * scale) as u64;
        let mut msgs = msgs;
        if self.faults.drop_prob > 0.0 {
            let seq = self.send_seq[node];
            self.send_seq[node] += 1;
            if self.faults.drops_send(node, seq) {
                // The transfer is lost in flight and resent whole: twice
                // the wire/raw bytes and messages hit the network and the
                // comm-layer CPU below.
                self.recovery.dropped_sends += 1;
                self.recovery.retransmitted_bytes += wire_bytes;
                wire_bytes *= 2;
                raw_bytes *= 2;
                msgs *= 2;
            }
        }
        let pn = self.place[node];
        self.step_bytes[pn] += wire_bytes;
        self.step_raw_bytes[pn] += raw_bytes;
        self.step_msgs[pn] += msgs;
        self.node_sent_bytes[pn] += wire_bytes;
        let cpu_bytes = (wire_bytes as f64 * self.profile.comm.cpu_bytes_per_wire_byte) as u64;
        if cpu_bytes > 0 {
            // already scaled: charge unscaled through step_compute directly
            let w = Work::stream(cpu_bytes);
            self.total_work.accumulate(w);
            self.step_compute[pn] += self.compute_seconds_for(w) * self.hw_compute[pn];
        }
        (wire_bytes, raw_bytes, msgs)
    }

    /// Accounts an allocation on `node`; fails when capacity is exceeded.
    /// Under the fault plan's transient memory pressure, phantom bytes
    /// (page cache, GC floor, a neighbouring process) temporarily compete
    /// for the same capacity: an allocation that would fit on a quiet
    /// node can OOM on a pressured one.
    pub fn alloc(&mut self, node: usize, bytes: u64, label: &str) -> Result<(), SimError> {
        let bytes = (bytes as f64 * self.work_scale) as u64;
        let pn = self.place[node];
        if self.faults.mem_pressure_prob > 0.0 {
            let seq = self.alloc_seq[node];
            self.alloc_seq[node] += 1;
            if self.faults.mem_pressure_hits(node, seq) {
                self.recovery.mem_pressure_events += 1;
                let m = &self.mem[pn];
                let pressured = m.in_use().saturating_add(self.faults.mem_pressure_bytes);
                if pressured.saturating_add(bytes) > m.capacity() {
                    return Err(SimError::OutOfMemory(OutOfMemory {
                        node,
                        in_use: pressured,
                        requested: bytes,
                        capacity: m.capacity(),
                        label: format!("{label}+mem-pressure"),
                    }));
                }
            }
        }
        self.mem[pn].alloc(bytes, label).map_err(SimError::from)?;
        self.logical_mem[node] += bytes;
        Ok(())
    }

    /// Charges the same allocation on **every** node (replicated state).
    pub fn alloc_all(&mut self, bytes: u64, label: &str) -> Result<(), SimError> {
        for node in 0..self.nodes() {
            self.alloc(node, bytes, label)?;
        }
        Ok(())
    }

    /// Releases a previously charged allocation on `node`.
    pub fn free(&mut self, node: usize, bytes: u64) {
        let bytes = (bytes as f64 * self.work_scale) as u64;
        self.mem[self.place[node]].free(bytes);
        self.logical_mem[node] = self.logical_mem[node].saturating_sub(bytes);
    }

    /// Current bytes in use on the physical node hosting logical `node`.
    pub fn mem_in_use(&self, node: usize) -> u64 {
        self.mem[self.place[node]].in_use()
    }

    /// Labels the steps folded from now on (until the next call) — the
    /// engine's way of tagging algorithm phases in the timeline, e.g.
    /// BFS top-down vs bottom-up, SGD vs GD passes, or Giraph superstep
    /// splits. Call it *before* the [`Sim::end_step`] that closes the
    /// work belonging to the phase.
    pub fn phase(&mut self, label: &str) {
        if self.phase != label {
            self.phase.clear();
            self.phase.push_str(label);
        }
    }

    /// The BSP barrier: folds the current step into the clock and
    /// appends a [`StepRecord`] to the timeline.
    ///
    /// The clock advances by `compute + exposed_comm + barrier +
    /// recovery + resilience`, where exposed comm is what overlap failed
    /// to hide — algebraically the same `max(compute, comm)` body as
    /// before, but built from the components the step record carries, so
    /// the timeline's per-step sums reconcile with `sim_seconds`
    /// *bit-exactly* (`recovery` and `resilience` are exactly `0.0`
    /// without the corresponding fault terms).
    ///
    /// Under an active fault plan this is also where resilience happens:
    ///
    /// * with link-level fault terms, every worker heartbeats the master
    ///   (metered traffic), and the step's `resilience_s` lane carries
    ///   the slowest node's retransmission-timeout / slow-link seconds;
    /// * if the plan kills a node during this step, an engine profile
    ///   with `checkpoint_restart` pays restore + rollback-and-replay
    ///   (folded into the step's `recovery_s`) and carries on — under
    ///   link faults only after K missed heartbeats' worth of detection
    ///   latency; any other profile **fail-stops** with
    ///   [`SimError::NodeFailed`];
    /// * checkpoint/restart profiles write a checkpoint every
    ///   `checkpoint_interval` steps: max-node state over disk bandwidth,
    ///   plus an OOM check for the serialization staging buffer;
    /// * membership events (`join=`/`leave=`) scheduled for this barrier
    ///   trigger a live weighted repartitioning with state migration;
    ///   the stall rides the step's `rebalance_s` lane.
    pub fn end_step(&mut self) -> Result<(), SimError> {
        // Under the lossy-link plane every worker heartbeats the master
        // at the barrier — the failure detector's probe traffic, metered
        // like any other transfer (charged before the comm time below).
        if self.faults.has_link_faults() && self.nodes() > 1 {
            for node in 1..self.nodes() {
                self.retransmit.heartbeats += 1;
                self.retransmit.heartbeat_bytes += HEARTBEAT_WIRE_BYTES;
                self.meter_extra(node, 0, HEARTBEAT_WIRE_BYTES, HEARTBEAT_WIRE_BYTES, 1);
            }
        }
        let p = &self.profile;
        let compute_t = self.step_compute.iter().copied().fold(0.0, f64::max);
        // Per-node wire time × the node's NIC factor (exactly 1.0 on
        // baseline hardware, so non-elastic plans fold bit-identically).
        let comm_t = (0..self.step_bytes.len())
            .map(|i| {
                p.comm
                    .transfer_seconds(self.step_bytes[i], self.step_msgs[i])
                    * self.hw_nic[i]
            })
            .fold(0.0, f64::max);
        let exposed_comm = if p.overlap {
            (comm_t - compute_t).max(0.0)
        } else {
            comm_t
        };
        let barrier_t = p.per_step_overhead_s;
        let base_t = compute_t + exposed_comm + barrier_t;

        let mut recovery_t = 0.0;
        if self.faults.is_active() {
            // Whole-node failure fires while this step executes — before
            // any checkpoint this step would write.
            if let Some(f) = self.faults.fail {
                if !self.failure_fired && f.step == self.steps && f.node < self.nodes() {
                    self.failure_fired = true;
                    if !p.checkpoint_restart {
                        return Err(SimError::NodeFailed {
                            node: f.node,
                            step: self.steps,
                        });
                    }
                    // Under the lossy-link plane the failure is not
                    // known instantly: the master suspects the worker
                    // only after K consecutive missed heartbeats, and
                    // that detection latency is paid before recovery
                    // can begin.
                    if self.faults.has_link_faults() {
                        let detect_s = f64::from(p.heartbeat_miss_beats) * p.heartbeat_period_s;
                        self.retransmit.suspicions += 1;
                        self.retransmit.missed_beats += u64::from(p.heartbeat_miss_beats);
                        self.retransmit.detection_seconds += detect_s;
                        recovery_t += detect_s;
                    }
                    // Rollback-and-replay: read the last checkpoint back,
                    // re-execute every step it does not cover (their
                    // recorded durations, left to right), then re-execute
                    // the failed step itself at its base cost.
                    let disk_bw = self.cluster.hw.disk_bw_bps.max(1.0);
                    let restore_s = self.last_checkpoint_bytes as f64 / disk_bw;
                    let mut replay_s = 0.0;
                    for rec in &self.timeline.steps[self.checkpointed_steps as usize..] {
                        replay_s += rec.duration_s();
                    }
                    replay_s += base_t;
                    self.recovery.failures += 1;
                    self.recovery.steps_replayed += self.steps - self.checkpointed_steps + 1;
                    self.recovery.restore_seconds += restore_s;
                    self.recovery.replay_seconds += replay_s;
                    recovery_t += restore_s + replay_s;
                }
            }
            // Periodic checkpoint write once the step (and any recovery)
            // completes: every node serializes its state to disk; the
            // largest write binds the barrier.
            if p.checkpoint_restart
                && self.faults.checkpoint_interval > 0
                && (self.steps + 1).is_multiple_of(self.faults.checkpoint_interval)
            {
                for m in &self.mem {
                    // Serializing needs a staging buffer ~1/4 of state.
                    let staging = m.in_use() / 4;
                    if m.in_use().saturating_add(staging) > m.capacity() {
                        return Err(SimError::OutOfMemory(OutOfMemory {
                            node: m.node(),
                            in_use: m.in_use(),
                            requested: staging,
                            capacity: m.capacity(),
                            label: "checkpoint:staging".into(),
                        }));
                    }
                }
                let bytes = self.mem.iter().map(MemTracker::in_use).max().unwrap_or(0);
                let ckpt_s = bytes as f64 / self.cluster.hw.disk_bw_bps.max(1.0);
                self.recovery.checkpoints += 1;
                self.recovery.checkpoint_bytes += bytes;
                self.recovery.checkpoint_seconds += ckpt_s;
                recovery_t += ckpt_s;
                self.checkpointed_steps = self.steps + 1;
                self.last_checkpoint_bytes = bytes;
            }
        }

        // Resilience-protocol time: the barrier waits for the node that
        // spent longest in retransmission timeouts / slow-link excess.
        // Exactly 0.0 unless the plan has link faults, so the clock sum
        // below is bit-identical to the pre-lossy-link model.
        let resilience_t = self.step_wait.iter().copied().fold(0.0, f64::max);
        if resilience_t > 0.0 {
            self.retransmit.timeout_seconds += resilience_t;
        }

        // Membership events scheduled for the barrier ending this step:
        // joins warm-start, leaves drain, and the cluster repartitions
        // with the migration traffic metered into this step's byte
        // totals and the traffic matrix. Its *time* rides the dedicated
        // `rebalance` lane, charged after comm_t above so engine traffic
        // and migration traffic stay separable. Exactly 0.0 (and never
        // entered) without elastic plan terms, keeping the clock sum
        // bit-identical to pre-elastic simulators.
        let rebalance_t = if self.elastic {
            let t = self.process_membership()?;
            self.rebalance.stall_seconds += t;
            t
        } else {
            0.0
        };

        let step_t = base_t + recovery_t + resilience_t + rebalance_t;
        self.clock += step_t;
        self.compute_seconds += compute_t;
        self.comm_seconds += comm_t;

        let cores_used =
            f64::from(self.cluster.hw.cores) * self.profile.core_fraction.clamp(0.0, 1.0);
        self.busy_core_seconds += self
            .step_compute
            .iter()
            .map(|&c| c * cores_used)
            .sum::<f64>();

        let total_bytes: u64 = self.step_bytes.iter().sum();
        let total_msgs: u64 = self.step_msgs.iter().sum();
        let total_raw: u64 = self.step_raw_bytes.iter().sum();
        let max_node_bytes = self.step_bytes.iter().copied().max().unwrap_or(0);
        if total_bytes > 0 || total_msgs > 0 {
            self.traffic
                .record_step(total_bytes, total_msgs, total_raw, max_node_bytes, comm_t);
        }

        self.timeline.steps.push(StepRecord {
            step: self.steps,
            phase: self.phase.clone(),
            compute_s: compute_t,
            comm_s: exposed_comm,
            barrier_s: barrier_t,
            recovery_s: recovery_t,
            resilience_s: resilience_t,
            rebalance_s: rebalance_t,
            bytes_sent: total_bytes,
            messages: total_msgs,
            max_node_bytes,
            mem_peak_bytes: self.mem.iter().map(MemTracker::peak).max().unwrap_or(0),
        });

        self.step_compute.fill(0.0);
        self.step_bytes.fill(0);
        self.step_msgs.fill(0);
        self.step_raw_bytes.fill(0);
        self.step_wait.fill(0.0);
        self.straggler_hit.fill(false);
        self.steps += 1;
        Ok(())
    }

    /// Processes the membership events scheduled for the barrier ending
    /// the current step, deterministically: joins first (warm-started
    /// from the last checkpoint), then graceful leaves (the leaver's
    /// final-step messages are its drain — BSP guarantees the mailbox is
    /// empty at the barrier), then one weighted repartitioning of the
    /// logical partitions over the new active set. Partitions whose
    /// placement changed migrate their live state: bytes packetized by
    /// the router's rule into this step's counters and the traffic
    /// matrix, time bounded by the slowest (src, dst) link — including
    /// its NIC factors. Returns the barrier's stall seconds.
    ///
    /// Placement rule: when the active set is exactly the initial
    /// `{0..nodes-1}`, placement is the identity — so steps before the
    /// first event match a static run, and a symmetric join+leave
    /// restores the initial placement exactly. Any other active set gets
    /// a contiguous split of the logical partitions with per-node shares
    /// proportional to capacity weights ([`crate::weighted_bounds`]).
    fn process_membership(&mut self) -> Result<f64, SimError> {
        use std::collections::BTreeMap;
        let plan = self.faults;
        let step = self.steps;
        let mut changed = false;
        let mut stall = 0.0f64;
        let disk_bw = self.cluster.hw.disk_bw_bps.max(1.0);
        for e in plan.join_events() {
            if e.step == step && e.node < self.active.len() && !self.active[e.node] {
                self.active[e.node] = true;
                self.rebalance.joins += 1;
                changed = true;
                // Warm-start: the joiner reads the last superstep
                // checkpoint from shared storage before taking
                // ownership of any partition.
                let warm = self.last_checkpoint_bytes as f64 / disk_bw;
                self.rebalance.warmstart_seconds += warm;
                stall = stall.max(warm);
            }
        }
        for e in plan.leave_events() {
            if e.step == step && e.node < self.active.len() && self.active[e.node] {
                self.active[e.node] = false;
                self.rebalance.leaves += 1;
                changed = true;
                self.rebalance.drained_messages += self.step_msgs[e.node];
            }
        }
        if !changed {
            return Ok(stall);
        }
        self.rebalance.rebalances += 1;
        let active_list: Vec<usize> = (0..self.active.len()).filter(|&i| self.active[i]).collect();
        self.rebalance.peak_nodes = self.rebalance.peak_nodes.max(active_list.len() as u32);
        let n0 = self.cluster.nodes;
        let identity =
            active_list.len() == n0 && active_list.iter().enumerate().all(|(i, &p)| i == p);
        let new_place: Vec<usize> = if identity {
            (0..n0).collect()
        } else {
            let weights: Vec<f64> = active_list.iter().map(|&p| self.hw_weight[p]).collect();
            let bounds = crate::partition::weighted_bounds(&self.logical_loads, &weights);
            let mut place = vec![0usize; n0];
            for (k, &phys) in active_list.iter().enumerate() {
                for slot in place.iter_mut().take(bounds[k + 1]).skip(bounds[k]) {
                    *slot = phys;
                }
            }
            place
        };
        // Migrate every partition whose host changed; concurrent
        // migrations overlap, so the barrier stalls for the slowest
        // (src, dst) link, not the sum.
        let mut moved: BTreeMap<(usize, usize), (u64, u64)> = BTreeMap::new();
        for (l, &to) in new_place.iter().enumerate() {
            let from = self.place[l];
            if from == to {
                continue;
            }
            self.rebalance.migrated_vertices += self.logical_vertices[l];
            let bytes = self.logical_mem[l];
            if bytes == 0 {
                continue;
            }
            self.rebalance.migrated_bytes += bytes;
            self.mem[from].free(bytes);
            self.mem[to]
                .alloc(bytes, "rebalance:migrate")
                .map_err(SimError::from)?;
            let entry = moved.entry((from, to)).or_insert((0, 0));
            entry.0 += bytes;
            entry.1 += crate::router::packets_for(bytes);
        }
        for (&(from, to), &(bytes, msgs)) in &moved {
            // Bulk state transfer: wire bytes without comm-layer CPU
            // (zero-copy shipping of already-serialized partition
            // state), charged after this step's comm fold so migration
            // cost lands on the rebalance lane, not the comm lane.
            self.step_bytes[from] += bytes;
            self.step_raw_bytes[from] += bytes;
            self.step_msgs[from] += msgs;
            self.node_sent_bytes[from] += bytes;
            self.matrix.record(from, to, bytes, msgs);
            let nic = self.hw_nic[from].max(self.hw_nic[to]);
            let t = self.profile.comm.transfer_seconds(bytes, msgs) * nic;
            stall = stall.max(t);
        }
        self.place = new_place;
        Ok(stall)
    }

    /// Marks the end of one *algorithm* iteration (may span several BSP
    /// steps, e.g. Giraph superstep splitting).
    pub fn end_iteration(&mut self) {
        self.iterations += 1;
    }

    /// Simulated seconds elapsed so far.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Finalizes the run into a report. Any metering not yet folded by an
    /// [`Sim::end_step`] is flushed as a final step first. A fault firing
    /// during that flush is ignored: the algorithm's results already
    /// exist at this point, so a failure "during" the flush happens after
    /// completion (documented corner case of the fault model).
    pub fn finish(mut self) -> RunReport {
        let pending = self.step_compute.iter().any(|&c| c > 0.0)
            || self.step_bytes.iter().any(|&b| b > 0)
            || self.step_msgs.iter().any(|&m| m > 0)
            || self.step_wait.iter().any(|&w| w > 0.0);
        if pending {
            let _ = self.end_step();
        }
        let total_core_seconds =
            self.clock * self.cluster.nodes as f64 * f64::from(self.cluster.hw.cores);
        let cpu_utilization = if total_core_seconds > 0.0 {
            (self.busy_core_seconds / total_core_seconds).min(1.0)
        } else {
            0.0
        };
        if self.elastic {
            let now = self.active_nodes() as u32;
            self.rebalance.peak_nodes = self.rebalance.peak_nodes.max(now);
            self.rebalance.final_nodes = now;
        }
        RunReport {
            sim_seconds: self.clock,
            steps: self.steps,
            iterations: self.iterations.max(1),
            nodes: self.cluster.nodes,
            cpu_utilization,
            peak_mem_bytes: self.mem.iter().map(|m| m.peak()).max().unwrap_or(0),
            compute_seconds: self.compute_seconds,
            comm_seconds: self.comm_seconds,
            traffic: self.traffic,
            matrix: self.matrix,
            node_sent_bytes: self.node_sent_bytes,
            total_work: self.total_work,
            timeline: self.timeline,
            recovery: self.recovery,
            retransmit: self.retransmit,
            rebalance: self.rebalance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::ClusterSpec;

    fn sim4() -> Sim {
        Sim::new(ClusterSpec::paper(4), ExecProfile::native())
    }

    #[test]
    fn streaming_work_is_bandwidth_bound() {
        let sim = Sim::new(ClusterSpec::single(), ExecProfile::native());
        // 85 GB at 85 GB/s = 1 second
        let t = sim.compute_seconds_for(Work::stream(85_000_000_000));
        assert!((t - 1.0).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn random_access_depends_on_prefetch() {
        let native = Sim::new(ClusterSpec::single(), ExecProfile::native());
        let mut no_prefetch_profile = ExecProfile::native();
        no_prefetch_profile.sw_prefetch = false;
        let plain = Sim::new(ClusterSpec::single(), no_prefetch_profile);
        let w = Work::random(1_000_000_000);
        let fast = native.compute_seconds_for(w);
        let slow = plain.compute_seconds_for(w);
        // without prefetch, latency binds (MLP 2); with prefetch the
        // roofline moves to the line-traffic bandwidth ceiling — the
        // Fig 7 prefetch lever, worth ~2.5x on pure gathers.
        let ratio = slow / fast;
        assert!(ratio > 2.0 && ratio < 4.0, "ratio {ratio}");
        // prefetched gathers are bandwidth-bound: 64 B/line at 85 GB/s
        let bw_bound = 1_000_000_000.0 * 64.0 / 85.0e9;
        assert!(
            (fast - bw_bound).abs() / bw_bound < 1e-6,
            "fast {fast} vs {bw_bound}"
        );
    }

    #[test]
    fn binding_resource_wins() {
        let sim = Sim::new(ClusterSpec::single(), ExecProfile::native());
        let w = Work {
            seq_bytes: 85_000_000_000,
            rand_accesses: 1,
            flops: 1,
        };
        let t = sim.compute_seconds_for(w);
        assert!((t - 1.0).abs() < 1e-3);
    }

    #[test]
    fn work_multiplier_scales_time() {
        let mut p = ExecProfile::native();
        p.work_multiplier = 3.0;
        let sim = Sim::new(ClusterSpec::single(), p);
        let base = Sim::new(ClusterSpec::single(), ExecProfile::native());
        let w = Work::stream(1 << 30);
        assert!((sim.compute_seconds_for(w) / base.compute_seconds_for(w) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn step_takes_max_over_nodes() {
        let mut sim = sim4();
        sim.charge(0, Work::stream(85_000_000_000)); // 1 s
        sim.charge(1, Work::stream(8_500_000_000)); // 0.1 s
        sim.end_step().unwrap();
        let c = sim.clock();
        assert!((c - 1.0).abs() < 1e-3, "clock {c}");
    }

    #[test]
    fn overlap_hides_communication() {
        let mut with = Sim::new(ClusterSpec::paper(2), ExecProfile::native());
        let mut without_profile = ExecProfile::native();
        without_profile.overlap = false;
        let mut without = Sim::new(ClusterSpec::paper(2), without_profile);
        for sim in [&mut with, &mut without] {
            sim.charge(0, Work::stream(85_000_000_000)); // 1 s compute
            sim.send(0, 5_500_000_000, 5_500_000_000, 1); // 1 s comm
            sim.end_step().unwrap();
        }
        assert!(
            (with.clock() - 1.0).abs() < 1e-3,
            "overlap {}",
            with.clock()
        );
        assert!(
            (without.clock() - 2.0).abs() < 1e-3,
            "no overlap {}",
            without.clock()
        );
    }

    #[test]
    fn per_step_overhead_accumulates() {
        let mut p = ExecProfile::native();
        p.per_step_overhead_s = 0.5;
        let mut sim = Sim::new(ClusterSpec::single(), p);
        for _ in 0..4 {
            sim.end_step().unwrap();
        }
        assert!((sim.clock() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_reflects_core_fraction_and_idle() {
        // full compute with all cores → utilization ≈ 1
        let mut sim = Sim::new(ClusterSpec::single(), ExecProfile::native());
        sim.charge(0, Work::stream(85_000_000_000));
        sim.end_step().unwrap();
        let r = sim.finish();
        assert!(r.cpu_utilization > 0.9, "util {}", r.cpu_utilization);

        // Giraph-style 4/24 cores cannot exceed ~16%
        let mut p = ExecProfile::giraph();
        p.per_step_overhead_s = 0.0;
        let mut sim = Sim::new(ClusterSpec::single(), p);
        sim.charge(0, Work::flops(1 << 34));
        sim.end_step().unwrap();
        let r = sim.finish();
        assert!(
            r.cpu_utilization <= 4.0 / 24.0 + 1e-9,
            "util {}",
            r.cpu_utilization
        );
    }

    #[test]
    fn traffic_recorded_with_peak_bw() {
        let mut sim = sim4();
        sim.send(0, 5_500_000_000, 11_000_000_000, 10);
        sim.send(1, 1_000, 1_000, 1);
        sim.end_step().unwrap();
        let r = sim.finish();
        assert_eq!(r.traffic.bytes_sent, 5_500_001_000);
        assert_eq!(r.traffic.messages, 11);
        assert!((r.traffic.compression_ratio() - 11_000_001_000.0 / 5_500_001_000.0).abs() < 1e-9);
        // busiest node sent 5.5GB over ~1s step → ~5.5 GB/s peak
        assert!(
            r.traffic.peak_bw_bps > 5.0e9,
            "peak {}",
            r.traffic.peak_bw_bps
        );
    }

    #[test]
    fn send_to_records_the_traffic_matrix() {
        let mut sim = sim4();
        sim.send_to(0, 1, 1000, 1000, 2);
        sim.send_to(0, 2, 500, 500, 1);
        sim.send_to(3, 0, 8, 8, 1);
        sim.send(1, 64, 64, 1); // destination-blind: metered but matrix-blind
        sim.end_step().unwrap();
        let r = sim.finish();
        assert_eq!(r.matrix.bytes(0, 1), 1000);
        assert_eq!(r.matrix.messages(0, 1), 2);
        assert_eq!(r.matrix.row_bytes(0), 1500);
        assert_eq!(r.matrix.total_bytes(), 1508);
        assert_eq!(r.traffic.bytes_sent, 1572);
        assert_eq!(r.node_sent_bytes, vec![1500, 64, 0, 8]);
    }

    #[test]
    fn matrix_reflects_fault_retransmission() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,drop=1").unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::paper(2), ExecProfile::native())
        });
        sim.send_to(0, 1, 1000, 1000, 1);
        sim.end_step().unwrap();
        let r = sim.finish();
        assert_eq!(r.traffic.bytes_sent, 2000, "retransmission doubles");
        assert_eq!(r.matrix.bytes(0, 1), 2000, "matrix sees the doubling");
        assert_eq!(r.node_sent_bytes[0], 2000);
        assert_eq!(r.matrix.row_bytes(0), r.node_sent_bytes[0]);
    }

    #[test]
    fn oom_propagates_with_node_and_label() {
        let mut sim = Sim::new(ClusterSpec::paper(2), ExecProfile::native());
        let cap = ClusterSpec::paper(2).hw.mem_capacity_bytes;
        sim.alloc(1, cap - 10, "graph").unwrap();
        let err = sim.alloc(1, 100, "spgemm:A2").unwrap_err();
        match err {
            SimError::OutOfMemory(o) => {
                assert_eq!(o.node, 1);
                assert_eq!(o.label, "spgemm:A2");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn iterations_tracked_independently_of_steps() {
        let mut sim = sim4();
        for i in 0..6 {
            sim.end_step().unwrap();
            if i % 2 == 1 {
                sim.end_iteration();
            }
        }
        let r = sim.finish();
        assert_eq!(r.steps, 6);
        assert_eq!(r.iterations, 3);
    }

    #[test]
    fn timeline_reconciles_bit_exactly_with_and_without_overlap() {
        for overlap in [true, false] {
            let mut p = ExecProfile::native();
            p.overlap = overlap;
            p.per_step_overhead_s = 0.002;
            let mut sim = Sim::new(ClusterSpec::paper(4), p);
            for i in 0..7u64 {
                sim.charge(0, Work::stream(1_000_000_000 + i * 333_333_333));
                sim.charge(1, Work::random(10_000_000 * (i + 1)));
                sim.send(0, 50_000_000 * (i + 1), 90_000_000, 7);
                sim.send(2, 11_111_111, 11_111_111, 3);
                sim.end_step().unwrap();
            }
            let r = sim.finish();
            assert_eq!(r.timeline.len(), 7);
            assert_eq!(
                r.timeline.total_seconds(),
                r.sim_seconds,
                "per-step sums must equal sim_seconds bit-exactly (overlap={overlap})"
            );
            assert_eq!(r.timeline.total_bytes(), r.traffic.bytes_sent);
            assert_eq!(r.timeline.nodes, r.nodes);
        }
    }

    #[test]
    fn overlap_exposes_only_uncovered_comm_in_timeline() {
        let mut sim = Sim::new(ClusterSpec::paper(2), ExecProfile::native());
        sim.charge(0, Work::stream(85_000_000_000)); // 1 s compute
        sim.send(0, 11_000_000_000, 11_000_000_000, 1); // 2 s comm
        sim.end_step().unwrap();
        let r = sim.finish();
        let step = &r.timeline.steps[0];
        assert!((step.compute_s - 1.0).abs() < 1e-3, "{}", step.compute_s);
        // overlap hides 1 s of the 2 s transfer: ~1 s exposed
        assert!((step.comm_s - 1.0).abs() < 1e-2, "{}", step.comm_s);
        // report keeps the *raw* comm seconds
        assert!((r.comm_seconds - 2.0).abs() < 1e-2, "{}", r.comm_seconds);
    }

    #[test]
    fn phase_labels_steps_until_changed() {
        let mut sim = sim4();
        sim.end_step().unwrap(); // before any phase() call
        sim.phase("build");
        sim.end_step().unwrap();
        sim.phase("iterate");
        sim.end_step().unwrap();
        sim.end_step().unwrap();
        let r = sim.finish();
        let phases: Vec<&str> = r.timeline.steps.iter().map(|s| s.phase.as_str()).collect();
        assert_eq!(phases, [DEFAULT_PHASE, "build", "iterate", "iterate"]);
        let breakdown = r.timeline.phase_breakdown();
        assert_eq!(breakdown.len(), 3);
        assert_eq!(breakdown[2].steps, 2);
    }

    #[test]
    fn timeline_records_memory_watermark() {
        let mut sim = sim4();
        sim.alloc(0, 1000, "a").unwrap();
        sim.end_step().unwrap();
        sim.alloc(1, 5000, "b").unwrap();
        sim.end_step().unwrap();
        sim.free(1, 5000);
        sim.end_step().unwrap();
        let r = sim.finish();
        let marks: Vec<u64> = r.timeline.steps.iter().map(|s| s.mem_peak_bytes).collect();
        assert_eq!(marks, [1000, 5000, 5000], "watermark is monotone");
        assert_eq!(r.timeline.peak_mem_bytes(), r.peak_mem_bytes);
    }

    #[test]
    fn straggler_slows_the_step_and_is_counted() {
        use crate::faults::{with_faults, FaultPlan};
        let charges = |sim: &mut Sim| {
            sim.charge(0, Work::stream(8_500_000_000)); // 0.1 s
            sim.charge(0, Work::stream(8_500_000_000)); // again: one event
            sim.end_step().unwrap();
        };
        let mut p = ExecProfile::native();
        p.per_step_overhead_s = 0.0;
        let mut base = Sim::new(ClusterSpec::paper(2), p);
        charges(&mut base);
        // probability 1 ⇒ every (node, step) is a straggler
        let plan = FaultPlan::parse("seed=1,straggler=1x4").unwrap();
        let mut slow = with_faults(plan, || Sim::new(ClusterSpec::paper(2), p));
        charges(&mut slow);
        assert!(
            (slow.clock() / base.clock() - 4.0).abs() < 1e-6,
            "slowdown {} vs base {}",
            slow.clock(),
            base.clock()
        );
        let r = slow.finish();
        assert_eq!(r.recovery.straggler_events, 1, "one slot, counted once");
        assert!(!r.recovery.is_zero());
    }

    #[test]
    fn dropped_sends_retransmit_and_double_traffic() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,drop=1").unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::paper(2), ExecProfile::native())
        });
        sim.send(0, 1000, 2000, 3);
        sim.end_step().unwrap();
        let r = sim.finish();
        assert_eq!(r.traffic.bytes_sent, 2000, "wire bytes doubled");
        assert_eq!(r.traffic.messages, 6);
        assert_eq!(r.recovery.dropped_sends, 1);
        assert_eq!(r.recovery.retransmitted_bytes, 1000);
    }

    #[test]
    fn mem_pressure_makes_a_fitting_alloc_oom() {
        use crate::faults::{with_faults, FaultPlan};
        let cap = ClusterSpec::paper(1).hw.mem_capacity_bytes;
        // pressure bytes equal to capacity guarantee the OOM
        let plan = FaultPlan::parse(&format!("seed=1,mempress=1:{cap}")).unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::single(), ExecProfile::native())
        });
        let err = sim.alloc(0, 1024, "ranks").unwrap_err();
        match err {
            SimError::OutOfMemory(o) => {
                assert_eq!(o.node, 0);
                assert!(o.label.ends_with("+mem-pressure"), "label {}", o.label);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn checkpoints_cost_disk_writes_every_k_steps() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,ckpt=2").unwrap();
        let mut p = ExecProfile::giraph();
        p.per_step_overhead_s = 0.0;
        let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), p));
        let disk_bw = sim.cluster().hw.disk_bw_bps;
        sim.alloc(0, 2_000_000_000, "state").unwrap();
        for _ in 0..4 {
            sim.end_step().unwrap();
        }
        let r = sim.finish();
        assert_eq!(r.recovery.checkpoints, 2, "steps 2 and 4 checkpoint");
        assert_eq!(r.recovery.checkpoint_bytes, 4_000_000_000);
        let per_ckpt = 2_000_000_000.0 / disk_bw;
        assert!((r.recovery.checkpoint_seconds - 2.0 * per_ckpt).abs() < 1e-9);
        let marks: Vec<f64> = r.timeline.steps.iter().map(|s| s.recovery_s).collect();
        assert_eq!(marks.len(), 4);
        assert_eq!(marks[0], 0.0);
        assert!(marks[1] > 0.0 && marks[3] > 0.0 && marks[2] == 0.0);
        assert_eq!(
            r.timeline.total_seconds(),
            r.sim_seconds,
            "recovery lane must reconcile bit-exactly"
        );
    }

    #[test]
    fn node_failure_rolls_back_to_the_last_checkpoint() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,ckpt=2,kill=0@3").unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::paper(2), ExecProfile::giraph())
        });
        sim.alloc(0, 1_000_000_000, "state").unwrap();
        for i in 0..5u64 {
            sim.charge(0, Work::stream(1_000_000_000 * (i + 1)));
            sim.end_step().unwrap();
        }
        let r = sim.finish();
        assert_eq!(r.recovery.failures, 1);
        // checkpoint covers steps 0..2; failed step 3 replays step 2 + itself
        assert_eq!(r.recovery.steps_replayed, 2);
        let disk_bw = ClusterSpec::paper(2).hw.disk_bw_bps;
        assert_eq!(r.recovery.restore_seconds, 1_000_000_000.0 / disk_bw);
        // replayed seconds reconcile bit-exactly with the timeline
        let failed = &r.timeline.steps[3];
        let base3 = failed.compute_s + failed.comm_s + failed.barrier_s;
        let expected_replay = r.timeline.steps[2].duration_s() + base3;
        assert_eq!(r.recovery.replay_seconds, expected_replay);
        assert_eq!(r.timeline.total_seconds(), r.sim_seconds);
        let lane_sum: f64 = r.timeline.steps.iter().map(|s| s.recovery_s).sum();
        assert!((lane_sum - r.recovery.recovery_seconds()).abs() < 1e-12);
    }

    #[test]
    fn failure_before_any_checkpoint_replays_from_scratch() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,ckpt=10,kill=1@2").unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::paper(2), ExecProfile::giraph())
        });
        for _ in 0..3 {
            sim.charge(1, Work::stream(1_000_000_000));
            sim.end_step().unwrap();
        }
        let r = sim.finish();
        assert_eq!(r.recovery.failures, 1);
        assert_eq!(r.recovery.restore_seconds, 0.0, "no checkpoint to read");
        assert_eq!(r.recovery.steps_replayed, 3, "steps 0 and 1 plus step 2");
    }

    #[test]
    fn fail_stop_profile_surfaces_node_failure() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,kill=0@1").unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::paper(2), ExecProfile::native())
        });
        sim.end_step().unwrap();
        let err = sim.end_step().unwrap_err();
        assert_eq!(err, SimError::NodeFailed { node: 0, step: 1 });
        assert!(err.to_string().contains("fail-stop"));
    }

    #[test]
    fn checkpoint_staging_buffer_can_oom() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,ckpt=1").unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::single(), ExecProfile::giraph())
        });
        // fill memory beyond 4/5 of capacity: in_use + in_use/4 > capacity
        let cap = sim.cluster().hw.mem_capacity_bytes;
        sim.alloc(0, cap - cap / 8, "state").unwrap();
        let err = sim.end_step().unwrap_err();
        match err {
            SimError::OutOfMemory(o) => assert_eq!(o.label, "checkpoint:staging"),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn inactive_plan_leaves_reports_bit_identical() {
        use crate::faults::{with_faults, FaultPlan};
        let run = || {
            let mut sim = Sim::new(ClusterSpec::paper(2), ExecProfile::giraph());
            for i in 0..3u64 {
                sim.charge(0, Work::stream(1_000_000_000 + i));
                sim.send(1, 10_000 + i, 20_000, 5);
                sim.end_step().unwrap();
            }
            sim.finish()
        };
        let plain = run();
        let gated = with_faults(FaultPlan::none(), run);
        assert_eq!(plain, gated);
        assert!(plain.recovery.is_zero());
    }

    #[test]
    fn link_drop_retransmits_with_exponential_backoff() {
        use crate::faults::{with_faults, FaultPlan};
        // linkdrop=1: every attempt short of the cap is lost
        let plan = FaultPlan::parse("seed=1,linkdrop=1").unwrap();
        let mut p = ExecProfile::native();
        p.per_step_overhead_s = 0.0;
        let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), p));
        sim.send_to(0, 1, 1000, 1000, 1);
        sim.end_step().unwrap();
        let r = sim.finish();
        let retries = u64::from(MAX_SEND_ATTEMPTS - 1);
        assert_eq!(r.retransmit.retransmits, retries);
        assert_eq!(r.retransmit.retransmitted_bytes, 1000 * retries);
        // 1 heartbeat + original + 15 retransmissions hit the wire
        assert_eq!(
            r.traffic.bytes_sent,
            1000 * (retries + 1) + HEARTBEAT_WIRE_BYTES
        );
        assert_eq!(r.matrix.bytes(0, 1), 1000 * (retries + 1));
        assert_eq!(r.matrix.row_bytes(0), r.node_sent_bytes[0]);
        // backoff: rto × (2^0 + 2^1 + ... + 2^14)
        let rto = p.retransmit_timeout_s;
        let expected_wait = rto * f64::from((1u32 << (MAX_SEND_ATTEMPTS - 1)) - 1);
        assert!(
            (r.retransmit.timeout_seconds - expected_wait).abs() < 1e-12,
            "waited {} expected {expected_wait}",
            r.retransmit.timeout_seconds
        );
        let lane: f64 = r.timeline.steps.iter().map(|s| s.resilience_s).sum();
        assert_eq!(lane, r.retransmit.timeout_seconds, "resilience lane sum");
        assert_eq!(r.timeline.total_seconds(), r.sim_seconds, "bit-exact clock");
    }

    #[test]
    fn duplicated_deliveries_double_the_transfer() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,dup=1").unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::paper(2), ExecProfile::native())
        });
        sim.send_to(0, 1, 500, 500, 2);
        sim.end_step().unwrap();
        let r = sim.finish();
        assert_eq!(r.retransmit.duplicates, 1);
        assert_eq!(r.retransmit.duplicate_bytes, 500);
        assert_eq!(r.matrix.bytes(0, 1), 1000);
        assert_eq!(r.matrix.messages(0, 1), 4);
        assert_eq!(
            r.retransmit.timeout_seconds, 0.0,
            "dups cost bytes, not time"
        );
    }

    #[test]
    fn slow_link_charges_excess_wire_time_on_its_direction_only() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("slowlink=0-1:3").unwrap();
        let mut p = ExecProfile::native();
        p.per_step_overhead_s = 0.0;
        p.overlap = false;
        let run = |src: usize, dst: usize| {
            let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), p));
            sim.send_to(src, dst, 1_000_000_000, 1_000_000_000, 1);
            sim.end_step().unwrap();
            sim.finish()
        };
        let slowed = run(0, 1);
        let healthy = run(1, 0);
        let wire_s = p.comm.transfer_seconds(1_000_000_000, 1);
        let lane: f64 = slowed.timeline.steps.iter().map(|s| s.resilience_s).sum();
        assert!(
            (lane - 2.0 * wire_s).abs() < 1e-12,
            "3× link ⇒ 2× excess, got {lane} vs {}",
            2.0 * wire_s
        );
        let lane_rev: f64 = healthy.timeline.steps.iter().map(|s| s.resilience_s).sum();
        assert_eq!(lane_rev, 0.0, "reverse direction is healthy");
        assert!(slowed.sim_seconds > healthy.sim_seconds);
    }

    #[test]
    fn heartbeats_flow_only_under_link_faults() {
        use crate::faults::{with_faults, FaultPlan};
        // factor-1 slow link: enables the lossy-link plane at zero cost
        let plan = FaultPlan::parse("slowlink=0-1:1").unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::paper(4), ExecProfile::native())
        });
        sim.end_step().unwrap();
        sim.end_step().unwrap();
        let r = sim.finish();
        assert_eq!(r.retransmit.heartbeats, 6, "3 workers × 2 steps");
        assert_eq!(r.retransmit.heartbeat_bytes, 6 * HEARTBEAT_WIRE_BYTES);
        assert_eq!(r.traffic.bytes_sent, 6 * HEARTBEAT_WIRE_BYTES);
        assert_eq!(r.matrix.bytes(1, 0), 2 * HEARTBEAT_WIRE_BYTES);

        // no link terms ⇒ no heartbeats, even with other faults active
        let plain = FaultPlan::parse("seed=1,straggler=0.5x2,ckpt=2").unwrap();
        let mut sim = with_faults(plain, || {
            Sim::new(ClusterSpec::paper(4), ExecProfile::native())
        });
        sim.end_step().unwrap();
        let r = sim.finish();
        assert!(r.retransmit.is_zero());
    }

    #[test]
    fn failure_detection_latency_precedes_rollback() {
        use crate::faults::{with_faults, FaultPlan};
        let lossy = FaultPlan::parse("seed=1,ckpt=2,kill=0@3,slowlink=0-1:1").unwrap();
        let instant = FaultPlan::parse("seed=1,ckpt=2,kill=0@3").unwrap();
        let run = |plan: FaultPlan| {
            let mut sim = with_faults(plan, || {
                Sim::new(ClusterSpec::paper(2), ExecProfile::giraph())
            });
            sim.alloc(0, 1_000_000_000, "state").unwrap();
            for i in 0..5u64 {
                sim.charge(0, Work::stream(1_000_000_000 * (i + 1)));
                sim.end_step().unwrap();
            }
            sim.finish()
        };
        let detected = run(lossy);
        let legacy = run(instant);
        let p = ExecProfile::giraph();
        let expect = f64::from(p.heartbeat_miss_beats) * p.heartbeat_period_s;
        assert_eq!(detected.retransmit.suspicions, 1);
        assert_eq!(
            detected.retransmit.missed_beats,
            u64::from(p.heartbeat_miss_beats)
        );
        assert_eq!(detected.retransmit.detection_seconds, expect);
        assert_eq!(
            legacy.retransmit.detection_seconds, 0.0,
            "instant fail-stop path"
        );
        // the recovery lane carries detection + restore + replay
        let lane: f64 = detected.timeline.steps.iter().map(|s| s.recovery_s).sum();
        assert!(
            (lane - (detected.recovery.recovery_seconds() + detected.retransmit.detection_seconds))
                .abs()
                < 1e-9,
            "lane {lane}"
        );
        assert_eq!(detected.timeline.total_seconds(), detected.sim_seconds);
    }

    #[test]
    fn fail_stop_still_applies_under_link_faults() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,kill=0@0,slowlink=0-1:1").unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::paper(2), ExecProfile::native())
        });
        let err = sim.end_step().unwrap_err();
        assert_eq!(err, SimError::NodeFailed { node: 0, step: 0 });
    }

    #[test]
    fn explicit_zero_linkdrop_is_bit_identical_to_no_clause() {
        use crate::faults::{with_faults, FaultPlan};
        let with_zero = FaultPlan::parse("seed=1,straggler=0.3x2,linkdrop=0").unwrap();
        let without = FaultPlan::parse("seed=1,straggler=0.3x2").unwrap();
        assert_eq!(with_zero, without);
        assert_eq!(with_zero.key(), without.key());
        let run = |plan: FaultPlan| {
            let mut sim = with_faults(plan, || {
                Sim::new(ClusterSpec::paper(2), ExecProfile::giraph())
            });
            for i in 0..3u64 {
                sim.charge(0, Work::stream(1_000_000_000 + i));
                sim.send_to(0, 1, 10_000 + i, 20_000, 5);
                sim.end_step().unwrap();
            }
            sim.finish()
        };
        let a = run(with_zero);
        let b = run(without);
        assert_eq!(a, b);
        assert!(a.retransmit.is_zero());
    }

    #[test]
    fn raising_link_drop_never_removes_retransmissions() {
        use crate::faults::{with_faults, FaultPlan};
        let run = |prob: &str| {
            let plan = FaultPlan::parse(&format!("seed=9,linkdrop={prob}")).unwrap();
            let mut sim = with_faults(plan, || {
                Sim::new(ClusterSpec::paper(4), ExecProfile::native())
            });
            for i in 0..200u64 {
                sim.send_to((i % 3) as usize, 3, 100, 100, 1);
                sim.end_step().unwrap();
            }
            sim.finish()
        };
        let lo = run("0.05");
        let hi = run("0.4");
        assert!(lo.retransmit.retransmits > 0);
        assert!(hi.retransmit.retransmits > lo.retransmit.retransmits);
        assert!(hi.retransmit.retransmitted_bytes > lo.retransmit.retransmitted_bytes);
    }

    #[test]
    fn speculative_reexecution_charges_buddy_not_slowdown() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,straggler=1x8,slowlink=0-1:1").unwrap();
        let p = {
            let mut p = ExecProfile::graphlab();
            p.per_step_overhead_s = 0.0;
            p
        };
        let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), p));
        assert!(sim.speculation_active());
        assert!(sim.straggler_at(0).is_some(), "prob 1 ⇒ always a straggler");
        let w = Work::stream(8_500_000_000); // 0.1 s un-slowed
        sim.charge_speculated(0, 1, w, 42);
        sim.end_step().unwrap();
        let r = sim.finish();
        // both nodes paid the un-slowed time; the step is ~0.1 s, not 0.8 s
        let base = Sim::new(ClusterSpec::paper(2), p).compute_seconds_for(w);
        let step = &r.timeline.steps[0];
        assert!((step.compute_s - base).abs() < 1e-9, "{}", step.compute_s);
        assert_eq!(r.retransmit.speculative_reexecs, 1);
        assert_eq!(r.retransmit.suppressed_duplicates, 42);
        assert!((r.retransmit.speculative_seconds - base).abs() < 1e-12);
        assert_eq!(r.recovery.straggler_events, 1);
        // the work itself was executed twice (plus node 1's heartbeat,
        // which the socket layer meters as streamed bytes)
        assert_eq!(
            r.total_work.seq_bytes,
            2 * 8_500_000_000 + HEARTBEAT_WIRE_BYTES
        );
    }

    #[test]
    fn socket_cpu_handling_charged() {
        let mut p = ExecProfile::graphlab();
        p.per_step_overhead_s = 0.0;
        p.overlap = false;
        let mut sim = Sim::new(ClusterSpec::paper(2), p);
        sim.send(0, 85_000_000_000, 85_000_000_000, 1);
        sim.end_step().unwrap();
        // socket layer charges 1 stream byte per wire byte → 1 s compute
        let r = sim.finish();
        assert!(
            r.compute_seconds > 0.9,
            "cpu handling {}",
            r.compute_seconds
        );
    }

    fn quiet_native() -> ExecProfile {
        let mut p = ExecProfile::native();
        p.per_step_overhead_s = 0.0;
        p
    }

    #[test]
    fn join_repartitions_and_meters_migration_traffic() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,join=2@1").unwrap();
        let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), quiet_native()));
        assert_eq!(sim.nodes(), 2, "logical width is fixed");
        // skewed loads: the weighted cut gives heavy partition 0 its own
        // node and pushes light partition 1 onto the fresh node 2
        sim.declare_partition(0, 100, 3000);
        sim.declare_partition(1, 100, 1000);
        sim.alloc(0, 3_000_000, "state").unwrap();
        sim.alloc(1, 3_000_000, "state").unwrap();
        sim.end_step().unwrap(); // step 0: before the join, identity
        assert_eq!(sim.placement(0), 0);
        assert_eq!(sim.placement(1), 1);
        sim.end_step().unwrap(); // barrier ending step 1 admits node 2
        assert_eq!(sim.active_nodes(), 3);
        assert_eq!(sim.placement(0), 0);
        assert_eq!(sim.placement(1), 2, "light partition moved to joiner");
        let r = sim.finish();
        assert_eq!(r.rebalance.joins, 1);
        assert_eq!(r.rebalance.rebalances, 1);
        assert_eq!(r.rebalance.final_nodes, 3);
        assert_eq!(r.rebalance.peak_nodes, 3);
        assert_eq!(r.rebalance.migrated_bytes, 3_000_000);
        assert_eq!(r.rebalance.migrated_vertices, 100);
        // migration bytes land in the traffic matrix and per-node totals
        assert_eq!(r.matrix.total_bytes(), r.rebalance.migrated_bytes);
        for from in 0..3 {
            assert_eq!(r.matrix.row_bytes(from), r.node_sent_bytes[from]);
        }
        // the stall is visible on the rebalance lane, and only there
        let lane: f64 = r.timeline.steps.iter().map(|s| s.rebalance_s).sum();
        assert!(lane > 0.0, "migration must stall the barrier");
        assert_eq!(lane, r.rebalance.stall_seconds);
        assert_eq!(r.timeline.total_seconds(), r.sim_seconds);
    }

    #[test]
    fn graceful_leave_drains_and_consolidates_state() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,leave=1@1").unwrap();
        let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), quiet_native()));
        sim.alloc(1, 5_000_000, "state").unwrap();
        sim.end_step().unwrap();
        sim.send_to(1, 0, 1_000, 1_000, 7); // the leaver's final messages
        sim.end_step().unwrap(); // barrier ending step 1: node 1 departs
        assert_eq!(sim.active_nodes(), 1);
        assert_eq!(sim.placement(1), 0, "partition 1 now lives on node 0");
        // physical memory followed the partition
        assert_eq!(sim.mem_in_use(1), sim.mem_in_use(0));
        let r = sim.finish();
        assert_eq!(r.rebalance.leaves, 1);
        assert_eq!(r.rebalance.final_nodes, 1);
        assert_eq!(r.rebalance.migrated_bytes, 5_000_000);
        // drain = the leaver's last-step message count (1 data + 1
        // heartbeat packet)
        assert!(r.rebalance.drained_messages >= 7);
        assert_eq!(r.matrix.bytes(1, 0), 1_000 + 5_000_000);
    }

    #[test]
    fn symmetric_join_then_leave_restores_identity_placement() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,join=2@1,leave=2@3").unwrap();
        let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), quiet_native()));
        sim.alloc(0, 1_000_000, "state").unwrap();
        sim.alloc(1, 1_000_000, "state").unwrap();
        for _ in 0..5 {
            sim.charge(0, Work::stream(1_000_000));
            sim.end_step().unwrap();
        }
        // grown then shrunk back: the active set is {0,1} again, and the
        // placement rule makes that the identity — exactly the static
        // layout, so engine state lands where a static run would put it.
        assert_eq!(sim.active_nodes(), 2);
        assert_eq!(sim.placement(0), 0);
        assert_eq!(sim.placement(1), 1);
        let r = sim.finish();
        assert_eq!(r.rebalance.joins, 1);
        assert_eq!(r.rebalance.leaves, 1);
        assert_eq!(r.rebalance.rebalances, 2);
        assert_eq!(r.rebalance.peak_nodes, 3);
        assert_eq!(r.rebalance.final_nodes, 2);
    }

    #[test]
    fn join_warm_starts_from_the_last_checkpoint() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,ckpt=1,join=2@2").unwrap();
        let mut sim = with_faults(plan, || {
            Sim::new(ClusterSpec::paper(2), ExecProfile::giraph())
        });
        sim.alloc(0, 1_000_000_000, "state").unwrap();
        for _ in 0..4 {
            sim.end_step().unwrap();
        }
        let r = sim.finish();
        assert_eq!(r.rebalance.joins, 1);
        let disk_bw = ClusterSpec::paper(2).hw.disk_bw_bps;
        // the joiner restores the 1 GB checkpoint before serving
        assert_eq!(r.rebalance.warmstart_seconds, 1_000_000_000.0 / disk_bw);
        assert!(r.rebalance.stall_seconds >= r.rebalance.warmstart_seconds);
    }

    #[test]
    fn oldgen_node_doubles_compute_and_owns_less_graph() {
        use crate::faults::{with_faults, FaultPlan};
        let run = |spec: &str| {
            let plan = FaultPlan::parse(spec).unwrap();
            let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), quiet_native()));
            sim.charge(1, Work::stream(85_000_000_000)); // 1 s on paper hw
            sim.end_step().unwrap();
            sim.finish()
        };
        let slow = run("seed=1,hw=1:oldgen");
        let base = run("seed=1,hw=1:standard");
        assert!((base.sim_seconds - 1.0).abs() < 1e-6);
        assert!(
            (slow.sim_seconds - 2.0).abs() < 1e-6,
            "oldgen 2x: {}",
            slow.sim_seconds
        );
        // and the repartitioner would give it half the edges
        assert_eq!(crate::NodeProfile::OldGen.capacity_weight(), 0.5);
    }

    #[test]
    fn slownic_node_quadruples_wire_time_only() {
        use crate::faults::{with_faults, FaultPlan};
        let run = |spec: &str| {
            let plan = FaultPlan::parse(spec).unwrap();
            let mut p = quiet_native();
            p.overlap = false;
            let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), p));
            sim.send_to(1, 0, 5_500_000_000, 5_500_000_000, 1); // 1 s healthy
            sim.end_step().unwrap();
            sim.finish()
        };
        let throttled = run("seed=1,hw=1:slownic");
        let healthy = run("seed=1,hw=1:standard");
        let ratio = throttled.sim_seconds / healthy.sim_seconds;
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
        // bytes on the wire are identical — only the time differs
        assert_eq!(throttled.traffic.bytes_sent, healthy.traffic.bytes_sent);
    }

    #[test]
    fn colocated_partitions_skip_the_wire() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,leave=1@0").unwrap();
        let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), quiet_native()));
        sim.end_step().unwrap(); // node 1 departs at the first barrier
        assert_eq!(sim.placement(1), 0);
        sim.send_to(0, 1, 4_096, 4_096, 1); // both partitions on node 0
        sim.end_step().unwrap();
        let r = sim.finish();
        assert_eq!(r.rebalance.colocated_bytes, 4_096);
        assert_eq!(r.matrix.bytes(0, 0), 0, "loopback never hits the wire");
        assert_eq!(r.matrix.total_bytes(), 0);
    }

    #[test]
    fn membership_timeline_is_deterministic_across_runs() {
        use crate::faults::{with_faults, FaultPlan};
        let run = || {
            let plan = FaultPlan::parse("seed=7,join=2@1,hw=2:oldgen,leave=1@3").unwrap();
            let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), quiet_native()));
            sim.alloc(0, 2_000_000, "state").unwrap();
            sim.alloc(1, 2_000_000, "state").unwrap();
            for i in 0..5u64 {
                sim.charge((i % 2) as usize, Work::stream(1_000_000 + i));
                sim.send_to(0, 1, 1_000, 2_000, 3);
                sim.end_step().unwrap();
            }
            sim.finish()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "elastic runs replay bit-identically");
        assert_eq!(a.rebalance.joins, 1);
        assert_eq!(a.rebalance.leaves, 1);
    }

    #[test]
    fn non_elastic_plan_has_zero_rebalance_stats() {
        use crate::faults::{with_faults, FaultPlan};
        let plan = FaultPlan::parse("seed=1,straggler=0.5x4").unwrap();
        let mut sim = with_faults(plan, || Sim::new(ClusterSpec::paper(2), quiet_native()));
        sim.charge(0, Work::stream(1_000_000));
        sim.end_step().unwrap();
        let r = sim.finish();
        assert!(r.rebalance.is_zero());
        assert!(r.timeline.steps.iter().all(|s| s.rebalance_s == 0.0));
    }
}
