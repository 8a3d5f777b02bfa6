//! Seeded, deterministic fault injection for the simulator.
//!
//! The paper's multi-node analysis (Tables 6–7, Fig 5–6) repeatedly turns
//! on how frameworks behave when the cluster *misbehaves*: Giraph's
//! superstep checkpointing exists because nodes die mid-job, SociaLite's
//! network layer was rebuilt because stragglers and buffering stalls
//! dominated at 64 nodes, and two of the headline results are OOM kills.
//! A [`FaultPlan`] injects exactly those degradations — per-(node, step)
//! straggler slowdown, message drop with retransmit cost, transient
//! memory pressure, and whole-node failure at a chosen step — as *pure
//! functions of the plan seed*, so a faulted run is bit-reproducible:
//! same plan ⇒ same decisions ⇒ same simulated timeline, on any thread
//! count and in any execution order.
//!
//! Like the work scale (see [`crate::work_scale`]), the active plan is
//! communicated to [`Sim::new`] through a **thread-local** override
//! ([`with_faults`]), so sweep cells running concurrently each see only
//! their own plan; a thread with no override runs fault-free.
//!
//! [`Sim::new`]: crate::Sim::new

use std::cell::Cell;

use graphmaze_graph::rng::splitmix64;

use crate::hardware::NodeProfile;

/// A whole-node failure scheduled at a specific BSP step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeFailure {
    /// The node that dies.
    pub node: usize,
    /// Zero-based step index during which it dies (the failure fires
    /// while that step executes, *before* any checkpoint the step would
    /// have written).
    pub step: u32,
}

/// One degraded point-to-point link: every transfer from `src` to `dst`
/// takes `factor`× the healthy wire time (the excess shows up in the
/// timeline's `resilience` lane).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowLink {
    /// Sending node of the degraded link.
    pub src: usize,
    /// Receiving node of the degraded link.
    pub dst: usize,
    /// Wire-time multiplier (≥ 1).
    pub factor: f64,
}

/// Hard cap on transmissions per lane transfer (1 original + up to 15
/// retransmits), so even `linkdrop=1` terminates deterministically.
pub const MAX_SEND_ATTEMPTS: u32 = 16;

/// Hard cap on membership events of each kind (`join=`, `leave=`, `hw=`)
/// in one plan, so [`FaultPlan`] stays a fixed-size `Copy` value that
/// fits the thread-local override cell.
pub const MAX_MEMBERSHIP_EVENTS: usize = 4;

/// Largest node id a `join=`/`leave=`/`hw=` clause may name. Keeps the
/// simulator's physical-node arrays bounded no matter what the spec says.
pub const MAX_MEMBERSHIP_NODE: usize = 1024;

/// A scheduled cluster-membership change: node `node` joins or
/// gracefully leaves at the barrier *ending* step `step`. Joins
/// warm-start from the last checkpoint; leaves drain their mailbox at
/// the barrier (BSP guarantees it is empty there) and migrate their
/// state off before going away — unlike a `kill=`, nothing is lost and
/// no recovery protocol runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MembershipEvent {
    /// The physical node joining or leaving.
    pub node: usize,
    /// Zero-based step whose closing barrier processes the event.
    pub step: u32,
}

/// A heterogeneous hardware profile pinned to one physical node for the
/// whole run (`hw=NODE:PROFILE`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HwOverride {
    /// The node running degraded hardware.
    pub node: usize,
    /// Its profile.
    pub profile: NodeProfile,
}

/// A deterministic fault-injection plan, consulted by the simulator in
/// `charge`/`send`/`alloc`/`end_step`. Every decision is a hash of
/// `(seed, kind, node, sequence)` — no mutable RNG state — so decisions
/// are independent of call interleaving across threads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed feeding every per-event decision hash.
    pub seed: u64,
    /// Probability that a given (node, step) runs slow.
    pub straggler_prob: f64,
    /// Compute-time multiplier (≥ 1) applied on straggler (node, step)s.
    pub straggler_slowdown: f64,
    /// Probability that a `send` is dropped and must be retransmitted
    /// (doubling its wire/raw bytes and messages).
    pub drop_prob: f64,
    /// Probability that an `alloc` lands during transient memory pressure.
    pub mem_pressure_prob: f64,
    /// Phantom bytes (page cache, GC floor, neighbour process) competing
    /// with the allocation under pressure.
    pub mem_pressure_bytes: u64,
    /// Probability that one transmission attempt of a lane transfer is
    /// lost on the link and must be retransmitted after a timeout
    /// (ack/retransmit with exponential backoff; see `Sim::send_to`).
    pub link_drop_prob: f64,
    /// Probability that a delivered lane transfer is duplicated in
    /// flight (the duplicate's bytes are charged; duplicate *results*
    /// are suppressed by the Mailbox combiner).
    pub dup_prob: f64,
    /// Optional persistently degraded point-to-point link.
    pub slow_link: Option<SlowLink>,
    /// Optional whole-node failure.
    pub fail: Option<NodeFailure>,
    /// Superstep checkpoint interval K (every K steps) for engines with
    /// checkpoint/restart; 0 disables checkpointing.
    pub checkpoint_interval: u32,
    /// Nodes scheduled to join the cluster (`join=NODE@STEP`), processed
    /// before leaves at each barrier.
    pub joins: [Option<MembershipEvent>; MAX_MEMBERSHIP_EVENTS],
    /// Nodes scheduled to gracefully leave (`leave=NODE@STEP`).
    pub leaves: [Option<MembershipEvent>; MAX_MEMBERSHIP_EVENTS],
    /// Per-node hardware profiles (`hw=NODE:PROFILE`), in force for the
    /// whole run.
    pub hw: [Option<HwOverride>; MAX_MEMBERSHIP_EVENTS],
}

const KIND_STRAGGLER: u64 = 0x51;
const KIND_DROP: u64 = 0xD0;
const KIND_MEMPRESS: u64 = 0x3E;
const KIND_LINKDROP: u64 = 0x1D;
const KIND_DUP: u64 = 0xD2;

impl FaultPlan {
    /// The fault-free plan (the default everywhere).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            straggler_prob: 0.0,
            straggler_slowdown: 1.0,
            drop_prob: 0.0,
            mem_pressure_prob: 0.0,
            mem_pressure_bytes: 0,
            link_drop_prob: 0.0,
            dup_prob: 0.0,
            slow_link: None,
            fail: None,
            checkpoint_interval: 0,
            joins: [None; MAX_MEMBERSHIP_EVENTS],
            leaves: [None; MAX_MEMBERSHIP_EVENTS],
            hw: [None; MAX_MEMBERSHIP_EVENTS],
        }
    }

    /// Whether any fault (or checkpointing, which has a cost even without
    /// failures) is configured.
    pub fn is_active(&self) -> bool {
        self.straggler_prob > 0.0
            || self.drop_prob > 0.0
            || self.mem_pressure_prob > 0.0
            || self.has_link_faults()
            || self.fail.is_some()
            || self.checkpoint_interval > 0
            || self.is_elastic()
    }

    /// Whether any link-level fault term is configured. This is the gate
    /// for the whole lossy-link machinery — ack/retransmit lanes, the
    /// heartbeat failure detector and speculative straggler re-execution
    /// only engage when it returns true, so plans without link terms keep
    /// bit-identical timelines with earlier schema versions.
    pub fn has_link_faults(&self) -> bool {
        self.link_drop_prob > 0.0 || self.dup_prob > 0.0 || self.slow_link.is_some()
    }

    /// Whether the plan schedules any membership change.
    pub fn has_membership(&self) -> bool {
        self.joins.iter().any(Option::is_some) || self.leaves.iter().any(Option::is_some)
    }

    /// Whether the plan pins any heterogeneous hardware profile.
    pub fn has_hw(&self) -> bool {
        self.hw.iter().any(Option::is_some)
    }

    /// Whether the elasticity machinery engages at all. This is the gate
    /// for logical→physical placement, weighted repartitioning and
    /// per-node hardware factors — plans without membership or `hw=`
    /// terms keep bit-identical timelines with earlier schema versions.
    pub fn is_elastic(&self) -> bool {
        self.has_membership() || self.has_hw()
    }

    /// Scheduled joins, in clause order.
    pub fn join_events(&self) -> impl Iterator<Item = MembershipEvent> + '_ {
        self.joins.iter().flatten().copied()
    }

    /// Scheduled graceful leaves, in clause order.
    pub fn leave_events(&self) -> impl Iterator<Item = MembershipEvent> + '_ {
        self.leaves.iter().flatten().copied()
    }

    /// Pinned hardware overrides, in clause order.
    pub fn hw_overrides(&self) -> impl Iterator<Item = HwOverride> + '_ {
        self.hw.iter().flatten().copied()
    }

    /// The hardware profile pinned to `node`, if any.
    pub fn hw_profile(&self, node: usize) -> Option<NodeProfile> {
        self.hw_overrides()
            .find(|h| h.node == node)
            .map(|h| h.profile)
    }

    /// The largest node id named by any membership or hardware clause —
    /// the simulator sizes its physical-node arrays to cover it.
    pub fn membership_max_node(&self) -> Option<usize> {
        self.join_events()
            .chain(self.leave_events())
            .map(|e| e.node)
            .chain(self.hw_overrides().map(|h| h.node))
            .max()
    }

    /// Uniform value in `[0, 1)` for one decision, a pure function of the
    /// plan seed and the event coordinates.
    #[inline]
    fn unit(&self, kind: u64, a: u64, b: u64) -> f64 {
        let h = splitmix64(splitmix64(splitmix64(self.seed ^ kind) ^ a) ^ b);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The compute-time multiplier for `(node, step)`: `Some(slowdown)`
    /// when the slot runs slow, `None` otherwise.
    #[inline]
    pub fn straggler_multiplier(&self, node: usize, step: u32) -> Option<f64> {
        if self.straggler_prob > 0.0
            && self.unit(KIND_STRAGGLER, node as u64, u64::from(step)) < self.straggler_prob
        {
            Some(self.straggler_slowdown.max(1.0))
        } else {
            None
        }
    }

    /// Whether `node`'s `seq`-th send is dropped (and retransmitted).
    #[inline]
    pub fn drops_send(&self, node: usize, seq: u64) -> bool {
        self.drop_prob > 0.0 && self.unit(KIND_DROP, node as u64, seq) < self.drop_prob
    }

    /// Whether `node`'s `seq`-th allocation lands under memory pressure.
    #[inline]
    pub fn mem_pressure_hits(&self, node: usize, seq: u64) -> bool {
        self.mem_pressure_prob > 0.0
            && self.unit(KIND_MEMPRESS, node as u64, seq) < self.mem_pressure_prob
    }

    /// Packs a directed link into one decision coordinate.
    #[inline]
    fn link_coord(src: usize, dst: usize) -> u64 {
        ((src as u64) << 32) | dst as u64
    }

    /// Whether `attempt` (0 = original transmission, 1.. = retransmits)
    /// of the `seq`-th transfer on link `src → dst` is lost in flight.
    ///
    /// Each attempt gets its own threshold test against one fixed hash,
    /// so raising `link_drop_prob` only turns more attempts into losses:
    /// the set of retransmission events grows monotonically and is
    /// identical at any `--jobs`.
    #[inline]
    pub fn link_drop_hits(&self, src: usize, dst: usize, seq: u64, attempt: u32) -> bool {
        debug_assert!(attempt < MAX_SEND_ATTEMPTS);
        self.link_drop_prob > 0.0
            && self.unit(
                KIND_LINKDROP,
                Self::link_coord(src, dst),
                (seq << 5) | u64::from(attempt),
            ) < self.link_drop_prob
    }

    /// Whether the `seq`-th transfer on link `src → dst` is duplicated in
    /// flight once it finally gets through.
    #[inline]
    pub fn duplicates_delivery(&self, src: usize, dst: usize, seq: u64) -> bool {
        self.dup_prob > 0.0 && self.unit(KIND_DUP, Self::link_coord(src, dst), seq) < self.dup_prob
    }

    /// The wire-time multiplier for link `src → dst` when it is the
    /// configured slow link, `None` otherwise.
    #[inline]
    pub fn slow_link_factor(&self, src: usize, dst: usize) -> Option<f64> {
        self.slow_link
            .filter(|l| l.src == src && l.dst == dst)
            .map(|l| l.factor.max(1.0))
    }

    /// Canonical spec string: `"none"` for the inactive plan, else the
    /// same `key=value` grammar [`FaultPlan::parse`] accepts, so
    /// `parse(&plan.key()) == plan`. Used in journal lines and as the
    /// faults component of the sweep cell params hash.
    pub fn key(&self) -> String {
        self.to_string()
    }

    /// Parses a `--faults` spec: comma-separated `key=value` clauses.
    ///
    /// ```text
    /// seed=7,straggler=0.1x4,drop=0.01,linkdrop=0.02,dup=0.01,slowlink=0-1:4,mempress=0.05:256M,kill=0@5,ckpt=4
    /// ```
    ///
    /// * `seed=N` — decision seed (default 0);
    /// * `straggler=PxM` — each (node, step) runs `M`× slower with
    ///   probability `P`;
    /// * `drop=P` — each send is dropped and retransmitted with
    ///   probability `P`;
    /// * `linkdrop=P` — each transmission attempt of a lane transfer is
    ///   lost with probability `P` and retransmitted after a
    ///   deterministic exponential-backoff timeout;
    /// * `dup=P` — each delivered lane transfer is duplicated in flight
    ///   with probability `P`;
    /// * `slowlink=SRC-DST:X` — transfers on the `SRC → DST` link take
    ///   `X`× (≥ 1) the healthy wire time;
    /// * `mempress=P:BYTES` — each allocation contends with `BYTES`
    ///   phantom bytes with probability `P` (suffixes `K`/`M`/`G`);
    /// * `kill=NODE@STEP` — node `NODE` dies during step `STEP`;
    /// * `join=NODE@STEP` — node `NODE` joins the cluster at the barrier
    ///   ending step `STEP`, warm-starting from the last checkpoint;
    /// * `leave=NODE@STEP` — node `NODE` gracefully leaves at the
    ///   barrier ending step `STEP`: mailbox drained, state migrated
    ///   off (distinct from `kill`, which loses state and triggers
    ///   recovery);
    /// * `hw=NODE:PROFILE` — node `NODE` runs the named hardware profile
    ///   (`standard`, `oldgen`, `slownic`) for the whole run;
    /// * `ckpt=K` — checkpoint every `K` steps (checkpoint/restart
    ///   engines only).
    ///
    /// `join`/`leave`/`hw` may repeat (up to [`MAX_MEMBERSHIP_EVENTS`]
    /// each), but at most once per node, and conflicting plans — a
    /// `leave` of a node that is also `kill`ed, a node leaving before it
    /// joins, or `leave=0` (node 0 coordinates barriers) — are rejected.
    ///
    /// `"none"` or the empty string yield [`FaultPlan::none`].
    ///
    /// Out-of-range values and duplicate keys are rejected with an error
    /// whose caret line points at the offending span:
    ///
    /// ```text
    /// probability `1.5` must be in [0, 1]
    ///   seed=1,drop=1.5
    ///               ^^^
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        let mut plan = FaultPlan::none();
        if spec.is_empty() || spec == "none" {
            return Ok(plan);
        }
        let mut seen: Vec<&str> = Vec::new();
        // Spans of `leave=` clauses, kept for cross-clause validation
        // after the loop (the conflicting `kill=`/`join=` may parse
        // later).
        let mut leave_spans: Vec<(MembershipEvent, usize, usize)> = Vec::new();
        let mut offset = 0usize;
        for clause in spec.split(',') {
            let clause_at = offset;
            offset += clause.len() + 1;
            let (k, v) = clause.split_once('=').ok_or_else(|| {
                span_err(
                    spec,
                    clause_at,
                    clause.len(),
                    format!("fault clause `{clause}` is not key=value"),
                )
            })?;
            let key = k.trim();
            let v_at = clause_at + k.len() + 1;
            // join/leave/hw may repeat (per-node uniqueness is checked
            // where they are pushed); everything else at most once.
            if seen.contains(&key) && !matches!(key, "join" | "leave" | "hw") {
                return Err(span_err(
                    spec,
                    clause_at,
                    clause.len(),
                    format!("duplicate fault clause `{key}`"),
                ));
            }
            seen.push(key);
            match key {
                "seed" => {
                    plan.seed = v
                        .parse()
                        .map_err(|_| span_err(spec, v_at, v.len(), format!("bad seed `{v}`")))?;
                }
                "straggler" => {
                    let (p, m) = v.split_once('x').ok_or_else(|| {
                        span_err(
                            spec,
                            v_at,
                            v.len(),
                            format!("straggler `{v}` is not PROBxMULT"),
                        )
                    })?;
                    plan.straggler_prob = parse_prob(spec, v_at, p)?;
                    plan.straggler_slowdown = m
                        .parse::<f64>()
                        .ok()
                        .filter(|&m| m.is_finite() && m >= 1.0)
                        .ok_or_else(|| {
                            span_err(
                                spec,
                                v_at + p.len() + 1,
                                m.len(),
                                format!("straggler multiplier `{m}` must be ≥ 1"),
                            )
                        })?;
                }
                "drop" => plan.drop_prob = parse_prob(spec, v_at, v)?,
                "linkdrop" => plan.link_drop_prob = parse_prob(spec, v_at, v)?,
                "dup" => plan.dup_prob = parse_prob(spec, v_at, v)?,
                "slowlink" => {
                    let parsed = v.split_once(':').and_then(|(link, x)| {
                        let (s, d) = link.split_once('-')?;
                        Some(SlowLink {
                            src: s.parse().ok()?,
                            dst: d.parse().ok()?,
                            factor: x
                                .parse::<f64>()
                                .ok()
                                .filter(|&f| f.is_finite() && f >= 1.0)?,
                        })
                    });
                    plan.slow_link = Some(parsed.filter(|l| l.src != l.dst).ok_or_else(|| {
                        span_err(
                            spec,
                            v_at,
                            v.len(),
                            format!("slowlink `{v}` is not SRC-DST:X with SRC ≠ DST and X ≥ 1"),
                        )
                    })?);
                }
                "mempress" => {
                    let (p, b) = v.split_once(':').ok_or_else(|| {
                        span_err(
                            spec,
                            v_at,
                            v.len(),
                            format!("mempress `{v}` is not PROB:BYTES"),
                        )
                    })?;
                    plan.mem_pressure_prob = parse_prob(spec, v_at, p)?;
                    plan.mem_pressure_bytes = parse_bytes(b)
                        .map_err(|e| span_err(spec, v_at + p.len() + 1, b.len(), e))?;
                }
                "kill" => {
                    let (n, s) = v.split_once('@').ok_or_else(|| {
                        span_err(spec, v_at, v.len(), format!("kill `{v}` is not NODE@STEP"))
                    })?;
                    plan.fail = Some(NodeFailure {
                        node: n.parse().map_err(|_| {
                            span_err(spec, v_at, n.len(), format!("bad kill node `{n}`"))
                        })?,
                        step: s.parse().map_err(|_| {
                            span_err(
                                spec,
                                v_at + n.len() + 1,
                                s.len(),
                                format!("bad kill step `{s}`"),
                            )
                        })?,
                    });
                }
                "join" | "leave" => {
                    let ev = parse_node_step(spec, v_at, v, key)?;
                    if key == "leave" && ev.node == 0 {
                        return Err(span_err(
                            spec,
                            v_at,
                            v.len(),
                            "node 0 coordinates barriers and cannot leave".to_string(),
                        ));
                    }
                    let arr = if key == "join" {
                        &mut plan.joins
                    } else {
                        &mut plan.leaves
                    };
                    if arr.iter().flatten().any(|e| e.node == ev.node) {
                        return Err(span_err(
                            spec,
                            clause_at,
                            clause.len(),
                            format!("node {} already has a `{key}` event", ev.node),
                        ));
                    }
                    match arr.iter_mut().find(|slot| slot.is_none()) {
                        Some(slot) => *slot = Some(ev),
                        None => {
                            return Err(span_err(
                                spec,
                                clause_at,
                                clause.len(),
                                format!("at most {MAX_MEMBERSHIP_EVENTS} `{key}` events per plan"),
                            ))
                        }
                    }
                    if key == "leave" {
                        leave_spans.push((ev, clause_at, clause.len()));
                    }
                }
                "hw" => {
                    let (n, p) = v.split_once(':').ok_or_else(|| {
                        span_err(spec, v_at, v.len(), format!("hw `{v}` is not NODE:PROFILE"))
                    })?;
                    let node: usize = n
                        .parse()
                        .map_err(|_| span_err(spec, v_at, n.len(), format!("bad hw node `{n}`")))?;
                    if node > MAX_MEMBERSHIP_NODE {
                        return Err(span_err(
                            spec,
                            v_at,
                            n.len(),
                            format!("hw node `{n}` is out of range (max {MAX_MEMBERSHIP_NODE})"),
                        ));
                    }
                    let profile = NodeProfile::parse(p.trim()).ok_or_else(|| {
                        span_err(
                            spec,
                            v_at + n.len() + 1,
                            p.len(),
                            format!("unknown hardware profile `{p}` (standard, oldgen, slownic)"),
                        )
                    })?;
                    if plan.hw.iter().flatten().any(|h| h.node == node) {
                        return Err(span_err(
                            spec,
                            clause_at,
                            clause.len(),
                            format!("node {node} already has a `hw` profile"),
                        ));
                    }
                    match plan.hw.iter_mut().find(|slot| slot.is_none()) {
                        Some(slot) => *slot = Some(HwOverride { node, profile }),
                        None => {
                            return Err(span_err(
                                spec,
                                clause_at,
                                clause.len(),
                                format!("at most {MAX_MEMBERSHIP_EVENTS} `hw` profiles per plan"),
                            ))
                        }
                    }
                }
                "ckpt" => {
                    plan.checkpoint_interval = v.parse().map_err(|_| {
                        span_err(spec, v_at, v.len(), format!("bad ckpt interval `{v}`"))
                    })?;
                }
                other => {
                    return Err(span_err(
                        spec,
                        clause_at,
                        k.len(),
                        format!("unknown fault clause `{other}`"),
                    ))
                }
            }
        }
        // Cross-clause conflicts: a `leave` is a graceful departure and
        // cannot coexist with a `kill` of the same node, and a node that
        // both joins and leaves must join strictly first.
        for (ev, at, len) in &leave_spans {
            if plan.fail.is_some_and(|f| f.node == ev.node) {
                return Err(span_err(
                    spec,
                    *at,
                    *len,
                    format!("node {} cannot both `leave` and be `kill`ed", ev.node),
                ));
            }
            if plan
                .join_events()
                .any(|j| j.node == ev.node && j.step >= ev.step)
            {
                return Err(span_err(
                    spec,
                    *at,
                    *len,
                    format!("node {} must join strictly before it leaves", ev.node),
                ));
            }
        }
        Ok(plan)
    }
}

impl std::fmt::Display for FaultPlan {
    /// The canonical spec string [`FaultPlan::key`] returns.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.is_active() {
            return f.write_str("none");
        }
        write!(f, "seed={}", self.seed)?;
        if self.straggler_prob > 0.0 {
            write!(
                f,
                ",straggler={:?}x{:?}",
                self.straggler_prob, self.straggler_slowdown
            )?;
        }
        if self.drop_prob > 0.0 {
            write!(f, ",drop={:?}", self.drop_prob)?;
        }
        if self.link_drop_prob > 0.0 {
            write!(f, ",linkdrop={:?}", self.link_drop_prob)?;
        }
        if self.dup_prob > 0.0 {
            write!(f, ",dup={:?}", self.dup_prob)?;
        }
        if let Some(l) = self.slow_link {
            write!(f, ",slowlink={}-{}:{:?}", l.src, l.dst, l.factor)?;
        }
        if self.mem_pressure_prob > 0.0 {
            write!(
                f,
                ",mempress={:?}:{}",
                self.mem_pressure_prob, self.mem_pressure_bytes
            )?;
        }
        if let Some(k) = self.fail {
            write!(f, ",kill={}@{}", k.node, k.step)?;
        }
        for e in self.joins.iter().flatten() {
            write!(f, ",join={}@{}", e.node, e.step)?;
        }
        for e in self.leaves.iter().flatten() {
            write!(f, ",leave={}@{}", e.node, e.step)?;
        }
        for h in self.hw.iter().flatten() {
            write!(f, ",hw={}:{}", h.node, h.profile.name())?;
        }
        if self.checkpoint_interval > 0 {
            write!(f, ",ckpt={}", self.checkpoint_interval)?;
        }
        Ok(())
    }
}

/// Formats a parse error with a caret line pointing at the offending
/// span of the spec. Shared by every spec-string parser in the repo
/// (fault plans, serve requests) so all of
/// them fail with the same shape of message.
pub fn span_err(spec: &str, at: usize, len: usize, msg: String) -> String {
    format!(
        "{msg}\n  {spec}\n  {}{}",
        " ".repeat(at),
        "^".repeat(len.max(1))
    )
}

/// Parses a `NODE@STEP` membership value with spans on each half and a
/// range check on the node id.
fn parse_node_step(
    spec: &str,
    v_at: usize,
    v: &str,
    kind: &str,
) -> Result<MembershipEvent, String> {
    let (n, s) = v.split_once('@').ok_or_else(|| {
        span_err(
            spec,
            v_at,
            v.len(),
            format!("{kind} `{v}` is not NODE@STEP"),
        )
    })?;
    let node: usize = n
        .parse()
        .map_err(|_| span_err(spec, v_at, n.len(), format!("bad {kind} node `{n}`")))?;
    if node > MAX_MEMBERSHIP_NODE {
        return Err(span_err(
            spec,
            v_at,
            n.len(),
            format!("{kind} node `{n}` is out of range (max {MAX_MEMBERSHIP_NODE})"),
        ));
    }
    let step: u32 = s.parse().map_err(|_| {
        span_err(
            spec,
            v_at + n.len() + 1,
            s.len(),
            format!("bad {kind} step `{s}`"),
        )
    })?;
    Ok(MembershipEvent { node, step })
}

fn parse_prob(spec: &str, at: usize, s: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .ok()
        .filter(|p| p.is_finite() && (0.0..=1.0).contains(p))
        .ok_or_else(|| {
            span_err(
                spec,
                at,
                s.len(),
                format!("probability `{s}` must be in [0, 1]"),
            )
        })
}

fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'K' | b'k') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'M' | b'm') => (&s[..s.len() - 1], 1u64 << 20),
        Some(b'G' | b'g') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .map(|n| n.saturating_mul(mult))
        .map_err(|_| format!("bad byte count `{s}`"))
}

thread_local! {
    static OVERRIDE: Cell<Option<FaultPlan>> = const { Cell::new(None) };
}

/// The fault plan in effect on this thread: the innermost [`with_faults`]
/// override if any, else [`FaultPlan::none`].
pub fn current_faults() -> FaultPlan {
    OVERRIDE.with(Cell::get).unwrap_or_else(FaultPlan::none)
}

/// Restores the previous thread-local plan when dropped — including
/// during unwinding, so a panicking sweep cell cannot leak its faults
/// into the next cell run on the same worker thread.
pub struct FaultGuard {
    prev: Option<FaultPlan>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Installs a thread-local fault-plan override and returns the guard
/// that undoes it.
pub fn set_faults(plan: FaultPlan) -> FaultGuard {
    let prev = OVERRIDE.with(|c| c.replace(Some(plan)));
    FaultGuard { prev }
}

/// Runs `f` under fault plan `plan`, restoring the previous plan
/// afterwards (even if `f` panics). Overrides nest.
pub fn with_faults<T>(plan: FaultPlan, f: impl FnOnce() -> T) -> T {
    let _guard = set_faults(plan);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_keys_as_none() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(p.key(), "none");
        assert!(p.straggler_multiplier(0, 0).is_none());
        assert!(!p.drops_send(0, 0));
        assert!(!p.mem_pressure_hits(0, 0));
    }

    #[test]
    fn parse_full_spec_round_trips_through_key() {
        let spec = "seed=7,straggler=0.1x4.0,drop=0.01,mempress=0.05:268435456,kill=0@5,ckpt=4";
        let p = FaultPlan::parse(spec).unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.straggler_prob, 0.1);
        assert_eq!(p.straggler_slowdown, 4.0);
        assert_eq!(p.drop_prob, 0.01);
        assert_eq!(p.mem_pressure_bytes, 256 << 20);
        assert_eq!(p.fail, Some(NodeFailure { node: 0, step: 5 }));
        assert_eq!(p.checkpoint_interval, 4);
        assert_eq!(FaultPlan::parse(&p.key()).unwrap(), p);
    }

    #[test]
    fn parse_byte_suffixes() {
        let p = FaultPlan::parse("mempress=1:256M").unwrap();
        assert_eq!(p.mem_pressure_bytes, 256 << 20);
        assert_eq!(
            FaultPlan::parse("mempress=1:4G")
                .unwrap()
                .mem_pressure_bytes,
            4 << 30
        );
        assert_eq!(
            FaultPlan::parse("mempress=1:16K")
                .unwrap()
                .mem_pressure_bytes,
            16 << 10
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("straggler=0.1").is_err());
        assert!(FaultPlan::parse("straggler=2x4").is_err(), "prob > 1");
        assert!(FaultPlan::parse("straggler=0.1x0.5").is_err(), "mult < 1");
        assert!(FaultPlan::parse("kill=3").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("mempress=0.5").is_err());
    }

    #[test]
    fn empty_and_none_parse_to_inactive() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let p = FaultPlan::parse("seed=9,straggler=0.3x2,drop=0.3").unwrap();
        for node in 0..8usize {
            for step in 0..32u32 {
                assert_eq!(
                    p.straggler_multiplier(node, step),
                    p.straggler_multiplier(node, step)
                );
            }
        }
        // different seeds give different decision patterns
        let q = FaultPlan { seed: 10, ..p };
        let agree = (0..1000u64)
            .filter(|&i| p.drops_send(0, i) == q.drops_send(0, i))
            .count();
        assert!(agree < 1000, "seeds must matter");
    }

    #[test]
    fn decision_rates_track_probabilities() {
        let p = FaultPlan::parse("seed=1,drop=0.1").unwrap();
        let hits = (0..20_000u64).filter(|&i| p.drops_send(3, i)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn override_nests_restores_and_stays_thread_local() {
        let plan = FaultPlan::parse("seed=5,drop=0.5").unwrap();
        assert_eq!(current_faults(), FaultPlan::none());
        with_faults(plan, || {
            assert_eq!(current_faults(), plan);
            let inner = FaultPlan::parse("seed=6,ckpt=2").unwrap();
            assert_eq!(with_faults(inner, current_faults), inner);
            assert_eq!(current_faults(), plan);
            let other = std::thread::spawn(current_faults).join().unwrap();
            assert_eq!(other, FaultPlan::none(), "override must stay thread-local");
        });
        assert_eq!(current_faults(), FaultPlan::none());
    }

    #[test]
    fn panic_does_not_leak_override() {
        let plan = FaultPlan::parse("seed=5,drop=0.5").unwrap();
        let r = std::panic::catch_unwind(|| with_faults(plan, || panic!("cell failed")));
        assert!(r.is_err());
        assert_eq!(current_faults(), FaultPlan::none());
    }

    #[test]
    fn parse_link_terms_round_trip_through_key() {
        let spec = "seed=3,linkdrop=0.02,dup=0.01,slowlink=0-1:4.0";
        let p = FaultPlan::parse(spec).unwrap();
        assert_eq!(p.link_drop_prob, 0.02);
        assert_eq!(p.dup_prob, 0.01);
        assert_eq!(
            p.slow_link,
            Some(SlowLink {
                src: 0,
                dst: 1,
                factor: 4.0
            })
        );
        assert!(p.has_link_faults() && p.is_active());
        assert_eq!(FaultPlan::parse(&p.key()).unwrap(), p);
    }

    #[test]
    fn duplicate_clauses_are_rejected_with_span() {
        let err = FaultPlan::parse("seed=1,drop=0.1,drop=0.2").unwrap_err();
        assert!(err.contains("duplicate fault clause `drop`"), "{err}");
        let caret = err.lines().last().unwrap();
        // the caret line underlines the *second* `drop=0.2` clause
        assert_eq!(caret.find('^'), Some(2 + 16), "{err}");
        assert_eq!(caret.matches('^').count(), "drop=0.2".len(), "{err}");
    }

    #[test]
    fn out_of_range_probability_points_at_value() {
        let err = FaultPlan::parse("seed=1,drop=1.5").unwrap_err();
        assert!(err.contains("probability `1.5` must be in [0, 1]"), "{err}");
        let caret = err.lines().last().unwrap();
        assert_eq!(caret.find('^'), Some(2 + 12), "{err}");
        assert_eq!(caret.matches('^').count(), 3, "{err}");
    }

    #[test]
    fn link_drop_events_grow_monotonically_with_probability() {
        let lo = FaultPlan::parse("seed=11,linkdrop=0.05").unwrap();
        let hi = FaultPlan::parse("seed=11,linkdrop=0.3").unwrap();
        let mut lo_events = 0u32;
        for seq in 0..2000u64 {
            for attempt in 0..4u32 {
                if lo.link_drop_hits(0, 1, seq, attempt) {
                    lo_events += 1;
                    assert!(
                        hi.link_drop_hits(0, 1, seq, attempt),
                        "raising linkdrop removed a retransmission event"
                    );
                }
            }
        }
        assert!(lo_events > 0);
    }

    #[test]
    fn slow_link_only_matches_its_directed_pair() {
        let p = FaultPlan::parse("slowlink=2-5:3").unwrap();
        assert_eq!(p.slow_link_factor(2, 5), Some(3.0));
        assert_eq!(p.slow_link_factor(5, 2), None);
        assert_eq!(p.slow_link_factor(2, 4), None);
        assert!(p.has_link_faults());
    }

    #[test]
    fn slowlink_rejects_self_loops_and_sublinear_factors() {
        assert!(FaultPlan::parse("slowlink=1-1:2").is_err());
        assert!(FaultPlan::parse("slowlink=0-1:0.5").is_err());
        assert!(FaultPlan::parse("slowlink=0-1").is_err());
    }

    #[test]
    fn checkpoint_only_plans_are_active() {
        let p = FaultPlan::parse("ckpt=4").unwrap();
        assert!(p.is_active(), "checkpointing has a cost even without kills");
        assert_eq!(p.key(), "seed=0,ckpt=4");
    }

    #[test]
    fn parse_membership_round_trips_through_key() {
        let spec = "seed=2,join=4@3,join=5@3,leave=1@7,hw=4:oldgen,hw=2:slownic,ckpt=2";
        let p = FaultPlan::parse(spec).unwrap();
        assert_eq!(
            p.join_events().collect::<Vec<_>>(),
            vec![
                MembershipEvent { node: 4, step: 3 },
                MembershipEvent { node: 5, step: 3 },
            ]
        );
        assert_eq!(
            p.leave_events().collect::<Vec<_>>(),
            vec![MembershipEvent { node: 1, step: 7 }]
        );
        assert_eq!(p.hw_profile(4), Some(NodeProfile::OldGen));
        assert_eq!(p.hw_profile(2), Some(NodeProfile::SlowNic));
        assert_eq!(p.hw_profile(0), None);
        assert_eq!(p.membership_max_node(), Some(5));
        assert!(p.has_membership() && p.has_hw() && p.is_elastic());
        assert!(p.is_active());
        assert_eq!(FaultPlan::parse(&p.key()).unwrap(), p);
    }

    #[test]
    fn hw_only_plan_is_elastic_and_active() {
        let p = FaultPlan::parse("hw=1:oldgen").unwrap();
        assert!(!p.has_membership());
        assert!(p.has_hw() && p.is_elastic() && p.is_active());
        assert_eq!(p.membership_max_node(), Some(1));
        assert_eq!(p.key(), "seed=0,hw=1:oldgen");
    }

    #[test]
    fn membership_clauses_may_repeat_up_to_the_cap() {
        let p = FaultPlan::parse("join=4@1,join=5@1,join=6@1,join=7@1").unwrap();
        assert_eq!(p.join_events().count(), 4);
        let err = FaultPlan::parse("join=4@1,join=5@1,join=6@1,join=7@1,join=8@1").unwrap_err();
        assert!(err.contains("at most 4 `join` events"), "{err}");
        // the caret underlines the fifth clause
        let caret = err.lines().last().unwrap();
        assert_eq!(caret.find('^'), Some(2 + 4 * "join=4@1,".len()), "{err}");
    }

    #[test]
    fn duplicate_membership_node_is_rejected() {
        let err = FaultPlan::parse("join=4@1,join=4@2").unwrap_err();
        assert!(err.contains("node 4 already has a `join` event"), "{err}");
        let err = FaultPlan::parse("hw=1:oldgen,hw=1:slownic").unwrap_err();
        assert!(err.contains("node 1 already has a `hw` profile"), "{err}");
    }

    #[test]
    fn leave_of_master_is_rejected() {
        let err = FaultPlan::parse("leave=0@3").unwrap_err();
        assert!(err.contains("node 0 coordinates barriers"), "{err}");
    }

    #[test]
    fn kill_and_leave_of_same_node_conflict() {
        // regardless of clause order or steps: a graceful leave and a
        // crash of the same node cannot both be scheduled
        let err = FaultPlan::parse("leave=2@5,kill=2@3").unwrap_err();
        assert!(err.contains("cannot both `leave` and be `kill`ed"), "{err}");
        let err = FaultPlan::parse("kill=2@3,leave=2@5").unwrap_err();
        assert!(err.contains("cannot both `leave` and be `kill`ed"), "{err}");
        // different nodes are fine
        assert!(FaultPlan::parse("kill=1@3,leave=2@5,ckpt=2").is_ok());
    }

    #[test]
    fn leave_before_join_of_same_node_is_rejected() {
        let err = FaultPlan::parse("join=4@5,leave=4@5").unwrap_err();
        assert!(err.contains("must join strictly before"), "{err}");
        let err = FaultPlan::parse("leave=4@2,join=4@5").unwrap_err();
        assert!(err.contains("must join strictly before"), "{err}");
        // join-then-leave is the symmetric grow-then-shrink case
        let p = FaultPlan::parse("join=4@2,leave=4@5").unwrap();
        assert_eq!(p.join_events().count(), 1);
        assert_eq!(p.leave_events().count(), 1);
    }

    #[test]
    fn membership_rejects_malformed_and_out_of_range() {
        assert!(FaultPlan::parse("join=4").is_err());
        assert!(FaultPlan::parse("join=x@2").is_err());
        assert!(FaultPlan::parse("join=4@x").is_err());
        assert!(FaultPlan::parse("hw=4").is_err());
        assert!(FaultPlan::parse("hw=x:oldgen").is_err());
        let err = FaultPlan::parse("join=9999@2").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = FaultPlan::parse("hw=9999:oldgen").unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn unknown_hw_profile_points_at_profile_name() {
        let err = FaultPlan::parse("hw=1:fastgen").unwrap_err();
        assert!(err.contains("unknown hardware profile `fastgen`"), "{err}");
        let caret = err.lines().last().unwrap();
        // caret starts under `fastgen` (after "hw=1:")
        assert_eq!(caret.find('^'), Some(2 + 5), "{err}");
        assert_eq!(caret.matches('^').count(), "fastgen".len(), "{err}");
    }
}
