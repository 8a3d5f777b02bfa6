//! # graphmaze-cluster
//!
//! The simulated multi-node substrate on which all graphmaze benchmarks
//! run. The paper's evaluation platform — up to 64 Xeon E5-2697 nodes on
//! FDR InfiniBand (§4.3) — is reproduced as a deterministic discrete-cost
//! simulator:
//!
//! * algorithms execute **for real** on real data partitioned across
//!   simulated nodes (results are bit-checked against single-node code);
//! * every byte streamed, random access made, flop executed and message
//!   sent is metered ([`graphmaze_metrics::Work`]) and converted to
//!   simulated seconds using the paper's own hardware constants
//!   ([`HardwareSpec::paper`]);
//! * communication layers carry the paper's measured characteristics
//!   ([`CommLayer::mpi`], [`CommLayer::socket`], [`CommLayer::multi_socket`],
//!   [`CommLayer::netty`] — §3, §5.4, §6.1.3);
//! * per-framework execution behaviour (core usage, buffering, overlap,
//!   per-superstep coordination cost) is captured by [`ExecProfile`];
//! * all cross-node traffic flows through one message plane
//!   ([`router::Router`]/[`router::Mailbox`]): per-destination buffering,
//!   flush policies, combiners, id compression and a single packetization
//!   rule, recording the per-(src, dst) traffic matrix of every run;
//! * partitioning schemes match §6.1.1: 1-D balanced-by-edges
//!   ([`Partition1D`]) and the 2-D grid ([`Partition2D`]); GraphLab's
//!   high-degree replication runs in the engines' vertex engine;
//! * seeded deterministic fault injection — stragglers, message drops,
//!   transient memory pressure, whole-node failure — with Giraph-style
//!   checkpoint/restart recovery is configured by a [`FaultPlan`]
//!   ([`faults`]);
//! * elastic cluster membership — node joins warm-started from the last
//!   checkpoint, graceful leaves with mailbox drain, heterogeneous
//!   hardware profiles ([`NodeProfile`]) — triggers live weighted
//!   repartitioning with migration traffic charged into the traffic
//!   matrix (`join=`/`leave=`/`hw=` fault-plan clauses).
#![forbid(unsafe_code)]

pub mod comm;
pub mod compress;
pub mod faults;
pub mod hardware;
pub mod partition;
pub mod profile;
pub mod router;
pub mod sim;
pub mod work_scale;

pub use comm::CommLayer;
pub use faults::{
    current_faults, span_err, with_faults, FaultPlan, HwOverride, MembershipEvent, NodeFailure,
    SlowLink, MAX_MEMBERSHIP_EVENTS,
};
pub use hardware::{ClusterSpec, HardwareSpec, NodeProfile};
pub use partition::{weighted_bounds, Partition1D, Partition2D};
pub use profile::ExecProfile;
pub use router::{packets_for, Combiner, FlushPolicy, Mailbox, Router, RouterConfig, PACKET_BYTES};
pub use sim::{Sim, SimError, DEFAULT_PHASE, HEARTBEAT_WIRE_BYTES};
pub use work_scale::{current_work_scale, with_work_scale};
