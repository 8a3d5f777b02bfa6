//! # graphmaze-metrics
//!
//! Metering primitives for the cluster simulator: counted work
//! ([`Work`]), per-node memory accounting ([`MemTracker`]), network
//! traffic statistics ([`TrafficStats`]) and the final run report
//! ([`RunReport`]) corresponding to the paper's `sar`/`sysstat`
//! measurements (§5.4, Figure 6).
//!
//! Everything here is *measured on real executions* — the algorithms in
//! `graphmaze-native` and `graphmaze-engines` really run, and these
//! counters record exactly what they did. Only the conversion of counts
//! to seconds (done in `graphmaze-cluster`) uses the paper's hardware
//! constants.
#![forbid(unsafe_code)]

pub mod expose;
pub mod memory;
pub mod rebalance;
pub mod recovery;
pub mod report;
pub mod retransmit;
pub mod telemetry;
pub mod timeline;
pub mod traffic;
pub mod work;

pub use expose::{parse as parse_exposition, render as render_exposition, Sample, EXPOSITION_EOF};
pub use memory::{MemTracker, OutOfMemory};
pub use rebalance::RebalanceStats;
pub use recovery::RecoveryStats;
pub use report::RunReport;
pub use retransmit::RetransmitStats;
pub use telemetry::{
    Counter, Gauge, Histogram, MetricKind, Registry, SpanRecord, SPAN_STAGES, TIME_BUCKETS_S,
};
pub use timeline::{PhaseStat, StepRecord, Timeline};
pub use traffic::{TrafficMatrix, TrafficStats};
pub use work::Work;
