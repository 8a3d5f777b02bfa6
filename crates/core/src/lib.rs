//! # graphmaze-core
//!
//! The front door of the `graphmaze` workspace — a from-scratch Rust
//! reproduction of Satish et al., *Navigating the Maze of Graph
//! Analytics Frameworks using Massive Graph Datasets* (SIGMOD 2014).
//!
//! This crate re-exports the substrate crates and provides the unified
//! benchmark API used by the examples, integration tests and the `repro`
//! harness:
//!
//! ```
//! use graphmaze_core::prelude::*;
//!
//! // a scaled-down LiveJournal-like graph
//! let wl = Workload::from_dataset(Dataset::LiveJournalLike, 14, 7);
//! let params = BenchParams::default();
//! // run PageRank under every framework on a simulated 4-node cluster
//! for fw in Framework::ALL {
//!     match run_benchmark(Algorithm::PageRank, fw, &wl, 4, &params) {
//!         Ok(outcome) => println!(
//!             "{fw:?}: {:.4}s/iter",
//!             outcome.report.seconds_per_iteration()
//!         ),
//!         Err(e) => println!("{fw:?}: {e}"), // e.g. Galois is single-node
//!     }
//! }
//! ```
#![forbid(unsafe_code)]

pub mod cache;
pub mod flatjson;
pub mod report;
pub mod request;
pub mod runner;
pub mod sweep;
pub mod workload;

pub use graphmaze_cluster as cluster;
pub use graphmaze_datagen as datagen;
pub use graphmaze_engines as engines;
pub use graphmaze_graph as graph;
pub use graphmaze_metrics as metrics;
pub use graphmaze_native as native;

pub use cache::{CacheStats, CachedOutcome, ResultCache};
pub use request::{Provenance, RunRequest, RunResponse, SharedResponse};
pub use runner::{
    run_benchmark, run_output, Algorithm, BenchParams, Framework, Output, RunOutcome,
};
pub use sweep::{
    CellError, CellStatus, SilentObserver, Sweep, SweepCell, SweepEvent, SweepObserver,
    SweepOptions, SweepReport, WorkloadCache, WorkloadSpec, JOURNAL_SCHEMA_VERSION,
};
pub use workload::Workload;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::cache::{CacheStats, ResultCache};
    pub use crate::report::{format_table, geomean};
    pub use crate::request::{Provenance, RunRequest, RunResponse, SharedResponse};
    pub use crate::runner::{
        run_benchmark, run_output, Algorithm, BenchParams, Framework, Output, RunOutcome,
    };
    pub use crate::sweep::{
        CellError, CellStatus, SilentObserver, Sweep, SweepCell, SweepEvent, SweepObserver,
        SweepOptions, SweepReport, WorkloadCache, WorkloadSpec,
    };
    pub use crate::workload::Workload;
    pub use graphmaze_cluster::{ClusterSpec, ExecProfile, FaultPlan, NodeFailure, SimError};
    pub use graphmaze_datagen::{Dataset, RatingsGenConfig, RmatConfig, RmatParams};
    pub use graphmaze_graph::{DirectedGraph, EdgeList, RatingsGraph, UndirectedGraph};
    pub use graphmaze_metrics::{RecoveryStats, RunReport};
    pub use graphmaze_native::cf::CfConfig;
    pub use graphmaze_native::{NativeOptions, PAGERANK_R};
}
