#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // per-node kernels index several parallel arrays by the same id

//! # graphmaze-native
//!
//! The paper's hand-optimized "native" implementations — the reference
//! point every framework is measured against (§5.1, §6.1). Four
//! algorithms, each in two forms:
//!
//! * a **single-node** shared-memory implementation that really runs in
//!   parallel (scoped threads), used for correctness oracles and
//!   wall-clock Criterion benches;
//! * a **cluster** implementation that executes the same algorithm
//!   partitioned over the simulated nodes of a
//!   [`graphmaze_cluster::Sim`], exchanging real messages and metering
//!   every byte — used to regenerate the paper's multi-node results.
//!
//! The §6.1.1 optimization levers are explicit [`NativeOptions`] toggles
//! so Figure 7's ablation can be reproduced: software prefetch,
//! id compression (delta/bit-vector coding), computation–communication
//! overlap, and bit-vector data structures.

pub mod bfs;
pub mod cf;
pub mod common;
pub mod msbfs;
pub mod pagerank;
pub mod triangle;

pub use common::NativeOptions;

/// The paper's random-jump probability for PageRank ("we use 0.3", §2).
pub const PAGERANK_R: f64 = 0.3;
