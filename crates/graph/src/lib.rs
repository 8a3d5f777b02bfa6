//! # graphmaze-graph
//!
//! In-memory graph substrate for the `graphmaze` workspace: flat,
//! cache-friendly graph representations and the low-level data structures
//! the paper's hand-optimized "native" implementations rely on
//! (Satish et al., *Navigating the Maze of Graph Analytics Frameworks
//! using Massive Graph Datasets*, SIGMOD 2014).
//!
//! The design follows the paper's §3.1/§6.1 observations:
//!
//! * graphs are stored in **Compressed Sparse Row** form so that edge
//!   traversal is a single contiguous stream ([`Csr`]);
//! * BFS and triangle counting use **bit-vectors** for constant-time
//!   membership with minimal cache footprint ([`BitVec`], [`AtomicBitVec`],
//!   and the reusable mark/probe/unmark [`RowBitmap`] every triangle path
//!   counts through);
//! * collaborative filtering uses a **bipartite ratings graph**
//!   ([`RatingsGraph`]);
//! * intra-node parallelism uses scoped threads over contiguous chunks
//!   ([`par`]), mirroring the paper's OpenMP usage;
//! * every generator, source draw and fault decision reads one
//!   pseudo-random stream ([`rng`]).
//!
//! Vertex ids are `u32` ([`VertexId`]): the paper's largest graphs have
//! ~537 M vertices, within `u32` range; edge counts use `u64`.
#![forbid(unsafe_code)]

pub mod bipartite;
pub mod bitvec;
pub mod cc;
pub mod csr;
pub mod degree;
pub mod edgelist;
pub mod fixtures;
pub mod io;
pub mod msbfs;
pub mod par;
pub mod rng;

pub use bipartite::RatingsGraph;
pub use bitvec::{AtomicBitVec, BitVec};
pub use cc::{connected_components, ComponentStats, UnionFind};
pub use csr::{intersect_count, Csr, DirectedGraph, RowBitmap, UndirectedGraph};
pub use degree::DegreeStats;
pub use edgelist::{EdgeList, WeightedEdgeList};

/// Vertex identifier. `u32` keeps adjacency arrays half the size of `usize`
/// arrays, doubling effective memory bandwidth on edge streams (§6.1.1).
pub type VertexId = u32;

/// Edge weight / rating type used by collaborative filtering.
pub type Weight = f32;

/// Errors produced by graph construction and IO.
#[derive(Debug)]
pub enum GraphError {
    /// An edge endpoint was >= the declared vertex count.
    VertexOutOfRange { vertex: u64, num_vertices: u64 },
    /// Input could not be parsed.
    Parse { line: usize, msg: String },
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => {
                write!(
                    f,
                    "vertex {vertex} out of range (num_vertices={num_vertices})"
                )
            }
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
