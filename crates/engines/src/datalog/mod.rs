//! Datalog over sharded tables — the SociaLite model (paper §3).
//!
//! "In SociaLite, the graph and its meta data is stored in tables, and
//! declarative rules are written to implement graph algorithms.
//! SociaLite tables are horizontally partitioned, or sharded ... the
//! runtime partitions and distributes the tables accordingly."
//!
//! [`table`] implements sharded vertex tables and tail-nested edge
//! tables (the paper's CSR-equivalent); [`eval`] the distributed rule
//! evaluation primitives (local joins + batched head-table transfers +
//! aggregation); [`socialite`] the four algorithms, each documented with
//! the actual SociaLite rules from the paper.

pub mod eval;
pub mod socialite;
pub mod table;

pub use eval::{Agg, SocialiteRuntime};
pub use table::{EdgeTable, VertexTable};
