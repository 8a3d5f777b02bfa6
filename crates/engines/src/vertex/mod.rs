//! Vertex programming — the "think like a vertex" model of GraphLab and
//! Giraph (paper §3, Algorithms 1 and 2).
//!
//! [`gas`] is the declarative gather–apply–scatter IR together with the
//! job description and the [`Backend`] that runs it; [`programs`] holds
//! the algorithms written against the IR (exactly the pseudocode of the
//! paper) and their jobs; [`engine`] is the BSP executor; [`graphlab`],
//! [`giraph`] and [`related`] configure it with each framework's runtime
//! behaviour. `crate::graphmat` lowers the same jobs onto the SpMV
//! backend instead.

pub mod engine;
pub mod gas;
pub mod giraph;
pub mod graphlab;
pub mod programs;
pub mod related;

pub use engine::{EngineConfig, VertexGraphView};
pub use gas::{ApplyContext, Backend, GasJob, GasProgram, GatherMode, Gathered};
