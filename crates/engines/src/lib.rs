#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // per-node kernels index several parallel arrays by the same id

//! # graphmaze-engines
//!
//! Re-implementations of the six graph-framework **programming models**
//! the paper benchmarks (§3), each running the four algorithms through
//! its own abstraction on the simulated cluster:
//!
//! | module | framework | model | partitioning | comm layer |
//! |---|---|---|---|---|
//! | [`vertex::graphlab`] | GraphLab v2.2 | vertex programs, async-ish, combiners | 1-D + hub replication | sockets |
//! | [`vertex::giraph`]   | Giraph 1.1    | BSP vertex programs, whole-superstep buffering | 1-D | Netty |
//! | [`spmv`]             | CombBLAS 1.3  | sparse-matrix semiring algebra | 2-D grid | MPI |
//! | [`datalog`]          | SociaLite     | Datalog rules over sharded tables | 1-D shards | (multi-)sockets |
//! | [`taskpar`]          | Galois 2.2    | work-item task parallelism | flexible, single node | — |
//! | [`graphmat`]         | GraphMat      | vertex programs auto-lowered to masked SpMSpV | 2-D grid | MPI |
//!
//! Every engine executes the *real* algorithm on real data — results are
//! tested identical to `graphmaze-native` — while the simulator meters
//! work, traffic and memory under the framework's documented mechanisms
//! ([`graphmaze_cluster::ExecProfile`]).

pub mod datalog;
pub mod graphmat;
pub mod spmv;
pub mod taskpar;
pub mod vertex;
