//! # graphmaze-datagen
//!
//! Synthetic graph and ratings-matrix generators reproducing §4.1 of
//! Satish et al. (SIGMOD 2014):
//!
//! * [`rmat`] — the Graph500 RMAT recursive-matrix generator with the
//!   paper's parameter presets (default `A=0.57, B=C=0.19`; triangle
//!   counting `A=0.45, B=C=0.15`; ratings `A=0.40, B=C=0.22`);
//! * [`er`] — Erdős–Rényi uniform graphs, the non-power-law control;
//! * [`ratings`] — the paper's fold-based power-law ratings generator
//!   (§4.1.2): RMAT → column chunking → logical OR → min-degree filter;
//! * [`presets`] — named dataset recipes standing in for the paper's
//!   real-world datasets (Table 3) at configurable scale.
//!
//! All generators are deterministic given a seed, independent of thread
//! count.
#![forbid(unsafe_code)]

pub mod er;
pub mod presets;
pub mod ratings;
pub mod rmat;

pub use presets::{Dataset, DatasetSpec};
pub use ratings::RatingsGenConfig;
pub use rmat::{RmatConfig, RmatParams};
