//! Erdős–Rényi `G(n, m)` uniform random graphs.
//!
//! The non-power-law control: the paper contrasts its power-law ratings
//! generator with uniform samplers like Gemulla et al.'s (§4.1.2). ER
//! graphs also serve as ablation inputs for load-balance experiments,
//! since uniform degrees remove skew entirely.

use graphmaze_graph::rng::{splitmix64, SmallRng};
use graphmaze_graph::{EdgeList, VertexId};

/// Generates `num_edges` uniformly random directed edges over
/// `num_vertices` vertices (duplicates/self-loops possible; normalize with
/// [`EdgeList`] passes). Deterministic for a given seed.
pub fn generate(num_vertices: u64, num_edges: u64, seed: u64) -> EdgeList {
    assert!(num_vertices > 0, "need at least one vertex");
    assert!(
        num_vertices <= u64::from(u32::MAX),
        "vertex ids must fit u32"
    );
    let mut rng = SmallRng::seed_from_u64(splitmix64(seed));
    let mut edges = Vec::with_capacity(num_edges as usize);
    for _ in 0..num_edges {
        let s = rng.below(num_vertices) as VertexId;
        let d = rng.below(num_vertices) as VertexId;
        edges.push((s, d));
    }
    EdgeList::from_edges(num_vertices, edges).expect("ids in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphmaze_graph::csr::Csr;
    use graphmaze_graph::degree::DegreeStats;

    #[test]
    fn counts_and_ranges() {
        let el = generate(100, 500, 7);
        assert_eq!(el.num_vertices(), 100);
        assert_eq!(el.num_edges(), 500);
        assert!(el.edges().iter().all(|&(s, d)| s < 100 && d < 100));
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(50, 100, 3).edges(), generate(50, 100, 3).edges());
        assert_ne!(generate(50, 100, 3).edges(), generate(50, 100, 4).edges());
    }

    #[test]
    fn degrees_are_near_uniform() {
        let el = generate(1 << 10, 16 << 10, 11);
        let g = Csr::from_edges(el.num_vertices(), el.edges());
        let s = DegreeStats::of(&g);
        // Poisson(16) degrees: low skew compared to RMAT.
        assert!(s.gini < 0.25, "ER gini {} unexpectedly skewed", s.gini);
    }
}
