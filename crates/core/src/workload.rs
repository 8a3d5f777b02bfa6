//! Workloads: a dataset prepared in every representation the four
//! algorithms need.
//!
//! The paper prepares each graph differently per algorithm (§4.1.2):
//! directed for PageRank, symmetrized for BFS, DAG-oriented for triangle
//! counting, bipartite ratings for CF. A [`Workload`] bundles all the
//! views so the runner can hand each engine the right one.

use graphmaze_cluster::SimError;
use graphmaze_datagen::{ratings, rmat, Dataset, RatingsGenConfig, RmatConfig, RmatParams};
use graphmaze_graph::csr::Csr;
use graphmaze_graph::{DirectedGraph, EdgeList, RatingsGraph, UndirectedGraph};
use graphmaze_native::triangle::orient_and_sort;

/// A named dataset in all algorithm-specific representations.
pub struct Workload {
    /// Display name.
    pub name: String,
    /// Directed view (PageRank).
    pub directed: Option<DirectedGraph>,
    /// Symmetrized view (BFS).
    pub undirected: Option<UndirectedGraph>,
    /// DAG-oriented sorted-adjacency view (triangle counting).
    pub oriented: Option<Csr>,
    /// Bipartite ratings (collaborative filtering).
    pub ratings: Option<RatingsGraph>,
}

impl Workload {
    /// Builds the three graph views from a raw edge list: the directed
    /// pair as given; the symmetrized and the oriented views each as one
    /// row-bucketed pass ([`Csr::from_pairs_dedup`]) that drops self-loops
    /// and duplicates.
    pub fn from_edge_list(name: impl Into<String>, el: &EdgeList) -> Self {
        let directed = DirectedGraph::from_edge_list(el);
        let both_ways = el
            .edges()
            .iter()
            .filter(|&&(s, d)| s != d)
            .flat_map(|&(s, d)| [(s, d), (d, s)]);
        let undirected = UndirectedGraph {
            adj: Csr::from_pairs_dedup(el.num_vertices(), both_ways),
        };
        let oriented = orient_and_sort(el);
        Workload {
            name: name.into(),
            directed: Some(directed),
            undirected: Some(undirected),
            oriented: Some(oriented),
            ratings: None,
        }
    }

    /// Wraps a ratings graph (CF-only workload).
    pub fn from_ratings(name: impl Into<String>, g: RatingsGraph) -> Self {
        Workload {
            name: name.into(),
            directed: None,
            undirected: None,
            oriented: None,
            ratings: Some(g),
        }
    }

    /// Generates an RMAT graph workload at `scale` with `edge_factor`.
    pub fn rmat(scale: u32, edge_factor: u32, seed: u64) -> Self {
        let el = rmat::generate(&RmatConfig {
            scale,
            edge_factor,
            params: RmatParams::GRAPH500,
            seed,
            scramble_ids: true,
            threads: 0,
        });
        Self::from_edge_list(format!("rmat-s{scale}-e{edge_factor}"), &el)
    }

    /// Generates the RMAT variant tuned for triangle counting
    /// (`A=0.45, B=C=0.15`, §4.1.2).
    pub fn rmat_triangle(scale: u32, edge_factor: u32, seed: u64) -> Self {
        let el = rmat::generate(&RmatConfig {
            scale,
            edge_factor,
            params: RmatParams::TRIANGLE,
            seed,
            scramble_ids: true,
            threads: 0,
        });
        Self::from_edge_list(format!("rmat-tc-s{scale}-e{edge_factor}"), &el)
    }

    /// Generates a synthetic ratings workload (§4.1.2 fold generator).
    pub fn rmat_ratings(scale: u32, num_items: u32, seed: u64) -> Self {
        let g = ratings::generate(&RatingsGenConfig {
            scale,
            edge_factor: 16,
            num_items,
            min_degree: 5,
            seed,
        });
        Self::from_ratings(format!("cf-s{scale}-i{num_items}"), g)
    }

    /// Instantiates a Table 3 dataset stand-in, scaled down by
    /// `2^scale_down`.
    pub fn from_dataset(ds: Dataset, scale_down: u32, seed: u64) -> Self {
        let name = ds.spec().name.to_string();
        if ds.bipartite() {
            Self::from_ratings(name, ds.generate_ratings(scale_down, seed))
        } else {
            let el = ds.generate_graph(scale_down, seed);
            Self::from_edge_list(name, &el)
        }
    }

    /// True when this workload carries a ratings graph.
    pub fn is_ratings(&self) -> bool {
        self.ratings.is_some()
    }

    /// The directed view (PageRank), or [`SimError::InvalidConfig`] when
    /// this workload doesn't carry one.
    pub fn directed(&self) -> Result<&DirectedGraph, SimError> {
        self.directed
            .as_ref()
            .ok_or_else(|| self.missing_view("directed"))
    }

    /// The symmetrized view (BFS), or [`SimError::InvalidConfig`].
    pub fn undirected(&self) -> Result<&UndirectedGraph, SimError> {
        self.undirected
            .as_ref()
            .ok_or_else(|| self.missing_view("undirected"))
    }

    /// The DAG-oriented view (triangle counting), or
    /// [`SimError::InvalidConfig`].
    pub fn oriented(&self) -> Result<&Csr, SimError> {
        self.oriented
            .as_ref()
            .ok_or_else(|| self.missing_view("oriented"))
    }

    /// The bipartite ratings (CF), or [`SimError::InvalidConfig`].
    pub fn ratings(&self) -> Result<&RatingsGraph, SimError> {
        self.ratings
            .as_ref()
            .ok_or_else(|| self.missing_view("ratings"))
    }

    fn missing_view(&self, view: &str) -> SimError {
        SimError::InvalidConfig(format!("workload '{}' has no {view} graph", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_workload_has_all_graph_views() {
        let wl = Workload::rmat(8, 4, 3);
        assert!(wl.directed.is_some());
        assert!(wl.undirected.is_some());
        assert!(wl.oriented.is_some());
        assert!(wl.ratings.is_none());
        assert!(!wl.is_ratings());
        let o = wl.oriented.as_ref().unwrap();
        assert!(o.neighbors_sorted());
    }

    #[test]
    fn ratings_workload() {
        let wl = Workload::rmat_ratings(9, 64, 3);
        assert!(wl.is_ratings());
        assert!(wl.directed.is_none());
        assert!(wl.ratings.as_ref().unwrap().num_ratings() > 0);
    }

    #[test]
    fn fallible_accessors_mirror_the_option_fields() {
        let wl = Workload::rmat(8, 4, 3);
        assert!(wl.directed().is_ok());
        assert!(wl.undirected().is_ok());
        assert!(wl.oriented().is_ok());
        let err = wl.ratings().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("ratings"), "{err}");
        assert!(err.to_string().contains(&wl.name), "{err}");

        let wl = Workload::rmat_ratings(9, 64, 3);
        assert!(wl.ratings().is_ok());
        assert!(matches!(wl.directed(), Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn dataset_workloads() {
        let wl = Workload::from_dataset(Dataset::FacebookLike, 13, 1);
        assert_eq!(wl.name, "facebook");
        assert!(!wl.is_ratings());
        let wl = Workload::from_dataset(Dataset::NetflixLike, 10, 1);
        assert_eq!(wl.name, "netflix");
        assert!(wl.is_ratings());
    }
}
