//! Named dataset recipes standing in for the paper's Table 3.
//!
//! The real datasets (Facebook interactions, Wikipedia links, LiveJournal,
//! Twitter followers, Netflix and Yahoo! Music ratings) are proprietary or
//! impractically large; per the paper's own observation that "trends on
//! the synthetic dataset are in line with real-world data" (§5.2), each
//! preset is an RMAT stand-in matching the original's vertex count, edge
//! factor and skew at a configurable scale-down.

use graphmaze_graph::{EdgeList, RatingsGraph};

use crate::ratings::{self, RatingsGenConfig};
use crate::rmat::{self, RmatConfig, RmatParams};

/// Paper-scale dimensions of a dataset (Table 3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DatasetSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Vertices at paper scale (users for bipartite datasets).
    pub num_vertices: u64,
    /// Items at paper scale (bipartite datasets only).
    pub num_items: u64,
    /// Edges / ratings at paper scale.
    pub num_edges: u64,
    /// Whether this is a bipartite ratings dataset.
    pub bipartite: bool,
}

/// The datasets of Table 3, as generator recipes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Facebook user-interaction graph stand-in (2.9 M vertices, 42 M edges).
    FacebookLike,
    /// Wikipedia link graph stand-in (3.6 M vertices, 85 M edges).
    WikipediaLike,
    /// LiveJournal follower graph stand-in (4.8 M vertices, 86 M edges).
    LiveJournalLike,
    /// Twitter follower graph stand-in (62 M vertices, 1.47 B edges).
    TwitterLike,
    /// Graph500 RMAT synthetic at a given scale (paper: scale 29, 8.6 B edges).
    Graph500 {
        /// log2 of the vertex count.
        scale: u32,
    },
    /// Netflix Prize ratings stand-in (480 K users × 17.8 K movies, 99 M ratings).
    NetflixLike,
    /// Yahoo! Music KDDCup 2011 stand-in (1 M users × 625 K items, 253 M ratings).
    YahooMusicLike,
    /// Synthetic collaborative-filtering dataset (paper: 63 M users, 16.7 B ratings).
    CfSynthetic {
        /// log2 of the user-side RMAT dimension.
        scale: u32,
    },
}

impl Dataset {
    /// All fixed-size presets (the real-world stand-ins).
    pub const REAL_WORLD: [Dataset; 6] = [
        Dataset::FacebookLike,
        Dataset::WikipediaLike,
        Dataset::LiveJournalLike,
        Dataset::TwitterLike,
        Dataset::NetflixLike,
        Dataset::YahooMusicLike,
    ];

    /// Paper-scale dimensions (Table 3).
    pub fn spec(&self) -> DatasetSpec {
        match *self {
            Dataset::FacebookLike => DatasetSpec {
                name: "facebook",
                num_vertices: 2_937_612,
                num_items: 0,
                num_edges: 41_919_708,
                bipartite: false,
            },
            Dataset::WikipediaLike => DatasetSpec {
                name: "wikipedia",
                num_vertices: 3_566_908,
                num_items: 0,
                num_edges: 84_751_827,
                bipartite: false,
            },
            Dataset::LiveJournalLike => DatasetSpec {
                name: "livejournal",
                num_vertices: 4_847_571,
                num_items: 0,
                num_edges: 85_702_475,
                bipartite: false,
            },
            Dataset::TwitterLike => DatasetSpec {
                name: "twitter",
                num_vertices: 61_578_415,
                num_items: 0,
                num_edges: 1_468_365_182,
                bipartite: false,
            },
            Dataset::Graph500 { scale } => DatasetSpec {
                name: "graph500",
                num_vertices: 1u64 << scale,
                num_items: 0,
                num_edges: 16u64 << scale,
                bipartite: false,
            },
            Dataset::NetflixLike => DatasetSpec {
                name: "netflix",
                num_vertices: 480_189,
                num_items: 17_770,
                num_edges: 99_072_112,
                bipartite: true,
            },
            Dataset::YahooMusicLike => DatasetSpec {
                name: "yahoo-music",
                num_vertices: 1_000_990,
                num_items: 624_961,
                num_edges: 252_800_275,
                bipartite: true,
            },
            Dataset::CfSynthetic { scale } => DatasetSpec {
                name: "cf-synthetic",
                num_vertices: 1u64 << scale,
                num_items: (1u64 << scale) / 48, // paper ratio ≈ 63.4M users : 1.34M items
                num_edges: 264u64 << scale.saturating_sub(1), // ≈ 16.7B at paper scale
                bipartite: true,
            },
        }
    }

    /// True for ratings datasets (use [`Dataset::generate_ratings`]).
    pub fn bipartite(&self) -> bool {
        self.spec().bipartite
    }

    /// RMAT scale of the dataset at paper size: ceil(log2 V).
    fn full_scale(&self) -> u32 {
        self.spec()
            .num_vertices
            .max(1)
            .next_power_of_two()
            .trailing_zeros()
    }

    /// The scale-down that brings the dataset to RMAT scale `target`,
    /// or none when it is smaller than that at paper size.
    pub fn scale_down_to(&self, target: u32) -> u32 {
        self.full_scale().saturating_sub(target)
    }

    /// RMAT scale (log2 vertices) for this dataset after dividing paper
    /// scale by `2^scale_down`, clamped to a minimum of 8.
    pub fn scaled_scale(&self, scale_down: u32) -> u32 {
        self.full_scale().saturating_sub(scale_down).max(8)
    }

    /// Average degree (edge factor) at paper scale, at least 1.
    pub fn edge_factor(&self) -> u32 {
        let s = self.spec();
        ((s.num_edges + s.num_vertices - 1) / s.num_vertices.max(1)).max(1) as u32
    }

    /// Generates the graph stand-in scaled down by `2^scale_down` with the
    /// given RMAT parameter family. Panics for bipartite datasets.
    pub fn generate_graph_with(&self, scale_down: u32, params: RmatParams, seed: u64) -> EdgeList {
        assert!(!self.bipartite(), "{:?} is a ratings dataset", self);
        let cfg = RmatConfig {
            scale: self.scaled_scale(scale_down),
            edge_factor: self.edge_factor(),
            params,
            seed,
            scramble_ids: true,
            threads: 0,
        };
        rmat::generate(&cfg)
    }

    /// Generates the graph stand-in with default Graph500 parameters.
    pub fn generate_graph(&self, scale_down: u32, seed: u64) -> EdgeList {
        self.generate_graph_with(scale_down, RmatParams::GRAPH500, seed)
    }

    /// Generates the ratings stand-in scaled down by `2^scale_down`.
    /// Panics for non-bipartite datasets.
    pub fn generate_ratings(&self, scale_down: u32, seed: u64) -> RatingsGraph {
        assert!(self.bipartite(), "{:?} is not a ratings dataset", self);
        let spec = self.spec();
        let scale = self.scaled_scale(scale_down);
        let items_full = spec.num_items.max(1);
        let num_items = (items_full >> scale_down).max(64) as u32;
        let cfg = RatingsGenConfig {
            scale,
            edge_factor: self.edge_factor().min(512),
            num_items,
            min_degree: 5,
            seed,
        };
        ratings::generate(&cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table3() {
        assert_eq!(Dataset::FacebookLike.spec().num_edges, 41_919_708);
        assert_eq!(Dataset::TwitterLike.spec().num_vertices, 61_578_415);
        assert_eq!(Dataset::NetflixLike.spec().num_items, 17_770);
        assert_eq!(
            Dataset::Graph500 { scale: 29 }.spec().num_vertices,
            536_870_912
        );
        // paper: 8,589,926,431 edges ≈ 16 * 2^29 (raw RMAT before dedup)
        assert_eq!(
            Dataset::Graph500 { scale: 29 }.spec().num_edges,
            8_589_934_592
        );
    }

    #[test]
    fn edge_factor_sane() {
        assert_eq!(Dataset::FacebookLike.edge_factor(), 15);
        assert_eq!(Dataset::Graph500 { scale: 20 }.edge_factor(), 16);
        assert!(Dataset::TwitterLike.edge_factor() >= 23);
    }

    #[test]
    fn scaled_scale_clamps() {
        // facebook full scale: ceil(log2(2.94M)) = 22
        assert_eq!(Dataset::FacebookLike.scaled_scale(0), 22);
        assert_eq!(Dataset::FacebookLike.scaled_scale(10), 12);
        assert_eq!(Dataset::FacebookLike.scaled_scale(30), 8);
    }

    #[test]
    fn scale_down_to_reaches_the_target_or_paper_size() {
        for ds in Dataset::REAL_WORLD {
            let full = ds.full_scale();
            assert!(1u64 << full >= ds.spec().num_vertices, "{ds:?}");
            assert!(1u64 << (full - 1) < ds.spec().num_vertices, "{ds:?}");
            for t in 6..=29 {
                assert_eq!(
                    ds.scaled_scale(ds.scale_down_to(t)),
                    full.min(t).max(8),
                    "{ds:?} at {t}"
                );
            }
        }
    }

    #[test]
    fn generate_scaled_graph() {
        let el = Dataset::FacebookLike.generate_graph(12, 1);
        assert_eq!(el.num_vertices(), 1 << 10);
        assert_eq!(el.num_edges(), 15 << 10);
    }

    #[test]
    fn generate_scaled_ratings() {
        let g = Dataset::NetflixLike.generate_ratings(9, 1);
        assert!(g.num_users() > 0);
        assert!(g.num_items() > 0);
        assert!(g.num_ratings() > 0);
    }

    #[test]
    #[should_panic(expected = "is a ratings dataset")]
    fn graph_call_on_ratings_panics() {
        Dataset::NetflixLike.generate_graph(10, 1);
    }

    #[test]
    #[should_panic(expected = "is not a ratings dataset")]
    fn ratings_call_on_graph_panics() {
        Dataset::FacebookLike.generate_ratings(10, 1);
    }

    #[test]
    fn real_world_list_is_table3() {
        assert_eq!(Dataset::REAL_WORLD.len(), 6);
        assert_eq!(
            Dataset::REAL_WORLD.iter().filter(|d| d.bipartite()).count(),
            2
        );
    }
}
