//! Cross-framework digest agreement through `run_benchmark`: every
//! framework's `(digest, report)` pair must carry the same answer for
//! the same input — triangle counts exactly, BFS finite-distance sums
//! exactly, PageRank rank sums within 1e-6.

use graphmaze_core::prelude::*;

const ALL_SEVEN: [Framework; 7] = [
    Framework::Native,
    Framework::CombBlas,
    Framework::GraphLab,
    Framework::SociaLite,
    Framework::SociaLiteUnopt,
    Framework::Giraph,
    Framework::Galois,
];

/// Node count each framework supports (Galois is single-node).
fn nodes_for(fw: Framework) -> usize {
    if fw.multi_node() {
        4
    } else {
        1
    }
}

#[test]
fn pagerank_rank_sums_agree_within_1e_6() {
    let wl = Workload::rmat(10, 8, 2024);
    let params = BenchParams::default();
    let reference = run_benchmark(Algorithm::PageRank, Framework::Native, &wl, 1, &params)
        .expect("native")
        .digest;
    assert!(reference.is_finite() && reference > 0.0);
    for fw in ALL_SEVEN {
        let digest = run_benchmark(Algorithm::PageRank, fw, &wl, nodes_for(fw), &params)
            .unwrap_or_else(|e| panic!("{fw:?}: {e}"))
            .digest;
        assert!(
            (digest - reference).abs() < 1e-6,
            "{fw:?} rank sum {digest} vs native {reference}"
        );
    }
}

#[test]
fn bfs_finite_distance_sums_agree_exactly() {
    let wl = Workload::rmat(10, 8, 2025);
    let params = BenchParams::default();
    let reference = run_benchmark(Algorithm::Bfs, Framework::Native, &wl, 1, &params)
        .expect("native")
        .digest;
    assert!(reference > 0.0, "BFS must reach vertices");
    for fw in ALL_SEVEN {
        let digest = run_benchmark(Algorithm::Bfs, fw, &wl, nodes_for(fw), &params)
            .unwrap_or_else(|e| panic!("{fw:?}: {e}"))
            .digest;
        assert_eq!(digest, reference, "{fw:?} finite-distance sum");
    }
}

#[test]
fn triangle_counts_agree_exactly() {
    let wl = Workload::rmat_triangle(10, 8, 2026);
    let params = BenchParams::default();
    let reference = run_benchmark(Algorithm::TriangleCount, Framework::Native, &wl, 1, &params)
        .expect("native")
        .digest;
    assert!(
        reference > 0.0,
        "triangle-tuned RMAT must contain triangles"
    );
    assert_eq!(reference.fract(), 0.0, "a count is an integer");
    for fw in ALL_SEVEN {
        let digest = run_benchmark(Algorithm::TriangleCount, fw, &wl, nodes_for(fw), &params)
            .unwrap_or_else(|e| panic!("{fw:?}: {e}"))
            .digest;
        assert_eq!(digest, reference, "{fw:?} triangle count");
    }
}

#[test]
fn cf_rmse_is_finite_and_comparable_across_frameworks() {
    let wl = Workload::rmat_ratings(10, 64, 2027);
    let params = BenchParams::default();
    let mut rmses = Vec::new();
    for fw in ALL_SEVEN {
        let digest = run_benchmark(
            Algorithm::CollaborativeFiltering,
            fw,
            &wl,
            nodes_for(fw),
            &params,
        )
        .unwrap_or_else(|e| panic!("{fw:?}: {e}"))
        .digest;
        assert!(digest.is_finite() && digest > 0.0, "{fw:?} rmse {digest}");
        rmses.push(digest);
    }
    // different engines use different factor initializations/schedules,
    // but all must land in the same ballpark on the same ratings
    let (min, max) = rmses
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    assert!(max / min < 3.0, "CF rmse spread too wide: {rmses:?}");
}
