//! Cross-engine equivalence: every framework must compute the same
//! answers as the hand-optimized native code, on multiple graphs and
//! node counts — the correctness backbone of the whole study. (The paper
//! compares *performance*; these tests pin down that our engines really
//! run the same algorithms.)
//!
//! The centerpiece is the **conformance matrix**: every
//! `algorithm × framework` cell checked against the native golden digest
//! on two graph scales. When a per-vertex algorithm diverges, the
//! failure message names the *first diverging vertex* with both values,
//! read from the per-vertex [`Output`] of `run_output` — not just "the
//! digests differ".

use graphmaze_core::datagen::rmat;
use graphmaze_core::native::bfs::validate_distances;
use graphmaze_core::native::triangle::triangles_brute_force;
use graphmaze_core::prelude::*;

const MULTI_NODE_FRAMEWORKS: [Framework; 6] = [
    Framework::CombBlas,
    Framework::GraphLab,
    Framework::SociaLite,
    Framework::SociaLiteUnopt,
    Framework::Giraph,
    Framework::GraphMat,
];

/// Every `Framework` variant, Table 7's unoptimized SociaLite included.
const ALL_FRAMEWORKS: [Framework; 8] = [
    Framework::Native,
    Framework::CombBlas,
    Framework::GraphLab,
    Framework::SociaLite,
    Framework::SociaLiteUnopt,
    Framework::Giraph,
    Framework::Galois,
    Framework::GraphMat,
];

fn graph_workloads() -> Vec<Workload> {
    vec![
        Workload::rmat(9, 8, 101),
        Workload::rmat_triangle(9, 8, 102),
        Workload::from_dataset(Dataset::FacebookLike, 13, 103),
    ]
}

#[test]
fn pagerank_identical_across_engines_and_node_counts() {
    let params = BenchParams::default();
    for wl in graph_workloads() {
        let reference = run_benchmark(Algorithm::PageRank, Framework::Native, &wl, 1, &params)
            .expect("native single node");
        for nodes in [1usize, 2, 4, 8] {
            let native = run_benchmark(Algorithm::PageRank, Framework::Native, &wl, nodes, &params)
                .expect("native");
            assert!(
                (native.digest - reference.digest).abs() / reference.digest.abs() < 1e-9,
                "native digest varies with node count on {}",
                wl.name
            );
            for fw in MULTI_NODE_FRAMEWORKS {
                let out = run_benchmark(Algorithm::PageRank, fw, &wl, nodes, &params)
                    .unwrap_or_else(|e| panic!("{fw:?} on {} x{nodes}: {e}", wl.name));
                let rel = (out.digest - reference.digest).abs() / reference.digest.abs();
                assert!(rel < 1e-9, "{fw:?} on {} x{nodes}: rel err {rel}", wl.name);
            }
        }
        // Galois, single node
        let out =
            run_benchmark(Algorithm::PageRank, Framework::Galois, &wl, 1, &params).expect("galois");
        assert!((out.digest - reference.digest).abs() / reference.digest.abs() < 1e-9);
    }
}

#[test]
fn bfs_distances_identical_across_engines() {
    let params = BenchParams::default();
    for wl in graph_workloads() {
        let reference =
            run_benchmark(Algorithm::Bfs, Framework::Native, &wl, 1, &params).expect("native");
        for nodes in [2usize, 4] {
            for fw in MULTI_NODE_FRAMEWORKS {
                let out = run_benchmark(Algorithm::Bfs, fw, &wl, nodes, &params)
                    .unwrap_or_else(|e| panic!("{fw:?} on {}: {e}", wl.name));
                assert_eq!(
                    out.digest, reference.digest,
                    "{fw:?} on {} x{nodes}",
                    wl.name
                );
            }
        }
        let galois =
            run_benchmark(Algorithm::Bfs, Framework::Galois, &wl, 1, &params).expect("galois");
        assert_eq!(galois.digest, reference.digest, "galois on {}", wl.name);
    }
}

#[test]
fn triangle_counts_identical_across_engines() {
    let params = BenchParams::default();
    for wl in graph_workloads() {
        let reference = run_benchmark(Algorithm::TriangleCount, Framework::Native, &wl, 1, &params)
            .expect("native");
        assert!(reference.digest >= 0.0);
        for nodes in [2usize, 4] {
            for fw in MULTI_NODE_FRAMEWORKS {
                let out = run_benchmark(Algorithm::TriangleCount, fw, &wl, nodes, &params)
                    .unwrap_or_else(|e| panic!("{fw:?} on {}: {e}", wl.name));
                assert_eq!(
                    out.digest, reference.digest,
                    "{fw:?} on {} x{nodes}",
                    wl.name
                );
            }
        }
        let galois = run_benchmark(Algorithm::TriangleCount, Framework::Galois, &wl, 1, &params)
            .expect("galois");
        assert_eq!(galois.digest, reference.digest);
    }
}

#[test]
fn cf_training_error_drops_under_every_engine() {
    let params = BenchParams {
        cf_iterations: 5,
        ..BenchParams::default()
    };
    let wl = Workload::rmat_ratings(9, 64, 104);
    let g = wl.ratings.as_ref().unwrap();
    // untrained rmse baseline: tiny random factors predict ~0 stars
    let untrained = {
        let mut sse = 0.0;
        for (_, _, r) in g.triples() {
            sse += f64::from(r) * f64::from(r);
        }
        (sse / g.num_ratings() as f64).sqrt()
    };
    for fw in Framework::EXTENDED {
        let nodes = if fw.multi_node() { 4 } else { 1 };
        let out = run_benchmark(Algorithm::CollaborativeFiltering, fw, &wl, nodes, &params)
            .unwrap_or_else(|e| panic!("{fw:?}: {e}"));
        assert!(
            out.digest < untrained,
            "{fw:?}: trained rmse {} !< untrained {untrained}",
            out.digest
        );
    }
}

// ---------------------------------------------------------------------
// Conformance matrix
// ---------------------------------------------------------------------

/// Relative tolerance for floating-point digests (PageRank): the engines
/// reorder the same additions, nothing more.
const REL_TOL: f64 = 1e-9;

/// The per-vertex PageRank vector of one cell, for divergence reporting.
fn pagerank_vector(fw: Framework, wl: &Workload, nodes: usize, params: &BenchParams) -> Vec<f64> {
    match run_output(Algorithm::PageRank, fw, wl, nodes, params) {
        Ok((Output::Ranks(ranks), _)) => ranks,
        other => panic!("{fw:?} pagerank vector: {other:?}"),
    }
}

/// The per-vertex BFS distance vector of one cell (from the source
/// `params` selects — by default the highest-degree vertex).
fn bfs_vector(fw: Framework, wl: &Workload, nodes: usize, params: &BenchParams) -> Vec<u32> {
    match run_output(Algorithm::Bfs, fw, wl, nodes, params) {
        Ok((Output::Distances(dist), _)) => dist,
        other => panic!("{fw:?} bfs vector: {other:?}"),
    }
}

/// First index where `got` diverges from `reference` beyond `rel_tol`,
/// with both values. A length mismatch diverges at the shorter length.
fn first_divergence_f64(reference: &[f64], got: &[f64], rel_tol: f64) -> Option<(usize, f64, f64)> {
    if reference.len() != got.len() {
        let n = reference.len().min(got.len());
        return Some((
            n,
            *reference.get(n).unwrap_or(&f64::NAN),
            *got.get(n).unwrap_or(&f64::NAN),
        ));
    }
    reference
        .iter()
        .zip(got)
        .enumerate()
        .find_map(|(i, (&a, &b))| {
            let rel = (a - b).abs() / a.abs().max(1e-300);
            (rel > rel_tol).then_some((i, a, b))
        })
}

/// First index where two exact (integer) vectors differ.
fn first_divergence_u32(reference: &[u32], got: &[u32]) -> Option<(usize, u32, u32)> {
    if reference.len() != got.len() {
        let n = reference.len().min(got.len());
        return Some((
            n,
            *reference.get(n).unwrap_or(&u32::MAX),
            *got.get(n).unwrap_or(&u32::MAX),
        ));
    }
    reference
        .iter()
        .zip(got)
        .enumerate()
        .find_map(|(i, (&a, &b))| (a != b).then_some((i, a, b)))
}

/// Readable one-line diff for a PageRank divergence: which vertex first
/// disagrees, both values, and how far in the vectors still agreed.
fn pagerank_diff(fw: Framework, wl: &Workload, nodes: usize, params: &BenchParams) -> String {
    let reference = pagerank_vector(Framework::Native, wl, 1, params);
    let got = pagerank_vector(fw, wl, nodes, params);
    match first_divergence_f64(&reference, &got, REL_TOL) {
        Some((v, want, have)) => format!(
            "first diverging vertex: v={v} — native {want:.17e} vs {} {have:.17e} \
             (rel err {:.3e}); first {v} vertices agree",
            fw.name(),
            (want - have).abs() / want.abs().max(1e-300),
        ),
        None => "per-vertex ranks agree; digest-only divergence (summation order?)".to_string(),
    }
}

/// Readable one-line diff for a BFS divergence.
fn bfs_diff(fw: Framework, wl: &Workload, nodes: usize, params: &BenchParams) -> String {
    let reference = bfs_vector(Framework::Native, wl, 1, params);
    let got = bfs_vector(fw, wl, nodes, params);
    match first_divergence_u32(&reference, &got) {
        Some((v, want, have)) => {
            let show = |d: u32| {
                if d == u32::MAX {
                    "unreached".to_string()
                } else {
                    d.to_string()
                }
            };
            format!(
                "first diverging vertex: v={v} — native dist {} vs {} dist {}; \
                 first {v} vertices agree",
                show(want),
                fw.name(),
                show(have),
            )
        }
        None => "per-vertex distances agree; digest-only divergence".to_string(),
    }
}

fn untrained_rmse(g: &RatingsGraph) -> f64 {
    let mut sse = 0.0;
    for (_, _, r) in g.triples() {
        sse += f64::from(r) * f64::from(r);
    }
    (sse / g.num_ratings().max(1) as f64).sqrt()
}

/// The full conformance matrix: every `algorithm × framework` cell of
/// [`Framework::EXTENDED`] (28 cells) against the native golden, on **two**
/// graph scales. Exact digest equality for BFS and triangle counting,
/// `1e-9` relative for PageRank, convergence-below-untrained for CF
/// (whose engines legitimately differ — SGD vs GD). Failures for the
/// per-vertex algorithms report the first diverging vertex.
#[test]
fn conformance_matrix_covers_every_algorithm_and_framework_on_two_scales() {
    let params = BenchParams::default();
    for scale in [8u32, 10] {
        let graph = Workload::rmat(scale, 8, 200 + u64::from(scale));
        let ratings = Workload::rmat_ratings(scale, 64, 210 + u64::from(scale));
        let untrained = untrained_rmse(ratings.ratings().unwrap());
        let mut cells = 0usize;
        for alg in Algorithm::ALL {
            let wl = if alg == Algorithm::CollaborativeFiltering {
                &ratings
            } else {
                &graph
            };
            let golden = run_benchmark(alg, Framework::Native, wl, 1, &params)
                .unwrap_or_else(|e| panic!("native golden {alg:?} on {}: {e}", wl.name));
            for fw in Framework::EXTENDED {
                let nodes = if fw.multi_node() { 4 } else { 1 };
                let out = run_benchmark(alg, fw, wl, nodes, &params)
                    .unwrap_or_else(|e| panic!("{fw:?}/{alg:?} on {} x{nodes}: {e}", wl.name));
                match alg {
                    Algorithm::PageRank => {
                        let rel =
                            (out.digest - golden.digest).abs() / golden.digest.abs().max(1e-300);
                        assert!(
                            rel < REL_TOL,
                            "{fw:?} pagerank on {} x{nodes}: digest {} vs native {} \
                             (rel err {rel:.3e})\n{}",
                            wl.name,
                            out.digest,
                            golden.digest,
                            pagerank_diff(fw, &graph, nodes, &params),
                        );
                    }
                    Algorithm::Bfs => {
                        assert!(
                            out.digest == golden.digest,
                            "{fw:?} bfs on {} x{nodes}: digest {} vs native {}\n{}",
                            wl.name,
                            out.digest,
                            golden.digest,
                            bfs_diff(fw, &graph, nodes, &params),
                        );
                    }
                    Algorithm::TriangleCount => {
                        assert!(
                            out.digest == golden.digest,
                            "{fw:?} triangle count on {} x{nodes}: {} vs native {}",
                            wl.name,
                            out.digest,
                            golden.digest,
                        );
                    }
                    Algorithm::CollaborativeFiltering => {
                        assert!(
                            out.digest.is_finite() && out.digest > 0.0 && out.digest < untrained,
                            "{fw:?} cf on {} x{nodes}: trained rmse {} !< untrained {untrained} \
                             (native golden {})",
                            wl.name,
                            out.digest,
                            golden.digest,
                        );
                    }
                    Algorithm::MsBfs => unreachable!("MsBfs is not in Algorithm::ALL"),
                }
                cells += 1;
            }
        }
        assert_eq!(cells, 28, "4 algorithms x 7 frameworks at scale {scale}");
    }
}

/// The per-source distance rows of one msbfs cell. Only five frameworks
/// have a port (SociaLite's Datalog model and Galois' task queues have
/// no word-parallel equivalent — `Framework::supports` says so and
/// `run_output` returns `InvalidConfig`). GraphMat's port is not
/// hand-written: the word-wise OR gather lowers onto the `OR_PASS`
/// algebra automatically.
fn msbfs_rows_for(
    fw: Framework,
    wl: &Workload,
    nodes: usize,
    params: &BenchParams,
) -> Vec<Vec<u32>> {
    match run_output(Algorithm::MsBfs, fw, wl, nodes, params) {
        Ok((Output::Rows(rows), _)) => rows,
        other => panic!("{fw:?} msbfs rows: {other:?}"),
    }
}

/// Readable one-line diff for an msbfs divergence: which (source, vertex)
/// cell first disagrees, with both distances.
fn msbfs_diff(fw: Framework, wl: &Workload, nodes: usize, params: &BenchParams) -> String {
    let sources = graphmaze_core::runner::msbfs_sources(
        wl.undirected().unwrap().num_vertices() as u32,
        params.msbfs_sources,
        params.msbfs_seed,
    );
    let reference = msbfs_rows_for(Framework::Native, wl, 1, params);
    let got = msbfs_rows_for(fw, wl, nodes, params);
    if reference.len() != got.len() {
        return format!(
            "row count mismatch: native {} rows vs {} {} rows",
            reference.len(),
            fw.name(),
            got.len()
        );
    }
    for (i, (want, have)) in reference.iter().zip(&got).enumerate() {
        if let Some((v, a, b)) = first_divergence_u32(want, have) {
            let show = |d: u32| {
                if d == u32::MAX {
                    "unreached".to_string()
                } else {
                    d.to_string()
                }
            };
            return format!(
                "first diverging cell: source #{i} (vertex {}), v={v} — native dist {} vs {} \
                 dist {}; first {v} vertices of that row agree",
                sources[i],
                show(a),
                fw.name(),
                show(b),
            );
        }
    }
    "per-source rows agree; digest-only divergence".to_string()
}

/// The msbfs extension column of the conformance matrix: every framework
/// with a bit-parallel multi-source BFS port against the native golden,
/// on two graph scales and two node counts. Distances are exact, so the
/// digests must match bit-for-bit; failures name the first diverging
/// (source, vertex) cell. SociaLite and Galois must report `n/a` via
/// `InvalidConfig` rather than fabricating a result.
#[test]
fn msbfs_conformance_cells_match_native_on_two_scales() {
    let params = BenchParams::default();
    let ported = [
        Framework::Native,
        Framework::CombBlas,
        Framework::GraphLab,
        Framework::Giraph,
        Framework::GraphMat,
    ];
    for scale in [8u32, 10] {
        let wl = Workload::rmat(scale, 8, 200 + u64::from(scale));
        let golden = run_benchmark(Algorithm::MsBfs, Framework::Native, &wl, 1, &params)
            .unwrap_or_else(|e| panic!("native msbfs golden on {}: {e}", wl.name));
        let mut cells = 0usize;
        for fw in ported {
            for nodes in [2usize, 4] {
                let out = run_benchmark(Algorithm::MsBfs, fw, &wl, nodes, &params)
                    .unwrap_or_else(|e| panic!("{fw:?} msbfs on {} x{nodes}: {e}", wl.name));
                assert!(
                    out.digest == golden.digest,
                    "{fw:?} msbfs on {} x{nodes}: digest {} vs native {}\n{}",
                    wl.name,
                    out.digest,
                    golden.digest,
                    msbfs_diff(fw, &wl, nodes, &params),
                );
                cells += 1;
            }
        }
        assert_eq!(cells, 10, "5 ported frameworks x 2 node counts");
        // frameworks without a port stay honest "n/a" cells
        for fw in [Framework::SociaLite, Framework::Galois] {
            let nodes = if fw.multi_node() { 2 } else { 1 };
            let err = run_benchmark(Algorithm::MsBfs, fw, &wl, nodes, &params)
                .expect_err("unported framework must refuse msbfs");
            assert!(
                matches!(err, SimError::InvalidConfig(_)),
                "{fw:?}: expected InvalidConfig, got {err:?}"
            );
        }
    }
}

/// The dispatch table's shape: a cell runs exactly when the framework
/// has a port of the algorithm ([`Framework::supports`]) and the node
/// count fits it ([`Framework::multi_node`]); every other cell is a
/// typed `InvalidConfig`, never a panic or a fabricated answer.
#[test]
fn a_cell_runs_exactly_when_the_framework_supports_it() {
    let params = BenchParams::default();
    let graph = Workload::rmat(7, 8, 220);
    let ratings = Workload::rmat_ratings(7, 16, 221);
    for fw in ALL_FRAMEWORKS {
        for alg in Algorithm::EXTENDED {
            let wl = if alg == Algorithm::CollaborativeFiltering {
                &ratings
            } else {
                &graph
            };
            for nodes in [1usize, 2] {
                let runnable = fw.supports(alg) && (nodes == 1 || fw.multi_node());
                match run_output(alg, fw, wl, nodes, &params) {
                    Ok(_) => assert!(runnable, "{fw:?}/{alg:?} x{nodes} ran"),
                    Err(SimError::InvalidConfig(why)) => {
                        assert!(!runnable, "{fw:?}/{alg:?} x{nodes} refused: {why}")
                    }
                    Err(e) => panic!("{fw:?}/{alg:?} x{nodes}: {e}"),
                }
            }
        }
    }
}

/// Right, not just consistent: every other test here compares an engine
/// to the native golden, so a bug shared with native passes. These two
/// oracles share no code with any engine — the Graph500-style distance
/// validator and the O(n³) triangle count — and check every framework's
/// own `Output` on a 2⁷-vertex RMAT.
#[test]
fn bfs_and_triangle_outputs_pass_independent_oracles_under_every_framework() {
    let el = rmat::generate(&RmatConfig {
        scale: 7,
        edge_factor: 8,
        params: RmatParams::TRIANGLE,
        seed: 230,
        scramble_ids: true,
        threads: 1,
    });
    let wl = Workload::from_edge_list("oracle-s7", &el);
    let g = wl.undirected().unwrap();
    let source = (0..g.num_vertices() as u32)
        .find(|&v| g.adj.degree(v) > 0)
        .expect("the graph has an edge");
    let params = BenchParams {
        bfs_source: source,
        ..BenchParams::default()
    };
    let triangles = triangles_brute_force(el.edges(), el.num_vertices() as usize);
    assert!(triangles > 0, "triangle-tuned RMAT must contain triangles");
    for fw in ALL_FRAMEWORKS {
        for nodes in [1usize, 4] {
            if nodes > 1 && !fw.multi_node() {
                continue;
            }
            match run_output(Algorithm::Bfs, fw, &wl, nodes, &params) {
                Ok((Output::Distances(dist), _)) => assert!(
                    validate_distances(g, source, &dist),
                    "{fw:?} x{nodes}: invalid BFS labelling from {source}"
                ),
                other => panic!("{fw:?} bfs x{nodes}: {other:?}"),
            }
            match run_output(Algorithm::TriangleCount, fw, &wl, nodes, &params) {
                Ok((Output::Triangles(count), _)) => {
                    assert_eq!(count, triangles, "{fw:?} x{nodes} vs brute force")
                }
                other => panic!("{fw:?} triangles x{nodes}: {other:?}"),
            }
        }
    }
}

/// Textbook queue BFS from `source`, the msbfs oracle: it shares no
/// code with the kernel or any engine.
fn queue_bfs(g: &UndirectedGraph, source: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_vertices()];
    dist[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        for &v in g.adj.neighbors(u) {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = dist[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// msbfs is otherwise compared only to native, and native's cell and
/// kernel share one level loop, so a bug in that loop would pass. Every
/// ported framework's own rows are checked against a queue BFS and the
/// Graph500-style validator instead, at 1 and 4 nodes. One graph is
/// padded with isolated vertices and takes 100 sources (two word
/// passes); on both, the source draw includes isolated vertices.
#[test]
fn msbfs_rows_pass_independent_oracles_under_every_ported_framework() {
    let el = rmat::generate(&RmatConfig {
        scale: 7,
        edge_factor: 8,
        params: RmatParams::GRAPH500,
        seed: 240,
        scramble_ids: true,
        threads: 1,
    });
    let padded =
        EdgeList::from_edges(2 * el.num_vertices(), el.edges().to_vec()).expect("ids in range");
    let ported = [
        Framework::Native,
        Framework::CombBlas,
        Framework::GraphLab,
        Framework::Giraph,
        Framework::GraphMat,
    ];
    for (wl, count) in [
        (
            Workload::from_edge_list("msbfs-oracle-padded", &padded),
            100,
        ),
        (Workload::rmat(8, 4, 241), 64),
    ] {
        let g = wl.undirected().unwrap();
        let params = BenchParams {
            msbfs_sources: count,
            ..BenchParams::default()
        };
        let sources = graphmaze_core::runner::msbfs_sources(
            g.num_vertices() as u32,
            count,
            params.msbfs_seed,
        );
        assert!(
            sources.iter().any(|&s| g.adj.degree(s) == 0),
            "{}: the draw must include an isolated source",
            wl.name
        );
        let want: Vec<Vec<u32>> = sources.iter().map(|&s| queue_bfs(g, s)).collect();
        for fw in ported {
            for nodes in [1usize, 4] {
                let rows = msbfs_rows_for(fw, &wl, nodes, &params);
                assert_eq!(rows.len(), sources.len(), "{fw:?} x{nodes} on {}", wl.name);
                for (i, (&s, row)) in sources.iter().zip(&rows).enumerate() {
                    assert!(
                        validate_distances(g, s, row),
                        "{fw:?} x{nodes} on {}: invalid row {i} from {s}",
                        wl.name
                    );
                    assert!(
                        *row == want[i],
                        "{fw:?} x{nodes} on {}: row {i} from {s} differs from queue BFS",
                        wl.name
                    );
                }
            }
        }
    }
}

/// Stronger than the digest matrix: the *per-vertex* PageRank and BFS
/// vectors agree elementwise across all eight engine variants (including
/// the unoptimized SociaLite and the lowered GraphMat). This is the same machinery the diff
/// reporting uses, exercised on the success path.
#[test]
fn per_vertex_vectors_agree_across_all_engines() {
    let params = BenchParams::default();
    let wl = Workload::rmat(9, 8, 106);
    let ranks = pagerank_vector(Framework::Native, &wl, 1, &params);
    let dist = bfs_vector(Framework::Native, &wl, 1, &params);
    for fw in ALL_FRAMEWORKS {
        let nodes = if fw.multi_node() { 4 } else { 1 };
        let got = pagerank_vector(fw, &wl, nodes, &params);
        if let Some((v, want, have)) = first_divergence_f64(&ranks, &got, REL_TOL) {
            panic!("{fw:?} pagerank v={v}: native {want:.17e} vs {have:.17e}");
        }
        let gd = bfs_vector(fw, &wl, nodes, &params);
        if let Some((v, want, have)) = first_divergence_u32(&dist, &gd) {
            panic!("{fw:?} bfs v={v}: native dist {want} vs {have}");
        }
    }
}

/// The divergence reporters must localize a *planted* divergence at the
/// right vertex — otherwise a real conformance failure would point at
/// the wrong place.
#[test]
fn divergence_reporters_localize_planted_divergences() {
    let reference = vec![1.0, 2.0, 3.0, 4.0];
    assert_eq!(first_divergence_f64(&reference, &reference, REL_TOL), None);
    let mut bad = reference.clone();
    bad[2] = 3.5;
    assert_eq!(
        first_divergence_f64(&reference, &bad, REL_TOL),
        Some((2, 3.0, 3.5))
    );
    // sub-tolerance wiggle is not a divergence
    let mut wiggle = reference.clone();
    wiggle[1] = 2.0 * (1.0 + 1e-12);
    assert_eq!(first_divergence_f64(&reference, &wiggle, REL_TOL), None);
    // length mismatch diverges at the shorter length
    assert_eq!(
        first_divergence_f64(&reference, &reference[..3], REL_TOL).map(|(i, ..)| i),
        Some(3)
    );

    let d = vec![0u32, 1, 2, u32::MAX];
    assert_eq!(first_divergence_u32(&d, &d), None);
    let mut bd = d.clone();
    bd[3] = 3;
    assert_eq!(first_divergence_u32(&d, &bd), Some((3, u32::MAX, 3)));
}

#[test]
fn native_is_never_slower_than_any_framework() {
    let params = BenchParams::default();
    let graph = Workload::rmat(10, 8, 105);
    let ratings = Workload::rmat_ratings(9, 64, 105);
    for alg in Algorithm::ALL {
        let wl = if alg == Algorithm::CollaborativeFiltering {
            &ratings
        } else {
            &graph
        };
        for nodes in [1usize, 4] {
            let native = run_benchmark(alg, Framework::Native, wl, nodes, &params).unwrap();
            for fw in Framework::EXTENDED {
                if fw == Framework::Native || (!fw.multi_node() && nodes > 1) {
                    continue;
                }
                let out = run_benchmark(alg, fw, wl, nodes, &params)
                    .unwrap_or_else(|e| panic!("{fw:?}/{alg:?} x{nodes}: {e}"));
                assert!(
                    out.report.sim_seconds >= native.report.sim_seconds * 0.99,
                    "{fw:?} beat native on {alg:?} x{nodes}: {} < {}",
                    out.report.sim_seconds,
                    native.report.sim_seconds
                );
            }
        }
    }
}
