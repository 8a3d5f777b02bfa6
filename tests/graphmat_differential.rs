//! Differential suite for the GraphMat lowering: every program in
//! `vertex::programs` must produce **bit-identical** values when
//! auto-lowered onto masked SpMSpV as it does under the Giraph vertex
//! engine, on both ER-style random edge lists and RMAT graphs, and the
//! lowered engine's sweep digests must match Giraph's at every `--jobs`
//! setting.
//!
//! The bit-identity hinges on the fold-order contract: Giraph's
//! whole-superstep buffered inbox at `splits = 1` delivers messages in
//! globally ascending source id, and the SPA folds partial products in
//! ascending-frontier order — the same order. For CF (the one f64
//! program whose result is fold-order sensitive across splits) Giraph is
//! therefore pinned at `splits = 1` here.

use graphmaze_core::native::triangle::orient_and_sort;
use graphmaze_core::prelude::*;
use graphmaze_engines::vertex::programs::{
    bfs_job, cf_gd_job, msbfs_job, pagerank_job, triangle_job, PageRankConvergentProgram,
};
use graphmaze_engines::vertex::{giraph, Backend, GasJob};

/// SplitMix64 — the same deterministic generator `tests/properties.rs`
/// samples cases from.
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Random ER-style edge list: `2..=max_v` vertices, `0..max_e` edges
/// (self-loops and duplicates allowed).
fn arb_edges(rng: &mut TestRng, max_v: u32, max_e: usize) -> (u32, Vec<(u32, u32)>) {
    let n = 2 + rng.below(u64::from(max_v) - 1) as u32;
    let e = rng.below(max_e as u64) as usize;
    let edges = (0..e)
        .map(|_| {
            (
                rng.below(u64::from(n)) as u32,
                rng.below(u64::from(n)) as u32,
            )
        })
        .collect();
    (n, edges)
}

/// A fixture: case name, vertex count, raw edge list.
type Fixture = (String, u32, Vec<(u32, u32)>);

/// The ER + RMAT fixture set every program-level test iterates: raw edge
/// lists, built into whichever graph view the program needs.
fn fixtures(base_seed: u64) -> Vec<Fixture> {
    let mut out = Vec::new();
    for case in 0..3u64 {
        let mut rng = TestRng(base_seed + case);
        let (n, edges) = arb_edges(&mut rng, 300, 1500);
        out.push((format!("er-{case}"), n, edges));
    }
    for case in 0..2u64 {
        let el = graphmaze_core::datagen::rmat::generate(&RmatConfig {
            scale: 8,
            edge_factor: 8,
            params: RmatParams::GRAPH500,
            seed: base_seed ^ (0xD1F0 + case),
            scramble_ids: false,
            threads: 1,
        });
        out.push((
            format!("rmat-{case}"),
            el.num_vertices() as u32,
            el.edges().to_vec(),
        ));
    }
    out
}

const NODES: usize = 4;

/// Giraph at `splits = 1`: the fold order the lowering replays.
fn giraph() -> Backend {
    Backend::Bsp(giraph::config(1))
}

#[test]
fn pagerank_lowering_is_bit_identical_to_giraph() {
    for (name, n, edges) in fixtures(0xA11C_E000) {
        let g = DirectedGraph::from_edges(u64::from(n), &edges);
        let job = || pagerank_job(&g, PAGERANK_R, 5);
        let (giraph_pr, _) = giraph().run(job(), NODES).unwrap();
        let (graphmat_pr, _) = Backend::GraphMat.run(job(), NODES).unwrap();
        assert_eq!(giraph_pr, graphmat_pr, "{name}: ranks diverge");
    }
}

#[test]
fn convergent_pagerank_lowering_tracks_the_aggregator_identically() {
    // the aggregator-driven variant exercises `prev_aggregate` threading
    // through both backends; it has no job constructor, so the job is
    // spelled out
    for (name, n, edges) in fixtures(0xA11C_E100) {
        let g = DirectedGraph::from_edges(u64::from(n), &edges);
        let job = || {
            let prog = PageRankConvergentProgram {
                r: PAGERANK_R,
                tolerance: 1e-4,
                max_iterations: 30,
            };
            GasJob::new(&g.out, prog, vec![1.0f64; g.num_vertices()], 32)
        };
        let (giraph_pr, _) = giraph().run(job(), NODES).unwrap();
        let (graphmat_pr, _) = Backend::GraphMat.run(job(), NODES).unwrap();
        assert_eq!(giraph_pr, graphmat_pr, "{name}: ranks diverge");
    }
}

#[test]
fn bfs_lowering_is_bit_identical_to_giraph() {
    for (name, n, edges) in fixtures(0xA11C_E200) {
        let g = UndirectedGraph::from_edges(u64::from(n), &edges);
        let source = (u64::from(n) / 3) as u32;
        let (giraph_d, _) = giraph().run(bfs_job(&g, source), NODES).unwrap();
        let (graphmat_d, _) = Backend::GraphMat.run(bfs_job(&g, source), NODES).unwrap();
        assert_eq!(giraph_d, graphmat_d, "{name}: distances diverge");
    }
}

#[test]
fn msbfs_lowering_is_bit_identical_to_giraph() {
    for (name, n, edges) in fixtures(0xA11C_E300) {
        let g = UndirectedGraph::from_edges(u64::from(n), &edges);
        // 65 sources so the mask spans two words
        let mut rng = TestRng(u64::from(n));
        let sources: Vec<u32> = (0..65).map(|_| rng.below(u64::from(n)) as u32).collect();
        let (giraph_rows, _) = giraph().run(msbfs_job(&g, &sources), NODES).unwrap();
        let (graphmat_rows, _) = Backend::GraphMat
            .run(msbfs_job(&g, &sources), NODES)
            .unwrap();
        assert_eq!(giraph_rows, graphmat_rows, "{name}: rows diverge");
    }
}

#[test]
fn triangle_lowering_matches_giraph_count() {
    for (name, n, edges) in fixtures(0xA11C_E400) {
        let el = EdgeList::from_edges(u64::from(n), edges).unwrap();
        let oriented = orient_and_sort(&el);
        let (giraph_tc, _) = giraph().run(triangle_job(&oriented), NODES).unwrap();
        let (graphmat_tc, _) = Backend::GraphMat
            .run(triangle_job(&oriented), NODES)
            .unwrap();
        assert_eq!(giraph_tc, graphmat_tc, "{name}: counts diverge");
    }
}

#[test]
fn cf_lowering_is_bit_identical_to_giraph_at_splits_1() {
    // two ratings shapes stand in for ER/RMAT (the bipartite generator is
    // the only source of ratings graphs); splits = 1 pins Giraph's f64
    // fold order to globally ascending source id, the order the SPA
    // replays
    for (scale, items, seed) in [(8u32, 64u32, 71u64), (9, 32, 72)] {
        let wl = Workload::rmat_ratings(scale, items, seed);
        let g = wl.ratings().unwrap();
        let job = || cf_gd_job(g, 8, 0.05, 0.005, 2);
        let (giraph_f, _) = giraph().run(job(), NODES).unwrap();
        let (graphmat_f, _) = Backend::GraphMat.run(job(), NODES).unwrap();
        assert_eq!(giraph_f, graphmat_f, "s{scale}/i{items}: factors diverge");
    }
}

/// One GraphMat + one Giraph cell per extended algorithm, with Giraph
/// pinned at `splits = 1` so CF is fold-order comparable.
fn differential_sweep() -> Sweep {
    let params = BenchParams {
        giraph_splits: 1,
        ..BenchParams::default()
    };
    let spec = |alg: Algorithm| match alg {
        Algorithm::TriangleCount => WorkloadSpec::RmatTriangle {
            scale: 8,
            edge_factor: 8,
            seed: 73,
        },
        Algorithm::CollaborativeFiltering => WorkloadSpec::RmatRatings {
            scale: 8,
            num_items: 64,
            seed: 73,
        },
        _ => WorkloadSpec::Rmat {
            scale: 8,
            edge_factor: 16,
            seed: 73,
        },
    };
    let mut sweep = Sweep::new("graphmat-diff");
    for alg in Algorithm::EXTENDED {
        for fw in [Framework::Giraph, Framework::GraphMat] {
            sweep.push(SweepCell {
                label: format!("{}-{}", alg.name(), fw.name()),
                algorithm: alg,
                framework: fw,
                spec: spec(alg),
                nodes: NODES,
                factor: 1.0,
                params,
                faults: FaultPlan::none(),
            });
        }
    }
    sweep
}

#[test]
fn sweep_digests_match_giraph_at_every_jobs_setting() {
    let sweep = differential_sweep();
    let cache = WorkloadCache::new();
    let mut per_jobs: Vec<Vec<f64>> = Vec::new();
    for jobs in [1usize, 4] {
        let report = sweep.execute(
            &SweepOptions {
                jobs,
                journal: None,
                resume: false,
                cell_timeout: None,
                telemetry: None,
            },
            &cache,
            &SilentObserver,
        );
        let digests: Vec<f64> = report
            .results
            .iter()
            .map(|r| r.outcome.as_ref().expect("cell runs").digest)
            .collect();
        // cells alternate Giraph, GraphMat per algorithm
        for (pair, alg) in digests.chunks(2).zip(Algorithm::EXTENDED) {
            assert_eq!(
                pair[0].to_bits(),
                pair[1].to_bits(),
                "jobs={jobs} {}: graphmat digest {} != giraph digest {}",
                alg.name(),
                pair[1],
                pair[0]
            );
        }
        per_jobs.push(digests);
    }
    assert_eq!(
        per_jobs[0].iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        per_jobs[1].iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
        "digests depend on --jobs"
    );
}
