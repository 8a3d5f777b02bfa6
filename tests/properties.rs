//! Property-style tests on the core data structures and invariants of the
//! substrate crates. Each property is exercised over many pseudo-random
//! cases drawn from a deterministic in-test generator (fixed seeds, so
//! failures reproduce exactly; no external fuzzing dependency).

use graphmaze_core::cluster::compress::{decode, encode_best, encode_with, Encoding};
use graphmaze_core::cluster::{Partition1D, Partition2D};
use graphmaze_core::datagen::{rmat, RmatConfig, RmatParams};
use graphmaze_core::graph::bitvec::BitVec;
use graphmaze_core::graph::csr::{Csr, DirectedGraph, UndirectedGraph};
use graphmaze_core::graph::rng::{splitmix64, GOLDEN};
use graphmaze_core::native::bfs::{bfs, validate_distances, UNREACHED};
use graphmaze_core::native::pagerank::pagerank;
use graphmaze_core::native::triangle::{orient_and_sort, triangles, triangles_brute_force};
use graphmaze_core::prelude::*;

/// A SplitMix64 stream (`graph::rng::splitmix64`) for test-case
/// sampling.
struct TestRng(u64);

impl TestRng {
    fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GOLDEN);
        z
    }

    /// Uniform in `[0, bound)`.
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0);
        self.next_u64() % bound
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Random edge list: `2..=max_v` vertices, `0..max_e` edges (self-loops and
/// duplicates allowed, like the proptest strategy this replaces).
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

const CASES: u64 = 64;
const CASES_SLOW: u64 = 32;

#[test]
fn csr_round_trips_edge_multiset() {
    for seed in 0..CASES {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 64, 200);
        let csr = Csr::from_edges(u64::from(n), &edges);
        assert_eq!(csr.num_edges(), edges.len() as u64);
        // reconstruct and compare as sorted multisets
        let mut rebuilt: Vec<(u32, u32)> = (0..n)
            .flat_map(|v| csr.neighbors(v).iter().map(move |&d| (v, d)))
            .collect();
        let mut orig = edges.clone();
        rebuilt.sort_unstable();
        orig.sort_unstable();
        assert_eq!(rebuilt, orig, "seed {seed}");
    }
}

#[test]
fn transpose_is_involutive_up_to_adjacency_order() {
    for seed in 0..CASES {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 48, 150);
        // double transpose preserves the edge multiset (adjacency order
        // within a vertex may differ from insertion order)
        let mut csr = Csr::from_edges(u64::from(n), &edges);
        let mut back = csr.transpose().transpose();
        csr.sort_neighbors();
        back.sort_neighbors();
        assert_eq!(back, csr, "seed {seed}");
    }
}

#[test]
fn bitvec_matches_hashset_model() {
    for seed in 0..CASES {
        let mut rng = TestRng(seed);
        let mut bv = BitVec::new(200);
        let mut model = std::collections::HashSet::new();
        let ops = 1 + rng.below(99);
        for _ in 0..ops {
            let idx = rng.below(200) as usize;
            if rng.bool() {
                bv.set(idx);
                model.insert(idx);
            } else {
                bv.clear(idx);
                model.remove(&idx);
            }
        }
        assert_eq!(bv.count_ones(), model.len());
        for i in 0..200 {
            assert_eq!(bv.get(i), model.contains(&i), "seed {seed} bit {i}");
        }
        let ones: Vec<usize> = bv.iter_ones().collect();
        let mut want: Vec<usize> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(ones, want, "seed {seed}");
    }
}

#[test]
fn compression_round_trips() {
    for seed in 0..CASES {
        let mut rng = TestRng(seed);
        let len = rng.below(500) as usize;
        let mut ids: Vec<u32> = (0..len).map(|_| rng.below(100_000) as u32).collect();
        ids.sort_unstable();
        ids.dedup();
        let universe = 100_000u64;
        for enc in [Encoding::Raw, Encoding::DeltaVarint, Encoding::Bitmap] {
            let buf = encode_with(&ids, universe, enc);
            assert_eq!(decode(&buf).unwrap(), ids, "seed {seed} {enc:?}");
        }
        let best = encode_best(&ids, universe);
        assert_eq!(decode(&best).unwrap(), ids, "seed {seed}");
    }
}

#[test]
fn partition1d_covers_disjointly() {
    for seed in 0..CASES {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 64, 200);
        let nodes = 1 + rng.below(7) as usize;
        let csr = Csr::from_edges(u64::from(n), &edges);
        let p = Partition1D::balanced_by_edges(&csr, nodes);
        let mut covered = 0u64;
        for node in 0..nodes {
            let r = p.range(node);
            covered += u64::from(r.end - r.start);
            for v in r.start..r.end {
                assert_eq!(
                    p.owner(v),
                    node,
                    "seed {seed} owner({v}) in range of {node}"
                );
            }
        }
        assert_eq!(covered, u64::from(n), "seed {seed}");
        let total_edges: u64 = (0..nodes).map(|k| p.edges_of(&csr, k)).sum();
        assert_eq!(total_edges, csr.num_edges(), "seed {seed}");
    }
}

#[test]
fn partition2d_owner_is_total() {
    for seed in 0..CASES {
        let mut rng = TestRng(seed);
        let nodes = [1usize, 4, 9, 16][rng.below(4) as usize];
        let n = 1 + rng.below(199);
        let p = Partition2D::square(nodes, n).unwrap();
        for u in 0..n.min(40) {
            for v in 0..n.min(40) {
                let o = p.owner(u as u32, v as u32);
                assert!(o < nodes, "seed {seed} owner({u},{v}) = {o}");
            }
        }
    }
}

#[test]
fn triangle_count_matches_brute_force() {
    for seed in 0..CASES {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 24, 80);
        let el = EdgeList::from_edges(u64::from(n), edges.clone()).unwrap();
        let g = orient_and_sort(&el);
        let fast = triangles(&g, 2);
        let brute = triangles_brute_force(&edges, n as usize);
        assert_eq!(fast, brute, "seed {seed}");
    }
}

#[test]
fn bfs_distances_validate() {
    for seed in 0..CASES {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 48, 150);
        let src = rng.below(u64::from(n)) as u32;
        let g = UndirectedGraph::from_edges(u64::from(n), &edges);
        let d = bfs(&g, src, 2);
        assert!(validate_distances(&g, src, &d), "seed {seed}");
        assert_eq!(d[src as usize], 0, "seed {seed}");
        // triangle inequality along edges
        for v in 0..n {
            for &u in g.adj.neighbors(v) {
                let (dv, du) = (d[v as usize], d[u as usize]);
                if dv != UNREACHED && du != UNREACHED {
                    assert!(dv.abs_diff(du) <= 1, "seed {seed} edge ({v},{u})");
                }
            }
        }
    }
}

/// The tentpole differential harness: a 64-source bit-parallel batch
/// must produce exactly the same distance rows as 64 independent scalar
/// BFS runs, on both ER-style random graphs and RMAT graphs, and the
/// batch must be bit-identical at every thread count (the kernel's
/// `fetch_or` gossip commutes, so settle order cannot leak in) and with
/// the direction-optimizing bottom-up gather on.
#[test]
fn msbfs_batch_matches_independent_scalar_bfs_runs() {
    use graphmaze_core::graph::msbfs::{msbfs as msbfs_kernel, msbfs_with};

    for case in 0..8u64 {
        let mut rng = TestRng(0xB1B0 + case);
        // alternate ER-style random edge lists and RMAT graphs
        let g = if case % 2 == 0 {
            let (n, edges) = arb_edges(&mut rng, 400, 2000);
            UndirectedGraph::from_edges(u64::from(n), &edges)
        } else {
            let cfg = RmatConfig {
                scale: 8,
                edge_factor: 8,
                params: RmatParams::GRAPH500,
                seed: rng.next_u64(),
                scramble_ids: false,
                threads: 1,
            };
            let mut el = rmat::generate(&cfg);
            el.remove_self_loops();
            el.symmetrize();
            UndirectedGraph::from_symmetric_edge_list(&el)
        };
        let n = g.num_vertices() as u64;
        let sources: Vec<u32> = (0..64).map(|_| rng.below(n) as u32).collect();

        let batch = msbfs_kernel(&g.adj, &sources, 4);
        assert_eq!(batch.len(), sources.len(), "case {case}");
        for (i, &s) in sources.iter().enumerate() {
            assert_eq!(
                batch[i],
                bfs(&g, s, 1),
                "case {case}: batched row for source {s} diverges from scalar BFS"
            );
        }
        for threads in [1usize, 2, 8] {
            assert_eq!(
                msbfs_kernel(&g.adj, &sources, threads),
                batch,
                "case {case}: rows depend on thread count {threads}"
            );
            assert_eq!(
                msbfs_with(&g.adj, &sources, threads, true),
                batch,
                "case {case}: direction-optimizing rows differ at {threads} threads"
            );
        }
    }
}

#[test]
fn pagerank_values_bounded_below_by_r() {
    for seed in 0..CASES {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 48, 150);
        let g = DirectedGraph::from_edges(u64::from(n), &edges);
        let pr = pagerank(&g, 0.3, 5, 2);
        for &v in &pr {
            assert!(v >= 0.3 - 1e-12, "seed {seed} rank {v} below r");
            assert!(v.is_finite(), "seed {seed}");
        }
    }
}

#[test]
fn rmat_deterministic_and_in_range() {
    for case in 0..CASES_SLOW {
        let mut rng = TestRng(case);
        let scale = 4 + rng.below(5) as u32;
        let ef = 1 + rng.below(7) as u32;
        let seed = rng.next_u64();
        let cfg = RmatConfig {
            scale,
            edge_factor: ef,
            params: RmatParams::GRAPH500,
            seed,
            scramble_ids: true,
            threads: 2,
        };
        let a = rmat::generate(&cfg);
        let b = rmat::generate(&cfg);
        assert_eq!(a.edges(), b.edges(), "case {case}");
        assert_eq!(a.num_edges(), u64::from(ef) << scale, "case {case}");
        let n = 1u64 << scale;
        assert!(
            a.edges()
                .iter()
                .all(|&(s, d)| u64::from(s) < n && u64::from(d) < n),
            "case {case}"
        );
    }
}

#[test]
fn orient_by_id_produces_dag() {
    for seed in 0..CASES {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 32, 100);
        let mut el = EdgeList::from_edges(u64::from(n), edges).unwrap();
        el.orient_by_id();
        assert!(el.edges().iter().all(|&(s, d)| s < d), "seed {seed}");
    }
}

#[test]
fn spmv_matches_dense_reference() {
    use graphmaze_core::cluster::ClusterSpec;
    use graphmaze_core::engines::spmv::matrix::DistMatrix;
    use graphmaze_core::engines::spmv::semiring::PLUS_TIMES;
    for seed in 0..CASES_SLOW {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 24, 80);
        let mut csr = Csr::from_edges(u64::from(n), &edges);
        csr.sort_neighbors();
        let m = DistMatrix::new(&csr, 1).unwrap();
        let mut sim = graphmaze_core::cluster::Sim::new(
            ClusterSpec::single(),
            graphmaze_core::cluster::ExecProfile::combblas(),
        );
        let x: Vec<f64> = (0..n).map(|i| f64::from(i) * 0.5 + 1.0).collect();
        let y = m.spmv_transpose(&mut sim, &x, 1.0, &PLUS_TIMES, 8, 2);
        // dense reference: y[v] = Σ_{u→v} x[u] (multiplicities count)
        let mut want = vec![0.0f64; n as usize];
        for &(u, v) in &edges {
            want[v as usize] += x[u as usize];
        }
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "seed {seed}: {a} vs {b}");
        }
    }
}

#[test]
fn spgemm_masked_count_matches_triangles() {
    use graphmaze_core::cluster::ClusterSpec;
    use graphmaze_core::engines::spmv::matrix::DistMatrix;
    for seed in 0..CASES_SLOW {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 20, 60);
        // on a DAG orientation, Σ_{(i,j)∈A} A²_ij counts each triangle once
        let el = EdgeList::from_edges(u64::from(n), edges.clone()).unwrap();
        let g = orient_and_sort(&el);
        let m = DistMatrix::new(&g, 1).unwrap();
        let mut sim = graphmaze_core::cluster::Sim::new(
            ClusterSpec::single(),
            graphmaze_core::cluster::ExecProfile::combblas(),
        );
        let (count, _) = m.spgemm_masked_count(&mut sim).unwrap();
        assert_eq!(
            count,
            triangles_brute_force(&edges, n as usize),
            "seed {seed}"
        );
    }
}

#[test]
fn csr_binary_serialization_round_trips() {
    use graphmaze_core::graph::io::{read_binary_csr, write_binary_csr};
    for seed in 0..CASES_SLOW {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 48, 150);
        let csr = Csr::from_edges(u64::from(n), &edges);
        let mut buf = Vec::new();
        write_binary_csr(&mut buf, &csr).unwrap();
        assert_eq!(read_binary_csr(&buf[..]).unwrap(), csr, "seed {seed}");
    }
}

#[test]
fn bfs_parents_always_validate() {
    use graphmaze_core::native::bfs::{bfs_with_parents, validate_parents};
    for seed in 0..CASES_SLOW {
        let mut rng = TestRng(seed);
        let (n, edges) = arb_edges(&mut rng, 40, 120);
        let src = rng.below(u64::from(n)) as u32;
        let g = UndirectedGraph::from_edges(u64::from(n), &edges);
        let (dist, parent) = bfs_with_parents(&g, src);
        assert!(validate_parents(&g, src, &dist, &parent), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Fault-injection properties
// ---------------------------------------------------------------------

use graphmaze_core::cluster::with_faults;

/// Drops the scheduling-dependent `wall_secs` field (always the last
/// field of a journal line) so journal bytes can be compared across
/// `--jobs` settings.
fn strip_wall_secs(line: &str) -> String {
    match line.find(",\"wall_secs\":") {
        Some(i) => format!("{}}}", &line[..i]),
        None => line.to_string(),
    }
}

/// Journal file → sorted, wall-clock-free lines (parallel workers append
/// in completion order, so ordering is the one legitimate difference).
fn normalized_journal(path: &std::path::Path) -> Vec<String> {
    let body = std::fs::read_to_string(path).unwrap();
    let mut lines: Vec<String> = body.lines().map(strip_wall_secs).collect();
    lines.sort();
    lines
}

fn faulted_sweep(faults: FaultPlan) -> Sweep {
    let params = BenchParams::default();
    let spec = WorkloadSpec::Rmat {
        scale: 8,
        edge_factor: 8,
        seed: 61,
    };
    let mut sweep = Sweep::new("faultprop");
    for fw in [Framework::Native, Framework::CombBlas, Framework::Giraph] {
        for alg in [Algorithm::PageRank, Algorithm::Bfs] {
            sweep.push(SweepCell {
                label: format!("{}-{}", alg.name(), fw.name()),
                algorithm: alg,
                framework: fw,
                spec: spec.clone(),
                nodes: 4,
                factor: 1.0,
                params,
                faults,
            });
        }
    }
    // one checkpoint/restart cell: Giraph survives the injected kill
    sweep.push(SweepCell {
        label: "giraph-kill".into(),
        algorithm: Algorithm::PageRank,
        framework: Framework::Giraph,
        spec: spec.clone(),
        nodes: 4,
        factor: 1.0,
        params,
        faults: FaultPlan::parse("seed=7,kill=1@2,ckpt=2").unwrap(),
    });
    sweep
}

/// Same fault plan ⇒ bit-identical `RunReport` and digest, run to run:
/// every decision is a pure function of the plan seed, never of wall
/// clock or thread interleaving.
#[test]
fn same_fault_seed_reproduces_bit_identical_reports() {
    let params = BenchParams::default();
    let wl = Workload::rmat(8, 8, 62);
    let plan = FaultPlan::parse("seed=3,straggler=0.3x4,drop=0.05,mempress=0.1:64M").unwrap();
    for fw in [Framework::CombBlas, Framework::GraphLab, Framework::Giraph] {
        let a = with_faults(plan, || {
            run_benchmark(Algorithm::PageRank, fw, &wl, 4, &params).unwrap()
        });
        let b = with_faults(plan, || {
            run_benchmark(Algorithm::PageRank, fw, &wl, 4, &params).unwrap()
        });
        assert_eq!(a.report, b.report, "{fw:?} report must be bit-identical");
        assert_eq!(a.digest, b.digest, "{fw:?}");
        assert!(
            a.report.recovery.straggler_events > 0,
            "{fw:?}: plan with straggler=0.3 must actually fire"
        );
        // the faults degrade the run but never the answer
        let clean = run_benchmark(Algorithm::PageRank, fw, &wl, 4, &params).unwrap();
        assert_eq!(
            a.digest, clean.digest,
            "{fw:?} faults must not change results"
        );
        assert!(
            a.report.sim_seconds > clean.report.sim_seconds,
            "{fw:?} faulted run must be slower"
        );
    }
}

/// A fault-injected sweep is deterministic across `--jobs`: per-cell
/// reports are bit-identical and the journals byte-identical once the
/// scheduling-dependent `wall_secs` is stripped.
#[test]
fn faulted_sweep_is_bit_identical_across_jobs() {
    let dir = std::env::temp_dir().join(format!("graphmaze-faultprop-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let (j1, j4) = (dir.join("jobs1.jsonl"), dir.join("jobs4.jsonl"));
    let _ = std::fs::remove_file(&j1);
    let _ = std::fs::remove_file(&j4);

    let plan = FaultPlan::parse("seed=11,straggler=0.2x3,drop=0.02").unwrap();
    let sweep = faulted_sweep(plan);
    let serial = sweep.execute(
        &SweepOptions {
            jobs: 1,
            journal: Some(j1.clone()),
            resume: false,
            cell_timeout: None,
            telemetry: None,
        },
        &WorkloadCache::new(),
        &SilentObserver,
    );
    let parallel = sweep.execute(
        &SweepOptions {
            jobs: 4,
            journal: Some(j4.clone()),
            resume: false,
            cell_timeout: None,
            telemetry: None,
        },
        &WorkloadCache::new(),
        &SilentObserver,
    );
    for (i, (s, p)) in serial.results.iter().zip(&parallel.results).enumerate() {
        let (s, p) = (s.outcome.as_ref().unwrap(), p.outcome.as_ref().unwrap());
        assert_eq!(s.report, p.report, "cell {i} report depends on --jobs");
        assert_eq!(s.digest, p.digest, "cell {i}");
    }
    // the kill cell must actually have recovered
    let kill = serial.results.last().unwrap().outcome.as_ref().unwrap();
    assert_eq!(kill.report.recovery.failures, 1, "injected kill must fire");
    assert!(kill.report.recovery.steps_replayed > 0);

    let (l1, l4) = (normalized_journal(&j1), normalized_journal(&j4));
    assert_eq!(l1.len(), sweep.len());
    assert_eq!(l1, l4, "journal content must not depend on --jobs");
    let _ = std::fs::remove_file(&j1);
    let _ = std::fs::remove_file(&j4);
}

/// Straggler severity is monotone: decisions are threshold tests on one
/// hash, so raising the probability only *adds* slow (node, step) slots,
/// and raising the multiplier only slows the same slots further. The
/// simulated time can never decrease.
#[test]
fn straggler_severity_is_monotone_in_probability_and_slowdown() {
    let params = BenchParams::default();
    let wl = Workload::rmat(8, 8, 63);
    let run = |plan: FaultPlan| {
        with_faults(plan, || {
            run_benchmark(Algorithm::PageRank, Framework::Giraph, &wl, 4, &params).unwrap()
        })
    };

    // probability ladder, fixed slowdown
    let mut last_secs = 0.0f64;
    let mut last_events = 0u64;
    for prob in [0.0, 0.1, 0.3, 0.6, 1.0] {
        let plan = FaultPlan {
            seed: 5,
            straggler_prob: prob,
            straggler_slowdown: 3.0,
            ..FaultPlan::none()
        };
        let out = run(plan);
        assert!(
            out.report.sim_seconds >= last_secs,
            "p={prob}: {} < {last_secs}",
            out.report.sim_seconds
        );
        assert!(
            out.report.recovery.straggler_events >= last_events,
            "p={prob}: lower probability fired more events"
        );
        last_secs = out.report.sim_seconds;
        last_events = out.report.recovery.straggler_events;
    }

    // slowdown ladder, fixed probability: same event set, scaled deeper
    let mut last_secs = 0.0f64;
    let mut events = None;
    for slowdown in [1.0, 2.0, 4.0, 8.0] {
        let plan = FaultPlan {
            seed: 5,
            straggler_prob: 0.3,
            straggler_slowdown: slowdown,
            ..FaultPlan::none()
        };
        let out = run(plan);
        assert!(out.report.sim_seconds >= last_secs, "x{slowdown}");
        let e = out.report.recovery.straggler_events;
        assert_eq!(
            *events.get_or_insert(e),
            e,
            "event set must not depend on slowdown"
        );
        last_secs = out.report.sim_seconds;
    }
}

#[test]
fn pagerank_engine_agreement_on_random_graphs() {
    // a deterministic mini-fuzz across engines (full-crossbar fuzzing is
    // too slow; fixed seeds suffice here)
    let params = BenchParams::default();
    for seed in [1u64, 2, 3] {
        let wl = Workload::rmat(8, 6, seed);
        let native =
            run_benchmark(Algorithm::PageRank, Framework::Native, &wl, 2, &params).unwrap();
        for fw in [
            Framework::CombBlas,
            Framework::GraphLab,
            Framework::SociaLite,
        ] {
            let out = run_benchmark(Algorithm::PageRank, fw, &wl, 2, &params).unwrap();
            assert!(
                (out.digest - native.digest).abs() / native.digest.abs() < 1e-9,
                "seed {seed} {fw:?}"
            );
        }
    }
}
