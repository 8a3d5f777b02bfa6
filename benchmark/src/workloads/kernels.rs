//! `kernels`: the raw `native::{pagerank,bfs,msbfs,triangle,cf}` kernels
//! at all threads and at one thread, then the same five algorithms as
//! 1-node `Framework::Native` cells. `native`, `graph` and `datagen` do
//! all the work and the framework engines none, so the prediction for an
//! engine change here is *no change*. It has the largest set-up (graph
//! generation and view build), so work moved into set-up shows.

use std::hint::black_box;
use std::time::Instant;

use graphmaze_bench::standard_params;
use graphmaze_core::cluster::FaultPlan;
use graphmaze_core::datagen::{ratings, rmat, Dataset, RatingsGenConfig, RmatConfig, RmatParams};
use graphmaze_core::graph::csr::Csr;
use graphmaze_core::graph::{DirectedGraph, UndirectedGraph};
use graphmaze_core::metrics::Work;
use graphmaze_core::native::{bfs, cf, msbfs, pagerank, triangle, PAGERANK_R};
use graphmaze_core::runner::msbfs_sources;
use graphmaze_core::{
    Algorithm, BenchParams, Framework, SweepCell, Workload as Input, WorkloadCache, WorkloadSpec,
};
use std::sync::Arc;

use super::{cell_span_name, execute_cell, Pinned};
use crate::golden::{Obs, OpCheck};
use crate::harness::{median_op_s, timed, Cx, Ledger, OpSample, PassOut, Tag, Verify, Workload};
use crate::host;
use crate::spans::NO_OP;

const EXPERIMENT: &str = "bench-kernels";

/// The five algorithms in the order `Sizes::kernel_repeats` lists them.
const ALGS: [Algorithm; 5] = [
    Algorithm::PageRank,
    Algorithm::Bfs,
    Algorithm::MsBfs,
    Algorithm::TriangleCount,
    Algorithm::CollaborativeFiltering,
];

enum Op {
    /// One raw kernel invocation: `variant` is the repeat, or for BFS the
    /// index of the source.
    Raw {
        alg: Algorithm,
        threads: usize,
        variant: usize,
    },
    /// The algorithm as a 1-node native cell through the cluster path.
    Cell(Box<SweepCell>, &'static str),
}

pub struct Kernels {
    cache: WorkloadCache,
    graph: Arc<Input>,
    tc: Arc<Input>,
    ratings: Arc<Input>,
    params: BenchParams,
    /// BFS sources, highest degree first; source 0 is the cell's.
    bfs_sources: Vec<u32>,
    msbfs_batch: Vec<u32>,
    /// "All threads": the host's available parallelism.
    threads: usize,
    ops: Vec<Op>,
    pinned: Pinned,
    /// `total_work` of each algorithm's native cell, for the roofline.
    cell_work: Vec<Work>,
}

fn bfs_digest(dist: &[u32]) -> f64 {
    dist.iter()
        .filter(|&&d| d != u32::MAX)
        .map(|&d| f64::from(d))
        .sum()
}

impl Kernels {
    /// Runs one raw kernel and reduces its output to the digest the
    /// engines report for the same algorithm. Only the kernel is timed.
    fn run_raw(&self, alg: Algorithm, threads: usize, variant: usize) -> (f64, u64) {
        let directed = self.graph.directed.as_ref().expect("directed view");
        let undirected = self.graph.undirected.as_ref().expect("undirected view");
        let t = Instant::now();
        match alg {
            Algorithm::PageRank => {
                let ranks =
                    pagerank::pagerank(directed, PAGERANK_R, self.params.pr_iterations, threads);
                let ns = t.elapsed().as_nanos() as u64;
                (ranks.iter().sum(), ns)
            }
            Algorithm::Bfs => {
                let dist = bfs::bfs(undirected, self.bfs_sources[variant], threads);
                let ns = t.elapsed().as_nanos() as u64;
                (bfs_digest(&dist), ns)
            }
            Algorithm::MsBfs => {
                let rows = msbfs::msbfs(undirected, &self.msbfs_batch, threads);
                let ns = t.elapsed().as_nanos() as u64;
                (rows.iter().map(|r| bfs_digest(r)).sum(), ns)
            }
            Algorithm::TriangleCount => {
                let oriented = self.tc.oriented.as_ref().expect("oriented view");
                let count = triangle::triangles(oriented, threads);
                (count as f64, t.elapsed().as_nanos() as u64)
            }
            Algorithm::CollaborativeFiltering => {
                let g = self.ratings.ratings.as_ref().expect("ratings");
                let (factors, history) =
                    cf::sgd(g, &self.params.cf, self.params.cf_iterations, threads);
                let ns = t.elapsed().as_nanos() as u64;
                black_box(factors);
                (history.last().copied().unwrap_or(f64::NAN), ns)
            }
        }
    }

    fn run_ops(&self, cx: &Cx) -> Vec<(Obs, u64, Option<Work>)> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| match op {
                Op::Raw {
                    alg,
                    threads,
                    variant,
                } => {
                    let span = raw_span_name(*alg);
                    let (digest, ns) = cx
                        .rec
                        .span(span, i as u32, || self.run_raw(*alg, *threads, *variant));
                    (Obs::digest_only(digest), ns, None)
                }
                Op::Cell(cell, span) => {
                    let (resp, ns) =
                        execute_cell(cx, EXPERIMENT, cell, span, i as u32, &self.cache);
                    let work = resp.outcome.as_ref().ok().map(|o| o.report.total_work);
                    (Obs::of_response(&resp), ns, work)
                }
            })
            .collect()
    }

    /// Index of the raw op of `alg` at `threads` (BFS: source 0).
    fn raw_op(&self, alg: Algorithm, threads: usize) -> u32 {
        self.ops
            .iter()
            .position(|op| {
                matches!(op, Op::Raw { alg: a, threads: t, variant: 0 } if *a == alg && *t == threads)
            })
            .expect("every algorithm has a raw op") as u32
    }
}

fn raw_span_name(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::PageRank => "native.kernel.pagerank",
        Algorithm::Bfs => "native.kernel.bfs",
        Algorithm::MsBfs => "native.kernel.msbfs",
        Algorithm::TriangleCount => "native.kernel.triangle",
        Algorithm::CollaborativeFiltering => "native.kernel.cf",
    }
}

fn spec_of(alg: Algorithm, cx: &Cx) -> WorkloadSpec {
    let s = cx.sizes;
    match alg {
        Algorithm::PageRank | Algorithm::Bfs | Algorithm::MsBfs => WorkloadSpec::Rmat {
            scale: s.kernel_graph_scale,
            edge_factor: 16,
            seed: cx.seed,
        },
        Algorithm::TriangleCount => WorkloadSpec::RmatTriangle {
            scale: s.kernel_tc_scale,
            edge_factor: 8,
            seed: cx.seed,
        },
        Algorithm::CollaborativeFiltering => WorkloadSpec::RmatRatings {
            scale: s.kernel_cf_scale,
            num_items: s.kernel_cf_items,
            seed: cx.seed,
        },
    }
}

impl Workload for Kernels {
    fn setup(cx: &Cx) -> Self {
        let cache = WorkloadCache::new();
        let build = |alg| {
            cx.rec.span("core.workload_build", NO_OP, || {
                cache.get(&spec_of(alg, cx))
            })
        };
        let graph = build(Algorithm::PageRank);
        let tc = build(Algorithm::TriangleCount);
        let ratings = build(Algorithm::CollaborativeFiltering);
        let params = standard_params();

        let undirected = graph.undirected.as_ref().expect("undirected view");
        let n = undirected.num_vertices() as u32;
        let repeats = cx.sizes.kernel_repeats;
        // the runner's BFS source is the highest-degree vertex (`max_by_key`
        // keeps the last of equal maxima); the others follow by degree
        let mut by_degree: Vec<u32> = (0..n).collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse((undirected.adj.degree(v), v)));
        by_degree.truncate(repeats[1] as usize);
        let msbfs_batch = msbfs_sources(n, params.msbfs_sources, params.msbfs_seed);

        let mut ops = Vec::new();
        let mut checks = Vec::new();
        let all_threads = host::threads();
        for (threads, label) in [(all_threads, "tall"), (1, "t1")] {
            for (alg, count) in ALGS.iter().zip(repeats) {
                for variant in 0..count as usize {
                    let bfs_source = if *alg == Algorithm::Bfs { variant } else { 0 };
                    let source_tag = if *alg == Algorithm::Bfs {
                        format!(".s{variant}")
                    } else {
                        String::new()
                    };
                    checks.push(OpCheck {
                        id: format!("raw.{}.{label}{source_tag}", alg.name()),
                        alg: *alg,
                        group: format!("{}{source_tag}", alg.name()),
                        // only BFS from source 0 has a cell to agree with;
                        // from the others the 1-thread run is the reference
                        // (`verify` validates its distances independently)
                        is_native: *alg == Algorithm::Bfs && variant > 0 && threads == 1,
                        // a result at "all threads" depends on the host's
                        // thread count (SGD's block schedule does): it must
                        // agree with native instead of matching a pin
                        pinned: threads == 1,
                    });
                    ops.push(Op::Raw {
                        alg: *alg,
                        threads,
                        variant: bfs_source,
                    });
                }
            }
        }
        for alg in ALGS {
            let cell = SweepCell {
                label: "kernels".to_string(),
                algorithm: alg,
                framework: Framework::Native,
                spec: spec_of(alg, cx),
                nodes: 1,
                factor: 1.0,
                params,
                faults: FaultPlan::none(),
            };
            let source_tag = if alg == Algorithm::Bfs { ".s0" } else { "" };
            checks.push(OpCheck {
                id: format!("cell.{}", alg.name()),
                alg,
                group: format!("{}{source_tag}", alg.name()),
                is_native: true,
                pinned: true,
            });
            let span = cell_span_name(&cell);
            ops.push(Op::Cell(Box::new(cell), span));
        }
        Kernels {
            cache,
            graph,
            tc,
            ratings,
            params,
            bfs_sources: by_degree,
            msbfs_batch,
            threads: all_threads,
            ops,
            pinned: Pinned::new("kernels", checks),
            cell_work: Vec::new(),
        }
    }

    fn verify(&mut self, cx: &Cx) -> Verify {
        let ran = self.run_ops(cx);
        self.cell_work = ran.iter().filter_map(|(_, _, w)| *w).collect();
        let mut observed: Vec<Obs> = ran.into_iter().map(|(obs, _, _)| obs).collect();
        // BFS from the other sources has no cell to agree with: validate
        // those distance vectors independently
        let undirected = self.graph.undirected.as_ref().expect("undirected view");
        let mut invalid = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            if let Op::Raw {
                alg: Algorithm::Bfs,
                threads,
                variant,
            } = op
            {
                if *variant > 0 {
                    let source = self.bfs_sources[*variant];
                    let dist = bfs::bfs(undirected, source, *threads);
                    if !bfs::validate_distances(undirected, source, &dist)
                        || Some(bfs_digest(&dist)) != observed[i].digest
                    {
                        invalid.push(format!(
                            "{}: invalid BFS distances",
                            self.pinned.checks[i].id
                        ));
                        observed[i] = Obs::failure("panic");
                    }
                }
            }
        }
        let mut verify = self.pinned.verify(cx, observed);
        verify.failures.extend(invalid);
        verify
    }

    fn pass(&mut self, cx: &Cx, _traced: bool) -> PassOut {
        let (ran, timing) = timed(|| self.run_ops(cx));
        let ops = ran
            .iter()
            .enumerate()
            .map(|(i, (obs, ns, _))| OpSample {
                op: i as u32,
                ns: *ns,
                tag: Tag::Plain,
                ok: self.pinned.ok(i, obs),
            })
            .collect();
        PassOut { timing, ops }
    }

    fn layers(&mut self, cx: &Cx, untraced: &[PassOut], ledger: &mut Ledger) {
        let (roof, _) = cx.timed_span("bench.roofline_probe", || {
            host::roofline(cx.sizes.roofline_cap_bytes)
        });
        ledger.insert("host.stream_triad_gbps", roof.stream_bytes_per_s / 1e9);
        ledger.insert("host.gather_maccess_per_s", roof.gather_per_s / 1e6);
        ledger.insert("host.llc_bytes", roof.llc_bytes as f64);
        ledger.insert("host.probe_array_bytes", roof.array_bytes as f64);

        let directed = self.graph.directed.as_ref().expect("directed view");
        let undirected = self.graph.undirected.as_ref().expect("undirected view");
        let oriented = self.tc.oriented.as_ref().expect("oriented view");
        let ratings = self.ratings.ratings.as_ref().expect("ratings");
        // items of work one invocation does, in millions
        let work_m = |alg| {
            (match alg {
                Algorithm::PageRank => directed.num_edges() * u64::from(self.params.pr_iterations),
                Algorithm::Bfs | Algorithm::MsBfs => undirected.num_directed_edges(),
                Algorithm::TriangleCount => oriented.num_edges(),
                Algorithm::CollaborativeFiltering => {
                    ratings.num_ratings() * u64::from(self.params.cf_iterations)
                }
            }) as f64
                / 1e6
        };
        let names: [[&'static str; 4]; 5] = [
            [
                "native.pagerank_medges_per_s",
                "native.pagerank_roofline_frac",
                "native.pagerank_par_speedup",
                "native.pagerank_cluster_path_ratio",
            ],
            [
                "native.bfs_medges_per_s",
                "native.bfs_roofline_frac",
                "native.bfs_par_speedup",
                "native.bfs_cluster_path_ratio",
            ],
            [
                "native.msbfs_medges_per_s",
                "native.msbfs_roofline_frac",
                "native.msbfs_par_speedup",
                "native.msbfs_cluster_path_ratio",
            ],
            [
                "native.triangle_medges_per_s",
                "native.triangle_roofline_frac",
                "native.triangle_par_speedup",
                "native.triangle_cluster_path_ratio",
            ],
            [
                "native.cf_mratings_per_s",
                "native.cf_roofline_frac",
                "native.cf_par_speedup",
                "native.cf_cluster_path_ratio",
            ],
        ];
        let first_cell = self.ops.len() - ALGS.len();
        for (k, alg) in ALGS.into_iter().enumerate() {
            let all = median_op_s(untraced, self.raw_op(alg, self.threads));
            let one = median_op_s(untraced, self.raw_op(alg, 1));
            let cell = median_op_s(untraced, (first_cell + k) as u32);
            ledger.insert(names[k][0], work_m(alg) / all);
            // the time the host's measured rates allow for the bytes and
            // random accesses the simulator *computed* for this run (they
            // are counts, not hardware counters), over the time it took
            if let Some(w) = self.cell_work.get(k) {
                let bound = w.seq_bytes as f64 / roof.stream_bytes_per_s
                    + w.rand_accesses as f64 / roof.gather_per_s;
                ledger.insert(names[k][1], bound / all);
            }
            ledger.insert(names[k][2], one / all);
            ledger.insert(names[k][3], cell / all);
        }

        // datagen and graph, called layer by layer on this workload's
        // inputs (set-up builds them through `WorkloadSpec::build`, which
        // cannot be split from outside)
        let s = cx.sizes;
        let (el, rmat_s) = cx.timed_span("datagen.rmat", || {
            rmat::generate(&RmatConfig {
                scale: s.kernel_graph_scale,
                edge_factor: 16,
                params: RmatParams::GRAPH500,
                seed: cx.seed,
                scramble_ids: true,
                threads: 0,
            })
        });
        let medges = el.num_edges() as f64 / 1e6;
        ledger.insert("datagen.rmat_medges_per_s", medges / rmat_s);
        let (g, ratings_s) = cx.timed_span("datagen.ratings", || {
            ratings::generate(&RatingsGenConfig {
                scale: s.kernel_cf_scale,
                edge_factor: 16,
                num_items: s.kernel_cf_items,
                min_degree: 5,
                seed: cx.seed,
            })
        });
        ledger.insert(
            "datagen.ratings_mratings_per_s",
            g.num_ratings() as f64 / 1e6 / ratings_s,
        );
        // the four Table-3 stand-ins of the crossbar, at its scale
        let scale_down = |ds: Dataset| {
            let full = 64 - (ds.spec().num_vertices.max(1) - 1).leading_zeros();
            full.saturating_sub(s.crossbar_scale)
        };
        let ((), dataset_s) = cx.timed_span("datagen.dataset", || {
            for ds in [
                Dataset::LiveJournalLike,
                Dataset::FacebookLike,
                Dataset::WikipediaLike,
            ] {
                black_box(ds.generate_graph(scale_down(ds), cx.seed));
            }
            let ds = Dataset::NetflixLike;
            black_box(ds.generate_ratings(scale_down(ds), cx.seed));
        });
        ledger.insert("datagen.dataset_s", dataset_s);
        ledger.insert("datagen.busy_s", rmat_s + ratings_s + dataset_s);

        let (csr, csr_s) = cx.timed_span("graph.csr_from_edges", || Csr::from_edge_list(&el));
        ledger.insert("graph.csr_from_edges_medges_per_s", medges / csr_s);
        let (_, transpose_s) = cx.timed_span("graph.transpose", || black_box(csr.transpose()));
        ledger.insert("graph.transpose_medges_per_s", medges / transpose_s);
        let (_, symmetrize_s) = cx.timed_span("graph.symmetrize", || {
            let mut sym = el.clone();
            sym.remove_self_loops();
            sym.symmetrize();
            black_box(UndirectedGraph::from_symmetric_edge_list(&sym))
        });
        ledger.insert("graph.symmetrize_s", symmetrize_s);
        let (_, orient_s) = cx.timed_span("graph.orient_sort", || {
            black_box(triangle::orient_and_sort(&el))
        });
        ledger.insert("graph.orient_sort_s", orient_s);
        let (_, directed_s) = cx.timed_span("graph.directed", || {
            black_box(DirectedGraph::from_edge_list(&el))
        });
        ledger.insert(
            "graph.busy_s",
            csr_s + transpose_s + symmetrize_s + orient_s + directed_s,
        );
    }

    fn golden_rows(&self) -> Vec<(String, Obs)> {
        self.pinned.golden_rows()
    }
}
