//! Criterion benches of the framework engines' *real* execution cost —
//! how expensive each programming model's machinery is in this
//! implementation (message vectors, semiring dispatch, rule evaluation,
//! task scheduling) compared to the native kernels, on identical inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmaze_core::prelude::*;

/// One bench per framework: the whole single-node cell through the same
/// dispatch table the harness uses.
fn bench_models(
    c: &mut Criterion,
    group: &str,
    algorithm: Algorithm,
    wl: &Workload,
    samples: usize,
) {
    let params = BenchParams {
        pr_iterations: 3,
        ..BenchParams::default()
    };
    let mut group = c.benchmark_group(group);
    group.sample_size(samples);
    for fw in Framework::EXTENDED {
        group.bench_function(fw.name(), |b| {
            b.iter(|| run_output(algorithm, fw, wl, 1, &params).unwrap())
        });
    }
    group.finish();
}

fn bench_pagerank_models(c: &mut Criterion) {
    let wl = Workload::rmat(11, 8, 7);
    bench_models(c, "pagerank_models_real_time", Algorithm::PageRank, &wl, 15);
}

fn bench_triangle_models(c: &mut Criterion) {
    let wl = Workload::rmat_triangle(10, 8, 7);
    bench_models(
        c,
        "triangle_models_real_time",
        Algorithm::TriangleCount,
        &wl,
        12,
    );
}

fn bench_cluster_sim_overhead(c: &mut Criterion) {
    // how much the simulated multi-node bookkeeping costs on top of the
    // single-node run, per node count
    let wl = Workload::rmat(11, 8, 7);
    let g = wl.directed.as_ref().unwrap();
    let mut group = c.benchmark_group("cluster_sim_overhead");
    group.sample_size(15);
    for nodes in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("native_pagerank", nodes),
            &nodes,
            |b, &n| {
                b.iter(|| {
                    graphmaze_core::native::pagerank::pagerank_cluster(
                        g,
                        PAGERANK_R,
                        3,
                        NativeOptions::all(),
                        n,
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pagerank_models,
    bench_triangle_models,
    bench_cluster_sim_overhead
);
criterion_main!(benches);
