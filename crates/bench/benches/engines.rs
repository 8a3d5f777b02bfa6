//! Criterion benches of the framework engines' *real* execution cost —
//! how expensive each programming model's machinery is in this
//! implementation (message vectors, semiring dispatch, rule evaluation,
//! task scheduling) compared to the native kernels, on identical inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphmaze_core::engines::datalog::socialite;
use graphmaze_core::engines::spmv::combblas;
use graphmaze_core::engines::taskpar::galois;
use graphmaze_core::engines::vertex::{giraph, graphlab, programs, Backend};
use graphmaze_core::prelude::*;

fn bench_pagerank_models(c: &mut Criterion) {
    let wl = Workload::rmat(11, 8, 7);
    let g = wl.directed.as_ref().unwrap();
    let mut group = c.benchmark_group("pagerank_models_real_time");
    group.sample_size(15);
    group.bench_with_input(BenchmarkId::new("native", 11), g, |b, g| {
        b.iter(|| graphmaze_core::native::pagerank::pagerank(g, PAGERANK_R, 3, 1));
    });
    group.bench_with_input(BenchmarkId::new("vertex_graphlab", 11), g, |b, g| {
        let backend = Backend::Bsp(graphlab::config());
        b.iter(|| {
            backend
                .run(programs::pagerank_job(g, PAGERANK_R, 3), 1)
                .unwrap()
        });
    });
    group.bench_with_input(BenchmarkId::new("vertex_giraph", 11), g, |b, g| {
        let backend = Backend::Bsp(giraph::config(1));
        b.iter(|| {
            backend
                .run(programs::pagerank_job(g, PAGERANK_R, 3), 1)
                .unwrap()
        });
    });
    group.bench_with_input(BenchmarkId::new("spmv_combblas", 11), g, |b, g| {
        b.iter(|| combblas::pagerank(g, PAGERANK_R, 3, 1).unwrap());
    });
    group.bench_with_input(BenchmarkId::new("datalog_socialite", 11), g, |b, g| {
        b.iter(|| socialite::pagerank(g, PAGERANK_R, 3, 1, true).unwrap());
    });
    group.bench_with_input(BenchmarkId::new("taskpar_galois", 11), g, |b, g| {
        b.iter(|| galois::pagerank(g, PAGERANK_R, 3, 1).unwrap());
    });
    group.finish();
}

fn bench_triangle_models(c: &mut Criterion) {
    let wl = Workload::rmat_triangle(10, 8, 7);
    let g = wl.oriented.as_ref().unwrap();
    let mut group = c.benchmark_group("triangle_models_real_time");
    group.sample_size(12);
    group.bench_function("native", |b| {
        b.iter(|| graphmaze_core::native::triangle::triangles(g, 1))
    });
    group.bench_function("vertex_graphlab", |b| {
        let backend = Backend::Bsp(graphlab::config());
        b.iter(|| backend.run(programs::triangle_job(g), 1).unwrap())
    });
    group.bench_function("spmv_combblas", |b| {
        b.iter(|| combblas::triangles(g, 1).unwrap())
    });
    group.bench_function("datalog_socialite", |b| {
        b.iter(|| socialite::triangles(g, 1, true).unwrap())
    });
    group.bench_function("taskpar_galois", |b| {
        b.iter(|| galois::triangles(g, 1).unwrap())
    });
    group.finish();
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
