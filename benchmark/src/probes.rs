//! Direct probes of the layers' public API. They do not depend on the
//! workload, so every traced run repeats them; each is timed from outside
//! over enough iterations that the two clock reads do not matter.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use graphmaze_core::cluster::compress::{decode, encode_best};
use graphmaze_core::cluster::{ClusterSpec, ExecProfile, FaultPlan, Mailbox, Router, Sim};
use graphmaze_core::flatjson::parse_flat_json;
use graphmaze_core::metrics::Registry;
use graphmaze_core::{
    Algorithm, BenchParams, Framework, ResultCache, RunRequest, SilentObserver, Sweep, SweepCell,
    SweepOptions, WorkloadCache, WorkloadSpec,
};
use graphmaze_serve::protocol::encode_run_request;

use crate::harness::{Cx, Ledger};
use crate::spans::NO_OP;
use crate::stats::median;

fn tiny_cell(label: String) -> SweepCell {
    SweepCell {
        label,
        algorithm: Algorithm::PageRank,
        framework: Framework::Native,
        spec: WorkloadSpec::Rmat {
            scale: 4,
            edge_factor: 4,
            seed: 1,
        },
        nodes: 1,
        factor: 1.0,
        params: BenchParams::default(),
        faults: FaultPlan::none(),
    }
}

pub fn run(cx: &Cx, ledger: &mut Ledger) {
    let n = |full: usize| (full / cx.sizes.probe_shrink).max(1);
    core(cx, ledger, &n);
    cluster(cx, ledger, &n);
    let histogram = Registry::new().histogram("bench_probe_seconds", "probe", &[]);
    ledger.insert(
        "metrics.histogram_observe_ns",
        cx.per_call_ns("metrics.histogram_observe", n(1_000_000), |i| {
            histogram.observe_duration(std::time::Duration::from_nanos(i as u64 * 37));
        }),
    );
}

fn core(cx: &Cx, ledger: &mut Ledger, n: &dyn Fn(usize) -> usize) {
    let workloads = WorkloadCache::new();
    let request = RunRequest::new("bench-probe", tiny_cell("probe".to_string()));
    let warm = request.execute(&workloads);

    // the fixed cost of one cell: `rmat/s4` is 16 vertices, so this is
    // dispatch, Sim set-up and report assembly, not the algorithm
    ledger.insert(
        "core.cell_overhead_us",
        cx.per_call_ns("core.execute_tiny_cell", n(2_000), |_| {
            black_box(request.execute(&workloads));
        }) / 1e3,
    );
    ledger.insert(
        "core.cell_key_ns",
        cx.per_call_ns("core.cell_key", n(100_000), |_| {
            black_box(black_box(&request).key());
        }),
    );
    ledger.insert(
        "core.workload_cache_hit_ns",
        cx.per_call_ns("core.workload_cache_get", n(200_000), |_| {
            black_box(workloads.get(&request.cell.spec));
        }),
    );

    let resident = ResultCache::new(1024);
    for key in 0..29u64 {
        resident.admit(key, &warm.outcome);
    }
    ledger.insert(
        "core.result_cache_get_ns",
        cx.per_call_ns("core.result_cache_get", n(200_000), |i| {
            black_box(resident.get(i as u64 % 29));
        }),
    );
    // a full cache of the churn workload's capacity: every admission of a
    // new key evicts
    let churning = ResultCache::new(cx.sizes.churn_capacity);
    ledger.insert(
        "core.result_cache_admit_ns",
        cx.per_call_ns("core.result_cache_admit", n(50_000), |i| {
            black_box(churning.admit(i as u64, &warm.outcome));
        }),
    );

    let line = encode_run_request("q0", &request);
    ledger.insert(
        "core.flatjson_parse_ns_per_line",
        cx.per_call_ns("core.flatjson_parse", n(50_000), |_| {
            black_box(parse_flat_json(black_box(&line)));
        }),
    );

    // a sweep of tiny cells three ways: bare, journaled, with telemetry.
    // The differences are what the journal write path and the sweep's
    // telemetry cost per cell. (4 000 cells, not the issue's 500: a bare
    // 500-cell sweep lasts 2 ms and the difference drowned in noise.)
    let cells = n(4_000);
    let sweep = Sweep {
        experiment: "bench-probe".to_string(),
        cells: (0..cells).map(|i| tiny_cell(format!("c{i}"))).collect(),
    };
    let journal = cx.scratch.join("probe-journal.jsonl");
    let sweep_wall = |span: &'static str, opts: &SweepOptions| -> f64 {
        let walls: Vec<f64> = (0..3)
            .map(|_| {
                let _ = std::fs::remove_file(&journal);
                cx.timed_span(span, || {
                    black_box(sweep.execute(opts, &workloads, &SilentObserver))
                })
                .1
            })
            .collect();
        median(&walls)
    };
    let bare = sweep_wall("core.sweep_bare", &SweepOptions::default());
    let journaled = sweep_wall(
        "core.sweep_journaled",
        &SweepOptions {
            journal: Some(journal.clone()),
            ..SweepOptions::default()
        },
    );
    let with_telemetry = sweep_wall(
        "metrics.sweep_telemetry",
        &SweepOptions {
            telemetry: Some(Arc::new(Registry::new())),
            ..SweepOptions::default()
        },
    );
    let _ = std::fs::remove_file(&journal);
    ledger.insert(
        "core.journal_write_us_per_cell",
        (journaled - bare) * 1e6 / cells as f64,
    );
    ledger.insert(
        "metrics.telemetry_sweep_overhead_frac",
        (with_telemetry - bare) / bare,
    );
}

fn cluster(cx: &Cx, ledger: &mut Ledger, n: &dyn Fn(usize) -> usize) {
    // 64 nodes, all-to-all: the barrier's worst case in the experiments
    let nodes = 64;
    let steps = n(200);
    let mut sim = Sim::new(ClusterSpec::paper(nodes), ExecProfile::native());
    let (mut send_ns, mut step_ns) = (0u64, 0u64);
    cx.rec.span("cluster.sim_all_to_all", NO_OP, || {
        for _ in 0..steps {
            let t = Instant::now();
            for src in 0..nodes {
                for dst in 0..nodes {
                    if src != dst {
                        sim.send_to(src, dst, 4096, 8192, 4);
                    }
                }
            }
            send_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            sim.end_step().expect("a fault-free barrier");
            step_ns += t.elapsed().as_nanos() as u64;
        }
    });
    black_box(sim.finish());
    ledger.insert(
        "cluster.sim_ns_per_send_to",
        send_ns as f64 / (steps * nodes * (nodes - 1)) as f64,
    );
    ledger.insert(
        "cluster.sim_us_per_end_step",
        step_ns as f64 / 1e3 / steps as f64,
    );

    // the vertex engines' send path: post per message, flush per barrier
    let nodes = 16;
    let per_flush = 4_096;
    let flushes = n(200);
    let profile = ExecProfile::giraph();
    let mut sim = Sim::new(ClusterSpec::paper(nodes), profile);
    let mut router = Router::new(nodes, &profile);
    let mut mailbox: Mailbox<u64> = Mailbox::new(0, nodes);
    let combine = |a: &u64, b: &u64| Some(a + b);
    let mut delivered = 0u64;
    let flush_ns = cx.per_call_ns("cluster.mailbox_post_flush", flushes, |f| {
        for m in 0..per_flush {
            let to = ((m * 2_654_435_761usize + f) % (1 << 20)) as u32;
            mailbox.post(to as usize % nodes, to, m as u64);
        }
        mailbox.flush(
            &mut router,
            &mut sim,
            1 << 20,
            |_| 8,
            Some(&combine),
            |_, m| delivered += m,
        );
        router.flush(&mut sim);
        sim.end_step().expect("a fault-free barrier");
    });
    black_box(delivered);
    ledger.insert("cluster.router_ns_per_msg", flush_ns / per_flush as f64);

    // a frontier of one id in four, as BFS ships mid-traversal
    let universe = 1u64 << 22;
    let ids: Vec<u32> = (0..universe as u32).filter(|v| v % 4 == 1).collect();
    let raw_mb = ids.len() as f64 * 4.0 / 1e6;
    let rounds = n(20);
    let mut wire = encode_best(&ids, universe);
    let encode_ns = cx.per_call_ns("cluster.compress_encode", rounds, |_| {
        wire = encode_best(black_box(&ids), universe);
    });
    let decode_ns = cx.per_call_ns("cluster.compress_decode", rounds, |_| {
        black_box(decode(black_box(&wire)));
    });
    assert_eq!(decode(&wire).as_deref(), Some(ids.as_slice()), "lossless");
    ledger.insert(
        "cluster.compress_encode_mb_per_s",
        raw_mb / (encode_ns / 1e9),
    );
    ledger.insert(
        "cluster.compress_decode_mb_per_s",
        raw_mb / (decode_ns / 1e9),
    );
}
