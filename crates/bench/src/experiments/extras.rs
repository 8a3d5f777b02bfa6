//! The in-text experiments: §5.4 traffic-based prediction, §3.2 SGD vs
//! GD convergence, §6.1.3 Giraph superstep splitting, and the §6.1.1
//! design-choice ablations DESIGN.md calls out.

use graphmaze_core::cluster::{with_work_scale, Partition1D};
use graphmaze_core::native::cf::{self, CfConfig};
use graphmaze_core::prelude::*;
use graphmaze_core::report::{fmt_bytes, fmt_secs, fmt_slowdown, format_table};

use super::{
    cell_report, framework_headers, measure, or_annotation, ratio, reported_seconds, run_cell,
    seconds, seconds_row, MULTI_NODE,
};
use crate::{standard_params, ReproConfig};

/// §5.4 — "we look at only the measured network parameters for pagerank
/// to estimate performance differences (network bytes sent / peak network
/// bandwidth)": the paper predicts 1.75 / 9.8 / 5.6 / 32.7× for
/// CombBLAS / GraphLab / SociaLite / Giraph and finds the estimate within
/// 2.5× of measured. We reproduce both columns.
pub fn net_estimate(cfg: &ReproConfig) -> String {
    let spec = cfg.rmat(cfg.target_scale);
    let factor = cfg.factor(&spec, Algorithm::PageRank, 128u64 << 22);
    let cells =
        MULTI_NODE.map(|fw| cfg.cell("synthetic", Algorithm::PageRank, fw, &spec, 4, factor));
    let measured = measure(cfg, "netestimate", cells);
    let (native, others) = measured.split_first().expect("the native cell");
    let estimate = |r: &RunReport| r.traffic.bytes_sent as f64 / r.traffic.peak_bw_bps.max(1.0);
    let native = cell_report(&native.1);
    let mut rows = Vec::new();
    for (cell, result) in others {
        let name = cell.framework.name().to_string();
        rows.push(match (native, cell_report(result)) {
            (Ok(native), Ok(r)) => {
                let predicted = estimate(r) / estimate(native);
                let measured = r.sim_seconds / native.sim_seconds;
                let ratio = if predicted > measured {
                    predicted / measured
                } else {
                    measured / predicted
                };
                vec![
                    name,
                    fmt_slowdown(predicted),
                    fmt_slowdown(measured),
                    format!("{ratio:.1}"),
                ]
            }
            (Err(e), _) | (_, Err(e)) => std::iter::once(name)
                .chain(std::iter::repeat_n(e.to_string(), 3))
                .collect(),
        });
    }
    let mut out = String::from(
        "§5.4 — slowdown predicted from network traffic alone vs measured (pagerank, 4 nodes)\n\
         (paper predicts 1.75/9.8/5.6/32.7 and is within 2.5x of measured)\n\n",
    );
    let headers = ["framework", "predicted", "measured", "prediction error (x)"];
    out.push_str(&format_table(&headers, &rows));
    cfg.write_csv("net_estimate", &headers, &rows);
    out
}

/// §3.2/§6.1.2 — SGD vs GD convergence on the Netflix stand-in: "for the
/// Netflix dataset, given a fixed convergence criterion, SGD converges in
/// about 40x fewer iterations than GD", while per-iteration cost is
/// similar in native code.
pub fn sgd_vs_gd(cfg: &ReproConfig) -> String {
    let wl = cfg.workload(&WorkloadSpec::Dataset {
        ds: Dataset::NetflixLike,
        scale_down: 7,
        seed: cfg.seed,
    });
    let g = wl.ratings().expect("ratings");
    let sgd_cfg = CfConfig {
        k: 16,
        lambda: 0.05,
        gamma0: 0.015,
        step_decay: 0.95,
        seed: 7,
    };
    let mut gd_cfg = sgd_cfg;
    // GD sums gradients over all ratings before stepping, so stability
    // needs a step inversely proportional to the max user/item degree —
    // part of why its convergence is so much slower (§3.2)
    let max_deg = (0..g.num_users())
        .map(|u| g.user_degree(u))
        .chain((0..g.num_items()).map(|v| g.item_degree(v)))
        .max()
        .unwrap_or(1);
    gd_cfg.gamma0 = (0.5 / f64::from(max_deg)).min(0.002);
    let epochs = 60;
    let (_, sgd_hist) = cf::sgd(g, &sgd_cfg, 12, 0);
    let (_, gd_hist) = cf::gd(g, &gd_cfg, epochs, 0);
    let target = sgd_hist[1]; // what SGD reaches by epoch 2
    let se = cf::epochs_to_reach(&sgd_hist, target).expect("sgd reaches its own rmse");
    let ge = cf::epochs_to_reach(&gd_hist, target);
    let mut out = String::from("§3.2 — SGD vs GD convergence (netflix stand-in)\n\n");
    let rows = vec![
        vec![
            "sgd".to_string(),
            format!("{se}"),
            format!("{:.4}", sgd_hist.last().unwrap()),
        ],
        vec![
            "gd".to_string(),
            ge.map_or(format!("> {epochs}"), |g| g.to_string()),
            format!("{:.4}", gd_hist.last().unwrap()),
        ],
    ];
    let headers = [
        "method",
        &format!("epochs to rmse {target:.3}")[..],
        "final rmse",
    ];
    out.push_str(&format_table(&headers, &rows));
    let gap = ge.map_or(epochs as f64 / se as f64, |g| f64::from(g) / f64::from(se));
    out.push_str(&format!(
        "\nconvergence gap ≥ {gap:.0}x fewer SGD epochs (paper: ~40x on Netflix)\n"
    ));
    cfg.write_csv(
        "sgd_vs_gd",
        &["method", "epochs_to_target", "final_rmse"],
        &rows,
    );
    out
}

/// §6.1.3 — Giraph superstep splitting: unsplit triangle counting
/// buffers O(Σd²) message bytes and exhausts memory at paper scale;
/// splitting into many mini-supersteps caps the buffer at the cost of
/// extra barriers.
pub fn giraph_split(cfg: &ReproConfig) -> String {
    use graphmaze_core::engines::vertex::{giraph, programs, Backend};
    let spec = WorkloadSpec::RmatTriangle {
        scale: cfg.target_scale,
        edge_factor: 8,
        seed: cfg.seed,
    };
    let factor = cfg.factor(&spec, Algorithm::TriangleCount, 1_468_365_182); // Twitter-scale
    let wl = cfg.workload(&spec);
    let oriented = wl.oriented().expect("oriented");
    let mut rows = Vec::new();
    for splits in [1u32, 10, 100] {
        let res = with_work_scale(factor, || {
            Backend::Bsp(giraph::config(splits)).run(programs::triangle_job(oriented), 4)
        });
        match res {
            Ok((count, report)) => rows.push(vec![
                splits.to_string(),
                "ok".to_string(),
                count.to_string(),
                fmt_bytes(report.peak_mem_bytes as f64),
                format!("{:.1}", report.sim_seconds),
            ]),
            Err(SimError::OutOfMemory(o)) => rows.push(vec![
                splits.to_string(),
                "OOM".to_string(),
                "-".to_string(),
                format!("needs {}", fmt_bytes((o.in_use + o.requested) as f64)),
                "-".to_string(),
            ]),
            Err(e) => rows.push(vec![
                splits.to_string(),
                format!("{e}"),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    let mut out = String::from(
        "§6.1.3 — Giraph triangle counting with superstep splitting (4 nodes, Twitter-scale)\n\
         (paper: only the split version runs at all)\n\n",
    );
    let headers = [
        "splits",
        "status",
        "triangles",
        "peak mem/node",
        "sim seconds",
    ];
    out.push_str(&format_table(&headers, &rows));
    cfg.write_csv("giraph_split", &headers, &rows);
    out
}

/// §6.2 — **the roadmap, applied**: each framework re-run with the
/// paper's recommended changes implemented as real mechanisms, showing
/// how far the ninja gap closes. The paper's predictions: GraphLab and
/// SociaLite "within 5× of native"; Giraph "very competitive with other
/// frameworks" after a 10× network boost; CombBLAS triangle counting
/// fixed by fusing A² with the mask.
pub fn roadmap(cfg: &ReproConfig) -> String {
    use graphmaze_core::engines::spmv::combblas;
    use graphmaze_core::engines::vertex::{giraph, graphlab, programs, Backend};
    let params = standard_params();
    let spec = cfg.rmat(cfg.target_scale);
    let factor = cfg.factor(&spec, Algorithm::PageRank, 128u64 << 22);
    let wl = cfg.workload(&spec);
    let g = wl.directed().expect("directed");
    let native = run_cell(
        Algorithm::PageRank,
        Framework::Native,
        &wl,
        4,
        factor,
        &params,
    )
    .expect("native runs");
    let nt = native.seconds_per_iteration();
    let improved = |cfg| {
        let job = programs::pagerank_job(g, PAGERANK_R, params.pr_iterations);
        with_work_scale(factor, || Backend::Bsp(cfg).run(job, 4))
            .expect("improved")
            .1
    };

    let mut rows = Vec::new();
    // GraphLab: sockets→MPI + prefetch + compression
    {
        let before = run_cell(
            Algorithm::PageRank,
            Framework::GraphLab,
            &wl,
            4,
            factor,
            &params,
        )
        .expect("graphlab");
        let after = improved(graphlab::config_improved());
        rows.push(vec![
            "graphlab (pagerank)".into(),
            "MPI + prefetch + compression".into(),
            fmt_slowdown(before.seconds_per_iteration() / nt),
            fmt_slowdown(after.seconds_per_iteration() / nt),
            "within 5x".into(),
        ]);
    }
    // Giraph: 10x network + 24 workers + streaming buffers + compression
    {
        let before = run_cell(
            Algorithm::PageRank,
            Framework::Giraph,
            &wl,
            4,
            factor,
            &params,
        )
        .expect("giraph");
        let after = improved(giraph::config_improved(1));
        rows.push(vec![
            "giraph (pagerank)".into(),
            "10x network + 24 workers + streaming".into(),
            fmt_slowdown(before.seconds_per_iteration() / nt),
            fmt_slowdown(after.seconds_per_iteration() / nt),
            "competitive".into(),
        ]);
    }
    // CombBLAS: fused masked SpGEMM for TC
    {
        let tc_spec = WorkloadSpec::RmatTriangle {
            scale: cfg.target_scale,
            edge_factor: 8,
            seed: cfg.seed,
        };
        let tc_factor = cfg.factor(&tc_spec, Algorithm::TriangleCount, 32u64 << 22);
        let tc_wl = cfg.workload(&tc_spec);
        let tg = tc_wl.oriented().expect("oriented");
        let tc_native = run_cell(
            Algorithm::TriangleCount,
            Framework::Native,
            &tc_wl,
            4,
            tc_factor,
            &params,
        )
        .expect("native tc");
        let before = run_cell(
            Algorithm::TriangleCount,
            Framework::CombBlas,
            &tc_wl,
            4,
            tc_factor,
            &params,
        );
        let (after_count, after) = with_work_scale(tc_factor, || {
            combblas::triangles_improved(tg, 4).expect("fused tc")
        });
        let (native_count, _) = with_work_scale(tc_factor, || {
            graphmaze_core::native::triangle::triangles_cluster(tg, NativeOptions::all(), 4)
                .expect("native count")
        });
        assert_eq!(
            after_count, native_count,
            "fused SpGEMM must count correctly"
        );
        rows.push(vec![
            "combblas (triangle)".into(),
            "fused masked SpGEMM (no A2)".into(),
            or_annotation(before, |r| {
                fmt_slowdown(r.sim_seconds / tc_native.sim_seconds)
            }),
            fmt_slowdown(after.sim_seconds / tc_native.sim_seconds),
            "no OOM, overlap".into(),
        ]);
    }
    // CombBLAS: bit-vector frontier compression for BFS
    {
        let und = wl.undirected().expect("undirected");
        let bfs_native = run_cell(Algorithm::Bfs, Framework::Native, &wl, 4, factor, &params)
            .expect("native bfs");
        let before = run_cell(Algorithm::Bfs, Framework::CombBlas, &wl, 4, factor, &params)
            .expect("combblas bfs");
        let source = (0..und.num_vertices() as u32)
            .max_by_key(|&v| und.adj.degree(v))
            .unwrap();
        let after = with_work_scale(factor, || {
            combblas::bfs_improved(und, source, 4).expect("improved bfs")
        })
        .1;
        rows.push(vec![
            "combblas (bfs)".into(),
            "bit-vector frontier compression".into(),
            fmt_slowdown(before.sim_seconds / bfs_native.sim_seconds),
            fmt_slowdown(after.sim_seconds / bfs_native.sim_seconds),
            "improve BFS".into(),
        ]);
    }
    // SociaLite: network fix (Table 7) is its roadmap — reference it
    {
        let before = run_cell(
            Algorithm::PageRank,
            Framework::SociaLiteUnopt,
            &wl,
            4,
            factor,
            &params,
        )
        .expect("socialite-unopt");
        let after = run_cell(
            Algorithm::PageRank,
            Framework::SociaLite,
            &wl,
            4,
            factor,
            &params,
        )
        .expect("socialite");
        rows.push(vec![
            "socialite (pagerank)".into(),
            "multi-socket + batching (Table 7)".into(),
            fmt_slowdown(before.seconds_per_iteration() / nt),
            fmt_slowdown(after.seconds_per_iteration() / nt),
            "within 5x".into(),
        ]);
    }
    let mut out = String::from(
        "§6.2 — the roadmap, applied: slowdown vs native before/after the\n\
         paper's recommended changes (4 nodes)\n\n",
    );
    let headers = [
        "framework",
        "applied changes",
        "before",
        "after",
        "paper's target",
    ];
    out.push_str(&format_table(&headers, &rows));
    cfg.write_csv("roadmap", &headers, &rows);
    out
}

/// Extension beyond the paper: **strong scaling** — fixed total problem
/// size, growing node count. The paper only weak-scales (its rationale:
/// multi-node runs exist to fit bigger graphs); strong scaling exposes
/// the communication-to-computation crossover per framework.
pub fn strong_scaling(cfg: &ReproConfig) -> String {
    let spec = cfg.rmat(cfg.target_scale + 2);
    let factor = cfg.factor(&spec, Algorithm::PageRank, 512u64 << 20);
    let frameworks = [
        Framework::Native,
        Framework::CombBlas,
        Framework::GraphLab,
        Framework::Giraph,
    ];
    let mut cells = Vec::new();
    for nodes in [1usize, 2, 4, 8, 16, 32, 64] {
        for fw in frameworks {
            let label = format!("{nodes} nodes");
            cells.push(cfg.cell(label, Algorithm::PageRank, fw, &spec, nodes, factor));
        }
    }
    let measured = measure(cfg, "strongscaling", cells);
    let rows: Vec<_> = measured
        .chunks(frameworks.len())
        .map(|row| seconds_row(row[0].0.nodes.to_string(), row))
        .collect();
    let mut out = String::from(
        "Extension — PageRank strong scaling (fixed graph, s/iter)\n\
         (not in the paper; shows where communication overtakes compute)\n\n",
    );
    let headers = framework_headers("nodes", &measured[..frameworks.len()]);
    out.push_str(&format_table(&headers, &rows));
    cfg.write_csv("strong_scaling", &headers, &rows);
    out
}

/// §7 — the related-work frameworks the paper quantifies: GPS ("12X
/// performance improvement compared to Giraph ... but much slower than
/// native") and GraphX ("about 7X slower than GraphLab for pagerank").
pub fn related_work(cfg: &ReproConfig) -> String {
    use graphmaze_core::engines::vertex::{giraph, graphlab, programs, related, Backend};
    let params = standard_params();
    let spec = cfg.rmat(cfg.target_scale);
    let factor = cfg.factor(&spec, Algorithm::PageRank, 128u64 << 22);
    let wl = cfg.workload(&spec);
    let g = wl.directed().expect("directed");
    let it = params.pr_iterations;
    let native = run_cell(
        Algorithm::PageRank,
        Framework::Native,
        &wl,
        4,
        factor,
        &params,
    )
    .expect("native");
    let nt = native.seconds_per_iteration();
    let run4 = |cfg| -> f64 {
        with_work_scale(factor, || {
            Backend::Bsp(cfg).run(programs::pagerank_job(g, PAGERANK_R, it), 4)
        })
        .expect("runs")
        .1
        .seconds_per_iteration()
    };
    let giraph_t = run4(giraph::config(1));
    let graphlab_t = run4(graphlab::config());
    let gps_t = run4(related::gps_config());
    let graphx_t = run4(related::graphx_config());
    let rows = vec![
        vec![
            "gps".to_string(),
            fmt_slowdown(gps_t / nt),
            format!("{:.1}x faster than giraph (paper: 12x)", giraph_t / gps_t),
        ],
        vec![
            "graphx".to_string(),
            fmt_slowdown(graphx_t / nt),
            format!(
                "{:.1}x slower than graphlab (paper: ~7x)",
                graphx_t / graphlab_t
            ),
        ],
    ];
    let mut out = String::from(
        "§7 — related-work frameworks (pagerank, 4 nodes, paper-scale extrapolation)\n\n",
    );
    let headers = ["framework", "slowdown vs native", "paper's cited relation"];
    out.push_str(&format_table(&headers, &rows));
    cfg.write_csv("related_work", &headers, &rows);
    out
}

/// §6.1.1 ablations of design choices: partitioning balance, the
/// compression codec's effect on bytes, overlap's effect on triangle-
/// counting buffer memory, and GraphLab hub replication's effect on
/// wire bytes.
pub fn ablations(cfg: &ReproConfig) -> String {
    let mut out = String::from("Design-choice ablations (§6.1.1)\n\n");
    let wl = cfg.workload(&cfg.rmat(cfg.target_scale));
    let g = wl.directed().expect("directed");

    // (1) 1-D partition balance: vertex-balanced vs edge-balanced
    let by_vertex = Partition1D::balanced_by_vertices(g.num_vertices(), 4);
    let by_edges = Partition1D::balanced_by_edges(&g.inn, 4);
    let imbalance = |p: &Partition1D| -> f64 {
        let loads: Vec<u64> = (0..4).map(|k| p.edges_of(&g.inn, k)).collect();
        let max = *loads.iter().max().unwrap() as f64;
        let avg = loads.iter().sum::<u64>() as f64 / 4.0;
        max / avg.max(1.0)
    };
    let rows = vec![
        vec![
            "1-D by vertex count".to_string(),
            format!("{:.2}", imbalance(&by_vertex)),
        ],
        vec![
            "1-D by edge count".to_string(),
            format!("{:.2}", imbalance(&by_edges)),
        ],
    ];
    out.push_str("(1) partitioning — max/avg edge load per node (1.0 = perfect):\n");
    out.push_str(&format_table(&["scheme", "imbalance"], &rows));
    cfg.write_csv("ablation_partitioning", &["scheme", "imbalance"], &rows);

    // (2) compression: wire bytes with and without
    use graphmaze_core::native::pagerank::pagerank_cluster;
    let on = pagerank_cluster(g, PAGERANK_R, 3, NativeOptions::all(), 4)
        .unwrap()
        .1;
    let off = pagerank_cluster(
        g,
        PAGERANK_R,
        3,
        NativeOptions {
            compression: false,
            ..NativeOptions::all()
        },
        4,
    )
    .unwrap()
    .1;
    out.push_str(&format!(
        "\n(2) compression — pagerank wire bytes: {} -> {} ({:.1}x reduction; paper ~2.2x)\n",
        fmt_bytes(off.traffic.bytes_sent as f64),
        fmt_bytes(on.traffic.bytes_sent as f64),
        off.traffic.bytes_sent as f64 / on.traffic.bytes_sent.max(1) as f64
    ));

    // (3) overlap: triangle-counting buffer memory
    use graphmaze_core::native::triangle::triangles_cluster;
    let tc_wl = cfg.workload(&WorkloadSpec::RmatTriangle {
        scale: cfg.target_scale,
        edge_factor: 8,
        seed: cfg.seed,
    });
    let tg = tc_wl.oriented().expect("oriented");
    let with_overlap = triangles_cluster(tg, NativeOptions::all(), 4).unwrap().1;
    let without_overlap = triangles_cluster(
        tg,
        NativeOptions {
            overlap: false,
            ..NativeOptions::all()
        },
        4,
    )
    .unwrap()
    .1;
    out.push_str(&format!(
        "(3) overlap — TC peak buffer memory: {} -> {} (blocking large messages, §6.1.1)\n",
        fmt_bytes(without_overlap.peak_mem_bytes as f64),
        fmt_bytes(with_overlap.peak_mem_bytes as f64),
    ));

    // (4) GraphLab hub replication: wire traffic with/without
    {
        use graphmaze_core::engines::vertex::engine::EngineConfig;
        use graphmaze_core::engines::vertex::{graphlab, programs, Backend};
        let run = |cfg| {
            Backend::Bsp(cfg)
                .run(programs::pagerank_job(g, PAGERANK_R, 3), 4)
                .map_err(|e| e.to_string())
        };
        let with = run(graphlab::config());
        let without = run(EngineConfig {
            replicate_hubs_factor: None,
            ..graphlab::config()
        });
        if let (Ok((_, w)), Ok((_, wo))) = (with, without) {
            out.push_str(&format!(
                "(4) GraphLab hub replication — pagerank wire bytes {} -> {} ({:.2}x reduction)\n",
                fmt_bytes(wo.traffic.bytes_sent as f64),
                fmt_bytes(w.traffic.bytes_sent as f64),
                wo.traffic.bytes_sent as f64 / w.traffic.bytes_sent.max(1) as f64,
            ));
        }
    }
    out
}

/// Communication matrix — the message plane's per-(src, dst) traffic
/// accounting, surfaced as an artifact. Runs PageRank on 4 nodes under
/// each studied framework and prints who sent how many wire bytes to
/// whom; `comm_matrix.csv` carries the full `framework × src × dst`
/// crossbar. Row sums reconcile with the per-node sent bytes the
/// simulator meters independently — the invariant the conformance tests
/// pin — so the matrix is a lossless decomposition of Fig 6's "network
/// bytes sent" bars.
pub fn comm_matrix(cfg: &ReproConfig) -> String {
    let spec = cfg.rmat(cfg.target_scale);
    let factor = cfg.factor(&spec, Algorithm::PageRank, 128u64 << 20);
    let nodes = 4;
    let cells =
        MULTI_NODE.map(|fw| cfg.cell("synthetic", Algorithm::PageRank, fw, &spec, nodes, factor));
    let measured = measure(cfg, "commmatrix", cells);

    let mut out = String::from(
        "Communication matrix — pagerank wire bytes from src (row) to dst (column), 4 nodes\n\n",
    );
    let mut csv_rows = Vec::new();
    for (cell, result) in &measured {
        let fw = cell.framework;
        let r = match cell_report(result) {
            Ok(r) => r,
            Err(e) => {
                out.push_str(&format!("{}: {e}\n\n", fw.name()));
                continue;
            }
        };
        let m = &r.matrix;
        let mut rows = Vec::new();
        for src in 0..nodes {
            let mut row = vec![format!("node {src}")];
            for dst in 0..nodes {
                row.push(fmt_bytes(m.bytes(src, dst) as f64));
                csv_rows.push(vec![
                    fw.name().to_string(),
                    "pagerank".to_string(),
                    src.to_string(),
                    dst.to_string(),
                    m.bytes(src, dst).to_string(),
                    m.messages(src, dst).to_string(),
                ]);
            }
            row.push(fmt_bytes(m.row_bytes(src) as f64));
            rows.push(row);
        }
        let headers: Vec<String> = std::iter::once("src \\ dst".to_string())
            .chain((0..nodes).map(|d| format!("node {d}")))
            .chain(std::iter::once("sent".to_string()))
            .collect();
        let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
        out.push_str(&format!(
            "{} — total {} in {} packets (row sums reconcile: {})\n",
            fw.name(),
            fmt_bytes(m.total_bytes() as f64),
            m.total_messages(),
            (0..nodes).all(|n| m.row_bytes(n) == r.node_sent_bytes[n]),
        ));
        out.push_str(&format_table(&headers, &rows));
        out.push('\n');
    }
    cfg.write_csv(
        "comm_matrix",
        &["framework", "algorithm", "src", "dst", "bytes", "messages"],
        &csv_rows,
    );
    out
}

/// Resilience curve — retransmission overhead vs link-drop probability
/// (an extension beyond the paper, which benchmarks on a healthy
/// network). PageRank on 8 nodes per framework, sweeping the lossy-link
/// plane's drop probability; every lossy cell pays for acks, timeouts,
/// exponential-backoff retransmits, heartbeats, and (for the vertex
/// engines) speculative straggler re-execution, all charged to the Sim
/// clock by the deterministic protocol model.
///
/// The drop decision for a given `(src, dst, seq, attempt)` coordinate
/// is a pure threshold test on a seeded hash, so the curve is
/// byte-identical across `--jobs` settings and monotone in the drop
/// probability: raising the rate never un-drops a packet, so the
/// retransmit count per cell never decreases. `linkdrop=0` leaves every
/// clock bitwise-identical to the fault-free run — the first column *is*
/// the baseline.
pub fn resilience(cfg: &ReproConfig) -> String {
    let spec = cfg.rmat(cfg.target_scale);
    let factor = cfg.factor(&spec, Algorithm::PageRank, 128u64 << 20);
    let drops = [0.0f64, 0.001, 0.01, 0.05];
    let nodes = 8;
    let cell = |label: String, fw, faults| SweepCell {
        faults,
        ..cfg.cell(label, Algorithm::PageRank, fw, &spec, nodes, factor)
    };
    let mut cells = Vec::new();
    for fw in MULTI_NODE {
        for p in drops {
            let plan = FaultPlan::parse(&format!("seed=7,linkdrop={p}")).expect("valid spec");
            cells.push(cell(format!("{}@{p}", fw.name()), fw, plan));
        }
    }
    let measured = measure(cfg, "resilience", cells);

    let mut out = String::from(
        "Resilience curve — pagerank on 8 nodes under a lossy message plane\n\
         overhead = sim seconds vs the linkdrop=0 baseline of the same framework\n\n",
    );
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for row in measured.chunks(drops.len()) {
        let fw = row[0].0.framework.name();
        let mut cols = vec![fw.to_string()];
        let mut baseline = None;
        for ((_, result), p) in row.iter().zip(drops) {
            match cell_report(result) {
                Ok(r) => {
                    let base = *baseline.get_or_insert(r.sim_seconds);
                    let overhead = (r.sim_seconds / base - 1.0) * 100.0;
                    cols.push(if p == 0.0 {
                        fmt_secs(r.sim_seconds)
                    } else {
                        format!("{} (+{overhead:.1}%)", fmt_secs(r.sim_seconds))
                    });
                    csv_rows.push(resilience_csv_row(
                        fw.to_string(),
                        format!("{p}"),
                        format!("{overhead:.4}"),
                        r,
                    ));
                }
                Err(e) => cols.push(e.to_string()),
            }
        }
        rows.push(cols);
    }
    let headers: Vec<String> = std::iter::once("framework".to_string())
        .chain(drops.iter().map(|p| format!("linkdrop={p}")))
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    out.push_str(&format_table(&headers, &rows));

    // second act: layer stragglers and packet duplication on the lossy
    // plane so the vertex engines' speculative re-execution (and the
    // combiner's duplicate suppression) appear in the artifact — pure
    // link drops never make a node late, so the curve above never
    // speculates
    let spec_plan = "seed=7,linkdrop=0.01,dup=0.01,straggler=0.2x3";
    let plan = FaultPlan::parse(spec_plan).expect("valid spec");
    let cells = [Framework::GraphLab, Framework::Giraph]
        .map(|fw| cell(format!("{}@spec", fw.name()), fw, plan));
    let spec_measured = measure(cfg, "resilience-spec", cells);
    out.push_str(&format!(
        "\nspeculative re-execution under {spec_plan} (vertex engines only):\n\n"
    ));
    let mut spec_rows = Vec::new();
    for (cell, result) in &spec_measured {
        let fw = cell.framework.name();
        match cell_report(result) {
            Ok(r) => {
                let ret = &r.retransmit;
                spec_rows.push(vec![
                    fw.to_string(),
                    fmt_secs(r.sim_seconds),
                    ret.speculative_reexecs.to_string(),
                    fmt_secs(ret.speculative_seconds),
                    ret.suppressed_duplicates.to_string(),
                    ret.duplicates.to_string(),
                ]);
                csv_rows.push(resilience_csv_row(
                    format!("{fw}+spec"),
                    "0.01".to_string(),
                    String::new(),
                    r,
                ));
            }
            Err(e) => spec_rows.push([fw, e, "-", "-", "-", "-"].map(str::to_string).to_vec()),
        }
    }
    out.push_str(&format_table(
        &[
            "framework",
            "sim seconds",
            "spec reexecs",
            "spec seconds",
            "suppressed dups",
            "wire dups",
        ],
        &spec_rows,
    ));
    cfg.write_csv(
        "resilience",
        &[
            "framework",
            "drop_prob",
            "sim_seconds",
            "overhead_pct",
            "retransmits",
            "retransmitted_bytes",
            "duplicates",
            "timeout_seconds",
            "heartbeats",
            "suspicions",
            "speculative_reexecs",
            "suppressed_duplicates",
        ],
        &csv_rows,
    );
    out
}

/// One `resilience.csv` row: the framework (or variant), the drop rate,
/// the overhead over the baseline (empty without one), then the run's
/// seconds and retransmission counters.
fn resilience_csv_row(name: String, drop: String, overhead: String, r: &RunReport) -> Vec<String> {
    let ret = &r.retransmit;
    vec![
        name,
        drop,
        format!("{:.9e}", r.sim_seconds),
        overhead,
        ret.retransmits.to_string(),
        ret.retransmitted_bytes.to_string(),
        ret.duplicates.to_string(),
        format!("{:.9e}", ret.timeout_seconds),
        ret.heartbeats.to_string(),
        ret.suspicions.to_string(),
        ret.speculative_reexecs.to_string(),
        ret.suppressed_duplicates.to_string(),
    ]
}

/// Extension — **elastic cluster membership**. The paper benchmarks
/// fixed clusters (§4.3: every sweep point is a static node count);
/// this experiment grows and shrinks the cluster *mid-run* and verifies
/// the answer never changes. PageRank on 4 logical nodes per framework,
/// under three plans:
///
/// * `static` — the fault-free baseline;
/// * `grow-shrink` — node 4 joins at the barrier ending step 1
///   (warm-started from the last checkpoint), original node 1
///   gracefully drains and leaves at step 2 — its partition *must*
///   migrate, so rebalance traffic shows up in the communication
///   matrix — and node 4 departs at step 3, each membership change
///   triggering a live weighted repartitioning;
/// * `hetero` — a heterogeneous fleet (`hw=1:oldgen,hw=3:slownic`)
///   where the capacity-weighted repartitioner would give the slow
///   node half the edges.
///
/// Engines address logical partitions, so elasticity only moves where
/// partitions live — the digest of every elastic cell must be
/// bit-identical to its static baseline, and the whole table is
/// byte-identical across `--jobs` settings. Artifact: `elastic.csv`
/// (one row per cell with the full RebalanceStats).
pub fn elastic(cfg: &ReproConfig) -> String {
    let spec = cfg.rmat(cfg.target_scale);
    let factor = cfg.factor(&spec, Algorithm::PageRank, 128u64 << 20);
    let nodes = 4;
    let plans = [
        ("static", "none"),
        ("grow-shrink", "seed=7,ckpt=1,join=4@1,leave=1@2,leave=4@3"),
        ("hetero", "seed=7,hw=1:oldgen,hw=3:slownic"),
    ];
    let mut cells = Vec::new();
    for fw in [Framework::Native, Framework::GraphLab, Framework::Giraph] {
        for (name, plan) in plans {
            let faults = if plan == "none" {
                FaultPlan::none()
            } else {
                FaultPlan::parse(plan).expect("valid spec")
            };
            let label = format!("{}@{name}", fw.name());
            cells.push(SweepCell {
                faults,
                ..cfg.cell(label, Algorithm::PageRank, fw, &spec, nodes, factor)
            });
        }
    }
    let measured = measure(cfg, "elastic", cells);

    let mut out = String::from(
        "Elastic membership — pagerank on 4 logical nodes; joins/leaves\n\
         repartition live, digests must stay bit-identical to static\n\n",
    );
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for row in measured.chunks(plans.len()) {
        let fw = row[0].0.framework;
        let mut baseline: Option<f64> = None;
        for ((_, result), (name, plan)) in row.iter().zip(plans) {
            match &result.outcome {
                Ok(o) => {
                    let r = &o.report;
                    let base = *baseline.get_or_insert(o.digest);
                    let bitwise = o.digest.to_bits() == base.to_bits();
                    let reb = &r.rebalance;
                    rows.push(vec![
                        fw.name().to_string(),
                        name.to_string(),
                        fmt_secs(r.sim_seconds),
                        if bitwise { "bit-identical" } else { "DIVERGED" }.to_string(),
                        format!("{}+{}", reb.joins, reb.leaves),
                        fmt_bytes(reb.migrated_bytes as f64),
                        fmt_secs(reb.stall_seconds),
                        if reb.is_zero() {
                            format!("{nodes}→{nodes}")
                        } else {
                            format!("{}→{}", reb.peak_nodes, reb.final_nodes)
                        },
                    ]);
                    csv_rows.push(vec![
                        fw.name().to_string(),
                        name.to_string(),
                        plan.to_string(),
                        format!("{:.9e}", r.sim_seconds),
                        format!("{:.17e}", o.digest),
                        (bitwise as u8).to_string(),
                        reb.joins.to_string(),
                        reb.leaves.to_string(),
                        reb.rebalances.to_string(),
                        reb.migrated_bytes.to_string(),
                        reb.migrated_vertices.to_string(),
                        format!("{:.9e}", reb.stall_seconds),
                        format!("{:.9e}", reb.warmstart_seconds),
                        reb.drained_messages.to_string(),
                        reb.peak_nodes.to_string(),
                        reb.final_nodes.to_string(),
                    ]);
                }
                Err(e) => rows.push(vec![
                    fw.name().to_string(),
                    name.to_string(),
                    e.annotation().to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
    }
    out.push_str(&format_table(
        &[
            "framework",
            "plan",
            "sim seconds",
            "digest vs static",
            "joins+leaves",
            "migrated",
            "rebalance stall",
            "peak→final nodes",
        ],
        &rows,
    ));
    cfg.write_csv(
        "elastic",
        &[
            "framework",
            "plan",
            "faults",
            "sim_seconds",
            "digest",
            "digest_match",
            "joins",
            "leaves",
            "rebalances",
            "migrated_bytes",
            "migrated_vertices",
            "stall_seconds",
            "warmstart_seconds",
            "drained_messages",
            "peak_nodes",
            "final_nodes",
        ],
        &csv_rows,
    );
    out
}

/// Extension — **the ninja gap, measured**. The paper's central number
/// is the productivity frameworks' 2–30× slowdown over native ninja
/// code; GraphMat's answer is to *compile* the same vertex programs
/// onto the SpMV backend. One sweep per extended algorithm over native,
/// GraphLab, Giraph and GraphMat, reporting each framework's gap ratio —
/// work-model `sim_seconds` over native's — and whether its digest
/// matches native's. The quadratic-message algorithms (TC, CF) run at a
/// capped scale so Giraph's whole-superstep buffers survive; the rest
/// run at `--scale`. Artifacts: `ninjagap.csv` (one row per cell) and
/// `BENCH_ninjagap.json` (gap ratios, digest-match bits, per-framework
/// geomean gaps).
pub fn ninja_gap(cfg: &ReproConfig) -> String {
    let frameworks = [
        Framework::Native,
        Framework::GraphLab,
        Framework::Giraph,
        Framework::GraphMat,
    ];
    let capped = cfg.target_scale.min(14);
    // the vertex engines run CF as whole-gradient descent (the paper's
    // GD formulation), which with the standard step size is only stable
    // up to ~2^11 users; past that the RMSE digest blows up while
    // native's SGD still converges
    let cf_scale = cfg.target_scale.min(11);
    let mut cells = Vec::new();
    for alg in Algorithm::EXTENDED {
        let (spec, paper_edges, scale) = match alg {
            Algorithm::TriangleCount => (
                WorkloadSpec::RmatTriangle {
                    scale: capped,
                    edge_factor: 8,
                    seed: cfg.seed,
                },
                32u64 << 22,
                capped,
            ),
            Algorithm::CollaborativeFiltering => (
                WorkloadSpec::RmatRatings {
                    scale: cf_scale,
                    // items scale with users (fig3's shape) so per-item
                    // degree stays bounded
                    num_items: 1 << (cf_scale / 2),
                    seed: cfg.seed,
                },
                500_000_000,
                cf_scale,
            ),
            _ => (cfg.rmat(cfg.target_scale), 128u64 << 20, cfg.target_scale),
        };
        let factor = cfg.factor(&spec, alg, paper_edges);
        for fw in frameworks {
            cells.push(cfg.cell(format!("s{scale}"), alg, fw, &spec, 4, factor));
        }
    }
    let measured = measure(cfg, "ninjagap", cells);

    let mut out = String::from(
        "Extension — the ninja gap: slowdown vs native per algorithm, 4 nodes\n\
         (GraphMat auto-lowers the same vertex programs onto masked SpMSpV;\n\
         the paper's frameworks pay 2-30x, the lowering should pay far less)\n\n",
    );
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    let mut json = graphmaze_core::flatjson::FlatJsonBuilder::new();
    json.str("experiment", "ninjagap")
        .u64("scale", u64::from(cfg.target_scale))
        .u64("capped_scale", u64::from(capped))
        .u64("seed", cfg.seed)
        .u64("nodes", 4);
    let mut gaps = vec![Vec::new(); frameworks.len() - 1];
    for row in measured.chunks(frameworks.len()) {
        let (native_cell, native) = &row[0];
        let alg = native_cell.algorithm.name();
        let scale = native_cell.label.trim_start_matches('s');
        // CF's RMSE digest is fold-order sensitive across frameworks, so
        // its match criterion is the conformance matrix's: converged
        // below the untrained baseline (everything else: 1e-9 relative)
        let untrained = (native_cell.algorithm == Algorithm::CollaborativeFiltering).then(|| {
            let wl = cfg.workload(&native_cell.spec);
            let g = wl.ratings().expect("ratings");
            let sse: f64 = g
                .triples()
                .into_iter()
                .map(|(_, _, r)| f64::from(r).powi(2))
                .sum();
            (sse / g.num_ratings().max(1) as f64).sqrt()
        });
        let native_secs = seconds(&row[0]);
        let native_digest = native.outcome.as_ref().map_or(f64::NAN, |o| o.digest);
        let digest_matches = |d: f64| match untrained {
            Some(u) => d.is_finite() && d > 0.0 && d < u,
            None => (d - native_digest).abs() <= 1e-9 * native_digest.abs().max(1.0),
        };
        let failed = |fw: &str, e: &str| {
            [alg, fw, scale, e, "-", "-", "0"]
                .map(str::to_string)
                .to_vec()
        };
        csv_rows.push(match native_secs {
            Ok(secs) => vec![
                alg.to_string(),
                Framework::Native.name().to_string(),
                scale.to_string(),
                format!("{secs:.9e}"),
                "1.000".to_string(),
                format!("{native_digest:.17e}"),
                "1".to_string(),
            ],
            Err(e) => failed(Framework::Native.name(), e),
        });
        let mut cols = vec![alg.to_string(), or_annotation(native_secs, fmt_secs)];
        for (m, col_gaps) in row[1..].iter().zip(&mut gaps) {
            let (cell, result) = m;
            let fw = cell.framework.name();
            let gap = ratio(seconds(m), native_secs);
            let (Ok(gap), Ok(o)) = (gap, &result.outcome) else {
                let e = gap.expect_err("the cell or native failed");
                cols.push(e.to_string());
                csv_rows.push(failed(fw, e));
                continue;
            };
            let digest_match = digest_matches(o.digest);
            cols.push(format!(
                "{} {}",
                fmt_slowdown(gap),
                if digest_match { "=" } else { "DIGEST DIVERGES" }
            ));
            csv_rows.push(vec![
                alg.to_string(),
                fw.to_string(),
                scale.to_string(),
                format!("{:.9e}", reported_seconds(cell.algorithm, &o.report)),
                format!("{gap:.3}"),
                format!("{:.17e}", o.digest),
                u64::from(digest_match).to_string(),
            ]);
            json.f64(&format!("{alg}_{fw}_gap"), gap);
            json.u64(&format!("{alg}_{fw}_digest_match"), u64::from(digest_match));
            col_gaps.push(gap);
        }
        rows.push(cols);
    }
    let headers = framework_headers("algorithm", &measured[..frameworks.len()]);
    out.push_str(&format_table(&headers, &rows));
    out.push('\n');
    for ((cell, _), gaps) in measured[1..frameworks.len()].iter().zip(&gaps) {
        if gaps.is_empty() {
            continue;
        }
        let fw = cell.framework.name();
        let g = graphmaze_core::report::geomean(gaps);
        json.f64(&format!("{fw}_geomean_gap"), g);
        out.push_str(&format!("geomean gap {fw}: {}\n", fmt_slowdown(g)));
    }
    cfg.write_csv(
        "ninjagap",
        &[
            "algorithm",
            "framework",
            "scale",
            "reported_seconds",
            "gap_vs_native",
            "digest",
            "digest_match",
        ],
        &csv_rows,
    );
    cfg.write_artifact("BENCH_ninjagap.json", &(json.finish() + "\n"));
    out
}

/// Extension — the **bit-parallel multi-source BFS** column (ROADMAP
/// item: widen Table 5 beyond the paper's four algorithms): a two-scale
/// engine sweep over every framework with an msbfs port (native,
/// CombBLAS, GraphLab, Giraph — SociaLite and Galois are honest "n/a"
/// cells), 4 simulated nodes, digests journaled so `--resume` and the
/// serving daemon agree bit-exactly.
pub fn msbfs(cfg: &ReproConfig) -> String {
    let frameworks = [
        Framework::Native,
        Framework::CombBlas,
        Framework::GraphLab,
        Framework::Giraph,
    ];
    let scales = [cfg.target_scale.saturating_sub(2).max(6), cfg.target_scale];
    let mut cells = Vec::new();
    for scale in scales {
        let spec = cfg.rmat(scale);
        let factor = cfg.factor(&spec, Algorithm::MsBfs, 128u64 << 20);
        for fw in frameworks {
            cells.push(cfg.cell(format!("s{scale}"), Algorithm::MsBfs, fw, &spec, 4, factor));
        }
    }
    let measured = measure(cfg, "msbfs", cells);
    let mut out = String::from(
        "Extension — bit-parallel multi-source BFS (64 sources/word), 4 nodes\n\
         overall seconds per framework; digests are bit-exact across engines\n\n",
    );
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (scale, row) in scales.iter().zip(measured.chunks(frameworks.len())) {
        rows.push(seconds_row(format!("rmat s{scale}"), row));
        for (cell, result) in row {
            let (secs, bytes) = match cell_report(result) {
                Ok(r) => (
                    format!("{:.9e}", r.sim_seconds),
                    r.traffic.bytes_sent.to_string(),
                ),
                Err(e) => (e.to_string(), "-".to_string()),
            };
            let fw = cell.framework.name().to_string();
            csv_rows.push(vec![scale.to_string(), fw, secs, bytes]);
        }
    }
    let headers = framework_headers("dataset", &measured[..frameworks.len()]);
    out.push_str(&format_table(&headers, &rows));
    cfg.write_csv(
        "msbfs",
        &["scale", "framework", "sim_seconds", "bytes_sent"],
        &csv_rows,
    );
    out
}
