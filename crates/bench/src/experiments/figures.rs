//! Figures 3–7 (and the Tables 5/6 geomean summaries derived from them).
//!
//! Figures 3–6 are sweep-based: each declares its crossbar as a `Sweep`
//! and renders rows from its cells paired with their results. Figure 7
//! drives the native engine directly (it varies `NativeOptions`, which
//! the crossbar doesn't expose) but shares workloads through the cache.

use graphmaze_core::cluster::with_work_scale;
use graphmaze_core::prelude::*;
use graphmaze_core::report::format_table;
use graphmaze_native::{bfs as nbfs, pagerank as npr, NativeOptions, PAGERANK_R};

use super::{
    add_slowdowns, cell_report, fig3_graph_specs, fig3_ratings_specs, framework_headers,
    geomean_row, measure, seconds_row, MULTI_NODE,
};
use crate::ReproConfig;

/// Figure 3a–d and Table 5: single-node runtimes per dataset per
/// framework, plus the geometric-mean slowdown summary. GraphMat (the
/// auto-lowering engine) rides at the end of [`Framework::EXTENDED`], so
/// every paper framework's cell keeps its declaration order and identity.
pub fn fig3_and_table5(cfg: &ReproConfig) -> String {
    let graphs = fig3_graph_specs(cfg);
    let ratings = fig3_ratings_specs(cfg);
    let mut cells = Vec::new();
    for alg in Algorithm::ALL {
        let datasets = if alg == Algorithm::CollaborativeFiltering {
            &ratings
        } else {
            &graphs
        };
        for (name, spec, factor) in datasets {
            for fw in Framework::EXTENDED {
                cells.push(cfg.cell(name, alg, fw, spec, 1, *factor));
            }
        }
    }
    let measured = measure(cfg, "fig3", cells);
    let width = Framework::EXTENDED.len();

    let mut out = String::new();
    let mut table5 = Vec::new();
    for per_alg in measured.chunk_by(|a, b| a.0.algorithm == b.0.algorithm) {
        let alg = per_alg[0].0.algorithm;
        let mut slowdowns = vec![Vec::new(); width - 1];
        let mut rows = Vec::new();
        for row in per_alg.chunks(width) {
            add_slowdowns(row, &mut slowdowns);
            rows.push(seconds_row(row[0].0.label.clone(), row));
        }
        table5.push(geomean_row(alg.name(), &slowdowns));
        let title = match alg {
            Algorithm::PageRank => "Figure 3(a) PageRank — seconds per iteration, single node",
            Algorithm::Bfs => "Figure 3(b) BFS — overall seconds, single node",
            Algorithm::CollaborativeFiltering => {
                "Figure 3(c) Collaborative Filtering — seconds per iteration, single node"
            }
            Algorithm::TriangleCount => {
                "Figure 3(d) Triangle Counting — overall seconds, single node"
            }
            Algorithm::MsBfs => "Multi-source BFS — overall seconds, single node",
        };
        out.push_str(title);
        out.push_str("\n\n");
        let headers = framework_headers("dataset", &per_alg[..width]);
        out.push_str(&format_table(&headers, &rows));
        out.push('\n');
        cfg.write_csv(&format!("fig3_{}", alg.name()), &headers, &rows);
    }

    out.push_str(
        "Table 5 — single-node slowdowns vs native, geomean over datasets\n\
         (paper: PR 1.9/3.6/2.0/39/1.2; BFS 2.5/9.3/7.3/568/1.1;\n\
          CF 3.5/5.1/5.8/54/1.1; TC 34/3.2/4.7/484/2.5)\n\n",
    );
    let headers = framework_headers("algorithm", &measured[1..width]);
    out.push_str(&format_table(&headers, &table5));
    cfg.write_csv("table5", &headers, &table5);
    out
}

/// Per-algorithm Fig 4 constants: title and the paper's edges-per-node
/// budget (scaled down from 128M/128M/256M/32M).
fn fig4_series(alg: Algorithm) -> (&'static str, u64) {
    match alg {
        Algorithm::PageRank => ("Figure 4(a) PageRank weak scaling (s/iter)", 128 << 20),
        Algorithm::Bfs => ("Figure 4(b) BFS weak scaling (overall s)", 128 << 20),
        Algorithm::CollaborativeFiltering => (
            "Figure 4(c) Collaborative Filtering weak scaling (s/iter)",
            256 << 20,
        ),
        Algorithm::TriangleCount => (
            "Figure 4(d) Triangle Counting weak scaling (overall s)",
            32 << 20,
        ),
        Algorithm::MsBfs => ("Multi-source BFS weak scaling (overall s)", 128 << 20),
    }
}

/// Figure 4a–d and Table 6: weak scaling on synthetic graphs (constant
/// edges per node) from 1 to 64 nodes, and the multi-node geomean
/// summary.
pub fn fig4_and_table6(cfg: &ReproConfig) -> String {
    let base_scale = cfg.target_scale.saturating_sub(3).max(8);
    let mut cells = Vec::new();
    for alg in Algorithm::ALL {
        let (_, paper_edges_per_node) = fig4_series(alg);
        for (i, nodes) in [1usize, 2, 4, 8, 16, 32, 64].into_iter().enumerate() {
            let (scale, seed) = (base_scale + i as u32, cfg.seed + i as u64);
            let spec = match alg {
                Algorithm::TriangleCount => WorkloadSpec::RmatTriangle {
                    scale,
                    edge_factor: 8,
                    seed,
                },
                Algorithm::CollaborativeFiltering => WorkloadSpec::RmatRatings {
                    scale,
                    num_items: 1 << (scale / 2),
                    seed,
                },
                _ => WorkloadSpec::Rmat {
                    scale,
                    edge_factor: 16,
                    seed,
                },
            };
            let factor = cfg.factor(&spec, alg, paper_edges_per_node * nodes as u64);
            for fw in MULTI_NODE {
                cells.push(cfg.cell(format!("{nodes} nodes"), alg, fw, &spec, nodes, factor));
            }
        }
    }
    let measured = measure(cfg, "fig4", cells);
    let width = MULTI_NODE.len();

    let mut out = String::new();
    let mut table6 = Vec::new();
    for per_alg in measured.chunk_by(|a, b| a.0.algorithm == b.0.algorithm) {
        let alg = per_alg[0].0.algorithm;
        let mut slowdowns = vec![Vec::new(); width - 1];
        let mut rows = Vec::new();
        for row in per_alg.chunks(width) {
            let nodes = row[0].0.nodes;
            if nodes > 1 {
                add_slowdowns(row, &mut slowdowns);
            }
            rows.push(seconds_row(nodes.to_string(), row));
        }
        table6.push(geomean_row(alg.name(), &slowdowns));
        out.push_str(fig4_series(alg).0);
        out.push_str("\n\n");
        let headers = framework_headers("nodes", &per_alg[..width]);
        out.push_str(&format_table(&headers, &rows));
        out.push('\n');
        cfg.write_csv(&format!("fig4_{}", alg.name()), &headers, &rows);
    }

    out.push_str(
        "Table 6 — multi-node slowdowns vs native, geomean over scales\n\
         (paper: PR 2.5/12.1/7.9/74; BFS 7.1/29.5/18.9/494;\n\
          CF 3.5/7.1/7.0/88; TC 13.1/3.6/1.5/54)\n\n",
    );
    let headers = framework_headers("algorithm", &measured[1..width]);
    out.push_str(&format_table(&headers, &table6));
    cfg.write_csv("table6", &headers, &table6);
    out
}

/// Figure 5 — large real-world graphs on multiple nodes: Twitter
/// (PageRank/BFS on 4 nodes, TC on 16) and Yahoo! Music CF on 4 nodes.
/// The paper notes CombBLAS runs out of memory on Twitter TC.
pub fn fig5(cfg: &ReproConfig) -> String {
    let twitter = super::dataset(cfg, Dataset::TwitterLike);
    let yahoo = super::dataset(cfg, Dataset::YahooMusicLike);
    // Twitter's factor is sized by its directed edges for TC too
    let tfactor = cfg.factor(
        &twitter,
        Algorithm::PageRank,
        Dataset::TwitterLike.spec().num_edges,
    );
    let yfactor = cfg.factor(
        &yahoo,
        Algorithm::CollaborativeFiltering,
        Dataset::YahooMusicLike.spec().num_edges,
    );
    let runs = [
        (
            "pagerank (twitter, 4 nodes)",
            Algorithm::PageRank,
            &twitter,
            4,
            tfactor,
        ),
        (
            "bfs (twitter, 4 nodes)",
            Algorithm::Bfs,
            &twitter,
            4,
            tfactor,
        ),
        (
            "cf (yahoo-music, 4 nodes)",
            Algorithm::CollaborativeFiltering,
            &yahoo,
            4,
            yfactor,
        ),
        (
            "triangle (twitter, 16 nodes)",
            Algorithm::TriangleCount,
            &twitter,
            16,
            tfactor,
        ),
    ];
    let mut cells = Vec::new();
    for (label, alg, spec, nodes, factor) in runs {
        for fw in MULTI_NODE {
            cells.push(cfg.cell(label, alg, fw, spec, nodes, factor));
        }
    }
    let measured = measure(cfg, "fig5", cells);

    let rows: Vec<_> = measured
        .chunks(MULTI_NODE.len())
        .map(|row| seconds_row(row[0].0.label.clone(), row))
        .collect();
    let mut out = String::from(
        "Figure 5 — large real-world graphs, multi-node\n\
         (paper: CombBLAS OOMs on Twitter TC; Giraph BFS 96747 s)\n\n",
    );
    let headers = framework_headers("run", &measured[..MULTI_NODE.len()]);
    out.push_str(&format_table(&headers, &rows));
    cfg.write_csv("fig5", &headers, &rows);
    out
}

/// Figure 6 — system-level metrics for 4-node runs of each algorithm:
/// CPU utilization, network bandwidth, memory footprint and network
/// bytes sent, normalized exactly as in the paper's caption (100 = 100%
/// CPU / 5.5 GB/s / 64 GB/node / Giraph's bytes for that algorithm).
/// The "peak net bw" column is the **true peak** over the step timeline
/// — the busiest single step's per-node send rate — with the
/// duration-weighted average kept as a separate labelled column; peak ≥
/// average by construction. The journal carries the full report
/// (timeline included), so resumed runs rebuild these columns — not
/// just seconds — byte-identically.
pub fn fig6(cfg: &ReproConfig) -> String {
    let graph = cfg.rmat(cfg.target_scale);
    let tc = WorkloadSpec::RmatTriangle {
        scale: cfg.target_scale,
        edge_factor: 8,
        seed: cfg.seed,
    };
    // one scale below the graphs, but with the item count of the
    // target scale
    let ratings = WorkloadSpec::RmatRatings {
        scale: cfg.target_scale.saturating_sub(1),
        num_items: 1 << (cfg.target_scale / 2),
        seed: cfg.seed,
    };
    let mut cells = Vec::new();
    for alg in Algorithm::ALL {
        let (spec, paper_edges) = match alg {
            Algorithm::TriangleCount => (&tc, 32u64 << 22),
            Algorithm::CollaborativeFiltering => (&ratings, 256u64 << 22),
            _ => (&graph, 128u64 << 22),
        };
        let factor = cfg.factor(spec, alg, paper_edges);
        for fw in MULTI_NODE {
            cells.push(cfg.cell(alg.name(), alg, fw, spec, 4, factor));
        }
    }
    let measured = measure(cfg, "fig6", cells);

    let mut out = String::new();
    for per_alg in measured.chunks(MULTI_NODE.len()) {
        let alg = per_alg[0].0.algorithm;
        let giraph_bytes = per_alg
            .iter()
            .find(|(c, _)| c.framework == Framework::Giraph)
            .and_then(|(_, r)| cell_report(r).ok().map(|r| r.net_bytes_per_node()))
            .unwrap_or(1.0)
            .max(1.0);
        let mut rows = Vec::new();
        for (cell, result) in per_alg {
            let fw = cell.framework.name().to_string();
            rows.push(match cell_report(result) {
                Ok(r) => vec![
                    fw,
                    format!("{:.0}", r.cpu_utilization * 100.0),
                    format!("{:.0}", r.peak_net_bw_per_node() / 5.5e9 * 100.0),
                    format!("{:.0}", r.achieved_net_bw_per_node() / 5.5e9 * 100.0),
                    format!(
                        "{:.0}",
                        r.peak_mem_bytes as f64 / (64u64 << 30) as f64 * 100.0
                    ),
                    format!("{:.0}", r.net_bytes_per_node() / giraph_bytes * 100.0),
                ],
                Err(e) => std::iter::once(fw)
                    .chain(std::iter::repeat_n(e.to_string(), 5))
                    .collect(),
            });
        }
        out.push_str(&format!(
            "Figure 6 ({}) — normalized system metrics, 4 nodes\n\n",
            alg.name()
        ));
        let headers = [
            "framework",
            "cpu util %",
            "peak net bw %",
            "avg net bw %",
            "memory %",
            "net bytes % of giraph",
        ];
        out.push_str(&format_table(&headers, &rows));
        out.push('\n');
        cfg.write_csv(&format!("fig6_{}", alg.name()), &headers, &rows);
    }
    out
}

/// Figure 7 — the native optimization ablation for PageRank and BFS:
/// cumulative speedups of software prefetching, then message
/// compression, then computation/communication overlap (BFS adds the
/// bit-vector data structure). 4 nodes, as in §6.1.2.
pub fn fig7(cfg: &ReproConfig) -> String {
    let spec = cfg.rmat(cfg.target_scale);
    let factor = cfg.factor(&spec, Algorithm::PageRank, 128u64 << 22);
    let wl = cfg.workload(&spec);
    let g = wl.directed().expect("directed");
    let und = wl.undirected().expect("undirected");
    let source = (0..und.num_vertices() as u32)
        .max_by_key(|&v| und.adj.degree(v))
        .unwrap();

    let base = NativeOptions::none();
    let pf = NativeOptions {
        prefetch: true,
        ..base
    };
    let pf_c = NativeOptions {
        compression: true,
        ..pf
    };
    let pf_c_o = NativeOptions {
        overlap: true,
        ..pf_c
    };
    let all = NativeOptions::all(); // adds the bit-vector lever

    let pr_time = |o: NativeOptions| -> f64 {
        with_work_scale(factor, || {
            npr::pagerank_cluster(g, PAGERANK_R, 3, o, 4)
                .expect("pr runs")
                .1
                .sim_seconds
        })
    };
    let bfs_time = |o: NativeOptions| -> f64 {
        with_work_scale(factor, || {
            nbfs::bfs_cluster(und, source, o, 4)
                .expect("bfs runs")
                .1
                .sim_seconds
        })
    };

    let pr_base = pr_time(base);
    let bfs_base = bfs_time(base);
    let rows = vec![
        vec![
            "s/w prefetching".to_string(),
            format!("{:.1}", pr_base / pr_time(pf)),
            format!("{:.1}", bfs_base / bfs_time(pf)),
        ],
        vec![
            "+ compression".to_string(),
            format!("{:.1}", pr_base / pr_time(pf_c)),
            format!("{:.1}", bfs_base / bfs_time(pf_c)),
        ],
        vec![
            "+ overlap comp/comm".to_string(),
            format!("{:.1}", pr_base / pr_time(pf_c_o)),
            format!("{:.1}", bfs_base / bfs_time(pf_c_o)),
        ],
        vec![
            "+ data structure opt".to_string(),
            format!("{:.1}", pr_base / pr_time(all)),
            format!("{:.1}", bfs_base / bfs_time(all)),
        ],
    ];
    let mut out = String::from(
        "Figure 7 — cumulative native optimization speedups, 4 nodes\n\
         (paper: prefetch then compression ~2-3x then overlap 1.2-2x;\n\
          BFS bit-vectors ~2x more)\n\n",
    );
    let headers = [
        "optimization (cumulative)",
        "pagerank speedup",
        "bfs speedup",
    ];
    out.push_str(&format_table(&headers, &rows));
    cfg.write_csv("fig7", &headers, &rows);
    out
}
