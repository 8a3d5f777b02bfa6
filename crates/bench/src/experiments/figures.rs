//! Figures 3–7 (and the Tables 5/6 geomean summaries derived from them).
//!
//! Figures 3–6 are sweep-based: each declares its crossbar as a `Sweep`
//! and executes through [`crate::run_sweep`], then renders rows by
//! walking the results in declaration order. Figure 7 drives the native
//! engine directly (it varies `NativeOptions`, which the crossbar
//! doesn't expose) but shares workloads through the cache.

use graphmaze_core::cluster::with_work_scale;
use graphmaze_core::prelude::*;
use graphmaze_core::report::{fmt_secs, fmt_slowdown, format_table, geomean};
use graphmaze_native::{bfs as nbfs, pagerank as npr, NativeOptions, PAGERANK_R};

use super::{cell_report, fig3_graph_specs, fig3_ratings_specs, reported_seconds};
use crate::{standard_params, ReproConfig};

// GraphMat (the auto-lowering engine, PR 9) rides at the end so every
// paper framework's cell keeps its declaration order and identity.
const FIG_FRAMEWORKS: [Framework; 7] = [
    Framework::Native,
    Framework::CombBlas,
    Framework::GraphLab,
    Framework::SociaLite,
    Framework::Giraph,
    Framework::Galois,
    Framework::GraphMat,
];

const MULTI_FRAMEWORKS: [Framework; 5] = [
    Framework::Native,
    Framework::CombBlas,
    Framework::GraphLab,
    Framework::SociaLite,
    Framework::Giraph,
];

/// Figure 3a–d and Table 5: single-node runtimes per dataset per
/// framework, plus the geometric-mean slowdown summary.
pub fn fig3_and_table5(cfg: &ReproConfig) -> String {
    let params = standard_params();
    let graphs = fig3_graph_specs(cfg);
    let ratings = fig3_ratings_specs(cfg);

    let mut sweep = Sweep::new("fig3");
    for alg in Algorithm::ALL {
        let datasets = if alg == Algorithm::CollaborativeFiltering {
            &ratings
        } else {
            &graphs
        };
        for (name, spec, factor) in datasets {
            for fw in FIG_FRAMEWORKS {
                sweep.push(SweepCell {
                    label: name.clone(),
                    algorithm: alg,
                    framework: fw,
                    spec: spec.clone(),
                    nodes: 1,
                    factor: *factor,
                    params,
                    faults: cfg.faults,
                });
            }
        }
    }
    let report = crate::run_sweep(cfg, &sweep);
    let mut results = report.results.iter();

    let mut out = String::new();
    // accumulated slowdowns per (framework, algorithm) for Table 5
    let mut slowdowns: std::collections::HashMap<(Framework, Algorithm), Vec<f64>> =
        std::collections::HashMap::new();
    for alg in Algorithm::ALL {
        let datasets = if alg == Algorithm::CollaborativeFiltering {
            &ratings
        } else {
            &graphs
        };
        let mut rows = Vec::new();
        for (name, _, _) in datasets {
            let mut row = vec![name.clone()];
            let mut native_secs = None;
            for fw in FIG_FRAMEWORKS {
                match cell_report(results.next().expect("one result per cell")) {
                    Ok(r) => {
                        let secs = reported_seconds(alg, r);
                        row.push(fmt_secs(secs));
                        if fw == Framework::Native {
                            native_secs = Some(secs);
                        } else {
                            slowdowns
                                .entry((fw, alg))
                                .or_default()
                                .push(secs / native_secs.expect("native must run"));
                        }
                    }
                    Err(e) => {
                        assert!(fw != Framework::Native, "native must run: {e}");
                        row.push(e);
                    }
                }
            }
            rows.push(row);
        }
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
        let headers = [
            "dataset",
            "native",
            "combblas",
            "graphlab",
            "socialite",
            "giraph",
            "galois",
            "graphmat",
        ];
        out.push_str(&format_table(&headers, &rows));
        out.push('\n');
        cfg.write_csv(&format!("fig3_{}", alg.name()), &headers, &rows);
    }

    // Table 5
    out.push_str(
        "Table 5 — single-node slowdowns vs native, geomean over datasets\n\
         (paper: PR 1.9/3.6/2.0/39/1.2; BFS 2.5/9.3/7.3/568/1.1;\n\
          CF 3.5/5.1/5.8/54/1.1; TC 34/3.2/4.7/484/2.5)\n\n",
    );
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        let mut row = vec![alg.name().to_string()];
        for fw in [
            Framework::CombBlas,
            Framework::GraphLab,
            Framework::SociaLite,
            Framework::Giraph,
            Framework::Galois,
            Framework::GraphMat,
        ] {
            match slowdowns.get(&(fw, alg)) {
                Some(v) if !v.is_empty() => row.push(fmt_slowdown(geomean(v))),
                _ => row.push("n/a".into()),
            }
        }
        rows.push(row);
    }
    let headers = [
        "algorithm",
        "combblas",
        "graphlab",
        "socialite",
        "giraph",
        "galois",
        "graphmat",
    ];
    out.push_str(&format_table(&headers, &rows));
    cfg.write_csv("table5", &headers, &rows);
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
    let params = standard_params();
    let node_counts: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
    let base_scale = cfg.target_scale.saturating_sub(3).max(8);

    let mut sweep = Sweep::new("fig4");
    for alg in Algorithm::ALL {
        let (_, paper_edges_per_node) = fig4_series(alg);
        for (i, &nodes) in node_counts.iter().enumerate() {
            let scale = base_scale + i as u32;
            let seed = cfg.seed + i as u64;
            let (spec, actual) = match alg {
                Algorithm::TriangleCount => {
                    let spec = WorkloadSpec::RmatTriangle {
                        scale,
                        edge_factor: 8,
                        seed,
                    };
                    let e = cfg
                        .workload(&spec)
                        .oriented()
                        .expect("oriented")
                        .num_edges();
                    (spec, e)
                }
                Algorithm::CollaborativeFiltering => {
                    let spec = WorkloadSpec::RmatRatings {
                        scale,
                        num_items: 1 << (scale / 2),
                        seed,
                    };
                    let e = cfg
                        .workload(&spec)
                        .ratings()
                        .expect("ratings")
                        .num_ratings();
                    (spec, e)
                }
                _ => {
                    let spec = WorkloadSpec::Rmat {
                        scale,
                        edge_factor: 16,
                        seed,
                    };
                    let e = cfg
                        .workload(&spec)
                        .directed()
                        .expect("directed")
                        .num_edges();
                    (spec, e)
                }
            };
            let factor = cfg.scale_factor(paper_edges_per_node * nodes as u64, actual);
            for fw in MULTI_FRAMEWORKS {
                sweep.push(SweepCell {
                    label: format!("{nodes} nodes"),
                    algorithm: alg,
                    framework: fw,
                    spec: spec.clone(),
                    nodes,
                    factor,
                    params,
                    faults: cfg.faults,
                });
            }
        }
    }
    let report = crate::run_sweep(cfg, &sweep);
    let mut results = report.results.iter();

    let mut out = String::new();
    let mut slowdowns: std::collections::HashMap<(Framework, Algorithm), Vec<f64>> =
        std::collections::HashMap::new();
    for alg in Algorithm::ALL {
        let (title, _) = fig4_series(alg);
        let mut rows = Vec::new();
        for &nodes in &node_counts {
            let mut row = vec![nodes.to_string()];
            let mut native_secs = None;
            for fw in MULTI_FRAMEWORKS {
                match cell_report(results.next().expect("one result per cell")) {
                    Ok(r) => {
                        let secs = reported_seconds(alg, r);
                        row.push(fmt_secs(secs));
                        if fw == Framework::Native {
                            native_secs = Some(secs);
                        } else if nodes > 1 {
                            slowdowns
                                .entry((fw, alg))
                                .or_default()
                                .push(secs / native_secs.expect("native must run"));
                        }
                    }
                    Err(e) => {
                        assert!(fw != Framework::Native, "native must run: {e}");
                        row.push(e);
                    }
                }
            }
            rows.push(row);
        }
        out.push_str(title);
        out.push_str("\n\n");
        let headers = [
            "nodes",
            "native",
            "combblas",
            "graphlab",
            "socialite",
            "giraph",
        ];
        out.push_str(&format_table(&headers, &rows));
        out.push('\n');
        cfg.write_csv(&format!("fig4_{}", alg.name()), &headers, &rows);
    }

    out.push_str(
        "Table 6 — multi-node slowdowns vs native, geomean over scales\n\
         (paper: PR 2.5/12.1/7.9/74; BFS 7.1/29.5/18.9/494;\n\
          CF 3.5/7.1/7.0/88; TC 13.1/3.6/1.5/54)\n\n",
    );
    let mut rows = Vec::new();
    for alg in Algorithm::ALL {
        let mut row = vec![alg.name().to_string()];
        for fw in [
            Framework::CombBlas,
            Framework::GraphLab,
            Framework::SociaLite,
            Framework::Giraph,
        ] {
            match slowdowns.get(&(fw, alg)) {
                Some(v) if !v.is_empty() => row.push(fmt_slowdown(geomean(v))),
                _ => row.push("n/a".into()),
            }
        }
        rows.push(row);
    }
    let headers = ["algorithm", "combblas", "graphlab", "socialite", "giraph"];
    out.push_str(&format_table(&headers, &rows));
    cfg.write_csv("table6", &headers, &rows);
    out
}

/// Figure 5 — large real-world graphs on multiple nodes: Twitter
/// (PageRank/BFS on 4 nodes, TC on 16) and Yahoo! Music CF on 4 nodes.
/// The paper notes CombBLAS runs out of memory on Twitter TC.
pub fn fig5(cfg: &ReproConfig) -> String {
    let params = standard_params();
    let tinfo = Dataset::TwitterLike.spec();
    let tfull = 64 - (tinfo.num_vertices - 1).leading_zeros();
    let tdown = tfull.saturating_sub(cfg.target_scale);
    let twitter = WorkloadSpec::Dataset {
        ds: Dataset::TwitterLike,
        scale_down: tdown,
        seed: cfg.seed,
    };
    let tfactor = cfg.scale_factor(
        tinfo.num_edges,
        cfg.workload(&twitter)
            .directed()
            .expect("graph")
            .num_edges(),
    );
    let yinfo = Dataset::YahooMusicLike.spec();
    let yfull = 64 - (yinfo.num_vertices - 1).leading_zeros();
    let ydown = yfull.saturating_sub(cfg.target_scale.min(yfull));
    let yahoo = WorkloadSpec::Dataset {
        ds: Dataset::YahooMusicLike,
        scale_down: ydown,
        seed: cfg.seed,
    };
    let yfactor = cfg.scale_factor(
        yinfo.num_edges,
        cfg.workload(&yahoo)
            .ratings()
            .expect("ratings")
            .num_ratings(),
    );

    let runs: [(&str, Algorithm, &WorkloadSpec, usize, f64); 4] = [
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
    let mut sweep = Sweep::new("fig5");
    for (label, alg, spec, nodes, factor) in runs {
        for fw in MULTI_FRAMEWORKS {
            sweep.push(SweepCell {
                label: label.to_string(),
                algorithm: alg,
                framework: fw,
                spec: spec.clone(),
                nodes,
                factor,
                params,
                faults: cfg.faults,
            });
        }
    }
    let report = crate::run_sweep(cfg, &sweep);
    let mut results = report.results.iter();

    let mut rows = Vec::new();
    for (label, alg, _, _, _) in runs {
        let mut row = vec![label.to_string()];
        for _ in MULTI_FRAMEWORKS {
            match cell_report(results.next().expect("one result per cell")) {
                Ok(r) => row.push(fmt_secs(reported_seconds(alg, r))),
                Err(e) => row.push(e),
            }
        }
        rows.push(row);
    }
    let mut out = String::from(
        "Figure 5 — large real-world graphs, multi-node\n\
         (paper: CombBLAS OOMs on Twitter TC; Giraph BFS 96747 s)\n\n",
    );
    let headers = [
        "run",
        "native",
        "combblas",
        "graphlab",
        "socialite",
        "giraph",
    ];
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
    let params = standard_params();
    let graph = WorkloadSpec::Rmat {
        scale: cfg.target_scale,
        edge_factor: 16,
        seed: cfg.seed,
    };
    let tc = WorkloadSpec::RmatTriangle {
        scale: cfg.target_scale,
        edge_factor: 8,
        seed: cfg.seed,
    };
    let ratings = WorkloadSpec::RmatRatings {
        scale: cfg.target_scale.saturating_sub(1),
        num_items: 1 << (cfg.target_scale / 2),
        seed: cfg.seed,
    };
    let mut sweep = Sweep::new("fig6");
    for alg in Algorithm::ALL {
        let (spec, paper_edges): (&WorkloadSpec, u64) = match alg {
            Algorithm::TriangleCount => (&tc, 32u64 << 22),
            Algorithm::CollaborativeFiltering => (&ratings, 256u64 << 22),
            _ => (&graph, 128u64 << 22),
        };
        let wl = cfg.workload(spec);
        let actual = match alg {
            Algorithm::TriangleCount => wl.oriented().expect("oriented").num_edges(),
            Algorithm::CollaborativeFiltering => wl.ratings().expect("ratings").num_ratings(),
            _ => wl.directed().expect("directed").num_edges(),
        };
        let factor = cfg.scale_factor(paper_edges, actual);
        for fw in MULTI_FRAMEWORKS {
            sweep.push(SweepCell {
                label: alg.name().to_string(),
                algorithm: alg,
                framework: fw,
                spec: spec.clone(),
                nodes: 4,
                factor,
                params,
                faults: cfg.faults,
            });
        }
    }
    let report = crate::run_sweep(cfg, &sweep);
    let mut results = report.results.iter();

    let mut out = String::new();
    for alg in Algorithm::ALL {
        let reports: Vec<(Framework, Result<&RunReport, String>)> = MULTI_FRAMEWORKS
            .iter()
            .map(|&fw| {
                (
                    fw,
                    cell_report(results.next().expect("one result per cell")),
                )
            })
            .collect();
        let giraph_bytes = reports
            .iter()
            .find(|(fw, _)| *fw == Framework::Giraph)
            .and_then(|(_, r)| r.as_ref().ok().map(|r| r.net_bytes_per_node()))
            .unwrap_or(1.0)
            .max(1.0);
        let mut rows = Vec::new();
        for (fw, r) in &reports {
            match r {
                Ok(r) => rows.push(vec![
                    fw.name().to_string(),
                    format!("{:.0}", r.cpu_utilization * 100.0),
                    format!("{:.0}", r.peak_net_bw_per_node() / 5.5e9 * 100.0),
                    format!("{:.0}", r.achieved_net_bw_per_node() / 5.5e9 * 100.0),
                    format!(
                        "{:.0}",
                        r.peak_mem_bytes as f64 / (64u64 << 30) as f64 * 100.0
                    ),
                    format!("{:.0}", r.net_bytes_per_node() / giraph_bytes * 100.0),
                ]),
                Err(e) => rows.push(vec![
                    fw.name().into(),
                    e.clone(),
                    e.clone(),
                    e.clone(),
                    e.clone(),
                    e.clone(),
                ]),
            }
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
    let wl = cfg.workload(&WorkloadSpec::Rmat {
        scale: cfg.target_scale,
        edge_factor: 16,
        seed: cfg.seed,
    });
    let g = wl.directed().expect("directed");
    let und = wl.undirected().expect("undirected");
    let factor = cfg.scale_factor(128u64 << 22, g.num_edges());
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
