//! The benchmark's definition: workloads, end-to-end metrics with their
//! regression bounds, and the per-layer metric list. `BENCHMARK.json` at
//! the repository root is this table rendered (`-- spec`); a unit test
//! keeps the two identical.

use crate::json::Json;

/// The seed the goldens are pinned for (SIGMOD'14 opened on 2014-06-22;
/// also `ReproConfig::default().seed`).
pub const DEFAULT_SEED: u64 = 20140622;

/// How long one run measures, seconds.
pub const RUN_SECONDS: u32 = 15;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "crossbar",
        why: "repro fig3 at scale 12, jobs=1, journal+CSV: 98 single-node cells, 7 frameworks x 4 algorithms. What users run; engines do >90% (vertex/GraphMat CF >50%, TC ~30%), native <5%.",
    },
    WorkloadSpec {
        name: "kernels",
        why: "Raw native PR/BFS/msbfs/TC/SGD kernels at all threads and 1 thread on rmat s17, rmat-tc s15, cf s16, then 5 native 1-node cells. Bypasses every framework engine; largest set-up.",
    },
    WorkloadSpec {
        name: "cluster",
        why: "192 multi-node cells (4/16/64 nodes) x 6 frameworks x plans none/lossy/elastic/recover on rmat s13 and s11 inputs: cheap algorithms, so Sim/router/partition/fault bookkeeping dominates.",
    },
    WorkloadSpec {
        name: "serve_hot",
        why: "In-process daemon, jobs=2, cache 1024, 29-cell grid pre-filled; closed-loop Zipf(1.0) requests on 1 connection. Every request is a cache hit: protocol, flatjson, key, telemetry, socket.",
    },
    WorkloadSpec {
        name: "serve_churn",
        why: "Same daemon with cache capacity 16 under the 29-cell grid at scale 9: working set larger than the cache, so hits (79%), misses, admissions and LRU evictions interleave; rps is set by misses.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub what: &'static str,
}

/// Every workload reports every one of these (the contract requires it),
/// so they are the workload-independent forms of the issue's list: `rps`
/// became `ops_per_s` and the hit/miss medians `op_p50_us`. The tail
/// percentiles are per-layer (`serve.hit_p99_us`, `serve.miss_p99_ms`):
/// on the reference VM no tail percentile repeats within 25 % from run to
/// run, so none can carry a bound. Every bound is the contract's maximum
/// for the same reason — ten runs of one commit spread by 7–13 %.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "one full set-up before the timed section (generators, view build, daemon bind, cache pre-fill); median of 5 set-ups from scratch",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "wall-clock of one pass over the workload's fixed operation list, tracing off; median over the passes of the run",
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "user+system CPU of the whole process during one pass (CLOCK_PROCESS_CPUTIME_ID); median over the passes",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        what: "peak resident set of the process (VmHWM) at the end of the run",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "operations of one pass / wall_s (cells, kernel invocations, or requests: rps on the serve workloads)",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "median operation latency within a pass, nearest rank over integer ns; median over the passes (a cache hit on both serve workloads)",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Workloads whose traced run measures it; it reads 0 elsewhere.
    /// `all` marks an API probe that every traced run repeats.
    pub source: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

use Better::{Higher as H, Lower as L};

const DENOM: &str = "denominator only";
const K_SETUP: &str = "setup_s on kernels (and crossbar)";
const K_WALL: &str = "wall_s on kernels; <3% of crossbar";
const X_WALL: &str = "wall_s, cpu_s, peak_rss_mb on crossbar; miss latency on serve_churn";
const C_WALL: &str = "wall_s on cluster";
const HOT: &str = "op_p50_us, ops_per_s on serve_hot";
const CHURN: &str = "ops_per_s, wall_s on serve_churn";

pub const PER_LAYER: [PerLayer; 100] = [
    // host probe
    pl("host.stream_triad_gbps", "GB/s", H, "kernels", DENOM),
    pl("host.gather_maccess_per_s", "M/s", H, "kernels", DENOM),
    pl("host.llc_bytes", "B", H, "kernels", DENOM),
    pl("host.probe_array_bytes", "B", H, "kernels", DENOM),
    // datagen
    pl("datagen.rmat_medges_per_s", "M/s", H, "kernels", K_SETUP),
    pl(
        "datagen.ratings_mratings_per_s",
        "M/s",
        H,
        "kernels",
        K_SETUP,
    ),
    pl(
        "datagen.dataset_s",
        "s",
        L,
        "kernels",
        "setup_s on crossbar",
    ),
    pl("datagen.busy_s", "s", L, "kernels", K_SETUP),
    // graph
    pl(
        "graph.csr_from_edges_medges_per_s",
        "M/s",
        H,
        "kernels",
        K_SETUP,
    ),
    pl("graph.symmetrize_s", "s", L, "kernels", K_SETUP),
    pl("graph.orient_sort_s", "s", L, "kernels", K_SETUP),
    pl("graph.transpose_medges_per_s", "M/s", H, "kernels", K_SETUP),
    pl("graph.busy_s", "s", L, "kernels", K_SETUP),
    // native: rate, fraction of the host roofline, thread scaling, and
    // what the 1-node cluster path costs over the raw kernel
    pl("native.pagerank_medges_per_s", "M/s", H, "kernels", K_WALL),
    pl(
        "native.pagerank_roofline_frac",
        "ratio",
        H,
        "kernels",
        K_WALL,
    ),
    pl("native.pagerank_par_speedup", "ratio", H, "kernels", K_WALL),
    pl(
        "native.pagerank_cluster_path_ratio",
        "ratio",
        L,
        "kernels",
        K_WALL,
    ),
    pl("native.bfs_medges_per_s", "M/s", H, "kernels", K_WALL),
    pl("native.bfs_roofline_frac", "ratio", H, "kernels", K_WALL),
    pl("native.bfs_par_speedup", "ratio", H, "kernels", K_WALL),
    pl(
        "native.bfs_cluster_path_ratio",
        "ratio",
        L,
        "kernels",
        K_WALL,
    ),
    pl("native.msbfs_medges_per_s", "M/s", H, "kernels", K_WALL),
    pl("native.msbfs_roofline_frac", "ratio", H, "kernels", K_WALL),
    pl("native.msbfs_par_speedup", "ratio", H, "kernels", K_WALL),
    pl(
        "native.msbfs_cluster_path_ratio",
        "ratio",
        L,
        "kernels",
        K_WALL,
    ),
    pl("native.triangle_medges_per_s", "M/s", H, "kernels", K_WALL),
    pl(
        "native.triangle_roofline_frac",
        "ratio",
        H,
        "kernels",
        K_WALL,
    ),
    pl("native.triangle_par_speedup", "ratio", H, "kernels", K_WALL),
    pl(
        "native.triangle_cluster_path_ratio",
        "ratio",
        L,
        "kernels",
        K_WALL,
    ),
    pl("native.cf_mratings_per_s", "M/s", H, "kernels", K_WALL),
    pl("native.cf_roofline_frac", "ratio", H, "kernels", K_WALL),
    pl("native.cf_par_speedup", "ratio", H, "kernels", K_WALL),
    pl(
        "native.cf_cluster_path_ratio",
        "ratio",
        L,
        "kernels",
        K_WALL,
    ),
    // engines: where the crossbar's time goes
    pl("engines.native.busy_s", "s", L, "crossbar", X_WALL),
    pl("engines.combblas.busy_s", "s", L, "crossbar", X_WALL),
    pl("engines.graphlab.busy_s", "s", L, "crossbar", X_WALL),
    pl("engines.socialite.busy_s", "s", L, "crossbar", X_WALL),
    pl("engines.giraph.busy_s", "s", L, "crossbar", X_WALL),
    pl("engines.galois.busy_s", "s", L, "crossbar", X_WALL),
    pl("engines.graphmat.busy_s", "s", L, "crossbar", X_WALL),
    pl("engines.combblas.host_gap", "ratio", L, "crossbar", X_WALL),
    pl("engines.graphlab.host_gap", "ratio", L, "crossbar", X_WALL),
    pl("engines.socialite.host_gap", "ratio", L, "crossbar", X_WALL),
    pl("engines.giraph.host_gap", "ratio", L, "crossbar", X_WALL),
    pl("engines.galois.host_gap", "ratio", L, "crossbar", X_WALL),
    pl("engines.graphmat.host_gap", "ratio", L, "crossbar", X_WALL),
    pl("engines.pagerank_s", "s", L, "crossbar", X_WALL),
    pl("engines.bfs_s", "s", L, "crossbar", X_WALL),
    pl("engines.triangle_s", "s", L, "crossbar", X_WALL),
    pl("engines.cf_s", "s", L, "crossbar", X_WALL),
    pl("engines.vertex_cf_s", "s", L, "crossbar", X_WALL),
    pl("engines.vertex_host_ns_per_msg", "ns", L, "cluster", C_WALL),
    pl("engines.failed_cell_s", "s", L, "crossbar", X_WALL),
    pl("engines.wasted_frac", "ratio", L, "crossbar", X_WALL),
    // cluster: ratios over paired cells, API probes, exact counts
    pl(
        "cluster.nodes64_over_nodes4_ratio",
        "ratio",
        L,
        "cluster",
        C_WALL,
    ),
    pl(
        "cluster.lossy_over_none_ratio",
        "ratio",
        L,
        "cluster",
        C_WALL,
    ),
    pl(
        "cluster.elastic_over_none_ratio",
        "ratio",
        L,
        "cluster",
        C_WALL,
    ),
    pl(
        "cluster.recover_over_none_ratio",
        "ratio",
        L,
        "cluster",
        C_WALL,
    ),
    pl("cluster.host_us_per_sim_msg", "us", L, "cluster", C_WALL),
    pl("cluster.sim_ns_per_send_to", "ns", L, "all", C_WALL),
    pl("cluster.sim_us_per_end_step", "us", L, "all", C_WALL),
    pl("cluster.router_ns_per_msg", "ns", L, "all", C_WALL),
    pl("cluster.compress_encode_mb_per_s", "MB/s", H, "all", C_WALL),
    pl("cluster.compress_decode_mb_per_s", "MB/s", H, "all", C_WALL),
    pl("cluster.retransmits", "count", L, "cluster", "exact repeat"),
    pl("cluster.rebalance_bytes", "B", L, "cluster", "exact repeat"),
    // core
    pl(
        "core.cell_overhead_us",
        "us",
        L,
        "all",
        "miss latency on serve_churn; wall_s on cluster",
    ),
    pl("core.cell_key_ns", "ns", L, "all", HOT),
    pl("core.result_cache_get_ns", "ns", L, "all", HOT),
    pl("core.result_cache_admit_ns", "ns", L, "all", CHURN),
    pl("core.workload_cache_hit_ns", "ns", L, "all", CHURN),
    pl("core.flatjson_parse_ns_per_line", "ns", L, "all", HOT),
    pl(
        "core.journal_write_us_per_cell",
        "us",
        L,
        "all",
        "wall_s on crossbar, cluster",
    ),
    pl(
        "core.journal_resume_us_per_cell",
        "us",
        L,
        "crossbar",
        "wall_s of a resumed repro run",
    ),
    pl(
        "core.journal_bytes_per_cell",
        "B",
        L,
        "crossbar",
        "exact repeat",
    ),
    pl(
        "core.sweep_jobs2_speedup",
        "ratio",
        H,
        "cluster",
        "wall_s of a --jobs 2 sweep",
    ),
    // metrics
    pl("metrics.histogram_observe_ns", "ns", L, "all", HOT),
    pl(
        "metrics.expose_render_us",
        "us",
        L,
        "serve_hot,serve_churn",
        "serve.metrics_scrape_ms",
    ),
    pl(
        "metrics.expose_parse_us",
        "us",
        L,
        "serve_hot,serve_churn",
        "serve.metrics_scrape_ms",
    ),
    pl(
        "metrics.telemetry_sweep_overhead_frac",
        "ratio",
        L,
        "all",
        "wall_s of a --telemetry sweep",
    ),
    // bench
    pl(
        "bench.fig3_render_ms",
        "ms",
        L,
        "crossbar",
        "wall_s on crossbar (<1%)",
    ),
    pl(
        "bench.trace_write_ms",
        "ms",
        L,
        "crossbar",
        "wall_s of repro --trace",
    ),
    pl("bench.trace_bytes", "B", L, "crossbar", "exact repeat"),
    // serve
    pl("serve.rps", "1/s", H, "serve_hot,serve_churn", "ops_per_s"),
    pl("serve.hit_p50_us", "us", L, "serve_hot,serve_churn", HOT),
    pl("serve.hit_p99_us", "us", L, "serve_hot,serve_churn", HOT),
    pl("serve.miss_p50_ms", "ms", L, "serve_churn", CHURN),
    pl("serve.miss_p99_ms", "ms", L, "serve_churn", CHURN),
    pl(
        "serve.handle_line_hit_us",
        "us",
        L,
        "serve_hot,serve_churn",
        HOT,
    ),
    pl(
        "serve.decode_request_us",
        "us",
        L,
        "serve_hot,serve_churn",
        HOT,
    ),
    pl(
        "serve.encode_response_us",
        "us",
        L,
        "serve_hot,serve_churn",
        HOT,
    ),
    pl(
        "serve.stage_queue_wait_p50_us",
        "us",
        L,
        "serve_hot,serve_churn",
        HOT,
    ),
    pl(
        "serve.stage_cache_lookup_p50_us",
        "us",
        L,
        "serve_hot,serve_churn",
        HOT,
    ),
    pl(
        "serve.stage_respond_p50_us",
        "us",
        L,
        "serve_hot,serve_churn",
        HOT,
    ),
    pl("serve.stage_execute_p50_ms", "ms", L, "serve_churn", CHURN),
    pl(
        "serve.metrics_scrape_ms",
        "ms",
        L,
        "serve_hot,serve_churn",
        "a scrape during serving",
    ),
    pl(
        "serve.hit_rate",
        "ratio",
        H,
        "serve_hot,serve_churn",
        "exact repeat",
    ),
    pl(
        "serve.evictions",
        "count",
        L,
        "serve_hot,serve_churn",
        "exact repeat",
    ),
    // process
    pl("proc.sys_frac", "ratio", L, "all", "cpu_s on crossbar"),
    pl(
        "proc.trace_overhead_frac",
        "ratio",
        L,
        "all",
        "none: the cost of the traced run itself",
    ),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The metric tables of `README.md`, rendered from the tables above
/// (`-- tables`), so the document cannot drift from the code.
pub fn readme_tables() -> String {
    let mut out = String::from("| name | unit | better | bound | what |\n|---|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        ));
    }
    out.push_str("\n| name | unit | better | measured on | moves |\n|---|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source,
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().render_pretty().len() < 64 << 10);
    }

    #[test]
    fn readme_tables_are_these_tables() {
        let readme = include_str!("../README.md");
        for line in readme_tables().lines().filter(|l| !l.is_empty()) {
            assert!(
                readme.contains(line),
                "README.md lacks `{line}`; regenerate with `-- tables`"
            );
        }
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk =
            std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&on_disk).unwrap(),
            benchmark_json(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json`"
        );
    }
}
