//! Every size the workloads use, in one place. `FULL` is what the driver
//! and `run --all` measure; `SMOKE` is the toy set `run --smoke` checks in
//! seconds. Each has its own goldens.
//!
//! The issue sized each workload for 15–28 s of timed work; the driver's
//! budget (114 runs in 57 minutes, builds included) leaves about 25 s per
//! run for set-up, verification and measurement together, so one *pass*
//! is sized at 1–4 s and a run repeats it for `run_seconds`.

pub struct Sizes {
    /// The toy set; selects `golden/smoke/`.
    pub smoke: bool,

    /// `ReproConfig::target_scale` of the fig3 crossbar.
    pub crossbar_scale: u32,

    /// `rmat/s<K>/e16` for the PageRank, BFS and msbfs kernels.
    pub kernel_graph_scale: u32,
    /// `rmat-tc/s<K>/e8` for triangle counting.
    pub kernel_tc_scale: u32,
    /// `cf/s<K>/i<items>` for SGD.
    pub kernel_cf_scale: u32,
    pub kernel_cf_items: u32,
    /// Invocations per pass and thread setting: PageRank (5 iterations
    /// each), BFS sources, msbfs batches of 64, TC, SGD (2 epochs each).
    pub kernel_repeats: [u32; 5],
    /// Cap on each roofline probe array (also bounded by 4x LLC and a
    /// quarter of RAM over three arrays).
    pub roofline_cap_bytes: u64,

    /// PageRank/BFS input of the cluster cells, run at `cluster_nodes`.
    pub cluster_graph_scale: u32,
    pub cluster_nodes: [usize; 3],
    /// msbfs, TC and CF inputs, run at `cluster_mid_nodes` only.
    pub cluster_small_scale: u32,
    pub cluster_mid_nodes: usize,

    /// `default_grid(scale, seed, serve_nodes)` behind both serve workloads.
    pub hot_scale: u32,
    pub hot_requests: usize,
    pub churn_scale: u32,
    pub churn_requests: usize,
    pub churn_capacity: usize,
    pub serve_nodes: usize,

    /// Divisor on the iteration counts of the API probes.
    pub probe_shrink: usize,
}

pub const FULL: Sizes = Sizes {
    smoke: false,
    crossbar_scale: 12,
    kernel_graph_scale: 17,
    kernel_tc_scale: 15,
    kernel_cf_scale: 16,
    kernel_cf_items: 256,
    kernel_repeats: [4, 8, 2, 4, 2],
    roofline_cap_bytes: 1 << 30,
    cluster_graph_scale: 13,
    cluster_nodes: [4, 16, 64],
    cluster_small_scale: 11,
    cluster_mid_nodes: 16,
    hot_scale: 10,
    hot_requests: 50_000,
    churn_scale: 9,
    churn_requests: 4_000,
    churn_capacity: 16,
    serve_nodes: 4,
    probe_shrink: 1,
};

pub const SMOKE: Sizes = Sizes {
    smoke: true,
    crossbar_scale: 8,
    kernel_graph_scale: 10,
    kernel_tc_scale: 9,
    kernel_cf_scale: 9,
    kernel_cf_items: 32,
    kernel_repeats: [1, 2, 1, 1, 1],
    roofline_cap_bytes: 8 << 20,
    cluster_graph_scale: 8,
    cluster_nodes: [4, 16, 64],
    cluster_small_scale: 8,
    cluster_mid_nodes: 16,
    hot_scale: 8,
    hot_requests: 2_000,
    churn_scale: 8,
    churn_requests: 2_000,
    churn_capacity: 16,
    serve_nodes: 4,
    probe_shrink: 20,
};
