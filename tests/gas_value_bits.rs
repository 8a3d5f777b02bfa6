//! Bit-level pins for the GAS executors: an FNV-1a hash over `to_bits()`
//! of **every** output value, plus the simulated clock and wire bytes, for
//! PageRank, aggregator-driven convergent PageRank, BFS, multi-source BFS
//! and CF on GraphLab (combiner + hub replication), Giraph at 1 and 16
//! superstep splits, and the GraphMat lowering, at 1, 4 and 16 nodes.
//!
//! `tests/gas_goldens.rs` pins scalar digests (rank sums, RMSE); a sum
//! hides an arrival-order slip that moves two low bits in opposite
//! directions. This table does not: any change to the order in which an
//! inbox is folded or walked, on any backend, changes a hash here. On a
//! mismatch the failure message carries the full actual table.

use graphmaze_core::prelude::*;
use graphmaze_engines::vertex::programs::{
    bfs_job, cf_gd_job, msbfs_job, pagerank_job, PageRankConvergentProgram,
};
use graphmaze_engines::vertex::{giraph, graphlab, Backend, GasJob};

/// One row per cell:
/// `algorithm backend nodes value_hash sim_seconds_bits bytes_sent`.
const GOLDEN: &str = "\
pagerank graphlab 1 0x6fd8bc99f631a39f 0x3f69820ce5c06440 0
pagerank graphlab 4 0xe0311419b7063420 0x3f6f47eb9e6b87db 25872
pagerank graphlab 16 0x621e7d4f70484f62 0x3f730488362b1b74 65988
pagerank giraph/1 1 0xe0ea61039005114a 0x40159c76dd56eec6 0
pagerank giraph/1 4 0xe0ea61039005114a 0x401936494eb928ac 186672
pagerank giraph/1 16 0xe0ea61039005114a 0x40193b8c90f8f8cf 227688
pagerank giraph/16 1 0xe0ea61039005114a 0x405599c76dd56eed 0
pagerank giraph/16 4 0xe93f5b0136910199 0x4055d4c812b4d86b 186672
pagerank giraph/16 16 0x6d1b16bb0441088e 0x4055d9b439711846 227688
pagerank graphmat 1 0xe0ea61039005114a 0x3f44692cd386e475 0
pagerank graphmat 4 0xe0ea61039005114a 0x3f47c316cdd24961 19416
pagerank graphmat 16 0xe0ea61039005114a 0x3f486fb04194c87b 48624
pagerank-convergent graphlab 1 0xab6519128764f2c3 0x3f8efd9ad941519a 0
pagerank-convergent graphlab 4 0x656f3f2df0903c35 0x3f911d96cff6df03 144736
pagerank-convergent graphlab 16 0x1cf87a2b6e23ac34 0x3f95d7fd601b2659 368944
pagerank-convergent giraph/1 1 0x849d38a277ff5272 0x403a1d92688299df 0
pagerank-convergent giraph/1 4 0x849d38a277ff5272 0x403b04314ac93388 1045216
pagerank-convergent giraph/1 16 0x849d38a277ff5272 0x403b0b908a8ecf2b 1274464
pagerank-convergent giraph/16 1 0x849d38a277ff5272 0x407a19d926882992 0
pagerank-convergent giraph/16 4 0xb3c1721f84b2dca8 0x407a2a349bbe0680 1045216
pagerank-convergent giraph/16 16 0xd19a8fa42fde1b74 0x407a3118d9cc3fde 1274464
pagerank-convergent graphmat 1 0x849d38a277ff5272 0x3f68ce8e2323fc98 0
pagerank-convergent graphmat 4 0x849d38a277ff5272 0x3f6994576babe078 108564
pagerank-convergent graphmat 16 0x849d38a277ff5272 0x3f6a85fb0dbc2c06 271632
bfs graphlab 1 0xe2a43c63e1837dce 0x3f64ae8984f4b462 0
bfs graphlab 4 0xe2a43c63e1837dce 0x3f6a6de61dbce58a 7200
bfs graphlab 16 0xe2a43c63e1837dce 0x3f6eda31757f194c 18784
bfs giraph/1 1 0xe2a43c63e1837dce 0x40120098ae41ebc6 0
bfs giraph/1 4 0xe2a43c63e1837dce 0x40159b541bd06e85 25968
bfs giraph/1 16 0xe2a43c63e1837dce 0x40159ee54d134569 32320
bfs giraph/16 1 0xe2a43c63e1837dce 0x405200098ae41ec1 0
bfs giraph/16 4 0xe2a43c63e1837dce 0x40523a425e444a09 25968
bfs giraph/16 16 0xe2a43c63e1837dce 0x40523c2c5d7109f0 32320
bfs graphmat 1 0xe2a43c63e1837dce 0x3f3a813f395a7347 0
bfs graphmat 4 0xe2a43c63e1837dce 0x3f40ea4c0c499cb2 2948
bfs graphmat 16 0xe2a43c63e1837dce 0x3f4170ef8d0e596e 7584
msbfs graphlab 1 0x2d7e0d6c4b737707 0x3f6942420d5319f5 0
msbfs graphlab 4 0x2d7e0d6c4b737707 0x3f6f4ddaf6a88ac5 43532
msbfs graphlab 16 0x2d7e0d6c4b737707 0x3f732659414b0a26 126148
msbfs giraph/1 1 0x2d7e0d6c4b737707 0x40159b8da6b73208 0
msbfs giraph/1 4 0x2d7e0d6c4b737707 0x40193604577e672f 216592
msbfs giraph/1 16 0x2d7e0d6c4b737707 0x40193b6a3860bc15 266048
msbfs giraph/16 1 0x2d7e0d6c4b737707 0x405599b8db816278 0
msbfs giraph/16 4 0x2d7e0d6c4b737707 0x4055d4b2850d586f 216592
msbfs giraph/16 16 0x2d7e0d6c4b737707 0x4055d948b855dd15 266048
msbfs graphmat 1 0x2d7e0d6c4b737707 0x3f443a81feeb24f5 0
msbfs graphmat 4 0x2d7e0d6c4b737707 0x3f47c640fdb25915 26146
msbfs graphmat 16 0x2d7e0d6c4b737707 0x3f48738e0d08990b 63792
cf graphlab 1 0x4f2462b77ada4c26 0x3f65c0bc5d4a61ca 0
cf graphlab 4 0x4f2462b77ada4c26 0x3f6c1888fcad2908 927520
cf graphlab 16 0x4f2462b77ada4c26 0x3f6d9e1a20ac61b6 928000
cf giraph/1 1 0x4f2462b77ada4c26 0x401201d5a3b170f7 0
cf giraph/1 4 0x4f2462b77ada4c26 0x40159d32dfe5a333 927520
cf giraph/1 16 0x4f2462b77ada4c26 0x40159df9015b8633 928000
cf giraph/16 1 0x4f2462b77ada4c26 0x4052001d5a3b170f 0
cf giraph/16 4 0x1bcfab7a02162b67 0x40523a9b7ecfe9ff 927520
cf giraph/16 16 0xa2808902251dd901 0x40523c40b81e4df3 928000
cf graphmat 1 0x4f2462b77ada4c26 0x3f413a6500b5b27f 0
cf graphmat 4 0x4f2462b77ada4c26 0x3f447cc3e0ce0233 63252
cf graphmat 16 0x4f2462b77ada4c26 0x3f45075273841ffa 158400";

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn backends() -> [(&'static str, Backend); 4] {
    [
        ("graphlab", Backend::Bsp(graphlab::config())),
        ("giraph/1", Backend::Bsp(giraph::config(1))),
        ("giraph/16", Backend::Bsp(giraph::config(16))),
        ("graphmat", Backend::GraphMat),
    ]
}

/// Runs `cell` on every backend at 1, 4 and 16 nodes; `cell` returns the
/// value hash and the run's report.
fn rows(alg: &str, out: &mut Vec<String>, cell: impl Fn(Backend, usize) -> (u64, RunReport)) {
    for (name, backend) in backends() {
        for nodes in [1usize, 4, 16] {
            let (hash, report) = cell(backend, nodes);
            out.push(format!(
                "{alg} {name} {nodes} {hash:#018x} {:#018x} {}",
                report.sim_seconds.to_bits(),
                report.traffic.bytes_sent,
            ));
        }
    }
}

#[test]
fn every_output_value_repeats_bit_for_bit() {
    let graph = Workload::rmat(8, 16, 1401);
    let directed = graph.directed().unwrap();
    let undirected = graph.undirected().unwrap();
    let ratings_wl = Workload::rmat_ratings(8, 64, 1403);
    let ratings = ratings_wl.ratings().unwrap();
    let n = undirected.num_vertices() as u32;
    // 65 sources, so the msbfs mask spans two words
    let sources: Vec<u32> = (0..65u32).map(|i| i * 7 % n).collect();

    let mut out = Vec::new();
    rows("pagerank", &mut out, |backend, nodes| {
        let (pr, report) = backend
            .run(pagerank_job(directed, PAGERANK_R, 5), nodes)
            .unwrap();
        (fnv1a(pr.iter().map(|x| x.to_bits())), report)
    });
    rows("pagerank-convergent", &mut out, |backend, nodes| {
        let prog = PageRankConvergentProgram {
            r: PAGERANK_R,
            tolerance: 1e-4,
            max_iterations: 30,
        };
        let job = GasJob::new(
            &directed.out,
            prog,
            vec![1.0f64; directed.num_vertices()],
            32,
        );
        let (pr, report) = backend.run(job, nodes).unwrap();
        (fnv1a(pr.iter().map(|x| x.to_bits())), report)
    });
    rows("bfs", &mut out, |backend, nodes| {
        let (dist, report) = backend.run(bfs_job(undirected, 0), nodes).unwrap();
        (fnv1a(dist.iter().map(|&d| u64::from(d))), report)
    });
    rows("msbfs", &mut out, |backend, nodes| {
        let (dist_rows, report) = backend.run(msbfs_job(undirected, &sources), nodes).unwrap();
        (
            fnv1a(dist_rows.iter().flatten().map(|&d| u64::from(d))),
            report,
        )
    });
    rows("cf", &mut out, |backend, nodes| {
        let (factors, report) = backend
            .run(cf_gd_job(ratings, 8, 0.05, 0.005, 2), nodes)
            .unwrap();
        (fnv1a(factors.iter().flatten().map(|x| x.to_bits())), report)
    });

    let actual = out.join("\n");
    assert!(
        actual == GOLDEN,
        "GAS value bits changed; actual table:\n{actual}\n"
    );
}
