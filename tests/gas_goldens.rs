//! Golden pins for the three GAS frameworks (GraphLab, Giraph, GraphMat):
//! answer, simulated clock, barrier count, traffic and peak memory of
//! every algorithm at 1 and 4 nodes, plus three fault-plan cells
//! (speculative re-execution under `linkdrop`+`straggler` for Giraph and
//! GraphLab, checkpoint rollback under `kill`+`ckpt` for Giraph).
//!
//! Nothing here is tolerance-based: a refactor of the vertex engine, the
//! GraphMat lowering or their launch code must reproduce every column
//! exactly. On a mismatch the failure message carries the full actual
//! table.

use graphmaze_core::cluster::with_faults;
use graphmaze_core::prelude::*;

/// One row per cell:
/// `framework algorithm nodes plan digest_bits sim_seconds_bits steps
/// messages bytes_sent peak_mem_bytes retransmits speculative_reexecs
/// suppressed_duplicates steps_replayed`.
const GOLDEN: &str = "\
graphlab pagerank 1 - 0x406bd71c337610c3 0x3f69820ce5c06440 6 0 0 21390 0 0 0 0
graphlab pagerank 4 - 0x406bd71c337610c3 0x3f6f47eb9e6b87db 7 84 25872 5748 0 0 0 0
giraph pagerank 1 - 0x406bd71c337610c2 0x40159c76dd56eec6 6 0 0 477184 0 0 0 0
giraph pagerank 4 - 0x406bd71c337610c2 0x401936494eb928ac 7 84 186672 132020 0 0 0 0
graphmat pagerank 1 - 0x406bd71c337610c2 0x3f44692cd386e475 6 0 0 56321 0 0 0 0
graphmat pagerank 4 - 0x406bd71c337610c2 0x3f47c316cdd24961 7 48 19416 14718 0 0 0 0
graphlab bfs 1 - 0x4074300000000000 0x3f64acdf0a1e820d 5 0 0 18711 0 0 0 0
graphlab bfs 4 - 0x4074300000000000 0x3f6a6d1a1aef80bd 6 48 5944 4744 0 0 0 0
giraph bfs 1 - 0x4074300000000000 0x4012009936d22575 5 0 0 227900 0 0 0 0
giraph bfs 4 - 0x4074300000000000 0x40159b52821c493c 6 48 25968 58032 0 0 0 0
graphmat bfs 1 - 0x4074300000000000 0x3f3a813f395a7348 4 0 0 55118 0 0 0 0
graphmat bfs 4 - 0x4074300000000000 0x3f40ea6ff833f678 5 32 2948 14092 0 0 0 0
graphlab triangle 1 - 0x40926c0000000000 0x3f50ba802a9afbca 2 0 0 14400 0 0 0 0
graphlab triangle 4 - 0x40926c0000000000 0x3f5a16f5987b9500 3 14 74604 6571 0 0 0 0
giraph triangle 1 - 0x40926c0000000000 0x403cccddada3abed 32 0 0 47120 0 0 0 0
giraph triangle 4 - 0x40926c0000000000 0x403db470c6932ede 33 93 74604 14784 0 0 0 0
graphmat triangle 1 - 0x40926c0000000000 0x3f2a8a8ba580f44e 2 0 0 28533 0 0 0 0
graphmat triangle 4 - 0x40926c0000000000 0x3f343b651fae34f6 3 16 11822 13426 0 0 0 0
graphlab cf 1 - 0x4006dde960b83718 0x3f6f3685281ac5ec 7 0 0 116267 0 0 0 0
graphlab cf 4 - 0x4006dde960b83718 0x3f74464efffe8ea3 8 52 2627744 48263 0 0 0 0
giraph cf 1 - 0x4006dde960b83718 0x4059335f45fc7f63 112 0 0 435016 0 0 0 0
giraph cf 4 - 0x4006dde960b83718 0x40596e6e58ed2917 113 406 2627744 76444 0 0 0 0
graphmat cf 1 - 0x4006dde960b83718 0x3f48ccb22761a061 7 0 0 144363 0 0 0 0
graphmat cf 4 - 0x4006dde960b83718 0x3f4bac80302e9e29 8 56 178956 53307 0 0 0 0
graphlab msbfs 1 - 0x40de79c000000000 0x3f692b1bd7617ddc 6 0 0 86609 0 0 0 0
graphlab msbfs 4 - 0x40de79c000000000 0x3f6f481246065232 7 83 23832 26728 0 0 0 0
giraph msbfs 1 - 0x40de79c000000000 0x40159b5d3ad08fcc 6 0 0 540616 0 0 0 0
giraph msbfs 4 - 0x40de79c000000000 0x401935e8de987709 7 83 117924 140596 0 0 0 0
graphmat msbfs 1 - 0x40de79c000000000 0x3f44204a39a14db0 6 0 0 123004 0 0 0 0
graphmat msbfs 4 - 0x40de79c000000000 0x3f47c03d0ccce14d 7 48 14256 31051 0 0 0 0
giraph pagerank 4 seed=14,linkdrop=0.05,straggler=0.3x3 0x406bd71c337610c2 0x40199e8504dded4f 7 108 190312 132020 3 12 10437 0
graphlab pagerank 4 seed=14,linkdrop=0.05,straggler=0.3x3 0x406bd71c337610c3 0x3f845abfe1794e98 7 107 26672 5748 7 12 10437 0
giraph pagerank 4 seed=14,kill=1@3,ckpt=2 0x406bd71c337610c2 0x4020356367e35f17 7 84 186672 132020 0 0 0 2";

fn workload_for(alg: Algorithm) -> Workload {
    match alg {
        Algorithm::TriangleCount => Workload::rmat_triangle(8, 8, 1402),
        Algorithm::CollaborativeFiltering => Workload::rmat_ratings(8, 64, 1403),
        _ => Workload::rmat(8, 16, 1401),
    }
}

fn row(alg: Algorithm, fw: Framework, wl: &Workload, nodes: usize, plan: &str) -> String {
    let params = BenchParams::default();
    let run = || run_benchmark(alg, fw, wl, nodes, &params).expect("cell runs");
    let out = if plan == "-" {
        run()
    } else {
        with_faults(FaultPlan::parse(plan).expect("valid plan"), run)
    };
    let r = &out.report;
    format!(
        "{} {} {} {} {:#018x} {:#018x} {} {} {} {} {} {} {} {}",
        fw.name(),
        alg.name(),
        nodes,
        plan,
        out.digest.to_bits(),
        r.sim_seconds.to_bits(),
        r.steps,
        r.traffic.messages,
        r.traffic.bytes_sent,
        r.peak_mem_bytes,
        r.retransmit.retransmits,
        r.retransmit.speculative_reexecs,
        r.retransmit.suppressed_duplicates,
        r.recovery.steps_replayed,
    )
}

#[test]
fn gas_frameworks_repeat_their_goldens_exactly() {
    let mut rows = Vec::new();
    for alg in Algorithm::EXTENDED {
        let wl = workload_for(alg);
        for fw in [Framework::GraphLab, Framework::Giraph, Framework::GraphMat] {
            for nodes in [1, 4] {
                rows.push(row(alg, fw, &wl, nodes, "-"));
            }
        }
    }
    let wl = workload_for(Algorithm::PageRank);
    for (fw, plan) in [
        (Framework::Giraph, "seed=14,linkdrop=0.05,straggler=0.3x3"),
        (Framework::GraphLab, "seed=14,linkdrop=0.05,straggler=0.3x3"),
        (Framework::Giraph, "seed=14,kill=1@3,ckpt=2"),
    ] {
        rows.push(row(Algorithm::PageRank, fw, &wl, 4, plan));
    }
    let actual = rows.join("\n");
    assert!(
        actual == GOLDEN,
        "GAS goldens changed; actual table:\n{actual}\n"
    );
}
