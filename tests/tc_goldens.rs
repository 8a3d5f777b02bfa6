//! Golden pins for triangle counting on the five non-GAS paths (native,
//! CombBLAS, SociaLite before/after its network fix, Galois), the fused
//! CombBLAS variant and the native lever ablations: answer, simulated
//! clock, barrier count, traffic, peak memory and metered work.
//! `gas_goldens` pins the same for GraphLab / Giraph / GraphMat.
//!
//! Two inputs: a scrambled RMAT graph, and a hand-built hub fixture with
//! one oriented row above the native bit-vector threshold (256) and one
//! long row below it, so both sides of the probes-vs-stream charge are
//! exercised. Nothing is tolerance-based; on a mismatch the failure
//! message carries the full actual table.

use graphmaze_core::cluster::HardwareSpec;
use graphmaze_core::engines::spmv::combblas;
use graphmaze_core::native::triangle::triangles_cluster;
use graphmaze_core::prelude::*;

/// One row per cell:
/// `input path nodes count sim_seconds_bits steps messages bytes_sent
/// peak_mem_bytes seq_bytes rand_accesses flops`.
const GOLDEN: &str = "\
rmat native 1 1798 0x3f0bfee454e523a9 1 0 0 18641 288788 0 72197
rmat native 4 1798 0x3f0e1f9d20af1980 1 6 12530 5697 288788 0 72197
rmat combblas 1 1798 0x3f32d54d577f4b6e 1 0 0 249120 205488 21843 43686
rmat combblas 4 1798 0x3f31cafbcfd44218 1 3 58176 166320 205488 21843 43686
rmat socialite 1 1798 0x3f508fe790b8f3a2 1 0 0 18640 288788 0 72197
rmat socialite 4 1798 0x3f517d12f255aa55 1 9 22456 14984 311244 0 72197
rmat socialite-unopt 1 1798 0x3f508fe790b8f3a2 1 0 0 18640 288788 0 72197
rmat socialite-unopt 4 1798 0x3f51d3b2d1346ad4 1 9 22456 14984 311244 0 72197
rmat galois 1 1798 0x3f1b680bd36e4d0b 1 0 0 18648 303332 512 72197
rmat combblas-fused 1 1798 0x3f2aed49e23969c5 1 0 0 43632 288788 0 72197
rmat combblas-fused 4 1798 0x3f2b854da0b8b429 1 3 58176 21756 288788 0 72197
rmat native-nobitvector 1 1798 0x3f0bfee454e523a9 1 0 0 18641 288788 0 72197
rmat native-nobitvector 4 1798 0x3f0e1f9d20af1980 1 6 12530 5697 288788 0 72197
rmat native-nooverlap 1 1798 0x3f0bfee454e523a9 1 0 0 18640 288788 0 72197
rmat native-nooverlap 4 1798 0x3f0ecb03b9ec7696 1 6 12530 14984 288788 0 72197
hub native 1 1094 0x3f0b6b018f272223 1 0 0 8213 125116 1094 31279
hub native 4 1094 0x3f0c77635d934330 1 5 3970 2405 125116 1094 31279
hub combblas 1 1094 0x3f2c797fc0210f3c 1 0 0 44664 27708 4311 8622
hub combblas 4 1094 0x3f2bd39b1d275834 1 3 22608 21624 27708 4311 8622
hub socialite 1 1094 0x3f50b706566ee1d5 1 0 0 8212 536536 0 134134
hub socialite 4 1094 0x3f5172c03a37f74d 1 8 5452 6940 541988 0 134134
hub socialite-unopt 1 1094 0x3f50b706566ee1d5 1 0 0 8212 536536 0 134134
hub socialite-unopt 4 1094 0x3f518217f99a2afc 1 8 5452 6940 541988 0 134134
hub galois 1 1094 0x3f1c35c1d31aa003 1 0 0 8220 542188 320 134134
hub combblas-fused 1 1094 0x3f2b89c4f9112290 1 0 0 16956 536536 0 134134
hub combblas-fused 4 1094 0x3f2b669d7861ef40 1 3 22608 8316 536536 0 134134
hub native-nobitvector 1 1094 0x3f0d86180e0071a4 1 0 0 8213 536536 0 134134
hub native-nobitvector 4 1094 0x3f0d632c0e14af7f 1 5 3970 2405 536536 0 134134
hub native-nooverlap 1 1094 0x3f0b6b018f272223 1 0 0 8212 125116 1094 31279
hub native-nooverlap 4 1094 0x3f0d889601b26001 1 5 3970 6940 125116 1094 31279";

/// The shrunk-memory CombBLAS cell: the typed OOM, as text.
const GOLDEN_OOM: &str =
    "node 1 out of memory: 21756 in use + 144564 requested (spgemm:A2) > capacity 65536";

/// 320 vertices; vertex 0 is adjacent to everyone and vertex 1 to every
/// even vertex (oriented out-degrees 319 and 159), over a sparse band
/// that closes triangles through both.
fn hub_fixture() -> Workload {
    let n: u32 = 320;
    let mut edges = Vec::new();
    for v in 1..n {
        edges.push((0, v));
    }
    for v in (2..n).step_by(2) {
        edges.push((v, 1)); // reversed on purpose: orientation fixes it
    }
    for v in 2..n {
        for step in [1, 5, 13] {
            if v + step < n {
                edges.push((v, v + step));
            }
        }
    }
    let el = EdgeList::from_edges(u64::from(n), edges).expect("ids in range");
    Workload::from_edge_list("hub-320", &el)
}

fn render(input: &str, path: &str, nodes: usize, count: u64, r: &RunReport) -> String {
    format!(
        "{input} {path} {nodes} {count} {:#018x} {} {} {} {} {} {} {}",
        r.sim_seconds.to_bits(),
        r.steps,
        r.traffic.messages,
        r.traffic.bytes_sent,
        r.peak_mem_bytes,
        r.total_work.seq_bytes,
        r.total_work.rand_accesses,
        r.total_work.flops,
    )
}

fn rows_for(input: &str, wl: &Workload) -> Vec<String> {
    let params = BenchParams::default();
    let oriented = wl.oriented().expect("graph workload");
    let mut rows = Vec::new();
    for (fw, node_counts) in [
        (Framework::Native, &[1usize, 4][..]),
        (Framework::CombBlas, &[1, 4]),
        (Framework::SociaLite, &[1, 4]),
        (Framework::SociaLiteUnopt, &[1, 4]),
        (Framework::Galois, &[1]),
    ] {
        for &nodes in node_counts {
            let out =
                run_benchmark(Algorithm::TriangleCount, fw, wl, nodes, &params).expect("cell runs");
            rows.push(render(
                input,
                fw.name(),
                nodes,
                out.digest as u64,
                &out.report,
            ));
        }
    }
    let no_bitvector = NativeOptions {
        bitvector: false,
        ..NativeOptions::all()
    };
    let no_overlap = NativeOptions {
        overlap: false,
        ..NativeOptions::all()
    };
    for nodes in [1, 4] {
        let (count, report) = combblas::triangles_improved(oriented, nodes).expect("fused runs");
        rows.push(render(input, "combblas-fused", nodes, count, &report));
    }
    for (path, opts) in [
        ("native-nobitvector", no_bitvector),
        ("native-nooverlap", no_overlap),
    ] {
        for nodes in [1, 4] {
            let (count, report) = triangles_cluster(oriented, opts, nodes).expect("native runs");
            rows.push(render(input, path, nodes, count, &report));
        }
    }
    rows
}

#[test]
fn non_gas_triangle_paths_repeat_their_goldens_exactly() {
    let mut rows = rows_for("rmat", &Workload::rmat_triangle(9, 8, 2301));
    let hub = hub_fixture();
    let oriented = hub.oriented().expect("graph workload");
    assert!(
        oriented.degree(0) >= 256 && oriented.degree(1) < 256,
        "fixture must straddle the bit-vector threshold"
    );
    rows.extend(rows_for("hub", &hub));
    let actual = rows.join("\n");
    assert!(
        actual == GOLDEN,
        "TC goldens changed; actual table:\n{actual}\n"
    );
}

#[test]
fn combblas_a2_out_of_memory_repeats_its_text_exactly() {
    let wl = Workload::rmat_triangle(9, 8, 2301);
    let mut spec = ClusterSpec::paper(4);
    spec.hw = HardwareSpec {
        mem_capacity_bytes: 64 << 10,
        ..spec.hw
    };
    let err = combblas::triangles_on(wl.oriented().expect("graph workload"), 4, spec)
        .expect_err("A² must not fit in 64 KiB nodes");
    assert!(matches!(&err, SimError::OutOfMemory(o) if o.label == "spgemm:A2"));
    assert_eq!(err.to_string(), GOLDEN_OOM);
}
