//! Golden pins for the native traversal cluster paths: `bfs_cluster`
//! under every lever setting that changes its charges, and
//! `msbfs_cluster` with compression on and off, each at 1, 2, 4 and 16
//! nodes. A row pins the answer, the simulated clock, the barrier
//! count, the traffic, the peak memory, the metered work and an FNV-1a
//! of every timeline cell.
//!
//! The msbfs batches cover one word pass (the runner's 64 sources), two
//! word passes (100 sources) and a batch holding an isolated vertex and
//! a duplicated source. The input is a scrambled RMAT graph. Nothing is
//! tolerance-based; on a mismatch the failure message carries the full
//! actual table.

use graphmaze_core::native::{bfs, msbfs};
use graphmaze_core::prelude::*;
use graphmaze_core::runner::msbfs_sources;

/// One row per cell: `path opts batch nodes digest answer_fnv
/// sim_seconds_bits steps messages bytes_sent peak_mem_bytes seq_bytes
/// rand_accesses flops timeline_fnv`.
const GOLDEN: &str = "\
bfs all s0 1 1297 0x5ca8f3a6e6fb06c6 0x3f2c9dcd74110481 4 0 0 88976 84744 23015 21186 0x0aa59f29b4a7853a
bfs all s0 2 1297 0x5ca8f3a6e6fb06c6 0x3f2c0b5c009094ca 4 7 679 45000 84744 23015 21186 0xae192bb6c9fa4d6c
bfs all s0 4 1297 0x5ca8f3a6e6fb06c6 0x3f2d1f614375b354 4 31 2793 22840 84744 23015 21186 0xc2e765dc66f83ea8
bfs all s0 16 1297 0x5ca8f3a6e6fb06c6 0x3f334884d59f89b6 4 499 10530 6113 84744 23015 21186 0x896ddd8e1416e8a2
bfs nocompress s0 1 1297 0x5ca8f3a6e6fb06c6 0x3f2c9dcd74110481 4 0 0 88976 84744 23015 21186 0x0aa59f29b4a7853a
bfs nocompress s0 2 1297 0x5ca8f3a6e6fb06c6 0x3f2c14349f0f35e0 4 7 5532 45000 84744 23015 21186 0xbaa2643eb06c67e1
bfs nocompress s0 4 1297 0x5ca8f3a6e6fb06c6 0x3f2d353887b01bfa 4 31 12540 22840 84744 23015 21186 0x28e44009482d6c3f
bfs nocompress s0 16 1297 0x5ca8f3a6e6fb06c6 0x3f3351cd1f6b8fc9 4 499 32476 6113 84744 23015 21186 0x0be0a1961ff1d9b3
bfs nobitvector s0 1 1297 0x5ca8f3a6e6fb06c6 0x3f2eb50e791af1be 4 0 0 92936 84744 44201 21186 0xd287a7ec24ecd2c4
bfs nobitvector s0 2 1297 0x5ca8f3a6e6fb06c6 0x3f2cfb65c44ae6a4 4 7 679 47104 84744 44201 21186 0x2a7431e7680383cf
bfs nobitvector s0 4 1297 0x5ca8f3a6e6fb06c6 0x3f2d514e68061044 4 31 2793 24088 84744 44201 21186 0x436730a02bdc844c
bfs nobitvector s0 16 1297 0x5ca8f3a6e6fb06c6 0x3f334884d59f89b6 4 499 10530 6524 84744 44201 21186 0xd9a642e868aafd59
msbfs compress b64 1 122356 0xb678bc4442121bc9 0x3f377726523e190d 6 0 0 355080 279232 72740 69808 0x53dfb6f46279e7e3
msbfs compress b64 2 122356 0xb678bc4442121bc9 0x3f35b4c310b14e12 6 10 21493 186624 279232 72740 69808 0x62d9ca5b7bd4b0bb
msbfs compress b64 4 122356 0xb678bc4442121bc9 0x3f35d07a180c6fc7 6 60 55771 107032 279232 72740 69808 0x9835d14d16a01590
msbfs compress b64 16 122356 0xb678bc4442121bc9 0x3f3c3958939362ee 6 981 163539 34172 279232 72740 69808 0x4a42256f5c696a18
msbfs nocompress b64 1 122356 0xb678bc4442121bc9 0x3f377726523e190d 6 0 0 355080 279232 72740 69808 0x53dfb6f46279e7e3
msbfs nocompress b64 2 122356 0xb678bc4442121bc9 0x3f35b648bc62486c 6 10 30588 186624 279232 72740 69808 0x5a21ae21a3173cb4
msbfs nocompress b64 4 122356 0xb678bc4442121bc9 0x3f35e1e125793036 6 60 75540 107032 279232 72740 69808 0xa4c005f351f919c2
msbfs nocompress b64 16 122356 0xb678bc4442121bc9 0x3f3c46f29fa39897 6 981 211728 34172 279232 72740 69808 0x27cb3e7529e5de5f
msbfs compress b100 1 210146 0xe5be84f61c78f7a3 0x3f47200a5884501f 12 0 0 355080 509084 132460 127271 0x7854236b187ff8c8
msbfs compress b100 2 210146 0xe5be84f61c78f7a3 0x3f4596b77da3a4b1 12 19 37629 186624 509084 132460 127271 0x250abd2f4aab1dda
msbfs compress b100 4 210146 0xe5be84f61c78f7a3 0x3f45a862c3125cac 12 107 97008 107032 509084 132460 127271 0x1b0a31d3fcd815cb
msbfs compress b100 16 210146 0xe5be84f61c78f7a3 0x3f4bf16681db9f1f 12 1758 286378 34172 509084 132460 127271 0xeac821630bb00030
msbfs nocompress b100 1 210146 0xe5be84f61c78f7a3 0x3f47200a5884501f 12 0 0 355080 509084 132460 127271 0x7854236b187ff8c8
msbfs nocompress b100 2 210146 0xe5be84f61c78f7a3 0x3f4597fac8e0cca3 12 19 53460 186624 509084 132460 127271 0xdc4b589dfb6cf2f9
msbfs nocompress b100 4 210146 0xe5be84f61c78f7a3 0x3f45b7853683fd40 12 107 131424 107032 509084 132460 127271 0xc3c1c43672ffa0d7
msbfs nocompress b100 16 210146 0xe5be84f61c78f7a3 0x3f4bfd74a2f0b48f 12 1758 370512 34172 509084 132460 127271 0xbc3704f78418cc35
msbfs compress mixed 1 12594 0x890978e0cc78593d 0x3f36e8e6a8684446 6 0 0 129800 238544 62115 59636 0x207e509904812ff5
msbfs compress mixed 2 12594 0x890978e0cc78593d 0x3f3593d8bc02acf8 6 10 16364 66724 238544 62115 59636 0x57f559272a3c62cf
msbfs compress mixed 4 12594 0x890978e0cc78593d 0x3f35aad7c78c220c 6 45 38827 35752 238544 62115 59636 0xcade13b011e57e6f
msbfs compress mixed 16 12594 0x890978e0cc78593d 0x3f3bd3f4c2f5c47c 6 716 93876 10412 238544 62115 59636 0x6022a0afd33e3f20
msbfs nocompress mixed 1 12594 0x890978e0cc78593d 0x3f36e8e6a8684446 6 0 0 129800 238544 62115 59636 0x207e509904812ff5
msbfs nocompress mixed 2 12594 0x890978e0cc78593d 0x3f3596633a0b5488 6 10 23232 66724 238544 62115 59636 0x38c5484309cc57b4
msbfs nocompress mixed 4 12594 0x890978e0cc78593d 0x3f35bac41809aa68 6 45 52272 35752 238544 62115 59636 0x35ba9a12f0bdd7aa
msbfs nocompress mixed 16 12594 0x890978e0cc78593d 0x3f3be1688b5fd22c 6 716 120552 10412 238544 62115 59636 0xc0c59ab9a377b73c";

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a over every distance, little-endian, rows in order.
fn answer_fnv<'a>(rows: impl IntoIterator<Item = &'a [u32]>) -> u64 {
    let mut h = Fnv::new();
    for row in rows {
        for d in row {
            h.write(&d.to_le_bytes());
        }
        h.write(b"\n");
    }
    h.0
}

/// FNV-1a over every step's cells, `|` after each cell, `\n` after
/// each step.
fn timeline_fnv(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    for step in &r.timeline.steps {
        for cell in step.cells() {
            h.write(cell.as_bytes());
            h.write(b"|");
        }
        h.write(b"\n");
    }
    h.0
}

/// The runner's digest: the sum of every finite distance.
fn digest<'a>(rows: impl IntoIterator<Item = &'a [u32]>) -> u64 {
    rows.into_iter()
        .flatten()
        .filter(|&&d| d != bfs::UNREACHED)
        .map(|&d| u64::from(d))
        .sum()
}

fn render(
    path: &str,
    opts: &str,
    batch: &str,
    nodes: usize,
    rows: &[&[u32]],
    r: &RunReport,
) -> String {
    format!(
        "{path} {opts} {batch} {nodes} {} {:#018x} {:#018x} {} {} {} {} {} {} {} {:#018x}",
        digest(rows.iter().copied()),
        answer_fnv(rows.iter().copied()),
        r.sim_seconds.to_bits(),
        r.steps,
        r.traffic.messages,
        r.traffic.bytes_sent,
        r.peak_mem_bytes,
        r.total_work.seq_bytes,
        r.total_work.rand_accesses,
        r.total_work.flops,
        timeline_fnv(r),
    )
}

const NODES: [usize; 4] = [1, 2, 4, 16];

fn actual_table() -> String {
    let wl = Workload::rmat(10, 16, 4417);
    let g = wl.undirected().expect("graph workload");
    let n = g.num_vertices() as u32;
    let mut rows = Vec::new();

    // BFS from the runner's source: the highest-degree vertex
    let source = (0..n)
        .max_by_key(|&v| g.adj.degree(v))
        .expect("non-empty graph");
    for (label, opts) in [
        ("all", NativeOptions::all()),
        (
            "nocompress",
            NativeOptions {
                compression: false,
                ..NativeOptions::all()
            },
        ),
        (
            "nobitvector",
            NativeOptions {
                bitvector: false,
                ..NativeOptions::all()
            },
        ),
    ] {
        for nodes in NODES {
            let (dist, report) = bfs::bfs_cluster(g, source, opts, nodes).expect("bfs runs");
            rows.push(render("bfs", label, "s0", nodes, &[&dist], &report));
        }
    }

    let params = BenchParams::default();
    let isolated = (0..n)
        .find(|&v| g.adj.degree(v) == 0)
        .expect("the RMAT graph has an isolated vertex");
    let mut mixed = msbfs_sources(n, 6, 91);
    mixed.push(isolated);
    mixed.push(mixed[1]);
    mixed.push(source);
    for (batch, sources) in [
        (
            "b64",
            msbfs_sources(n, params.msbfs_sources, params.msbfs_seed),
        ),
        ("b100", msbfs_sources(n, 100, 17)),
        ("mixed", mixed),
    ] {
        for (label, compression) in [("compress", true), ("nocompress", false)] {
            let opts = NativeOptions {
                compression,
                ..NativeOptions::all()
            };
            for nodes in NODES {
                let (dists, report) =
                    msbfs::msbfs_cluster(g, &sources, opts, nodes).expect("msbfs runs");
                let refs: Vec<&[u32]> = dists.iter().map(Vec::as_slice).collect();
                rows.push(render("msbfs", label, batch, nodes, &refs, &report));
            }
        }
    }
    rows.join("\n")
}

#[test]
fn native_traversal_cluster_paths_repeat_their_goldens_exactly() {
    let actual = actual_table();
    assert!(
        actual == GOLDEN,
        "traversal goldens changed; actual table:\n{actual}\n"
    );
}
