//! Golden pins for every prepared view of every workload constructor:
//! the directed pair (`out`, `inn`), the symmetrized adjacency, the
//! DAG-oriented adjacency and both ratings orientations with their
//! weights, for the three RMAT workloads and the Table 3 stand-ins; plus
//! the raw RMAT edge stream under the triangle and ratings presets,
//! scrambled and not (`rng_goldens` pins the Graph500 preset). Each row
//! is an FNV-1a fingerprint of the view's offsets, targets and weights,
//! so any change to a generator or to a view build moves a row. On a
//! mismatch the failure message carries the full actual table.

use graphmaze_core::datagen::rmat;
use graphmaze_core::graph::csr::{Csr, WeightedCsr};
use graphmaze_core::prelude::*;

/// One row per view: `workload view vertices edges fnv1a64`.
const GOLDEN: &str = "\
rmat-s10-e16 directed.out 1024 16384 0xccd2acf409bc879c
rmat-s10-e16 directed.inn 1024 16384 0x580f1688cb163bef
rmat-s10-e16 undirected.adj 1024 21054 0x35a79571984fcbc1
rmat-s10-e16 oriented 1024 10527 0xd7c88d9c78c9634f
rmat-tc-s10-e8 directed.out 1024 8192 0x93e262d25e67ebca
rmat-tc-s10-e8 directed.inn 1024 8192 0x2468f3a5ae19b460
rmat-tc-s10-e8 undirected.adj 1024 15158 0xac670e667eeb07db
rmat-tc-s10-e8 oriented 1024 7579 0x333325d8b36cfce8
cf-s10-i64 ratings.by_user 876 12897 0x859c82669c6b65f0
cf-s10-i64 ratings.by_item 64 12897 0x3d7c90b7b5250f31
facebook directed.out 256 3840 0x4c70978457f229eb
facebook directed.inn 256 3840 0x4f7151ec6fe56990
facebook undirected.adj 256 4142 0x72d332e17277c533
facebook oriented 256 2071 0x29e621fd5b11f934
wikipedia directed.out 256 6144 0x641add0c76ac2899
wikipedia directed.inn 256 6144 0x7dd3279e6a292223
wikipedia undirected.adj 256 5602 0x68b51a681e52a05d
wikipedia oriented 256 2801 0xe1258dfc8922c5c2
livejournal directed.out 512 9216 0xe41509fec73f6277
livejournal directed.inn 512 9216 0x7b666e8a492bdadb
livejournal undirected.adj 512 10462 0x0f2b9761bee45b2e
livejournal oriented 512 5231 0x6f60bd1fbb7ded31
twitter directed.out 4096 98304 0xa53e32d412c27c8d
twitter directed.inn 4096 98304 0x16e4595e82d52406
twitter undirected.adj 4096 135710 0xf460c93995bbf1ef
twitter oriented 4096 67855 0xdc2582d8e8af77e4
netflix ratings.by_user 256 13906 0xd9c5234cc1de6d08
netflix ratings.by_item 64 13906 0x24b17201e7113f7c
yahoo-music ratings.by_user 256 14475 0x3a382a405a17f52f
yahoo-music ratings.by_item 64 14475 0xb67aec3d54a5f76d
rmat-tc-scrambled edges 1024 16384 0x9737dacceabe6770
rmat-tc-plain edges 1024 16384 0xc5614327cd9ffb5c
rmat-ratings-scrambled edges 1024 16384 0x7c2ceb86995c5dd0
rmat-ratings-plain edges 1024 16384 0xfe60796c0cfa5498";

/// 64-bit FNV-1a over a stream of words, fed little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn csr_hash(g: &Csr) -> Fnv {
    let mut h = Fnv::new();
    for &o in g.offsets() {
        h.word(o);
    }
    for &t in g.targets() {
        h.word(u64::from(t));
    }
    h
}

fn csr_row(workload: &str, view: &str, g: &Csr) -> String {
    let h = csr_hash(g);
    format!(
        "{workload} {view} {} {} {:#018x}",
        g.num_vertices(),
        g.num_edges(),
        h.0
    )
}

fn weighted_row(workload: &str, view: &str, g: &WeightedCsr) -> String {
    let mut h = csr_hash(g.structure());
    for v in 0..g.num_vertices() as u32 {
        for &w in g.weights_of(v) {
            h.word(u64::from(w.to_bits()));
        }
    }
    format!(
        "{workload} {view} {} {} {:#018x}",
        g.num_vertices(),
        g.num_edges(),
        h.0
    )
}

/// Every view the workload carries, one row each, in a fixed order.
fn workload_rows(wl: &Workload) -> Vec<String> {
    let mut rows = Vec::new();
    if let Some(d) = &wl.directed {
        rows.push(csr_row(&wl.name, "directed.out", &d.out));
        rows.push(csr_row(&wl.name, "directed.inn", &d.inn));
    }
    if let Some(u) = &wl.undirected {
        rows.push(csr_row(&wl.name, "undirected.adj", &u.adj));
    }
    if let Some(o) = &wl.oriented {
        rows.push(csr_row(&wl.name, "oriented", o));
    }
    if let Some(r) = &wl.ratings {
        rows.push(weighted_row(&wl.name, "ratings.by_user", r.by_user()));
        rows.push(weighted_row(&wl.name, "ratings.by_item", r.by_item()));
    }
    rows
}

fn rmat_row(name: &str, params: RmatParams, scramble_ids: bool) -> String {
    let el = rmat::generate(&RmatConfig {
        scale: 10,
        edge_factor: 16,
        params,
        seed: 2014,
        scramble_ids,
        threads: 0,
    });
    let mut h = Fnv::new();
    h.word(el.num_vertices());
    for &(s, d) in el.edges() {
        h.word(u64::from(s) << 32 | u64::from(d));
    }
    format!(
        "{name} edges {} {} {:#018x}",
        el.num_vertices(),
        el.num_edges(),
        h.0
    )
}

#[test]
fn every_workload_view_matches_its_golden_fingerprint() {
    let mut rows = Vec::new();
    for wl in [
        Workload::rmat(10, 16, 7),
        Workload::rmat_triangle(10, 8, 7),
        Workload::rmat_ratings(10, 64, 7),
    ] {
        rows.extend(workload_rows(&wl));
    }
    for ds in Dataset::REAL_WORLD {
        rows.extend(workload_rows(&Workload::from_dataset(ds, 14, 11)));
    }
    for (name, params) in [
        ("rmat-tc", RmatParams::TRIANGLE),
        ("rmat-ratings", RmatParams::RATINGS),
    ] {
        rows.push(rmat_row(&format!("{name}-scrambled"), params, true));
        rows.push(rmat_row(&format!("{name}-plain"), params, false));
    }
    let actual = rows.join("\n");
    assert!(
        actual == GOLDEN,
        "workload view fingerprints moved; actual table:\n{actual}"
    );
}
