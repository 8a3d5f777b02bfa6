//! Golden pins for every consumer of the pseudo-random stream: the RMAT
//! generator (scrambled and not), the Erdős–Rényi generator, the ratings
//! generator (star ratings included), the msbfs source draw and every
//! `FaultPlan` decision. Each row is an FNV-1a fingerprint of the
//! consumer's full output, so any change to the stream, its seeding or
//! its bounded draws moves a row. On a mismatch the failure message
//! carries the full actual table.

use graphmaze_core::cluster::FaultPlan;
use graphmaze_core::datagen::{er, ratings, rmat};
use graphmaze_core::prelude::*;
use graphmaze_core::runner::msbfs_sources;

/// One row per consumer: `name count fnv1a64`.
const GOLDEN: &str = "\
rmat-s10-scrambled 16384 0x3030867cef15fb07
rmat-s10-plain 16384 0x896d1049611bfb82
er-1000-8000 8000 0xc487d6791bee4da0
ratings-s10 14801 0x0a7876069c1aff18
msbfs-sources 64 0x83f225dde1885321
fault-decisions 1474 0x195e35f8b0e8a325";

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

fn edges_row(name: &str, el: &EdgeList) -> String {
    let mut h = Fnv::new();
    h.word(el.num_vertices());
    for &(s, d) in el.edges() {
        h.word(u64::from(s) << 32 | u64::from(d));
    }
    format!("{name} {} {:#018x}", el.num_edges(), h.0)
}

fn rmat_row(name: &str, scramble_ids: bool) -> String {
    let cfg = RmatConfig {
        scramble_ids,
        ..RmatConfig::graph500(10, 42)
    };
    edges_row(name, &rmat::generate(&cfg))
}

fn ratings_row() -> String {
    let cfg = RatingsGenConfig {
        scale: 10,
        edge_factor: 16,
        num_items: 200,
        min_degree: 5,
        seed: 2014,
    };
    let g = ratings::generate(&cfg);
    let mut h = Fnv::new();
    h.word(u64::from(g.num_users()));
    h.word(u64::from(g.num_items()));
    for (u, v, r) in g.triples() {
        h.word(u64::from(u) << 32 | u64::from(v));
        h.word(u64::from(r.to_bits()));
    }
    format!("ratings-s10 {} {:#018x}", g.num_ratings(), h.0)
}

fn msbfs_row() -> String {
    let sources = msbfs_sources(1 << 16, 64, 20140622);
    let mut h = Fnv::new();
    for &s in &sources {
        h.word(u64::from(s));
    }
    format!("msbfs-sources {} {:#018x}", sources.len(), h.0)
}

/// Every probabilistic decision of a plan that sets every probabilistic
/// term, over a node × sequence grid; the count is the number of hits.
fn faults_row() -> String {
    let plan = FaultPlan {
        seed: 0x5eed,
        straggler_prob: 0.3,
        straggler_slowdown: 2.5,
        drop_prob: 0.2,
        mem_pressure_prob: 0.25,
        mem_pressure_bytes: 1 << 20,
        link_drop_prob: 0.15,
        dup_prob: 0.1,
        ..FaultPlan::none()
    };
    let mut h = Fnv::new();
    let mut hits = 0u64;
    let mut bit = |h: &mut Fnv, b: bool| {
        hits += u64::from(b);
        h.word(u64::from(b));
    };
    for node in 0..16usize {
        for seq in 0..64u64 {
            let slow = plan.straggler_multiplier(node, seq as u32);
            h.word(slow.map_or(0, f64::to_bits));
            bit(&mut h, slow.is_some());
            bit(&mut h, plan.drops_send(node, seq));
            bit(&mut h, plan.mem_pressure_hits(node, seq));
            let dst = (node * 7 + 3) % 16;
            for attempt in 0..4 {
                bit(&mut h, plan.link_drop_hits(node, dst, seq, attempt));
            }
            bit(&mut h, plan.duplicates_delivery(node, dst, seq));
        }
    }
    format!("fault-decisions {hits} {:#018x}", h.0)
}

#[test]
fn every_random_stream_consumer_matches_its_golden_fingerprint() {
    let rows = [
        rmat_row("rmat-s10-scrambled", true),
        rmat_row("rmat-s10-plain", false),
        edges_row("er-1000-8000", &er::generate(1000, 8000, 7)),
        ratings_row(),
        msbfs_row(),
        faults_row(),
    ];
    let actual = rows.join("\n");
    assert!(
        actual == GOLDEN,
        "random-stream fingerprints moved; actual table:\n{actual}"
    );
}
