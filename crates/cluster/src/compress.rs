//! Message compression: delta + varint coding and bitmap coding of vertex
//! id sets.
//!
//! "The data communicated among nodes is the id's of destination vertices
//! of the edges traversed. Such data has been observed to be compressible
//! using techniques like bit-vectors and delta coding" (§6.1.1) — worth
//! 3.2× on BFS and 2.2× on PageRank traffic in the paper's native code.
//! Both codecs here are real encoders with exact round-trips; the
//! simulator charges the *encoded* sizes to the network.

use graphmaze_graph::VertexId;

/// Which codec a buffer used (first byte on the wire).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// Raw little-endian u32 ids.
    Raw,
    /// Ascending deltas, LEB128 varints.
    DeltaVarint,
    /// Dense bitmap over the universe.
    Bitmap,
}

impl Encoding {
    fn tag(self) -> u8 {
        match self {
            Encoding::Raw => 0,
            Encoding::DeltaVarint => 1,
            Encoding::Bitmap => 2,
        }
    }

    fn from_tag(t: u8) -> Option<Encoding> {
        match t {
            0 => Some(Encoding::Raw),
            1 => Some(Encoding::DeltaVarint),
            2 => Some(Encoding::Bitmap),
            _ => None,
        }
    }
}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one varint from the front of `buf` and advances past it.
fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&byte, rest) = buf.split_first()?;
        if shift >= 64 {
            return None;
        }
        *buf = rest;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Reads `N` bytes from the front of `buf` and advances past them.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

/// Encodes a **sorted, deduplicated** id list with the requested codec.
/// Layout: `[tag u8][count varint][universe varint][payload]`.
pub fn encode_with(ids: &[VertexId], universe: u64, enc: Encoding) -> Vec<u8> {
    debug_assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids must be sorted unique"
    );
    debug_assert!(ids.iter().all(|&v| u64::from(v) < universe));
    let mut buf = vec![enc.tag()];
    put_varint(&mut buf, ids.len() as u64);
    put_varint(&mut buf, universe);
    match enc {
        Encoding::Raw => {
            for &v in ids {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Encoding::DeltaVarint => {
            let mut prev = 0u64;
            for &v in ids {
                put_varint(&mut buf, u64::from(v) - prev);
                prev = u64::from(v);
            }
        }
        Encoding::Bitmap => {
            let words = universe.div_ceil(64);
            let mut bm = vec![0u64; words as usize];
            for &v in ids {
                bm[(v / 64) as usize] |= 1u64 << (v % 64);
            }
            for w in bm {
                buf.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    buf
}

/// Encodes with whichever codec is smallest for this density.
///
/// ```
/// use graphmaze_cluster::compress::{decode, encode_best, raw_size};
/// let frontier: Vec<u32> = (0..10_000).step_by(3).collect();
/// let wire = encode_best(&frontier, 10_000);
/// assert!(wire.len() as u64 * 2 < raw_size(frontier.len())); // >2x smaller
/// assert_eq!(decode(&wire).unwrap(), frontier);              // lossless
/// ```
pub fn encode_best(ids: &[VertexId], universe: u64) -> Vec<u8> {
    let raw_len = 1 + 10 + 10 + ids.len() * 4;
    let bitmap_len = 1 + 10 + 10 + (universe.div_ceil(64) * 8) as usize;
    // delta size is data-dependent; encode it and compare against the
    // cheap estimates, picking bitmap only when clearly denser.
    let delta = encode_with(ids, universe, Encoding::DeltaVarint);
    if bitmap_len < delta.len() && bitmap_len < raw_len {
        encode_with(ids, universe, Encoding::Bitmap)
    } else if delta.len() <= raw_len {
        delta
    } else {
        encode_with(ids, universe, Encoding::Raw)
    }
}

/// Decodes any buffer produced by [`encode_with`] / [`encode_best`].
/// Anything else is `None`: a truncated buffer, an unknown tag, or ids
/// that overflow, do not strictly ascend or reach the universe.
pub fn decode(mut buf: &[u8]) -> Option<Vec<VertexId>> {
    let enc = Encoding::from_tag(take::<1>(&mut buf)?[0])?;
    let count = get_varint(&mut buf)?;
    let universe = get_varint(&mut buf)?;
    // no codec packs more than eight ids into a byte, so a larger count is
    // garbage: never reserve for it
    let mut out = Vec::with_capacity(count.min(buf.len() as u64 * 8) as usize);
    match enc {
        Encoding::Raw => {
            for _ in 0..count {
                out.push(u32::from_le_bytes(take(&mut buf)?));
            }
        }
        Encoding::DeltaVarint => {
            let mut prev = 0u64;
            for _ in 0..count {
                prev = prev.checked_add(get_varint(&mut buf)?)?;
                out.push(VertexId::try_from(prev).ok()?);
            }
        }
        Encoding::Bitmap => {
            for w in 0..universe.div_ceil(64) {
                let mut word = u64::from_le_bytes(take(&mut buf)?);
                while word != 0 {
                    let id = w * 64 + u64::from(word.trailing_zeros());
                    out.push(VertexId::try_from(id).ok()?);
                    word &= word - 1;
                }
            }
        }
    }
    let ascending = out.windows(2).all(|w| w[0] < w[1]);
    let in_universe = out.last().is_none_or(|&v| u64::from(v) < universe);
    (out.len() as u64 == count && ascending && in_universe).then_some(out)
}

/// Uncompressed wire size of `n` ids (the 4-byte-per-id baseline the
/// paper's compression factors are measured against).
pub fn raw_size(n: usize) -> u64 {
    (n * 4) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ids: &[u32], universe: u64, enc: Encoding) {
        let b = encode_with(ids, universe, enc);
        let back = decode(&b).expect("decodes");
        assert_eq!(back, ids, "{enc:?}");
    }

    #[test]
    fn all_codecs_round_trip() {
        let ids = vec![0u32, 1, 7, 63, 64, 100, 1023];
        for enc in [Encoding::Raw, Encoding::DeltaVarint, Encoding::Bitmap] {
            roundtrip(&ids, 1024, enc);
        }
    }

    #[test]
    fn empty_list_round_trips() {
        for enc in [Encoding::Raw, Encoding::DeltaVarint, Encoding::Bitmap] {
            roundtrip(&[], 100, enc);
        }
    }

    #[test]
    fn delta_beats_raw_on_dense_ascending_runs() {
        let ids: Vec<u32> = (1000..2000).collect();
        let raw = encode_with(&ids, 1 << 20, Encoding::Raw);
        let delta = encode_with(&ids, 1 << 20, Encoding::DeltaVarint);
        // deltas of 1 are single bytes: ~4x smaller than raw
        assert!(
            delta.len() * 3 < raw.len(),
            "delta {} raw {}",
            delta.len(),
            raw.len()
        );
    }

    #[test]
    fn bitmap_beats_delta_on_very_dense_sets() {
        let ids: Vec<u32> = (0..10_000).step_by(2).collect(); // 50% dense
        let bitmap = encode_with(&ids, 10_000, Encoding::Bitmap);
        let delta = encode_with(&ids, 10_000, Encoding::DeltaVarint);
        assert!(bitmap.len() < delta.len());
    }

    #[test]
    fn encode_best_picks_a_small_codec() {
        let sparse: Vec<u32> = vec![5, 100_000, 4_000_000];
        let best = encode_best(&sparse, 1 << 23);
        assert!(best.len() < raw_size(3) as usize + 21);
        assert_eq!(decode(&best).unwrap(), sparse);

        let dense: Vec<u32> = (0..4096).collect();
        let best = encode_best(&dense, 4096);
        assert_eq!(decode(&best).unwrap(), dense);
        assert!(
            best.len() <= 4096 / 8 + 24,
            "dense set should bitmap: {}",
            best.len()
        );
    }

    #[test]
    fn varint_edge_values() {
        let values = [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for v in values {
            put_varint(&mut buf, v);
        }
        let mut b = &buf[..];
        for v in values {
            assert_eq!(get_varint(&mut b), Some(v));
        }
        assert!(b.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_none());
        assert!(decode(&[9, 1, 1]).is_none());
        // truncated raw payload
        let b = encode_with(&[1, 2, 3], 10, Encoding::Raw);
        assert!(decode(&b[..b.len() - 2]).is_none());
        // a count near 2^62 with no payload must not reserve for it
        let mut huge = vec![Encoding::DeltaVarint.tag()];
        put_varint(&mut huge, 1 << 62);
        put_varint(&mut huge, 10);
        assert!(decode(&huge).is_none());
        // deltas summing past u64::MAX
        let mut overflow = vec![Encoding::DeltaVarint.tag(), 2, 0];
        put_varint(&mut overflow, u64::MAX);
        put_varint(&mut overflow, 2);
        assert!(decode(&overflow).is_none());
        // universe 65 with bit 66 set in the last word
        let mut past = vec![Encoding::Bitmap.tag(), 1, 65];
        past.extend_from_slice(&0u64.to_le_bytes());
        past.extend_from_slice(&(1u64 << 2).to_le_bytes());
        assert!(decode(&past).is_none());
        // raw ids that repeat, or reach the universe
        assert!(decode(&encode_with(&[3], 4, Encoding::Raw)).is_some());
        assert!(decode(&[0, 2, 4, 3, 0, 0, 0, 3, 0, 0, 0]).is_none());
        assert!(decode(&[0, 1, 3, 3, 0, 0, 0]).is_none());
    }

    /// Property: `decode` never panics, and whatever it accepts is a
    /// strictly ascending id list inside the universe — over every prefix
    /// and every single-byte flip of valid buffers, and over random bytes.
    #[test]
    fn decode_never_panics_and_accepts_only_valid_lists() {
        fn check(buf: &[u8]) {
            let Some(ids) = decode(buf) else { return };
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "{buf:?}");
            let mut header = &buf[1..];
            get_varint(&mut header).expect("count");
            let universe = get_varint(&mut header).expect("universe");
            assert!(ids.iter().all(|&v| u64::from(v) < universe), "{buf:?}");
        }
        let quarter: Vec<u32> = (0..256).filter(|v| v % 4 == 1).collect();
        let mut valid = vec![
            encode_best(&quarter, 256),
            encode_best(&[5, 100_000], 1 << 23),
        ];
        for enc in [Encoding::Raw, Encoding::DeltaVarint, Encoding::Bitmap] {
            valid.push(encode_with(&[0, 63, 64, 127], 128, enc));
            valid.push(encode_with(&[64], 65, enc));
        }
        for wire in &valid {
            for len in 0..=wire.len() {
                check(&wire[..len]);
            }
            for i in 0..wire.len() {
                for flip in (0..8).map(|b| 1u8 << b).chain([0xff]) {
                    let mut bad = wire.clone();
                    bad[i] ^= flip;
                    check(&bad);
                }
            }
        }
        let mut rng = XorShift(0x0dec_0de5_eed5_f00d);
        for _ in 0..10_000 {
            let len = (rng.next() % 24) as usize;
            let mut buf: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            if let Some(tag) = buf.first_mut() {
                *tag %= 3; // mostly valid tags, so the payload paths run
            }
            check(&buf);
        }
    }

    /// Deterministic xorshift64* generator — property tests stay
    /// reproducible without pulling in an RNG crate.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    /// Draws a sorted, deduplicated id set of roughly `target` ids
    /// uniformly from `[0, universe)`.
    fn random_id_set(rng: &mut XorShift, universe: u64, target: usize) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..target)
            .map(|_| (rng.next() % universe) as u32)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Property: every codec round-trips every generated id set, and the
    /// encoded size respects the codec's documented wire layout bound
    /// (`tag 1B + count varint ≤10B + universe varint ≤10B + payload`).
    /// Note the header means `encode_with(Raw).len()` slightly *exceeds*
    /// the `raw_size(n) = 4n` baseline the paper measures against.
    #[test]
    fn prop_all_encodings_round_trip_with_size_bound() {
        let mut rng = XorShift(0x9e37_79b9_97f4_a7c5);
        for universe in [1u64, 64, 1000, 1 << 16, 1 << 22] {
            for target in [0usize, 1, 5, 100, 2000] {
                let ids = random_id_set(&mut rng, universe, target);
                let header_max = 1 + 10 + 10;
                for enc in [Encoding::Raw, Encoding::DeltaVarint, Encoding::Bitmap] {
                    let b = encode_with(&ids, universe, enc);
                    assert_eq!(
                        decode(&b).expect("decodes"),
                        ids,
                        "{enc:?} u={universe} n={}",
                        ids.len()
                    );
                    let payload_max = match enc {
                        Encoding::Raw => ids.len() * 4,
                        // each delta varint is at most 5 bytes for u32 gaps
                        Encoding::DeltaVarint => ids.len() * 5,
                        Encoding::Bitmap => (universe.div_ceil(64) * 8) as usize,
                    };
                    assert!(
                        b.len() <= header_max + payload_max,
                        "{enc:?} size {} exceeds bound {}",
                        b.len(),
                        header_max + payload_max
                    );
                }
            }
        }
    }

    /// Property: `encode_best` always round-trips and never produces a
    /// buffer larger than the worst explicit codec by more than the
    /// estimation slack (it compares cheap upper-bound estimates, so it
    /// must at least beat the raw estimate `1 + 10 + 10 + 4n`).
    #[test]
    fn prop_encode_best_round_trips_and_is_bounded() {
        let mut rng = XorShift(0xdead_beef_cafe_f00d);
        for universe in [16u64, 512, 100_000, 1 << 20] {
            for target in [0usize, 3, 50, 1000, 5000] {
                let ids = random_id_set(&mut rng, universe, target);
                let best = encode_best(&ids, universe);
                assert_eq!(decode(&best).expect("decodes"), ids);
                let raw_estimate = 1 + 10 + 10 + ids.len() * 4;
                assert!(
                    best.len() <= raw_estimate,
                    "best {} vs raw estimate {} (u={universe} n={})",
                    best.len(),
                    raw_estimate,
                    ids.len()
                );
            }
        }
    }

    /// The encoded lengths are charged to the simulated network, so the
    /// exact wire bytes are part of every traffic golden: pin them.
    #[test]
    fn wire_bytes_are_pinned() {
        // word boundaries: 0 and 63 in word 0, 64 and 127 in word 1;
        // universe 128 is the two-byte varint [0x80, 0x01]
        let ids = [0u32, 63, 64, 127];
        let raw: &[u8] = &[
            0, 4, 0x80, 0x01, 0, 0, 0, 0, 63, 0, 0, 0, 64, 0, 0, 0, 127, 0, 0, 0,
        ];
        let delta: &[u8] = &[1, 4, 0x80, 0x01, 0, 63, 1, 63];
        let bitmap: &[u8] = &[
            2, 4, 0x80, 0x01, 0x01, 0, 0, 0, 0, 0, 0, 0x80, 0x01, 0, 0, 0, 0, 0, 0, 0x80,
        ];
        assert_eq!(&encode_with(&ids, 128, Encoding::Raw)[..], raw);
        assert_eq!(&encode_with(&ids, 128, Encoding::DeltaVarint)[..], delta);
        assert_eq!(&encode_with(&ids, 128, Encoding::Bitmap)[..], bitmap);

        let best = |ids: &[u32], universe: u64, pick: Encoding, want: &[u8]| {
            let wire = encode_best(ids, universe);
            assert_eq!(Encoding::from_tag(wire[0]), Some(pick), "u={universe}");
            assert_eq!(&wire[..], want, "u={universe}");
        };
        // sparse: three ids over 2^23 take varint deltas of 1, 3 and 4 bytes
        best(
            &[5, 100_000, 4_000_000],
            1 << 23,
            Encoding::DeltaVarint,
            &[
                1, 3, 0x80, 0x80, 0x80, 0x04, 5, 0x9b, 0x8d, 0x06, 0xe0, 0x84, 0xee, 0x01,
            ],
        );
        // 1 in 4, the benchmark probe's shape: every word is 0x2222…
        let quarter: Vec<u32> = (0..256).filter(|v| v % 4 == 1).collect();
        let want = [&[2u8, 64, 0x80, 0x02][..], &[0x22; 32]].concat();
        best(&quarter, 256, Encoding::Bitmap, &want);
        // dense: every id of a universe whose last word is partial
        let dense: Vec<u32> = (0..130).collect();
        let want = [
            &[2u8, 0x82, 0x01, 0x82, 0x01][..],
            &[0xff; 16],
            &[0x03, 0, 0, 0, 0, 0, 0, 0],
        ]
        .concat();
        best(&dense, 130, Encoding::Bitmap, &want);

        // the empty list: header only, or the all-zero bitmap
        assert_eq!(&encode_with(&[], 100, Encoding::Raw)[..], &[0, 0, 100]);
        assert_eq!(
            &encode_with(&[], 100, Encoding::DeltaVarint)[..],
            &[1, 0, 100]
        );
        let empty_bitmap = [&[2u8, 0, 100][..], &[0; 16]].concat();
        assert_eq!(&encode_with(&[], 100, Encoding::Bitmap)[..], &empty_bitmap);
        best(&[], 100, Encoding::DeltaVarint, &[1, 0, 100]);
    }

    #[test]
    fn compression_factor_on_bfs_like_traffic() {
        // A BFS frontier: clustered ascending ids — the paper reports ~3.2x
        // net benefit; the codec alone should compress well over 2x.
        let ids: Vec<u32> = (0..100_000u32).filter(|v| v % 3 != 0).collect();
        let best = encode_best(&ids, 100_000);
        let factor = raw_size(ids.len()) as f64 / best.len() as f64;
        assert!(factor > 2.0, "compression factor {factor}");
    }
}
