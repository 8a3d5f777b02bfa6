//! Fixed-size bit-vectors.
//!
//! The paper (§6.1.1) credits bit-vectors with "slightly over 2X" speedups
//! in native BFS and triangle counting: constant-time membership tests with
//! a footprint of one bit per vertex keep the visited/neighbor sets resident
//! in cache. [`BitVec`] is the single-threaded variant; [`AtomicBitVec`]
//! supports concurrent setting from parallel frontier expansion.

use std::sync::atomic::{AtomicU64, Ordering};

const WORD_BITS: usize = 64;

/// A fixed-size, heap-allocated bit-vector.
///
/// ```
/// use graphmaze_graph::BitVec;
/// let mut visited = BitVec::new(1 << 20);
/// assert!(visited.test_and_set(42));   // claimed
/// assert!(!visited.test_and_set(42));  // already set
/// assert_eq!(visited.count_ones(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a bit-vector of `len` bits, all cleared.
    pub fn new(len: usize) -> Self {
        BitVec {
            words: vec![0u64; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Memory footprint of the backing storage in bytes.
    #[inline]
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// Tests bit `i`. Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i`. Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i`. Panics if `i >= len`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Sets bit `i` and returns whether it was previously clear
    /// (i.e. whether this call changed it).
    #[inline]
    pub fn test_and_set(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let was_clear = *w & mask == 0;
        *w |= mask;
        was_clear
    }

    /// Clears all bits (keeps capacity).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of set bits with index in `range`. Panics if the range
    /// is reversed or ends past `len`.
    pub fn count_ones_in(&self, range: std::ops::Range<usize>) -> usize {
        let std::ops::Range { start, end } = range;
        assert!(
            start <= end && end <= self.len,
            "bit range {start}..{end} out of range {}",
            self.len
        );
        if start == end {
            return 0;
        }
        let (first, last) = (start / WORD_BITS, (end - 1) / WORD_BITS);
        let head = u64::MAX << (start % WORD_BITS);
        let tail = u64::MAX >> (WORD_BITS - 1 - (end - 1) % WORD_BITS);
        if first == last {
            return (self.words[first] & head & tail).count_ones() as usize;
        }
        let middle: usize = self.words[first + 1..last]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (self.words[first] & head).count_ones() as usize
            + middle
            + (self.words[last] & tail).count_ones() as usize
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            len: self.len,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// In-place union. Panics on length mismatch.
    pub fn union_with(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Number of bits set in both `self` and `other`.
    /// This is the hot loop of bit-vector triangle counting.
    pub fn intersection_count(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "bitvec length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Raw words, for serialization / compression.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bit-vector from raw words produced by [`BitVec::words`].
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert!(
            words.len() == len.div_ceil(WORD_BITS),
            "word count mismatch"
        );
        BitVec { words, len }
    }
}

/// Iterator over set-bit indices of a [`BitVec`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    len: usize,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                let idx = self.word_idx * WORD_BITS + bit;
                return if idx < self.len { Some(idx) } else { None };
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// A bit-vector whose bits can be set concurrently from many threads.
///
/// Used for the "visited" set in parallel BFS: `test_and_set` is a single
/// `fetch_or`, so claiming a vertex is wait-free.
pub struct AtomicBitVec {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicBitVec {
    /// Creates an atomic bit-vector of `len` bits, all cleared.
    pub fn new(len: usize) -> Self {
        let mut words = Vec::with_capacity(len.div_ceil(WORD_BITS));
        words.resize_with(len.div_ceil(WORD_BITS), || AtomicU64::new(0));
        AtomicBitVec { words, len }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tests bit `i` (relaxed load).
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS].load(Ordering::Relaxed) >> (i % WORD_BITS)) & 1 == 1
    }

    /// Atomically sets bit `i`, returning whether it was previously clear.
    #[inline]
    pub fn test_and_set(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % WORD_BITS);
        let prev = self.words[i / WORD_BITS].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Sets bit `i` without caring about the previous value.
    #[inline]
    pub fn set(&self, i: usize) {
        self.test_and_set(i);
    }

    /// Snapshots the current contents into a plain [`BitVec`].
    pub fn snapshot(&self) -> BitVec {
        BitVec::from_words(
            self.words
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            self.len,
        )
    }

    /// Number of set bits (relaxed; exact only at quiescence).
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Clears all bits. Requires `&mut`, i.e. exclusive access.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
    }

    /// Number of backing `u64` words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Atomically ORs `mask` into word `w`, returning the *previous*
    /// word value — the word-level primitive of bit-parallel multi-source
    /// BFS, where one word carries 64 source masks and `fetch_or` gossips
    /// them edge-parallel. Panics if `w >= num_words()`.
    #[inline]
    pub fn fetch_or_word(&self, w: usize, mask: u64) -> u64 {
        self.words[w].fetch_or(mask, Ordering::Relaxed)
    }

    /// Relaxed load of word `w`. Panics if `w >= num_words()`.
    #[inline]
    pub fn load_word(&self, w: usize) -> u64 {
        self.words[w].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bv = BitVec::new(130);
        assert_eq!(bv.len(), 130);
        assert!(!bv.get(0));
        bv.set(0);
        bv.set(63);
        bv.set(64);
        bv.set(129);
        assert!(bv.get(0) && bv.get(63) && bv.get(64) && bv.get(129));
        assert!(!bv.get(65));
        bv.clear(64);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 3);
    }

    #[test]
    fn test_and_set_reports_change() {
        let mut bv = BitVec::new(10);
        assert!(bv.test_and_set(3));
        assert!(!bv.test_and_set(3));
        assert!(bv.get(3));
    }

    #[test]
    fn iter_ones_matches_set_bits() {
        let mut bv = BitVec::new(200);
        let bits = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &b in &bits {
            bv.set(b);
        }
        let collected: Vec<usize> = bv.iter_ones().collect();
        assert_eq!(collected, bits);
    }

    #[test]
    fn iter_ones_empty_and_full_word() {
        let bv = BitVec::new(64);
        assert_eq!(bv.iter_ones().count(), 0);
        let mut bv = BitVec::new(64);
        for i in 0..64 {
            bv.set(i);
        }
        assert_eq!(bv.iter_ones().count(), 64);
    }

    #[test]
    fn count_ones_in_matches_a_bit_by_bit_count() {
        let mut bv = BitVec::new(200);
        for i in (0..200).filter(|i| i % 3 == 0 || i % 7 == 1) {
            bv.set(i);
        }
        for start in [0, 1, 62, 63, 64, 65, 128, 199, 200] {
            for end in [start, start + 1, 64, 127, 128, 129, 191, 200] {
                if end < start || end > 200 {
                    continue;
                }
                let want = (start..end).filter(|&i| bv.get(i)).count();
                assert_eq!(bv.count_ones_in(start..end), want, "{start}..{end}");
            }
        }
    }

    #[test]
    fn intersection_count_counts_common_bits() {
        let mut a = BitVec::new(100);
        let mut b = BitVec::new(100);
        for i in (0..100).step_by(2) {
            a.set(i);
        }
        for i in (0..100).step_by(3) {
            b.set(i);
        }
        // multiples of 6 in 0..100: 0,6,...,96 -> 17
        assert_eq!(a.intersection_count(&b), 17);
    }

    #[test]
    fn union_with_merges() {
        let mut a = BitVec::new(70);
        let mut b = BitVec::new(70);
        a.set(1);
        b.set(69);
        a.union_with(&b);
        assert!(a.get(1) && a.get(69));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn words_round_trip() {
        let mut a = BitVec::new(77);
        a.set(5);
        a.set(76);
        let b = BitVec::from_words(a.words().to_vec(), 77);
        assert_eq!(a, b);
    }

    #[test]
    fn atomic_set_from_threads() {
        let bv = AtomicBitVec::new(1000);
        std::thread::scope(|s| {
            for t in 0..4 {
                let bv = &bv;
                s.spawn(move || {
                    for i in (t..1000).step_by(4) {
                        bv.set(i);
                    }
                });
            }
        });
        assert_eq!(bv.count_ones(), 1000);
        let snap = bv.snapshot();
        assert_eq!(snap.count_ones(), 1000);
    }

    #[test]
    fn atomic_test_and_set_claims_once() {
        let bv = AtomicBitVec::new(64);
        assert!(bv.test_and_set(7));
        assert!(!bv.test_and_set(7));
    }

    #[test]
    fn clear_all_resets() {
        let mut bv = BitVec::new(100);
        bv.set(42);
        bv.clear_all();
        assert_eq!(bv.count_ones(), 0);
        let mut abv = AtomicBitVec::new(100);
        abv.set(42);
        abv.clear_all();
        assert_eq!(abv.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bv = BitVec::new(10);
        bv.get(10);
    }

    #[test]
    fn word_ops_round_trip() {
        let bv = AtomicBitVec::new(130);
        assert_eq!(bv.num_words(), 3);
        assert_eq!(bv.fetch_or_word(0, 0b1010), 0);
        assert_eq!(bv.fetch_or_word(0, 0b0110), 0b1010);
        assert_eq!(bv.load_word(0), 0b1110);
        assert!(bv.get(1) && bv.get(2) && bv.get(3) && !bv.get(0));
        bv.fetch_or_word(2, 1 << 1); // bit 129
        assert!(bv.get(129));
        assert_eq!(bv.snapshot().count_ones(), 4);
    }

    /// Interleaving torture: N threads each OR a deterministic stream of
    /// masks into random words. Whatever the interleaving, the quiescent
    /// image must equal the sequential OR of all masks — `fetch_or` loses
    /// nothing. Exercises lengths that are not word multiples.
    #[test]
    fn concurrent_fetch_or_converges_to_sequential_or_image() {
        fn splitmix(state: &mut u64) -> u64 {
            let z = crate::rng::splitmix64(*state);
            *state = state.wrapping_add(crate::rng::GOLDEN);
            z
        }
        for len in [1usize, 63, 64, 65, 127, 1000] {
            let words = len.div_ceil(64);
            let threads = 8;
            let per_thread = 2000;
            // expected image: sequential OR of every (word, mask) op
            let mut want = vec![0u64; words];
            for t in 0..threads as u64 {
                let mut st = 0x5eed_0000 + t;
                for _ in 0..per_thread {
                    let w = (splitmix(&mut st) as usize) % words;
                    let mask = splitmix(&mut st);
                    want[w] |= mask;
                }
            }
            let bv = AtomicBitVec::new(len);
            std::thread::scope(|s| {
                for t in 0..threads as u64 {
                    let bv = &bv;
                    s.spawn(move || {
                        let mut st = 0x5eed_0000 + t;
                        for _ in 0..per_thread {
                            let w = (splitmix(&mut st) as usize) % words;
                            let mask = splitmix(&mut st);
                            bv.fetch_or_word(w, mask);
                        }
                    });
                }
            });
            let got: Vec<u64> = (0..words).map(|w| bv.load_word(w)).collect();
            assert_eq!(got, want, "len={len}");
        }
    }

    /// Word-boundary edge cases for the concurrent vector: empty, a
    /// single bit, and concurrent test/claim interleaved with word ORs.
    #[test]
    fn atomic_word_boundary_edge_cases() {
        let bv = AtomicBitVec::new(0);
        assert!(bv.is_empty());
        assert_eq!(bv.num_words(), 0);
        assert_eq!(bv.snapshot().count_ones(), 0);

        let bv = AtomicBitVec::new(1);
        assert_eq!(bv.num_words(), 1);
        assert!(bv.test_and_set(0));
        assert_eq!(bv.load_word(0), 1);

        // concurrent claimers + word-OR writers on the same word: every
        // bit claimed exactly once, and the word image is the full OR
        let bv = AtomicBitVec::new(64);
        let claims = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (bv, claims) = (&bv, &claims);
                s.spawn(move || {
                    for i in 0..64 {
                        if bv.test_and_set(i) {
                            claims.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
            let bv = &bv;
            s.spawn(move || {
                for i in 0..64 {
                    bv.fetch_or_word(0, 1u64 << i);
                }
            });
        });
        assert_eq!(claims.load(Ordering::Relaxed), 64, "each bit claimed once");
        assert_eq!(bv.load_word(0), u64::MAX);
    }
}
