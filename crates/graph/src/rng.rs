//! The workspace's one pseudo-random stream.
//!
//! Every generated edge, star rating, msbfs source and fault decision is
//! a function of this module, so every pinned digest is too. Two pieces:
//!
//! * [`splitmix64`] — the stateless SplitMix64 output function, used as a
//!   seed mixer and as a pure per-decision hash (fault plans, id
//!   scrambling, star ratings);
//! * [`SmallRng`] — xoshiro256++ seeded through [`splitmix64`], used where
//!   a long sequential stream is drawn (RMAT quadrants, ER endpoints).

/// `φ · 2⁶⁴`, the SplitMix64 increment (odd, so the state walks all of
/// `u64`).
pub const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output at state `x + GOLDEN`: a full-avalanche 64-bit
/// mix. A stream is `splitmix64(s), splitmix64(s + GOLDEN), …`.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ — small, fast and statistically solid.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    /// Builds the generator from one `u64` seed: the state is the first
    /// four SplitMix64 outputs after `seed`. They are never all zero (the
    /// one state xoshiro cannot leave), because `splitmix64` is a
    /// bijection and so maps at most one of four distinct inputs to 0.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [(); 4].map(|()| {
            let z = splitmix64(sm);
            sm = sm.wrapping_add(GOLDEN);
            z
        });
        SmallRng { s }
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: the top 53 bits as the mantissa.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`): Lemire's widening multiply, with
    /// rejection of the biased zone so every value is exactly equally
    /// likely.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below: empty range");
        let threshold = n.wrapping_neg() % n;
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(n);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SmallRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_covers_and_stays_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = 3 + rng.below(10);
            assert!((3..13).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range hit");
    }
}
