//! Order statistics, the checksum and the seeded samplers the workloads
//! draw their inputs from.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. Always an observed
/// value, never an interpolation, so integer-nanosecond latencies stay
/// integers.
pub fn percentile_nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Nearest-rank percentile of unsorted nanosecond latencies, in the unit
/// `ns_per_unit` nanoseconds long (1e3 for µs, 1e6 for ms). 0 when empty.
pub fn percentile_of_ns(ns: &mut [u64], p: f64, ns_per_unit: f64) -> f64 {
    ns.sort_unstable();
    percentile_nearest_rank(ns, p).map_or(0.0, |v| v as f64 / ns_per_unit)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the acceptance
/// check of the benchmark contract uses. `None` under two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the benchmark's measure
/// of run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// FNV-1a over bytes — the checksum that ties a result to its inputs (the
/// request sequence a seed produced, the golden file it was checked
/// against).
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the one seeded stream every benchmark input is drawn from.
/// The sampler is the benchmark's own rather than `serve::loadgen`'s, so
/// that a change to the code under test cannot change the inputs it is
/// measured on.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs a non-empty population");
        let mut cumulative: Vec<f64> = (0..n)
            .scan(0.0, |total, rank| {
                *total += 1.0 / ((rank + 1) as f64).powf(s);
                Some(*total)
            })
            .collect();
        let total = cumulative[n - 1];
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }

    /// The `count` ranks a seed produces — a workload's request sequence.
    pub fn sequence(&self, seed: u64, count: usize) -> Vec<u16> {
        let mut rng = SplitMix64(seed);
        (0..count).map(|_| self.sample(&mut rng) as u16).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_observed_values() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_nearest_rank(&v, 50.0), Some(50));
        assert_eq!(percentile_nearest_rank(&v, 99.0), Some(99));
        assert_eq!(percentile_nearest_rank(&v, 100.0), Some(100));
        assert_eq!(percentile_nearest_rank(&v, 0.0), Some(1));
        // 5 samples: p50 is the 3rd (ceil(2.5)), p95 the 5th (ceil(4.75))
        let five = [10u64, 20, 30, 40, 50];
        assert_eq!(percentile_nearest_rank(&five, 50.0), Some(30));
        assert_eq!(percentile_nearest_rank(&five, 95.0), Some(50));
        assert_eq!(percentile_nearest_rank(&five, 20.0), Some(10));
        assert_eq!(percentile_nearest_rank(&five, 20.1), Some(20));
        assert_eq!(percentile_nearest_rank::<u64>(&[], 50.0), None);
        let mut unsorted = [3_000u64, 1_000, 2_000];
        assert_eq!(percentile_of_ns(&mut unsorted, 50.0, 1e3), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn checksum_is_fnv1a64() {
        assert_eq!(fnv1a64([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(*b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a64(*b"ab"), fnv1a64(*b"ba"));
    }

    #[test]
    fn zipf_sequences_are_a_pure_function_of_the_seed() {
        let zipf = Zipf::new(29, 1.0);
        let a = zipf.sequence(20140622, 5_000);
        assert_eq!(a, zipf.sequence(20140622, 5_000));
        assert_ne!(a, zipf.sequence(20140623, 5_000));
        assert!(a.iter().all(|&r| r < 29));
        // rank 0 carries 1/H(29) ≈ 25 % of the mass under s = 1
        let zeros = a.iter().filter(|&&r| r == 0).count() as f64 / a.len() as f64;
        assert!((zeros - 0.2524).abs() < 0.03, "rank-0 share {zeros}");
        let uniform = Zipf::new(4, 0.0).sequence(1, 8_000);
        for rank in 0..4u16 {
            let share = uniform.iter().filter(|&&r| r == rank).count() as f64 / 8_000.0;
            assert!((share - 0.25).abs() < 0.03, "rank {rank} share {share}");
        }
    }
}
