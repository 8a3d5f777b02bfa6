//! Semirings — the user-defined algebra of CombBLAS operations.
//!
//! A semiring supplies `(⊕, ⊗, 0)`; graph kernels differ only in the
//! semiring: PageRank uses `(+, ×)` over reals, BFS uses a
//! min/select algebra over levels.
//!
//! [`GatherMonoid`] generalizes the ⊕ half past `Copy` element types —
//! the algebra a GAS vertex program declares for its gather step.

/// A semiring over element type `T`.
#[derive(Clone, Copy)]
pub struct Semiring<T: Copy> {
    /// The additive identity (also the "no entry" value).
    pub zero: T,
    /// ⊕ — combines partial results.
    pub add: fn(T, T) -> T,
    /// ⊗ — combines a matrix entry (as `T`) with a vector entry.
    pub mul: fn(T, T) -> T,
}

impl<T: Copy> Semiring<T> {
    /// Folds an iterator with ⊕ starting from zero.
    pub fn sum(&self, it: impl Iterator<Item = T>) -> T {
        it.fold(self.zero, self.add)
    }
}

/// The arithmetic `(+, ×)` semiring over `f64` (PageRank, CF).
pub const PLUS_TIMES: Semiring<f64> = Semiring {
    zero: 0.0,
    add: |a, b| a + b,
    mul: |a, b| a * b,
};

/// The `(min, +)` tropical semiring over `u32` distances, with `u32::MAX`
/// as zero (BFS level propagation).
pub const MIN_PLUS: Semiring<u32> = Semiring {
    zero: u32::MAX,
    add: |a, b| a.min(b),
    mul: |a, b| a.saturating_add(b),
};

/// The `(|, pass)` semiring over `u64` source masks: ⊕ is bitwise OR,
/// ⊗ passes the vector entry through (matrix entries are boolean).
/// Drives bit-parallel multi-source BFS — one SpMSpV advances all 64
/// sources of a word at once.
pub const OR_PASS: Semiring<u64> = Semiring {
    zero: 0,
    add: |a, b| a | b,
    mul: |_, x| x,
};

/// The gather half of a [`Semiring`] generalized past `Copy`: an
/// associative ⊕ with an identity element over an arbitrary `Clone`
/// message type. This is the algebra a gather–apply–scatter vertex
/// program declares (GraphBLAST's user-defined monoid); for `Copy`
/// types it coincides with `(Semiring::add, Semiring::zero)`.
#[derive(Clone)]
pub struct GatherMonoid<M: Clone> {
    /// The ⊕ identity (the semiring's `zero`).
    pub identity: M,
    /// ⊕ in place, `acc ← acc ⊕ m` — associative, with `identity` as its
    /// neutral element. In place so that a heap-backed accumulator (the
    /// msbfs mask words) is reused across every message folded into it.
    pub combine: fn(&mut M, &M),
}

/// `(+, 0)` over `f64` — [`PLUS_TIMES`]'s ⊕ (PageRank's gather).
pub fn plus_f64() -> GatherMonoid<f64> {
    GatherMonoid {
        identity: 0.0,
        combine: |a, b| *a += *b,
    }
}

/// `(min, MAX)` over `u32` — [`MIN_PLUS`]'s ⊕ (BFS's gather).
pub fn min_u32() -> GatherMonoid<u32> {
    GatherMonoid {
        identity: u32::MAX,
        combine: |a, b| *a = (*a).min(*b),
    }
}

/// Word-wise `(|, 0)` over mask vectors of `width` words — [`OR_PASS`]'s
/// ⊕ lifted to multi-word frontiers (bit-parallel multi-source BFS).
pub fn or_words(width: usize) -> GatherMonoid<Vec<u64>> {
    GatherMonoid {
        identity: vec![0u64; width],
        combine: |a, b| a.iter_mut().zip(b).for_each(|(x, y)| *x |= y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_sums() {
        assert_eq!(PLUS_TIMES.sum([1.0, 2.0, 3.5].into_iter()), 6.5);
        assert_eq!((PLUS_TIMES.mul)(2.0, 4.0), 8.0);
    }

    #[test]
    fn min_plus_takes_minimum_and_saturates() {
        assert_eq!(MIN_PLUS.sum([5u32, 3, 9].into_iter()), 3);
        assert_eq!(MIN_PLUS.sum(std::iter::empty()), u32::MAX);
        assert_eq!((MIN_PLUS.mul)(u32::MAX, 1), u32::MAX);
    }

    /// Left-folds `msgs` with ⊕ from the identity — the reduction a
    /// fold-mode inbox performs on arrival.
    fn fold<M: Clone>(monoid: &GatherMonoid<M>, msgs: &[M]) -> M {
        let mut acc = monoid.identity.clone();
        for m in msgs {
            (monoid.combine)(&mut acc, m);
        }
        acc
    }

    #[test]
    fn gather_monoids_mirror_their_semirings() {
        // folding with the monoid == summing with the semiring's ⊕
        let msgs = [1.5f64, 2.25, -0.5];
        assert_eq!(fold(&plus_f64(), &msgs), PLUS_TIMES.sum(msgs.into_iter()));
        let levels = [7u32, 3, 9];
        assert_eq!(fold(&min_u32(), &levels), MIN_PLUS.sum(levels.into_iter()));
        // empty inboxes fold to the identity, not a sentinel
        assert_eq!(fold(&min_u32(), &[]), u32::MAX);
        let words = [vec![0b01u64, 0b10], vec![0b10u64, 0b10]];
        assert_eq!(fold(&or_words(2), &words), vec![0b11u64, 0b10]);
        assert_eq!(fold(&or_words(2), &[]), vec![0u64, 0]);
    }
}
