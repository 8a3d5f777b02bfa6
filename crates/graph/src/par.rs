//! Minimal scoped-thread parallelism helpers.
//!
//! The paper's native code uses OpenMP within a node (§4.3). We mirror that
//! with `std::thread::scope` threads over contiguous index chunks: static
//! scheduling for regular loops ([`par_for_chunks`]), and a chunk-grained
//! dynamic scheduler for skewed work ([`par_for_dynamic`]) since power-law
//! degree distributions make static splits imbalanced.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Returns the default worker count: `GRAPHMAZE_THREADS` env override, else
/// the machine's available parallelism, else 1.
pub fn default_threads() -> usize {
    if let Ok(s) = std::env::var("GRAPHMAZE_THREADS") {
        if let Ok(n) = s.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Splits `0..len` into `threads` nearly equal chunks and runs `f(chunk_idx,
/// range)` on scoped threads. `f` runs on the caller thread when
/// `threads <= 1` or `len == 0`.
pub fn par_for_chunks<F>(len: usize, threads: usize, f: F)
where
    F: Fn(usize, std::ops::Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let threads = threads.max(1).min(len);
    if threads == 1 {
        f(0, 0..len);
        return;
    }
    let chunk = len.div_ceil(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let f = &f;
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(len);
            if lo < hi {
                s.spawn(move || f(t, lo..hi));
            }
        }
    });
}

/// Dynamic (work-stealing-ish) parallel for: workers repeatedly claim
/// `grain`-sized chunks of `0..len` from a shared atomic cursor and call
/// `f(range)`. Suits power-law skewed per-index work.
pub fn par_for_dynamic<F>(len: usize, threads: usize, grain: usize, f: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let threads = threads.max(1);
    let grain = grain.max(1);
    if threads == 1 {
        f(0..len);
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let f = &f;
            let cursor = &cursor;
            s.spawn(move || loop {
                let lo = cursor.fetch_add(grain, Ordering::Relaxed);
                if lo >= len {
                    break;
                }
                f(lo..(lo + grain).min(len));
            });
        }
    });
}

/// Parallel map-reduce over `0..len`: each worker folds its chunk with
/// `fold(acc, idx)` starting from `init()`, partials are combined with
/// `combine`.
pub fn par_reduce<T, I, FF, C>(len: usize, threads: usize, init: I, fold: FF, combine: C) -> T
where
    T: Send,
    I: Fn() -> T + Sync,
    FF: Fn(T, usize) -> T + Sync,
    C: Fn(T, T) -> T,
{
    if len == 0 {
        return init();
    }
    let threads = threads.max(1).min(len);
    if threads == 1 {
        return (0..len).fold(init(), &fold);
    }
    let chunk = len.div_ceil(threads);
    let partials: Vec<T> = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let init = &init;
            let fold = &fold;
            let lo = t * chunk;
            let hi = ((t + 1) * chunk).min(len);
            if lo < hi {
                handles.push(s.spawn(move || (lo..hi).fold(init(), fold)));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut iter = partials.into_iter();
    let first = iter.next().expect("at least one partial");
    iter.fold(first, combine)
}

/// Runs `f(t)` for `t in 0..threads` on scoped threads and returns the
/// results in order. The basic "one task per simulated node" primitive.
pub fn par_tasks<T, F>(threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 {
        return (0..threads).map(&f).collect();
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                s.spawn(move || f(t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_for_chunks_covers_all_indices_once() {
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        par_for_chunks(1000, 7, |_, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_dynamic_covers_all_indices_once() {
        let hits: Vec<AtomicU64> = (0..997).map(|_| AtomicU64::new(0)).collect();
        par_for_dynamic(997, 5, 16, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_reduce_sums() {
        let total = par_reduce(1001, 4, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        assert_eq!(total, 1000 * 1001 / 2);
    }

    #[test]
    fn par_reduce_single_thread_matches() {
        let a = par_reduce(100, 1, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        let b = par_reduce(100, 8, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        assert_eq!(a, b);
    }

    #[test]
    fn par_tasks_returns_in_order() {
        let out = par_tasks(6, |t| t * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn zero_len_is_noop() {
        par_for_chunks(0, 4, |_, _| panic!("must not run"));
        par_for_dynamic(0, 4, 8, |_| panic!("must not run"));
        assert_eq!(par_reduce(0, 4, || 7u32, |a, _| a, |a, _| a), 7);
    }

    #[test]
    fn a_panicking_worker_panics_the_caller() {
        // the sweep's per-cell catch_unwind relies on this: a worker's
        // panic must surface on the calling thread, joined or not
        let caught = |f: fn()| std::panic::catch_unwind(f).is_err();
        assert!(caught(|| par_for_chunks(8, 4, |t, _| assert_ne!(t, 2))));
        assert!(caught(|| par_for_dynamic(8, 4, 1, |r| assert_ne!(
            r.start,
            5
        ))));
        assert!(caught(|| {
            par_reduce(8, 4, || 0, |acc, i| acc + 8 / (7 - i), |a, b| a + b);
        }));
        assert!(caught(|| {
            par_tasks(4, |t| assert_ne!(t, 3));
        }));
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
