//! Minimal scoped-thread parallelism helpers.
//!
//! The paper's native code uses OpenMP within a node (§4.3). We mirror that
//! with `std::thread::scope` threads: static scheduling over contiguous
//! index chunks ([`par_for_chunks`]), and one task per worker
//! ([`par_tasks`]) for kernels that schedule their own rows.

/// Returns the default worker count: the machine's available parallelism,
/// else 1. No answer depends on it — only how the work is spread.
pub fn default_threads() -> usize {
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
    use std::sync::atomic::{AtomicU64, Ordering};

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
    fn par_tasks_returns_in_order() {
        let out = par_tasks(6, |t| t * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn zero_len_is_noop() {
        par_for_chunks(0, 4, |_, _| panic!("must not run"));
        assert!(par_tasks(0, |_| -> u32 { panic!("must not run") }).is_empty());
    }

    #[test]
    fn a_panicking_worker_panics_the_caller() {
        // the sweep's per-cell catch_unwind relies on this: a worker's
        // panic must surface on the calling thread, joined or not
        let caught = |f: fn()| std::panic::catch_unwind(f).is_err();
        assert!(caught(|| par_for_chunks(8, 4, |t, _| assert_ne!(t, 2))));
        assert!(caught(|| {
            par_tasks(4, |t| assert_ne!(t, 3));
        }));
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
