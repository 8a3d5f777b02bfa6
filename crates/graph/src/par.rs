//! Minimal scoped-thread parallelism helpers.
//!
//! The paper's native code uses OpenMP within a node (§4.3). We mirror that
//! with `std::thread::scope` threads: static scheduling over contiguous
//! index chunks ([`par_for_chunks`]), workers claiming the blocks of a
//! mutable slice one at a time ([`par_chunks_mut`]), and one task per
//! worker ([`par_tasks`]) for kernels that schedule their own rows.

use std::sync::Mutex;

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

/// Splits `slice` into `chunk`-element blocks (the last may be shorter)
/// and runs `f(block_index, block)` on every block from `threads` scoped
/// threads, each claiming the next unclaimed block until none is left, so
/// uneven blocks balance. Every block is handed out exactly once as a
/// plain `&mut` slice, so filling a buffer in parallel needs no `unsafe`.
/// Runs on the caller thread when `threads <= 1` or there is at most one
/// block.
pub fn par_chunks_mut<T, F>(slice: &mut [T], chunk: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "par_chunks_mut: zero chunk size");
    let threads = threads.min(slice.len().div_ceil(chunk));
    let blocks = slice.chunks_mut(chunk).enumerate();
    if threads <= 1 {
        blocks.for_each(|(b, block)| f(b, block));
        return;
    }
    let blocks = Mutex::new(blocks);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                // the guard is a temporary of this statement: `f` runs
                // with the lock released
                let Some((b, block)) = blocks.lock().expect("never poisoned").next() else {
                    break;
                };
                f(b, block);
            });
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
    fn par_chunks_mut_hands_out_every_block_once_with_its_index() {
        for (len, chunk, threads) in [(1000, 64, 3), (1000, 1000, 4), (7, 3, 8), (0, 5, 2)] {
            let mut v = vec![usize::MAX; len];
            par_chunks_mut(&mut v, chunk, threads, |b, block| {
                assert!(block.len() == chunk || (b + 1) * chunk >= len);
                for (i, x) in block.iter_mut().enumerate() {
                    assert_eq!(*x, usize::MAX, "element written twice");
                    *x = b * chunk + i;
                }
            });
            assert!(v.iter().enumerate().all(|(i, &x)| x == i), "len {len}");
        }
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
            par_chunks_mut(&mut [0u8; 8], 2, 4, |b, _| assert_ne!(b, 2));
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
