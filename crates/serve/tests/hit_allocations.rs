//! The allocation budget of a `run` cache hit: a warmed hit through
//! `ServeState::handle_line` allocates at most ten times.
//!
//! A counting global allocator sees every allocation in this test
//! binary, so the test is the only one in it, and it counts on the
//! calling thread only. The counter is a const-initialized
//! `thread_local!` `Cell`, which needs no allocation and no destructor
//! to reach from inside the allocator.
//!
//! The `unsafe` below is the only `unsafe` in the workspace outside
//! `native::cf`, and it lives in this test target: `GlobalAlloc` is an
//! unsafe trait whose methods forward to `System` unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use graphmaze_serve::grid::default_grid;
use graphmaze_serve::protocol::encode_run_request;
use graphmaze_serve::{ServeConfig, Server};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread is being torn down
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` that needs no allocation and has no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most allocations one warmed hit may make.
const HIT_BUDGET: u64 = 10;

#[test]
fn a_warmed_run_hit_allocates_at_most_ten_times() {
    let state = Server::bind(&ServeConfig {
        jobs: 1,
        cache_capacity: 64,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port")
    .state();
    // the first grid cell is the benchmark's hottest request
    let line = encode_run_request("q0", &default_grid(7, 42, 2)[0]);
    let (miss, _) = state.handle_line(&line);
    assert!(miss.contains("\"cache\":\"miss\""), "{miss}");
    // warm up: telemetry handles resolved, span storage grown
    for _ in 0..100 {
        state.handle_line(&line);
    }
    let mut worst = 0;
    for _ in 0..100 {
        let before = allocations();
        let (reply, _) = state.handle_line(&line);
        let spent = allocations() - before;
        assert!(reply.contains("\"cache\":\"hit\""), "{reply}");
        drop(reply);
        worst = worst.max(spent);
    }
    assert!(
        worst <= HIT_BUDGET,
        "a warmed hit allocated {worst} times (budget {HIT_BUDGET})"
    );
    eprintln!("worst allocations per warmed hit: {worst}");
}
