//! A spawn makes one heap allocation: the task, with its future and
//! join slot inline. A counting global allocator tallies the
//! allocations each thread makes, so the executor's worker (which
//! polls and frees) does not blur the spawner's count.
//!
//! Its own test binary because the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use asl_runtime::exec::Executor;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the slot may be gone while a thread tears down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialised thread-local without a destructor, so touching it
// allocates nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Room for the amortized growth of the run queue and the task
/// registry over 1 000 spawns (a handful of doublings each).
const SLACK: u64 = 32;

#[test]
fn a_detached_spawn_allocates_once() {
    const SPAWNS: u64 = 1_000;
    let exec = Executor::new(1);
    // Warm-up: grow the queue and the registry, and let the worker
    // start its thread-locals, before counting.
    for _ in 0..SPAWNS {
        drop(exec.spawn(async {}));
    }
    let before = allocs();
    for i in 0..SPAWNS {
        drop(exec.spawn(async move { std::hint::black_box(i) }));
    }
    let made = allocs() - before;
    assert!(
        made <= SPAWNS + SLACK,
        "{SPAWNS} spawns made {made} allocations (at most {} allowed)",
        SPAWNS + SLACK
    );
}
