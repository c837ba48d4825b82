//! A counting `#[global_allocator]` for the allocation-budget tests
//! (`train_allocs.rs` here, `forward_allocs.rs` in `hire-serve`, which
//! includes this file by path): allocation calls made on the calling thread
//! while [`allocations`] runs its closure, the bytes they asked for, and
//! the largest one.
//! Each including test is its own binary, so the process-wide allocator is
//! that test's alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // `const`-initialised `Cell`s: touching them from inside the allocator
    // neither allocates nor registers a destructor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<u64> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
            let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
            let _ = LARGEST.try_with(|n| n.set(n.get().max(bytes as u64)));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only thread-local `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What [`allocations`] counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Allocations {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes those calls asked for (a `realloc` counts its new size).
    pub bytes: u64,
    /// The most bytes one of them asked for.
    pub largest: u64,
}

/// Allocation calls `f` makes on this thread, their bytes, and the largest.
pub fn allocations(f: impl FnOnce()) -> Allocations {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    LARGEST.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    Allocations {
        calls: ALLOCS.with(Cell::get) - before.0,
        bytes: BYTES.with(Cell::get) - before.1,
        largest: LARGEST.with(Cell::get),
    }
}
