//! Counting allocator for the `*allocs*` / `*alloc_kb*` per-layer counts.
//!
//! Counting is per thread and off unless a thread turns it on around the
//! calls it wants counted (`count`), so the timed phases of an untraced run
//! pay one thread-local read per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    // `const` initialisers and `Cell`s of plain integers: no lazy
    // initialisation and no destructor, so touching them from inside the
    // allocator can neither allocate nor run after thread teardown.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    let _ = ENABLED.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
            let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only thread-local `Cell`s and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested by `f` on the calling thread
/// (reallocations count as one call of their new size).
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let was = ENABLED.with(|on| on.replace(true));
    let out = f();
    ENABLED.with(|on| on.set(was));
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_exact_and_repeat() {
        let work = || {
            let v: Vec<u64> = Vec::with_capacity(100);
            let b = Box::new([0u8; 64]);
            std::hint::black_box((&v, &b));
        };
        let (_, allocs_a, bytes_a) = count(work);
        let (_, allocs_b, bytes_b) = count(work);
        assert_eq!((allocs_a, bytes_a), (2, 800 + 64));
        assert_eq!((allocs_a, bytes_a), (allocs_b, bytes_b));
    }

    #[test]
    fn nothing_is_counted_while_off_or_on_other_threads() {
        let (_, _, bytes) = count(|| {
            std::thread::scope(|s| {
                s.spawn(|| std::hint::black_box(vec![1u8; 1 << 20]));
            });
        });
        assert!(bytes < 1 << 20, "another thread's allocation was counted");
        let before = ALLOCS.with(Cell::get);
        std::hint::black_box(vec![0u8; 128]);
        assert_eq!(ALLOCS.with(Cell::get), before);
    }
}
