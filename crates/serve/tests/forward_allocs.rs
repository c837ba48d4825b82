//! The no-grad forward's allocation budget: one workspace sized from the
//! shapes, one packed-panel buffer per blocked projection, the outputs —
//! and nothing per tile, per row or per layer beyond that. Before the
//! workspace forward a 16×16, 2-block forward made 660 allocations; this
//! pins it to a tenth of that so a stray `NdArray` temporary in the hot
//! path shows up here rather than as a slow drift in the ledger.
//!
//! Own test binary: the counting `#[global_allocator]` is process-wide.

use hire_core::{HireConfig, HireModel};
use hire_data::{training_context, SyntheticConfig};
use hire_graph::NeighborhoodSampler;
use hire_par::{with_pool, ThreadPool};
use hire_serve::FrozenModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    // `const`-initialised `Cell`s: touching them from inside the allocator
    // neither allocates nor registers a destructor.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn record() {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only thread-local `Cell`s.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(Cell::get) - before
}

#[test]
fn steady_state_forward_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 66;
    let dataset = SyntheticConfig::movielens_like()
        .scaled(60, 50, (10, 20))
        .generate(5);
    let config = HireConfig::fast().with_blocks(2).with_context_size(16, 16);
    let mut rng = StdRng::seed_from_u64(5);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    let ctx = training_context(
        &dataset.graph(),
        &NeighborhoodSampler,
        dataset.ratings[0],
        16,
        16,
        0.2,
        &mut rng,
    )
    .expect("context");
    assert_eq!((ctx.n(), ctx.m()), (16, 16));

    // One lane: every kernel runs inline on this thread, so the count is
    // the forward's, whole and exact.
    with_pool(&Arc::new(ThreadPool::new(1)), || {
        frozen.forward_nograd(&ctx, &dataset).expect("warm-up");
        let first = allocations(|| drop(frozen.forward_nograd(&ctx, &dataset)));
        let again = allocations(|| drop(frozen.forward_nograd(&ctx, &dataset)));
        assert_eq!(first, again, "a steady-state forward's count repeats");
        assert!(
            (1..=BUDGET).contains(&first),
            "forward_nograd made {first} allocations, budget {BUDGET}"
        );
    });
}
