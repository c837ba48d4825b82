//! The no-grad forward's allocation budget: one workspace sized from the
//! shapes, one packed-panel buffer per blocked projection, the outputs —
//! and nothing per tile, per row or per layer beyond that. Before the
//! workspace forward a 16×16, 2-block forward made 660 allocations; it makes
//! 29, and this pins it there + 10 % so a stray `NdArray` temporary in the
//! hot path shows up here rather than as a slow drift in the ledger.
//!
//! Own test binary: the counting `#[global_allocator]`
//! (`hire-core`'s `tests/support/counting_alloc.rs`) is process-wide.

use hire_core::{HireConfig, HireModel};
use hire_data::{training_context, SyntheticConfig};
use hire_graph::NeighborhoodSampler;
use hire_serve::FrozenModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn steady_state_forward_stays_within_its_allocation_budget() {
    const BUDGET: u64 = 32;
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

    // Every kernel runs on this thread, so the count is the forward's,
    // whole and exact.
    frozen.forward_nograd(&ctx, &dataset).expect("warm-up");
    let first = allocations(|| drop(frozen.forward_nograd(&ctx, &dataset)));
    let again = allocations(|| drop(frozen.forward_nograd(&ctx, &dataset)));
    assert_eq!(first, again, "a steady-state forward's count repeats");
    assert!(
        (1..=BUDGET).contains(&first),
        "forward_nograd made {first} allocations, budget {BUDGET}"
    );
}
