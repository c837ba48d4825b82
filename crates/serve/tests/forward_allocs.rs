//! The no-grad forward's allocation budget: nothing per tile, per row or
//! per layer — its workspace and the matmuls' packed panels come from the
//! thread's reused memory (`hire_tensor::Scratch`), so a steady-state
//! forward allocates little more than its answer. Before the workspace
//! forward a 16×16, 2-block forward made 660 allocations; it made 29
//! (1 177 KiB) until MBA ran in one pass, and 21 (409 KiB) on the lane
//! ISAs, 29 on scalar, while each call allocated its own workspace and
//! packed panels. From reused memory it makes 3 of 1 136 bytes on every
//! ISA: the prediction and the vectors it is assembled in. This pins
//! those numbers + 10 %, so a stray `NdArray` temporary in the hot path —
//! or a buffer allocated per call again — shows up here rather than as a
//! slow drift in the ledger.
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

/// The every-cell forward's bytes, 1 136 on every ISA, plus 10 %.
const EVERY_CELL_BYTES: u64 = 1_250;

#[test]
fn steady_state_forward_stays_within_its_allocation_budget() {
    let (budget, bytes_budget) = (4, EVERY_CELL_BYTES);
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
        (1..=budget).contains(&first.calls) && first.bytes <= bytes_budget,
        "forward_nograd made {} allocations of {} bytes, budget {budget} of {bytes_budget}",
        first.calls,
        first.bytes
    );
}

/// The forward asked for one cell — what a served miss runs — stays within
/// the every-cell forward's bytes budget above. Its count is its own: 5
/// allocations of 292 bytes on every ISA against the every-cell forward's
/// 3 of 1 136, since its cell lists (the asked cell, its row, the columns
/// that row covers) are the vectors it allocates beside its answer; pinned
/// + 10 %.
#[test]
fn a_one_cell_forward_stays_within_the_every_cell_budget() {
    let (budget, bytes_budget) = (6, EVERY_CELL_BYTES);
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

    let cell = [(ctx.n() / 2, ctx.m() / 2)];
    frozen
        .forward_cells(&ctx, &dataset, &cell)
        .expect("warm-up");
    let one = allocations(|| drop(frozen.forward_cells(&ctx, &dataset, &cell)));
    let again = allocations(|| drop(frozen.forward_cells(&ctx, &dataset, &cell)));
    assert_eq!(one, again, "a steady-state forward's count repeats");
    assert!(
        (1..=budget).contains(&one.calls) && one.bytes <= bytes_budget,
        "a one-cell forward made {} allocations of {} bytes, budget {budget} of {bytes_budget}",
        one.calls,
        one.bytes
    );
}
