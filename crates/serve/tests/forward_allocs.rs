//! The no-grad forward's allocation budget: one workspace sized from the
//! shapes, one packed-panel buffer per blocked projection, the outputs —
//! and nothing per tile, per row or per layer beyond that. Before the
//! workspace forward a 16×16, 2-block forward made 660 allocations; it made
//! 29 (1 177 KiB) until MBA ran in one pass, and makes 21 (409 KiB) on the
//! lane ISAs: the workspace's two activation buffers and MBU / MBI's Q, K
//! and V buffers, the packed panels of their projections, the prediction.
//! Scalar still runs MBA as the composition, so it still makes the 29. This
//! pins each ISA's numbers + 10 %, so a stray `NdArray` temporary in the hot
//! path — or MBA's `[rows, heads·head_dim]` intermediates, four times its
//! input, creeping back — shows up here rather than as a slow drift
//! in the ledger.
//!
//! Own test binary: the counting `#[global_allocator]`
//! (`hire-core`'s `tests/support/counting_alloc.rs`) is process-wide.

use hire_core::{HireConfig, HireModel};
use hire_data::{training_context, SyntheticConfig};
use hire_graph::NeighborhoodSampler;
use hire_serve::FrozenModel;
use hire_tensor::simd::{self, Isa};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn steady_state_forward_stays_within_its_allocation_budget() {
    let (budget, bytes_budget) = match simd::active_isa() {
        Isa::Scalar => (32, 1_326_000),
        _ => (23, 461_000),
    };
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
/// the every-cell forward's budget above. It makes 22 allocations of
/// 416 096 bytes on the lane ISAs against the every-cell forward's 21 of
/// 419 196: its three cell lists (the asked cell, its row, the columns
/// that row covers) cost one more call than the one matmul panel the
/// decoder no longer packs.
#[test]
fn a_one_cell_forward_stays_within_the_every_cell_budget() {
    let (budget, bytes_budget) = match simd::active_isa() {
        Isa::Scalar => (32, 1_326_000),
        _ => (23, 461_000),
    };
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
