//! A training step's allocation budget. The tape allocates per node, so
//! the count follows the node count: with MHSA as a chain of ~40 tensor ops
//! per layer, one `context_loss` + `backward` on a 16×16, 2-block model made
//! 3 467 allocations; as one node per layer it made 1 098, and 1 002 once
//! the node's attention backward wrote its three gradients into one buffer
//! and `tn` stopped copying its operand; 962 of 7.97 MB (avx512) once MBA's
//! node ran in one pass. With the HIM stack one node whose every buffer,
//! kept or scratch, is reused memory (`hire_tensor::Scratch`), shapes held
//! inline and the loss one node, it makes 306 of 0.88 MB on every ISA —
//! scalar's composition intermediates come from the same reused memory —
//! and the largest allocation is one `[n·m, e]` activation, 72 KB. This
//! pins the count and bytes plus 10 %, so a layer that falls back to
//! composing tensor ops — or a backward that allocates what it could reuse
//! — shows up here rather than as a slow drift in the ledger's
//! `train.allocs_per_step`.
//!
//! `steady_state_predict_stays_within_its_allocation_budget` holds
//! `HireModel::predict` to a budget the same way.
//!
//! Own test binary: the counting `#[global_allocator]` is process-wide.

use hire_core::{HireConfig, HireModel};
use hire_data::{training_context, SyntheticConfig};
use hire_graph::NeighborhoodSampler;
use hire_nn::{Module, MultiHeadSelfAttention};
use hire_tensor::simd;
use hire_tensor::{AttnGrid, NdArray, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

mod support {
    pub mod counting_alloc;
}
use support::counting_alloc::allocations;

/// glibc's default `mmap` threshold: an allocation this large or larger is
/// mapped and unmapped afresh each call until the threshold adapts.
const MMAP_THRESHOLD: u64 = 128 * 1024;

#[test]
fn steady_state_loss_and_backward_stay_within_their_allocation_budget() {
    let (budget, bytes_budget) = (337, 972_000);
    let dataset = SyntheticConfig::movielens_like()
        .scaled(60, 50, (10, 20))
        .generate(5);
    let config = HireConfig::fast().with_blocks(2).with_context_size(16, 16);
    let mut rng = StdRng::seed_from_u64(5);
    let model = HireModel::new(&dataset, &config, &mut rng);
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

    // Every kernel runs on this thread, so the count is the step's, whole
    // and exact. Gradients are cleared between steps, as
    // the trainer does, so each backward allocates them anew.
    let step = || {
        model.parameters().iter().for_each(|p| p.zero_grad());
        allocations(|| model.context_loss(&ctx, &dataset).backward())
    };
    step();
    let (first, again) = (step(), step());
    assert_eq!(first, again, "a steady-state step's allocations repeat");
    assert!(
        (1..=budget).contains(&first.calls) && first.bytes <= bytes_budget,
        "context_loss + backward made {} allocations of {} bytes, budget {budget} of {bytes_budget}",
        first.calls,
        first.bytes
    );
    assert!(
        first.largest < MMAP_THRESHOLD,
        "a training step allocated {} bytes at once",
        first.largest
    );
}

/// `HireModel::predict` runs the one tape-free forward over the live
/// model's weights, lent where they are (`Tensor::borrow_value`): no tape,
/// and no export of the weights into a `FrozenModel` per call. Exporting
/// made 121 allocations of 177 KB a prediction — a copy of every weight
/// array — for one forward; lent, it makes 30 of 4 824 bytes on every ISA:
/// the parameter lists it lends from, the weights' shape check and the
/// forward's own three. Pinned plus 10 %, so a prediction that copies the
/// model again shows up here.
#[test]
fn steady_state_predict_stays_within_its_allocation_budget() {
    let (budget, bytes_budget) = (33, 5_310);
    let dataset = SyntheticConfig::movielens_like()
        .scaled(60, 50, (10, 20))
        .generate(5);
    let config = HireConfig::fast().with_blocks(2).with_context_size(16, 16);
    let mut rng = StdRng::seed_from_u64(5);
    let model = HireModel::new(&dataset, &config, &mut rng);
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

    drop(model.predict(&ctx, &dataset));
    let first = allocations(|| drop(model.predict(&ctx, &dataset)));
    let again = allocations(|| drop(model.predict(&ctx, &dataset)));
    assert_eq!(first, again, "a steady-state prediction's count repeats");
    assert!(
        (1..=budget).contains(&first.calls) && first.bytes <= bytes_budget,
        "HireModel::predict made {} allocations of {} bytes, budget {budget} of {bytes_budget}",
        first.calls,
        first.bytes
    );
}

/// MBA's node at `fast` (256 cells of 9 attribute rows of width 8, 4 × 8
/// heads), forward and backward: where it runs in one pass, every buffer it
/// allocates — its output, its gradients, the lane backward's panels and
/// rows — stays below the `mmap` threshold. (On scalar the node is the
/// composition, whose `[dQ | dK | dV]` alone is 885 KB: nothing to pin.)
#[test]
fn one_pass_mba_node_allocates_nothing_the_size_of_an_mmap() {
    let (cells, h, f, l, dk) = (256, 9, 8, 4, 8);
    let grid = AttnGrid {
        outer: cells,
        tokens: h,
        inner: 1,
        heads: l,
        head_dim: dk,
    };
    if !grid.one_pass(f, simd::active_isa()) {
        return;
    }
    let mut rng = StdRng::seed_from_u64(9);
    let mhsa = MultiHeadSelfAttention::new(f, l, dk, &mut rng);
    let x = Tensor::parameter(NdArray::randn([cells, h, f], 0.0, 1.0, &mut rng));
    let seed = NdArray::randn([cells, h, f], 0.0, 1.0, &mut rng);
    let step = || {
        allocations(|| {
            mhsa.forward_layout(&x, [cells, h, 1])
                .output
                .backward_with(seed.clone())
        })
    };
    step();
    let counted = step();
    assert!(
        counted.largest < MMAP_THRESHOLD,
        "MBA's node allocated {} bytes at once ({counted:?})",
        counted.largest
    );
}
