//! A training step's allocation budget. The tape allocates per node, so
//! the count follows the node count: with MHSA as a chain of ~40 tensor ops
//! per layer, one `context_loss` + `backward` on a 16×16, 2-block model made
//! 3 467 allocations; as one node per layer it makes 1 098. This pins it
//! there + 10 %, so a layer that falls back to composing tensor ops — or a
//! backward that copies what it only reads — shows up here rather than as a
//! slow drift in the ledger's `train.allocs_per_step`.
//!
//! Own test binary: the counting `#[global_allocator]` is process-wide.

use hire_core::{HireConfig, HireModel};
use hire_data::{training_context, SyntheticConfig};
use hire_graph::NeighborhoodSampler;
use hire_nn::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod support {
    pub mod counting_alloc;
}
use support::counting_alloc::allocations;

#[test]
fn steady_state_loss_and_backward_stay_within_their_allocation_budget() {
    const BUDGET: u64 = 1208;
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
    assert_eq!(first, again, "a steady-state step's count repeats");
    assert!(
        (1..=BUDGET).contains(&first),
        "context_loss + backward made {first} allocations, budget {BUDGET}"
    );
}
