//! int8 weight-storage numerics (DESIGN.md §13): across a config zoo and
//! randomly re-seeded weights, every [`QuantizedModel`] prediction stays
//! within the documented [`QuantizedModel::prediction_bound`] of the f32
//! [`FrozenModel`] oracle.

use hire_core::{HireConfig, HireModel};
use hire_data::{test_context_with_ratio, Dataset, PredictionContext};
use hire_graph::{NeighborhoodSampler, Rating};
use hire_serve::{FrozenModel, QuantizedModel};
use hire_tensor::QuantMode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn dataset(users: usize, items: usize, seed: u64) -> Dataset {
    hire_data::SyntheticConfig::movielens_like()
        .scaled(users, items, (8, 15))
        .generate(seed)
}

/// A deterministic context for the pair `(user, item)`.
fn context(dataset: &Dataset, config: &HireConfig, user: usize, item: usize) -> PredictionContext {
    let graph = dataset.graph();
    let mut rng = StdRng::seed_from_u64(0xC0 ^ (user as u64) << 8 ^ item as u64);
    let placeholder = Rating::new(user, item, dataset.min_rating);
    test_context_with_ratio(
        &graph,
        &NeighborhoodSampler,
        &[placeholder],
        config.context_users,
        config.context_items,
        config.input_ratio,
        &mut rng,
    )
    .expect("context")
}

/// Worst per-element prediction error of the quantized forward against the
/// f32 oracle over a handful of contexts.
fn worst_error(
    dataset: &Dataset,
    config: &HireConfig,
    frozen: &FrozenModel,
    quant: &QuantizedModel,
) -> f32 {
    let mut worst = 0.0f32;
    for (user, item) in [(0, 0), (3, 7), (11, 2)] {
        let ctx = context(dataset, config, user, item);
        let oracle = frozen.forward_nograd(&ctx, dataset).expect("f32 forward");
        let approx = quant.forward_nograd(&ctx, dataset).expect("quant forward");
        assert_eq!(oracle.dims(), approx.dims());
        for (a, b) in oracle.as_slice().iter().zip(approx.as_slice()) {
            worst = worst.max((a - b).abs());
        }
    }
    worst
}

/// The config zoo: block depth, attention layout, and context budget all
/// vary; every member must respect the documented bound.
#[test]
fn prediction_error_stays_within_documented_bound_across_config_zoo() {
    let zoo: Vec<(&str, HireConfig)> = vec![
        (
            "fast-1block",
            HireConfig::fast().with_blocks(1).with_context_size(8, 8),
        ),
        (
            "fast-2block",
            HireConfig::fast().with_blocks(2).with_context_size(8, 8),
        ),
        (
            "wide-context",
            HireConfig::fast().with_blocks(1).with_context_size(6, 12),
        ),
    ];
    let dataset = Arc::new(dataset(30, 26, 9));
    for (name, config) in &zoo {
        let mut rng = StdRng::seed_from_u64(17);
        let model = HireModel::new(&dataset, config, &mut rng);
        let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
        let quant = QuantizedModel::from_frozen(&frozen, QuantMode::Int8);
        assert!(
            quant.max_weight_err() > 0.0,
            "{name}: quantization must be lossy on random weights"
        );
        let worst = worst_error(&dataset, config, &frozen, &quant);
        assert!(
            worst <= quant.prediction_bound(),
            "{name}: worst prediction error {worst} exceeds bound {}",
            quant.prediction_bound()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random weights (fresh init seed) and random query pairs: the bound
    /// must hold for arbitrary weight draws, not just the zoo's.
    #[test]
    fn prediction_error_bound_holds_for_random_weights(weight_seed in 0u64..1024) {
        let config = HireConfig::fast().with_blocks(1).with_context_size(8, 8);
        let dataset = Arc::new(dataset(24, 20, 5));
        let mut rng = StdRng::seed_from_u64(weight_seed);
        let model = HireModel::new(&dataset, &config, &mut rng);
        let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
        let quant = QuantizedModel::from_frozen(&frozen, QuantMode::Int8);
        let worst = worst_error(&dataset, &config, &frozen, &quant);
        prop_assert!(
            worst <= quant.prediction_bound(),
            "seed {weight_seed}: worst {worst} > bound {}",
            quant.prediction_bound()
        );
    }
}
