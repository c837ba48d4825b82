//! int8 rounding numerics (DESIGN.md §13): a [`QuantizedModel`] answers
//! bit for bit what a [`FrozenModel`] over int8-rounded weights answers;
//! and across a config zoo and randomly re-seeded weights, every
//! prediction stays within the documented
//! [`QuantizedModel::prediction_bound`] of the f32 [`FrozenModel`] oracle.

use hire_core::{HireConfig, HireModel};
use hire_data::{test_context_with_ratio, training_context, Dataset, PredictionContext};
use hire_graph::{NeighborhoodSampler, Rating};
use hire_serve::{FrozenModel, QuantizedModel};
use hire_tensor::{NdArray, QuantMode};
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

/// Symmetric per-tensor int8 rounding, written out independently: `scale =
/// max|x| / 127` over the finite elements, each finite `x` to
/// `round(x / scale)` clamped to ±127, times `scale` (an int8 has no −0, so
/// a value that rounds to zero comes back +0). Returns the rounded array and
/// its worst per-element error.
fn round_int8(a: &NdArray) -> (NdArray, f32) {
    let finite = || a.as_slice().iter().filter(|x| x.is_finite());
    let max_abs = finite().fold(0.0f32, |m, &x| m.max(x.abs()));
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    let inv = 1.0 / scale;
    let round = |x: f32| (x * inv).round().clamp(-127.0, 127.0) as i8 as f32 * scale;
    let worst = finite().fold(0.0f32, |m, &x| m.max((x - round(x)).abs()));
    (a.map(|x| if x.is_finite() { round(x) } else { x }), worst)
}

/// The bit gate: `QuantizedModel::from_frozen` is a `FrozenModel` built
/// from the same parameters with every weight matrix (each 2-D parameter:
/// embedding tables, MHSA projections, the decoder head) int8-rounded and
/// every vector (norms, decoder bias) kept — single contexts and a batch of
/// mixed shapes, to the bit; its `max_weight_err` is the worst rounding
/// error over those matrices.
#[test]
fn quantized_model_is_the_frozen_model_over_int8_rounded_weights() {
    let dataset = dataset(30, 26, 9);
    let config = HireConfig::fast().with_blocks(2).with_context_size(8, 8);
    let mut rng = StdRng::seed_from_u64(23);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");

    let mut worst = 0.0f32;
    let rounded: Vec<NdArray> = frozen
        .parameters()
        .into_iter()
        .map(|p| {
            if p.dims().len() != 2 {
                return p;
            }
            let (r, err) = round_int8(&p);
            worst = worst.max(err);
            r
        })
        .collect();
    let oracle = FrozenModel::from_parts(&dataset, config.clone(), rounded).expect("rebuild");
    let quant = QuantizedModel::from_frozen(&frozen, QuantMode::Int8);
    assert!(worst > 0.0, "random weights must round");
    assert_eq!(quant.max_weight_err().to_bits(), worst.to_bits());

    let graph = dataset.graph();
    let ctxs: Vec<PredictionContext> = [(8, 8), (5, 7), (3, 4), (8, 8)]
        .into_iter()
        .enumerate()
        .map(|(k, (n, m))| {
            let seed = dataset.ratings[7 * k];
            training_context(&graph, &NeighborhoodSampler, seed, n, m, 0.2, &mut rng)
                .expect("context")
        })
        .collect();
    let bits = |a: &NdArray| a.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for ctx in &ctxs {
        let got = quant.forward_nograd(ctx, &dataset).expect("quantized");
        let want = oracle.forward_nograd(ctx, &dataset).expect("oracle");
        assert_eq!(got.dims(), want.dims());
        assert_eq!(bits(&got), bits(&want), "{}x{}", ctx.n(), ctx.m());
    }
    let batch: Vec<&PredictionContext> = ctxs.iter().collect();
    let got = quant
        .forward_nograd_batch_within(&batch, &dataset, None)
        .expect("quantized batch")
        .expect("no deadline");
    let want = oracle
        .forward_nograd_batch(&batch, &dataset)
        .expect("oracle batch");
    assert_eq!(got.len(), want.len());
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got.dims(), want.dims());
        assert_eq!(bits(got), bits(want), "batched {:?}", got.dims());
    }
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
