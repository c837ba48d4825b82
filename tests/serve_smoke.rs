//! Tier-1 smoke over the serving stack, through the `hire::` facade only:
//! train-tiny → freeze → serve. Seconds-scale, so the repo's tier-1 command
//! (`cargo test -q`) guards the one HIM forward the engine serves — and the
//! int8 weight-storage instance of it — not just training.

use hire::prelude::*;
use hire::serve::{Predictor, QuantizedModel};
use hire::tensor::QuantMode;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn trained_model_serves_through_model_and_cache_rungs() {
    let dataset = SyntheticConfig::movielens_like()
        .scaled(40, 30, (8, 16))
        .generate(7);
    let split = ColdStartSplit::new(&dataset, ColdStartScenario::UserCold, 0.25, 0.1, 7);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let config = HireConfig::fast().with_blocks(1).with_context_size(6, 6);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let train_config = TrainConfig {
        steps: 5,
        batch_size: 2,
        base_lr: 1e-3,
        grad_clip: 1.0,
        ..TrainConfig::paper_default()
    };
    hire::core::train(
        &model,
        &dataset,
        &split.train_graph(&dataset),
        &NeighborhoodSampler,
        &train_config,
        &mut rng,
    )
    .expect("training");

    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    let dataset = Arc::new(dataset);
    let engine = ServeEngine::new(
        frozen.clone(),
        dataset.clone(),
        EngineConfig::from_model_config(&config),
    );
    let q = RatingQuery { user: 3, item: 5 };
    let ask = |deadline| {
        engine
            .predict_batch_tagged(&[q], deadline)
            .expect("typed answer")
            .remove(0)
    };

    // A deadline with budget left buys no cheaper forward: the model rung
    // answers, with the frozen forward's cell, to the bit.
    let thin = ask(Some(Instant::now() + Duration::from_secs(60)));
    assert_eq!(thin.served_by, ServedBy::Model);
    let ctx = engine.context_for(&q).expect("cached context");
    let (row, col) = (ctx.user_row(q.user).unwrap(), ctx.item_col(q.item).unwrap());
    let direct = frozen.forward_nograd(&ctx, &dataset).expect("forward");
    assert_eq!(
        thin.rating.to_bits(),
        direct.at(&[row, col]).to_bits(),
        "a model-tier answer is the frozen forward's cell, to the bit"
    );

    // It was memoized like any model answer.
    let again = ask(None);
    assert_eq!(again.served_by, ServedBy::Cache);
    assert_eq!(again.rating.to_bits(), thin.rating.to_bits());

    // The same forward over int8-stored weights stays within its declared
    // bound of the f32 one on trained weights, over the whole context.
    let quant = QuantizedModel::from_frozen(&frozen, QuantMode::Int8);
    let approx = quant.forward_nograd(&ctx, &dataset).expect("int8 forward");
    let bound = quant.prediction_bound();
    for (a, b) in approx.as_slice().iter().zip(direct.as_slice()) {
        assert!(
            (a - b).abs() <= bound,
            "|int8 {a} - f32 {b}| exceeds bound {bound}"
        );
    }
}
