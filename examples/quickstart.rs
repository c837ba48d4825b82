//! Quickstart: train HIRE on a small synthetic dataset and predict the
//! ratings of a cold-start user.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hire::data::{pair_context, PAIR_CONTEXT_SEED};
use hire::prelude::*;
use rand::SeedableRng;

fn main() {
    // 1. A small MovieLens-like dataset: 80 users x 60 items with
    //    categorical attributes on both sides.
    let dataset = SyntheticConfig::movielens_like()
        .scaled(80, 60, (15, 30))
        .generate(42);
    println!(
        "dataset: {} users x {} items, {} ratings",
        dataset.num_users,
        dataset.num_items,
        dataset.ratings.len()
    );

    // 2. Hold out 25% of users as cold-start users. Each cold user reveals
    //    ~10% of their ratings (support); the rest are queries to predict.
    let split = ColdStartSplit::new(&dataset, ColdStartScenario::UserCold, 0.25, 0.1, 42);
    println!(
        "split: {} warm users, {} cold users, {} query ratings",
        split.train_users.len(),
        split.test_users.len(),
        split.query_ratings.len()
    );

    // 3. Build and train a HIRE model (scaled-down configuration).
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let config = HireConfig::fast().with_context_size(12, 12);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let train_graph = split.train_graph(&dataset);
    println!("training HIRE ({} parameters) ...", model.num_parameters());
    let report = hire::core::train(
        &model,
        &dataset,
        &train_graph,
        &NeighborhoodSampler,
        &TrainConfig {
            steps: 120,
            batch_size: 4,
            base_lr: 3e-3,
            grad_clip: 1.0,
            ..TrainConfig::paper_default()
        },
        &mut rng,
    )
    .expect("training");
    println!(
        "loss: {:.3} -> {:.3} ({} recoveries)",
        report.steps.first().unwrap().loss,
        report.steps.last().unwrap().loss,
        report.recoveries.len()
    );

    // 4. Predict one cold user's query ratings, each pair from its own
    //    prediction context: sampled around the pair from the *visible*
    //    graph (training edges + the cold user's few support edges) — the
    //    context the evaluation tables and the serving engine answer from.
    let visible = split.visible_graph(&dataset);
    let (cold_user, queries) = split
        .queries_by_entity()
        .into_iter()
        .max_by_key(|(_, q)| q.len())
        .expect("cold user with queries");
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");

    println!("\ncold user u{cold_user}:");
    let mut scored = Vec::new();
    for query in queries {
        let ctx = pair_context(
            &visible,
            &NeighborhoodSampler,
            query,
            config.context_users,
            config.context_items,
            config.input_ratio,
            PAIR_CONTEXT_SEED,
        )
        .expect("pair context");
        let cell = (
            ctx.user_row(query.user)
                .expect("the pair is in its context"),
            ctx.item_col(query.item)
                .expect("the pair is in its context"),
        );
        let p = frozen
            .forward_cells(&ctx, &dataset, &[cell])
            .expect("forward")[0];
        println!(
            "  item i{:<5} predicted {:.2}  actual {:.1}",
            query.item, p, query.value
        );
        scored.push(ScoredPair::new(p, query.value));
    }

    // 5. Ranking quality of the prediction.
    let m = ranking_metrics(&scored, 5, dataset.relevance_threshold());
    println!(
        "\nPrecision@5 = {:.3}   NDCG@5 = {:.3}   MAP@5 = {:.3}",
        m.precision, m.ndcg, m.map
    );
}
