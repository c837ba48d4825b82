//! One cold-start predictor: what the evaluation tables measure for
//! `(u, i)` — `HireRatingModel::predict` — is what the serving engine
//! answers for it, bit for bit. Both read the pair's own context
//! (`hire::data::pair_context`, seeded by `PAIR_CONTEXT_SEED`) and ask the
//! frozen forward for the pair's one cell.
//!
//! The two sides hold equal weights because they train under the same
//! seed; the engine serves over the split's visible graph, with the cache
//! on and no resilience rung that could answer in the model's place.

use hire::eval::RatingModel;
use hire::prelude::*;
use hire::serve::Predictor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const TRAIN_SEED: u64 = 5;

fn config() -> HireConfig {
    HireConfig {
        attr_dim: 4,
        num_blocks: 1,
        heads: 2,
        head_dim: 4,
        context_users: 8,
        context_items: 8,
        input_ratio: 0.1,
        enable_mbu: true,
        enable_mbi: true,
        enable_mba: true,
        residual: true,
        layer_norm: true,
    }
}

fn train_config() -> TrainConfig {
    TrainConfig {
        steps: 20,
        batch_size: 2,
        base_lr: 3e-3,
        grad_clip: 1.0,
        ..TrainConfig::paper_default()
    }
}

#[test]
fn the_tables_and_the_server_answer_every_query_pair_alike() {
    let dataset = Arc::new(
        SyntheticConfig::movielens_like()
            .scaled(60, 50, (10, 20))
            .generate(11),
    );
    for scenario in ColdStartScenario::ALL {
        let split = ColdStartSplit::new(&dataset, scenario, 0.25, 0.1, 3);
        let train_graph = split.train_graph(&dataset);
        let visible = split.visible_graph(&dataset);
        let pairs: Vec<(usize, usize)> = split
            .queries_by_entity()
            .into_iter()
            .flat_map(|(_, queries)| queries)
            .map(|r| (r.user, r.item))
            .collect();
        assert!(!pairs.is_empty(), "{}: no query pair", scenario.label());

        // The tables' side.
        let mut adapter = HireRatingModel::new(config(), train_config());
        adapter.fit(
            &dataset,
            &train_graph,
            &mut StdRng::seed_from_u64(TRAIN_SEED),
        );
        let measured = adapter.predict(&dataset, &visible, &pairs);

        // The served side: the same training under the same seed.
        let mut rng = StdRng::seed_from_u64(TRAIN_SEED);
        let model = HireModel::new(&dataset, &config(), &mut rng);
        hire::core::train(
            &model,
            &dataset,
            &train_graph,
            &NeighborhoodSampler,
            &train_config(),
            &mut rng,
        )
        .expect("training");
        let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
        let engine = ServeEngine::with_graph(
            frozen,
            dataset.clone(),
            visible,
            EngineConfig::from_model_config(&config()),
        );
        let queries: Vec<RatingQuery> = pairs
            .iter()
            .map(|&(user, item)| RatingQuery { user, item })
            .collect();
        let served = engine
            .predict_batch_tagged(&queries, None)
            .expect("every pair answered");

        for ((pair, value), answer) in pairs.iter().zip(&measured).zip(&served) {
            assert_eq!(answer.served_by, ServedBy::Model, "{pair:?}");
            assert_eq!(
                value.to_bits(),
                answer.rating.to_bits(),
                "{}: pair {pair:?} measured {value}, served {}",
                scenario.label(),
                answer.rating
            );
        }

        // Asked again, a pair is a memo hit with the same bits.
        let again = engine
            .predict_batch_tagged(&queries[..1], None)
            .expect("answered")
            .remove(0);
        assert_eq!(again.served_by, ServedBy::Cache);
        assert_eq!(again.rating.to_bits(), measured[0].to_bits());
    }
}
