//! End-to-end `ServeEngine` behavior: caching, invalidation, and serving
//! through the micro-batched server.

use hire_core::{HireConfig, HireModel};
use hire_graph::Rating;
use hire_serve::{
    EngineConfig, FrozenModel, Predictor, RatingQuery, ServeEngine, ServeError, Server,
    ServerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn engine() -> ServeEngine {
    let dataset = hire_data::SyntheticConfig::movielens_like()
        .scaled(40, 35, (8, 15))
        .generate(21);
    let config = HireConfig::fast().with_blocks(1).with_context_size(8, 8);
    let mut rng = StdRng::seed_from_u64(4);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    let engine_config = EngineConfig {
        cache_capacity: 64,
        ..EngineConfig::from_model_config(&config)
    };
    ServeEngine::new(frozen, Arc::new(dataset), engine_config)
}

#[test]
fn repeated_queries_hit_the_cache_and_agree() {
    let engine = engine();
    let q = RatingQuery { user: 3, item: 5 };
    let first = engine.predict_batch(&[q]).expect("first")[0];
    let second = engine.predict_batch(&[q]).expect("second")[0];
    assert_eq!(
        first, second,
        "cached context must reproduce the prediction"
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
    assert!((0.0..=5.0).contains(&first), "rating {first} out of range");
}

#[test]
fn insert_rating_invalidates_touching_contexts() {
    let engine = engine();
    let q = RatingQuery { user: 3, item: 5 };
    let _ = engine.predict_batch(&[q]).expect("warm the cache");
    assert_eq!(engine.cache_len(), 1);
    // The cached block contains user 3, so an edge on user 3 invalidates it.
    let removed = engine
        .insert_rating(Rating::new(3, 30, 4.0))
        .expect("insert rating");
    assert_eq!(removed, 1);
    assert_eq!(engine.cache_len(), 0);
    // Next query re-samples against the updated graph.
    let _ = engine.predict_batch(&[q]).expect("re-served");
    assert_eq!(engine.cache_stats().misses, 2);
}

#[test]
fn out_of_range_queries_are_typed_errors() {
    let engine = engine();
    let err = engine
        .predict_batch(&[RatingQuery { user: 999, item: 0 }])
        .expect_err("unknown user must fail");
    assert!(matches!(err, ServeError::Model(_)), "got {err}");
    let err = engine
        .insert_rating(Rating::new(0, 999, 3.0))
        .expect_err("unknown item must fail");
    assert!(matches!(err, ServeError::Model(_)), "got {err}");
}

#[test]
fn mixed_shape_batches_are_grouped_correctly() {
    let engine = engine();
    // A batch mixing users/items with different neighborhood sizes can
    // yield different context shapes; predict_batch must group and still
    // answer per-query, matching the single-query results.
    let queries: Vec<RatingQuery> = (0..6)
        .map(|k| RatingQuery {
            user: k * 5 % 40,
            item: k * 7 % 35,
        })
        .collect();
    let batched = engine.predict_batch(&queries).expect("batched");
    for (k, q) in queries.iter().enumerate() {
        let single = engine.predict_batch(&[*q]).expect("single")[0];
        assert_eq!(
            batched[k], single,
            "query {k}: batched and single predictions must agree"
        );
    }
}

#[test]
fn serves_through_the_worker_pool() {
    let engine = Arc::new(engine());
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            workers: 2,
            max_batch: 4,
            max_queue: 256,
        },
    );
    let handles: Vec<_> = (0..20)
        .map(|k| {
            let q = RatingQuery {
                user: k % 40,
                item: (k * 3) % 35,
            };
            (q, server.submit(q).expect("accepted"))
        })
        .collect();
    for (q, h) in handles {
        let pred = h.wait().expect("served");
        assert!(
            pred.rating >= 0.0 && pred.rating <= 5.0,
            "query {q:?}: rating {} out of range",
            pred.rating
        );
    }
    server.shutdown();
    assert_eq!(server.stats().completed, 20);
}
