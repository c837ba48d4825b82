//! No model peeks at the ratings it is scored on (§ VI-A: a cold entity's
//! query ratings are never seen in training).
//!
//! Two datasets differ only in every held-out query rating's value, each
//! redrawn to another level of the rating scale. A model that fits on the
//! split's training graph and predicts from the visible graph (warm edges
//! plus the cold entities' support edges) cannot tell them apart, so every
//! prediction must match bit for bit. A model that reads the full dataset —
//! `dataset.ratings` or `dataset.graph()` — anywhere in fit or predict sees
//! the redrawn values and answers differently.
//!
//! Every baseline the zoo builds and HIRE run at the smoke tier, on a
//! MovieLens-like dataset (rich attributes: HIN runs) and a Douban-like one
//! (a social graph: GraphRec runs). So does the serving ladder's hybrid
//! rung (`HybridModel`), fitted on the training graph's edges; it answers
//! from its own weights alone, so it has no visible graph to read.

use hire::core::{HybridConfig, HybridModel};
use hire::eval::{baselines, hire};
use hire::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

const SEED: u64 = 5;

/// `dataset` with every query rating of `split` moved to another level of
/// the rating scale, chosen at random.
fn redraw_queries(dataset: &Dataset, split: &ColdStartSplit) -> Dataset {
    let queries: HashSet<(usize, usize)> = split
        .query_ratings
        .iter()
        .map(|r| (r.user, r.item))
        .collect();
    let mut rng = StdRng::seed_from_u64(SEED);
    let levels = dataset.rating_levels;
    let mut redrawn = dataset.clone();
    for r in redrawn
        .ratings
        .iter_mut()
        .filter(|r| queries.contains(&(r.user, r.item)))
    {
        let shift = rand::Rng::gen_range(&mut rng, 1..levels);
        let code = (dataset.rating_code(r.value) + shift) % levels;
        r.value = dataset.min_rating + code as f32;
    }
    redrawn
}

/// Every model's predictions for `pairs`, as bits, fitted on `split`'s
/// training graph.
fn predictions(
    dataset: &Dataset,
    split: &ColdStartSplit,
    pairs: &[(usize, usize)],
) -> Vec<(String, Vec<u32>)> {
    let train = split.train_graph(dataset);
    let visible = split.visible_graph(dataset);
    let mut models = baselines(dataset, SpeedTier::Smoke);
    models.push(hire(SpeedTier::Smoke));
    let mut answers: Vec<(String, Vec<u32>)> = models
        .iter_mut()
        .map(|model| {
            model.fit(dataset, &train, &mut StdRng::seed_from_u64(SEED));
            let bits = model
                .predict(dataset, &visible, pairs)
                .iter()
                .map(|p| p.to_bits())
                .collect();
            (model.name().to_string(), bits)
        })
        .collect();
    let edges: Vec<Rating> = train.edges().collect();
    let hybrid = HybridModel::fit(dataset, &edges, &HybridConfig::default());
    let bits = pairs
        .iter()
        .map(|&(u, i)| hybrid.predict(u, i).to_bits())
        .collect();
    answers.push(("Hybrid".to_string(), bits));
    answers
}

fn no_model_reads_the_query_ratings(config: SyntheticConfig) {
    let dataset = config.scaled(48, 36, (8, 14)).generate(SEED);
    let split = ColdStartSplit::new(&dataset, ColdStartScenario::UserCold, 0.25, 0.1, SEED);
    let redrawn = redraw_queries(&dataset, &split);
    let redrawn_split = ColdStartSplit::new(&redrawn, ColdStartScenario::UserCold, 0.25, 0.1, SEED);

    // The split does not depend on rating values: the same pairs are held
    // out, and only their values moved — every one of them.
    assert_eq!(redrawn_split.train_ratings, split.train_ratings);
    assert_eq!(redrawn_split.support_ratings, split.support_ratings);
    let pairs: Vec<(usize, usize)> = split
        .query_ratings
        .iter()
        .map(|r| (r.user, r.item))
        .collect();
    let redrawn_pairs: Vec<(usize, usize)> = redrawn_split
        .query_ratings
        .iter()
        .map(|r| (r.user, r.item))
        .collect();
    assert_eq!(
        redrawn_pairs, pairs,
        "both splits hold the same query pairs"
    );
    assert!(!pairs.is_empty());
    for (a, b) in split.query_ratings.iter().zip(&redrawn_split.query_ratings) {
        assert_ne!(
            a.value, b.value,
            "query ({}, {}) was not redrawn",
            a.user, a.item
        );
    }

    let seen = predictions(&dataset, &split, &pairs);
    let unseen = predictions(&redrawn, &redrawn_split, &pairs);
    for wanted in ["HIRE", "Hybrid"] {
        assert!(seen.iter().any(|(name, _)| name == wanted), "{wanted} ran");
    }
    for ((name, a), (_, b)) in seen.iter().zip(&unseen) {
        let moved = a.iter().zip(b).filter(|(x, y)| x != y).count();
        assert_eq!(
            moved,
            0,
            "{name} ({}): {moved} of {} answers depend on the query ratings",
            dataset.name,
            a.len()
        );
    }
}

#[test]
fn no_model_reads_the_query_ratings_movielens_like() {
    no_model_reads_the_query_ratings(SyntheticConfig::movielens_like());
}

#[test]
fn no_model_reads_the_query_ratings_douban_like() {
    no_model_reads_the_query_ratings(SyntheticConfig::douban_like());
}
