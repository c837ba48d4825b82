//! What the online fine-tune loop adds to a served cold entity's answers,
//! beside what the inserted ratings alone add (DESIGN.md §12).
//!
//! Per dataset at `fast`, for user and item cold start, per seed: HIRE is
//! trained on the split's training graph and served by a `ServeEngine` over
//! that graph. Up to 40 cold entities with at least 6 query ratings are
//! taken; each one's queries are shuffled, the first half to be revealed and
//! the second half scored. Stage 1 inserts the entities' support ratings
//! through `insert_rating`, stage 2 the revealed halves; after each stage
//! the `OnlineLoop` runs one round at its default settings. The scored
//! queries are answered from the engine's contexts in three arms:
//!
//! - **A** — the base weights on the graph as it now stands (graph only);
//! - **B** — the engine's current weights (graph + fine-tune loop);
//! - **C** — the base weights before any insert.
//!
//! Each cell prints NDCG@5 (per cold entity, then averaged) and MAE as
//! mean ± std over the seeds, and the verdicts of `hire_bench::rank`: B
//! against A (what fine-tuning buys) and A against C (what the revealed
//! ratings buy on the served path).
//!
//! ```sh
//! cargo run --release --example online_value            # seeds 7–11
//! cargo run --release --example online_value -- 7       # one seed
//! ```

use hire::eval::metrics::{ndcg_at_k, ScoredPair};
use hire::eval::RatingModel;
use hire::prelude::*;
use hire::serve::RoundOutcome;
use hire_bench::{cold_frac, dataset_for, mean_std, rank, DatasetKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

const MAX_ENTITIES: usize = 40;
const MIN_QUERIES: usize = 6;
const STAGES: [&str; 2] = ["support", "+ half"];

/// One arm's scores for one seed: NDCG@5 averaged over the entities, and
/// MAE over every scored query.
#[derive(Clone, Copy)]
struct Score {
    ndcg5: f32,
    mae: f32,
}

/// One seed of one (dataset, scenario) cell: C once, then A and B after
/// each stage, and how many of its rounds the loop promoted.
struct SeedRun {
    before: Score,
    stages: Vec<(Score, Score)>,
    promoted: usize,
}

/// Scores `entities`' scored queries on `weights`, each from the engine's
/// context for its pair as the graph now stands.
fn score(engine: &ServeEngine, weights: &FrozenModel, entities: &[Vec<Rating>]) -> Score {
    let dataset = engine.dataset();
    let (mut ndcg, mut abs_err, mut count) = (0.0f32, 0.0f32, 0usize);
    for scored in entities {
        let pairs: Vec<ScoredPair> = scored
            .iter()
            .map(|r| {
                let query = RatingQuery {
                    user: r.user,
                    item: r.item,
                };
                let ctx = engine.context_for(&query).expect("an in-range pair");
                let cell = (
                    ctx.user_row(r.user)
                        .expect("the seed user is in its context"),
                    ctx.item_col(r.item)
                        .expect("the seed item is in its context"),
                );
                let predicted = weights
                    .forward_cells(&ctx, dataset, &[cell])
                    .expect("forward")[0];
                ScoredPair {
                    predicted,
                    actual: r.value,
                }
            })
            .collect();
        ndcg += ndcg_at_k(&pairs, 5);
        abs_err += pairs
            .iter()
            .map(|p| (p.predicted - p.actual).abs())
            .sum::<f32>();
        count += pairs.len();
    }
    Score {
        ndcg5: ndcg / entities.len().max(1) as f32,
        mae: abs_err / count.max(1) as f32,
    }
}

fn run_seed(kind: DatasetKind, scenario: ColdStartScenario, seed: u64) -> SeedRun {
    let tier = SpeedTier::Fast;
    let dataset = Arc::new(dataset_for(kind, tier, seed));
    let split = ColdStartSplit::new(&dataset, scenario, cold_frac(kind), 0.1, seed);
    let train_graph = split.train_graph(&dataset);

    let mut hire = HireRatingModel::new(tier.hire_config(), tier.hire_train_config());
    hire.fit(&dataset, &train_graph, &mut StdRng::seed_from_u64(seed));
    let base = hire.frozen().expect("fit froze the weights").clone();
    let engine = Arc::new(ServeEngine::with_graph(
        base.clone(),
        Arc::clone(&dataset),
        train_graph,
        EngineConfig::from_model_config(&tier.hire_config()),
    ));
    let online = OnlineLoop::new(Arc::clone(&engine), OnlineConfig::default());

    // The cold entities, each one's queries split into a revealed and a
    // scored half.
    let by_user = scenario != ColdStartScenario::ItemCold;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0_0411_11E5);
    let mut chosen = Vec::new();
    let (mut revealed, mut scored) = (Vec::new(), Vec::new());
    for (entity, mut queries) in split.queries_by_entity() {
        if queries.len() < MIN_QUERIES || chosen.len() == MAX_ENTITIES {
            continue;
        }
        queries.shuffle(&mut rng);
        let half = queries.len() / 2;
        revealed.extend_from_slice(&queries[..half]);
        scored.push(queries[half..].to_vec());
        chosen.push(entity);
    }
    let support: Vec<Rating> = split
        .support_ratings
        .iter()
        .copied()
        .filter(|r| chosen.contains(if by_user { &r.user } else { &r.item }))
        .collect();

    let before = score(&engine, &base, &scored);
    let mut stages = Vec::new();
    let mut promoted = 0;
    for inserts in [support, revealed] {
        for rating in inserts {
            engine.insert_rating(rating).expect("an acked insert");
        }
        if let RoundOutcome::Promoted { .. } = online.run_round() {
            promoted += 1;
        }
        let current = engine.current_model();
        stages.push((
            score(&engine, &base, &scored),
            score(&engine, current.model(), &scored),
        ));
    }
    SeedRun {
        before,
        stages,
        promoted,
    }
}

fn cell(values: &[f32]) -> String {
    let (mean, std) = mean_std(values);
    format!("{mean:.3}±{std:.3}")
}

fn main() {
    let seeds: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("each argument is a seed"))
        .collect();
    let seeds = if seeds.is_empty() {
        (7..=11).collect()
    } else {
        seeds
    };
    println!(
        "{:<13} {:<3} {:<7} {:>12} {:>12} {:>12} {:>8} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "dataset",
        "",
        "stage",
        "A ndcg@5",
        "B ndcg@5",
        "C ndcg@5",
        "B vs A",
        "A vs C",
        "A mae",
        "B mae",
        "C mae",
        "B vs A",
        "A vs C"
    );
    for kind in [
        DatasetKind::MovieLens,
        DatasetKind::Bookcrossing,
        DatasetKind::Douban,
    ] {
        for scenario in [ColdStartScenario::UserCold, ColdStartScenario::ItemCold] {
            let runs: Vec<SeedRun> = seeds
                .iter()
                .map(|&seed| run_seed(kind, scenario, seed))
                .collect();
            let of = |pick: &dyn Fn(&SeedRun) -> Score| -> (Vec<f32>, Vec<f32>) {
                runs.iter().map(|r| (pick(r).ndcg5, pick(r).mae)).unzip()
            };
            // `rank` wants higher better; a lower MAE is.
            let lower = |mae: &[f32]| mae.iter().map(|v| -v).collect::<Vec<f32>>();
            let (c_ndcg, c_mae) = of(&|r| r.before);
            for (stage, label) in STAGES.iter().enumerate() {
                let (a_ndcg, a_mae) = of(&|r| r.stages[stage].0);
                let (b_ndcg, b_mae) = of(&|r| r.stages[stage].1);
                println!(
                    "{:<13} {:<3} {:<7} {:>12} {:>12} {:>12} {:>8} {:>8} {:>12} {:>12} {:>12} {:>8} {:>8}",
                    format!("{kind:?}"),
                    scenario.label(),
                    label,
                    cell(&a_ndcg),
                    cell(&b_ndcg),
                    cell(&c_ndcg),
                    format!("{:?}", rank(&b_ndcg, &a_ndcg)),
                    format!("{:?}", rank(&a_ndcg, &c_ndcg)),
                    cell(&a_mae),
                    cell(&b_mae),
                    cell(&c_mae),
                    format!("{:?}", rank(&lower(&b_mae), &lower(&a_mae))),
                    format!("{:?}", rank(&lower(&a_mae), &lower(&c_mae))),
                );
            }
            let promoted: usize = runs.iter().map(|r| r.promoted).sum();
            println!(
                "{:<13} {:<3} rounds promoted: {promoted} of {}",
                format!("{kind:?}"),
                scenario.label(),
                runs.len() * STAGES.len()
            );
        }
    }
}
