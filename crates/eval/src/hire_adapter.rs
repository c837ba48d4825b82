//! Adapter exposing the HIRE model through the baseline [`RatingModel`]
//! interface so the comparison harness can treat all methods uniformly.
//!
//! It answers `(u, i)` as the serving engine does: from the pair's own
//! test context ([`hire_data::pair_context`], seeded by
//! [`PAIR_CONTEXT_SEED`]), asked for the pair's one cell. So with the
//! default neighborhood sampler the tables measure the answer
//! `hire_serve::ServeEngine` serves for the same weights and visible
//! graph, bit for bit.

use hire_baselines::RatingModel;
use hire_core::{train, FrozenModel, HireConfig, HireModel, TrainConfig};
use hire_data::{pair_context, Dataset, PAIR_CONTEXT_SEED};
use hire_graph::{BipartiteGraph, ContextSampler, NeighborhoodSampler, Rating};
use rand::rngs::StdRng;

/// HIRE wrapped as a [`RatingModel`].
///
/// `fit` trains with Algorithm 1 on contexts `sampler` draws from the
/// training graph, then freezes the trained weights once. `predict` answers
/// each pair from its own context, drawn by the same sampler over the
/// visible graph at the model's training input density, with one
/// tape-free forward asked for the pair's cell.
pub struct HireRatingModel {
    config: HireConfig,
    train_config: TrainConfig,
    /// The context sampler of training and prediction alike.
    sampler: Box<dyn ContextSampler>,
    /// The trained weights, frozen once by `fit`.
    model: Option<FrozenModel>,
    /// The training-mean rating, for a pair whose context cannot be built.
    fallback: f32,
}

impl HireRatingModel {
    /// Creates the adapter with neighborhood sampling, the paper's default
    /// (Tables III–V).
    pub fn new(config: HireConfig, train_config: TrainConfig) -> Self {
        Self::with_sampler(config, train_config, Box::new(NeighborhoodSampler))
    }

    /// Creates the adapter with the context sampler it trains and predicts
    /// with (Fig. 8 compares three).
    pub fn with_sampler(
        config: HireConfig,
        train_config: TrainConfig,
        sampler: Box<dyn ContextSampler>,
    ) -> Self {
        HireRatingModel {
            config,
            train_config,
            sampler,
            model: None,
            fallback: 0.0,
        }
    }

    /// The weights `fit` trained and froze (`None` before `fit`).
    pub fn frozen(&self) -> Option<&FrozenModel> {
        self.model.as_ref()
    }
}

impl RatingModel for HireRatingModel {
    fn name(&self) -> &'static str {
        "HIRE"
    }

    fn fit(&mut self, dataset: &Dataset, train_graph: &BipartiteGraph, rng: &mut StdRng) {
        let model = HireModel::new(dataset, &self.config, rng);
        if let Err(err) = train(
            &model,
            dataset,
            train_graph,
            &*self.sampler,
            &self.train_config,
            rng,
        ) {
            // Keep the (partially trained or fresh) model: the guard rolls
            // weights back to the last finite snapshot, so predictions stay
            // usable even when training could not run.
            eprintln!("HIRE training failed: {err}; continuing with current weights");
        }
        self.fallback = train_graph.mean_rating().unwrap_or(0.0);
        self.model =
            Some(FrozenModel::from_model(&model, dataset).expect("freezes on its dataset"));
    }

    fn predict(
        &self,
        dataset: &Dataset,
        visible: &BipartiteGraph,
        pairs: &[(usize, usize)],
    ) -> Vec<f32> {
        let model = self.model.as_ref().expect("fit before predict");
        pairs
            .iter()
            .map(|&(user, item)| {
                // The query cell is target-masked, so its placeholder value
                // never reaches the model input.
                let placeholder = Rating::new(user, item, dataset.min_rating);
                let Ok(ctx) = pair_context(
                    visible,
                    &*self.sampler,
                    placeholder,
                    self.config.context_users,
                    self.config.context_items,
                    self.config.input_ratio,
                    PAIR_CONTEXT_SEED,
                ) else {
                    // Context construction rejected the configuration.
                    return self.fallback;
                };
                let (Some(row), Some(col)) = (ctx.user_row(user), ctx.item_col(item)) else {
                    return self.fallback;
                };
                model
                    .forward_cells(&ctx, dataset, &[(row, col)])
                    .expect("sampled contexts hold dataset ids")[0]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_data::SyntheticConfig;
    use rand::SeedableRng;

    #[test]
    fn adapter_round_trip() {
        let dataset = SyntheticConfig::movielens_like()
            .scaled(30, 25, (8, 14))
            .generate(1);
        let graph = dataset.graph();
        let mut rng = StdRng::seed_from_u64(0);
        let config = HireConfig {
            attr_dim: 4,
            num_blocks: 1,
            heads: 2,
            head_dim: 4,
            context_users: 6,
            context_items: 6,
            input_ratio: 0.2,
            enable_mbu: true,
            enable_mbi: true,
            enable_mba: true,
            residual: true,
            layer_norm: true,
        };
        let tc = hire_core::TrainConfig {
            steps: 15,
            batch_size: 2,
            base_lr: 2e-3,
            grad_clip: 1.0,
            ..TrainConfig::paper_default()
        };
        let mut m = HireRatingModel::new(config, tc);
        m.fit(&dataset, &graph, &mut rng);
        let preds = m.predict(&dataset, &graph, &[(0, 0), (1, 2), (3, 4)]);
        assert_eq!(preds.len(), 3);
        for p in preds {
            assert!(p >= 0.0 && p <= dataset.max_rating(), "pred {p}");
        }
    }

    #[test]
    fn oversized_query_batches_are_chunked() {
        let dataset = SyntheticConfig::movielens_like()
            .scaled(30, 25, (8, 14))
            .generate(2);
        let graph = dataset.graph();
        let mut rng = StdRng::seed_from_u64(1);
        let config = HireConfig {
            attr_dim: 4,
            num_blocks: 1,
            heads: 2,
            head_dim: 4,
            context_users: 4,
            context_items: 4,
            input_ratio: 0.2,
            enable_mbu: true,
            enable_mbi: true,
            enable_mba: true,
            residual: true,
            layer_norm: true,
        };
        let tc = hire_core::TrainConfig {
            steps: 5,
            batch_size: 1,
            base_lr: 2e-3,
            grad_clip: 1.0,
            ..TrainConfig::paper_default()
        };
        let mut m = HireRatingModel::new(config, tc);
        m.fit(&dataset, &graph, &mut rng);
        // 10 distinct items for one user exceed the m=4 budget -> chunking
        let pairs: Vec<(usize, usize)> = (0..10).map(|i| (0, i)).collect();
        let preds = m.predict(&dataset, &graph, &pairs);
        assert_eq!(preds.len(), 10);
        assert!(preds.iter().all(|p| p.is_finite()));
    }
}
