//! Adapter exposing the HIRE model through the baseline [`RatingModel`]
//! interface so the comparison harness can treat all methods uniformly.

use hire_baselines::RatingModel;
use hire_core::{train, FrozenModel, HireConfig, HireModel, TrainConfig};
use hire_data::{test_context_with_ratio, Dataset};
use hire_graph::{BipartiteGraph, NeighborhoodSampler, Rating};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// HIRE wrapped as a [`RatingModel`].
///
/// `fit` trains with Algorithm 1 on contexts sampled from the training
/// graph, then freezes the trained weights once. `predict` builds a test
/// prediction context around the query pairs (neighborhood sampling over
/// the visible graph), runs the frozen model's tape-free forward once,
/// asked for the query cells only. Queries that do not fit the
/// context budget fall back to the training-mean rating.
pub struct HireRatingModel {
    config: HireConfig,
    train_config: TrainConfig,
    /// The trained weights, frozen once by `fit`.
    model: Option<FrozenModel>,
    fallback: f32,
    /// RNG seed for context sampling at prediction time (kept separate from
    /// the caller's RNG so prediction is deterministic per call).
    predict_seed: u64,
}

impl HireRatingModel {
    /// Creates the adapter.
    pub fn new(config: HireConfig, train_config: TrainConfig) -> Self {
        HireRatingModel {
            config,
            train_config,
            model: None,
            fallback: 0.0,
            predict_seed: 0x5EED,
        }
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
            &NeighborhoodSampler,
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
        let mut rng = StdRng::seed_from_u64(self.predict_seed);
        let mut out = vec![self.fallback; pairs.len()];
        // Process queries in chunks that fit HALF the context budget: the
        // other half is left for the neighborhood sampler to fill with
        // informative entities — crucially the cold entity's support
        // neighbors, without which the model cannot infer its preferences.
        let full_n = self.config.context_users;
        let full_m = self.config.context_items;
        let n = (full_n / 2).max(1);
        let m = (full_m / 2).max(1);
        let mut remaining: Vec<(usize, (usize, usize))> =
            pairs.iter().copied().enumerate().collect();
        while !remaining.is_empty() {
            // Greedily take queries while they fit the user/item budgets.
            let mut users = Vec::new();
            let mut items = Vec::new();
            let mut chunk: Vec<(usize, (usize, usize))> = Vec::new();
            let mut rest: Vec<(usize, (usize, usize))> = Vec::new();
            for (ix, (u, i)) in remaining {
                let nu = users.contains(&u) as usize;
                let ni = items.contains(&i) as usize;
                if (users.len() + 1 - nu) <= n && (items.len() + 1 - ni) <= m {
                    if nu == 0 {
                        users.push(u);
                    }
                    if ni == 0 {
                        items.push(i);
                    }
                    chunk.push((ix, (u, i)));
                } else {
                    rest.push((ix, (u, i)));
                }
            }
            if chunk.is_empty() {
                break; // single pair larger than budget cannot happen (n,m >= 1)
            }
            let queries: Vec<Rating> = chunk
                .iter()
                .map(|&(_, (u, i))| Rating::new(u, i, dataset.min_rating))
                .collect();
            // Match the training input density (§ VI-A masks 90 % of the
            // observed ratings at test time too); the cold entity's own
            // support edges are always kept.
            let Ok(ctx) = test_context_with_ratio(
                visible,
                &NeighborhoodSampler,
                &queries,
                full_n,
                full_m,
                self.config.input_ratio,
                &mut rng,
            ) else {
                // Context construction rejected the configuration; leave the
                // chunk's predictions at the training-mean fallback.
                remaining = rest;
                continue;
            };
            let (slots, cells): (Vec<usize>, Vec<(usize, usize)>) = chunk
                .iter()
                .filter_map(|&(ix, (u, i))| Some((ix, (ctx.user_row(u)?, ctx.item_col(i)?))))
                .unzip();
            let pred = model
                .forward_cells(&ctx, dataset, &cells)
                .expect("sampled contexts hold dataset ids");
            for (ix, value) in slots.into_iter().zip(pred) {
                out[ix] = value;
            }
            remaining = rest;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_data::SyntheticConfig;

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
