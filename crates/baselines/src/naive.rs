//! Trivial reference predictors used as sanity lower bounds in tests and
//! the benchmark harness.

use crate::common::RatingModel;
use hire_data::Dataset;
use hire_graph::BipartiteGraph;
use rand::rngs::StdRng;

/// Predicts the global mean training rating for every pair.
pub struct GlobalMean {
    mean: f32,
}

impl GlobalMean {
    /// Uninitialized predictor (call `fit`).
    pub fn new() -> Self {
        GlobalMean { mean: 0.0 }
    }
}

impl Default for GlobalMean {
    fn default() -> Self {
        Self::new()
    }
}

impl RatingModel for GlobalMean {
    fn name(&self) -> &'static str {
        "GlobalMean"
    }

    fn fit(&mut self, _dataset: &Dataset, train: &BipartiteGraph, _rng: &mut StdRng) {
        self.mean = train.mean_rating().unwrap_or(0.0);
    }

    fn predict(
        &self,
        _dataset: &Dataset,
        _visible: &BipartiteGraph,
        pairs: &[(usize, usize)],
    ) -> Vec<f32> {
        vec![self.mean; pairs.len()]
    }
}

/// Scores every pair alike, so each ranking list is one tie group: the
/// tie-aware ranking metrics score it as the mean over every order of the
/// list — the random row a method has to beat. Its predictions are not
/// ratings, so only its ranking metrics mean anything.
pub struct Random;

impl RatingModel for Random {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn fit(&mut self, _dataset: &Dataset, _train: &BipartiteGraph, _rng: &mut StdRng) {}

    fn predict(
        &self,
        _dataset: &Dataset,
        _visible: &BipartiteGraph,
        pairs: &[(usize, usize)],
    ) -> Vec<f32> {
        vec![0.0; pairs.len()]
    }
}

/// Predicts the mean of the entity's visible ratings (user mean, falling
/// back to item mean, then global mean) — a surprisingly strong baseline
/// that exploits support edges.
pub struct EntityMean {
    global: f32,
}

impl EntityMean {
    /// Uninitialized predictor (call `fit`).
    pub fn new() -> Self {
        EntityMean { global: 0.0 }
    }
}

impl Default for EntityMean {
    fn default() -> Self {
        Self::new()
    }
}

impl RatingModel for EntityMean {
    fn name(&self) -> &'static str {
        "EntityMean"
    }

    fn fit(&mut self, _dataset: &Dataset, train: &BipartiteGraph, _rng: &mut StdRng) {
        self.global = train.mean_rating().unwrap_or(0.0);
    }

    fn predict(
        &self,
        _dataset: &Dataset,
        visible: &BipartiteGraph,
        pairs: &[(usize, usize)],
    ) -> Vec<f32> {
        pairs
            .iter()
            .map(|&(u, i)| {
                let user_edges = visible.user_neighbors(u);
                if !user_edges.is_empty() {
                    user_edges.iter().map(|&(_, v)| v).sum::<f32>() / user_edges.len() as f32
                } else {
                    let item_edges = visible.item_neighbors(i);
                    if !item_edges.is_empty() {
                        item_edges.iter().map(|&(_, v)| v).sum::<f32>() / item_edges.len() as f32
                    } else {
                        self.global
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_data::SyntheticConfig;
    use hire_graph::Rating;
    use rand::SeedableRng;

    #[test]
    fn global_mean_predicts_mean() {
        let d = SyntheticConfig::movielens_like()
            .scaled(10, 10, (3, 5))
            .generate(22);
        let g = d.graph();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = GlobalMean::new();
        m.fit(&d, &g, &mut rng);
        let preds = m.predict(&d, &g, &[(0, 0), (1, 1)]);
        assert_eq!(preds[0], preds[1]);
        assert!((preds[0] - g.mean_rating().unwrap()).abs() < 1e-6);
    }

    #[test]
    fn entity_mean_uses_visible_user_edges() {
        let d = SyntheticConfig::movielens_like()
            .scaled(10, 10, (3, 5))
            .generate(23);
        let g = d.graph();
        let mut rng = StdRng::seed_from_u64(0);
        let mut m = EntityMean::new();
        m.fit(&d, &g, &mut rng);
        let visible =
            BipartiteGraph::from_ratings(10, 10, &[Rating::new(0, 1, 5.0), Rating::new(0, 2, 3.0)]);
        let p = m.predict(&d, &visible, &[(0, 7)])[0];
        assert!((p - 4.0).abs() < 1e-6);
        // user with no visible edges falls back to item mean
        let p2 = m.predict(&d, &visible, &[(5, 1)])[0];
        assert!((p2 - 5.0).abs() < 1e-6);
        // fully isolated pair falls back to global mean
        let empty = BipartiteGraph::empty(10, 10);
        let p3 = m.predict(&d, &empty, &[(5, 5)])[0];
        assert!((p3 - g.mean_rating().unwrap()).abs() < 1e-6);
    }
}
