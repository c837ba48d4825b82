//! The hybrid mid-tier predictor: collaborative bias terms blended with
//! attribute/content features by a learned weighted head.
//!
//! This is the third rung of the serving degradation ladder (DESIGN.md
//! §13): when the HIRE forward cannot answer, the engine falls back to
//! this model before resorting to raw graph statistics. It follows the classic cold-start hybrid recipe —
//! a biased-baseline collaborative term (`μ + b_u + b_i`) plus a content
//! term from small per-attribute embeddings (`p_u · q_i`), combined by a
//! learned sigmoid gate — so cold entities with attributes still get a
//! personalized score even when their bias terms are untrained.
//!
//! Training is plain SGD with closed-form gradients (no autograd tape):
//! the model is a few thousand parameters, fits in milliseconds at repo
//! scale, and retrains deterministically from a seed. Prediction is
//! self-contained (`O(fields · dim)` per query, no context sampling, no
//! matmuls), which is exactly what a tier that answers when the model
//! tiers are down needs.
//!
//! ID-only schemas (Douban) degrade gracefully: each entity gets one
//! "attribute" that is its own ID, so the content term becomes a classic
//! latent-factor term.

use hire_data::Dataset;
use hire_graph::Rating;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyperparameters for [`HybridModel::fit`].
#[derive(Debug, Clone)]
pub struct HybridConfig {
    /// Content embedding dimension per attribute field.
    pub dim: usize,
    /// SGD passes over the rating edges.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// L2 regularization on biases and embeddings.
    pub reg: f32,
    /// Shuffle/init seed; same seed + same dataset = identical model.
    pub seed: u64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            dim: 8,
            epochs: 12,
            lr: 0.05,
            reg: 0.02,
            seed: 0x4859_4252, // "HYBR"
        }
    }
}

/// Embedding rows for one entity side: each entity maps to one row index
/// per attribute field (ID-only sides get a single ID field).
#[derive(Debug, Clone)]
struct ContentSide {
    /// Per-entity resolved row indices, `[num_entities][num_fields]`.
    rows: Vec<Vec<usize>>,
    /// Flattened embedding table, `num_rows x dim`.
    table: Vec<f32>,
}

impl ContentSide {
    /// Builds the row mapping from attribute codes (or IDs when the
    /// schema is ID-only) and an embedding table initialized from a
    /// SplitMix64 stream — tiny uniform values, like an embedding init.
    fn new(attrs: &[Vec<usize>], cardinalities: &[usize], dim: usize, seed: u64) -> Self {
        let id_only = cardinalities.is_empty();
        let mut offsets = Vec::new();
        let mut total_rows = 0usize;
        if id_only {
            total_rows = attrs.len();
        } else {
            for &card in cardinalities {
                offsets.push(total_rows);
                total_rows += card;
            }
        }
        let rows: Vec<Vec<usize>> = attrs
            .iter()
            .enumerate()
            .map(|(e, codes)| {
                if id_only {
                    vec![e]
                } else {
                    codes
                        .iter()
                        .zip(&offsets)
                        .map(|(&c, &off)| off + c)
                        .collect()
                }
            })
            .collect();
        let mut state = seed;
        let table = (0..total_rows * dim)
            .map(|_| {
                state = splitmix64(state);
                // Uniform in [-0.05, 0.05).
                ((state >> 11) as f32 / (1u64 << 53) as f32 - 0.5) * 0.1
            })
            .collect();
        ContentSide { rows, table }
    }

    /// Sums the entity's field embeddings into `out` (length `dim`).
    fn vector_into(&self, entity: usize, dim: usize, out: &mut [f32]) {
        out.fill(0.0);
        for &r in &self.rows[entity] {
            for (o, &v) in out.iter_mut().zip(&self.table[r * dim..(r + 1) * dim]) {
                *o += v;
            }
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// The trained hybrid predictor. Self-contained and `Send + Sync`: the
/// attribute row mappings are baked in at training time, so serving needs
/// only the `(user, item)` pair.
#[derive(Debug, Clone)]
pub struct HybridModel {
    global_mean: f32,
    user_bias: Vec<f32>,
    item_bias: Vec<f32>,
    users: ContentSide,
    items: ContentSide,
    /// Gate logit: `σ(gate)` weights the collaborative term,
    /// `1 − σ(gate)` the content term.
    gate: f32,
    dim: usize,
    min_rating: f32,
    max_rating: f32,
}

impl HybridModel {
    /// Predicts a rating for `(user, item)`, clamped to the dataset's
    /// rating range. Out-of-range entities get the pure global-mean
    /// prediction rather than a panic — the tier must never take a worker
    /// down.
    pub fn predict(&self, user: usize, item: usize) -> f32 {
        if user >= self.user_bias.len() || item >= self.item_bias.len() {
            return self.global_mean.clamp(self.min_rating, self.max_rating);
        }
        let mut p = vec![0.0f32; self.dim];
        let mut q = vec![0.0f32; self.dim];
        self.users.vector_into(user, self.dim, &mut p);
        self.items.vector_into(item, self.dim, &mut q);
        let dot: f32 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
        let collab = self.global_mean + self.user_bias[user] + self.item_bias[item];
        let content = self.global_mean + dot;
        let w = sigmoid(self.gate);
        (w * collab + (1.0 - w) * content).clamp(self.min_rating, self.max_rating)
    }
}

/// [`HybridModel::fit`] over every rating of the dataset, held-out
/// queries included. It stays for the frozen `benchmark/` package, whose
/// set-up calls it; a model that is scored on a split fits on the split's
/// training ratings instead.
pub fn train_hybrid(dataset: &Dataset, config: &HybridConfig) -> HybridModel {
    HybridModel::fit(dataset, &dataset.ratings, config)
}

impl HybridModel {
    /// Trains a hybrid on `ratings` — its global mean, biases and content
    /// embeddings see nothing else of the dataset's ratings — with
    /// deterministic SGD: seeded init, seeded per-epoch shuffle, sequential
    /// updates. Same ratings + same config ⇒ bit-identical model.
    pub fn fit(dataset: &Dataset, ratings: &[Rating], config: &HybridConfig) -> HybridModel {
        let dim = config.dim.max(1);
        let user_cards: Vec<usize> = dataset
            .user_schema
            .attributes()
            .iter()
            .map(|a| a.cardinality)
            .collect();
        let item_cards: Vec<usize> = dataset
            .item_schema
            .attributes()
            .iter()
            .map(|a| a.cardinality)
            .collect();
        let global_mean = if ratings.is_empty() {
            (dataset.min_rating + dataset.max_rating()) * 0.5
        } else {
            ratings.iter().map(|r| r.value).sum::<f32>() / ratings.len() as f32
        };
        let mut model = HybridModel {
            global_mean,
            user_bias: vec![0.0; dataset.num_users],
            item_bias: vec![0.0; dataset.num_items],
            users: ContentSide::new(&dataset.user_attrs, &user_cards, dim, config.seed ^ 0x55),
            items: ContentSide::new(&dataset.item_attrs, &item_cards, dim, config.seed ^ 0xAA),
            gate: 0.0, // σ(0) = 0.5: start as an even blend
            dim,
            min_rating: dataset.min_rating,
            max_rating: dataset.max_rating(),
        };

        let mut order: Vec<usize> = (0..ratings.len()).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut p = vec![0.0f32; dim];
        let mut q = vec![0.0f32; dim];
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &e in &order {
                let r = &ratings[e];
                let (u, i) = (r.user, r.item);
                model.users.vector_into(u, dim, &mut p);
                model.items.vector_into(i, dim, &mut q);
                let dot: f32 = p.iter().zip(&q).map(|(a, b)| a * b).sum();
                let collab = model.global_mean + model.user_bias[u] + model.item_bias[i];
                let content = model.global_mean + dot;
                let w = sigmoid(model.gate);
                let pred = w * collab + (1.0 - w) * content;
                let err = pred - r.value;

                // Squared-error gradients, closed form.
                let lr = config.lr;
                let reg = config.reg;
                model.user_bias[u] -= lr * (w * err + reg * model.user_bias[u]);
                model.item_bias[i] -= lr * (w * err + reg * model.item_bias[i]);
                model.gate -= lr * err * (collab - content) * w * (1.0 - w);
                // Every field row of an entity receives the full vector
                // gradient (p is their sum, so ∂p/∂row is the identity).
                let gscale = lr * (1.0 - w) * err;
                for &row in &model.users.rows[u] {
                    let slab = &mut model.users.table[row * dim..(row + 1) * dim];
                    for (s, &qj) in slab.iter_mut().zip(&q) {
                        *s -= gscale * qj + lr * reg * *s;
                    }
                }
                for &row in &model.items.rows[i] {
                    let slab = &mut model.items.table[row * dim..(row + 1) * dim];
                    for (s, &pj) in slab.iter_mut().zip(&p) {
                        *s -= gscale * pj + lr * reg * *s;
                    }
                }
            }
        }
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_data::SyntheticConfig;

    fn small_dataset(seed: u64) -> Dataset {
        SyntheticConfig::movielens_like()
            .scaled(60, 50, (10, 20))
            .generate(seed)
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let ds = small_dataset(3);
        let cfg = HybridConfig::default();
        let a = train_hybrid(&ds, &cfg);
        let b = train_hybrid(&ds, &cfg);
        assert_eq!(a.user_bias, b.user_bias);
        assert_eq!(a.items.table, b.items.table);
        assert_eq!(a.gate, b.gate);
        let c = train_hybrid(&ds, &HybridConfig { seed: 99, ..cfg });
        assert_ne!(a.user_bias, c.user_bias, "seeds must differ");
    }

    #[test]
    fn beats_global_mean_on_training_edges() {
        let ds = small_dataset(7);
        let model = train_hybrid(&ds, &HybridConfig::default());
        let hybrid_mae: f32 = ds
            .ratings
            .iter()
            .map(|r| (model.predict(r.user, r.item) - r.value).abs())
            .sum::<f32>()
            / ds.ratings.len() as f32;
        let mean = ds.ratings.iter().map(|r| r.value).sum::<f32>() / ds.ratings.len() as f32;
        let mean_mae: f32 = ds
            .ratings
            .iter()
            .map(|r| (mean - r.value).abs())
            .sum::<f32>()
            / ds.ratings.len() as f32;
        assert!(
            hybrid_mae < mean_mae,
            "hybrid {hybrid_mae} must beat global mean {mean_mae}"
        );
    }

    #[test]
    fn predictions_stay_in_rating_range_and_handle_unknown_entities() {
        let ds = small_dataset(11);
        let model = train_hybrid(&ds, &HybridConfig::default());
        for u in 0..ds.num_users {
            for i in (0..ds.num_items).step_by(7) {
                let p = model.predict(u, i);
                assert!(p >= ds.min_rating && p <= ds.max_rating(), "{p}");
            }
        }
        let oob = model.predict(ds.num_users + 5, ds.num_items + 5);
        assert!(oob >= ds.min_rating && oob <= ds.max_rating());
    }

    #[test]
    fn id_only_schema_trains_latent_factors() {
        let ds = SyntheticConfig::douban_like()
            .scaled(50, 40, (8, 16))
            .generate(5);
        assert!(ds.user_schema.is_id_only() || !ds.user_attrs.iter().any(|a| !a.is_empty()));
        let model = train_hybrid(&ds, &HybridConfig::default());
        let p = model.predict(3, 4);
        assert!(p >= ds.min_rating && p <= ds.max_rating());
        assert!(!model.users.table.is_empty() && !model.items.table.is_empty());
    }
}
