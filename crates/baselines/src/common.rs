//! Shared infrastructure for the baseline recommenders: the
//! [`RatingModel`] trait, field embeddings, and a generic edge-wise
//! training loop.

use hire_data::Dataset;
use hire_graph::{BipartiteGraph, Rating};
use hire_nn::{Embedding, Module};
use hire_optim::{clip_grad_norm, Adam, Optimizer};
use hire_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// A rating-prediction model participating in the comparison tables.
///
/// `fit` sees only the training graph; `predict` additionally receives the
/// test-time visible graph (training edges + cold-entity support edges), so
/// graph-aggregating and meta-learning models can use a cold entity's few
/// interactions, while plain CF models simply ignore it.
pub trait RatingModel {
    /// Model name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Trains on the training graph.
    fn fit(&mut self, dataset: &Dataset, train: &BipartiteGraph, rng: &mut StdRng);

    /// Predicts ratings for `(user, item)` pairs.
    fn predict(
        &self,
        dataset: &Dataset,
        visible: &BipartiteGraph,
        pairs: &[(usize, usize)],
    ) -> Vec<f32>;
}

/// Per-side field embeddings: one table per categorical attribute plus an ID
/// table, each `f`-dimensional. CF baselines build their input features
/// from these fields.
pub(crate) struct FieldEmbedder {
    user_attr: Vec<Embedding>,
    item_attr: Vec<Embedding>,
    user_id: Embedding,
    item_id: Embedding,
    f: usize,
}

impl FieldEmbedder {
    /// Builds the embedder for a dataset schema.
    pub(crate) fn new(dataset: &Dataset, f: usize, rng: &mut StdRng) -> Self {
        FieldEmbedder {
            user_attr: dataset
                .user_schema
                .attributes()
                .iter()
                .map(|a| Embedding::new(a.cardinality, f, rng))
                .collect(),
            item_attr: dataset
                .item_schema
                .attributes()
                .iter()
                .map(|a| Embedding::new(a.cardinality, f, rng))
                .collect(),
            user_id: Embedding::new(dataset.num_users, f, rng),
            item_id: Embedding::new(dataset.num_items, f, rng),
            f,
        }
    }

    /// Field width `f`.
    pub(crate) fn field_dim(&self) -> usize {
        self.f
    }

    /// Number of user fields (attributes + ID).
    pub(crate) fn num_user_fields(&self) -> usize {
        self.user_attr.len() + 1
    }

    /// Number of item fields (attributes + ID).
    pub(crate) fn num_item_fields(&self) -> usize {
        self.item_attr.len() + 1
    }

    /// Total fields per (user, item) pair.
    pub(crate) fn num_fields(&self) -> usize {
        self.num_user_fields() + self.num_item_fields()
    }

    /// Embeds a batch of pairs as stacked fields `[batch, num_fields, f]`.
    pub(crate) fn fields(&self, dataset: &Dataset, pairs: &[(usize, usize)]) -> Tensor {
        let users: Vec<usize> = pairs.iter().map(|&(u, _)| u).collect();
        let items: Vec<usize> = pairs.iter().map(|&(_, i)| i).collect();
        let mut parts: Vec<Tensor> = Vec::with_capacity(self.num_fields());
        for (k, emb) in self.user_attr.iter().enumerate() {
            let codes: Vec<usize> = users.iter().map(|&u| dataset.user_attrs[u][k]).collect();
            parts.push(emb.forward(&codes));
        }
        parts.push(self.user_id.forward(&users));
        for (k, emb) in self.item_attr.iter().enumerate() {
            let codes: Vec<usize> = items.iter().map(|&i| dataset.item_attrs[i][k]).collect();
            parts.push(emb.forward(&codes));
        }
        parts.push(self.item_id.forward(&items));
        let b = pairs.len();
        let nf = parts.len();
        Tensor::concat_last(&parts).reshape([b, nf, self.f])
    }

    /// Embeds a batch of pairs as flat features `[batch, num_fields * f]`.
    pub(crate) fn flat(&self, dataset: &Dataset, pairs: &[(usize, usize)]) -> Tensor {
        let b = pairs.len();
        self.fields(dataset, pairs)
            .reshape([b, self.num_fields() * self.f])
    }

    /// Embeds only the user side, `[batch, num_user_fields * f]`.
    pub(crate) fn user_flat(&self, dataset: &Dataset, users: &[usize]) -> Tensor {
        let mut parts: Vec<Tensor> = Vec::new();
        for (k, emb) in self.user_attr.iter().enumerate() {
            let codes: Vec<usize> = users.iter().map(|&u| dataset.user_attrs[u][k]).collect();
            parts.push(emb.forward(&codes));
        }
        parts.push(self.user_id.forward(users));
        Tensor::concat_last(&parts)
    }

    /// Embeds only the item side, `[batch, num_item_fields * f]`.
    pub(crate) fn item_flat(&self, dataset: &Dataset, items: &[usize]) -> Tensor {
        let mut parts: Vec<Tensor> = Vec::new();
        for (k, emb) in self.item_attr.iter().enumerate() {
            let codes: Vec<usize> = items.iter().map(|&i| dataset.item_attrs[i][k]).collect();
            parts.push(emb.forward(&codes));
        }
        parts.push(self.item_id.forward(items));
        Tensor::concat_last(&parts)
    }
}

impl Module for FieldEmbedder {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p: Vec<Tensor> = self
            .user_attr
            .iter()
            .chain(&self.item_attr)
            .flat_map(|e| e.parameters())
            .collect();
        p.extend(self.user_id.parameters());
        p.extend(self.item_id.parameters());
        p
    }
}

/// Generic training settings for edge-wise (per-rating) baselines.
#[derive(Debug, Clone, Copy)]
pub struct EdgeTrainConfig {
    /// Passes over the training edges.
    pub epochs: usize,
    /// Ratings per mini-batch.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for EdgeTrainConfig {
    fn default() -> Self {
        EdgeTrainConfig {
            epochs: 8,
            batch_size: 128,
            lr: 1e-2,
        }
    }
}

/// Trains by minimizing MSE over observed edges with Adam.
/// `loss_fn(dataset, batch)` returns the batch loss. Returns per-epoch mean
/// losses.
pub(crate) fn train_on_edges(
    dataset: &Dataset,
    train: &BipartiteGraph,
    params: Vec<Tensor>,
    config: EdgeTrainConfig,
    rng: &mut StdRng,
    mut loss_fn: impl FnMut(&Dataset, &[Rating]) -> Tensor,
) -> Vec<f32> {
    let mut edges: Vec<Rating> = train.edges().collect();
    assert!(!edges.is_empty(), "training graph has no edges");
    let mut optimizer = Adam::new(params.clone());
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        edges.shuffle(rng);
        let mut sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in edges.chunks(config.batch_size) {
            optimizer.zero_grad();
            let loss = loss_fn(dataset, chunk);
            sum += loss.item() as f64;
            batches += 1;
            loss.backward();
            clip_grad_norm(&params, 5.0);
            optimizer.step(config.lr);
        }
        epoch_losses.push((sum / batches.max(1) as f64) as f32);
    }
    epoch_losses
}

/// Mean-pools rows of `values` (`[total, d]`) into `[segments.len(), d]`,
/// where `segments[i]` is the number of consecutive rows belonging to
/// output row `i` (0 ⇒ a zero row). Used by the graph-aggregating
/// baselines to average variable-size neighborhoods in one matmul.
pub(crate) fn segment_mean_pool(values: &Tensor, segments: &[usize]) -> Tensor {
    let dims = values.dims();
    assert_eq!(dims.len(), 2, "segment_mean_pool expects [total, d]");
    let total: usize = segments.iter().sum();
    assert_eq!(dims[0], total, "segment counts must cover all rows");
    let b = segments.len();
    let mut pool = hire_tensor::NdArray::zeros([b, total.max(1)]);
    let mut offset = 0;
    for (r, &c) in segments.iter().enumerate() {
        for k in 0..c {
            *pool.at_mut(&[r, offset + k]) = 1.0 / c as f32;
        }
        offset += c;
    }
    if total == 0 {
        return Tensor::constant(hire_tensor::NdArray::zeros([b, dims[1]]));
    }
    Tensor::constant(pool).matmul(values)
}

/// Maps an unbounded score tensor into the rating range via
/// `max_rating * sigmoid(x)` (the same output scaling HIRE uses, Eq. 16).
pub(crate) fn scale_to_rating(score: &Tensor, dataset: &Dataset) -> Tensor {
    score.sigmoid().mul_scalar(dataset.max_rating())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_data::SyntheticConfig;
    use rand::SeedableRng;

    #[test]
    fn field_shapes() {
        let d = SyntheticConfig::movielens_like()
            .scaled(10, 10, (3, 5))
            .generate(1);
        let mut rng = StdRng::seed_from_u64(0);
        let fe = FieldEmbedder::new(&d, 4, &mut rng);
        // 4 user attrs + id + 4 item attrs + id = 10 fields
        assert_eq!(fe.num_fields(), 10);
        let pairs = [(0, 1), (2, 3), (4, 5)];
        assert_eq!(fe.fields(&d, &pairs).dims(), vec![3, 10, 4]);
        assert_eq!(fe.flat(&d, &pairs).dims(), vec![3, 40]);
        assert_eq!(fe.user_flat(&d, &[0, 1]).dims(), vec![2, 20]);
        assert_eq!(fe.item_flat(&d, &[0]).dims(), vec![1, 20]);
    }

    #[test]
    fn id_only_dataset_has_only_id_fields() {
        let d = SyntheticConfig::douban_like()
            .scaled(8, 9, (2, 4))
            .generate(2);
        let mut rng = StdRng::seed_from_u64(1);
        let fe = FieldEmbedder::new(&d, 4, &mut rng);
        assert_eq!(fe.num_fields(), 2);
    }

    #[test]
    fn train_on_edges_decreases_loss() {
        let d = SyntheticConfig::movielens_like()
            .scaled(30, 25, (8, 15))
            .generate(3);
        let g = d.graph();
        let mut rng = StdRng::seed_from_u64(2);
        let fe = FieldEmbedder::new(&d, 4, &mut rng);
        let head = hire_nn::Linear::new(fe.num_fields() * 4, 1, &mut rng);
        let mut params = fe.parameters();
        params.extend(head.parameters());
        let fe_ref = &fe;
        let head_ref = &head;
        let losses = train_on_edges(
            &d,
            &g,
            params,
            EdgeTrainConfig {
                epochs: 6,
                batch_size: 64,
                lr: 1e-2,
            },
            &mut rng,
            |dataset, batch| {
                let pairs: Vec<(usize, usize)> = batch.iter().map(|r| (r.user, r.item)).collect();
                let x = fe_ref.flat(dataset, &pairs);
                let score = head_ref.forward(&x).reshape([pairs.len()]);
                let pred = scale_to_rating(&score, dataset);
                let target = hire_tensor::NdArray::from_vec(
                    [batch.len()],
                    batch.iter().map(|r| r.value).collect(),
                );
                hire_nn::mse_loss(&pred, &target)
            },
        );
        assert!(losses.last().unwrap() < losses.first().unwrap());
    }
}
