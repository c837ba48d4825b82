//! Context encoder: builds the initial embedding tensor `H ∈ R^{n×m×e}`
//! of Eq. (6)-(9) from a [`PredictionContext`].

use hire_data::{Dataset, PredictionContext};
use hire_nn::{Embedding, Module};
use hire_tensor::{NdArray, Tensor};
use rand::Rng;

/// Per-attribute embedding tables for users, items and ratings.
///
/// Each categorical attribute `k` owns a linear map from its one-hot
/// encoding to an `f`-dimensional feature — realized as an [`Embedding`]
/// gather (mathematically identical, see Eq. (7)-(9)). Entities without
/// attributes use their ID as the unique attribute, exactly as § IV-B
/// prescribes.
pub struct ContextEncoder {
    user_embeddings: Vec<Embedding>,
    item_embeddings: Vec<Embedding>,
    rating_embedding: Embedding,
    attr_dim: usize,
    rating_levels: usize,
    min_rating: f32,
}

impl ContextEncoder {
    /// Builds the encoder for a dataset's schema.
    pub(crate) fn new(dataset: &Dataset, attr_dim: usize, rng: &mut impl Rng) -> Self {
        let user_embeddings = if dataset.user_schema.is_id_only() {
            vec![Embedding::new(dataset.num_users, attr_dim, rng)]
        } else {
            dataset
                .user_schema
                .attributes()
                .iter()
                .map(|a| Embedding::new(a.cardinality, attr_dim, rng))
                .collect()
        };
        let item_embeddings = if dataset.item_schema.is_id_only() {
            vec![Embedding::new(dataset.num_items, attr_dim, rng)]
        } else {
            dataset
                .item_schema
                .attributes()
                .iter()
                .map(|a| Embedding::new(a.cardinality, attr_dim, rng))
                .collect()
        };
        ContextEncoder {
            user_embeddings,
            item_embeddings,
            rating_embedding: Embedding::new(dataset.rating_levels, attr_dim, rng),
            attr_dim,
            rating_levels: dataset.rating_levels,
            min_rating: dataset.min_rating,
        }
    }

    /// Number of user attributes `h_u` (1 for ID-only).
    pub(crate) fn num_user_attrs(&self) -> usize {
        self.user_embeddings.len()
    }

    /// Number of item attributes `h_i` (1 for ID-only).
    pub(crate) fn num_item_attrs(&self) -> usize {
        self.item_embeddings.len()
    }

    /// Total attribute count `h = h_u + h_i + 1` (the +1 is the rating
    /// channel).
    pub fn num_attrs(&self) -> usize {
        self.num_user_attrs() + self.num_item_attrs() + 1
    }

    /// Embedding width `e = h * f`.
    pub(crate) fn embed_dim(&self) -> usize {
        self.num_attrs() * self.attr_dim
    }

    /// A user's code for attribute `k`: its schema code, or the user id
    /// itself if ID-only.
    fn user_code(dataset: &Dataset, user: usize, k: usize) -> usize {
        if dataset.user_schema.is_id_only() {
            user
        } else {
            dataset.user_attrs[user][k]
        }
    }

    /// An item's code for attribute `k` (see [`Self::user_code`]).
    fn item_code(dataset: &Dataset, item: usize, k: usize) -> usize {
        if dataset.item_schema.is_id_only() {
            item
        } else {
            dataset.item_attrs[item][k]
        }
    }

    /// Encodes a context into `H ∈ R^{n×m×e}` with
    /// `H[k,j,:] = [x_{u_k} ‖ x_{i_j} ‖ x_r]` (Eq. 6). Masked ratings (any
    /// cell where `input_mask` is 0) contribute a zero rating feature.
    pub fn encode(&self, ctx: &PredictionContext, dataset: &Dataset) -> Tensor {
        let n = ctx.n();
        let m = ctx.m();
        let f = self.attr_dim;

        // x_u: [n, h_u * f], one embedding per attribute, concatenated.
        let user_feats: Vec<Tensor> = self
            .user_embeddings
            .iter()
            .enumerate()
            .map(|(k, emb)| {
                let codes: Vec<usize> = ctx
                    .users
                    .iter()
                    .map(|&u| Self::user_code(dataset, u, k))
                    .collect();
                emb.forward(&codes)
            })
            .collect();
        let x_u = Tensor::concat_last(&user_feats); // [n, hu*f]

        let item_feats: Vec<Tensor> = self
            .item_embeddings
            .iter()
            .enumerate()
            .map(|(k, emb)| {
                let codes: Vec<usize> = ctx
                    .items
                    .iter()
                    .map(|&i| Self::item_code(dataset, i, k))
                    .collect();
                emb.forward(&codes)
            })
            .collect();
        let x_i = Tensor::concat_last(&item_feats); // [m, hi*f]

        // x_r: [n*m, f]; visible cells gather their level embedding, masked
        // cells are zeroed (Eq. 9 with e_r = 0 for masked ratings).
        let mut codes = Vec::with_capacity(n * m);
        for flat in 0..n * m {
            let visible = ctx.input_mask.as_slice()[flat] == 1.0;
            let code = if visible {
                let value = ctx.ratings.as_slice()[flat];
                ((value - self.min_rating).round() as usize).min(self.rating_levels - 1)
            } else {
                0 // placeholder row; multiplied by 0 below
            };
            codes.push(code);
        }
        let raw_r = self.rating_embedding.forward(&codes); // [n*m, f]
        let mut mask = NdArray::zeros([n * m, f]);
        for flat in 0..n * m {
            if ctx.input_mask.as_slice()[flat] == 1.0 {
                for j in 0..f {
                    mask.as_mut_slice()[flat * f + j] = 1.0;
                }
            }
        }
        let x_r = raw_r.mask(&mask).reshape([n, m, f]);

        // Broadcast x_u across columns and x_i across rows, then concat.
        let hu_f = self.num_user_attrs() * f;
        let hi_f = self.num_item_attrs() * f;
        let u_grid = x_u.reshape([n, 1, hu_f]).broadcast_to([n, m, hu_f]);
        let i_grid = x_i.reshape([1, m, hi_f]).broadcast_to([n, m, hi_f]);
        Tensor::concat_last(&[u_grid, i_grid, x_r])
    }
}

impl Module for ContextEncoder {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p: Vec<Tensor> = self
            .user_embeddings
            .iter()
            .chain(&self.item_embeddings)
            .flat_map(|e| e.parameters())
            .collect();
        p.extend(self.rating_embedding.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_data::SyntheticConfig;
    use hire_graph::{NeighborhoodSampler, Rating};
    use rand::SeedableRng;

    fn setup() -> (Dataset, PredictionContext, ContextEncoder) {
        let dataset = SyntheticConfig::movielens_like()
            .scaled(30, 25, (8, 15))
            .generate(42);
        let graph = dataset.graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let seed = dataset.ratings[0];
        let ctx =
            hire_data::training_context(&graph, &NeighborhoodSampler, seed, 6, 5, 0.3, &mut rng)
                .expect("training context");
        let encoder = ContextEncoder::new(&dataset, 4, &mut rng);
        (dataset, ctx, encoder)
    }

    #[test]
    fn encode_shape_is_n_m_e() {
        let (dataset, ctx, encoder) = setup();
        // h = 4 user attrs + 4 item attrs + 1 rating = 9; e = 9*4 = 36
        assert_eq!(encoder.num_attrs(), 9);
        assert_eq!(encoder.embed_dim(), 36);
        let h = encoder.encode(&ctx, &dataset);
        assert_eq!(h.dims(), vec![6, 5, 36]);
    }

    #[test]
    fn masked_rating_features_are_zero() {
        let (dataset, ctx, encoder) = setup();
        let h = encoder.encode(&ctx, &dataset).value();
        let f = encoder.attr_dim;
        let e = encoder.embed_dim();
        for (flat, (&inp, &_r)) in ctx
            .input_mask
            .as_slice()
            .iter()
            .zip(ctx.ratings.as_slice())
            .enumerate()
        {
            let (row, col) = (flat / ctx.m(), flat % ctx.m());
            let rating_slice: Vec<f32> = (e - f..e).map(|d| h.at(&[row, col, d])).collect();
            if inp == 0.0 {
                assert!(
                    rating_slice.iter().all(|&x| x == 0.0),
                    "masked cell ({row},{col}) has nonzero rating feature"
                );
            } else {
                assert!(
                    rating_slice.iter().any(|&x| x != 0.0),
                    "visible cell ({row},{col}) lost its rating feature"
                );
            }
        }
    }

    #[test]
    fn same_user_shares_features_across_columns() {
        let (dataset, ctx, encoder) = setup();
        let h = encoder.encode(&ctx, &dataset).value();
        let f = encoder.attr_dim;
        let hu_f = encoder.num_user_attrs() * f;
        for d in 0..hu_f {
            let a = h.at(&[0, 0, d]);
            for col in 1..ctx.m() {
                assert_eq!(
                    h.at(&[0, col, d]),
                    a,
                    "user features must tile across items"
                );
            }
        }
    }

    #[test]
    fn id_only_dataset_uses_id_embeddings() {
        let dataset = SyntheticConfig::douban_like()
            .scaled(20, 25, (5, 10))
            .generate(7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let encoder = ContextEncoder::new(&dataset, 4, &mut rng);
        assert_eq!(encoder.num_user_attrs(), 1);
        assert_eq!(encoder.num_item_attrs(), 1);
        assert_eq!(encoder.num_attrs(), 3);
        let graph = dataset.graph();
        let ctx = hire_data::training_context(
            &graph,
            &NeighborhoodSampler,
            dataset.ratings[0],
            4,
            4,
            0.2,
            &mut rng,
        )
        .expect("training context");
        let h = encoder.encode(&ctx, &dataset);
        assert_eq!(h.dims(), vec![4, 4, 12]);
    }

    #[test]
    fn gradients_flow_to_embeddings() {
        let (dataset, ctx, encoder) = setup();
        let h = encoder.encode(&ctx, &dataset);
        h.square().sum().backward();
        // user/item embeddings always receive grad; the rating embedding
        // receives grad only if some input cell is visible
        let params = encoder.parameters();
        let with_grad = params.iter().filter(|p| p.grad().is_some()).count();
        assert!(
            with_grad >= params.len() - 1,
            "{with_grad}/{}",
            params.len()
        );
    }

    #[test]
    fn unused_rating_rows_get_no_gradient() {
        // A context with zero visible ratings: rating-embedding grad must be
        // all zeros (masked out).
        let dataset = SyntheticConfig::movielens_like()
            .scaled(10, 10, (3, 5))
            .generate(3);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let encoder = ContextEncoder::new(&dataset, 4, &mut rng);
        let visible = hire_graph::BipartiteGraph::empty(10, 10);
        let ctx = hire_data::test_context(
            &visible,
            &NeighborhoodSampler,
            &[Rating::new(0, 0, 3.0)],
            3,
            3,
            &mut rng,
        )
        .expect("test context");
        let h = encoder.encode(&ctx, &dataset);
        h.square().sum().backward();
        if let Some(g) = encoder.rating_embedding.table().grad() {
            assert_eq!(g.norm_l2(), 0.0);
        }
    }
}
