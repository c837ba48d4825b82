//! The full HIRE model: encoder → K HIM blocks → rating decoder (Fig. 3).

use crate::config::HireConfig;
use crate::encoder::ContextEncoder;
use crate::frozen::him_weights;
use crate::him::{HimAttention, HimStack};
use hire_data::{Dataset, PredictionContext};
use hire_nn::{Linear, Module};
use hire_tensor::{NdArray, Tensor};
use rand::Rng;
use std::cell::Ref;

/// The Heterogeneous Interaction Rating nEtwork.
pub struct HireModel {
    encoder: ContextEncoder,
    him: HimStack,
    decoder: Linear,
    /// Output scale α of Eq. (16): predictions are `α · sigmoid(g(H))`.
    alpha: f32,
    config: HireConfig,
}

impl HireModel {
    /// Builds a HIRE model for a dataset's schema and rating scale.
    pub fn new(dataset: &Dataset, config: &HireConfig, rng: &mut impl Rng) -> Self {
        let encoder = ContextEncoder::new(dataset, config.attr_dim, rng);
        let num_attrs = encoder.num_attrs();
        let him = HimStack::new(config, num_attrs, rng);
        let decoder = Linear::new(encoder.embed_dim(), 1, rng);
        HireModel {
            encoder,
            him,
            decoder,
            alpha: dataset.max_rating(),
            config: config.clone(),
        }
    }

    /// The model configuration.
    pub(crate) fn config(&self) -> &HireConfig {
        &self.config
    }

    /// The context encoder (exposed for inspection).
    pub fn encoder(&self) -> &ContextEncoder {
        &self.encoder
    }

    /// Forward pass producing the predicted rating matrix `[n, m]`
    /// (autograd-tracked, for training; use [`Self::predict`] for
    /// inference).
    pub fn forward(&self, ctx: &PredictionContext, dataset: &Dataset) -> Tensor {
        let h = self.encoder.encode(ctx, dataset);
        self.decode(self.him.forward(&h), ctx)
    }

    /// Forward pass that also captures every block's attention weights
    /// (Fig. 9 case study).
    pub fn forward_with_attention(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
    ) -> (Tensor, Vec<HimAttention>) {
        let h = self.encoder.encode(ctx, dataset);
        let (h, attns) = self.him.forward_with_attention(&h);
        (self.decode(h, ctx), attns)
    }

    fn decode(&self, h: Tensor, ctx: &PredictionContext) -> Tensor {
        let n = ctx.n();
        let m = ctx.m();
        // g_θ: R^e -> R, then α · sigmoid (Eq. 16)
        self.decoder
            .forward(&h)
            .reshape([n, m])
            .sigmoid()
            .mul_scalar(self.alpha)
    }

    /// Inference: the predicted rating matrix as a plain array, from the
    /// tape-free forward over the model's current weights, lent where they
    /// are (no copy, no tape) — bit-identical to [`Self::forward`]. To
    /// predict many contexts with unchanged weights, freeze once
    /// ([`crate::FrozenModel::from_model`]) and call
    /// [`crate::FrozenModel::forward_nograd`].
    ///
    /// # Panics
    ///
    /// If `dataset` is not the schema the model was built for, or `ctx`
    /// names an entity `dataset` does not have.
    pub fn predict(&self, ctx: &PredictionContext, dataset: &Dataset) -> NdArray {
        let params = self.parameters();
        let values: Vec<Ref<'_, NdArray>> = params.iter().map(Tensor::borrow_value).collect();
        him_weights(dataset, &self.config, values.iter().map(|v| &**v))
            .and_then(|weights| weights.forward_nograd(ctx, dataset))
            .unwrap_or_else(|e| panic!("HireModel::predict: {e}"))
    }

    /// Masked MSE training loss for one context (Eq. 17): mean squared
    /// error over the target cells.
    pub fn context_loss(&self, ctx: &PredictionContext, dataset: &Dataset) -> Tensor {
        let pred = self.forward(ctx, dataset);
        pred.mse_masked(&ctx.ratings, &ctx.target_mask)
    }

    /// Overwrites every parameter from a flat value list in
    /// [`Module::parameters`] order — the inverse of exporting
    /// `parameters().iter().map(|p| p.value())`. Used to warm-start a live
    /// model from frozen serving weights before fine-tuning. Count and
    /// shape mismatches are typed errors and leave already-written
    /// parameters as they are (callers discard the model on error).
    pub fn load_parameters(&self, values: &[NdArray]) -> hire_error::HireResult<()> {
        let params = self.parameters();
        if params.len() != values.len() {
            return Err(hire_error::HireError::invalid_data(
                "HireModel",
                format!(
                    "parameter count mismatch: model has {}, got {}",
                    params.len(),
                    values.len()
                ),
            ));
        }
        for (idx, (p, v)) in params.iter().zip(values).enumerate() {
            if p.with_value(|current| current.dims() != v.dims()) {
                return Err(hire_error::HireError::invalid_data(
                    "HireModel",
                    format!(
                        "parameter {idx} shape mismatch: model {:?}, got {:?}",
                        p.dims(),
                        v.dims()
                    ),
                ));
            }
            p.set_value(v.clone());
        }
        Ok(())
    }
}

impl Module for HireModel {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.encoder.parameters();
        p.extend(self.him.parameters());
        p.extend(self.decoder.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_data::{training_context, SyntheticConfig};
    use hire_graph::NeighborhoodSampler;
    use rand::SeedableRng;

    fn small_config() -> HireConfig {
        HireConfig {
            attr_dim: 4,
            num_blocks: 2,
            heads: 2,
            head_dim: 4,
            context_users: 5,
            context_items: 4,
            input_ratio: 0.2,
            enable_mbu: true,
            enable_mbi: true,
            enable_mba: true,
            residual: true,
            layer_norm: true,
        }
    }

    fn setup() -> (Dataset, PredictionContext, HireModel) {
        let dataset = SyntheticConfig::movielens_like()
            .scaled(30, 25, (8, 15))
            .generate(5);
        let graph = dataset.graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let ctx = training_context(
            &graph,
            &NeighborhoodSampler,
            dataset.ratings[0],
            5,
            4,
            0.2,
            &mut rng,
        )
        .expect("training context");
        let model = HireModel::new(&dataset, &small_config(), &mut rng);
        (dataset, ctx, model)
    }

    #[test]
    fn predictions_are_in_rating_range() {
        let (dataset, ctx, model) = setup();
        let pred = model.predict(&ctx, &dataset);
        assert_eq!(pred.dims(), &[5, 4]);
        assert!(pred.min_all() >= 0.0);
        assert!(pred.max_all() <= dataset.max_rating());
    }

    #[test]
    fn flexible_context_sizes_at_test_time() {
        // § V-A: "the size of matrix can be decided by the number of new
        // users and items and can be flexible."
        let (dataset, _, model) = setup();
        let graph = dataset.graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for (n, m) in [(3, 7), (8, 2), (1, 5)] {
            let ctx = training_context(
                &graph,
                &NeighborhoodSampler,
                dataset.ratings[1],
                n,
                m,
                0.2,
                &mut rng,
            )
            .expect("training context");
            let pred = model.predict(&ctx, &dataset);
            assert_eq!(pred.dims(), &[n, m]);
        }
    }

    #[test]
    fn loss_is_finite_and_positive() {
        let (dataset, ctx, model) = setup();
        let loss = model.context_loss(&ctx, &dataset);
        let v = loss.item();
        assert!(v.is_finite() && v > 0.0, "loss {v}");
    }

    #[test]
    fn backward_reaches_every_parameter_family() {
        let (dataset, ctx, model) = setup();
        let loss = model.context_loss(&ctx, &dataset);
        loss.backward();
        let total = model.parameters().len();
        let with_grad = model
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        // rating embedding may legitimately see no visible cell
        assert!(
            with_grad >= total - 1,
            "{with_grad}/{total} params got grads"
        );
    }

    #[test]
    fn attention_capture_has_one_entry_per_block() {
        let (dataset, ctx, model) = setup();
        let (_, attns) = model.forward_with_attention(&ctx, &dataset);
        assert_eq!(attns.len(), 2);
        assert_eq!(attns[0].mbu.dims()[0], ctx.m());
        assert_eq!(attns[0].mbi.dims()[0], ctx.n());
    }

    /// Property 5.1 for the full model: permuting context users/items
    /// permutes the predicted rating matrix identically.
    #[test]
    fn model_is_permutation_equivariant() {
        let (dataset, ctx, model) = setup();
        let pred = model.predict(&ctx, &dataset);

        let user_perm = [3usize, 1, 4, 0, 2];
        let item_perm = [2usize, 0, 3, 1];
        let permuted = PredictionContext {
            users: user_perm.iter().map(|&r| ctx.users[r]).collect(),
            items: item_perm.iter().map(|&c| ctx.items[c]).collect(),
            ratings: permute_2d(&ctx.ratings, &user_perm, &item_perm),
            input_mask: permute_2d(&ctx.input_mask, &user_perm, &item_perm),
            target_mask: permute_2d(&ctx.target_mask, &user_perm, &item_perm),
        };
        let pred_p = model.predict(&permuted, &dataset);
        for (r, &pr) in user_perm.iter().enumerate() {
            for (c, &pc) in item_perm.iter().enumerate() {
                let a = pred_p.at(&[r, c]);
                let b = pred.at(&[pr, pc]);
                assert!((a - b).abs() < 1e-3, "({r},{c}): {a} vs {b}");
            }
        }
    }

    fn permute_2d(a: &NdArray, rows: &[usize], cols: &[usize]) -> NdArray {
        let mut out = NdArray::zeros([rows.len(), cols.len()]);
        for (r, &pr) in rows.iter().enumerate() {
            for (c, &pc) in cols.iter().enumerate() {
                *out.at_mut(&[r, c]) = a.at(&[pr, pc]);
            }
        }
        out
    }
}
