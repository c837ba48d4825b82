//! int8 as a weight storage format: a [`FrozenModel`] with every weight
//! matrix compressed post-training (symmetric per-tensor int8) and expanded
//! to f32 where it is read: a projection weight once per call, an embedding
//! table row per gathered row.
//!
//! A [`QuantizedModel`] is derived mechanically from any frozen model
//! ([`QuantizedModel::from_frozen`]). It is a library type: nothing in
//! [`crate::ServeEngine`] builds or serves one. It has no forward of its
//! own: it runs the shared forward of the private `him` module instantiated
//! at `QuantizedTensor`, where the embedding gathers, the MHSA projections
//! and the decoder head read compressed weights while activations, softmax,
//! layer norms, and biases stay f32 — so it costs what the f32 forward
//! costs and holds a quarter of its weight bytes.
//!
//! Determinism: dequantization is a pure per-element function and the
//! products are the f32 kernels', so quantized predictions are
//! bit-identical to the f32 forward run on the dequantized weights (unit
//! test below).
//!
//! Error bound: every compressed tensor records its worst per-element
//! reconstruction error; [`QuantizedModel::max_weight_err`] is the max
//! across all of them. The prediction-level error this induces is
//! validated against the f32 oracle in `tests/quant.rs` (the decoder's
//! `α·sigmoid` squashes logit error by at most `α/4` per logit unit,
//! which keeps rating-scale deltas small — the test pins the observed
//! bound).

use crate::frozen::FrozenModel;
use crate::him::HimWeights;
use hire_data::{Dataset, PredictionContext};
use hire_error::HireResult;
use hire_tensor::{NdArray, QuantMode, QuantizedTensor};
use std::time::Instant;

/// A frozen HIRE model with int8-stored weights (DESIGN.md §13).
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    pub(crate) weights: HimWeights<QuantizedTensor>,
    max_weight_err: f32,
}

impl QuantizedModel {
    /// Compresses a frozen model under `mode`. Pure post-training: no
    /// calibration data, no retraining.
    pub fn from_frozen(model: &FrozenModel, mode: QuantMode) -> Self {
        let mut max_weight_err = 0.0f32;
        let weights = model.weights.map(|a| {
            let t = QuantizedTensor::quantize(a, mode);
            max_weight_err = max_weight_err.max(t.max_err());
            t
        });
        QuantizedModel {
            weights,
            max_weight_err,
        }
    }

    /// Worst per-element weight reconstruction error across every
    /// compressed tensor (recorded at quantization time).
    pub fn max_weight_err(&self) -> f32 {
        self.max_weight_err
    }

    /// The documented prediction-error bound of this quantized model
    /// against its f32 [`FrozenModel`] oracle, in rating units.
    ///
    /// Predictions come out of `α · sigmoid(g(H))`, so every prediction
    /// lives in `[0, α]` and the sigmoid's 1/4 Lipschitz constant damps
    /// the accumulated weight-reconstruction error of the decoder input.
    /// The scale factor (5% of the output range) is pinned empirically
    /// across the config zoo and random-weight property tests in
    /// `hire-serve/tests/quant.rs` and holds with a wide margin; the
    /// ledger's `quant.max_abs_err` probe re-checks it on trained weights.
    pub fn prediction_bound(&self) -> f32 {
        0.05 * self.weights.alpha
    }

    /// Number of attribute channels `h = h_u + h_i + 1`.
    pub fn num_attrs(&self) -> usize {
        self.weights.num_attrs()
    }

    /// Embedding width `e = h * f`.
    pub fn embed_dim(&self) -> usize {
        self.weights.embed_dim()
    }

    /// Tape-free quantized forward: the predicted rating matrix `[n, m]`.
    pub fn forward_nograd(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
    ) -> HireResult<NdArray> {
        self.weights.forward_nograd(ctx, dataset)
    }

    /// Batched quantized forward with a deadline budget — the same
    /// contract as `FrozenModel::forward_nograd_batch_within`: `Ok(None)`
    /// when the deadline passed before the block stack started.
    pub fn forward_nograd_batch_within(
        &self,
        ctxs: &[&PredictionContext],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> HireResult<Option<Vec<NdArray>>> {
        self.weights
            .forward_nograd_batch_within(ctxs, dataset, deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_core::{HireConfig, HireModel};
    use hire_data::{training_context, SyntheticConfig};
    use hire_graph::NeighborhoodSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One code path: the quantized forward *is* the f32 forward, so a
    /// `FrozenModel` over the dequantized weights agrees with the
    /// `QuantizedModel` to the bit at whole-model level — single and
    /// batched.
    #[test]
    fn quantized_forward_is_the_frozen_forward_on_dequantized_weights() {
        let dataset = SyntheticConfig::movielens_like()
            .scaled(30, 26, (8, 15))
            .generate(9);
        let config = HireConfig::fast().with_blocks(2).with_context_size(8, 8);
        let mut rng = StdRng::seed_from_u64(23);
        let model = HireModel::new(&dataset, &config, &mut rng);
        let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
        let graph = dataset.graph();
        let ctxs: Vec<PredictionContext> = (0..3)
            .map(|k| {
                let seed = dataset.ratings[7 * k];
                training_context(&graph, &NeighborhoodSampler, seed, 8, 8, 0.2, &mut rng)
                    .expect("context")
            })
            .collect();
        let batch: Vec<&PredictionContext> = ctxs.iter().collect();
        let quant = QuantizedModel::from_frozen(&frozen, QuantMode::Int8);
        assert!(quant.max_weight_err() > 0.0, "random weights must round");
        let oracle = FrozenModel {
            weights: quant.weights.map(QuantizedTensor::dequantize),
            config: config.clone(),
        };
        for ctx in &ctxs {
            let got = quant.forward_nograd(ctx, &dataset).expect("quantized");
            let want = oracle.forward_nograd(ctx, &dataset).expect("f32");
            assert_eq!(got.as_slice(), want.as_slice());
        }
        let got = quant
            .forward_nograd_batch_within(&batch, &dataset, None)
            .expect("quantized batch");
        let want = oracle
            .forward_nograd_batch_within(&batch, &dataset, None)
            .expect("f32 batch");
        assert_eq!(got, want, "batched");
    }
}
