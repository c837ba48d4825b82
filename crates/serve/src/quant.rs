//! The quantized serving tier: a [`FrozenModel`] with every weight matrix
//! compressed post-training (symmetric per-tensor int8, or f16 as a
//! config option) and expanded to f32 where it is read: a projection weight
//! once per call, an embedding table row per gathered row.
//!
//! A [`QuantizedModel`] is derived mechanically from any frozen model
//! ([`QuantizedModel::from_frozen`]) — the engine rebuilds one on every
//! `install_model` hot swap, so the quantized tier always tracks the
//! incumbent version. It has no forward of its own: it runs the shared
//! forward of the private `him` module instantiated at `QuantizedTensor`,
//! where the embedding gathers, the MHSA projections and the decoder head
//! read compressed weights while activations, softmax, layer norms, and biases
//! stay f32.
//!
//! Determinism: dequantization is a pure per-element function and the
//! products are the f32 kernels', so quantized predictions are
//! bit-identical across thread counts — and bit-identical to the f32
//! forward run on the dequantized weights (unit test in `crate::him`).
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

/// A frozen HIRE model with compressed weights — the second rung of the
/// degradation ladder (DESIGN.md §13).
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    pub(crate) weights: HimWeights<QuantizedTensor>,
    mode: QuantMode,
    max_weight_err: f32,
}

impl QuantizedModel {
    /// Compresses a frozen model under `mode`. Pure post-training: no
    /// calibration data, no retraining — safe to run inside the hot-swap
    /// path.
    pub fn from_frozen(model: &FrozenModel, mode: QuantMode) -> Self {
        let mut max_weight_err = 0.0f32;
        let weights = model.weights.map(|a| {
            let t = QuantizedTensor::quantize(a, mode);
            max_weight_err = max_weight_err.max(t.max_err());
            t
        });
        QuantizedModel {
            weights,
            mode,
            max_weight_err,
        }
    }

    /// The compression scheme this model was built with.
    pub fn mode(&self) -> QuantMode {
        self.mode
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
    /// The scale factors below (5% of the output range for int8, 1% for
    /// f16) are pinned empirically across the config zoo and random-weight
    /// property tests in `hire-serve/tests/quant.rs` and hold with a wide
    /// margin; the serve benchmark's smoke gate re-checks the int8 bound
    /// end to end on every CI run.
    pub fn prediction_bound(&self) -> f32 {
        match self.mode {
            QuantMode::Int8 => 0.05 * self.weights.alpha,
            QuantMode::F16 => 0.01 * self.weights.alpha,
        }
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
