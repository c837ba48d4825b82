//! Frozen (inference-only) HIRE models.
//!
//! A [`FrozenModel`] holds the trained parameters as plain [`NdArray`]s —
//! no `Tensor`, no `Rc`, no tape — so it is `Send + Sync` and can be shared
//! across worker threads behind an `Arc`. This module builds, loads and
//! exports them; the forward itself is the one tape-free forward of
//! `nograd.rs`, whose predictions are **bit-identical** to the tape forward
//! of the live model the weights were exported from (see `hire-serve`'s
//! `tests/equivalence.rs`).
//!
//! A [`QuantizedModel`] is a [`FrozenModel`] whose weight matrices were
//! rounded through symmetric per-tensor int8 when it was built
//! ([`hire_tensor::round_int8`]), with the worst rounding error on record.

use crate::nograd::{BlockWeights, HimWeights, Norm};
use crate::{HireConfig, HireModel};
use hire_ckpt::{CheckpointStore, TrainSnapshot};
use hire_data::{Dataset, PredictionContext};
use hire_error::{HireError, HireResult};
use hire_nn::{MhsaWeights, Module};
use hire_tensor::{round_int8, NdArray, QuantMode};
use std::borrow::Borrow;
use std::path::Path;
use std::time::Instant;

/// A HIRE model exported for serving: plain-array weights (with the dataset
/// schema facts needed to encode contexts) plus the training configuration.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    weights: HimWeights,
    config: HireConfig,
}

/// Pulls the next parameter off the iterator and validates its shape.
/// (`name` is formatted only into an error.)
fn take_param<W: Borrow<NdArray>>(
    params: &mut impl Iterator<Item = W>,
    name: std::fmt::Arguments<'_>,
    expect: &[usize],
) -> HireResult<W> {
    let p = params.next().ok_or_else(|| {
        HireError::invalid_data("FrozenModel", format!("missing parameter `{name}`"))
    })?;
    let dims = p.borrow().dims();
    if dims != expect {
        return Err(HireError::invalid_data(
            "FrozenModel",
            format!("parameter `{name}` has shape {dims:?}, expected {expect:?}"),
        ));
    }
    Ok(p)
}

/// A model's weights from a flat parameter list in
/// `HireModel::parameters()` order — owned arrays, or the live model's
/// lent ones — validating every shape against the dataset schema and
/// `config`.
pub(crate) fn him_weights<W: Borrow<NdArray>>(
    dataset: &Dataset,
    config: &HireConfig,
    mut it: impl ExactSizeIterator<Item = W>,
) -> HireResult<HimWeights<W>> {
    let total = it.len();
    let f = config.attr_dim;
    let inner = config.heads * config.head_dim;

    let user_cards: Vec<usize> = if dataset.user_schema.is_id_only() {
        vec![dataset.num_users]
    } else {
        dataset
            .user_schema
            .attributes()
            .iter()
            .map(|a| a.cardinality)
            .collect()
    };
    let item_cards: Vec<usize> = if dataset.item_schema.is_id_only() {
        vec![dataset.num_items]
    } else {
        dataset
            .item_schema
            .attributes()
            .iter()
            .map(|a| a.cardinality)
            .collect()
    };
    let num_attrs = user_cards.len() + item_cards.len() + 1;
    let e = num_attrs * f;

    let mut user_embeddings = Vec::with_capacity(user_cards.len());
    for (k, &card) in user_cards.iter().enumerate() {
        user_embeddings.push(take_param(
            &mut it,
            format_args!("user_emb[{k}]"),
            &[card, f],
        )?);
    }
    let mut item_embeddings = Vec::with_capacity(item_cards.len());
    for (k, &card) in item_cards.iter().enumerate() {
        item_embeddings.push(take_param(
            &mut it,
            format_args!("item_emb[{k}]"),
            &[card, f],
        )?);
    }
    let rating_embedding = take_param(
        &mut it,
        format_args!("rating_emb"),
        &[dataset.rating_levels, f],
    )?;

    let mut blocks = Vec::with_capacity(config.num_blocks);
    for b in 0..config.num_blocks {
        let mhsa = |it: &mut _, layer: &str, dim: usize| -> HireResult<MhsaWeights<W>> {
            let w = |it: &mut _, name: &str, shape: &[usize]| {
                take_param(it, format_args!("block[{b}].{layer}.{name}"), shape)
            };
            Ok(MhsaWeights {
                w_q: w(it, "w_q", &[dim, inner])?,
                w_k: w(it, "w_k", &[dim, inner])?,
                w_v: w(it, "w_v", &[dim, inner])?,
                w_o: w(it, "w_o", &[inner, dim])?,
                heads: config.heads,
                head_dim: config.head_dim,
            })
        };
        let norm = |it: &mut _, layer: &str| -> HireResult<Norm<W>> {
            Ok(Norm {
                gamma: take_param(it, format_args!("block[{b}].{layer}.gamma"), &[e])?,
                beta: take_param(it, format_args!("block[{b}].{layer}.beta"), &[e])?,
            })
        };
        let mbu = config
            .enable_mbu
            .then(|| mhsa(&mut it, "mbu", e))
            .transpose()?;
        let mbi = config
            .enable_mbi
            .then(|| mhsa(&mut it, "mbi", e))
            .transpose()?;
        let mba = config
            .enable_mba
            .then(|| mhsa(&mut it, "mba", f))
            .transpose()?;
        let norm_mbu = (config.enable_mbu && config.layer_norm)
            .then(|| norm(&mut it, "norm_mbu"))
            .transpose()?;
        let norm_mbi = (config.enable_mbi && config.layer_norm)
            .then(|| norm(&mut it, "norm_mbi"))
            .transpose()?;
        let norm_mba = (config.enable_mba && config.layer_norm)
            .then(|| norm(&mut it, "norm_mba"))
            .transpose()?;
        blocks.push(BlockWeights {
            mbu,
            mbi,
            mba,
            norm_mbu,
            norm_mbi,
            norm_mba,
            residual: config.residual,
        });
    }

    let decoder_w = take_param(&mut it, format_args!("decoder.weight"), &[e, 1])?;
    let decoder_b = take_param(&mut it, format_args!("decoder.bias"), &[1])?;
    let leftover = it.count();
    if leftover != 0 {
        return Err(HireError::invalid_data(
            "FrozenModel",
            format!("{leftover} unexpected trailing parameters (of {total})"),
        ));
    }

    Ok(HimWeights {
        user_embeddings,
        item_embeddings,
        rating_embedding,
        blocks,
        decoder_w,
        decoder_b,
        alpha: dataset.max_rating(),
        min_rating: dataset.min_rating,
        rating_levels: dataset.rating_levels,
        user_id_only: dataset.user_schema.is_id_only(),
        item_id_only: dataset.item_schema.is_id_only(),
        attr_dim: f,
    })
}

impl FrozenModel {
    /// Builds a frozen model from a flat parameter list in
    /// `HireModel::parameters()` order, validating every shape against the
    /// dataset schema and `config`.
    pub fn from_parts(
        dataset: &Dataset,
        config: HireConfig,
        params: Vec<NdArray>,
    ) -> HireResult<Self> {
        Ok(FrozenModel {
            weights: him_weights(dataset, &config, params.into_iter())?,
            config,
        })
    }

    /// Exports a live (tape-based) model into a frozen one.
    pub fn from_model(model: &HireModel, dataset: &Dataset) -> HireResult<Self> {
        let params: Vec<NdArray> = model.parameters().iter().map(|p| p.value()).collect();
        Self::from_parts(dataset, model.config().clone(), params)
    }

    /// Loads a frozen model from a training snapshot.
    pub(crate) fn from_snapshot(
        snapshot: &TrainSnapshot,
        dataset: &Dataset,
        config: &HireConfig,
    ) -> HireResult<Self> {
        Self::from_parts(dataset, config.clone(), snapshot.params.clone())
    }

    /// Loads a frozen model from one snapshot file on disk. Corrupted files
    /// surface as [`HireError::CorruptCheckpoint`], never a panic.
    pub fn from_snapshot_file(
        path: impl AsRef<Path>,
        dataset: &Dataset,
        config: &HireConfig,
    ) -> HireResult<Self> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| HireError::io(path.display().to_string(), e))?;
        let snapshot = TrainSnapshot::decode(&bytes, &path.display().to_string())?;
        Self::from_snapshot(&snapshot, dataset, config)
    }

    /// Loads a frozen model from encoded snapshot bytes (the same format
    /// [`Self::from_snapshot_file`] reads from disk). Corrupted bytes
    /// surface as [`HireError::CorruptCheckpoint`], never a panic — the
    /// chaos harness flips bits here to prove it.
    pub fn from_snapshot_bytes(
        bytes: &[u8],
        label: &str,
        dataset: &Dataset,
        config: &HireConfig,
    ) -> HireResult<Self> {
        let snapshot = TrainSnapshot::decode(bytes, label)?;
        Self::from_snapshot(&snapshot, dataset, config)
    }

    /// Loads the newest valid snapshot in a checkpoint directory (corrupted
    /// files are skipped, as during training resume).
    pub fn from_checkpoint_dir(
        dir: impl AsRef<Path>,
        dataset: &Dataset,
        config: &HireConfig,
    ) -> HireResult<Self> {
        let store = CheckpointStore::open(dir.as_ref(), usize::MAX)?;
        let outcome = store.load_latest()?.ok_or_else(|| {
            HireError::invalid_data(
                "FrozenModel",
                format!("no valid snapshot in {}", dir.as_ref().display()),
            )
        })?;
        Self::from_snapshot(&outcome.snapshot, dataset, config)
    }

    /// The model configuration this frozen model was built with.
    pub fn config(&self) -> &HireConfig {
        &self.config
    }

    /// Every weight array, in `HireModel::parameters()` order.
    fn param_refs(&self) -> Vec<&NdArray> {
        let w = &self.weights;
        let mut out: Vec<&NdArray> = Vec::new();
        out.extend(&w.user_embeddings);
        out.extend(&w.item_embeddings);
        out.push(&w.rating_embedding);
        for b in &w.blocks {
            for a in [&b.mbu, &b.mbi, &b.mba].into_iter().flatten() {
                out.extend([&a.w_q, &a.w_k, &a.w_v, &a.w_o]);
            }
            for nm in [&b.norm_mbu, &b.norm_mbi, &b.norm_mba]
                .into_iter()
                .flatten()
            {
                out.extend([&nm.gamma, &nm.beta]);
            }
        }
        out.push(&w.decoder_w);
        out.push(&w.decoder_b);
        out
    }

    /// Exports the weights as a flat list in `HireModel::parameters()`
    /// order — the exact inverse of [`Self::from_parts`], so
    /// `FrozenModel::from_parts(dataset, config, frozen.parameters())`
    /// round-trips bit-identically, and `HireModel::load_parameters` can
    /// warm-start a live model from serving weights for fine-tuning.
    pub fn parameters(&self) -> Vec<NdArray> {
        self.param_refs().into_iter().cloned().collect()
    }

    /// Number of attribute channels `h = h_u + h_i + 1`.
    pub fn num_attrs(&self) -> usize {
        self.weights.num_attrs()
    }

    /// Embedding width `e = h * f`.
    pub fn embed_dim(&self) -> usize {
        self.weights.embed_dim()
    }

    /// Total scalar parameter count.
    pub fn num_parameters(&self) -> usize {
        self.param_refs().into_iter().map(NdArray::numel).sum()
    }

    /// Tape-free forward: the predicted rating matrix `[n, m]`,
    /// bit-identical to the tape [`HireModel::forward`] on the same context.
    pub fn forward_nograd(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
    ) -> HireResult<NdArray> {
        self.weights.forward_nograd(ctx, dataset)
    }

    /// Tape-free forward over a batch of contexts, of any shapes: one
    /// `[n, m]` prediction matrix per context, each the single-context
    /// [`Self::forward_nograd`].
    pub fn forward_nograd_batch(
        &self,
        ctxs: &[&PredictionContext],
        dataset: &Dataset,
    ) -> HireResult<Vec<NdArray>> {
        self.forward_nograd_batch_within(ctxs, dataset, None)
            .map(|out| out.expect("no deadline given, forward cannot be cut short"))
    }

    /// [`Self::forward_nograd_batch`] with a deadline budget, checked
    /// before each context: `Ok(None)` if it passed, so a serving worker
    /// never sinks a full batch into a query that already timed out and
    /// overshoots by at most one context's forward. Contexts run in order,
    /// so the first bad context is the one reported — ahead of a deadline
    /// that passes after it.
    pub fn forward_nograd_batch_within(
        &self,
        ctxs: &[&PredictionContext],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> HireResult<Option<Vec<NdArray>>> {
        self.weights
            .forward_nograd_batch_within(ctxs, dataset, deadline)
    }

    /// The forward asked only for `cells` of `ctx`: one prediction per
    /// asked `(row, col)`, in the asked order (repeats allowed), each
    /// bit-identical to [`Self::forward_nograd`]'s at that cell. Each layer
    /// runs only on the cells its output is read at: with all three
    /// attention layers on, the last block's MBU forms its keys and values
    /// on every cell but its queries, attention, `W_O` and norm on the
    /// asked rows, its MBI runs on those rows, and its MBA, norms and the
    /// decoder on the asked cells. A cell outside the context is a typed
    /// error.
    pub fn forward_cells(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
        cells: &[(usize, usize)],
    ) -> HireResult<Vec<f32>> {
        let preds = self
            .forward_cells_batch_within(&[(ctx, cells)], dataset, None)?
            .expect("a forward without a deadline cannot time out");
        Ok(preds.into_iter().next().expect("one context in, one out"))
    }

    /// [`Self::forward_cells`] over a batch of `(context, cells)` asks, with
    /// the deadline budget of [`Self::forward_nograd_batch_within`].
    pub fn forward_cells_batch_within(
        &self,
        asks: &[(&PredictionContext, &[(usize, usize)])],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> HireResult<Option<Vec<Vec<f32>>>> {
        self.weights
            .forward_cells_batch_within(asks, dataset, deadline)
    }
}

/// A [`FrozenModel`] whose weight matrices — embedding tables, MHSA
/// projections, decoder head — were rounded through symmetric per-tensor
/// int8 when it was built (DESIGN.md §13); norms and the decoder bias stay
/// as they were. Its forward is the f32 one over the rounded weights, so
/// it answers bit for bit what `FrozenModel::from_parts` over the same
/// rounded parameters answers. A library type: nothing in `hire-serve`'s
/// engine builds or serves one.
#[derive(Debug, Clone)]
pub struct QuantizedModel {
    model: FrozenModel,
    max_weight_err: f32,
}

impl QuantizedModel {
    /// Rounds a frozen model's weights under `mode`. Pure post-training:
    /// no calibration data, no retraining.
    pub fn from_frozen(model: &FrozenModel, mode: QuantMode) -> Self {
        let QuantMode::Int8 = mode;
        let mut max_weight_err = 0.0f32;
        let weights = model.weights.map(|a| {
            let (rounded, err) = round_int8(a);
            max_weight_err = max_weight_err.max(err);
            rounded
        });
        QuantizedModel {
            model: FrozenModel {
                weights,
                config: model.config.clone(),
            },
            max_weight_err,
        }
    }

    /// Worst per-element weight rounding error across every rounded
    /// matrix (recorded when the model was built).
    pub fn max_weight_err(&self) -> f32 {
        self.max_weight_err
    }

    /// The documented prediction-error bound of this quantized model
    /// against its f32 [`FrozenModel`] oracle, in rating units.
    ///
    /// Predictions come out of `α · sigmoid(g(H))`, so every prediction
    /// lives in `[0, α]` and the sigmoid's 1/4 Lipschitz constant damps
    /// the accumulated weight-rounding error of the decoder input. The
    /// scale factor (5% of the output range) is pinned empirically across
    /// the config zoo and random-weight property tests in
    /// `hire-serve/tests/quant.rs` and holds with a wide margin.
    pub fn prediction_bound(&self) -> f32 {
        0.05 * self.model.weights.alpha
    }

    /// [`FrozenModel::forward_nograd`] over the rounded weights.
    pub fn forward_nograd(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
    ) -> HireResult<NdArray> {
        self.model.forward_nograd(ctx, dataset)
    }

    /// [`FrozenModel::forward_nograd_batch_within`] over the rounded
    /// weights.
    pub fn forward_nograd_batch_within(
        &self,
        ctxs: &[&PredictionContext],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> HireResult<Option<Vec<NdArray>>> {
        self.model
            .forward_nograd_batch_within(ctxs, dataset, deadline)
    }

    /// [`FrozenModel::forward_cells`] over the rounded weights.
    pub fn forward_cells(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
        cells: &[(usize, usize)],
    ) -> HireResult<Vec<f32>> {
        self.model.forward_cells(ctx, dataset, cells)
    }

    /// [`FrozenModel::forward_cells_batch_within`] over the rounded
    /// weights.
    pub fn forward_cells_batch_within(
        &self,
        asks: &[(&PredictionContext, &[(usize, usize)])],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> HireResult<Option<Vec<Vec<f32>>>> {
        self.model
            .forward_cells_batch_within(asks, dataset, deadline)
    }
}
