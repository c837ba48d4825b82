//! Frozen (inference-only) HIRE models.
//!
//! A [`FrozenModel`] holds the trained parameters as plain [`NdArray`]s —
//! no `Tensor`, no `Rc`, no tape — so it is `Send + Sync` and can be shared
//! across worker threads behind an `Arc`. This module builds, loads and
//! exports them; the forward itself is the shared one in the private `him` module,
//! instantiated at f32, whose predictions are **bit-identical** to the
//! live model the weights were exported from (see `tests/equivalence.rs`).

use crate::him::{HimBlock, HimWeights, Norm};
use hire_ckpt::{CheckpointStore, TrainSnapshot};
use hire_core::{HireConfig, HireModel};
use hire_data::{Dataset, PredictionContext};
use hire_error::{HireError, HireResult};
use hire_nn::{MhsaWeights, Module};
use hire_tensor::NdArray;
use std::path::Path;
use std::time::Instant;

/// A HIRE model exported for serving: plain-array weights (with the dataset
/// schema facts needed to encode contexts) plus the training configuration.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    pub(crate) weights: HimWeights<NdArray>,
    pub(crate) config: HireConfig,
}

/// Pulls the next parameter off the iterator and validates its shape.
fn take_param(
    params: &mut std::vec::IntoIter<NdArray>,
    name: &str,
    expect: &[usize],
) -> HireResult<NdArray> {
    let p = params.next().ok_or_else(|| {
        HireError::invalid_data("FrozenModel", format!("missing parameter `{name}`"))
    })?;
    if p.dims() != expect {
        return Err(HireError::invalid_data(
            "FrozenModel",
            format!(
                "parameter `{name}` has shape {:?}, expected {:?}",
                p.dims(),
                expect
            ),
        ));
    }
    Ok(p)
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
        let total = params.len();
        let mut it = params.into_iter();
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
            user_embeddings.push(take_param(&mut it, &format!("user_emb[{k}]"), &[card, f])?);
        }
        let mut item_embeddings = Vec::with_capacity(item_cards.len());
        for (k, &card) in item_cards.iter().enumerate() {
            item_embeddings.push(take_param(&mut it, &format!("item_emb[{k}]"), &[card, f])?);
        }
        let rating_embedding = take_param(&mut it, "rating_emb", &[dataset.rating_levels, f])?;

        let mut blocks = Vec::with_capacity(config.num_blocks);
        for b in 0..config.num_blocks {
            let mhsa = |it: &mut std::vec::IntoIter<NdArray>,
                        layer: &str,
                        dim: usize|
             -> HireResult<MhsaWeights> {
                Ok(MhsaWeights {
                    w_q: take_param(it, &format!("block[{b}].{layer}.w_q"), &[dim, inner])?,
                    w_k: take_param(it, &format!("block[{b}].{layer}.w_k"), &[dim, inner])?,
                    w_v: take_param(it, &format!("block[{b}].{layer}.w_v"), &[dim, inner])?,
                    w_o: take_param(it, &format!("block[{b}].{layer}.w_o"), &[inner, dim])?,
                    heads: config.heads,
                    head_dim: config.head_dim,
                })
            };
            let norm = |it: &mut std::vec::IntoIter<NdArray>, layer: &str| -> HireResult<Norm> {
                Ok(Norm {
                    gamma: take_param(it, &format!("block[{b}].{layer}.gamma"), &[e])?,
                    beta: take_param(it, &format!("block[{b}].{layer}.beta"), &[e])?,
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
            blocks.push(HimBlock {
                mbu,
                mbi,
                mba,
                norm_mbu,
                norm_mbi,
                norm_mba,
                residual: config.residual,
            });
        }

        let decoder_w = take_param(&mut it, "decoder.weight", &[e, 1])?;
        let decoder_b = take_param(&mut it, "decoder.bias", &[1])?;
        let leftover = it.count();
        if leftover != 0 {
            return Err(HireError::invalid_data(
                "FrozenModel",
                format!("{leftover} unexpected trailing parameters (of {total})"),
            ));
        }

        Ok(FrozenModel {
            weights: HimWeights {
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
            },
            config,
        })
    }

    /// Exports a live (tape-based) model into a frozen one.
    pub fn from_model(model: &HireModel, dataset: &Dataset) -> HireResult<Self> {
        let params: Vec<NdArray> = model.parameters().iter().map(|p| p.value()).collect();
        Self::from_parts(dataset, model.config().clone(), params)
    }

    /// Loads a frozen model from a training snapshot.
    pub fn from_snapshot(
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
    /// bit-identical to `HireModel::predict` on the same context.
    pub fn forward_nograd(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
    ) -> HireResult<NdArray> {
        self.weights.forward_nograd(ctx, dataset)
    }

    /// Batched tape-free forward over contexts of identical shape. Returns
    /// one `[n, m]` prediction matrix per context; each is bit-identical to
    /// the corresponding single-context [`Self::forward_nograd`] call.
    pub fn forward_nograd_batch(
        &self,
        ctxs: &[&PredictionContext],
        dataset: &Dataset,
    ) -> HireResult<Vec<NdArray>> {
        self.forward_nograd_batch_within(ctxs, dataset, None)
            .map(|out| out.expect("no deadline given, forward cannot be cut short"))
    }

    /// [`Self::forward_nograd_batch`] with a deadline budget: `Ok(None)` if
    /// the deadline passed before the block stack started, so a serving
    /// worker never sinks a full forward into a query that already timed
    /// out.
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
