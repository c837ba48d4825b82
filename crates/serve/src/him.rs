//! The one tape-free HIM forward: context encode → stacked MBU/MBI/MBA
//! attention → `α·sigmoid` decoder (Eq. 16), written once over
//! [`HimWeights<W>`] and generic over the weight storage format `W`
//! ([`hire_tensor::WeightMatrix`]).
//!
//! [`crate::FrozenModel`] is `HimWeights<NdArray>`, [`crate::QuantizedModel`]
//! is `HimWeights<QuantizedTensor>`; both forwards are monomorphised copies
//! of the code below. Nothing here knows which format it runs on — that is
//! decided inside `hire_tensor::linalg`, behind `WeightMatrix`. Embedding
//! gathers, the MHSA projections and the decoder head read `W`;
//! activations, softmax, layer norms and biases are always f32.
//!
//! Every step reuses the `linalg` kernel the autograd forward uses, in the
//! same order, so the f32 instance is **bit-identical** to the live model
//! it was exported from (`tests/equivalence.rs`), and the quantized
//! instance is bit-identical to the f32 instance run on the dequantized
//! weights (unit test below). All kernels are bit-exact across
//! thread counts, and so is everything here.

use hire_data::{Dataset, PredictionContext};
use hire_error::{HireError, HireResult};
use hire_nn::{mhsa_forward, MhsaWeights};
use hire_tensor::{linalg, NdArray, WeightMatrix};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// `LayerNorm::new` hard-codes this epsilon; the no-grad mirror must match.
const LAYER_NORM_EPS: f32 = 1e-5;

/// Error context of everything the forward rejects.
const LABEL: &str = "HIM forward";

/// LayerNorm affine parameters. Always f32: they are vectors — negligible
/// memory, and norms are sensitive to weight rounding.
#[derive(Debug, Clone)]
pub(crate) struct Norm {
    pub(crate) gamma: NdArray,
    pub(crate) beta: NdArray,
}

/// One HIM block (see `hire_core::him::HimBlock`).
#[derive(Debug, Clone)]
pub(crate) struct HimBlock<W> {
    pub(crate) mbu: Option<MhsaWeights<W>>,
    pub(crate) mbi: Option<MhsaWeights<W>>,
    pub(crate) mba: Option<MhsaWeights<W>>,
    pub(crate) norm_mbu: Option<Norm>,
    pub(crate) norm_mbi: Option<Norm>,
    pub(crate) norm_mba: Option<Norm>,
    pub(crate) residual: bool,
}

/// A HIRE model's weights in storage format `W`, plus the dataset schema
/// facts needed to encode contexts.
#[derive(Debug, Clone)]
pub(crate) struct HimWeights<W> {
    pub(crate) user_embeddings: Vec<W>,
    pub(crate) item_embeddings: Vec<W>,
    pub(crate) rating_embedding: W,
    pub(crate) blocks: Vec<HimBlock<W>>,
    pub(crate) decoder_w: W,
    pub(crate) decoder_b: NdArray,
    /// Output scale α of Eq. (16).
    pub(crate) alpha: f32,
    pub(crate) min_rating: f32,
    pub(crate) rating_levels: usize,
    pub(crate) user_id_only: bool,
    pub(crate) item_id_only: bool,
    pub(crate) attr_dim: usize,
}

impl<W> HimWeights<W> {
    /// The same model with every weight matrix converted by `f`, in
    /// `HireModel::parameters()` order; f32 vectors (norms, decoder bias)
    /// and schema facts are copied. This is the whole of quantization.
    pub(crate) fn map<V>(&self, mut f: impl FnMut(&W) -> V) -> HimWeights<V> {
        let user_embeddings = self.user_embeddings.iter().map(&mut f).collect();
        let item_embeddings = self.item_embeddings.iter().map(&mut f).collect();
        let rating_embedding = f(&self.rating_embedding);
        let blocks = self
            .blocks
            .iter()
            .map(|b| HimBlock {
                mbu: b.mbu.as_ref().map(|w| w.map(&mut f)),
                mbi: b.mbi.as_ref().map(|w| w.map(&mut f)),
                mba: b.mba.as_ref().map(|w| w.map(&mut f)),
                norm_mbu: b.norm_mbu.clone(),
                norm_mbi: b.norm_mbi.clone(),
                norm_mba: b.norm_mba.clone(),
                residual: b.residual,
            })
            .collect();
        HimWeights {
            user_embeddings,
            item_embeddings,
            rating_embedding,
            blocks,
            decoder_w: f(&self.decoder_w),
            decoder_b: self.decoder_b.clone(),
            alpha: self.alpha,
            min_rating: self.min_rating,
            rating_levels: self.rating_levels,
            user_id_only: self.user_id_only,
            item_id_only: self.item_id_only,
            attr_dim: self.attr_dim,
        }
    }

    /// Number of attribute channels `h = h_u + h_i + 1`.
    pub(crate) fn num_attrs(&self) -> usize {
        self.user_embeddings.len() + self.item_embeddings.len() + 1
    }

    /// Embedding width `e = h * f`.
    pub(crate) fn embed_dim(&self) -> usize {
        self.num_attrs() * self.attr_dim
    }
}

/// Rejects context entity ids the dataset does not have.
fn check_ids(kind: &str, ids: &[usize], bound: usize) -> HireResult<()> {
    match ids.iter().find(|&&id| id >= bound) {
        Some(id) => Err(HireError::invalid_data(
            LABEL,
            format!("context {kind} {id} out of range {bound}"),
        )),
        None => Ok(()),
    }
}

/// One side's attribute features `[len(ids), tables.len() * f]`: each
/// attribute's embedding rows, concatenated. ID-only schemas have a single
/// table indexed by the entity id itself.
fn side_features<W: WeightMatrix>(
    tables: &[W],
    ids: &[usize],
    id_only: bool,
    attrs: &[Vec<usize>],
) -> NdArray {
    let feats: Vec<NdArray> = tables
        .iter()
        .enumerate()
        .map(|(k, emb)| {
            let codes: Vec<usize> = ids
                .iter()
                .map(|&id| if id_only { id } else { attrs[id][k] })
                .collect();
            emb.gather_rows(&codes)
        })
        .collect();
    let refs: Vec<&NdArray> = feats.iter().collect();
    linalg::concat_last(&refs)
}

/// Residual-add + optional LayerNorm, mirroring `HimBlock::post`.
fn post(x: &NdArray, y: NdArray, residual: bool, norm: &Option<Norm>) -> NdArray {
    let z = if residual {
        linalg::broadcast_zip(x, &y, |a, b| a + b)
    } else {
        y
    };
    match norm {
        Some(nm) => linalg::layer_norm_last_nd(&z, &nm.gamma, &nm.beta, LAYER_NORM_EPS),
        None => z,
    }
}

impl<W: WeightMatrix> HimWeights<W> {
    /// No-grad mirror of `ContextEncoder::encode`: `H ∈ R^{n×m×e}`.
    fn encode(&self, ctx: &PredictionContext, dataset: &Dataset) -> HireResult<NdArray> {
        let n = ctx.n();
        let m = ctx.m();
        let f = self.attr_dim;
        check_ids("user", &ctx.users, dataset.num_users)?;
        check_ids("item", &ctx.items, dataset.num_items)?;

        let x_u = side_features(
            &self.user_embeddings,
            &ctx.users,
            self.user_id_only,
            &dataset.user_attrs,
        ); // [n, hu*f]
        let x_i = side_features(
            &self.item_embeddings,
            &ctx.items,
            self.item_id_only,
            &dataset.item_attrs,
        ); // [m, hi*f]

        // Rating channel: visible cells gather their level embedding,
        // masked cells gather row 0 and are zeroed by the mask multiply —
        // the same gather-then-mask the tape encoder performs, so signed
        // zeros match too.
        let mut codes = Vec::with_capacity(n * m);
        for flat in 0..n * m {
            let visible = ctx.input_mask.as_slice()[flat] == 1.0;
            let code = if visible {
                let value = ctx.ratings.as_slice()[flat];
                ((value - self.min_rating).round() as usize).min(self.rating_levels - 1)
            } else {
                0
            };
            codes.push(code);
        }
        let raw_r = self.rating_embedding.gather_rows(&codes); // [n*m, f]
        let mut mask = NdArray::zeros([n * m, f]);
        for flat in 0..n * m {
            if ctx.input_mask.as_slice()[flat] == 1.0 {
                for j in 0..f {
                    mask.as_mut_slice()[flat * f + j] = 1.0;
                }
            }
        }
        let x_r = linalg::broadcast_zip(&raw_r, &mask, |x, y| x * y).reshaped(vec![n, m, f]);

        let hu_f = self.user_embeddings.len() * f;
        let hi_f = self.item_embeddings.len() * f;
        let u_grid = linalg::broadcast_zip(
            &x_u.reshape([n, 1, hu_f]),
            &NdArray::ones([n, m, hu_f]),
            |x, y| x * y,
        );
        let i_grid = linalg::broadcast_zip(
            &x_i.reshape([1, m, hi_f]),
            &NdArray::ones([n, m, hi_f]),
            |x, y| x * y,
        );
        Ok(linalg::concat_last(&[&u_grid, &i_grid, &x_r]))
    }

    /// HIM blocks over a batch of stacked contexts `[B, n, m, e]`.
    ///
    /// Every MHSA call flattens the batch axis into the attention batch, so
    /// each context's result is bit-identical to running it alone (all
    /// kernels are row- or slice-wise along the flattened axis).
    fn run_blocks(&self, mut x: NdArray, bsz: usize, n: usize, m: usize) -> NdArray {
        let h = self.num_attrs();
        let f = self.attr_dim;
        let e = h * f;
        for block in &self.blocks {
            if let Some(w) = &block.mbu {
                // tokens = users, batch = (context, item) pairs
                let per_item = linalg::permute(&x, &[0, 2, 1, 3]).reshaped(vec![bsz * m, n, e]);
                let y = mhsa_forward(&per_item, w);
                let y = linalg::permute(&y.reshaped(vec![bsz, m, n, e]), &[0, 2, 1, 3]);
                x = post(&x, y, block.residual, &block.norm_mbu);
            }
            if let Some(w) = &block.mbi {
                // tokens = items, batch = (context, user) pairs
                let y = mhsa_forward(&x.reshape([bsz * n, m, e]), w).reshaped(vec![bsz, n, m, e]);
                x = post(&x, y, block.residual, &block.norm_mbi);
            }
            if let Some(w) = &block.mba {
                // tokens = attributes, batch = all cells
                let y =
                    mhsa_forward(&x.reshape([bsz * n * m, h, f]), w).reshaped(vec![bsz, n, m, e]);
                x = post(&x, y, block.residual, &block.norm_mba);
            }
        }
        x
    }

    /// Decoder: `α · sigmoid(H W + b)`, shape `[B, n, m]`.
    fn decode(&self, x: &NdArray, bsz: usize, n: usize, m: usize) -> NdArray {
        let y = self.decoder_w.linear_nd(x); // [B, n, m, 1]
        let y = linalg::broadcast_zip(&y, &self.decoder_b, |a, b| a + b);
        let alpha = self.alpha;
        y.map(|v| 1.0 / (1.0 + (-v).exp()))
            .map(|v| v * alpha)
            .reshaped(vec![bsz, n, m])
    }

    /// Tape-free forward: the predicted rating matrix `[n, m]`.
    pub(crate) fn forward_nograd(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
    ) -> HireResult<NdArray> {
        let n = ctx.n();
        let m = ctx.m();
        let h = self.encode(ctx, dataset)?;
        let e = self.embed_dim();
        let x = self.run_blocks(h.reshaped(vec![1, n, m, e]), 1, n, m);
        Ok(self.decode(&x, 1, n, m).reshaped(vec![n, m]))
    }

    /// Batched tape-free forward over contexts of identical shape, with a
    /// deadline budget: one `[n, m]` prediction matrix per context, each
    /// bit-identical to the single-context [`Self::forward_nograd`]. The
    /// forward checks the clock between per-context encodes and before the
    /// block stack, and returns `Ok(None)` if the deadline passed — so a
    /// serving worker never sinks a full forward into a query that already
    /// timed out. (The block stack itself runs to completion once started;
    /// encode dominates setup cost and the checks bound the overshoot to
    /// one stacked forward.)
    ///
    /// Per-context encodes fan out across the `hire-par` pool, each writing
    /// its own disjoint slab of the stacked input — so the encoded batch
    /// (and everything downstream) stays bit-identical for any thread
    /// count. A deadline hit on any worker raises a shared flag; encode
    /// errors are reported in ascending context order and take precedence
    /// over the (wall-clock-dependent) deadline outcome.
    pub(crate) fn forward_nograd_batch_within(
        &self,
        ctxs: &[&PredictionContext],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> HireResult<Option<Vec<NdArray>>> {
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        let Some(first) = ctxs.first() else {
            return Ok(Some(Vec::new()));
        };
        let (n, m) = (first.n(), first.m());
        let bsz = ctxs.len();
        let e = self.embed_dim();
        for ctx in ctxs {
            if ctx.n() != n || ctx.m() != m {
                return Err(HireError::invalid_data(
                    LABEL,
                    format!(
                        "batched contexts must share a shape: {}x{} vs {n}x{m}",
                        ctx.n(),
                        ctx.m()
                    ),
                ));
            }
        }
        let slab = n * m * e;
        let mut stacked = vec![0.0f32; bsz * slab];
        let total = stacked.len();
        let stacked_ptr = hire_par::SendPtr(stacked.as_mut_ptr());
        let timed_out = AtomicBool::new(false);
        let outcomes: Vec<HireResult<()>> = hire_par::parallel_map_chunks(bsz, 1, |rr| {
            for bi in rr {
                if timed_out.load(Ordering::Relaxed) || expired() {
                    timed_out.store(true, Ordering::Relaxed);
                    return Ok(());
                }
                let h = self.encode(ctxs[bi], dataset)?;
                debug_assert_eq!(h.numel(), slab, "encoded context {bi} is not one slab");
                debug_assert!((bi + 1) * slab <= total, "slab {bi} ends past the stack");
                // SAFETY: chunks partition `0..bsz`, so each `bi` is visited
                // once and its slab `[bi * slab, (bi + 1) * slab)` is
                // disjoint from every other and inside `stacked`.
                unsafe { stacked_ptr.slice_mut(bi * slab, slab) }.copy_from_slice(h.as_slice());
            }
            Ok(())
        });
        for outcome in outcomes {
            outcome?;
        }
        if timed_out.load(Ordering::Relaxed) || expired() {
            return Ok(None);
        }
        let x = self.run_blocks(NdArray::from_vec(vec![bsz, n, m, e], stacked), bsz, n, m);
        let out = self.decode(&x, bsz, n, m);
        Ok(Some(
            out.as_slice()
                .chunks(n * m)
                .map(|chunk| NdArray::from_vec(vec![n, m], chunk.to_vec()))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::{FrozenModel, QuantizedModel};
    use hire_core::{HireConfig, HireModel};
    use hire_data::{training_context, PredictionContext, SyntheticConfig};
    use hire_graph::NeighborhoodSampler;
    use hire_par::{with_pool, ThreadPool};
    use hire_tensor::{QuantMode, QuantizedTensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// One code path: the quantized forward *is* the f32 forward, so a
    /// `FrozenModel` over the dequantized weights agrees with the
    /// `QuantizedModel` to the bit at whole-model level — single and
    /// batched, both modes, pools of 1 and 4 threads.
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
        for mode in [QuantMode::Int8, QuantMode::F16] {
            let quant = QuantizedModel::from_frozen(&frozen, mode);
            assert!(quant.max_weight_err() > 0.0, "random weights must round");
            let oracle = FrozenModel {
                weights: quant.weights.map(QuantizedTensor::dequantize),
                config: config.clone(),
            };
            for threads in [1, 4] {
                with_pool(&Arc::new(ThreadPool::new(threads)), || {
                    for ctx in &ctxs {
                        let got = quant.forward_nograd(ctx, &dataset).expect("quantized");
                        let want = oracle.forward_nograd(ctx, &dataset).expect("f32");
                        assert_eq!(got.as_slice(), want.as_slice(), "{mode:?}/{threads}");
                    }
                    let got = quant
                        .forward_nograd_batch_within(&batch, &dataset, None)
                        .expect("quantized batch");
                    let want = oracle
                        .forward_nograd_batch_within(&batch, &dataset, None)
                        .expect("f32 batch");
                    assert_eq!(got, want, "{mode:?}/{threads} batched");
                });
            }
        }
    }
}
