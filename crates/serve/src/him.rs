//! The one tape-free HIM forward: context encode → stacked MBU/MBI/MBA
//! attention → `α·sigmoid` decoder (Eq. 16), written once over
//! [`HimWeights<W>`] and generic over the weight storage format `W`
//! ([`hire_tensor::WeightMatrix`]).
//!
//! [`crate::FrozenModel`] is `HimWeights<NdArray>`, [`crate::QuantizedModel`]
//! is `HimWeights<QuantizedTensor>`; both forwards are monomorphised copies
//! of the code below. Nothing here knows which format it runs on — that is
//! decided inside `hire_tensor::linalg`, behind `WeightMatrix`. Embedding
//! rows, the MHSA projections and the decoder head read `W`; activations,
//! softmax, layer norms and biases are always f32.
//!
//! # Shape of the computation
//!
//! A call owns one workspace, sized from the shapes and freed on return:
//! two `[B·n·m, e]` activation buffers and one MHSA workspace, `B` at most
//! `STACK` contexts (a longer batch goes through it a stack at a time).
//! Contexts are encoded straight into the first buffer. Every attention layer then
//! projects all `B·n·m` rows (MBA: all `B·n·m·h` attribute rows) at once —
//! projection is row-wise, so MBU, MBI and MBA differ only in the
//! `[outer, tokens, inner]` view handed to `hire_nn::mhsa_forward_into`:
//! `[B, n, m]` (tokens = users), `[B·n, m, 1]` (tokens = items),
//! `[B·n·m, h, 1]` (tokens = attributes). Nothing is ever permuted. The
//! layer's output lands in the second buffer; residual + LayerNorm fold it
//! back, and the two buffers swap roles when a layer has no norm.
//!
//! Per element this is the arithmetic of the autograd forward on the same
//! ISA (DESIGN.md §9, §16), so the f32 instance is **bit-identical** to the
//! live model it was exported from (`tests/equivalence.rs`), and the
//! quantized instance is bit-identical to the f32 instance run on the
//! dequantized weights (unit test in `crate::quant`). Everything runs on the
//! calling thread (DESIGN.md §11): a `Server` worker owns its batch's
//! forward from encode to decode.

use hire_data::{Dataset, PredictionContext};
use hire_error::{HireError, HireResult};
use hire_nn::{mhsa_forward_into, mhsa_workspace_len, MhsaWeights};
use hire_tensor::simd::{self, Isa};
use hire_tensor::{linalg, NdArray, WeightMatrix};
use std::time::Instant;

/// `LayerNorm::new` hard-codes this epsilon; the no-grad mirror must match.
const LAYER_NORM_EPS: f32 = 1e-5;

/// Error context of everything the forward rejects.
const LABEL: &str = "HIM forward";

/// Contexts stacked into one pass of the block stack — `ServerConfig`'s
/// default `max_batch`, so a direct caller's larger batch works in the memory
/// a served one does (≈ 1 MiB a 16×16 context) instead of in proportion to
/// its length.
const STACK: usize = 8;

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

/// Writes one entity's attribute features — each table's embedding row,
/// concatenated — into `out: [tables.len() * f]`. ID-only schemas have a
/// single table indexed by the entity id itself.
fn entity_features<W: WeightMatrix>(
    tables: &[W],
    id: usize,
    id_only: bool,
    attrs: &[Vec<usize>],
    out: &mut [f32],
) {
    let f = out.len() / tables.len().max(1);
    for (k, (emb, dst)) in tables.iter().zip(out.chunks_exact_mut(f)).enumerate() {
        emb.row_into(if id_only { id } else { attrs[id][k] }, dst);
    }
}

/// Residual-add + optional LayerNorm, mirroring `HimBlock::post`, over the
/// two activation buffers: on entry `x` is the layer's input and `y` its
/// attention output; on return `x` is the block stack's next input (the
/// buffers swap roles instead of copying when there is no norm).
fn post<'a>(
    x: &mut &'a mut [f32],
    y: &mut &'a mut [f32],
    residual: bool,
    norm: &Option<Norm>,
    isa: Isa,
) {
    if residual {
        for (o, &a) in y.iter_mut().zip(x.iter()) {
            *o += a;
        }
    }
    match norm {
        Some(nm) => linalg::layer_norm_last_into(
            y,
            nm.gamma.as_slice(),
            nm.beta.as_slice(),
            LAYER_NORM_EPS,
            x,
            isa,
        ),
        None => std::mem::swap(x, y),
    }
}

/// One attention layer of a block: `(weights, norm, [outer, tokens, inner]
/// view of the activation rows)`; `None` weights mean the layer is ablated.
type Layer<'a, W> = (&'a Option<MhsaWeights<W>>, &'a Option<Norm>, [usize; 3]);

impl<W: WeightMatrix> HimWeights<W> {
    /// No-grad mirror of `ContextEncoder::encode`: `H ∈ R^{n×m×e}` written
    /// into `out`, cell `(i, j)` holding `[user_i attrs | item_j attrs |
    /// rating_ij]`.
    fn encode_into(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
        out: &mut [f32],
    ) -> HireResult<()> {
        let (n, m, f, e) = (ctx.n(), ctx.m(), self.attr_dim, self.embed_dim());
        check_ids("user", &ctx.users, dataset.num_users)?;
        check_ids("item", &ctx.items, dataset.num_items)?;
        let hu_f = self.user_embeddings.len() * f;
        let hi_f = self.item_embeddings.len() * f;
        debug_assert_eq!(out.len(), n * m * e);

        // Each user's features once, into its first cell; each item's once,
        // into the first row's cells; every other cell copies from those.
        for (i, &user) in ctx.users.iter().enumerate() {
            entity_features(
                &self.user_embeddings,
                user,
                self.user_id_only,
                &dataset.user_attrs,
                &mut out[i * m * e..][..hu_f],
            );
        }
        for (j, &item) in ctx.items.iter().enumerate() {
            entity_features(
                &self.item_embeddings,
                item,
                self.item_id_only,
                &dataset.item_attrs,
                &mut out[j * e + hu_f..][..hi_f],
            );
        }
        let (ratings, mask) = (ctx.ratings.as_slice(), ctx.input_mask.as_slice());
        for i in 0..n {
            for j in 0..m {
                let cell = (i * m + j) * e;
                if j > 0 {
                    out.copy_within(i * m * e..i * m * e + hu_f, cell);
                }
                if i > 0 {
                    out.copy_within(j * e + hu_f..j * e + hu_f + hi_f, cell + hu_f);
                }
                // Rating channel: a visible cell takes its level's
                // embedding; a masked cell takes row 0 times 0.0 — what the
                // tape encoder's gather-then-mask computes, so signed
                // zeros match too.
                let dst = &mut out[cell + hu_f + hi_f..cell + e];
                if mask[i * m + j] == 1.0 {
                    let level = (ratings[i * m + j] - self.min_rating).round() as usize;
                    self.rating_embedding
                        .row_into(level.min(self.rating_levels - 1), dst);
                } else {
                    self.rating_embedding.row_into(0, dst);
                    for v in dst.iter_mut() {
                        *v *= 0.0;
                    }
                }
            }
        }
        Ok(())
    }

    /// The three attention layers of one block, each with the view it
    /// takes of the B·n·m cell rows; MBA's rows are the `h` attribute slices
    /// of every cell.
    fn layers<'a>(
        &self,
        block: &'a HimBlock<W>,
        bsz: usize,
        n: usize,
        m: usize,
    ) -> [Layer<'a, W>; 3] {
        [
            (&block.mbu, &block.norm_mbu, [bsz, n, m]),
            (&block.mbi, &block.norm_mbi, [bsz * n, m, 1]),
            (
                &block.mba,
                &block.norm_mba,
                [bsz * n * m, self.num_attrs(), 1],
            ),
        ]
    }

    /// MHSA workspace floats the block stack needs for `bsz` contexts of
    /// `n × m` cells: the largest any layer asks for.
    fn attention_workspace_len(&self, bsz: usize, n: usize, m: usize) -> usize {
        self.blocks
            .iter()
            .flat_map(|block| self.layers(block, bsz, n, m))
            .filter_map(|(w, _, view)| w.as_ref().map(|w| mhsa_workspace_len(view, w)))
            .max()
            .unwrap_or(0)
    }

    /// HIM blocks over a batch of stacked contexts `[B, n, m, e]` held in
    /// `x`, with `y` as the second activation buffer; returns the two in
    /// their final roles, `(result, spare)`.
    ///
    /// Every MHSA call folds the batch axis into the attention batch, so
    /// each context's result is bit-identical to running it alone (all
    /// kernels are row- or tile-wise along the flattened axis).
    fn run_blocks<'a>(
        &self,
        mut x: &'a mut [f32],
        mut y: &'a mut [f32],
        workspace: &mut [f32],
        [bsz, n, m]: [usize; 3],
        isa: Isa,
    ) -> (&'a mut [f32], &'a mut [f32]) {
        for block in &self.blocks {
            for (w, norm, view) in self.layers(block, bsz, n, m) {
                if let Some(w) = w {
                    mhsa_forward_into(x, view, w, isa, workspace, y);
                    post(&mut x, &mut y, block.residual, norm, isa);
                }
            }
        }
        (x, y)
    }

    /// Decoder: `α · sigmoid(H W + b)` over the `rows` cells of `x`, using
    /// `logits` (at least `rows` floats) as its buffer.
    fn decode<'a>(&self, x: &[f32], logits: &'a mut [f32], rows: usize, isa: Isa) -> &'a [f32] {
        let logits = &mut logits[..rows];
        self.decoder_w.linear_into(x, logits, isa);
        let (bias, alpha) = (self.decoder_b.as_slice()[0], self.alpha);
        for v in logits.iter_mut() {
            *v = 1.0 / (1.0 + (-(*v + bias)).exp()) * alpha;
        }
        logits
    }

    /// Tape-free forward: the predicted rating matrix `[n, m]`.
    pub(crate) fn forward_nograd(
        &self,
        ctx: &PredictionContext,
        dataset: &Dataset,
    ) -> HireResult<NdArray> {
        let preds = self
            .forward_nograd_batch_within(&[ctx], dataset, None)?
            .expect("a forward without a deadline cannot time out");
        Ok(preds.into_iter().next().expect("one context in, one out"))
    }

    /// Batched tape-free forward over contexts of identical shape, with a
    /// deadline budget: one `[n, m]` prediction matrix per context, each
    /// bit-identical to the single-context [`Self::forward_nograd`]. The
    /// forward checks the clock between per-context encodes and before each
    /// pass of the block stack, and returns `Ok(None)` if the deadline
    /// passed — so a serving worker never sinks a full forward into a query
    /// that already timed out. (A pass runs to completion once started;
    /// encode dominates setup cost and the checks bound the overshoot to
    /// one pass over [`STACK`] contexts.)
    ///
    /// Contexts are encoded in order, each into its own slab of the stacked
    /// input, so the first bad context is the one reported — ahead of a
    /// deadline that passes after it.
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
        let (slab, most) = (n * m * e, ctxs.len().min(STACK));
        // The call's whole working memory: two activation buffers and the
        // MHSA workspace, one allocation, sized by the shapes alone.
        let mut memory = vec![0.0f32; 2 * most * slab + self.attention_workspace_len(most, n, m)];
        let isa = simd::active_isa();
        let mut preds = Vec::with_capacity(ctxs.len());
        for stack in ctxs.chunks(STACK) {
            let total = stack.len() * slab;
            let (x, rest) = memory.split_at_mut(total);
            let (y, workspace) = rest.split_at_mut(total);
            for (bi, ctx) in stack.iter().enumerate() {
                if expired() {
                    return Ok(None);
                }
                self.encode_into(ctx, dataset, &mut x[bi * slab..(bi + 1) * slab])?;
            }
            if expired() {
                return Ok(None);
            }
            let (hidden, spare) = self.run_blocks(x, y, workspace, [stack.len(), n, m], isa);
            let out = self.decode(hidden, spare, stack.len() * n * m, isa);
            preds.extend(
                out.chunks(n * m)
                    .map(|chunk| NdArray::from_vec(vec![n, m], chunk.to_vec())),
            );
        }
        Ok(Some(preds))
    }
}
