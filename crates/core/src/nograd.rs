//! The one tape-free HIM forward: context encode → MBU/MBI/MBA attention
//! → `α·sigmoid` decoder (Eq. 16), written once over [`HimWeights`], f32
//! throughout.
//!
//! [`crate::FrozenModel`] is a `HimWeights` plus its configuration, and
//! [`crate::HireModel::predict`] runs it over the live model's exported
//! weights; [`crate::QuantizedModel`] is a `FrozenModel` whose weight
//! matrices were rounded through int8 when it was built, so it runs this
//! same code over other numbers.
//!
//! # Shape of the computation
//!
//! One context at a time. A call owns one workspace, sized for the largest
//! context it is given and freed on return: two `[n·m, e]` activation
//! buffers and the largest MHSA workspace a layer asks for on the
//! dispatched ISA (MBU / MBI's Q, K and V buffers; MBA, which runs in one
//! pass, asks for a few lane groups' panels); a batch is a loop over its
//! contexts through that one workspace. A context is encoded straight into
//! the first buffer. Every attention layer then reads all `n·m` rows (MBA:
//! all `n·m·h` attribute rows) — projection is row-wise, so MBU, MBI and
//! MBA differ only in the `[outer, tokens, inner]` view handed to
//! `hire_nn::mhsa_forward_into`: `[1, n, m]` (tokens = users), `[n, m, 1]`
//! (tokens = items), `[n·m, h, 1]` (tokens = attributes). Nothing is ever
//! permuted. The layer's output lands in the second buffer; residual +
//! LayerNorm fold it back, and the two buffers swap roles when a layer has
//! no norm.
//!
//! Per element this is the arithmetic of the autograd forward on the same
//! ISA (DESIGN.md §9, §16), so a frozen model is **bit-identical** to the
//! tape forward of the live model it was exported from (`hire-serve`'s
//! `tests/equivalence.rs`). Everything runs on the calling thread
//! (DESIGN.md §11): a `Server` worker owns its batch's forwards from encode
//! to decode.

use hire_data::{Dataset, PredictionContext};
use hire_error::{HireError, HireResult};
use hire_nn::{mhsa_forward_into, mhsa_workspace_len, MhsaWeights};
use hire_tensor::simd::{self, Isa};
use hire_tensor::{linalg, NdArray};
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

/// One HIM block's weights (the no-grad mirror of [`crate::HimBlock`]).
#[derive(Debug, Clone)]
pub(crate) struct BlockWeights {
    pub(crate) mbu: Option<MhsaWeights>,
    pub(crate) mbi: Option<MhsaWeights>,
    pub(crate) mba: Option<MhsaWeights>,
    pub(crate) norm_mbu: Option<Norm>,
    pub(crate) norm_mbi: Option<Norm>,
    pub(crate) norm_mba: Option<Norm>,
    pub(crate) residual: bool,
}

/// A HIRE model's weights, plus the dataset schema facts needed to encode
/// contexts: what the tape-free forward runs on. Built by
/// [`crate::FrozenModel`]; [`Self::map`] rewrites its weight matrices.
#[derive(Debug, Clone)]
pub(crate) struct HimWeights {
    pub(crate) user_embeddings: Vec<NdArray>,
    pub(crate) item_embeddings: Vec<NdArray>,
    pub(crate) rating_embedding: NdArray,
    pub(crate) blocks: Vec<BlockWeights>,
    pub(crate) decoder_w: NdArray,
    pub(crate) decoder_b: NdArray,
    /// Output scale α of Eq. (16).
    pub(crate) alpha: f32,
    pub(crate) min_rating: f32,
    pub(crate) rating_levels: usize,
    pub(crate) user_id_only: bool,
    pub(crate) item_id_only: bool,
    pub(crate) attr_dim: usize,
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

/// Row `index` of an embedding table `[v, f]`.
fn row(table: &NdArray, index: usize) -> &[f32] {
    let (v, f) = (table.dims()[0], table.dims()[1]);
    assert!(index < v, "row index {index} out of range {v}");
    &table.as_slice()[index * f..][..f]
}

/// Writes one entity's attribute features — each table's embedding row,
/// concatenated — into `out: [tables.len() * f]`. ID-only schemas have a
/// single table indexed by the entity id itself.
fn entity_features(
    tables: &[NdArray],
    id: usize,
    id_only: bool,
    attrs: &[Vec<usize>],
    out: &mut [f32],
) {
    let f = out.len() / tables.len().max(1);
    for (k, (emb, dst)) in tables.iter().zip(out.chunks_exact_mut(f)).enumerate() {
        dst.copy_from_slice(row(emb, if id_only { id } else { attrs[id][k] }));
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
type Layer<'a> = (&'a Option<MhsaWeights>, &'a Option<Norm>, [usize; 3]);

impl HimWeights {
    /// The same model with every weight matrix converted by `f`, in
    /// `HireModel::parameters()` order; vectors (norms, decoder bias) and
    /// schema facts are copied. This is the whole of quantization.
    pub(crate) fn map(&self, mut f: impl FnMut(&NdArray) -> NdArray) -> HimWeights {
        let user_embeddings = self.user_embeddings.iter().map(&mut f).collect();
        let item_embeddings = self.item_embeddings.iter().map(&mut f).collect();
        let rating_embedding = f(&self.rating_embedding);
        let blocks = self
            .blocks
            .iter()
            .map(|b| BlockWeights {
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
                    let level = level.min(self.rating_levels - 1);
                    dst.copy_from_slice(row(&self.rating_embedding, level));
                } else {
                    for (v, &r) in dst.iter_mut().zip(row(&self.rating_embedding, 0)) {
                        *v = r * 0.0;
                    }
                }
            }
        }
        Ok(())
    }

    /// The three attention layers of one block, each with the view it
    /// takes of the n·m cell rows; MBA's rows are the `h` attribute slices
    /// of every cell.
    fn layers<'a>(&self, block: &'a BlockWeights, n: usize, m: usize) -> [Layer<'a>; 3] {
        [
            (&block.mbu, &block.norm_mbu, [1, n, m]),
            (&block.mbi, &block.norm_mbi, [n, m, 1]),
            (&block.mba, &block.norm_mba, [n * m, self.num_attrs(), 1]),
        ]
    }

    /// Floats of working memory one `n × m` context needs on `isa`: two
    /// activation buffers and the largest MHSA workspace any layer asks for.
    fn memory_len(&self, n: usize, m: usize, isa: Isa) -> usize {
        let attention = self
            .blocks
            .iter()
            .flat_map(|block| self.layers(block, n, m))
            .filter_map(|(w, _, view)| w.as_ref().map(|w| mhsa_workspace_len(view, w, isa)))
            .max()
            .unwrap_or(0);
        2 * n * m * self.embed_dim() + attention
    }

    /// HIM blocks over one context `[n, m, e]` held in `x`, with `y` as the
    /// second activation buffer; returns the two in their final roles,
    /// `(result, spare)`.
    fn run_blocks<'a>(
        &self,
        mut x: &'a mut [f32],
        mut y: &'a mut [f32],
        workspace: &mut [f32],
        n: usize,
        m: usize,
        isa: Isa,
    ) -> (&'a mut [f32], &'a mut [f32]) {
        for block in &self.blocks {
            for (w, norm, view) in self.layers(block, n, m) {
                if let Some(w) = w {
                    mhsa_forward_into(x, view, w, isa, workspace, y);
                    post(&mut x, &mut y, block.residual, norm, isa);
                }
            }
        }
        (x, y)
    }

    /// Decoder: `α · sigmoid(H W + b)` over the `n·m` cells of `x`, using
    /// `logits` (at least `n·m` floats) as its buffer.
    fn decode(&self, x: &[f32], logits: &mut [f32], n: usize, m: usize, isa: Isa) -> NdArray {
        let logits = &mut logits[..n * m];
        linalg::linear_into(&self.decoder_w, x, logits, isa);
        let (bias, alpha) = (self.decoder_b.as_slice()[0], self.alpha);
        for v in logits.iter_mut() {
            *v = 1.0 / (1.0 + (-(*v + bias)).exp()) * alpha;
        }
        NdArray::from_vec(vec![n, m], logits.to_vec())
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

    /// Tape-free forward over a batch of contexts of any shapes, with a
    /// deadline budget (`FrozenModel::forward_nograd_batch_within`): one
    /// `[n, m]` prediction matrix per context, each the single-context
    /// [`Self::forward_nograd`] (the batch is a loop over it, through one
    /// workspace sized for the largest context).
    pub(crate) fn forward_nograd_batch_within(
        &self,
        ctxs: &[&PredictionContext],
        dataset: &Dataset,
        deadline: Option<Instant>,
    ) -> HireResult<Option<Vec<NdArray>>> {
        let isa = simd::active_isa();
        let most = ctxs
            .iter()
            .map(|c| self.memory_len(c.n(), c.m(), isa))
            .max();
        // The call's whole working memory, one allocation sized for its
        // largest context and reused by every context — plus 15 spare
        // floats to start it on a 64-byte boundary. Every buffer carved
        // from it is a multiple of 16 floats at HIM's shapes, so each
        // starts on one too.
        let mut memory = vec![0.0f32; most.unwrap_or(0) + 15];
        let skip = memory.as_ptr().align_offset(64).min(15);
        let memory = &mut memory[skip..];
        let mut preds = Vec::with_capacity(ctxs.len());
        for ctx in ctxs {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(None);
            }
            let (n, m) = (ctx.n(), ctx.m());
            let slab = n * m * self.embed_dim();
            let (x, rest) = memory.split_at_mut(slab);
            let (y, workspace) = rest.split_at_mut(slab);
            self.encode_into(ctx, dataset, x)?;
            let (hidden, spare) = self.run_blocks(x, y, workspace, n, m, isa);
            preds.push(self.decode(hidden, spare, n, m, isa));
        }
        Ok(Some(preds))
    }
}
