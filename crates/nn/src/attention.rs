//! Multi-head self-attention (Eq. (1)-(4) of the paper) with batched
//! parameter sharing — the building block of the Heterogeneous Interaction
//! Module — trained through two bodies, [`mhsa_train_forward`] and
//! [`mhsa_backward`], which both the tape's one-node layer here and
//! `hire-core`'s HIM stack node run. Which path a layer takes is the one
//! predicate serving picks its forward by, [`AttnGrid::one_pass`]:
//!
//! * a layer that runs in one pass (MBA on avx2 / avx512): the forward is
//!   serving's, `linalg::mhsa_one_pass_into`, and it keeps nothing but its
//!   input. Its backward, [`linalg::mhsa_one_pass_backward`], recomputes
//!   what it reads a lane group of sequences at a time and backpropagates
//!   the group in the lanes.
//! * every other layer (MBU / MBI; every layer on scalar): the forward is
//!   the composition, asked for the Q, K, V, `O` and softmax rows its
//!   backward reads, which is written out here over `hire_tensor::linalg`:
//!   two products around `W_O`, the attention tile kernel
//!   ([`linalg::attention_backward_into_with_isa`]) writing `[dQ | dK |
//!   dV]` side by side into one `[rows, 3·width]` buffer, then one `tn` and
//!   one `nt` product over it for the three input projections' weights and
//!   for `dX`.
//!
//! The two forwards are the same bits (`tests/mhsa_oracle.rs`), and so are
//! the two backwards: per element the one-pass backward runs the
//! composition backward's chains (`tests/mhsa_tape_oracle.rs` holds them
//! bitwise equal over generated shapes, both sides of the predicate), so
//! tape and frozen outputs, and every gradient, are the bits whichever path
//! a layer takes. No head-split `permute`, no `Kᵀ`, no score tensor and none
//! of their gradients is ever materialised, and every buffer between the
//! input and the returned gradients is reused memory ([`Scratch`]).
//! [`AttentionOutput::weights`] (Fig. 9) recomputes the softmax rows from
//! the kept input.

use crate::module::Module;
use crate::nograd::{
    mhsa_forward_over, mhsa_workspace_len, sequence_layout, Intermediates, MhsaWeights,
};
use hire_tensor::simd::{self, Isa};
use hire_tensor::{init, linalg, AttnGrid, NdArray, Scratch, Tensor};
use rand::Rng;
use std::borrow::Borrow;

/// Multi-head self-attention along one axis of its input.
///
/// [`Self::forward`] takes `[batch, t, d]` (or `[t, d]`, one sequence) and
/// attends along `t`; [`Self::forward_layout`] takes any row-major
/// `[outer, tokens, inner]` arrangement of `d`-wide rows and attends along
/// `tokens`. The output has the input's shape. All sequences share
/// parameters — exactly the "parameter-sharing MHSA processed in parallel"
/// of Eq. (10), (12), (14).
///
/// The layer contains no thread-aware code: its `hire_tensor::linalg`
/// kernels run on the calling thread, forward and backward alike, and each
/// output element is the dispatched ISA's chain (DESIGN.md §16) — the same
/// bits on every run.
pub struct MultiHeadSelfAttention {
    w_q: Tensor,
    w_k: Tensor,
    w_v: Tensor,
    w_o: Tensor,
    heads: usize,
    head_dim: usize,
    model_dim: usize,
}

/// What one layer's training forward ([`mhsa_train_forward`]) keeps for its
/// backward ([`mhsa_backward`]) beside its input, in one buffer of reused
/// memory ([`Scratch`]): nothing for a layer that ran in one pass, else the
/// composition's Q, K, V, merged-head output `O` (`[rows, width]` each) and
/// softmax rows ([`AttnGrid::probs_len`]), in that order.
pub struct MhsaKept {
    grid: AttnGrid,
    composition: Option<Scratch>,
}

impl MhsaKept {
    /// `[Q, K, V, O]` and the softmax rows, when the forward ran the
    /// composition.
    fn parts(&self) -> Option<([&[f32]; 4], &[f32])> {
        let proj = self.grid.rows() * self.grid.width();
        let (q, rest) = self.composition.as_ref()?.split_at(proj);
        let (k, rest) = rest.split_at(proj);
        let (v, rest) = rest.split_at(proj);
        let (o, probs) = rest.split_at(proj);
        Some(([q, k, v, o], probs))
    }

    /// The softmax rows, `[outer * inner, heads, tokens, tokens]`, when the
    /// forward ran the composition.
    pub fn probs(&self) -> Option<&[f32]> {
        self.parts().map(|(_, probs)| probs)
    }
}

/// The training forward of one layer: `y = MHSA(x)` over `x` laid out
/// `layout` (`[outer, tokens, inner]` rows of `d` floats), serving's
/// forward bit for bit, returning what [`mhsa_backward`] reads besides `x`.
/// A layer [`AttnGrid::one_pass`] picks runs in one pass and keeps nothing,
/// unless `probs` asks for its softmax rows (Fig. 9), which only the
/// composition forms; every other layer runs the composition into kept
/// buffers. `workspace` holds [`mhsa_workspace_len`] floats.
pub fn mhsa_train_forward<W: Borrow<NdArray>>(
    x: &[f32],
    layout: [usize; 3],
    w: &MhsaWeights<W>,
    isa: Isa,
    workspace: &mut [f32],
    y: &mut [f32],
    probs: bool,
) -> MhsaKept {
    let grid = w.grid(layout);
    if !probs && grid.one_pass(w.model_dim(), isa) {
        mhsa_forward_over(x, &grid, w, isa, workspace, y, None);
        return MhsaKept {
            grid,
            composition: None,
        };
    }
    let proj = grid.rows() * grid.width();
    let mut kept = Scratch::take(4 * proj + grid.probs_len());
    let (q, rest) = kept.split_at_mut(proj);
    let (k, rest) = rest.split_at_mut(proj);
    let (v, rest) = rest.split_at_mut(proj);
    let (o, probs) = rest.split_at_mut(proj);
    let saved = Intermediates {
        qkv: [q, k, v],
        o,
        probs,
    };
    mhsa_forward_over(x, &grid, w, isa, workspace, y, Some(saved));
    MhsaKept {
        grid,
        composition: Some(kept),
    }
}

/// The backward of [`mhsa_train_forward`]: from the layer's input `x`, its
/// weights, what the forward kept and `dy`, the gradient of its output, the
/// weight gradients `[dW_Q, dW_K, dW_V, dW_O]` into `d_w` (`[d, width]` ×3,
/// `[width, d]`) and, when `dx` is given, the input's — all overwritten.
///
/// A layer that ran in one pass takes
/// [`linalg::mhsa_one_pass_backward_into`], which recomputes what it reads
/// from `x`. The composition, with `O` the merged-head attention output
/// (`Y = O·W_O`): `dW_O = Oᵀ·dY`, `dO = dY·W_Oᵀ`, the tile kernel turns `dO`
/// into `G = [dQ | dK | dV]` side by side, and with `W = [W_Q | W_K | W_V]`,
/// `[dW_Q | dW_K | dW_V] = Xᵀ·G` and `dX = G·Wᵀ`. The two are the same bits
/// (`tests/mhsa_tape_oracle.rs`); every buffer between them is reused
/// memory.
pub fn mhsa_backward<W: Borrow<NdArray>>(
    x: &[f32],
    w: &MhsaWeights<W>,
    kept: &MhsaKept,
    dy: &[f32],
    dx: Option<&mut [f32]>,
    d_w: [&mut [f32]; 4],
    isa: Isa,
) {
    let grid = &kept.grid;
    let [w_q, w_k, w_v, w_o] = [&w.w_q, &w.w_k, &w.w_v, &w.w_o].map(|w| w.borrow().as_slice());
    let Some(([q, k, v, o], probs)) = kept.parts() else {
        return linalg::mhsa_one_pass_backward_into(
            grid,
            x,
            [w_q, w_k, w_v, w_o],
            dy,
            dx,
            d_w,
            isa,
        );
    };
    let [d_wq, d_wk, d_wv, d_wo] = d_w;
    let (rows, width, d) = (grid.rows(), grid.width(), w.model_dim());
    linalg::matmul_tn_into(o, dy, d_wo, rows, width, d);
    let mut d_o = Scratch::take(rows * width);
    linalg::matmul_nt_into(dy, w_o, &mut d_o, rows, d, width);
    // Overwritten in full by the tile kernel.
    let mut d_qkv = Scratch::take(rows * 3 * width);
    linalg::attention_backward_into_with_isa(grid, q, k, v, probs, &d_o, &mut d_qkv, isa);
    if let Some(dx) = dx {
        let mut w_qkv = Scratch::take(d * 3 * width);
        for (row, e) in w_qkv.chunks_exact_mut(3 * width).zip(0..d) {
            for (part, w) in row.chunks_exact_mut(width).zip([w_q, w_k, w_v]) {
                part.copy_from_slice(&w[e * width..][..width]);
            }
        }
        linalg::matmul_nt_into(&d_qkv, &w_qkv, dx, rows, 3 * width, d);
    }
    let mut d_wqkv = Scratch::take(d * 3 * width);
    linalg::matmul_tn_into(x, &d_qkv, &mut d_wqkv, rows, d, 3 * width);
    for (which, d_w) in [d_wq, d_wk, d_wv].into_iter().enumerate() {
        for (out, row) in d_w
            .chunks_exact_mut(width)
            .zip(d_wqkv.chunks_exact(3 * width))
        {
            out.copy_from_slice(&row[which * width..][..width]);
        }
    }
}

/// Output of a forward pass; also exposes the attention weights.
pub struct AttentionOutput {
    /// Fused embeddings, same shape as the input.
    pub output: Tensor,
    /// The layer's input and projections, `[x, w_q, w_k, w_v, w_o]`.
    inputs: Vec<Tensor>,
    grid: AttnGrid,
}

impl AttentionOutput {
    /// Attention weights `[batch, heads, t, t]` (detached values; for a
    /// `[outer, tokens, inner]` layout, `batch = outer * inner` in that
    /// order): the composition's softmax rows, recomputed from the layer's
    /// input and its weights as they are when this is called — the rows the
    /// forward multiplied into `V`, bit for bit, until an optimiser step
    /// moves the weights.
    pub fn weights(&self) -> NdArray {
        let (g, isa) = (&self.grid, simd::active_isa());
        let layout = [g.outer, g.tokens, g.inner];
        let probs = self.inputs[0].with_value(|x| {
            with_weights(&self.inputs[1..], g.heads, g.head_dim, |w| {
                let mut workspace = Scratch::take(mhsa_workspace_len(layout, w, isa));
                let mut y = Scratch::take(x.numel());
                let kept =
                    mhsa_train_forward(x.as_slice(), layout, w, isa, &mut workspace, &mut y, true);
                kept.probs()
                    .expect("the composition keeps its rows")
                    .to_vec()
            })
        });
        NdArray::from_vec([g.outer * g.inner, g.heads, g.tokens, g.tokens], probs)
    }
}

/// Lends the four projections `params = [w_q, w_k, w_v, w_o]` as plain
/// arrays.
fn with_weights<R>(
    params: &[Tensor],
    heads: usize,
    head_dim: usize,
    f: impl FnOnce(&MhsaWeights<&NdArray>) -> R,
) -> R {
    let [w_q, w_k, w_v, w_o] = [0, 1, 2, 3].map(|i| params[i].borrow_value());
    f(&MhsaWeights {
        w_q: &*w_q,
        w_k: &*w_k,
        w_v: &*w_v,
        w_o: &*w_o,
        heads,
        head_dim,
    })
}

impl MultiHeadSelfAttention {
    /// Creates an MHSA layer with `heads` heads of `head_dim` dims each.
    ///
    /// The paper's default is 8 heads x 16 dims on a 128-dim model.
    pub fn new(model_dim: usize, heads: usize, head_dim: usize, rng: &mut impl Rng) -> Self {
        assert!(heads > 0 && head_dim > 0 && model_dim > 0);
        let inner = heads * head_dim;
        MultiHeadSelfAttention {
            w_q: Tensor::parameter(init::xavier_uniform(model_dim, inner, rng)),
            w_k: Tensor::parameter(init::xavier_uniform(model_dim, inner, rng)),
            w_v: Tensor::parameter(init::xavier_uniform(model_dim, inner, rng)),
            w_o: Tensor::parameter(init::xavier_uniform(inner, model_dim, rng)),
            heads,
            head_dim,
            model_dim,
        }
    }

    /// Applies self-attention along the second-to-last axis of a `[t, d]`
    /// or `[batch, t, d]` input.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_with_weights(x).output
    }

    /// [`Self::forward`], keeping the handle the per-head attention weights
    /// are read from (used by the paper's case study, Fig. 9).
    pub(crate) fn forward_with_weights(&self, x: &Tensor) -> AttentionOutput {
        let layout = x.with_value(|x| sequence_layout(x.dims(), self.model_dim));
        self.forward_layout(x, layout)
    }

    /// Applies self-attention along `tokens` of `x` read as
    /// `outer * tokens * inner` row-major rows of `model_dim` floats (its
    /// shape is otherwise free, and the output's is the same): every
    /// `(outer, inner)` pair is one sequence. Projections are row-wise, so
    /// only the attention tiles see the layout, as a stride.
    ///
    /// One autograd node over [`mhsa_train_forward`] and [`mhsa_backward`]:
    /// a layer that runs in one pass ([`AttnGrid::one_pass`]: MBA on avx2 /
    /// avx512) keeps nothing but its input, which is on the tape already;
    /// every other layer keeps Q, K, V, the softmax rows and `O`. Both
    /// backwards are the same bits.
    pub fn forward_layout(&self, x: &Tensor, layout: [usize; 3]) -> AttentionOutput {
        let (heads, head_dim) = (self.heads, self.head_dim);
        let inputs = vec![
            x.clone(),
            self.w_q.clone(),
            self.w_k.clone(),
            self.w_v.clone(),
            self.w_o.clone(),
        ];
        let isa = simd::active_isa();
        let (value, kept) = x.with_value(|x| {
            with_weights(&inputs[1..], heads, head_dim, |w| {
                let mut y = NdArray::zeros(x.shape().clone());
                let mut workspace = Scratch::take(mhsa_workspace_len(layout, w, isa));
                let kept = mhsa_train_forward(
                    x.as_slice(),
                    layout,
                    w,
                    isa,
                    &mut workspace,
                    y.as_mut_slice(),
                    false,
                );
                (y, kept)
            })
        });
        let grid = kept.grid;
        let backward = move |g: &NdArray, parents: &[Tensor]| {
            with_weights(&parents[1..], heads, head_dim, |w| {
                parents[0].with_value(|x| {
                    let mut dx = parents[0]
                        .requires_grad()
                        .then(|| NdArray::zeros(x.shape().clone()));
                    let dx_rows = dx.as_mut().map(NdArray::as_mut_slice);
                    let mut d_w = [1, 2, 3, 4].map(|i| NdArray::zeros(parents[i].shape()));
                    let [d_wq, d_wk, d_wv, d_wo] = &mut d_w;
                    let outs = [d_wq, d_wk, d_wv, d_wo].map(NdArray::as_mut_slice);
                    mhsa_backward(x.as_slice(), w, &kept, g.as_slice(), dx_rows, outs, isa);
                    let [d_wq, d_wk, d_wv, d_wo] = d_w;
                    vec![dx, Some(d_wq), Some(d_wk), Some(d_wv), Some(d_wo)]
                })
            })
        };
        let output = Tensor::from_op(value, inputs.clone(), Box::new(backward));
        AttentionOutput {
            output,
            inputs,
            grid,
        }
    }
}

impl Module for MultiHeadSelfAttention {
    fn parameters(&self) -> Vec<Tensor> {
        vec![
            self.w_q.clone(),
            self.w_k.clone(),
            self.w_v.clone(),
            self.w_o.clone(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn output_shape_matches_input() {
        let mut r = rng();
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut r);
        let x = Tensor::constant(NdArray::randn([3, 5, 8], 0.0, 1.0, &mut r));
        assert_eq!(mhsa.forward(&x).dims(), vec![3, 5, 8]);
        let x2 = Tensor::constant(NdArray::randn([5, 8], 0.0, 1.0, &mut r));
        assert_eq!(mhsa.forward(&x2).dims(), vec![5, 8]);
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let mut r = rng();
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut r);
        let x = Tensor::constant(NdArray::randn([2, 4, 8], 0.0, 1.0, &mut r));
        let weights = mhsa.forward_with_weights(&x).weights();
        assert_eq!(weights.dims(), &[2, 2, 4, 4]);
        for row in 0..(2 * 2 * 4) {
            let s: f32 = weights.as_slice()[row * 4..(row + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {row} sums to {s}");
        }
    }

    /// Eq. (5): MHSA is equivariant to token permutation.
    #[test]
    fn permutation_equivariance() {
        let mut r = rng();
        let mhsa = MultiHeadSelfAttention::new(6, 3, 2, &mut r);
        let x = NdArray::randn([4, 6], 0.0, 1.0, &mut r);
        let y = mhsa.forward(&Tensor::constant(x.clone())).value();

        // permute tokens (rows) by [2, 0, 3, 1]
        let perm = [2usize, 0, 3, 1];
        let mut xp = NdArray::zeros([4, 6]);
        for (i, &p) in perm.iter().enumerate() {
            for j in 0..6 {
                *xp.at_mut(&[i, j]) = x.at(&[p, j]);
            }
        }
        let yp = mhsa.forward(&Tensor::constant(xp)).value();
        for (i, &p) in perm.iter().enumerate() {
            for j in 0..6 {
                assert!(
                    (yp.at(&[i, j]) - y.at(&[p, j])).abs() < 1e-4,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn batch_elements_are_independent() {
        let mut r = rng();
        let mhsa = MultiHeadSelfAttention::new(6, 2, 3, &mut r);
        let a = NdArray::randn([4, 6], 0.0, 1.0, &mut r);
        let b = NdArray::randn([4, 6], 0.0, 1.0, &mut r);
        let stacked = {
            let mut buf = a.as_slice().to_vec();
            buf.extend_from_slice(b.as_slice());
            NdArray::from_vec([2, 4, 6], buf)
        };
        let y_batch = mhsa.forward(&Tensor::constant(stacked)).value();
        let ya = mhsa.forward(&Tensor::constant(a)).value();
        let yb = mhsa.forward(&Tensor::constant(b)).value();
        assert!(NdArray::from_vec([4, 6], y_batch.as_slice()[..24].to_vec()).allclose(&ya, 1e-5));
        assert!(NdArray::from_vec([4, 6], y_batch.as_slice()[24..].to_vec()).allclose(&yb, 1e-5));
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let mut r = rng();
        let mhsa = MultiHeadSelfAttention::new(4, 2, 2, &mut r);
        let x = Tensor::constant(NdArray::randn([2, 3, 4], 0.0, 1.0, &mut r));
        mhsa.forward(&x).square().sum().backward();
        for (i, p) in mhsa.parameters().iter().enumerate() {
            let g = p.grad().expect("missing grad");
            assert!(g.norm_l2() > 0.0, "param {i} has zero grad");
        }
    }
}
