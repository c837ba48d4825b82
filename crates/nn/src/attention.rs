//! Multi-head self-attention (Eq. (1)-(4) of the paper) with batched
//! parameter sharing — the building block of the Heterogeneous Interaction
//! Module — as **one** autograd node, of one of two kinds picked by the one
//! predicate serving picks its forward by, [`AttnGrid::one_pass`]:
//!
//! * a layer that runs in one pass (MBA on avx2 / avx512): the node's
//!   forward is serving's, [`crate::mhsa_forward_into`] into
//!   `linalg::mhsa_one_pass_into`, and it keeps nothing — its input is on
//!   the tape already. Its backward, [`linalg::mhsa_one_pass_backward`],
//!   recomputes what it reads a lane group of sequences at a time and
//!   backpropagates the group in the lanes.
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
//! tape and frozen outputs, and every gradient, are the bits whichever node
//! a layer gets. No head-split `permute`, no `Kᵀ`, no score tensor and none
//! of their gradients is ever materialised. [`AttentionOutput::weights`]
//! (Fig. 9) recomputes the softmax rows from the kept input.

use crate::module::Module;
use crate::nograd::{
    forward_aligned, mhsa_forward_over, sequence_layout, Intermediates, MhsaWeights,
};
use hire_tensor::autograd::BackwardFn;
use hire_tensor::simd::{self, Isa};
use hire_tensor::{init, linalg, AttnGrid, NdArray, Tensor};
use rand::Rng;

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

/// What the composition node keeps from its forward for its backward.
struct Saved {
    grid: AttnGrid,
    /// The Q, K and V projections, `[rows, width]` each.
    qkv: [Vec<f32>; 3],
    /// Softmax rows, `[outer * inner, heads, t, t]`.
    p: Vec<f32>,
    /// The merged-head attention output `W_O` projected, `[rows, width]`.
    o: NdArray,
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
        let g = &self.grid;
        let probs = self.inputs[0].with_value(|x| {
            with_weights(&self.inputs[1..], g.heads, g.head_dim, |w| {
                compose(x.as_slice(), g, w).1.p
            })
        });
        NdArray::from_vec([g.outer * g.inner, g.heads, g.tokens, g.tokens], probs)
    }
}

/// Lends the four projections `[w_q, w_k, w_v, w_o]` as plain arrays.
fn with_weights<R>(
    params: &[Tensor],
    heads: usize,
    head_dim: usize,
    f: impl FnOnce(&MhsaWeights<&NdArray>) -> R,
) -> R {
    params[0].with_value(|w_q| {
        params[1].with_value(|w_k| {
            params[2].with_value(|w_v| {
                params[3].with_value(|w_o| {
                    f(&MhsaWeights {
                        w_q,
                        w_k,
                        w_v,
                        w_o,
                        heads,
                        head_dim,
                    })
                })
            })
        })
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
    /// only the attention tiles see the layout, as a stride — which is how
    /// HIM runs MBU `[1, n, m]`, MBI `[n, m, 1]` and MBA `[n·m, h, 1]` over
    /// one `[n, m, e]` activation without permuting it.
    ///
    /// A layer that runs in one pass ([`AttnGrid::one_pass`]: MBA on avx2 /
    /// avx512) runs the serving forward and keeps nothing but its input,
    /// which is on the tape already; its backward recomputes what it reads
    /// ([`linalg::mhsa_one_pass_backward`]). Every other layer runs the
    /// composition and keeps Q, K, V, the softmax rows and `O` for its
    /// backward. Both backwards are the same bits.
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
        let (grid, value, backward) = x.with_value(|x| {
            with_weights(&inputs[1..], heads, head_dim, |w| {
                let grid = w.grid(layout);
                let (y, backward): (Vec<f32>, BackwardFn) = if grid.one_pass(w.model_dim(), isa) {
                    let y = forward_aligned(x.as_slice(), layout, w, isa);
                    let backward = move |g: &NdArray, parents: &[Tensor]| {
                        one_pass_backward(&grid, isa, g, parents)
                    };
                    (y, Box::new(backward))
                } else {
                    let (y, saved) = compose(x.as_slice(), &grid, w);
                    (
                        y,
                        Box::new(move |g: &NdArray, parents: &[Tensor]| {
                            backward(&saved, g, parents)
                        }),
                    )
                };
                (grid, NdArray::from_vec(x.shape().clone(), y), backward)
            })
        });
        let output = Tensor::from_op(value, inputs.clone(), backward);
        AttentionOutput {
            output,
            inputs,
            grid,
        }
    }
}

/// The composition over `x` (`[rows, d]` for `grid`): the projections, the
/// attention tiles with their softmax rows, `W_O` — the output, and what
/// the composition node's backward reads.
fn compose(x: &[f32], grid: &AttnGrid, w: &MhsaWeights<&NdArray>) -> (Vec<f32>, Saved) {
    let (rows, width) = (grid.rows(), grid.width());
    let buffer = || vec![0.0f32; rows * width];
    let (mut q, mut o, mut k, mut v) = (buffer(), buffer(), buffer(), buffer());
    let mut p = vec![0.0; grid.probs_len()];
    let mut y = vec![0.0; x.len()];
    mhsa_forward_over(
        x,
        grid,
        w,
        simd::active_isa(),
        &mut vec![0.0; grid.scratch_len()],
        &mut y,
        Some(Intermediates {
            qkv: [&mut q, &mut k, &mut v],
            o: &mut o,
            probs: &mut p,
        }),
    );
    let saved = Saved {
        grid: *grid,
        qkv: [q, k, v],
        p,
        o: NdArray::from_vec([rows, width], o),
    };
    (y, saved)
}

/// The one-pass node's backward: `g = dY`, `parents = [x, w_q, w_k, w_v,
/// w_o]` — [`linalg::mhsa_one_pass_backward`] over `x`, the one thing of
/// the forward it reads (`dX` skipped for an `x` that takes no gradient).
fn one_pass_backward(
    grid: &AttnGrid,
    isa: Isa,
    g: &NdArray,
    parents: &[Tensor],
) -> Vec<Option<NdArray>> {
    with_weights(&parents[1..], grid.heads, grid.head_dim, |w| {
        parents[0].with_value(|x| {
            let mut dx = parents[0].requires_grad().then(|| vec![0.0f32; x.numel()]);
            let weights = [w.w_q, w.w_k, w.w_v, w.w_o].map(NdArray::as_slice);
            let [d_wq, d_wk, d_wv, d_wo] = linalg::mhsa_one_pass_backward(
                grid,
                x.as_slice(),
                weights,
                g.as_slice(),
                dx.as_deref_mut(),
                isa,
            );
            let dx = dx.map(|dx| NdArray::from_vec(x.shape().clone(), dx));
            vec![dx, Some(d_wq), Some(d_wk), Some(d_wv), Some(d_wo)]
        })
    })
}

/// The composition node's backward: `g = dY`, `parents = [x, w_q, w_k, w_v,
/// w_o]`. With `O` the merged-head attention output (`Y = O·W_O`):
/// `dW_O = Oᵀ·dY`, `dO = dY·W_Oᵀ`, the tile kernel turns `dO` into `dQ`,
/// `dK`, `dV`, and with `G = [dQ | dK | dV]` and `W = [W_Q | W_K | W_V]`,
/// `[dW_Q | dW_K | dW_V] = Xᵀ·G` and `dX = G·Wᵀ` (skipped for an `x` that
/// takes no gradient).
fn backward(saved: &Saved, g: &NdArray, parents: &[Tensor]) -> Vec<Option<NdArray>> {
    let grid = &saved.grid;
    let (rows, width) = (grid.rows(), grid.width());
    let [q, k, v] = &saved.qkv;
    with_weights(&parents[1..], grid.heads, grid.head_dim, |w| {
        let d = w.model_dim();
        let dy = g.reshape([rows, d]);
        let d_wo = linalg::matmul2d_tn(&saved.o, &dy);
        let d_o = linalg::matmul2d_nt(&dy, w.w_o);
        // Overwritten in full by the tile kernel.
        let mut d_qkv = vec![0.0; rows * 3 * width];
        linalg::attention_backward_into_with_isa(
            grid,
            q,
            k,
            v,
            &saved.p,
            d_o.as_slice(),
            &mut d_qkv,
            simd::active_isa(),
        );
        let d_qkv = NdArray::from_vec([rows, 3 * width], d_qkv);
        let (dx, d_wqkv) = parents[0].with_value(|x| {
            let dx = parents[0].requires_grad().then(|| {
                let w_qkv = linalg::concat_last(&[w.w_q, w.w_k, w.w_v]);
                linalg::matmul2d_nt(&d_qkv, &w_qkv).reshaped(x.shape().clone())
            });
            (dx, linalg::matmul2d_tn(&x.reshape([rows, d]), &d_qkv))
        });
        let d_w = |which: usize| Some(linalg::slice_last(&d_wqkv, which * width, width));
        vec![dx, d_w(0), d_w(1), d_w(2), Some(d_wo)]
    })
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
