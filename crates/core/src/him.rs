//! The Heterogeneous Interaction Module (HIM, § IV-C): K stacked blocks of
//! three parameter-sharing MHSA layers modeling interactions between users
//! (MBU), between items (MBI) and between attributes (MBA), each followed
//! by its residual and LayerNorm — trained as **one** autograd node.
//!
//! [`HimStack::forward`] runs the serving forward's body
//! (`nograd::Stack::run_blocks`) over every cell of `H`, so the tape's
//! output is the frozen model's, bit for bit, and keeps what the backward
//! reads, per enabled layer: its input; for a layer that runs the
//! composition (MBU, MBI; every layer on scalar) its Q, K, V, `O` and
//! softmax rows; its norm's `xhat` and `inv_std`. A layer that runs in one
//! pass (MBA on avx2 / avx512) keeps only its input. The backward walks the
//! layers in reverse with the layers' own kernels — the layer norm
//! backward, the residual's pass-through, `hire_nn::mhsa_backward` — into
//! `dH` and each parameter's gradient: the gradients of the tape
//! composition of per-layer, per-residual and per-norm nodes this node
//! replaced, bit for bit, accumulated in the order the tape accumulated
//! them (`tests/him_node_oracle.rs` keeps that composition as its oracle).
//! Everything kept, and every buffer between, is reused memory
//! (`hire_tensor::Scratch`).

use crate::config::HireConfig;
use crate::nograd::{BlockWeights, KeptLayer, Norm, Stack};
use hire_nn::{mhsa_backward, MhsaWeights, Module};
use hire_tensor::simd::{self, Isa};
use hire_tensor::{init, linalg, NdArray, Scratch, Tensor};
use rand::Rng;
use std::cell::Ref;

/// Attention weights captured from one HIM block (for the Fig. 9 case
/// study). Empty arrays for disabled layers.
#[derive(Debug, Clone)]
pub struct HimAttention {
    /// MBU weights `[m, heads, n, n]` — user-user attention per item view.
    pub mbu: NdArray,
    /// MBI weights `[n, heads, m, m]` — item-item attention per user view.
    pub mbi: NdArray,
    /// MBA weights `[n*m, heads, h, h]` — attribute attention per pair.
    pub mba: NdArray,
}

/// The K HIM blocks of a model, over cells of `num_attrs` attribute rows
/// of `attr_dim` floats, as trainable parameters.
pub struct HimStack {
    blocks: Vec<BlockWeights<Tensor>>,
    num_attrs: usize,
    attr_dim: usize,
}

/// A layer of `model_dim` floats a row, initialised as
/// `hire_nn::MultiHeadSelfAttention::new` initialises one.
fn mhsa(model_dim: usize, config: &HireConfig, rng: &mut impl Rng) -> MhsaWeights<Tensor> {
    let (heads, head_dim) = (config.heads, config.head_dim);
    assert!(heads > 0 && head_dim > 0 && model_dim > 0);
    let inner = heads * head_dim;
    let mut w = |rows, cols| Tensor::parameter(init::xavier_uniform(rows, cols, rng));
    MhsaWeights {
        w_q: w(model_dim, inner),
        w_k: w(model_dim, inner),
        w_v: w(model_dim, inner),
        w_o: w(inner, model_dim),
        heads,
        head_dim,
    }
}

/// A layer norm over `dim` features, as `hire_nn::LayerNorm::new` builds
/// one (`gamma = 1`, `beta = 0`).
fn norm(dim: usize) -> Norm<Tensor> {
    Norm {
        gamma: Tensor::parameter(NdArray::ones([dim])),
        beta: Tensor::parameter(NdArray::zeros([dim])),
    }
}

/// Borrows every weight of `blocks` for one forward or backward.
fn borrow_values(blocks: &[BlockWeights<Tensor>]) -> Vec<BlockWeights<Ref<'_, NdArray>>> {
    blocks.iter().map(|b| b.map(Tensor::borrow_value)).collect()
}

/// Lends borrowed weights as the plain arrays a forward reads.
fn lend<'a>(values: &'a [BlockWeights<Ref<'_, NdArray>>]) -> Vec<BlockWeights<&'a NdArray>> {
    values.iter().map(|b| b.map(|v| &**v)).collect()
}

impl HimStack {
    /// `config.num_blocks` blocks for cells of `num_attrs` attribute rows,
    /// each block's enabled layers initialised in MBU, MBI, MBA order.
    pub fn new(config: &HireConfig, num_attrs: usize, rng: &mut impl Rng) -> Self {
        let (f, e) = (config.attr_dim, num_attrs * config.attr_dim);
        let blocks = (0..config.num_blocks)
            .map(|_| {
                let mbu = config.enable_mbu.then(|| mhsa(e, config, rng));
                let mbi = config.enable_mbi.then(|| mhsa(e, config, rng));
                let mba = config.enable_mba.then(|| mhsa(f, config, rng));
                let normed = |enabled: bool| (enabled && config.layer_norm).then(|| norm(e));
                BlockWeights {
                    mbu,
                    mbi,
                    mba,
                    norm_mbu: normed(config.enable_mbu),
                    norm_mbi: normed(config.enable_mbi),
                    norm_mba: normed(config.enable_mba),
                    residual: config.residual,
                }
            })
            .collect();
        HimStack {
            blocks,
            num_attrs,
            attr_dim: config.attr_dim,
        }
    }

    /// The blocks over `H ∈ R^{n×m×e}` (Eq. 10-15), as one autograd node
    /// (module docs).
    pub fn forward(&self, h: &Tensor) -> Tensor {
        self.run(h, false).0
    }

    /// [`Self::forward`], also returning every block's attention weights
    /// (Fig. 9). The prediction is the same bits: asking for the softmax
    /// rows only moves a layer that runs in one pass onto the composition,
    /// which computes the same output.
    pub fn forward_with_attention(&self, h: &Tensor) -> (Tensor, Vec<HimAttention>) {
        self.run(h, true)
    }

    fn stack<'a, W>(&self, blocks: &'a [BlockWeights<W>]) -> Stack<'a, W> {
        Stack {
            blocks,
            num_attrs: self.num_attrs,
            attr_dim: self.attr_dim,
        }
    }

    fn run(&self, h: &Tensor, probs: bool) -> (Tensor, Vec<HimAttention>) {
        let shape = h.shape();
        let [n, m, e] = h.dims()[..] else {
            panic!("HIM input must be [n, m, e], got {shape}");
        };
        assert_eq!(
            e,
            self.num_attrs * self.attr_dim,
            "embedding width mismatch"
        );
        let isa = simd::active_isa();
        let (value, kept) = {
            let values = borrow_values(&self.blocks);
            let lent = lend(&values);
            let stack = self.stack(&lent);
            h.with_value(|h| stack.forward_kept(h.as_slice(), n, m, isa, probs))
        };
        let attention = if probs {
            self.attention(&kept, n, m)
        } else {
            Vec::new()
        };
        let parents = std::iter::once(h.clone())
            .chain(self.parameters())
            .collect();
        let this = HimStack {
            blocks: self.blocks.clone(),
            ..*self
        };
        let backward = move |g: &NdArray, parents: &[Tensor]| this.backward(&kept, g, parents, isa);
        let output = Tensor::from_op(NdArray::from_vec(shape, value), parents, Box::new(backward));
        (output, attention)
    }

    /// Every block's softmax rows, from a forward that kept them.
    fn attention(&self, kept: &[KeptLayer], n: usize, m: usize) -> Vec<HimAttention> {
        let stack = self.stack(&self.blocks);
        let mut kept = kept.iter();
        self.blocks
            .iter()
            .map(|block| {
                let [mbu, mbi, mba] = block.layers().map(|(w, _, across)| {
                    let Some(w) = w else {
                        return NdArray::zeros([0]);
                    };
                    let [outer, tokens, inner] = stack.view(across, n, m, n * m);
                    let probs = kept.next().and_then(|k| k.mhsa.probs());
                    let probs = probs.expect("a forward asked for its softmax rows keeps them");
                    NdArray::from_vec([outer * inner, w.heads, tokens, tokens], probs.to_vec())
                });
                HimAttention { mbu, mbi, mba }
            })
            .collect()
    }

    /// The node's backward: from `g`, the gradient of the blocks' output,
    /// and `parents = [H, every parameter in Module order]`, `dH` (only if
    /// `H` takes one) and every parameter's gradient. The layers run in
    /// reverse: the norm's backward, the attention's, and with a residual
    /// the layer's input gradient is the norm's output gradient plus the
    /// attention's `dX`. A parameter's gradient goes where the tape would
    /// have put it ([`accumulate`]): added in place onto the one it has
    /// (another context's of the same batch), or returned as its first.
    fn backward(
        &self,
        kept: &[KeptLayer],
        g: &NdArray,
        parents: &[Tensor],
        isa: Isa,
    ) -> Vec<Option<NdArray>> {
        let values = borrow_values(&self.blocks);
        let lent = lend(&values);
        let stack = self.stack(&lent);
        let layers: Vec<_> = stack.enabled().collect();
        debug_assert_eq!(layers.len(), kept.len());
        // Where each enabled layer's `w_q`, and its norm's `gamma`, sit
        // among the parents: a block's layers' four weights each, then
        // their norms' two.
        let mut slots = Vec::with_capacity(layers.len());
        let mut next = 1;
        for block in &lent {
            let weights = block.layers().iter().filter(|(w, ..)| w.is_some()).count();
            let mut norm_at = next + 4 * weights;
            for (w, norm, _) in block.layers() {
                let gamma = norm.as_ref().map(|_| {
                    norm_at += 2;
                    norm_at - 2
                });
                if w.is_some() {
                    slots.push((next, gamma));
                    next += 4;
                }
            }
            next = norm_at;
        }

        let mut grads: Vec<Option<NdArray>> = (0..parents.len()).map(|_| None).collect();
        let want_dh = parents[0].requires_grad();
        let mut grad = Scratch::take(g.numel());
        grad.copy_from_slice(g.as_slice());
        let mut spare = Scratch::take(g.numel());
        for (k, (&(w, norm, _, residual), layer)) in layers.iter().zip(kept).enumerate().rev() {
            let (w_at, gamma_at) = slots[k];
            if let (Some(norm), Some((xhat, inv_std)), Some(at)) = (norm, layer.norm(), gamma_at) {
                let e = norm.gamma.numel();
                let mut d_norm = Scratch::take(2 * e);
                let (dgamma, dbeta) = d_norm.split_at_mut(e);
                linalg::layer_norm_backward_into(
                    xhat,
                    inv_std,
                    norm.gamma.as_slice(),
                    &grad,
                    [&mut spare, dgamma, dbeta],
                    isa,
                );
                for (i, d) in d_norm.chunks_exact(e).enumerate() {
                    accumulate(&parents[at + i], d, &mut grads[at + i]);
                }
                std::mem::swap(&mut grad, &mut spare);
            }
            let dx = (k > 0 || want_dh).then_some(&mut spare[..]);
            let more = dx.is_some();
            let len = w.w_q.numel();
            let mut d_w = Scratch::take(4 * len);
            let mut outs = d_w.chunks_exact_mut(len);
            let outs = [(); 4].map(|()| outs.next().expect("four weight gradients"));
            mhsa_backward(layer.input(), w, &layer.mhsa, &grad, dx, outs, isa);
            for (i, d) in d_w.chunks_exact(len).enumerate() {
                accumulate(&parents[w_at + i], d, &mut grads[w_at + i]);
            }
            if !more {
                break;
            }
            if residual {
                // The tape added `dX` onto the residual's `dz`; one f32 `+`
                // either way round is the same bits.
                for (dx, &dz) in spare.iter_mut().zip(grad.iter()) {
                    *dx += dz;
                }
            }
            std::mem::swap(&mut grad, &mut spare);
        }
        grads[0] = want_dh.then(|| NdArray::from_vec(g.shape().clone(), grad.to_vec()));
        grads
    }
}

/// Adds a parameter's gradient `d` into the one it has already — the
/// tape's `existing += d`, in place — or, when it has none yet, hands `d`
/// to the tape as its `slot`.
fn accumulate(param: &Tensor, d: &[f32], slot: &mut Option<NdArray>) {
    if param.with_grad(|g| g.is_some()) {
        param.update_grad(|g| {
            for (a, &b) in g.as_mut_slice().iter_mut().zip(d) {
                *a += b;
            }
        });
    } else {
        *slot = Some(NdArray::from_vec(param.shape(), d.to_vec()));
    }
}

impl Module for HimStack {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        for block in &self.blocks {
            block.map(|t| p.push(t.clone()));
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn config() -> HireConfig {
        HireConfig {
            attr_dim: 4,
            num_blocks: 1,
            heads: 2,
            head_dim: 4,
            context_users: 4,
            context_items: 3,
            input_ratio: 0.1,
            enable_mbu: true,
            enable_mbi: true,
            enable_mba: true,
            residual: true,
            layer_norm: true,
        }
    }

    fn input(n: usize, m: usize, e: usize, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::constant(NdArray::randn([n, m, e], 0.0, 1.0, &mut rng))
    }

    #[test]
    fn forward_preserves_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let stack = HimStack::new(&config(), 5, &mut rng);
        let h = input(4, 3, 20, 1);
        assert_eq!(stack.forward(&h).dims(), vec![4, 3, 20]);
    }

    #[test]
    fn attention_shapes_match_views() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let stack = HimStack::new(&config(), 5, &mut rng);
        let h = input(4, 3, 20, 2);
        let (_, attn) = stack.forward_with_attention(&h);
        assert_eq!(
            attn[0].mbu.dims(),
            &[3, 2, 4, 4],
            "item views x heads x users^2"
        );
        assert_eq!(
            attn[0].mbi.dims(),
            &[4, 2, 3, 3],
            "user views x heads x items^2"
        );
        assert_eq!(
            attn[0].mba.dims(),
            &[12, 2, 5, 5],
            "pairs x heads x attrs^2"
        );
    }

    #[test]
    fn ablated_layers_are_skipped() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let cfg = config().with_layers(false, true, false);
        let stack = HimStack::new(&cfg, 5, &mut rng);
        let h = input(4, 3, 20, 3);
        let (_, attn) = stack.forward_with_attention(&h);
        assert_eq!(attn[0].mbu.numel(), 0);
        assert!(attn[0].mbi.numel() > 0);
        assert_eq!(attn[0].mba.numel(), 0);
        // fewer params than the full stack
        let full = HimStack::new(&config(), 5, &mut rng);
        assert!(stack.num_parameters() < full.num_parameters());
    }

    #[test]
    fn gradients_flow_through_the_stack() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let stack = HimStack::new(&config(), 5, &mut rng);
        let h = input(4, 3, 20, 4);
        stack.forward(&h).square().sum().backward();
        for (i, p) in stack.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }

    /// Property 5.1: permuting users and items permutes the output the same
    /// way (per-stack version; the full-model test lives in the model
    /// module).
    #[test]
    fn stack_is_permutation_equivariant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let stack = HimStack::new(&config(), 5, &mut rng);
        let h_val = NdArray::randn([4, 3, 20], 0.0, 1.0, &mut rng);
        let out = stack.forward(&Tensor::constant(h_val.clone())).value();

        let user_perm = [2usize, 0, 3, 1];
        let item_perm = [1usize, 2, 0];
        let mut permuted = NdArray::zeros([4, 3, 20]);
        for (r, &pr) in user_perm.iter().enumerate() {
            for (c, &pc) in item_perm.iter().enumerate() {
                for d in 0..20 {
                    *permuted.at_mut(&[r, c, d]) = h_val.at(&[pr, pc, d]);
                }
            }
        }
        let out_p = stack.forward(&Tensor::constant(permuted)).value();
        for (r, &pr) in user_perm.iter().enumerate() {
            for (c, &pc) in item_perm.iter().enumerate() {
                for d in 0..20 {
                    let a = out_p.at(&[r, c, d]);
                    let b = out.at(&[pr, pc, d]);
                    assert!(
                        (a - b).abs() < 1e-3,
                        "mismatch at ({r},{c},{d}): {a} vs {b}"
                    );
                }
            }
        }
    }
}
