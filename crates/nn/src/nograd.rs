//! Inference-only (no autograd tape) forward passes over plain [`NdArray`]s.
//!
//! These kernels mirror the tape-based modules operation for operation —
//! same linalg kernels, same order — so a frozen model produces
//! bit-identical outputs to the live model it was exported from. They exist
//! for the serving path (`hire-serve`), where building a backward graph per
//! query is pure overhead and `Tensor`'s `Rc` interior forbids sharing
//! across worker threads.
//!
//! Because these forwards bottom out in the same `linalg` kernels, they
//! inherit the parallel compute layer transitively: the matmuls, softmax,
//! and layer norms here fan out over the `hire-par` pool and stay
//! bit-identical at every thread count (DESIGN.md §11).

use hire_tensor::{linalg, NdArray, WeightMatrix};

/// Weights of one multi-head self-attention layer, stored as `W`: plain
/// f32 arrays by default, or a compressed format such as
/// `hire_tensor::QuantizedTensor` (activations stay f32 either way).
///
/// Layout matches [`crate::MultiHeadSelfAttention`]: `w_q`/`w_k`/`w_v` are
/// `[model_dim, heads * head_dim]`, `w_o` is `[heads * head_dim, model_dim]`.
#[derive(Debug, Clone)]
pub struct MhsaWeights<W = NdArray> {
    /// Query projection `[d, l*dk]`.
    pub w_q: W,
    /// Key projection `[d, l*dk]`.
    pub w_k: W,
    /// Value projection `[d, l*dk]`.
    pub w_v: W,
    /// Output projection `[l*dk, d]`.
    pub w_o: W,
    /// Number of attention heads `l`.
    pub heads: usize,
    /// Dimension of each head `dk`.
    pub head_dim: usize,
}

impl<W> MhsaWeights<W> {
    /// The same layer with every projection converted by `f` (called in
    /// `w_q`, `w_k`, `w_v`, `w_o` order) — how a layer is quantized, or
    /// dequantized back for an oracle.
    pub fn map<V>(&self, mut f: impl FnMut(&W) -> V) -> MhsaWeights<V> {
        MhsaWeights {
            w_q: f(&self.w_q),
            w_k: f(&self.w_k),
            w_v: f(&self.w_v),
            w_o: f(&self.w_o),
            heads: self.heads,
            head_dim: self.head_dim,
        }
    }
}

impl<W: WeightMatrix> MhsaWeights<W> {
    /// Model (input/output) dimension `d`, read off `w_q`.
    pub fn model_dim(&self) -> usize {
        self.w_q.dims()[0]
    }
}

/// Multi-head self-attention forward without autograd: the no-grad mirror
/// of `MultiHeadSelfAttention::run`.
///
/// Input `[batch, t, d]` (or `[t, d]`, treated as batch 1); output has the
/// same shape. Every intermediate uses the same `linalg` kernel the tape
/// path uses, in the same order, so f32 outputs are bit-identical to it.
///
/// The four projections go through [`WeightMatrix::linear_nd`], so the one
/// function serves every storage format: against quantized projections it
/// is bit-identical to running on the dequantized weights, at any thread
/// count.
pub fn mhsa_forward<W: WeightMatrix>(x: &NdArray, w: &MhsaWeights<W>) -> NdArray {
    let dims = x.dims().to_vec();
    assert!(
        dims.len() == 2 || dims.len() == 3,
        "MHSA input must be [t, d] or [batch, t, d], got {dims:?}"
    );
    let squeeze = dims.len() == 2;
    let (b, t, d) = if squeeze {
        (1, dims[0], dims[1])
    } else {
        (dims[0], dims[1], dims[2])
    };
    assert_eq!(
        d,
        w.model_dim(),
        "MHSA expected dim {}, got {d}",
        w.model_dim()
    );
    let x3 = if squeeze {
        x.reshape([1, t, d])
    } else {
        x.clone()
    };
    let l = w.heads;
    let dk = w.head_dim;

    // [b, t, l*dk] -> [b, l, t, dk] -> [b*l, t, dk]
    let split = |proj: NdArray| -> NdArray {
        linalg::permute(&proj.reshaped([b, t, l, dk]), &[0, 2, 1, 3]).reshaped([b * l, t, dk])
    };
    let q = split(w.w_q.linear_nd(&x3));
    let k = split(w.w_k.linear_nd(&x3));
    let v = split(w.w_v.linear_nd(&x3));

    // A = softmax(Q K^T / sqrt(dk))  : [b*l, t, t]
    let scale = 1.0 / (dk as f32).sqrt();
    let scores = linalg::bmm(&q, &linalg::transpose_last2(&k)).map(|s| s * scale);
    let attn = linalg::softmax_last(&scores);

    // [b*l, t, dk] -> [b, t, l*dk] -> W_O -> [b, t, d]
    let fused = linalg::permute(
        &linalg::bmm(&attn, &v).reshaped([b, l, t, dk]),
        &[0, 2, 1, 3],
    )
    .reshaped([b, t, l * dk]);
    let out = w.w_o.linear_nd(&fused);
    if squeeze {
        out.reshaped([t, d])
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::MultiHeadSelfAttention;
    use crate::module::Module;
    use hire_tensor::{QuantMode, QuantizedTensor, Tensor};
    use rand::SeedableRng;

    fn weights_of(mhsa: &MultiHeadSelfAttention, heads: usize, head_dim: usize) -> MhsaWeights {
        let p = mhsa.parameters();
        MhsaWeights {
            w_q: p[0].value(),
            w_k: p[1].value(),
            w_v: p[2].value(),
            w_o: p[3].value(),
            heads,
            head_dim,
        }
    }

    #[test]
    fn matches_tape_forward_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng);
        let w = weights_of(&mhsa, 2, 4);
        let x = NdArray::randn([3, 5, 8], 0.0, 1.0, &mut rng);
        let tape = mhsa.forward(&Tensor::constant(x.clone())).value();
        let nograd = mhsa_forward(&x, &w);
        assert_eq!(tape.dims(), nograd.dims());
        assert_eq!(
            tape.as_slice(),
            nograd.as_slice(),
            "outputs must be bit-identical"
        );
    }

    #[test]
    fn squeezes_rank2_input_like_tape_path() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mhsa = MultiHeadSelfAttention::new(6, 3, 2, &mut rng);
        let w = weights_of(&mhsa, 3, 2);
        let x = NdArray::randn([4, 6], 0.0, 1.0, &mut rng);
        let tape = mhsa.forward(&Tensor::constant(x.clone())).value();
        let nograd = mhsa_forward(&x, &w);
        assert_eq!(nograd.dims(), &[4, 6]);
        assert_eq!(tape.as_slice(), nograd.as_slice());
    }

    #[test]
    fn quant_forward_matches_dequantized_f32_forward_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng);
        let w = weights_of(&mhsa, 2, 4);
        let x = NdArray::randn([2, 5, 8], 0.0, 1.0, &mut rng);
        for mode in [QuantMode::Int8, QuantMode::F16] {
            let qw = w.map(|a| QuantizedTensor::quantize(a, mode));
            // Oracle: run the f32 forward on the *dequantized* weights.
            let deq = qw.map(QuantizedTensor::dequantize);
            let got = mhsa_forward(&x, &qw);
            let want = mhsa_forward(&x, &deq);
            assert_eq!(got.as_slice(), want.as_slice(), "{mode:?}");
            assert!(qw.w_q.max_err() > 0.0, "random weights must round");
        }
    }
}
