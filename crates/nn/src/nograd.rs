//! The MHSA forward, over plain slices and [`NdArray`]s.
//!
//! [`mhsa_forward_into`] is the one multi-head self-attention forward in
//! the workspace: the three projections land in `[rows, l·dk]` buffers,
//! `linalg::attention_into` reads each (batch, head) tile straight out of
//! them and writes the merged-head layout straight back over Q, and `W_O`
//! projects that. The serving path (`hire-serve`) calls it directly —
//! building a backward graph per query is pure overhead and `Tensor`'s `Rc`
//! interior forbids sharing across worker threads — and the tape's
//! [`crate::MultiHeadSelfAttention`] runs the same body as the forward of
//! its one autograd node, additionally keeping `Q` and the softmax rows for
//! its backward. A frozen model therefore agrees bit for bit with the live
//! model it was exported from by construction, on every ISA.
//! `tests/mhsa_oracle.rs` holds this forward to the unfused
//! `permute`/`bmm`/`softmax_last` composition it replaced, per element
//! (DESIGN.md §16), over generated shapes.
//!
//! Projections and the attention tiles fan out over the `hire-par` pool in
//! shape-only chunks and stay bit-identical at every thread count
//! (DESIGN.md §11).

use hire_tensor::simd::{self, Isa};
use hire_tensor::{linalg, AttnGrid, NdArray, WeightMatrix};

/// Weights of one multi-head self-attention layer, stored as `W`: plain
/// f32 arrays by default, or a compressed format such as
/// `hire_tensor::QuantizedTensor` (activations stay f32 either way).
///
/// Layout matches [`crate::MultiHeadSelfAttention`]: `w_q`/`w_k`/`w_v` are
/// `[model_dim, heads * head_dim]`, `w_o` is `[heads * head_dim, model_dim]`.
/// The fields are public, so the forward re-checks that relation on every
/// call before any stride is derived from it.
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

    /// The attention geometry of this layer over rows laid out
    /// `[outer, tokens, inner]` (see [`AttnGrid`]). Panics unless all four
    /// projections agree with `heads`, `head_dim` and one model dim — the
    /// tile kernel derives its strides from these numbers.
    pub(crate) fn grid(&self, [outer, tokens, inner]: [usize; 3]) -> AttnGrid {
        let width = self.heads * self.head_dim;
        let d = self.model_dim();
        let qkv = [d, width];
        assert!(
            self.w_q.dims() == qkv
                && self.w_k.dims() == qkv
                && self.w_v.dims() == qkv
                && self.w_o.dims() == [width, d],
            "MHSA weights are inconsistent: {} heads x {} head_dim need w_q/w_k/w_v {qkv:?} \
             and w_o {:?}, got w_q {:?}, w_k {:?}, w_v {:?}, w_o {:?}",
            self.heads,
            self.head_dim,
            [width, d],
            self.w_q.dims(),
            self.w_k.dims(),
            self.w_v.dims(),
            self.w_o.dims(),
        );
        AttnGrid {
            outer,
            tokens,
            inner,
            heads: self.heads,
            head_dim: self.head_dim,
        }
    }
}

/// Multi-head self-attention forward without autograd.
///
/// Input `[batch, t, d]` (or `[t, d]`, treated as batch 1); output has the
/// same shape and is bit-identical to the tape path's. A convenience
/// wrapper that allocates the workspace and the output of
/// [`mhsa_forward_into`].
///
/// The four projections go through [`WeightMatrix::linear_into`], so the
/// one function serves every storage format: against quantized projections
/// it is bit-identical to running on the dequantized weights, at any
/// thread count.
pub fn mhsa_forward<W: WeightMatrix>(x: &NdArray, w: &MhsaWeights<W>) -> NdArray {
    mhsa_forward_with_isa(x, w, simd::active_isa())
}

/// [`mhsa_forward`] on an explicit ISA path (tests and benchmarks; `isa`
/// must be available on this host).
pub fn mhsa_forward_with_isa<W: WeightMatrix>(
    x: &NdArray,
    w: &MhsaWeights<W>,
    isa: Isa,
) -> NdArray {
    let layout = sequence_layout(x.dims(), w.model_dim());
    let mut workspace = vec![0.0f32; mhsa_workspace_len(layout, w)];
    let mut y = vec![0.0f32; x.numel()];
    mhsa_forward_into(x.as_slice(), layout, w, isa, &mut workspace, &mut y);
    NdArray::from_vec(x.shape().clone(), y)
}

/// The `[batch, t, 1]` layout of a `[t, d]` or `[batch, t, d]` input whose
/// tokens are its second-to-last axis.
pub(crate) fn sequence_layout(dims: &[usize], model_dim: usize) -> [usize; 3] {
    let (layout, d) = match *dims {
        [t, d] => ([1, t, 1], d),
        [b, t, d] => ([b, t, 1], d),
        ref dims => panic!("MHSA input must be [t, d] or [batch, t, d], got {dims:?}"),
    };
    assert_eq!(d, model_dim, "MHSA expected dim {model_dim}, got {d}");
    layout
}

/// Floats of workspace [`mhsa_forward_into`] needs for `layout`: the Q
/// (then merged-head output), K and V buffers plus the attention kernel's
/// scratch. A function of the shapes only.
pub fn mhsa_workspace_len<W: WeightMatrix>(layout: [usize; 3], w: &MhsaWeights<W>) -> usize {
    let grid = w.grid(layout);
    3 * grid.rows() * grid.width() + grid.scratch_len()
}

/// [`mhsa_forward`] over a flat activation buffer, into caller-provided
/// memory: `x` and `y` are `[rows, d]` with `rows = outer * tokens * inner`
/// laid out `layout = [outer, tokens, inner]` row-major, attention running
/// along `tokens` for every `(outer, inner)` pair independently.
///
/// Projections are row-wise, so which axis is the sequence only matters to
/// the attention tiles — and they take it as a stride. That is what lets
/// the HIM forward run MBU (`[B, n, m]`), MBI (`[B·n, m, 1]`) and MBA
/// (`[B·n·m, h, 1]`) over one activation buffer without ever permuting it.
/// `workspace` needs [`mhsa_workspace_len`] floats; its contents on entry
/// are irrelevant.
pub fn mhsa_forward_into<W: WeightMatrix>(
    x: &[f32],
    layout: [usize; 3],
    w: &MhsaWeights<W>,
    isa: Isa,
    workspace: &mut [f32],
    y: &mut [f32],
) {
    let grid = w.grid(layout);
    let proj = grid.rows() * grid.width();
    assert!(
        workspace.len() >= 3 * proj + grid.scratch_len(),
        "MHSA workspace holds {} floats, needs {}",
        workspace.len(),
        3 * proj + grid.scratch_len()
    );
    let (q, rest) = workspace.split_at_mut(proj);
    let (k, rest) = rest.split_at_mut(proj);
    let (v, scratch) = rest.split_at_mut(proj);
    mhsa_forward_over(x, &grid, w, isa, [q, k, v], scratch, y, None);
}

/// The body of [`mhsa_forward_into`], on buffers handed over one by one:
/// `qo`, `k` and `v` hold `rows * width` floats each and `scratch`
/// [`AttnGrid::scratch_len`]; `qo` ends as the merged-head attention output
/// `O` that `W_O` projects into `y`, `k` and `v` as the K and V
/// projections. `saved = (q, p)`, when given, receives the two things a
/// backward pass needs that the forward does not leave behind: the Q
/// projection (`O` replaces it) and the softmax rows
/// ([`AttnGrid::probs_len`] floats).
#[allow(clippy::too_many_arguments)]
pub(crate) fn mhsa_forward_over<W: WeightMatrix>(
    x: &[f32],
    grid: &AttnGrid,
    w: &MhsaWeights<W>,
    isa: Isa,
    [qo, k, v]: [&mut [f32]; 3],
    scratch: &mut [f32],
    y: &mut [f32],
    saved: Option<(&mut [f32], &mut [f32])>,
) {
    let d = w.model_dim();
    assert!(
        x.len() == grid.rows() * d && y.len() == x.len(),
        "MHSA over {grid:?} rows of dim {d} got x of {} floats, y of {}",
        x.len(),
        y.len()
    );
    w.w_q.linear_into(x, qo, isa);
    w.w_k.linear_into(x, k, isa);
    w.w_v.linear_into(x, v, isa);
    // Each (batch, head) tile's output replaces its Q.
    match saved {
        Some((q, probs)) => {
            q.copy_from_slice(qo);
            linalg::attention_probs_into_with_isa(grid, qo, k, v, probs, scratch, isa);
        }
        None => linalg::attention_into_with_isa(grid, qo, k, v, scratch, isa),
    }
    w.w_o.linear_into(qo, y, isa);
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
    #[should_panic(expected = "MHSA weights are inconsistent: 3 heads x 4 head_dim")]
    fn rejects_heads_that_disagree_with_the_projections() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng);
        // The projections are [8, 2*4]; claiming a third head would send
        // the tile kernel's strides past every row.
        let w = weights_of(&mhsa, 3, 4);
        mhsa_forward(&NdArray::randn([2, 5, 8], 0.0, 1.0, &mut rng), &w);
    }

    #[test]
    #[should_panic(expected = "MHSA weights are inconsistent")]
    fn rejects_an_output_projection_of_the_wrong_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng);
        let mut w = weights_of(&mhsa, 2, 4);
        w.w_o = NdArray::zeros([8, 6]);
        mhsa_forward(&NdArray::randn([2, 5, 8], 0.0, 1.0, &mut rng), &w);
    }

    #[test]
    #[should_panic(expected = "MHSA weights are inconsistent")]
    fn rejects_a_key_projection_narrower_than_the_query() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(16);
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng);
        let mut w = weights_of(&mhsa, 2, 4);
        w.w_k = NdArray::zeros([8, 4]);
        mhsa_forward(&NdArray::randn([2, 5, 8], 0.0, 1.0, &mut rng), &w);
    }

    #[test]
    fn quant_forward_matches_dequantized_f32_forward_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mhsa = MultiHeadSelfAttention::new(8, 2, 4, &mut rng);
        let w = weights_of(&mhsa, 2, 4);
        let x = NdArray::randn([2, 5, 8], 0.0, 1.0, &mut rng);
        let qw = w.map(|a| QuantizedTensor::quantize(a, QuantMode::Int8));
        // Oracle: run the f32 forward on the *dequantized* weights.
        let deq = qw.map(QuantizedTensor::dequantize);
        let got = mhsa_forward(&x, &qw);
        let want = mhsa_forward(&x, &deq);
        assert_eq!(got.as_slice(), want.as_slice());
        assert!(qw.w_q.max_err() > 0.0, "random weights must round");
    }
}
