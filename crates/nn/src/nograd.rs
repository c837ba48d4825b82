//! The MHSA forward, over plain slices and [`NdArray`]s.
//!
//! [`mhsa_forward_into`] is the one multi-head self-attention forward in
//! the workspace, over one body, `mhsa_forward_over`, with two paths picked
//! by one predicate on the layer's shapes, [`AttnGrid::one_pass`]:
//!
//! * each head is at least as wide as the layer's rows (`model_dim <=
//!   head_dim`: MBA, over one attribute row of each cell at a time) and the
//!   ISA has lane kernels (avx2, avx512): `linalg::mhsa_one_pass_into` runs
//!   the layer in one pass, a lane group of sequences at a time, its Q, K,
//!   V and merged-head output never leaving registers and panels — where
//!   the line lies was measured, both paths forced on every HIM layer shape
//!   (DESIGN.md §9);
//! * otherwise, the composition: the three projections land in `[rows,
//!   l·dk]` buffers, `linalg::attention_into` reads each (batch, head) tile
//!   straight out of them and writes the merged-head layout straight back
//!   over Q, and `W_O` projects that.
//!
//! The one pass computes every output element by the composition's chain
//! (one accumulator from `+0.0`, one FMA per ascending index, heads folded
//! through `W_O` in column order; `hire_tensor::simd::attention` gives the
//! argument), so the two are the same bits, and `tests/mhsa_oracle.rs`
//! holds both — on both sides of the predicate, on every ISA — to the
//! unfused `permute`/`bmm`/`softmax_last` composition they replaced, per
//! element (DESIGN.md §16), over generated shapes.
//!
//! The serving path (`hire-serve`) calls [`mhsa_forward_into`] directly —
//! building a backward graph per query is pure overhead and `Tensor`'s `Rc`
//! interior forbids sharing across worker threads — and training runs the
//! same body through [`crate::mhsa_train_forward`] (the tape's
//! [`crate::MultiHeadSelfAttention`] and `hire-core`'s HIM stack node): for
//! a layer that runs in one pass, exactly serving's forward, keeping
//! nothing (its backward recomputes what it reads); for every other, the
//! composition, asked for Q, K, V, `O` and the softmax rows for its
//! backward, which it computes anyway. A frozen model therefore agrees bit
//! for bit with the live model it was exported from, on every ISA.
//!
//! Projections and the attention tiles run on the calling thread; per
//! element the forward is the dispatched ISA's chain (DESIGN.md §16), the
//! same bits on every run and every batch split.

use hire_tensor::simd::{self, Isa};
use hire_tensor::{linalg, AttnGrid, NdArray, Scratch};
use std::borrow::Borrow;

/// Weights of one multi-head self-attention layer: owned f32 arrays by
/// default, or borrowed ones (`W = &NdArray`, how the tape lends its
/// parameters to the forward it shares with serving).
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
    /// `w_q`, `w_k`, `w_v`, `w_o` order) — how a layer's weights are
    /// rounded.
    pub fn map<'a, V>(&'a self, mut f: impl FnMut(&'a W) -> V) -> MhsaWeights<V> {
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

impl<W: Borrow<NdArray>> MhsaWeights<W> {
    /// Model (input/output) dimension `d`, read off `w_q`.
    pub fn model_dim(&self) -> usize {
        self.w_q.borrow().dims()[0]
    }

    /// The four projections `[w_q, w_k, w_v, w_o]` as plain arrays.
    fn projections(&self) -> [&NdArray; 4] {
        [
            self.w_q.borrow(),
            self.w_k.borrow(),
            self.w_v.borrow(),
            self.w_o.borrow(),
        ]
    }

    /// The attention geometry of this layer over rows laid out
    /// `[outer, tokens, inner]` (see [`AttnGrid`]). Panics unless all four
    /// projections agree with `heads`, `head_dim` and one model dim — the
    /// tile kernel derives its strides from these numbers.
    pub(crate) fn grid(&self, [outer, tokens, inner]: [usize; 3]) -> AttnGrid {
        let width = self.heads * self.head_dim;
        let d = self.model_dim();
        let qkv = [d, width];
        let [w_q, w_k, w_v, w_o] = self.projections();
        assert!(
            w_q.dims() == qkv && w_k.dims() == qkv && w_v.dims() == qkv && w_o.dims() == [width, d],
            "MHSA weights are inconsistent: {} heads x {} head_dim need w_q/w_k/w_v {qkv:?} \
             and w_o {:?}, got w_q {:?}, w_k {:?}, w_v {:?}, w_o {:?}",
            self.heads,
            self.head_dim,
            [width, d],
            w_q.dims(),
            w_k.dims(),
            w_v.dims(),
            w_o.dims(),
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
/// wrapper around [`mhsa_forward_into`] that allocates the output and takes
/// the workspace from this thread's reused memory.
pub fn mhsa_forward<W: Borrow<NdArray>>(x: &NdArray, w: &MhsaWeights<W>) -> NdArray {
    mhsa_forward_with_isa(x, w, simd::active_isa())
}

/// [`mhsa_forward`] on an explicit ISA path (tests and benchmarks; `isa`
/// must be available on this host).
pub fn mhsa_forward_with_isa<W: Borrow<NdArray>>(
    x: &NdArray,
    w: &MhsaWeights<W>,
    isa: Isa,
) -> NdArray {
    let layout = sequence_layout(x.dims(), w.model_dim());
    let mut workspace = Scratch::take(mhsa_workspace_len(layout, w, isa));
    let mut y = NdArray::zeros(x.shape().clone());
    mhsa_forward_into(
        x.as_slice(),
        layout,
        w,
        isa,
        &mut workspace,
        y.as_mut_slice(),
    );
    y
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

/// Floats of workspace [`mhsa_forward_into`] needs for `layout` on `isa`:
/// for a layer that runs in one pass ([`AttnGrid::one_pass`]), the one-pass
/// kernel's scratch; otherwise the Q (then merged-head output), K and V
/// buffers plus the attention kernel's scratch. A function of the shapes
/// and the ISA only.
pub fn mhsa_workspace_len<W: Borrow<NdArray>>(
    layout: [usize; 3],
    w: &MhsaWeights<W>,
    isa: Isa,
) -> usize {
    let grid = w.grid(layout);
    let d = w.model_dim();
    if grid.one_pass(d, isa) {
        grid.one_pass_scratch_len(d)
    } else {
        3 * grid.rows() * grid.width() + grid.scratch_len()
    }
}

/// Floats of workspace [`mhsa_queries_into`] needs for `layout` and
/// `queries` tokens a sequence, on any ISA: the K and V buffers, the
/// queries' Q (then merged-head output) buffer and the attention kernel's
/// scratch. At most what the composition over every query needs.
pub fn mhsa_queries_workspace_len<W: Borrow<NdArray>>(
    layout: [usize; 3],
    queries: usize,
    w: &MhsaWeights<W>,
) -> usize {
    let grid = w.grid(layout);
    (2 * grid.rows() + grid.query_rows(queries)) * grid.width() + grid.scratch_len()
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
pub fn mhsa_forward_into<W: Borrow<NdArray>>(
    x: &[f32],
    layout: [usize; 3],
    w: &MhsaWeights<W>,
    isa: Isa,
    workspace: &mut [f32],
    y: &mut [f32],
) {
    let need = mhsa_workspace_len(layout, w, isa);
    assert!(
        workspace.len() >= need,
        "MHSA workspace holds {} floats, needs {need}",
        workspace.len()
    );
    mhsa_forward_over(x, &w.grid(layout), w, isa, workspace, y, None);
}

/// [`mhsa_forward_into`] with queries on some tokens of each sequence only:
/// keys and values over every row of `x` (`layout = [outer, tokens,
/// inner]`), queries, attention, `W_O` over `queries` tokens a sequence. Once
/// K and V are projected, `front` rearranges `x` so that its first
/// `outer * queries * inner` rows are the query rows, laid out `[outer,
/// queries, inner]` (which tokens they are does not matter: attention has
/// no position term); their outputs land in `y`, `[outer * queries * inner,
/// d]`. Every output row is the composition's chain for that row — each
/// projection row from its own input row, each attention row from its own
/// query and every key — so it is [`mhsa_forward_into`]'s row, bit for bit,
/// and a layer [`AttnGrid::one_pass`] would run in one pass gives the same
/// bits through the composition here. `workspace` needs
/// [`mhsa_queries_workspace_len`] floats.
#[allow(clippy::too_many_arguments)]
pub fn mhsa_queries_into<W: Borrow<NdArray>>(
    x: &mut [f32],
    layout: [usize; 3],
    queries: usize,
    w: &MhsaWeights<W>,
    isa: Isa,
    workspace: &mut [f32],
    y: &mut [f32],
    front: impl FnOnce(&mut [f32]),
) {
    let grid = w.grid(layout);
    let d = w.model_dim();
    let (proj, q_rows) = (grid.rows() * grid.width(), grid.query_rows(queries));
    assert!(
        queries <= grid.tokens && x.len() == grid.rows() * d && y.len() == q_rows * d,
        "MHSA over {grid:?} rows of dim {d} with {queries} queries got x of {} floats, y of {}",
        x.len(),
        y.len()
    );
    let need = mhsa_queries_workspace_len(layout, queries, w);
    assert!(
        workspace.len() >= need,
        "MHSA workspace holds {} floats, needs {need}",
        workspace.len()
    );
    let [w_q, w_k, w_v, w_o] = w.projections();
    let (k, rest) = workspace.split_at_mut(proj);
    let (v, rest) = rest.split_at_mut(proj);
    let (qo, scratch) = rest.split_at_mut(q_rows * grid.width());
    linalg::linear_into(w_k, x, k, isa);
    linalg::linear_into(w_v, x, v, isa);
    front(x);
    linalg::linear_into(w_q, &x[..q_rows * d], qo, isa);
    linalg::attention_queries_into(&grid, queries, qo, k, v, scratch, isa);
    linalg::linear_into(w_o, qo, y, isa);
}

/// Where the composition writes what its backward reads
/// ([`crate::mhsa_train_forward`]).
pub(crate) struct Intermediates<'a> {
    /// The Q, K and V projections, `[rows, width]` each.
    pub(crate) qkv: [&'a mut [f32]; 3],
    /// The merged-head attention output `O` that `W_O` projects, `[rows,
    /// width]`.
    pub(crate) o: &'a mut [f32],
    /// The softmax rows, [`AttnGrid::probs_len`] floats.
    pub(crate) probs: &'a mut [f32],
}

/// The body of [`mhsa_forward_into`] and of [`crate::mhsa_train_forward`]:
/// `y = MHSA(x)` over `grid`.
///
/// Without `saved`, a layer [`AttnGrid::one_pass`] picks runs in one pass
/// (`linalg::mhsa_one_pass_into`); every other runs the composition the
/// one-pass kernel reproduces bit for bit — the Q, K and V projections into
/// `[rows, width]` buffers carved from `workspace`, the attention tiles over
/// them, `W_O`. With `saved` (a training forward's composition, and Fig.
/// 9's softmax rows) the composition runs into `saved`'s buffers, and
/// `workspace` needs only [`AttnGrid::scratch_len`].
pub(crate) fn mhsa_forward_over<W: Borrow<NdArray>>(
    x: &[f32],
    grid: &AttnGrid,
    w: &MhsaWeights<W>,
    isa: Isa,
    workspace: &mut [f32],
    y: &mut [f32],
    saved: Option<Intermediates<'_>>,
) {
    let d = w.model_dim();
    assert!(
        x.len() == grid.rows() * d && y.len() == x.len(),
        "MHSA over {grid:?} rows of dim {d} got x of {} floats, y of {}",
        x.len(),
        y.len()
    );
    let [w_q, w_k, w_v, w_o] = w.projections();
    if saved.is_none() && grid.one_pass(d, isa) {
        let weights = [w_q, w_k, w_v, w_o].map(NdArray::as_slice);
        return linalg::mhsa_one_pass_into(grid, x, weights, y, workspace, isa);
    }
    // Q lands where each (batch, head) tile's output replaces it: in `O`
    // when the tape keeps Q, copied out before the tiles overwrite it.
    let ([qo, k, v], scratch, kept) = match saved {
        Some(Intermediates {
            qkv: [q, k, v],
            o,
            probs,
        }) => ([o, k, v], workspace, Some((q, probs))),
        None => {
            let proj = grid.rows() * grid.width();
            let (q, rest) = workspace.split_at_mut(proj);
            let (k, rest) = rest.split_at_mut(proj);
            let (v, scratch) = rest.split_at_mut(proj);
            ([q, k, v], scratch, None)
        }
    };
    linalg::linear_into(w_q, x, qo, isa);
    linalg::linear_into(w_k, x, k, isa);
    linalg::linear_into(w_v, x, v, isa);
    match kept {
        Some((q, probs)) => {
            q.copy_from_slice(qo);
            linalg::attention_probs_into_with_isa(grid, qo, k, v, probs, scratch, isa);
        }
        None => linalg::attention_into_with_isa(grid, qo, k, v, scratch, isa),
    }
    linalg::linear_into(w_o, qo, y, isa);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::MultiHeadSelfAttention;
    use crate::module::Module;
    use hire_tensor::Tensor;
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
}
