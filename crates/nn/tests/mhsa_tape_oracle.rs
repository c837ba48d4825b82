//! Fused ≡ composed, on the tape: `MultiHeadSelfAttention`'s one `mhsa`
//! node against the chain of tensor ops it replaced — head-split `permute`,
//! `matmul` with a materialized `Kᵀ`, `mul_scalar`, `softmax_last`,
//! `matmul`, merge `permute`, `linear`, and around them the whole-tensor
//! permutes HIM used to bring its token axis into place — kept here,
//! verbatim, as the oracle (the way `mhsa_oracle.rs` keeps the no-grad
//! composition). Forward output and attention weights must agree
//! **bitwise**; `dX` and all four `dW` within 1e-5 of the composed
//! backward, relative to the gradient's largest entry (the two backwards
//! sum in different orders, and the composed one reduces its softmax rows
//! in f64). Tensor ops dispatch on the process's ISA, so each ISA is one run
//! of this file under `HIRE_ISA` (CI's matrix); per-ISA in one process is
//! `mhsa_oracle.rs` (forward and softmax rows) and
//! `hire-tensor`'s `kernel_oracles.rs` (backward tiles).

use hire_nn::{Module, MultiHeadSelfAttention};
use hire_tensor::{NdArray, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The composed MHSA over `x` read as `[outer, tokens, inner]` rows of the
/// model dim: HIM's outer permutes (token axis next to the features), then
/// the body of the old `MultiHeadSelfAttention::run`, then the permute
/// back. Returns the output (shaped like `x`) and the attention weights
/// `[outer * inner, heads, t, t]`.
fn composed_mhsa(
    x: &Tensor,
    [w_q, w_k, w_v, w_o]: &[Tensor; 4],
    (l, dk): (usize, usize),
    [outer, t, inner]: [usize; 3],
) -> (Tensor, NdArray) {
    let d = w_q.dims()[0];
    let b = outer * inner;
    let x3 = x
        .reshape([outer, t, inner, d])
        .permute(&[0, 2, 1, 3])
        .reshape([b, t, d]);

    // [b, t, l*dk] -> [b, l, t, dk] -> [b*l, t, dk]
    let split = |proj: Tensor| -> Tensor {
        proj.reshape([b, t, l, dk])
            .permute(&[0, 2, 1, 3])
            .reshape([b * l, t, dk])
    };
    let q = split(x3.linear(w_q));
    let k = split(x3.linear(w_k));
    let v = split(x3.linear(w_v));

    // A = softmax(Q K^T / sqrt(dk))  : [b*l, t, t]
    let scores = q
        .matmul(&k.permute(&[0, 2, 1]))
        .mul_scalar(1.0 / (dk as f32).sqrt());
    let attn = scores.softmax_last();
    let weights = attn.value().reshaped([b, l, t, t]);

    // [b*l, t, dk] -> [b, t, l*dk] -> W_O -> [b, t, d]
    let fused = attn
        .matmul(&v)
        .reshape([b, l, t, dk])
        .permute(&[0, 2, 1, 3])
        .reshape([b, t, l * dk]);
    let out = fused
        .linear(w_o)
        .reshape([outer, inner, t, d])
        .permute(&[0, 2, 1, 3])
        .reshape(x.shape());
    (out, weights)
}

fn bits(a: &NdArray) -> Vec<u32> {
    a.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Gradients of `[x, w_q, w_k, w_v, w_o]` after back-propagating `seed`
/// from `out` (the weights' are cleared first; `x` is fresh per call).
fn grads_of(out: &Tensor, seed: &NdArray, x: &Tensor, weights: &[Tensor; 4]) -> Vec<NdArray> {
    weights.iter().for_each(Tensor::zero_grad);
    out.backward_with(seed.clone());
    std::iter::once(x)
        .chain(weights)
        .map(|p| p.grad().expect("every input takes a gradient"))
        .collect()
}

/// Fused vs composed at one shape: forward and weights bitwise, gradients
/// within 1e-5 (max-norm relative), fused gradient bits equal at pools
/// {1, 2, 4, 7}.
fn assert_matches_composed(
    shape: &[usize],
    layout: [usize; 3],
    d: usize,
    l: usize,
    dk: usize,
    seed: u64,
) {
    let tag = format!("x {shape:?} as {layout:?} d={d} l={l} dk={dk}");
    let mut rng = StdRng::seed_from_u64(seed);
    let mhsa = MultiHeadSelfAttention::new(d, l, dk, &mut rng);
    let weights: [Tensor; 4] = mhsa.parameters().try_into().expect("four projections");
    let x_value = NdArray::randn(shape, 0.0, 1.5, &mut rng);
    let seed = NdArray::randn(shape, 0.0, 1.0, &mut rng);

    let x = Tensor::parameter(x_value.clone());
    let (want_out, want_weights) = composed_mhsa(&x, &weights, (l, dk), layout);
    let want_grads = grads_of(&want_out, &seed, &x, &weights);

    let x = Tensor::parameter(x_value);
    let got = mhsa.forward_layout(&x, layout);
    assert_eq!(got.output.dims(), shape, "{tag}");
    assert_eq!(
        bits(&got.output.value()),
        bits(&want_out.value()),
        "{tag}: forward"
    );
    let got_weights = got.weights();
    assert_eq!(got_weights.dims(), want_weights.dims(), "{tag}");
    assert_eq!(
        bits(&got_weights),
        bits(&want_weights),
        "{tag}: attention weights"
    );

    let got_grads = grads_of(&got.output, &seed, &x, &weights);
    for (which, (got, want)) in got_grads.iter().zip(&want_grads).enumerate() {
        let scale = want.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let diff = got.max_abs_diff(want);
        assert!(
            diff <= 1e-5 * scale,
            "{tag}: gradient {which} (0 = x, 1..4 = w_q w_k w_v w_o) is \
             {diff} off on a largest entry of {scale}"
        );
    }
}

const TOKENS: [usize; 8] = [1, 5, 7, 8, 9, 16, 17, 33];
const INNER: [usize; 3] = [1, 3, 16];
const HEAD_DIMS: [usize; 4] = [1, 4, 8, 10];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Token counts on both sides of the softmax row kernel's 8-wide body
    /// and of the lane-group width; `outer * inner * heads` mostly not a
    /// multiple of 16 (ragged last lane group), sometimes past one chunk.
    /// The model dim starts at 2: at 1 a weight gradient is a handful of
    /// sums over up to 2 640 rows, and how much of each cancels — not either
    /// backward — decides how far two f32 summation orders land apart
    /// (6e-5 of the largest entry in one generated case; ≤ 2.3e-6 from 2 up).
    #[test]
    fn fused_node_matches_the_composed_tape(
        outer in 1usize..6,
        (ti, ii, di) in (0usize..TOKENS.len(), 0usize..INNER.len(), 0usize..HEAD_DIMS.len()),
        heads in 1usize..5,
        d in 2usize..13,
        seed in 0u64..1_000_000,
    ) {
        let (t, inner, dk) = (TOKENS[ti], INNER[ii], HEAD_DIMS[di]);
        assert_matches_composed(&[outer, t, inner, d], [outer, t, inner], d, heads, dk, seed);
    }
}

/// HIM's three views at a 16 × 16 context of 9 attributes with 4 × 8 heads
/// — `x` in the shape `HimBlock` hands over, never permuted: MBU
/// `[1, n, m]`, MBI `[n, m, 1]`, and MBA `[n·m, h, 1]` over the attribute
/// rows inside each cell, whose 1 024 `[9, 8]` tiles span ten chunks.
#[test]
fn him_views_match_the_composed_tape() {
    let (n, m, h, f) = (16, 16, 9, 8);
    assert_matches_composed(&[n, m, h * f], [1, n, m], h * f, 4, 8, 1);
    assert_matches_composed(&[n, m, h * f], [n, m, 1], h * f, 4, 8, 2);
    assert_matches_composed(&[n, m, h * f], [n * m, h, 1], f, 4, 8, 3);
}

/// An input that takes no gradient gets none — the `dX` product is skipped
/// — and the weights' gradients are the bits they are when it does.
#[test]
fn constant_input_skips_dx_and_keeps_the_weight_gradients() {
    let mut rng = StdRng::seed_from_u64(7);
    let (layout, d) = ([3, 5, 2], 6);
    let mhsa = MultiHeadSelfAttention::new(d, 2, 4, &mut rng);
    let weights: [Tensor; 4] = mhsa.parameters().try_into().expect("four projections");
    let x_value = NdArray::randn([3, 5, 2, d], 0.0, 1.0, &mut rng);
    let seed = NdArray::randn([3, 5, 2, d], 0.0, 1.0, &mut rng);

    let tracked = Tensor::parameter(x_value.clone());
    let want = grads_of(
        &mhsa.forward_layout(&tracked, layout).output,
        &seed,
        &tracked,
        &weights,
    );

    let constant = Tensor::constant(x_value);
    weights.iter().for_each(Tensor::zero_grad);
    mhsa.forward_layout(&constant, layout)
        .output
        .backward_with(seed);
    assert!(
        constant.grad().is_none(),
        "a constant input took a gradient"
    );
    for (w, want) in weights.iter().zip(&want[1..]) {
        assert_eq!(bits(&w.grad().expect("weight gradient")), bits(want));
    }
}
