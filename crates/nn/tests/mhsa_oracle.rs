//! Fused ≡ reference, generated: `mhsa_forward` (projections → attention
//! tiles over strided views → `W_O`) against the composition it replaced —
//! head-split `permute`, `bmm` with a materialized `Kᵀ`, `softmax_last`,
//! `bmm`, merge `permute` — kept here as the oracle, **bitwise**, on every
//! ISA the host can run, for f32 and int8
//! weights; and the softmax rows `attention_probs_into` emits for the
//! tape's backward against the oracle's `softmax_last`, bitwise too. The
//! token counts straddle the softmax row kernel's 8-wide
//! vector body (whose f64 lane fold the lane-parallel attention kernel must
//! reproduce); batch × heads is mostly not a multiple of the 8- or 16-lane
//! group.

use hire_nn::{mhsa_forward_into, mhsa_forward_with_isa, mhsa_workspace_len, MhsaWeights};
use hire_tensor::simd::Isa;
use hire_tensor::{linalg, AttnGrid, NdArray, QuantMode, QuantizedTensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The unfused MHSA forward exactly as `hire_nn::mhsa_forward` composed it
/// before the tile kernel (and as the tape's `MultiHeadSelfAttention` still
/// does), every kernel pinned to `isa`.
fn reference_mhsa(x: &NdArray, w: &MhsaWeights, isa: Isa) -> NdArray {
    reference_mhsa_with_weights(x, w, isa).0
}

/// [`reference_mhsa`] and its attention weights `[b * l, t, t]`.
fn reference_mhsa_with_weights(x: &NdArray, w: &MhsaWeights, isa: Isa) -> (NdArray, NdArray) {
    let (b, t) = (x.dims()[0], x.dims()[1]);
    let (l, dk) = (w.heads, w.head_dim);
    let linear = |x: &NdArray, w: &NdArray| {
        let rows = x.numel() / x.dims()[2];
        linalg::matmul2d_with_isa(&x.reshape([rows, x.dims()[2]]), w, isa).reshaped([
            b,
            t,
            w.dims()[1],
        ])
    };
    // [b, t, l*dk] -> [b, l, t, dk] -> [b*l, t, dk]
    let split = |proj: NdArray| -> NdArray {
        linalg::permute(&proj.reshaped([b, t, l, dk]), &[0, 2, 1, 3]).reshaped([b * l, t, dk])
    };
    let q = split(linear(x, &w.w_q));
    let k = split(linear(x, &w.w_k));
    let v = split(linear(x, &w.w_v));
    let scale = 1.0 / (dk as f32).sqrt();
    let scores = linalg::bmm_with_isa(&q, &linalg::transpose_last2(&k), isa).map(|s| s * scale);
    let attn = linalg::softmax_last_with_isa(&scores, isa);
    let fused = linalg::permute(
        &linalg::bmm_with_isa(&attn, &v, isa).reshaped([b, l, t, dk]),
        &[0, 2, 1, 3],
    )
    .reshaped([b, t, l * dk]);
    (linear(&fused, &w.w_o), attn)
}

/// The softmax rows the tile kernel emits beside its output, for the
/// projections of `x` under `w` on `isa`: `[b * l, t, t]`.
fn emitted_probs(x: &NdArray, w: &MhsaWeights, isa: Isa) -> NdArray {
    let (b, t, d) = (x.dims()[0], x.dims()[1], x.dims()[2]);
    let grid = AttnGrid {
        outer: b,
        tokens: t,
        inner: 1,
        heads: w.heads,
        head_dim: w.head_dim,
    };
    let rows = x.reshape([b * t, d]);
    let project = |w: &NdArray| linalg::matmul2d_with_isa(&rows, w, isa);
    let (mut qo, k, v) = (project(&w.w_q), project(&w.w_k), project(&w.w_v));
    let without = {
        let mut qo = qo.clone();
        linalg::attention_into_with_isa(
            &grid,
            qo.as_mut_slice(),
            k.as_slice(),
            v.as_slice(),
            &mut vec![f32::NAN; grid.scratch_len()],
            isa,
        );
        qo
    };
    let mut probs = vec![f32::NAN; grid.probs_len()];
    linalg::attention_probs_into_with_isa(
        &grid,
        qo.as_mut_slice(),
        k.as_slice(),
        v.as_slice(),
        &mut probs,
        &mut vec![f32::NAN; grid.scratch_len()],
        isa,
    );
    assert_eq!(
        qo.as_slice(),
        without.as_slice(),
        "emitting the softmax rows changed the attention output ({isa:?})"
    );
    NdArray::from_vec([b * w.heads, t, t], probs)
}

fn random_weights(d: usize, l: usize, dk: usize, rng: &mut StdRng) -> MhsaWeights {
    let std = 1.0 / (d as f32).sqrt();
    MhsaWeights {
        w_q: NdArray::randn([d, l * dk], 0.0, std, rng),
        w_k: NdArray::randn([d, l * dk], 0.0, std, rng),
        w_v: NdArray::randn([d, l * dk], 0.0, std, rng),
        w_o: NdArray::randn([l * dk, d], 0.0, std, rng),
        heads: l,
        head_dim: dk,
    }
}

/// Fused vs oracle at one shape: all ISAs × {f32, int8}.
/// The quantized forward is held to the oracle run on the *dequantized*
/// weights (its declared contract).
fn assert_matches_oracle(b: usize, t: usize, d: usize, l: usize, dk: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let w = random_weights(d, l, dk, &mut rng);
    let x = NdArray::randn([b, t, d], 0.0, 1.5, &mut rng);
    let quantized: MhsaWeights<QuantizedTensor> =
        w.map(|a| QuantizedTensor::quantize(a, QuantMode::Int8));
    for isa in Isa::available() {
        let (want, want_probs) = reference_mhsa_with_weights(&x, &w, isa);
        let want_quant = reference_mhsa(&x, &quantized.map(QuantizedTensor::dequantize), isa);
        let tag = format!("b={b} t={t} d={d} l={l} dk={dk} {isa:?}");
        let got = mhsa_forward_with_isa(&x, &w, isa);
        assert_eq!(got.dims(), want.dims(), "{tag}");
        assert_eq!(got.as_slice(), want.as_slice(), "f32 {tag}");
        let got_probs = emitted_probs(&x, &w, isa);
        assert_eq!(got_probs.dims(), want_probs.dims(), "{tag}");
        assert_eq!(got_probs.as_slice(), want_probs.as_slice(), "probs {tag}");
        let got = mhsa_forward_with_isa(&x, &quantized, isa);
        assert_eq!(got.as_slice(), want_quant.as_slice(), "int8 {tag}");
    }
}

const TOKENS: [usize; 7] = [1, 5, 7, 8, 9, 16, 17];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn fused_forward_matches_unfused_composition_bitwise(
        b in 1usize..10,
        ti in 0usize..TOKENS.len(),
        d in 1usize..13,
        (l, dk) in (1usize..6, 1usize..10),
        seed in 0u64..1_000_000,
    ) {
        assert_matches_oracle(b, TOKENS[ti], d, l, dk, seed);
    }

    /// The `[outer, tokens, inner]` stride view: attention along the middle
    /// axis equals permuting that axis last, running the plain forward and
    /// permuting back — what HIM's MBU used to do with two whole-tensor
    /// copies.
    #[test]
    fn strided_token_axis_matches_permuted_forward_bitwise(
        (outer, inner) in (1usize..4, 1usize..7),
        ti in 0usize..TOKENS.len(),
        (l, dk) in (1usize..5, 1usize..10),
        seed in 0u64..1_000_000,
    ) {
        let (t, d) = (TOKENS[ti], 6);
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_weights(d, l, dk, &mut rng);
        let x = NdArray::randn([outer, t, inner, d], 0.0, 1.5, &mut rng);
        let by_sequence = linalg::permute(&x, &[0, 2, 1, 3]).reshaped([outer * inner, t, d]);
        let layout = [outer, t, inner];
        for isa in Isa::available() {
            let want = linalg::permute(
                &reference_mhsa(&by_sequence, &w, isa).reshaped([outer, inner, t, d]),
                &[0, 2, 1, 3],
            );
            // Poisoned workspace and output: nothing may be read before
            // it is written.
            let mut workspace = vec![f32::NAN; mhsa_workspace_len(layout, &w)];
            let mut y = vec![f32::NAN; x.numel()];
            mhsa_forward_into(x.as_slice(), layout, &w, isa, &mut workspace, &mut y);
            assert_eq!(
                y.as_slice(),
                want.as_slice(),
                "outer={outer} t={t} inner={inner} l={l} dk={dk} {isa:?}"
            );
        }
    }
}

/// HIM's own shapes at a 16×16 context with 4×8 heads — MBA's 1024 tiles
/// (5 or 9 attributes of width 8) fill 64/128 whole lane groups — plus
/// ragged groups, and token counts past
/// the point (`t·dk·t > 16384`) where the oracle's `bmm` switches from the
/// small-product to the packed, blocked matmul path.
#[test]
fn him_shapes_match_oracle() {
    assert_matches_oracle(256, 5, 8, 4, 8, 1); // MBA, 5 attributes
    assert_matches_oracle(256, 9, 8, 4, 8, 2); // MBA, 9 attributes
    assert_matches_oracle(16, 16, 72, 4, 8, 3); // MBU / MBI
    assert_matches_oracle(203, 3, 8, 3, 4, 4); // ragged lane groups
    assert_matches_oracle(5, 33, 12, 2, 8, 5);
    assert_matches_oracle(3, 48, 12, 3, 8, 6); // oracle on the blocked path
}
