//! Pins the matmul kernels' IEEE-754 semantics for non-finite inputs:
//! `0 * Inf = NaN` propagates — neither dispatch path skips zero
//! products (see the NUMERIC NOTE in `DESIGN.md` §11 and the
//! `matmul_reference` doc in `src/linalg.rs`).
//!
//! The pre-blocking kernel special-cased `a_ik == 0.0` and skipped the
//! product, which silently dropped `0 * Inf` / `0 * NaN` terms. The
//! blocked kernel cannot reproduce that skip bit-exactly, so the skip
//! was removed from both paths; these tests are the regression guard
//! that keeps it removed.

use hire_tensor::linalg;
use hire_tensor::NdArray;

/// `matmul2d` dispatches on problem size: at most `16 * 1024`
/// multiply-adds runs the reference loop, anything larger the blocked
/// kernel. 32x32x32 = 32768 forces the blocked path.
const BLOCKED_DIM: usize = 32;

/// Builds the poisoned inputs: `a` holds an explicit `0.0` column,
/// `b`'s matching row is all `Inf`, every other entry is finite. Each
/// output element's chain then contains exactly one `0 * Inf` term.
fn poisoned_inputs(n: usize, k: usize, m: usize) -> (NdArray, NdArray) {
    let mut a = vec![1.0f32; n * k];
    for row in 0..n {
        a[row * k] = 0.0; // column 0 of `a` is zero...
    }
    let mut b = vec![0.5f32; k * m];
    b[..m].fill(f32::INFINITY); // ...and row 0 of `b` is Inf.
    (NdArray::from_vec([n, k], a), NdArray::from_vec([k, m], b))
}

#[test]
fn zero_times_inf_is_nan_on_the_reference_path() {
    // 2x2x2 = 8 multiply-adds: far below the blocking threshold, so
    // matmul2d runs the reference loop.
    let (a, b) = poisoned_inputs(2, 2, 2);
    let out = linalg::matmul2d(&a, &b);
    for (i, &v) in out.as_slice().iter().enumerate() {
        assert!(
            v.is_nan(),
            "reference path element {i} = {v}: the 0 * Inf term was dropped"
        );
    }
}

#[test]
fn zero_times_inf_is_nan_on_the_blocked_path() {
    let (a, b) = poisoned_inputs(BLOCKED_DIM, BLOCKED_DIM, BLOCKED_DIM);
    const {
        assert!(
            BLOCKED_DIM * BLOCKED_DIM * BLOCKED_DIM > 16 * 1024,
            "shape too small to reach the blocked kernel"
        )
    };
    let out = linalg::matmul2d(&a, &b);
    for (i, &v) in out.as_slice().iter().enumerate() {
        assert!(
            v.is_nan(),
            "blocked path element {i} = {v}: the 0 * Inf term was dropped"
        );
    }
}

#[test]
fn both_paths_agree_bitwise_on_non_finite_inputs() {
    // The bit-exactness contract (DESIGN.md §11, rule 2) holds even
    // when the accumulator chains pass through Inf and NaN: on every
    // available ISA the blocked kernel walks a chain whose invalid
    // operations produce the same canonical quiet-NaN patterns as the
    // reference loop (FMA follows the identical IEEE-754 invalid-operation
    // rules as mul-then-add), so the produced bits match exactly.
    let n = BLOCKED_DIM;
    let (a, b) = poisoned_inputs(n, n, n);
    let mut reference = vec![0.0f32; n * n];
    linalg::matmul_reference(a.as_slice(), b.as_slice(), &mut reference, n, n, n);
    for isa in hire_tensor::simd::Isa::available() {
        let blocked = linalg::matmul2d_with_isa(&a, &b, isa);
        for (i, (&got, &want)) in blocked.as_slice().iter().zip(&reference).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}: element {i}: blocked {got} vs reference {want}",
                isa.label()
            );
        }
    }
}

/// The training loop's divergence recovery counts the non-finite gradient
/// entries `clip_grad_norm` sanitises, so the attention backward must hand
/// them on, not launder them: with `P = 0` and `dP = Inf`,
/// `P ∘ (dP − Σ dP∘P)` is NaN by IEEE and has to stay NaN. One poisoned
/// element must surface as non-finite entries of its own tile's gradients
/// and leak into no other tile, on every ISA's forward: planted in the
/// upstream gradient, in `dq`, `dk` and `dv`; planted in `V` before the
/// forward, in `dq` and `dk` (through `dP = dO·Vᵀ`) — `dV = Pᵀ·dO` does not
/// read `V`, and in a real step the NaN that `V` puts into the forward's
/// output comes back as the upstream gradient.
#[test]
fn attention_backward_propagates_non_finite_inputs() {
    use hire_tensor::AttnGrid;
    // Enough tiles for two lane groups; the poisoned tile sits in the
    // second, ragged one.
    let grid = AttnGrid {
        outer: 3,
        tokens: 5,
        inner: 2,
        heads: 3,
        head_dim: 4,
    };
    let len = grid.rows() * grid.width();
    let fill = |seed: u32| -> Vec<f32> {
        (0..len as u32)
            .map(|i| {
                ((i.wrapping_mul(2654435761).wrapping_add(seed) >> 8) % 1000) as f32 / 500.0 - 1.0
            })
            .collect()
    };
    let (q, k, v, d_o) = (fill(1), fill(2), fill(3), fill(4));
    // Element of (outer 2, token 3, inner 1, head 2): tile 17 of 18.
    let (tile, width) = (17, grid.width());
    let poisoned_at = ((2 * 5 + 3) * 2 + 1) * width + 2 * 4 + 1;
    let owner = |at: usize| {
        let (row, col) = (at / width, at % width);
        ((row / (5 * 2)) * 2 + row % 2) * 3 + col / 4
    };
    assert_eq!(owner(poisoned_at), tile);

    for isa in hire_tensor::simd::Isa::available() {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for poison_v in [false, true] {
                let (mut v, mut d_o) = (v.clone(), d_o.clone());
                if poison_v {
                    v[poisoned_at] = poison;
                } else {
                    d_o[poisoned_at] = poison;
                }
                let mut p = vec![0.0f32; grid.probs_len()];
                linalg::attention_probs_into_with_isa(
                    &grid,
                    &mut q.clone(),
                    &k,
                    &v,
                    &mut p,
                    &mut vec![0.0; grid.scratch_len()],
                    isa,
                );
                let (mut dq, mut dk, mut dv) = (vec![0.0; len], vec![0.0; len], vec![0.0; len]);
                linalg::attention_backward_into(
                    &grid, &q, &k, &v, &p, &d_o, &mut dq, &mut dk, &mut dv,
                );
                let tag = format!(
                    "{} {poison} in {}",
                    isa.label(),
                    if poison_v { "V" } else { "d_o" }
                );
                for (name, grad) in [("dq", &dq), ("dk", &dk), ("dv", &dv)] {
                    let bad: Vec<usize> = (0..len).filter(|&at| !grad[at].is_finite()).collect();
                    assert_eq!(
                        bad.is_empty(),
                        poison_v && name == "dv",
                        "{tag}: {name} has {} non-finite entries",
                        bad.len()
                    );
                    assert!(
                        bad.iter().all(|&at| owner(at) == tile),
                        "{tag}: {name} is non-finite outside the poisoned tile"
                    );
                }
            }
        }
    }
}
