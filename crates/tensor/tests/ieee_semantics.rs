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
