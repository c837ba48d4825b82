//! The two reductions whose float order is a chunk grid.
//!
//! Every other kernel in `linalg` reduces inside one output element. These
//! two reduce *across* a grid of fixed-size chunks, and the grid is part of
//! the answer: change it and gradient-clip norms and layer-norm parameter
//! gradients move in their low bits, and with them every trained weight.
//!
//! * `norm_sq_f64`: one `f64` partial per 4096 elements, folded ascending.
//! * `layer_norm_backward_last`: one `f32` `dgamma` / `dbeta` partial per
//!   `max(4096 / w, 1)` rows, folded ascending.
//!
//! A chunk's partial is read off the kernel itself, run on that chunk alone
//! (one chunk, nothing to fold), so the tests pin the grid and the fold
//! order on every available ISA without restating any ISA's inner loop.

use hire_tensor::simd::Isa;
use hire_tensor::{linalg, NdArray};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn randn(dims: &[usize], seed: u64) -> NdArray {
    let mut rng = StdRng::seed_from_u64(seed);
    NdArray::randn(dims, 0.0, 1.0, &mut rng)
}

#[test]
fn norm_sq_is_the_ascending_fold_of_4096_element_f64_partials() {
    // Ragged tail, exactly one chunk, a chunk boundary, and sub-chunk sizes.
    for len in [0usize, 1, 731, 4095, 4096, 4097, 3 * 4096 + 731, 9 * 4096] {
        let xs = randn(&[len], 0x5EED + len as u64);
        let xs = xs.as_slice();
        for isa in Isa::available() {
            let folded: f64 = xs
                .chunks(4096)
                .map(|chunk| linalg::norm_sq_f64_with_isa(chunk, isa))
                .sum();
            let got = linalg::norm_sq_f64_with_isa(xs, isa);
            assert_eq!(
                got.to_bits(),
                folded.to_bits(),
                "norm_sq_f64 {} over {len} elements: {got} vs folded {folded}",
                isa.label()
            );
        }
    }
    // The grid is observable: one accumulator over the whole slice — any
    // other grid — rounds differently on this input, so the assertion above
    // is not vacuous.
    let xs = randn(&[9 * 4096], 0x5EED + 9 * 4096);
    let one_chain: f64 = xs.as_slice().iter().map(|&x| x as f64 * x as f64).sum();
    assert_ne!(
        linalg::norm_sq_f64_with_isa(xs.as_slice(), Isa::Scalar).to_bits(),
        one_chain.to_bits(),
        "a single ascending chain happens to round like the chunk grid here; pick another seed"
    );
}

#[test]
fn layer_norm_backward_folds_row_grain_f32_partials_in_ascending_order() {
    // (rows, w): several chunks with a ragged last one at HIM's embed width
    // and at a width that does not divide 4096; exactly one chunk; and a row
    // wider than a chunk (grain 1).
    for (rows, w) in [(700usize, 72usize), (500, 33), (56, 72), (5, 5000)] {
        let grain = (4096 / w).max(1);
        let x = randn(&[rows, w], 1);
        let gamma = randn(&[w], 2);
        let beta = randn(&[w], 3);
        let g = randn(&[rows, w], 4);
        for isa in Isa::available() {
            let (_, xhat, inv_std) =
                linalg::layer_norm_forward_last_with_isa(&x, &gamma, &beta, 1e-5, isa);
            let (dx, dgamma, dbeta) =
                linalg::layer_norm_backward_last_with_isa(&xhat, &inv_std, &gamma, &g, isa);

            let mut want_dx: Vec<f32> = Vec::with_capacity(rows * w);
            let mut want_dgamma = vec![0.0f32; w];
            let mut want_dbeta = vec![0.0f32; w];
            for start in (0..rows).step_by(grain) {
                let end = (start + grain).min(rows);
                let rows_of = |a: &NdArray| {
                    NdArray::from_vec([end - start, w], a.as_slice()[start * w..end * w].to_vec())
                };
                let (dx_c, dgamma_c, dbeta_c) = linalg::layer_norm_backward_last_with_isa(
                    &rows_of(&xhat),
                    &inv_std[start..end],
                    &gamma,
                    &rows_of(&g),
                    isa,
                );
                want_dx.extend_from_slice(dx_c.as_slice());
                for j in 0..w {
                    want_dgamma[j] += dgamma_c.as_slice()[j];
                    want_dbeta[j] += dbeta_c.as_slice()[j];
                }
            }
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let what = format!("{} [{rows}, {w}]", isa.label());
            assert_eq!(bits(dx.as_slice()), bits(&want_dx), "dx {what}");
            assert_eq!(bits(dgamma.as_slice()), bits(&want_dgamma), "dgamma {what}");
            assert_eq!(bits(dbeta.as_slice()), bits(&want_dbeta), "dbeta {what}");
        }
    }
    // The grid is observable here too: one f32 chain down all 700 rows
    // rounds differently from thirteen 56-row partials.
    let (rows, w) = (700usize, 72usize);
    let gamma = randn(&[w], 2);
    let g = randn(&[rows, w], 4);
    let (_, xhat, inv_std) = linalg::layer_norm_forward_last_with_isa(
        &randn(&[rows, w], 1),
        &gamma,
        &randn(&[w], 3),
        1e-5,
        Isa::Scalar,
    );
    let (_, _, dbeta) =
        linalg::layer_norm_backward_last_with_isa(&xhat, &inv_std, &gamma, &g, Isa::Scalar);
    let mut one_chain = vec![0.0f32; w];
    for row in g.as_slice().chunks_exact(w) {
        for (acc, &x) in one_chain.iter_mut().zip(row) {
            *acc += x;
        }
    }
    assert_ne!(
        dbeta.as_slice(),
        &one_chain[..],
        "one chain over every row happens to round like the chunk grid here; pick another seed"
    );
}
