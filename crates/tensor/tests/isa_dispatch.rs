//! Cross-ISA contract tests for the dispatched SIMD kernels.
//!
//! Runs every kernel under each ISA available on the host (via the
//! explicit `*_with_isa` entry points — the process-global `HIRE_ISA`
//! dispatch is resolved once, so a single process cannot vary it) and pins
//! the per-ISA determinism contract of DESIGN.md §16:
//!
//! 1. **Oracle agreement**: every ISA stays within the documented bound of
//!    an f64 reference; scalar is additionally bit-identical to
//!    `matmul_reference`.
//! 2. **Bitwise determinism per ISA**: identical bits across repeated runs.
//! 3. **IEEE semantics**: `0 * Inf = NaN` propagates on every vector path,
//!    both below and above the blocking threshold.
//!
//! Edge cases for the shared softmax/layer-norm row traversal (empty and
//! single-element rows) run on every ISA as well.

use hire_tensor::simd::Isa;
use hire_tensor::{linalg, NdArray};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn randn(dims: &[usize], seed: u64) -> NdArray {
    let mut rng = StdRng::seed_from_u64(seed);
    NdArray::randn(dims, 0.0, 1.0, &mut rng)
}

/// f64 matmul oracle: `out[n,m] = a[n,k] * b[k,m]` accumulated in f64.
fn matmul_f64(a: &[f32], b: &[f32], n: usize, k: usize, m: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; n * m];
    for i in 0..n {
        for kk in 0..k {
            let a_ik = a[i * k + kk] as f64;
            for j in 0..m {
                out[i * m + j] += a_ik * b[kk * m + j] as f64;
            }
        }
    }
    out
}

/// The documented oracle bound for the matmul family: every ISA's result
/// stays within `1e-4 * sqrt(k)` relative (against max(1, |oracle|)) of
/// the f64 accumulation. Far looser than observed (scalar ~k*eps worst
/// case, avx2 tighter still thanks to FMA) but stable across shapes.
fn matmul_tol(k: usize) -> f64 {
    1e-4 * (k as f64).sqrt()
}

fn assert_close_f64(got: &[f32], want: &[f64], tol: f64, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let bound = tol * w.abs().max(1.0);
        assert!(
            (g as f64 - w).abs() <= bound,
            "{what}: element {i} = {g} vs oracle {w} (bound {bound})"
        );
    }
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// Runs `f` twice; asserts both results carry identical bits. Returns the
/// result.
fn assert_deterministic(what: &str, f: impl Fn() -> NdArray) -> NdArray {
    let (first, again) = (f(), f());
    assert_bits_eq(first.as_slice(), again.as_slice(), &format!("{what} rerun"));
    first
}

/// Shapes straddling the blocking threshold, with ragged tile remainders
/// for every panel width (8, 16 and 32); then HIM's own products — the
/// `fast` config's MBA projections and `W_O` (`k` or `m` = 8), MBU/MBI's
/// (`m = 72 = 2·32 + 8`) and the decoder (`m = 1`), the paper config's MBA
/// pair (`f = 16`, 8 heads × 16) — and two ragged row counts under a thin
/// `m`.
const MATMUL_SHAPES: [(usize, usize, usize); 13] = [
    (3, 5, 4),
    (33, 17, 9),
    (64, 40, 32),
    (129, 31, 33),
    (2304, 8, 32),
    (2304, 32, 8),
    (256, 72, 32),
    (256, 32, 72),
    (256, 72, 1),
    (9216, 16, 128),
    (9216, 128, 16),
    (2303, 32, 8),
    (7, 32, 16),
];

#[test]
fn matmul_oracle_agreement_and_determinism_per_isa() {
    for isa in Isa::available() {
        for (n, k, m) in MATMUL_SHAPES {
            let a = randn(&[n, k], 0x100 + n as u64);
            let b = randn(&[k, m], 0x200 + m as u64);
            let out = assert_deterministic(&format!("matmul {} {n}x{k}x{m}", isa.label()), || {
                linalg::matmul2d_with_isa(&a, &b, isa)
            });
            let oracle = matmul_f64(a.as_slice(), b.as_slice(), n, k, m);
            assert_close_f64(
                out.as_slice(),
                &oracle,
                matmul_tol(k),
                &format!("matmul {} {n}x{k}x{m}", isa.label()),
            );
            if isa < Isa::Avx2 {
                // scalar is bit-identical to the reference chain.
                let mut reference = vec![0.0f32; n * m];
                linalg::matmul_reference(a.as_slice(), b.as_slice(), &mut reference, n, k, m);
                assert_bits_eq(
                    out.as_slice(),
                    &reference,
                    &format!("matmul {} vs reference {n}x{k}x{m}", isa.label()),
                );
            }
            if isa == Isa::Avx512 {
                // The avx512 matmul runs the same per-element FMA chains as
                // avx2, only in wider registers — identical bits.
                let via_avx2 = linalg::matmul2d_with_isa(&a, &b, Isa::Avx2);
                assert_bits_eq(
                    out.as_slice(),
                    via_avx2.as_slice(),
                    &format!("matmul avx512 vs avx2 {n}x{k}x{m}"),
                );
            }
        }
    }
}

#[test]
fn softmax_oracle_agreement_and_determinism_per_isa() {
    let x = randn(&[6, 8, 50], 0x300);
    let (rows, w) = (48, 50);
    // f64 oracle.
    let mut oracle = vec![0.0f64; rows * w];
    for r in 0..rows {
        let row = &x.as_slice()[r * w..(r + 1) * w];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
        let exps: Vec<f64> = row.iter().map(|&v| (v as f64 - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        for j in 0..w {
            oracle[r * w + j] = exps[j] / sum;
        }
    }
    for isa in Isa::available() {
        let y = assert_deterministic(&format!("softmax {}", isa.label()), || {
            linalg::softmax_last_with_isa(&x, isa)
        });
        // Probabilities are <= 1, so an absolute bound pins the polynomial
        // exp (avx2) and libm exp (scalar) to the same oracle.
        for (i, (&g, &o)) in y.as_slice().iter().zip(&oracle).enumerate() {
            assert!(
                (g as f64 - o).abs() <= 1e-5,
                "softmax {}: element {i} = {g} vs oracle {o}",
                isa.label()
            );
        }
        // Rows still sum to ~1 exactly as before.
        for r in 0..rows {
            let sum: f32 = y.as_slice()[r * w..(r + 1) * w].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "softmax {} row {r}", isa.label());
        }
    }
}

#[test]
fn layer_norm_oracle_agreement_and_determinism_per_isa() {
    let x = randn(&[120, 33], 0x400);
    let gamma = randn(&[33], 0x401);
    let beta = randn(&[33], 0x402);
    let g = randn(&[120, 33], 0x403);
    let (rows, w) = (120usize, 33usize);
    // f64 forward oracle.
    let mut oracle = vec![0.0f64; rows * w];
    for r in 0..rows {
        let row = &x.as_slice()[r * w..(r + 1) * w];
        let mean = row.iter().map(|&v| v as f64).sum::<f64>() / w as f64;
        let var = row.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / w as f64;
        let istd = 1.0 / (var + 1e-5f32 as f64).sqrt();
        for j in 0..w {
            oracle[r * w + j] = (row[j] as f64 - mean) * istd * gamma.as_slice()[j] as f64
                + beta.as_slice()[j] as f64;
        }
    }
    for isa in Isa::available() {
        let y = assert_deterministic(&format!("layer_norm_nd {}", isa.label()), || {
            linalg::layer_norm_last_nd_with_isa(&x, &gamma, &beta, 1e-5, isa)
        });
        assert_close_f64(
            y.as_slice(),
            &oracle,
            1e-5,
            &format!("layer_norm {}", isa.label()),
        );
        // Tape forward agrees with the no-grad forward bit for bit (both
        // route through the same row helpers).
        let (y_tape, xhat, inv_std) =
            linalg::layer_norm_forward_last_with_isa(&x, &gamma, &beta, 1e-5, isa);
        assert_bits_eq(
            y.as_slice(),
            y_tape.as_slice(),
            &format!("layer_norm tape vs nd {}", isa.label()),
        );
        // Backward is deterministic per ISA across runs.
        assert_deterministic(&format!("layer_norm backward {}", isa.label()), || {
            let (dx, dgamma, dbeta) =
                linalg::layer_norm_backward_last_with_isa(&xhat, &inv_std, &gamma, &g, isa);
            let mut packed: Vec<f32> = dx.as_slice().to_vec();
            packed.extend_from_slice(dgamma.as_slice());
            packed.extend_from_slice(dbeta.as_slice());
            let len = packed.len();
            NdArray::from_vec([len], packed)
        });
    }
}

#[test]
fn layer_norm_rows_do_not_depend_on_their_neighbours() {
    // The row kernels run rows in groups (four at a time on avx2, a ragged
    // rest one at a time): every row's forward and `dx` must be bitwise what
    // a call on that row alone gives, for every group remainder and across
    // the backward's chunk boundaries (257 rows), at HIM's width and at one
    // with a tail past the four-lane body. `dgamma` / `dbeta` must add the
    // rows in ascending order within each `max(4096 / w, 1)`-row chunk and
    // the chunks in ascending order: per element a multiply then an add,
    // so one reference holds every ISA.
    for w in [72usize, 33] {
        let gamma = randn(&[w], 0xB00 + w as u64);
        let beta = randn(&[w], 0xB01 + w as u64);
        for rows in (1..=9).chain([257]) {
            let x = randn(&[rows, w], 0xB10 + rows as u64);
            let g = randn(&[rows, w], 0xB20 + rows as u64);
            let row = |a: &NdArray, r: usize| {
                NdArray::from_vec([1, w], a.as_slice()[r * w..(r + 1) * w].to_vec())
            };
            for isa in Isa::available() {
                let what = format!("{} [{rows}, {w}]", isa.label());
                let y_nd = linalg::layer_norm_last_nd_with_isa(&x, &gamma, &beta, 1e-5, isa);
                let (y, xhat, inv_std) =
                    linalg::layer_norm_forward_last_with_isa(&x, &gamma, &beta, 1e-5, isa);
                let (dx, dgamma, dbeta) =
                    linalg::layer_norm_backward_last_with_isa(&xhat, &inv_std, &gamma, &g, isa);
                for r in 0..rows {
                    let (y1, xhat1, inv_std1) = linalg::layer_norm_forward_last_with_isa(
                        &row(&x, r),
                        &gamma,
                        &beta,
                        1e-5,
                        isa,
                    );
                    let (dx1, _, _) = linalg::layer_norm_backward_last_with_isa(
                        &xhat1,
                        &inv_std1,
                        &gamma,
                        &row(&g, r),
                        isa,
                    );
                    let what = format!("{what} row {r}");
                    assert_bits_eq(
                        row(&y_nd, r).as_slice(),
                        y1.as_slice(),
                        &format!("y_nd {what}"),
                    );
                    assert_bits_eq(row(&y, r).as_slice(), y1.as_slice(), &format!("y {what}"));
                    assert_bits_eq(
                        row(&xhat, r).as_slice(),
                        xhat1.as_slice(),
                        &format!("xhat {what}"),
                    );
                    assert_bits_eq(&inv_std[r..=r], &inv_std1, &format!("inv_std {what}"));
                    assert_bits_eq(
                        row(&dx, r).as_slice(),
                        dx1.as_slice(),
                        &format!("dx {what}"),
                    );
                }
                let (mut want_dgamma, mut want_dbeta) = (vec![0.0f32; w], vec![0.0f32; w]);
                let grain = (4096 / w).max(1);
                for start in (0..rows).step_by(grain) {
                    let (mut part_gamma, mut part_beta) = (vec![0.0f32; w], vec![0.0f32; w]);
                    for r in start..(start + grain).min(rows) {
                        let (g, xhat) = (row(&g, r), row(&xhat, r));
                        for j in 0..w {
                            part_gamma[j] += g.as_slice()[j] * xhat.as_slice()[j];
                            part_beta[j] += g.as_slice()[j];
                        }
                    }
                    for j in 0..w {
                        want_dgamma[j] += part_gamma[j];
                        want_dbeta[j] += part_beta[j];
                    }
                }
                assert_bits_eq(dgamma.as_slice(), &want_dgamma, &format!("dgamma {what}"));
                assert_bits_eq(dbeta.as_slice(), &want_dbeta, &format!("dbeta {what}"));
            }
        }
    }
}

#[test]
fn sanitize_and_norm_agree_across_isas() {
    let clean = randn(&[3 * 4096 + 731], 0x800);
    let mut poisoned = clean.as_slice().to_vec();
    poisoned[100] = f32::NAN;
    poisoned[5000] = f32::INFINITY;
    poisoned[9000] = f32::NEG_INFINITY;
    poisoned[12287] = f32::NAN; // last element of a 4096 chunk
    let mut want = poisoned.clone();
    let want_count = linalg::sanitize_non_finite_with_isa(&mut want, Isa::Scalar);
    assert_eq!(want_count, 4);
    let oracle: f64 = clean.as_slice().iter().map(|&v| (v as f64).powi(2)).sum();
    for isa in Isa::available() {
        // sanitize is element-wise: identical results on every ISA.
        let mut got = poisoned.clone();
        let count = linalg::sanitize_non_finite_with_isa(&mut got, isa);
        assert_eq!(count, want_count, "sanitize count {}", isa.label());
        assert_bits_eq(&got, &want, &format!("sanitize {}", isa.label()));
        // norm_sq: oracle-bounded on every ISA.
        let norm = linalg::norm_sq_f64_with_isa(clean.as_slice(), isa);
        assert!(
            (norm - oracle).abs() <= 1e-9 * oracle.max(1.0),
            "norm_sq {}: {norm} vs oracle {oracle}",
            isa.label()
        );
    }
}

#[test]
fn zero_times_inf_is_nan_on_every_isa_and_both_size_paths() {
    // a's column 0 is zero, b's row 0 is Inf: every output chain contains
    // exactly one 0 * Inf term. FMA and mul-then-add follow the same
    // IEEE-754 invalid-operation rule, so NaN must propagate everywhere.
    for isa in Isa::available() {
        for n in [2usize, 32] {
            let mut a = vec![1.0f32; n * n];
            for row in 0..n {
                a[row * n] = 0.0;
            }
            let mut b = vec![0.5f32; n * n];
            b[..n].fill(f32::INFINITY);
            let a = NdArray::from_vec([n, n], a);
            let b = NdArray::from_vec([n, n], b);
            let out = linalg::matmul2d_with_isa(&a, &b, isa);
            for (i, &v) in out.as_slice().iter().enumerate() {
                assert!(
                    v.is_nan(),
                    "{} {n}x{n}: element {i} = {v}: 0 * Inf was dropped",
                    isa.label()
                );
            }
        }
    }
}

#[test]
fn softmax_edge_rows_on_every_isa() {
    for isa in Isa::available() {
        // Single-element rows: softmax of one logit is exactly 1.0.
        let x = randn(&[5, 1], 0x900);
        let y = linalg::softmax_last_with_isa(&x, isa);
        for (i, &v) in y.as_slice().iter().enumerate() {
            assert_eq!(v.to_bits(), 1.0f32.to_bits(), "{} row {i}", isa.label());
        }
        // Zero-width rows: empty output, no panic.
        let empty = NdArray::from_vec([3, 0], vec![]);
        assert_eq!(
            linalg::softmax_last_with_isa(&empty, isa).numel(),
            0,
            "{}",
            isa.label()
        );
        // Zero rows of nonzero width.
        let no_rows = NdArray::from_vec([0, 7], vec![]);
        assert_eq!(
            linalg::softmax_last_with_isa(&no_rows, isa).numel(),
            0,
            "{}",
            isa.label()
        );
        // Width straddling one vector: 7, 8, 9 lanes agree with scalar
        // within the oracle bound (bitwise below avx2).
        for w in [7usize, 8, 9, 16, 17] {
            let x = randn(&[4, w], 0x910 + w as u64);
            let got = linalg::softmax_last_with_isa(&x, isa);
            let want = linalg::softmax_last_with_isa(&x, Isa::Scalar);
            for (i, (&g, &s)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert!(
                    (g - s).abs() <= 1e-6,
                    "{} w={w}: element {i}: {g} vs scalar {s}",
                    isa.label()
                );
            }
        }
    }
}

#[test]
fn layer_norm_edge_rows_on_every_isa() {
    let gamma1 = randn(&[1], 0xA00);
    let beta1 = randn(&[1], 0xA01);
    for isa in Isa::available() {
        // Single-element rows: xhat = 0 (x - mean == 0), so y == beta.
        let x = randn(&[6, 1], 0xA02);
        let y = linalg::layer_norm_last_nd_with_isa(&x, &gamma1, &beta1, 1e-5, isa);
        for (i, &v) in y.as_slice().iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                beta1.as_slice()[0].to_bits(),
                "{} row {i}",
                isa.label()
            );
        }
        // Zero rows.
        let no_rows = NdArray::from_vec([0, 4], vec![]);
        let gamma4 = randn(&[4], 0xA03);
        let beta4 = randn(&[4], 0xA04);
        assert_eq!(
            linalg::layer_norm_last_nd_with_isa(&no_rows, &gamma4, &beta4, 1e-5, isa).numel(),
            0,
            "{}",
            isa.label()
        );
        // Widths around the 4-lane body on every ISA.
        for w in [3usize, 4, 5, 8, 9] {
            let x = randn(&[5, w], 0xA10 + w as u64);
            let gamma = randn(&[w], 0xA20 + w as u64);
            let beta = randn(&[w], 0xA30 + w as u64);
            let got = linalg::layer_norm_last_nd_with_isa(&x, &gamma, &beta, 1e-5, isa);
            let want = linalg::layer_norm_last_nd_with_isa(&x, &gamma, &beta, 1e-5, Isa::Scalar);
            for (i, (&g, &s)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                assert!(
                    (g - s).abs() <= 1e-5 * s.abs().max(1.0),
                    "{} w={w}: element {i}: {g} vs scalar {s}",
                    isa.label()
                );
            }
        }
    }
}
