//! AVX2+FMA micro-kernels — 8 f32 lanes, fused multiply-add.
//!
//! This is the fast tier. Its numeric contract (the "avx2 relaxation",
//! DESIGN.md §16) differs from scalar in exactly two ways:
//!
//! 1. **FMA**: every matmul accumulation step `acc + a*b` becomes
//!    `fma(a, b, acc)` — one rounding instead of two. The chain still
//!    walks `k` in ascending order with a single accumulator lane per
//!    output element, so results are deterministic for any thread count;
//!    they are just (slightly more accurate) different bits than scalar.
//! 2. **Lane-parallel reductions**: softmax sums, layer-norm statistics
//!    and `norm_sq` accumulate in four f64 lanes folded in a fixed order,
//!    not one serial left-to-right chain.
//!
//! Everything element-wise (sanitize, dequantization, the normalize and
//! `dx` arithmetic of layer norm, the final softmax scale) performs the
//! identical per-element IEEE ops as the scalar path and produces
//! identical bits given identical inputs.
//!
//! The `exp` used by softmax is a degree-7 polynomial (Cephes-style
//! range reduction `x = n·ln2 + r`, `|r| ≤ ln2/2`) accurate to ~1 ulp;
//! tails of a row run a scalar mirror of the *same* polynomial so every
//! element of a row sees the same function regardless of lane position.
//! Inputs below −87.34 flush to 0 where libm's `expf` would produce a
//! subnormal ≤ 6e−39 — after normalization the difference is far inside
//! the documented oracle bound.
//!
//! Register layout of the matmul micro-kernel: `MR=6` rows × `NR=16`
//! columns = twelve YMM accumulators held across the whole `k` walk; each
//! `k` step issues two panel loads, six broadcasts and twelve FMAs. Twelve
//! independent accumulator chains cover the FMA latency×throughput product
//! (4–5 cycles × 2 ports) that an 8-chain 4×16 tile only just reaches.

use std::arch::x86_64::*;

/// Rows per register tile.
pub const MR: usize = 6;
/// Columns per register tile (= `panel_width(Avx2)`, two YMM vectors).
pub const NR: usize = 16;

// -------------------------------------------------------------------------
// Matmul
// -------------------------------------------------------------------------

/// Micro-kernel over one band of rows fed from `NR`-wide packed panels:
/// `out[n,m] += a[n,k] * panels`, FMA chain per output lane.
#[target_feature(enable = "avx2,fma")]
pub fn matmul_block_rows(a: &[f32], packed: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    let m_panels = m.div_ceil(NR);
    let mut i0 = 0;
    while i0 < n {
        let rows = (n - i0).min(MR);
        for jp in 0..m_panels {
            let j0 = jp * NR;
            let jw = (m - j0).min(NR);
            let panel = &packed[jp * k * NR..(jp + 1) * k * NR];
            if rows == MR && jw == NR {
                full_tile(a, panel, out, i0, k, m, j0);
            } else {
                edge_tile(a, panel, out, i0, rows, k, m, j0, jw);
            }
        }
        i0 += rows;
    }
}

/// 6×16 tile with all twelve accumulators named so they provably live in
/// registers across the `k` loop (12 acc + 2 panel + 1 broadcast = 15 of
/// the 16 YMM registers).
#[target_feature(enable = "avx2,fma")]
fn full_tile(a: &[f32], panel: &[f32], out: &mut [f32], i0: usize, k: usize, m: usize, j0: usize) {
    // SAFETY: caller guarantees rows i0..i0+MR and columns j0..j0+NR are in
    // bounds of `out`, `a` holds rows i0..i0+MR of width k, and `panel`
    // holds k*NR packed values.
    unsafe {
        let o = out.as_mut_ptr();
        let mut acc00 = _mm256_loadu_ps(o.add(i0 * m + j0));
        let mut acc01 = _mm256_loadu_ps(o.add(i0 * m + j0 + 8));
        let mut acc10 = _mm256_loadu_ps(o.add((i0 + 1) * m + j0));
        let mut acc11 = _mm256_loadu_ps(o.add((i0 + 1) * m + j0 + 8));
        let mut acc20 = _mm256_loadu_ps(o.add((i0 + 2) * m + j0));
        let mut acc21 = _mm256_loadu_ps(o.add((i0 + 2) * m + j0 + 8));
        let mut acc30 = _mm256_loadu_ps(o.add((i0 + 3) * m + j0));
        let mut acc31 = _mm256_loadu_ps(o.add((i0 + 3) * m + j0 + 8));
        let mut acc40 = _mm256_loadu_ps(o.add((i0 + 4) * m + j0));
        let mut acc41 = _mm256_loadu_ps(o.add((i0 + 4) * m + j0 + 8));
        let mut acc50 = _mm256_loadu_ps(o.add((i0 + 5) * m + j0));
        let mut acc51 = _mm256_loadu_ps(o.add((i0 + 5) * m + j0 + 8));
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(pp.add(kk * NR));
            let b1 = _mm256_loadu_ps(pp.add(kk * NR + 8));
            let a0 = _mm256_set1_ps(*ap.add(i0 * k + kk));
            acc00 = _mm256_fmadd_ps(a0, b0, acc00);
            acc01 = _mm256_fmadd_ps(a0, b1, acc01);
            let a1 = _mm256_set1_ps(*ap.add((i0 + 1) * k + kk));
            acc10 = _mm256_fmadd_ps(a1, b0, acc10);
            acc11 = _mm256_fmadd_ps(a1, b1, acc11);
            let a2 = _mm256_set1_ps(*ap.add((i0 + 2) * k + kk));
            acc20 = _mm256_fmadd_ps(a2, b0, acc20);
            acc21 = _mm256_fmadd_ps(a2, b1, acc21);
            let a3 = _mm256_set1_ps(*ap.add((i0 + 3) * k + kk));
            acc30 = _mm256_fmadd_ps(a3, b0, acc30);
            acc31 = _mm256_fmadd_ps(a3, b1, acc31);
            let a4 = _mm256_set1_ps(*ap.add((i0 + 4) * k + kk));
            acc40 = _mm256_fmadd_ps(a4, b0, acc40);
            acc41 = _mm256_fmadd_ps(a4, b1, acc41);
            let a5 = _mm256_set1_ps(*ap.add((i0 + 5) * k + kk));
            acc50 = _mm256_fmadd_ps(a5, b0, acc50);
            acc51 = _mm256_fmadd_ps(a5, b1, acc51);
        }
        _mm256_storeu_ps(o.add(i0 * m + j0), acc00);
        _mm256_storeu_ps(o.add(i0 * m + j0 + 8), acc01);
        _mm256_storeu_ps(o.add((i0 + 1) * m + j0), acc10);
        _mm256_storeu_ps(o.add((i0 + 1) * m + j0 + 8), acc11);
        _mm256_storeu_ps(o.add((i0 + 2) * m + j0), acc20);
        _mm256_storeu_ps(o.add((i0 + 2) * m + j0 + 8), acc21);
        _mm256_storeu_ps(o.add((i0 + 3) * m + j0), acc30);
        _mm256_storeu_ps(o.add((i0 + 3) * m + j0 + 8), acc31);
        _mm256_storeu_ps(o.add((i0 + 4) * m + j0), acc40);
        _mm256_storeu_ps(o.add((i0 + 4) * m + j0 + 8), acc41);
        _mm256_storeu_ps(o.add((i0 + 5) * m + j0), acc50);
        _mm256_storeu_ps(o.add((i0 + 5) * m + j0 + 8), acc51);
    }
}

/// Ragged tile (fewer than MR rows and/or NR columns): stage the live
/// output lanes through zero-padded stack rows, run the same FMA chains,
/// and store only the live lanes back. Padded lanes multiply against the
/// panel's zero fill and are discarded.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
fn edge_tile(
    a: &[f32],
    panel: &[f32],
    out: &mut [f32],
    i0: usize,
    rows: usize,
    k: usize,
    m: usize,
    j0: usize,
    jw: usize,
) {
    let mut tile = [[0.0f32; NR]; MR];
    for r in 0..rows {
        tile[r][..jw].copy_from_slice(&out[(i0 + r) * m + j0..(i0 + r) * m + j0 + jw]);
    }
    // SAFETY: tile rows are NR floats; panel holds k*NR values.
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for r in 0..rows {
            acc[r][0] = _mm256_loadu_ps(tile[r].as_ptr());
            acc[r][1] = _mm256_loadu_ps(tile[r].as_ptr().add(8));
        }
        let pp = panel.as_ptr();
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(pp.add(kk * NR));
            let b1 = _mm256_loadu_ps(pp.add(kk * NR + 8));
            for r in 0..rows {
                let av = _mm256_set1_ps(a[(i0 + r) * k + kk]);
                acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
                acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
            }
        }
        for r in 0..rows {
            _mm256_storeu_ps(tile[r].as_mut_ptr(), acc[r][0]);
            _mm256_storeu_ps(tile[r].as_mut_ptr().add(8), acc[r][1]);
        }
    }
    for r in 0..rows {
        out[(i0 + r) * m + j0..(i0 + r) * m + j0 + jw].copy_from_slice(&tile[r][..jw]);
    }
}

/// Small-product path: unpacked `out[n,m] += a[n,k] * b[k,m]`, row by row,
/// `k` ascending, FMA per element — the identical per-element chain to the
/// blocked kernel above, so the blocking threshold never changes bits.
/// Tails use scalar `mul_add`, which compiles to a scalar FMA here.
#[target_feature(enable = "avx2,fma")]
pub fn matmul_small(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    let body = m - m % 8;
    for i in 0..n {
        let out_row = &mut out[i * m..(i + 1) * m];
        for kk in 0..k {
            let a_ik = a[i * k + kk];
            let b_row = &b[kk * m..(kk + 1) * m];
            // SAFETY: j stays within body <= m for both rows.
            unsafe {
                let av = _mm256_set1_ps(a_ik);
                let mut j = 0;
                while j < body {
                    let prod = _mm256_fmadd_ps(
                        av,
                        _mm256_loadu_ps(b_row.as_ptr().add(j)),
                        _mm256_loadu_ps(out_row.as_ptr().add(j)),
                    );
                    _mm256_storeu_ps(out_row.as_mut_ptr().add(j), prod);
                    j += 8;
                }
            }
            for j in body..m {
                out_row[j] = a_ik.mul_add(b_row[j], out_row[j]);
            }
        }
    }
}

// -------------------------------------------------------------------------
// exp polynomial
// -------------------------------------------------------------------------

/// Exp underflow cut-off: below this the polynomial path returns 0.
const EXP_LO: f32 = -87.33655;
/// Exp overflow clamp: ~ln(f32::MAX).
const EXP_HI: f32 = 88.37626;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln2` split hi/lo for extended-precision range reduction. The hi part's
/// exact bit pattern (low mantissa bits zero) is load-bearing for the split.
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Minimax coefficients for `exp(r)` on `|r| <= ln2/2` (Cephes `expf`).
const EXP_C0: f32 = 1.987_569_1e-4;
const EXP_C1: f32 = 1.398_199_9e-3;
const EXP_C2: f32 = 8.333_452e-3;
const EXP_C3: f32 = 4.166_579_6e-2;
const EXP_C4: f32 = 1.666_666_5e-1;
#[allow(clippy::excessive_precision)]
const EXP_C5: f32 = 5.000_000_2e-1;

/// Vectorized `exp` on 8 lanes. NaN propagates; +overflow saturates near
/// `f32::MAX`'s exponent; underflow (including `-Inf`) flushes to 0.
#[target_feature(enable = "avx2,fma")]
pub(super) fn exp_ps(x: __m256) -> __m256 {
    {
        let underflow = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_LO));
        let xc = _mm256_min_ps(
            _mm256_set1_ps(EXP_HI),
            _mm256_max_ps(_mm256_set1_ps(EXP_LO), x),
        );
        let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(xc, _mm256_set1_ps(LOG2E)),
        );
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_HI), xc);
        let r = _mm256_fnmadd_ps(n, _mm256_set1_ps(LN2_LO), r);
        let mut y = _mm256_fmadd_ps(_mm256_set1_ps(EXP_C0), r, _mm256_set1_ps(EXP_C1));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(EXP_C2));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(EXP_C3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(EXP_C4));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(EXP_C5));
        let r2 = _mm256_mul_ps(r, r);
        y = _mm256_fmadd_ps(y, r2, r);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // 2^n via direct exponent-field construction (|n| <= 128 here).
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(n),
            _mm256_set1_epi32(127),
        )));
        _mm256_andnot_ps(underflow, _mm256_mul_ps(y, pow2))
    }
}

/// Scalar mirror of [`exp_ps`]: identical operations (`mul_add` compiles
/// to scalar FMA under this target feature), so row tails see the same
/// function as the vector body — and one lane of the lane-parallel
/// attention kernel sees the same function as a narrow row's tail. NaN
/// propagates as in the vector form (`f32::min` would swallow it).
#[target_feature(enable = "avx2,fma")]
fn exp_scalar(x: f32) -> f32 {
    if x < EXP_LO {
        return 0.0;
    }
    let xc = if x > EXP_HI { EXP_HI } else { x };
    let n = (xc * LOG2E).round_ties_even();
    let r = (-n).mul_add(LN2_HI, xc);
    let r = (-n).mul_add(LN2_LO, r);
    let mut y = EXP_C0.mul_add(r, EXP_C1);
    y = y.mul_add(r, EXP_C2);
    y = y.mul_add(r, EXP_C3);
    y = y.mul_add(r, EXP_C4);
    y = y.mul_add(r, EXP_C5);
    y = y.mul_add(r * r, r) + 1.0;
    let pow2 = f32::from_bits(((n as i32 + 127) << 23) as u32);
    y * pow2
}

// -------------------------------------------------------------------------
// Softmax
// -------------------------------------------------------------------------

/// Softmax of one row: vector max → polynomial exp with four-lane f64
/// sum → element-wise scale. Same traversal structure as
/// `scalar::softmax_row`; reductions fold lanes in a fixed order.
#[target_feature(enable = "avx2,fma")]
pub fn softmax_row(row: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(row.len(), dst.len());
    let w = row.len();
    let body = w - w % 8;
    // SAFETY: all pointer offsets stay below `body <= w`.
    unsafe {
        // Row maximum.
        let mut max = f32::NEG_INFINITY;
        if body > 0 {
            let mut vmax = _mm256_set1_ps(f32::NEG_INFINITY);
            let mut j = 0;
            while j < body {
                vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row.as_ptr().add(j)));
                j += 8;
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), vmax);
            for &l in &lanes {
                max = max.max(l);
            }
        }
        for &x in &row[body..] {
            max = max.max(x);
        }

        // exp and f64 lane sums.
        let mv = _mm256_set1_ps(max);
        let mut acc_lo = _mm256_setzero_pd();
        let mut acc_hi = _mm256_setzero_pd();
        let mut j = 0;
        while j < body {
            let e = exp_ps(_mm256_sub_ps(_mm256_loadu_ps(row.as_ptr().add(j)), mv));
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), e);
            acc_lo = _mm256_add_pd(acc_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
            acc_hi = _mm256_add_pd(acc_hi, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(e)));
            j += 8;
        }
        let mut sum = hsum_pd(_mm256_add_pd(acc_lo, acc_hi));
        for (d, &x) in dst[body..].iter_mut().zip(&row[body..]) {
            let e = exp_scalar(x - max);
            *d = e;
            sum += e as f64;
        }

        // Scale — element-wise, identical rounding to the scalar path.
        let inv = (1.0 / sum) as f32;
        let iv = _mm256_set1_ps(inv);
        let mut j = 0;
        while j < body {
            let d = _mm256_mul_ps(_mm256_loadu_ps(dst.as_ptr().add(j)), iv);
            _mm256_storeu_ps(dst.as_mut_ptr().add(j), d);
            j += 8;
        }
        for d in dst[body..].iter_mut() {
            *d *= inv;
        }
    }
}

/// [`softmax_row`] over consecutive rows of width `w`, the row loop inside
/// the target-feature function so the row kernel inlines.
#[target_feature(enable = "avx2,fma")]
pub fn softmax_rows(src: &[f32], dst: &mut [f32], w: usize) {
    for (s, d) in src.chunks_exact(w).zip(dst.chunks_exact_mut(w)) {
        softmax_row(s, d);
    }
}

/// Fixed-order horizontal sum of four f64 lanes: `((l0+l1)+l2)+l3`.
#[target_feature(enable = "avx2,fma")]
fn hsum_pd(v: __m256d) -> f64 {
    let mut lanes = [0.0f64; 4];
    // SAFETY: stack store of one YMM register.
    unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), v) };
    ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3]
}

// -------------------------------------------------------------------------
// Layer norm
// -------------------------------------------------------------------------

/// Mean and inverse standard deviation of one row: two passes, four f64
/// lanes each, scalar tails summed after the lane fold.
#[target_feature(enable = "avx2,fma")]
pub fn layer_norm_row_stats(row: &[f32], eps: f32) -> (f64, f64) {
    let w = row.len();
    let body = w - w % 4;
    // SAFETY: offsets stay below `body <= w`.
    unsafe {
        let mut acc = _mm256_setzero_pd();
        let mut j = 0;
        while j < body {
            acc = _mm256_add_pd(acc, _mm256_cvtps_pd(_mm_loadu_ps(row.as_ptr().add(j))));
            j += 4;
        }
        let mut sum = hsum_pd(acc);
        for &x in &row[body..] {
            sum += x as f64;
        }
        let mean = sum / w as f64;

        let meanv = _mm256_set1_pd(mean);
        let mut vacc = _mm256_setzero_pd();
        let mut j = 0;
        while j < body {
            let d = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(row.as_ptr().add(j))), meanv);
            vacc = _mm256_add_pd(vacc, _mm256_mul_pd(d, d));
            j += 4;
        }
        let mut var_sum = hsum_pd(vacc);
        for &x in &row[body..] {
            let d = x as f64 - mean;
            var_sum += d * d;
        }
        let var = var_sum / w as f64;
        let istd = 1.0 / (var + eps as f64).sqrt();
        (mean, istd)
    }
}

/// Normalizes one row given its statistics. Element-wise f64 arithmetic
/// with the exact scalar operation order (`cvt` → `sub` → `mul` → `cvt`,
/// then f32 `mul` + `add`, no FMA) — identical bits to
/// `scalar::layer_norm_normalize_row` for equal `(mean, istd)`.
#[target_feature(enable = "avx2,fma")]
pub fn layer_norm_normalize_row(
    row: &[f32],
    mean: f64,
    istd: f64,
    gamma: &[f32],
    beta: &[f32],
    y: &mut [f32],
    xhat_out: Option<&mut [f32]>,
) {
    let w = row.len();
    let body = w - w % 4;
    // SAFETY: offsets stay below `body <= w`; all slices have length w.
    unsafe {
        let meanv = _mm256_set1_pd(mean);
        let istdv = _mm256_set1_pd(istd);
        match xhat_out {
            Some(xhat) => {
                let mut j = 0;
                while j < body {
                    let xv = _mm256_cvtps_pd(_mm_loadu_ps(row.as_ptr().add(j)));
                    let xh = _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_sub_pd(xv, meanv), istdv));
                    _mm_storeu_ps(xhat.as_mut_ptr().add(j), xh);
                    let yv = _mm_add_ps(
                        _mm_mul_ps(xh, _mm_loadu_ps(gamma.as_ptr().add(j))),
                        _mm_loadu_ps(beta.as_ptr().add(j)),
                    );
                    _mm_storeu_ps(y.as_mut_ptr().add(j), yv);
                    j += 4;
                }
                for j in body..w {
                    let xh = ((row[j] as f64 - mean) * istd) as f32;
                    xhat[j] = xh;
                    y[j] = xh * gamma[j] + beta[j];
                }
            }
            None => {
                let mut j = 0;
                while j < body {
                    let xv = _mm256_cvtps_pd(_mm_loadu_ps(row.as_ptr().add(j)));
                    let xh = _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_sub_pd(xv, meanv), istdv));
                    let yv = _mm_add_ps(
                        _mm_mul_ps(xh, _mm_loadu_ps(gamma.as_ptr().add(j))),
                        _mm_loadu_ps(beta.as_ptr().add(j)),
                    );
                    _mm_storeu_ps(y.as_mut_ptr().add(j), yv);
                    j += 4;
                }
                for j in body..w {
                    let xh = ((row[j] as f64 - mean) * istd) as f32;
                    y[j] = xh * gamma[j] + beta[j];
                }
            }
        }
    }
}

/// Layer norm over consecutive rows of width `gamma.len()` — statistics
/// then normalize per row, the row loop inside the target-feature function
/// so both row kernels inline. `saved` receives `(xhat, inv_std)` for the
/// tape's backward pass.
#[target_feature(enable = "avx2,fma")]
pub fn layer_norm_rows(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut [f32],
    mut saved: Option<(&mut [f32], &mut [f32])>,
) {
    let w = gamma.len();
    for (r, (row, y_row)) in x.chunks_exact(w).zip(y.chunks_exact_mut(w)).enumerate() {
        let (mean, istd) = layer_norm_row_stats(row, eps);
        let xhat = saved.as_mut().map(|(xhat, inv_std)| {
            inv_std[r] = istd as f32;
            &mut xhat[r * w..(r + 1) * w]
        });
        layer_norm_normalize_row(row, mean, istd, gamma, beta, y_row, xhat);
    }
}

/// Layer-norm backward for one row: four-lane f64 row sums (relaxed),
/// element-wise `dx` in scalar operation order, vectorized
/// `dgamma`/`dbeta` accumulation (element-wise, bit-exact).
#[target_feature(enable = "avx2,fma")]
pub fn layer_norm_backward_row(
    xhat: &[f32],
    istd: f32,
    gamma: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let w = xhat.len();
    let body = w - w % 4;
    // SAFETY: offsets stay below `body <= w`; all slices have length w.
    unsafe {
        let mut acc_dy = _mm256_setzero_pd();
        let mut acc_dyxh = _mm256_setzero_pd();
        let mut j = 0;
        while j < body {
            let gv = _mm_loadu_ps(g.as_ptr().add(j));
            let gam = _mm_loadu_ps(gamma.as_ptr().add(j));
            let xh = _mm_loadu_ps(xhat.as_ptr().add(j));
            let dy = _mm_mul_ps(gv, gam);
            acc_dy = _mm256_add_pd(acc_dy, _mm256_cvtps_pd(dy));
            acc_dyxh = _mm256_add_pd(acc_dyxh, _mm256_cvtps_pd(_mm_mul_ps(dy, xh)));
            let dg = _mm_add_ps(_mm_loadu_ps(dgamma.as_ptr().add(j)), _mm_mul_ps(gv, xh));
            _mm_storeu_ps(dgamma.as_mut_ptr().add(j), dg);
            let db = _mm_add_ps(_mm_loadu_ps(dbeta.as_ptr().add(j)), gv);
            _mm_storeu_ps(dbeta.as_mut_ptr().add(j), db);
            j += 4;
        }
        let mut sum_dy = hsum_pd(acc_dy);
        let mut sum_dy_xhat = hsum_pd(acc_dyxh);
        for j in body..w {
            let dy = g[j] * gamma[j];
            sum_dy += dy as f64;
            sum_dy_xhat += (dy * xhat[j]) as f64;
            dgamma[j] += g[j] * xhat[j];
            dbeta[j] += g[j];
        }
        let c1 = (sum_dy / w as f64) as f32;
        let c2 = (sum_dy_xhat / w as f64) as f32;
        let c1v = _mm_set1_ps(c1);
        let c2v = _mm_set1_ps(c2);
        let iv = _mm_set1_ps(istd);
        let mut j = 0;
        while j < body {
            let dy = _mm_mul_ps(
                _mm_loadu_ps(g.as_ptr().add(j)),
                _mm_loadu_ps(gamma.as_ptr().add(j)),
            );
            let xh = _mm_loadu_ps(xhat.as_ptr().add(j));
            // istd * (dy - c1 - xh*c2) in the scalar op order: sub, sub, mul.
            let t = _mm_sub_ps(_mm_sub_ps(dy, c1v), _mm_mul_ps(xh, c2v));
            _mm_storeu_ps(dx.as_mut_ptr().add(j), _mm_mul_ps(iv, t));
            j += 4;
        }
        for j in body..w {
            let dy = g[j] * gamma[j];
            dx[j] = istd * (dy - c1 - xhat[j] * c2);
        }
    }
}

// -------------------------------------------------------------------------
// Flat scans
// -------------------------------------------------------------------------

/// Zeroes NaN/±Inf in place via an 8-lane exponent test; element-wise and
/// bit-exact with the scalar path.
#[target_feature(enable = "avx2,fma")]
pub fn sanitize_chunk(xs: &mut [f32]) -> usize {
    let len = xs.len();
    let body = len - len % 8;
    let mut bad = 0usize;
    // SAFETY: offsets stay below `body <= len`.
    unsafe {
        let abs_mask = _mm256_set1_epi32(0x7fff_ffff);
        let max_finite = _mm256_set1_epi32(0x7f7f_ffff);
        let mut j = 0;
        while j < body {
            let v = _mm256_loadu_ps(xs.as_ptr().add(j));
            let bits = _mm256_castps_si256(v);
            let nonfinite = _mm256_cmpgt_epi32(_mm256_and_si256(bits, abs_mask), max_finite);
            let mask = _mm256_castsi256_ps(nonfinite);
            bad += _mm256_movemask_ps(mask).count_ones() as usize;
            _mm256_storeu_ps(xs.as_mut_ptr().add(j), _mm256_andnot_ps(mask, v));
            j += 8;
        }
    }
    for x in xs[body..].iter_mut() {
        if !x.is_finite() {
            *x = 0.0;
            bad += 1;
        }
    }
    bad
}

/// Sum of squares in four f64 lanes (each f32 squares exactly in f64, so
/// only the lane additions round), tail summed after the fold.
#[target_feature(enable = "avx2,fma")]
pub fn norm_sq_chunk(xs: &[f32]) -> f64 {
    let len = xs.len();
    let body = len - len % 4;
    // SAFETY: offsets stay below `body <= len`.
    unsafe {
        let mut acc = _mm256_setzero_pd();
        let mut j = 0;
        while j < body {
            let d = _mm256_cvtps_pd(_mm_loadu_ps(xs.as_ptr().add(j)));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            j += 4;
        }
        let mut total = hsum_pd(acc);
        for &x in &xs[body..] {
            total += (x as f64) * (x as f64);
        }
        total
    }
}

// -------------------------------------------------------------------------
// Dequantization
// -------------------------------------------------------------------------

/// `out[j] = q[j] as f32 * scale`, widening eight int8 lanes per step —
/// exact per element, identical bits to the scalar dequantization.
#[target_feature(enable = "avx2,fma")]
pub fn dequant_row_i8(qs: &[i8], scale: f32, out: &mut [f32]) {
    let len = out.len().min(qs.len());
    let body = len - len % 8;
    // SAFETY: each iteration reads exactly 8 bytes at offset j < body <= len-8+1.
    unsafe {
        let sv = _mm256_set1_ps(scale);
        let mut j = 0;
        while j < body {
            let bytes = _mm_loadl_epi64(qs.as_ptr().add(j) as *const __m128i);
            let ints = _mm256_cvtepi8_epi32(bytes);
            let vals = _mm256_mul_ps(_mm256_cvtepi32_ps(ints), sv);
            _mm256_storeu_ps(out.as_mut_ptr().add(j), vals);
            j += 8;
        }
    }
    for j in body..len {
        out[j] = qs[j] as f32 * scale;
    }
}

// -------------------------------------------------------------------------
// Attention tiles
// -------------------------------------------------------------------------

/// Eight-lane vector primitives of the lane-parallel attention kernel.
mod lanes {
    use std::arch::x86_64::*;

    pub const LANES: usize = 8;
    pub type V = __m256;
    pub type I = __m256i;
    /// Per-lane f64 sums: lanes 0–3, lanes 4–7.
    pub type D = (__m256d, __m256d);

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn splat(x: f32) -> V {
        _mm256_set1_ps(x)
    }
    /// # Safety
    /// `p` must be valid for reading `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn load(p: *const f32) -> V {
        unsafe { _mm256_loadu_ps(p) }
    }
    /// # Safety
    /// `p` must be valid for writing `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn store(p: *mut f32, v: V) {
        unsafe { _mm256_storeu_ps(p, v) }
    }
    /// Per-lane element offsets `base[lane] + offset`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn index(base: &[i32; LANES], offset: i32) -> I {
        // SAFETY: `base` is exactly one unaligned 256-bit load.
        let b = unsafe { _mm256_loadu_si256(base.as_ptr() as *const __m256i) };
        _mm256_add_epi32(b, _mm256_set1_epi32(offset))
    }
    /// `p[base[lane] + offset]` per lane.
    ///
    /// # Safety
    /// Every such element must be valid for reads.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gather(p: *const f32, base: &[i32; LANES], offset: i32) -> V {
        unsafe { _mm256_i32gather_ps::<4>(p, index(base, offset)) }
    }
    /// `p[base[lane] + offset] = v[lane]` for the first `live` lanes (avx2
    /// has no scatter instruction: one scalar store per lane).
    ///
    /// # Safety
    /// Every such element must be valid for writes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn scatter(p: *mut f32, base: &[i32; LANES], offset: i32, v: V, live: usize) {
        let mut lanes = [0.0f32; LANES];
        // SAFETY: stack store of one YMM register; the element writes are
        // the caller's contract.
        unsafe {
            _mm256_storeu_ps(lanes.as_mut_ptr(), v);
            for (&b, &x) in base.iter().zip(&lanes).take(live) {
                *p.add((b + offset) as usize) = x;
            }
        }
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn fmadd(a: V, b: V, c: V) -> V {
        _mm256_fmadd_ps(a, b, c)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn mul(a: V, b: V) -> V {
        _mm256_mul_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn sub(a: V, b: V) -> V {
        _mm256_sub_ps(a, b)
    }
    /// `x > acc ? x : acc` per lane — `acc.max(x)` of the row kernels for
    /// every non-NaN `x`, and like it keeps `acc` when `x` is NaN.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn max(x: V, acc: V) -> V {
        _mm256_max_ps(x, acc)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn exp(x: V) -> V {
        super::exp_ps(x)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn sum_zero() -> D {
        (_mm256_setzero_pd(), _mm256_setzero_pd())
    }
    /// `sum[lane] += e[lane] as f64`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn sum_add(sum: D, e: V) -> D {
        (
            _mm256_add_pd(sum.0, _mm256_cvtps_pd(_mm256_castps256_ps128(e))),
            _mm256_add_pd(sum.1, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(e))),
        )
    }
    /// `a[lane] + b[lane]` in f64.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn sum_join(a: D, b: D) -> D {
        (_mm256_add_pd(a.0, b.0), _mm256_add_pd(a.1, b.1))
    }
    /// `(1.0 / sum[lane]) as f32`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub fn sum_recip(sum: D) -> V {
        let one = _mm256_set1_pd(1.0);
        _mm256_set_m128(
            _mm256_cvtpd_ps(_mm256_div_pd(one, sum.1)),
            _mm256_cvtpd_ps(_mm256_div_pd(one, sum.0)),
        )
    }
}

crate::simd::attention::attention_lanes_kernel! {
    #[target_feature(enable = "avx2,fma")]
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane-parallel attention kernel leans on `exp_ps` being, lane for
    /// lane, the function `exp_scalar` is — the same claim the softmax row
    /// kernel makes between its vector body and its tail.
    #[test]
    fn exp_ps_is_the_lanewise_mirror_of_exp_scalar() {
        if !crate::simd::Isa::Avx2.is_available() {
            return;
        }
        let mut xs: Vec<f32> = (-2000..=200).map(|i| i as f32 * 0.05).collect();
        xs.extend([
            0.0,
            -0.0,
            1e-30,
            -1e-30,
            EXP_LO,
            EXP_LO - 1e-4,
            EXP_HI,
            EXP_HI + 1.0,
            -1e9,
            f32::NEG_INFINITY,
            f32::INFINITY,
            f32::NAN,
        ]);
        while !xs.len().is_multiple_of(8) {
            xs.push(-1.0);
        }
        for chunk in xs.chunks_exact(8) {
            let mut got = [0.0f32; 8];
            // SAFETY: avx2+fma checked above; `chunk` and `got` are 8 floats.
            let want: Vec<f32> = unsafe {
                _mm256_storeu_ps(got.as_mut_ptr(), exp_ps(_mm256_loadu_ps(chunk.as_ptr())));
                chunk.iter().map(|&x| exp_scalar(x)).collect()
            };
            for ((&x, g), w) in chunk.iter().zip(got).zip(want) {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "exp({x}): vector {g} vs scalar {w}"
                );
            }
        }
    }
}
