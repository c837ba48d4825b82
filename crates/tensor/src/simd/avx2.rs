//! AVX2+FMA micro-kernels — 8 f32 lanes, fused multiply-add.
//!
//! This is the fast tier. Its numeric contract (the "avx2 relaxation",
//! DESIGN.md §16) differs from scalar in exactly two ways:
//!
//! 1. **FMA**: every matmul accumulation step `acc + a*b` becomes
//!    `fma(a, b, acc)` — one rounding instead of two. The chain still
//!    walks `k` in ascending order with a single accumulator lane per
//!    output element, so results are deterministic per ISA whatever the
//!    tile that computes them; they are just (slightly more accurate)
//!    different bits than scalar.
//! 2. **Lane-parallel reductions**: softmax sums, layer-norm statistics
//!    and `norm_sq` accumulate in four f64 lanes folded in a fixed order,
//!    not one serial left-to-right chain.
//!
//! Everything element-wise (sanitize, the normalize and
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
//! (4–5 cycles × 2 ports) that an 8-chain 4×16 tile only just reaches. A
//! column tail of ≤ 8 runs a 6×8 tile over its own 8-wide panel.

use std::arch::x86_64::*;

/// Rows per register tile.
pub(crate) const MR: usize = 6;
/// Columns per register tile (= `panel_width(Avx2)`, two YMM vectors).
pub(crate) const NR: usize = 16;

// -------------------------------------------------------------------------
// Matmul
// -------------------------------------------------------------------------

crate::simd::matmul_tile! {
    #[target_feature(enable = "avx2,fma")]
    tile, lanes, MR
}

/// `out[n,m] = a · b` for an `[n, k]` operand `a`, row-major — or, `AT`,
/// stored transposed as `[k, n]`: the `aᵀ` of [`matmul_tn`](super::matmul_tn),
/// read in place. `MR` rows at a time; `b` is either
/// [`pack_b`](super::pack_b)'s panels (`packed`, the blocked path) or
/// row-major `[k, m]` read in place (the small-product and `tn` paths). Per
/// output element one FMA chain over ascending `k` from `+0.0` either way —
/// `AT` from the element's value in `out`, which `aᵀ·g` accumulates into;
/// a stretch of `jw` columns runs the 16- or the 8-column tile,
/// [`panel_span`](super::panel_span)`(jw)` wide.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul<const AT: bool>(
    a: &[f32],
    b: &[f32],
    packed: bool,
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    assert!(a.len() >= n * k && out.len() >= n * m && b.len() >= k * m);
    let lda = if AT { n } else { k };
    for i0 in (0..n).step_by(MR) {
        let rows = (n - i0).min(MR);
        for j0 in (0..m).step_by(NR) {
            let jw = (m - j0).min(NR);
            let span = super::panel_span(jw);
            let (b0, stride) = if packed { (j0 * k, span) } else { (j0, m) };
            debug_assert!(!packed || b.len() >= b0 + k * span);
            let (a, b, o) = (
                a[if AT { i0 } else { i0 * lda }..].as_ptr(),
                b[b0..].as_ptr(),
                out[i0 * m + j0..].as_mut_ptr(),
            );
            // SAFETY: `rows` rows of `a` from `i0` (either layout, `k`
            // elements each: every offset is below `n·k`), and of `out` from
            // `(i0, j0)` with `jw` live columns, are inside the slices
            // (asserted above); `b` holds `k` rows of `span` floats at
            // `stride` from `b0` — a packed panel — or, unpacked, `jw`
            // columns of `k` rows at stride `m`, `span` of them whenever
            // `jw == span` (otherwise the tile masks to `jw`).
            unsafe {
                match (span, jw == span) {
                    (16, true) => tile::<2, false, AT>(a, lda, k, rows, b, stride, o, m, jw),
                    (16, false) => tile::<2, true, AT>(a, lda, k, rows, b, stride, o, m, jw),
                    (_, true) => tile::<1, false, AT>(a, lda, k, rows, b, stride, o, m, jw),
                    (_, false) => tile::<1, true, AT>(a, lda, k, rows, b, stride, o, m, jw),
                }
            }
        }
    }
}

// -------------------------------------------------------------------------
// exp polynomial
// -------------------------------------------------------------------------

/// Exp underflow cut-off: below this the polynomial path returns 0.
pub(super) const EXP_LO: f32 = -87.33655;
/// Exp overflow clamp: ~ln(f32::MAX).
pub(super) const EXP_HI: f32 = 88.37626;
pub(super) const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln2` split hi/lo for extended-precision range reduction. The hi part's
/// exact bit pattern (low mantissa bits zero) is load-bearing for the split.
#[allow(clippy::excessive_precision)]
pub(super) const LN2_HI: f32 = 0.693_359_375;
pub(super) const LN2_LO: f32 = -2.121_944_4e-4;
/// Minimax coefficients for `exp(r)` on `|r| <= ln2/2` (Cephes `expf`).
pub(super) const EXP_C0: f32 = 1.987_569_1e-4;
pub(super) const EXP_C1: f32 = 1.398_199_9e-3;
pub(super) const EXP_C2: f32 = 8.333_452e-3;
pub(super) const EXP_C3: f32 = 4.166_579_6e-2;
pub(super) const EXP_C4: f32 = 1.666_666_5e-1;
#[allow(clippy::excessive_precision)]
pub(super) const EXP_C5: f32 = 5.000_000_2e-1;

/// Vectorized `exp` on 8 lanes. NaN propagates; +overflow saturates near
/// `f32::MAX`'s exponent; underflow (including `-Inf`) flushes to 0.
#[inline]
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
pub(crate) fn softmax_row(row: &[f32], dst: &mut [f32]) {
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
pub(crate) fn softmax_rows(src: &[f32], dst: &mut [f32], w: usize) {
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

/// Mean and inverse standard deviation of `N` rows of one width: per row two
/// passes, four f64 lanes each, scalar tails summed after the lane fold.
/// The rows' chains interleave, step for step, so one row's add latency
/// hides behind the others'; each row's own chain is the one-row chain
/// (`N = 1`), op for op.
#[target_feature(enable = "avx2,fma")]
fn layer_norm_stats<const N: usize>(rows: [&[f32]; N], eps: f32) -> [(f64, f64); N] {
    let w = rows[0].len();
    debug_assert!(rows.iter().all(|row| row.len() == w));
    let body = w - w % 4;
    let mut stats = [(0.0, 0.0); N];
    // SAFETY: every row holds `w` floats; offsets stay below `body <= w`.
    unsafe {
        let mut acc = [_mm256_setzero_pd(); N];
        let mut j = 0;
        while j < body {
            for (acc, row) in acc.iter_mut().zip(rows) {
                *acc = _mm256_add_pd(*acc, _mm256_cvtps_pd(_mm_loadu_ps(row.as_ptr().add(j))));
            }
            j += 4;
        }
        let mut meanv = [_mm256_setzero_pd(); N];
        for r in 0..N {
            let mut sum = hsum_pd(acc[r]);
            for &x in &rows[r][body..] {
                sum += x as f64;
            }
            stats[r].0 = sum / w as f64;
            meanv[r] = _mm256_set1_pd(stats[r].0);
        }

        let mut vacc = [_mm256_setzero_pd(); N];
        let mut j = 0;
        while j < body {
            for r in 0..N {
                let x = _mm256_cvtps_pd(_mm_loadu_ps(rows[r].as_ptr().add(j)));
                let d = _mm256_sub_pd(x, meanv[r]);
                vacc[r] = _mm256_add_pd(vacc[r], _mm256_mul_pd(d, d));
            }
            j += 4;
        }
        for r in 0..N {
            let (mean, istd) = &mut stats[r];
            let mut var_sum = hsum_pd(vacc[r]);
            for &x in &rows[r][body..] {
                let d = x as f64 - *mean;
                var_sum += d * d;
            }
            let var = var_sum / w as f64;
            *istd = 1.0 / (var + eps as f64).sqrt();
        }
    }
    stats
}

/// Normalizes one row given its statistics. Element-wise f64 arithmetic
/// with the exact scalar operation order (`cvt` → `sub` → `mul` → `cvt`,
/// then f32 `mul` + `add`, no FMA) — identical bits to
/// `scalar::layer_norm_normalize_row` for equal `(mean, istd)`.
#[target_feature(enable = "avx2,fma")]
pub(crate) fn layer_norm_normalize_row(
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
/// then normalize, four rows at a time ([`layer_norm_stats`]) and a ragged
/// last one to three one at a time, the row loop inside the target-feature
/// function so the row kernels inline. `saved` receives `(xhat, inv_std)`
/// for the tape's backward pass.
#[target_feature(enable = "avx2,fma")]
pub(crate) fn layer_norm_rows(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut [f32],
    mut saved: Option<(&mut [f32], &mut [f32])>,
) {
    let rows = x.len() / gamma.len();
    let grouped = rows - rows % 4;
    for first in (0..grouped).step_by(4) {
        layer_norm_group::<4>(first, x, gamma, beta, eps, y, &mut saved);
    }
    for first in grouped..rows {
        layer_norm_group::<1>(first, x, gamma, beta, eps, y, &mut saved);
    }
}

/// Rows `first..first + N` of [`layer_norm_rows`].
#[target_feature(enable = "avx2,fma")]
fn layer_norm_group<const N: usize>(
    first: usize,
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut [f32],
    saved: &mut Option<(&mut [f32], &mut [f32])>,
) {
    let w = gamma.len();
    let rows: [&[f32]; N] = std::array::from_fn(|r| &x[(first + r) * w..][..w]);
    for (r, (row, (mean, istd))) in rows
        .into_iter()
        .zip(layer_norm_stats(rows, eps))
        .enumerate()
    {
        let at = (first + r) * w;
        let xhat = saved.as_mut().map(|(xhat, inv_std)| {
            inv_std[first + r] = istd as f32;
            &mut xhat[at..at + w]
        });
        layer_norm_normalize_row(row, mean, istd, gamma, beta, &mut y[at..at + w], xhat);
    }
}

/// Layer-norm backward over consecutive rows of width `gamma.len()`, one
/// `inv_std` each: four rows at a time ([`layer_norm_backward_group`]) and
/// a ragged last one to three one at a time, accumulating into the caller's
/// `dgamma`/`dbeta` partials row after row.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_norm_backward_rows(
    xhat: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let rows = inv_std.len();
    let grouped = rows - rows % 4;
    for first in (0..grouped).step_by(4) {
        layer_norm_backward_group::<4>(first, xhat, inv_std, gamma, g, dx, dgamma, dbeta);
    }
    for first in grouped..rows {
        layer_norm_backward_group::<1>(first, xhat, inv_std, gamma, g, dx, dgamma, dbeta);
    }
}

/// Layer-norm backward for rows `first..first + N`: per row four-lane f64
/// row sums (relaxed), element-wise `dx` in scalar operation order, and
/// vectorized `dgamma`/`dbeta` accumulation (element-wise, bit-exact) that
/// adds the rows in ascending order. The rows' sum chains interleave, step
/// for step; each row's own chain is the one-row chain (`N = 1`), op for op.
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
fn layer_norm_backward_group<const N: usize>(
    first: usize,
    xhat: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let w = gamma.len();
    let body = w - w % 4;
    let xh: [&[f32]; N] = std::array::from_fn(|r| &xhat[(first + r) * w..][..w]);
    let gs: [&[f32]; N] = std::array::from_fn(|r| &g[(first + r) * w..][..w]);
    let (dgamma, dbeta, dx) = (
        &mut dgamma[..w],
        &mut dbeta[..w],
        &mut dx[first * w..][..N * w],
    );
    let (mut c1, mut c2) = ([0.0f32; N], [0.0f32; N]);
    // SAFETY: every row slice, `gamma`, `dgamma`, `dbeta` and each row of
    // `dx` hold `w` floats; offsets stay below `body <= w`.
    unsafe {
        let mut acc_dy = [_mm256_setzero_pd(); N];
        let mut acc_dyxh = [_mm256_setzero_pd(); N];
        let mut j = 0;
        while j < body {
            let gam = _mm_loadu_ps(gamma.as_ptr().add(j));
            let mut dg = _mm_loadu_ps(dgamma.as_ptr().add(j));
            let mut db = _mm_loadu_ps(dbeta.as_ptr().add(j));
            for r in 0..N {
                let gv = _mm_loadu_ps(gs[r].as_ptr().add(j));
                let xv = _mm_loadu_ps(xh[r].as_ptr().add(j));
                let dy = _mm_mul_ps(gv, gam);
                acc_dy[r] = _mm256_add_pd(acc_dy[r], _mm256_cvtps_pd(dy));
                acc_dyxh[r] = _mm256_add_pd(acc_dyxh[r], _mm256_cvtps_pd(_mm_mul_ps(dy, xv)));
                dg = _mm_add_ps(dg, _mm_mul_ps(gv, xv));
                db = _mm_add_ps(db, gv);
            }
            _mm_storeu_ps(dgamma.as_mut_ptr().add(j), dg);
            _mm_storeu_ps(dbeta.as_mut_ptr().add(j), db);
            j += 4;
        }
        for r in 0..N {
            let (g, xhat) = (gs[r], xh[r]);
            let mut sum_dy = hsum_pd(acc_dy[r]);
            let mut sum_dy_xhat = hsum_pd(acc_dyxh[r]);
            for j in body..w {
                let dy = g[j] * gamma[j];
                sum_dy += dy as f64;
                sum_dy_xhat += (dy * xhat[j]) as f64;
                dgamma[j] += g[j] * xhat[j];
                dbeta[j] += g[j];
            }
            c1[r] = (sum_dy / w as f64) as f32;
            c2[r] = (sum_dy_xhat / w as f64) as f32;
        }
        for (r, dx) in dx.chunks_exact_mut(w).enumerate() {
            let (g, xhat, istd) = (gs[r], xh[r], inv_std[first + r]);
            let c1v = _mm_set1_ps(c1[r]);
            let c2v = _mm_set1_ps(c2[r]);
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
                dx[j] = istd * (dy - c1[r] - xhat[j] * c2[r]);
            }
        }
    }
}

// -------------------------------------------------------------------------
// Flat scans
// -------------------------------------------------------------------------

/// Zeroes NaN/±Inf in place via an 8-lane exponent test; element-wise and
/// bit-exact with the scalar path.
#[target_feature(enable = "avx2,fma")]
pub(crate) fn sanitize_chunk(xs: &mut [f32]) -> usize {
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
pub(crate) fn norm_sq_chunk(xs: &[f32]) -> f64 {
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
// Attention tiles
// -------------------------------------------------------------------------

/// Eight-lane vector primitives of the matmul tiles (here and the avx512
/// tier's 8-column tile) and of the lane-parallel attention kernels.
pub(super) mod lanes {
    use std::arch::x86_64::*;

    pub(crate) const LANES: usize = 8;
    /// Weight columns of a one-pass projection block: with three or four
    /// rows' accumulators, as many as sixteen registers hold beside the
    /// broadcast weights and the row loaded.
    pub(crate) const PROJECT_COLS: usize = 2;
    pub(crate) type V = __m256;
    /// Per-lane f64 sums: lanes 0–3, lanes 4–7.
    pub(crate) type D = (__m256d, __m256d);

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn splat(x: f32) -> V {
        _mm256_set1_ps(x)
    }
    /// # Safety
    /// `p` must be valid for reading `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn load(p: *const f32) -> V {
        unsafe { _mm256_loadu_ps(p) }
    }
    /// # Safety
    /// `p` must be valid for writing `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn store(p: *mut f32, v: V) {
        unsafe { _mm256_storeu_ps(p, v) }
    }
    /// A mask of lanes `0..n`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn first(n: usize) -> __m256i {
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(n as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        )
    }
    /// `p[..n]` into lanes `0..n`, zeros above; nothing past `p + n` is
    /// read.
    ///
    /// # Safety
    /// `p` must be valid for reading `n ≤ LANES` floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn load_first(p: *const f32, n: usize) -> V {
        // SAFETY: the caller vouches for `p[..n]`; masked-off lanes are not
        // read.
        unsafe { _mm256_maskload_ps(p, first(n)) }
    }
    /// Lanes `0..n` of `v` to `p[..n]`; nothing past `p + n` is written.
    ///
    /// # Safety
    /// `p` must be valid for writing `n ≤ LANES` floats.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn store_first(p: *mut f32, v: V, n: usize) {
        // SAFETY: the caller vouches for `p[..n]`; masked-off lanes are not
        // written.
        unsafe { _mm256_maskstore_ps(p, first(n), v) }
    }
    /// 8×8 transpose: lane `c` of `r[λ]` becomes lane `λ` of the result's
    /// row `c`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn transpose8(r: [V; 8]) -> [V; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(u0, u4),
            _mm256_permute2f128_ps::<0x20>(u1, u5),
            _mm256_permute2f128_ps::<0x20>(u2, u6),
            _mm256_permute2f128_ps::<0x20>(u3, u7),
            _mm256_permute2f128_ps::<0x31>(u0, u4),
            _mm256_permute2f128_ps::<0x31>(u1, u5),
            _mm256_permute2f128_ps::<0x31>(u2, u6),
            _mm256_permute2f128_ps::<0x31>(u3, u7),
        ]
    }
    /// `panel[c·LANES + λ] = src[base[λ] + offset + c]` for `c < run`: each
    /// lane's run is read as contiguous eight-float stretches (the last
    /// `run % 8` masked) and turned lane-major by [`transpose8`].
    ///
    /// # Safety
    /// `src[base[λ] + offset..][..run]` must be valid for reads for every
    /// `λ`, and `panel[..run·LANES]` for writes.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn load_runs(
        src: *const f32,
        base: &[usize; LANES],
        offset: usize,
        run: usize,
        panel: *mut f32,
    ) {
        for c0 in (0..run).step_by(LANES) {
            let w = (run - c0).min(LANES);
            let mut rows = [splat(0.0); LANES];
            // SAFETY: lane `λ` reads `w` floats at `c0` of its run; column
            // `c < w` writes panel row `c0 + c < run`.
            unsafe {
                for (row, &b) in rows.iter_mut().zip(base) {
                    let p = src.add(b + offset + c0);
                    *row = if w == LANES {
                        load(p)
                    } else {
                        load_first(p, w)
                    };
                }
                for (c, col) in transpose8(rows).into_iter().enumerate() {
                    if c < w {
                        store(panel.add((c0 + c) * LANES), col);
                    }
                }
            }
        }
    }
    /// The inverse of [`load_runs`] for the first `live` lanes:
    /// `dst[base[λ] + offset + c] = panel[c·LANES + λ]` for `c < run`,
    /// `λ < live`.
    ///
    /// # Safety
    /// `panel[..run·LANES]` must be valid for reads, and
    /// `dst[base[λ] + offset..][..run]` for writes for every `λ < live`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn store_runs(
        panel: *const f32,
        dst: *mut f32,
        base: &[usize; LANES],
        offset: usize,
        run: usize,
        live: usize,
    ) {
        for c0 in (0..run).step_by(LANES) {
            let w = (run - c0).min(LANES);
            let mut cols = [splat(0.0); LANES];
            // SAFETY: column `c < w` reads panel row `c0 + c < run`; lane
            // `λ < live` writes `w` floats at `c0` of its run.
            unsafe {
                for (c, col) in cols.iter_mut().enumerate() {
                    if c < w {
                        *col = load(panel.add((c0 + c) * LANES));
                    }
                }
                for (lane, (row, &b)) in transpose8(cols).into_iter().zip(base).enumerate() {
                    if lane < live {
                        let p = dst.add(b + offset + c0);
                        if w == LANES {
                            store(p, row);
                        } else {
                            store_first(p, row, w);
                        }
                    }
                }
            }
        }
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn fmadd(a: V, b: V, c: V) -> V {
        _mm256_fmadd_ps(a, b, c)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn mul(a: V, b: V) -> V {
        _mm256_mul_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn add(a: V, b: V) -> V {
        _mm256_add_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn sub(a: V, b: V) -> V {
        _mm256_sub_ps(a, b)
    }
    /// `x > acc ? x : acc` per lane — `acc.max(x)` of the row kernels for
    /// every non-NaN `x`, and like it keeps `acc` when `x` is NaN.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn max(x: V, acc: V) -> V {
        _mm256_max_ps(x, acc)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn exp(x: V) -> V {
        super::exp_ps(x)
    }
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn sum_zero() -> D {
        (_mm256_setzero_pd(), _mm256_setzero_pd())
    }
    /// `sum[lane] += e[lane] as f64`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn sum_add(sum: D, e: V) -> D {
        (
            _mm256_add_pd(sum.0, _mm256_cvtps_pd(_mm256_castps256_ps128(e))),
            _mm256_add_pd(sum.1, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(e))),
        )
    }
    /// `a[lane] + b[lane]` in f64.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn sum_join(a: D, b: D) -> D {
        (_mm256_add_pd(a.0, b.0), _mm256_add_pd(a.1, b.1))
    }
    /// `(1.0 / sum[lane]) as f32`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) fn sum_recip(sum: D) -> V {
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

crate::simd::attention::attention_backward_kernel! {
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
