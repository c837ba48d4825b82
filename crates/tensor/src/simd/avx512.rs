//! AVX-512F matmul micro-kernel — 16 f32 lanes, fused multiply-add.
//!
//! Only the matmul tiles and the 16-lane instances of the lane-parallel
//! attention kernels (forward and backward) live here; every other kernel
//! of the [`super::Isa::Avx512`] tier dispatches to the [`super::avx2`]
//! implementations (an avx512f host always has avx2+fma).
//!
//! Numerically this tier is **bit-identical to the avx2 tier**: each
//! output element still accumulates through a single register lane
//! walking `k` in ascending order with one FMA per step, and FMA is an
//! exact-per-lane IEEE operation — lane position and vector width cannot
//! change the value. The wider registers only change how many of those
//! independent chains run per instruction, so the "avx2 relaxation"
//! documented in DESIGN.md §16 covers this tier verbatim (pinned by
//! `tests/isa_dispatch.rs`).
//!
//! Register layout: `MR=8` rows × `NR=32` columns = sixteen ZMM
//! accumulators (of the 32 architectural ZMM registers) held across the
//! whole `k` walk; each `k` step issues two panel loads, eight broadcasts
//! and sixteen FMAs — enough independent chains to saturate two 512-bit
//! FMA ports at 4-cycle latency. A column tail runs its own dense tile
//! over the full `MR` rows: one ZMM a row for 9–16 columns, one YMM (the
//! avx2 primitives) for ≤ 8 — MBA's `W_O` and every `m = 72` tail.

/// Rows per register tile.
pub(crate) const MR: usize = 8;
/// Columns per register tile (= `panel_width(Avx512)`, two ZMM vectors).
pub(crate) const NR: usize = 32;

crate::simd::matmul_tile! {
    #[target_feature(enable = "avx512f,avx2,fma")]
    tile, lanes, MR
}

use super::avx2::lanes as ymm;
crate::simd::matmul_tile! {
    #[target_feature(enable = "avx512f,avx2,fma")]
    tile8, ymm, MR
}

/// `out[n,m] = a · b` for an `[n, k]` operand `a`, row-major — or, `AT`,
/// stored transposed as `[k, n]`, the `aᵀ` of
/// [`matmul_tn`](super::matmul_tn) — `MR` rows at a time: `b` is either
/// [`pack_b`](super::pack_b)'s panels (`packed`, the blocked path) or
/// row-major `[k, m]` read in place (the small-product and `tn` paths). Per
/// output element one FMA chain over ascending `k` from `+0.0` either way —
/// `AT` from the element's value in `out`, which `aᵀ·g` accumulates into;
/// a stretch of `jw` columns runs the 32-, 16- or 8-column tile,
/// [`panel_span`](super::panel_span)`(jw)` wide.
#[target_feature(enable = "avx512f,avx2,fma")]
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
            // SAFETY: as in `avx2::matmul` — `rows` rows of `a` (`k`
            // elements each, either layout) and of `out` (`jw` live
            // columns) are inside the asserted slices, and `b` holds `k` rows
            // of `span` floats at `stride`, or `jw` of them, masked, when
            // `jw < span`.
            unsafe {
                match (span, jw == span) {
                    (32, true) => tile::<2, false, AT>(a, lda, k, rows, b, stride, o, m, jw),
                    (32, false) => tile::<2, true, AT>(a, lda, k, rows, b, stride, o, m, jw),
                    (16, true) => tile::<1, false, AT>(a, lda, k, rows, b, stride, o, m, jw),
                    (16, false) => tile::<1, true, AT>(a, lda, k, rows, b, stride, o, m, jw),
                    (_, true) => tile8::<1, false, AT>(a, lda, k, rows, b, stride, o, m, jw),
                    (_, false) => tile8::<1, true, AT>(a, lda, k, rows, b, stride, o, m, jw),
                }
            }
        }
    }
}

/// Sixteen-lane vector primitives of the 32- and 16-column matmul tiles and
/// of the lane-parallel attention kernels. Every op is per-lane IEEE
/// arithmetic, so a lane computes the same value here as in the eight-lane
/// avx2 instance; `exp` is the avx2 polynomial op for op, on all sixteen
/// lanes at once (unit-tested bitwise against it below).
mod lanes {
    use crate::simd::avx2::lanes as ymm;
    use std::arch::x86_64::*;

    pub(crate) const LANES: usize = 16;
    /// Weight columns of a one-pass projection block: with three or four
    /// rows' accumulators, as many as thirty-two registers hold beside
    /// the row loaded (the weights are broadcast from memory).
    pub(crate) const PROJECT_COLS: usize = 4;
    pub(crate) type V = __m512;
    /// Per-lane f64 sums: lanes 0–7, lanes 8–15.
    pub(crate) type D = (__m512d, __m512d);

    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn halves(v: V) -> (__m256, __m256) {
        let hi = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v));
        (_mm512_castps512_ps256(v), _mm256_castpd_ps(hi))
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn join(lo: __m256, hi: __m256) -> V {
        let lo = _mm512_castpd256_pd512(_mm256_castps_pd(lo));
        _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, _mm256_castps_pd(hi)))
    }

    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn splat(x: f32) -> V {
        _mm512_set1_ps(x)
    }
    /// # Safety
    /// `p` must be valid for reading `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) unsafe fn load(p: *const f32) -> V {
        unsafe { _mm512_loadu_ps(p) }
    }
    /// # Safety
    /// `p` must be valid for writing `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) unsafe fn store(p: *mut f32, v: V) {
        unsafe { _mm512_storeu_ps(p, v) }
    }
    /// A mask of lanes `0..n`.
    #[inline]
    fn first(n: usize) -> __mmask16 {
        ((1u32 << n) - 1) as __mmask16
    }
    /// `p[..n]` into lanes `0..n`, zeros above; nothing past `p + n` is
    /// read.
    ///
    /// # Safety
    /// `p` must be valid for reading `n ≤ LANES` floats.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) unsafe fn load_first(p: *const f32, n: usize) -> V {
        // SAFETY: the caller vouches for `p[..n]`; masked-off lanes are not
        // read.
        unsafe { _mm512_maskz_loadu_ps(first(n), p) }
    }
    /// Lanes `0..n` of `v` to `p[..n]`; nothing past `p + n` is written.
    ///
    /// # Safety
    /// `p` must be valid for writing `n ≤ LANES` floats.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) unsafe fn store_first(p: *mut f32, v: V, n: usize) {
        // SAFETY: the caller vouches for `p[..n]`; masked-off lanes are not
        // written.
        unsafe { _mm512_mask_storeu_ps(p, first(n), v) }
    }
    /// Two 8×8 transposes at once, one per 256-bit half: lane `c` of half
    /// `h` of `r[i]` becomes lane `i` of half `h` of row `c`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn transpose8x2(r: [V; 8]) -> [V; 8] {
        let t0 = _mm512_unpacklo_ps(r[0], r[1]);
        let t1 = _mm512_unpackhi_ps(r[0], r[1]);
        let t2 = _mm512_unpacklo_ps(r[2], r[3]);
        let t3 = _mm512_unpackhi_ps(r[2], r[3]);
        let t4 = _mm512_unpacklo_ps(r[4], r[5]);
        let t5 = _mm512_unpackhi_ps(r[4], r[5]);
        let t6 = _mm512_unpacklo_ps(r[6], r[7]);
        let t7 = _mm512_unpackhi_ps(r[6], r[7]);
        let u0 = _mm512_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm512_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm512_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm512_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm512_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm512_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm512_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm512_shuffle_ps::<0xEE>(t5, t7);
        // 128-bit quarters 0 and 2 (`lo`) or 1 and 3 (`hi`) of `a` and `b`,
        // interleaved: the avx2 transpose's `permute2f128` per half.
        let lo = _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 8, 9, 10, 11, 24, 25, 26, 27);
        let hi = _mm512_setr_epi32(4, 5, 6, 7, 20, 21, 22, 23, 12, 13, 14, 15, 28, 29, 30, 31);
        [
            _mm512_permutex2var_ps(u0, lo, u4),
            _mm512_permutex2var_ps(u1, lo, u5),
            _mm512_permutex2var_ps(u2, lo, u6),
            _mm512_permutex2var_ps(u3, lo, u7),
            _mm512_permutex2var_ps(u0, hi, u4),
            _mm512_permutex2var_ps(u1, hi, u5),
            _mm512_permutex2var_ps(u2, hi, u6),
            _mm512_permutex2var_ps(u3, hi, u7),
        ]
    }
    /// `panel[c·LANES + λ] = src[base[λ] + offset + c]` for `c < run`: each
    /// lane's run is read as contiguous eight-float stretches (the last
    /// `run % 8` masked), lanes `λ` and `λ + 8` sharing a register, and
    /// turned lane-major by [`transpose8x2`].
    ///
    /// # Safety
    /// `src[base[λ] + offset..][..run]` must be valid for reads for every
    /// `λ`, and `panel[..run·LANES]` for writes.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) unsafe fn load_runs(
        src: *const f32,
        base: &[usize; LANES],
        offset: usize,
        run: usize,
        panel: *mut f32,
    ) {
        for c0 in (0..run).step_by(8) {
            let w = (run - c0).min(8);
            let mut rows = [splat(0.0); 8];
            // SAFETY: lanes `λ` and `λ + 8` each read `w` floats at `c0`
            // of their run; column `c < w` writes panel row `c0 + c < run`.
            unsafe {
                for (lane, row) in rows.iter_mut().enumerate() {
                    let lo = src.add(base[lane] + offset + c0);
                    let hi = src.add(base[lane + 8] + offset + c0);
                    *row = if w == 8 {
                        join(ymm::load(lo), ymm::load(hi))
                    } else {
                        join(ymm::load_first(lo, w), ymm::load_first(hi, w))
                    };
                }
                for (c, col) in transpose8x2(rows).into_iter().enumerate() {
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
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) unsafe fn store_runs(
        panel: *const f32,
        dst: *mut f32,
        base: &[usize; LANES],
        offset: usize,
        run: usize,
        live: usize,
    ) {
        for c0 in (0..run).step_by(8) {
            let w = (run - c0).min(8);
            let mut cols = [splat(0.0); 8];
            // SAFETY: column `c < w` reads panel row `c0 + c < run`; lane
            // `λ < live` writes `w` floats at `c0` of its run.
            unsafe {
                for (c, col) in cols.iter_mut().enumerate() {
                    if c < w {
                        *col = load(panel.add((c0 + c) * LANES));
                    }
                }
                for (lane, row) in transpose8x2(cols).into_iter().enumerate() {
                    let (lo, hi) = halves(row);
                    for (lane, half) in [(lane, lo), (lane + 8, hi)] {
                        if lane < live {
                            let p = dst.add(base[lane] + offset + c0);
                            if w == 8 {
                                ymm::store(p, half);
                            } else {
                                ymm::store_first(p, half, w);
                            }
                        }
                    }
                }
            }
        }
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn fmadd(a: V, b: V, c: V) -> V {
        _mm512_fmadd_ps(a, b, c)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn mul(a: V, b: V) -> V {
        _mm512_mul_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn add(a: V, b: V) -> V {
        _mm512_add_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn sub(a: V, b: V) -> V {
        _mm512_sub_ps(a, b)
    }
    /// `x > acc ? x : acc` per lane (keeps `acc` when `x` is NaN).
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn max(x: V, acc: V) -> V {
        _mm512_max_ps(x, acc)
    }
    /// The avx2 `exp_ps` polynomial on sixteen lanes: the same ops in the
    /// same order (`roundscale` for `round`, a zeroing mask move for the
    /// `andnot` of the underflow mask), so every lane's value is
    /// `exp_ps`'s.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn exp(x: V) -> V {
        use crate::simd::avx2::{
            EXP_C0, EXP_C1, EXP_C2, EXP_C3, EXP_C4, EXP_C5, EXP_HI, EXP_LO, LN2_HI, LN2_LO, LOG2E,
        };
        let underflow = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_set1_ps(EXP_LO));
        let xc = _mm512_min_ps(
            _mm512_set1_ps(EXP_HI),
            _mm512_max_ps(_mm512_set1_ps(EXP_LO), x),
        );
        let n = _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm512_mul_ps(xc, _mm512_set1_ps(LOG2E)),
        );
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(LN2_HI), xc);
        let r = _mm512_fnmadd_ps(n, _mm512_set1_ps(LN2_LO), r);
        let mut y = _mm512_fmadd_ps(_mm512_set1_ps(EXP_C0), r, _mm512_set1_ps(EXP_C1));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(EXP_C2));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(EXP_C3));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(EXP_C4));
        y = _mm512_fmadd_ps(y, r, _mm512_set1_ps(EXP_C5));
        y = _mm512_fmadd_ps(y, _mm512_mul_ps(r, r), r);
        y = _mm512_add_ps(y, _mm512_set1_ps(1.0));
        let pow2 = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
            _mm512_cvtps_epi32(n),
            _mm512_set1_epi32(127),
        )));
        _mm512_maskz_mov_ps(!underflow, _mm512_mul_ps(y, pow2))
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn sum_zero() -> D {
        (_mm512_setzero_pd(), _mm512_setzero_pd())
    }
    /// `sum[lane] += e[lane] as f64`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn sum_add(sum: D, e: V) -> D {
        let (lo, hi) = halves(e);
        (
            _mm512_add_pd(sum.0, _mm512_cvtps_pd(lo)),
            _mm512_add_pd(sum.1, _mm512_cvtps_pd(hi)),
        )
    }
    /// `a[lane] + b[lane]` in f64.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn sum_join(a: D, b: D) -> D {
        (_mm512_add_pd(a.0, b.0), _mm512_add_pd(a.1, b.1))
    }
    /// `(1.0 / sum[lane]) as f32`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(crate) fn sum_recip(sum: D) -> V {
        let one = _mm512_set1_pd(1.0);
        join(
            _mm512_cvtpd_ps(_mm512_div_pd(one, sum.0)),
            _mm512_cvtpd_ps(_mm512_div_pd(one, sum.1)),
        )
    }
}

crate::simd::attention::attention_lanes_kernel! {
    #[target_feature(enable = "avx512f,avx2,fma")]
    lanes
}

crate::simd::attention::attention_backward_kernel! {
    #[target_feature(enable = "avx512f,avx2,fma")]
    lanes
}

#[cfg(test)]
mod tests {
    use std::arch::x86_64::*;

    /// The sixteen-lane `exp` is the avx2 polynomial lane for lane — what
    /// lets the sixteen-lane attention kernel match the avx2 softmax row
    /// kernel bit for bit.
    #[test]
    fn exp_is_the_avx2_polynomial_lane_for_lane() {
        if !crate::simd::Isa::Avx512.is_available() {
            return;
        }
        let mut xs: Vec<f32> = (-2000..=200).map(|i| i as f32 * 0.05).collect();
        xs.extend([
            0.0, -0.0, 1e-30, -1e-30, -87.33655, -87.3366, 88.37626, 89.4, -1e9,
        ]);
        xs.extend([f32::NEG_INFINITY, f32::INFINITY, f32::NAN]);
        xs.resize(xs.len().next_multiple_of(16), -1.0);
        for chunk in xs.chunks_exact(16) {
            let (mut got, mut want) = ([0.0f32; 16], [0.0f32; 16]);
            // SAFETY: avx512f (with avx2+fma) checked above; `chunk`, `got`
            // and `want` are 16 floats each.
            unsafe {
                _mm512_storeu_ps(
                    got.as_mut_ptr(),
                    super::lanes::exp(_mm512_loadu_ps(chunk.as_ptr())),
                );
                for half in [0, 8] {
                    let x = _mm256_loadu_ps(chunk.as_ptr().add(half));
                    _mm256_storeu_ps(want.as_mut_ptr().add(half), crate::simd::avx2::exp_ps(x));
                }
            }
            for ((&x, g), w) in chunk.iter().zip(got).zip(want) {
                assert!(
                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                    "exp({x}): 16 lanes {g} vs avx2 {w}"
                );
            }
        }
    }
}
