//! AVX-512F matmul micro-kernel — 16 f32 lanes, fused multiply-add.
//!
//! Only the blocked matmul and the 16-lane instance of the lane-parallel
//! attention kernel live here; every other kernel of the
//! [`super::Isa::Avx512`] tier dispatches to the [`super::avx2`]
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
//! FMA ports at 4-cycle latency.

use std::arch::x86_64::*;

/// Rows per register tile.
pub const MR: usize = 8;
/// Columns per register tile (= `panel_width(Avx512)`, two ZMM vectors).
pub const NR: usize = 32;

/// Micro-kernel over one band of rows fed from `NR`-wide packed panels:
/// `out[n,m] += a[n,k] * panels`, FMA chain per output lane.
#[target_feature(enable = "avx512f")]
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

/// 8×32 tile with all sixteen accumulators named so they provably live in
/// registers across the `k` loop (16 acc + 2 panel + 1 broadcast = 19 of
/// the 32 ZMM registers).
#[target_feature(enable = "avx512f")]
fn full_tile(a: &[f32], panel: &[f32], out: &mut [f32], i0: usize, k: usize, m: usize, j0: usize) {
    // SAFETY: caller guarantees rows i0..i0+MR and columns j0..j0+NR are in
    // bounds of `out`, `a` holds rows i0..i0+MR of width k, and `panel`
    // holds k*NR packed values.
    unsafe {
        let o = out.as_mut_ptr();
        let mut acc00 = _mm512_loadu_ps(o.add(i0 * m + j0));
        let mut acc01 = _mm512_loadu_ps(o.add(i0 * m + j0 + 16));
        let mut acc10 = _mm512_loadu_ps(o.add((i0 + 1) * m + j0));
        let mut acc11 = _mm512_loadu_ps(o.add((i0 + 1) * m + j0 + 16));
        let mut acc20 = _mm512_loadu_ps(o.add((i0 + 2) * m + j0));
        let mut acc21 = _mm512_loadu_ps(o.add((i0 + 2) * m + j0 + 16));
        let mut acc30 = _mm512_loadu_ps(o.add((i0 + 3) * m + j0));
        let mut acc31 = _mm512_loadu_ps(o.add((i0 + 3) * m + j0 + 16));
        let mut acc40 = _mm512_loadu_ps(o.add((i0 + 4) * m + j0));
        let mut acc41 = _mm512_loadu_ps(o.add((i0 + 4) * m + j0 + 16));
        let mut acc50 = _mm512_loadu_ps(o.add((i0 + 5) * m + j0));
        let mut acc51 = _mm512_loadu_ps(o.add((i0 + 5) * m + j0 + 16));
        let mut acc60 = _mm512_loadu_ps(o.add((i0 + 6) * m + j0));
        let mut acc61 = _mm512_loadu_ps(o.add((i0 + 6) * m + j0 + 16));
        let mut acc70 = _mm512_loadu_ps(o.add((i0 + 7) * m + j0));
        let mut acc71 = _mm512_loadu_ps(o.add((i0 + 7) * m + j0 + 16));
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        // Unrolled by 2: each element's chain still applies its k-steps in
        // ascending order (the second step's FMA consumes the first step's
        // accumulator), so unrolling cannot change bits — it only halves
        // the loop-control overhead per FMA.
        macro_rules! step {
            ($kk:expr) => {{
                let kk = $kk;
                let b0 = _mm512_loadu_ps(pp.add(kk * NR));
                let b1 = _mm512_loadu_ps(pp.add(kk * NR + 16));
                let a0 = _mm512_set1_ps(*ap.add(i0 * k + kk));
                acc00 = _mm512_fmadd_ps(a0, b0, acc00);
                acc01 = _mm512_fmadd_ps(a0, b1, acc01);
                let a1 = _mm512_set1_ps(*ap.add((i0 + 1) * k + kk));
                acc10 = _mm512_fmadd_ps(a1, b0, acc10);
                acc11 = _mm512_fmadd_ps(a1, b1, acc11);
                let a2 = _mm512_set1_ps(*ap.add((i0 + 2) * k + kk));
                acc20 = _mm512_fmadd_ps(a2, b0, acc20);
                acc21 = _mm512_fmadd_ps(a2, b1, acc21);
                let a3 = _mm512_set1_ps(*ap.add((i0 + 3) * k + kk));
                acc30 = _mm512_fmadd_ps(a3, b0, acc30);
                acc31 = _mm512_fmadd_ps(a3, b1, acc31);
                let a4 = _mm512_set1_ps(*ap.add((i0 + 4) * k + kk));
                acc40 = _mm512_fmadd_ps(a4, b0, acc40);
                acc41 = _mm512_fmadd_ps(a4, b1, acc41);
                let a5 = _mm512_set1_ps(*ap.add((i0 + 5) * k + kk));
                acc50 = _mm512_fmadd_ps(a5, b0, acc50);
                acc51 = _mm512_fmadd_ps(a5, b1, acc51);
                let a6 = _mm512_set1_ps(*ap.add((i0 + 6) * k + kk));
                acc60 = _mm512_fmadd_ps(a6, b0, acc60);
                acc61 = _mm512_fmadd_ps(a6, b1, acc61);
                let a7 = _mm512_set1_ps(*ap.add((i0 + 7) * k + kk));
                acc70 = _mm512_fmadd_ps(a7, b0, acc70);
                acc71 = _mm512_fmadd_ps(a7, b1, acc71);
            }};
        }
        let k2 = k - k % 2;
        let mut kk = 0;
        while kk < k2 {
            step!(kk);
            step!(kk + 1);
            kk += 2;
        }
        if kk < k {
            step!(kk);
        }
        _mm512_storeu_ps(o.add(i0 * m + j0), acc00);
        _mm512_storeu_ps(o.add(i0 * m + j0 + 16), acc01);
        _mm512_storeu_ps(o.add((i0 + 1) * m + j0), acc10);
        _mm512_storeu_ps(o.add((i0 + 1) * m + j0 + 16), acc11);
        _mm512_storeu_ps(o.add((i0 + 2) * m + j0), acc20);
        _mm512_storeu_ps(o.add((i0 + 2) * m + j0 + 16), acc21);
        _mm512_storeu_ps(o.add((i0 + 3) * m + j0), acc30);
        _mm512_storeu_ps(o.add((i0 + 3) * m + j0 + 16), acc31);
        _mm512_storeu_ps(o.add((i0 + 4) * m + j0), acc40);
        _mm512_storeu_ps(o.add((i0 + 4) * m + j0 + 16), acc41);
        _mm512_storeu_ps(o.add((i0 + 5) * m + j0), acc50);
        _mm512_storeu_ps(o.add((i0 + 5) * m + j0 + 16), acc51);
        _mm512_storeu_ps(o.add((i0 + 6) * m + j0), acc60);
        _mm512_storeu_ps(o.add((i0 + 6) * m + j0 + 16), acc61);
        _mm512_storeu_ps(o.add((i0 + 7) * m + j0), acc70);
        _mm512_storeu_ps(o.add((i0 + 7) * m + j0 + 16), acc71);
    }
}

/// Ragged tile (fewer than MR rows and/or NR columns): stage the live
/// output lanes through zero-padded stack rows, run the same FMA chains,
/// and store only the live lanes back. Padded lanes multiply against the
/// panel's zero fill and are discarded.
#[target_feature(enable = "avx512f")]
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
        let mut acc = [[_mm512_setzero_ps(); 2]; MR];
        for r in 0..rows {
            acc[r][0] = _mm512_loadu_ps(tile[r].as_ptr());
            acc[r][1] = _mm512_loadu_ps(tile[r].as_ptr().add(16));
        }
        let pp = panel.as_ptr();
        for kk in 0..k {
            let b0 = _mm512_loadu_ps(pp.add(kk * NR));
            let b1 = _mm512_loadu_ps(pp.add(kk * NR + 16));
            for r in 0..rows {
                let av = _mm512_set1_ps(a[(i0 + r) * k + kk]);
                acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
                acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
            }
        }
        for r in 0..rows {
            _mm512_storeu_ps(tile[r].as_mut_ptr(), acc[r][0]);
            _mm512_storeu_ps(tile[r].as_mut_ptr().add(16), acc[r][1]);
        }
    }
    for r in 0..rows {
        out[(i0 + r) * m + j0..(i0 + r) * m + j0 + jw].copy_from_slice(&tile[r][..jw]);
    }
}

/// Sixteen-lane vector primitives of the lane-parallel attention kernel.
/// Every op is per-lane IEEE arithmetic, so a lane computes the same value
/// here as in the eight-lane avx2 instance; `exp` literally runs the avx2
/// polynomial on each 256-bit half.
mod lanes {
    use std::arch::x86_64::*;

    pub const LANES: usize = 16;
    pub type V = __m512;
    pub type I = __m512i;
    /// Per-lane f64 sums: lanes 0–7, lanes 8–15.
    pub type D = (__m512d, __m512d);

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
    pub fn splat(x: f32) -> V {
        _mm512_set1_ps(x)
    }
    /// # Safety
    /// `p` must be valid for reading `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn load(p: *const f32) -> V {
        unsafe { _mm512_loadu_ps(p) }
    }
    /// # Safety
    /// `p` must be valid for writing `LANES` floats.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn store(p: *mut f32, v: V) {
        unsafe { _mm512_storeu_ps(p, v) }
    }
    /// Per-lane element offsets `base[lane] + offset`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    fn index(base: &[i32; LANES], offset: i32) -> I {
        // SAFETY: `base` is exactly one unaligned 512-bit load.
        let b = unsafe { _mm512_loadu_si512(base.as_ptr() as *const __m512i) };
        _mm512_add_epi32(b, _mm512_set1_epi32(offset))
    }
    /// `p[base[lane] + offset]` per lane.
    ///
    /// # Safety
    /// Every such element must be valid for reads.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn gather(p: *const f32, base: &[i32; LANES], offset: i32) -> V {
        unsafe { _mm512_i32gather_ps::<4>(index(base, offset), p) }
    }
    /// `p[base[lane] + offset] = v[lane]` for the first `live` lanes.
    ///
    /// # Safety
    /// Every such element must be valid for writes.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn scatter(p: *mut f32, base: &[i32; LANES], offset: i32, v: V, live: usize) {
        let mask = ((1u32 << live) - 1) as __mmask16;
        unsafe { _mm512_mask_i32scatter_ps::<4>(p, mask, index(base, offset), v) }
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub fn fmadd(a: V, b: V, c: V) -> V {
        _mm512_fmadd_ps(a, b, c)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub fn mul(a: V, b: V) -> V {
        _mm512_mul_ps(a, b)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub fn sub(a: V, b: V) -> V {
        _mm512_sub_ps(a, b)
    }
    /// `x > acc ? x : acc` per lane (keeps `acc` when `x` is NaN).
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub fn max(x: V, acc: V) -> V {
        _mm512_max_ps(x, acc)
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub fn exp(x: V) -> V {
        let (lo, hi) = halves(x);
        join(crate::simd::avx2::exp_ps(lo), crate::simd::avx2::exp_ps(hi))
    }
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub fn sum_zero() -> D {
        (_mm512_setzero_pd(), _mm512_setzero_pd())
    }
    /// `sum[lane] += e[lane] as f64`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub fn sum_add(sum: D, e: V) -> D {
        let (lo, hi) = halves(e);
        (
            _mm512_add_pd(sum.0, _mm512_cvtps_pd(lo)),
            _mm512_add_pd(sum.1, _mm512_cvtps_pd(hi)),
        )
    }
    /// `a[lane] + b[lane]` in f64.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub fn sum_join(a: D, b: D) -> D {
        (_mm512_add_pd(a.0, b.0), _mm512_add_pd(a.1, b.1))
    }
    /// `(1.0 / sum[lane]) as f32`.
    #[inline]
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub fn sum_recip(sum: D) -> V {
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
