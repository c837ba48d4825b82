//! Runtime-dispatched SIMD micro-kernels for the linalg hot paths.
//!
//! The compute-heavy kernels in [`crate::linalg`] (blocked matmul, softmax,
//! layer norm, the attention-tile kernel of `attention` and the flat
//! sanitize/norm scans) each exist in up to three implementations selected
//! once per process by [`active_isa`]:
//!
//! | ISA      | selected when                           | numeric contract |
//! |----------|-----------------------------------------|------------------|
//! | `scalar` | always available (the reference chains) | bit-exact with `matmul_reference` and the pre-SIMD kernels |
//! | `avx2`   | x86-64 with AVX2 **and** FMA            | per-ISA deterministic, oracle-bounded (see below) |
//! | `avx512` | x86-64 with AVX-512F (plus AVX2+FMA)    | **bit-identical to `avx2`**: a wider matmul micro-kernel and 16-lane attention kernels (forward and backward) running the same per-element chains; every other kernel dispatches to the avx2 implementation |
//!
//! # The avx2 relaxation
//!
//! The AVX2 matmul micro-kernel fuses each `a_ik * b_kj + acc` step into a
//! single FMA (one rounding instead of two) and the softmax/layer-norm/norm
//! reductions accumulate in vector lanes that fold in a fixed order that
//! differs from the serial left-to-right chain. Results on the avx2 path are
//! therefore *not* bit-identical to the scalar path — they are typically
//! slightly **more** accurate — but they are:
//!
//! 1. **deterministic per ISA**: the same inputs produce the same bits on
//!    every run — a kernel runs on its caller's thread, and each output
//!    element's chain is fixed by the problem shape and the dispatched ISA;
//! 2. **oracle-bounded**: within a documented abs/rel tolerance of the
//!    f64 reference (pinned by `tests/isa_dispatch.rs`);
//! 3. **IEEE-faithful**: `0 * Inf` still produces NaN on every vector path
//!    (FMA and vector multiplies follow the same IEEE-754 invalid-operation
//!    rules as the scalar ops — see `tests/ieee_semantics.rs`).
//!
//! See DESIGN.md §16 for the full contract and the register layout of the
//! micro-kernels.
//!
//! # Dispatch
//!
//! [`active_isa`] picks the best ISA the host supports, once, on first use.
//! The `HIRE_ISA` environment variable (`scalar` | `avx2` | `avx512`)
//! forces a specific path for testing and benchmarking; requesting an ISA
//! the host cannot run is a hard error (a benchmark silently falling back
//! would report numbers for the wrong kernel). Tests that need several ISAs
//! in one process use the explicit `*_with_isa` entry points in
//! [`crate::linalg`] instead of the env knob.

use std::sync::OnceLock;

pub(crate) mod attention;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;
pub(crate) mod scalar;

pub use attention::AttnGrid;
pub(crate) use attention::{
    attention_backward_tiles, attention_tiles, mhsa_one_pass, mhsa_one_pass_backward,
};

/// Instruction-set architecture a kernel can be dispatched to.
///
/// Ordered by preference: `Scalar < Avx2 < Avx512`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// Portable Rust loops — the reference chains every other path is
    /// measured against. Always available.
    Scalar,
    /// AVX2 + FMA intrinsics, 8 f32 lanes. Per-ISA deterministic with a
    /// documented relaxation (module docs).
    Avx2,
    /// AVX-512F, 16 f32 lanes for the matmul micro-kernel, avx2 for
    /// everything else. Bit-identical to `Avx2` (module docs).
    Avx512,
}

impl Isa {
    /// Stable lowercase label used by `HIRE_ISA`, bench reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Whether the current host can execute this path.
    pub(crate) fn is_available(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            // The non-matmul kernels of this tier run the avx2 paths, so
            // avx2+fma must be present too (they are on every avx512f CPU).
            Isa::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Every ISA the current host can execute, in ascending preference
    /// order (always starts with [`Isa::Scalar`]). The ISA cross-check
    /// suite iterates this to exercise each path in one process.
    pub fn available() -> Vec<Isa> {
        [Isa::Scalar, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|isa| isa.is_available())
            .collect()
    }

    fn parse(value: &str) -> Option<Isa> {
        match value.to_ascii_lowercase().as_str() {
            "scalar" => Some(Isa::Scalar),
            "avx2" => Some(Isa::Avx2),
            "avx512" => Some(Isa::Avx512),
            _ => None,
        }
    }
}

static ACTIVE: OnceLock<Isa> = OnceLock::new();

/// The ISA every dispatched kernel runs on in this process.
///
/// Resolved once on first use: the `HIRE_ISA` env override if set (an
/// unknown or unsupported value panics — a forced benchmark run must never
/// silently measure a different kernel), otherwise the best available path.
pub fn active_isa() -> Isa {
    *ACTIVE.get_or_init(|| match std::env::var("HIRE_ISA") {
        Ok(value) => {
            let isa = Isa::parse(&value)
                .unwrap_or_else(|| panic!("HIRE_ISA={value:?} is not one of scalar|avx2|avx512"));
            assert!(
                isa.is_available(),
                "HIRE_ISA={} requested but this host cannot run it (available: {:?})",
                isa.label(),
                Isa::available()
                    .iter()
                    .map(|i| i.label())
                    .collect::<Vec<_>>(),
            );
            isa
        }
        Err(_) => *Isa::available().last().expect("scalar is always available"),
    })
}

// ---------------------------------------------------------------------------
// Matmul micro-kernel dispatch
// ---------------------------------------------------------------------------

/// Packed-`b` panel width (`NR`) for `isa` — how many output columns one
/// micro-kernel tile covers. The packing layout in `linalg::matmul_kernel`
/// is parameterized on this, so each ISA gets panels its registers fill
/// exactly (scalar: 8 = two SSE vectors, which is what rustc makes of the
/// loop on x86-64; avx2: 16 = two YMM vectors; avx512: 32 = two ZMM
/// vectors).
pub(crate) const fn panel_width(isa: Isa) -> usize {
    match isa {
        Isa::Scalar => 8,
        Isa::Avx2 => 16,
        Isa::Avx512 => 32,
    }
}

/// Columns of the packed panel — and of the register tile — that cover a
/// stretch of `jw ≤ nr` output columns: 8, 16 or 32, the first that fits.
/// A full stretch gets the ISA's whole panel (`nr` is 8, 16 or 32); a
/// thinner column tail (MBA's `W_O` at `m = 8`, MBU/MBI's at `72 = 2·32 +
/// 8`, the decoder's `m = 1`) gets a dense 8- or 16-column panel of its
/// own instead of `nr` columns that are mostly padding.
pub(crate) const fn panel_span(jw: usize) -> usize {
    if jw <= 8 {
        8
    } else {
        jw.next_power_of_two()
    }
}

/// Packs `b: [k, m]` into column panels, k-major inside each panel, so the
/// micro-kernel streams one contiguous panel row per `k` step: `nr`-wide
/// panels, then the ragged column tail (if any) in a zero-padded panel of
/// 8, 16 or 32 columns, the first that fits — the 8- or 16-column tile
/// reads a thin tail densely. The panel of columns `j0..` starts at
/// `j0 * k`.
/// Identical values land in identical lanes on every ISA; only `nr`
/// differs.
pub(crate) fn pack_b(b: &[f32], k: usize, m: usize, nr: usize) -> crate::Scratch {
    let body = m - m % nr;
    let tail = if m > body { panel_span(m - body) } else { 0 };
    let mut packed = crate::Scratch::zeroed((body + tail) * k);
    for j0 in (0..m).step_by(nr) {
        let jw = (m - j0).min(nr);
        let span = panel_span(jw);
        for (kk, row) in packed[j0 * k..][..span * k]
            .chunks_exact_mut(span)
            .enumerate()
        {
            row[..jw].copy_from_slice(&b[kk * m + j0..][..jw]);
        }
    }
    packed
}

/// Blocked product `out[n,m] = a[n,k] · b` with `b` packed by [`pack_b`]
/// (`nr == panel_width(isa)`). Each output element accumulates through a
/// single register lane from `+0.0`, walking `k` in ascending order, and is
/// stored once — the output is never read; scalar uses mul-then-add (the
/// `matmul_reference` chain), avx2/avx512 fuse each step into an FMA.
pub(crate) fn matmul_block_rows(
    isa: Isa,
    a: &[f32],
    packed: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    match isa {
        Isa::Scalar => scalar::matmul_block_rows(a, packed, out, n, k, m),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 is only dispatched when avx2+fma are detected
        // (is_available checked at ISA resolution / by the caller of the
        // _with_isa APIs).
        Isa::Avx2 => unsafe { avx2::matmul::<false>(a, packed, true, out, n, k, m) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx512 is only dispatched when avx512f is detected.
        Isa::Avx512 => unsafe { avx512::matmul::<false>(a, packed, true, out, n, k, m) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::matmul_block_rows(a, packed, out, n, k, m),
    }
}

/// Small-product path (below the blocking threshold): `out = a · b` on `b`
/// as given, unpacked. Runs the *same per-element chain* as the blocked
/// path of the same ISA — on avx2/avx512 the very same register tiles,
/// reading `b`'s rows in place — so the size threshold never changes result
/// bits: batched and single encodes of the same rows agree bitwise
/// whichever path they take.
pub(crate) fn matmul_small(
    isa: Isa,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    match isa {
        Isa::Scalar => scalar::matmul_small::<false>(a, b, out, n, k, m),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 dispatch implies avx2+fma are available.
        Isa::Avx2 => unsafe { avx2::matmul::<false>(a, b, false, out, n, k, m) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx512 dispatch implies avx512f (and avx2+fma).
        Isa::Avx512 => unsafe { avx512::matmul::<false>(a, b, false, out, n, k, m) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::matmul_small::<false>(a, b, out, n, k, m),
    }
}

/// The weight-gradient product `out[k, m] += aᵀ·g` of `a: [n, k]` and
/// `g: [n, m]`, streaming: the small-product path with `a` read transposed
/// in place — no transposed copy, no packed panel. Each register tile walks
/// the rows of `a` and `g` once, broadcasting its `MR` columns of `a` and
/// spanning its columns of `g` with the lanes, so per output element the
/// chain is [`matmul_small`]'s on the materialised `aᵀ` over ascending `n`,
/// mul-then-add on scalar, one FMA per step on avx2/avx512 — continued
/// from the element's value in `out`. On a zeroed `out` that is the chain
/// from `+0.0`; over consecutive row chunks of `a` and `g` into one `out`,
/// it is the whole product's chain, bit for bit.
pub(crate) fn matmul_tn(
    isa: Isa,
    a: &[f32],
    g: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    match isa {
        Isa::Scalar => scalar::matmul_small::<true>(a, g, out, k, n, m),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2 dispatch implies avx2+fma are available.
        Isa::Avx2 => unsafe { avx2::matmul::<true>(a, g, false, out, k, n, m) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx512 dispatch implies avx512f (and avx2+fma).
        Isa::Avx512 => unsafe { avx512::matmul::<true>(a, g, false, out, k, n, m) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::matmul_small::<true>(a, g, out, k, n, m),
    }
}

/// Generates one register-tile function of the avx2/avx512 matmul,
/// `$name::<V, MASKED, AT>`, over `$ops`, a lanes module of the ISA's vector
/// primitives (`LANES`, `splat`, `load`, `load_first`, `fmadd`, `store`,
/// `store_first`): `$mr` rows × `V` vectors of `LANES` columns, every
/// accumulator in a register across the whole `k` walk.
#[cfg(target_arch = "x86_64")]
macro_rules! matmul_tile {
    ($(#[$attr:meta])* $name:ident, $ops:ident, $mr:expr) => {
        /// One register tile of `out = a · b`: rows `0..rows` (`1..=MR`) by
        /// columns `0..jw` (`jw` in `(V - 1)·LANES + 1 ..= V·LANES`), with
        /// element `(r, kk)` of `a` at `r·lda + kk` — or, `AT` (`a` stored
        /// transposed, the operand of `aᵀ·g` read in place), at
        /// `r + kk·lda`.
        /// Accumulators start at `+0.0` — or, `AT`, at the element's value
        /// in `out`, so that `aᵀ·g` accumulates — take one FMA per `k`
        /// step, and are stored once. Rows past `rows`
        /// re-read row `rows - 1` and are never stored; `MASKED` (`jw <
        /// V·LANES`) masks the last vector's loads and stores to its live
        /// lanes. Neither changes a live element's chain.
        ///
        /// # Safety
        ///
        /// `a` must be valid for reading element `(r, kk)` for every
        /// `r < rows`, `kk < k`; `b` for reading `V·LANES` floats at
        /// `kk·b_stride` for every `kk < k` (only the first `jw` if
        /// `MASKED`); `out` for writing (and, `AT`, reading) `jw` floats at
        /// `r·m` for every `r < rows`.
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name<const V: usize, const MASKED: bool, const AT: bool>(
            a: *const f32,
            lda: usize,
            k: usize,
            rows: usize,
            b: *const f32,
            b_stride: usize,
            out: *mut f32,
            m: usize,
            jw: usize,
        ) {
            use $ops::{fmadd, load, load_first, splat, store, store_first, LANES};
            debug_assert!((1..=$mr).contains(&rows));
            debug_assert!(jw + LANES > V * LANES && jw <= V * LANES && MASKED == (jw < V * LANES));
            // Live lanes of the last vector.
            let tail = jw - (V - 1) * LANES;
            let (a_row, a_step) = if AT { (1, lda) } else { (lda, 1) };
            // SAFETY: `a` is read at row `r.min(rows - 1)` and step `kk < k`,
            // `b` at `kk·b_stride + v·LANES` (`v < V`; the last vector
            // masked to `tail` lanes when `MASKED`) and `out` read (`AT`)
            // and written at `r·m + v·LANES` for `r < rows` (masked
            // likewise) — inside the ranges the caller vouches for.
            unsafe {
                let mut a_rows = [a; $mr];
                for (r, row) in a_rows.iter_mut().enumerate() {
                    *row = a.add(r.min(rows - 1) * a_row);
                }
                let mut acc = [[splat(0.0); V]; $mr];
                if AT {
                    for (r, acc) in acc.iter_mut().enumerate().take(rows) {
                        let o = out.add(r * m);
                        for (v, x) in acc.iter_mut().enumerate() {
                            *x = if MASKED && v == V - 1 {
                                load_first(o.add(v * LANES), tail)
                            } else {
                                load(o.add(v * LANES))
                            };
                        }
                    }
                }
                for kk in 0..k {
                    let bp = b.add(kk * b_stride);
                    let mut bv = [splat(0.0); V];
                    for (v, x) in bv.iter_mut().enumerate() {
                        *x = if MASKED && v == V - 1 {
                            load_first(bp.add(v * LANES), tail)
                        } else {
                            load(bp.add(v * LANES))
                        };
                    }
                    for (row, acc) in a_rows.iter().zip(acc.iter_mut()) {
                        let av = splat(*row.add(kk * a_step));
                        for (acc, &x) in acc.iter_mut().zip(&bv) {
                            *acc = fmadd(av, x, *acc);
                        }
                    }
                }
                for (r, acc) in acc.iter().enumerate() {
                    if r < rows {
                        let o = out.add(r * m);
                        for (v, &x) in acc.iter().enumerate() {
                            if MASKED && v == V - 1 {
                                store_first(o.add(v * LANES), x, tail);
                            } else {
                                store(o.add(v * LANES), x);
                            }
                        }
                    }
                }
            }
        }
    };
}
#[cfg(target_arch = "x86_64")]
pub(crate) use matmul_tile;

// ---------------------------------------------------------------------------
// Softmax / layer-norm row kernels
// ---------------------------------------------------------------------------

/// Softmax over `rows` consecutive rows of width `w`: `dst = softmax(src)`
/// per row. One traversal structure shared by every ISA (max, exp+sum,
/// scale — see `scalar::softmax_row`); avx2 substitutes a vectorized
/// polynomial `exp` and lane-parallel reductions. The row loop runs inside
/// the per-ISA function, so narrow rows do not pay a non-inlinable call
/// each.
pub(crate) fn softmax_rows(isa: Isa, src: &[f32], dst: &mut [f32], w: usize) {
    debug_assert_eq!(src.len(), dst.len());
    if w == 0 {
        return;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2/Avx512 dispatch implies avx2+fma are available.
        Isa::Avx2 | Isa::Avx512 => unsafe { avx2::softmax_rows(src, dst, w) },
        _ => scalar::softmax_rows(src, dst, w),
    }
}

/// Layer norm over consecutive rows of width `w = gamma.len()`:
/// `y = xhat * gamma + beta` with `xhat = (x - mean) * istd`. Statistics
/// accumulate in f64 — serial left-to-right on scalar, four f64 lanes
/// folded in a fixed order on avx2 (the relaxation) — and the normalize
/// step is element-wise, identical on every ISA given equal statistics.
/// `saved`, when provided, receives `(xhat, inv_std)` (one `inv_std` per
/// row) for the tape's backward pass. As with [`softmax_rows`], the row
/// loop lives inside the per-ISA function; avx2 runs four rows' statistics
/// chains at once, each row's chain unchanged, so a row's bits do not
/// depend on its neighbours.
pub(crate) fn layer_norm_rows(
    isa: Isa,
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut [f32],
    saved: Option<(&mut [f32], &mut [f32])>,
) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(gamma.len(), beta.len());
    if gamma.is_empty() {
        return;
    }
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2/Avx512 dispatch implies avx2+fma are available.
        Isa::Avx2 | Isa::Avx512 => unsafe { avx2::layer_norm_rows(x, gamma, beta, eps, y, saved) },
        _ => scalar::layer_norm_rows(x, gamma, beta, eps, y, saved),
    }
}

/// Layer-norm backward over consecutive rows of width `w = gamma.len()`,
/// one `inv_std` each: writes `dx`, accumulates `dgamma` and `dbeta` row
/// after row in ascending order (callers pass per-chunk partial buffers
/// that fold in ascending chunk order). The per-row `sum_dy`/`sum_dy·xhat`
/// reductions relax to lane-parallel f64 on avx2, four rows' chains at
/// once; the element-wise `dx` arithmetic keeps the scalar operation order
/// on every ISA.
#[allow(clippy::too_many_arguments)]
pub(crate) fn layer_norm_backward_rows(
    isa: Isa,
    xhat: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let len = inv_std.len() * gamma.len();
    assert!(
        xhat.len() == len && g.len() == len && dx.len() == len,
        "layer norm backward rows disagree with their {} inv_std entries",
        inv_std.len()
    );
    assert!(dgamma.len() == gamma.len() && dbeta.len() == gamma.len());
    match isa {
        Isa::Scalar => scalar::layer_norm_backward_rows(xhat, inv_std, gamma, g, dx, dgamma, dbeta),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2/Avx512 dispatch implies avx2+fma are available.
        Isa::Avx2 | Isa::Avx512 => unsafe {
            avx2::layer_norm_backward_rows(xhat, inv_std, gamma, g, dx, dgamma, dbeta)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::layer_norm_backward_rows(xhat, inv_std, gamma, g, dx, dgamma, dbeta),
    }
}

// ---------------------------------------------------------------------------
// Flat scans
// ---------------------------------------------------------------------------

/// Zeroes NaN/±Inf entries in `xs`, returning the count. Element-wise and
/// therefore bit-exact on every ISA (the avx2 path tests the exponent bits
/// of 8 lanes at a time and blends zeros in).
pub(crate) fn sanitize_chunk(isa: Isa, xs: &mut [f32]) -> usize {
    match isa {
        Isa::Scalar => scalar::sanitize_chunk(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2/Avx512 dispatch implies avx2+fma are available.
        Isa::Avx2 | Isa::Avx512 => unsafe { avx2::sanitize_chunk(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::sanitize_chunk(xs),
    }
}

/// Sum of squares of one chunk in f64. Scalar keeps the serial
/// ascending chain; avx2 accumulates in four f64 lanes folded in a fixed
/// order (relaxed, oracle-bounded). Each f32 squares exactly in f64 (24-bit
/// mantissas), so the only rounding on any path is in the additions.
pub(crate) fn norm_sq_chunk(isa: Isa, xs: &[f32]) -> f64 {
    match isa {
        Isa::Scalar => scalar::norm_sq_chunk(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2/Avx512 dispatch implies avx2+fma are available.
        Isa::Avx2 | Isa::Avx512 => unsafe { avx2::norm_sq_chunk(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::norm_sq_chunk(xs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        assert!(Isa::Scalar.is_available());
        assert_eq!(Isa::available()[0], Isa::Scalar);
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
            assert_eq!(Isa::parse(isa.label()), Some(isa));
            assert_eq!(Isa::parse(&isa.label().to_uppercase()), Some(isa));
        }
        assert_eq!(Isa::parse("avx1024"), None);
        assert_eq!(Isa::parse("neon"), None);
        assert_eq!(Isa::parse("sse2"), None, "the sse2 path is gone");
    }

    #[test]
    fn active_isa_is_stable_and_available() {
        let first = active_isa();
        assert!(first.is_available());
        assert_eq!(active_isa(), first, "dispatch must resolve exactly once");
    }

    #[test]
    fn panel_widths_fit_register_files() {
        assert_eq!(panel_width(Isa::Scalar), 8);
        assert_eq!(panel_width(Isa::Avx2), 16);
        assert_eq!(panel_width(Isa::Avx512), 32);
    }
}
