//! Runtime-dispatched SIMD micro-kernels for the linalg hot paths.
//!
//! The compute-heavy kernels in [`crate::linalg`] (blocked matmul, softmax,
//! layer norm, the attention-tile kernel of [`attention`], the flat
//! sanitize/norm scans and int8 row dequantization) each exist in up to
//! three implementations selected once per process by [`active_isa`]:
//!
//! | ISA      | selected when                           | numeric contract |
//! |----------|-----------------------------------------|------------------|
//! | `scalar` | always available (the reference chains) | bit-exact with `matmul_reference` and the pre-SIMD kernels |
//! | `avx2`   | x86-64 with AVX2 **and** FMA            | per-ISA deterministic, oracle-bounded (see below) |
//! | `avx512` | x86-64 with AVX-512F (plus AVX2+FMA)    | **bit-identical to `avx2`**: a wider matmul micro-kernel and a 16-lane attention kernel running the same per-element chains; every other kernel dispatches to the avx2 implementation |
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
//!    every run, at every `HIRE_THREADS` count (parallelism still only
//!    splits independent output regions; each output element's chain is
//!    fixed by the problem shape and the dispatched ISA);
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

pub mod attention;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2;
#[cfg(target_arch = "x86_64")]
pub(crate) mod avx512;
pub(crate) mod scalar;

pub use attention::AttnGrid;
pub(crate) use attention::{attention_backward_tiles, attention_tiles};

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
    pub fn is_available(self) -> bool {
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
pub const fn panel_width(isa: Isa) -> usize {
    match isa {
        Isa::Scalar => 8,
        Isa::Avx2 => 16,
        Isa::Avx512 => 32,
    }
}

/// Packs `b: [k, m]` into zero-padded `nr`-wide column panels, k-major
/// inside each panel, so the micro-kernel streams one contiguous `nr`-wide
/// row per `k` step. Identical values land in identical lanes on every
/// ISA; only `nr` differs. `packed` must be zero-initialized by the caller
/// — only live columns are written, the ragged tail panel's padding is the
/// zeros already there.
pub fn pack_b(packed: &mut [f32], b: &[f32], k: usize, m: usize, nr: usize) {
    debug_assert_eq!(packed.len(), m.div_ceil(nr) * k * nr);
    // Per panel, each k-step is one contiguous `jw`-wide copy; the zero
    // padding of the last panel's ragged tail is the (zero-initialized)
    // allocation itself.
    for jp in 0..m.div_ceil(nr) {
        let j0 = jp * nr;
        let jw = (m - j0).min(nr);
        let base = jp * k * nr;
        for kk in 0..k {
            packed[base + kk * nr..base + kk * nr + jw]
                .copy_from_slice(&b[kk * m + j0..kk * m + j0 + jw]);
        }
    }
}

/// Micro-kernel over one band of output rows fed from packed `b` panels:
/// `out[n,m] += a[n,k] * panels`. Each output element accumulates through
/// a single register lane walking `k` in ascending order; scalar uses
/// mul-then-add (the `matmul_reference` chain), avx2 fuses each step into
/// an FMA.
///
/// `packed` must have been produced by [`pack_b`] with
/// `nr == panel_width(isa)`.
pub fn matmul_block_rows(
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
        Isa::Avx2 => unsafe { avx2::matmul_block_rows(a, packed, out, n, k, m) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx512 is only dispatched when avx512f is detected.
        Isa::Avx512 => unsafe { avx512::matmul_block_rows(a, packed, out, n, k, m) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::matmul_block_rows(a, packed, out, n, k, m),
    }
}

/// Small-product path (below the blocking threshold): unpacked, serial.
/// Runs the *same per-element chain* as the blocked path of the same ISA,
/// so the size threshold never changes result bits — batched and single
/// encodes of the same rows agree bitwise whichever path they take.
pub fn matmul_small(isa: Isa, a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    match isa {
        Isa::Scalar => crate::linalg::matmul_reference(a, b, out, n, k, m),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2/Avx512 dispatch implies avx2+fma are available. The
        // avx512 tier shares the avx2 small path — same bits either way.
        Isa::Avx2 | Isa::Avx512 => unsafe { avx2::matmul_small(a, b, out, n, k, m) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => crate::linalg::matmul_reference(a, b, out, n, k, m),
    }
}

// ---------------------------------------------------------------------------
// Softmax / layer-norm row kernels
// ---------------------------------------------------------------------------

/// Softmax over `rows` consecutive rows of width `w`: `dst = softmax(src)`
/// per row. One traversal structure shared by every ISA (max, exp+sum,
/// scale — see `scalar::softmax_row`); avx2 substitutes a vectorized
/// polynomial `exp` and lane-parallel reductions. The row loop runs inside
/// the per-ISA function, so narrow rows do not pay a non-inlinable call
/// each.
pub fn softmax_rows(isa: Isa, src: &[f32], dst: &mut [f32], w: usize) {
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
/// loop lives inside the per-ISA function.
pub fn layer_norm_rows(
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

/// Layer-norm backward over one row: writes `dx`, accumulates `dgamma` and
/// `dbeta` (callers pass per-chunk partial buffers that fold in ascending
/// chunk order exactly as before). The per-row `sum_dy`/`sum_dy·xhat`
/// reductions relax to lane-parallel f64 on avx2; the element-wise `dx`
/// arithmetic keeps the scalar operation order on every ISA.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_backward_row(
    isa: Isa,
    xhat: &[f32],
    istd: f32,
    gamma: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    match isa {
        Isa::Scalar => scalar::layer_norm_backward_row(xhat, istd, gamma, g, dx, dgamma, dbeta),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2/Avx512 dispatch implies avx2+fma are available.
        Isa::Avx2 | Isa::Avx512 => unsafe {
            avx2::layer_norm_backward_row(xhat, istd, gamma, g, dx, dgamma, dbeta)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::layer_norm_backward_row(xhat, istd, gamma, g, dx, dgamma, dbeta),
    }
}

// ---------------------------------------------------------------------------
// Flat scans
// ---------------------------------------------------------------------------

/// Zeroes NaN/±Inf entries in `xs`, returning the count. Element-wise and
/// therefore bit-exact on every ISA (the avx2 path tests the exponent bits
/// of 8 lanes at a time and blends zeros in).
pub fn sanitize_chunk(isa: Isa, xs: &mut [f32]) -> usize {
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
pub fn norm_sq_chunk(isa: Isa, xs: &[f32]) -> f64 {
    match isa {
        Isa::Scalar => scalar::norm_sq_chunk(xs),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2/Avx512 dispatch implies avx2+fma are available.
        Isa::Avx2 | Isa::Avx512 => unsafe { avx2::norm_sq_chunk(xs) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::norm_sq_chunk(xs),
    }
}

// ---------------------------------------------------------------------------
// Dequantization
// ---------------------------------------------------------------------------

/// Dequantizes one int8 row: `out[j] = q[j] as f32 * scale`. The integer
/// widening and single multiply are exact per element, so every ISA
/// produces identical bits; avx2 just converts 8 lanes at a time.
pub fn dequant_row_i8(isa: Isa, qs: &[i8], scale: f32, out: &mut [f32]) {
    match isa {
        Isa::Scalar => scalar::dequant_row_i8(qs, scale, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Avx2/Avx512 dispatch implies avx2+fma are available.
        Isa::Avx2 | Isa::Avx512 => unsafe { avx2::dequant_row_i8(qs, scale, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::dequant_row_i8(qs, scale, out),
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
