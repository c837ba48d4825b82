//! Portable reference implementations of the dispatched kernels.
//!
//! These are the chains every other ISA is defined against: single f32
//! accumulators walking `k` in ascending order for the matmul family,
//! serial left-to-right f64 sums for the reductions. The avx2 path relaxes
//! the reduction order and fuses multiply-adds (see the module docs in
//! `simd`). On x86-64 rustc vectorizes these loops with the baseline SSE2
//! it may always assume, which is why no hand-written sse2 path exists
//! (DESIGN.md §16 has the measurement).

/// Register tile of the scalar micro-kernel: `MR x NR` accumulators held in
/// locals across the whole `k` walk. `NR` matches `panel_width(Scalar)`.
pub const MR: usize = 4;
pub const NR: usize = 8;

/// Micro-kernel over one band of rows fed from `NR`-wide packed panels:
/// `out[n,m] += a[n,k] * panels`. Each output element accumulates through
/// a single f32 in ascending-`k` order — the identical floating-point
/// chain to `linalg::matmul_reference`, hence bit-identical results.
pub fn matmul_block_rows(a: &[f32], packed: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    let m_panels = m.div_ceil(NR);
    let mut i0 = 0;
    while i0 < n {
        let rows = (n - i0).min(MR);
        for jp in 0..m_panels {
            let j0 = jp * NR;
            let jw = (m - j0).min(NR);
            let mut acc = [[0.0f32; NR]; MR];
            // Seed from the current output (the kernel contract is `+=`),
            // preserving the reference chain `((out + t0) + t1) + ...`.
            for r in 0..rows {
                acc[r][..jw].copy_from_slice(&out[(i0 + r) * m + j0..(i0 + r) * m + j0 + jw]);
            }
            let panel = &packed[jp * k * NR..(jp + 1) * k * NR];
            for kk in 0..k {
                let bp = &panel[kk * NR..kk * NR + NR];
                for r in 0..rows {
                    let a_ik = a[(i0 + r) * k + kk];
                    for c in 0..NR {
                        // Padded lanes (c >= jw) multiply against the
                        // panel's zero fill and are never stored.
                        acc[r][c] += a_ik * bp[c];
                    }
                }
            }
            for r in 0..rows {
                out[(i0 + r) * m + j0..(i0 + r) * m + j0 + jw].copy_from_slice(&acc[r][..jw]);
            }
        }
        i0 += rows;
    }
}

/// Numerically stable softmax of one row — the shared traversal structure
/// (max, exp+f64-sum, scale) every ISA implements. Hoisted out of
/// `softmax_last`'s row loop so scalar and SIMD paths share one shape and
/// one set of edge-case tests (empty and single-element rows included).
pub fn softmax_row(row: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(row.len(), dst.len());
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f64;
    for (d, &x) in dst.iter_mut().zip(row) {
        let e = (x - max).exp();
        *d = e;
        sum += e as f64;
    }
    let inv = (1.0 / sum) as f32;
    for d in dst.iter_mut() {
        *d *= inv;
    }
}

/// [`softmax_row`] over consecutive rows of width `w`.
pub fn softmax_rows(src: &[f32], dst: &mut [f32], w: usize) {
    for (s, d) in src.chunks_exact(w).zip(dst.chunks_exact_mut(w)) {
        softmax_row(s, d);
    }
}

/// Per-row mean and inverse standard deviation in f64 — serial
/// left-to-right sums, the canonical chain of the pre-SIMD kernels.
pub fn layer_norm_row_stats(row: &[f32], eps: f32) -> (f64, f64) {
    let w = row.len();
    let mean = row.iter().map(|&v| v as f64).sum::<f64>() / w as f64;
    let var = row.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / w as f64;
    let istd = 1.0 / (var + eps as f64).sqrt();
    (mean, istd)
}

/// Normalizes one row given its statistics; element-wise, so every ISA
/// matches these bits when handed identical `(mean, istd)`.
pub fn layer_norm_normalize_row(
    row: &[f32],
    mean: f64,
    istd: f64,
    gamma: &[f32],
    beta: &[f32],
    y: &mut [f32],
    xhat_out: Option<&mut [f32]>,
) {
    match xhat_out {
        Some(xhat) => {
            for j in 0..row.len() {
                let xh = ((row[j] as f64 - mean) * istd) as f32;
                xhat[j] = xh;
                y[j] = xh * gamma[j] + beta[j];
            }
        }
        None => {
            for j in 0..row.len() {
                let xh = ((row[j] as f64 - mean) * istd) as f32;
                y[j] = xh * gamma[j] + beta[j];
            }
        }
    }
}

/// Layer norm over consecutive rows of width `gamma.len()`: statistics
/// then normalize per row. `saved` receives `(xhat, inv_std)` for the
/// tape's backward pass.
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

/// Layer-norm backward for one row: serial f64 row sums, element-wise
/// `dx`, and `dgamma`/`dbeta` accumulation into the caller's partials.
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
    let mut sum_dy = 0.0f64;
    let mut sum_dy_xhat = 0.0f64;
    for j in 0..w {
        let dy = g[j] * gamma[j];
        sum_dy += dy as f64;
        sum_dy_xhat += (dy * xhat[j]) as f64;
        dgamma[j] += g[j] * xhat[j];
        dbeta[j] += g[j];
    }
    let c1 = (sum_dy / w as f64) as f32;
    let c2 = (sum_dy_xhat / w as f64) as f32;
    for j in 0..w {
        let dy = g[j] * gamma[j];
        dx[j] = istd * (dy - c1 - xhat[j] * c2);
    }
}

/// Zeroes NaN/±Inf entries, returning the count.
pub fn sanitize_chunk(xs: &mut [f32]) -> usize {
    let mut bad = 0usize;
    for x in xs.iter_mut() {
        if !x.is_finite() {
            *x = 0.0;
            bad += 1;
        }
    }
    bad
}

/// Serial ascending f64 sum of squares.
pub fn norm_sq_chunk(xs: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for &x in xs {
        acc += (x as f64) * (x as f64);
    }
    acc
}

/// `out[j] = q[j] as f32 * scale` — exact per element.
pub fn dequant_row_i8(qs: &[i8], scale: f32, out: &mut [f32]) {
    for (o, &q) in out.iter_mut().zip(qs) {
        *o = q as f32 * scale;
    }
}

/// Attention over every tile of `grid`, one tile at a time on the reference
/// chains: gather the tile's Q, `Kᵀ` and V, `S = Q Kᵀ` through
/// `matmul_reference`, scale, [`softmax_rows`], `O = P V` through
/// `matmul_reference` again, and write `O` back over the tile's Q — the
/// unfused `bmm → softmax_last → bmm` chain by construction. `scratch`
/// holds at least `grid.scratch_len()` floats; `probs`, when given, is the
/// `[tile][token][token]` softmax rows and receives each tile's `P`.
///
/// # Safety
///
/// `qo` must point to `k.len()` floats (`grid.rows() * grid.width()`), and
/// nothing else may access them during the call.
pub unsafe fn attention_tiles(
    grid: &super::AttnGrid,
    qo: *mut f32,
    k: &[f32],
    v: &[f32],
    scratch: &mut [f32],
    mut probs: Option<&mut [f32]>,
) {
    use crate::linalg::matmul_reference;
    let (t, dk) = (grid.tokens, grid.head_dim);
    let stride = grid.token_stride();
    let (q_tile, rest) = scratch.split_at_mut(t * dk);
    let (kt, rest) = rest.split_at_mut(dk * t);
    let (v_tile, rest) = rest.split_at_mut(t * dk);
    let (s, rest) = rest.split_at_mut(t * t);
    let p = &mut rest[..t * t];
    let scale = 1.0 / (dk as f32).sqrt();
    for tile in 0..grid.tiles() {
        let base = grid.tile_base(tile);
        debug_assert!(base + (t - 1) * stride + dk <= k.len());
        // SAFETY: segment `i` is `head_dim` floats at `base + i * stride`,
        // inside the buffer (`k` has its length and is sliced at the same
        // range below), and it belongs to this tile alone: `AttnGrid` maps
        // distinct (tile, token) pairs to disjoint segments.
        let segment =
            |i: usize| unsafe { std::slice::from_raw_parts_mut(qo.add(base + i * stride), dk) };
        for i in 0..t {
            let row = base + i * stride..base + i * stride + dk;
            q_tile[i * dk..(i + 1) * dk].copy_from_slice(segment(i));
            v_tile[i * dk..(i + 1) * dk].copy_from_slice(&v[row.clone()]);
            for (c, &x) in k[row].iter().enumerate() {
                kt[c * t + i] = x;
            }
        }
        s.fill(0.0);
        matmul_reference(q_tile, kt, s, t, dk, t);
        for x in s.iter_mut() {
            *x *= scale;
        }
        softmax_rows(s, p, t);
        if let Some(probs) = probs.as_deref_mut() {
            probs[tile * t * t..][..t * t].copy_from_slice(p);
        }
        let o_tile = &mut *q_tile;
        o_tile.fill(0.0);
        matmul_reference(p, v_tile, o_tile, t, t, dk);
        for i in 0..t {
            segment(i).copy_from_slice(&o_tile[i * dk..(i + 1) * dk]);
        }
    }
}
