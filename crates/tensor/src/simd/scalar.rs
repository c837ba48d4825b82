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
pub(crate) const MR: usize = 4;
pub(crate) const NR: usize = 8;

/// Micro-kernel over the rows of `out` fed from `NR`-wide packed panels:
/// `out[n,m] = a[n,k] * panels`. Each output element accumulates through
/// a single f32 from `0.0` in ascending-`k` order — the identical
/// floating-point chain to `linalg::matmul_reference` on a zeroed output,
/// hence bit-identical results — and is stored once.
pub(crate) fn matmul_block_rows(
    a: &[f32],
    packed: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    let m_panels = m.div_ceil(NR);
    let mut i0 = 0;
    while i0 < n {
        let rows = (n - i0).min(MR);
        for jp in 0..m_panels {
            let j0 = jp * NR;
            let jw = (m - j0).min(NR);
            let mut acc = [[0.0f32; NR]; MR];
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

/// Small-product path: `out[n,m] = a[n,k] * b[k,m]` on `b` as given, one
/// row of `NR`-column accumulators at a time — the chain of
/// [`matmul_block_rows`] and `matmul_reference`, per element. With `AT`,
/// `a` is stored transposed as `[k, n]` — the `aᵀ` of `aᵀ·g`, read in
/// place — and each chain continues from `out`'s element (`out += aᵀ·g`).
pub(crate) fn matmul_small<const AT: bool>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
) {
    let (a_row, a_step) = if AT { (1, n) } else { (k, 1) };
    for i in 0..n {
        for j0 in (0..m).step_by(NR) {
            let jw = (m - j0).min(NR);
            let mut acc = [0.0f32; NR];
            if AT {
                acc[..jw].copy_from_slice(&out[i * m + j0..][..jw]);
            }
            for kk in 0..k {
                let a_ik = a[i * a_row + kk * a_step];
                for (acc, &b_kj) in acc[..jw].iter_mut().zip(&b[kk * m + j0..]) {
                    *acc += a_ik * b_kj;
                }
            }
            out[i * m + j0..][..jw].copy_from_slice(&acc[..jw]);
        }
    }
}

/// Numerically stable softmax of one row — the shared traversal structure
/// (max, exp+f64-sum, scale) every ISA implements. Hoisted out of
/// `softmax_last`'s row loop so scalar and SIMD paths share one shape and
/// one set of edge-case tests (empty and single-element rows included).
pub(crate) fn softmax_row(row: &[f32], dst: &mut [f32]) {
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
pub(crate) fn softmax_rows(src: &[f32], dst: &mut [f32], w: usize) {
    for (s, d) in src.chunks_exact(w).zip(dst.chunks_exact_mut(w)) {
        softmax_row(s, d);
    }
}

/// Per-row mean and inverse standard deviation in f64 — serial
/// left-to-right sums, the canonical chain of the pre-SIMD kernels.
pub(crate) fn layer_norm_row_stats(row: &[f32], eps: f32) -> (f64, f64) {
    let w = row.len();
    let mean = row.iter().map(|&v| v as f64).sum::<f64>() / w as f64;
    let var = row.iter().map(|&v| (v as f64 - mean).powi(2)).sum::<f64>() / w as f64;
    let istd = 1.0 / (var + eps as f64).sqrt();
    (mean, istd)
}

/// Normalizes one row given its statistics; element-wise, so every ISA
/// matches these bits when handed identical `(mean, istd)`.
pub(crate) fn layer_norm_normalize_row(
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
pub(crate) fn layer_norm_rows(
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

/// [`layer_norm_backward_row`] over consecutive rows of width
/// `gamma.len()`, one `inv_std` each, in row order.
pub(crate) fn layer_norm_backward_rows(
    xhat: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    g: &[f32],
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
) {
    let w = gamma.len();
    for (r, &istd) in inv_std.iter().enumerate() {
        let at = r * w..(r + 1) * w;
        layer_norm_backward_row(
            &xhat[at.clone()],
            istd,
            gamma,
            &g[at.clone()],
            &mut dx[at],
            dgamma,
            dbeta,
        );
    }
}

/// Layer-norm backward for one row: serial f64 row sums, element-wise
/// `dx`, and `dgamma`/`dbeta` accumulation into the caller's partials.
fn layer_norm_backward_row(
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
pub(crate) fn sanitize_chunk(xs: &mut [f32]) -> usize {
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
pub(crate) fn norm_sq_chunk(xs: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for &x in xs {
        acc += (x as f64) * (x as f64);
    }
    acc
}

/// Attention over every tile of `grid`, one tile at a time on the reference
/// chains: gather the tile's `queries` Q rows, its `Kᵀ` and V, `S = Q Kᵀ`
/// through `matmul_reference`, scale, [`softmax_rows`], `O = P V` through
/// `matmul_reference` again, and write `O` back over the tile's Q — the
/// unfused `bmm → softmax_last → bmm` chain by construction, each row of it
/// from its own query row. `scratch` holds at least `grid.scratch_len()`
/// floats; `probs`, when given, is the `[tile][query][token]` softmax rows
/// and receives each tile's `P`.
///
/// # Safety
///
/// `qo` must point to `grid.query_rows(queries) * grid.width()` floats
/// (`queries <= grid.tokens`), and nothing else may access them during the
/// call.
pub(crate) unsafe fn attention_tiles(
    grid: &super::AttnGrid,
    queries: usize,
    qo: *mut f32,
    k: &[f32],
    v: &[f32],
    scratch: &mut [f32],
    mut probs: Option<&mut [f32]>,
) {
    use crate::linalg::matmul_reference;
    let (t, r, dk) = (grid.tokens, queries, grid.head_dim);
    let stride = grid.token_stride();
    let (q_tile, rest) = scratch.split_at_mut(t * dk);
    let (kt, rest) = rest.split_at_mut(dk * t);
    let (v_tile, rest) = rest.split_at_mut(t * dk);
    let (s, rest) = rest.split_at_mut(t * t);
    let (q_tile, s, p) = (&mut q_tile[..r * dk], &mut s[..r * t], &mut rest[..r * t]);
    let scale = 1.0 / (dk as f32).sqrt();
    for tile in 0..grid.tiles() {
        let (base, q_base) = (grid.tile_base(tile), grid.query_base(tile, r));
        debug_assert!(base + (t - 1) * stride + dk <= k.len());
        // SAFETY: query segment `i < r` is `head_dim` floats at `q_base + i
        // * stride`, inside the Q buffer, and it belongs to this tile alone:
        // `AttnGrid` maps distinct (tile, token) pairs to disjoint segments,
        // of `r` tokens a sequence as of `tokens`.
        let segment =
            |i: usize| unsafe { std::slice::from_raw_parts_mut(qo.add(q_base + i * stride), dk) };
        for i in 0..r {
            q_tile[i * dk..(i + 1) * dk].copy_from_slice(segment(i));
        }
        for i in 0..t {
            let row = base + i * stride..base + i * stride + dk;
            v_tile[i * dk..(i + 1) * dk].copy_from_slice(&v[row.clone()]);
            for (c, &x) in k[row].iter().enumerate() {
                kt[c * t + i] = x;
            }
        }
        s.fill(0.0);
        matmul_reference(q_tile, kt, s, r, dk, t);
        for x in s.iter_mut() {
            *x *= scale;
        }
        softmax_rows(s, p, t);
        if let Some(probs) = probs.as_deref_mut() {
            probs[tile * r * t..][..r * t].copy_from_slice(p);
        }
        let o_tile = &mut *q_tile;
        o_tile.fill(0.0);
        matmul_reference(p, v_tile, o_tile, r, t, dk);
        for i in 0..r {
            segment(i).copy_from_slice(&o_tile[i * dk..(i + 1) * dk]);
        }
    }
}

/// `rows[e][lane] = src[e]`: one tile's values into its lane of a panel.
fn set_lane<const LANES: usize>(rows: &mut [[f32; LANES]], lane: usize, src: &[f32]) {
    for (row, &x) in rows.iter_mut().zip(src) {
        row[lane] = x;
    }
}

/// The attention backward of every tile of `grid` (see
/// `linalg::attention_backward_into_with_isa` for the buffers): `dQ | dK |
/// dV` into `d_qkv`, `[rows, 3·width]`, every element overwritten.
/// [`Panels::backward`](super::attention::Panels::backward) on
/// [`MAX_LANES`](super::attention::MAX_LANES) tiles a group, whose panels
/// are filled and read back element by element, in safe Rust — the chains
/// the lane kernels run in vector registers, so the same bits as every
/// other ISA.
pub(crate) fn attention_backward_tiles(
    grid: &super::AttnGrid,
    [q, k, v, d_o]: [&[f32]; 4],
    p: &[f32],
    d_qkv: &mut [f32],
) {
    use super::attention::{block_rows, Panels, MAX_LANES as LANES};
    let (t, dk, tiles, width) = (grid.tokens, grid.head_dim, grid.tiles(), grid.width());
    if grid.rows() * width == 0 {
        return;
    }
    let (stride, out_stride) = (grid.token_stride(), 3 * grid.token_stride());
    let mut memory = crate::Scratch::take(Panels::<LANES>::memory_len(t, dk));
    let mut panels = Panels::<LANES>::new(&mut memory, t, dk);
    let scale = 1.0 / (dk as f32).sqrt();
    let mut group = 0;
    while group < tiles {
        // Lanes past `live` keep whatever an earlier group left there:
        // lanes are independent and theirs are never written out.
        let live = (tiles - group).min(LANES);
        for lane in 0..live {
            let base = grid.tile_base(group + lane);
            for i in 0..t {
                let at = base + i * stride;
                for (panel, src) in panels.inputs.iter_mut().zip([q, k, v, d_o]) {
                    set_lane(&mut panel[i * dk..][..dk], lane, &src[at..][..dk]);
                }
            }
            set_lane(panels.p, lane, &p[(group + lane) * t * t..][..t * t]);
        }
        if block_rows(t) == 3 {
            panels.backward::<3>(scale);
        } else {
            panels.backward::<4>(scale);
        }
        for lane in 0..live {
            let base = grid.tile_base_in(group + lane, 3 * width);
            for i in 0..t {
                for (which, grad) in panels.grads.iter().enumerate() {
                    let at = base + i * out_stride + which * width;
                    for (d, row) in d_qkv[at..][..dk].iter_mut().zip(&grad[i * dk..]) {
                        *d = row[lane];
                    }
                }
            }
        }
        group += LANES;
    }
}
