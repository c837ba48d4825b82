//! Numeric kernels on [`NdArray`]: broadcast arithmetic, (batched) matrix
//! multiplication, axis permutation, concatenation, softmax and reductions.
//!
//! Kernels that return an [`NdArray`] allocate it. The serving forward
//! instead runs on the slice-level `*_into` forms ([`WeightMatrix::linear_into`],
//! [`attention_into`], [`layer_norm_last_into`]), which write into
//! caller-provided buffers over the same per-ISA kernels; in-place
//! arithmetic on arrays lives on [`NdArray`] (`add_assign` and friends).
//!
//! # Threads and determinism
//!
//! Every kernel runs on the thread that calls it (DESIGN.md §11): HIM's
//! operands are a prediction context's — microseconds of work — so the
//! grain that pays is whole contexts, shards and models, one level up. The
//! hot kernels (matmul family, softmax, attention, layer norm, reductions)
//! dispatch through [`crate::simd`] to the best instruction set the host
//! supports (`scalar`/`avx2`/`avx512`, overridable via `HIRE_ISA`), and
//! results are **deterministic per ISA**: every reduction stays inside one
//! output element (a single register lane walking `k` in ascending order),
//! except two whose float order is a fixed chunk grid — [`norm_sq_f64`]
//! (4096-element `f64` partials) and [`layer_norm_backward_last`]'s
//! `dgamma`/`dbeta` (`f32` partials per 4096 / `w` rows) — folded in
//! ascending chunk order (`tests/reduction_order.rs`). Across ISAs, scalar
//! is bit-identical to [`matmul_reference`]; avx2 follows the documented
//! relaxation in the [`crate::simd`] module docs (FMA chains, lane-parallel
//! reductions — deterministic per ISA, oracle-bounded) and avx512 is
//! bit-identical to avx2. One kernel, [`attention_backward_into`], has no
//! per-ISA form at all and is bit-identical across ISAs too.
//!
//! Each hot kernel also has a public `*_with_isa` twin taking an explicit
//! [`Isa`], so the cross-check tests and `compute_bench` can exercise every
//! path in one process regardless of the process-global dispatch.

use crate::ndarray::NdArray;
use crate::quant::QuantizedTensor;
use crate::shape::Shape;
use crate::simd::{self, AttnGrid, Isa};

/// Element-wise binary op with numpy-style broadcasting.
pub fn broadcast_zip(a: &NdArray, b: &NdArray, f: impl Fn(f32, f32) -> f32) -> NdArray {
    if a.shape() == b.shape() {
        return a.zip(b, f);
    }
    let out_shape = a
        .shape()
        .broadcast(b.shape())
        .unwrap_or_else(|| panic!("cannot broadcast {} with {}", a.shape(), b.shape()));
    let rank = out_shape.rank();
    let out_dims = out_shape.dims().to_vec();
    let a_strides = padded_broadcast_strides(a.shape(), rank, &out_dims);
    let b_strides = padded_broadcast_strides(b.shape(), rank, &out_dims);

    let n = out_shape.numel();
    let mut out = vec![0.0f32; n];
    let mut index = vec![0usize; rank];
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let mut a_off = 0usize;
    let mut b_off = 0usize;
    for slot in out.iter_mut() {
        *slot = f(a_data[a_off], b_data[b_off]);
        // Increment the multi-index, updating offsets incrementally.
        for axis in (0..rank).rev() {
            index[axis] += 1;
            a_off += a_strides[axis];
            b_off += b_strides[axis];
            if index[axis] < out_dims[axis] {
                break;
            }
            // carry: reset this axis
            a_off -= a_strides[axis] * out_dims[axis];
            b_off -= b_strides[axis] * out_dims[axis];
            index[axis] = 0;
        }
    }
    NdArray::from_vec(out_shape, out)
}

/// Broadcast-aware strides for `shape` viewed as an array of rank `rank`
/// with output dims `out_dims`; broadcast axes get stride 0.
fn padded_broadcast_strides(shape: &Shape, rank: usize, out_dims: &[usize]) -> Vec<usize> {
    let strides = shape.strides();
    let offset = rank - shape.rank();
    let mut out = vec![0usize; rank];
    for (i, &stride) in strides.iter().enumerate().take(shape.rank()) {
        let axis = offset + i;
        if shape.dims()[i] == out_dims[axis] {
            out[axis] = stride;
        } else {
            debug_assert_eq!(shape.dims()[i], 1, "invalid broadcast");
            out[axis] = 0;
        }
    }
    out
}

/// Reduces `grad` (shaped like a broadcast output) back to `target` by
/// summing over the broadcast axes. Used by autograd backward passes.
pub fn reduce_to_shape(grad: &NdArray, target: &Shape) -> NdArray {
    if grad.shape() == target {
        return grad.clone();
    }
    assert!(
        target.broadcasts_to(grad.shape()),
        "cannot reduce {} to {target}",
        grad.shape()
    );
    let g_rank = grad.shape().rank();
    let t_rank = target.rank();
    let offset = g_rank - t_rank;
    let g_dims = grad.shape().dims().to_vec();

    let mut out = NdArray::zeros(target.clone());
    let t_strides = target.strides();
    let n = grad.numel();
    let g_strides = grad.shape().strides();
    let out_slice_ptr = out.as_mut_slice();
    let g = grad.as_slice();
    for (flat, &grad_value) in g.iter().enumerate().take(n) {
        // Map the flat grad offset to a target offset, collapsing broadcast axes.
        let mut t_off = 0usize;
        for (axis, &t_stride) in t_strides.iter().enumerate().take(t_rank) {
            let g_axis = axis + offset;
            let ix = (flat / g_strides[g_axis]) % g_dims[g_axis];
            let t_ix = if target.dims()[axis] == 1 { 0 } else { ix };
            t_off += t_ix * t_stride;
        }
        out_slice_ptr[t_off] += grad_value;
    }
    out
}

/// 2-D matrix multiply: `[n,k] x [k,m] -> [n,m]`.
pub fn matmul2d(a: &NdArray, b: &NdArray) -> NdArray {
    matmul2d_with_isa(a, b, simd::active_isa())
}

/// [`matmul2d`] on an explicit ISA path (tests and benchmarks; `isa` must
/// be available on this host).
pub fn matmul2d_with_isa(a: &NdArray, b: &NdArray, isa: Isa) -> NdArray {
    assert_eq!(
        a.shape().rank(),
        2,
        "matmul2d lhs must be 2-D, got {}",
        a.shape()
    );
    assert_eq!(
        b.shape().rank(),
        2,
        "matmul2d rhs must be 2-D, got {}",
        b.shape()
    );
    let (n, k) = (a.dims()[0], a.dims()[1]);
    let (k2, m) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k,
        k2,
        "matmul2d inner dims mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; n * m];
    matmul_kernel_with_isa(a.as_slice(), b.as_slice(), &mut out, n, k, m, isa);
    NdArray::from_vec([n, m], out)
}

/// Below this many multiply-adds the packing/tiling overhead outweighs the
/// win; the kernel falls through to the small-product path. Each ISA's
/// small path runs the identical per-element chain as its blocked path, so
/// the threshold never changes bits.
const BLOCK_THRESHOLD: usize = 16 * 1024;

/// Reference i-k-j loop: `out[n,m] += a[n,k] * b[k,m]`.
///
/// One f32 accumulator per output element, `k` strictly ascending — this
/// chain is the bit-exactness contract that the blocked kernel
/// reproduces. Public so tests can use it as an oracle and `compute_bench`
/// can measure the blocking speedup against it.
///
/// Deliberate behavior change vs the pre-blocking kernel: the old loop
/// skipped products where `a_ik == 0.0`. That skip is gone (the blocked
/// path cannot reproduce it bit-exactly, and IEEE semantics say
/// `0 * Inf = NaN`), so inputs mixing zeros in `a` with non-finite values
/// in `b` now propagate NaN instead of silently dropping those terms, and
/// sparse `a` no longer gets a fast path. For finite inputs the results
/// are bit-identical to the old kernel.
pub fn matmul_reference(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    for i in 0..n {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * m..(i + 1) * m];
        for (kk, &a_ik) in a_row.iter().enumerate() {
            let b_row = &b[kk * m..(kk + 1) * m];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * b_kj;
            }
        }
    }
}

/// `out[n,m] += a[n,k] * b[k,m]`, cache-blocked.
///
/// `b` is packed once into zero-padded `panel_width(isa)`-wide column
/// panels (k-major inside each panel, so the micro-kernel streams it
/// contiguously), then the micro-kernel walks the output in register tiles.
/// Each output element still accumulates through a single register lane in
/// ascending-`k` order — on scalar the identical floating-point chain
/// to [`matmul_reference`]; on avx2 the same chain with each step fused
/// into an FMA (the relaxation documented in [`crate::simd`]). Results are
/// bit-identical on either size-dispatch path on a fixed ISA.
fn matmul_kernel_with_isa(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    n: usize,
    k: usize,
    m: usize,
    isa: Isa,
) {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    if n * k * m <= BLOCK_THRESHOLD {
        return simd::matmul_small(isa, a, b, out, n, k, m);
    }
    let nr = simd::panel_width(isa);
    let m_panels = m.div_ceil(nr);
    let mut packed = vec![0.0f32; m_panels * k * nr];
    simd::pack_b(&mut packed, b, k, m, nr);
    simd::matmul_block_rows(isa, a, &packed, out, n, k, m);
}

/// `src: [rows, cols]` row-major, transposed to `[cols, rows]`.
fn transposed(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    debug_assert_eq!(src.len(), rows * cols);
    let mut out = vec![0.0f32; src.len()];
    for (r, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &x) in row.iter().enumerate() {
            out[c * rows + r] = x;
        }
    }
    out
}

/// `out[n,m] += a[n,k] * b[m,k]^T`: `b` — a weight, or one batch entry —
/// is transposed once and the product is [`matmul_kernel_with_isa`]'s, so
/// each output element runs the forward matmul's chain over ascending `k`
/// (scalar: mul-then-add from `out`; avx2/avx512: one FMA per step).
fn nt_kernel(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    let bt = transposed(b, m, k);
    matmul_kernel_with_isa(a, &bt, out, n, k, m, simd::active_isa());
}

/// `out[k,m] += a[n,k]^T * g[n,m]` through [`matmul_kernel_with_isa`]: each
/// output element is one chain over the rows `n`, ascending. The packed
/// panels should run along the output's longer axis, so a wide output
/// (`m >= k`) transposes `a` and multiplies `aᵀ·g`, and a tall one transposes `g` and builds `outᵀ = gᵀ·a` — the same
/// products in the same order per element (`x·y` and `y·x` round alike), so
/// which way round is a pure speed choice: MHSA's `dW_O` over MBA's
/// `[2304, 32]ᵀ·[2304, 8]` runs 4× fuller panels the second way.
fn tn_kernel(a: &[f32], g: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    let isa = simd::active_isa();
    if m >= k {
        matmul_kernel_with_isa(&transposed(a, n, k), g, out, k, n, m, isa);
    } else {
        let mut out_t = transposed(out, k, m);
        matmul_kernel_with_isa(&transposed(g, n, m), a, &mut out_t, m, n, k, isa);
        out.copy_from_slice(&transposed(&out_t, m, k));
    }
}

/// `A * B^T` for 2-D `a: [n,k]` and `b: [m,k]` -> `[n,m]`. This is the
/// `dA = g * B^T` product of the matmul backward.
pub fn matmul2d_nt(a: &NdArray, b: &NdArray) -> NdArray {
    assert_eq!(a.shape().rank(), 2, "matmul2d_nt lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul2d_nt rhs must be 2-D");
    let (n, k) = (a.dims()[0], a.dims()[1]);
    let (m, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k,
        k2,
        "matmul2d_nt inner dims mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = vec![0.0f32; n * m];
    nt_kernel(a.as_slice(), b.as_slice(), &mut out, n, k, m);
    NdArray::from_vec([n, m], out)
}

/// `A^T * G` for 2-D `a: [n,k]` and `g: [n,m]` -> `[k,m]`. This is the
/// `dB = A^T * g` product of the matmul backward; the contraction over `n`
/// walks rows in ascending order for every output element.
pub fn matmul2d_tn(a: &NdArray, g: &NdArray) -> NdArray {
    assert_eq!(a.shape().rank(), 2, "matmul2d_tn lhs must be 2-D");
    assert_eq!(g.shape().rank(), 2, "matmul2d_tn rhs must be 2-D");
    let (n, k) = (a.dims()[0], a.dims()[1]);
    let (n2, m) = (g.dims()[0], g.dims()[1]);
    assert_eq!(
        n,
        n2,
        "matmul2d_tn outer dims mismatch: {} vs {}",
        a.shape(),
        g.shape()
    );
    let mut out = vec![0.0f32; k * m];
    tn_kernel(a.as_slice(), g.as_slice(), &mut out, n, k, m);
    NdArray::from_vec([k, m], out)
}

/// Batched matrix multiply.
///
/// Accepts `a: [..., n, k]` and `b: [..., k, m]` where the batch dimensions
/// are identical, or where `b` is a single `[k, m]` matrix shared across the
/// batch. Returns `[..., n, m]`.
pub fn bmm(a: &NdArray, b: &NdArray) -> NdArray {
    bmm_with_isa(a, b, simd::active_isa())
}

/// [`bmm`] on an explicit ISA path (tests and benchmarks; `isa` must be
/// available on this host).
pub fn bmm_with_isa(a: &NdArray, b: &NdArray, isa: Isa) -> NdArray {
    if a.shape().rank() == 2 && b.shape().rank() == 2 {
        return matmul2d_with_isa(a, b, isa);
    }
    let (a_batch, [n, k]) = a.shape().split_batch();
    if b.shape().rank() == 2 {
        // Shared rhs: flatten the batch into rows.
        let (k2, m) = (b.dims()[0], b.dims()[1]);
        assert_eq!(
            k,
            k2,
            "bmm inner dims mismatch: {} vs {}",
            a.shape(),
            b.shape()
        );
        let rows: usize = a_batch.iter().product::<usize>() * n;
        let mut out = vec![0.0f32; rows * m];
        matmul_kernel_with_isa(a.as_slice(), b.as_slice(), &mut out, rows, k, m, isa);
        let mut dims = a_batch.to_vec();
        dims.push(n);
        dims.push(m);
        return NdArray::from_vec(dims, out);
    }
    let (b_batch, [k2, m]) = b.shape().split_batch();
    assert_eq!(
        a_batch,
        b_batch,
        "bmm batch dims mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    assert_eq!(
        k,
        k2,
        "bmm inner dims mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let batch: usize = a_batch.iter().product();
    let mut out = vec![0.0f32; batch * n * m];
    let (a_s, b_s) = (a.as_slice(), b.as_slice());
    for bi in 0..batch {
        matmul_kernel_with_isa(
            &a_s[bi * n * k..(bi + 1) * n * k],
            &b_s[bi * k * m..(bi + 1) * k * m],
            &mut out[bi * n * m..(bi + 1) * n * m],
            n,
            k,
            m,
            isa,
        );
    }
    let mut dims = a_batch.to_vec();
    dims.push(n);
    dims.push(m);
    NdArray::from_vec(dims, out)
}

/// Batched [`matmul2d_nt`]: `a: [..., n, k] * b^T` where `b` is either
/// batched `[..., m, k]` or a single shared `[m, k]` matrix. Returns
/// `[..., n, m]`. Mirrors [`bmm`]'s accepted shapes for the backward pass
/// `dA = g * B^T`.
pub fn bmm_nt(a: &NdArray, b: &NdArray) -> NdArray {
    if a.shape().rank() == 2 && b.shape().rank() == 2 {
        return matmul2d_nt(a, b);
    }
    let (a_batch, [n, k]) = a.shape().split_batch();
    if b.shape().rank() == 2 {
        // Shared rhs: flatten the batch into rows of one 2-D product.
        let rows: usize = a_batch.iter().product::<usize>() * n;
        let flat = matmul2d_nt(&a.reshape([rows, k]), b);
        let mut dims = a_batch.to_vec();
        dims.push(n);
        dims.push(b.dims()[0]);
        return flat.reshaped(dims);
    }
    let (b_batch, [m, k2]) = b.shape().split_batch();
    assert_eq!(a_batch, b_batch, "bmm_nt batch dims mismatch");
    assert_eq!(k, k2, "bmm_nt inner dims mismatch");
    let batch: usize = a_batch.iter().product();
    let mut out = vec![0.0f32; batch * n * m];
    let (a_s, b_s) = (a.as_slice(), b.as_slice());
    for bi in 0..batch {
        nt_kernel(
            &a_s[bi * n * k..(bi + 1) * n * k],
            &b_s[bi * m * k..(bi + 1) * m * k],
            &mut out[bi * n * m..(bi + 1) * n * m],
            n,
            k,
            m,
        );
    }
    let mut dims = a_batch.to_vec();
    dims.push(n);
    dims.push(m);
    NdArray::from_vec(dims, out)
}

/// Batched [`matmul2d_tn`]: per-batch `a^T * g` for `a: [..., n, k]` and
/// `g: [..., n, m]` with identical batch dims -> `[..., k, m]`. The
/// backward pass `dB = A^T * g` when both operands are batched.
pub fn bmm_tn(a: &NdArray, g: &NdArray) -> NdArray {
    if a.shape().rank() == 2 && g.shape().rank() == 2 {
        return matmul2d_tn(a, g);
    }
    let (a_batch, [n, k]) = a.shape().split_batch();
    let (g_batch, [n2, m]) = g.shape().split_batch();
    assert_eq!(a_batch, g_batch, "bmm_tn batch dims mismatch");
    assert_eq!(n, n2, "bmm_tn outer dims mismatch");
    let batch: usize = a_batch.iter().product();
    let mut out = vec![0.0f32; batch * k * m];
    let (a_s, g_s) = (a.as_slice(), g.as_slice());
    for bi in 0..batch {
        tn_kernel(
            &a_s[bi * n * k..(bi + 1) * n * k],
            &g_s[bi * n * m..(bi + 1) * n * m],
            &mut out[bi * k * m..(bi + 1) * k * m],
            n,
            k,
            m,
        );
    }
    let mut dims = a_batch.to_vec();
    dims.push(k);
    dims.push(m);
    NdArray::from_vec(dims, out)
}

/// Permutes axes: `out[index] = a[index[perm]]` in numpy `transpose(perm)`
/// semantics — output axis `i` is input axis `perm[i]`.
pub fn permute(a: &NdArray, perm: &[usize]) -> NdArray {
    let rank = a.shape().rank();
    assert_eq!(perm.len(), rank, "perm rank mismatch");
    let mut seen = vec![false; rank];
    for &p in perm {
        assert!(p < rank && !seen[p], "invalid permutation {perm:?}");
        seen[p] = true;
    }
    let in_dims = a.dims();
    let in_strides = a.shape().strides();
    let out_dims: Vec<usize> = perm.iter().map(|&p| in_dims[p]).collect();
    // stride in the input for each output axis
    let strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();

    let n = a.numel();
    let mut out = vec![0.0f32; n];
    let src = a.as_slice();
    let mut index = vec![0usize; rank];
    let mut src_off = 0usize;
    for slot in out.iter_mut() {
        *slot = src[src_off];
        for axis in (0..rank).rev() {
            index[axis] += 1;
            src_off += strides[axis];
            if index[axis] < out_dims[axis] {
                break;
            }
            src_off -= strides[axis] * out_dims[axis];
            index[axis] = 0;
        }
    }
    NdArray::from_vec(out_dims, out)
}

/// Swaps the last two axes (batched matrix transpose).
pub fn transpose_last2(a: &NdArray) -> NdArray {
    let rank = a.shape().rank();
    assert!(rank >= 2, "transpose_last2 needs rank >= 2");
    let mut perm: Vec<usize> = (0..rank).collect();
    perm.swap(rank - 1, rank - 2);
    permute(a, &perm)
}

/// Inverse permutation: `inv[perm[i]] = i`.
pub fn inverse_permutation(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

/// Concatenates arrays along the last axis. All other dims must match.
pub fn concat_last(parts: &[&NdArray]) -> NdArray {
    assert!(!parts.is_empty(), "concat of zero arrays");
    let rank = parts[0].shape().rank();
    assert!(rank >= 1, "concat needs rank >= 1");
    let lead = &parts[0].dims()[..rank - 1];
    let mut last_total = 0usize;
    for p in parts {
        assert_eq!(p.shape().rank(), rank, "concat rank mismatch");
        assert_eq!(&p.dims()[..rank - 1], lead, "concat leading dims mismatch");
        last_total += p.dims()[rank - 1];
    }
    let rows: usize = lead.iter().product();
    let mut out = Vec::with_capacity(rows * last_total);
    for r in 0..rows {
        for p in parts {
            let w = p.dims()[rank - 1];
            out.extend_from_slice(&p.as_slice()[r * w..(r + 1) * w]);
        }
    }
    let mut dims = lead.to_vec();
    dims.push(last_total);
    NdArray::from_vec(dims, out)
}

/// Slices `[start, start+len)` of the last axis.
pub fn slice_last(a: &NdArray, start: usize, len: usize) -> NdArray {
    let rank = a.shape().rank();
    assert!(rank >= 1);
    let w = a.dims()[rank - 1];
    assert!(
        start + len <= w,
        "slice [{start}, {}) out of last dim {w}",
        start + len
    );
    let rows = a.numel() / w;
    let mut out = Vec::with_capacity(rows * len);
    for r in 0..rows {
        out.extend_from_slice(&a.as_slice()[r * w + start..r * w + start + len]);
    }
    let mut dims = a.dims().to_vec();
    dims[rank - 1] = len;
    NdArray::from_vec(dims, out)
}

/// Numerically stable softmax along the last axis, row by row.
pub fn softmax_last(a: &NdArray) -> NdArray {
    softmax_last_with_isa(a, simd::active_isa())
}

/// [`softmax_last`] on an explicit ISA path (tests and benchmarks; `isa`
/// must be available on this host). The per-row traversal (max, exp +
/// f64 sum, scale) lives in [`crate::simd`] so every ISA shares one
/// structure and one set of edge-case tests.
pub fn softmax_last_with_isa(a: &NdArray, isa: Isa) -> NdArray {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    let rank = a.shape().rank();
    assert!(rank >= 1, "softmax needs rank >= 1");
    let w = a.dims()[rank - 1];
    let mut out = vec![0.0f32; a.numel()];
    simd::softmax_rows(isa, a.as_slice(), &mut out, w);
    NdArray::from_vec(a.shape().clone(), out)
}

/// Backward of [`softmax_last`]: `dx = y * (g - sum(g*y, last))` given the
/// forward output `y`. The per-row dot accumulates in f64 over ascending
/// `j`.
pub fn softmax_backward_last(y: &NdArray, g: &NdArray) -> NdArray {
    assert_eq!(y.shape(), g.shape(), "softmax backward shape mismatch");
    let w = *y.dims().last().expect("softmax backward needs rank >= 1");
    let mut dx = vec![0.0f32; y.numel()];
    let (ys, gs) = (y.as_slice(), g.as_slice());
    for r in 0..y.numel() / w.max(1) {
        let yr = &ys[r * w..(r + 1) * w];
        let gr = &gs[r * w..(r + 1) * w];
        let dot: f64 = yr.iter().zip(gr).map(|(&a, &b)| (a * b) as f64).sum();
        let dot = dot as f32;
        let dst = &mut dx[r * w..(r + 1) * w];
        for j in 0..w {
            dst[j] = yr[j] * (gr[j] - dot);
        }
    }
    NdArray::from_vec(y.shape().clone(), dx)
}

/// Multi-head attention core over projection buffers: for every (batch,
/// head) tile of `grid`, `softmax(Q Kᵀ / √dk) V`, read from `qo`/`k`/`v`
/// in their `[rows, heads * head_dim]` layout and written back over `qo`
/// in the same layout (heads merged) — a tile's output occupies exactly the
/// elements of its Q, which it is done with by then. No head-split copy,
/// no `Kᵀ`, no score tensor is materialized. Per element this is the
/// chain of `bmm → · scale → softmax_last → bmm` on the same ISA (see
/// [`crate::simd::attention`]), so it is bit-identical to that composition.
///
/// `scratch` holds at least [`AttnGrid::scratch_len`] floats.
pub fn attention_into(grid: &AttnGrid, qo: &mut [f32], k: &[f32], v: &[f32], scratch: &mut [f32]) {
    attention_into_with_isa(grid, qo, k, v, scratch, simd::active_isa());
}

/// [`attention_into`] on an explicit ISA path (tests and benchmarks; `isa`
/// must be available on this host).
pub fn attention_into_with_isa(
    grid: &AttnGrid,
    qo: &mut [f32],
    k: &[f32],
    v: &[f32],
    scratch: &mut [f32],
    isa: Isa,
) {
    attention_run(grid, qo, k, v, None, scratch, isa);
}

/// [`attention_into`] that also writes every tile's softmax rows `P` into
/// `probs` ([`AttnGrid::probs_len`] floats, `[outer * inner, heads, tokens,
/// tokens]`) — what [`attention_backward_into`] needs saved and what the
/// Fig. 9 case study plots. The rows are the values the kernel multiplies
/// into `V`, stored on the way: `qo` comes out bit-identical to
/// [`attention_into`]'s, and `probs` bit-identical to `softmax_last` of the
/// scaled scores on the same ISA.
pub fn attention_probs_into(
    grid: &AttnGrid,
    qo: &mut [f32],
    k: &[f32],
    v: &[f32],
    probs: &mut [f32],
    scratch: &mut [f32],
) {
    attention_probs_into_with_isa(grid, qo, k, v, probs, scratch, simd::active_isa());
}

/// [`attention_probs_into`] on an explicit ISA path (tests and benchmarks;
/// `isa` must be available on this host).
pub fn attention_probs_into_with_isa(
    grid: &AttnGrid,
    qo: &mut [f32],
    k: &[f32],
    v: &[f32],
    probs: &mut [f32],
    scratch: &mut [f32],
    isa: Isa,
) {
    attention_run(grid, qo, k, v, Some(probs), scratch, isa);
}

/// The one checked kernel call behind [`attention_into`] and
/// [`attention_probs_into`].
fn attention_run(
    grid: &AttnGrid,
    qo: &mut [f32],
    k: &[f32],
    v: &[f32],
    probs: Option<&mut [f32]>,
    scratch: &mut [f32],
    isa: Isa,
) {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    let len = grid.rows() * grid.width();
    assert!(
        qo.len() == len && k.len() == len && v.len() == len,
        "attention buffers must each hold {len} floats for {grid:?}, got q {} k {} v {}",
        qo.len(),
        k.len(),
        v.len()
    );
    assert!(
        len <= i32::MAX as usize,
        "attention buffers of {len} floats exceed 32-bit gather indices"
    );
    assert!(
        scratch.len() >= grid.scratch_len(),
        "attention scratch holds {} floats, {grid:?} needs {}",
        scratch.len(),
        grid.scratch_len()
    );
    if let Some(probs) = &probs {
        assert_eq!(
            probs.len(),
            grid.probs_len(),
            "attention probabilities of {grid:?} are one [tokens, tokens] matrix per tile"
        );
    }
    if len == 0 {
        return;
    }
    // SAFETY: `qo` holds `len` floats like `k`, `len` fits 32-bit indices
    // and `scratch` / `probs` have the grid's lengths (all asserted above);
    // the `&mut` borrow keeps everything else off `qo` for the call.
    unsafe { simd::attention_tiles(isa, grid, qo.as_mut_ptr(), k, v, scratch, probs) };
}

/// Backward of [`attention_into`]: from the projections `q`, `k`, `v` the
/// forward read, the softmax rows `p` [`attention_probs_into`] saved and
/// the upstream gradient `d_o` of the merged-head output, the gradients
/// `dq`, `dk`, `dv` of the three projections (overwritten) — all but `p`
/// in the forward's `[rows, heads * head_dim]` layout over the same
/// [`AttnGrid`] stride view. Per tile `dV = Pᵀ·dO`, `dP = dO·Vᵀ`,
/// `dS = P ∘ (dP − rowsum(dP ∘ P)) / √dk`, `dQ = dS·K`, `dK = dSᵀ·Q`;
/// no `exp` is recomputed.
///
/// There is no `isa` argument because there is no per-ISA kernel: one
/// lane-blocked safe-Rust kernel, multiply-then-add in a fixed order
/// (see `simd::attention`), so the result is bit-identical on every ISA.
/// Non-finite values in any input reach the outputs by IEEE rules (a
/// `NumericalGuard` upstream counts on seeing them).
#[allow(clippy::too_many_arguments)]
pub fn attention_backward_into(
    grid: &AttnGrid,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    p: &[f32],
    d_o: &[f32],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    let len = grid.rows() * grid.width();
    let lens = [
        q.len(),
        k.len(),
        v.len(),
        d_o.len(),
        dq.len(),
        dk.len(),
        dv.len(),
    ];
    assert!(
        lens.iter().all(|&l| l == len) && p.len() == grid.probs_len(),
        "attention backward over {grid:?} needs {len} floats per buffer and {} \
         probabilities, got q/k/v/d_o/dq/dk/dv {lens:?} and p {}",
        grid.probs_len(),
        p.len()
    );
    simd::attention_backward_tiles(grid, [q, k, v, d_o], p, |at, [gq, gk, gv]| {
        (dq[at], dk[at], dv[at]) = (gq, gk, gv);
    });
}

/// Sum along the last axis: `[..., w] -> [...]`.
pub fn sum_last(a: &NdArray) -> NdArray {
    let rank = a.shape().rank();
    assert!(rank >= 1);
    let w = a.dims()[rank - 1];
    let rows = a.numel() / w.max(1);
    let mut out = vec![0.0f32; rows];
    for (r, o) in out.iter_mut().enumerate() {
        *o = a.as_slice()[r * w..(r + 1) * w]
            .iter()
            .map(|&x| x as f64)
            .sum::<f64>() as f32;
    }
    NdArray::from_vec(a.dims()[..rank - 1].to_vec(), out)
}

/// Mean along the last axis.
pub fn mean_last(a: &NdArray) -> NdArray {
    let rank = a.shape().rank();
    let w = a.dims()[rank - 1].max(1);
    let mut s = sum_last(a);
    s.scale_inplace(1.0 / w as f32);
    s
}

/// Layer normalization over the last axis without autograd: the no-grad
/// mirror of `Tensor::layer_norm_last`'s forward pass. Mean and variance
/// accumulate in f64 with the identical operation order per row, so results
/// are bit-identical to the tape path.
pub fn layer_norm_last_nd(x: &NdArray, gamma: &NdArray, beta: &NdArray, eps: f32) -> NdArray {
    layer_norm_last_nd_with_isa(x, gamma, beta, eps, simd::active_isa())
}

/// [`layer_norm_last_nd`] on an explicit ISA path (tests and benchmarks;
/// `isa` must be available on this host).
pub fn layer_norm_last_nd_with_isa(
    x: &NdArray,
    gamma: &NdArray,
    beta: &NdArray,
    eps: f32,
    isa: Isa,
) -> NdArray {
    let w = *x.dims().last().expect("layer_norm_last_nd needs rank >= 1");
    assert_eq!(gamma.dims(), &[w], "gamma must be [{w}]");
    assert_eq!(beta.dims(), &[w], "beta must be [{w}]");
    let mut y = vec![0.0f32; x.numel()];
    layer_norm_last_into(
        x.as_slice(),
        gamma.as_slice(),
        beta.as_slice(),
        eps,
        &mut y,
        isa,
    );
    NdArray::from_vec(x.shape().clone(), y)
}

/// [`layer_norm_last_nd`] over rows of width `gamma.len()` of a flat
/// buffer, written into `y` — the form the serving forward runs on its
/// workspace. Same row kernels, same bits.
pub fn layer_norm_last_into(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut [f32],
    isa: Isa,
) {
    layer_norm_rows_into(x, gamma, beta, eps, y, None, isa);
}

/// The one checked layer-norm forward behind the three public forms: `y`
/// (and, for the tape, `saved = (xhat, inv_std)`) from one call into the
/// ISA's row kernel.
fn layer_norm_rows_into(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut [f32],
    saved: Option<(&mut [f32], &mut [f32])>,
    isa: Isa,
) {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    let w = gamma.len();
    assert_eq!(beta.len(), w, "beta must be [{w}]");
    assert_eq!(x.len(), y.len(), "layer norm output must match its input");
    let rows = x.len() / w.max(1);
    assert_eq!(rows * w, x.len(), "layer norm input is not rows of {w}");
    if let Some((xhat, inv_std)) = &saved {
        assert_eq!(xhat.len(), x.len(), "xhat must match the input");
        assert_eq!(inv_std.len(), rows, "inv_std must have one entry per row");
    }
    simd::layer_norm_rows(isa, x, gamma, beta, eps, y, saved);
}

/// Forward pass of layer norm for the autograd tape: returns `(y, xhat,
/// inv_std)` with `xhat` the normalized input and `inv_std` one entry per
/// row, on the same per-row chain as [`layer_norm_last_nd`].
pub fn layer_norm_forward_last(
    x: &NdArray,
    gamma: &NdArray,
    beta: &NdArray,
    eps: f32,
) -> (NdArray, NdArray, Vec<f32>) {
    layer_norm_forward_last_with_isa(x, gamma, beta, eps, simd::active_isa())
}

/// [`layer_norm_forward_last`] on an explicit ISA path (tests and
/// benchmarks; `isa` must be available on this host).
pub fn layer_norm_forward_last_with_isa(
    x: &NdArray,
    gamma: &NdArray,
    beta: &NdArray,
    eps: f32,
    isa: Isa,
) -> (NdArray, NdArray, Vec<f32>) {
    let w = *x.dims().last().expect("layer_norm needs rank >= 1");
    let rows = x.numel() / w.max(1);
    assert_eq!(gamma.dims(), &[w], "gamma must be [{w}]");
    assert_eq!(beta.dims(), &[w], "beta must be [{w}]");
    let mut y = vec![0.0f32; x.numel()];
    let mut xhat = vec![0.0f32; x.numel()];
    let mut inv_std = vec![0.0f32; rows];
    layer_norm_rows_into(
        x.as_slice(),
        gamma.as_slice(),
        beta.as_slice(),
        eps,
        &mut y,
        Some((&mut xhat, &mut inv_std)),
        isa,
    );
    (
        NdArray::from_vec(x.shape().clone(), y),
        NdArray::from_vec(x.shape().clone(), xhat),
        inv_std,
    )
}

/// Rows per `dgamma`/`dbeta` partial in [`layer_norm_backward_last`]: ~4k
/// elements a chunk. Part of the answer, not a tuning knob — the grid fixes
/// the order the f32 sums round in (`tests/reduction_order.rs`).
fn row_grain(w: usize) -> usize {
    (4096 / w.max(1)).max(1)
}

/// Backward pass of layer norm: returns `(dx, dgamma, dbeta)`.
///
/// `dx` rows are independent. `dgamma`/`dbeta` reduce *across* rows: each
/// chunk of `max(4096 / w, 1)` rows produces an f32 partial and the partials
/// fold in ascending chunk order — the order trained weights were produced
/// in, which is why the grid stays though nothing runs the chunks in
/// parallel.
pub fn layer_norm_backward_last(
    xhat: &NdArray,
    inv_std: &[f32],
    gamma: &NdArray,
    g: &NdArray,
) -> (NdArray, NdArray, NdArray) {
    layer_norm_backward_last_with_isa(xhat, inv_std, gamma, g, simd::active_isa())
}

/// [`layer_norm_backward_last`] on an explicit ISA path (tests and
/// benchmarks; `isa` must be available on this host).
pub fn layer_norm_backward_last_with_isa(
    xhat: &NdArray,
    inv_std: &[f32],
    gamma: &NdArray,
    g: &NdArray,
    isa: Isa,
) -> (NdArray, NdArray, NdArray) {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    let w = *xhat
        .dims()
        .last()
        .expect("layer_norm backward needs rank >= 1");
    let rows = xhat.numel() / w.max(1);
    assert_eq!(inv_std.len(), rows, "inv_std must have one entry per row");
    let gv = gamma.as_slice();
    let gs = g.as_slice();
    let xh = xhat.as_slice();
    let mut dx = vec![0.0f32; xhat.numel()];
    let (mut dgamma, mut dbeta) = (vec![0.0f32; w], vec![0.0f32; w]);
    let (mut part_gamma, mut part_beta) = (vec![0.0f32; w], vec![0.0f32; w]);
    let grain = row_grain(w);
    for start in (0..rows).step_by(grain) {
        part_gamma.fill(0.0);
        part_beta.fill(0.0);
        for r in start..(start + grain).min(rows) {
            simd::layer_norm_backward_row(
                isa,
                &xh[r * w..(r + 1) * w],
                inv_std[r],
                gv,
                &gs[r * w..(r + 1) * w],
                &mut dx[r * w..(r + 1) * w],
                &mut part_gamma,
                &mut part_beta,
            );
        }
        for j in 0..w {
            dgamma[j] += part_gamma[j];
            dbeta[j] += part_beta[j];
        }
    }
    (
        NdArray::from_vec(xhat.shape().clone(), dx),
        NdArray::from_vec([w], dgamma),
        NdArray::from_vec([w], dbeta),
    )
}

/// Zeroes NaN/±Inf entries in place, returning how many were zeroed.
pub fn sanitize_non_finite(xs: &mut [f32]) -> usize {
    sanitize_non_finite_with_isa(xs, simd::active_isa())
}

/// [`sanitize_non_finite`] on an explicit ISA path (tests and benchmarks;
/// `isa` must be available on this host). Element-wise, so every ISA
/// produces identical results.
pub fn sanitize_non_finite_with_isa(xs: &mut [f32], isa: Isa) -> usize {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    simd::sanitize_chunk(isa, xs)
}

/// Elements per `f64` partial of [`norm_sq_f64`]. Part of the answer, not a
/// tuning knob: the grid fixes the order the sum rounds in.
const NORM_GRAIN: usize = 4096;

/// Sum of squares in f64 over fixed 4096-element chunks folded in ascending
/// chunk order — the norm gradient clipping scales by, so its low bits reach
/// every trained weight (`tests/reduction_order.rs`).
pub fn norm_sq_f64(xs: &[f32]) -> f64 {
    norm_sq_f64_with_isa(xs, simd::active_isa())
}

/// [`norm_sq_f64`] on an explicit ISA path (tests and benchmarks; `isa`
/// must be available on this host).
pub fn norm_sq_f64_with_isa(xs: &[f32], isa: Isa) -> f64 {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    xs.chunks(NORM_GRAIN)
        .map(|chunk| simd::norm_sq_chunk(isa, chunk))
        .sum()
}

/// Gathers rows of a 2-D `table` `[v, f]` by `indices`, producing `[n, f]`.
pub fn gather_rows(table: &NdArray, indices: &[usize]) -> NdArray {
    assert_eq!(table.shape().rank(), 2, "gather_rows table must be 2-D");
    let (v, f) = (table.dims()[0], table.dims()[1]);
    let mut out = Vec::with_capacity(indices.len() * f);
    for &ix in indices {
        assert!(ix < v, "gather index {ix} out of range {v}");
        out.extend_from_slice(&table.as_slice()[ix * f..(ix + 1) * f]);
    }
    NdArray::from_vec([indices.len(), f], out)
}

/// Scatter-add of rows: `out[indices[i], :] += rows[i, :]` into a `[v, f]`
/// zero array. The backward of [`gather_rows`].
pub fn scatter_add_rows(rows: &NdArray, indices: &[usize], v: usize) -> NdArray {
    assert_eq!(rows.shape().rank(), 2);
    let f = rows.dims()[1];
    assert_eq!(rows.dims()[0], indices.len());
    let mut out = NdArray::zeros([v, f]);
    let dst = out.as_mut_slice();
    for (i, &ix) in indices.iter().enumerate() {
        let src = &rows.as_slice()[i * f..(i + 1) * f];
        for (d, &s) in dst[ix * f..(ix + 1) * f].iter_mut().zip(src) {
            *d += s;
        }
    }
    out
}

/// A 2-D weight in some storage format, read through the two kernels a
/// no-grad forward needs. This trait and its two impls are the only place
/// that pairs a format with its kernels: everything above (`hire-nn`'s
/// MHSA, `hire-serve`'s HIM forward) is written once, generic over `W`,
/// and monomorphises to the same kernel calls a hand-written copy would
/// make — no `dyn`, no runtime format switch above this line.
pub trait WeightMatrix: Sync {
    /// `[rows, cols]` of the stored matrix.
    fn dims(&self) -> &[usize];
    /// `out = x · self` for row-major `x: [n, d]`, `self: [d, k]`,
    /// `out: [n, k]` (overwritten), `n` read off `x.len()` — the no-grad
    /// mirror of `Tensor::linear`, which flattens the leading axes into
    /// rows of the same matmul kernel. Each output element runs `isa`'s
    /// matmul chain over `d`, whatever `n` is — so projecting many rows at
    /// once, or in any order, cannot change a bit.
    fn linear_into(&self, x: &[f32], out: &mut [f32], isa: Isa);
    /// Row `index` of `self: [v, f]` as f32 into `out: [f]`.
    fn row_into(&self, index: usize, out: &mut [f32]);
}

/// Checks a [`WeightMatrix::linear_into`] call's shapes against `w: [d, k]`.
fn check_linear(dims: &[usize], x: &[f32], out: &[f32]) {
    assert_eq!(dims.len(), 2, "linear weight must be 2-D, got {dims:?}");
    let (d, k) = (dims[0], dims[1]);
    let n = x.len() / d.max(1);
    assert!(
        n * d == x.len() && n * k == out.len(),
        "linear shapes mismatch: x holds {} floats, out {}, weight {dims:?}",
        x.len(),
        out.len()
    );
}

impl WeightMatrix for NdArray {
    fn dims(&self) -> &[usize] {
        NdArray::dims(self)
    }
    fn linear_into(&self, x: &[f32], out: &mut [f32], isa: Isa) {
        check_linear(self.dims(), x, out);
        let (d, k) = (self.dims()[0], self.dims()[1]);
        out.fill(0.0);
        matmul_kernel_with_isa(x, self.as_slice(), out, x.len() / d.max(1), d, k, isa);
    }
    fn row_into(&self, index: usize, out: &mut [f32]) {
        assert_eq!(self.shape().rank(), 2, "row_into table must be 2-D");
        let (v, f) = (self.dims()[0], self.dims()[1]);
        assert!(index < v, "row index {index} out of range {v}");
        out.copy_from_slice(&self.as_slice()[index * f..(index + 1) * f]);
    }
}

/// A borrowed weight is a weight: lets a forward run on values it only
/// has by reference (the tape's parameters, lent by `Tensor::with_value`).
impl<T: WeightMatrix> WeightMatrix for &T {
    fn dims(&self) -> &[usize] {
        (**self).dims()
    }
    fn linear_into(&self, x: &[f32], out: &mut [f32], isa: Isa) {
        (**self).linear_into(x, out, isa);
    }
    fn row_into(&self, index: usize, out: &mut [f32]) {
        (**self).row_into(index, out);
    }
}

impl WeightMatrix for QuantizedTensor {
    fn dims(&self) -> &[usize] {
        QuantizedTensor::dims(self)
    }
    /// Quantization is a storage format, not a second matmul: `self`
    /// (`[d, k]`, a few KiB in every config) is expanded once per call and
    /// the product is the f32 one — bit-identical to it by construction.
    fn linear_into(&self, x: &[f32], out: &mut [f32], isa: Isa) {
        self.dequantize().linear_into(x, out, isa);
    }
    fn row_into(&self, index: usize, out: &mut [f32]) {
        assert!(
            index < self.dims()[0],
            "row index {index} out of range {}",
            self.dims()[0]
        );
        self.deq_row_into(index, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_add_matrix_vector() {
        let a = NdArray::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = NdArray::from_vec([3], vec![10., 20., 30.]);
        let c = broadcast_zip(&a, &b, |x, y| x + y);
        assert_eq!(c.as_slice(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn broadcast_with_ones_axis() {
        let a = NdArray::from_vec([2, 1], vec![1., 2.]);
        let b = NdArray::from_vec([1, 3], vec![10., 20., 30.]);
        let c = broadcast_zip(&a, &b, |x, y| x * y);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.as_slice(), &[10., 20., 30., 20., 40., 60.]);
    }

    #[test]
    fn broadcast_scalar() {
        let a = NdArray::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let s = NdArray::scalar(2.0);
        let c = broadcast_zip(&a, &s, |x, y| x * y);
        assert_eq!(c.as_slice(), &[2., 4., 6., 8.]);
    }

    #[test]
    fn reduce_to_shape_sums_broadcast_axes() {
        let g = NdArray::ones([2, 3]);
        let r = reduce_to_shape(&g, &Shape::from([3]));
        assert_eq!(r.as_slice(), &[2., 2., 2.]);
        let r2 = reduce_to_shape(&g, &Shape::from([2, 1]));
        assert_eq!(r2.as_slice(), &[3., 3.]);
        let r3 = reduce_to_shape(&g, &Shape::scalar());
        assert_eq!(r3.item(), 6.0);
    }

    #[test]
    fn matmul_2d_known_values() {
        let a = NdArray::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = NdArray::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul2d(&a, &b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = NdArray::from_vec([2, 2], vec![3., 1., 4., 1.]);
        let c = matmul2d(&a, &NdArray::eye(2));
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn bmm_batched_matches_per_matrix() {
        let a = NdArray::from_vec([2, 2, 3], (0..12).map(|x| x as f32).collect());
        let b = NdArray::from_vec([2, 3, 2], (0..12).map(|x| (x as f32) * 0.5).collect());
        let c = bmm(&a, &b);
        assert_eq!(c.dims(), &[2, 2, 2]);
        // check batch 1 manually against matmul2d
        let a1 = NdArray::from_vec([2, 3], a.as_slice()[6..12].to_vec());
        let b1 = NdArray::from_vec([3, 2], b.as_slice()[6..12].to_vec());
        let c1 = matmul2d(&a1, &b1);
        assert_eq!(&c.as_slice()[4..8], c1.as_slice());
    }

    #[test]
    fn bmm_shared_rhs() {
        let a = NdArray::from_vec([2, 2, 3], (0..12).map(|x| x as f32).collect());
        let w = NdArray::from_vec([3, 4], (0..12).map(|x| x as f32 * 0.1).collect());
        let c = bmm(&a, &w);
        assert_eq!(c.dims(), &[2, 2, 4]);
        let a0 = NdArray::from_vec([2, 3], a.as_slice()[..6].to_vec());
        let expect = matmul2d(&a0, &w);
        assert!(NdArray::from_vec([2, 4], c.as_slice()[..8].to_vec()).allclose(&expect, 1e-6));
    }

    #[test]
    fn permute_roundtrip() {
        let a = NdArray::from_vec([2, 3, 4], (0..24).map(|x| x as f32).collect());
        let p = permute(&a, &[2, 0, 1]);
        assert_eq!(p.dims(), &[4, 2, 3]);
        assert_eq!(p.at(&[3, 1, 2]), a.at(&[1, 2, 3]));
        let back = permute(&p, &inverse_permutation(&[2, 0, 1]));
        assert_eq!(back.as_slice(), a.as_slice());
    }

    #[test]
    fn transpose_last2_matrix() {
        let a = NdArray::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let t = transpose_last2(&a);
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.as_slice(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn concat_and_slice_roundtrip() {
        let a = NdArray::from_vec([2, 2], vec![1., 2., 3., 4.]);
        let b = NdArray::from_vec([2, 3], vec![5., 6., 7., 8., 9., 10.]);
        let c = concat_last(&[&a, &b]);
        assert_eq!(c.dims(), &[2, 5]);
        assert_eq!(c.as_slice(), &[1., 2., 5., 6., 7., 3., 4., 8., 9., 10.]);
        assert_eq!(slice_last(&c, 0, 2).as_slice(), a.as_slice());
        assert_eq!(slice_last(&c, 2, 3).as_slice(), b.as_slice());
    }

    #[test]
    fn linear_nd_matches_flattened_matmul() {
        let x = NdArray::from_vec([2, 2, 3], (0..12).map(|v| v as f32 * 0.25).collect());
        let w = NdArray::from_vec([3, 4], (0..12).map(|v| v as f32 * 0.1 - 0.5).collect());
        // Poisoned output: `linear_into` overwrites, it does not accumulate.
        let mut y = vec![f32::NAN; 2 * 2 * 4];
        w.linear_into(x.as_slice(), &mut y, simd::active_isa());
        let flat = matmul2d(&x.reshape([4, 3]), &w);
        assert_eq!(y, flat.as_slice());
    }

    #[test]
    fn layer_norm_last_nd_normalizes_rows() {
        let x = NdArray::from_vec([2, 4], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let gamma = NdArray::ones([4]);
        let beta = NdArray::zeros([4]);
        let y = layer_norm_last_nd(&x, &gamma, &beta, 1e-5);
        let mean: f32 = y.as_slice()[..4].iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!(y.as_slice()[4..].iter().all(|&v| v.abs() < 1e-2));
        // affine params shift and scale
        let y2 = layer_norm_last_nd(&x, &NdArray::full([4], 2.0), &NdArray::full([4], 1.0), 1e-5);
        for (a, b) in y.as_slice().iter().zip(y2.as_slice()) {
            assert!((a * 2.0 + 1.0 - b).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = NdArray::from_vec([2, 3], vec![1., 2., 3., 1000., 1000., 1000.]);
        let s = softmax_last(&a);
        for r in 0..2 {
            let sum: f32 = s.as_slice()[r * 3..(r + 1) * 3].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // large-value stability
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
        // monotone within row
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn sum_mean_last() {
        let a = NdArray::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(sum_last(&a).as_slice(), &[6., 15.]);
        assert_eq!(mean_last(&a).as_slice(), &[2., 5.]);
    }

    #[test]
    fn gather_scatter_are_adjoint() {
        let table = NdArray::from_vec([4, 2], (0..8).map(|x| x as f32).collect());
        let idx = [2usize, 0, 2];
        let g = gather_rows(&table, &idx);
        assert_eq!(g.as_slice(), &[4., 5., 0., 1., 4., 5.]);
        let rows = NdArray::ones([3, 2]);
        let s = scatter_add_rows(&rows, &idx, 4);
        assert_eq!(s.as_slice(), &[1., 1., 0., 0., 2., 2., 0., 0.]);
    }

    #[test]
    #[should_panic(expected = "attention buffers must each hold 48 floats")]
    fn attention_rejects_buffers_that_disagree_with_the_grid() {
        let grid = AttnGrid {
            outer: 2,
            tokens: 3,
            inner: 1,
            heads: 2,
            head_dim: 4,
        };
        let (mut q, k, v) = (vec![0.0; 48], vec![0.0; 48], vec![0.0; 40]);
        let mut scratch = vec![0.0; grid.scratch_len()];
        attention_into(&grid, &mut q, &k, &v, &mut scratch);
    }

    #[test]
    #[should_panic(expected = "linear shapes mismatch")]
    fn linear_into_rejects_an_output_of_the_wrong_size() {
        let w = NdArray::zeros([4, 5]);
        let mut out = vec![0.0; 9];
        w.linear_into(&[0.0; 8], &mut out, simd::active_isa());
    }

    /// Deterministic pseudo-random fill (no rand dependency in this crate).
    fn lcg_fill(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn quantized_linear_is_bit_exact_vs_dequantize_then_matmul() {
        use crate::quant::QuantMode;
        // Above and below BLOCK_THRESHOLD.
        for (n, k, m) in [(3usize, 5usize, 4usize), (40, 48, 40)] {
            let a = NdArray::from_vec([n, k], lcg_fill(n * k, 7));
            let w = NdArray::from_vec([k, m], lcg_fill(k * m, 11));
            let q = QuantizedTensor::quantize(&w, QuantMode::Int8);
            let mut got = vec![f32::NAN; n * m];
            q.linear_into(a.as_slice(), &mut got, simd::active_isa());
            let want = matmul2d(&a, &q.dequantize());
            assert_eq!(got, want.as_slice(), "{n}x{k}x{m}");
        }
    }

    #[test]
    fn linear_and_gather_dequant_match_f32_reference() {
        use crate::quant::QuantMode;
        let isa = simd::active_isa();
        let x = NdArray::from_vec([2, 3, 4], lcg_fill(24, 3));
        let w = NdArray::from_vec([4, 5], lcg_fill(20, 5));
        let q = QuantizedTensor::quantize(&w, QuantMode::Int8);
        let (mut got, mut want) = (vec![f32::NAN; 30], vec![f32::NAN; 30]);
        q.linear_into(x.as_slice(), &mut got, isa);
        q.dequantize().linear_into(x.as_slice(), &mut want, isa);
        assert_eq!(got, want);

        let table = NdArray::from_vec([6, 3], lcg_fill(18, 9));
        let qt = QuantizedTensor::quantize(&table, QuantMode::Int8);
        let idx = [4usize, 0, 4, 5];
        let want = gather_rows(&qt.dequantize(), &idx);
        for (k, &ix) in idx.iter().enumerate() {
            let (mut from_quant, mut from_f32) = ([0.0f32; 3], [0.0f32; 3]);
            qt.row_into(ix, &mut from_quant);
            qt.dequantize().row_into(ix, &mut from_f32);
            assert_eq!(from_quant, want.as_slice()[k * 3..(k + 1) * 3]);
            assert_eq!(from_f32, from_quant);
        }
    }
}
