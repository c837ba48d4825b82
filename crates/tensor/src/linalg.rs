//! Numeric kernels on [`NdArray`]: broadcast arithmetic, (batched) matrix
//! multiplication, axis permutation, concatenation, softmax and reductions.
//!
//! Kernels that return an [`NdArray`] allocate it. The serving forward
//! instead runs on the slice-level `*_into` forms ([`linear_into`],
//! [`attention_into`], [`mhsa_one_pass_into`], [`layer_norm_last_into`]),
//! which write into
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
//! bit-identical to avx2. One kernel, [`attention_backward_into`], is
//! bit-identical across all three: each ISA's form runs the same
//! multiply-then-add chains, FMA-free.
//!
//! Each hot kernel also has a public `*_with_isa` twin taking an explicit
//! [`Isa`], so the cross-check tests and `compute_bench` can exercise every
//! path in one process regardless of the process-global dispatch.

use crate::ndarray::NdArray;
use crate::scratch::Scratch;
use crate::shape::Shape;
use crate::simd::{self, AttnGrid, Isa};

/// Element-wise binary op with numpy-style broadcasting.
pub(crate) fn broadcast_zip(a: &NdArray, b: &NdArray, f: impl Fn(f32, f32) -> f32) -> NdArray {
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

/// `a` repeated along the axes it broadcasts over to `shape` (numpy
/// rules): each output element is the `a` element [`broadcast_zip`] would
/// pair it with, copied.
pub(crate) fn broadcast_to(a: &NdArray, shape: &Shape) -> NdArray {
    assert!(
        a.shape().broadcasts_to(shape),
        "cannot broadcast {} to {shape}",
        a.shape()
    );
    let (rank, dims) = (shape.rank(), shape.dims());
    let strides = padded_broadcast_strides(a.shape(), rank, dims);
    let src = a.as_slice();
    let mut out = NdArray::zeros(shape.clone());
    let mut index = vec![0usize; rank];
    let mut off = 0usize;
    for slot in out.as_mut_slice() {
        *slot = src[off];
        for axis in (0..rank).rev() {
            index[axis] += 1;
            off += strides[axis];
            if index[axis] < dims[axis] {
                break;
            }
            off -= strides[axis] * dims[axis];
            index[axis] = 0;
        }
    }
    out
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
/// summing over the broadcast axes. Used by autograd backward passes. Each
/// target element sums its grad elements in ascending flat order; the
/// multi-index is walked incrementally, as [`broadcast_zip`] walks it.
pub(crate) fn reduce_to_shape(grad: &NdArray, target: &Shape) -> NdArray {
    if grad.shape() == target {
        return grad.clone();
    }
    assert!(
        target.broadcasts_to(grad.shape()),
        "cannot reduce {} to {target}",
        grad.shape()
    );
    let rank = grad.shape().rank();
    let g_dims = grad.dims();
    // Stride 0 on the axes summed over.
    let t_strides = padded_broadcast_strides(target, rank, g_dims);
    let mut out = NdArray::zeros(target.clone());
    let dst = out.as_mut_slice();
    let mut index = vec![0usize; rank];
    let mut t_off = 0usize;
    for &grad_value in grad.as_slice() {
        dst[t_off] += grad_value;
        for axis in (0..rank).rev() {
            index[axis] += 1;
            t_off += t_strides[axis];
            if index[axis] < g_dims[axis] {
                break;
            }
            t_off -= t_strides[axis] * g_dims[axis];
            index[axis] = 0;
        }
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

/// `out[n,m] = a[n,k] * b[k,m]`, cache-blocked; `out` is overwritten, never
/// read.
///
/// `b` is packed once into `panel_width(isa)`-wide column panels plus a
/// dense 8- or 16-column panel for a thinner column tail (k-major inside
/// each panel, so the micro-kernel streams it contiguously), then the
/// micro-kernel walks the output in register tiles. Each output element
/// accumulates through a single register lane from `+0.0` in ascending-`k`
/// order — on scalar the identical floating-point chain to
/// [`matmul_reference`] on a zeroed output; on avx2 the same chain with
/// each step fused into an FMA (the relaxation documented in
/// [`crate::simd`]). Results are bit-identical on either size-dispatch path
/// on a fixed ISA.
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
    let packed = simd::pack_b(b, k, m, simd::panel_width(isa));
    simd::matmul_block_rows(isa, a, &packed, out, n, k, m);
}

/// `src: [rows, cols]` row-major, transposed into `out: [cols, rows]`.
fn transpose_into(src: &[f32], rows: usize, cols: usize, out: &mut [f32]) {
    debug_assert!(src.len() == rows * cols && out.len() == src.len());
    for (r, row) in src.chunks_exact(cols.max(1)).enumerate() {
        for (c, &x) in row.iter().enumerate() {
            out[c * rows + r] = x;
        }
    }
}

/// `src: [rows, cols]` row-major, transposed to `[cols, rows]` in reused
/// memory.
fn transposed(src: &[f32], rows: usize, cols: usize) -> Scratch {
    let mut out = Scratch::take(src.len());
    transpose_into(src, rows, cols, &mut out);
    out
}

/// `out[n,m] = a[n,k] * b[m,k]^T`: `b` — a weight, or one batch entry — is
/// transposed once and the product is [`matmul_kernel_with_isa`]'s, so
/// each output element runs the forward matmul's chain over ascending `k`
/// (scalar: mul-then-add from `0.0`; avx2/avx512: one FMA per step).
fn nt_kernel(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    let bt = transposed(b, m, k);
    matmul_kernel_with_isa(a, &bt, out, n, k, m, simd::active_isa());
}

/// `out[k,m] = a[n,k]^T * g[n,m]`, `out` zeroed on entry, through the
/// streaming [`simd::matmul_tn`] (which accumulates onto it):
/// every register tile walks the rows of `a` and `g` once, in place — no
/// transposed copy, no packing — and each output element is one chain over
/// the rows `n`, ascending: the chain of `matmul2d(transpose(a), g)`. The
/// lanes should span the output's longer axis, so a wide output (`m >= k`)
/// is built as it is, and a tall one as `outᵀ = gᵀ·a`, transposed into
/// `out` — the same products in the same order per element (`x·y` and `y·x`
/// round alike), so which way round is a pure speed choice: MHSA's `dW_O`
/// over MBA's `[2304, 32]ᵀ·[2304, 8]` fills 32 lanes a row the second way
/// instead of 8.
fn tn_kernel(a: &[f32], g: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    let isa = simd::active_isa();
    if m >= k {
        simd::matmul_tn(isa, a, g, out, n, k, m);
    } else {
        let mut out_t = Scratch::zeroed(m * k);
        simd::matmul_tn(isa, g, a, &mut out_t, n, m, k);
        transpose_into(&out_t, m, k, out);
    }
}

/// [`matmul2d_nt`] over plain row-major slices: `out[n,m] = a[n,k] ·
/// b[m,k]ᵀ`, overwritten — the same product, bit for bit, into the
/// caller's memory.
pub fn matmul_nt_into(a: &[f32], b: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert!(
        a.len() == n * k && b.len() == m * k && out.len() == n * m,
        "matmul_nt_into shapes mismatch: a {} b {} out {} for n {n} k {k} m {m}",
        a.len(),
        b.len(),
        out.len()
    );
    nt_kernel(a, b, out, n, k, m);
}

/// [`matmul2d_tn`] over plain row-major slices: `out[k,m] = a[n,k]ᵀ ·
/// g[n,m]`, overwritten — the same product, bit for bit, into the
/// caller's memory.
pub fn matmul_tn_into(a: &[f32], g: &[f32], out: &mut [f32], n: usize, k: usize, m: usize) {
    assert!(
        a.len() == n * k && g.len() == n * m && out.len() == k * m,
        "matmul_tn_into shapes mismatch: a {} g {} out {} for n {n} k {k} m {m}",
        a.len(),
        g.len(),
        out.len()
    );
    out.fill(0.0);
    tn_kernel(a, g, out, n, k, m);
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
pub(crate) fn bmm(a: &NdArray, b: &NdArray) -> NdArray {
    bmm_with_isa(a, b, simd::active_isa())
}

/// `bmm` on an explicit ISA path (tests and benchmarks; `isa` must be
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
/// `[..., n, m]`. Mirrors `bmm`'s accepted shapes for the backward pass
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
pub(crate) fn inverse_permutation(perm: &[usize]) -> Vec<usize> {
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
pub(crate) fn softmax_backward_last(y: &NdArray, g: &NdArray) -> NdArray {
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
/// `crate::simd::attention`), so it is bit-identical to that composition.
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
    attention_run(grid, grid.tokens, qo, k, v, None, scratch, isa);
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
    attention_run(grid, grid.tokens, qo, k, v, Some(probs), scratch, isa);
}

/// [`attention_into_with_isa`] for `queries` of each sequence's tokens
/// against all `grid.tokens` of its keys: `qo` holds the query rows only,
/// `[outer, queries, inner]` rows of `grid.width()` floats, and receives
/// their outputs; `k` and `v` hold every token. Attention has no position
/// term, so which tokens the queries are does not matter, only how many:
/// each output row is the chain [`attention_into`] computes for the same
/// query row among every query (DESIGN.md §16), so `queries = grid.tokens`
/// is that call, and any subset of rows is those rows of it, bit for bit.
///
/// `scratch` holds at least [`AttnGrid::scratch_len`] floats.
pub fn attention_queries_into(
    grid: &AttnGrid,
    queries: usize,
    qo: &mut [f32],
    k: &[f32],
    v: &[f32],
    scratch: &mut [f32],
    isa: Isa,
) {
    attention_run(grid, queries, qo, k, v, None, scratch, isa);
}

/// The one checked kernel call behind [`attention_into`],
/// [`attention_probs_into`] and [`attention_queries_into`].
#[allow(clippy::too_many_arguments)]
fn attention_run(
    grid: &AttnGrid,
    queries: usize,
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
    assert!(
        queries <= grid.tokens,
        "{queries} queries of {grid:?}, which has {} tokens",
        grid.tokens
    );
    let (len, q_len) = (
        grid.rows() * grid.width(),
        grid.query_rows(queries) * grid.width(),
    );
    assert!(
        qo.len() == q_len && k.len() == len && v.len() == len,
        "attention buffers must each hold {len} floats for {grid:?} (q {q_len} for {queries} \
         queries), got q {} k {} v {}",
        qo.len(),
        k.len(),
        v.len()
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
    if qo.is_empty() {
        return;
    }
    // SAFETY: `qo` holds the queries' rows, `k` and `v` every row, and
    // `scratch` / `probs` have the grid's lengths (all asserted above);
    // the `&mut` borrow keeps everything else off `qo` for the call.
    unsafe { simd::attention_tiles(isa, grid, queries, qo.as_mut_ptr(), k, v, scratch, probs) };
}

/// One multi-head self-attention layer in one pass: `y = MHSA(x)` for
/// `[rows, d]` rows `x` and `y` laid out as `grid` says, `weights` the
/// row-major `[w_q, w_k, w_v, w_o]` (`[d, width]` ×3, `[width, d]`), every
/// element of `y` overwritten — for the layers [`AttnGrid::one_pass`]
/// picks, whose every head is at least as wide as their rows. A lane group
/// of sequences enters the vector lanes once; every head's Q, K and V are
/// projected in registers, attended and folded through `W_O` into the
/// group's output, which leaves the lanes once, so no `[rows, width]`
/// buffer is written.
/// Per element these are the chains of the composition — [`linear_into`]
/// thrice, [`attention_into`], [`linear_into`] — on the same ISA, so the
/// output is bit-identical to it (see `crate::simd::attention`).
///
/// `scratch` holds at least [`AttnGrid::one_pass_scratch_len`] floats.
pub fn mhsa_one_pass_into(
    grid: &AttnGrid,
    x: &[f32],
    weights: [&[f32]; 4],
    y: &mut [f32],
    scratch: &mut [f32],
    isa: Isa,
) {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    let d = weights[0].len() / grid.width().max(1);
    assert!(
        grid.one_pass(d, isa),
        "a layer of model dim {d} over {grid:?} does not run in one pass on {}",
        isa.label()
    );
    if grid.rows() == 0 {
        return;
    }
    simd::mhsa_one_pass(isa, grid, x, weights, y, scratch);
}

/// Backward of [`mhsa_one_pass_into`]: from the layer's input `x`, its
/// `weights` (`[w_q, w_k, w_v, w_o]`, as there) and the gradient `dy` of
/// its output (`[rows, d]`), the weight gradients `[dW_Q, dW_K, dW_V, dW_O]`
/// (returned) and, when `dx` is given, the input's (`[rows, d]`,
/// overwritten). Nothing of the forward is kept or read but `x`: a lane
/// group of sequences at a time, the lane kernel recomputes each head's
/// `Q`, `K`, `V`, softmax rows and merged-head output `O` by the forward's
/// chains and runs the tile backward ([`attention_backward_into`]'s
/// arithmetic) on them in its panels; `dX` is formed there too, and the
/// head's `G = [dQ | dK | dV]` and `O` leave the lanes as rows for the
/// weight gradients, `[dW_Q | dW_K | dW_V] += xᵀ·G` and `dW_Oᵀ += dYᵀ·O`,
/// each element's chain continued over the rows in ascending order, chunk
/// to chunk of whole `[tokens, inner]` row blocks.
///
/// Per element these are the chains of the composition's backward over its
/// saved intermediates — `matmul2d_tn(O, dY)`, `matmul2d_nt(dY, W_O)`,
/// [`attention_backward_into_with_isa`], `matmul2d_tn(x, G)` and
/// `matmul2d_nt(G, [W_Q | W_K | W_V])` — so every gradient is bit-identical
/// to it on the same ISA. Its scratch is a lane group's, not the layer's,
/// and comes from this thread's reused [`Scratch`]: what it allocates is
/// the four gradients it returns.
pub fn mhsa_one_pass_backward(
    grid: &AttnGrid,
    x: &[f32],
    weights: [&[f32]; 4],
    dy: &[f32],
    dx: Option<&mut [f32]>,
    isa: Isa,
) -> [NdArray; 4] {
    let (width, d) = (grid.width(), weights[0].len() / grid.width().max(1));
    let mut d_w = [[d, width], [d, width], [d, width], [width, d]].map(NdArray::zeros);
    let [d_wq, d_wk, d_wv, d_wo] = &mut d_w;
    let outs = [d_wq, d_wk, d_wv, d_wo].map(NdArray::as_mut_slice);
    mhsa_one_pass_backward_into(grid, x, weights, dy, dx, outs, isa);
    d_w
}

/// [`mhsa_one_pass_backward`] into the caller's memory: the weight
/// gradients `[dW_Q, dW_K, dW_V, dW_O]` into `d_w` (`[d, width]` ×3,
/// `[width, d]`, overwritten), the same bits.
pub fn mhsa_one_pass_backward_into(
    grid: &AttnGrid,
    x: &[f32],
    weights: [&[f32]; 4],
    dy: &[f32],
    dx: Option<&mut [f32]>,
    [d_wq, d_wk, d_wv, d_wo]: [&mut [f32]; 4],
    isa: Isa,
) {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    let (width, dk) = (grid.width(), grid.head_dim);
    let d = weights[0].len() / width.max(1);
    assert!(
        grid.one_pass(d, isa),
        "a layer of model dim {d} over {grid:?} does not run in one pass on {}",
        isa.label()
    );
    let len = grid.rows() * d;
    assert!(
        x.len() == len && dy.len() == len && dx.as_ref().is_none_or(|dx| dx.len() == len),
        "one-pass MHSA backward over {grid:?} needs x, dy and dx of {len} floats"
    );
    assert!(
        [&d_wq, &d_wk, &d_wv, &d_wo]
            .iter()
            .all(|d_w| d_w.len() == d * width),
        "one-pass MHSA weight gradients over {grid:?} are {d} x {width} each"
    );
    // The kernel accumulates onto these.
    let mut d_wqkv = Scratch::zeroed(3 * d * width);
    let mut d_wo_t = Scratch::zeroed(d * width);
    if len > 0 {
        // `[W_Q | W_K | W_V]ᵀ`, `[3·width, d]`: the `dX` product's operand.
        let mut w_qkv_t = Scratch::take(3 * d * width);
        for (w, out) in weights[..3].iter().zip(w_qkv_t.chunks_exact_mut(d * width)) {
            transpose_into(w, d, width, out);
        }
        let [w_q, w_k, w_v, w_o] = weights;
        let weights = [w_q, w_k, w_v, w_o, &w_qkv_t];
        simd::mhsa_one_pass_backward(isa, grid, x, weights, dy, dx, &mut d_wqkv, &mut d_wo_t);
    }
    // `d_wqkv`'s columns run head by head, `[dW_Q | dW_K | dW_V]` of each.
    let mut d_w = [d_wq, d_wk, d_wv];
    for (k, row) in d_wqkv.chunks_exact(3 * width).enumerate() {
        for (h, head) in row.chunks_exact(3 * dk).enumerate() {
            for (d_w, part) in d_w.iter_mut().zip(head.chunks_exact(dk)) {
                d_w[k * width + h * dk..][..dk].copy_from_slice(part);
            }
        }
    }
    transpose_into(&d_wo_t, d, width, d_wo);
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
/// Every ISA's kernel runs one lane-blocked arithmetic, multiply-then-add
/// in a fixed order (see `simd::attention`), so the result is
/// bit-identical on every ISA. Non-finite values in any input reach the
/// outputs by IEEE rules (a `NumericalGuard` upstream counts on seeing
/// them). The kernel writes the three gradients side by side
/// ([`attention_backward_into_with_isa`]); this form copies them out into
/// three buffers of their own.
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
    let (len, width) = (grid.rows() * grid.width(), grid.width());
    let lens = [dq.len(), dk.len(), dv.len()];
    assert!(
        lens.iter().all(|&l| l == len),
        "attention backward over {grid:?} needs {len} floats per gradient, got dq/dk/dv {lens:?}"
    );
    let mut d_qkv = vec![0.0f32; 3 * len];
    attention_backward_into_with_isa(grid, q, k, v, p, d_o, &mut d_qkv, simd::active_isa());
    if len == 0 {
        return;
    }
    for (which, d) in [dq, dk, dv].into_iter().enumerate() {
        for (d, row) in d.chunks_exact_mut(width).zip(d_qkv.chunks_exact(3 * width)) {
            d.copy_from_slice(&row[which * width..][..width]);
        }
    }
}

/// [`attention_backward_into`] on an explicit ISA path (tests and
/// benchmarks; `isa` must be available on this host), writing the three
/// gradients side by side: `d_qkv` is `[rows, 3·width]`, `dQ | dK | dV` at
/// column offsets `0`, `width` and `2·width` of each row — the operand
/// `[dW_Q | dW_K | dW_V] = Xᵀ·[dQ | dK | dV]` reads, which the tape's
/// `mhsa` node hands it. Every element is overwritten.
#[allow(clippy::too_many_arguments)]
pub fn attention_backward_into_with_isa(
    grid: &AttnGrid,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    p: &[f32],
    d_o: &[f32],
    d_qkv: &mut [f32],
    isa: Isa,
) {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    let len = grid.rows() * grid.width();
    let lens = [q.len(), k.len(), v.len(), d_o.len()];
    assert!(
        lens.iter().all(|&l| l == len) && p.len() == grid.probs_len() && d_qkv.len() == 3 * len,
        "attention backward over {grid:?} needs {len} floats per input, {} probabilities \
         and {} gradient floats, got q/k/v/d_o {lens:?}, p {} and d_qkv {}",
        grid.probs_len(),
        3 * len,
        p.len(),
        d_qkv.len()
    );
    simd::attention_backward_tiles(isa, grid, [q, k, v, d_o], p, d_qkv);
}

/// Sum along the last axis: `[..., w] -> [...]`.
pub(crate) fn sum_last(a: &NdArray) -> NdArray {
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

/// Layer normalization over the last axis without autograd, on an explicit
/// ISA path (tests and benchmarks; `isa` must be available on this host):
/// the no-grad mirror of `Tensor::layer_norm_last`'s forward pass. Mean and
/// variance accumulate in f64 with the identical operation order per row,
/// so results are bit-identical to the tape path.
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

/// The layer norm over rows of width `gamma.len()` of a flat
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
/// row, on the same per-row chain as [`layer_norm_last_into`].
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
    let (mut y, mut xhat) = (
        NdArray::zeros(x.shape().clone()),
        NdArray::zeros(x.shape().clone()),
    );
    let mut inv_std = vec![0.0f32; rows];
    layer_norm_train_into(
        x.as_slice(),
        gamma.as_slice(),
        beta.as_slice(),
        eps,
        y.as_mut_slice(),
        xhat.as_mut_slice(),
        &mut inv_std,
        isa,
    );
    (y, xhat, inv_std)
}

/// The training form of [`layer_norm_last_into`]: `y` from the same row
/// kernel, bit for bit, and what the backward reads — `xhat`, the
/// normalized input (`x`'s length), and `inv_std`, one entry per row — into
/// the caller's memory. Every element of the three is overwritten.
#[allow(clippy::too_many_arguments)]
pub fn layer_norm_train_into(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    y: &mut [f32],
    xhat: &mut [f32],
    inv_std: &mut [f32],
    isa: Isa,
) {
    layer_norm_rows_into(x, gamma, beta, eps, y, Some((xhat, inv_std)), isa);
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
    let w = gamma.numel();
    let mut dx = NdArray::zeros(xhat.shape().clone());
    let (mut dgamma, mut dbeta) = (NdArray::zeros([w]), NdArray::zeros([w]));
    layer_norm_backward_into(
        xhat.as_slice(),
        inv_std,
        gamma.as_slice(),
        g.as_slice(),
        [
            dx.as_mut_slice(),
            dgamma.as_mut_slice(),
            dbeta.as_mut_slice(),
        ],
        isa,
    );
    (dx, dgamma, dbeta)
}

/// [`layer_norm_backward_last`] over plain slices, into the caller's
/// memory: `[dx, dgamma, dbeta]` (`dx` rows of width `gamma.len()`, all
/// three overwritten) — the same chains, bit for bit.
pub fn layer_norm_backward_into(
    xhat: &[f32],
    inv_std: &[f32],
    gamma: &[f32],
    g: &[f32],
    [dx, dgamma, dbeta]: [&mut [f32]; 3],
    isa: Isa,
) {
    assert!(
        isa.is_available(),
        "ISA {} not available on this host",
        isa.label()
    );
    let w = gamma.len();
    let rows = xhat.len() / w.max(1);
    assert_eq!(inv_std.len(), rows, "inv_std must have one entry per row");
    assert!(
        rows * w == xhat.len()
            && g.len() == xhat.len()
            && dx.len() == xhat.len()
            && dgamma.len() == w
            && dbeta.len() == w,
        "layer norm backward over rows of {w} got xhat {}, g {}, dx {}, dgamma {}, dbeta {}",
        xhat.len(),
        g.len(),
        dx.len(),
        dgamma.len(),
        dbeta.len()
    );
    dgamma.fill(0.0);
    dbeta.fill(0.0);
    let mut parts = Scratch::take(2 * w);
    let (part_gamma, part_beta) = parts.split_at_mut(w);
    let grain = row_grain(w);
    for start in (0..rows).step_by(grain) {
        part_gamma.fill(0.0);
        part_beta.fill(0.0);
        let end = (start + grain).min(rows);
        let chunk = start * w..end * w;
        simd::layer_norm_backward_rows(
            isa,
            &xhat[chunk.clone()],
            &inv_std[start..end],
            gamma,
            &g[chunk.clone()],
            &mut dx[chunk],
            part_gamma,
            part_beta,
        );
        for j in 0..w {
            dgamma[j] += part_gamma[j];
            dbeta[j] += part_beta[j];
        }
    }
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
pub(crate) fn gather_rows(table: &NdArray, indices: &[usize]) -> NdArray {
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
pub(crate) fn scatter_add_rows(rows: &NdArray, indices: &[usize], v: usize) -> NdArray {
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

/// `out = x · w` for row-major `x: [n, d]`, `w: [d, k]`, `out: [n, k]`
/// (overwritten), `n` read off `x.len()` — the no-grad mirror of
/// `Tensor::linear`, which flattens the leading axes into rows of the same
/// matmul kernel. Each output element runs `isa`'s matmul chain over `d`,
/// whatever `n` is — so projecting many rows at once, or in any order,
/// cannot change a bit.
pub fn linear_into(w: &NdArray, x: &[f32], out: &mut [f32], isa: Isa) {
    let dims = w.dims();
    assert_eq!(dims.len(), 2, "linear weight must be 2-D, got {dims:?}");
    let (d, k) = (dims[0], dims[1]);
    let n = x.len() / d.max(1);
    assert!(
        n * d == x.len() && n * k == out.len(),
        "linear shapes mismatch: x holds {} floats, out {}, weight {dims:?}",
        x.len(),
        out.len()
    );
    matmul_kernel_with_isa(x, w.as_slice(), out, n, d, k, isa);
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

    /// Every target element is its grad elements summed in ascending flat
    /// order — bit for bit, on targets that drop leading axes and keep
    /// size-1 axes anywhere.
    #[test]
    fn reduce_to_shape_sums_in_ascending_flat_order() {
        let g = NdArray::from_vec([2, 3, 4, 5], lcg_fill(120, 13));
        for target in [
            vec![3, 1, 5],
            vec![1, 3, 4, 1],
            vec![2, 1, 4, 1],
            vec![5],
            vec![1, 1],
        ] {
            let target = Shape::from(target);
            let got = reduce_to_shape(&g, &target);
            let t_dims = target.dims();
            let lead = 4 - t_dims.len();
            let mut want = vec![0.0f32; target.numel()];
            for (flat, &x) in g.as_slice().iter().enumerate() {
                let index = [flat / 60, flat / 20 % 3, flat / 5 % 4, flat % 5];
                let at = t_dims.iter().enumerate().fold(0, |at, (axis, &d)| {
                    at * d + if d == 1 { 0 } else { index[lead + axis] }
                });
                want[at] += x;
            }
            let bits = |a: &[f32]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.as_slice()), bits(&want), "{target}");
        }
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
        let eye = NdArray::from_vec([2, 2], vec![1., 0., 0., 1.]);
        let c = matmul2d(&a, &eye);
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
        linear_into(&w, x.as_slice(), &mut y, simd::active_isa());
        let flat = matmul2d(&x.reshape([4, 3]), &w);
        assert_eq!(y, flat.as_slice());
    }

    #[test]
    fn layer_norm_last_nd_normalizes_rows() {
        let x = NdArray::from_vec([2, 4], vec![1., 2., 3., 4., 10., 10., 10., 10.]);
        let gamma = NdArray::ones([4]);
        let beta = NdArray::zeros([4]);
        let isa = simd::active_isa();
        let y = layer_norm_last_nd_with_isa(&x, &gamma, &beta, 1e-5, isa);
        let mean: f32 = y.as_slice()[..4].iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!(y.as_slice()[4..].iter().all(|&v| v.abs() < 1e-2));
        // affine params shift and scale
        let (gamma2, beta2) = (NdArray::full([4], 2.0), NdArray::full([4], 1.0));
        let y2 = layer_norm_last_nd_with_isa(&x, &gamma2, &beta2, 1e-5, isa);
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
    fn sum_last_sums_rows() {
        let a = NdArray::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(sum_last(&a).as_slice(), &[6., 15.]);
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
        linear_into(&w, &[0.0; 8], &mut out, simd::active_isa());
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
}
