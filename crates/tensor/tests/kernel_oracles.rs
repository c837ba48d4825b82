//! The fast linalg kernels against independent oracles, on the process's
//! ISA: the packed matmul against the naive reference loop, the transposed
//! backward products against the forward kernel on a materialized
//! transpose, the attention tiles against the unfused `bmm → softmax → bmm`
//! chain, and their backward against a per-tile reference. (The two
//! chunk-ordered reductions have `reduction_order.rs`; per-ISA bounds,
//! `isa_dispatch.rs`.)

use hire_tensor::{linalg, AttnGrid, NdArray};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn randn(dims: &[usize], seed: u64) -> NdArray {
    let mut rng = StdRng::seed_from_u64(seed);
    NdArray::randn(dims, 0.0, 1.0, &mut rng)
}

#[test]
fn matmul2d_matches_reference() {
    // Shapes straddle BLOCK_THRESHOLD so both the blocked path and the
    // small-product path are exercised, plus ragged row counts that do not
    // divide a register tile. Agreement with `matmul_reference` is bitwise
    // on scalar and oracle-bounded on avx2 (whose FMA chain rounds less —
    // see DESIGN.md §16; the per-ISA bound itself is pinned by
    // tests/isa_dispatch.rs).
    let bitwise_vs_reference = hire_tensor::simd::active_isa() < hire_tensor::simd::Isa::Avx2;
    for (n, k, m) in [(3, 5, 4), (33, 17, 9), (64, 40, 32), (129, 31, 33)] {
        let a = randn(&[n, k], 0xA0 + n as u64);
        let b = randn(&[k, m], 0xB0 + m as u64);
        let out = linalg::matmul2d(&a, &b);
        let mut reference = vec![0.0f32; n * m];
        linalg::matmul_reference(a.as_slice(), b.as_slice(), &mut reference, n, k, m);
        for (i, (x, y)) in out.as_slice().iter().zip(&reference).enumerate() {
            if bitwise_vs_reference {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "matmul2d {n}x{k}x{m}: element {i} deviates from reference"
                );
            } else {
                let tol = 1e-4 * (k as f32).sqrt() * y.abs().max(1.0);
                assert!(
                    (x - y).abs() <= tol,
                    "matmul2d {n}x{k}x{m}: element {i} outside oracle bound ({x} vs {y})"
                );
            }
        }
    }
}

#[test]
fn transposed_products_match_the_forward_kernel() {
    // matmul2d_nt: [n,k] x [m,k]^T and matmul2d_tn: [n,k]^T x [n,m] are
    // the backward-pass products, routed through the packed forward kernel
    // on a transposed operand: bitwise the forward product of the
    // materialized transpose. Ragged sizes on both sides of
    // BLOCK_THRESHOLD; for `tn`, outputs wider than tall and taller than
    // wide (the two ways round it builds its product).
    for (n, k, m) in [(37, 24, 15), (129, 40, 33), (200, 9, 40), (2304, 8, 32)] {
        let a = randn(&[n, k], 3);
        let b = randn(&[m, k], 4);
        let nt = linalg::matmul2d_nt(&a, &b);
        let want = linalg::matmul2d(&a, &linalg::transpose_last2(&b));
        assert_eq!(nt.as_slice(), want.as_slice(), "nt {n}x{k}x{m}");

        let g = randn(&[n, m], 5);
        let tn = linalg::matmul2d_tn(&a, &g);
        let want = linalg::matmul2d(&linalg::transpose_last2(&a), &g);
        assert_eq!(tn.as_slice(), want.as_slice(), "tn {n}x{k}x{m}");
    }

    // The batched forms are the 2-D products entry by entry; a shared 2-D
    // rhs (the weight-gradient shape of `Tensor::linear`) is one flattened
    // product.
    let ba = randn(&[4, 21, 16], 6);
    let bb = randn(&[4, 9, 16], 7);
    let bg = randn(&[4, 21, 9], 8);
    let entry = |a: &NdArray, bi: usize| {
        let (n, k) = (a.dims()[1], a.dims()[2]);
        NdArray::from_vec([n, k], a.as_slice()[bi * n * k..(bi + 1) * n * k].to_vec())
    };
    let (nt, tn) = (linalg::bmm_nt(&ba, &bb), linalg::bmm_tn(&ba, &bg));
    assert_eq!((nt.dims(), tn.dims()), (&[4, 21, 9][..], &[4, 16, 9][..]));
    for bi in 0..4 {
        let want = linalg::matmul2d_nt(&entry(&ba, bi), &entry(&bb, bi));
        assert_eq!(entry(&nt, bi).as_slice(), want.as_slice(), "bmm_nt {bi}");
        let want = linalg::matmul2d_tn(&entry(&ba, bi), &entry(&bg, bi));
        assert_eq!(entry(&tn, bi).as_slice(), want.as_slice(), "bmm_tn {bi}");
    }
    let shared = randn(&[9, 16], 9);
    let want = linalg::matmul2d_nt(&ba.reshape([4 * 21, 16]), &shared);
    assert_eq!(
        linalg::bmm_nt(&ba, &shared).as_slice(),
        want.as_slice(),
        "bmm_nt shared rhs"
    );
}

#[test]
fn attention_tiles_match_the_unfused_chain() {
    // Both token-axis placements, several lane groups with a ragged last
    // one, and a token count on each side of the softmax row kernel's
    // 8-wide body.
    for (outer, tokens, inner, heads, head_dim) in
        [(70, 5, 1, 3, 8), (3, 9, 7, 2, 6), (2, 17, 5, 4, 8)]
    {
        let grid = AttnGrid {
            outer,
            tokens,
            inner,
            heads,
            head_dim,
        };
        let dims = [grid.rows(), grid.width()];
        let (q, k, v) = (randn(&dims, 20), randn(&dims, 21), randn(&dims, 22));
        let mut got = q.clone();
        linalg::attention_into(
            &grid,
            got.as_mut_slice(),
            k.as_slice(),
            v.as_slice(),
            &mut vec![f32::NAN; grid.scratch_len()],
        );

        // Per-tile oracle from the allocating kernels: gather the tile,
        // `softmax(q kᵀ · scale) v`, compare the tile's output rows.
        let width = grid.width();
        let scale = 1.0 / (head_dim as f32).sqrt();
        for (o, j, head) in [
            (0, 0, 0),
            (outer - 1, inner - 1, heads - 1),
            (outer / 2, inner / 2, 0),
        ] {
            let row = |t: usize| (o * tokens + t) * inner + j;
            let tile = |a: &NdArray| {
                let mut out = NdArray::zeros([tokens, head_dim]);
                for t in 0..tokens {
                    let at = row(t) * width + head * head_dim;
                    out.as_mut_slice()[t * head_dim..(t + 1) * head_dim]
                        .copy_from_slice(&a.as_slice()[at..at + head_dim]);
                }
                out
            };
            let scores =
                linalg::matmul2d(&tile(&q), &linalg::transpose_last2(&tile(&k))).map(|s| s * scale);
            let want = linalg::matmul2d(&linalg::softmax_last(&scores), &tile(&v));
            assert_eq!(
                tile(&got).as_slice(),
                want.as_slice(),
                "{grid:?} tile ({o}, {j}, {head})"
            );
        }
    }
}

/// One tile's backward on the reference chains: every sum a single
/// accumulator from `0.0` over an ascending index, multiply then add — what
/// `attention_backward_into` promises for each tile on every ISA.
fn tile_backward_reference(
    [q, k, v, d_o]: [&[f32]; 4],
    p: &[f32],
    t: usize,
    dk: usize,
) -> [Vec<f32>; 3] {
    let transposed = |a: &[f32], rows: usize, cols: usize| {
        let mut out = vec![0.0f32; a.len()];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = a[r * cols + c];
            }
        }
        out
    };
    let product = |a: &[f32], b: &[f32], n: usize, k: usize, m: usize| {
        let mut out = vec![0.0f32; n * m];
        linalg::matmul_reference(a, b, &mut out, n, k, m);
        out
    };
    let scale = 1.0 / (dk as f32).sqrt();
    let mut ds = product(d_o, &transposed(v, t, dk), t, dk, t); // dP = dO·Vᵀ
    for (ds_row, p_row) in ds.chunks_exact_mut(t).zip(p.chunks_exact(t)) {
        let mut sum = 0.0f32;
        for (dp, p) in ds_row.iter().zip(p_row) {
            sum += dp * p;
        }
        for (dp, p) in ds_row.iter_mut().zip(p_row) {
            *dp = p * (*dp - sum) * scale;
        }
    }
    [
        product(&ds, k, t, t, dk),                    // dQ = dS·K
        product(&transposed(&ds, t, t), q, t, t, dk), // dK = dSᵀ·Q
        product(&transposed(p, t, t), d_o, t, t, dk), // dV = Pᵀ·dO
    ]
}

#[test]
fn attention_backward_matches_the_per_tile_reference() {
    // The forward test's grids (both token-axis placements, a ragged last
    // lane group) plus HIM's own MBA shape and single-token, single-column
    // tiles.
    for (outer, tokens, inner, heads, head_dim) in [
        (70, 5, 1, 3, 8),
        (3, 9, 7, 2, 6),
        (2, 17, 5, 4, 8),
        (256, 9, 1, 4, 8),
        (5, 1, 3, 2, 1),
    ] {
        let grid = AttnGrid {
            outer,
            tokens,
            inner,
            heads,
            head_dim,
        };
        let dims = [grid.rows(), grid.width()];
        let (q, k, v, d_o) = (
            randn(&dims, 30),
            randn(&dims, 31),
            randn(&dims, 32),
            randn(&dims, 33),
        );
        let mut p = vec![f32::NAN; grid.probs_len()];
        linalg::attention_probs_into(
            &grid,
            q.clone().as_mut_slice(),
            k.as_slice(),
            v.as_slice(),
            &mut p,
            &mut vec![f32::NAN; grid.scratch_len()],
        );
        // Packed `[dq | dk | dv]`; poisoned outputs: every element must be
        // written.
        let len = grid.rows() * grid.width();
        let mut got = vec![f32::NAN; 3 * len];
        let (dq, rest) = got.split_at_mut(len);
        let (dk, dv) = rest.split_at_mut(len);
        linalg::attention_backward_into(
            &grid,
            q.as_slice(),
            k.as_slice(),
            v.as_slice(),
            &p,
            d_o.as_slice(),
            dq,
            dk,
            dv,
        );

        let width = grid.width();
        for tile in 0..grid.tiles() {
            let (batch, head) = (tile / heads, tile % heads);
            let (o, j) = (batch / inner, batch % inner);
            let at = |t: usize| ((o * tokens + t) * inner + j) * width + head * head_dim;
            let gather = |a: &[f32]| -> Vec<f32> {
                (0..tokens)
                    .flat_map(|t| a[at(t)..at(t) + head_dim].to_vec())
                    .collect()
            };
            let want = tile_backward_reference(
                [&q, &k, &v, &d_o]
                    .map(|a| gather(a.as_slice()))
                    .each_ref()
                    .map(|a| &a[..]),
                &p[tile * tokens * tokens..(tile + 1) * tokens * tokens],
                tokens,
                head_dim,
            );
            for (which, want) in want.iter().enumerate() {
                let got = gather(&got[which * len..(which + 1) * len]);
                assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{grid:?} tile {tile} output {which} (0 = dq, 1 = dk, 2 = dv)"
                );
            }
        }
    }
}
