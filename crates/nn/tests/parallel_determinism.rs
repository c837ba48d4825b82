//! Thread-count invariance of MHSA: a forward and backward pass through
//! the attention layer must produce identical bits under any pool size.
//! The layer itself holds no thread-aware code — the guarantee is
//! inherited from the linalg kernels its one node runs (packed matmuls and
//! the attention tiles, forward and backward) — so this test pins the
//! composition, not any one kernel.

use hire_nn::{Module, MultiHeadSelfAttention};
use hire_par::{with_pool, ThreadPool};
use hire_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// One forward+backward over `layout = [outer, tokens, inner]`; returns
/// (output bits, grad bits of the input and of every parameter).
fn run_once(
    model_dim: usize,
    heads: usize,
    head_dim: usize,
    layout: [usize; 3],
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let [outer, tokens, inner] = layout;
    let mut rng = StdRng::seed_from_u64(model_dim as u64 ^ (tokens as u64) << 8);
    let mhsa = MultiHeadSelfAttention::new(model_dim, heads, head_dim, &mut rng);
    let x = Tensor::parameter(NdArray::randn(
        [outer, tokens, inner, model_dim],
        0.0,
        1.0,
        &mut rng,
    ));
    let out = mhsa.forward_layout(&x, layout).output;
    let out_bits = out.value().as_slice().iter().map(|v| v.to_bits()).collect();
    out.square().sum().backward();
    let grad_bits = std::iter::once(&x)
        .chain(&mhsa.parameters())
        .map(|p| {
            p.grad()
                .unwrap_or_else(|| NdArray::zeros(p.shape()))
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    (out_bits, grad_bits)
}

#[test]
fn mhsa_forward_backward_is_thread_invariant() {
    // Dims span tiny odd shapes and a row count past the kernels' row
    // block so the parallel path genuinely splits work; then HIM's strided
    // views — MBU-like `[1, n, m]` and a doubly batched one — and MBA's own
    // `[256, 9, 1]`, whose 1 024 tiles span several chunks.
    for (model_dim, heads, head_dim, layout) in [
        (8, 2, 4, [1, 5, 1]),
        (12, 3, 5, [1, 40, 1]),
        (16, 4, 8, [1, 33, 1]),
        (12, 3, 5, [1, 16, 16]),
        (8, 2, 4, [3, 7, 5]),
        (8, 4, 8, [256, 9, 1]),
    ] {
        let reference = with_pool(&Arc::new(ThreadPool::new(1)), || {
            run_once(model_dim, heads, head_dim, layout)
        });
        for threads in [2, 4, 7] {
            let got = with_pool(&Arc::new(ThreadPool::new(threads)), || {
                run_once(model_dim, heads, head_dim, layout)
            });
            assert_eq!(
                got.0, reference.0,
                "mhsa d={model_dim} h={heads} {layout:?}: output bits differ at {threads} threads"
            );
            assert_eq!(
                got.1, reference.1,
                "mhsa d={model_dim} h={heads} {layout:?}: grad bits differ at {threads} threads"
            );
        }
    }
}
