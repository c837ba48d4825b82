//! Finite-difference gradient checks through whole layers (not just single
//! ops): Linear, MLP, LayerNorm module and MHSA.

use hire_nn::{Activation, LayerNorm, Linear, Mlp, Module, MultiHeadSelfAttention};
use hire_tensor::gradcheck::gradcheck;
use hire_tensor::{NdArray, Tensor};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Checks d(loss)/d(param) for every parameter of a module against central
/// differences, where `forward` rebuilds the loss from scratch.
fn check_module_grads(params: &[Tensor], forward: impl Fn() -> Tensor, tol: f32) {
    let loss = forward();
    loss.backward();
    let analytic: Vec<NdArray> = params
        .iter()
        .map(|p| p.grad().unwrap_or_else(|| NdArray::zeros(p.shape())))
        .collect();
    for (pi, p) in params.iter().enumerate() {
        let value = p.value();
        let mut max_rel = 0.0f32;
        for i in 0..value.numel() {
            let eps = 1e-2;
            let eval = |delta: f32| {
                let mut v = value.clone();
                v.as_mut_slice()[i] += delta;
                p.set_value(v);
                let out = forward().item();
                p.set_value(value.clone());
                out
            };
            let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
            let a = analytic[pi].as_slice()[i];
            let rel = (a - numeric).abs() / a.abs().max(numeric.abs()).max(1e-2);
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < tol, "param {pi}: max rel err {max_rel}");
    }
}

#[test]
fn linear_layer_param_grads() {
    let mut r = rng(0);
    let layer = Linear::new(3, 2, &mut r);
    let x = NdArray::randn([4, 3], 0.0, 1.0, &mut r);
    check_module_grads(
        &layer.parameters(),
        || {
            layer.parameters().iter().for_each(|p| p.zero_grad());
            layer.forward(&Tensor::constant(x.clone())).square().sum()
        },
        3e-2,
    );
}

#[test]
fn mlp_param_grads() {
    let mut r = rng(1);
    let mlp = Mlp::new(&[3, 4, 1], Activation::Tanh, &mut r);
    let x = NdArray::randn([3, 3], 0.0, 1.0, &mut r);
    check_module_grads(
        &mlp.parameters(),
        || {
            mlp.parameters().iter().for_each(|p| p.zero_grad());
            mlp.forward(&Tensor::constant(x.clone())).square().sum()
        },
        5e-2,
    );
}

#[test]
fn layer_norm_param_grads() {
    let mut r = rng(2);
    let ln = LayerNorm::new(4);
    let x = NdArray::randn([3, 4], 0.0, 1.0, &mut r);
    let w = NdArray::randn([3, 4], 0.0, 1.0, &mut r);
    check_module_grads(
        &ln.parameters(),
        || {
            ln.parameters().iter().for_each(|p| p.zero_grad());
            ln.forward(&Tensor::constant(x.clone()))
                .mul(&Tensor::constant(w.clone()))
                .sum()
        },
        5e-2,
    );
}

/// HIM's three views of one activation, at gradcheck size, as `(layout,
/// shape of x)`: MBU `[1, n, m]` over `[n, m, d]` (tokens strided: `inner >
/// 1`), MBI `[n, m, 1]` over the same, MBA `[cells, h, 1]` over `[cells,
/// h·d]` (tokens inside each row of `x`).
const HIM_VIEWS: [([usize; 3], &[usize]); 3] = [
    ([1, 3, 2], &[3, 2, 4]),
    ([3, 2, 1], &[3, 2, 4]),
    ([2, 3, 1], &[2, 12]),
];

#[test]
fn mhsa_param_grads() {
    for (layout, shape) in HIM_VIEWS {
        let mut r = rng(3);
        let mhsa = MultiHeadSelfAttention::new(4, 2, 2, &mut r);
        let x = NdArray::randn(shape, 0.0, 0.5, &mut r);
        check_module_grads(
            &mhsa.parameters(),
            || {
                mhsa.parameters().iter().for_each(|p| p.zero_grad());
                let x = Tensor::constant(x.clone());
                mhsa.forward_layout(&x, layout).output.square().sum()
            },
            8e-2,
        );
    }
}

#[test]
fn mhsa_input_grads_via_gradcheck() {
    // gradient w.r.t. the input tokens (x as parameter)
    for (layout, shape) in HIM_VIEWS {
        let mut r = rng(4);
        let mhsa = MultiHeadSelfAttention::new(4, 2, 2, &mut r);
        let x = NdArray::randn(shape, 0.0, 0.5, &mut r);
        let report = gradcheck(
            |p| mhsa.forward_layout(&p[0], layout).output.square().sum(),
            &[x],
            0,
            1e-2,
        );
        assert!(report.ok(8e-2), "{layout:?}: {report:?}");
    }
}
