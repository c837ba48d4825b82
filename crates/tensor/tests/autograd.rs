//! Gradient checks and behavioural tests for the autograd engine.

use hire_tensor::gradcheck::gradcheck;
use hire_tensor::{NdArray, Tensor};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn randn(shape: &[usize], seed: u64) -> NdArray {
    NdArray::randn(shape.to_vec(), 0.0, 1.0, &mut rng(seed))
}

const EPS: f32 = 1e-2;
const TOL: f32 = 2e-2;

#[test]
fn grad_add_broadcast() {
    let a = randn(&[3, 4], 1);
    let b = randn(&[4], 2);
    let r = gradcheck(
        |p| p[0].add(&p[1]).square().sum(),
        &[a.clone(), b.clone()],
        0,
        EPS,
    );
    assert!(r.ok(TOL), "lhs: {r:?}");
    let r = gradcheck(|p| p[0].add(&p[1]).square().sum(), &[a, b], 1, EPS);
    assert!(r.ok(TOL), "rhs: {r:?}");
}

#[test]
fn grad_sub_mul_div() {
    let a = randn(&[2, 3], 3);
    let b = randn(&[2, 3], 4).map(|x| x + 3.0); // keep divisor away from 0
    for target in 0..2 {
        let r = gradcheck(
            |p| p[0].sub(&p[1]).square().sum(),
            &[a.clone(), b.clone()],
            target,
            EPS,
        );
        assert!(r.ok(TOL), "sub[{target}]: {r:?}");
        let r = gradcheck(
            |p| p[0].mul(&p[1]).sum(),
            &[a.clone(), b.clone()],
            target,
            EPS,
        );
        assert!(r.ok(TOL), "mul[{target}]: {r:?}");
        let r = gradcheck(
            |p| p[0].div(&p[1]).sum(),
            &[a.clone(), b.clone()],
            target,
            EPS,
        );
        assert!(r.ok(TOL), "div[{target}]: {r:?}");
    }
}

/// A loss linear in its input, `sum(y ∘ w)` for fixed random `w`: central
/// differences of it carry no truncation error, so a step of 0.5 is exact up
/// to rounding — which keeps the many near-zero entries of a
/// several-hundred-element gradient checkable in f32.
fn weighted_sum(y: &Tensor, seed: u64) -> Tensor {
    y.mul(&Tensor::constant(randn(&y.dims(), seed))).sum()
}

#[test]
fn grad_matmul_2d() {
    let a = randn(&[3, 4], 5);
    let b = randn(&[4, 2], 6);
    for target in 0..2 {
        let r = gradcheck(
            |p| p[0].matmul(&p[1]).square().sum(),
            &[a.clone(), b.clone()],
            target,
            EPS,
        );
        assert!(r.ok(TOL), "matmul[{target}]: {r:?}");
    }
    // 33·24·23 multiply-adds, above linalg's BLOCK_THRESHOLD (16 Ki): the
    // forward and both backward products (`g·Bᵀ`, `Aᵀ·g`) take the packed
    // kernel, ragged in every dimension.
    let a = randn(&[33, 24], 5);
    let b = randn(&[24, 23], 6);
    for target in 0..2 {
        let r = gradcheck(
            |p| weighted_sum(&p[0].matmul(&p[1]), 60),
            &[a.clone(), b.clone()],
            target,
            0.5,
        );
        assert!(r.ok(TOL), "packed matmul[{target}]: {r:?}");
    }
}

#[test]
fn grad_bmm_batched() {
    let a = randn(&[2, 3, 4], 7);
    let b = randn(&[2, 4, 2], 8);
    for target in 0..2 {
        let r = gradcheck(
            |p| p[0].matmul(&p[1]).square().sum(),
            &[a.clone(), b.clone()],
            target,
            EPS,
        );
        assert!(r.ok(TOL), "bmm[{target}]: {r:?}");
    }
}

#[test]
fn grad_linear_shared_weight() {
    let x = randn(&[2, 3, 4], 9);
    let w = randn(&[4, 5], 10);
    for target in 0..2 {
        let r = gradcheck(
            |p| p[0].linear(&p[1]).square().sum(),
            &[x.clone(), w.clone()],
            target,
            EPS,
        );
        assert!(r.ok(TOL), "linear[{target}]: {r:?}");
    }
    // 45 rows × 20 × 21, above BLOCK_THRESHOLD: `dW = Xᵀ·g` and `dX = g·Wᵀ`
    // on the packed path (see `grad_matmul_2d`).
    let x = randn(&[5, 9, 20], 9);
    let w = randn(&[20, 21], 10);
    for target in 0..2 {
        let r = gradcheck(
            |p| weighted_sum(&p[0].linear(&p[1]), 90),
            &[x.clone(), w.clone()],
            target,
            0.5,
        );
        assert!(r.ok(TOL), "packed linear[{target}]: {r:?}");
    }
}

#[test]
fn grad_activations() {
    let x = randn(&[2, 5], 11);
    for (name, f) in [
        (
            "sigmoid",
            (|p: &[Tensor]| p[0].sigmoid().sum()) as fn(&[Tensor]) -> Tensor,
        ),
        ("tanh", |p| p[0].tanh().sum()),
        ("gelu", |p| p[0].gelu().sum()),
        ("exp", |p| p[0].exp().sum()),
        ("square", |p| p[0].square().sum()),
    ] {
        let r = gradcheck(f, std::slice::from_ref(&x), 0, EPS);
        assert!(r.ok(TOL), "{name}: {r:?}");
    }
}

#[test]
fn grad_relu_away_from_kink() {
    // shift inputs away from 0 where ReLU is non-differentiable
    let x = randn(&[2, 5], 12).map(|v| if v.abs() < 0.2 { v + 0.5 } else { v });
    let r = gradcheck(|p| p[0].relu().sum(), std::slice::from_ref(&x), 0, EPS);
    assert!(r.ok(TOL), "relu: {r:?}");
    let r = gradcheck(|p| p[0].leaky_relu(0.1).sum(), &[x], 0, EPS);
    assert!(r.ok(TOL), "leaky_relu: {r:?}");
}

#[test]
fn grad_ln_abs_eps() {
    let x = randn(&[6], 13).map(|v| if v.abs() < 0.3 { v + 0.8 } else { v });
    let r = gradcheck(|p| p[0].ln_abs_eps(1e-4).sum(), &[x], 0, EPS);
    assert!(r.ok(5e-2), "ln_abs_eps: {r:?}");
}

#[test]
fn grad_softmax() {
    let x = randn(&[3, 4], 14);
    let w = randn(&[3, 4], 15);
    let r = gradcheck(
        |p| p[0].softmax_last().mul(&Tensor::constant(w.clone())).sum(),
        &[x],
        0,
        EPS,
    );
    assert!(r.ok(TOL), "softmax: {r:?}");
}

#[test]
fn grad_layer_norm() {
    let x = randn(&[2, 6], 16);
    let gamma = NdArray::ones([6]);
    let beta = NdArray::zeros([6]);
    let w = randn(&[2, 6], 17);
    for target in 0..3 {
        let r = gradcheck(
            |p| {
                p[0].layer_norm_last(&p[1], &p[2], 1e-5)
                    .mul(&Tensor::constant(w.clone()))
                    .sum()
            },
            &[x.clone(), gamma.clone(), beta.clone()],
            target,
            EPS,
        );
        assert!(r.ok(5e-2), "layer_norm[{target}]: {r:?}");
    }
}

#[test]
fn grad_reshape_permute_concat_slice() {
    let x = randn(&[2, 3, 4], 18);
    let r = gradcheck(
        |p| p[0].reshape([6, 4]).square().sum(),
        std::slice::from_ref(&x),
        0,
        EPS,
    );
    assert!(r.ok(TOL), "reshape: {r:?}");
    let r = gradcheck(
        |p| p[0].permute(&[2, 0, 1]).square().sum(),
        std::slice::from_ref(&x),
        0,
        EPS,
    );
    assert!(r.ok(TOL), "permute: {r:?}");
    let r = gradcheck(
        |p| p[0].slice_last(1, 2).square().sum(),
        std::slice::from_ref(&x),
        0,
        EPS,
    );
    assert!(r.ok(TOL), "slice: {r:?}");

    let y = randn(&[2, 3, 2], 19);
    for target in 0..2 {
        let r = gradcheck(
            |p| {
                Tensor::concat_last(&[p[0].clone(), p[1].clone()])
                    .square()
                    .sum()
            },
            &[x.clone(), y.clone()],
            target,
            EPS,
        );
        assert!(r.ok(TOL), "concat[{target}]: {r:?}");
    }
}

#[test]
fn grad_reductions() {
    let x = randn(&[3, 4], 20);
    let r = gradcheck(|p| p[0].mean(), std::slice::from_ref(&x), 0, EPS);
    assert!(r.ok(TOL), "mean: {r:?}");
    let r = gradcheck(
        |p| p[0].sum_last().square().sum(),
        std::slice::from_ref(&x),
        0,
        EPS,
    );
    assert!(r.ok(TOL), "sum_last: {r:?}");
    let r = gradcheck(|p| p[0].mean_last().square().sum(), &[x], 0, EPS);
    assert!(r.ok(TOL), "mean_last: {r:?}");
}

#[test]
fn grad_gather_rows() {
    let table = randn(&[5, 3], 21);
    let r = gradcheck(
        |p| p[0].gather_rows(&[0, 2, 2, 4]).square().sum(),
        &[table],
        0,
        EPS,
    );
    assert!(r.ok(TOL), "gather: {r:?}");
}

#[test]
fn grad_mse_masked() {
    let x = randn(&[3, 3], 22);
    let target = randn(&[3, 3], 23);
    let mut mask = NdArray::zeros([3, 3]);
    mask.as_mut_slice()[0] = 1.0;
    mask.as_mut_slice()[4] = 1.0;
    mask.as_mut_slice()[7] = 1.0;
    let r = gradcheck(|p| p[0].mse_masked(&target, &mask), &[x], 0, EPS);
    assert!(r.ok(TOL), "mse_masked: {r:?}");
}

#[test]
fn grad_accumulates_over_shared_use() {
    // y = x*x + x  => dy/dx = 2x + 1, exercised through two graph paths
    let x = Tensor::parameter(NdArray::from_vec([2], vec![3.0, -1.0]));
    let y = x.mul(&x).add(&x).sum();
    y.backward();
    let g = x.grad().unwrap();
    assert!(g.allclose(&NdArray::from_vec([2], vec![7.0, -1.0]), 1e-5));
}

#[test]
fn constants_get_no_grad() {
    let x = Tensor::parameter(NdArray::from_vec([2], vec![1.0, 2.0]));
    let c = Tensor::constant(NdArray::from_vec([2], vec![3.0, 4.0]));
    let y = x.mul(&c).sum();
    y.backward();
    assert!(c.grad().is_none());
    assert_eq!(x.grad().unwrap().as_slice(), &[3.0, 4.0]);
}

#[test]
fn detach_blocks_gradient() {
    let x = Tensor::parameter(NdArray::from_vec([2], vec![1.0, 2.0]));
    let d = x.mul_scalar(2.0).detach();
    let y = d.mul(&x).sum();
    y.backward();
    // grad flows only through the second factor: dy/dx = detached value
    assert_eq!(x.grad().unwrap().as_slice(), &[2.0, 4.0]);
}

#[test]
fn zero_grad_resets_accumulation() {
    let x = Tensor::parameter(NdArray::from_vec([1], vec![2.0]));
    let y = x.square().sum();
    y.backward();
    assert_eq!(x.grad().unwrap().as_slice(), &[4.0]);
    x.zero_grad();
    assert!(x.grad().is_none());
    let y2 = x.square().sum();
    y2.backward();
    assert_eq!(x.grad().unwrap().as_slice(), &[4.0]);
}

#[test]
fn diamond_graph_topological_order() {
    // z = (a+b) * (a-b); dz/da = 2a, dz/db = -2b
    let a = Tensor::parameter(NdArray::from_vec([1], vec![3.0]));
    let b = Tensor::parameter(NdArray::from_vec([1], vec![2.0]));
    let z = a.add(&b).mul(&a.sub(&b)).sum();
    z.backward();
    assert!((a.grad().unwrap().item() - 6.0).abs() < 1e-5);
    assert!((b.grad().unwrap().item() + 4.0).abs() < 1e-5);
}

#[test]
fn deep_chain_does_not_overflow_stack() {
    // 3000 chained adds exercise the iterative DFS
    let x = Tensor::parameter(NdArray::from_vec([1], vec![1.0]));
    let mut y = x.clone();
    for _ in 0..3000 {
        y = y.add_scalar(1.0);
    }
    let loss = y.sum();
    loss.backward();
    assert_eq!(x.grad().unwrap().item(), 1.0);
}

#[test]
fn backward_with_custom_seed() {
    let x = Tensor::parameter(NdArray::from_vec([2], vec![1.0, 1.0]));
    let y = x.mul_scalar(3.0);
    y.backward_with(NdArray::from_vec([2], vec![1.0, 2.0]));
    assert_eq!(x.grad().unwrap().as_slice(), &[3.0, 6.0]);
}
