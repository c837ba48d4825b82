//! Behavioural tests: every optimizer must minimize simple objectives.

use hire_nn::{Activation, Mlp, Module};
use hire_optim::{
    clip_grad_norm, Adam, ConstantLr, FlatThenAnneal, Lamb, Lookahead, LrSchedule, Optimizer, Sgd,
};
use hire_tensor::{NdArray, Tensor};
use rand::SeedableRng;

/// Minimizes f(w) = ||w - c||^2 and returns the final distance to c.
fn run_quadratic(mut opt: impl Optimizer, lr: f32, steps: usize) -> f32 {
    let c = NdArray::from_vec([3], vec![1.0, -2.0, 0.5]);
    let w = opt.params()[0].clone();
    for _ in 0..steps {
        opt.zero_grad();
        let diff = w.sub(&Tensor::constant(c.clone()));
        diff.square().sum().backward();
        opt.step(lr);
    }
    w.value().max_abs_diff(&c)
}

fn fresh_param() -> Tensor {
    Tensor::parameter(NdArray::from_vec([3], vec![5.0, 5.0, 5.0]))
}

#[test]
fn sgd_minimizes_quadratic() {
    let p = fresh_param();
    let err = run_quadratic(Sgd::new(vec![p]), 0.1, 100);
    assert!(err < 1e-3, "sgd err={err}");
}

#[test]
fn sgd_momentum_minimizes_quadratic() {
    let p = fresh_param();
    let err = run_quadratic(Sgd::with_momentum(vec![p], 0.9), 0.02, 150);
    assert!(err < 1e-2, "sgd+momentum err={err}");
}

#[test]
fn adam_minimizes_quadratic() {
    let p = fresh_param();
    let err = run_quadratic(Adam::new(vec![p]), 0.2, 200);
    assert!(err < 1e-2, "adam err={err}");
}

#[test]
fn lamb_minimizes_quadratic() {
    let p = fresh_param();
    let err = run_quadratic(Lamb::paper_default(vec![p]), 0.05, 300);
    assert!(err < 0.05, "lamb err={err}");
}

#[test]
fn lookahead_lamb_minimizes_quadratic() {
    // LAMB's trust-ratio updates are magnitude-normalized and do not decay
    // near the optimum, so (as in the paper) it needs an annealed LR.
    let c = NdArray::from_vec([3], vec![1.0, -2.0, 0.5]);
    let w = fresh_param();
    let mut opt = Lookahead::paper_default(Lamb::paper_default(vec![w.clone()]));
    let steps = 400;
    let sched = FlatThenAnneal {
        base_lr: 0.05,
        total_steps: steps,
        flat_frac: 0.5,
    };
    for s in 0..steps {
        opt.zero_grad();
        w.sub(&Tensor::constant(c.clone()))
            .square()
            .sum()
            .backward();
        opt.step(sched.lr(s));
    }
    let err = w.value().max_abs_diff(&c);
    assert!(err < 0.05, "lookahead(lamb) err={err}");
}

#[test]
fn lookahead_interpolates_slow_weights() {
    // One inner step with k=1 and alpha=0.5 must land halfway between the
    // initial (slow) weights and the post-step fast weights.
    let w = Tensor::parameter(NdArray::from_vec([1], vec![1.0]));
    let mut opt = Lookahead::new(Sgd::new(vec![w.clone()]), 0.5, 1);
    w.zero_grad();
    w.mul_scalar(2.0).sum().backward(); // grad = 2
    opt.step(0.1); // fast: 1.0 - 0.2 = 0.8; slow: 1.0 + 0.5*(0.8-1.0) = 0.9
    assert!((w.value().item() - 0.9).abs() < 1e-6);
}

#[test]
fn skips_params_without_grad() {
    let used = Tensor::parameter(NdArray::from_vec([1], vec![1.0]));
    let unused = Tensor::parameter(NdArray::from_vec([1], vec![7.0]));
    let mut opt = Adam::new(vec![used.clone(), unused.clone()]);
    used.square().sum().backward();
    opt.step(0.1);
    assert_eq!(unused.value().item(), 7.0);
    assert!(used.value().item() < 1.0);
}

#[test]
fn weight_decay_shrinks_weights() {
    let w = Tensor::parameter(NdArray::from_vec([1], vec![10.0]));
    let mut opt = Adam::with_config(vec![w.clone()], 0.9, 0.999, 1e-8, 0.1);
    for _ in 0..50 {
        opt.zero_grad();
        // zero data gradient; decay alone must shrink w
        w.mul_scalar(0.0).sum().backward();
        opt.step(0.1);
    }
    assert!(w.value().item() < 10.0);
}

#[test]
fn training_mlp_with_lamb_lookahead_converges() {
    // The paper's full optimizer stack on a small regression problem.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mlp = Mlp::new(&[4, 16, 1], Activation::Gelu, &mut rng);
    let x = NdArray::randn([32, 4], 0.0, 1.0, &mut rng);
    // target: sum of inputs
    let y = {
        let t = x
            .as_slice()
            .chunks_exact(4)
            .map(|row| row.iter().sum())
            .collect();
        NdArray::from_vec([32, 1], t)
    };
    let total_steps = 400;
    let sched = FlatThenAnneal {
        base_lr: 5e-2,
        total_steps,
        flat_frac: 0.7,
    };
    let mut opt = Lookahead::paper_default(Lamb::paper_default(mlp.parameters()));
    let mut final_loss = f32::INFINITY;
    for step in 0..total_steps {
        opt.zero_grad();
        let pred = mlp.forward(&Tensor::constant(x.clone()));
        let loss = hire_nn::mse_loss(&pred, &y);
        final_loss = loss.item();
        loss.backward();
        clip_grad_norm(&mlp.parameters(), 1.0);
        opt.step(sched.lr(step));
    }
    assert!(
        final_loss < 0.1,
        "regression did not converge: {final_loss}"
    );
}

#[test]
fn lamb_survives_injected_nan_gradient() {
    // A NaN gradient entry must not reach the weights: the poisoned moment
    // coordinate is zeroed inside the LAMB step, the rest keep optimizing.
    let w = Tensor::parameter(NdArray::from_vec([2], vec![1.0, 1.0]));
    let mut opt = Lamb::paper_default(vec![w.clone()]);
    w.square().sum().backward();
    w.update_grad(|g| g.as_mut_slice()[0] = f32::NAN);
    opt.step(0.1);
    let v = w.value();
    assert!(
        v.as_slice().iter().all(|x| x.is_finite()),
        "weights poisoned: {:?}",
        v.as_slice()
    );
    // the healthy coordinate took a descent step
    assert!(v.as_slice()[1] < 1.0);
}

#[test]
fn lookahead_resets_diverged_fast_weights_from_slow() {
    // If the fast weights go non-finite before a sync point, the slow weights
    // must stay clean and the fast weights must be restored from them.
    let w = Tensor::parameter(NdArray::from_vec([1], vec![1.0]));
    let mut opt = Lookahead::new(Sgd::new(vec![w.clone()]), 0.5, 1);
    w.zero_grad();
    w.mul_scalar(2.0).sum().backward();
    w.set_value(NdArray::from_vec([1], vec![f32::INFINITY]));
    opt.step(0.0); // lr 0: SGD leaves the Inf in place; sync must catch it
    assert_eq!(w.value().item(), 1.0, "fast weights not restored from slow");
}

#[test]
fn schedules_are_consistent() {
    let s = ConstantLr(0.3);
    assert_eq!(s.lr(0), s.lr(1000));
    let f = FlatThenAnneal::paper_default(10);
    assert!(f.lr(0) >= f.lr(9));
}
