//! First-order optimizers: SGD, Adam, LAMB, and the Lookahead wrapper —
//! the exact training stack described in the paper's implementation details
//! (LAMB with β=(0.9, 0.999), ε=1e-6, wrapped in Lookahead with α=0.5, k=6).

use hire_error::{HireError, HireResult};
use hire_tensor::{NdArray, Scratch, Tensor};

/// Validates that a checkpointed state vector lines up with the optimizer's
/// parameter list: same slot count, and every present entry shape-matches
/// its parameter. Used by the `import_*` restore paths so a stale or
/// mismatched snapshot surfaces as an error instead of a silent mis-update.
fn check_state_alignment(
    what: &str,
    params: &[Tensor],
    state: &[Option<NdArray>],
) -> HireResult<()> {
    if state.len() != params.len() {
        return Err(HireError::invalid_data(
            what,
            format!(
                "state has {} slots but optimizer has {} parameters",
                state.len(),
                params.len()
            ),
        ));
    }
    for (i, (p, s)) in params.iter().zip(state).enumerate() {
        if let Some(s) = s {
            let expect = p.value();
            if s.dims() != expect.dims() {
                return Err(HireError::invalid_data(
                    what,
                    format!(
                        "slot {i} shape {:?} does not match parameter shape {:?}",
                        s.dims(),
                        expect.dims()
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// A gradient-descent style optimizer over a fixed parameter list.
pub trait Optimizer {
    /// Applies one update using the gradients currently stored on the
    /// parameters. Parameters without a gradient are skipped.
    fn step(&mut self, lr: f32);

    /// The parameters this optimizer updates.
    fn params(&self) -> &[Tensor];

    /// Clears gradients on all parameters.
    fn zero_grad(&self) {
        for p in self.params() {
            p.zero_grad();
        }
    }
}

// ----------------------------------------------------------------------
// SGD
// ----------------------------------------------------------------------

/// Stochastic gradient descent with optional classical momentum.
pub struct Sgd {
    params: Vec<Tensor>,
    momentum: f32,
    velocity: Vec<Option<NdArray>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(params: Vec<Tensor>) -> Self {
        Self::with_momentum(params, 0.0)
    }

    /// SGD with momentum `mu ∈ [0, 1)`.
    pub fn with_momentum(params: Vec<Tensor>, momentum: f32) -> Self {
        assert!((0.0..1.0).contains(&momentum));
        let n = params.len();
        Sgd {
            params,
            momentum,
            velocity: vec![None; n],
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, lr: f32) {
        for (i, p) in self.params.iter().enumerate() {
            let Some(g) = p.grad() else { continue };
            let update = if self.momentum > 0.0 {
                let v = self.velocity[i].get_or_insert_with(|| NdArray::zeros(g.shape().clone()));
                v.scale_inplace(self.momentum);
                v.add_assign(&g);
                v.clone()
            } else {
                g
            };
            p.update_value(|v| {
                for (vi, ui) in v.as_mut_slice().iter_mut().zip(update.as_slice()) {
                    *vi -= lr * ui;
                }
            });
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }
}

// ----------------------------------------------------------------------
// Adam
// ----------------------------------------------------------------------

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW-style).
pub struct Adam {
    params: Vec<Tensor>,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    m: Vec<Option<NdArray>>,
    v: Vec<Option<NdArray>>,
    t: u32,
}

impl Adam {
    /// Adam with β=(0.9, 0.999), ε=1e-8, no weight decay.
    pub fn new(params: Vec<Tensor>) -> Self {
        Self::with_config(params, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Fully configured Adam.
    pub fn with_config(
        params: Vec<Tensor>,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    ) -> Self {
        let n = params.len();
        Adam {
            params,
            beta1,
            beta2,
            eps,
            weight_decay,
            m: vec![None; n],
            v: vec![None; n],
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, lr: f32) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let Some(g) = p.grad() else { continue };
            let m = self.m[i].get_or_insert_with(|| NdArray::zeros(g.shape().clone()));
            let v = self.v[i].get_or_insert_with(|| NdArray::zeros(g.shape().clone()));
            for ((mi, vi), &gi) in m
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice())
                .zip(g.as_slice())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let (beta_eps, wd) = (self.eps, self.weight_decay);
            let (m_ref, v_ref) = (&*m, &*v);
            p.update_value(|val| {
                for ((x, &mi), &vi) in val
                    .as_mut_slice()
                    .iter_mut()
                    .zip(m_ref.as_slice())
                    .zip(v_ref.as_slice())
                {
                    let m_hat = mi / bc1;
                    let v_hat = vi / bc2;
                    let mut upd = m_hat / (v_hat.sqrt() + beta_eps);
                    if wd > 0.0 {
                        upd += wd * *x;
                    }
                    *x -= lr * upd;
                }
            });
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }
}

// ----------------------------------------------------------------------
// LAMB
// ----------------------------------------------------------------------

/// LAMB (You et al., "Large Batch Optimization for Deep Learning"):
/// Adam-style moments with a per-parameter-tensor trust ratio
/// `‖w‖ / ‖update‖` rescaling the step.
pub struct Lamb {
    params: Vec<Tensor>,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    m: Vec<Option<NdArray>>,
    v: Vec<Option<NdArray>>,
    t: u32,
}

impl Lamb {
    /// The paper's configuration: β=(0.9, 0.999), ε=1e-6.
    pub fn paper_default(params: Vec<Tensor>) -> Self {
        Self::with_config(params, 0.9, 0.999, 1e-6, 0.0)
    }

    /// Fully configured LAMB.
    pub(crate) fn with_config(
        params: Vec<Tensor>,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    ) -> Self {
        let n = params.len();
        Lamb {
            params,
            beta1,
            beta2,
            eps,
            weight_decay,
            m: vec![None; n],
            v: vec![None; n],
            t: 0,
        }
    }

    /// Copies out the moment state `(m, v, t)` for checkpointing. Slots that
    /// have never seen a gradient are `None`.
    pub fn export_moments(&self) -> (Vec<Option<NdArray>>, Vec<Option<NdArray>>, u32) {
        (self.m.clone(), self.v.clone(), self.t)
    }

    /// Restores moment state captured by [`Lamb::export_moments`]. Fails if
    /// the slot count or any moment shape does not match the current
    /// parameter list (e.g. resuming a snapshot from a different model).
    pub fn import_moments(
        &mut self,
        m: Vec<Option<NdArray>>,
        v: Vec<Option<NdArray>>,
        t: u32,
    ) -> HireResult<()> {
        check_state_alignment("lamb first moment", &self.params, &m)?;
        check_state_alignment("lamb second moment", &self.params, &v)?;
        self.m = m;
        self.v = v;
        self.t = t;
        Ok(())
    }
}

/// `NdArray::norm_l2` over a slice: the squares summed in `f64`, in order.
fn norm_l2(xs: &[f32]) -> f32 {
    (xs.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>()).sqrt() as f32
}

impl Optimizer for Lamb {
    fn step(&mut self, lr: f32) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, eps, weight_decay) =
            (self.beta1, self.beta2, self.eps, self.weight_decay);
        for ((p, m), v) in self.params.iter().zip(&mut self.m).zip(&mut self.v) {
            // The step reads the gradient and the weights in place; its
            // update lives in reused memory.
            let update = p.with_grad(|g| {
                let g = g?;
                let m = m.get_or_insert_with(|| NdArray::zeros(g.shape().clone()));
                let v = v.get_or_insert_with(|| NdArray::zeros(g.shape().clone()));
                for ((mi, vi), &gi) in m
                    .as_mut_slice()
                    .iter_mut()
                    .zip(v.as_mut_slice())
                    .zip(g.as_slice())
                {
                    *mi = beta1 * *mi + (1.0 - beta1) * gi;
                    *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                }
                // r = m_hat / (sqrt(v_hat) + eps) (+ wd * w)
                let value = p.borrow_value();
                let mut update = Scratch::take(g.numel());
                for (((ui, &mi), &vi), &wi) in update
                    .iter_mut()
                    .zip(m.as_slice())
                    .zip(v.as_slice())
                    .zip(value.as_slice())
                {
                    let m_hat = mi / bc1;
                    let v_hat = vi / bc2;
                    *ui = m_hat / (v_hat.sqrt() + eps) + weight_decay * wi;
                }
                // Non-finite guard: a poisoned moment entry must not leak
                // into the weights — zero it so that coordinate skips this
                // step.
                for ui in update.iter_mut() {
                    if !ui.is_finite() {
                        *ui = 0.0;
                    }
                }
                let w_norm = value.norm_l2();
                let u_norm = norm_l2(&update);
                let mut trust = if w_norm > 0.0 && u_norm > 0.0 {
                    w_norm / u_norm
                } else {
                    1.0
                };
                // A degenerate ratio (u_norm ~ 0 with huge w_norm, or
                // overflow) would scale the step to Inf/NaN; fall back to
                // the neutral 1.0.
                if !trust.is_finite() {
                    trust = 1.0;
                }
                Some((update, trust))
            });
            let Some((update, trust)) = update else {
                continue;
            };
            p.update_value(|val| {
                for (x, &ui) in val.as_mut_slice().iter_mut().zip(update.iter()) {
                    *x -= lr * trust * ui;
                }
            });
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }
}

// ----------------------------------------------------------------------
// Lookahead
// ----------------------------------------------------------------------

/// Lookahead (Zhang et al.): maintains slow weights; every `k` inner steps
/// moves them `alpha` of the way toward the fast weights and resets the fast
/// weights to the slow weights.
pub struct Lookahead<O: Optimizer> {
    inner: O,
    alpha: f32,
    k: u32,
    step_count: u32,
    slow: Vec<NdArray>,
}

impl<O: Optimizer> Lookahead<O> {
    /// The paper's configuration: α=0.5, k=6.
    pub fn paper_default(inner: O) -> Self {
        Self::new(inner, 0.5, 6)
    }

    /// Fully configured Lookahead.
    pub fn new(inner: O, alpha: f32, k: u32) -> Self {
        assert!(k >= 1, "lookahead k must be >= 1");
        assert!((0.0..=1.0).contains(&alpha));
        let slow = inner.params().iter().map(|p| p.value()).collect();
        Lookahead {
            inner,
            alpha,
            k,
            step_count: 0,
            slow,
        }
    }

    /// Access to the wrapped optimizer.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Mutable access to the wrapped optimizer (used to restore its state
    /// when resuming from a checkpoint).
    pub fn inner_mut(&mut self) -> &mut O {
        &mut self.inner
    }

    /// Copies out the slow weights and inner-step counter for checkpointing.
    pub fn export_slow(&self) -> (Vec<NdArray>, u32) {
        (self.slow.clone(), self.step_count)
    }

    /// Restores slow-weight state captured by [`Lookahead::export_slow`].
    /// Fails if the slot count or any slow-weight shape does not match the
    /// current parameter list.
    pub fn import_slow(&mut self, slow: Vec<NdArray>, step_count: u32) -> HireResult<()> {
        let wrapped: Vec<Option<NdArray>> = slow.into_iter().map(Some).collect();
        check_state_alignment("lookahead slow weights", self.inner.params(), &wrapped)?;
        self.slow = wrapped.into_iter().map(|s| s.expect("all Some")).collect();
        self.step_count = step_count;
        Ok(())
    }
}

impl<O: Optimizer> Optimizer for Lookahead<O> {
    fn step(&mut self, lr: f32) {
        self.inner.step(lr);
        self.step_count += 1;
        if self.step_count.is_multiple_of(self.k) {
            for (p, slow) in self.inner.params().iter().zip(&mut self.slow) {
                p.update_value(|fast| {
                    // Non-finite guard: never pull the slow weights toward a
                    // diverged fast iterate — reset the fast weights from
                    // the last good slow copy instead.
                    if !fast.has_non_finite() {
                        for (s, &f) in slow.as_mut_slice().iter_mut().zip(fast.as_slice()) {
                            *s += self.alpha * (f - *s);
                        }
                    }
                    assert_eq!(fast.shape(), slow.shape(), "slow weights reshaped");
                    fast.as_mut_slice().copy_from_slice(slow.as_slice());
                });
            }
        }
    }

    fn params(&self) -> &[Tensor] {
        self.inner.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_params() -> Vec<Tensor> {
        vec![
            Tensor::parameter(NdArray::from_vec([2], vec![1.0, 2.0])),
            Tensor::parameter(NdArray::from_vec([3], vec![3.0, 4.0, 5.0])),
        ]
    }

    fn step_once(opt: &mut impl Optimizer) {
        for p in opt.params().to_vec() {
            let loss = p.clone().sum();
            loss.backward();
        }
        opt.step(0.1);
        opt.zero_grad();
    }

    #[test]
    fn lamb_moments_round_trip_through_export_import() {
        let params = two_params();
        let mut a = Lamb::paper_default(params.clone());
        step_once(&mut a);
        let (m, v, t) = a.export_moments();
        assert_eq!(t, 1);
        assert!(m.iter().all(|s| s.is_some()));

        let mut b = Lamb::paper_default(params);
        b.import_moments(m.clone(), v.clone(), t).unwrap();
        let (m2, v2, t2) = b.export_moments();
        assert_eq!((m2, v2, t2), (m, v, t));
    }

    #[test]
    fn lamb_import_rejects_misaligned_state() {
        let mut opt = Lamb::paper_default(two_params());
        // Wrong slot count.
        assert!(opt.import_moments(vec![None], vec![None], 1).is_err());
        // Wrong shape in a populated slot.
        let bad = vec![Some(NdArray::from_vec([4], vec![0.0; 4])), None];
        assert!(opt.import_moments(bad, vec![None, None], 1).is_err());
    }

    #[test]
    fn lookahead_slow_state_round_trips_and_validates() {
        let params = two_params();
        let mut opt = Lookahead::paper_default(Lamb::paper_default(params.clone()));
        step_once(&mut opt);
        let (slow, count) = opt.export_slow();
        assert_eq!(count, 1);

        let mut fresh = Lookahead::paper_default(Lamb::paper_default(params));
        fresh.import_slow(slow.clone(), count).unwrap();
        let (slow2, count2) = fresh.export_slow();
        assert_eq!((slow2, count2), (slow.clone(), count));

        // Misaligned slow weights are rejected.
        assert!(fresh.import_slow(vec![slow[0].clone()], 1).is_err());
    }
}
