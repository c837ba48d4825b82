//! Finite-difference gradient checking for autograd ops.

use crate::autograd::Tensor;
use crate::ndarray::NdArray;

/// Result of a gradient check for a single input tensor.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest relative difference (normalized by max(|a|, |n|, 1e-3)).
    pub max_rel_err: f32,
}

impl GradCheckReport {
    /// Whether the check passes at the given relative tolerance.
    pub fn ok(&self, rel_tol: f32) -> bool {
        self.max_rel_err <= rel_tol
    }
}

/// Checks the gradient of `f` (a scalar-valued function of `inputs[target]`)
/// against central finite differences.
///
/// `f` is re-invoked with perturbed copies of the inputs, so it must be a
/// pure function of the provided tensors.
pub fn gradcheck(
    f: impl Fn(&[Tensor]) -> Tensor,
    inputs: &[NdArray],
    target: usize,
    eps: f32,
) -> GradCheckReport {
    // Analytic gradient.
    let params: Vec<Tensor> = inputs
        .iter()
        .map(|v| Tensor::parameter(v.clone()))
        .collect();
    let out = f(&params);
    assert_eq!(out.shape().numel(), 1, "gradcheck requires a scalar output");
    out.backward();
    let analytic = params[target]
        .grad()
        .unwrap_or_else(|| NdArray::zeros(inputs[target].shape().clone()));

    // Numeric gradient via central differences.
    let mut numeric = NdArray::zeros(inputs[target].shape().clone());
    for i in 0..inputs[target].numel() {
        let eval = |delta: f32| -> f32 {
            let mut perturbed: Vec<NdArray> = inputs.to_vec();
            perturbed[target].as_mut_slice()[i] += delta;
            let params: Vec<Tensor> = perturbed.into_iter().map(Tensor::parameter).collect();
            f(&params).item()
        };
        let plus = eval(eps);
        let minus = eval(-eps);
        numeric.as_mut_slice()[i] = (plus - minus) / (2.0 * eps);
    }

    let mut max_rel = 0.0f32;
    for (&a, &n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
        let rel = (a - n).abs() / a.abs().max(n.abs()).max(1e-3);
        max_rel = max_rel.max(rel);
    }
    GradCheckReport {
        max_rel_err: max_rel,
    }
}
