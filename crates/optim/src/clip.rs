//! Global-norm gradient clipping with non-finite sanitization.

use hire_tensor::{linalg, Tensor};

/// What [`clip_grad_norm`] did to the gradients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradClipStats {
    /// Joint L2 norm across all gradients *after* sanitization but *before*
    /// clipping. Always finite.
    pub pre_clip_norm: f32,
    /// Number of gradient entries that were NaN/Inf and got zeroed.
    pub nonfinite_entries: usize,
    /// Whether the norm exceeded the threshold and gradients were rescaled.
    pub clipped: bool,
}

/// Clips gradients so their joint L2 norm is at most `max_norm`.
///
/// Non-finite gradient entries (NaN/±Inf — e.g. from an overflowing attention
/// score) are zeroed *before* the norm is computed, so one poisoned entry
/// degrades to "that coordinate skips this step" instead of corrupting every
/// parameter through a NaN global norm and the LAMB trust ratio. The returned
/// stats report the pre-clip norm (the paper clips at 1.0) and how many
/// entries were sanitized.
///
/// A degenerate threshold (`max_norm` ≤ 0 or non-finite, e.g. from a
/// mis-parsed config) disables rescaling rather than panicking mid-training:
/// gradients are still sanitized, the norm is still reported, and `clipped`
/// stays `false`.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> GradClipStats {
    let threshold_valid = max_norm.is_finite() && max_norm > 0.0;
    // Parameters are walked in order, and each parameter's squared norm
    // folds fixed 4096-element partials in ascending order
    // (`linalg::norm_sq_f64`), so the global norm is the same bits on every
    // run of a given ISA.
    let mut nonfinite = 0usize;
    for p in params {
        let mut bad_here = 0usize;
        p.update_grad(|g| {
            bad_here = linalg::sanitize_non_finite(g.as_mut_slice());
        });
        nonfinite += bad_here;
    }
    let mut sq_sum = 0.0f64;
    for p in params {
        p.with_grad(|g| {
            if let Some(g) = g {
                sq_sum += linalg::norm_sq_f64(g.as_slice());
            }
        });
    }
    let total = sq_sum.sqrt() as f32;
    let clipped = threshold_valid && total > max_norm && total > 0.0;
    if clipped {
        let scale = max_norm / total;
        for p in params {
            p.update_grad(|g| g.scale_inplace(scale));
        }
    }
    GradClipStats {
        pre_clip_norm: total,
        nonfinite_entries: nonfinite,
        clipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_tensor::NdArray;

    fn param_with_grad(values: &[f32]) -> Tensor {
        let t = Tensor::parameter(NdArray::from_vec([values.len()], values.to_vec()));
        let loss = t
            .mul(&Tensor::constant(NdArray::from_vec(
                [values.len()],
                values.to_vec(),
            )))
            .sum();
        loss.backward();
        t
    }

    /// A parameter whose gradient has been overwritten to contain `grad`.
    fn param_with_raw_grad(grad: &[f32]) -> Tensor {
        let t = param_with_grad(&vec![1.0; grad.len()]);
        let injected = grad.to_vec();
        t.update_grad(move |g| {
            g.as_mut_slice().copy_from_slice(&injected);
        });
        t
    }

    /// Gradient of `t`, with a diagnostic instead of a bare unwrap if the
    /// test fixture failed to produce one.
    fn grad_of(t: &Tensor) -> NdArray {
        match t.grad() {
            Some(g) => g,
            None => panic!("test parameter has no gradient; backward() did not run"),
        }
    }

    #[test]
    fn clips_large_gradients() {
        let p = param_with_grad(&[3.0, 4.0]); // grad = [3, 4], norm 5
        let stats = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((stats.pre_clip_norm - 5.0).abs() < 1e-5);
        assert!(stats.clipped && stats.nonfinite_entries == 0);
        let g = grad_of(&p);
        assert!((g.norm_l2() - 1.0).abs() < 1e-5);
        // direction preserved
        assert!((g.as_slice()[0] / g.as_slice()[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn leaves_small_gradients_alone() {
        let p = param_with_grad(&[0.3, 0.4]); // norm 0.5
        let stats = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert!((stats.pre_clip_norm - 0.5).abs() < 1e-5);
        assert!(!stats.clipped);
        assert!((grad_of(&p).norm_l2() - 0.5).abs() < 1e-5);
    }

    #[test]
    fn joint_norm_across_params() {
        let a = param_with_grad(&[3.0]);
        let b = param_with_grad(&[4.0]);
        let stats = clip_grad_norm(&[a.clone(), b.clone()], 2.5);
        assert!((stats.pre_clip_norm - 5.0).abs() < 1e-5);
        let joint = (grad_of(&a).norm_l2().powi(2) + grad_of(&b).norm_l2().powi(2)).sqrt();
        assert!((joint - 2.5).abs() < 1e-4);
    }

    #[test]
    fn nan_gradient_entries_are_zeroed_and_reported() {
        let p = param_with_raw_grad(&[f32::NAN, 3.0, 4.0]);
        let stats = clip_grad_norm(std::slice::from_ref(&p), 10.0);
        assert_eq!(stats.nonfinite_entries, 1);
        // The finite entries survive: norm = sqrt(3^2 + 4^2) = 5, no clip at 10.
        assert!((stats.pre_clip_norm - 5.0).abs() < 1e-5);
        let g = grad_of(&p);
        assert_eq!(g.as_slice()[0], 0.0);
        assert!(g.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn inf_gradients_do_not_poison_other_params() {
        let bad = param_with_raw_grad(&[f32::INFINITY, f32::NEG_INFINITY]);
        let good = param_with_grad(&[3.0, 4.0]);
        let stats = clip_grad_norm(&[bad.clone(), good.clone()], 1.0);
        assert_eq!(stats.nonfinite_entries, 2);
        assert!(stats.pre_clip_norm.is_finite());
        // The good gradient is clipped by the *finite* norm (5.0), not NaN-ed.
        let g = grad_of(&good);
        assert!((g.norm_l2() - 1.0).abs() < 1e-5);
        assert!(grad_of(&bad).as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn all_nan_gradient_means_zero_step() {
        let p = param_with_raw_grad(&[f32::NAN, f32::NAN]);
        let stats = clip_grad_norm(std::slice::from_ref(&p), 1.0);
        assert_eq!(stats.nonfinite_entries, 2);
        assert_eq!(stats.pre_clip_norm, 0.0);
        assert!(!stats.clipped);
    }

    #[test]
    fn degenerate_max_norm_disables_clipping_without_panicking() {
        for bad_norm in [0.0, -1.0, f32::NAN, f32::INFINITY] {
            let p = param_with_raw_grad(&[f32::NAN, 3.0, 4.0]);
            let stats = clip_grad_norm(std::slice::from_ref(&p), bad_norm);
            // Sanitization still runs, the norm is still reported, but no
            // rescale happens against a meaningless threshold.
            assert_eq!(stats.nonfinite_entries, 1);
            assert!((stats.pre_clip_norm - 5.0).abs() < 1e-5);
            assert!(!stats.clipped);
            assert!((grad_of(&p).norm_l2() - 5.0).abs() < 1e-5);
        }
    }
}
