//! Pins `clip_grad_norm`'s norm/sanitize path bitwise against a serial
//! reference written out here: scalar `is_finite` checks and the
//! 4096-element chunked f64 norm the kernels commit to.

use hire_optim::clip_grad_norm;
use hire_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters with deterministic pseudo-random gradients large enough to
/// span many 4096-element reduction chunks, with some non-finite entries
/// sprinkled in.
fn params_with_grads(seed: u64, poison: bool) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes = [10_000usize, 4096, 4095, 4097, 137, 1];
    sizes
        .iter()
        .map(|&n| {
            let p = Tensor::parameter(NdArray::zeros([n]));
            let mut g = NdArray::randn([n], 0.0, 3.0, &mut rng);
            if poison {
                let s = g.as_mut_slice();
                s[0] = f32::NAN;
                if n > 5000 {
                    s[5000] = f32::INFINITY;
                    s[n - 1] = f32::NEG_INFINITY;
                }
            }
            p.add_to_grad(&g);
            p
        })
        .collect()
}

/// The serial reference: zero non-finite entries, then the
/// joint norm via per-chunk f64 partial sums folded in chunk order (the
/// chain `clip_grad_norm` commits to), then rescale.
fn serial_reference(params: &[Tensor], max_norm: f32) -> (f32, usize, Vec<Vec<u32>>) {
    let mut nonfinite = 0usize;
    let mut sq_sum = 0.0f64;
    for p in params {
        p.update_grad(|g| {
            for x in g.as_mut_slice() {
                if !x.is_finite() {
                    *x = 0.0;
                    nonfinite += 1;
                }
            }
        });
        p.with_grad(|g| {
            if let Some(g) = g {
                for chunk in g.as_slice().chunks(4096) {
                    let mut part = 0.0f64;
                    for &x in chunk {
                        part += (x as f64) * (x as f64);
                    }
                    sq_sum += part;
                }
            }
        });
    }
    let total = sq_sum.sqrt() as f32;
    if total > max_norm && total > 0.0 {
        let scale = max_norm / total;
        for p in params {
            p.update_grad(|g| g.scale_inplace(scale));
        }
    }
    let grads = params
        .iter()
        .map(|p| p.with_grad(|g| g.unwrap().as_slice().iter().map(|x| x.to_bits()).collect()))
        .collect();
    (total, nonfinite, grads)
}

#[test]
fn clip_matches_serial_reference_bitwise() {
    for poison in [false, true] {
        let reference_params = params_with_grads(42, poison);
        let (ref_norm, ref_bad, ref_grads) = serial_reference(&reference_params, 1.0);

        let params = params_with_grads(42, poison);
        let stats = clip_grad_norm(&params, 1.0);
        assert_eq!(
            stats.pre_clip_norm.to_bits(),
            ref_norm.to_bits(),
            "norm differs from serial reference (poison={poison})"
        );
        assert_eq!(stats.nonfinite_entries, ref_bad);
        for (p, want) in params.iter().zip(&ref_grads) {
            let got: Vec<u32> =
                p.with_grad(|g| g.unwrap().as_slice().iter().map(|x| x.to_bits()).collect());
            assert_eq!(&got, want, "clipped gradient bits differ (poison={poison})");
        }
    }
}
