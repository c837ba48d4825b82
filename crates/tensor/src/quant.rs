//! Post-training weight quantization: int8 as a rounding of f32 weights.
//!
//! [`round_int8`] rounds a frozen weight matrix through symmetric
//! per-tensor int8 ([`QuantMode::Int8`]) and hands it back as f32: the
//! int8 grid is applied once, when a model is built, and the forward that
//! runs on the result is the plain f32 one. Only the weights are rounded;
//! activations stay f32 throughout, so the scheme is purely post-training
//! and needs no calibration data.
//!
//! Error accounting: [`round_int8`] returns the worst per-element absolute
//! rounding error actually incurred. The analytical bound is `scale / 2`
//! with `scale = max_abs / 127`; the recorded value is always at or below
//! it and is what downstream error-bound tests assert against.

use crate::ndarray::NdArray;

/// Weight compression scheme. One variant: the enum is vestigial, kept
/// because the frozen `benchmark/` package names `QuantMode::Int8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Symmetric per-tensor int8: `q = round(x / scale)` clamped to
    /// `[-127, 127]`, `scale = max|x| / 127`.
    Int8,
}

/// `a` rounded through symmetric per-tensor int8 — each finite `x` becomes
/// `q · scale` with `q = round(x / scale)` clamped to `[-127, 127]` and
/// `scale = max|x| / 127` over the finite elements — and the worst
/// per-element error that incurred: `|rounded[i] - a[i]| <= err` for every
/// finite element. Non-finite elements pass through unchanged and take no
/// part in `scale` or `err`.
pub fn round_int8(a: &NdArray) -> (NdArray, f32) {
    let finite = || a.as_slice().iter().filter(|x| x.is_finite());
    let max_abs = finite().fold(0.0f32, |m, &x| m.max(x.abs()));
    // All-zero (or empty) tensors round losslessly; scale 1 avoids a 0/0.
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    let inv = 1.0 / scale;
    let mut err = 0.0f32;
    let rounded = a
        .as_slice()
        .iter()
        .map(|&x| {
            if !x.is_finite() {
                return x;
            }
            // Through an i8, which has no −0: a value that rounds to zero
            // comes back +0.
            let r = (x * inv).round().clamp(-127.0, 127.0) as i8 as f32 * scale;
            err = err.max((x - r).abs());
            r
        })
        .collect();
    (NdArray::from_vec(a.shape().clone(), rounded), err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_error_stays_under_half_scale() {
        let xs: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.013).collect();
        let a = NdArray::from_vec([257], xs.clone());
        let (rounded, err) = round_int8(&a);
        let max_abs = xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = max_abs / 127.0;
        assert!(err <= scale * 0.5 + f32::EPSILON);
        for (x, y) in xs.iter().zip(rounded.as_slice()) {
            assert!((x - y).abs() <= err + f32::EPSILON);
        }
    }

    #[test]
    fn all_zero_tensor_rounds_losslessly() {
        let a = NdArray::zeros([4, 4]);
        let (rounded, err) = round_int8(&a);
        assert_eq!(err, 0.0);
        assert_eq!(rounded.as_slice(), a.as_slice());
    }

    /// NaN and ±inf pass through, and the finite elements round on the
    /// grid of the finite maximum with the error bound intact — a NaN used
    /// to come back 0, and an inf to turn the whole tensor NaN with an
    /// error of 0.
    #[test]
    fn non_finite_elements_pass_through() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let xs = [0.5, bad, -1.0, 0.25];
            let (rounded, err) = round_int8(&NdArray::from_vec([4], xs.to_vec()));
            let (finite, _) = round_int8(&NdArray::from_vec([3], vec![0.5, -1.0, 0.25]));
            let got = rounded.as_slice();
            assert_eq!(got[1].to_bits(), bad.to_bits(), "{bad}");
            assert_eq!([got[0], got[2], got[3]], finite.as_slice(), "{bad}");
            assert!(
                err > 0.0 && err <= 0.5 / 127.0 + f32::EPSILON,
                "{bad}: err {err}"
            );
            for (x, y) in xs.iter().zip(got).filter(|(x, _)| x.is_finite()) {
                assert!((x - y).abs() <= err, "{bad}: {x} -> {y}");
            }
        }
    }

    #[test]
    fn a_tensor_with_no_finite_element_is_unchanged() {
        let xs = vec![f32::NAN, f32::INFINITY];
        let (rounded, err) = round_int8(&NdArray::from_vec([2], xs.clone()));
        assert!(rounded.as_slice()[0].is_nan());
        assert_eq!(rounded.as_slice()[1], f32::INFINITY);
        assert_eq!(err, 0.0);
    }
}
