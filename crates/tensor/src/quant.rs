//! Post-training weight quantization for the serving mid-tier.
//!
//! A [`QuantizedTensor`] stores a frozen weight matrix in a compressed
//! representation — symmetric per-tensor int8 ([`QuantMode::Int8`]) or
//! IEEE 754 binary16 ([`QuantMode::F16`]). It is a storage format only:
//! `crate::WeightMatrix` expands a projection weight to f32 once per call
//! and a gathered table row per row, and the arithmetic is the f32
//! kernels'. Activations stay f32 throughout; only the weights are
//! compressed, so the scheme is purely post-training and needs no
//! calibration data.
//!
//! Determinism contract: dequantization is a pure per-element function of
//! the stored representation, so a quantized product is bit-identical to
//! the f32 product over `dequantize()` — per ISA and across thread counts.
//!
//! Error accounting: `quantize` records the worst per-element absolute
//! reconstruction error actually incurred ([`QuantizedTensor::max_err`]).
//! For int8 the analytical bound is `scale / 2` with
//! `scale = max_abs / 127`; for f16 it is `max_abs * 2^-11` (half a ulp
//! of the largest magnitude). The recorded value is always at or below
//! the analytical bound and is what downstream error-bound tests assert
//! against.

use crate::ndarray::NdArray;
use crate::shape::Shape;

/// Weight compression scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Symmetric per-tensor int8: `q = round(x / scale)` clamped to
    /// `[-127, 127]`, `scale = max|x| / 127`. 4x smaller than f32.
    Int8,
    /// IEEE 754 binary16 (round-to-nearest-even). 2x smaller, much
    /// tighter error than int8.
    F16,
}

impl QuantMode {
    /// Stable lowercase label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            QuantMode::Int8 => "int8",
            QuantMode::F16 => "f16",
        }
    }
}

/// Storage behind a [`QuantizedTensor`].
#[derive(Debug, Clone)]
enum QuantRepr {
    Int8 { data: Vec<i8>, scale: f32 },
    F16 { data: Vec<u16> },
}

/// A frozen weight tensor in compressed form, expanded to f32 where it is
/// read (`crate::WeightMatrix`).
#[derive(Debug, Clone)]
pub struct QuantizedTensor {
    shape: Shape,
    repr: QuantRepr,
    max_err: f32,
}

impl QuantizedTensor {
    /// Compresses `a` under `mode`, recording the worst per-element
    /// reconstruction error. Non-finite inputs are rejected by debug
    /// assertion upstream (frozen weights are validated at export); here
    /// they saturate like any out-of-range value.
    pub fn quantize(a: &NdArray, mode: QuantMode) -> Self {
        let xs = a.as_slice();
        let (repr, max_err) = match mode {
            QuantMode::Int8 => {
                let max_abs = xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
                // All-zero (or empty) tensors quantize losslessly; scale 1
                // avoids a 0/0 in dequantization.
                let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
                let inv = 1.0 / scale;
                let mut max_err = 0.0f32;
                let data: Vec<i8> = xs
                    .iter()
                    .map(|&x| {
                        let q = (x * inv).round().clamp(-127.0, 127.0);
                        max_err = max_err.max((x - q * scale).abs());
                        q as i8
                    })
                    .collect();
                (QuantRepr::Int8 { data, scale }, max_err)
            }
            QuantMode::F16 => {
                let mut max_err = 0.0f32;
                let data: Vec<u16> = xs
                    .iter()
                    .map(|&x| {
                        let h = f32_to_f16_bits(x);
                        max_err = max_err.max((x - f16_bits_to_f32(h)).abs());
                        h
                    })
                    .collect();
                (QuantRepr::F16 { data }, max_err)
            }
        };
        QuantizedTensor {
            shape: a.shape().clone(),
            repr,
            max_err,
        }
    }

    /// The compression scheme in use.
    pub fn mode(&self) -> QuantMode {
        match self.repr {
            QuantRepr::Int8 { .. } => QuantMode::Int8,
            QuantRepr::F16 { .. } => QuantMode::F16,
        }
    }

    /// Tensor dimensions (same as the source array's).
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Element count.
    pub fn numel(&self) -> usize {
        self.shape.numel()
    }

    /// Worst per-element absolute reconstruction error recorded at
    /// quantization time. `|dequantize()[i] - original[i]| <= max_err()`
    /// for every element, by construction.
    pub fn max_err(&self) -> f32 {
        self.max_err
    }

    /// Dequantizes one element by flat index.
    #[inline]
    pub fn deq_at(&self, idx: usize) -> f32 {
        match &self.repr {
            QuantRepr::Int8 { data, scale } => data[idx] as f32 * scale,
            QuantRepr::F16 { data } => f16_bits_to_f32(data[idx]),
        }
    }

    /// Dequantizes one row of a 2-D tensor into `out` (`out.len()` must
    /// equal the row width). Lets kernels pay the representation dispatch
    /// once per row instead of once per element.
    #[inline]
    pub fn deq_row_into(&self, row: usize, out: &mut [f32]) {
        let dims = self.dims();
        assert_eq!(dims.len(), 2, "deq_row_into needs a 2-D tensor");
        let w = dims[1];
        assert_eq!(out.len(), w, "row buffer must be [{w}]");
        let base = row * w;
        match &self.repr {
            QuantRepr::Int8 { data, scale } => {
                // Widening int8 and one f32 multiply are exact per element
                // on every ISA, so the dispatched path cannot change bits.
                crate::simd::dequant_row_i8(
                    crate::simd::active_isa(),
                    &data[base..base + w],
                    *scale,
                    out,
                );
            }
            QuantRepr::F16 { data } => {
                for (o, &h) in out.iter_mut().zip(&data[base..base + w]) {
                    *o = f16_bits_to_f32(h);
                }
            }
        }
    }

    /// Full dequantization back to f32 — what a quantized projection
    /// multiplies by.
    pub fn dequantize(&self) -> NdArray {
        let data = (0..self.numel()).map(|i| self.deq_at(i)).collect();
        NdArray::from_vec(self.shape.clone(), data)
    }

    /// Stored bytes (for compression-ratio reporting).
    pub fn stored_bytes(&self) -> usize {
        match &self.repr {
            QuantRepr::Int8 { data, .. } => data.len(),
            QuantRepr::F16 { data } => data.len() * 2,
        }
    }
}

/// f32 → binary16 bits with round-to-nearest-even, saturating NaN/Inf and
/// overflow to the half-precision specials. No `half` crate — the repo
/// vendors no numerics dependencies.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;
    if exp == 255 {
        // Inf stays Inf; NaN keeps a set quiet bit.
        return sign | 0x7C00 | if mant != 0 { 0x0200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow -> ±Inf
    }
    if unbiased >= -14 {
        // Normal half: drop 13 mantissa bits with round-to-nearest-even.
        // A mantissa carry propagates into the exponent naturally.
        let half = (((unbiased + 15) as u32) << 10) | (mant >> 13);
        let round = mant & 0x1FFF;
        let up = round > 0x1000 || (round == 0x1000 && (half & 1) == 1);
        let half = half + up as u32;
        return if half >= 0x7C00 {
            sign | 0x7C00
        } else {
            sign | half as u16
        };
    }
    // Subnormal half (or underflow to zero): value = hm * 2^-24.
    let full = mant | 0x0080_0000; // restore the implicit bit (24 bits)
    let shift = (-unbiased - 1) as u32;
    if shift > 24 {
        return sign; // below half the smallest subnormal -> ±0
    }
    let hm = if shift == 24 { 0 } else { full >> shift };
    let rem = if shift == 24 {
        full
    } else {
        full & ((1u32 << shift) - 1)
    };
    let halfway = 1u32 << (shift - 1);
    let up = rem > halfway || (rem == halfway && (hm & 1) == 1);
    // hm + carry may reach 0x400, which is exactly the smallest normal
    // half — the bit pattern composes correctly.
    sign | (hm + up as u32) as u16
}

/// binary16 bits → f32 (exact: every half value is representable).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h >> 15) & 1) as u32;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x3FF) as u32;
    if exp == 0 {
        // ±0 or subnormal: mant * 2^-24, sign applied by multiplication
        // so -0.0 round-trips.
        let v = mant as f32 * (1.0 / 16_777_216.0);
        return if sign == 1 { -v } else { v };
    }
    let bits = if exp == 31 {
        (sign << 31) | 0x7F80_0000 | (mant << 13)
    } else {
        (sign << 31) | ((exp + 112) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trips_exact_values() {
        for &x in &[
            0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25, 1024.0,
        ] {
            let h = f32_to_f16_bits(x);
            assert_eq!(f16_bits_to_f32(h), x, "{x} must round-trip");
        }
        assert_eq!(f32_to_f16_bits(-0.0).to_be_bytes()[0] & 0x80, 0x80);
    }

    #[test]
    fn f16_handles_specials_and_saturation() {
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xFC00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Larger than the max half (65504) saturates to Inf.
        assert_eq!(f32_to_f16_bits(1.0e6), 0x7C00);
        assert_eq!(f32_to_f16_bits(70000.0), 0x7C00);
        // Smallest subnormal half is 2^-24; half of it ties to even zero.
        assert_eq!(f16_bits_to_f32(1), 2.0f32.powi(-24));
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-25)), 0);
        assert_eq!(f32_to_f16_bits(2.0f32.powi(-24)), 1);
    }

    #[test]
    fn f16_rounds_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and the next half
        // (1 + 2^-10); ties-to-even keeps the even mantissa (1.0).
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(tie)), 1.0);
        // Just above the tie rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(above)),
            1.0 + 2.0f32.powi(-10)
        );
    }

    #[test]
    fn f16_relative_error_is_within_half_ulp() {
        let mut state = 0x1234_5678u64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = ((state >> 33) as f32) / (1u64 << 31) as f32; // [0, 1)
            let x = (u - 0.5) * 8.0; // [-4, 4)
            let y = f16_bits_to_f32(f32_to_f16_bits(x));
            assert!(
                (x - y).abs() <= x.abs() * 2.0f32.powi(-11) + f32::EPSILON,
                "x={x} y={y}"
            );
        }
    }

    #[test]
    fn int8_error_stays_under_half_scale() {
        let xs: Vec<f32> = (0..257).map(|i| (i as f32 - 128.0) * 0.013).collect();
        let a = NdArray::from_vec([257], xs.clone());
        let q = QuantizedTensor::quantize(&a, QuantMode::Int8);
        let max_abs = xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = max_abs / 127.0;
        assert!(q.max_err() <= scale * 0.5 + f32::EPSILON);
        let deq = q.dequantize();
        for (x, y) in xs.iter().zip(deq.as_slice()) {
            assert!((x - y).abs() <= q.max_err() + f32::EPSILON);
        }
        assert_eq!(q.stored_bytes(), 257);
        assert_eq!(q.mode(), QuantMode::Int8);
    }

    #[test]
    fn all_zero_tensor_quantizes_losslessly() {
        let a = NdArray::zeros([4, 4]);
        for mode in [QuantMode::Int8, QuantMode::F16] {
            let q = QuantizedTensor::quantize(&a, mode);
            assert_eq!(q.max_err(), 0.0);
            assert_eq!(q.dequantize().as_slice(), a.as_slice());
        }
    }

    #[test]
    fn deq_row_matches_deq_at() {
        let a = NdArray::from_vec([3, 4], (0..12).map(|i| i as f32 * 0.3 - 1.7).collect());
        for mode in [QuantMode::Int8, QuantMode::F16] {
            let q = QuantizedTensor::quantize(&a, mode);
            let mut row = vec![0.0f32; 4];
            for r in 0..3 {
                q.deq_row_into(r, &mut row);
                for (c, &v) in row.iter().enumerate() {
                    assert_eq!(v, q.deq_at(r * 4 + c));
                }
            }
        }
    }
}
