//! Post-training weight quantization: int8 as a weight storage format.
//!
//! A [`QuantizedTensor`] stores a frozen weight matrix as symmetric
//! per-tensor int8 ([`QuantMode::Int8`]). It is a storage format only:
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
//! The analytical bound is `scale / 2` with `scale = max_abs / 127`; the
//! recorded value is always at or below it and is what downstream
//! error-bound tests assert against.

use crate::ndarray::NdArray;
use crate::shape::Shape;

/// Weight compression scheme. One variant: the enum is vestigial, kept
/// because the frozen `benchmark/` package names `QuantMode::Int8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantMode {
    /// Symmetric per-tensor int8: `q = round(x / scale)` clamped to
    /// `[-127, 127]`, `scale = max|x| / 127`. 4x smaller than f32.
    Int8,
}

/// A frozen weight tensor in compressed form, expanded to f32 where it is
/// read (`crate::WeightMatrix`).
#[derive(Debug, Clone)]
pub struct QuantizedTensor {
    shape: Shape,
    data: Vec<i8>,
    scale: f32,
    max_err: f32,
}

impl QuantizedTensor {
    /// Compresses `a` under `mode`, recording the worst per-element
    /// reconstruction error. Non-finite inputs are rejected by debug
    /// assertion upstream (frozen weights are validated at export); here
    /// they saturate like any out-of-range value.
    pub fn quantize(a: &NdArray, mode: QuantMode) -> Self {
        let QuantMode::Int8 = mode;
        let xs = a.as_slice();
        let max_abs = xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        // All-zero (or empty) tensors quantize losslessly; scale 1 avoids a
        // 0/0 in dequantization.
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        let inv = 1.0 / scale;
        let mut max_err = 0.0f32;
        let data = xs
            .iter()
            .map(|&x| {
                let q = (x * inv).round().clamp(-127.0, 127.0);
                max_err = max_err.max((x - q * scale).abs());
                q as i8
            })
            .collect();
        QuantizedTensor {
            shape: a.shape().clone(),
            data,
            scale,
            max_err,
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
        self.data[idx] as f32 * self.scale
    }

    /// Dequantizes one row of a 2-D tensor into `out` (`out.len()` must
    /// equal the row width).
    #[inline]
    pub fn deq_row_into(&self, row: usize, out: &mut [f32]) {
        let dims = self.dims();
        assert_eq!(dims.len(), 2, "deq_row_into needs a 2-D tensor");
        let w = dims[1];
        assert_eq!(out.len(), w, "row buffer must be [{w}]");
        // Widening int8 and one f32 multiply are exact per element on every
        // ISA, so the dispatched path cannot change bits.
        crate::simd::dequant_row_i8(
            crate::simd::active_isa(),
            &self.data[row * w..(row + 1) * w],
            self.scale,
            out,
        );
    }

    /// Full dequantization back to f32 — what a quantized projection
    /// multiplies by.
    pub fn dequantize(&self) -> NdArray {
        let data = (0..self.numel()).map(|i| self.deq_at(i)).collect();
        NdArray::from_vec(self.shape.clone(), data)
    }

    /// Stored bytes (for compression-ratio reporting).
    pub fn stored_bytes(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn all_zero_tensor_quantizes_losslessly() {
        let a = NdArray::zeros([4, 4]);
        let q = QuantizedTensor::quantize(&a, QuantMode::Int8);
        assert_eq!(q.max_err(), 0.0);
        assert_eq!(q.dequantize().as_slice(), a.as_slice());
    }

    #[test]
    fn deq_row_matches_deq_at() {
        let a = NdArray::from_vec([3, 4], (0..12).map(|i| i as f32 * 0.3 - 1.7).collect());
        let q = QuantizedTensor::quantize(&a, QuantMode::Int8);
        let mut row = vec![0.0f32; 4];
        for r in 0..3 {
            q.deq_row_into(r, &mut row);
            for (c, &v) in row.iter().enumerate() {
                assert_eq!(v, q.deq_at(r * 4 + c));
            }
        }
    }
}
