//! `NdArray`: a dense, row-major, contiguous `f32` array — the value type
//! underneath the autograd [`Tensor`](crate::Tensor).

use crate::shape::Shape;
use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};
use std::fmt;

/// Dense n-dimensional `f32` array, always contiguous in row-major order.
#[derive(Clone, PartialEq)]
pub struct NdArray {
    shape: Shape,
    data: Vec<f32>,
}

impl NdArray {
    /// Creates an array from a flat buffer. Panics if the buffer length does
    /// not match the shape.
    pub fn from_vec(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            data.len(),
            "shape {shape} needs {} elements, got {}",
            shape.numel(),
            data.len()
        );
        NdArray { shape, data }
    }

    /// All-zeros array.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        NdArray {
            shape,
            data: vec![0.0; n],
        }
    }

    /// All-ones array.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Array filled with `value`.
    pub(crate) fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.numel();
        NdArray {
            shape,
            data: vec![value; n],
        }
    }

    /// Scalar (rank-0) array.
    pub(crate) fn scalar(value: f32) -> Self {
        NdArray {
            shape: Shape::scalar(),
            data: vec![value],
        }
    }

    /// Samples i.i.d. `N(mean, std^2)` entries.
    pub fn randn(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut impl Rng) -> Self {
        let shape = shape.into();
        let normal = Normal::new(mean, std.max(0.0)).expect("valid normal params");
        let data = (0..shape.numel()).map(|_| normal.sample(rng)).collect();
        NdArray { shape, data }
    }

    /// Samples i.i.d. `U(lo, hi)` entries.
    pub(crate) fn rand_uniform(
        shape: impl Into<Shape>,
        lo: f32,
        hi: f32,
        rng: &mut impl Rng,
    ) -> Self {
        let shape = shape.into();
        let uniform = Uniform::new_inclusive(lo, hi);
        let data = (0..shape.numel()).map(|_| uniform.sample(rng)).collect();
        NdArray { shape, data }
    }

    /// The shape of this array.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the flat buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the array, returning the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-dimensional index.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-dimensional index.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// The single element of a one-element array.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() on array of shape {}", self.shape);
        self.data[0]
    }

    /// Reinterprets the buffer under a new shape with the same element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> NdArray {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} to {shape}",
            self.shape
        );
        NdArray {
            shape,
            data: self.data.clone(),
        }
    }

    /// In-place reshape without copying.
    pub fn reshaped(mut self, shape: impl Into<Shape>) -> NdArray {
        let shape = shape.into();
        assert_eq!(
            shape.numel(),
            self.numel(),
            "cannot reshape {} to {shape}",
            self.shape
        );
        self.shape = shape;
        self
    }

    /// Applies `f` to every element, producing a new array.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> NdArray {
        NdArray {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination of two same-shape arrays.
    pub fn zip(&self, other: &NdArray, f: impl Fn(f32, f32) -> f32) -> NdArray {
        assert_eq!(
            self.shape, other.shape,
            "zip shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        NdArray {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other` element-wise (same shapes).
    pub fn add_assign(&mut self, other: &NdArray) {
        assert_eq!(
            self.shape, other.shape,
            "add_assign shape mismatch: {} vs {}",
            self.shape, other.shape
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self *= s` element-wise.
    pub fn scale_inplace(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sum of all elements (f64 accumulation).
    pub fn sum_all(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Maximum element; `-inf` for empty arrays.
    pub fn max_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element; `+inf` for empty arrays.
    pub fn min_all(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// L2 norm of the flattened array.
    pub fn norm_l2(&self) -> f32 {
        (self
            .data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>())
        .sqrt() as f32
    }

    /// True when any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Maximum absolute difference against another same-shape array.
    pub fn max_abs_diff(&self, other: &NdArray) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Approximate equality within `tol` (absolute, element-wise).
    pub fn allclose(&self, other: &NdArray, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

impl fmt::Debug for NdArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NdArray{} ", self.shape)?;
        if self.numel() <= 16 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, ... {} elems]", &self.data[..8], self.numel())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn construction_and_access() {
        let a = NdArray::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.at(&[0, 2]), 3.0);
        assert_eq!(a.at(&[1, 0]), 4.0);
        assert_eq!(a.numel(), 6);
        assert_eq!(NdArray::scalar(7.0).item(), 7.0);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn from_vec_wrong_len_panics() {
        NdArray::from_vec([2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let a = NdArray::from_vec([6], vec![0., 1., 2., 3., 4., 5.]).reshape([2, 3]);
        assert_eq!(a.at(&[1, 1]), 4.0);
        let b = a.reshape([3, 2]);
        assert_eq!(b.at(&[2, 1]), 5.0);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_wrong_numel_panics() {
        NdArray::zeros([6]).reshape([4, 2]);
    }

    #[test]
    fn map_zip_and_reductions() {
        let a = NdArray::from_vec([3], vec![1., -2., 3.]);
        let b = a.map(f32::abs);
        assert_eq!(b.as_slice(), &[1., 2., 3.]);
        let c = a.zip(&b, |x, y| x + y);
        assert_eq!(c.as_slice(), &[2., 0., 6.]);
        assert_eq!(a.sum_all(), 2.0);
        assert_eq!(a.max_all(), 3.0);
        assert_eq!(a.min_all(), -2.0);
        assert!((a.norm_l2() - 14.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn random_constructors_respect_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let u = NdArray::rand_uniform([1000], -0.5, 0.5, &mut rng);
        assert!(u.max_all() <= 0.5 && u.min_all() >= -0.5);
        let n = NdArray::randn([1000], 0.0, 1.0, &mut rng);
        assert!((n.sum_all() / 1000.0).abs() < 0.1);
        assert!(!n.has_non_finite());
    }

    #[test]
    fn allclose_tolerance() {
        let a = NdArray::from_vec([2], vec![1.0, 2.0]);
        let b = NdArray::from_vec([2], vec![1.0005, 2.0]);
        assert!(a.allclose(&b, 1e-3));
        assert!(!a.allclose(&b, 1e-4));
    }
}
