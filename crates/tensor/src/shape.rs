//! Shape arithmetic: dimension bookkeeping, row-major strides and
//! numpy-style broadcasting rules.

use std::fmt;

/// Most dimensions a [`Shape`] holds.
const MAX_RANK: usize = 8;

/// The shape of a dense, row-major tensor.
///
/// A scalar is represented by an empty dimension list. Dimensions of size
/// zero are permitted (the tensor then holds no elements). The dimensions
/// live inline (at most eight), so a shape — and the array or gradient it
/// describes — costs no allocation of its own.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    /// The first `rank` entries are the dimensions; the rest stay 0.
    dims: [usize; MAX_RANK],
    rank: usize,
}

impl Shape {
    /// Creates a shape from a dimension list.
    pub(crate) fn new(dims: Vec<usize>) -> Self {
        Shape::of(&dims)
    }

    fn of(dims: &[usize]) -> Self {
        let rank = dims.len();
        assert!(
            rank <= MAX_RANK,
            "a shape holds at most {MAX_RANK} dimensions, got {dims:?}"
        );
        let mut inline = [0; MAX_RANK];
        inline[..rank].copy_from_slice(dims);
        Shape { dims: inline, rank }
    }

    /// The scalar shape `[]`.
    pub(crate) fn scalar() -> Self {
        Shape::of(&[])
    }

    /// Number of dimensions (rank).
    pub(crate) fn rank(&self) -> usize {
        self.rank
    }

    /// Dimension sizes as a slice.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims[..self.rank]
    }

    /// Total number of elements.
    pub(crate) fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Row-major (C order) strides, in elements.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.rank];
        let mut acc = 1usize;
        for (i, &d) in self.dims().iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }

    /// Converts a multi-dimensional index to a flat offset.
    ///
    /// Panics in debug builds if the index is out of bounds.
    pub(crate) fn offset(&self, index: &[usize]) -> usize {
        debug_assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let mut off = 0usize;
        let mut acc = 1usize;
        for (i, &d) in self.dims().iter().enumerate().rev() {
            let ix = index[i];
            debug_assert!(ix < d, "index {ix} out of bounds for dim {i} of size {d}");
            off += ix * acc;
            acc *= d;
        }
        off
    }

    /// The broadcast of two shapes following numpy rules, or `None` when the
    /// shapes are incompatible.
    ///
    /// Shapes align from the trailing dimension; a dimension broadcasts when
    /// the two sizes are equal or one of them is 1 (or missing).
    pub(crate) fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut dims = [0usize; MAX_RANK];
        for i in 0..rank {
            let a = dim_from_end(self.dims(), i);
            let b = dim_from_end(other.dims(), i);
            let d = match (a, b) {
                (x, y) if x == y => x,
                (1, y) => y,
                (x, 1) => x,
                _ => return None,
            };
            dims[rank - 1 - i] = d;
        }
        Some(Shape::of(&dims[..rank]))
    }

    /// Whether every element of `self` maps onto `target` by broadcasting.
    pub(crate) fn broadcasts_to(&self, target: &Shape) -> bool {
        if self.rank() > target.rank() {
            return false;
        }
        for i in 0..self.rank() {
            let a = dim_from_end(self.dims(), i);
            let b = dim_from_end(target.dims(), i);
            if a != b && a != 1 {
                return false;
            }
        }
        true
    }

    /// Splits the shape into `(batch_dims, last_two)` for batched matrix
    /// operations. Panics if rank < 2.
    pub(crate) fn split_batch(&self) -> (&[usize], [usize; 2]) {
        assert!(self.rank() >= 2, "need rank >= 2, got {self:?}");
        let r = self.rank();
        (&self.dims[..r - 2], [self.dims[r - 2], self.dims[r - 1]])
    }
}

fn dim_from_end(dims: &[usize], i: usize) -> usize {
    if i < dims.len() {
        dims[dims.len() - 1 - i]
    } else {
        1
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims())
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::of(dims)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::of(&dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::from([5, 0, 2]).numel(), 0);
    }

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([7]).strides(), vec![1]);
        assert!(Shape::scalar().strides().is_empty());
    }

    #[test]
    fn offset_math() {
        let s = Shape::from([2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), 0);
        assert_eq!(s.offset(&[1, 2, 3]), 23);
        assert_eq!(s.offset(&[0, 1, 2]), 6);
    }

    #[test]
    fn broadcast_rules() {
        let a = Shape::from([3, 1, 5]);
        let b = Shape::from([4, 5]);
        assert_eq!(a.broadcast(&b).unwrap().dims(), &[3, 4, 5]);

        let a = Shape::from([2, 3]);
        let b = Shape::from([3]);
        assert_eq!(a.broadcast(&b).unwrap().dims(), &[2, 3]);

        let a = Shape::scalar();
        let b = Shape::from([2, 2]);
        assert_eq!(a.broadcast(&b).unwrap().dims(), &[2, 2]);

        assert!(Shape::from([2, 3])
            .broadcast(&Shape::from([4, 3]))
            .is_none());
    }

    #[test]
    fn broadcasts_to_checks() {
        assert!(Shape::from([1, 5]).broadcasts_to(&Shape::from([3, 5])));
        assert!(Shape::from([5]).broadcasts_to(&Shape::from([3, 5])));
        assert!(Shape::scalar().broadcasts_to(&Shape::from([3, 5])));
        assert!(!Shape::from([2, 5]).broadcasts_to(&Shape::from([3, 5])));
        assert!(!Shape::from([3, 5, 1]).broadcasts_to(&Shape::from([3, 5])));
    }

    #[test]
    fn split_batch_dims() {
        let s = Shape::from([2, 3, 4, 5]);
        let (batch, mat) = s.split_batch();
        assert_eq!(batch, &[2, 3]);
        assert_eq!(mat, [4, 5]);
    }
}
