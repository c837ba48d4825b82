//! # hire-tensor
//!
//! Dense `f32` tensor library with reverse-mode automatic differentiation,
//! purpose-built as the numerical substrate of the HIRE reproduction
//! (ICDE 2025, *All-in-One: Heterogeneous Interaction Modeling for
//! Cold-Start Rating Prediction*).
//!
//! Components:
//! - [`Shape`] — dimension bookkeeping, strides, broadcasting rules.
//! - [`NdArray`] — contiguous row-major value type with numeric kernels
//!   ([`linalg`]): broadcast arithmetic, batched matmul, permutation,
//!   softmax, reductions, gather/scatter.
//! - [`Tensor`] — autograd graph node; every op records a backward closure
//!   and [`Tensor::backward`] accumulates gradients in topological order.
//! - [`gradcheck`] — finite-difference validation used throughout the test
//!   suite.
//! - [`init`] — Xavier/Kaiming/embedding initializers.
//! - [`quant`] — post-training weight compression (symmetric int8):
//!   a storage format, expanded to f32 per projection or per gathered row
//!   by [`WeightMatrix`], so there is one matmul family, not two.
//! - [`WeightMatrix`] — the one trait that pairs a weight storage format
//!   (f32 [`NdArray`], int8 [`QuantizedTensor`]) with its [`linalg`]
//!   kernels; every no-grad forward above it is generic over it.
//! - [`simd`] — runtime-dispatched vector micro-kernels
//!   (scalar/avx2/avx512, `HIRE_ISA` override) behind the [`linalg`]
//!   hot paths — matmul, softmax, layer norm and the attention-tile
//!   primitive ([`AttnGrid`], [`linalg::attention_into`]) — with a per-ISA
//!   determinism contract (DESIGN.md §16).
//!
//! ```
//! use hire_tensor::{NdArray, Tensor};
//!
//! let w = Tensor::parameter(NdArray::from_vec([2, 1], vec![0.5, -0.5]));
//! let x = Tensor::constant(NdArray::from_vec([1, 2], vec![1.0, 2.0]));
//! let y = x.matmul(&w).sum();
//! y.backward();
//! assert_eq!(w.grad().unwrap().as_slice(), &[1.0, 2.0]);
//! ```

pub mod autograd;
pub mod gradcheck;
pub mod init;
pub mod linalg;
pub mod ndarray;
pub mod quant;
pub mod shape;
pub mod simd;

pub use autograd::Tensor;
pub use linalg::WeightMatrix;
pub use ndarray::NdArray;
pub use quant::{QuantMode, QuantizedTensor};
pub use shape::Shape;
pub use simd::AttnGrid;
