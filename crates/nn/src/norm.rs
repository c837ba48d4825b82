//! Layer normalization module.

use crate::module::Module;
use hire_tensor::{NdArray, Tensor};

/// LayerNorm over the trailing feature axis with learnable affine.
pub struct LayerNorm {
    gamma: Tensor,
    beta: Tensor,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// LayerNorm over a feature axis of width `dim` (gamma=1, beta=0 init).
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Tensor::parameter(NdArray::ones([dim])),
            beta: Tensor::parameter(NdArray::zeros([dim])),
            dim,
            eps: 1e-5,
        }
    }

    /// Applies normalization.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        assert_eq!(
            *x.dims().last().expect("LayerNorm input rank >= 1"),
            self.dim,
            "LayerNorm dim mismatch"
        );
        x.layer_norm_last(&self.gamma, &self.beta, self.eps)
    }
}

impl Module for LayerNorm {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Tensor::constant(NdArray::from_vec(
            [2, 4],
            vec![1., 2., 3., 4., 10., 10., 10., 10.],
        ));
        let y = ln.forward(&x).value();
        // first row: mean 0, unit variance
        let row: Vec<f32> = y.as_slice()[..4].to_vec();
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        // constant row normalizes to ~0
        assert!(y.as_slice()[4..].iter().all(|&v| v.abs() < 1e-2));
    }

    #[test]
    fn params_trainable() {
        let ln = LayerNorm::new(3);
        let x = Tensor::constant(NdArray::from_vec([1, 3], vec![1., 2., 3.]));
        ln.forward(&x).square().sum().backward();
        assert!(ln.gamma.grad().is_some());
        assert!(ln.beta.grad().is_some());
        assert_eq!(ln.num_parameters(), 6);
    }
}
