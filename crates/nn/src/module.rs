//! The [`Module`] trait: anything that owns trainable parameters.

use hire_tensor::Tensor;

/// A container of trainable parameters.
///
/// Layers and whole models implement this; optimizers consume the flattened
/// parameter list. Parameter tensors are shared (`Tensor` clones are shallow),
/// so the optimizer's updates are visible to the module.
pub trait Module {
    /// All trainable parameters, leaves of the autograd graph.
    fn parameters(&self) -> Vec<Tensor>;

    /// Total number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.parameters()
            .iter()
            .map(|p| p.with_value(|v| v.numel()))
            .sum()
    }

    /// Clears accumulated gradients on every parameter.
    fn zero_grad(&self) {
        for p in self.parameters() {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_tensor::NdArray;

    struct Pair(Tensor, Tensor);
    impl Module for Pair {
        fn parameters(&self) -> Vec<Tensor> {
            vec![self.0.clone(), self.1.clone()]
        }
    }

    #[test]
    fn num_parameters_counts_scalars() {
        let m = Pair(
            Tensor::parameter(NdArray::zeros([2, 3])),
            Tensor::parameter(NdArray::zeros([5])),
        );
        assert_eq!(m.num_parameters(), 11);
    }

    #[test]
    fn zero_grad_clears_all() {
        let m = Pair(
            Tensor::parameter(NdArray::ones([2])),
            Tensor::parameter(NdArray::ones([2])),
        );
        let loss = m.0.mul(&m.1).sum();
        loss.backward();
        assert!(m.0.grad().is_some());
        m.zero_grad();
        assert!(m.0.grad().is_none() && m.1.grad().is_none());
    }
}
