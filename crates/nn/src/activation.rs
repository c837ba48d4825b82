//! Activation functions as a configuration-friendly enum.

use hire_tensor::Tensor;

/// An element-wise nonlinearity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Activation {
    /// Identity (no-op).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
    /// Gaussian error linear unit.
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

impl Activation {
    /// Applies the activation.
    pub(crate) fn apply(&self, x: &Tensor) -> Tensor {
        match self {
            Activation::Identity => x.clone(),
            Activation::Relu => x.relu(),
            Activation::LeakyRelu(a) => x.leaky_relu(*a),
            Activation::Gelu => x.gelu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_tensor::NdArray;

    #[test]
    fn each_variant_runs() {
        let x = Tensor::constant(NdArray::from_vec([3], vec![-1.0, 0.0, 2.0]));
        assert_eq!(
            Activation::Identity.apply(&x).value().as_slice(),
            &[-1.0, 0.0, 2.0]
        );
        assert_eq!(
            Activation::Relu.apply(&x).value().as_slice(),
            &[0.0, 0.0, 2.0]
        );
        let leaky = Activation::LeakyRelu(0.1).apply(&x).value();
        assert!((leaky.as_slice()[0] + 0.1).abs() < 1e-6);
        assert!(Activation::Sigmoid.apply(&x).value().as_slice()[2] > 0.8);
        assert!(Activation::Tanh.apply(&x).value().as_slice()[0] < 0.0);
        assert!(Activation::Gelu.apply(&x).value().as_slice()[2] > 1.9);
    }
}
