//! Fully-connected layer.

use crate::module::Module;
use hire_tensor::{init, NdArray, Tensor};
use rand::Rng;

/// Affine map `y = x W + b` applied to the trailing feature axis of any-rank
/// input (`[..., in] -> [..., out]`).
pub struct Linear {
    weight: Tensor,
    bias: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// Xavier-initialized layer with bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut impl Rng) -> Self {
        Self::with_bias(in_features, out_features, true, rng)
    }

    /// Xavier-initialized layer, bias optional.
    pub(crate) fn with_bias(
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut impl Rng,
    ) -> Self {
        Linear {
            weight: Tensor::parameter(init::xavier_uniform(in_features, out_features, rng)),
            bias: bias.then(|| Tensor::parameter(NdArray::zeros([out_features]))),
            in_features,
            out_features,
        }
    }

    /// Output feature width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Applies the layer.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let d = *x.dims().last().expect("Linear input must have rank >= 1");
        assert_eq!(
            d, self.in_features,
            "Linear expected trailing dim {}, got {d}",
            self.in_features
        );
        let y = x.linear(&self.weight);
        match &self.bias {
            Some(b) => y.add(b),
            None => y,
        }
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            p.push(b.clone());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let l = Linear::new(4, 3, &mut rng);
        let x = Tensor::constant(NdArray::ones([2, 5, 4]));
        let y = l.forward(&x);
        assert_eq!(y.dims(), vec![2, 5, 3]);
        assert_eq!(l.num_parameters(), 4 * 3 + 3);
    }

    #[test]
    fn no_bias_variant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let l = Linear::with_bias(4, 3, false, &mut rng);
        assert_eq!(l.parameters().len(), 1);
    }

    #[test]
    fn gradient_reaches_weight_and_bias() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let l = Linear::new(2, 2, &mut rng);
        let x = Tensor::constant(NdArray::ones([3, 2]));
        let loss = l.forward(&x).square().sum();
        loss.backward();
        for p in l.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "expected trailing dim")]
    fn wrong_input_width_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let l = Linear::new(4, 3, &mut rng);
        l.forward(&Tensor::constant(NdArray::ones([2, 5])));
    }
}
