//! Multi-layer perceptron.

use crate::activation::Activation;
use crate::linear::Linear;
use crate::module::Module;
use hire_tensor::Tensor;
use rand::Rng;

/// A stack of [`Linear`] layers with an activation between them (none after
/// the final layer).
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP from a width list, e.g. `[64, 32, 1]` produces
    /// `Linear(64→32) → act → Linear(32→1)`.
    pub fn new(widths: &[usize], activation: Activation, rng: &mut impl Rng) -> Self {
        assert!(
            widths.len() >= 2,
            "MLP needs at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Applies the network.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i != last {
                h = self.activation.apply(&h);
            }
        }
        h
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(|l| l.parameters()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_tensor::NdArray;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_param_count() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[6, 4, 2], Activation::Relu, &mut rng);
        let x = Tensor::constant(NdArray::ones([3, 6]));
        assert_eq!(mlp.forward(&x).dims(), vec![3, 2]);
        assert_eq!(mlp.num_parameters(), 6 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn can_fit_xor() {
        // A tiny sanity check that the whole stack can learn: XOR via MLP.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, &mut rng);
        let x = NdArray::from_vec([4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let y = NdArray::from_vec([4, 1], vec![0., 1., 1., 0.]);
        let mask = NdArray::ones([4, 1]);
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            mlp.zero_grad();
            let pred = mlp.forward(&Tensor::constant(x.clone())).sigmoid();
            let loss = pred.mse_masked(&y, &mask);
            last = loss.item();
            loss.backward();
            for p in mlp.parameters() {
                let g = p.grad().unwrap();
                p.update_value(|v| {
                    for (vi, gi) in v.as_mut_slice().iter_mut().zip(g.as_slice()) {
                        *vi -= 0.5 * gi;
                    }
                });
            }
        }
        assert!(last < 0.05, "XOR did not converge, loss={last}");
    }
}
