//! Inverted dropout.

use hire_tensor::{NdArray, Tensor};
use rand::Rng;

/// Inverted dropout: at train time zeroes each element with probability `p`
/// and rescales survivors by `1/(1-p)`; at eval time it is the identity.
///
/// Stateless w.r.t. parameters; the RNG is supplied per call so training
/// remains deterministic under a fixed seed.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p ∈ [0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout p must be in [0,1), got {p}"
        );
        Dropout { p }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Applies dropout in training mode.
    pub fn forward_train(&self, x: &Tensor, rng: &mut impl Rng) -> Tensor {
        if self.p == 0.0 {
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let shape = x.shape();
        let mask_data: Vec<f32> = (0..shape.numel())
            .map(|_| {
                if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        x.mask(&NdArray::from_vec(shape, mask_data))
    }

    /// Applies dropout in evaluation mode (identity).
    pub fn forward_eval(&self, x: &Tensor) -> Tensor {
        x.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn eval_is_identity() {
        let d = Dropout::new(0.5);
        let x = Tensor::constant(NdArray::ones([4, 4]));
        assert_eq!(d.forward_eval(&x).value().as_slice(), x.value().as_slice());
    }

    #[test]
    fn train_preserves_expectation() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let d = Dropout::new(0.3);
        let x = Tensor::constant(NdArray::ones([100, 100]));
        let y = d.forward_train(&x, &mut rng).value();
        let mean = y.mean_all();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean} drifted");
        // Some elements must actually be dropped.
        assert!(y.as_slice().contains(&0.0));
    }

    #[test]
    fn zero_p_is_identity_even_in_train() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let d = Dropout::new(0.0);
        let x = Tensor::constant(NdArray::ones([3]));
        assert_eq!(
            d.forward_train(&x, &mut rng).value().as_slice(),
            &[1.0, 1.0, 1.0]
        );
    }

    #[test]
    #[should_panic(expected = "dropout p")]
    fn invalid_p_panics() {
        Dropout::new(1.0);
    }
}
