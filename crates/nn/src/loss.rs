//! Loss functions.

use hire_tensor::{NdArray, Tensor};

/// Mean squared error over all elements.
pub fn mse_loss(pred: &Tensor, target: &NdArray) -> Tensor {
    let mask = NdArray::ones(target.shape().clone());
    pred.mse_masked(target, &mask)
}

/// Root mean squared error (plain number, no autograd).
pub fn rmse(pred: &[f32], target: &[f32]) -> f32 {
    assert_eq!(pred.len(), target.len());
    if pred.is_empty() {
        return 0.0;
    }
    let se: f64 = pred
        .iter()
        .zip(target)
        .map(|(&p, &t)| ((p - t) as f64).powi(2))
        .sum();
    (se / pred.len() as f64).sqrt() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_known_value() {
        let pred = Tensor::constant(NdArray::from_vec([2], vec![1.0, 3.0]));
        let target = NdArray::from_vec([2], vec![0.0, 0.0]);
        assert!((mse_loss(&pred, &target).item() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn masked_mse_ignores_masked_out() {
        let pred = Tensor::constant(NdArray::from_vec([3], vec![1.0, 100.0, 3.0]));
        let target = NdArray::from_vec([3], vec![0.0, 0.0, 0.0]);
        let mask = NdArray::from_vec([3], vec![1.0, 0.0, 1.0]);
        assert!((pred.mse_masked(&target, &mask).item() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn rmse_plain() {
        assert!((rmse(&[1.0, 2.0], &[0.0, 0.0]) - (2.5f32).sqrt()).abs() < 1e-6);
        assert_eq!(rmse(&[], &[]), 0.0);
    }
}
