//! Weight initialization schemes.

use crate::ndarray::NdArray;
use rand::Rng;

/// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> NdArray {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    NdArray::rand_uniform([fan_in, fan_out], -a, a, rng)
}

/// Embedding-table initialization: `N(0, scale^2)` over `[vocab, dim]`.
pub fn embedding(vocab: usize, dim: usize, scale: f32, rng: &mut impl Rng) -> NdArray {
    NdArray::randn([vocab, dim], 0.0, scale, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_uniform_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = xavier_uniform(64, 64, &mut rng);
        let a = (6.0 / 128.0f32).sqrt();
        assert!(w.max_all() <= a && w.min_all() >= -a);
        assert_eq!(w.dims(), &[64, 64]);
    }
}
