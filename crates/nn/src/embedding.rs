//! Embedding table — the one-hot-times-linear of Eq. (7)-(9) in the paper,
//! implemented as a gather for efficiency.

use crate::module::Module;
use hire_tensor::{init, Tensor};
use rand::Rng;

/// Lookup table mapping categorical ids to dense vectors.
///
/// Mathematically identical to multiplying a one-hot encoding by a learned
/// `[vocab, dim]` matrix (the paper's per-attribute linear transformations
/// `f_U^k`, `f_I^k`, `f_R`), but computed as a row gather.
pub struct Embedding {
    table: Tensor,
}

impl Embedding {
    /// `N(0, 0.1^2)`-initialized table.
    pub fn new(vocab: usize, dim: usize, rng: &mut impl Rng) -> Self {
        assert!(vocab > 0, "vocab must be positive");
        Embedding {
            table: Tensor::parameter(init::embedding(vocab, dim, 0.1, rng)),
        }
    }

    /// The raw table parameter `[vocab, dim]`.
    pub fn table(&self) -> &Tensor {
        &self.table
    }

    /// Looks up a batch of ids, producing `[indices.len(), dim]`.
    pub fn forward(&self, indices: &[usize]) -> Tensor {
        self.table.gather_rows(indices)
    }
}

impl Module for Embedding {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.table.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lookup_shape_and_grad() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let e = Embedding::new(10, 4, &mut rng);
        let out = e.forward(&[1, 3, 3]);
        assert_eq!(out.dims(), vec![3, 4]);
        out.square().sum().backward();
        let g = e.table().grad().unwrap();
        // only rows 1 and 3 receive gradient
        assert!(g.as_slice()[..4].iter().all(|&x| x == 0.0));
        assert!(g.as_slice()[4..8].iter().any(|&x| x != 0.0));
        assert!(g.as_slice()[12..16].iter().any(|&x| x != 0.0));
    }

    #[test]
    fn duplicate_indices_accumulate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let e = Embedding::new(4, 2, &mut rng);
        let out = e.forward(&[2, 2]);
        out.sum().backward();
        let g = e.table().grad().unwrap();
        assert_eq!(g.as_slice()[4], 2.0);
        assert_eq!(g.as_slice()[5], 2.0);
    }
}
