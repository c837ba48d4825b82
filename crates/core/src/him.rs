//! The Heterogeneous Interaction Module (HIM, § IV-C): three stacked
//! parameter-sharing MHSA layers modeling interactions between users (MBU),
//! between items (MBI) and between attributes (MBA).

use crate::config::HireConfig;
use hire_nn::{LayerNorm, Module, MultiHeadSelfAttention};
use hire_tensor::{NdArray, Tensor};
use rand::Rng;

/// Attention weights captured from one HIM block (for the Fig. 9 case
/// study). Empty arrays for disabled layers.
#[derive(Debug, Clone)]
pub struct HimAttention {
    /// MBU weights `[m, heads, n, n]` — user-user attention per item view.
    pub mbu: NdArray,
    /// MBI weights `[n, heads, m, m]` — item-item attention per user view.
    pub mbi: NdArray,
    /// MBA weights `[n*m, heads, h, h]` — attribute attention per pair.
    pub mba: NdArray,
}

/// One HIM block.
pub struct HimBlock {
    mbu: Option<MultiHeadSelfAttention>,
    mbi: Option<MultiHeadSelfAttention>,
    mba: Option<MultiHeadSelfAttention>,
    norm_mbu: Option<LayerNorm>,
    norm_mbi: Option<LayerNorm>,
    norm_mba: Option<LayerNorm>,
    residual: bool,
    num_attrs: usize,
    attr_dim: usize,
}

impl HimBlock {
    /// Builds a block for embeddings of `num_attrs * attr_dim` channels.
    pub fn new(config: &HireConfig, num_attrs: usize, rng: &mut impl Rng) -> Self {
        let e = num_attrs * config.attr_dim;
        let (heads, head_dim) = (config.heads, config.head_dim);
        let norm = |enabled: bool, dim: usize| enabled.then(|| LayerNorm::new(dim));
        HimBlock {
            mbu: config
                .enable_mbu
                .then(|| MultiHeadSelfAttention::new(e, heads, head_dim, rng)),
            mbi: config
                .enable_mbi
                .then(|| MultiHeadSelfAttention::new(e, heads, head_dim, rng)),
            mba: config
                .enable_mba
                .then(|| MultiHeadSelfAttention::new(config.attr_dim, heads, head_dim, rng)),
            norm_mbu: if config.enable_mbu {
                norm(config.layer_norm, e)
            } else {
                None
            },
            norm_mbi: if config.enable_mbi {
                norm(config.layer_norm, e)
            } else {
                None
            },
            norm_mba: if config.enable_mba {
                norm(config.layer_norm, e)
            } else {
                None
            },
            residual: config.residual,
            num_attrs,
            attr_dim: config.attr_dim,
        }
    }

    fn post(&self, x: &Tensor, y: Tensor, norm: &Option<LayerNorm>) -> Tensor {
        let z = if self.residual { x.add(&y) } else { y };
        match norm {
            Some(ln) => ln.forward(&z),
            None => z,
        }
    }

    /// Applies the block to `H ∈ R^{n×m×e}` (Eq. 10-15).
    pub fn forward(&self, h: &Tensor) -> Tensor {
        self.run(h, false).0
    }

    /// Applies the block and captures attention weights.
    pub fn forward_with_attention(&self, h: &Tensor) -> (Tensor, HimAttention) {
        self.run(h, true)
    }

    fn run(&self, h: &Tensor, keep: bool) -> (Tensor, HimAttention) {
        let dims = h.dims();
        assert_eq!(dims.len(), 3, "HIM input must be [n, m, e]");
        let (n, m, e) = (dims[0], dims[1], dims[2]);
        assert_eq!(
            e,
            self.num_attrs * self.attr_dim,
            "embedding width mismatch"
        );

        // One `[n, m, e]` activation, three `[outer, tokens, inner]` views
        // of its rows — nothing is permuted. MBU: tokens = users, one
        // sequence per item (H[:, j, :]); MBI: tokens = items, one per user
        // (H[k, :, :]); MBA: tokens = the `h` attribute rows of width
        // `attr_dim` inside each of the `n·m` cells.
        let layers = [
            (&self.mbu, &self.norm_mbu, [1, n, m]),
            (&self.mbi, &self.norm_mbi, [n, m, 1]),
            (&self.mba, &self.norm_mba, [n * m, self.num_attrs, 1]),
        ];
        let mut weights = [(); 3].map(|()| NdArray::zeros([0]));
        let mut x = h.clone();
        for (kept, (mhsa, norm, layout)) in weights.iter_mut().zip(layers) {
            let Some(mhsa) = mhsa else { continue };
            let out = mhsa.forward_layout(&x, layout);
            if keep {
                *kept = out.weights();
            }
            x = self.post(&x, out.output, norm);
        }
        let [mbu, mbi, mba] = weights;
        (x, HimAttention { mbu, mbi, mba })
    }
}

impl Module for HimBlock {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        for mhsa in [&self.mbu, &self.mbi, &self.mba].into_iter().flatten() {
            p.extend(mhsa.parameters());
        }
        for norm in [&self.norm_mbu, &self.norm_mbi, &self.norm_mba]
            .into_iter()
            .flatten()
        {
            p.extend(norm.parameters());
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn config() -> HireConfig {
        HireConfig {
            attr_dim: 4,
            num_blocks: 1,
            heads: 2,
            head_dim: 4,
            context_users: 4,
            context_items: 3,
            input_ratio: 0.1,
            enable_mbu: true,
            enable_mbi: true,
            enable_mba: true,
            residual: true,
            layer_norm: true,
        }
    }

    fn input(n: usize, m: usize, e: usize, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::constant(NdArray::randn([n, m, e], 0.0, 1.0, &mut rng))
    }

    #[test]
    fn forward_preserves_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let block = HimBlock::new(&config(), 5, &mut rng);
        let h = input(4, 3, 20, 1);
        assert_eq!(block.forward(&h).dims(), vec![4, 3, 20]);
    }

    #[test]
    fn attention_shapes_match_views() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let block = HimBlock::new(&config(), 5, &mut rng);
        let h = input(4, 3, 20, 2);
        let (_, attn) = block.forward_with_attention(&h);
        assert_eq!(
            attn.mbu.dims(),
            &[3, 2, 4, 4],
            "item views x heads x users^2"
        );
        assert_eq!(
            attn.mbi.dims(),
            &[4, 2, 3, 3],
            "user views x heads x items^2"
        );
        assert_eq!(attn.mba.dims(), &[12, 2, 5, 5], "pairs x heads x attrs^2");
    }

    #[test]
    fn ablated_layers_are_skipped() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let cfg = config().with_layers(false, true, false);
        let block = HimBlock::new(&cfg, 5, &mut rng);
        let h = input(4, 3, 20, 3);
        let (_, attn) = block.forward_with_attention(&h);
        assert_eq!(attn.mbu.numel(), 0);
        assert!(attn.mbi.numel() > 0);
        assert_eq!(attn.mba.numel(), 0);
        // fewer params than the full block
        let full = HimBlock::new(&config(), 5, &mut rng);
        assert!(block.num_parameters() < full.num_parameters());
    }

    #[test]
    fn gradients_flow_through_block() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let block = HimBlock::new(&config(), 5, &mut rng);
        let h = input(4, 3, 20, 4);
        block.forward(&h).square().sum().backward();
        for (i, p) in block.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }

    /// Property 5.1: permuting users and items permutes the output the same
    /// way (per-block version; the full-model test lives in the model
    /// module).
    #[test]
    fn block_is_permutation_equivariant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let block = HimBlock::new(&config(), 5, &mut rng);
        let h_val = NdArray::randn([4, 3, 20], 0.0, 1.0, &mut rng);
        let out = block.forward(&Tensor::constant(h_val.clone())).value();

        let user_perm = [2usize, 0, 3, 1];
        let item_perm = [1usize, 2, 0];
        let mut permuted = NdArray::zeros([4, 3, 20]);
        for (r, &pr) in user_perm.iter().enumerate() {
            for (c, &pc) in item_perm.iter().enumerate() {
                for d in 0..20 {
                    *permuted.at_mut(&[r, c, d]) = h_val.at(&[pr, pc, d]);
                }
            }
        }
        let out_p = block.forward(&Tensor::constant(permuted)).value();
        for (r, &pr) in user_perm.iter().enumerate() {
            for (c, &pc) in item_perm.iter().enumerate() {
                for d in 0..20 {
                    let a = out_p.at(&[r, c, d]);
                    let b = out.at(&[pr, pc, d]);
                    assert!(
                        (a - b).abs() < 1e-3,
                        "mismatch at ({r},{c},{d}): {a} vs {b}"
                    );
                }
            }
        }
    }
}
