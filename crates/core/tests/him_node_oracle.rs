//! The HIM stack node against the tape composition it replaced. `HimStack`
//! trains the K blocks as one autograd node (its forward the serving
//! forward's body, its backward the layers walked in reverse); before it,
//! each block was `HimBlock`: one MHSA node per layer, an `add` node per
//! residual and a `layer_norm_last` node per norm, composed on the tape.
//! That composition is kept here, verbatim, as the oracle (`OracleBlock`),
//! built from the same seed — so from the same weights — as the stack.
//!
//! Over generated contexts (`n, m ∈ 2..=8`), 1–3 blocks, all seven
//! MBU / MBI / MBA ablations and the residual and the norm each on and
//! off, with layer widths either side of the one-pass predicate (a layer
//! whose model dim is at most its head dim runs in one pass on avx2 /
//! avx512), the node's output, `dH` and every parameter's gradient must be
//! the composition's, bit for bit. Tensor ops dispatch on the process's
//! ISA, so each ISA is one run of this file under `HIRE_ISA` (CI runs it
//! natively and at `avx2`).

use hire_core::{HimStack, HireConfig};
use hire_nn::{LayerNorm, Module, MultiHeadSelfAttention};
use hire_tensor::{NdArray, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One HIM block as the tape composed it (the former `HimBlock`).
struct OracleBlock {
    mbu: Option<MultiHeadSelfAttention>,
    mbi: Option<MultiHeadSelfAttention>,
    mba: Option<MultiHeadSelfAttention>,
    norm_mbu: Option<LayerNorm>,
    norm_mbi: Option<LayerNorm>,
    norm_mba: Option<LayerNorm>,
    residual: bool,
    num_attrs: usize,
}

impl OracleBlock {
    fn new(config: &HireConfig, num_attrs: usize, rng: &mut impl Rng) -> Self {
        let e = num_attrs * config.attr_dim;
        let (heads, head_dim) = (config.heads, config.head_dim);
        let norm = |enabled: bool, dim: usize| enabled.then(|| LayerNorm::new(dim));
        OracleBlock {
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
        }
    }

    fn post(&self, x: &Tensor, y: Tensor, norm: &Option<LayerNorm>) -> Tensor {
        let z = if self.residual { x.add(&y) } else { y };
        match norm {
            Some(ln) => ln.forward(&z),
            None => z,
        }
    }

    fn forward(&self, h: &Tensor) -> Tensor {
        let dims = h.dims();
        let (n, m) = (dims[0], dims[1]);
        let layers = [
            (&self.mbu, &self.norm_mbu, [1, n, m]),
            (&self.mbi, &self.norm_mbi, [n, m, 1]),
            (&self.mba, &self.norm_mba, [n * m, self.num_attrs, 1]),
        ];
        let mut x = h.clone();
        for (mhsa, norm, layout) in layers {
            let Some(mhsa) = mhsa else { continue };
            let out = mhsa.forward_layout(&x, layout);
            x = self.post(&x, out.output, norm);
        }
        x
    }
}

impl Module for OracleBlock {
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

fn bits(a: &NdArray) -> Vec<u32> {
    a.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn grad_bits(t: &Tensor) -> Option<Vec<u32>> {
    t.grad().as_ref().map(bits)
}

/// The shapes and switches of one case.
struct Case {
    n: usize,
    m: usize,
    num_attrs: usize,
    config: HireConfig,
    /// Whether `H` takes a gradient (the encoder's output does; a constant
    /// input skips the first layer's `dX`).
    h_grad: bool,
    seed: u64,
}

/// Runs the node and the composition from the same weights, input and
/// output gradient, and asserts every bit equal.
fn assert_node_is_the_composition(case: &Case) {
    let Case {
        n,
        m,
        num_attrs,
        ref config,
        h_grad,
        seed,
    } = *case;
    let e = num_attrs * config.attr_dim;
    let stack = HimStack::new(config, num_attrs, &mut StdRng::seed_from_u64(seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let oracle: Vec<OracleBlock> = (0..config.num_blocks)
        .map(|_| OracleBlock::new(config, num_attrs, &mut rng))
        .collect();
    let (node_params, oracle_params) = (
        stack.parameters(),
        oracle
            .iter()
            .flat_map(Module::parameters)
            .collect::<Vec<_>>(),
    );
    assert_eq!(node_params.len(), oracle_params.len(), "parameter count");
    for (i, (a, b)) in node_params.iter().zip(&oracle_params).enumerate() {
        assert_eq!(
            bits(&a.value()),
            bits(&b.value()),
            "parameter {i} initialised apart"
        );
    }

    let mut data = StdRng::seed_from_u64(seed ^ 0x5eed);
    let h = NdArray::randn([n, m, e], 0.0, 1.0, &mut data);
    let seed_grad = NdArray::randn([n, m, e], 0.0, 1.0, &mut data);
    let leaf = |v: &NdArray| {
        if h_grad {
            Tensor::parameter(v.clone())
        } else {
            Tensor::constant(v.clone())
        }
    };
    let (h_node, h_oracle) = (leaf(&h), leaf(&h));

    let out_node = stack.forward(&h_node);
    let out_oracle = oracle
        .iter()
        .fold(h_oracle.clone(), |x, block| block.forward(&x));
    assert_eq!(
        bits(&out_node.value()),
        bits(&out_oracle.value()),
        "output differs"
    );
    out_node.backward_with(seed_grad.clone());
    out_oracle.backward_with(seed_grad);
    assert_eq!(grad_bits(&h_node), grad_bits(&h_oracle), "dH differs");
    for (i, (a, b)) in node_params.iter().zip(&oracle_params).enumerate() {
        assert!(a.grad().is_some(), "parameter {i} got no gradient");
        assert_eq!(
            grad_bits(a),
            grad_bits(b),
            "parameter {i}'s gradient differs"
        );
    }
}

/// A `HireConfig` of `blocks` blocks with the layers of bit mask `layers`
/// (MBU 1, MBI 2, MBA 4) enabled.
fn config(
    attr_dim: usize,
    (heads, head_dim): (usize, usize),
    blocks: usize,
    layers: usize,
    residual: bool,
    layer_norm: bool,
) -> HireConfig {
    HireConfig {
        attr_dim,
        num_blocks: blocks,
        heads,
        head_dim,
        residual,
        layer_norm,
        ..HireConfig::fast()
    }
    .with_layers(layers & 1 != 0, layers & 2 != 0, layers & 4 != 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Contexts from 2 × 2 to 8 × 8; 2–4 attribute rows; MBA's width one
    /// below, at and above its head dim, so it runs in one pass or as the
    /// composition; every ablation, residual and norm on and off.
    #[test]
    fn the_node_is_the_tape_composition_bitwise(
        (n, m) in (2usize..=8, 2usize..=8),
        (num_attrs, head_dim, side) in (2usize..=4, 2usize..=9, 0usize..3),
        (heads, blocks) in (1usize..=3, 1usize..=3),
        layers in 1usize..8,
        (residual, layer_norm, h_grad) in (0usize..2, 0usize..2, 0usize..2),
        seed in 0u64..1_000_000,
    ) {
        let attr_dim = (head_dim + side).saturating_sub(1).max(1);
        let config = config(
            attr_dim,
            (heads, head_dim),
            blocks,
            layers,
            residual == 1,
            layer_norm == 1,
        );
        assert_node_is_the_composition(&Case {
            n,
            m,
            num_attrs,
            config,
            h_grad: h_grad == 1,
            seed,
        });
    }
}

/// The `fast` shape the benchmark trains — nine attribute rows of width 8
/// under 4 × 8 heads, two blocks — on a 16 × 16 context, every layer on.
#[test]
fn the_fast_shape_is_the_tape_composition_bitwise() {
    assert_node_is_the_composition(&Case {
        n: 16,
        m: 16,
        num_attrs: 9,
        config: HireConfig::fast(),
        h_grad: true,
        seed: 58,
    });
}
