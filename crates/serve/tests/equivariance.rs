//! Property 5.1 on the serving forwards: permuting a context's users and
//! items permutes the predicted rating matrix identically — for the frozen
//! f32 forward and both quantized forwards, not just the tape model
//! (`tests/properties.rs` at the root covers that one). CI runs this under
//! every `{HIRE_ISA} × {HIRE_THREADS}` point.

use hire_core::{HireConfig, HireModel};
use hire_data::{training_context, PredictionContext, SyntheticConfig};
use hire_graph::NeighborhoodSampler;
use hire_serve::{FrozenModel, QuantizedModel};
use hire_tensor::{NdArray, QuantMode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn permute2(a: &NdArray, rows: &[usize], cols: &[usize]) -> NdArray {
    let mut out = NdArray::zeros([rows.len(), cols.len()]);
    for (r, &pr) in rows.iter().enumerate() {
        for (c, &pc) in cols.iter().enumerate() {
            *out.at_mut(&[r, c]) = a.at(&[pr, pc]);
        }
    }
    out
}

/// Runs `forward` on `ctx` and on a seeded row/column permutation of it and
/// checks the outputs are the same matrix under that permutation (up to
/// the float reassociation a reordered softmax sum allows).
fn assert_equivariant(
    name: &str,
    forward: impl Fn(&PredictionContext) -> NdArray,
    ctx: &PredictionContext,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let mut user_perm: Vec<usize> = (0..ctx.n()).collect();
    let mut item_perm: Vec<usize> = (0..ctx.m()).collect();
    user_perm.shuffle(&mut rng);
    item_perm.shuffle(&mut rng);
    let permuted = PredictionContext {
        users: user_perm.iter().map(|&r| ctx.users[r]).collect(),
        items: item_perm.iter().map(|&c| ctx.items[c]).collect(),
        ratings: permute2(&ctx.ratings, &user_perm, &item_perm),
        input_mask: permute2(&ctx.input_mask, &user_perm, &item_perm),
        target_mask: permute2(&ctx.target_mask, &user_perm, &item_perm),
    };
    let pred = forward(ctx);
    let pred_p = forward(&permuted);
    for (r, &pr) in user_perm.iter().enumerate() {
        for (c, &pc) in item_perm.iter().enumerate() {
            let (a, b) = (pred_p.at(&[r, c]), pred.at(&[pr, pc]));
            assert!((a - b).abs() < 2e-3, "{name} ({r},{c}): {a} vs {b}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn serving_forwards_are_permutation_equivariant(seed in 0u64..100) {
        let dataset = SyntheticConfig::movielens_like().scaled(25, 20, (6, 12)).generate(seed);
        let graph = dataset.graph();
        let mut rng = StdRng::seed_from_u64(seed);
        let config = HireConfig::fast().with_blocks(2).with_context_size(5, 4);
        let model = HireModel::new(&dataset, &config, &mut rng);
        let ctx = training_context(
            &graph, &NeighborhoodSampler, dataset.ratings[0], 5, 4, 0.2, &mut rng,
        ).expect("training context");

        let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
        assert_equivariant(
            "frozen",
            |c| frozen.forward_nograd(c, &dataset).expect("frozen forward"),
            &ctx,
            seed,
        );
        for mode in [QuantMode::Int8, QuantMode::F16] {
            let quant = QuantizedModel::from_frozen(&frozen, mode);
            assert_equivariant(
                mode.label(),
                |c| quant.forward_nograd(c, &dataset).expect("quantized forward"),
                &ctx,
                seed,
            );
        }
    }
}
