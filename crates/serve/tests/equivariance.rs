//! Property 5.1 on the serving forwards: permuting a context's users and
//! items permutes the predicted rating matrix identically — for the frozen
//! f32 forward and the same forward over int8-stored weights, not just the
//! tape model (`tests/properties.rs` at the root covers that one), through
//! the single and the batched entry point, at context shapes on both sides
//! of the attention kernel's lane-group and softmax-body widths (5×4, a
//! ragged 7×9, 16×16). CI runs this under every `{HIRE_ISA} ×
//! {HIRE_THREADS}` point.

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

/// A seeded row/column permutation of `ctx`, with the permutations.
fn permuted(ctx: &PredictionContext, seed: u64) -> (PredictionContext, Vec<usize>, Vec<usize>) {
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
    (permuted, user_perm, item_perm)
}

/// Runs `forward` on a batch of contexts and on seeded row/column
/// permutations of them, and checks each output is the same matrix under
/// its context's permutation (up to the float reassociation a reordered
/// softmax sum allows).
fn assert_equivariant(
    name: &str,
    forward: impl Fn(&[&PredictionContext]) -> Vec<NdArray>,
    ctxs: &[&PredictionContext],
    seed: u64,
) {
    let shuffled: Vec<_> = ctxs
        .iter()
        .enumerate()
        .map(|(k, ctx)| permuted(ctx, seed + k as u64))
        .collect();
    let preds = forward(ctxs);
    let preds_p = forward(&shuffled.iter().map(|(ctx, _, _)| ctx).collect::<Vec<_>>());
    assert_eq!(
        preds.len(),
        ctxs.len(),
        "{name}: one prediction per context"
    );
    for (k, (pred, pred_p)) in preds.iter().zip(&preds_p).enumerate() {
        let (_, user_perm, item_perm) = &shuffled[k];
        for (r, &pr) in user_perm.iter().enumerate() {
            for (c, &pc) in item_perm.iter().enumerate() {
                let (a, b) = (pred_p.at(&[r, c]), pred.at(&[pr, pc]));
                assert!((a - b).abs() < 2e-3, "{name} ctx {k} ({r},{c}): {a} vs {b}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn serving_forwards_are_permutation_equivariant(seed in 0u64..100) {
        let dataset = SyntheticConfig::movielens_like().scaled(25, 20, (6, 12)).generate(seed);
        let graph = dataset.graph();
        for (n, m) in [(5, 4), (7, 9), (16, 16)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let config = HireConfig::fast().with_blocks(2).with_context_size(n, m);
            let model = HireModel::new(&dataset, &config, &mut rng);
            let ctxs: Vec<PredictionContext> = (0..3)
                .map(|k| {
                    training_context(
                        &graph, &NeighborhoodSampler, dataset.ratings[k], n, m, 0.2, &mut rng,
                    ).expect("training context")
                })
                .collect();
            let batch: Vec<&PredictionContext> = ctxs.iter().collect();

            let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
            assert_equivariant(
                &format!("frozen {n}x{m}"),
                |c| vec![frozen.forward_nograd(c[0], &dataset).expect("frozen forward")],
                &batch[..1],
                seed,
            );
            assert_equivariant(
                &format!("frozen {n}x{m} batched"),
                |c| frozen.forward_nograd_batch(c, &dataset).expect("frozen batch"),
                &batch,
                seed,
            );
            let quant = QuantizedModel::from_frozen(&frozen, QuantMode::Int8);
            assert_equivariant(
                &format!("int8 {n}x{m}"),
                |c| vec![quant.forward_nograd(c[0], &dataset).expect("quantized forward")],
                &batch[..1],
                seed,
            );
            assert_equivariant(
                &format!("int8 {n}x{m} batched"),
                |c| {
                    quant
                        .forward_nograd_batch_within(c, &dataset, None)
                        .expect("quantized batch")
                        .expect("no deadline")
                },
                &batch,
                seed,
            );
        }
    }
}
