//! The evidence probes read what they claim to read (`hire_eval`'s probes
//! module; EXPERIMENTS.md's probe rows rest on them).
//!
//! - On user cold-start, `EntityMean` answers a cold user with the mean of
//!   its visible ratings, so moving every support rating from the scale's
//!   bottom to its top moves each answer by the whole scale: level 1,
//!   exactly. `NeuMF` never reads the visible graph: level 0, exactly, and
//!   a twin's support transfers exactly as much as a random user's.
//! - Fig. 9's shares, on a hand-built context and hand-built attention:
//!   the mass on the evidence over the evidence's share of the keys.

use hire_baselines::{EdgeTrainConfig, EntityMean, NeuMF, RatingModel};
use hire_core::{HimAttention, HireConfig, HireModel};
use hire_data::{ColdStartScenario, ColdStartSplit, Dataset, PredictionContext, SyntheticConfig};
use hire_eval::{cell_shares, support_level, support_transfer, CellShare, Layer};
use hire_tensor::NdArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn user_cold() -> (Dataset, ColdStartSplit) {
    let dataset = SyntheticConfig::movielens_like()
        .scaled(60, 50, (10, 20))
        .generate(5);
    let split = ColdStartSplit::new(&dataset, ColdStartScenario::UserCold, 0.2, 0.3, 5);
    (dataset, split)
}

fn fitted(
    mut model: Box<dyn RatingModel>,
    dataset: &Dataset,
    split: &ColdStartSplit,
) -> Box<dyn RatingModel> {
    model.fit(
        dataset,
        &split.train_graph(dataset),
        &mut StdRng::seed_from_u64(1),
    );
    model
}

#[test]
fn entity_mean_reads_level_one_and_neumf_level_zero() {
    let (dataset, split) = user_cold();
    let entity_mean = fitted(Box::new(EntityMean::new()), &dataset, &split);
    let neumf = fitted(
        Box::new(NeuMF::new(
            4,
            EdgeTrainConfig {
                epochs: 1,
                batch_size: 64,
                lr: 1e-2,
            },
        )),
        &dataset,
        &split,
    );
    assert_eq!(
        support_level(&*entity_mean, &dataset, &split, usize::MAX),
        Some(1.0)
    );
    assert_eq!(
        support_level(&*neumf, &dataset, &split, usize::MAX),
        Some(0.0)
    );

    // A constant per user orders nothing; an unread support cannot tell a
    // twin from a random user.
    let transfer = support_transfer(&*entity_mean, &dataset, &split, usize::MAX, 3);
    assert!(transfer.entities > 0);
    assert_eq!((transfer.twin, transfer.random), (0.0, 0.0));
    let transfer = support_transfer(&*neumf, &dataset, &split, usize::MAX, 3);
    assert_eq!(transfer.twin.to_bits(), transfer.random.to_bits());
}

/// A 4 × 4 context asked about cell (0, 0): item 0 is revealed by rows 1
/// and 2 (half the rows), user 0 revealed items 2 and 3 (half the items).
fn hand_built_context() -> PredictionContext {
    let mut ratings = NdArray::zeros([4, 4]);
    let mut input_mask = NdArray::zeros([4, 4]);
    let mut target_mask = NdArray::zeros([4, 4]);
    for (r, c, v) in [
        (1, 0, 4.0),
        (2, 0, 2.0),
        (0, 2, 5.0),
        (0, 3, 1.0),
        (3, 1, 3.0),
    ] {
        ratings.as_mut_slice()[r * 4 + c] = v;
        input_mask.as_mut_slice()[r * 4 + c] = 1.0;
    }
    target_mask.as_mut_slice()[0] = 1.0;
    PredictionContext {
        users: vec![10, 11, 12, 13],
        items: vec![20, 21, 22, 23],
        ratings,
        input_mask,
        target_mask,
    }
}

/// Attention `[views, heads, t, t]` that is uniform except at (`view`,
/// head 0, query 0), whose row is `row`.
fn attention(views: usize, t: usize, view: usize, row: [f32; 4]) -> NdArray {
    let mut weights = NdArray::from_vec([views, 2, t, t], vec![1.0 / t as f32; views * 2 * t * t]);
    weights.as_mut_slice()[view * 2 * t * t..][..t].copy_from_slice(&row);
    weights
}

#[test]
fn shares_on_a_hand_built_context() {
    let ctx = hand_built_context();
    let attns = [HimAttention {
        mbu: attention(4, 4, 0, [0.1, 0.4, 0.4, 0.1]),
        mbi: attention(4, 4, 0, [0.2, 0.2, 0.1, 0.5]),
        mba: NdArray::zeros([0]),
    }];
    let share = |layer, head| CellShare {
        block: 0,
        layer,
        head,
        share: match (layer, head) {
            // (0.4 + 0.4) / (2 / 4) and (0.1 + 0.5) / (2 / 4).
            (Layer::Mbu, 0) => 1.6,
            (Layer::Mbi, 0) => 1.2,
            _ => 1.0,
        },
    };
    let expected = vec![
        share(Layer::Mbu, 0),
        share(Layer::Mbu, 1),
        share(Layer::Mbi, 0),
        share(Layer::Mbi, 1),
    ];
    let got = cell_shares(&attns, &ctx.input_mask, 0, 0);
    assert_eq!(got.len(), expected.len());
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!((g.block, g.layer, g.head), (e.block, e.layer, e.head));
        assert!((g.share - e.share).abs() < 1e-6, "{g:?} vs {e:?}");
    }
}

/// The probe's reading of a real model's rows: MBU `[m, heads, n, n]` and
/// MBI `[n, heads, m, m]` indexed (view, head, query, key), each query's
/// row a distribution over the keys — so a share above 1 on the evidence
/// is paid for below 1 elsewhere.
#[test]
fn a_real_models_rows_are_read_query_then_key() {
    let dataset = SyntheticConfig::movielens_like()
        .scaled(20, 20, (4, 8))
        .generate(2);
    let config = HireConfig::fast().with_blocks(2).with_context_size(4, 4);
    let model = HireModel::new(&dataset, &config, &mut StdRng::seed_from_u64(3));
    let mut ctx = hand_built_context();
    ctx.users = vec![0, 1, 2, 3];
    ctx.items = vec![0, 1, 2, 3];
    let (_, attns) = model.forward_with_attention(&ctx, &dataset);
    assert_eq!(attns.len(), 2);
    for attn in &attns {
        assert_eq!(attn.mbu.dims(), &[4, config.heads, 4, 4]);
        assert_eq!(attn.mbi.dims(), &[4, config.heads, 4, 4]);
        for weights in [&attn.mbu, &attn.mbi] {
            for head in 0..config.heads {
                let row: f32 = (0..4).map(|key| weights.at(&[0, head, 0, key])).sum();
                assert!((row - 1.0).abs() < 1e-5, "row sums to {row}");
            }
        }
    }
    let shares = cell_shares(&attns, &ctx.input_mask, 0, 0);
    assert_eq!(shares.len(), 2 * 2 * config.heads);
    assert!(shares.iter().all(|s| s.share.is_finite() && s.share >= 0.0));
}
