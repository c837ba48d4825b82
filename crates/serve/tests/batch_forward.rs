//! What the frozen model's batched forward promises: every entry, whatever
//! the shapes mixed in the batch, is bit-identical to the one-context
//! `forward_nograd` it batches over; a
//! deadline that has passed costs no forward (`Ok(None)`); and a bad context
//! is reported as a typed error naming the *first* offender in context
//! order, whatever comes after it.

use hire_core::{HireConfig, HireModel};
use hire_data::{test_context_with_ratio, Dataset, PredictionContext};
use hire_error::HireError;
use hire_graph::{NeighborhoodSampler, Rating};
use hire_serve::FrozenModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn dataset() -> Dataset {
    hire_data::SyntheticConfig::movielens_like()
        .scaled(40, 35, (8, 15))
        .generate(42)
}

fn frozen_and_contexts(
    dataset: &Dataset,
    count: usize,
    (n, m): (usize, usize),
) -> (FrozenModel, Vec<PredictionContext>) {
    let model = HireModel::new(
        dataset,
        &HireConfig::fast().with_context_size(n, m),
        &mut StdRng::seed_from_u64(1234),
    );
    let frozen = FrozenModel::from_model(&model, dataset).expect("freeze");
    (frozen, contexts(dataset, count, (n, m)))
}

fn contexts(dataset: &Dataset, count: usize, (n, m): (usize, usize)) -> Vec<PredictionContext> {
    let graph = dataset.graph();
    let mut rng = StdRng::seed_from_u64(7);
    (0..count)
        .map(|k| {
            let seed = dataset.ratings[k * 3 % dataset.ratings.len()];
            test_context_with_ratio(
                &graph,
                &NeighborhoodSampler,
                &[Rating::new(seed.user, seed.item, seed.value)],
                n,
                m,
                0.3,
                &mut rng,
            )
            .expect("test context")
        })
        .collect()
}

#[test]
fn batched_forward_matches_single() {
    let dataset = dataset();
    // 19 contexts, every third of them a smaller shape: the batch's one
    // workspace is sized for the largest and reused by every context.
    let (frozen, mut ctxs) = frozen_and_contexts(&dataset, 19, (9, 7));
    for (k, small) in contexts(&dataset, 19, (5, 4)).into_iter().enumerate() {
        if k % 3 == 1 {
            ctxs[k] = small;
        }
    }
    assert!(ctxs.iter().any(|c| (c.n(), c.m()) == (5, 4)));
    assert!(ctxs.iter().any(|c| (c.n(), c.m()) == (9, 7)));
    let refs: Vec<&PredictionContext> = ctxs.iter().collect();
    let batch = frozen.forward_nograd_batch(&refs, &dataset).expect("batch");
    assert_eq!(batch.len(), ctxs.len());
    for (k, ctx) in ctxs.iter().enumerate() {
        let single = frozen.forward_nograd(ctx, &dataset).expect("single");
        assert_eq!(single.dims(), batch[k].dims());
        for (x, y) in single.as_slice().iter().zip(batch[k].as_slice()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "ctx {k}: batch deviates from single"
            );
        }
    }
}

#[test]
fn a_deadline_already_passed_returns_none() {
    let dataset = dataset();
    let (frozen, ctxs) = frozen_and_contexts(&dataset, 4, (6, 5));
    let refs: Vec<&PredictionContext> = ctxs.iter().collect();
    let passed = Instant::now();
    let out = frozen
        .forward_nograd_batch_within(&refs, &dataset, Some(passed))
        .expect("a timeout is not an error");
    assert!(out.is_none(), "a forward ran past its deadline");
    // The same batch with time to spare is answered in full.
    let far = Instant::now() + Duration::from_secs(3600);
    let out = frozen
        .forward_nograd_batch_within(&refs, &dataset, Some(far))
        .expect("valid contexts");
    assert_eq!(out.expect("an hour is enough").len(), ctxs.len());
}

#[test]
fn the_first_bad_context_in_order_is_the_one_reported() {
    let dataset = dataset();
    let (frozen, mut ctxs) = frozen_and_contexts(&dataset, 5, (6, 5));
    let (bad_user, bad_item) = (dataset.num_users + 101, dataset.num_items + 303);
    ctxs[1].users[2] = bad_user;
    ctxs[3].items[0] = bad_item;
    let refs: Vec<&PredictionContext> = ctxs.iter().collect();
    let far = Instant::now() + Duration::from_secs(3600);
    match frozen.forward_nograd_batch_within(&refs, &dataset, Some(far)) {
        Err(HireError::InvalidData { message, .. }) => {
            assert!(
                message.contains(&format!("user {bad_user} out of range")),
                "the error should name context 1's user id {bad_user}: {message}"
            );
            assert!(
                !message.contains(&bad_item.to_string()),
                "context 3's item id {bad_item} was reported ahead of context 1's: {message}"
            );
        }
        other => panic!("expected a typed InvalidData error, got {other:?}"),
    }
}
