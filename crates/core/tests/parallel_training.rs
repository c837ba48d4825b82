//! Thread-count invariance of the full HIRE model: forward, backward, and
//! an entire short training run must produce identical bits whether the
//! compute pool has 1 worker or many.
//!
//! This is the end-to-end seal on the parallel compute layer's contract:
//! the per-kernel guarantees (fixed chunk grids, disjoint output slabs,
//! ordered reductions — see `hire-tensor`'s linalg docs) have to survive
//! composition through attention stacks, autograd, gradient clipping, and
//! the optimizer before they mean anything for reproducibility.

use hire_core::{train, HireConfig, HireModel, TrainConfig, TrainOutcome};
use hire_data::{test_context_with_ratio, Dataset, SyntheticConfig};
use hire_graph::{NeighborhoodSampler, Rating};
use hire_nn::Module;
use hire_par::{with_pool, ThreadPool};
use hire_tensor::NdArray;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn small_dataset() -> Dataset {
    SyntheticConfig::movielens_like()
        .scaled(40, 30, (8, 14))
        .generate(9)
}

fn base_config() -> HireConfig {
    HireConfig {
        attr_dim: 4,
        num_blocks: 1,
        heads: 2,
        head_dim: 4,
        context_users: 6,
        context_items: 6,
        input_ratio: 0.2,
        enable_mbu: true,
        enable_mbi: true,
        enable_mba: true,
        residual: true,
        layer_norm: true,
    }
}

/// The architectural variations the invariance proof must cover: block
/// depth, context shape, each attention tier alone, and the normalization
/// / residual toggles that change which kernels run.
fn config_zoo() -> Vec<(&'static str, HireConfig)> {
    let base = base_config();
    vec![
        ("base", base.clone()),
        ("three_blocks", base.clone().with_blocks(3)),
        ("wide_context", base.clone().with_context_size(10, 4)),
        ("mbu_only", base.clone().with_layers(true, false, false)),
        ("mbi_only", base.clone().with_layers(false, true, false)),
        ("mba_only", base.clone().with_layers(false, false, true)),
        (
            "no_norm_no_residual",
            HireConfig {
                layer_norm: false,
                residual: false,
                ..base.clone()
            },
        ),
        (
            "many_heads",
            HireConfig {
                heads: 4,
                head_dim: 3,
                ..base
            },
        ),
    ]
}

/// Loss bits and per-parameter gradient bits of one forward+backward.
fn loss_and_grad_bits(config: &HireConfig, dataset: &Dataset) -> (u32, Vec<Vec<u32>>) {
    let graph = dataset.graph();
    let mut rng = StdRng::seed_from_u64(77);
    let model = HireModel::new(dataset, config, &mut rng);
    let placeholder = Rating::new(1, 2, dataset.min_rating);
    let ctx = test_context_with_ratio(
        &graph,
        &NeighborhoodSampler,
        &[placeholder],
        config.context_users,
        config.context_items,
        config.input_ratio,
        &mut rng,
    )
    .expect("context");
    let loss = model.context_loss(&ctx, dataset);
    loss.backward();
    let grads = model
        .parameters()
        .iter()
        .map(|p| {
            p.grad()
                .unwrap_or_else(|| NdArray::zeros(p.shape()))
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect()
        })
        .collect();
    (loss.item().to_bits(), grads)
}

#[test]
fn him_forward_backward_is_thread_invariant_across_config_zoo() {
    let dataset = small_dataset();
    for (name, config) in config_zoo() {
        let reference = with_pool(&Arc::new(ThreadPool::new(1)), || {
            loss_and_grad_bits(&config, &dataset)
        });
        for threads in [2, 4] {
            let got = with_pool(&Arc::new(ThreadPool::new(threads)), || {
                loss_and_grad_bits(&config, &dataset)
            });
            assert_eq!(
                got.0, reference.0,
                "config `{name}`: loss bits differ at {threads} threads"
            );
            assert_eq!(
                got.1, reference.1,
                "config `{name}`: gradient bits differ at {threads} threads"
            );
        }
    }
}

/// Loss curve and final parameter bits of a short training run.
fn train_bits(dataset: &Dataset) -> (Vec<u32>, Vec<Vec<u32>>) {
    let graph = dataset.graph();
    let mut rng = StdRng::seed_from_u64(123);
    let model = HireModel::new(dataset, &base_config(), &mut rng);
    let config = TrainConfig {
        steps: 12,
        batch_size: 2,
        base_lr: 2e-3,
        grad_clip: 1.0,
        ..TrainConfig::paper_default()
    };
    let report = train(
        &model,
        dataset,
        &graph,
        &NeighborhoodSampler,
        &config,
        &mut rng,
    )
    .expect("training");
    assert_eq!(report.outcome, TrainOutcome::Completed);
    let losses = report.steps.iter().map(|s| s.loss.to_bits()).collect();
    let params = model
        .parameters()
        .iter()
        .map(|p| p.value().as_slice().iter().map(|x| x.to_bits()).collect())
        .collect();
    (losses, params)
}

#[test]
fn short_training_run_is_thread_invariant() {
    let dataset = small_dataset();
    let reference = with_pool(&Arc::new(ThreadPool::new(1)), || train_bits(&dataset));
    assert_eq!(reference.0.len(), 12);
    let got = with_pool(&Arc::new(ThreadPool::new(4)), || train_bits(&dataset));
    assert_eq!(
        got.0, reference.0,
        "loss trajectory bits differ at 4 threads"
    );
    assert_eq!(
        got.1, reference.1,
        "final parameter bits differ at 4 threads"
    );
}
