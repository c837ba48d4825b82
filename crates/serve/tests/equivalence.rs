//! Frozen-model equivalence: `FrozenModel::forward_nograd` must match the
//! tape-based `HireModel::forward` bit for bit on every model-zoo
//! configuration — all HIM depths and every ablation toggle.

use hire_core::{HireConfig, HireModel};
use hire_data::{test_context_with_ratio, Dataset, PredictionContext};
use hire_graph::{NeighborhoodSampler, Rating};
use hire_serve::FrozenModel;
use hire_tensor::NdArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn movielens_dataset() -> Dataset {
    hire_data::SyntheticConfig::movielens_like()
        .scaled(40, 35, (8, 15))
        .generate(42)
}

fn contexts(dataset: &Dataset, count: usize, n: usize, m: usize) -> Vec<PredictionContext> {
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

fn bits(a: &NdArray) -> Vec<u32> {
    a.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn assert_equivalent(dataset: &Dataset, config: &HireConfig, label: &str) {
    let mut rng = StdRng::seed_from_u64(1234);
    let model = HireModel::new(dataset, config, &mut rng);
    let frozen = FrozenModel::from_model(&model, dataset).expect("freeze");
    for (k, ctx) in contexts(dataset, 3, 9, 7).iter().enumerate() {
        let tape = model.forward(ctx, dataset).value();
        let nograd = frozen.forward_nograd(ctx, dataset).expect("nograd forward");
        assert_eq!(tape.dims(), nograd.dims(), "[{label}] ctx {k}: shape");
        assert_eq!(bits(&tape), bits(&nograd), "[{label}] ctx {k}: tape");
        let predicted = model.predict(ctx, dataset);
        assert_eq!(
            bits(&predicted),
            bits(&nograd),
            "[{label}] ctx {k}: predict"
        );
    }
}

/// The zoo's speed tiers: Smoke (1 block), Fast (2 blocks), Full (the
/// paper's 3-block configuration).
#[test]
fn matches_tape_across_zoo_depths() {
    let dataset = movielens_dataset();
    assert_equivalent(
        &dataset,
        &HireConfig::fast().with_blocks(1).with_context_size(8, 8),
        "smoke",
    );
    assert_equivalent(&dataset, &HireConfig::fast(), "fast");
    assert_equivalent(&dataset, &HireConfig::paper_default(), "full");
}

/// Every MBU/MBI/MBA ablation combination with at least one layer enabled.
#[test]
fn matches_tape_across_layer_ablations() {
    let dataset = movielens_dataset();
    for mbu in [false, true] {
        for mbi in [false, true] {
            for mba in [false, true] {
                if !(mbu || mbi || mba) {
                    continue;
                }
                let config = HireConfig::fast().with_layers(mbu, mbi, mba);
                assert_equivalent(&dataset, &config, &format!("layers {mbu}/{mbi}/{mba}"));
            }
        }
    }
}

/// Residual and LayerNorm toggles change the parameter list layout; the
/// frozen unpacking must track them.
#[test]
fn matches_tape_without_residual_or_layernorm() {
    let dataset = movielens_dataset();
    for (residual, layer_norm) in [(false, true), (true, false), (false, false)] {
        let mut config = HireConfig::fast();
        config.residual = residual;
        config.layer_norm = layer_norm;
        assert_equivalent(
            &dataset,
            &config,
            &format!("res={residual} ln={layer_norm}"),
        );
    }
}

/// ID-only schemas (Douban-style) take the one-embedding-per-entity path.
#[test]
fn matches_tape_on_id_only_dataset() {
    let dataset = hire_data::SyntheticConfig::douban_like()
        .scaled(30, 35, (5, 10))
        .generate(9);
    assert_equivalent(&dataset, &HireConfig::fast(), "douban id-only");
}

/// Batched no-grad inference must reproduce the single-context results
/// bit for bit — micro-batching must not change any prediction.
#[test]
fn batched_forward_is_bitwise_identical_to_single() {
    let dataset = movielens_dataset();
    let mut rng = StdRng::seed_from_u64(5);
    let model = HireModel::new(&dataset, &HireConfig::fast(), &mut rng);
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    let ctxs = contexts(&dataset, 4, 8, 8);
    let refs: Vec<&PredictionContext> = ctxs.iter().collect();
    let batched = frozen
        .forward_nograd_batch(&refs, &dataset)
        .expect("batched forward");
    for (k, ctx) in refs.iter().enumerate() {
        let single = frozen
            .forward_nograd(ctx, &dataset)
            .expect("single forward");
        assert_eq!(
            bits(&batched[k]),
            bits(&single),
            "ctx {k}: batched result must be bit-identical"
        );
    }
}

/// Shape validation: a parameter list from a different architecture is a
/// typed error, not a panic.
#[test]
fn mismatched_parameters_yield_typed_error() {
    let dataset = movielens_dataset();
    let mut rng = StdRng::seed_from_u64(3);
    let model = HireModel::new(&dataset, &HireConfig::fast(), &mut rng);
    let err = FrozenModel::from_model(&model, &dataset).map(|_| ()).err();
    assert!(err.is_none(), "matching config must load");
    // freeze under a config with a different depth: parameter count differs
    let wrong = HireConfig::fast().with_blocks(3);
    use hire_nn::Module;
    let params: Vec<_> = model.parameters().iter().map(|p| p.value()).collect();
    let err = FrozenModel::from_parts(&dataset, wrong, params)
        .expect_err("wrong-depth unpacking must fail");
    assert!(
        err.to_string().contains("FrozenModel"),
        "unexpected error: {err}"
    );
}
