//! Training's bits, pinned: an FNV-1a fingerprint of every parameter's
//! gradient after one `context_loss` + `backward`, and of every weight
//! after a three-step `train`, at `fast` (16 × 16 contexts, 2 blocks) on a
//! MovieLens-like schema (9 attribute rows per cell, so MBA attends over 9
//! tokens) and on a Douban-like ID-only one (3 rows).
//!
//! A change to a tape node, a backward kernel or the optimiser that is
//! meant to keep every bit must leave these constants alone; one that moves
//! a gradient's low bits shows here before it shows as a drift in the
//! ledger's checksums. The constants are one per ISA family: scalar runs
//! the reference chains, avx2 and avx512 the FMA chains (bit-identical to
//! each other, `hire-tensor`'s `isa_dispatch`), so a run under `HIRE_ISA`
//! checks the family it forces.

use hire_core::{train, HireConfig, HireModel, TrainConfig};
use hire_data::{training_context, Dataset, SyntheticConfig};
use hire_graph::NeighborhoodSampler;
use hire_nn::Module;
use hire_tensor::simd::{self, Isa};
use hire_tensor::NdArray;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the bits of every array, in order, each prefixed by its
/// length.
fn fingerprint<'a>(arrays: impl IntoIterator<Item = &'a NdArray>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |word: u32| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for a in arrays {
        eat(a.numel() as u32);
        a.as_slice().iter().for_each(|v| eat(v.to_bits()));
    }
    hash
}

fn config() -> HireConfig {
    HireConfig::fast().with_blocks(2).with_context_size(16, 16)
}

/// Gradient bits of one 16 × 16 context's loss.
fn gradient_fingerprint(dataset: &Dataset) -> u64 {
    let mut rng = StdRng::seed_from_u64(5);
    let model = HireModel::new(dataset, &config(), &mut rng);
    let ctx = training_context(
        &dataset.graph(),
        &NeighborhoodSampler,
        dataset.ratings[0],
        16,
        16,
        0.2,
        &mut rng,
    )
    .expect("context");
    assert_eq!((ctx.n(), ctx.m()), (16, 16));
    model.context_loss(&ctx, dataset).backward();
    let grads: Vec<NdArray> = model
        .parameters()
        .iter()
        .map(|p| p.grad().expect("every parameter takes a gradient"))
        .collect();
    fingerprint(&grads)
}

/// Weight bits after three training steps of two contexts each.
fn trained_fingerprint(dataset: &Dataset) -> u64 {
    let mut rng = StdRng::seed_from_u64(6);
    let model = HireModel::new(dataset, &config(), &mut rng);
    let train_config = TrainConfig {
        steps: 3,
        batch_size: 2,
        ..TrainConfig::fast()
    };
    train(
        &model,
        dataset,
        &dataset.graph(),
        &NeighborhoodSampler,
        &train_config,
        &mut rng,
    )
    .expect("three steps train");
    let weights: Vec<NdArray> = model.parameters().iter().map(|p| p.value()).collect();
    fingerprint(&weights)
}

/// `(gradients, trained weights)` for the active ISA's family.
fn expected(scalar: (u64, u64), lanes: (u64, u64)) -> (u64, u64) {
    match simd::active_isa() {
        Isa::Scalar => scalar,
        Isa::Avx2 | Isa::Avx512 => lanes,
    }
}

#[test]
fn movielens_like_gradients_and_trained_weights_keep_their_bits() {
    let dataset = SyntheticConfig::movielens_like()
        .scaled(60, 50, (10, 20))
        .generate(5);
    let got = (
        gradient_fingerprint(&dataset),
        trained_fingerprint(&dataset),
    );
    let want = expected(
        (0xec6a_a5ac_b5f3_2376, 0xf370_1139_333b_2fe7),
        (0x42be_6529_2c86_c3f5, 0x8668_b895_345f_780f),
    );
    assert_eq!(got, want, "{:?}: got {got:x?}", simd::active_isa());
}

#[test]
fn douban_like_gradients_and_trained_weights_keep_their_bits() {
    let dataset = SyntheticConfig::douban_like()
        .scaled(60, 50, (10, 20))
        .generate(5);
    let got = (
        gradient_fingerprint(&dataset),
        trained_fingerprint(&dataset),
    );
    let want = expected(
        (0x2825_99ad_91b8_a820, 0xc722_a7e2_83d1_4a76),
        (0x5bfb_4230_7f74_e0eb, 0x48a8_5fe6_5b1d_987f),
    );
    assert_eq!(got, want, "{:?}: got {got:x?}", simd::active_isa());
}
