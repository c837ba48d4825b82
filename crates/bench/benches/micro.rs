//! Criterion micro-benchmarks for the computational kernels that dominate
//! HIRE's complexity analysis (§ V-B): batched matmul, MHSA, one HIM block,
//! a full model forward, and context sampling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hire_core::{HimBlock, HireConfig, HireModel};
use hire_data::{training_context, SyntheticConfig};
use hire_graph::{ContextSampler, NeighborhoodSampler, RandomSampler};
use hire_nn::MultiHeadSelfAttention;
use hire_tensor::{linalg, NdArray, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    let mut rng = StdRng::seed_from_u64(0);
    for &size in &[32usize, 64, 128] {
        let a = NdArray::randn([size, size], 0.0, 1.0, &mut rng);
        let b = NdArray::randn([size, size], 0.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("2d", size), &size, |bench, _| {
            bench.iter(|| linalg::matmul2d(&a, &b));
        });
    }
    // batched: [16, 32, e] x [e, e] — the MBU/MBI projection shape
    let a = NdArray::randn([16, 32, 72], 0.0, 1.0, &mut rng);
    let w = NdArray::randn([72, 72], 0.0, 1.0, &mut rng);
    group.bench_function("bmm_shared_rhs_16x32x72", |bench| {
        bench.iter(|| linalg::bmm(&a, &w));
    });
    group.finish();
}

fn bench_mhsa(c: &mut Criterion) {
    let mut group = c.benchmark_group("mhsa_forward");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    let mut rng = StdRng::seed_from_u64(1);
    for &(tokens, dim) in &[(16usize, 72usize), (32, 72), (32, 144)] {
        let mhsa = MultiHeadSelfAttention::new(dim, 4, 8, &mut rng);
        let x = Tensor::constant(NdArray::randn([8, tokens, dim], 0.0, 1.0, &mut rng));
        group.bench_with_input(
            BenchmarkId::new("batch8", format!("t{tokens}_d{dim}")),
            &tokens,
            |bench, _| {
                bench.iter(|| mhsa.forward(&x));
            },
        );
    }
    group.finish();

    // The `mhsa` node's backward at HIM's MBA shape (256 cells × 9
    // attributes × attr_dim 8): all four weight gradients and dX, over
    // 1 024 `[9, 8]` attention tiles.
    let mut group = c.benchmark_group("mhsa_backward");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    let mhsa = MultiHeadSelfAttention::new(8, 4, 8, &mut rng);
    let x = Tensor::parameter(NdArray::randn([256, 9, 8], 0.0, 1.0, &mut rng));
    let y = mhsa.forward(&x);
    let seed = NdArray::randn([256, 9, 8], 0.0, 1.0, &mut rng);
    group.bench_function("mba_256x9x8", |bench| {
        bench.iter(|| y.backward_with(seed.clone()));
    });
    group.finish();
}

fn bench_him_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("him_block");
    group
        .sample_size(15)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500));
    let mut rng = StdRng::seed_from_u64(2);
    let config = HireConfig::fast();
    for &(n, m) in &[(8usize, 8usize), (16, 16), (32, 32)] {
        // 9 attributes (MovieLens-like): e = 9 * attr_dim
        let block = HimBlock::new(&config, 9, &mut rng);
        let e = 9 * config.attr_dim;
        let h = Tensor::constant(NdArray::randn([n, m, e], 0.0, 1.0, &mut rng));
        group.bench_with_input(
            BenchmarkId::new("forward", format!("{n}x{m}")),
            &n,
            |bench, _| {
                bench.iter(|| block.forward(&h));
            },
        );
    }
    group.finish();
}

fn bench_model_forward_backward(c: &mut Criterion) {
    let mut group = c.benchmark_group("hire_model");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5))
        .warm_up_time(Duration::from_secs(1));
    let dataset = SyntheticConfig::movielens_like()
        .scaled(80, 60, (15, 30))
        .generate(3);
    let graph = dataset.graph();
    let mut rng = StdRng::seed_from_u64(3);
    let config = HireConfig::fast();
    let model = HireModel::new(&dataset, &config, &mut rng);
    let ctx = training_context(
        &graph,
        &NeighborhoodSampler,
        dataset.ratings[0],
        config.context_users,
        config.context_items,
        0.1,
        &mut rng,
    )
    .expect("training context");
    group.bench_function("forward_16x16", |bench| {
        bench.iter(|| model.predict(&ctx, &dataset));
    });
    group.bench_function("forward_backward_16x16", |bench| {
        bench.iter(|| {
            let loss = model.context_loss(&ctx, &dataset);
            loss.backward();
        });
    });
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("context_sampling");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    let dataset = SyntheticConfig::movielens_like()
        .scaled(300, 200, (30, 60))
        .generate(4);
    let graph = dataset.graph();
    let mut rng = StdRng::seed_from_u64(4);
    group.bench_function("neighborhood_32x32", |bench| {
        bench.iter(|| NeighborhoodSampler.sample(&graph, &[0], &[0], 32, 32, &mut rng));
    });
    group.bench_function("random_32x32", |bench| {
        bench.iter(|| RandomSampler.sample(&graph, &[0], &[0], 32, 32, &mut rng));
    });

    // The serving benchmark's write-workload graph: item popularity is
    // skewed enough that one item is rated by most users, so hop 2 of nearly
    // every fresh pair walks a hub — the case the small graph never shows.
    let (_, hub) = SyntheticConfig::million_scale()
        .scaled(50_000, 10_000, (4, 16))
        .generate_streaming(4);
    let pairs: Vec<(usize, usize)> = (0..4096)
        .map(|_| (rng.gen_range(0..50_000), rng.gen_range(0..10_000)))
        .collect();
    let mut next = 0;
    group.bench_function("neighborhood_16x16_hub_50kx10k_fresh_pairs", |bench| {
        bench.iter(|| {
            let (u, i) = pairs[next % pairs.len()];
            next += 1;
            NeighborhoodSampler.sample(&hub, &[u], &[i], 16, 16, &mut rng)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_mhsa,
    bench_him_block,
    bench_model_forward_backward,
    bench_sampling
);
criterion_main!(benches);
