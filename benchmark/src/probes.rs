//! Per-layer probes of the traced run: each layer is measured from outside
//! by timing calls into its public functions. Times are the 10th percentile
//! over the stated number of calls; *count* metrics repeat exactly for a
//! given seed and ISA.

use crate::alloc;
use crate::common::{ensure, Checker, Failure};
use crate::report::Metrics;
use crate::rng::{poisson_arrivals, SplitMix64};
use crate::scratch::Scratch;
use crate::serving::open_loop;
use crate::setup::{self, Models};
use crate::stats::quantile;
use crate::workloads::TraceRun;
use hire_core::HireConfig;
use hire_data::{test_context_with_ratio, Dataset, PredictionContext};
use hire_graph::{BipartiteGraph, ContextSampler, EpochedGraph, NeighborhoodSampler, Rating};
use hire_nn::{mhsa_forward, MhsaWeights};
use hire_serve::{
    CacheKey, ContextCache, EngineConfig, Predictor, RatingQuery, ServeEngine, Server,
};
use hire_shard::ShardedEngine;
use hire_tensor::{linalg, NdArray};
use hire_wal::{Wal, WalOptions, WalRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls per probe. Where one call costs milliseconds (a WAL commit) or
/// tens of milliseconds (a batch-of-8 forward) there are fewer, because a
/// traced run has to fit the driver's per-run time budget.
pub const CALLS: usize = 200;
const COMMIT_CALLS: usize = 100;
const HEAVY_CALLS: usize = 16;

/// Seconds `f` takes.
fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// 10th percentile of `calls` timings of `f(i)`, in seconds.
fn p10_secs(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..calls).map(|i| secs(|| f(i)).1).collect();
    quantile(&samples, 0.1)
}

/// `n` distinct query pairs, none of which the workload has asked.
pub fn fresh_pairs(dataset: &Dataset, seed: u64, n: usize) -> Vec<RatingQuery> {
    let mut rng = SplitMix64::stream(seed, setup::SEED_PROBES);
    let mut pairs: Vec<RatingQuery> = Vec::with_capacity(n);
    while pairs.len() < n {
        let q = RatingQuery {
            user: rng.below(dataset.num_users),
            item: rng.below(dataset.num_items),
        };
        if !pairs.contains(&q) {
            pairs.push(q);
        }
    }
    pairs
}

/// The ungated open-loop phase of a serving round: seeded Poisson arrivals
/// at a fixed rate, latency from the intended send time.
pub fn open_loop_phase(
    server: &Server,
    queries: &[RatingQuery],
    rate: f64,
    seed: u64,
    dataset: &Dataset,
    metrics: &mut Metrics,
) -> Result<(), Failure> {
    let mut rng = SplitMix64::stream(seed, setup::SEED_ARRIVALS);
    let arrivals = poisson_arrivals(&mut rng, rate, queries.len());
    let mut checker = Checker::for_dataset(dataset);
    let out = open_loop(server, queries, &arrivals, &mut checker);
    ensure(checker.failed == out.refused, || {
        format!("open-loop answers failed: {:?}", checker.first_failure)
    })?;
    println!(
        "open loop: {} arrivals at {rate}/s, {} answered, {} refused",
        queries.len(),
        out.lat_ms.len(),
        out.refused
    );
    metrics.set("gen.late_p99_ms", quantile(&out.late_ms, 0.99));
    if !out.lat_ms.is_empty() {
        metrics.set("open.lat_p50_ms", quantile(&out.lat_ms, 0.5));
        metrics.set("open.lat_p99_ms", quantile(&out.lat_ms, 0.99));
    }
    metrics.set("open.refused", out.refused as f64);
    Ok(())
}

/// `shard`: the cost of routing, measured as `ShardedEngine(2)` minus one
/// `ServeEngine` on the same fully warmed 4096-query batch.
pub fn shard_layer(
    sharded: &ShardedEngine,
    single: &ServeEngine,
    hot: &[RatingQuery],
    seed: u64,
    metrics: &mut Metrics,
) -> Result<(), Failure> {
    const BATCH: usize = 4096;
    let zipf = crate::rng::Zipf::new(hot.len(), 1.1);
    let mut rng = SplitMix64::stream(seed, setup::SEED_PROBES + 1);
    let batch: Vec<RatingQuery> = (0..BATCH).map(|_| hot[zipf.sample(&mut rng)]).collect();
    // Both engines hold every pair's memo before anything is timed.
    single.predict_batch(hot)?;
    for _ in 0..20 {
        sharded.predict_batch(hot)?;
    }
    let routed_before: u64 = sharded.shard_stats().iter().map(|s| s.routed).sum();
    let hot_before = sharded.hot_key_stats().hot_routed;
    let mut failed = false;
    let t_sharded = p10_secs(CALLS, |_| failed |= sharded.predict_batch(&batch).is_err());
    let t_single = p10_secs(CALLS, |_| failed |= single.predict_batch(&batch).is_err());
    ensure(!failed, || "a warmed batch failed".to_string())?;
    let routed: u64 = sharded.shard_stats().iter().map(|s| s.routed).sum::<u64>() - routed_before;
    metrics.set(
        "shard.route_us",
        (t_sharded - t_single) / BATCH as f64 * 1e6,
    );
    metrics.set("shard.balance", sharded.balance());
    metrics.set(
        "shard.hot_routed_share",
        (sharded.hot_key_stats().hot_routed - hot_before) as f64 / routed.max(1) as f64,
    );
    Ok(())
}

/// Places one replayed op in the trace: a `replay.op` root as long as the
/// real whole call, and one child per replayed layer call laid end to end
/// from the root's start (the layer calls are re-run after the real op, so
/// their offsets inside it are reconstructed; their durations are
/// measured). The root's self time is what the layers do not account for.
fn record_replay(trace: &mut TraceRun, qid: u64, whole_s: f64, layers: &[(&'static str, f64)]) {
    let start = trace.tracer.now_ns();
    let ns = |s: f64| (s * 1e9).round() as u64;
    let root = trace
        .tracer
        .record(qid, "replay.op", None, start, start + ns(whole_s));
    let mut at = start;
    for &(name, s) in layers {
        trace.tracer.record(qid, name, root, at, at + ns(s));
        at += ns(s);
    }
}

/// Qids of replayed ops start here, clear of the round's query ids.
pub const REPLAY_QID: u64 = 1 << 40;

fn unattributed_pct(whole: &[f64], attributed: &[f64]) -> f64 {
    let whole: f64 = whole.iter().sum();
    let attributed: f64 = attributed.iter().sum();
    (whole - attributed).max(0.0) / whole.max(1e-12) * 100.0
}

/// Layer replay of a memo hit: the whole sharded call, and inside it the
/// engine's context lookup.
pub fn replay_hits(
    sharded: &ShardedEngine,
    hot: &[RatingQuery],
    seed: u64,
    trace: &mut TraceRun,
) -> Result<(), Failure> {
    let mut rng = SplitMix64::stream(seed, setup::SEED_PROBES + 2);
    let (mut whole, mut inner) = (Vec::new(), Vec::new());
    for i in 0..CALLS {
        let q = hot[rng.below(hot.len())];
        let shard = &sharded.shard_engines()[sharded.shard_of(q.user)];
        let (r, whole_s) = secs(|| sharded.predict_batch(&[q]));
        r?;
        let (r, engine_s) = secs(|| shard.predict_batch(&[q]));
        r?;
        let (r, lookup_s) = secs(|| shard.context_for(&q));
        r?;
        record_replay(
            trace,
            REPLAY_QID + i as u64,
            whole_s,
            &[("engine.predict", engine_s.min(whole_s))],
        );
        whole.push(engine_s);
        inner.push(lookup_s.min(engine_s));
    }
    trace
        .metrics
        .set("engine.unattributed_pct", unattributed_pct(&whole, &inner));
    Ok(())
}

/// Layer replay of a miss: the whole `predict_batch` of a never-seen pair
/// on `engine`, then the same query's sampling, context build and frozen
/// forward called one by one.
pub fn replay_misses(
    engine: &ServeEngine,
    layers: &Layers,
    pairs: &[RatingQuery],
    trace: &mut TraceRun,
) -> Result<(), Failure> {
    let cfg = engine.config().clone();
    let mut rng = StdRng::seed_from_u64(setup::sub_seed(layers.seed, setup::SEED_PROBES + 3));
    let (mut whole, mut attributed) = (Vec::new(), Vec::new());
    for (i, q) in pairs.iter().enumerate() {
        let (r, whole_s) = secs(|| engine.predict_batch(&[*q]));
        r?;
        let graph = engine.graph_snapshot();
        let (_, sample_s) = secs(|| {
            black_box(NeighborhoodSampler.sample(
                &graph,
                &[q.user],
                &[q.item],
                cfg.context_users,
                cfg.context_items,
                &mut rng,
            ))
        });
        let placeholder = Rating::new(q.user, q.item, layers.dataset.min_rating);
        let (ctx, context_s) = secs(|| {
            test_context_with_ratio(
                &graph,
                &NeighborhoodSampler,
                &[placeholder],
                cfg.context_users,
                cfg.context_items,
                cfg.keep_ratio,
                &mut rng,
            )
        });
        let ctx = ctx?;
        let build_s = (context_s - sample_s).max(0.0);
        let (r, forward_s) = secs(|| layers.models.frozen.forward_nograd(&ctx, layers.dataset));
        r?;
        record_replay(
            trace,
            REPLAY_QID + i as u64,
            whole_s,
            &[
                ("graph.sampler", sample_s),
                ("data.context", build_s),
                ("frozen.forward", forward_s),
            ],
        );
        whole.push(whole_s);
        attributed.push(sample_s + build_s + forward_s);
    }
    trace.metrics.set(
        "engine.unattributed_pct",
        unattributed_pct(&whole, &attributed),
    );
    Ok(())
}

/// What the layer probes of every workload run on: that workload's own
/// dataset, graph and models.
pub struct Layers<'a> {
    pub dataset: &'a Arc<Dataset>,
    pub graph: &'a Arc<BipartiteGraph>,
    pub models: &'a Models,
    pub scratch: &'a Scratch,
    pub seed: u64,
}

/// Matmul FLOPs of one frozen forward over an `n×m` context, from shapes.
pub fn forward_flops(cfg: &HireConfig, n: usize, m: usize, h: usize) -> u64 {
    let f = cfg.attr_dim;
    let e = h * f;
    let ld = cfg.heads * cfg.head_dim;
    // One MHSA over [b, t, d]: Q/K/V projections, QKᵀ, A·V, output projection.
    let mhsa = |b: usize, t: usize, d: usize| -> u64 {
        (3 * 2 * b * t * d * ld + 2 * 2 * b * cfg.heads * t * t * cfg.head_dim + 2 * b * t * ld * d)
            as u64
    };
    let mut block = 0;
    if cfg.enable_mbu {
        block += mhsa(m, n, e);
    }
    if cfg.enable_mbi {
        block += mhsa(n, m, e);
    }
    if cfg.enable_mba {
        block += mhsa(n * m, h, f);
    }
    cfg.num_blocks as u64 * block + (2 * n * m * e) as u64
}

fn random_mhsa(d: usize, cfg: &HireConfig, rng: &mut StdRng) -> MhsaWeights {
    let ld = cfg.heads * cfg.head_dim;
    MhsaWeights {
        w_q: NdArray::randn([d, ld], 0.0, 0.1, rng),
        w_k: NdArray::randn([d, ld], 0.0, 0.1, rng),
        w_v: NdArray::randn([d, ld], 0.0, 0.1, rng),
        w_o: NdArray::randn([ld, d], 0.0, 0.1, rng),
        heads: cfg.heads,
        head_dim: cfg.head_dim,
    }
}

/// The probes every workload runs on its own artefacts: `serve::engine`
/// lookups, `graph::sampler`, `data::context`, `serve::frozen`,
/// `nn::nograd`, `tensor::linalg`, `serve::quant`, `core::hybrid`,
/// `serve::cache`, `graph::epoch` and `wal`.
pub fn common_layers(
    layers: &Layers,
    fresh: &[RatingQuery],
    seen: &[RatingQuery],
    metrics: &mut Metrics,
) -> Result<(), Failure> {
    let Layers {
        dataset,
        graph,
        models,
        ..
    } = *layers;
    let cfg = EngineConfig::from_model_config(&models.config);
    let (n, m) = (cfg.context_users, cfg.context_items);
    let engine = ServeEngine::with_shared_graph(
        models.frozen.clone(),
        Arc::clone(dataset),
        Arc::clone(graph),
        cfg.clone(),
    );
    let mut failed = false;

    // serve::engine: context resolution of never-seen pairs (a miss: BFS +
    // context build + cache insert), then of the same pairs (a hit).
    let mut contexts: Vec<Arc<PredictionContext>> = Vec::with_capacity(fresh.len());
    let miss_s = p10_secs(fresh.len(), |i| match engine.context_for(&fresh[i]) {
        Ok(ctx) => contexts.push(ctx),
        Err(_) => failed = true,
    });
    ensure(!failed && contexts.len() == fresh.len(), || {
        "context resolution failed".to_string()
    })?;
    let hit_s = p10_secs(fresh.len(), |i| {
        black_box(engine.context_for(&fresh[i]).is_ok());
    });
    metrics.set("engine.miss_ms", miss_s * 1e3);
    metrics.set("engine.hit_us", hit_s * 1e6);
    ensure(contexts.iter().all(|c| c.n() == n && c.m() == m), || {
        format!("a sampled context is not {n}x{m}")
    })?;

    // graph::sampler and data::context, on the same pairs.
    let mut rng = StdRng::seed_from_u64(setup::sub_seed(layers.seed, setup::SEED_PROBES + 4));
    let sample_s = p10_secs(fresh.len(), |i| {
        black_box(NeighborhoodSampler.sample(
            graph,
            &[fresh[i].user],
            &[fresh[i].item],
            n,
            m,
            &mut rng,
        ));
    });
    let context_s = p10_secs(fresh.len(), |i| {
        let placeholder = Rating::new(fresh[i].user, fresh[i].item, dataset.min_rating);
        failed |= test_context_with_ratio(
            graph,
            &NeighborhoodSampler,
            &[placeholder],
            n,
            m,
            cfg.keep_ratio,
            &mut rng,
        )
        .is_err();
    });
    metrics.set("sampler.sample_ms", sample_s * 1e3);
    metrics.set("context.build_ms", (context_s - sample_s).max(0.0) * 1e3);

    // serve::frozen.
    let frozen = &models.frozen;
    let fwd1_s = p10_secs(contexts.len(), |i| {
        failed |= frozen.forward_nograd(&contexts[i], dataset).is_err();
    });
    let groups: Vec<Vec<&PredictionContext>> = contexts
        .chunks_exact(8)
        .map(|c| c.iter().map(|c| &**c).collect())
        .collect();
    let fwd8_s = p10_secs(HEAVY_CALLS, |i| {
        failed |= frozen
            .forward_nograd_batch(&groups[i % groups.len()], dataset)
            .is_err();
    });
    let flops = forward_flops(&models.config, n, m, frozen.num_attrs());
    let (_, allocs, bytes) = alloc::count(|| frozen.forward_nograd(&contexts[0], dataset).is_ok());
    let (_, allocs_again, bytes_again) =
        alloc::count(|| frozen.forward_nograd(&contexts[0], dataset).is_ok());
    ensure((allocs, bytes) == (allocs_again, bytes_again), || {
        format!("allocation counts of one forward differ: {allocs}/{bytes} vs {allocs_again}/{bytes_again}")
    })?;
    metrics.set("frozen.fwd_b1_ms", fwd1_s * 1e3);
    metrics.set("frozen.fwd_b8_ms", fwd8_s * 1e3);
    metrics.set("frozen.flops_per_fwd", flops as f64);
    metrics.set("frozen.gflops", flops as f64 / fwd1_s / 1e9);
    metrics.set("frozen.allocs_per_fwd", allocs as f64);
    metrics.set("frozen.alloc_kb_per_fwd", bytes as f64 / 1024.0);

    // nn::nograd at the three HIM shapes (tokens = users, items, attributes).
    let (h, f) = (frozen.num_attrs(), models.config.attr_dim);
    let e = h * f;
    for (name, dims, d) in [
        ("mhsa.mbu_us", [m, n, e], e),
        ("mhsa.mbi_us", [n, m, e], e),
        ("mhsa.mba_us", [n * m, h, f], f),
    ] {
        let w = random_mhsa(d, &models.config, &mut rng);
        let x = NdArray::randn(dims, 0.0, 1.0, &mut rng);
        let s = p10_secs(CALLS, |_| {
            black_box(mhsa_forward(black_box(&x), &w));
        });
        metrics.set(name, s * 1e6);
    }

    // tensor::linalg: the [n·m, e]·[e, l·dk] projection shape.
    let a = NdArray::randn([256, 40], 0.0, 1.0, &mut rng);
    let b = NdArray::randn([40, 32], 0.0, 1.0, &mut rng);
    let mm_s = p10_secs(5 * CALLS, |_| {
        black_box(linalg::matmul2d(black_box(&a), black_box(&b)));
    });
    metrics.set(
        "linalg.matmul_gflops",
        (2 * 256 * 40 * 32) as f64 / mm_s / 1e9,
    );

    // Degraded rungs.
    let quant = &models.quant;
    let quant_s = p10_secs(HEAVY_CALLS, |i| {
        failed |= !matches!(
            quant.forward_nograd_batch_within(&groups[i % groups.len()], dataset, None),
            Ok(Some(_))
        );
    });
    let mut max_err = 0.0f32;
    for group in groups.iter().take(2) {
        let exact = frozen.forward_nograd_batch(group, dataset)?;
        let approx = quant
            .forward_nograd_batch_within(group, dataset, None)?
            .ok_or_else(|| Failure("quantized forward without a deadline timed out".into()))?;
        for (x, q) in exact.iter().zip(&approx) {
            max_err = max_err.max(x.max_abs_diff(q));
        }
    }
    ensure(max_err <= quant.prediction_bound(), || {
        format!(
            "quantized answers are off by {max_err}, past the declared bound {}",
            quant.prediction_bound()
        )
    })?;
    metrics.set("quant.fwd_b8_ms", quant_s * 1e3);
    metrics.set("quant.max_abs_err", max_err as f64);
    let hybrid = &models.hybrid;
    let hybrid_s = p10_secs(CALLS, |_| {
        for q in fresh {
            black_box(hybrid.predict(q.user, q.item));
        }
    });
    metrics.set("hybrid.predict_us", hybrid_s / fresh.len() as f64 * 1e6);

    // serve::cache: a standalone cache filled with the workload's contexts.
    let mut cache = ContextCache::new(cfg.cache_capacity);
    let keys: Vec<CacheKey> = fresh
        .iter()
        .chain(seen)
        .map(|q| CacheKey {
            user: q.user,
            item: q.item,
            strategy: "neighborhood",
            n,
            m,
        })
        .collect();
    for (i, key) in keys.iter().enumerate() {
        cache.insert(key.clone(), Arc::clone(&contexts[i % contexts.len()]));
    }
    let get_s = p10_secs(CALLS, |_| {
        for key in &keys {
            black_box(cache.get(key, 1).is_some());
        }
    });
    metrics.set("cache.get_us", get_s / keys.len() as f64 * 1e6);

    // graph::epoch, on the workload's graph.
    let epoched = EpochedGraph::from_arc(Arc::clone(graph));
    let commit_s = p10_secs(CALLS, |i| {
        let q = fresh[i % fresh.len()];
        // A new edge each call: the pairs are distinct and never rated twice
        // (an existing edge keeps its rating but still rebuilds the CSR).
        black_box(epoched.commit_edges(&[Rating::new(q.user, q.item, dataset.min_rating)]));
    });
    let pin_s = p10_secs(CALLS, |_| {
        for _ in 0..1000 {
            black_box(epoched.pin());
        }
    });
    metrics.set("epoch.commit_ms", commit_s * 1e3);
    metrics.set("epoch.pin_ns", pin_s / 1000.0 * 1e9);

    // wal: a fresh log in the run's scratch directory.
    let dir = layers.scratch.subdir("wal-probe")?;
    let (wal, _) = Wal::open(&dir, WalOptions::default())?;
    let mut lsns = Vec::with_capacity(CALLS);
    let append_s = p10_secs(CALLS, |i| {
        let q = fresh[i % fresh.len()];
        match wal.append(&WalRecord::Rating {
            user: q.user as u64,
            item: q.item as u64,
            value: dataset.min_rating,
        }) {
            Ok(lsn) => lsns.push(lsn),
            Err(_) => failed = true,
        }
    });
    // Appended one at a time and committed one at a time, as the single
    // writer of `write_mix` does: no group to commit with.
    let stats_before = wal.stats();
    let commit_s = p10_secs(COMMIT_CALLS, |i| {
        let q = fresh[i % fresh.len()];
        failed |= wal
            .append(&WalRecord::Rating {
                user: q.user as u64,
                item: q.item as u64,
                value: dataset.min_rating,
            })
            .and_then(|lsn| wal.commit(lsn))
            .is_err();
    }) - append_s;
    let stats = wal.stats();
    let bytes: u64 = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    metrics.set("wal.append_us", append_s * 1e6);
    metrics.set("wal.commit_ms", commit_s.max(0.0) * 1e3);
    metrics.set(
        "wal.fsyncs_per_ack",
        (stats.fsyncs - stats_before.fsyncs) as f64 / COMMIT_CALLS as f64,
    );
    metrics.set(
        "wal.bytes_per_ack",
        bytes as f64 / stats.appended.max(1) as f64,
    );

    ensure(!failed, || "a layer probe call failed".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hire_core::HireModel;
    use hire_data::SyntheticConfig;
    use hire_serve::FrozenModel;

    /// The `*allocs*` metrics are counts: two repetitions of the same
    /// forward in one process must allocate exactly the same.
    #[test]
    fn forward_allocation_counts_repeat_exactly() {
        // Whichever test touches a kernel first creates the process-wide
        // pool; the benchmark (and its smoke test) insists on one thread.
        hire_par::set_global_threads(1).expect("no test creates a wider pool");
        let dataset = SyntheticConfig::movielens_like()
            .scaled(60, 40, (8, 16))
            .generate(3);
        let graph = dataset.graph();
        let config = HireConfig::fast();
        let mut rng = StdRng::seed_from_u64(1);
        let frozen =
            FrozenModel::from_model(&HireModel::new(&dataset, &config, &mut rng), &dataset)
                .unwrap();
        let ctx = test_context_with_ratio(
            &graph,
            &NeighborhoodSampler,
            &[Rating::new(1, 2, dataset.min_rating)],
            config.context_users,
            config.context_items,
            config.input_ratio,
            &mut rng,
        )
        .unwrap();
        let count = || alloc::count(|| frozen.forward_nograd(&ctx, &dataset).is_ok());
        // The first forward of a process also pays one-time initialisation
        // (ISA detection, thread-locals); the probes count warm forwards.
        count();
        let (ok, allocs, bytes) = count();
        assert!(ok && allocs > 0 && bytes > 0);
        assert_eq!(count(), (true, allocs, bytes));
    }

    #[test]
    fn flops_follow_the_shapes() {
        let cfg = HireConfig::fast()
            .with_blocks(1)
            .with_layers(true, false, false);
        // One MBU layer over a 2×3 context with h = 4 attributes:
        // b = 3, t = 2, d = 32, l·dk = 32, plus the decoder.
        let (b, t, d, ld) = (3, 2, 4 * cfg.attr_dim, cfg.heads * cfg.head_dim);
        let mhsa = 3 * 2 * b * t * d * ld
            + 2 * 2 * b * cfg.heads * t * t * cfg.head_dim
            + 2 * b * t * ld * d;
        assert_eq!(forward_flops(&cfg, 2, 3, 4), (mhsa + 2 * 2 * 3 * d) as u64);
    }

    #[test]
    fn fresh_pairs_are_distinct_and_seeded() {
        let dataset = SyntheticConfig::movielens_like()
            .scaled(30, 20, (4, 8))
            .generate(1);
        let a = fresh_pairs(&dataset, 5, 50);
        assert_eq!(a, fresh_pairs(&dataset, 5, 50));
        assert_ne!(a, fresh_pairs(&dataset, 6, 50));
        let mut seen: Vec<(usize, usize)> = a.iter().map(|q| (q.user, q.item)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 50);
    }
}
