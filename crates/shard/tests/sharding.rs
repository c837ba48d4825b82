//! Sharding invariants (ISSUE 8, satellite 3):
//!
//! 1. **Bitwise 1-vs-N equality** — on a fault-free engine, predictions
//!    are bit-identical at every shard count (shards share the sampling
//!    seed and the base graph snapshot).
//! 2. **Exactly one typed reply** per accepted query under mixed chaos
//!    with shards, at several shard counts.
//! 3. **Per-seed replay** across interleaved `insert_rating` + model hot
//!    swaps (serial replay is bit-for-bit; a concurrent run keeps every
//!    invariant).
//! 4. **Write isolation** — an insert commits to the owner shard only;
//!    other shards' epochs and pinned snapshots are untouched.
//! 5. **Cross-shard swap atomicity** — a failing prepare on any shard
//!    aborts the install with every incumbent (and version counter)
//!    untouched.
//! 6. **Load balance under skew** — zipf traffic over a hot set, with
//!    hot-key replication on, puts at most 2× the mean load on any of four
//!    shards, and every query is answered.
//! 7. **Throughput scaling** — where the host has four hardware threads,
//!    four shards replay that traffic at ≥ 2× the one-shard rate.

use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_core::{HireConfig, HireModel};
use hire_data::Dataset;
use hire_graph::Rating;
use hire_serve::{
    EngineConfig, FrozenModel, Predictor, RatingQuery, ServeError, Server, ServerConfig, SlotSource,
};
use hire_shard::{HotKeyConfig, ShardConfig, ShardedEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: usize = 60;
const ITEMS: usize = 45;

fn dataset() -> Arc<Dataset> {
    Arc::new(
        hire_data::SyntheticConfig::movielens_like()
            .scaled(USERS, ITEMS, (8, 15))
            .generate(21),
    )
}

fn frozen(dataset: &Dataset) -> FrozenModel {
    let config = HireConfig::fast().with_blocks(1).with_context_size(8, 8);
    let mut rng = StdRng::seed_from_u64(4);
    let model = HireModel::new(dataset, &config, &mut rng);
    FrozenModel::from_model(&model, dataset).expect("freeze")
}

fn engine_config() -> EngineConfig {
    let config = HireConfig::fast().with_blocks(1).with_context_size(8, 8);
    EngineConfig {
        cache_capacity: 128,
        ..EngineConfig::from_model_config(&config)
    }
}

fn sharded(dataset: &Arc<Dataset>, shards: usize, hot: Option<HotKeyConfig>) -> ShardedEngine {
    ShardedEngine::new(
        frozen(dataset),
        Arc::clone(dataset),
        engine_config(),
        ShardConfig {
            shards,
            hot_keys: hot,
        },
    )
}

/// A deterministic, zipf-flavored query stream: a hot head pair repeated
/// heavily, plus a spread tail.
fn query_stream(len: usize) -> Vec<RatingQuery> {
    (0..len)
        .map(|k| {
            if k % 3 == 0 {
                RatingQuery { user: 5, item: 7 }
            } else {
                RatingQuery {
                    user: (k * 13) % USERS,
                    item: (k * 17) % ITEMS,
                }
            }
        })
        .collect()
}

/// The traffic the shard gates are stated for: zipf `s = 1.1` over 64 hot
/// pairs drawn uniformly from the id space, plus a 10 % uniform cold tail.
fn zipf_stream(len: usize) -> Vec<RatingQuery> {
    let mut rng = StdRng::seed_from_u64(0x54A8D);
    let uniform = |rng: &mut StdRng| RatingQuery {
        user: rng.gen_range(0..USERS),
        item: rng.gen_range(0..ITEMS),
    };
    let hot: Vec<RatingQuery> = (0..64).map(|_| uniform(&mut rng)).collect();
    let mut total = 0.0f64;
    let cdf: Vec<f64> = (1..=hot.len())
        .map(|rank| {
            total += (rank as f64).powf(-1.1);
            total
        })
        .collect();
    (0..len)
        .map(|_| {
            if rng.gen::<f64>() < 0.1 {
                return uniform(&mut rng);
            }
            let target = rng.gen::<f64>() * total;
            hot[cdf.partition_point(|&c| c < target).min(hot.len() - 1)]
        })
        .collect()
}

#[test]
fn predictions_are_bitwise_equal_at_every_shard_count() {
    let dataset = dataset();
    let queries = query_stream(90);
    let hot = Some(HotKeyConfig {
        sketch_capacity: 16,
        hot_threshold: 4,
    });
    let reference: Vec<(u32, u64)> = {
        let e = sharded(&dataset, 1, hot.clone());
        queries
            .chunks(9)
            .flat_map(|batch| {
                e.predict_batch_tagged(batch, None)
                    .expect("fault-free batch")
                    .into_iter()
                    .map(|a| (a.rating.to_bits(), a.version))
            })
            .collect()
    };
    for shards in [2usize, 4, 8] {
        let e = sharded(&dataset, shards, hot.clone());
        let got: Vec<(u32, u64)> = queries
            .chunks(9)
            .flat_map(|batch| {
                e.predict_batch_tagged(batch, None)
                    .expect("fault-free batch")
                    .into_iter()
                    .map(|a| (a.rating.to_bits(), a.version))
            })
            .collect();
        assert_eq!(
            got, reference,
            "{shards}-shard predictions must be bit-identical to 1-shard"
        );
    }
}

#[test]
fn exactly_one_typed_reply_per_query_under_mixed_chaos_with_shards() {
    for shards in [2usize, 4] {
        for seed in [7u64, 1234] {
            let dataset = dataset();
            // One independent plan per shard (derived seeds) plus one for
            // the server's own batch site.
            let shard_plans: Vec<Arc<FaultPlan>> = (0..shards)
                .map(|s| Arc::new(FaultPlan::mixed(seed ^ (s as u64) << 32, 0.25)))
                .collect();
            let server_plan = Arc::new(FaultPlan::mixed(seed, 0.25));
            let engine = sharded(&dataset, shards, Some(HotKeyConfig::default()))
                .with_faults(shard_plans.clone());
            let server = Server::start_with_faults(
                Arc::new(engine),
                ServerConfig {
                    workers: 2,
                    max_batch: 4,
                    max_queue: 256,
                },
                Some(server_plan),
            );
            let mut accepted = Vec::new();
            for (k, q) in query_stream(48).into_iter().enumerate() {
                let budget = (k % 3 == 0).then(|| Duration::from_millis(40));
                match server.submit_with_deadline(q, budget) {
                    Ok(h) => accepted.push(h),
                    Err(ServeError::Overloaded { .. }) => {}
                    Err(other) => panic!("unexpected submit error: {other}"),
                }
            }
            let n_accepted = accepted.len() as u64;
            for (k, h) in accepted.into_iter().enumerate() {
                match h.recv_timeout(Duration::from_secs(30)) {
                    Ok(pred) => {
                        assert!(
                            (0.0..=5.0).contains(&pred.rating),
                            "shards {shards}, seed {seed}, query {k}: rating {} out of range",
                            pred.rating
                        );
                    }
                    Err(ServeError::DeadlineExceeded)
                    | Err(ServeError::WorkerLost)
                    | Err(ServeError::CircuitOpen)
                    | Err(ServeError::Injected { .. })
                    | Err(ServeError::Model(_))
                    | Err(ServeError::Internal { .. }) => {}
                    Err(other) => {
                        panic!("shards {shards}, seed {seed}, query {k}: unexpected {other}")
                    }
                }
            }
            server.shutdown();
            assert_eq!(
                server.stats().completed,
                n_accepted,
                "shards {shards}, seed {seed}: every accepted query answered exactly once"
            );
        }
    }
}

#[test]
fn serial_replay_across_inserts_and_hot_swaps_is_bit_identical() {
    let dataset = dataset();
    let run = || {
        let e = sharded(
            &dataset,
            3,
            Some(HotKeyConfig {
                sketch_capacity: 16,
                hot_threshold: 3,
            }),
        );
        let swap_model = frozen(&dataset);
        let mut log: Vec<(u32, &'static str, u64)> = Vec::new();
        for (round, batch) in query_stream(72).chunks(6).enumerate() {
            for a in e.predict_batch_tagged(batch, None).expect("batch") {
                log.push((a.rating.to_bits(), a.served_by.label(), a.version));
            }
            if round % 3 == 1 {
                let r = Rating::new((round * 7) % USERS, (round * 5) % ITEMS, 4.0);
                e.insert_rating(r).expect("insert");
            }
            if round == 5 {
                e.install_model(swap_model.clone(), SlotSource::Unsaved)
                    .expect("swap");
            }
        }
        log
    };
    assert_eq!(run(), run(), "serial replay must be bit-for-bit identical");
}

#[test]
fn concurrent_inserts_and_swaps_keep_every_query_answered() {
    let dataset = dataset();
    let engine = Arc::new(sharded(&dataset, 4, Some(HotKeyConfig::default())));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let inserter = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut k = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                let r = Rating::new(k % USERS, (k * 3) % ITEMS, 3.5);
                engine.insert_rating(r).expect("insert");
                k += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            k
        })
    };
    let swapper = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let model = frozen(&dataset);
        std::thread::spawn(move || {
            let mut swaps = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Acquire) {
                engine
                    .install_model(model.clone(), SlotSource::Unsaved)
                    .expect("swap");
                swaps += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            swaps
        })
    };
    let queries = query_stream(60);
    for _ in 0..4 {
        for batch in queries.chunks(6) {
            let answers = engine.predict_batch_tagged(batch, None).expect("batch");
            assert_eq!(answers.len(), batch.len());
            for a in &answers {
                assert!((0.0..=5.0).contains(&a.rating));
            }
            // Every answer is stamped with a real installed version (each
            // shard pins its slot per sub-batch; cross-shard sub-batches
            // may legitimately pin different versions mid-swap).
            assert!(answers.iter().all(|a| a.version >= 1));
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Release);
    let inserts = inserter.join().expect("inserter");
    let swaps = swapper.join().expect("swapper");
    assert!(inserts > 0 && swaps > 0, "writers must actually have run");
    engine.version(); // asserts lockstep in debug builds
}

#[test]
fn insert_commits_to_owner_shard_only() {
    let dataset = dataset();
    let engine = sharded(&dataset, 4, None);
    let user = 11;
    let item = 13;
    // Pick a pair that is not yet rated so the insert actually lands.
    assert!(engine.shard_engines()[0]
        .graph_snapshot()
        .rating(user, item)
        .is_none());
    let owner = engine.shard_of(user);
    engine
        .insert_rating(Rating::new(user, item, 5.0))
        .expect("insert");
    for (s, shard) in engine.shard_engines().iter().enumerate() {
        if s == owner {
            assert_eq!(shard.graph_epoch(), 1, "owner commits the edge");
            assert_eq!(shard.graph_snapshot().rating(user, item), Some(5.0));
        } else {
            assert_eq!(shard.graph_epoch(), 0, "shard {s} must not be touched");
            assert_eq!(shard.graph_snapshot().rating(user, item), None);
        }
    }
}

#[test]
fn hot_keys_are_replicated_and_spread_without_changing_predictions() {
    let dataset = dataset();
    let engine = sharded(
        &dataset,
        4,
        Some(HotKeyConfig {
            sketch_capacity: 8,
            hot_threshold: 3,
        }),
    );
    let hot_pair = RatingQuery { user: 5, item: 7 };
    let first = engine
        .predict_batch_tagged(&[hot_pair], None)
        .expect("first")[0]
        .rating
        .to_bits();
    for _ in 0..12 {
        let a = engine
            .predict_batch_tagged(&[hot_pair], None)
            .expect("batch")[0]
            .rating
            .to_bits();
        assert_eq!(a, first, "spread routing must not change the prediction");
    }
    let hot = engine.hot_key_stats();
    assert!(hot.replicated_pairs >= 1, "hot pair must be replicated");
    assert!(hot.hot_routed > 0, "spread policy must route hot arrivals");
    let touched = engine.shard_stats().iter().filter(|s| s.routed > 0).count();
    assert!(
        touched >= 2,
        "a replicated hot pair must be served by more than one shard"
    );
}

#[test]
fn zipf_traffic_is_answered_and_balanced_across_four_shards() {
    let dataset = dataset();
    let engine = sharded(&dataset, 4, Some(HotKeyConfig::default()));
    let queries = zipf_stream(400);
    let answered: usize = queries
        .chunks(8)
        .map(|batch| engine.predict_batch(batch).expect("fault-free batch").len())
        .sum();
    assert_eq!(answered, queries.len(), "every query answered");
    let balance = engine.balance();
    assert!(
        balance <= 2.0,
        "max-over-mean routed load {balance:.2} under zipf skew with replication on"
    );
    assert!(engine.hot_key_stats().replicated_pairs > 0);
}

/// Host-conditional, like every scaling claim in this workspace: two cores
/// cannot express four-way shard parallelism, so the gate arms only where
/// the hardware can deliver it. It runs under its own 4-thread pool, so the
/// `HIRE_THREADS=1` CI cells neither fail it nor make it vacuous.
#[test]
fn four_shards_replay_zipf_traffic_at_twice_the_one_shard_rate() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("scaling gate skipped: {cores} hardware thread(s), needs 4");
        return;
    }
    let dataset = dataset();
    let queries = zipf_stream(400);
    let pool = Arc::new(hire_par::ThreadPool::new(4));
    // A fresh engine (cold caches) per replay; best of three rides out the
    // scheduler.
    let best_secs = |shards: usize| {
        (0..3)
            .map(|_| {
                let engine = sharded(&dataset, shards, Some(HotKeyConfig::default()));
                let start = Instant::now();
                hire_par::with_pool(&pool, || {
                    for batch in queries.chunks(8) {
                        engine.predict_batch(batch).expect("fault-free batch");
                    }
                });
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (one, four) = (best_secs(1), best_secs(4));
    assert!(
        one >= 2.0 * four,
        "4 shards replayed at {:.2}x the 1-shard rate on {cores} hardware threads (>= 2x required)",
        one / four
    );
}

#[test]
fn failed_prepare_on_any_shard_aborts_the_whole_install() {
    let dataset = dataset();
    let plans: Vec<Arc<FaultPlan>> = (0..3)
        .map(|s| {
            if s == 2 {
                Arc::new(FaultPlan::new(9).with_fault(sites::ONLINE_SWAP, FaultKind::Error, 1.0))
            } else {
                Arc::new(FaultPlan::new(9))
            }
        })
        .collect();
    let engine = sharded(&dataset, 3, None).with_faults(plans);
    let before: Vec<u64> = engine.shard_engines().iter().map(|e| e.version()).collect();
    assert_eq!(before, vec![1, 1, 1]);
    let err = engine
        .install_model(frozen(&dataset), SlotSource::Unsaved)
        .expect_err("shard 2's prepare must fail the install");
    assert!(
        matches!(err, ServeError::Injected { .. }),
        "expected the injected fault, got {err:?}"
    );
    let after: Vec<u64> = engine.shard_engines().iter().map(|e| e.version()).collect();
    assert_eq!(
        after,
        vec![1, 1, 1],
        "an aborted install must not move any shard's version"
    );
    // The engine still serves, and a fault-free install succeeds in
    // lockstep afterwards... except shard 2's plan fires every arrival, so
    // swap attempts there keep failing — which is exactly the point: the
    // sharded install keeps aborting atomically rather than diverging.
    let again = engine.install_model(frozen(&dataset), SlotSource::Unsaved);
    assert!(again.is_err());
    assert_eq!(engine.version(), 1);
    let answers = engine
        .predict_batch_tagged(&query_stream(8), None)
        .expect("still serving");
    assert_eq!(answers.len(), 8);
}

#[test]
fn fault_free_install_moves_every_shard_in_lockstep() {
    let dataset = dataset();
    let engine = sharded(&dataset, 4, None);
    let v = engine
        .install_model(frozen(&dataset), SlotSource::Unsaved)
        .expect("install");
    assert_eq!(v, 2);
    for shard in engine.shard_engines() {
        assert_eq!(shard.version(), 2);
    }
    assert_eq!(engine.version(), 2);
}

#[test]
fn out_of_range_queries_surface_typed_errors() {
    let dataset = dataset();
    let engine = sharded(&dataset, 2, None);
    let err = engine
        .predict_batch(&[RatingQuery {
            user: USERS + 1,
            item: 0,
        }])
        .expect_err("out-of-range user is a caller bug");
    assert!(matches!(err, ServeError::Model(_)));
    let err = engine
        .insert_rating(Rating::new(0, ITEMS + 5, 3.0))
        .expect_err("out-of-range item is a caller bug");
    assert!(matches!(err, ServeError::Model(_)));
}
