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
//! 5. **One model, one version per batch** — a failing swap on shard 0,
//!    which owns the lineage, leaves every shard's incumbent (and the
//!    version counter) untouched; a batch that straddles an install
//!    answers under one version.
//! 6. **Load balance under skew** — zipf traffic over a hot set, every
//!    query on its user's owner shard, puts at most 2× the mean load on any
//!    of four shards, and every query is answered.
//! 7. **Throughput scaling** — where the host has four hardware threads,
//!    a four-shard engine behind four server workers replays that traffic
//!    at ≥ 2× its rate behind one worker.
//! 8. **Error rule** — a batch runs every shard it touches, then returns
//!    the lowest-indexed failing shard's error.
//! 9. **Read-your-writes** — after a user's write, every read of that
//!    user's hot pair equals a 1-shard engine's that took the same write.
//! 10. **The 1-shard engine is the engine** — generated batches answer the
//!     same bits, tiers and versions (or the same error) through a
//!     `ServeEngine` and a 1-shard `ShardedEngine`, with equal counters.

use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_core::{HireConfig, HireModel};
use hire_data::Dataset;
use hire_graph::{BipartiteGraph, Rating};
use hire_serve::{
    Answer, EngineConfig, FrozenModel, Predictor, RatingQuery, ServeEngine, ServeError, Server,
    ServerConfig, SlotSource,
};
use hire_shard::{ShardConfig, ShardedEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

fn sharded(dataset: &Arc<Dataset>, shards: usize) -> ShardedEngine {
    ShardedEngine::new(
        frozen(dataset),
        Arc::clone(dataset),
        engine_config(),
        ShardConfig::with_shards(shards),
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
    let reference: Vec<(u32, u64)> = {
        let e = sharded(&dataset, 1);
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
        let e = sharded(&dataset, shards);
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
            let engine = sharded(&dataset, shards).with_faults(shard_plans.clone());
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
        let e = sharded(&dataset, 3);
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
    let engine = Arc::new(sharded(&dataset, 4));
    let stop = Arc::new(AtomicBool::new(false));
    let (inserts, swaps) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let inserter = {
        let (engine, stop, inserts) =
            (Arc::clone(&engine), Arc::clone(&stop), Arc::clone(&inserts));
        std::thread::spawn(move || {
            let mut k = 0usize;
            while !stop.load(Ordering::Acquire) {
                let r = Rating::new(k % USERS, (k * 3) % ITEMS, 3.5);
                engine.insert_rating(r).expect("insert");
                inserts.fetch_add(1, Ordering::Release);
                k += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    let swapper = {
        let (engine, stop, swaps) = (Arc::clone(&engine), Arc::clone(&stop), Arc::clone(&swaps));
        let model = frozen(&dataset);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                engine
                    .install_model(model.clone(), SlotSource::Unsaved)
                    .expect("swap");
                swaps.fetch_add(1, Ordering::Release);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let queries = query_stream(60);
    // At least four rounds, and on until both writers have written: on a
    // loaded host the reads can otherwise finish before either writer is
    // first scheduled.
    let writers_ran = || inserts.load(Ordering::Acquire) > 0 && swaps.load(Ordering::Acquire) > 0;
    let deadline = Instant::now() + Duration::from_secs(30);
    let (mut round, mut last_version) = (0, 1);
    while round < 4 || (!writers_ran() && Instant::now() < deadline) {
        round += 1;
        for batch in queries.chunks(6) {
            let answers = engine.predict_batch_tagged(batch, None).expect("batch");
            assert_eq!(answers.len(), batch.len());
            for a in &answers {
                assert!((0.0..=5.0).contains(&a.rating));
            }
            // The batch pins one slot for every shard: one version per
            // batch, and never an older one than an earlier batch saw.
            let version = answers[0].version;
            assert!(
                answers.iter().all(|a| a.version == version),
                "one batch answered under several versions"
            );
            assert!(version >= last_version, "v{version} after v{last_version}");
            last_version = version;
        }
    }
    stop.store(true, Ordering::Release);
    inserter.join().expect("inserter");
    swapper.join().expect("swapper");
    assert!(writers_ran(), "writers must actually have run");
    assert!(engine.version() >= last_version);
}

#[test]
fn insert_commits_to_owner_shard_only() {
    let dataset = dataset();
    let engine = sharded(&dataset, 4);
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

/// A user's own write reaches every later answer for that user, however
/// hot the pair: the owner shard alone holds the write, so every read of
/// `(u, ·)` is answered there, and agrees with a 1-shard engine that took
/// the same write.
#[test]
fn a_users_write_reaches_its_hot_pair_on_every_shard() {
    let dataset = dataset();
    let (sharded, twin) = (sharded(&dataset, 2), sharded(&dataset, 1));
    let user = 0;
    let graph = twin.shard_engines()[0].graph_snapshot();
    let mut unrated = (0..ITEMS).filter(|&i| graph.rating(user, i).is_none());
    let (item, written) = (
        unrated.next().expect("an unrated item"),
        unrated.next().expect("a second unrated item"),
    );
    let hot = RatingQuery { user, item };
    let read = |e: &ShardedEngine| e.predict_batch(&[hot]).expect("fault-free read")[0];
    let before = read(&twin);
    for _ in 0..40 {
        assert_eq!(read(&sharded).to_bits(), before.to_bits());
    }
    let write = Rating::new(user, written, 5.0);
    sharded.insert_rating(write).expect("insert");
    twin.insert_rating(write).expect("insert");
    let after = read(&twin);
    assert_ne!(
        after.to_bits(),
        before.to_bits(),
        "precondition: the write moves the 1-shard answer"
    );
    for k in 0..8 {
        let got = read(&sharded);
        assert_eq!(
            got.to_bits(),
            after.to_bits(),
            "read {k} after the write: {got} against the 1-shard {after}"
        );
    }
}

#[test]
fn zipf_traffic_is_answered_and_balanced_across_four_shards() {
    let dataset = dataset();
    let engine = sharded(&dataset, 4);
    let queries = zipf_stream(400);
    let answered: usize = queries
        .chunks(8)
        .map(|batch| engine.predict_batch(batch).expect("fault-free batch").len())
        .sum();
    assert_eq!(answered, queries.len(), "every query answered");
    let balance = engine.balance();
    assert!(
        balance <= 2.0,
        "max-over-mean routed load {balance:.2} under zipf skew"
    );
}

/// Seconds for a server with `workers` workers to answer `queries`, all
/// submitted at once, through a fresh (cold-cache) four-shard engine.
fn served_replay_secs(dataset: &Arc<Dataset>, queries: &[RatingQuery], workers: usize) -> f64 {
    let server = Server::start(
        Arc::new(sharded(dataset, 4)),
        ServerConfig {
            workers,
            max_batch: 8,
            max_queue: queries.len(),
        },
    );
    let start = Instant::now();
    let handles: Vec<_> = queries
        .iter()
        .map(|&q| server.submit(q).expect("the queue holds the whole replay"))
        .collect();
    for handle in handles {
        handle.wait().expect("fault-free query");
    }
    let secs = start.elapsed().as_secs_f64();
    server.shutdown();
    secs
}

/// Host-conditional, like every scaling claim in this workspace: two cores
/// cannot express four-way parallelism, so the gate arms only where the
/// hardware can deliver it. Serving parallelism is the server's workers (a
/// sharded batch runs on the worker that took it), so the gate is sized by
/// workers, not by `HIRE_THREADS`.
#[test]
fn four_workers_replay_zipf_traffic_at_twice_the_one_worker_rate() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("scaling gate skipped: {cores} hardware thread(s), needs 4");
        return;
    }
    let dataset = dataset();
    let queries = zipf_stream(400);
    // A fresh engine per replay; best of three rides out the scheduler.
    let best_secs = |workers: usize| {
        (0..3)
            .map(|_| served_replay_secs(&dataset, &queries, workers))
            .fold(f64::INFINITY, f64::min)
    };
    let (one, four) = (best_secs(1), best_secs(4));
    assert!(
        one >= 2.0 * four,
        "4 workers replayed at {:.2}x the 1-worker rate on {cores} hardware threads (>= 2x required)",
        one / four
    );
}

/// The rule a sharded batch keeps whatever order its shards run in: every
/// shard the batch touches runs, and the lowest-indexed failure is the
/// batch's error — shard 1's, although shard 2 fails too. A range
/// violation is the failure the ladder never degrades around: shard 1 gets
/// an out-of-range user, shard 2 an out-of-range item, each behind an
/// in-range query of its own.
#[test]
fn a_batch_runs_every_shard_then_returns_the_lowest_failing_shards_error() {
    let dataset = dataset();
    let plans: Vec<Arc<FaultPlan>> = (0..3).map(|_| Arc::new(FaultPlan::new(9))).collect();
    let engine = sharded(&dataset, 3).with_faults(plans.clone());
    let owned = |s: usize, users: std::ops::Range<usize>| {
        users
            .into_iter()
            .find(|&u| engine.shard_of(u) == s)
            .expect("every shard owns a user")
    };
    let bad_user = owned(1, USERS..USERS + 64);
    // One never-seen in-range pair per shard, then shard 1's and shard 2's
    // out-of-range queries.
    let batch = vec![
        RatingQuery {
            user: owned(0, 0..USERS),
            item: 3,
        },
        RatingQuery {
            user: owned(1, 0..USERS),
            item: 3,
        },
        RatingQuery {
            user: owned(2, 0..USERS),
            item: 3,
        },
        RatingQuery {
            user: bad_user,
            item: 3,
        },
        RatingQuery {
            user: owned(2, 0..USERS),
            item: ITEMS,
        },
    ];
    let routed =
        |e: &ShardedEngine| -> Vec<u64> { e.shard_stats().iter().map(|s| s.routed).collect() };
    let before = routed(&engine);
    let err = engine
        .predict_batch_tagged(&batch, None)
        .expect_err("shards 1 and 2 fail");
    let wanted = format!("user {bad_user} out of range {USERS}");
    assert!(
        matches!(&err, ServeError::Model(e) if e.to_string().contains(&wanted)),
        "expected shard 1's range violation, got {err:?}"
    );
    let after = routed(&engine);
    for (s, queries) in [(0, 1), (1, 2), (2, 2)] {
        assert_eq!(
            after[s],
            before[s] + queries,
            "shard {s} was routed its queries"
        );
    }
    // Each shard ran: shard 0 resolved and forwarded its query, and shards
    // 1 and 2 resolved their in-range query before reaching the violation,
    // which stops a shard's walk before its forward.
    for (s, forwards) in [(0, 1), (1, 0), (2, 0)] {
        assert_eq!(
            plans[s].site_stats(sites::ENGINE_RESOLVE).arrivals,
            1,
            "shard {s}"
        );
        assert_eq!(
            plans[s].site_stats(sites::ENGINE_FORWARD).arrivals,
            forwards,
            "shard {s}"
        );
    }
}

#[test]
fn failed_prepare_on_any_shard_aborts_the_whole_install() {
    let dataset = dataset();
    let plans: Vec<Arc<FaultPlan>> = (0..3)
        .map(|s| {
            if s == 0 {
                Arc::new(FaultPlan::new(9).with_fault(sites::ONLINE_SWAP, FaultKind::Error, 1.0))
            } else {
                Arc::new(FaultPlan::new(9))
            }
        })
        .collect();
    let engine = sharded(&dataset, 3).with_faults(plans);
    let before: Vec<u64> = engine.shard_engines().iter().map(|e| e.version()).collect();
    assert_eq!(before, vec![1, 1, 1]);
    let err = engine
        .install_model(frozen(&dataset), SlotSource::Unsaved)
        .expect_err("shard 0's swap fault must fail the install");
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
    // The engine still serves. Shard 0's plan fires every arrival, so
    // every later install fails the same way, and leaves every shard on
    // the incumbent.
    let again = engine.install_model(frozen(&dataset), SlotSource::Unsaved);
    assert!(again.is_err());
    assert_eq!(engine.version(), 1);
    let answers = engine
        .predict_batch_tagged(&query_stream(8), None)
        .expect("still serving");
    assert_eq!(answers.len(), 8);
}

/// A batch pins one model slot for all its shards: shard 0's sub-batch is
/// held up in context resolution while an install lands, and shard 1's
/// sub-batch, which runs after it, still answers under the version the
/// batch started on (a per-shard pin answers `[1, 2]`).
#[test]
fn a_sharded_batch_answers_under_one_version() {
    let dataset = dataset();
    let plans = vec![
        Arc::new(FaultPlan::new(9).with_fault(
            sites::ENGINE_RESOLVE,
            FaultKind::Delay(Duration::from_millis(400)),
            1.0,
        )),
        Arc::new(FaultPlan::new(9)),
    ];
    let engine = Arc::new(sharded(&dataset, 2).with_faults(plans));
    let batch: Vec<RatingQuery> = (0..2)
        .map(|s| RatingQuery {
            user: (0..USERS)
                .find(|&u| engine.shard_of(u) == s)
                .expect("every shard owns a user"),
            item: 3,
        })
        .collect();
    let reader = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || engine.predict_batch_tagged(&batch, None))
    };
    std::thread::sleep(Duration::from_millis(100));
    let installed = engine
        .install_model(frozen(&dataset), SlotSource::Unsaved)
        .expect("install");
    assert_eq!(installed, 2);
    let answers = reader.join().expect("reader").expect("batch");
    let versions: Vec<u64> = answers.iter().map(|a| a.version).collect();
    // Whenever the install lands against the batch, the batch answers
    // under one version: 1 unless the reader was scheduled late.
    assert!(
        versions.iter().all(|&v| v == versions[0]),
        "one batch answered under versions {versions:?}"
    );
}

#[test]
fn fault_free_install_moves_every_shard_in_lockstep() {
    let dataset = dataset();
    let engine = sharded(&dataset, 4);
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
    let engine = sharded(&dataset, 2);
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

/// What a batch answered, comparable across engines: each answer's rating
/// bits, tier and version, or the error.
fn outcome(reply: Result<Vec<Answer>, ServeError>) -> Result<Vec<(u32, String, u64)>, String> {
    reply
        .map(|answers| {
            answers
                .iter()
                .map(|a| (a.rating.to_bits(), format!("{:?}", a.served_by), a.version))
                .collect()
        })
        .map_err(|err| format!("{err:?}"))
}

/// A `ShardedEngine` at one shard is a `ServeEngine`, not a sibling of it.
/// Both are built from the same inputs over a base graph in which the
/// first users and items have no edge, so generated batches — duplicates,
/// all four cold-start scenarios, and an out-of-range query at a random
/// position or none — cover every rung a fault-free batch reaches: model,
/// memo, and the refusal. Every batch must answer the same bits, tiers and
/// versions, or fail with the same error, and the tier counters must agree
/// afterwards.
#[test]
fn a_one_shard_engine_answers_as_the_serve_engine_does() {
    const COLD_USERS: usize = 8;
    const COLD_ITEMS: usize = 6;
    let dataset = dataset();
    let warm: Vec<Rating> = dataset
        .ratings
        .iter()
        .copied()
        .filter(|r| r.user >= COLD_USERS && r.item >= COLD_ITEMS)
        .collect();
    let graph = Arc::new(BipartiteGraph::from_ratings(USERS, ITEMS, &warm));
    let single = ServeEngine::with_shared_graph(
        frozen(&dataset),
        Arc::clone(&dataset),
        Arc::clone(&graph),
        engine_config(),
    );
    let sharded = ShardedEngine::with_shared_graph(
        frozen(&dataset),
        Arc::clone(&dataset),
        graph,
        engine_config(),
        ShardConfig::with_shards(1),
    );
    let mut rng = StdRng::seed_from_u64(0x1_5EED);
    // A small pool, so batches repeat pairs within and across batches.
    let pool: Vec<RatingQuery> = (0..24)
        .map(|k| {
            let (cold_user, cold_item) = (k % 2 == 0, k % 4 < 2);
            let pick = |rng: &mut StdRng, cold: bool, cold_count: usize, count: usize| {
                if cold {
                    rng.gen_range(0..cold_count)
                } else {
                    rng.gen_range(cold_count..count)
                }
            };
            RatingQuery {
                user: pick(&mut rng, cold_user, COLD_USERS, USERS),
                item: pick(&mut rng, cold_item, COLD_ITEMS, ITEMS),
            }
        })
        .collect();
    let mut refused = 0;
    for case in 0..40 {
        let len: usize = rng.gen_range(1..=12);
        let mut batch: Vec<RatingQuery> = (0..len)
            .map(|_| pool[rng.gen_range(0..pool.len())])
            .collect();
        if rng.gen_bool(0.3) {
            let at = rng.gen_range(0..len);
            batch[at] = if rng.gen_bool(0.5) {
                RatingQuery {
                    user: USERS,
                    item: 0,
                }
            } else {
                RatingQuery {
                    user: 0,
                    item: ITEMS + 3,
                }
            };
        }
        let expected = outcome(single.predict_batch_tagged(&batch, None));
        refused += usize::from(expected.is_err());
        assert_eq!(
            outcome(sharded.predict_batch_tagged(&batch, None)),
            expected,
            "case {case}: {batch:?}"
        );
    }
    assert!(refused > 0, "some generated batch holds a range violation");
    let inner = &sharded.shard_engines()[0];
    assert_eq!(inner.tier_stats(), single.tier_stats());
    assert_eq!(inner.scenario_stats(), single.scenario_stats());
    assert_eq!(inner.version_stats(), single.version_stats());
    assert_eq!(
        single.scenario_stats().len(),
        4,
        "every cold-start scenario was answered: {:?}",
        single.scenario_stats()
    );
    let total = single.tier_stats();
    assert!(total.model > 0 && total.cache > 0, "{total:?}");
}
