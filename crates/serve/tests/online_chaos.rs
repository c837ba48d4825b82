//! Chaos tests for train-while-serving. The four acceptance invariants:
//!
//! 1. A panicking or diverging trainer **never** affects serving: the
//!    incumbent's answers stay bit-exact versus a control engine that saw
//!    the same traffic but ran no trainer.
//! 2. A swap concurrent with in-flight batches yields answers bit-equal
//!    to a pure run of whichever version each batch started on — and no
//!    query is ever dropped across a swap.
//! 3. A regressing candidate is never promoted (chaos on the eval/swap
//!    path rejects or fails typed, it does not promote by accident).
//! 4. The whole pipeline replays identically per seed.

use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_core::{HireConfig, HireModel};
use hire_data::Dataset;
use hire_graph::Rating;
use hire_serve::{
    EngineConfig, FrozenModel, OnlineConfig, OnlineLoop, Predictor, RatingQuery, RoundOutcome,
    ServeEngine, ServeError, Server, ServerConfig, SlotSource,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const USERS: usize = 40;
const ITEMS: usize = 35;
const SEEDS: [u64; 3] = [7, 1234, 0xC0FFEE];

fn dataset() -> Arc<Dataset> {
    Arc::new(
        hire_data::SyntheticConfig::movielens_like()
            .scaled(USERS, ITEMS, (8, 15))
            .generate(21),
    )
}

fn model_config() -> HireConfig {
    HireConfig::fast().with_blocks(1).with_context_size(6, 6)
}

fn frozen(dataset: &Dataset, init_seed: u64) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(init_seed);
    let model = HireModel::new(dataset, &model_config(), &mut rng);
    FrozenModel::from_model(&model, dataset).expect("freeze")
}

fn build_engine(dataset: &Arc<Dataset>, faults: Option<Arc<FaultPlan>>) -> Arc<ServeEngine> {
    let engine_config = EngineConfig {
        cache_capacity: 128,
        ..EngineConfig::from_model_config(&model_config())
    };
    let mut engine = ServeEngine::new(frozen(dataset, 4), dataset.clone(), engine_config);
    if let Some(plan) = faults {
        engine = engine.with_faults(plan);
    }
    Arc::new(engine)
}

fn online_config(seed: u64) -> OnlineConfig {
    OnlineConfig {
        min_new_ratings: 10,
        fine_tune_steps: 4,
        batch_size: 2,
        base_lr: 1e-4,
        holdout_every: 4,
        regression_tolerance: 10.0,
        seed,
        ..OnlineConfig::default()
    }
}

fn feed(engine: &ServeEngine, n: usize, offset: usize) {
    for k in 0..n {
        engine
            .insert_rating(Rating::new(
                (offset + k * 3) % USERS,
                (offset + k * 5) % ITEMS,
                ((k % 5) + 1) as f32,
            ))
            .expect("insert");
    }
}

fn queries(n: usize) -> Vec<RatingQuery> {
    (0..n)
        .map(|k| RatingQuery {
            user: (k * 7) % USERS,
            item: (k * 11) % ITEMS,
        })
        .collect()
}

fn serve_bits(engine: &ServeEngine, qs: &[RatingQuery]) -> Vec<u32> {
    engine
        .predict_batch_tagged(qs, None)
        .expect("serve")
        .iter()
        .map(|a| a.rating.to_bits())
        .collect()
}

/// Invariant 1: trainer chaos (panic, typed error) at 100% never touches
/// serving. A control engine receives the identical inserts but runs no
/// trainer; after the faulted round, both engines must answer bit-exactly
/// alike, on the same version.
#[test]
fn trainer_panic_and_error_never_affect_serving() {
    for seed in SEEDS {
        for kind in [FaultKind::Panic, FaultKind::Error] {
            let dataset = dataset();
            let chaotic = build_engine(&dataset, None);
            let control = build_engine(&dataset, None);
            let plan = Arc::new(FaultPlan::new(seed).with_fault(sites::TRAINER_STEP, kind, 1.0));
            let online = OnlineLoop::new(chaotic.clone(), online_config(seed)).with_faults(plan);
            feed(&chaotic, 20, 0);
            feed(&control, 20, 0);
            let outcome = online.run_round();
            assert!(
                matches!(outcome, RoundOutcome::TrainerCrashed),
                "seed {seed} {kind:?}: got {outcome:?}"
            );
            assert_eq!(chaotic.version(), 1, "crashed trainer must not swap");
            let qs = queries(16);
            assert_eq!(
                serve_bits(&chaotic, &qs),
                serve_bits(&control, &qs),
                "seed {seed} {kind:?}: trainer crash leaked into serving"
            );
            // The pending ratings were retained: a later loop without
            // faults can still train on them.
            let retry = OnlineLoop::new(chaotic.clone(), online_config(seed));
            let outcome = retry.run_round();
            assert!(
                matches!(
                    outcome,
                    RoundOutcome::Promoted { .. } | RoundOutcome::Rejected { .. }
                ),
                "seed {seed} {kind:?}: retained ratings must train on retry: {outcome:?}"
            );
        }
    }
}

/// Invariant 1 (divergence flavor): a guard-aborting fine-tune reports
/// `TrainerDiverged` and leaves serving bit-exact.
#[test]
fn trainer_divergence_is_contained() {
    let dataset = dataset();
    let chaotic = build_engine(&dataset, None);
    let control = build_engine(&dataset, None);
    let online = OnlineLoop::new(
        chaotic.clone(),
        OnlineConfig {
            base_lr: 1e6, // guaranteed loss explosion
            fine_tune_steps: 40,
            // A real gate: the wrecked candidate must not slip through on
            // the generous machinery-test tolerance.
            regression_tolerance: 0.2,
            ..online_config(7)
        },
    );
    feed(&chaotic, 20, 0);
    feed(&control, 20, 0);
    let outcome = online.run_round();
    assert!(
        matches!(
            outcome,
            RoundOutcome::TrainerDiverged | RoundOutcome::Rejected { .. }
        ),
        "an exploding LR must abort or reject, got {outcome:?}"
    );
    assert_eq!(chaotic.version(), 1);
    let qs = queries(16);
    assert_eq!(serve_bits(&chaotic, &qs), serve_bits(&control, &qs));
}

/// Chaos on the shadow-eval site: the candidate is discarded without a
/// verdict, serving untouched, and the ratings are retained.
#[test]
fn shadow_eval_faults_discard_the_candidate() {
    for seed in SEEDS {
        for kind in [FaultKind::Panic, FaultKind::Error] {
            let dataset = dataset();
            let chaotic = build_engine(&dataset, None);
            let control = build_engine(&dataset, None);
            let plan = Arc::new(FaultPlan::new(seed).with_fault(sites::SHADOW_EVAL, kind, 1.0));
            let online = OnlineLoop::new(chaotic.clone(), online_config(seed)).with_faults(plan);
            feed(&chaotic, 20, 1);
            feed(&control, 20, 1);
            let outcome = online.run_round();
            assert!(
                matches!(outcome, RoundOutcome::EvalFailed),
                "seed {seed} {kind:?}: got {outcome:?}"
            );
            assert_eq!(chaotic.version(), 1, "no verdict, no swap");
            let qs = queries(12);
            assert_eq!(serve_bits(&chaotic, &qs), serve_bits(&control, &qs));
        }
    }
}

/// Chaos on the swap site: the swap fails typed, before any state is
/// touched — the incumbent keeps serving and a later clean swap works.
#[test]
fn swap_faults_abandon_the_swap_typed() {
    for seed in SEEDS {
        let dataset = dataset();
        let plan =
            Arc::new(FaultPlan::new(seed).with_fault(sites::ONLINE_SWAP, FaultKind::Error, 1.0));
        let engine = build_engine(&dataset, Some(plan));
        let control = build_engine(&dataset, None);

        // Direct install: typed injected error.
        let err = engine
            .install_model(frozen(&dataset, 99), SlotSource::Unsaved)
            .expect_err("swap fault must surface");
        assert!(
            matches!(err, ServeError::Injected { .. }),
            "seed {seed}: got {err}"
        );
        assert_eq!(engine.version(), 1);
        let qs = queries(12);
        assert_eq!(serve_bits(&engine, &qs), serve_bits(&control, &qs));

        // Through the loop: the round reports SwapFailed and retains the
        // ratings for the next round.
        let online = OnlineLoop::new(engine.clone(), online_config(seed));
        feed(&engine, 20, 2);
        feed(&control, 20, 2);
        let outcome = online.run_round();
        assert!(
            matches!(outcome, RoundOutcome::SwapFailed),
            "seed {seed}: got {outcome:?}"
        );
        assert_eq!(engine.version(), 1);
        let qs = queries(12);
        assert_eq!(serve_bits(&engine, &qs), serve_bits(&control, &qs));
    }
}

/// An incompatible candidate (different architecture) is refused by the
/// swap itself — a misbehaving trainer cannot install a model the serving
/// path cannot run.
#[test]
fn incompatible_candidate_is_refused_by_the_swap() {
    let dataset = dataset();
    let engine = build_engine(&dataset, None);
    let mut rng = StdRng::seed_from_u64(5);
    let small = HireConfig::fast().with_blocks(1).with_context_size(4, 4);
    let small = HireConfig {
        attr_dim: small.attr_dim / 2,
        ..small
    };
    let other = HireModel::new(&dataset, &small, &mut rng);
    let other = FrozenModel::from_model(&other, &dataset).expect("freeze");
    let err = engine
        .install_model(other, SlotSource::Unsaved)
        .expect_err("incompatible model must be refused");
    assert!(err.to_string().contains("incompatible"), "got {err}");
    assert_eq!(engine.version(), 1);
}

/// Invariant 2: hot swaps racing in-flight batches. A swapper thread
/// alternates two models while reader threads hammer queries; every
/// answer must be bit-equal to a pure single-version engine of the
/// version stamped on it (odd versions = model A, even = model B).
#[test]
fn swap_racing_inflight_batches_is_bit_exact_per_version() {
    let dataset = dataset();
    let model_a = frozen(&dataset, 4);
    let model_b = frozen(&dataset, 55);
    let engine_config = || EngineConfig {
        cache_capacity: 128,
        ..EngineConfig::from_model_config(&model_config())
    };
    // Pure reference engines, one per model, warmed over the same queries.
    let ref_a = ServeEngine::new(model_a.clone(), dataset.clone(), engine_config());
    let ref_b = ServeEngine::new(model_b.clone(), dataset.clone(), engine_config());
    let qs = queries(24);
    let bits_a = serve_bits(&ref_a, &qs);
    let bits_b = serve_bits(&ref_b, &qs);
    assert_ne!(bits_a, bits_b, "distinct models must answer differently");

    let live = Arc::new(ServeEngine::new(
        model_a.clone(),
        dataset.clone(),
        engine_config(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let swapper = {
        let live = live.clone();
        let stop = stop.clone();
        let (a, b) = (model_a.clone(), model_b.clone());
        std::thread::spawn(move || {
            // Strict alternation: v1=A, v2=B, v3=A, ... so version parity
            // identifies the weights.
            let mut next_is_b = true;
            while !stop.load(Ordering::Relaxed) {
                let model = if next_is_b { b.clone() } else { a.clone() };
                live.install_model(model, SlotSource::Unsaved)
                    .expect("swap");
                next_is_b = !next_is_b;
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let live = live.clone();
            let qs = qs.clone();
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                for _ in 0..30 {
                    let answers = live.predict_batch_tagged(&qs, None).expect("serve");
                    // A batch pins one slot: every answer shares a version.
                    let version = answers[0].version;
                    assert!(answers.iter().all(|a| a.version == version));
                    seen.push((
                        version,
                        answers
                            .iter()
                            .map(|a| a.rating.to_bits())
                            .collect::<Vec<_>>(),
                    ));
                }
                seen
            })
        })
        .collect();
    let mut observed_versions = std::collections::BTreeSet::new();
    for reader in readers {
        for (version, bits) in reader.join().expect("reader thread") {
            observed_versions.insert(version);
            let expected = if version % 2 == 1 { &bits_a } else { &bits_b };
            assert_eq!(
                &bits, expected,
                "version {version}: answers must be bit-exact for the pinned model"
            );
        }
    }
    stop.store(true, Ordering::Relaxed);
    swapper.join().expect("swapper thread");
    assert!(
        observed_versions.len() >= 2,
        "the race must actually observe multiple versions: {observed_versions:?}"
    );
}

/// Invariant 2, server flavor: queries submitted through the batching
/// worker pool while swaps land are never dropped — every accepted query
/// gets exactly one reply.
#[test]
fn no_query_is_dropped_across_swaps() {
    let dataset = dataset();
    let engine = build_engine(&dataset, None);
    let model_b = frozen(&dataset, 55);
    let server = Server::start(
        engine.clone(),
        ServerConfig {
            workers: 2,
            max_batch: 4,
            max_queue: 512,
        },
    );
    let swapper = {
        let engine = engine.clone();
        std::thread::spawn(move || {
            for _ in 0..10 {
                engine
                    .install_model(model_b.clone(), SlotSource::Unsaved)
                    .expect("swap");
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };
    let mut accepted = Vec::new();
    for q in (0..96).map(|k| RatingQuery {
        user: (k * 7) % USERS,
        item: (k * 11) % ITEMS,
    }) {
        match server.submit(q) {
            Ok(h) => accepted.push(h),
            Err(ServeError::Overloaded { .. }) => {}
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    let n_accepted = accepted.len() as u64;
    for h in accepted {
        let pred = h
            .recv_timeout(Duration::from_secs(30))
            .expect("every query must be answered across swaps");
        assert!(pred.version >= 1, "answers must carry their version");
    }
    swapper.join().expect("swapper");
    server.shutdown();
    assert_eq!(
        server.stats().completed,
        n_accepted,
        "every accepted query must complete exactly once across swaps"
    );
}

/// Invariant 4: the full pipeline — inserts, chaotic rounds (faults on
/// trainer, eval and swap sites), interleaved serving — replays
/// bit-identically under one seed.
#[test]
fn online_pipeline_replays_identically_per_seed() {
    let scenario = |seed: u64| {
        let dataset = dataset();
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_fault(sites::TRAINER_STEP, FaultKind::Error, 0.4)
                .with_fault(sites::SHADOW_EVAL, FaultKind::Error, 0.3)
                .with_fault(sites::ONLINE_SWAP, FaultKind::Error, 0.3),
        );
        let engine = build_engine(&dataset, Some(plan.clone()));
        let online = OnlineLoop::new(engine.clone(), online_config(seed)).with_faults(plan.clone());
        let mut serve_log: Vec<(u64, Vec<u32>)> = Vec::new();
        for phase in 0..4 {
            feed(&engine, 12, phase * 12);
            online.run_round();
            let qs = queries(8);
            serve_log.push((engine.version(), serve_bits(&engine, &qs)));
        }
        (online.history(), serve_log, plan.total_injected())
    };
    for seed in SEEDS {
        assert_eq!(
            scenario(seed),
            scenario(seed),
            "seed {seed}: the online pipeline must replay bit-identically"
        );
    }
}
