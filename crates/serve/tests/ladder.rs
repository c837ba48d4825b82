//! Five-tier degradation ladder under chaos (DESIGN.md §13).
//!
//! Invariants, on top of `tests/chaos.rs`:
//!
//! 1. A thin deadline budget is served by the **quantized** tier, within
//!    its documented error bound of the model tier.
//! 2. A half-open breaker whose probe budget is spent serves the
//!    quantized tier instead of degrading to graph statistics.
//! 3. Each rung falls to the next: quantized → hybrid → fallback, and
//!    model → hybrid → fallback. No rung is ever skipped downward.
//! 4. Per-version and per-scenario tier accounting is *exact* under mixed
//!    faults and online hot swaps (every answered query is counted in
//!    exactly one tier bucket of each breakdown).
//! 5. The whole five-tier schedule replays bit-identically per seed.

use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_core::{train_hybrid, HireConfig, HireModel, HybridConfig};
use hire_data::Dataset;
use hire_serve::{
    BreakerConfig, EngineConfig, FrozenModel, Predictor, QuantTierConfig, RatingQuery,
    ResilienceConfig, ServeEngine, ServeError, ServedBy, Server, ServerConfig, SlotSource,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: usize = 40;
const ITEMS: usize = 35;

fn dataset() -> Dataset {
    hire_data::SyntheticConfig::movielens_like()
        .scaled(USERS, ITEMS, (8, 15))
        .generate(21)
}

/// A quantized-tier config whose budget threshold dwarfs any real forward
/// time, so a `now + 5s` deadline deterministically selects the tier while
/// leaving ample budget for the quantized forward itself to finish.
fn eager_quant() -> QuantTierConfig {
    QuantTierConfig {
        deadline_threshold: Duration::from_secs(10),
        ..QuantTierConfig::default()
    }
}

/// A deadline that always trips the quantized budget trigger (see
/// [`eager_quant`]) but never actually expires within a test.
fn thin_budget() -> Option<Instant> {
    Some(Instant::now() + Duration::from_secs(5))
}

fn build_engine(
    resilience: ResilienceConfig,
    faults: Option<Arc<FaultPlan>>,
    hybrid: bool,
) -> (ServeEngine, Arc<Dataset>) {
    build_engine_with_cache(resilience, faults, hybrid, 64)
}

fn build_engine_with_cache(
    resilience: ResilienceConfig,
    faults: Option<Arc<FaultPlan>>,
    hybrid: bool,
    cache_capacity: usize,
) -> (ServeEngine, Arc<Dataset>) {
    let dataset = Arc::new(dataset());
    let config = HireConfig::fast().with_blocks(1).with_context_size(8, 8);
    let mut rng = StdRng::seed_from_u64(4);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    let engine_config = EngineConfig {
        cache_capacity,
        ..EngineConfig::from_model_config(&config)
    };
    let mut engine =
        ServeEngine::new(frozen, dataset.clone(), engine_config).with_resilience(resilience);
    if let Some(plan) = faults {
        engine = engine.with_faults(plan);
    }
    if hybrid {
        engine = engine.with_hybrid(train_hybrid(&dataset, &HybridConfig::default()));
    }
    (engine, dataset)
}

fn fast_breaker() -> BreakerConfig {
    BreakerConfig {
        window: 8,
        failure_threshold: 0.5,
        min_samples: 4,
        cooldown: Duration::ZERO,
        half_open_trials: 1,
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

#[test]
fn thin_deadline_budget_is_served_by_the_quantized_tier_within_bound() {
    let (engine, dataset) = build_engine(
        ResilienceConfig {
            quantized: Some(eager_quant()),
            ..ResilienceConfig::default()
        },
        None,
        false,
    );
    let qs = queries(12);
    let thin = engine
        .predict_batch_tagged(&qs, thin_budget())
        .expect("quantized tier answers");
    let (lo, hi) = (dataset.min_rating, dataset.max_rating());
    for (k, a) in thin.iter().enumerate() {
        assert_eq!(
            a.served_by,
            ServedBy::Quantized,
            "query {k}: a thin budget must select the quantized tier"
        );
        assert!(
            (lo - 0.5..=hi + 0.5).contains(&a.rating),
            "query {k}: quantized rating {} far outside [{lo}, {hi}]",
            a.rating
        );
    }
    // Quantized answers are never memoized: re-asking with a full budget
    // must produce fresh *model*-tier answers, and the two tiers must
    // agree within the documented bound.
    let full = engine
        .predict_batch_tagged(&qs, None)
        .expect("model tier answers");
    let bound = engine
        .current_model()
        .quantized()
        .expect("quantized companion built")
        .prediction_bound();
    for (k, (q, m)) in thin.iter().zip(&full).enumerate() {
        assert_eq!(
            m.served_by,
            ServedBy::Model,
            "query {k}: quantized answers must not be laundered into the memo"
        );
        assert!(
            (q.rating - m.rating).abs() <= bound,
            "query {k}: |quantized {} - model {}| exceeds bound {bound}",
            q.rating,
            m.rating
        );
    }
    let tiers = engine.tier_stats();
    assert_eq!(tiers.quantized, qs.len() as u64);
    assert_eq!(tiers.model, qs.len() as u64);
    assert_eq!(tiers.fallback, 0);
}

#[test]
fn half_open_probe_exhaustion_is_served_by_the_quantized_tier() {
    // Model attempts either stall 5ms (holding their breaker admission)
    // or fail. Failures trip the breaker fast; with a zero cooldown every
    // post-open attempt is a half-open probe, and whenever one thread's
    // probe stalls, the other thread finds the probe budget spent — that
    // traffic must ride the quantized tier, not drop to graph statistics.
    let plan = Arc::new(
        FaultPlan::new(3)
            .with_fault(
                sites::ENGINE_FORWARD,
                FaultKind::Delay(Duration::from_millis(5)),
                0.5,
            )
            .with_fault(sites::ENGINE_FORWARD, FaultKind::Error, 1.0),
    );
    // Cache disabled: a successful forward would otherwise memoize every
    // pair and the memo fast path would starve the breaker of traffic.
    let (engine, _) = build_engine_with_cache(
        ResilienceConfig {
            breaker: Some(fast_breaker()),
            retry_attempts: 1,
            ..ResilienceConfig::default()
        },
        Some(plan),
        false,
        0,
    );
    let engine = Arc::new(engine);
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let engine = engine.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let qs = queries(16);
                for _ in 0..400 {
                    for q in &qs {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        engine
                            .predict_batch_tagged(std::slice::from_ref(q), None)
                            .expect("the ladder always answers");
                        if engine.tier_stats().quantized > 0 {
                            stop.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no panic escapes the ladder");
    }
    assert!(
        engine.tier_stats().quantized > 0,
        "a half-open breaker with a spent probe budget must serve the \
         quantized tier: {:?}",
        engine.tier_stats()
    );
}

#[test]
fn model_failure_falls_to_hybrid_then_fallback() {
    // Rung 3: a panicking model with a healthy hybrid → every answer is
    // hybrid-tier, in range.
    let panic_storm =
        || Arc::new(FaultPlan::new(3).with_fault(sites::ENGINE_FORWARD, FaultKind::Panic, 1.0));
    let no_breaker = || ResilienceConfig {
        breaker: None,
        ..ResilienceConfig::default()
    };
    let (engine, dataset) = build_engine(no_breaker(), Some(panic_storm()), true);
    let qs = queries(12);
    let answers = engine.predict_batch_tagged(&qs, None).expect("hybrid");
    let (lo, hi) = (dataset.min_rating, dataset.max_rating());
    for (k, a) in answers.iter().enumerate() {
        assert_eq!(a.served_by, ServedBy::Hybrid, "query {k}");
        assert!(
            (lo..=hi).contains(&a.rating),
            "query {k}: hybrid rating {} outside [{lo}, {hi}]",
            a.rating
        );
    }
    assert_eq!(engine.tier_stats().hybrid, qs.len() as u64);
    assert_eq!(engine.tier_stats().fallback, 0);

    // Rung 4: the hybrid faulted too → graph statistics, with the
    // degradation attributed to the model failure.
    let plan = Arc::new(
        FaultPlan::new(3)
            .with_fault(sites::ENGINE_FORWARD, FaultKind::Panic, 1.0)
            .with_fault(sites::HYBRID_FORWARD, FaultKind::Error, 1.0),
    );
    let (engine, _) = build_engine(no_breaker(), Some(plan), true);
    let answers = engine.predict_batch_tagged(&qs, None).expect("fallback");
    assert!(answers.iter().all(|a| a.served_by == ServedBy::Fallback));
    let tiers = engine.tier_stats();
    assert_eq!(tiers.fallback, qs.len() as u64);
    assert_eq!(tiers.failure_degraded, qs.len() as u64);
}

#[test]
fn quantized_failure_falls_to_hybrid_then_fallback() {
    let quant_storm =
        || Arc::new(FaultPlan::new(5).with_fault(sites::QUANT_FORWARD, FaultKind::Panic, 1.0));
    let eager = || ResilienceConfig {
        quantized: Some(eager_quant()),
        ..ResilienceConfig::default()
    };
    // With a hybrid installed, a panicking quantized tier lands there…
    let (engine, _) = build_engine(eager(), Some(quant_storm()), true);
    let qs = queries(10);
    let answers = engine
        .predict_batch_tagged(&qs, thin_budget())
        .expect("hybrid");
    assert!(
        answers.iter().all(|a| a.served_by == ServedBy::Hybrid),
        "a faulted quantized tier must fall to the hybrid tier"
    );
    assert_eq!(engine.tier_stats().hybrid, qs.len() as u64);

    // …and without one, on graph statistics.
    let (engine, _) = build_engine(eager(), Some(quant_storm()), false);
    let answers = engine
        .predict_batch_tagged(&qs, thin_budget())
        .expect("fallback");
    assert!(answers.iter().all(|a| a.served_by == ServedBy::Fallback));
    assert_eq!(engine.tier_stats().failure_degraded, qs.len() as u64);
}

#[test]
fn five_tier_schedule_replays_identically_per_seed() {
    let run = |seed: u64| {
        let plan = Arc::new(FaultPlan::mixed(seed, 0.3));
        let (engine, _) = build_engine(
            ResilienceConfig {
                breaker: Some(fast_breaker()),
                quantized: Some(eager_quant()),
                ..ResilienceConfig::default()
            },
            Some(plan.clone()),
            true,
        );
        // Cycle the deadline class so every rung of the ladder is in
        // play: full budget (model/cache), thin budget (quantized), and
        // already-expired (hybrid/fallback).
        let outcomes: Vec<_> = queries(36)
            .iter()
            .enumerate()
            .map(|(k, q)| {
                let deadline = match k % 3 {
                    0 => None,
                    1 => thin_budget(),
                    _ => Some(Instant::now()),
                };
                engine
                    .predict_batch_tagged(std::slice::from_ref(q), deadline)
                    .map(|a| (a[0].rating.to_bits(), a[0].served_by))
                    .map_err(|e| e.to_string())
            })
            .collect();
        (outcomes, plan.total_injected())
    };
    assert_eq!(run(7), run(7), "same seed must replay the same schedule");
    assert_eq!(run(1234), run(1234));
}

#[test]
fn tier_accounting_is_exact_under_mixed_chaos_and_hot_swaps() {
    let plan = Arc::new(FaultPlan::mixed(0xC0FFEE, 0.3));
    let (engine, _) = build_engine(
        ResilienceConfig {
            breaker: Some(fast_breaker()),
            quantized: Some(eager_quant()),
            ..ResilienceConfig::default()
        },
        Some(plan),
        true,
    );
    let qs = queries(24);
    let mut answered = 0u64;
    for round in 0..6 {
        for (k, q) in qs.iter().enumerate() {
            let deadline = match k % 3 {
                0 => None,
                1 => thin_budget(),
                _ => Some(Instant::now()),
            };
            let answers = engine
                .predict_batch_tagged(std::slice::from_ref(q), deadline)
                .expect("the ladder always answers");
            answered += answers.len() as u64;
        }
        // A hot swap per round spreads the accounting across versions;
        // the identical weights keep the swap compatible by construction.
        if round % 2 == 1 {
            let clone = engine.current_model().model().clone();
            engine
                .install_model(clone, SlotSource::Unsaved)
                .expect("compatible swap");
        }
    }
    let sum = |s: hire_serve::TierStats| s.model + s.quantized + s.hybrid + s.cache + s.fallback;
    let global = engine.tier_stats();
    assert_eq!(
        sum(global),
        answered,
        "global tier counters must cover every answer exactly once: {global:?}"
    );
    assert_eq!(
        global.fallback,
        global.deadline_degraded + global.breaker_degraded + global.failure_degraded,
        "every fallback answer must carry exactly one degradation reason"
    );
    let by_version: u64 = engine.version_stats().iter().map(|&(_, s)| sum(s)).sum();
    assert_eq!(
        by_version, answered,
        "per-version accounting must be exact across swaps"
    );
    let by_scenario: u64 = engine.scenario_stats().iter().map(|&(_, s)| sum(s)).sum();
    assert_eq!(
        by_scenario, answered,
        "per-scenario accounting must be exact"
    );
    assert!(
        engine.version_stats().len() > 1,
        "the swaps must have spread answers across versions"
    );
    // The mix must genuinely exercise the whole ladder, or the identities
    // above prove less than they claim.
    for (tier, count) in [
        ("model", global.model),
        ("quantized", global.quantized),
        ("hybrid", global.hybrid),
        ("cache", global.cache),
        ("fallback", global.fallback),
    ] {
        assert!(count > 0, "tier {tier} was never exercised: {global:?}");
    }
}

#[test]
fn every_query_gets_exactly_one_typed_reply_across_five_tiers_and_swaps() {
    for seed in [7u64, 0xC0FFEE] {
        let plan = Arc::new(FaultPlan::mixed(seed, 0.25));
        let (engine, _) = build_engine(
            ResilienceConfig {
                quantized: Some(eager_quant()),
                ..ResilienceConfig::default()
            },
            Some(plan.clone()),
            true,
        );
        let engine = Arc::new(engine);
        let server = Server::start_with_faults(
            engine.clone(),
            ServerConfig {
                workers: 2,
                max_batch: 4,
                max_queue: 256,
                batch_timeout: Duration::from_millis(1),
            },
            Some(plan.clone()),
        );
        // Online hot swaps race the in-flight traffic throughout.
        let swapper = {
            let engine = engine.clone();
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let clone = engine.current_model().model().clone();
                    engine
                        .install_model(clone, SlotSource::Unsaved)
                        .expect("compatible swap");
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        // Submit budget classes in phases: a batch inherits the tightest
        // deadline of its members, so interleaving classes would drag
        // every coalesced batch down to the expired class.
        let mut accepted = Vec::new();
        let qs = queries(48);
        let budgets = [
            None,                         // model / cache tier
            Some(Duration::from_secs(5)), // quantized budget trigger
            Some(Duration::ZERO),         // expired on arrival → hybrid
        ];
        for (class, budget) in budgets.into_iter().enumerate() {
            for q in &qs[class * 16..(class + 1) * 16] {
                match server.submit_with_deadline(*q, budget) {
                    Ok(h) => accepted.push(h),
                    Err(ServeError::Overloaded { .. }) => {}
                    Err(other) => panic!("seed {seed}: unexpected submit error: {other}"),
                }
            }
        }
        let n_accepted = accepted.len() as u64;
        for (k, h) in accepted.into_iter().enumerate() {
            match h.recv_timeout(Duration::from_secs(30)) {
                Ok(pred) => {
                    assert!(
                        (0.0..=5.5).contains(&pred.rating),
                        "seed {seed}, query {k}: rating {} out of range",
                        pred.rating
                    );
                }
                Err(ServeError::DeadlineExceeded)
                | Err(ServeError::WorkerLost)
                | Err(ServeError::CircuitOpen)
                | Err(ServeError::Injected { .. })
                | Err(ServeError::Model(_)) => {}
                Err(other) => panic!("seed {seed}, query {k}: unexpected error: {other}"),
            }
        }
        swapper.join().expect("swapper never panics");
        server.shutdown();
        assert_eq!(
            server.stats().completed,
            n_accepted,
            "seed {seed}: every accepted query answered exactly once"
        );
        let tiers = engine.tier_stats();
        assert!(
            tiers.quantized > 0,
            "seed {seed}: thin budgets must exercise the quantized tier: {tiers:?}"
        );
        assert!(
            tiers.hybrid > 0,
            "seed {seed}: expired deadlines must exercise the hybrid tier: {tiers:?}"
        );
    }
}
