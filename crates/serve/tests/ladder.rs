//! The four-rung degradation ladder under chaos (DESIGN.md §10, §13):
//! memo → model → hybrid → entity-mean.
//!
//! Invariants, on top of `tests/chaos.rs`:
//!
//! 1. A group with any budget left enters at the **model** rung — there is
//!    no cheaper forward to fall to — so a thin-budget answer is the exact
//!    model answer and is memoized like one.
//! 2. The model rung falls to the next: model → hybrid → fallback. No rung
//!    is ever skipped downward.
//! 3. Per-version and per-scenario tier accounting is *exact* under mixed
//!    faults and online hot swaps (every answered query is counted in
//!    exactly one tier bucket of each breakdown).
//! 4. The whole schedule replays bit-identically per seed.
//! 5. The descent is one table: entry condition × `fallback` × hybrid →
//!    the `ServedBy` tag and the one counter that moved, or the typed
//!    refusal (`LADDER`).
//! 6. Entity-mean answers are bit-equal to `hire_baselines::EntityMean`
//!    fitted on the same graph snapshot, whether or not the batch needs
//!    the global mean.

use hire_baselines::{EntityMean, RatingModel};
use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_core::{train_hybrid, BackoffConfig, HireConfig, HireModel, HybridConfig};
use hire_data::Dataset;
use hire_graph::{BipartiteGraph, Rating};
use hire_serve::{
    Answer, BreakerConfig, BreakerState, EngineConfig, FrozenModel, Predictor, RatingQuery,
    ResilienceConfig, ServeEngine, ServeError, ServedBy, Server, ServerConfig, SlotSource,
    TierStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USERS: usize = 40;
const ITEMS: usize = 35;

fn dataset() -> Dataset {
    hire_data::SyntheticConfig::movielens_like()
        .scaled(USERS, ITEMS, (8, 15))
        .generate(21)
}

/// A deadline with budget left: present, but never expiring within a test.
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
fn model_failure_falls_to_hybrid_then_fallback() {
    // A panicking model with a healthy hybrid → every answer is
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

    // The hybrid faulted too → graph statistics, with the
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
fn ladder_schedule_replays_identically_per_seed() {
    let run = |seed: u64| {
        let plan = Arc::new(FaultPlan::mixed(seed, 0.3));
        let (engine, _) = build_engine(
            ResilienceConfig {
                breaker: Some(fast_breaker()),
                ..ResilienceConfig::default()
            },
            Some(plan.clone()),
            true,
        );
        // Cycle the deadline class so every rung of the ladder is in
        // play: full and thin budgets (model/cache) and already-expired
        // (hybrid/fallback).
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
    let sum = |s: TierStats| s.model + s.hybrid + s.cache + s.fallback;
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
        ("hybrid", global.hybrid),
        ("cache", global.cache),
        ("fallback", global.fallback),
    ] {
        assert!(count > 0, "tier {tier} was never exercised: {global:?}");
    }
}

#[test]
fn every_query_gets_exactly_one_typed_reply_across_tiers_and_swaps() {
    for seed in [7u64, 0xC0FFEE] {
        let plan = Arc::new(FaultPlan::mixed(seed, 0.25));
        let (engine, _) = build_engine(ResilienceConfig::default(), Some(plan.clone()), true);
        let engine = Arc::new(engine);
        let server = Server::start_with_faults(
            engine.clone(),
            ServerConfig {
                workers: 2,
                max_batch: 4,
                max_queue: 256,
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
            Some(Duration::from_secs(5)), // budget left → model / cache tier
            Some(Duration::ZERO),         // expired on arrival → typed refusal
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
            tiers.model > 0,
            "seed {seed}: queries with budget left must exercise the model tier: {tiers:?}"
        );
        assert!(
            tiers.hybrid + tiers.fallback > 0,
            "seed {seed}: the faults must push some answers below the model rung: {tiers:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The ladder as one table: entry condition × `fallback` × hybrid.
// ---------------------------------------------------------------------

/// How a table row makes its query leave the healthy model path.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// `engine.resolve` fails typed: no context, so no model rung.
    ResolveFault,
    /// `engine.resolve` panics.
    ResolvePanic,
    /// The deadline is already gone when the group is reached.
    DeadlineGone,
    /// A deadline is set and has budget left.
    ThinBudget,
    /// The breaker is open and still cooling down.
    BreakerOpen,
    /// The breaker is half-open and its one probe is in flight.
    HalfOpenProbesSpent,
    /// Every model attempt fails typed, retries included.
    ModelFailsRetries,
    /// The model forward panics.
    ModelPanics,
    /// The model forward stalls past the deadline (`FaultKind::Delay`).
    DeadlineInsideForward,
}

/// Which `*_degraded` counter an entity-mean answer moves.
#[derive(Debug, Clone, Copy)]
enum Why {
    Deadline,
    Breaker,
    Failure,
}

/// The typed refusal a row expects under `fallback: false`.
#[derive(Debug, Clone, Copy)]
enum Refusal {
    DeadlineExceeded,
    CircuitOpen,
    Injected(&'static str),
    /// A `ServeError::Model` whose message contains this.
    Model(&'static str),
}

/// Where a row's query lands.
#[derive(Debug, Clone, Copy)]
enum Lands {
    /// On the model rung, whatever `fallback` and the hybrid are: the bits
    /// of the full-budget answer, memoized.
    Model,
    /// Below the model rung. With `fallback`: on the hybrid when one is
    /// installed, else on entity-mean with `Why`'s counter moved. Without
    /// `fallback`: the refusal, and nothing is counted.
    Below(Why, Refusal),
}

const LADDER: [(Entry, Lands); 9] = [
    (
        Entry::ResolveFault,
        Lands::Below(Why::Failure, Refusal::Injected(sites::ENGINE_RESOLVE)),
    ),
    (
        Entry::ResolvePanic,
        Lands::Below(Why::Failure, Refusal::Model("context resolution panicked")),
    ),
    (
        Entry::DeadlineGone,
        Lands::Below(Why::Deadline, Refusal::DeadlineExceeded),
    ),
    (Entry::ThinBudget, Lands::Model),
    (
        Entry::BreakerOpen,
        Lands::Below(Why::Breaker, Refusal::CircuitOpen),
    ),
    (
        Entry::HalfOpenProbesSpent,
        Lands::Below(Why::Breaker, Refusal::CircuitOpen),
    ),
    (
        Entry::ModelFailsRetries,
        Lands::Below(Why::Failure, Refusal::Injected(sites::ENGINE_FORWARD)),
    ),
    (
        Entry::ModelPanics,
        Lands::Below(Why::Failure, Refusal::Model("model forward panicked")),
    ),
    (
        Entry::DeadlineInsideForward,
        Lands::Below(Why::Deadline, Refusal::DeadlineExceeded),
    ),
];

/// The query every cell of the table asks; the breaker rows warm up on
/// other pairs so nothing about it is cached or memoized.
const PROBE: RatingQuery = RatingQuery { user: 3, item: 5 };
/// How long a stalled `engine.forward` holds its attempt.
const STALL: Duration = Duration::from_millis(300);

fn zip_stats(a: TierStats, b: TierStats, f: impl Fn(u64, u64) -> u64) -> TierStats {
    TierStats {
        model: f(a.model, b.model),
        quantized: f(a.quantized, b.quantized),
        hybrid: f(a.hybrid, b.hybrid),
        cache: f(a.cache, b.cache),
        fallback: f(a.fallback, b.fallback),
        deadline_degraded: f(a.deadline_degraded, b.deadline_degraded),
        breaker_degraded: f(a.breaker_degraded, b.breaker_degraded),
        failure_degraded: f(a.failure_degraded, b.failure_degraded),
    }
}

/// A plan whose `engine.forward` schedule starts: four typed errors (they
/// trip [`fast_breaker`]), then a stall (the half-open probe, held in
/// flight). The seed is searched, not hard-coded: decisions are a pure
/// function of `(seed, site, arrival)`.
fn trip_then_stall() -> FaultPlan {
    let build = |seed: u64| {
        FaultPlan::new(seed)
            .with_fault(sites::ENGINE_FORWARD, FaultKind::Error, 0.5)
            .with_fault(sites::ENGINE_FORWARD, FaultKind::Delay(STALL), 1.0)
    };
    let wanted = [
        FaultKind::Error,
        FaultKind::Error,
        FaultKind::Error,
        FaultKind::Error,
        FaultKind::Delay(STALL),
    ];
    let seed = (0u64..4096)
        .find(|&seed| {
            let dry = build(seed);
            wanted
                .iter()
                .all(|&kind| dry.decide(sites::ENGINE_FORWARD) == Some(kind))
        })
        .expect("one seed in 32 has this schedule");
    build(seed)
}

/// Builds one cell's engine, drives it into `entry`'s state, asks
/// [`PROBE`], and returns the reply, the tier counters the probe moved,
/// and the engine.
fn ask(
    entry: Entry,
    fallback: bool,
    hybrid: bool,
) -> (Result<Answer, ServeError>, TierStats, ServeEngine) {
    let always =
        |site: &'static str, kind: FaultKind| Some(FaultPlan::new(17).with_fault(site, kind, 1.0));
    let mut resilience = ResilienceConfig {
        fallback,
        retry_backoff: BackoffConfig {
            base: Duration::from_millis(1),
            ..BackoffConfig::default()
        },
        ..ResilienceConfig::default()
    };
    let cooling = BreakerConfig {
        cooldown: Duration::from_secs(3600),
        ..fast_breaker()
    };
    let plan = match entry {
        Entry::ResolveFault => always(sites::ENGINE_RESOLVE, FaultKind::Error),
        Entry::ResolvePanic => always(sites::ENGINE_RESOLVE, FaultKind::Panic),
        Entry::DeadlineGone | Entry::ThinBudget => None,
        Entry::BreakerOpen => {
            resilience.breaker = Some(cooling);
            resilience.retry_attempts = 1;
            always(sites::ENGINE_FORWARD, FaultKind::Error)
        }
        Entry::HalfOpenProbesSpent => {
            resilience.breaker = Some(fast_breaker());
            resilience.retry_attempts = 1;
            Some(trip_then_stall())
        }
        Entry::ModelFailsRetries => {
            resilience.breaker = None;
            always(sites::ENGINE_FORWARD, FaultKind::Error)
        }
        Entry::ModelPanics => {
            resilience.breaker = None;
            always(sites::ENGINE_FORWARD, FaultKind::Panic)
        }
        Entry::DeadlineInsideForward => always(sites::ENGINE_FORWARD, FaultKind::Delay(STALL)),
    }
    .map(Arc::new);
    let retries = resilience.retry_attempts as u64;
    let (engine, _) = build_engine(resilience, plan.clone(), hybrid);
    let forward_arrivals = || {
        let plan = plan.as_ref().expect("the row has a plan");
        plan.site_stats(sites::ENGINE_FORWARD).arrivals
    };
    let probe = |deadline: Option<Instant>| {
        let before = engine.tier_stats();
        let reply = engine
            .predict_batch_tagged(&[PROBE], deadline)
            .map(|answers| answers[0]);
        let moved = zip_stats(engine.tier_stats(), before, |after, before| after - before);
        (reply, moved)
    };
    // Four failed single-query batches trip `fast_breaker` (the replies
    // are refusals or degraded answers, depending on `fallback`).
    let trip = || {
        for q in queries(4) {
            let _ = engine.predict_batch_tagged(&[q], None);
        }
        assert_eq!(engine.breaker_stats().expect("breaker").opened, 1);
    };
    let (reply, moved) = match entry {
        Entry::ResolveFault | Entry::ResolvePanic | Entry::ModelPanics => probe(None),
        Entry::DeadlineGone => probe(Some(Instant::now())),
        Entry::ThinBudget => probe(thin_budget()),
        Entry::BreakerOpen => {
            trip();
            assert_eq!(engine.breaker_state(), Some(BreakerState::Open));
            probe(None)
        }
        Entry::HalfOpenProbesSpent => {
            trip();
            std::thread::scope(|scope| {
                // With a zero cooldown the next model attempt is the one
                // half-open probe; the plan stalls it inside the forward.
                let prober = scope.spawn(|| {
                    engine
                        .predict_batch_tagged(&queries(5)[4..], None)
                        .expect("the probe itself succeeds")[0]
                });
                while forward_arrivals() < 5 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert_eq!(engine.breaker_state(), Some(BreakerState::HalfOpen));
                // The stall outlasts our probe by two orders of magnitude,
                // so the prober's own answer is not in `moved`.
                let out = probe(None);
                let probed = prober.join().expect("the prober never panics");
                assert_eq!(probed.served_by, ServedBy::Model);
                assert_eq!(engine.breaker_state(), Some(BreakerState::Closed));
                out
            })
        }
        Entry::ModelFailsRetries => {
            let out = probe(None);
            assert_eq!(forward_arrivals(), retries, "every retry is an attempt");
            out
        }
        Entry::DeadlineInsideForward => {
            let out = probe(Some(Instant::now() + STALL / 2));
            assert_eq!(forward_arrivals(), 1, "a spent deadline is not retried");
            out
        }
    };
    (reply, moved, engine)
}

#[test]
fn ladder_table_entry_by_fallback_by_hybrid() {
    for (entry, lands) in LADDER {
        for fallback in [true, false] {
            for hybrid in [true, false] {
                let cell = format!("{entry:?}, fallback {fallback}, hybrid {hybrid}");
                let (reply, moved, engine) = ask(entry, fallback, hybrid);
                let mut expected = TierStats::default();
                let served_by = match (lands, fallback, hybrid) {
                    (Lands::Model, ..) => {
                        expected.model = 1;
                        Ok(ServedBy::Model)
                    }
                    (Lands::Below(..), true, true) => {
                        expected.hybrid = 1;
                        Ok(ServedBy::Hybrid)
                    }
                    (Lands::Below(why, _), true, false) => {
                        expected.fallback = 1;
                        match why {
                            Why::Deadline => expected.deadline_degraded = 1,
                            Why::Breaker => expected.breaker_degraded = 1,
                            Why::Failure => expected.failure_degraded = 1,
                        }
                        Ok(ServedBy::Fallback)
                    }
                    (Lands::Below(_, refusal), false, _) => Err(refusal),
                };
                match (&reply, served_by) {
                    (Ok(answer), Ok(tier)) => {
                        assert_eq!(answer.served_by, tier, "{cell}");
                        assert_eq!(answer.version, 1, "{cell}");
                    }
                    (Err(ServeError::DeadlineExceeded), Err(Refusal::DeadlineExceeded))
                    | (Err(ServeError::CircuitOpen), Err(Refusal::CircuitOpen)) => {}
                    (Err(ServeError::Injected { site }), Err(Refusal::Injected(wanted)))
                        if *site == wanted => {}
                    (Err(ServeError::Model(e)), Err(Refusal::Model(wanted)))
                        if e.to_string().contains(wanted) => {}
                    (got, wanted) => panic!("{cell}: expected {wanted:?}, got {got:?}"),
                }
                assert_eq!(moved, expected, "{cell}: counters the probe moved");
                if let Lands::Model = lands {
                    // No cheaper forward hides behind a deadline: the answer
                    // is the one a query without a deadline gets, and asking
                    // again is a memo hit on it.
                    let got = reply.as_ref().expect("matched above").rating.to_bits();
                    let (unhurried, ..) = build_engine(ResilienceConfig::default(), None, hybrid);
                    let full = unhurried
                        .predict_batch_tagged(&[PROBE], None)
                        .expect("model")[0];
                    assert_eq!(got, full.rating.to_bits(), "{cell}");
                    let again = engine
                        .predict_batch_tagged(&[PROBE], thin_budget())
                        .expect("memo")[0];
                    assert_eq!(again.served_by, ServedBy::Cache, "{cell}");
                    assert_eq!(again.rating.to_bits(), got, "{cell}");
                }
                // The three views of the tier counters are folds of one
                // another.
                let total = engine.tier_stats();
                let sum = |a, b| zip_stats(a, b, |x, y| x + y);
                let by_version = engine.version_stats().into_iter().map(|(_, s)| s);
                let by_scenario = engine.scenario_stats().into_iter().map(|(_, s)| s);
                assert_eq!(by_version.fold(TierStats::default(), sum), total, "{cell}");
                assert_eq!(by_scenario.fold(TierStats::default(), sum), total, "{cell}");
            }
        }
    }
}

#[test]
fn fallback_answers_are_bit_equal_to_an_entity_mean_fitted_on_the_same_snapshot() {
    let dataset = Arc::new(dataset());
    // The serving view hides every edge of user 0 and of item 0, so the
    // batch below has a warm pair, a cold item, a cold user and a pair
    // with neither side rated.
    let visible: Vec<Rating> = dataset
        .ratings
        .iter()
        .copied()
        .filter(|r| r.user != 0 && r.item != 0)
        .collect();
    let graph = BipartiteGraph::from_ratings(USERS, ITEMS, &visible);
    let user = (1..USERS)
        .find(|&u| graph.user_degree(u) > 0)
        .expect("a warm user");
    let item = (1..ITEMS)
        .find(|&i| graph.item_degree(i) > 0)
        .expect("a warm item");
    let config = HireConfig::fast().with_blocks(1).with_context_size(8, 8);
    let model = HireModel::new(&dataset, &config, &mut StdRng::seed_from_u64(4));
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    // No context ever resolves and no hybrid is installed: every answer
    // is the entity-mean rung's.
    let plan = FaultPlan::new(13).with_fault(sites::ENGINE_RESOLVE, FaultKind::Error, 1.0);
    let engine = ServeEngine::with_graph(
        frozen,
        dataset.clone(),
        graph,
        EngineConfig::from_model_config(&config),
    )
    .with_faults(Arc::new(plan));
    let check = |pairs: &[(usize, usize)]| {
        let snapshot = engine.graph_snapshot();
        let mut oracle = EntityMean::new();
        oracle.fit(&dataset, &snapshot, &mut StdRng::seed_from_u64(0));
        let want = oracle.predict(&dataset, &snapshot, pairs);
        let qs: Vec<RatingQuery> = pairs
            .iter()
            .map(|&(user, item)| RatingQuery { user, item })
            .collect();
        let got = engine.predict_batch_tagged(&qs, None).expect("degraded");
        for ((pair, a), w) in pairs.iter().zip(&got).zip(want) {
            assert_eq!(a.served_by, ServedBy::Fallback, "{pair:?}");
            let w = w.clamp(dataset.min_rating, dataset.max_rating());
            assert_eq!(a.rating.to_bits(), w.to_bits(), "{pair:?} in {pairs:?}");
        }
    };
    let pairs = [(user, item), (user, 0), (0, item), (0, 0)];
    // Together, then alone: a batch without the both-cold pair never reads
    // the global mean, and must answer the same bits as one that does.
    check(&pairs);
    for pair in &pairs {
        check(std::slice::from_ref(pair));
    }
    // The rung reads the live graph: a rating warms user 0, and (0, 0)
    // moves from the global mean to that user's mean.
    engine
        .insert_rating(Rating::new(0, item, dataset.max_rating()))
        .expect("in range");
    check(&pairs);
    assert_eq!(engine.tier_stats().fallback, 12);
    assert_eq!(engine.tier_stats().failure_degraded, 12);
}
