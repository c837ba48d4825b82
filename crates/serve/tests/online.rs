//! Functional tests for the online learning subsystem: versioned hot
//! swaps, cold-start scenario classification, the shadow-eval promotion
//! gate, checkpoint lineages, and the demotion watchdog.

use hire_core::{train, HireConfig, HireModel, TrainConfig};
use hire_data::Dataset;
use hire_graph::{BipartiteGraph, NeighborhoodSampler, Rating};
use hire_serve::{
    ColdScenario, EngineConfig, FrozenModel, Lineage, OnlineConfig, OnlineLoop, Predictor,
    RatingQuery, RoundOutcome, ServeEngine, ServedBy, SlotSource, CANDIDATE_TAG, REJECTED_TAG,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

const USERS: usize = 40;
const ITEMS: usize = 35;

/// Self-cleaning scratch directory for checkpoint lineages.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hire-online-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

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

/// A lightly trained incumbent (so fine-tuning has quality to preserve or
/// lose) plus its engine.
fn build_engine(train_steps: usize) -> (Arc<ServeEngine>, Arc<Dataset>) {
    let dataset = dataset();
    let config = model_config();
    let mut rng = StdRng::seed_from_u64(4);
    let model = HireModel::new(&dataset, &config, &mut rng);
    if train_steps > 0 {
        let tc = TrainConfig {
            steps: train_steps,
            batch_size: 2,
            base_lr: 1e-3,
            grad_clip: 1.0,
            ..TrainConfig::paper_default()
        };
        train(
            &model,
            &dataset,
            &dataset.graph(),
            &NeighborhoodSampler,
            &tc,
            &mut rng,
        )
        .expect("incumbent training");
    }
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    let engine_config = EngineConfig {
        cache_capacity: 128,
        ..EngineConfig::from_model_config(&config)
    };
    (
        Arc::new(ServeEngine::new(frozen, dataset.clone(), engine_config)),
        dataset,
    )
}

fn online_config() -> OnlineConfig {
    OnlineConfig {
        min_new_ratings: 12,
        fine_tune_steps: 6,
        batch_size: 2,
        base_lr: 1e-4,
        holdout_every: 4,
        regression_tolerance: 10.0, // generous: these tests exercise machinery, not quality
        ..OnlineConfig::default()
    }
}

fn feed(engine: &ServeEngine, n: usize, offset: usize) {
    for k in 0..n {
        let rating = Rating::new(
            (offset + k * 3) % USERS,
            (offset + k * 5) % ITEMS,
            ((k % 5) + 1) as f32,
        );
        engine.insert_rating(rating).expect("insert");
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
fn frozen_parameters_round_trip_and_warm_start_a_live_model() {
    let dataset = dataset();
    let config = model_config();
    let mut rng = StdRng::seed_from_u64(9);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");

    // parameters() is the exact inverse of from_parts.
    let rebuilt = FrozenModel::from_parts(&dataset, config.clone(), frozen.parameters())
        .expect("rebuild from exported parameters");
    let ctx = {
        let mut rng = StdRng::seed_from_u64(1);
        hire_data::test_context_with_ratio(
            &dataset.graph(),
            &NeighborhoodSampler,
            &[dataset.ratings[0]],
            6,
            6,
            0.2,
            &mut rng,
        )
        .expect("context")
    };
    let a = frozen.forward_nograd(&ctx, &dataset).expect("forward");
    let b = rebuilt.forward_nograd(&ctx, &dataset).expect("forward");
    assert_eq!(
        a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "round-tripped frozen model must be bit-identical"
    );

    // Warm-starting a fresh live model from the frozen weights reproduces
    // them bit-exactly after re-freezing.
    let mut rng = StdRng::seed_from_u64(77); // different init, fully overwritten
    let warm = HireModel::new(&dataset, &config, &mut rng);
    warm.load_parameters(&frozen.parameters())
        .expect("warm start");
    let refrozen = FrozenModel::from_model(&warm, &dataset).expect("re-freeze");
    for (x, y) in frozen.parameters().iter().zip(refrozen.parameters()) {
        assert_eq!(x.as_slice(), y.as_slice(), "warm start must copy weights");
    }

    // Mismatched shapes are typed errors.
    let mut wrong = frozen.parameters();
    wrong.pop();
    assert!(warm.load_parameters(&wrong).is_err());
}

#[test]
fn promotion_swaps_versions_and_stales_cache_memos() {
    let (engine, _) = build_engine(20);
    assert_eq!(engine.version(), 1);

    let qs = queries(6);
    let first = engine.predict_batch_tagged(&qs, None).expect("serve");
    assert!(first.iter().all(|a| a.version == 1));
    let repeat = engine.predict_batch_tagged(&qs, None).expect("serve");
    assert!(
        repeat.iter().all(|a| a.served_by == ServedBy::Cache),
        "repeat under one version hits the memo"
    );

    let dir = TempDir::new("promote");
    let online = OnlineLoop::new(
        engine.clone(),
        OnlineConfig {
            checkpoint_dir: Some(dir.0.clone()),
            ..online_config()
        },
    );
    feed(&engine, 24, 0);
    let outcome = online.run_round();
    let RoundOutcome::Promoted { version, eval } = outcome else {
        panic!("generous tolerance must promote, got {outcome:?}");
    };
    assert_eq!(version, 2);
    assert_eq!(engine.version(), 2);
    assert!(eval.promoted() && eval.failed_gates.is_empty());
    assert!(eval.holdout_size > 0, "holdout_every must divert ratings");
    assert_eq!(eval.incumbent_version, 1);

    // Post-swap answers carry the new version and never reuse a v1 memo.
    let after = engine.predict_batch_tagged(&qs, None).expect("serve");
    for a in &after {
        assert_eq!(a.version, 2);
        assert_ne!(
            a.served_by,
            ServedBy::Cache,
            "v1 memos must be stale under v2"
        );
    }
    let cached = engine.predict_batch_tagged(&qs, None).expect("serve");
    assert!(
        cached
            .iter()
            .all(|a| a.served_by == ServedBy::Cache && a.version == 2),
        "fresh v2 memos are valid for v2"
    );

    // Both versions show up in the per-version stats, and the history of
    // the loop recorded the promotion.
    let versions: Vec<_> = engine.version_stats().iter().map(|(v, _)| *v).collect();
    assert!(versions.contains(&1) && versions.contains(&2));
    assert_eq!(online.history().len(), 1);

    // Durable record: the promoted (`candidate`) weights and the eval
    // report, and nothing of the fine-tune itself — no reader loads a
    // round's training state, so the round writes no `ckpt` snapshot.
    let names: Vec<String> = std::fs::read_dir(&dir.0)
        .expect("read dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !names.iter().any(|n| n.starts_with("ckpt-")),
        "a fine-tune round wrote training snapshots: {names:?}"
    );
    assert!(
        names
            .iter()
            .any(|n| n.starts_with(CANDIDATE_TAG) && n.ends_with(".hckpt")),
        "candidate snapshot missing: {names:?}"
    );
    let report = names
        .iter()
        .find(|n| n.starts_with(CANDIDATE_TAG) && n.ends_with(".eval.json"))
        .expect("candidate eval report written");
    let json = std::fs::read_to_string(dir.0.join(report)).expect("read report");
    assert!(json.contains("\"promoted\": true"), "report: {json}");

    // The promoted snapshot is loadable as a frozen model.
    let snap = names
        .iter()
        .find(|n| n.starts_with(CANDIDATE_TAG) && n.ends_with(".hckpt"))
        .unwrap();
    FrozenModel::from_snapshot_file(dir.0.join(snap), engine.dataset(), &model_config())
        .expect("promoted snapshot must load");
}

#[test]
fn no_holdout_means_no_promotion_and_a_rejected_checkpoint() {
    let (engine, _) = build_engine(0);
    let dir = TempDir::new("reject");
    let online = OnlineLoop::new(
        engine.clone(),
        OnlineConfig {
            holdout_every: 0, // nothing diverted: the gate has no evidence
            checkpoint_dir: Some(dir.0.clone()),
            ..online_config()
        },
    );
    let before = engine
        .predict_batch_tagged(&queries(4), None)
        .expect("serve");
    feed(&engine, 16, 3);
    let outcome = online.run_round();
    let RoundOutcome::Rejected { eval } = outcome else {
        panic!("no holdout must reject, got {outcome:?}");
    };
    assert!(!eval.promoted());
    assert!(
        eval.failed_gates.iter().any(|g| g.contains("no held-out")),
        "gates: {:?}",
        eval.failed_gates
    );
    assert_eq!(engine.version(), 1, "rejection must not swap");
    // The incumbent still serves — same version, valid answers.
    let after = engine
        .predict_batch_tagged(&queries(4), None)
        .expect("serve");
    assert_eq!(before.len(), after.len());
    assert!(after.iter().all(|a| a.version == 1));

    let names: Vec<String> = std::fs::read_dir(&dir.0)
        .expect("read dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        names
            .iter()
            .any(|n| n.starts_with(REJECTED_TAG) && n.ends_with(".hckpt")),
        "rejected candidate must be checkpointed: {names:?}"
    );
    let report = names
        .iter()
        .find(|n| n.starts_with(REJECTED_TAG) && n.ends_with(".eval.json"))
        .expect("rejected eval report written");
    let json = std::fs::read_to_string(dir.0.join(report)).expect("read report");
    assert!(json.contains("\"promoted\": false"), "report: {json}");
    assert!(json.contains("no held-out"), "report: {json}");
}

#[test]
fn a_regressing_candidate_is_never_promoted() {
    // A destructive fine-tune (huge LR on a trained incumbent) across
    // several seeds: whatever each round produces — rejection, divergence
    // abort, or a candidate that happened to survive — the invariant is
    // that promotion implies no measured regression, and everything else
    // leaves the incumbent serving.
    for seed in [7u64, 1234, 0xC0FFEE] {
        let (engine, _) = build_engine(30);
        let online = OnlineLoop::new(
            engine.clone(),
            OnlineConfig {
                base_lr: 30.0,
                fine_tune_steps: 8,
                regression_tolerance: 0.0,
                seed,
                ..online_config()
            },
        );
        feed(&engine, 24, seed as usize % 7);
        let before = engine
            .predict_batch_tagged(&queries(6), None)
            .expect("serve");
        match online.run_round() {
            RoundOutcome::Promoted { eval, .. } => {
                assert!(
                    eval.candidate_mae <= eval.incumbent_mae,
                    "seed {seed}: promoted a regressing candidate: {eval:?}"
                );
            }
            RoundOutcome::Rejected { eval } => {
                assert!(!eval.failed_gates.is_empty());
                assert_eq!(engine.version(), 1, "seed {seed}: rejection must not swap");
            }
            RoundOutcome::TrainerDiverged | RoundOutcome::TrainerCrashed => {
                assert_eq!(engine.version(), 1);
                // The incumbent is untouched: same answers as before the
                // round (the round inserted nothing into the graph).
                let after = engine
                    .predict_batch_tagged(&queries(6), None)
                    .expect("serve");
                for (a, b) in before.iter().zip(&after) {
                    assert_eq!(a.rating.to_bits(), b.rating.to_bits(), "seed {seed}");
                }
            }
            other => panic!("seed {seed}: unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn demote_reinstalls_previous_weights_under_a_new_version() {
    let (engine, dataset) = build_engine(0);
    let qs = queries(8);
    let v1_bits: Vec<u32> = engine
        .predict_batch_tagged(&qs, None)
        .expect("serve")
        .iter()
        .map(|a| a.rating.to_bits())
        .collect();

    // Install a differently initialized model as v2.
    let mut rng = StdRng::seed_from_u64(99);
    let other = HireModel::new(&dataset, &model_config(), &mut rng);
    let other = FrozenModel::from_model(&other, &dataset).expect("freeze");
    assert_eq!(
        engine
            .install_model(other, SlotSource::Unsaved)
            .expect("install"),
        2
    );
    // The lineage is readable on an engine without a write-ahead log too
    // (it used to panic there after the first install).
    assert_eq!(
        engine.lineage(),
        Lineage {
            history: vec![(SlotSource::Base, 1)],
            current: (SlotSource::Unsaved, 2),
            next_version: 3,
        }
    );
    let v2 = engine.predict_batch_tagged(&qs, None).expect("serve");
    assert!(v2.iter().all(|a| a.version == 2));
    assert!(
        v2.iter()
            .zip(&v1_bits)
            .any(|(a, &b)| a.rating.to_bits() != b),
        "a different model must answer differently somewhere"
    );

    // Demotion steps back to the v1 weights — under a NEW version.
    let demoted = engine.demote().expect("demote").expect("history present");
    assert_eq!(demoted, 3);
    assert_eq!(engine.version(), 3);
    assert_eq!(
        engine.lineage(),
        Lineage {
            history: vec![(SlotSource::Unsaved, 2)],
            current: (SlotSource::Base, 3),
            next_version: 4,
        }
    );
    let v3 = engine.predict_batch_tagged(&qs, None).expect("serve");
    for (a, &b) in v3.iter().zip(&v1_bits) {
        assert_eq!(a.version, 3);
        assert_eq!(
            a.rating.to_bits(),
            b,
            "demoted serving must be bit-identical to the original weights"
        );
    }
    // Demoting with an empty history is a typed no-op... the history now
    // holds the displaced v2, so one more demotion works, then none.
    assert!(engine.demote().expect("demote").is_some());
}

#[test]
fn watchdog_demotes_a_version_that_degrades_to_fallback() {
    let (engine, dataset) = build_engine(0);
    let online = OnlineLoop::new(
        engine.clone(),
        OnlineConfig {
            demote_min_answers: 10,
            demote_fallback_margin: 0.5,
            ..online_config()
        },
    );

    // v1 serves 16 distinct queries cleanly: fallback rate 0.
    let v1_queries = queries(16);
    engine
        .predict_batch_tagged(&v1_queries, None)
        .expect("serve");
    assert!(
        online.maybe_demote().is_none(),
        "healthy v1 must not demote"
    );

    // v2: same weights re-installed, but its traffic arrives with an
    // already-expired deadline — every answer degrades to fallback,
    // attributed to v2.
    let same = FrozenModel::from_parts(
        &dataset,
        model_config(),
        engine.current_model().model().parameters(),
    )
    .expect("clone weights");
    assert_eq!(
        engine
            .install_model(same, SlotSource::Unsaved)
            .expect("install"),
        2
    );
    let v2_queries: Vec<RatingQuery> = (0..16)
        .map(|k| RatingQuery {
            user: (k * 13 + 1) % USERS,
            item: (k * 17 + 2) % ITEMS,
        })
        .collect();
    let expired = Instant::now();
    let degraded = engine
        .predict_batch_tagged(&v2_queries, Some(expired))
        .expect("degraded serve");
    assert!(degraded.iter().all(|a| a.served_by == ServedBy::Fallback));

    let demoted = online.maybe_demote().expect("fallback storm must demote");
    assert_eq!(demoted, 3);
    assert_eq!(engine.version(), 3);
    assert!(
        online.maybe_demote().is_none(),
        "v3 has no answers yet; the watchdog needs evidence"
    );
}

#[test]
fn cold_scenarios_are_classified_against_the_base_graph() {
    let dataset = dataset();
    let config = model_config();
    let cold_users = USERS - 4..USERS;
    let cold_items = ITEMS - 4..ITEMS;
    // A serving graph with the cold entities' edges withheld.
    let visible: Vec<Rating> = dataset
        .ratings
        .iter()
        .filter(|r| !cold_users.contains(&r.user) && !cold_items.contains(&r.item))
        .copied()
        .collect();
    let graph = BipartiteGraph::empty(USERS, ITEMS).with_extra_edges(&visible);
    let mut rng = StdRng::seed_from_u64(4);
    let model = HireModel::new(&dataset, &config, &mut rng);
    let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
    let engine = Arc::new(ServeEngine::with_graph(
        frozen,
        dataset.clone(),
        graph,
        EngineConfig::from_model_config(&config),
    ));

    assert_eq!(engine.scenario_of(0, 0), ColdScenario::WarmUp);
    assert_eq!(engine.scenario_of(USERS - 1, 0), ColdScenario::UserCold);
    assert_eq!(engine.scenario_of(0, ITEMS - 1), ColdScenario::ItemCold);
    assert_eq!(
        engine.scenario_of(USERS - 1, ITEMS - 1),
        ColdScenario::UserAndItemCold
    );
    for s in ColdScenario::ALL {
        assert_eq!(s.is_cold(), s != ColdScenario::WarmUp);
    }

    // Serving a cold query lands in that scenario's stat bucket...
    engine
        .predict_batch_tagged(
            &[RatingQuery {
                user: USERS - 1,
                item: 0,
            }],
            None,
        )
        .expect("serve");
    let scenarios: Vec<ColdScenario> = engine.scenario_stats().iter().map(|(s, _)| *s).collect();
    assert!(scenarios.contains(&ColdScenario::UserCold));

    // ...and classification is frozen at construction: warming a cold
    // user with online ratings does not reclassify it.
    engine
        .insert_rating(Rating::new(USERS - 1, 0, 4.0))
        .expect("insert");
    engine
        .insert_rating(Rating::new(USERS - 1, 1, 3.0))
        .expect("insert");
    assert_eq!(engine.scenario_of(USERS - 1, 0), ColdScenario::UserCold);

    // An online round over cold-user ratings carries the cold scenario
    // into the eval report.
    let online = OnlineLoop::new(
        engine.clone(),
        OnlineConfig {
            holdout_every: 2,
            min_scenario_samples: 1,
            ..online_config()
        },
    );
    for k in 0..24 {
        engine
            .insert_rating(Rating::new(
                USERS - 1 - (k % 2),
                k % (ITEMS - 4),
                ((k % 5) + 1) as f32,
            ))
            .expect("insert");
    }
    match online.run_round() {
        RoundOutcome::Promoted { eval, .. } | RoundOutcome::Rejected { eval } => {
            assert!(
                eval.scenarios
                    .iter()
                    .any(|s| s.scenario == ColdScenario::UserCold && s.samples > 0),
                "cold holdout samples must be scored per scenario: {eval:?}"
            );
        }
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn accumulating_until_threshold_then_training_consumes_pending() {
    let (engine, _) = build_engine(0);
    let online = OnlineLoop::new(engine.clone(), online_config());
    assert!(matches!(
        online.run_round(),
        RoundOutcome::Accumulating { pending: 0 }
    ));
    feed(&engine, 6, 0);
    let RoundOutcome::Accumulating { pending } = online.run_round() else {
        panic!("6 ratings are below the threshold");
    };
    assert!(pending > 0 && pending <= 6);
    feed(&engine, 18, 6);
    let outcome = online.run_round();
    assert!(
        matches!(
            outcome,
            RoundOutcome::Promoted { .. } | RoundOutcome::Rejected { .. }
        ),
        "threshold reached, the round must train: {outcome:?}"
    );
    // Pending was consumed: the next round accumulates again.
    assert!(matches!(
        online.run_round(),
        RoundOutcome::Accumulating { .. }
    ));
    assert_eq!(online.history().len(), 4);
}
