//! Crash-recovery acceptance tests for the durable serving loop
//! (DESIGN.md §15). The load-bearing property, exercised at every kill
//! point of a live scenario:
//!
//! > **No acknowledged write is lost, and a recovered engine answers
//! > bit-identically to one that never crashed.**
//!
//! "Kill point" here means a byte-level copy of the WAL directory taken
//! immediately after an acknowledged operation — exactly what a
//! power-cut at that instant would leave on disk (an ack follows an
//! fsync that covers it, so acked ⇒ fsynced). Each copy is
//! recovered independently and compared against the state the live
//! engine had at that point.

use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_ckpt::{CheckpointStore, GuardSnapshot, OptimizerSnapshot, TrainSnapshot};
use hire_core::{HireConfig, HireModel};
use hire_data::Dataset;
use hire_graph::Rating;
use hire_serve::{
    fold_log, recover, write_snapshot, EngineConfig, FrozenModel, Lineage, OnlineConfig,
    OnlineLoop, Predictor, RatingQuery, RoundOutcome, ServeEngine, ServeError, SlotSource,
    CANDIDATE_TAG,
};
use hire_wal::{Wal, WalOptions, SEGMENT_EXT};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

const USERS: usize = 40;
const ITEMS: usize = 35;

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hire-walrec-{label}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn sub(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        std::fs::create_dir_all(&dir).expect("create sub dir");
        dir
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

fn base_model(dataset: &Dataset) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(4);
    let model = HireModel::new(dataset, &model_config(), &mut rng);
    FrozenModel::from_model(&model, dataset).expect("freeze")
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        cache_capacity: 128,
        ..EngineConfig::from_model_config(&model_config())
    }
}

fn strict_opts() -> WalOptions {
    WalOptions {
        segment_max_bytes: 4 << 20,
    }
}

/// A WAL-attached engine over the dataset's base graph.
fn wal_engine(dataset: &Arc<Dataset>, wal_dir: &Path, opts: WalOptions) -> Arc<ServeEngine> {
    faulted_wal_engine(dataset, wal_dir, opts, None)
}

/// [`wal_engine`] whose log fires `faults` at the WAL chaos sites.
fn faulted_wal_engine(
    dataset: &Arc<Dataset>,
    wal_dir: &Path,
    opts: WalOptions,
    faults: Option<Arc<FaultPlan>>,
) -> Arc<ServeEngine> {
    let (wal, recovery) = Wal::open_with_faults(wal_dir, opts, faults).expect("open wal");
    assert!(recovery.records.is_empty(), "fresh log expected");
    Arc::new(
        ServeEngine::with_shared_graph(
            base_model(dataset),
            dataset.clone(),
            Arc::new(dataset.graph()),
            engine_config(),
        )
        .with_wal(Arc::new(wal)),
    )
}

fn rating(k: usize) -> Rating {
    Rating::new((k * 3) % USERS, (k * 5) % ITEMS, ((k % 5) + 1) as f32)
}

fn probes() -> Vec<RatingQuery> {
    (0..6)
        .map(|k| RatingQuery {
            user: (k * 7) % USERS,
            item: (k * 11) % ITEMS,
        })
        .collect()
}

fn probe_bits(pred: &dyn Predictor) -> Vec<u32> {
    pred.predict_batch(&probes())
        .expect("probe batch")
        .into_iter()
        .map(f32::to_bits)
        .collect()
}

/// Byte-level copy of a (flat) WAL directory — the disk image a crash at
/// this instant would leave behind.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read wal dir") {
        let entry = entry.expect("entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy file");
    }
}

fn recover_from(
    dataset: &Arc<Dataset>,
    wal_dir: &Path,
    online_config: OnlineConfig,
    opts: WalOptions,
) -> hire_serve::Recovered {
    recover(
        base_model(dataset),
        dataset.clone(),
        Arc::new(dataset.graph()),
        engine_config(),
        online_config,
        wal_dir,
        opts,
    )
    .expect("recover")
}

/// Every acked insert survives a crash taken right after its ack, and the
/// recovered engine's answers are bit-identical to the live engine's at
/// that kill point. Also re-checks the final kill point with a garbage
/// tail glued on (a torn in-flight write dies with the crash; the acked
/// prefix must not).
#[test]
fn acked_inserts_survive_every_kill_point_bitwise() {
    let tmp = TempDir::new("killpoints");
    let wal_dir = tmp.sub("wal");
    let dataset = dataset();
    let engine = wal_engine(&dataset, &wal_dir, strict_opts());

    const OPS: usize = 18;
    let mut kill_points = Vec::new(); // (copy dir, acked count, live answer bits)
    for k in 0..OPS {
        engine.insert_rating(rating(k)).expect("acked insert");
        let copy = tmp.path().join(format!("kill-{k:03}"));
        copy_dir(&wal_dir, &copy);
        kill_points.push((copy, k + 1, probe_bits(engine.as_ref())));
    }

    for (copy, acked, live_bits) in &kill_points {
        let recovered = recover_from(&dataset, copy, OnlineConfig::default(), strict_opts());
        let (ratings, _) = recovered.engine.inserted_since(0);
        assert_eq!(ratings.len(), *acked, "acked write lost at kill point");
        for (j, r) in ratings.iter().enumerate() {
            assert_eq!((r.user, r.item), (rating(j).user, rating(j).item));
            assert_eq!(r.value.to_bits(), rating(j).value.to_bits());
        }
        assert_eq!(recovered.engine.version(), 1);
        assert_eq!(
            &probe_bits(recovered.engine.as_ref()),
            live_bits,
            "recovered answers diverge at kill point {acked}"
        );
    }

    // Torn tail: a crash mid-append leaves garbage past the acked frames.
    let (last_copy, acked, live_bits) = kill_points.last().expect("kill points");
    let torn = tmp.path().join("torn");
    copy_dir(last_copy, &torn);
    let seg = std::fs::read_dir(&torn)
        .expect("read torn dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == SEGMENT_EXT))
        .max()
        .expect("segment file");
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&seg)
        .expect("open segment");
    f.write_all(&[0xAB; 7]).expect("garbage tail");
    drop(f);
    let recovered = recover_from(&dataset, &torn, OnlineConfig::default(), strict_opts());
    assert!(recovered.torn_bytes > 0, "tail should need repair");
    let (ratings, _) = recovered.engine.inserted_since(0);
    assert_eq!(ratings.len(), *acked);
    assert_eq!(&probe_bits(recovered.engine.as_ref()), live_bits);
}

/// Concurrent writers through one engine: four threads push interleaved
/// inserts, every call acked; the engine is dropped and rebuilt from the
/// log alone. No acked write may be lost, the log's record order must be
/// the order the live engine committed in (the write-order invariant,
/// under contention), and the recovered engine must answer
/// bit-identically. (That one fsync covers several writers is stated
/// deterministically by `hire-wal`'s own
/// `group_commit_batches_concurrent_writers`.)
#[test]
fn concurrent_acked_writers_recover_in_commit_order_bitwise() {
    const WRITERS: usize = 4;
    const ACKED: usize = WRITERS * 40;
    let dataset = dataset();
    let probes: Vec<RatingQuery> = (0..16)
        .map(|k| RatingQuery {
            user: (k * 7) % USERS,
            item: (k * 11) % ITEMS,
        })
        .collect();
    let bits = |engine: &ServeEngine| -> Vec<u32> {
        let answers = engine.predict_batch(&probes).expect("probe batch");
        answers.into_iter().map(f32::to_bits).collect()
    };
    let tmp = TempDir::new("writers");
    let wal_dir = tmp.sub("wal");
    let engine = wal_engine(&dataset, &wal_dir, WalOptions::default());
    let start = Barrier::new(WRITERS);
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (engine, start) = (&engine, &start);
            scope.spawn(move || {
                start.wait();
                for k in (w..ACKED).step_by(WRITERS) {
                    engine.insert_rating(rating(k)).expect("acked insert");
                }
            });
        }
    });
    let (live_log, _) = engine.inserted_since(0);
    assert_eq!(live_log.len(), ACKED);
    let live_bits = bits(&engine);
    drop(engine);

    let recovered = recover_from(
        &dataset,
        &wal_dir,
        OnlineConfig::default(),
        WalOptions::default(),
    );
    assert_eq!(recovered.ratings, ACKED, "acked write lost");
    assert_eq!(
        recovered.engine.inserted_since(0).0,
        live_log,
        "log order is not the live commit order"
    );
    assert_eq!(bits(&recovered.engine), live_bits);
}

/// Promotions and demotions recover with the right version sequence and
/// the right weights: a crash after a promoted round reloads the
/// candidate's checkpointed weights; a crash after a demotion serves the
/// rolled-back weights under the post-demotion version. Answers stay
/// bit-identical to the live engine's throughout.
#[test]
fn model_lineage_recovers_versions_and_weights() {
    let tmp = TempDir::new("lineage");
    let wal_dir = tmp.sub("wal");
    let ckpt_dir = tmp.sub("ckpt");
    let dataset = dataset();
    let engine = wal_engine(&dataset, &wal_dir, strict_opts());
    let online_config = OnlineConfig {
        min_new_ratings: 12,
        fine_tune_steps: 6,
        batch_size: 2,
        base_lr: 1e-4,
        holdout_every: 4,
        regression_tolerance: 10.0, // machinery test, not a quality test
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..OnlineConfig::default()
    };
    let online = OnlineLoop::new(engine.clone(), online_config.clone());

    for k in 0..16 {
        engine.insert_rating(rating(k)).expect("insert");
    }
    let outcome = online.run_round();
    assert!(
        matches!(outcome, RoundOutcome::Promoted { .. }),
        "expected a promotion, got {outcome:?}"
    );
    assert_eq!(engine.version(), 2);

    // Crash after the promotion: the recovered incumbent is the candidate,
    // reloaded from its checkpoint, serving identical bits.
    let after_promote = tmp.path().join("after-promote");
    copy_dir(&wal_dir, &after_promote);
    let recovered = recover_from(
        &dataset,
        &after_promote,
        online_config.clone(),
        strict_opts(),
    );
    assert_eq!(recovered.engine.version(), 2);
    assert_eq!(
        probe_bits(recovered.engine.as_ref()),
        probe_bits(engine.as_ref())
    );

    // Demote (logged), then crash: the rolled-back weights serve under the
    // *new* version on both the live and the recovered engine.
    let demoted_version = engine.demote().expect("demote").expect("history nonempty");
    assert_eq!(demoted_version, 3);
    let after_demote = tmp.path().join("after-demote");
    copy_dir(&wal_dir, &after_demote);
    let recovered = recover_from(
        &dataset,
        &after_demote,
        online_config.clone(),
        strict_opts(),
    );
    assert_eq!(recovered.engine.version(), 3);
    assert_eq!(
        probe_bits(recovered.engine.as_ref()),
        probe_bits(engine.as_ref())
    );
    assert_eq!(recovered.dropped_history, Vec::<u64>::new());
    assert_eq!(recovered.engine.lineage(), engine.lineage());
    drop(recovered);

    // Lose the demotion target's checkpoint: recovery still serves the
    // incumbent, and names the history slot it had to drop.
    std::fs::remove_file(ckpt_dir.join(format!("{CANDIDATE_TAG}-{:012}.hckpt", 1)))
        .expect("remove the v2 checkpoint");
    let recovered = recover_from(&dataset, &after_demote, online_config, strict_opts());
    assert_eq!(recovered.dropped_history, vec![2]);
    assert_eq!(recovered.engine.version(), 3);
    assert!(recovered.engine.lineage().history.is_empty());
    assert_eq!(
        probe_bits(recovered.engine.as_ref()),
        probe_bits(engine.as_ref())
    );
}

/// The `candidate-*.hckpt` files on disk, and the ones `lineage` names.
fn candidate_files(ckpt_dir: &Path, lineage: &Lineage) -> (BTreeSet<PathBuf>, BTreeSet<PathBuf>) {
    let on_disk = CheckpointStore::open_tagged(ckpt_dir, CANDIDATE_TAG, usize::MAX)
        .and_then(|store| store.list())
        .expect("list candidate files");
    let named = lineage
        .history
        .iter()
        .chain([&lineage.current])
        .filter_map(|(source, _)| match source {
            SlotSource::Checkpoint { tag, steps } if tag == CANDIDATE_TAG => {
                Some(ckpt_dir.join(format!("{tag}-{steps:012}.hckpt")))
            }
            _ => None,
        })
        .collect();
    (on_disk.into_iter().collect(), named)
}

/// Candidate weights are retained by reference, not by count. A demotion
/// makes an *old* candidate the incumbent again: with the default
/// `keep_last = 2`, promoting rounds 1, 2, 3, demoting, promoting round 4
/// and demoting again leaves round 2's weights serving as v7 — two files
/// older than the newest two. Pruning by count deleted them, and recovery
/// failed on the missing incumbent with every acked rating behind it.
#[test]
fn a_demoted_incumbents_checkpoint_outlives_newer_candidates() {
    let tmp = TempDir::new("retention");
    let wal_dir = tmp.sub("wal");
    let ckpt_dir = tmp.sub("ckpt");
    let dataset = dataset();
    let engine = wal_engine(&dataset, &wal_dir, strict_opts());
    let online_config = OnlineConfig {
        min_new_ratings: 12,
        fine_tune_steps: 6,
        batch_size: 2,
        base_lr: 1e-4,
        holdout_every: 4,
        regression_tolerance: 10.0, // machinery test, not a quality test
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..OnlineConfig::default()
    };
    let online = OnlineLoop::new(engine.clone(), online_config.clone());
    let mut inserted = 0;
    let mut promote = || {
        for _ in 0..16 {
            engine.insert_rating(rating(inserted)).expect("insert");
            inserted += 1;
        }
        let outcome = online.run_round();
        assert!(
            matches!(outcome, RoundOutcome::Promoted { .. }),
            "expected a promotion, got {outcome:?}"
        );
    };
    let demote = || engine.demote().expect("demote").expect("history nonempty");
    let crash_and_recover = |label: &str| {
        let crash = tmp.path().join(label);
        copy_dir(&wal_dir, &crash);
        let recovered = recover_from(&dataset, &crash, online_config.clone(), strict_opts());
        assert_eq!(recovered.engine.lineage(), engine.lineage(), "{label}");
        assert_eq!(recovered.dropped_history, Vec::<u64>::new(), "{label}");
        assert_eq!(
            probe_bits(recovered.engine.as_ref()),
            probe_bits(engine.as_ref()),
            "{label}"
        );
    };

    promote();
    promote();
    promote();
    demote();
    promote();
    assert_eq!(demote(), 7);
    let round_2 = SlotSource::Checkpoint {
        tag: CANDIDATE_TAG.into(),
        steps: 2,
    };
    assert_eq!(engine.lineage().current, (round_2, 7));
    crash_and_recover("after-second-demotion");
    let (on_disk, named) = candidate_files(&ckpt_dir, &engine.lineage());
    assert_eq!(named.len(), 4);
    assert_eq!(on_disk, named);

    // The other half: a file the lineage stops naming is deleted (by the
    // next checkpoint), so the directory stays bounded by the history cap.
    promote();
    promote();
    promote();
    let (on_disk, named) = candidate_files(&ckpt_dir, &engine.lineage());
    assert!(on_disk.is_superset(&named), "{on_disk:?} vs {named:?}");
    assert!(on_disk.len() <= named.len() + 1, "{on_disk:?} vs {named:?}");
    assert!(!on_disk.contains(&ckpt_dir.join(format!("{CANDIDATE_TAG}-{:012}.hckpt", 1))));
    crash_and_recover("after-the-cap");
}

/// The online loop's routing state — cursor, round, and which arrivals
/// went to the never-trained holdout slice — survives a crash: the
/// recovered loop has the same holdout and keeps routing new arrivals
/// without re-training old ones.
#[test]
fn online_routing_state_recovers() {
    let tmp = TempDir::new("routing");
    let wal_dir = tmp.sub("wal");
    let ckpt_dir = tmp.sub("ckpt");
    let dataset = dataset();
    let engine = wal_engine(&dataset, &wal_dir, strict_opts());
    let online_config = OnlineConfig {
        min_new_ratings: 12,
        fine_tune_steps: 6,
        batch_size: 2,
        base_lr: 1e-4,
        holdout_every: 4,
        regression_tolerance: 10.0,
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..OnlineConfig::default()
    };
    let online = OnlineLoop::new(engine.clone(), online_config.clone());
    for k in 0..16 {
        engine.insert_rating(rating(k)).expect("insert");
    }
    let outcome = online.run_round();
    assert!(
        matches!(
            outcome,
            RoundOutcome::Promoted { .. } | RoundOutcome::Rejected { .. }
        ),
        "round must complete, got {outcome:?}"
    );
    let live_holdout = online.holdout_len();
    assert!(
        live_holdout > 0,
        "cadence should have diverted some ratings"
    );

    let copy = tmp.path().join("crash");
    copy_dir(&wal_dir, &copy);
    let recovered = recover_from(&dataset, &copy, online_config, strict_opts());
    assert_eq!(recovered.online.holdout_len(), live_holdout);

    // The recovered loop keeps going: new arrivals route by cadence, old
    // ones were not re-routed (pending would double-count them otherwise).
    for k in 16..28 {
        recovered.engine.insert_rating(rating(k)).expect("insert");
    }
    let outcome = recovered.online.run_round();
    assert!(
        matches!(
            outcome,
            RoundOutcome::Accumulating { .. }
                | RoundOutcome::Promoted { .. }
                | RoundOutcome::Rejected { .. }
        ),
        "recovered loop must keep functioning, got {outcome:?}"
    );
}

/// `write_snapshot` bounds the log: segments fully covered by the
/// snapshot are deleted, and recovery from snapshot + tail reproduces the
/// full state bit-identically.
#[test]
fn snapshot_truncates_log_and_recovery_uses_it() {
    let tmp = TempDir::new("snapshot");
    let wal_dir = tmp.sub("wal");
    let ckpt_dir = tmp.sub("ckpt");
    let dataset = dataset();
    let opts = WalOptions {
        segment_max_bytes: 256, // force frequent rotation
    };
    let engine = wal_engine(&dataset, &wal_dir, opts.clone());
    let online_config = OnlineConfig {
        checkpoint_dir: Some(ckpt_dir.clone()),
        ..OnlineConfig::default()
    };
    let online = OnlineLoop::new(engine.clone(), online_config.clone());

    for k in 0..40 {
        engine.insert_rating(rating(k)).expect("insert");
    }
    let wal = engine.wal().expect("wal attached");
    let before = wal.segment_count().expect("count");
    assert!(before > 2, "expected rotation, got {before} segment(s)");

    let covered = write_snapshot(&engine, &online).expect("snapshot");
    assert_eq!(covered, 40, "40 ratings were logged before the snapshot");
    let after = wal.segment_count().expect("count");
    assert!(
        after < before,
        "snapshot should truncate covered segments ({before} -> {after})"
    );

    // More traffic lands in the tail; recovery = snapshot + tail replay.
    for k in 40..50 {
        engine.insert_rating(rating(k)).expect("insert");
    }
    let live_bits = probe_bits(engine.as_ref());
    let copy = tmp.path().join("crash");
    copy_dir(&wal_dir, &copy);
    let recovered = recover_from(&dataset, &copy, online_config, opts);
    assert_eq!(recovered.snapshot_covered, 40);
    let (ratings, _) = recovered.engine.inserted_since(0);
    assert_eq!(ratings.len(), 50);
    assert_eq!(probe_bits(recovered.engine.as_ref()), live_bits);
}

/// A refused WAL append (injected fault) leaves the engine untouched: no
/// ack, no graph commit, no insert-log entry — and the next insert, once
/// the fault clears, proceeds normally.
#[test]
fn refused_append_means_nothing_happened() {
    let tmp = TempDir::new("refused");
    let wal_dir = tmp.sub("wal");
    let dataset = dataset();
    let plan = Arc::new(FaultPlan::new(7).with_fault(sites::WAL_APPEND, FaultKind::Error, 1.0));
    let engine = faulted_wal_engine(&dataset, &wal_dir, strict_opts(), Some(plan));

    let epoch = engine.graph_epoch();
    for k in 0..3 {
        assert!(engine.insert_rating(rating(k)).is_err(), "append refused");
    }
    assert_eq!(engine.inserted_since(0).0.len(), 0, "no unacked state");
    assert_eq!(
        engine.graph_epoch(),
        epoch,
        "no graph commit without a log entry"
    );

    // Same directory, fault-free reopen: nothing poisoned on disk.
    drop(engine);
    let engine = wal_engine(&dataset, &wal_dir, strict_opts());
    engine.insert_rating(rating(0)).expect("clean insert");
    assert_eq!(engine.inserted_since(0).0.len(), 1);
}

/// A WAL append that panics (injected) unwinds out of `insert_rating` from
/// under the write-order lock before anything was written: graph epoch,
/// insert log and cache are untouched, and the next insert — the schedule's
/// second arrival is clean — gets LSN 0, commits and acks.
#[test]
fn panicking_append_means_nothing_happened() {
    let tmp = TempDir::new("panicked");
    let wal_dir = tmp.sub("wal");
    let dataset = dataset();
    let build = |seed| FaultPlan::new(seed).with_fault(sites::WAL_APPEND, FaultKind::Panic, 0.5);
    let seed = (0u64..64)
        .find(|&seed| {
            let dry = build(seed);
            dry.decide(sites::WAL_APPEND) == Some(FaultKind::Panic)
                && dry.decide(sites::WAL_APPEND).is_none()
        })
        .expect("one seed in four has this schedule");
    let plan = Arc::new(build(seed));
    let engine = faulted_wal_engine(&dataset, &wal_dir, strict_opts(), Some(plan));

    // Probe 0 is the pair `rating(0)` rates, so its cached block is one the
    // insert must invalidate — once it happens.
    probe_bits(engine.as_ref());
    let before = (engine.graph_epoch(), engine.cache_len());
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.insert_rating(rating(0))
    }));
    assert!(panicked.is_err(), "the injected panic propagates");
    assert_eq!((engine.graph_epoch(), engine.cache_len()), before);
    assert_eq!(engine.inserted_since(0).0.len(), 0, "no unacked state");

    let invalidated = engine.insert_rating(rating(0)).expect("acked");
    assert!(invalidated > 0);
    assert_eq!(engine.graph_epoch(), before.0 + 1);
    assert_eq!(engine.inserted_since(0).0, vec![rating(0)]);
    let wal = engine.wal().expect("attached");
    assert_eq!((wal.next_lsn(), wal.durable_upto()), (1, 1));

    drop(engine);
    let (_, rec) = Wal::open(&wal_dir, strict_opts()).expect("reopen");
    assert_eq!((rec.records.len(), rec.truncated_bytes), (1, 0));
}

/// Writes a weight checkpoint the way the online loop does before a
/// promotion, and returns the reload source naming it.
fn checkpoint_weights(dir: &Path, steps: u64, model: &FrozenModel) -> SlotSource {
    let snapshot = TrainSnapshot {
        completed_steps: steps,
        config_fingerprint: 0,
        params: model.parameters(),
        rollback_step: 0,
        rollback_params: Vec::new(),
        optimizer: OptimizerSnapshot {
            lamb_m: Vec::new(),
            lamb_v: Vec::new(),
            lamb_t: 0,
            slow_weights: Vec::new(),
            lookahead_steps: 0,
        },
        guard: GuardSnapshot {
            ema: None,
            healthy_steps: 0,
            suspicious_streak: 0,
            lr_scale: 1.0,
            recoveries: 0,
        },
        rng_words: Vec::new(),
    };
    CheckpointStore::open_tagged(dir, CANDIDATE_TAG, 64)
        .and_then(|store| store.save(&snapshot))
        .expect("checkpoint weights");
    SlotSource::Checkpoint {
        tag: CANDIDATE_TAG.into(),
        steps,
    }
}

/// One step of a generated history.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Install candidate `k` from a fresh checkpoint.
    Promote(usize),
    /// Install without a checkpoint — a WAL-attached engine must refuse.
    PromoteUnsaved,
    Demote,
    Insert,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..8).prop_map(|k| match k {
        0..=2 => Op::Promote(k as usize),
        3 | 4 => Op::Demote,
        5 => Op::PromoteUnsaved,
        _ => Op::Insert,
    })
}

/// The lineage the log written so far folds to, and the ratings in it.
fn folded(wal_dir: &Path, scratch: &Path) -> (Lineage, usize) {
    let _ = std::fs::remove_dir_all(scratch);
    copy_dir(wal_dir, scratch);
    let (_, log) = Wal::open(scratch, strict_opts()).expect("open log copy");
    let fold = fold_log(&log.records, None).expect("fold");
    (fold.lineage, fold.ratings.len())
}

/// Drives `ops` against a WAL-attached engine whose `online.swap` and
/// `wal.append` sites fail at `fault_rate`, checking after every step that
/// the live lineage is the fold of the log written so far, that a refused
/// step changed nothing, that versions never repeat and the history never
/// exceeds its cap — and, at step `crash_at`, that a recovery from the
/// disk image is the live engine, lineage and answer bits.
fn run_history(label: &str, ops: &[Op], crash_at: usize, fault_seed: u64, fault_rate: f64) {
    let tmp = TempDir::new(label);
    let wal_dir = tmp.sub("wal");
    let ckpt_dir = tmp.sub("ckpt");
    let dataset = dataset();
    let candidates: Vec<FrozenModel> = (0..3u64)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(50 + k);
            let model = HireModel::new(&dataset, &model_config(), &mut rng);
            FrozenModel::from_model(&model, &dataset).expect("freeze")
        })
        .collect();
    let swap_faults = Arc::new(FaultPlan::new(fault_seed).with_fault(
        sites::ONLINE_SWAP,
        FaultKind::Error,
        fault_rate,
    ));
    let wal_faults = Arc::new(FaultPlan::new(fault_seed ^ 0xA5).with_fault(
        sites::WAL_APPEND,
        FaultKind::Error,
        fault_rate,
    ));
    let (wal, _) =
        Wal::open_with_faults(&wal_dir, strict_opts(), Some(wal_faults)).expect("open wal");
    let engine = ServeEngine::with_shared_graph(
        base_model(&dataset),
        dataset.clone(),
        Arc::new(dataset.graph()),
        engine_config(),
    )
    .with_faults(swap_faults)
    .with_wal(Arc::new(wal));
    let probes: Vec<RatingQuery> = (0..16)
        .map(|k| RatingQuery {
            user: (k * 7) % USERS,
            item: (k * 11) % ITEMS,
        })
        .collect();
    let bits = |pred: &ServeEngine| -> Vec<u32> {
        let answers = pred.predict_batch(&probes).expect("probe batch");
        answers.into_iter().map(f32::to_bits).collect()
    };

    let mut versions = BTreeSet::from([1]);
    for (step, op) in ops.iter().enumerate() {
        let before = engine.lineage();
        let inserted_before = engine.inserted_since(0).1;
        let moved = match op {
            Op::Promote(k) => {
                let source = checkpoint_weights(&ckpt_dir, step as u64, &candidates[*k]);
                engine.install_model(candidates[*k].clone(), source).ok()
            }
            Op::PromoteUnsaved => {
                let refused = engine.install_model(candidates[0].clone(), SlotSource::Unsaved);
                assert!(
                    matches!(
                        refused,
                        Err(ServeError::Model(_) | ServeError::Injected { .. })
                    ),
                    "step {step}: an unreloadable source must be refused, got {refused:?}"
                );
                None
            }
            Op::Demote => engine.demote().ok().flatten(),
            Op::Insert => {
                let acked = engine.insert_rating(rating(step)).is_ok();
                assert_eq!(
                    engine.inserted_since(0).1,
                    inserted_before + usize::from(acked)
                );
                None
            }
        };
        let live = engine.lineage();
        match moved {
            Some(version) => {
                assert_eq!(live.current.1, version, "step {step} {op:?}");
                assert!(versions.insert(version), "step {step}: v{version} reused");
            }
            None => assert_eq!(live, before, "step {step}: a refused {op:?} changed state"),
        }
        assert!(live.history.len() <= Lineage::HISTORY_CAP);
        let (replayed, logged_ratings) = folded(&wal_dir, &tmp.path().join("fold"));
        assert_eq!(live, replayed, "step {step} {op:?}: live vs folded log");
        assert_eq!(engine.inserted_since(0).1, logged_ratings);

        if step == crash_at {
            let crash = tmp.path().join("crash");
            copy_dir(&wal_dir, &crash);
            let online_config = OnlineConfig {
                checkpoint_dir: Some(ckpt_dir.clone()),
                ..OnlineConfig::default()
            };
            let recovered = recover_from(&dataset, &crash, online_config, strict_opts());
            assert_eq!(recovered.engine.lineage(), live, "recovered at step {step}");
            assert_eq!(recovered.dropped_history, Vec::<u64>::new());
            assert_eq!(bits(&recovered.engine), bits(&engine), "step {step}");
        }
    }
}

/// More promotions than the history holds, then demotions until none is
/// left: the cap is crossed, and the history emptied, on the live side
/// and the replay side alike.
#[test]
fn lineage_crosses_the_cap_and_empties_live_and_replayed() {
    let n = Lineage::HISTORY_CAP + 2;
    let mut ops: Vec<Op> = (0..n).map(|k| Op::Promote(k % 3)).collect();
    ops.extend((0..=n).map(|_| Op::Demote));
    ops.push(Op::Promote(1));
    // Crash once with a full history and once with an empty one.
    run_history("cap-full", &ops, n - 1, 0, 0.0);
    run_history("cap-empty", &ops, 2 * n, 0, 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Generated promote / demote / insert histories under injected
    /// prepare faults and refused appends (see [`run_history`]).
    #[test]
    fn generated_histories_recover_to_the_live_lineage(
        ops in vec(op_strategy(), 12..32),
        crash_at in 0usize..12,
        fault_seed in 0u64..1_000_000,
    ) {
        run_history("generated", &ops, crash_at, fault_seed, 0.2);
    }
}
