//! Sharded crash recovery (ISSUE 9 tentpole, sharded half): N per-shard
//! write-ahead logs under one manifest must recover in **lockstep** — every
//! shard on the same model version with the same weights, every shard's
//! ratings replayed, answers bit-identical to an engine that never
//! crashed. A crash *mid-install* leaves prefix-chained event logs;
//! recovery rolls the lagging shards forward (durably). Divergent logs
//! are a refusal, not a guess.

use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_ckpt::{CheckpointStore, GuardSnapshot, OptimizerSnapshot, TrainSnapshot};
use hire_core::{HireConfig, HireModel};
use hire_data::Dataset;
use hire_graph::Rating;
use hire_serve::{
    fold_log, EngineConfig, FrozenModel, Lineage, Predictor, RatingQuery, ServeError, SlotSource,
};
use hire_shard::{recover_sharded, ShardConfig, ShardedEngine};
use hire_wal::{shard_dir, Wal, WalOptions, WalRecord};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const USERS: usize = 60;
const ITEMS: usize = 45;
const SHARDS: usize = 4;

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hire-shardrec-{label}-{}-{:?}",
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
    HireConfig::fast().with_blocks(1).with_context_size(8, 8)
}

fn frozen(dataset: &Dataset, seed: u64) -> FrozenModel {
    let mut rng = StdRng::seed_from_u64(seed);
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

fn shard_config() -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        hot_keys: None,
    }
}

fn logged_engine(dataset: &Arc<Dataset>, root: &Path) -> ShardedEngine {
    ShardedEngine::with_shared_graph(
        frozen(dataset, 4),
        Arc::clone(dataset),
        Arc::new(dataset.graph()),
        engine_config(),
        shard_config(),
    )
    .with_wal_root(root, strict_opts())
    .expect("attach wal root")
}

fn rating(k: usize) -> Rating {
    Rating::new((k * 3) % USERS, (k * 5) % ITEMS, ((k % 5) + 1) as f32)
}

fn probes() -> Vec<RatingQuery> {
    (0..12)
        .map(|k| RatingQuery {
            user: (k * 13) % USERS,
            item: (k * 17) % ITEMS,
        })
        .collect()
}

fn probe_bits(engine: &ShardedEngine) -> Vec<(u32, u64)> {
    engine
        .predict_batch_tagged(&probes(), None)
        .expect("probe batch")
        .into_iter()
        .map(|a| (a.rating.to_bits(), a.version))
        .collect()
}

/// Writes a weight checkpoint the way the online loop does before a
/// logged promotion: the `(tag, steps)` pair in the `ModelPromoted`
/// record names exactly this file.
fn checkpoint_weights(dir: &Path, tag: &str, steps: u64, model: &FrozenModel) {
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
    // Keep more than a full lineage (history cap + incumbent) reloadable.
    CheckpointStore::open_tagged(dir, tag, 8)
        .and_then(|store| store.save(&snapshot))
        .expect("checkpoint weights");
}

/// The reload source naming a [`checkpoint_weights`] file.
fn checkpoint_source(tag: &str, steps: u64) -> SlotSource {
    SlotSource::Checkpoint {
        tag: tag.into(),
        steps,
    }
}

fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read dir") {
        let entry = entry.expect("entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy file");
        }
    }
}

fn recover_copy(
    dataset: &Arc<Dataset>,
    root: &Path,
    ckpt_dir: Option<&Path>,
) -> hire_shard::RecoveredShards {
    recover_sharded(
        frozen(dataset, 4),
        Arc::clone(dataset),
        Arc::new(dataset.graph()),
        engine_config(),
        shard_config(),
        ckpt_dir,
        root,
        strict_opts(),
    )
    .expect("recover sharded")
}

/// Clean crash: inserts spread over all shards plus a logged install
/// recover in lockstep, bit-identical to the live engine, with no
/// roll-forward needed.
#[test]
fn sharded_recovery_is_bitwise_lockstep() {
    let tmp = TempDir::new("lockstep");
    let root = tmp.sub("wal");
    let ckpt_dir = tmp.sub("ckpt");
    let data = dataset();
    let engine = logged_engine(&data, &root);

    for k in 0..30 {
        engine.insert_rating(rating(k)).expect("acked insert");
    }
    let candidate = frozen(&data, 11);
    checkpoint_weights(&ckpt_dir, "cand", 7, &candidate);
    let version = engine
        .install_model(candidate, checkpoint_source("cand", 7))
        .expect("logged install");
    assert_eq!(version, 2);
    for k in 30..42 {
        engine.insert_rating(rating(k)).expect("acked insert");
    }
    let live_bits = probe_bits(&engine);

    let crash = tmp.path().join("crash");
    copy_tree(&root, &crash);
    let recovered = recover_copy(&data, &crash, Some(&ckpt_dir));
    assert_eq!(recovered.rolled_forward, 0, "clean crash needs no repair");
    assert_eq!(recovered.model_events, 1);
    assert_eq!(recovered.ratings_per_shard.iter().sum::<usize>(), 42);
    for shard in recovered.engine.shard_engines() {
        assert_eq!(shard.version(), 2, "shards must recover in lockstep");
    }
    assert_eq!(probe_bits(&recovered.engine), live_bits);
}

/// Crash mid-install: only a prefix of the shards logged the promotion.
/// Recovery takes the longest log as truth, durably appends the missing
/// records to the lagging shards, and lands everyone on the new version —
/// and a *second* recovery of the repaired root sees nothing left to fix.
#[test]
fn partial_install_rolls_lagging_shards_forward() {
    let tmp = TempDir::new("rollforward");
    let root = tmp.sub("wal");
    let ckpt_dir = tmp.sub("ckpt");
    let data = dataset();
    let engine = logged_engine(&data, &root);
    for k in 0..24 {
        engine.insert_rating(rating(k)).expect("acked insert");
    }
    let candidate = frozen(&data, 11);
    checkpoint_weights(&ckpt_dir, "cand", 7, &candidate);
    engine
        .install_model(candidate.clone(), checkpoint_source("cand", 7))
        .expect("logged install");
    drop(engine);

    // Reference: an engine where the *next* promotion (v3) completed on
    // every shard before the crash.
    let next = frozen(&data, 23);
    checkpoint_weights(&ckpt_dir, "next", 9, &next);
    let full = tmp.path().join("full");
    copy_tree(&root, &full);
    for idx in 0..SHARDS {
        let (wal, _) = Wal::open(shard_dir(&full, idx), strict_opts()).expect("open shard log");
        wal.append_durable(&WalRecord::ModelPromoted {
            version: 3,
            tag: "next".into(),
            steps: 9,
        })
        .expect("append");
    }
    let reference_bits = probe_bits(&recover_copy(&data, &full, Some(&ckpt_dir)).engine);

    // Crash image: the same promotion reached only shard 0.
    let torn = tmp.path().join("torn");
    copy_tree(&root, &torn);
    let (wal, _) = Wal::open(shard_dir(&torn, 0), strict_opts()).expect("open shard log");
    wal.append_durable(&WalRecord::ModelPromoted {
        version: 3,
        tag: "next".into(),
        steps: 9,
    })
    .expect("append");
    drop(wal);

    let recovered = recover_copy(&data, &torn, Some(&ckpt_dir));
    assert_eq!(recovered.rolled_forward, SHARDS - 1);
    assert_eq!(recovered.model_events, 2);
    for shard in recovered.engine.shard_engines() {
        assert_eq!(shard.version(), 3, "roll-forward must restore lockstep");
    }
    assert_eq!(probe_bits(&recovered.engine), reference_bits);
    drop(recovered);

    // The repair was durable: recovering the repaired root again finds
    // every log already even.
    let again = recover_copy(&data, &torn, Some(&ckpt_dir));
    assert_eq!(
        again.rolled_forward, 0,
        "repair must persist across recoveries"
    );
    for shard in again.engine.shard_engines() {
        assert_eq!(shard.version(), 3);
    }
}

/// Logs that are not prefix-chained (two shards claiming different
/// promotions for the same version) are unrecoverable by roll-forward;
/// recovery must refuse with a typed error rather than pick a side.
#[test]
fn divergent_shard_logs_are_refused() {
    let tmp = TempDir::new("diverge");
    let root = tmp.sub("wal");
    let ckpt_dir = tmp.sub("ckpt");
    let data = dataset();
    let engine = logged_engine(&data, &root);
    for k in 0..12 {
        engine.insert_rating(rating(k)).expect("acked insert");
    }
    drop(engine);

    for (idx, tag) in [(0usize, "alpha"), (1usize, "beta")] {
        let (wal, _) = Wal::open(shard_dir(&root, idx), strict_opts()).expect("open shard log");
        wal.append_durable(&WalRecord::ModelPromoted {
            version: 2,
            tag: tag.into(),
            steps: 5,
        })
        .expect("append");
    }

    let err = match recover_sharded(
        frozen(&data, 4),
        Arc::clone(&data),
        Arc::new(data.graph()),
        engine_config(),
        shard_config(),
        Some(ckpt_dir.as_path()),
        &root,
        strict_opts(),
    ) {
        Ok(_) => panic!("divergent logs must be refused"),
        Err(err) => err,
    };
    assert!(
        err.to_string().contains("prefix-chained"),
        "error should name the broken invariant, got: {err}"
    );
}

/// Guard rails on the attach/recover split: a root with logged records
/// cannot be silently re-attached as fresh, and a manifest written for N
/// shards cannot be recovered as M.
#[test]
fn dirty_roots_and_shard_count_mismatches_are_refused() {
    let tmp = TempDir::new("guards");
    let root = tmp.sub("wal");
    let data = dataset();
    let engine = logged_engine(&data, &root);
    for k in 0..6 {
        engine.insert_rating(rating(k)).expect("acked insert");
    }
    drop(engine);

    let err = match ShardedEngine::with_shared_graph(
        frozen(&data, 4),
        Arc::clone(&data),
        Arc::new(data.graph()),
        engine_config(),
        shard_config(),
    )
    .with_wal_root(&root, strict_opts())
    {
        Ok(_) => panic!("dirty root must not attach as fresh"),
        Err(err) => err,
    };
    assert!(
        err.to_string().contains("recover_sharded"),
        "error should direct to recovery, got: {err}"
    );

    let err = match recover_sharded(
        frozen(&data, 4),
        Arc::clone(&data),
        Arc::new(data.graph()),
        engine_config(),
        ShardConfig {
            shards: SHARDS + 1,
            hot_keys: None,
        },
        None,
        &root,
        strict_opts(),
    ) {
        Ok(_) => panic!("shard count mismatch must be refused"),
        Err(err) => err,
    };
    assert!(
        err.to_string().contains("re-shard"),
        "error should name the mismatch, got: {err}"
    );
}

/// One step of a generated history.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Install candidate `k` on every shard from a fresh checkpoint.
    Promote(usize),
    /// Install without a checkpoint — WAL-attached shards must refuse.
    PromoteUnsaved,
    /// Demote every shard, in shard order.
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

/// Demotes every shard. `ShardedEngine` has no demotion of its own, so
/// this is what an operator would do: shard by shard, retrying a shard
/// whose prepare hit an injected fault until it follows the others.
fn demote_every_shard(engine: &ShardedEngine) -> Option<u64> {
    let mut versions = BTreeSet::new();
    for shard in engine.shard_engines() {
        let version = loop {
            match shard.demote() {
                Ok(version) => break version,
                Err(ServeError::Injected { .. }) => continue,
                Err(other) => panic!("demote failed: {other:?}"),
            }
        };
        versions.insert(version);
    }
    assert_eq!(versions.len(), 1, "shards demoted apart: {versions:?}");
    versions.into_iter().next().expect("at least one shard")
}

/// Drives `ops` against a 3-shard WAL-attached engine whose per-shard
/// `online.swap` sites fail at `fault_rate`, checking after every step
/// that every shard's live lineage is the fold of that shard's log so far
/// and the same on all shards, that an aborted install changed nothing,
/// that versions never repeat and the history never exceeds its cap —
/// and, at step `crash_at`, that a recovery from the disk image is the
/// live engine, lineage and answer bits. (A refused *append* mid-install
/// leaves shards apart by design; that is the roll-forward case above.)
fn run_history(label: &str, ops: &[Op], crash_at: usize, fault_seed: u64, fault_rate: f64) {
    const N: usize = 3;
    let tmp = TempDir::new(label);
    let root = tmp.sub("wal");
    let ckpt_dir = tmp.sub("ckpt");
    let data = dataset();
    let config = ShardConfig {
        shards: N,
        hot_keys: None,
    };
    let candidates: Vec<FrozenModel> = (0..3).map(|k| frozen(&data, 50 + k)).collect();
    let plans = (0..N as u64)
        .map(|s| {
            Arc::new(FaultPlan::new(fault_seed ^ s).with_fault(
                sites::ONLINE_SWAP,
                FaultKind::Error,
                fault_rate,
            ))
        })
        .collect();
    let engine = ShardedEngine::with_shared_graph(
        frozen(&data, 4),
        Arc::clone(&data),
        Arc::new(data.graph()),
        engine_config(),
        config.clone(),
    )
    .with_faults(plans)
    .with_wal_root(&root, strict_opts())
    .expect("attach wal root");
    let probes: Vec<RatingQuery> = (0..16)
        .map(|k| RatingQuery {
            user: (k * 13) % USERS,
            item: (k * 17) % ITEMS,
        })
        .collect();
    let bits = |engine: &ShardedEngine| -> Vec<(u32, u64)> {
        let answers = engine.predict_batch_tagged(&probes, None).expect("probes");
        answers
            .into_iter()
            .map(|a| (a.rating.to_bits(), a.version))
            .collect()
    };

    let mut versions = BTreeSet::from([1]);
    for (step, op) in ops.iter().enumerate() {
        let before = engine.shard_engines()[0].lineage();
        let moved = match op {
            Op::Promote(k) => {
                checkpoint_weights(&ckpt_dir, "cand", step as u64, &candidates[*k]);
                let source = checkpoint_source("cand", step as u64);
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
            Op::Demote => demote_every_shard(&engine),
            Op::Insert => {
                engine.insert_rating(rating(step)).expect("acked insert");
                None
            }
        };
        let live = engine.shard_engines()[0].lineage();
        match moved {
            Some(version) => {
                assert_eq!(live.current.1, version, "step {step} {op:?}");
                assert!(versions.insert(version), "step {step}: v{version} reused");
            }
            None => assert_eq!(live, before, "step {step}: a refused {op:?} changed state"),
        }
        assert!(live.history.len() <= Lineage::HISTORY_CAP);
        let scratch = tmp.path().join("fold");
        let _ = std::fs::remove_dir_all(&scratch);
        copy_tree(&root, &scratch);
        for (idx, shard) in engine.shard_engines().iter().enumerate() {
            assert_eq!(shard.lineage(), live, "step {step}: shard {idx} fell apart");
            let (_, log) = Wal::open(shard_dir(&scratch, idx), strict_opts()).expect("open copy");
            let fold = fold_log(&log.records, None).expect("fold");
            assert_eq!(
                fold.lineage, live,
                "step {step} {op:?}: shard {idx} vs its log"
            );
        }

        if step == crash_at {
            let crash = tmp.path().join("crash");
            copy_tree(&root, &crash);
            let recovered = recover_sharded(
                frozen(&data, 4),
                Arc::clone(&data),
                Arc::new(data.graph()),
                engine_config(),
                config.clone(),
                Some(&ckpt_dir),
                &crash,
                strict_opts(),
            )
            .expect("recover sharded");
            assert_eq!(recovered.rolled_forward, 0);
            for (idx, shard) in recovered.engine.shard_engines().iter().enumerate() {
                assert_eq!(
                    shard.lineage(),
                    live,
                    "recovered shard {idx} at step {step}"
                );
                assert!(recovered.dropped_history_per_shard[idx].is_empty());
            }
            assert_eq!(bits(&recovered.engine), bits(&engine), "step {step}");
        }
    }
}

/// More promotions than the history holds, then demotions until none is
/// left: the cap is crossed, and the history emptied, on every shard's
/// live side and replay side alike.
#[test]
fn lineage_crosses_the_cap_and_empties_on_every_shard() {
    let n = Lineage::HISTORY_CAP + 2;
    let mut ops: Vec<Op> = (0..n).map(|k| Op::Promote(k % 3)).collect();
    ops.extend((0..=n).map(|_| Op::Demote));
    ops.push(Op::Promote(1));
    run_history("cap-full", &ops, n - 1, 0, 0.0);
    run_history("cap-empty", &ops, 2 * n, 0, 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated promote / demote / insert histories under injected
    /// per-shard prepare faults (see [`run_history`]).
    #[test]
    fn generated_histories_keep_shards_in_lockstep_and_recover(
        ops in vec(op_strategy(), 10..24),
        crash_at in 0usize..10,
        fault_seed in 0u64..1_000_000,
    ) {
        run_history("generated", &ops, crash_at, fault_seed, 0.15);
    }
}
