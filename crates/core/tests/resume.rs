//! Crash/resume integration tests: a training run interrupted mid-flight
//! and resumed from its durable snapshots must reproduce the uninterrupted
//! run bit-exactly, and a corrupted newest snapshot must fall back to the
//! previous valid one.

use hire_core::{train, HireConfig, HireModel, TrainConfig, TrainOutcome};
use hire_data::{Dataset, SyntheticConfig};
use hire_graph::NeighborhoodSampler;
use hire_nn::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;

/// Self-cleaning temp dir (removed on drop even when the test fails).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hire_core_resume_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// `config` resuming from (or starting fresh into) the snapshots in `dir`.
fn resuming(dir: &TempDir, config: TrainConfig) -> TrainConfig {
    TrainConfig {
        checkpoint_dir: Some(dir.0.clone()),
        resume: true,
        ..config
    }
}

fn small_dataset() -> Dataset {
    SyntheticConfig::movielens_like()
        .scaled(30, 25, (8, 12))
        .generate(3)
}

fn small_model_config() -> HireConfig {
    HireConfig {
        attr_dim: 4,
        num_blocks: 1,
        heads: 2,
        head_dim: 4,
        context_users: 4,
        context_items: 4,
        input_ratio: 0.2,
        enable_mbu: true,
        enable_mbi: true,
        enable_mba: true,
        residual: true,
        layer_norm: true,
    }
}

fn train_config() -> TrainConfig {
    TrainConfig {
        steps: 40,
        batch_size: 2,
        base_lr: 2e-3,
        grad_clip: 1.0,
        ..TrainConfig::paper_default()
    }
}

const SEED: u64 = 42;

/// Runs the full 40 steps uninterrupted and returns the loss curve.
fn uninterrupted_losses(dataset: &Dataset) -> Vec<f32> {
    let graph = dataset.graph();
    let mut rng = StdRng::seed_from_u64(SEED);
    let model = HireModel::new(dataset, &small_model_config(), &mut rng);
    let report = train(
        &model,
        dataset,
        &graph,
        &NeighborhoodSampler,
        &train_config(),
        &mut rng,
    )
    .expect("uninterrupted training");
    assert_eq!(report.outcome, TrainOutcome::Completed);
    report.steps.iter().map(|s| s.loss).collect()
}

#[test]
fn interrupted_run_resumes_bit_exactly() {
    let dataset = small_dataset();
    let graph = dataset.graph();
    let tmp = TempDir::new("bit_exact");
    let reference = uninterrupted_losses(&dataset);
    assert_eq!(reference.len(), 40);

    // First "process": halt deterministically after 25 steps, snapshotting
    // every step.
    let mut first_losses = {
        let mut rng = StdRng::seed_from_u64(SEED);
        let model = HireModel::new(&dataset, &small_model_config(), &mut rng);
        let config = TrainConfig {
            checkpoint_dir: Some(tmp.0.clone()),
            checkpoint_every_secs: 0.0,
            halt_after_steps: Some(25),
            ..train_config()
        };
        let report = train(
            &model,
            &dataset,
            &graph,
            &NeighborhoodSampler,
            &config,
            &mut rng,
        )
        .expect("interrupted training");
        assert_eq!(report.outcome, TrainOutcome::Interrupted { step: 24 });
        report.steps.iter().map(|s| s.loss).collect::<Vec<_>>()
    };

    // Second "process": fresh RNG and model built exactly as before, then
    // resume — the snapshot overwrites both.
    let resumed_losses = {
        let mut rng = StdRng::seed_from_u64(SEED);
        let model = HireModel::new(&dataset, &small_model_config(), &mut rng);
        let report = train(
            &model,
            &dataset,
            &graph,
            &NeighborhoodSampler,
            &resuming(&tmp, train_config()),
            &mut rng,
        )
        .expect("resumed training");
        assert_eq!(report.outcome, TrainOutcome::Completed);
        let losses: Vec<f32> = report.steps.iter().map(|s| s.loss).collect();
        assert_eq!(report.steps.first().map(|s| s.step), Some(25));
        // The resumed model's weights must be finite and usable.
        for p in model.parameters() {
            assert!(!p.value().has_non_finite());
        }
        losses
    };

    first_losses.extend(resumed_losses);
    assert_eq!(
        first_losses, reference,
        "interrupted + resumed loss curve must be bit-identical to the uninterrupted run"
    );
}

#[test]
fn resume_falls_back_when_newest_snapshot_is_corrupted() {
    let dataset = small_dataset();
    let graph = dataset.graph();
    let tmp = TempDir::new("fallback");

    {
        let mut rng = StdRng::seed_from_u64(SEED);
        let model = HireModel::new(&dataset, &small_model_config(), &mut rng);
        let config = TrainConfig {
            checkpoint_dir: Some(tmp.0.clone()),
            checkpoint_every_secs: 0.0,
            checkpoint_keep_last: 10,
            halt_after_steps: Some(10),
            ..train_config()
        };
        train(
            &model,
            &dataset,
            &graph,
            &NeighborhoodSampler,
            &config,
            &mut rng,
        )
        .expect("interrupted training");
    }

    // Corrupt the newest snapshot file (bit flip mid-payload).
    let mut snapshots: Vec<PathBuf> = fs::read_dir(&tmp.0)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "hckpt"))
        .collect();
    snapshots.sort();
    assert!(snapshots.len() >= 2, "need at least two snapshots");
    let newest = snapshots.last().unwrap();
    let mut bytes = fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    fs::write(newest, &bytes).unwrap();

    // Resume must skip the corrupt file and continue from the previous
    // valid snapshot (step 9) instead of erroring out.
    let mut rng = StdRng::seed_from_u64(SEED);
    let model = HireModel::new(&dataset, &small_model_config(), &mut rng);
    let report = train(
        &model,
        &dataset,
        &graph,
        &NeighborhoodSampler,
        &resuming(&tmp, train_config()),
        &mut rng,
    )
    .expect("resume with corrupt newest snapshot");
    assert_eq!(report.outcome, TrainOutcome::Completed);
    assert_eq!(
        report.steps.first().map(|s| s.step),
        Some(9),
        "must fall back to the snapshot before the corrupted one"
    );
}

#[test]
fn resume_refuses_different_hyper_parameters() {
    let dataset = small_dataset();
    let graph = dataset.graph();
    let tmp = TempDir::new("fingerprint");

    {
        let mut rng = StdRng::seed_from_u64(SEED);
        let model = HireModel::new(&dataset, &small_model_config(), &mut rng);
        let config = TrainConfig {
            checkpoint_dir: Some(tmp.0.clone()),
            checkpoint_every_secs: 0.0,
            halt_after_steps: Some(5),
            ..train_config()
        };
        train(
            &model,
            &dataset,
            &graph,
            &NeighborhoodSampler,
            &config,
            &mut rng,
        )
        .expect("interrupted training");
    }

    let mut rng = StdRng::seed_from_u64(SEED);
    let model = HireModel::new(&dataset, &small_model_config(), &mut rng);
    let different = TrainConfig {
        base_lr: 9e-3, // not what the snapshot was trained with
        ..train_config()
    };
    let err = train(
        &model,
        &dataset,
        &graph,
        &NeighborhoodSampler,
        &resuming(&tmp, different),
        &mut rng,
    )
    .expect_err("fingerprint mismatch must refuse to resume");
    assert!(
        err.to_string().contains("hyper-parameters"),
        "unexpected error: {err}"
    );
}

#[test]
fn resume_on_empty_dir_is_a_fresh_run() {
    let dataset = small_dataset();
    let graph = dataset.graph();
    let tmp = TempDir::new("fresh");

    let mut rng = StdRng::seed_from_u64(SEED);
    let model = HireModel::new(&dataset, &small_model_config(), &mut rng);
    let config = TrainConfig {
        steps: 6,
        ..train_config()
    };
    let report = train(
        &model,
        &dataset,
        &graph,
        &NeighborhoodSampler,
        &resuming(&tmp, config),
        &mut rng,
    )
    .expect("fresh start under resume");
    assert_eq!(report.outcome, TrainOutcome::Completed);
    assert_eq!(report.steps.first().map(|s| s.step), Some(0));
    // And it left snapshots behind for the next resume.
    let count = fs::read_dir(&tmp.0)
        .unwrap()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "hckpt"))
        .count();
    assert!(count >= 1);
}
