//! Training loop implementing Algorithm 1 with the paper's optimizer stack
//! (LAMB + Lookahead, flat-then-anneal LR, gradient clipping at 1.0),
//! supervised by a numerical-health guard (see `crate::guard`) and — when
//! a checkpoint directory is configured — durably snapshotted for bit-exact
//! crash resume (see `hire-ckpt` and `DESIGN.md` §8).

use crate::guard::{
    NumericalGuard, ParameterCheckpoint, RecoveryEvent, TrainOutcome, TrainReport,
    CHECKPOINT_EVERY, DIVERGENCE_FACTOR, EMA_BETA, LR_BACKOFF, MAX_RECOVERIES, PATIENCE,
    WARMUP_STEPS,
};
use crate::model::HireModel;
use hire_ckpt::{fingerprint, CheckpointStore, GuardSnapshot, OptimizerSnapshot, TrainSnapshot};
use hire_data::{training_context, Dataset};
use hire_error::{HireError, HireResult};
use hire_graph::{BipartiteGraph, ContextSampler, Rating};
use hire_nn::Module;
use hire_optim::{clip_grad_norm, FlatThenAnneal, Lamb, Lookahead, LrSchedule, Optimizer};
use hire_tensor::{NdArray, Scratch, Tensor};
use rand::seq::SliceRandom;
use rand::{Rng, StateRng};
use std::path::PathBuf;
use std::time::Instant;

/// Training-run settings (model hyper-parameters live in
/// [`crate::HireConfig`]).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Total optimization steps.
    pub steps: usize,
    /// Prediction contexts per mini-batch (Algorithm 1, line 4).
    pub batch_size: usize,
    /// Base learning rate (paper: 1e-3; higher is appropriate for the
    /// scaled-down runs).
    pub base_lr: f32,
    /// Global-norm gradient clip threshold (paper: 1.0).
    pub grad_clip: f32,
    /// Directory for durable training snapshots. `None` (the default)
    /// disables durable checkpointing; the in-memory rollback checkpoints
    /// of the divergence guard are unaffected.
    pub checkpoint_dir: Option<PathBuf>,
    /// Minimum seconds between durable snapshots. `0.0` snapshots after
    /// every step (useful in tests). Ignored without `checkpoint_dir`.
    pub checkpoint_every_secs: f64,
    /// How many snapshot files to retain in `checkpoint_dir`.
    pub checkpoint_keep_last: usize,
    /// When set with `checkpoint_dir`, training resumes from the newest
    /// snapshot in the directory that passes integrity validation
    /// (truncated or bit-flipped files are skipped with a logged warning;
    /// a fresh start if there is none). The caller builds the model and
    /// seeds the RNG exactly as for a fresh run; the snapshot then
    /// overwrites parameters, optimizer moments, Lookahead slow weights,
    /// guard baseline, learning-rate scale and RNG stream, so the resumed
    /// trajectory is bit-identical to the uninterrupted one. A snapshot
    /// produced under different hyper-parameters (config fingerprint
    /// mismatch), or one that does not line up with the model, is an error.
    pub resume: bool,
    /// Stop with [`TrainOutcome::Interrupted`] after this many steps *of
    /// this run* (deterministic interruption for crash/resume tests).
    pub halt_after_steps: Option<usize>,
}

impl TrainConfig {
    /// The paper's published training hyper-parameters.
    pub fn paper_default() -> Self {
        TrainConfig {
            steps: 1000,
            batch_size: 8,
            base_lr: 1e-3,
            grad_clip: 1.0,
            checkpoint_dir: None,
            checkpoint_every_secs: 30.0,
            checkpoint_keep_last: 3,
            resume: false,
            halt_after_steps: None,
        }
    }

    /// A quick configuration for tests and smoke benchmarks.
    pub fn fast() -> Self {
        TrainConfig {
            steps: 120,
            batch_size: 4,
            base_lr: 3e-3,
            grad_clip: 1.0,
            ..Self::paper_default()
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Fingerprint of the hyper-parameters a snapshot was produced under.
/// Resuming under different hyper-parameters is refused — the trajectory
/// would silently diverge from the uninterrupted run. Checkpoint cadence
/// and the halt setting are deliberately excluded: they legitimately differ
/// between an interrupted run and its resume. The guard's constants are
/// hashed too, in the order their settable forms once were, so a snapshot
/// written before they became constants still resumes.
fn config_fingerprint(config: &TrainConfig) -> u64 {
    fingerprint([
        config.steps as u64,
        config.batch_size as u64,
        config.base_lr.to_bits() as u64,
        config.grad_clip.to_bits() as u64,
        EMA_BETA.to_bits() as u64,
        DIVERGENCE_FACTOR.to_bits() as u64,
        PATIENCE as u64,
        CHECKPOINT_EVERY as u64,
        MAX_RECOVERIES as u64,
        LR_BACKOFF.to_bits() as u64,
        WARMUP_STEPS as u64,
    ])
}

/// Record of one training step.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// 0-based step index.
    pub step: usize,
    /// Mini-batch MSE loss.
    pub loss: f32,
}

/// The learning-rate scale after `attempts` divergence recoveries:
/// `factor^attempts`, computed by repeated `f32` multiplication from 1.0 —
/// bit-identical to applying `*= factor` once per recovery, which is what
/// makes the scale a resumed run recomputes equal the uninterrupted run's.
pub fn geometric(factor: f32, attempts: usize) -> f32 {
    (0..attempts).fold(1.0f32, |scale, _| scale * factor)
}

/// Trains `model` on contexts sampled from `graph` (the training-visible
/// graph), returning a [`TrainReport`]. Deterministic under a fixed `rng`.
///
/// Each step the guard inspects the mini-batch loss and the gradient
/// statistics. On divergence (non-finite loss/gradients, or a sustained
/// loss explosion relative to the EMA baseline) the parameters are rolled
/// back to the last healthy checkpoint, the learning rate is halved, and
/// the optimizer state is rebuilt. After four rollbacks the run stops with
/// [`TrainOutcome::Aborted`] — the weights stay at the last good snapshot,
/// so callers always receive a usable (finite) model.
pub fn train(
    model: &HireModel,
    dataset: &Dataset,
    graph: &BipartiteGraph,
    sampler: &dyn ContextSampler,
    config: &TrainConfig,
    rng: &mut (impl Rng + StateRng),
) -> HireResult<TrainReport> {
    if graph.num_ratings() == 0 {
        return Err(HireError::invalid_data(
            "train",
            "training graph has no edges",
        ));
    }
    train_impl(model, dataset, graph, sampler, None, config, rng)
}

/// Fine-tunes an already-trained model on a specific set of *seed edges*
/// (e.g. ratings that arrived after the model was frozen), while contexts
/// are still sampled from the full live `graph` — so each step sees the
/// new edge embedded in its real neighborhood, not in isolation.
///
/// This is [`train`] with the mini-batch seed pool restricted:
/// everything else (guard rollback, LR backoff, durable snapshots,
/// determinism under a fixed `rng`) behaves identically. Every seed edge
/// must be present in `graph` bounds; an empty slice is a typed error.
pub fn fine_tune(
    model: &HireModel,
    dataset: &Dataset,
    graph: &BipartiteGraph,
    sampler: &dyn ContextSampler,
    seed_edges: &[Rating],
    config: &TrainConfig,
    rng: &mut (impl Rng + StateRng),
) -> HireResult<TrainReport> {
    if seed_edges.is_empty() {
        return Err(HireError::invalid_data(
            "fine_tune",
            "no seed edges to fine-tune on",
        ));
    }
    for edge in seed_edges {
        if edge.user >= graph.num_users() || edge.item >= graph.num_items() {
            return Err(HireError::invalid_data(
                "fine_tune",
                format!(
                    "seed edge ({}, {}) out of graph bounds {}x{}",
                    edge.user,
                    edge.item,
                    graph.num_users(),
                    graph.num_items()
                ),
            ));
        }
    }
    train_impl(
        model,
        dataset,
        graph,
        sampler,
        Some(seed_edges),
        config,
        rng,
    )
}

/// Shared training loop: mini-batch seeds are drawn from `seed_edges`, or,
/// without them, from every edge of `graph`; contexts from `graph`.
fn train_impl(
    model: &HireModel,
    dataset: &Dataset,
    graph: &BipartiteGraph,
    sampler: &dyn ContextSampler,
    seed_edges: Option<&[Rating]>,
    config: &TrainConfig,
    rng: &mut (impl Rng + StateRng),
) -> HireResult<TrainReport> {
    let params = model.parameters();
    let fp = config_fingerprint(config);
    let store = match &config.checkpoint_dir {
        Some(dir) => Some(CheckpointStore::open(dir, config.checkpoint_keep_last)?),
        None => None,
    };

    let mut optimizer = Lookahead::paper_default(Lamb::paper_default(params.clone()));
    let schedule = FlatThenAnneal {
        base_lr: config.base_lr,
        total_steps: config.steps,
        flat_frac: 0.7,
    };
    let n = model.config().context_users;
    let m = model.config().context_items;
    let input_ratio = model.config().input_ratio;

    let mut guard = NumericalGuard::new();
    let mut checkpoint = ParameterCheckpoint::capture(0, &params);
    let mut lr_scale = 1.0f32;
    let mut prior_recoveries = 0usize;
    let mut start_step = 0usize;

    if config.resume {
        let store = store.as_ref().ok_or_else(|| {
            HireError::invalid_argument("resume", "resume requires checkpoint_dir to be set")
        })?;
        if let Some(found) = store.load_latest()? {
            let snap = found.snapshot;
            let label = found.path.display().to_string();
            if snap.config_fingerprint != fp {
                return Err(HireError::corrupt_checkpoint(
                    label,
                    "snapshot was produced under different hyper-parameters; refusing to resume",
                ));
            }
            if snap.params.len() != params.len() {
                return Err(HireError::corrupt_checkpoint(
                    label,
                    format!(
                        "snapshot has {} parameter tensors but the model has {}",
                        snap.params.len(),
                        params.len()
                    ),
                ));
            }
            for (p, v) in params.iter().zip(&snap.params) {
                if p.value().dims() != v.dims() {
                    return Err(HireError::corrupt_checkpoint(
                        label,
                        "snapshot parameter shapes do not match the model",
                    ));
                }
                p.set_value(v.clone());
            }
            checkpoint =
                ParameterCheckpoint::from_values(snap.rollback_step as usize, snap.rollback_params);
            optimizer.inner_mut().import_moments(
                snap.optimizer.lamb_m,
                snap.optimizer.lamb_v,
                snap.optimizer.lamb_t,
            )?;
            optimizer.import_slow(snap.optimizer.slow_weights, snap.optimizer.lookahead_steps)?;
            guard.import_state(
                snap.guard.ema,
                snap.guard.healthy_steps as usize,
                snap.guard.suspicious_streak as usize,
            );
            lr_scale = snap.guard.lr_scale;
            prior_recoveries = snap.guard.recoveries as usize;
            if !rng.import_state(&snap.rng_words) {
                return Err(HireError::corrupt_checkpoint(
                    label,
                    "snapshot RNG state does not match this generator",
                ));
            }
            start_step = snap.completed_steps as usize;
        }
        // No valid snapshot: first run under --resume starts fresh.
    }

    let mut steps = Vec::with_capacity(config.steps.saturating_sub(start_step));
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut outcome = TrainOutcome::Completed;
    let mut last_save = Instant::now();

    // A durable baseline before the first step, so a crash inside step 1
    // still leaves something to resume from.
    if let (Some(store), 0) = (&store, start_step) {
        store.save(&snapshot_now(
            0,
            fp,
            &params,
            &checkpoint,
            &optimizer,
            &guard,
            lr_scale,
            prior_recoveries,
            rng,
        ))?;
    }

    for step in start_step..config.steps {
        optimizer.zero_grad();
        // Algorithm 1 line 4: draw a mini-batch of prediction contexts.
        let mut contexts = Vec::with_capacity(config.batch_size);
        for _ in 0..config.batch_size {
            let seed = match seed_edges {
                Some(edges) => *edges.choose(rng).expect("non-empty seed edges"),
                // `choose`'s one draw over `graph.edges()`, looked up in
                // place instead of collected: the same seed, the same RNG
                // stream.
                None => graph
                    .edge(rng.gen_range(0..graph.num_ratings()))
                    .expect("an index below num_ratings names an edge"),
            };
            let ctx = training_context(graph, sampler, seed, n, m, input_ratio, rng)?;
            if ctx.num_targets() > 0 {
                contexts.push(ctx);
            }
        }
        if !contexts.is_empty() {
            // The batch loss is the mean of its contexts' losses. Each
            // context's graph is built and backpropagated on its own, the
            // last first, seeded with the mean's weight — what the one
            // graph of their sum would pass each context, in the order it
            // would visit them — so every gradient is that graph's sum, and
            // one context's graph is alive at a time. The loss is summed as
            // that graph summed it.
            let scale = 1.0 / config.batch_size as f32;
            let mut losses = vec![0.0f32; contexts.len()];
            for (ctx, loss) in contexts.iter().zip(&mut losses).rev() {
                let graph = model.context_loss(ctx, dataset);
                *loss = graph.item();
                graph.backward_with(NdArray::from_vec(graph.shape(), vec![scale]));
            }
            let total = losses.into_iter().reduce(|acc, loss| acc + loss);
            let loss_value = total.expect("a non-empty batch") * scale;
            let clip = clip_grad_norm(&params, config.grad_clip);
            let lr = schedule.lr(step) * lr_scale;
            steps.push(StepStats {
                step,
                loss: loss_value,
            });

            if guard.observe(loss_value, clip.nonfinite_entries).is_some() {
                // Roll back, shrink the LR, and rebuild the optimizer: its
                // moment estimates were computed from the diverged trajectory.
                // The LR follows a geometric decay —
                // `LR_BACKOFF^total_recoveries` — which is bit-identical to
                // multiplying the (possibly resumed) scale once per event.
                checkpoint.restore(&params);
                lr_scale = geometric(LR_BACKOFF, prior_recoveries + recoveries.len() + 1);
                optimizer = Lookahead::paper_default(Lamb::paper_default(params.clone()));
                guard.reset();
                recoveries.push(RecoveryEvent { lr_scale });
                // The budget spans the whole run, including recoveries
                // performed before an interruption.
                if prior_recoveries + recoveries.len() > MAX_RECOVERIES {
                    outcome = TrainOutcome::Aborted { step };
                }
            } else {
                optimizer.step(lr);
                if (step + 1) % CHECKPOINT_EVERY == 0 {
                    checkpoint = ParameterCheckpoint::capture(step + 1, &params);
                }
            }
        }

        let completed = step + 1;
        if matches!(outcome, TrainOutcome::Completed) {
            if let Some(halt) = config.halt_after_steps {
                if completed - start_step >= halt && completed < config.steps {
                    outcome = TrainOutcome::Interrupted { step };
                }
            }
        }
        let stopping = !matches!(outcome, TrainOutcome::Completed);
        if let Some(store) = &store {
            // Snapshots land at iteration boundaries — the RNG state is the
            // one the *next* step will see, which is what makes the resumed
            // trajectory bit-identical.
            let due = stopping
                || completed == config.steps
                || config.checkpoint_every_secs <= 0.0
                || last_save.elapsed().as_secs_f64() >= config.checkpoint_every_secs;
            if due {
                store.save(&snapshot_now(
                    completed,
                    fp,
                    &params,
                    &checkpoint,
                    &optimizer,
                    &guard,
                    lr_scale,
                    prior_recoveries + recoveries.len(),
                    rng,
                ))?;
                last_save = Instant::now();
            }
        }
        if stopping {
            break;
        }
    }
    // The steps' reused memory goes back to the allocator with the run.
    Scratch::release();
    Ok(TrainReport {
        steps,
        recoveries,
        outcome,
    })
}

/// Captures the complete live training state at a step boundary.
#[allow(clippy::too_many_arguments)]
fn snapshot_now(
    completed: usize,
    fp: u64,
    params: &[Tensor],
    checkpoint: &ParameterCheckpoint,
    optimizer: &Lookahead<Lamb>,
    guard: &NumericalGuard,
    lr_scale: f32,
    total_recoveries: usize,
    rng: &impl StateRng,
) -> TrainSnapshot {
    let (lamb_m, lamb_v, lamb_t) = optimizer.inner().export_moments();
    let (slow_weights, lookahead_steps) = optimizer.export_slow();
    let (ema, healthy_steps, suspicious_streak) = guard.export_state();
    TrainSnapshot {
        completed_steps: completed as u64,
        config_fingerprint: fp,
        params: params.iter().map(|p| p.value()).collect(),
        rollback_step: checkpoint.step() as u64,
        rollback_params: checkpoint.values().to_vec(),
        optimizer: OptimizerSnapshot {
            lamb_m,
            lamb_v,
            lamb_t,
            slow_weights,
            lookahead_steps,
        },
        guard: GuardSnapshot {
            ema,
            healthy_steps: healthy_steps as u64,
            suspicious_streak: suspicious_streak as u64,
            lr_scale,
            recoveries: total_recoveries as u32,
        },
        rng_words: rng.export_state(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HireConfig;
    use hire_data::SyntheticConfig;
    use hire_graph::NeighborhoodSampler;
    use rand::SeedableRng;

    #[test]
    fn training_reduces_loss() {
        let dataset = SyntheticConfig::movielens_like()
            .scaled(40, 30, (10, 20))
            .generate(2);
        let graph = dataset.graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let config = HireConfig {
            attr_dim: 4,
            num_blocks: 1,
            heads: 2,
            head_dim: 4,
            context_users: 6,
            context_items: 6,
            input_ratio: 0.2,
            enable_mbu: true,
            enable_mbi: true,
            enable_mba: true,
            residual: true,
            layer_norm: true,
        };
        let model = HireModel::new(&dataset, &config, &mut rng);
        let tc = TrainConfig {
            steps: 60,
            batch_size: 2,
            base_lr: 3e-3,
            grad_clip: 1.0,
            ..TrainConfig::paper_default()
        };
        let report = train(
            &model,
            &dataset,
            &graph,
            &NeighborhoodSampler,
            &tc,
            &mut rng,
        )
        .expect("training");
        assert_eq!(report.outcome, crate::guard::TrainOutcome::Completed);
        assert!(report.recoveries.is_empty(), "healthy run must not recover");
        let history = report.steps;
        assert!(!history.is_empty());
        let first: f32 = history[..10].iter().map(|s| s.loss).sum::<f32>() / 10.0;
        let last: f32 = history[history.len() - 10..]
            .iter()
            .map(|s| s.loss)
            .sum::<f32>()
            / 10.0;
        assert!(
            last < first * 0.9,
            "loss did not decrease: first={first:.4} last={last:.4}"
        );
        // all losses well-formed
        for s in &history {
            assert!(s.loss.is_finite());
        }
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let dataset = SyntheticConfig::movielens_like()
            .scaled(30, 25, (8, 12))
            .generate(3);
        let graph = dataset.graph();
        let config = HireConfig {
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
        };
        let tc = TrainConfig {
            steps: 10,
            batch_size: 2,
            base_lr: 1e-3,
            grad_clip: 1.0,
            ..TrainConfig::paper_default()
        };
        let run = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let model = HireModel::new(&dataset, &config, &mut rng);
            train(
                &model,
                &dataset,
                &graph,
                &NeighborhoodSampler,
                &tc,
                &mut rng,
            )
            .expect("training")
            .steps
            .iter()
            .map(|s| s.loss)
            .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn empty_training_graph_is_a_typed_error() {
        let dataset = SyntheticConfig::movielens_like()
            .scaled(10, 10, (3, 5))
            .generate(0);
        let empty = hire_graph::BipartiteGraph::empty(10, 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let config = HireConfig::fast();
        let model = HireModel::new(&dataset, &config, &mut rng);
        let err = train(
            &model,
            &dataset,
            &empty,
            &NeighborhoodSampler,
            &TrainConfig::fast(),
            &mut rng,
        )
        .expect_err("empty graph must error");
        assert!(err.to_string().contains("no edges"));
    }

    #[test]
    fn absurd_learning_rate_triggers_recovery_and_stays_finite() {
        // The divergence-recovery acceptance test: an absurd base LR blows
        // up training; the guard must roll back at least once and the model
        // must come out with finite weights and a finite loss.
        let dataset = SyntheticConfig::movielens_like()
            .scaled(40, 30, (10, 20))
            .generate(2);
        let graph = dataset.graph();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let config = HireConfig {
            attr_dim: 4,
            num_blocks: 1,
            heads: 2,
            head_dim: 4,
            context_users: 6,
            context_items: 6,
            input_ratio: 0.2,
            enable_mbu: true,
            enable_mbi: true,
            enable_mba: true,
            residual: true,
            layer_norm: true,
        };
        let model = HireModel::new(&dataset, &config, &mut rng);
        let tc = TrainConfig {
            steps: 60,
            batch_size: 2,
            base_lr: 50.0,
            grad_clip: 1.0,
            ..TrainConfig::paper_default()
        };
        let report = train(
            &model,
            &dataset,
            &graph,
            &NeighborhoodSampler,
            &tc,
            &mut rng,
        )
        .expect("guarded training must not error out");
        assert!(
            !report.recoveries.is_empty(),
            "LR 50 must trigger at least one recovery; outcome {:?}",
            report.outcome
        );
        for (a, b) in report
            .recoveries
            .iter()
            .zip(report.recoveries.iter().skip(1))
        {
            assert!(b.lr_scale < a.lr_scale, "LR must shrink across recoveries");
        }
        let final_loss = report
            .steps
            .iter()
            .rev()
            .map(|s| s.loss)
            .find(|l| l.is_finite())
            .expect("at least one finite-loss step");
        assert!(final_loss.is_finite());
        for p in model.parameters() {
            assert!(
                !p.value().has_non_finite(),
                "weights poisoned after recovery"
            );
        }
    }
}
