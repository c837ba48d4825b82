//! Train-while-serving: crash-isolated fine-tuning rounds with
//! shadow-eval-gated, versioned hot model swaps (see `DESIGN.md` §12).
//!
//! The online loop turns the serving engine's rating feed into candidate
//! models without ever endangering the serving path:
//!
//! ```text
//! accumulate ──► fine-tune ──► shadow-eval ──► swap        (promoted)
//!     ▲              │              │      └──► reject     (checkpointed)
//!     │              │              │
//!     └── crash / divergence / eval failure: pending kept, ─┘
//!         incumbent untouched, next round retries
//! ```
//!
//! The loop keeps two numbers: `trained`, the insert-log index the last
//! completed (promoted or rejected) round trained through, and `round`,
//! the rounds that got past accumulating. Everything else is derived.
//!
//! - **Accumulate** — each round reads the engine's whole insert log
//!   ([`ServeEngine::insert_rating`]'s ratings, in arrival order) and splits
//!   it by arrival index: every `holdout_every`-th rating (up to a cap) is
//!   held out (never trained on); the rest at or past `trained` are pending
//!   fine-tuning seed edges. A failed round leaves `trained` where it was,
//!   so its ratings stay pending. Recovery replays the insert log and
//!   restores the two numbers, so the recovered loop splits it identically.
//! - **Fine-tune** — a fresh [`HireModel`] is warm-started from the
//!   incumbent's frozen weights and fine-tuned on the new edges with
//!   [`hire_core::fine_tune`]: the guard (divergence rollback, LR backoff)
//!   applies; nothing of the round's training state is written to disk.
//!   The whole step runs under `catch_unwind` — a panicking or diverging
//!   trainer loses nothing and never touches serving.
//! - **Shadow-eval** — candidate and incumbent are scored on the held-out
//!   slice using the engine's own deterministic per-query contexts,
//!   overall and per [`ColdScenario`]. Promotion requires no regression
//!   (within `regression_tolerance`) overall **and** on every cold
//!   scenario with enough samples.
//! - **Swap / reject** — the candidate is checkpointed under the
//!   `candidate` lineage, then promoted by an atomic versioned swap
//!   ([`ServeEngine::install_model`], naming that checkpoint as the
//!   weights' reload source); rejected candidates are
//!   checkpointed under the `rejected` lineage together with their eval
//!   report, so a rejection is auditable, not silent.
//! - **Barrier** — every round that moved the counter, whatever its
//!   outcome, ends by logging `trained` and `round` in one best-effort
//!   `SnapshotBarrier` (WAL-attached engines), so a recovery from the log
//!   alone resumes at the crashed loop's next round number.
//! - **Demote** — [`OnlineLoop::maybe_demote`] watches the per-version
//!   tier stats and re-installs the previous model (under a new version)
//!   when the freshly promoted one degrades to fallback answers markedly
//!   more often than its predecessor did.
//!
//! Chaos sites: [`sites::TRAINER_STEP`] (inside the guarded trainer
//! block), [`sites::SHADOW_EVAL`] (inside the guarded eval block) and
//! [`sites::ONLINE_SWAP`] (inside [`ServeEngine::install_model`] and
//! [`ServeEngine::demote`]).

use crate::engine::{ColdScenario, ServeEngine, SlotSource, TierStats};
use crate::server::ModelVersion;
use hire_chaos::{sites, FaultPlan};
use hire_ckpt::{CheckpointStore, GuardSnapshot, OptimizerSnapshot, TrainSnapshot};
use hire_core::FrozenModel;
use hire_core::{fine_tune, HireModel, TrainConfig, TrainOutcome};
use hire_data::context_seed;
use hire_graph::{NeighborhoodSampler, Rating};
use hire_wal::WalRecord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

/// Checkpoint lineage tag for promoted candidates.
pub const CANDIDATE_TAG: &str = "candidate";
/// Checkpoint lineage tag for rejected candidates.
pub const REJECTED_TAG: &str = "rejected";

/// Held-out slice capacity; once full, every rating trains.
const HOLDOUT_CAP: usize = 256;

/// Snapshots retained in each lineage pruned by count (`rejected`, and
/// `serving` in [`crate::write_snapshot`]). `candidate` files are not
/// counted: each is kept for as long as the engine's [`crate::Lineage`]
/// names it.
pub(crate) const KEEP_LAST: usize = 2;

/// Whether the `idx`-th serve-time rating (0-based, in arrival order) is
/// held out: every `every`-th one, the first [`HOLDOUT_CAP`] of them. A
/// pure function of the arrival index, so the live loop and recovery split
/// the insert log identically and the split needs no durable record.
fn held_out(idx: usize, every: usize) -> bool {
    every > 0 && (idx + 1).is_multiple_of(every) && (idx + 1) / every <= HOLDOUT_CAP
}

/// Settings for the online fine-tuning loop.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// A round only fine-tunes once at least this many new training
    /// ratings (holdout diversions excluded) have accumulated.
    pub min_new_ratings: usize,
    /// Optimization steps per fine-tuning round.
    pub fine_tune_steps: usize,
    /// Contexts per fine-tuning mini-batch.
    pub batch_size: usize,
    /// Fine-tuning learning rate (typically well below the from-scratch
    /// rate — the model starts at the incumbent's weights).
    pub base_lr: f32,
    /// Every `holdout_every`-th inserted rating is diverted to the
    /// held-out shadow-eval slice instead of the training pool.
    /// 0 disables the diversion (promotion then always rejects, since the
    /// gate refuses to promote without evidence).
    pub holdout_every: usize,
    /// Allowed relative MAE slack: the candidate passes a gate when its
    /// MAE is at most `incumbent * (1 + regression_tolerance)`.
    pub regression_tolerance: f32,
    /// A cold scenario participates in the gate only with at least this
    /// many held-out samples (tiny slices are noise, not evidence).
    pub min_scenario_samples: usize,
    /// Directory for the checkpoint lineages (`candidate` = promoted,
    /// `rejected` = rejected with eval report, `serving` = whole-state
    /// snapshots written by [`crate::write_snapshot`]). `None` disables
    /// all durable output.
    pub checkpoint_dir: Option<PathBuf>,
    /// Base seed for per-round fine-tuning RNG streams.
    pub seed: u64,
    /// `maybe_demote` triggers when the current version's fallback rate
    /// exceeds the previous version's by more than this margin.
    pub demote_fallback_margin: f64,
    /// `maybe_demote` needs at least this many answers attributed to the
    /// current version before judging it.
    pub demote_min_answers: u64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            min_new_ratings: 16,
            fine_tune_steps: 30,
            batch_size: 4,
            base_lr: 3e-4,
            holdout_every: 4,
            regression_tolerance: 0.05,
            min_scenario_samples: 3,
            checkpoint_dir: None,
            seed: 0x0511_11E5,
            demote_fallback_margin: 0.2,
            demote_min_answers: 20,
        }
    }
}

/// Per-scenario shadow-eval result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioEval {
    /// The cold-start scenario this row scores.
    pub scenario: ColdScenario,
    /// Held-out samples in this scenario.
    pub samples: usize,
    /// Incumbent mean absolute error over those samples.
    pub incumbent_mae: f32,
    /// Candidate mean absolute error over those samples.
    pub candidate_mae: f32,
}

/// The shadow-eval verdict for one candidate, kept (and written next to
/// rejected checkpoints) whether or not the candidate was promoted.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// 1-based fine-tuning round that produced the candidate.
    pub round: u64,
    /// Version of the incumbent the candidate was scored against.
    pub incumbent_version: ModelVersion,
    /// Held-out ratings scored.
    pub holdout_size: usize,
    /// Incumbent MAE over the whole slice.
    pub incumbent_mae: f32,
    /// Candidate MAE over the whole slice.
    pub candidate_mae: f32,
    /// Per-scenario breakdown (scenarios with zero samples omitted).
    pub scenarios: Vec<ScenarioEval>,
    /// Which gates the candidate failed; empty means promoted.
    pub failed_gates: Vec<String>,
}

impl EvalReport {
    /// Whether every promotion gate passed.
    pub fn promoted(&self) -> bool {
        self.failed_gates.is_empty()
    }

    /// Hand-rolled JSON rendering (this crate deliberately has no serde
    /// dependency), written next to rejected checkpoints.
    pub(crate) fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\n");
        s.push_str(&format!("  \"round\": {},\n", self.round));
        s.push_str(&format!(
            "  \"incumbent_version\": {},\n",
            self.incumbent_version
        ));
        s.push_str(&format!("  \"holdout_size\": {},\n", self.holdout_size));
        s.push_str(&format!("  \"incumbent_mae\": {},\n", self.incumbent_mae));
        s.push_str(&format!("  \"candidate_mae\": {},\n", self.candidate_mae));
        s.push_str("  \"scenarios\": {");
        for (i, sc) in self.scenarios.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    \"{}\": {{\"samples\": {}, \"incumbent_mae\": {}, \"candidate_mae\": {}}}",
                sc.scenario.label(),
                sc.samples,
                sc.incumbent_mae,
                sc.candidate_mae
            ));
        }
        s.push_str("\n  },\n");
        s.push_str(&format!("  \"promoted\": {},\n", self.promoted()));
        s.push_str("  \"failed_gates\": [");
        for (i, g) in self.failed_gates.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("\"{}\"", g.replace('"', "'")));
        }
        s.push_str("]\n}\n");
        s
    }
}

/// What one [`OnlineLoop::run_round`] call did. `PartialEq` (including
/// the embedded eval reports) backs the per-seed deterministic-replay
/// chaos tests: two runs under one seed must produce equal histories.
#[derive(Debug, Clone, PartialEq)]
pub enum RoundOutcome {
    /// Not enough new training ratings yet; nothing was trained.
    Accumulating {
        /// Training ratings accumulated so far.
        pending: usize,
    },
    /// The candidate passed every gate and was installed.
    Promoted {
        /// The version the candidate now serves as.
        version: ModelVersion,
        /// The gate evidence.
        eval: EvalReport,
    },
    /// The candidate failed a gate; the incumbent keeps serving. The
    /// candidate weights and eval report were checkpointed under the
    /// `rejected` lineage (when a checkpoint dir is configured).
    Rejected {
        /// The gate evidence, including which gates failed.
        eval: EvalReport,
    },
    /// The trainer panicked or failed with a typed error. Serving is
    /// untouched; the pending ratings are retained for the next round.
    TrainerCrashed,
    /// The numerical guard exhausted its recovery budget
    /// ([`TrainOutcome::Aborted`]). Serving is untouched; pending
    /// ratings are retained.
    TrainerDiverged,
    /// Shadow eval panicked or failed; without a verdict the candidate
    /// is discarded and pending ratings are retained.
    EvalFailed,
    /// The candidate passed the gates but the swap itself failed (e.g. an
    /// injected `online.swap` fault). Incumbent keeps serving; pending
    /// ratings are retained so the next round re-trains.
    SwapFailed,
}

pub(crate) struct LoopState {
    /// Insert-log index the last completed round trained through: the
    /// ratings at or past it that are not held out are pending.
    pub(crate) trained: usize,
    /// Rounds that got past accumulating (drives per-round seeds and
    /// checkpoint step numbers).
    pub(crate) round: u64,
    /// Round outcomes, oldest first (for benches and tests).
    pub(crate) history: Vec<RoundOutcome>,
}

/// Splits the insert log by arrival index into the held-out slice and the
/// ratings at or past `trained` that no completed round has trained on.
fn split(log: &[Rating], trained: usize, every: usize) -> (Vec<Rating>, Vec<Rating>) {
    let (mut holdout, mut pending) = (Vec::new(), Vec::new());
    for (idx, rating) in log.iter().enumerate() {
        if held_out(idx, every) {
            holdout.push(*rating);
        } else if idx >= trained {
            pending.push(*rating);
        }
    }
    (holdout, pending)
}

/// Poison recovery, mirroring the engine: state updates are plain data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The fine-tuning loop over one serving engine.
///
/// [`OnlineLoop::run_round`] is the whole state machine, synchronous and
/// deterministic per `(config.seed, round)`; the caller drives it (and
/// [`OnlineLoop::maybe_demote`]) on whatever cadence it serves at. A round
/// holds the loop's own state lock for its duration (rounds never overlap)
/// but takes no engine lock across the fine-tune, so serving never blocks
/// on training.
pub struct OnlineLoop {
    engine: Arc<ServeEngine>,
    config: OnlineConfig,
    faults: Option<Arc<FaultPlan>>,
    state: Mutex<LoopState>,
}

impl OnlineLoop {
    /// Builds a loop over `engine`.
    pub fn new(engine: Arc<ServeEngine>, config: OnlineConfig) -> Self {
        Self::recovered(engine, config, 0, 0)
    }

    /// Rebuilds a loop from recovered durable state (see `crate::durable`):
    /// `trained` and `round` from the newest round barrier or snapshot. The
    /// first `run_round` splits the replayed insert log as the crashed loop
    /// would have.
    pub(crate) fn recovered(
        engine: Arc<ServeEngine>,
        config: OnlineConfig,
        trained: usize,
        round: u64,
    ) -> Self {
        OnlineLoop {
            engine,
            config,
            faults: None,
            state: Mutex::new(LoopState {
                trained,
                round,
                history: Vec::new(),
            }),
        }
    }

    /// The loop's state, locked: `crate::durable` reads `trained` and
    /// `round` from it while writing a serving snapshot.
    pub(crate) fn freeze_state(&self) -> MutexGuard<'_, LoopState> {
        lock(&self.state)
    }

    /// Installs a chaos [`FaultPlan`] on the loop's fault sites
    /// (`trainer.step`, `online.shadow_eval`; `online.swap` fires inside
    /// the engine, so install the plan there too).
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// The loop configuration.
    pub(crate) fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Round outcomes so far, oldest first.
    pub fn history(&self) -> Vec<RoundOutcome> {
        lock(&self.state).history.clone()
    }

    /// Held-out ratings in the engine's insert log: the shadow-eval slice
    /// the next round scores on (for observability).
    pub fn holdout_len(&self) -> usize {
        // A cursor past the end copies nothing and still reads the length.
        let (_, len) = self.engine.inserted_since(usize::MAX);
        (0..len)
            .filter(|&idx| held_out(idx, self.config.holdout_every))
            .count()
    }

    /// One pass of the state machine: split the insert log, maybe
    /// fine-tune, shadow-eval, and swap or reject. Returns what happened; the same
    /// outcome is appended to [`OnlineLoop::history`].
    pub fn run_round(&self) -> RoundOutcome {
        let mut state = lock(&self.state);
        let outcome = self.run_round_locked(&mut state);
        state.history.push(outcome.clone());
        outcome
    }

    fn run_round_locked(&self, state: &mut LoopState) -> RoundOutcome {
        let (log, len) = self.engine.inserted_since(0);
        let (holdout, pending) = split(&log, state.trained, self.config.holdout_every);
        if pending.len() < self.config.min_new_ratings.max(1) {
            return RoundOutcome::Accumulating {
                pending: pending.len(),
            };
        }
        state.round += 1;
        let outcome = self.train_eval_swap(state.round, &holdout, &pending);
        if matches!(
            outcome,
            RoundOutcome::Promoted { .. } | RoundOutcome::Rejected { .. }
        ) {
            state.trained = len;
        }
        self.round_barrier(state.trained, state.round);
        outcome
    }

    /// The round proper: fine-tune on `pending`, shadow-eval on `holdout`,
    /// then swap or reject.
    fn train_eval_swap(&self, round: u64, holdout: &[Rating], pending: &[Rating]) -> RoundOutcome {
        let incumbent = self.engine.current_model();
        let dataset = self.engine.dataset().clone();
        let graph = self.engine.graph_snapshot();

        // ── Fine-tune (crash-isolated) ────────────────────────────────
        // Everything fallible runs inside catch_unwind: a panicking or
        // erroring trainer produces an outcome, never a poisoned engine.
        let fitted = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &self.faults {
                plan.fire(sites::TRAINER_STEP).map_err(|f| {
                    hire_error::HireError::invalid_data("OnlineLoop", f.to_string())
                })?;
            }
            let mut rng =
                StdRng::seed_from_u64(context_seed(self.config.seed, round as usize, 0x7F1E));
            let model = HireModel::new(&dataset, incumbent.model().config(), &mut rng);
            model.load_parameters(&incumbent.model().parameters())?;
            let tc = TrainConfig {
                steps: self.config.fine_tune_steps,
                batch_size: self.config.batch_size,
                base_lr: self.config.base_lr,
                ..TrainConfig::paper_default()
            };
            let report = fine_tune(
                &model,
                &dataset,
                &graph,
                &NeighborhoodSampler,
                pending,
                &tc,
                &mut rng,
            )?;
            let frozen = FrozenModel::from_model(&model, &dataset)?;
            Ok::<_, hire_error::HireError>((frozen, report.outcome))
        }));
        let (candidate, train_outcome) = match fitted {
            Ok(Ok(pair)) => pair,
            Ok(Err(_)) => return RoundOutcome::TrainerCrashed,
            Err(_panic) => return RoundOutcome::TrainerCrashed,
        };
        if matches!(train_outcome, TrainOutcome::Aborted { .. }) {
            return RoundOutcome::TrainerDiverged;
        }

        // ── Shadow eval (crash-isolated) ──────────────────────────────
        let evaled = catch_unwind(AssertUnwindSafe(|| {
            if let Some(plan) = &self.faults {
                plan.fire(sites::SHADOW_EVAL).map_err(|f| {
                    hire_error::HireError::invalid_data("OnlineLoop", f.to_string())
                })?;
            }
            self.shadow_eval(
                round,
                incumbent.version(),
                incumbent.model(),
                &candidate,
                holdout,
            )
        }));
        let eval = match evaled {
            Ok(Ok(eval)) => eval,
            Ok(Err(_)) | Err(_) => return RoundOutcome::EvalFailed,
        };

        if !eval.promoted() {
            self.checkpoint(REJECTED_TAG, round, &candidate, &eval);
            return RoundOutcome::Rejected { eval };
        }

        // ── Swap ──────────────────────────────────────────────────────
        // The candidate's weights are checkpointed *before* the install:
        // on a WAL-attached engine recovery reloads them from the
        // `candidate` lineage by (tag, round), so the engine refuses a
        // candidate whose checkpoint did not land — the incumbent keeps
        // serving and the next round retries. Without a WAL the checkpoint
        // is best-effort and the in-memory install is the source of truth.
        let source = if self.checkpoint(CANDIDATE_TAG, round, &candidate, &eval) {
            SlotSource::Checkpoint {
                tag: CANDIDATE_TAG.to_string(),
                steps: round,
            }
        } else {
            SlotSource::Unsaved
        };
        match self.engine.install_model(candidate, source) {
            Ok(version) => RoundOutcome::Promoted { version, eval },
            Err(_) => RoundOutcome::SwapFailed,
        }
    }

    /// Best-effort durable progress mark after every round that moved the
    /// counter: records `trained` and the round number, so recovery resumes
    /// with the crashed loop's pending ratings and next round number.
    /// `covered: None` — log truncation needs a full serving snapshot
    /// (`crate::durable`).
    fn round_barrier(&self, trained: usize, round: u64) {
        if let Some(wal) = self.engine.wal() {
            let _ = wal.append_durable(&WalRecord::SnapshotBarrier {
                covered: None,
                cursor: trained as u64,
                round,
            });
        }
    }

    /// Scores `incumbent` and `candidate` on the held-out slice, using
    /// the engine's own deterministic per-query contexts (so the eval
    /// measures exactly what serving would see). Samples whose context
    /// cannot place the query cell are skipped; an empty or fully skipped
    /// slice fails the overall gate — no evidence, no promotion.
    fn shadow_eval(
        &self,
        round: u64,
        incumbent_version: ModelVersion,
        incumbent: &FrozenModel,
        candidate: &FrozenModel,
        holdout: &[Rating],
    ) -> Result<EvalReport, hire_error::HireError> {
        use crate::server::RatingQuery;
        let dataset = self.engine.dataset();
        let mut per_scenario: Vec<(usize, f64, f64)> = vec![(0, 0.0, 0.0); ColdScenario::ALL.len()];
        let mut samples = 0usize;
        let (mut inc_abs, mut cand_abs) = (0.0f64, 0.0f64);
        for rating in holdout {
            let query = RatingQuery {
                user: rating.user,
                item: rating.item,
            };
            let ctx = match self.engine.context_for(&query) {
                Ok(ctx) => ctx,
                Err(_) => continue,
            };
            let (Some(row), Some(col)) = (ctx.user_row(rating.user), ctx.item_col(rating.item))
            else {
                continue;
            };
            let cell = [(row, col)];
            let inc_pred = incumbent.forward_cells(&ctx, dataset, &cell)?[0];
            let cand_pred = candidate.forward_cells(&ctx, dataset, &cell)?[0];
            let (ie, ce) = (
                (inc_pred - rating.value).abs() as f64,
                (cand_pred - rating.value).abs() as f64,
            );
            samples += 1;
            inc_abs += ie;
            cand_abs += ce;
            let scenario = self.engine.scenario_of(rating.user, rating.item);
            let slot = ColdScenario::ALL
                .iter()
                .position(|&s| s == scenario)
                .expect("scenario in ALL");
            per_scenario[slot].0 += 1;
            per_scenario[slot].1 += ie;
            per_scenario[slot].2 += ce;
        }

        let mae = |abs: f64, n: usize| if n == 0 { 0.0 } else { (abs / n as f64) as f32 };
        let tolerance = 1.0 + self.config.regression_tolerance.max(0.0);
        let mut failed = Vec::new();
        let (incumbent_mae, candidate_mae) = (mae(inc_abs, samples), mae(cand_abs, samples));
        if samples == 0 {
            failed.push("no held-out samples: refusing to promote without evidence".to_string());
        } else if candidate_mae > incumbent_mae * tolerance {
            failed.push(format!(
                "overall MAE regressed: {candidate_mae} vs incumbent {incumbent_mae}"
            ));
        }
        let mut scenarios = Vec::new();
        for (slot, &(n, ia, ca)) in per_scenario.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let scenario = ColdScenario::ALL[slot];
            let (inc_s, cand_s) = (mae(ia, n), mae(ca, n));
            scenarios.push(ScenarioEval {
                scenario,
                samples: n,
                incumbent_mae: inc_s,
                candidate_mae: cand_s,
            });
            // The paper's whole point is cold-start quality: a candidate
            // that wins overall but regresses a cold scenario is rejected.
            if scenario.is_cold()
                && n >= self.config.min_scenario_samples
                && cand_s > inc_s * tolerance
            {
                failed.push(format!(
                    "{} MAE regressed: {cand_s} vs incumbent {inc_s} ({n} samples)",
                    scenario.label()
                ));
            }
        }
        Ok(EvalReport {
            round,
            incumbent_version,
            holdout_size: holdout.len(),
            incumbent_mae,
            candidate_mae,
            scenarios,
            failed_gates: failed,
        })
    }

    /// Durable record of a candidate: weights under the given lineage tag
    /// plus the eval report as JSON next to it. Returns whether the weight
    /// snapshot actually landed on disk — recovery reloads a promoted
    /// candidate's weights from this very snapshot.
    ///
    /// Retention differs by lineage. `rejected` keeps its newest
    /// [`KEEP_LAST`] files. `candidate` keeps the files the engine's
    /// [`crate::Lineage`] names — a demotion makes an *old* candidate the
    /// incumbent again, so any count-based rule can delete weights that are
    /// being served, and with them the engine's recoverability — plus the
    /// one just written, which the lineage names once the install commits.
    fn checkpoint(&self, tag: &str, round: u64, model: &FrozenModel, eval: &EvalReport) -> bool {
        let Some(dir) = &self.config.checkpoint_dir else {
            return false;
        };
        let snapshot = TrainSnapshot {
            completed_steps: round,
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
        let by_reference = tag == CANDIDATE_TAG;
        let keep_last = if by_reference { usize::MAX } else { KEEP_LAST };
        let saved = CheckpointStore::open_tagged(dir, tag, keep_last)
            .and_then(|store| {
                store.save(&snapshot)?;
                if by_reference {
                    let lineage = self.engine.lineage();
                    let named: Vec<u64> = lineage
                        .history
                        .iter()
                        .chain([&lineage.current])
                        .filter_map(|(source, _)| match source {
                            SlotSource::Checkpoint { tag: t, steps } if t == tag => Some(*steps),
                            _ => None,
                        })
                        .collect();
                    let _ = store.retain(|steps| steps == round || named.contains(&steps));
                }
                Ok(())
            })
            .is_ok();
        let _ = std::fs::write(
            dir.join(format!("{tag}-{round:012}.eval.json")),
            eval.to_json(),
        );
        saved
    }

    /// Demotion watchdog: if the current version's fallback rate exceeds
    /// the previous version's by more than `demote_fallback_margin` (with
    /// at least `demote_min_answers` answers attributed to the current
    /// version), the previous model is re-installed under a new version.
    /// Returns the new version when a demotion happened.
    pub fn maybe_demote(&self) -> Option<ModelVersion> {
        let stats = self.engine.version_stats();
        let current = self.engine.version();
        let (current_total, current_rate) = stats
            .iter()
            .find(|(v, _)| *v == current)
            .map(|(_, s)| fallback_rate(s))?;
        if current_total < self.config.demote_min_answers {
            return None;
        }
        // The previous version is the newest one below the current (the
        // engine's history holds its weights).
        let (_, previous_rate) = stats
            .iter()
            .rfind(|(v, _)| *v < current)
            .map(|(_, s)| fallback_rate(s))?;
        if current_rate > previous_rate + self.config.demote_fallback_margin {
            return self.engine.demote().ok().flatten();
        }
        None
    }
}

/// A version's answers and the share of them the fallback rung gave: the
/// demotion watchdog's one reading of its tier counters.
fn fallback_rate(s: &TierStats) -> (u64, f64) {
    let total = s.model + s.hybrid + s.cache + s.fallback;
    let rate = if total == 0 {
        0.0
    } else {
        s.fallback as f64 / total as f64
    };
    (total, rate)
}
