//! Train-while-serving: crash-isolated background fine-tuning with
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
//! - **Accumulate** — ratings accepted by
//!   [`ServeEngine::insert_rating`] are pulled through a cursor; every
//!   `holdout_every`-th rating is diverted into a held-out slice (never
//!   trained on), the rest become fine-tuning seed edges.
//! - **Fine-tune** — a fresh [`HireModel`] is warm-started from the
//!   incumbent's frozen weights and fine-tuned on the new edges with
//!   [`hire_core::fine_tune`]: the full guard stack (divergence rollback,
//!   LR backoff, durable snapshots under the `ckpt` lineage) applies. The
//!   whole step runs under `catch_unwind` — a panicking or diverging
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
//! - **Demote** — [`OnlineLoop::maybe_demote`] watches the per-version
//!   tier stats and re-installs the previous model (under a new version)
//!   when the freshly promoted one degrades to fallback answers markedly
//!   more often than its predecessor did.
//!
//! Chaos sites: [`sites::TRAINER_STEP`] (inside the guarded trainer
//! block), [`sites::SHADOW_EVAL`] (inside the guarded eval block) and
//! [`sites::ONLINE_SWAP`] (inside [`ServeEngine::prepare_install`]).

use crate::engine::{context_seed, ColdScenario, ServeEngine, SlotSource};
use crate::frozen::FrozenModel;
use crate::server::ModelVersion;
use hire_chaos::{sites, FaultPlan};
use hire_ckpt::{CheckpointStore, GuardSnapshot, OptimizerSnapshot, TrainSnapshot};
use hire_core::{fine_tune, GuardConfig, HireModel, TrainConfig, TrainOutcome};
use hire_graph::{NeighborhoodSampler, Rating};
use hire_wal::WalRecord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Checkpoint lineage tag for promoted candidates.
pub const CANDIDATE_TAG: &str = "candidate";
/// Checkpoint lineage tag for rejected candidates.
pub const REJECTED_TAG: &str = "rejected";

/// Held-out slice capacity; once full, every rating trains.
const HOLDOUT_CAP: usize = 256;

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
    /// Directory for the three checkpoint lineages (`ckpt` = trainer
    /// durability, `candidate` = promoted, `rejected` = rejected with
    /// eval report). `None` disables all durable output.
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshots retained in each lineage pruned by count (`ckpt`,
    /// `rejected`, `serving`). `candidate` files are not counted: each is
    /// kept for as long as the engine's [`crate::Lineage`] names it.
    pub keep_last: usize,
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
            keep_last: 2,
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
    pub fn to_json(&self) -> String {
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
    /// Ratings already pulled from the engine's insert log.
    pub(crate) cursor: usize,
    /// Total ratings routed (drives the every-k-th holdout diversion).
    pub(crate) routed: usize,
    /// Held-out shadow-eval slice (never trained on).
    pub(crate) holdout: Vec<Rating>,
    /// Accumulated training ratings awaiting the next fine-tune.
    pub(crate) pending: Vec<Rating>,
    /// Completed fine-tuning rounds (drives per-round seeds and
    /// checkpoint step numbers).
    pub(crate) round: u64,
    /// Round outcomes, oldest first (for benches and tests).
    pub(crate) history: Vec<RoundOutcome>,
    /// Arrival indices (0-based, in insert order) ever diverted to the
    /// holdout slice. Mirrors the WAL's `HoldoutMark` records; serialized
    /// into serving snapshots so recovery can re-route identically.
    pub(crate) marked: BTreeSet<usize>,
    /// Ratings with arrival index below this were already routed before a
    /// crash: recovery re-routes them by `marked` membership instead of the
    /// every-k cadence, so the rebuilt holdout matches the one the live
    /// loop had (a rating never silently migrates between the trained pool
    /// and the never-trained slice).
    pub(crate) pre_count: usize,
}

/// Poison recovery, mirroring the engine: state updates are plain data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The background fine-tuning loop over one serving engine.
///
/// [`OnlineLoop::run_round`] is the whole state machine, synchronous and
/// deterministic per `(config.seed, round)` — tests drive it directly;
/// production wraps it in an [`OnlineTrainer`] thread. A round holds the
/// loop's own state lock for its duration (rounds never overlap) but
/// takes no engine lock across the fine-tune, so serving never blocks on
/// training.
pub struct OnlineLoop {
    engine: Arc<ServeEngine>,
    config: OnlineConfig,
    faults: Option<Arc<FaultPlan>>,
    state: Mutex<LoopState>,
}

impl OnlineLoop {
    /// Builds a loop over `engine`.
    pub fn new(engine: Arc<ServeEngine>, config: OnlineConfig) -> Self {
        OnlineLoop {
            engine,
            config,
            faults: None,
            state: Mutex::new(LoopState {
                cursor: 0,
                routed: 0,
                holdout: Vec::new(),
                pending: Vec::new(),
                round: 0,
                history: Vec::new(),
                marked: BTreeSet::new(),
                pre_count: 0,
            }),
        }
    }

    /// Rebuilds a loop from recovered durable state (see `crate::durable`):
    /// `cursor`/`round` from the newest snapshot barrier, `marked` from the
    /// union of snapshot marks and replayed `HoldoutMark` records, and
    /// `ratings` the full replayed insert log. Ratings the crashed loop had
    /// already consumed (below `cursor`) are re-split into holdout/trained
    /// by their marks; the rest are re-routed by the first `run_round`,
    /// diverting exactly the marked ones.
    pub fn recovered(
        engine: Arc<ServeEngine>,
        config: OnlineConfig,
        cursor: usize,
        round: u64,
        marked: BTreeSet<usize>,
        ratings: &[Rating],
    ) -> Self {
        let holdout: Vec<Rating> = marked
            .iter()
            .filter(|&&idx| idx < cursor)
            .filter_map(|&idx| ratings.get(idx).copied())
            .collect();
        OnlineLoop {
            engine,
            config,
            faults: None,
            state: Mutex::new(LoopState {
                cursor,
                routed: cursor,
                holdout,
                pending: Vec::new(),
                round,
                history: Vec::new(),
                marked,
                pre_count: ratings.len(),
            }),
        }
    }

    /// Snapshot of the durable routing state, captured under the state
    /// lock: `(cursor, round, marked)`. Used by `crate::durable` while
    /// writing a serving snapshot.
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

    /// The engine this loop feeds.
    pub fn engine(&self) -> &Arc<ServeEngine> {
        &self.engine
    }

    /// The loop configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// Round outcomes so far, oldest first.
    pub fn history(&self) -> Vec<RoundOutcome> {
        lock(&self.state).history.clone()
    }

    /// Current held-out slice size (for observability).
    pub fn holdout_len(&self) -> usize {
        lock(&self.state).holdout.len()
    }

    /// One pass of the state machine: pull new ratings, maybe fine-tune,
    /// shadow-eval, and swap or reject. Returns what happened; the same
    /// outcome is appended to [`OnlineLoop::history`].
    pub fn run_round(&self) -> RoundOutcome {
        let mut state = lock(&self.state);
        let outcome = self.run_round_locked(&mut state);
        state.history.push(outcome.clone());
        outcome
    }

    fn run_round_locked(&self, state: &mut LoopState) -> RoundOutcome {
        // Pull and route everything inserted since the last round.
        let (fresh, cursor) = self.engine.inserted_since(state.cursor);
        state.cursor = cursor;
        for rating in fresh {
            let idx = state.routed;
            state.routed += 1;
            // Ratings that were already routed before a recovery follow
            // their durable marks, not the cadence: the rebuilt holdout must
            // equal the pre-crash one exactly.
            if idx < state.pre_count {
                if state.marked.contains(&idx) {
                    state.holdout.push(rating);
                } else {
                    state.pending.push(rating);
                }
                continue;
            }
            let divert = self.config.holdout_every > 0
                && state.routed.is_multiple_of(self.config.holdout_every)
                && state.holdout.len() < HOLDOUT_CAP;
            if divert {
                // Durably mark the diversion *before* it takes effect: a
                // crash may forget an unmarked diversion, and a rating that
                // silently moved from the never-trained slice into training
                // would skew every future shadow eval. If the mark cannot be
                // made durable, the rating trains instead — safe, because
                // recovery routes unmarked ratings to the trained pool too.
                if let Some(wal) = self.engine.wal() {
                    if wal
                        .append_durable(&WalRecord::HoldoutMark { index: idx as u64 })
                        .is_err()
                    {
                        state.pending.push(rating);
                        continue;
                    }
                }
                state.marked.insert(idx);
                state.holdout.push(rating);
            } else {
                state.pending.push(rating);
            }
        }
        if state.pending.len() < self.config.min_new_ratings.max(1) {
            return RoundOutcome::Accumulating {
                pending: state.pending.len(),
            };
        }

        state.round += 1;
        let round = state.round;
        let incumbent = self.engine.current_model();
        let dataset = self.engine.dataset().clone();
        let graph = self.engine.graph_snapshot();
        let pending = state.pending.clone();
        let holdout = state.holdout.clone();

        // ── Fine-tune (crash-isolated) ────────────────────────────────
        // Everything fallible runs inside catch_unwind: a panicking or
        // erroring trainer produces an outcome, never a poisoned engine.
        let trained = catch_unwind(AssertUnwindSafe(|| {
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
                grad_clip: 1.0,
                checkpoint_dir: self.config.checkpoint_dir.clone(),
                checkpoint_every_secs: 0.0,
                checkpoint_keep_last: self.config.keep_last,
                resume: false,
                halt_after_steps: None,
            };
            let report = fine_tune(
                &model,
                &dataset,
                &graph,
                &NeighborhoodSampler,
                &pending,
                &tc,
                &GuardConfig::default(),
                &mut rng,
            )?;
            let frozen = FrozenModel::from_model(&model, &dataset)?;
            Ok::<_, hire_error::HireError>((frozen, report.outcome))
        }));
        let (candidate, train_outcome) = match trained {
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
                &holdout,
            )
        }));
        let eval = match evaled {
            Ok(Ok(eval)) => eval,
            Ok(Err(_)) | Err(_) => return RoundOutcome::EvalFailed,
        };

        if !eval.promoted() {
            self.checkpoint(REJECTED_TAG, round, &candidate, &eval);
            state.pending.clear();
            self.round_barrier(state.cursor, round);
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
            Ok(version) => {
                state.pending.clear();
                self.round_barrier(state.cursor, round);
                RoundOutcome::Promoted { version, eval }
            }
            Err(_) => RoundOutcome::SwapFailed,
        }
    }

    /// Best-effort durable progress mark after a completed round: records
    /// the loop's cursor and round number so recovery resumes routing where
    /// the crashed loop left off instead of re-training old ratings.
    /// `covered: None` — this barrier advances the loop cursor only; log
    /// truncation needs a full serving snapshot (`crate::durable`).
    fn round_barrier(&self, cursor: usize, round: u64) {
        if let Some(wal) = self.engine.wal() {
            let _ = wal.append_durable(&WalRecord::SnapshotBarrier {
                covered: None,
                cursor: cursor as u64,
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
            let inc_pred = incumbent.forward_nograd(&ctx, dataset)?.at(&[row, col]);
            let cand_pred = candidate.forward_nograd(&ctx, dataset)?.at(&[row, col]);
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
    /// `keep_last` files. `candidate` keeps the files the engine's
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
        let keep_last = if by_reference {
            usize::MAX
        } else {
            self.config.keep_last
        };
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
        let rate_of = |version: ModelVersion| {
            stats.iter().find(|(v, _)| *v == version).map(|(_, s)| {
                let total = s.model + s.hybrid + s.cache + s.fallback;
                (
                    total,
                    if total == 0 {
                        0.0
                    } else {
                        s.fallback as f64 / total as f64
                    },
                )
            })
        };
        let (current_total, current_rate) = rate_of(current)?;
        if current_total < self.config.demote_min_answers {
            return None;
        }
        // The previous version is the newest one below the current (the
        // engine's history holds its weights).
        let previous_rate = stats.iter().rfind(|(v, _)| *v < current).map(|(_, s)| {
            let total = s.model + s.hybrid + s.cache + s.fallback;
            if total == 0 {
                0.0
            } else {
                s.fallback as f64 / total as f64
            }
        })?;
        if current_rate > previous_rate + self.config.demote_fallback_margin {
            return self.engine.demote().ok().flatten();
        }
        None
    }
}

/// A background thread driving an [`OnlineLoop`] on a fixed cadence —
/// the production shape of train-while-serving. Every round runs under
/// its own `catch_unwind`, so even a bug in the loop plumbing (not just
/// the trainer) cannot take the process down with it.
pub struct OnlineTrainer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    shared: Arc<OnlineLoop>,
}

impl OnlineTrainer {
    /// Spawns the trainer thread, running a round (plus the demotion
    /// watchdog) every `interval`.
    pub fn spawn(online: Arc<OnlineLoop>, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = stop.clone();
        let thread_loop = online.clone();
        let handle = std::thread::Builder::new()
            .name("hire-online-trainer".into())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    let _ = catch_unwind(AssertUnwindSafe(|| {
                        thread_loop.run_round();
                        thread_loop.maybe_demote();
                    }));
                    // Sleep in small slices so stop() returns promptly.
                    let mut remaining = interval;
                    while !thread_stop.load(Ordering::Relaxed) && remaining > Duration::ZERO {
                        let slice = remaining.min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("spawn online trainer thread");
        OnlineTrainer {
            stop,
            handle: Some(handle),
            shared: online,
        }
    }

    /// The loop this trainer drives.
    pub fn online(&self) -> &Arc<OnlineLoop> {
        &self.shared
    }

    /// Signals the thread to stop and joins it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OnlineTrainer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}
