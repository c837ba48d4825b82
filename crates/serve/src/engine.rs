//! The serving engine: frozen model + rating graph + context cache,
//! wrapped in the degradation ladder (see `DESIGN.md` §10).
//!
//! Every query is answered by the best available tier (fidelity order;
//! the cache memo is a fast path that short-circuits the ladder):
//!
//! 1. **Cache** — the exact per-entry prediction memo.
//! 2. **Model** — one fresh frozen forward per batch, guarded by a circuit
//!    breaker. The forward draws no randomness and does no I/O, so a
//!    failure is not retried: the batch degrades. The one model forward
//!    the engine serves.
//! 3. **Hybrid** — a trained bias + content predictor
//!    ([`hire_core::HybridModel`], installed via
//!    [`ServeEngine::with_hybrid`]) that needs no sampled context; answers
//!    when the model tier is unavailable.
//! 4. **Fallback** — graph statistics (user mean → item mean → global
//!    mean over the live serving graph, via `hire_baselines::EntityMean`):
//!    always available, never panics, answers in microseconds.
//!
//! Answers are tagged with the tier that produced them
//! ([`crate::ServedBy`]), so a caller can distinguish a degraded answer
//! from a model answer.
//!
//! Each decision of the walk is written once, as a private function of
//! [`ServeEngine`]: `model_rung` (whether the batch's misses get a forward
//! — the only reader of the deadline budget and the breaker — and its one
//! attempt), `degrade` (the ladder's tail, which always answers), `answer`
//! (the only place an [`Answer`] is built and counted), `guarded` (the
//! only `catch_unwind` and chaos hook) and `apply_rating` (the only graph
//! write). `Rung` states the order.

use crate::breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
use crate::cache::{CacheKey, CacheStats, ContextCache};
use crate::server::{Answer, ModelVersion, Predictor, RatingQuery, ServeError, ServedBy};
use hire_baselines::{EntityMean, RatingModel};
use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_core::{FrozenModel, HybridModel};
use hire_data::{pair_context, Dataset, PredictionContext, PAIR_CONTEXT_SEED};
use hire_error::{HireError, HireResult};
use hire_graph::{BipartiteGraph, EpochSource, EpochedGraph, NeighborhoodSampler, Rating};
use hire_wal::{Wal, WalError, WalRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use std::time::Instant;

/// The sampling strategy tag recorded in cache keys.
const STRATEGY: &str = "neighborhood";

/// An entity with fewer than this many edges in the engine's *base* graph
/// (the graph at construction) is cold for [`ColdScenario`] classification:
/// exactly the entities with no observed ratings — the paper's cold-start
/// case.
const COLD_DEGREE_THRESHOLD: usize = 1;

/// Engine settings (context sampling + cache).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Context row budget `n`.
    pub context_users: usize,
    /// Context column budget `m`.
    pub context_items: usize,
    /// Fraction of visible block edges revealed as input (the paper masks
    /// test contexts to training density; see
    /// [`hire_data::test_context_with_ratio`]).
    pub keep_ratio: f32,
    /// Context-cache capacity; 0 disables caching.
    pub cache_capacity: usize,
    /// Base seed for deterministic per-query context sampling
    /// ([`hire_data::pair_context`]).
    pub seed: u64,
}

impl EngineConfig {
    /// Derives serving settings from a model configuration: same context
    /// budget and input density the model was trained with.
    pub fn from_model_config(config: &hire_core::HireConfig) -> Self {
        EngineConfig {
            context_users: config.context_users,
            context_items: config.context_items,
            keep_ratio: config.input_ratio,
            cache_capacity: 4096,
            seed: PAIR_CONTEXT_SEED,
        }
    }
}

/// Which cold-start scenario a query falls into, classified against the
/// engine's base graph (the serving graph at construction, before any
/// `insert_rating`). The labels follow OpenHGNN's cold-start
/// recommendation flow: `user_cold`, `item_cold`, `user_and_item_cold`,
/// and `warm_up` for queries where both entities have support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ColdScenario {
    /// Both entities have at least one base edge.
    WarmUp,
    /// The user is cold, the item is warm.
    UserCold,
    /// The item is cold, the user is warm.
    ItemCold,
    /// Both entities are cold.
    UserAndItemCold,
}

impl ColdScenario {
    /// Every scenario, in reporting order — declaration order, so a
    /// scenario `as usize` is its index here.
    pub const ALL: [ColdScenario; 4] = [
        ColdScenario::WarmUp,
        ColdScenario::UserCold,
        ColdScenario::ItemCold,
        ColdScenario::UserAndItemCold,
    ];

    /// The scenario's reporting label (OpenHGNN naming).
    pub(crate) fn label(self) -> &'static str {
        match self {
            ColdScenario::WarmUp => "warm_up",
            ColdScenario::UserCold => "user_cold",
            ColdScenario::ItemCold => "item_cold",
            ColdScenario::UserAndItemCold => "user_and_item_cold",
        }
    }

    /// Whether the scenario involves at least one cold entity. The
    /// promotion gate regresses on these individually, not just overall.
    pub fn is_cold(self) -> bool {
        !matches!(self, ColdScenario::WarmUp)
    }

    /// Classifies a query from base-graph degrees.
    pub(crate) fn classify(user_degree: usize, item_degree: usize) -> Self {
        match (
            user_degree < COLD_DEGREE_THRESHOLD,
            item_degree < COLD_DEGREE_THRESHOLD,
        ) {
            (false, false) => ColdScenario::WarmUp,
            (true, false) => ColdScenario::UserCold,
            (false, true) => ColdScenario::ItemCold,
            (true, true) => ColdScenario::UserAndItemCold,
        }
    }
}

/// One installed serving model and its version. Batches pin an
/// `Arc<ModelSlot>` once on entry, so a hot swap mid-batch never mixes
/// weights: every answer of a batch comes from the version it started on.
#[derive(Debug)]
pub struct ModelSlot {
    model: FrozenModel,
    version: ModelVersion,
}

impl ModelSlot {
    /// The frozen weights.
    pub fn model(&self) -> &FrozenModel {
        &self.model
    }

    /// The monotonically increasing version.
    pub(crate) fn version(&self) -> ModelVersion {
        self.version
    }
}

/// Where a slot's weights can be reloaded from after a crash. Every slot
/// of the [`Lineage`] (incumbent and demotion history) names one; serving
/// snapshots persist them and `crate::durable` recovery resolves them back
/// to [`FrozenModel`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotSource {
    /// The construction-time base model. Recovery receives it from the
    /// caller (it is the model serving started from, not a checkpoint).
    Base,
    /// A `hire_ckpt` tagged-lineage snapshot, `{tag}-{steps:012}.hckpt` in
    /// the online loop's checkpoint directory.
    Checkpoint {
        /// The lineage tag (e.g. [`crate::online::CANDIDATE_TAG`]).
        tag: String,
        /// The snapshot's step number within the lineage.
        steps: u64,
    },
    /// The weights exist only in this process. Fine on an engine without a
    /// write-ahead log; a WAL-attached engine refuses to install it and
    /// [`crate::write_snapshot`] refuses to persist it, because no recovery
    /// could reload the slot.
    Unsaved,
}

/// The model lineage: the demotion history (oldest first), the incumbent,
/// and the next version to be handed out — each slot paired with where its
/// weights can be reloaded from. This type owns the only promotion and
/// demotion transitions: the live engine ([`ServeEngine::install_model`],
/// [`ServeEngine::demote`]) and WAL replay ([`crate::durable::LogFold`])
/// both call them, so a recovered lineage equals the live one by
/// construction. Serialized into serving snapshots by `crate::durable`.
#[derive(Debug, Clone, PartialEq)]
pub struct Lineage {
    /// Demotion history, oldest first, at most [`Lineage::HISTORY_CAP`].
    pub history: Vec<(SlotSource, ModelVersion)>,
    /// The serving incumbent.
    pub current: (SlotSource, ModelVersion),
    /// The next version number to allocate (versions never repeat).
    pub next_version: ModelVersion,
}

impl Default for Lineage {
    /// A freshly constructed engine: the base model serving as version 1.
    fn default() -> Self {
        Lineage {
            history: Vec::new(),
            current: (SlotSource::Base, 1),
            next_version: 2,
        }
    }
}

impl Lineage {
    /// Demotion targets kept. Demotion only ever steps back one slot at a
    /// time, and every demotion re-installs under a *new* version.
    pub const HISTORY_CAP: usize = 4;

    /// Makes weights from `source` the incumbent under a fresh version,
    /// which is returned; the displaced incumbent joins the history.
    pub(crate) fn promote(&mut self, source: SlotSource) -> ModelVersion {
        let version = self.next_version;
        self.next_version += 1;
        let displaced = std::mem::replace(&mut self.current, (source, version));
        self.history.push(displaced);
        if self.history.len() > Self::HISTORY_CAP {
            self.history.remove(0);
        }
        version
    }

    /// Makes the newest history slot the incumbent again under a fresh
    /// version, which is returned; the displaced incumbent takes its place
    /// in the history. `None` (nothing changed) on an empty history.
    pub(crate) fn demote(&mut self) -> Option<ModelVersion> {
        let (source, _) = self.history.pop()?;
        Some(self.promote(source))
    }
}

/// Everything an install mutates besides the swap-visible slot, behind one
/// lock — which is therefore also the install order.
struct Installed {
    lineage: Lineage,
    /// The weights of the slots `lineage.history` names, found by version.
    retired: Vec<Arc<ModelSlot>>,
}

/// The model an engine serves: the incumbent slot and the lineage behind
/// it. One per lineage — the shards of a sharded engine share their owner's
/// (`ServeEngine::follower`), so every shard answers from one set of
/// weights under one version.
struct Incumbent {
    /// Swapped atomically (`Arc` swap under a short write lock) by an
    /// install or a demotion; readers pin the `Arc` once per batch and are
    /// never blocked mid-forward.
    slot: RwLock<Arc<ModelSlot>>,
    /// The model lineage and the retired slots' weights, for
    /// [`ServeEngine::demote`]. Holding the lock orders installs: the
    /// version a promoted/demoted WAL record carries is the version the
    /// swap under the same lock allocates.
    installed: Mutex<Installed>,
}

/// Per-tier serve counters, plus why fallback answers were degraded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Answers from fresh full-precision frozen forwards.
    pub model: u64,
    /// Vestigial: always 0. No rung serves a quantized forward; the field
    /// stays only because the frozen `benchmark/` package sums it.
    pub quantized: u64,
    /// Answers from the trained hybrid bias + content mid-tier.
    pub hybrid: u64,
    /// Answers from the exact prediction memo.
    pub cache: u64,
    /// Degraded answers from graph statistics.
    pub fallback: u64,
    /// Fallback answers caused by an exhausted deadline budget.
    pub deadline_degraded: u64,
    /// Fallback answers caused by an open circuit breaker.
    pub breaker_degraded: u64,
    /// Fallback answers caused by a failed model forward or context
    /// resolution.
    pub failure_degraded: u64,
}

impl TierStats {
    /// Adds `other`'s counts to `self`'s.
    fn absorb(&mut self, other: &TierStats) {
        self.model += other.model;
        self.hybrid += other.hybrid;
        self.cache += other.cache;
        self.fallback += other.fallback;
        self.deadline_degraded += other.deadline_degraded;
        self.breaker_degraded += other.breaker_degraded;
        self.failure_degraded += other.failure_degraded;
    }
}

/// Serves rating queries from a frozen model.
///
/// Contexts are sampled deterministically per `(seed, user, item)` by
/// [`hire_data::pair_context`], the context the evaluation tables answer
/// from too, and memoized in an LRU [`ContextCache`]; `insert_rating`
/// updates the graph and invalidates every cached block the new edge
/// touches. Stale-memo races are closed by a graph epoch: a context
/// sampled against a graph that changed before the cache insert is never
/// cached, and a prediction is only memoized against the exact context it
/// was computed from.
pub struct ServeEngine {
    /// The incumbent model and its lineage: this engine's own, or — on a
    /// `ServeEngine::follower` — its owner's.
    incumbent: Arc<Incumbent>,
    /// Whether installs and demotions go through this engine (and its WAL
    /// and `online.swap` site). A follower refuses them.
    owns_lineage: bool,
    dataset: Arc<Dataset>,
    /// The serving graph: copy-on-write, epoch-pinned snapshots
    /// (`hire_graph::EpochedGraph`). Resolvers pin a snapshot + epoch
    /// atomically; `insert_rating` commits a successor without blocking
    /// pinned readers; the epoch guard lets resolvers detect that their
    /// sample raced a write.
    graph: EpochedGraph,
    cache: Mutex<ContextCache>,
    config: EngineConfig,
    breaker: CircuitBreaker,
    /// The hybrid mid-tier, installed via [`ServeEngine::with_hybrid`].
    hybrid: Option<HybridModel>,
    faults: Option<Arc<FaultPlan>>,
    /// Per-user / per-item degree in the base graph, snapshotted at
    /// construction — the fixed reference frame for [`ColdScenario`]
    /// classification (an entity stays "cold" for reporting even after
    /// online ratings warm it up, so per-scenario accuracy is comparable
    /// across a run).
    base_user_degree: Vec<usize>,
    base_item_degree: Vec<usize>,
    /// Append-only log of ratings accepted by `insert_rating`, the feed
    /// for the online fine-tuning loop (see [`crate::online`]).
    inserted: Mutex<Vec<Rating>>,
    /// Durable write-ahead log, attached via [`ServeEngine::with_wal`].
    /// When present, `insert_rating` appends before acking and an install
    /// or demotion logs its record before swapping.
    wal: Option<Arc<Wal>>,
    /// Serializes WAL appends against graph commits so the log's record
    /// order is identical to the CSR commit order — the invariant that
    /// makes replayed recovery bit-exact.
    write_order: Mutex<()>,
    /// The one tier-counter store, keyed by the model version that answered
    /// and the query's cold-start scenario. [`ServeEngine::tier_stats`],
    /// [`ServeEngine::version_stats`] and [`ServeEngine::scenario_stats`]
    /// are folds of it, so they agree by construction. A batch counts into
    /// its own [`Batch`] and is flushed here, under one lock, before
    /// `predict_batch_tagged` returns.
    tiers: Mutex<BTreeMap<(ModelVersion, ColdScenario), TierStats>>,
}

/// Why a batch's misses left the model rung.
#[derive(Debug)]
enum DegradeReason {
    /// The deadline budget is gone, or ran out inside a forward.
    Deadline,
    /// The breaker refused the model rung.
    Breaker,
    /// Context resolution or the model forward failed.
    Failure,
}

/// The degradation ladder in descent order. `Memo` is the fast path in
/// front of it: looked up while a query's context is resolved, before the
/// misses descend, and never descended *to*. The misses enter at `Model`
/// if the budget and the breaker let them; misses turned away, or ones the
/// rung cannot answer, go to `Hybrid` and then `EntityMean`, which always
/// answers ([`ServeEngine::degrade`]).
#[derive(Debug, Clone, Copy)]
enum Rung<'a> {
    Memo,
    Model,
    Hybrid,
    /// Tagged with why the query fell this far.
    EntityMean(&'a DegradeReason),
}

/// One [`ServeEngine::answer_owned`] walk on its way out: the version it
/// is pinned to, the caller's reply slots, and the tier counts to flush —
/// one per scenario, in [`ColdScenario::ALL`] order.
struct Batch<'a> {
    queries: &'a [RatingQuery],
    version: ModelVersion,
    out: &'a mut [Option<Answer>],
    counts: [TierStats; 4],
}

/// Poison recovery: cache and graph stay consistent across a panicking
/// holder (plain data updates only).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// [`lock`] for the model slot's swap side.
fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

/// A typed refusal — of a caller's input, or of a rung's output — under the
/// engine's name.
fn invalid(detail: String) -> ServeError {
    ServeError::Model(HireError::invalid_data("ServeEngine", detail))
}

/// Maps WAL failures onto the serving error surface: injected chaos faults
/// keep their site (so chaos tests can assert on them), everything else is
/// a typed model/data error.
fn wal_to_serve(err: WalError) -> ServeError {
    match err {
        WalError::Injected { site } => ServeError::Injected { site },
        other => ServeError::Model(other.into()),
    }
}

impl ServeEngine {
    /// Builds an engine over the dataset's rating graph, its model rung
    /// guarded by a breaker with the default [`BreakerConfig`].
    pub fn new(model: FrozenModel, dataset: Arc<Dataset>, config: EngineConfig) -> Self {
        let graph = dataset.graph();
        Self::with_graph(model, dataset, graph, config)
    }

    /// [`ServeEngine::new`] over an explicit starting graph — e.g. the
    /// visible graph of a [`hire_data::ColdStartSplit`], so that held-out
    /// cold entities really are degree-0 in the serving view. The base
    /// degrees for [`ColdScenario`] classification are snapshotted from
    /// this graph.
    pub fn with_graph(
        model: FrozenModel,
        dataset: Arc<Dataset>,
        graph: BipartiteGraph,
        config: EngineConfig,
    ) -> Self {
        Self::with_shared_graph(model, dataset, Arc::new(graph), config)
    }

    /// [`ServeEngine::with_graph`] over an already-shared snapshot. The
    /// shards of a [`crate::ShardedEngine`] all start from one `Arc`'d base
    /// graph — this constructor for the first, `ServeEngine::follower` for
    /// the rest — one graph for N engines, diverging copy-on-write, chunk by
    /// chunk, as a shard commits online ratings.
    pub fn with_shared_graph(
        model: FrozenModel,
        dataset: Arc<Dataset>,
        graph: Arc<BipartiteGraph>,
        config: EngineConfig,
    ) -> Self {
        let lineage = Lineage::default();
        let incumbent = Incumbent {
            slot: RwLock::new(Arc::new(ModelSlot {
                model,
                version: lineage.current.1,
            })),
            installed: Mutex::new(Installed {
                lineage,
                retired: Vec::new(),
            }),
        };
        Self::build(Arc::new(incumbent), true, dataset, graph, config)
    }

    /// A shard serving this engine's model lineage over `graph` — its base
    /// graph, which cold-start classification reads. Same dataset and
    /// config as `self`; breaker, hybrid, faults and WAL are the follower's
    /// own (builder style). It pins the shared slot like its owner, and
    /// refuses installs and demotions: those go through the owner, which
    /// logs them once. Built only by the lineage rule,
    /// `crate::sharded::lineage_shards`.
    pub(crate) fn follower(&self, graph: Arc<BipartiteGraph>) -> ServeEngine {
        Self::build(
            Arc::clone(&self.incumbent),
            false,
            Arc::clone(&self.dataset),
            graph,
            self.config.clone(),
        )
    }

    /// The one constructor body: `incumbent` is the engine's own
    /// (`owns_lineage`) or its owner's.
    fn build(
        incumbent: Arc<Incumbent>,
        owns_lineage: bool,
        dataset: Arc<Dataset>,
        graph: Arc<BipartiteGraph>,
        config: EngineConfig,
    ) -> Self {
        let base_user_degree = (0..dataset.num_users)
            .map(|u| graph.user_degree(u))
            .collect();
        let base_item_degree = (0..dataset.num_items)
            .map(|i| graph.item_degree(i))
            .collect();
        ServeEngine {
            incumbent,
            owns_lineage,
            dataset,
            graph: EpochedGraph::from_arc(graph),
            cache: Mutex::new(ContextCache::new(config.cache_capacity)),
            config,
            breaker: CircuitBreaker::new(BreakerConfig::default()),
            hybrid: None,
            faults: None,
            base_user_degree,
            base_item_degree,
            inserted: Mutex::new(Vec::new()),
            wal: None,
            write_order: Mutex::new(()),
            tiers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Replaces the model rung's breaker with a closed one tuned by
    /// `config` (builder style).
    pub fn with_breaker(mut self, config: BreakerConfig) -> Self {
        self.breaker = CircuitBreaker::new(config);
        self
    }

    /// Installs a trained [`HybridModel`] as the hybrid mid-tier (builder
    /// style). Without one the ladder skips straight from the model tier
    /// to graph statistics.
    pub fn with_hybrid(mut self, hybrid: HybridModel) -> Self {
        self.hybrid = Some(hybrid);
        self
    }

    /// Installs a chaos [`FaultPlan`] on the engine's fault sites
    /// (`engine.resolve`, `engine.forward`). Without one the hooks cost a
    /// null check.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Attaches a write-ahead log (builder style). From here on,
    /// [`ServeEngine::insert_rating`] appends and waits for an fsync that
    /// covers the record ([`Wal::commit`]) before acknowledging, and model
    /// swaps must name the checkpoint holding the weights
    /// ([`SlotSource::Checkpoint`]) so recovery can reload them.
    pub fn with_wal(mut self, wal: Arc<Wal>) -> Self {
        self.wal = Some(wal);
        self
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The currently installed model slot (weights + version). The `Arc`
    /// pins the slot: it stays valid and unchanged even if a swap lands
    /// immediately after this call.
    pub fn current_model(&self) -> Arc<ModelSlot> {
        self.incumbent
            .slot
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The version of the currently installed model.
    pub fn version(&self) -> ModelVersion {
        self.current_model().version
    }

    /// The dataset the engine serves.
    pub fn dataset(&self) -> &Arc<Dataset> {
        &self.dataset
    }

    /// A pinned snapshot of the live serving graph.
    pub fn graph_snapshot(&self) -> Arc<BipartiteGraph> {
        self.graph.latest()
    }

    /// The serving graph's current epoch (bumped once per committed
    /// `insert_rating`).
    pub fn graph_epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Classifies a query against the engine's base graph (see
    /// [`ColdScenario`]). Out-of-range entities count as cold.
    pub fn scenario_of(&self, user: usize, item: usize) -> ColdScenario {
        let ud = self.base_user_degree.get(user).copied().unwrap_or(0);
        let id = self.base_item_degree.get(item).copied().unwrap_or(0);
        ColdScenario::classify(ud, id)
    }

    /// Atomically installs `model` as the new serving incumbent under a
    /// fresh, monotonically increasing version (`Lineage::promote`), and
    /// returns that version. `source` names where the weights can be
    /// reloaded from after a crash.
    ///
    /// In-flight batches finish on the slot they pinned at entry; new
    /// batches pick up the new slot. Prediction memos in the context cache
    /// are invalidated lazily by their version stamp — no cache sweep, no
    /// serving pause. The displaced incumbent joins a bounded history for
    /// [`ServeEngine::demote`].
    ///
    /// On a WAL-attached engine a `ModelPromoted{version, tag, steps}`
    /// record is durable strictly before the swap takes effect, so a crash
    /// can never observe a promoted model the log does not know how to
    /// restore; that needs `source` to be a [`SlotSource::Checkpoint`]
    /// (written *before* this call) — any other source is refused, typed,
    /// with nothing logged and no version consumed.
    ///
    /// Chaos site [`sites::ONLINE_SWAP`]: an injected `Error` abandons the
    /// swap (typed, incumbent keeps serving); a `Delay` widens the race
    /// window against concurrent queries; a `Panic` fires before any state
    /// is touched, so a crashed swapper cannot corrupt the slot.
    pub fn install_model(
        &self,
        model: FrozenModel,
        source: SlotSource,
    ) -> Result<ModelVersion, ServeError> {
        self.admit(&model)?;
        let mut installed = lock(&self.incumbent.installed);
        if self.wal.is_some() {
            let SlotSource::Checkpoint { tag, steps } = &source else {
                return Err(invalid(format!(
                    "engine has a write-ahead log attached, and recovery could not \
                     reload weights from {source:?}; checkpoint them and install \
                     from SlotSource::Checkpoint"
                )));
            };
            self.log_durably(&WalRecord::ModelPromoted {
                version: installed.lineage.next_version,
                tag: tag.clone(),
                steps: *steps,
            })?;
        }
        let version = installed.lineage.promote(source);
        self.swap_in(&mut installed, model, version);
        Ok(version)
    }

    /// Re-installs the previously displaced model under a **new** version
    /// (`Lineage::demote`; version numbers never repeat — a demotion is
    /// itself a swap, with the same pinning, memo-staleness,
    /// logged-before-visible and chaos-site guarantees as
    /// [`ServeEngine::install_model`]). Returns the new version, or
    /// `Ok(None)` when there is no previous model to demote to. An injected
    /// swap fault or a refused WAL append leaves the history intact for a
    /// retry.
    pub fn demote(&self) -> Result<Option<ModelVersion>, ServeError> {
        let mut installed = lock(&self.incumbent.installed);
        let target = installed.lineage.history.last();
        let Some(previous) =
            target.and_then(|(_, v)| installed.retired.iter().find(|s| s.version == *v))
        else {
            return Ok(None);
        };
        let model = previous.model.clone();
        self.admit(&model)?;
        self.log_durably(&WalRecord::Demoted {
            new_version: installed.lineage.next_version,
        })?;
        let version = installed
            .lineage
            .demote()
            .expect("the demotion target was found under this lock");
        self.swap_in(&mut installed, model, version);
        Ok(Some(version))
    }

    /// What a swap checks before touching any state or consuming a version:
    /// that this engine owns its lineage, the chaos fire on
    /// [`sites::ONLINE_SWAP`], and the candidate's compatibility with the
    /// incumbent.
    fn admit(&self, model: &FrozenModel) -> Result<(), ServeError> {
        if !self.owns_lineage {
            return Err(invalid("a follower swaps models through its owner".into()));
        }
        if let Some(plan) = &self.faults {
            plan.fire(sites::ONLINE_SWAP)?;
        }
        let incumbent = self.current_model();
        if model.embed_dim() != incumbent.model.embed_dim()
            || model.num_parameters() != incumbent.model.num_parameters()
        {
            return Err(invalid(format!(
                "candidate model is incompatible with the incumbent: \
                 embed dim {} vs {}, {} vs {} parameters",
                model.embed_dim(),
                incumbent.model.embed_dim(),
                model.num_parameters(),
                incumbent.model.num_parameters()
            )));
        }
        Ok(())
    }

    /// Appends `record` and waits until it is durable; a no-op without a
    /// WAL.
    fn log_durably(&self, record: &WalRecord) -> Result<(), ServeError> {
        if let Some(wal) = &self.wal {
            wal.append_durable(record).map_err(wal_to_serve)?;
        }
        Ok(())
    }

    /// Swaps the slot pointer to `model` serving as `version` — the version
    /// a [`Lineage`] transition just allocated — and keeps exactly the
    /// weights the lineage's history still names.
    fn swap_in(&self, installed: &mut Installed, model: FrozenModel, version: ModelVersion) {
        let fresh = Arc::new(ModelSlot { model, version });
        let displaced = std::mem::replace(&mut *write(&self.incumbent.slot), fresh);
        installed.retired.push(displaced);
        let history = &installed.lineage.history;
        installed
            .retired
            .retain(|s| history.iter().any(|(_, v)| *v == s.version));
    }

    /// Reinstates a recovered model lineage wholesale, resolving every
    /// slot's weights through `load`. A history slot whose weights fail to
    /// load is dropped (losing a demotion target degrades gracefully) and
    /// its version returned; an unloadable incumbent is the error — the
    /// engine cannot serve weights it does not have. Used only by crash
    /// recovery (`crate::durable`).
    pub(crate) fn restore_lineage(
        &self,
        mut lineage: Lineage,
        load: impl Fn(&SlotSource) -> HireResult<FrozenModel>,
    ) -> HireResult<Vec<ModelVersion>> {
        let slot = |model, version| Arc::new(ModelSlot { model, version });
        let current = slot(load(&lineage.current.0)?, lineage.current.1);
        let mut retired = Vec::with_capacity(lineage.history.len());
        let mut dropped = Vec::new();
        lineage
            .history
            .retain(|(source, version)| match load(source) {
                Ok(model) => {
                    retired.push(slot(model, *version));
                    true
                }
                Err(_) => {
                    dropped.push(*version);
                    false
                }
            });
        let mut installed = lock(&self.incumbent.installed);
        *write(&self.incumbent.slot) = current;
        *installed = Installed { lineage, retired };
        Ok(dropped)
    }

    /// A consistent capture of the model lineage (demotion history,
    /// incumbent, next version), each slot paired with its reload source.
    pub fn lineage(&self) -> Lineage {
        lock(&self.incumbent.installed).lineage.clone()
    }

    /// An atomically consistent capture of everything a serving snapshot
    /// persists: the full insert log, the model lineage, and the WAL
    /// position the capture is current as of. Holding `write_order` +
    /// `installed` together pins the log: no rating, promotion, or
    /// demotion record can land between reading the state and reading
    /// `next_lsn`, so replaying records at LSN ≥ the returned position on
    /// top of the capture reconstructs any later state exactly. (The
    /// online loop's one record is its round barrier — trained cursor and
    /// round; `crate::durable` holds the loop's state lock around this call
    /// to pin that too.)
    pub(crate) fn durable_capture(&self) -> (Vec<Rating>, Lineage, u64) {
        let _write = lock(&self.write_order);
        let installed = lock(&self.incumbent.installed);
        let ratings = lock(&self.inserted).clone();
        let next_lsn = self.wal.as_ref().map(|w| w.next_lsn()).unwrap_or(0);
        (ratings, installed.lineage.clone(), next_lsn)
    }

    /// Recovery's half of [`ServeEngine::insert_rating`]: re-applies a
    /// rating replayed from the WAL without logging it again. One
    /// copy-on-write commit per rating, in replay order, walks the graph
    /// through the same epoch sequence the crashed engine produced — the
    /// final CSR (and therefore every deterministic context sample) is
    /// bit-identical.
    pub(crate) fn replay_rating(&self, rating: Rating) {
        self.apply_rating(rating, None)
            .expect("nothing is appended, so nothing can be refused");
    }

    /// The one graph write. Under `write_order`: append to `wal` when one
    /// is given — *before* mutating any state, so a refused append leaves
    /// the engine untouched — then the copy-on-write commit (pinned readers
    /// keep their snapshots; the epoch bump makes an in-flight resolver
    /// refuse to cache a sample of the displaced snapshot) and the insert
    /// log. Holding the lock across all three makes WAL record order ≡
    /// graph commit order ≡ `inserted` order, the invariant recovery's
    /// replay depends on. Returns the appended record's LSN.
    fn apply_rating(&self, rating: Rating, wal: Option<&Wal>) -> Result<Option<u64>, ServeError> {
        let _order = lock(&self.write_order);
        let record = WalRecord::Rating {
            user: rating.user as u64,
            item: rating.item as u64,
            value: rating.value,
        };
        let lsn = wal
            .map(|wal| wal.append(&record))
            .transpose()
            .map_err(wal_to_serve)?;
        self.graph.commit_edges(&[rating]);
        lock(&self.inserted).push(rating);
        Ok(lsn)
    }

    /// Ratings accepted by [`ServeEngine::insert_rating`] since `cursor`
    /// (a count of ratings already consumed). Returns the new ratings and
    /// the advanced cursor.
    pub fn inserted_since(&self, cursor: usize) -> (Vec<Rating>, usize) {
        let log = lock(&self.inserted);
        let fresh = log[cursor.min(log.len())..].to_vec();
        (fresh, log.len())
    }

    /// Tier counters broken down by answering model version.
    pub fn version_stats(&self) -> Vec<(ModelVersion, TierStats)> {
        self.fold_tiers(|version, _| version).into_iter().collect()
    }

    /// Tier counters broken down by cold-start scenario.
    pub fn scenario_stats(&self) -> Vec<(ColdScenario, TierStats)> {
        self.fold_tiers(|_, scenario| scenario)
            .into_iter()
            .collect()
    }

    /// The tier-counter store summed by `key`.
    fn fold_tiers<K: Ord>(
        &self,
        key: impl Fn(ModelVersion, ColdScenario) -> K,
    ) -> BTreeMap<K, TierStats> {
        let mut folded: BTreeMap<K, TierStats> = BTreeMap::new();
        for (&(version, scenario), stats) in lock(&self.tiers).iter() {
            folded
                .entry(key(version, scenario))
                .or_default()
                .absorb(stats);
        }
        folded
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Context-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        lock(&self.cache).stats()
    }

    /// Live cache entries.
    pub fn cache_len(&self) -> usize {
        lock(&self.cache).len()
    }

    /// Per-tier serve counters.
    pub fn tier_stats(&self) -> TierStats {
        let mut total = TierStats::default();
        for stats in lock(&self.tiers).values() {
            total.absorb(stats);
        }
        total
    }

    /// The model rung's circuit-breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// The model rung's circuit-breaker counters.
    pub fn breaker_stats(&self) -> BreakerStats {
        self.breaker.stats()
    }

    /// Inserts a new observed rating into the serving graph and invalidates
    /// every cached context whose block contains the edge's user or item.
    /// Returns the number of invalidated contexts.
    pub fn insert_rating(&self, rating: Rating) -> Result<usize, ServeError> {
        if rating.user >= self.dataset.num_users || rating.item >= self.dataset.num_items {
            return Err(invalid(format!(
                "rating edge ({}, {}) out of range",
                rating.user, rating.item
            )));
        }
        // A refused append leaves the engine untouched and unacknowledged.
        let logged = self.apply_rating(rating, self.wal.as_deref())?;
        let invalidated = lock(&self.cache).invalidate_edge(rating.user, rating.item);
        // The fsync wait happens outside the write-order lock (group commit
        // batches many waiters under one fsync). A failed commit means the
        // write is *not acknowledged*: the record may or may not survive a
        // crash, which is exactly the unacked contract.
        if let (Some(wal), Some(lsn)) = (&self.wal, logged) {
            wal.commit(lsn).map_err(wal_to_serve)?;
        }
        Ok(invalidated)
    }

    /// The cache key this engine uses for a query pair.
    fn cache_key(&self, user: usize, item: usize) -> CacheKey {
        CacheKey {
            user,
            item,
            strategy: STRATEGY,
            n: self.config.context_users,
            m: self.config.context_items,
        }
    }

    /// Resolves the prediction context for a query: cache hit, or a fresh
    /// deterministic sample over the current graph.
    pub fn context_for(&self, query: &RatingQuery) -> Result<Arc<PredictionContext>, ServeError> {
        self.check_range(query)?;
        self.resolve(self.version(), query).map(|(_, ctx, _)| ctx)
    }

    /// Validates a query against the dataset bounds (a caller bug, never
    /// degraded around).
    fn check_range(&self, query: &RatingQuery) -> Result<(), ServeError> {
        for (entity, index, bound) in [
            ("user", query.user, self.dataset.num_users),
            ("item", query.item, self.dataset.num_items),
        ] {
            if index >= bound {
                return Err(invalid(format!("{entity} {index} out of range {bound}")));
            }
        }
        Ok(())
    }

    /// The one guard around everything a rung runs that is not plain data
    /// movement: the chaos hook on `site` (a null check without a
    /// [`FaultPlan`]; a fired `Delay` or `WrongShape` is handed to `body`,
    /// a fired `Error` is the typed [`ServeError::Injected`]) and panic
    /// isolation — a panic in the hook or in `body` is a typed
    /// "`what` panicked" error, never an unwinding worker.
    fn guarded<T>(
        &self,
        site: &'static str,
        what: impl std::fmt::Display,
        body: impl FnOnce(Option<FaultKind>) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        catch_unwind(AssertUnwindSafe(|| {
            let fired = match &self.faults {
                Some(plan) => plan.fire(site)?,
                None => None,
            };
            body(fired)
        }))
        .unwrap_or_else(|_panic| Err(invalid(format!("{what} panicked"))))
    }

    /// Context resolution behind the guard ([`sites::ENGINE_RESOLVE`]): the
    /// cached or freshly sampled context of an in-range `query`, its cache
    /// key, and any memoized prediction. The memo is exact, not
    /// approximate: the model is frozen, sampling is deterministic per
    /// `(seed, user, item)`, and graph updates invalidate the whole entry —
    /// so a stored prediction is bit-identical to recomputing it.
    fn resolve(
        &self,
        version: ModelVersion,
        query: &RatingQuery,
    ) -> Result<(CacheKey, Arc<PredictionContext>, Option<f32>), ServeError> {
        self.guarded(sites::ENGINE_RESOLVE, "context resolution", |_| {
            let key = self.cache_key(query.user, query.item);
            if let Some(hit) = lock(&self.cache).get(&key, version) {
                return Ok((key, hit.ctx, hit.prediction));
            }
            // Pin the snapshot and its epoch atomically: if a rating
            // commits while we sample, the guarded insert below refuses
            // to cache the (possibly stale) sample — it is still good
            // enough to answer this query, whose submission raced the
            // write.
            let pinned = self.graph.pin();
            // The query cell is target-masked, so its placeholder value
            // never reaches the model input.
            let placeholder = Rating::new(query.user, query.item, self.dataset.min_rating);
            let ctx = pair_context(
                &pinned,
                &NeighborhoodSampler,
                placeholder,
                self.config.context_users,
                self.config.context_items,
                self.config.keep_ratio,
                self.config.seed,
            )
            .map_err(ServeError::Model)?;
            let ctx = Arc::new(ctx);
            lock(&self.cache).insert_if_current(key.clone(), ctx.clone(), &pinned, &self.graph);
            Ok((key, ctx, None))
        })
    }

    /// The one answer sink: builds the [`Answer`] of batch position `i`,
    /// tagged with the batch's pinned version, and counts it against the
    /// query's scenario. Degraded answers carry the pinned version too: the
    /// lower rungs depend on the graph rather than the model, but
    /// attributing them to the serving version is what lets the demotion
    /// watchdog compare fallback *rates* across versions.
    fn answer(&self, batch: &mut Batch, i: usize, rating: f32, rung: Rung) {
        let q = &batch.queries[i];
        let stats = &mut batch.counts[self.scenario_of(q.user, q.item) as usize];
        let (served_by, counter) = match rung {
            Rung::Memo => (ServedBy::Cache, &mut stats.cache),
            Rung::Model => (ServedBy::Model, &mut stats.model),
            Rung::Hybrid => (ServedBy::Hybrid, &mut stats.hybrid),
            Rung::EntityMean(reason) => {
                *match reason {
                    DegradeReason::Deadline => &mut stats.deadline_degraded,
                    DegradeReason::Breaker => &mut stats.breaker_degraded,
                    DegradeReason::Failure => &mut stats.failure_degraded,
                } += 1;
                (ServedBy::Fallback, &mut stats.fallback)
            }
        };
        *counter += 1;
        batch.out[i] = Some(Answer {
            rating,
            served_by,
            version: batch.version,
        });
    }

    /// The model rung, one guarded attempt per batch: breaker admission,
    /// one forward over the misses ([`sites::ENGINE_FORWARD`]) — each
    /// context asked only for its query's cell, output-shape validated —
    /// and one recorded outcome. A spent deadline budget turns the misses
    /// away before the breaker is asked (no forward is affordable, and
    /// nothing is ever silently late); so does a refusing breaker, open or
    /// half-open with its probes in flight. An answer or an error is the
    /// admission's outcome; a deadline that ran out inside the forward is
    /// not a model failure, so the admission is forfeited without one. The
    /// forward is deterministic, so a failure is never retried.
    fn model_rung(
        &self,
        slot: &ModelSlot,
        asks: &[Ask<'_>],
        deadline: Option<Instant>,
    ) -> Result<Vec<Vec<f32>>, DegradeReason> {
        if deadline.is_some_and(|d| d <= Instant::now()) {
            return Err(DegradeReason::Deadline);
        }
        if !self.breaker.admit() {
            return Err(DegradeReason::Breaker);
        }
        let attempted = self.guarded(sites::ENGINE_FORWARD, "model forward", |fired| {
            let mut preds = slot
                .model
                .forward_cells_batch_within(asks, &self.dataset, deadline)
                .map_err(ServeError::Model)?;
            if let (Some(FaultKind::WrongShape), Some(preds)) = (fired, &mut preds) {
                // Chaos `WrongShape`: the "model" loses one output.
                preds.pop();
            }
            match preds {
                Some(preds) if preds.len() != asks.len() => Err(invalid(format!(
                    "model returned {} predictions for {} contexts",
                    preds.len(),
                    asks.len()
                ))),
                preds => Ok(preds),
            }
        });
        match attempted {
            Ok(Some(preds)) => {
                self.breaker.record(true);
                Ok(preds)
            }
            Ok(None) => {
                self.breaker.forfeit();
                Err(DegradeReason::Deadline)
            }
            Err(_) => {
                self.breaker.record(false);
                Err(DegradeReason::Failure)
            }
        }
    }

    /// Walks the batch's misses down the ladder until a rung has answered
    /// every waiter.
    fn descend(
        &self,
        slot: &ModelSlot,
        misses: &[PendingQuery],
        deadline: Option<Instant>,
        batch: &mut Batch,
    ) {
        let asks: Vec<Ask<'_>> = misses
            .iter()
            .map(|p| (&*p.ctx, std::slice::from_ref(&p.cell)))
            .collect();
        match self.model_rung(slot, &asks, deadline) {
            Ok(preds) => self.scatter(misses, &preds, batch),
            Err(reason) => {
                let waiters: Vec<usize> = misses
                    .iter()
                    .flat_map(|p| p.waiters.iter().copied())
                    .collect();
                self.degrade(&waiters, reason, batch);
            }
        }
    }

    /// Scatters the model rung's output to the batch positions waiting on
    /// it, and memoizes it.
    fn scatter(&self, misses: &[PendingQuery], preds: &[Vec<f32>], batch: &mut Batch) {
        for (
            pred,
            PendingQuery {
                key, ctx, waiters, ..
            },
        ) in preds.iter().zip(misses)
        {
            let value = pred[0];
            // Memoize against the exact context the value was computed from
            // (and the version that computed it): if the entry was
            // invalidated and resampled in the meantime, the memo must not
            // attach to the fresh context; if the model was swapped, the
            // stamp keeps the memo scoped to this version.
            lock(&self.cache).store_prediction(key, ctx, batch.version, value);
            for &i in waiters {
                self.answer(batch, i, value, Rung::Model);
            }
        }
    }

    /// Answers `positions` once the model rung is out, for `reason`: the
    /// ladder's tail, which always answers — the hybrid predictor if one is
    /// installed and healthy behind its guard ([`sites::HYBRID_FORWARD`];
    /// it needs no context), else graph statistics.
    fn degrade(&self, positions: &[usize], reason: DegradeReason, batch: &mut Batch) {
        let pairs: Vec<(usize, usize)> = positions
            .iter()
            .map(|&i| (batch.queries[i].user, batch.queries[i].item))
            .collect();
        let hybrid = self.hybrid.as_ref().and_then(|hybrid| {
            self.guarded(sites::HYBRID_FORWARD, "hybrid forward", |_| {
                Ok(pairs.iter().map(|&(u, i)| hybrid.predict(u, i)).collect())
            })
            .ok()
        });
        let (ratings, rung) = match hybrid {
            Some(ratings) => (ratings, Rung::Hybrid),
            None => (self.entity_mean(&pairs), Rung::EntityMean(&reason)),
        };
        for (&i, rating) in positions.iter().zip(ratings) {
            self.answer(batch, i, rating, rung);
        }
    }

    /// The last rung: user mean → item mean → global mean over the live
    /// serving graph (`hire_baselines::EntityMean`), clamped into the
    /// dataset's rating range. Never fails, and costs the degrees it reads.
    fn entity_mean(&self, pairs: &[(usize, usize)]) -> Vec<f32> {
        let graph = self.graph.latest();
        let mut predictor = EntityMean::new();
        // `fit` computes the global mean and nothing else: an O(E) sum that
        // `predict` reads only for a pair with neither side rated, so it is
        // paid only by a batch that has one. (Its RNG is unused, but part
        // of the `RatingModel` contract.)
        if pairs
            .iter()
            .any(|&(u, i)| graph.user_degree(u) == 0 && graph.item_degree(i) == 0)
        {
            predictor.fit(&self.dataset, &graph, &mut StdRng::seed_from_u64(0));
        }
        let (lo, hi) = (self.dataset.min_rating, self.dataset.max_rating());
        predictor
            .predict(&self.dataset, &graph, pairs)
            .into_iter()
            .map(|v| v.clamp(lo, hi))
            .collect()
    }

    /// Answers the positions of `batch` that `owns` claims: the memo fast
    /// path while contexts resolve, then one descent of the batch's misses.
    /// `owns` hears every position, in batch order — after a refusal too,
    /// which ends the walk's work but not its questions.
    fn walk(
        &self,
        slot: &ModelSlot,
        mut owns: impl FnMut(&RatingQuery) -> bool,
        deadline: Option<Instant>,
        batch: &mut Batch,
    ) -> Result<(), ServeError> {
        // Deduplicate the batch: coalesced traffic is skewed, so one
        // forward per distinct (user, item) answers every duplicate. The
        // memo fast-path skips the forward entirely for contexts whose
        // prediction was already computed and not invalidated since.
        let mut pending: BTreeMap<(usize, usize), PendingQuery> = BTreeMap::new();
        let mut refused = Ok(());
        let queries = batch.queries;
        for (i, q) in queries.iter().enumerate() {
            if !owns(q) || refused.is_err() {
                continue;
            }
            if let Some(p) = pending.get_mut(&(q.user, q.item)) {
                p.waiters.push(i);
                continue;
            }
            // Range violations are caller bugs and always surface; any
            // *other* resolution failure (injected fault, sampling error,
            // panic) leaves the query without a context, so the model
            // rung is unreachable for it — but the hybrid rung needs none.
            if let Err(err) = self.check_range(q) {
                refused = Err(err);
                continue;
            }
            match self.resolve(batch.version, q) {
                Ok((_, _, Some(memo))) => self.answer(batch, i, memo, Rung::Memo),
                Ok((key, ctx, None)) => match query_cell(&key, &ctx) {
                    Ok(cell) => {
                        let waiters = vec![i];
                        let miss = PendingQuery {
                            key,
                            ctx,
                            cell,
                            waiters,
                        };
                        pending.insert((q.user, q.item), miss);
                    }
                    Err(err) => refused = Err(err),
                },
                Err(_) => self.degrade(&[i], DegradeReason::Failure, batch),
            }
        }
        refused?;
        if !pending.is_empty() {
            let misses: Vec<PendingQuery> = pending.into_values().collect();
            self.descend(slot, &misses, deadline, batch);
        }
        Ok(())
    }

    /// Answers the positions of `queries` that `owns` claims into their
    /// `out` slots (one per query), on `slot` — a
    /// [`ServeEngine::current_model`] pin of this engine's lineage, taken
    /// once by the caller: the forward, every memo read/write, and every
    /// answer use it. `owns` is asked once per position, in batch order;
    /// the slots of positions it turns down are left as they were.
    ///
    /// `ServeEngine`'s own batch is this walk owning every position, then
    /// [`collect_answers`]. A sharded engine pins its one slot once and
    /// walks each shard over the positions that shard owns, into one
    /// `out`, so the whole batch answers under one version and is
    /// collected once.
    ///
    /// # Panics
    ///
    /// If `out` and `queries` differ in length.
    pub(crate) fn answer_owned(
        &self,
        slot: &ModelSlot,
        queries: &[RatingQuery],
        owns: impl FnMut(&RatingQuery) -> bool,
        deadline: Option<Instant>,
        out: &mut [Option<Answer>],
    ) -> Result<(), ServeError> {
        assert_eq!(out.len(), queries.len(), "one answer slot per query");
        let mut batch = Batch {
            queries,
            version: slot.version,
            out,
            counts: [TierStats::default(); 4],
        };
        let walked = self.walk(slot, owns, deadline, &mut batch);
        // Count before replying — what a walk refused for a range violation
        // answered on its way included — so a caller that has its reply
        // also sees it counted.
        let mut tiers = lock(&self.tiers);
        let counted = ColdScenario::ALL.iter().zip(&batch.counts);
        for (scenario, counted) in counted.filter(|(_, c)| **c != TierStats::default()) {
            tiers
                .entry((batch.version, *scenario))
                .or_default()
                .absorb(counted);
        }
        walked
    }
}

/// A deduplicated query awaiting a forward: its cache key, resolved
/// context, the context cell that answers it, and the positions in the
/// incoming batch waiting on the answer.
struct PendingQuery {
    key: CacheKey,
    ctx: Arc<PredictionContext>,
    cell: (usize, usize),
    waiters: Vec<usize>,
}

/// One miss as the model rung asks for it: its context and its one cell.
type Ask<'a> = (&'a PredictionContext, &'a [(usize, usize)]);

impl Predictor for ServeEngine {
    fn predict_batch(&self, queries: &[RatingQuery]) -> Result<Vec<f32>, ServeError> {
        Ok(self
            .predict_batch_tagged(queries, None)?
            .into_iter()
            .map(|a| a.rating)
            .collect())
    }

    fn predict_batch_tagged(
        &self,
        queries: &[RatingQuery],
        deadline: Option<Instant>,
    ) -> Result<Vec<Answer>, ServeError> {
        // Pin the incumbent once for the whole batch, so a hot swap that
        // lands mid-batch never mixes model versions within a batch.
        let mut out = vec![None; queries.len()];
        self.answer_owned(&self.current_model(), queries, |_| true, deadline, &mut out)?;
        collect_answers(out)
    }
}

/// The context cell that answers `key`'s query, the one cell the model
/// rung asks the forward for. Resolution only ever caches contexts that
/// contain it, so a miss is a broken engine invariant: a typed
/// [`ServeError::Internal`] for the batch, before any rung runs.
fn query_cell(key: &CacheKey, ctx: &PredictionContext) -> Result<(usize, usize), ServeError> {
    match (ctx.user_row(key.user), ctx.item_col(key.item)) {
        (Some(row), Some(col)) => Ok((row, col)),
        _ => Err(ServeError::Internal {
            detail: format!(
                "query ({}, {}) missing from its context",
                key.user, key.item
            ),
        }),
    }
}

/// Final collection rung, the one every batch ends in (a sharded one
/// too): every position must have been answered by some tier above. A
/// hole means an engine invariant broke; it surfaces as a typed
/// [`ServeError::Internal`] so one bad batch degrades a reply instead of
/// killing a serving worker.
pub(crate) fn collect_answers(out: Vec<Option<Answer>>) -> Result<Vec<Answer>, ServeError> {
    out.into_iter()
        .enumerate()
        .map(|(i, answer)| {
            answer.ok_or_else(|| ServeError::Internal {
                detail: format!("query at batch position {i} was answered by no tier"),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: a batch position no tier answered must surface as a
    /// typed [`ServeError::Internal`] (this used to be an
    /// `expect(...)` panic that took the serving worker with it).
    #[test]
    fn unanswered_position_is_a_typed_internal_error() {
        let answered = Answer {
            rating: 3.0,
            served_by: ServedBy::Model,
            version: 1,
        };
        let err = collect_answers(vec![Some(answered), None]).expect_err("a hole must not pass");
        match err {
            ServeError::Internal { detail } => {
                assert!(detail.contains("position 1"), "detail: {detail}");
            }
            other => panic!("expected ServeError::Internal, got {other:?}"),
        }
        let ok = collect_answers(vec![Some(answered), Some(answered)])
            .expect("fully answered batches pass through");
        assert_eq!(ok.len(), 2);
    }

    /// A context without the query's cell is a broken engine invariant:
    /// the miss path's check turns it into one typed `Internal`, whatever
    /// rung would have answered.
    #[test]
    fn a_context_without_the_query_cell_is_an_internal_error() {
        let dataset = hire_data::SyntheticConfig::movielens_like()
            .scaled(24, 20, (6, 10))
            .generate(5);
        let config = hire_core::HireConfig::fast()
            .with_blocks(1)
            .with_context_size(6, 6);
        let model = hire_core::HireModel::new(&dataset, &config, &mut StdRng::seed_from_u64(2));
        let frozen = FrozenModel::from_model(&model, &dataset).expect("freeze");
        let engine = ServeEngine::new(
            frozen,
            Arc::new(dataset),
            EngineConfig::from_model_config(&config),
        );
        let (q, other) = (
            RatingQuery { user: 1, item: 2 },
            RatingQuery { user: 3, item: 4 },
        );
        let foreign = engine.context_for(&other).expect("sample");
        assert!(foreign.user_row(q.user).is_none() || foreign.item_col(q.item).is_none());

        match query_cell(&engine.cache_key(q.user, q.item), &foreign) {
            Err(ServeError::Internal { detail }) => {
                assert!(detail.contains("(1, 2)"), "detail: {detail}")
            }
            other => panic!("expected ServeError::Internal, got {other:?}"),
        }
    }
}
