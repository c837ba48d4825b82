//! The serving engine: frozen model + rating graph + context cache,
//! wrapped in the degradation ladder (see `DESIGN.md` §10).
//!
//! Every query is answered by the best available tier (fidelity order;
//! the cache memo is a fast path that short-circuits the ladder):
//!
//! 1. **Cache** — the exact per-entry prediction memo.
//! 2. **Model** — a fresh frozen forward, guarded by a circuit breaker
//!    and retried (seeded jittered backoff) on transient faults. The one
//!    model forward the engine serves.
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
//! [`ServeEngine`]: `enter` (whether a group gets the model rung — the
//! only reader of the deadline budget and the breaker's admission),
//! `refuse_or_degrade` (the only reader of [`ResilienceConfig::fallback`]),
//! `answer` (the only place an [`Answer`] is built and counted), `guarded`
//! (the only `catch_unwind` and chaos hook) and `apply_rating` (the only
//! graph write). `Rung` states the order.

use crate::breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
use crate::cache::{CacheKey, CacheStats, ContextCache, ExportedContext};
use crate::frozen::FrozenModel;
use crate::server::{Answer, ModelVersion, Predictor, RatingQuery, ServeError, ServedBy};
use hire_baselines::{EntityMean, RatingModel};
use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_core::{Backoff, BackoffConfig, HybridModel};
use hire_data::{test_context_with_ratio, Dataset, PredictionContext};
use hire_error::{HireError, HireResult};
use hire_graph::{BipartiteGraph, EpochSource, EpochedGraph, NeighborhoodSampler, Rating};
use hire_tensor::NdArray;
use hire_wal::{Wal, WalError, WalRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
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
    /// Base seed for deterministic per-query context sampling.
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
            seed: 0x48495245, // "HIRE"
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
    /// Every scenario, in reporting order.
    pub const ALL: [ColdScenario; 4] = [
        ColdScenario::WarmUp,
        ColdScenario::UserCold,
        ColdScenario::ItemCold,
        ColdScenario::UserAndItemCold,
    ];

    /// The scenario's reporting label (OpenHGNN naming).
    pub fn label(self) -> &'static str {
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
    pub fn classify(user_degree: usize, item_degree: usize) -> Self {
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
    pub fn version(&self) -> ModelVersion {
        self.version
    }
}

/// The output of [`ServeEngine::prepare_install`]: a validated model
/// awaiting [`ServeEngine::commit_install`]. Dropping it aborts the install
/// with no engine state touched.
pub struct PreparedInstall {
    model: FrozenModel,
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
/// demotion transitions: the live engine ([`ServeEngine::commit_install`],
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
    pub fn promote(&mut self, source: SlotSource) -> ModelVersion {
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
    pub fn demote(&mut self) -> Option<ModelVersion> {
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

/// How the engine degrades when the model tier misbehaves.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Circuit breaker around the frozen forward; `None` disables it.
    pub breaker: Option<BreakerConfig>,
    /// Model-tier attempts per batch (1 = no retry). Transient failures
    /// (injected faults, panics, real forward errors) are retried with
    /// seeded jittered backoff before degrading.
    pub retry_attempts: usize,
    /// Backoff schedule between model-tier retries.
    pub retry_backoff: BackoffConfig,
    /// Degrade down the ladder (hybrid → graph statistics) instead of
    /// erroring when the model tier is unavailable. Disabled, the engine
    /// surfaces [`ServeError::CircuitOpen`] / the model error instead.
    pub fallback: bool,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            breaker: Some(BreakerConfig::default()),
            retry_attempts: 2,
            retry_backoff: BackoffConfig::default(),
            fallback: true,
        }
    }
}

impl ResilienceConfig {
    /// Pre-resilience behavior: no breaker, no retries, no fallback —
    /// every model-tier failure surfaces to the caller.
    pub fn disabled() -> Self {
        ResilienceConfig {
            breaker: None,
            retry_attempts: 1,
            retry_backoff: BackoffConfig::default(),
            fallback: false,
        }
    }
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
    /// Fallback answers caused by model/context failures that survived
    /// the retry budget.
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
/// Contexts are sampled deterministically per `(seed, user, item)` and
/// memoized in an LRU [`ContextCache`]; `insert_rating` updates the graph
/// and invalidates every cached block the new edge touches. Stale-memo
/// races are closed by a graph epoch: a context sampled against a graph
/// that changed before the cache insert is never cached, and a prediction
/// is only memoized against the exact context it was computed from.
pub struct ServeEngine {
    /// The incumbent model. Swapped atomically (`Arc` swap under a short
    /// write lock) by [`ServeEngine::commit_install`]; readers pin the
    /// `Arc` once per batch and are never blocked mid-forward.
    slot: RwLock<Arc<ModelSlot>>,
    /// The model lineage and the retired slots' weights, for
    /// [`ServeEngine::demote`]. Holding the lock orders installs: the
    /// version a promoted/demoted WAL record carries is the version the
    /// swap under the same lock allocates.
    installed: Mutex<Installed>,
    dataset: Arc<Dataset>,
    /// The serving graph: copy-on-write, epoch-pinned snapshots
    /// (`hire_graph::EpochedGraph`). Resolvers pin a snapshot + epoch
    /// atomically; `insert_rating` commits a successor without blocking
    /// pinned readers; the epoch guard lets resolvers detect that their
    /// sample raced a write.
    graph: EpochedGraph,
    cache: Mutex<ContextCache>,
    config: EngineConfig,
    resilience: ResilienceConfig,
    breaker: Option<CircuitBreaker>,
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
    /// When present, `insert_rating` appends before acking and
    /// [`ServeEngine::commit_install`] logs the promotion before swapping.
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

/// Why a group of queries left the model rung.
#[derive(Debug)]
enum DegradeReason {
    /// The deadline budget is gone, or ran out inside a forward.
    Deadline,
    /// The breaker refused the model rung.
    Breaker,
    /// Context resolution failed, or the model forward out its retry
    /// budget, with this error.
    Failure(ServeError),
}

/// The degradation ladder in descent order. `Memo` is the fast path in
/// front of it: looked up while a query's context is resolved, before
/// groups are formed, and never descended *to*. A group enters at `Model`
/// if [`ServeEngine::enter`] lets it; a group it turns away, or one the
/// rung cannot answer, goes to `Hybrid` and then `EntityMean`, which always
/// answers ([`ServeEngine::refuse_or_degrade`]).
#[derive(Debug, Clone, Copy)]
enum Rung<'a> {
    Memo,
    Model,
    Hybrid,
    /// Tagged with why the query fell this far.
    EntityMean(&'a DegradeReason),
}

/// One `predict_batch_tagged` call on its way out: the version it is
/// pinned to, the reply slots, and the tier counts to flush.
struct Batch<'a> {
    queries: &'a [RatingQuery],
    version: ModelVersion,
    out: Vec<Option<Answer>>,
    counts: BTreeMap<ColdScenario, TierStats>,
}

/// Poison recovery: cache and graph stay consistent across a panicking
/// holder (plain data updates only).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
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

/// SplitMix64-style mix of the engine seed and the query pair, so context
/// sampling is reproducible per query and stable across cache evictions.
/// Also used by the online loop (`crate::online`) to derive per-round
/// fine-tuning and eval seeds from one base seed.
pub(crate) fn context_seed(base: u64, user: usize, item: usize) -> u64 {
    let mut z = base
        ^ (user as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (item as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ServeEngine {
    /// Builds an engine over the dataset's rating graph with the default
    /// [`ResilienceConfig`] (breaker + retry + fallback enabled).
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

    /// [`ServeEngine::with_graph`] over an already-shared snapshot. Shards
    /// of a `ShardedEngine` all start from one `Arc`'d base graph this way
    /// — one graph for N engines, diverging copy-on-write, chunk by chunk,
    /// as a shard commits online ratings.
    pub fn with_shared_graph(
        model: FrozenModel,
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
        let resilience = ResilienceConfig::default();
        let breaker = resilience.breaker.clone().map(CircuitBreaker::new);
        let lineage = Lineage::default();
        ServeEngine {
            slot: RwLock::new(Arc::new(ModelSlot {
                model,
                version: lineage.current.1,
            })),
            installed: Mutex::new(Installed {
                lineage,
                retired: Vec::new(),
            }),
            dataset,
            graph: EpochedGraph::from_arc(graph),
            cache: Mutex::new(ContextCache::new(config.cache_capacity)),
            config,
            resilience,
            breaker,
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

    /// Replaces the resilience settings (builder style).
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.breaker = resilience.breaker.clone().map(CircuitBreaker::new);
        self.resilience = resilience;
        self
    }

    /// Installs a trained [`HybridModel`] as the hybrid mid-tier (builder
    /// style). Without one the ladder skips straight from the model tier
    /// to graph statistics.
    pub fn with_hybrid(mut self, hybrid: HybridModel) -> Self {
        self.hybrid = Some(hybrid);
        self
    }

    /// The installed hybrid mid-tier, if any.
    pub fn hybrid_model(&self) -> Option<&HybridModel> {
        self.hybrid.as_ref()
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
        self.slot.read().unwrap_or_else(|p| p.into_inner()).clone()
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
    /// fresh, monotonically increasing version, and returns that version:
    /// [`ServeEngine::prepare_install`] then
    /// [`ServeEngine::commit_install`]. `source` names where the weights can
    /// be reloaded from after a crash.
    ///
    /// In-flight batches finish on the slot they pinned at entry; new
    /// batches pick up the new slot. Prediction memos in the context cache
    /// are invalidated lazily by their version stamp — no cache sweep, no
    /// serving pause. The displaced incumbent joins a bounded history for
    /// [`ServeEngine::demote`].
    pub fn install_model(
        &self,
        model: FrozenModel,
        source: SlotSource,
    ) -> Result<ModelVersion, ServeError> {
        let prepared = self.prepare_install(model)?;
        self.commit_install(prepared, source)
    }

    /// Phase one of an install: every step that depends on the candidate —
    /// the chaos fire on [`sites::ONLINE_SWAP`] and the compatibility check
    /// against the incumbent. No
    /// engine state is touched and no version number is consumed, so an
    /// abandoned prepare (e.g. a sharded install aborting because a sibling
    /// shard's prepare failed) leaves the engine exactly as it was — version
    /// counters included, which is what keeps shards in version lockstep.
    ///
    /// Chaos site [`sites::ONLINE_SWAP`]: an injected `Error` abandons the
    /// swap (typed, incumbent keeps serving); a `Delay` widens the race
    /// window against concurrent queries; a `Panic` fires before any state
    /// is touched, so a crashed swapper cannot corrupt the slot.
    pub fn prepare_install(&self, model: FrozenModel) -> Result<PreparedInstall, ServeError> {
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
        Ok(PreparedInstall { model })
    }

    /// Phase two of an install: [`Lineage::promote`] plus the atomic slot
    /// swap. On a WAL-attached engine a `ModelPromoted{version, tag, steps}`
    /// record is durable strictly before the swap takes effect, so a crash
    /// can never observe a promoted model the log does not know how to
    /// restore; that needs `source` to be a [`SlotSource::Checkpoint`]
    /// (written *before* this call) — any other source is refused, typed,
    /// with nothing logged and no version consumed. Without a WAL this
    /// cannot fail. Sharded installs call it per shard after *every* shard's
    /// prepare succeeded.
    pub fn commit_install(
        &self,
        prepared: PreparedInstall,
        source: SlotSource,
    ) -> Result<ModelVersion, ServeError> {
        let mut installed = lock(&self.installed);
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
        self.swap_in(&mut installed, prepared, version);
        Ok(version)
    }

    /// Re-installs the previously displaced model under a **new** version
    /// ([`Lineage::demote`]; version numbers never repeat — a demotion is
    /// itself a swap, with the same pinning, memo-staleness and
    /// logged-before-visible guarantees). Returns the new version, or
    /// `Ok(None)` when there is no previous model to demote to. A failed
    /// prepare (injected swap fault) or a refused WAL append leaves the
    /// history intact for a retry.
    pub fn demote(&self) -> Result<Option<ModelVersion>, ServeError> {
        let mut installed = lock(&self.installed);
        let target = installed.lineage.history.last();
        let Some(previous) =
            target.and_then(|(_, v)| installed.retired.iter().find(|s| s.version == *v))
        else {
            return Ok(None);
        };
        let prepared = self.prepare_install(previous.model.clone())?;
        self.log_durably(&WalRecord::Demoted {
            new_version: installed.lineage.next_version,
        })?;
        let version = installed
            .lineage
            .demote()
            .expect("the demotion target was found under this lock");
        self.swap_in(&mut installed, prepared, version);
        Ok(Some(version))
    }

    /// Appends `record` and waits until it is durable; a no-op without a
    /// WAL.
    fn log_durably(&self, record: &WalRecord) -> Result<(), ServeError> {
        if let Some(wal) = &self.wal {
            wal.append_durable(record).map_err(wal_to_serve)?;
        }
        Ok(())
    }

    /// Swaps the slot pointer to `prepared` serving as `version` — the
    /// version a [`Lineage`] transition just allocated — and keeps exactly
    /// the weights the lineage's history still names.
    fn swap_in(&self, installed: &mut Installed, prepared: PreparedInstall, version: ModelVersion) {
        let fresh = Arc::new(ModelSlot {
            model: prepared.model,
            version,
        });
        let displaced = {
            let mut slot = self.slot.write().unwrap_or_else(|p| p.into_inner());
            std::mem::replace(&mut *slot, fresh)
        };
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
        let mut installed = lock(&self.installed);
        *self.slot.write().unwrap_or_else(|p| p.into_inner()) = current;
        *installed = Installed { lineage, retired };
        Ok(dropped)
    }

    /// A consistent capture of the model lineage (demotion history,
    /// incumbent, next version), each slot paired with its reload source.
    pub fn lineage(&self) -> Lineage {
        lock(&self.installed).lineage.clone()
    }

    /// An atomically consistent capture of everything a serving snapshot
    /// persists: the full insert log, the model lineage, and the WAL
    /// position the capture is current as of. Holding `write_order` +
    /// `installed` together pins the log: no rating, promotion, or
    /// demotion record can land between reading the state and reading
    /// `next_lsn`, so replaying records at LSN ≥ the returned position on
    /// top of the capture reconstructs any later state exactly. (Holdout
    /// marks and barriers are the online loop's records; `crate::durable`
    /// holds the loop's state lock around this call to pin those too.)
    pub(crate) fn durable_capture(&self) -> (Vec<Rating>, Lineage, u64) {
        let _write = lock(&self.write_order);
        let installed = lock(&self.installed);
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

    /// Circuit-breaker state, if a breaker is configured.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.breaker.as_ref().map(CircuitBreaker::state)
    }

    /// Circuit-breaker counters, if a breaker is configured.
    pub fn breaker_stats(&self) -> Option<BreakerStats> {
        self.breaker.as_ref().map(CircuitBreaker::stats)
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
        let invalidated = self.invalidate_cached_edge(rating.user, rating.item);
        // The fsync wait happens outside the write-order lock (group commit
        // batches many waiters under one fsync). A failed commit means the
        // write is *not acknowledged*: the record may or may not survive a
        // crash, which is exactly the unacked contract.
        if let (Some(wal), Some(lsn)) = (&self.wal, logged) {
            wal.commit(lsn).map_err(wal_to_serve)?;
        }
        Ok(invalidated)
    }

    /// Invalidates every cached context whose block contains `user` or
    /// `item`, without touching the graph. This is the broadcast half of a
    /// sharded insert: the owning shard commits the edge to *its* graph,
    /// every other shard drops the cached blocks (including hot-key
    /// replicas) the edge touches. Returns the number of entries removed.
    pub fn invalidate_cached_edge(&self, user: usize, item: usize) -> usize {
        lock(&self.cache).invalidate_edge(user, item)
    }

    /// Exports the cached context (and memo, version-stamped) for a query,
    /// without perturbing LRU order or hit/miss telemetry — the read side
    /// of hot-key replication.
    pub fn export_cached(&self, user: usize, item: usize) -> Option<ExportedContext> {
        let key = self.cache_key(user, item);
        lock(&self.cache).peek(&key)
    }

    /// Adopts a context sampled by another shard into this engine's cache,
    /// re-stamping the memoized prediction if one was exported with it.
    /// The adopting shard would have sampled the bit-identical context
    /// itself (sampling is a pure function of `(seed, user, item)` and the
    /// shards share the engine seed), so this is a cache warm-up, not a
    /// semantic change; rating-edge invalidation broadcasts drop the
    /// replica along with native entries.
    ///
    /// A context that does not contain the `(user, item)` cell is refused
    /// and nothing is cached: no forward over it could answer the query,
    /// so caching it would fail every later batch that touches the pair.
    pub fn adopt_context(
        &self,
        user: usize,
        item: usize,
        ctx: Arc<PredictionContext>,
        memo: Option<(ModelVersion, f32)>,
    ) -> Result<(), ServeError> {
        if ctx.user_row(user).is_none() || ctx.item_col(item).is_none() {
            return Err(invalid(format!(
                "adopted context does not contain the cell of query ({user}, {item})"
            )));
        }
        let key = self.cache_key(user, item);
        let mut cache = lock(&self.cache);
        cache.insert(key.clone(), ctx.clone());
        if let Some((version, value)) = memo {
            cache.store_prediction(&key, &ctx, version, value);
        }
        Ok(())
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
            let mut rng =
                StdRng::seed_from_u64(context_seed(self.config.seed, query.user, query.item));
            // The query cell is target-masked, so its placeholder value
            // never reaches the model input.
            let placeholder = Rating::new(query.user, query.item, self.dataset.min_rating);
            let ctx = test_context_with_ratio(
                &pinned,
                &NeighborhoodSampler,
                &[placeholder],
                self.config.context_users,
                self.config.context_items,
                self.config.keep_ratio,
                &mut rng,
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
        let stats = batch
            .counts
            .entry(self.scenario_of(q.user, q.item))
            .or_default();
        let (served_by, counter) = match rung {
            Rung::Memo => (ServedBy::Cache, &mut stats.cache),
            Rung::Model => (ServedBy::Model, &mut stats.model),
            Rung::Hybrid => (ServedBy::Hybrid, &mut stats.hybrid),
            Rung::EntityMean(reason) => {
                *match reason {
                    DegradeReason::Deadline => &mut stats.deadline_degraded,
                    DegradeReason::Breaker => &mut stats.breaker_degraded,
                    DegradeReason::Failure(_) => &mut stats.failure_degraded,
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

    /// Whether a group gets the model rung — the one reader of the deadline
    /// budget and the breaker's admission. A spent budget turns it away (no
    /// forward is affordable, and nothing is ever silently late); so does a
    /// refusing breaker, open or half-open with its probes in flight.
    /// Otherwise the group holds one breaker admission. The model rung asks
    /// again before each retry.
    fn enter(&self, deadline: Option<Instant>) -> Result<(), DegradeReason> {
        if deadline.is_some_and(|d| d <= Instant::now()) {
            return Err(DegradeReason::Deadline);
        }
        match &self.breaker {
            Some(breaker) if !breaker.admit() => Err(DegradeReason::Breaker),
            _ => Ok(()),
        }
    }

    /// One guarded model forward over a same-shape group
    /// ([`sites::ENGINE_FORWARD`]): deadline-aware, output-shape validated.
    /// `Ok(None)` means the deadline budget ran out.
    fn forward_attempt(
        &self,
        slot: &ModelSlot,
        refs: &[&PredictionContext],
        deadline: Option<Instant>,
    ) -> Result<Option<Vec<NdArray>>, ServeError> {
        let preds = self.guarded(sites::ENGINE_FORWARD, "model forward", |fired| {
            let mut preds = slot
                .model
                .forward_nograd_batch_within(refs, &self.dataset, deadline)
                .map_err(ServeError::Model)?;
            if let (Some(FaultKind::WrongShape), Some(preds)) = (fired, &mut preds) {
                // Chaos `WrongShape`: the "model" loses one output.
                preds.pop();
            }
            Ok(preds)
        })?;
        match preds {
            Some(preds) if preds.len() != refs.len() => Err(invalid(format!(
                "model returned {} predictions for {} contexts",
                preds.len(),
                refs.len()
            ))),
            preds => Ok(preds),
        }
    }

    /// The model rung: up to `retry_attempts` guarded forwards with seeded
    /// jittered backoff between them. The first attempt runs on the
    /// admission [`ServeEngine::enter`] granted the group; each retry asks
    /// again. Every attempt settles its admission with the breaker: an
    /// answer or an error is an outcome; a deadline that ran out inside the
    /// forward is not a model failure, so the admission is forfeited
    /// without one and the rung stops (an earlier attempt's error, if any,
    /// stays the result).
    fn model_rung(
        &self,
        slot: &ModelSlot,
        refs: &[&PredictionContext],
        deadline: Option<Instant>,
        backoff_seed: u64,
    ) -> Result<Option<Vec<NdArray>>, ServeError> {
        let mut backoff = Backoff::new(self.resilience.retry_backoff.clone(), backoff_seed);
        let mut outcome = Ok(None);
        for attempt in 0..self.resilience.retry_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff.next_delay());
                if self.enter(deadline).is_err() {
                    break;
                }
            }
            let attempted = self.forward_attempt(slot, refs, deadline);
            if let Some(breaker) = &self.breaker {
                match &attempted {
                    Ok(Some(_)) => breaker.record(true),
                    Ok(None) => breaker.forfeit(),
                    Err(_) => breaker.record(false),
                }
            }
            match attempted {
                Ok(None) => break,
                Err(e) => outcome = Err(e),
                answered => return answered,
            }
        }
        outcome
    }

    /// Walks one group of same-shape contexts down the ladder until a rung
    /// has answered every waiter, or the walk is refused.
    fn descend(
        &self,
        slot: &ModelSlot,
        group: &[&PendingQuery],
        deadline: Option<Instant>,
        backoff_seed: u64,
        batch: &mut Batch,
    ) -> Result<(), ServeError> {
        let refs: Vec<&PredictionContext> = group.iter().map(|p| &*p.ctx).collect();
        let reason = match self.enter(deadline) {
            Err(reason) => reason,
            Ok(()) => match self.model_rung(slot, &refs, deadline, backoff_seed) {
                Ok(Some(preds)) => return self.scatter(group, &preds, batch),
                Ok(None) => DegradeReason::Deadline,
                Err(e) => DegradeReason::Failure(e),
            },
        };
        let waiters: Vec<usize> = group
            .iter()
            .flat_map(|p| p.waiters.iter().copied())
            .collect();
        self.refuse_or_degrade(&waiters, reason, batch)
    }

    /// Scatters one group's model-rung output to the batch positions
    /// waiting on it, and memoizes it.
    fn scatter(
        &self,
        group: &[&PendingQuery],
        preds: &[NdArray],
        batch: &mut Batch,
    ) -> Result<(), ServeError> {
        for (pred, PendingQuery { key, ctx, waiters }) in preds.iter().zip(group) {
            let (row, col) = query_cell(key, ctx)?;
            let value = pred.at(&[row, col]);
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
        Ok(())
    }

    /// What happens to `positions` once the model rung is out, for
    /// `reason` — the one reader of [`ResilienceConfig::fallback`]. Without
    /// it the walk is refused with the reason's typed error: an exhausted
    /// budget is [`ServeError::DeadlineExceeded`], a refusing breaker
    /// [`ServeError::CircuitOpen`], a failed rung its own error. With it
    /// the ladder's tail answers, always: the hybrid predictor if one is
    /// installed and healthy behind its guard
    /// ([`sites::HYBRID_FORWARD`]; it needs no context), else graph
    /// statistics.
    fn refuse_or_degrade(
        &self,
        positions: &[usize],
        reason: DegradeReason,
        batch: &mut Batch,
    ) -> Result<(), ServeError> {
        if !self.resilience.fallback {
            return Err(match reason {
                DegradeReason::Deadline => ServeError::DeadlineExceeded,
                DegradeReason::Breaker => ServeError::CircuitOpen,
                DegradeReason::Failure(e) => e,
            });
        }
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
        Ok(())
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

    /// Answers every query of `batch`: the memo fast path while contexts
    /// resolve, then one descent per group of same-shape contexts.
    fn walk(
        &self,
        slot: &ModelSlot,
        deadline: Option<Instant>,
        batch: &mut Batch,
    ) -> Result<(), ServeError> {
        // Deduplicate the batch: coalesced traffic is skewed, so one
        // forward per distinct (user, item) answers every duplicate. The
        // memo fast-path skips the forward entirely for contexts whose
        // prediction was already computed and not invalidated since.
        let mut pending: BTreeMap<(usize, usize), PendingQuery> = BTreeMap::new();
        let queries = batch.queries;
        for (i, q) in queries.iter().enumerate() {
            if let Some(p) = pending.get_mut(&(q.user, q.item)) {
                p.waiters.push(i);
                continue;
            }
            // Range violations are caller bugs and always surface; any
            // *other* resolution failure (injected fault, sampling error,
            // panic) leaves the query without a context, so the model
            // rung is unreachable for it — but the hybrid rung needs none.
            self.check_range(q)?;
            match self.resolve(batch.version, q) {
                Ok((_, _, Some(memo))) => self.answer(batch, i, memo, Rung::Memo),
                Ok((key, ctx, None)) => {
                    let waiters = vec![i];
                    pending.insert((q.user, q.item), PendingQuery { key, ctx, waiters });
                }
                Err(e) => self.refuse_or_degrade(&[i], DegradeReason::Failure(e), batch)?,
            }
        }
        // Group same-shape contexts into one stacked forward each; the
        // sampler may return fewer rows/columns than budgeted on tiny
        // graphs, so shapes can differ across queries.
        let mut groups: BTreeMap<(usize, usize), (usize, Vec<&PendingQuery>)> = BTreeMap::new();
        for (k, p) in pending.values().enumerate() {
            let shape = (p.ctx.n(), p.ctx.m());
            groups.entry(shape).or_insert((k, Vec::new())).1.push(p);
        }
        for (first, group) in groups.values() {
            // The model rung's retry jitter is seeded per group.
            let backoff_seed = context_seed(self.config.seed ^ 0xBACC0FF, group.len(), *first);
            self.descend(slot, group, deadline, backoff_seed, batch)?;
        }
        Ok(())
    }
}

/// A deduplicated query awaiting a forward: its cache key, resolved
/// context, and the positions in the incoming batch waiting on the answer.
struct PendingQuery {
    key: CacheKey,
    ctx: Arc<PredictionContext>,
    waiters: Vec<usize>,
}

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
        // Pin the incumbent once for the whole batch: every attempt, memo
        // read/write, and answer below uses this slot, so a hot swap that
        // lands mid-batch never mixes model versions within a batch.
        let slot = self.current_model();
        let mut batch = Batch {
            queries,
            version: slot.version,
            out: vec![None; queries.len()],
            counts: BTreeMap::new(),
        };
        let walked = self.walk(&slot, deadline, &mut batch);
        // Count before replying — what a refused walk answered on its way
        // included — so a caller that has its reply also sees it counted.
        {
            let mut tiers = lock(&self.tiers);
            for (scenario, counted) in &batch.counts {
                tiers
                    .entry((batch.version, *scenario))
                    .or_default()
                    .absorb(counted);
            }
        }
        walked?;
        collect_answers(batch.out)
    }
}

/// The cell of a forward's `[n, m]` output that answers `key`'s query.
/// Resolution and [`ServeEngine::adopt_context`] only ever cache contexts
/// that contain it, so a miss is a broken engine invariant: a typed
/// [`ServeError::Internal`], whichever rung ran the forward.
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

/// Final collection rung: every position must have been answered by some
/// tier above. A hole means an engine invariant broke; it surfaces as a
/// typed [`ServeError::Internal`] so one bad batch degrades a reply
/// instead of killing a serving worker.
fn collect_answers(out: Vec<Option<Answer>>) -> Result<Vec<Answer>, ServeError> {
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

    /// Regression: `adopt_context` used to cache any context unvalidated,
    /// and one lacking the query's cell then failed every later batch that
    /// touched the pair — the whole batch, fallback or not, with an error
    /// type that depended on the rung. It is refused at the door now, and
    /// the scatter's invariant check is one typed `Internal` for any rung.
    #[test]
    fn context_without_the_query_cell_is_refused_not_cached() {
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

        let err = engine
            .adopt_context(q.user, q.item, foreign.clone(), None)
            .expect_err("a context without the query cell must be refused");
        assert!(matches!(err, ServeError::Model(_)), "got {err:?}");
        assert!(engine.export_cached(q.user, q.item).is_none());
        let answers = engine
            .predict_batch_tagged(&[q, other], None)
            .expect("the refused context must not poison the batch");
        assert!(answers.iter().all(|a| a.served_by == ServedBy::Model));

        let own = engine.context_for(&q).expect("cached by the batch above");
        engine
            .adopt_context(q.user, q.item, own, None)
            .expect("a context that holds the cell is adopted");

        match query_cell(&engine.cache_key(q.user, q.item), &foreign) {
            Err(ServeError::Internal { detail }) => {
                assert!(detail.contains("(1, 2)"), "detail: {detail}")
            }
            other => panic!("expected ServeError::Internal, got {other:?}"),
        }
    }
}
