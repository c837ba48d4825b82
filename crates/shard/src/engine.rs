//! The sharded serving engine: N inner [`ServeEngine`]s behind one
//! [`Predictor`].

use crate::recovery::open_root;
use hire_core::HybridModel;
use hire_data::Dataset;
use hire_error::{HireError, HireResult};
use hire_graph::{BipartiteGraph, Rating};
use hire_serve::{
    collect_answers, Answer, CacheStats, EngineConfig, FrozenModel, ModelVersion, Predictor,
    RatingQuery, ServeEngine, ServeError, SlotSource, TierStats,
};
use hire_wal::WalOptions;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sharding settings.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of inner engines (minimum 1).
    pub shards: usize,
}

impl ShardConfig {
    /// `shards` engines.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig { shards }
    }
}

/// Per-shard observability snapshot.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Queries routed to this shard since construction.
    pub routed: u64,
    /// The shard's degradation-ladder counters.
    pub tiers: TierStats,
    /// The shard's context-cache counters.
    pub cache: CacheStats,
}

/// Vestigial: what [`ShardedEngine::hot_key_stats`] returns. The type
/// stays only because the frozen `benchmark/` package reads it.
#[derive(Debug, Clone, Copy, Default)]
pub struct HotKeyStats {
    /// Always 0: every query answers on its user's owner shard.
    pub hot_routed: u64,
}

/// SplitMix64 mix for shard routing. Depends only on the user index, so
/// a user's queries always land on one shard (its cache partition) no
/// matter the batch composition or history.
fn mix_user(user: usize) -> u64 {
    let mut z = (user as u64).wrapping_add(0x5348_4152_4448_4952); // "SHARDHIR"
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// N hash-partitioned [`ServeEngine`] shards behind one [`Predictor`].
///
/// - **Partitioning.** Queries route by hash of the seed user, so each
///   shard's `ContextCache` holds a disjoint slice of the key space and the
///   per-engine mutexes (cache, stats) stop being global chokepoints.
///   Every shard starts from the *same* `Arc`'d base graph (one set of
///   adjacency chunks) wrapped in its own epoch-pinned copy-on-write
///   `hire_graph::EpochedGraph`.
/// - **Writes.** [`ShardedEngine::insert_rating`] commits the edge to the
///   owner shard only — its graph and its cache. Other shards keep serving
///   their pinned snapshots, unblocked; none of them answers the writing
///   user, and none holds a context sampled from the owner's graph.
/// - **Model.** One incumbent slot and one lineage for the whole engine,
///   owned by shard 0; shards 1..N are its [`ServeEngine::follower`]s and
///   hold no weights of their own. A batch pins the slot once and every
///   shard's walk answers on that pin, so a batch answers under one
///   version.
/// - **Batches.** Each shard walks the whole batch in shard order and
///   answers the positions it owns ([`ServeEngine::answer_owned`]) into
///   one set of answer slots, collected once by
///   [`hire_serve::collect_answers`] — the end of a `ServeEngine` batch
///   too, so at one shard the two are one engine.
///   [`ShardedEngine::install_model`] and [`ShardedEngine::demote`] are
///   one swap on shard 0 — its `online.swap` chaos site, its log.
///
/// All shards share one `EngineConfig` — in particular the sampling seed —
/// and one base graph, so up to the first write a fault-free prediction
/// for a given `(user, item)` is bit-identical at every shard count. After
/// writes a shard sees the base graph plus its own users' writes, so a
/// user's answers still equal a 1-shard engine's that took the same
/// writes when those writes are the user's own.
pub struct ShardedEngine {
    shards: Vec<ServeEngine>,
    routed: Vec<AtomicU64>,
}

impl ShardedEngine {
    /// Builds a sharded engine over the dataset's rating graph.
    pub fn new(
        model: FrozenModel,
        dataset: Arc<Dataset>,
        engine_config: EngineConfig,
        shard_config: ShardConfig,
    ) -> Self {
        let graph = Arc::new(dataset.graph());
        Self::with_shared_graph(model, dataset, graph, engine_config, shard_config)
    }

    /// [`ShardedEngine::new`] over an explicit starting graph, shared by
    /// every shard (copy-on-write divergence begins at each shard's first
    /// committed insert).
    pub fn with_shared_graph(
        model: FrozenModel,
        dataset: Arc<Dataset>,
        graph: Arc<BipartiteGraph>,
        engine_config: EngineConfig,
        shard_config: ShardConfig,
    ) -> Self {
        let owner =
            ServeEngine::with_shared_graph(model, dataset, Arc::clone(&graph), engine_config);
        let followers: Vec<ServeEngine> = (1..shard_config.shards.max(1))
            .map(|_| owner.follower(Arc::clone(&graph), &[]))
            .collect();
        Self::from_shards(std::iter::once(owner).chain(followers).collect())
    }

    /// Wraps already-built shard engines, shard 0 the lineage's owner and
    /// the rest its followers (construction, and recovery — where each
    /// shard was rebuilt from its own log).
    pub(crate) fn from_shards(shards: Vec<ServeEngine>) -> Self {
        ShardedEngine {
            routed: shards.iter().map(|_| AtomicU64::new(0)).collect(),
            shards,
        }
    }

    /// Installs a hybrid mid-tier on every shard (builder style).
    pub fn with_hybrid(mut self, hybrid: HybridModel) -> Self {
        self.shards = self
            .shards
            .into_iter()
            .map(|e| e.with_hybrid(hybrid.clone()))
            .collect();
        self
    }

    /// Installs one chaos plan per shard (builder style). Separate plans —
    /// typically derived seeds — keep each shard's per-site arrival
    /// counters independent, so a fault schedule replays per shard no
    /// matter how concurrent batches interleave. Only shard 0's
    /// `online.swap` site fires: installs and demotions go through it.
    pub fn with_faults(mut self, plans: Vec<Arc<hire_chaos::FaultPlan>>) -> Self {
        assert_eq!(
            plans.len(),
            self.shards.len(),
            "one fault plan per shard required"
        );
        self.shards = self
            .shards
            .into_iter()
            .zip(plans)
            .map(|(e, p)| e.with_faults(p))
            .collect();
        self
    }

    /// Attaches a **fresh** sharded write-ahead log rooted at `root`
    /// (builder style): writes (or validates) the `MANIFEST` naming the
    /// shard count, opens one log per shard under `root/shard-NNN/`, and
    /// attaches each to its engine — from here on every shard's
    /// `insert_rating` appends before acking, and shard 0's log records
    /// every promotion and demotion, once.
    ///
    /// "Fresh" is enforced: a root whose logs already hold records needs
    /// [`crate::recovery::recover_sharded`], which replays them — opening
    /// it here would silently serve without the logged state.
    pub fn with_wal_root(mut self, root: &Path, opts: WalOptions) -> HireResult<Self> {
        let logs = open_root(root, self.shards.len(), opts, true)?;
        let held = logs.iter().map(|(_, recovery)| recovery.records.len());
        if let Some((idx, held)) = held.enumerate().find(|&(_, held)| held > 0) {
            return Err(HireError::invalid_data(
                "ShardedEngine",
                format!(
                    "shard {idx}'s log already holds {held} records; use recover_sharded \
                     to replay them instead of attaching over them"
                ),
            ));
        }
        self.shards = self
            .shards
            .into_iter()
            .zip(logs)
            .map(|(e, (wal, _))| e.with_wal(wal))
            .collect();
        Ok(self)
    }

    /// The inner engines, for per-shard inspection.
    pub fn shard_engines(&self) -> &[ServeEngine] {
        &self.shards
    }

    /// The owner shard of a user.
    pub fn shard_of(&self, user: usize) -> usize {
        (mix_user(user) % self.shards.len() as u64) as usize
    }

    /// The serving model version, one for every shard.
    pub fn version(&self) -> ModelVersion {
        self.shards[0].version()
    }

    /// Per-shard observability snapshots, indexed by shard.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(s, e)| ShardStats {
                routed: self.routed[s].load(Ordering::Relaxed),
                tiers: e.tier_stats(),
                cache: e.cache_stats(),
            })
            .collect()
    }

    /// Vestigial: always `HotKeyStats { hot_routed: 0 }`. It stays only
    /// because the frozen `benchmark/` package calls it.
    pub fn hot_key_stats(&self) -> HotKeyStats {
        HotKeyStats::default()
    }

    /// Max-over-mean routed load across shards (1.0 = perfectly even).
    /// `tests/sharding.rs` bounds this at 2.0 under zipf skew.
    pub fn balance(&self) -> f64 {
        let loads: Vec<u64> = self
            .routed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / loads.len() as f64;
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        max / mean
    }

    /// Inserts a rating on the user's owner shard, which commits the edge
    /// to its graph (copy-on-write — no other shard's pinned snapshots are
    /// touched or blocked) and drops the cached contexts it touches. No
    /// other shard's cache can hold a context sampled from the owner's
    /// graph, so there is nothing to invalidate there. Returns the number
    /// of invalidated cache entries.
    pub fn insert_rating(&self, rating: Rating) -> Result<usize, ServeError> {
        self.shards[self.shard_of(rating.user)].insert_rating(rating)
    }

    /// Installs `model` as every shard's incumbent under one fresh version
    /// — one [`ServeEngine::install_model`] on shard 0, which owns the
    /// lineage: its `online.swap` chaos site, and with write-ahead logs
    /// attached its log alone records the promotion (so `source` must be
    /// the [`SlotSource::Checkpoint`] holding the weights). A failure
    /// leaves every shard on the incumbent.
    pub fn install_model(
        &self,
        model: FrozenModel,
        source: SlotSource,
    ) -> Result<ModelVersion, ServeError> {
        self.shards[0].install_model(model, source)
    }

    /// Re-installs the previously displaced model on every shard under a
    /// new version — one [`ServeEngine::demote`] on shard 0. `Ok(None)`
    /// when there is no previous model.
    pub fn demote(&self) -> Result<Option<ModelVersion>, ServeError> {
        self.shards[0].demote()
    }
}

impl Predictor for ShardedEngine {
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
        // Pin the one model slot once: every shard's walk answers on it, so
        // a swap that lands mid-batch never mixes versions across shards.
        let slot = self.shards[0].current_model();
        let mut out = vec![None; queries.len()];
        // Every shard walks the batch in shard order on the calling thread
        // — the server worker that took it — answering the positions it
        // owns. Parallelism lives one level up, in the server's workers;
        // the engines and kernels have none. Every shard runs; the
        // lowest-indexed failing shard's error is the batch's (a
        // deterministic pick), which the server turns into exactly one
        // typed reply per submitted query, as for a single engine.
        let mut walked = Ok(());
        for (s, shard) in self.shards.iter().enumerate() {
            let mut owned = 0;
            let owns = |q: &RatingQuery| {
                let mine = self.shard_of(q.user) == s;
                owned += u64::from(mine);
                mine
            };
            let shard_walked = shard.answer_owned(&slot, queries, owns, deadline, &mut out);
            self.routed[s].fetch_add(owned, Ordering::Relaxed);
            walked = walked.and(shard_walked);
        }
        walked?;
        collect_answers(out)
    }
}
