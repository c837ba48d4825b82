//! The sharded serving engine: N inner [`ServeEngine`]s behind one
//! [`Predictor`].

use hire_core::HybridModel;
use hire_data::Dataset;
use hire_error::{HireError, HireResult};
use hire_graph::{BipartiteGraph, Rating};
use hire_serve::{
    Answer, CacheStats, EngineConfig, FrozenModel, ModelVersion, Predictor, RatingQuery,
    ResilienceConfig, ServeEngine, ServeError, SlotSource, TierStats,
};
use hire_wal::{shard_dir, ShardManifest, Wal, WalOptions};
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
    /// The shard's current model version.
    pub version: ModelVersion,
    /// The shard's graph epoch (commits observed by *this* shard).
    pub graph_epoch: u64,
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
/// - **Swaps.** [`ShardedEngine::install_model`] is two-phase: prepare
///   (validation, chaos site `online.swap`) on every shard,
///   then commit (log the promotion if a WAL is attached, pointer swap) on
///   every shard. Any prepare failure aborts the whole install with every
///   incumbent untouched, so shards never diverge in version.
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
        let shards = (0..shard_config.shards.max(1))
            .map(|_| {
                ServeEngine::with_shared_graph(
                    model.clone(),
                    Arc::clone(&dataset),
                    Arc::clone(&graph),
                    engine_config.clone(),
                )
            })
            .collect();
        Self::from_shards(shards)
    }

    /// Wraps already-built shard engines (construction, and recovery —
    /// where each shard was rebuilt from its own log).
    pub(crate) fn from_shards(shards: Vec<ServeEngine>) -> Self {
        ShardedEngine {
            routed: shards.iter().map(|_| AtomicU64::new(0)).collect(),
            shards,
        }
    }

    /// Applies a resilience config to every shard (builder style); each
    /// shard keeps its own breaker so one shard's misbehaving model tier
    /// does not trip the others.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.shards = self
            .shards
            .into_iter()
            .map(|e| e.with_resilience(resilience.clone()))
            .collect();
        self
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
    /// matter how concurrent batches interleave.
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
    /// `insert_rating` appends before acking, and
    /// [`ShardedEngine::install_model`] logs the promotion on every shard.
    ///
    /// "Fresh" is enforced: a root whose logs already hold records needs
    /// [`crate::recovery::recover_sharded`], which replays them — opening
    /// it here would silently serve without the logged state.
    pub fn with_wal_root(mut self, root: &Path, opts: WalOptions) -> HireResult<Self> {
        let n = self.shards.len();
        match ShardManifest::read(root).map_err(HireError::from)? {
            Some(manifest) if manifest.shards as usize != n => {
                return Err(HireError::invalid_data(
                    "ShardedEngine",
                    format!(
                        "WAL root {} is laid out for {} shards but this engine has {n}; \
                         changing the shard count requires a re-shard, not a reopen",
                        root.display(),
                        manifest.shards
                    ),
                ));
            }
            Some(_) => {}
            None => ShardManifest { shards: n as u32 }
                .write(root)
                .map_err(HireError::from)?,
        }
        let mut wals = Vec::with_capacity(n);
        for idx in 0..n {
            let (wal, recovery) =
                Wal::open(shard_dir(root, idx), opts.clone()).map_err(HireError::from)?;
            if !recovery.records.is_empty() {
                return Err(HireError::invalid_data(
                    "ShardedEngine",
                    format!(
                        "shard {idx}'s log already holds {} records; use recover_sharded \
                         to replay them instead of attaching over them",
                        recovery.records.len()
                    ),
                ));
            }
            wals.push(Arc::new(wal));
        }
        self.shards = self
            .shards
            .into_iter()
            .zip(wals)
            .map(|(e, w)| e.with_wal(w))
            .collect();
        Ok(self)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The inner engines, for per-shard inspection.
    pub fn shard_engines(&self) -> &[ServeEngine] {
        &self.shards
    }

    /// The owner shard of a user.
    pub fn shard_of(&self, user: usize) -> usize {
        (mix_user(user) % self.shards.len() as u64) as usize
    }

    /// The serving model version (asserted identical across shards).
    pub fn version(&self) -> ModelVersion {
        let v = self.shards[0].version();
        debug_assert!(
            self.shards.iter().all(|e| e.version() == v),
            "shards diverged in model version"
        );
        v
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
                version: e.version(),
                graph_epoch: e.graph_epoch(),
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

    /// Atomically installs `model` on every shard under one version:
    /// prepare everywhere, then commit everywhere
    /// ([`ServeEngine::prepare_install`] / [`ServeEngine::commit_install`]).
    /// A prepare failure — including an injected fault at the per-shard
    /// `online.swap` chaos site — aborts the whole install: no version is
    /// consumed, nothing is logged, every incumbent keeps serving, and the
    /// error is returned typed. On success all shards answer under the
    /// same new version.
    ///
    /// With write-ahead logs attached each shard's commit appends a durable
    /// `ModelPromoted` record first, so `source` must be the
    /// [`SlotSource::Checkpoint`] holding the weights — written *before*
    /// this call, or a crash after the first shard's append leaves a
    /// promotion no recovery can reload. A failure in that phase (e.g. one
    /// shard's disk refusing the fsync) returns the error with earlier
    /// shards already on the new version. The divergence is bounded and
    /// repairable: every shard's event log is a prefix of the longest one,
    /// and [`crate::recovery::recover_sharded`] rolls lagging shards forward
    /// to restore lockstep.
    pub fn install_model(
        &self,
        model: FrozenModel,
        source: SlotSource,
    ) -> Result<ModelVersion, ServeError> {
        let mut prepared = Vec::with_capacity(self.shards.len());
        for engine in &self.shards {
            prepared.push(engine.prepare_install(model.clone())?);
        }
        let mut first = None;
        for (engine, p) in self.shards.iter().zip(prepared) {
            let v = engine.commit_install(p, source.clone())?;
            assert_eq!(
                *first.get_or_insert(v),
                v,
                "shards diverged in model version after commit"
            );
        }
        Ok(first.expect("at least one shard"))
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
        // Partition positions per owner shard, preserving batch order
        // within each shard so per-shard answer streams are deterministic.
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, q) in queries.iter().enumerate() {
            per_shard[self.shard_of(q.user)].push(i);
        }
        for (s, positions) in per_shard.iter().enumerate() {
            self.routed[s].fetch_add(positions.len() as u64, Ordering::Relaxed);
        }
        // Every active shard answers its whole sub-batch (forwards
        // included) in shard order on the calling thread — the server
        // worker that took the batch. Parallelism lives one level up, in
        // the server's workers; the engines and kernels have none.
        let results: Vec<(usize, Result<Vec<Answer>, ServeError>)> = per_shard
            .iter()
            .enumerate()
            .filter(|(_, positions)| !positions.is_empty())
            .map(|(s, positions)| {
                let sub: Vec<RatingQuery> = positions.iter().map(|&i| queries[i]).collect();
                (s, self.shards[s].predict_batch_tagged(&sub, deadline))
            })
            .collect();
        let mut out: Vec<Option<Answer>> = vec![None; queries.len()];
        // Every active shard has run; surface the lowest-indexed failing
        // shard's error (deterministic pick): the server turns it into
        // exactly one typed reply per submitted query, same as a
        // single-engine batch failure.
        for (s, result) in results {
            let answers = result?;
            if answers.len() != per_shard[s].len() {
                return Err(ServeError::Internal {
                    detail: format!(
                        "shard {s} answered {} of {} queries",
                        answers.len(),
                        per_shard[s].len()
                    ),
                });
            }
            for (&i, answer) in per_shard[s].iter().zip(answers) {
                out[i] = Some(answer);
            }
        }
        let mut answers = Vec::with_capacity(out.len());
        for (i, a) in out.into_iter().enumerate() {
            match a {
                Some(a) => answers.push(a),
                None => {
                    return Err(ServeError::Internal {
                        detail: format!("query at batch position {i} was routed to no shard"),
                    })
                }
            }
        }
        Ok(answers)
    }
}
