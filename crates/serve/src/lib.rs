//! # hire-serve
//!
//! Online inference for the HIRE reproduction — the first subsystem of the
//! repo that never builds an autograd tape. Five layers, and the sharded
//! engine over them:
//!
//! - [`FrozenModel`] (re-exported from `hire-core`) — a trained
//!   [`hire_core::HireModel`] exported to plain [`hire_tensor::NdArray`]
//!   weights (or loaded from a `hire-ckpt` snapshot), with the tape-free
//!   forward that is bit-identical to the live model: one context at a
//!   time, a batch being a loop over its contexts that checks a deadline
//!   before each one. The forward is written once, in `hire-core`.
//!   [`QuantizedModel`] (re-exported too) is a [`FrozenModel`] whose
//!   weights were rounded through int8 when it was built — a library type
//!   the engine does not serve.
//! - [`ContextCache`] — a capacity-bounded LRU memoizing sampled
//!   [`hire_data::PredictionContext`]s per `(user, item, strategy, n, m)`
//!   key, with explicit invalidation when new rating edges arrive.
//! - [`ServeEngine`] — glues frozen model, dataset, rating graph, sampler
//!   and cache into a [`Predictor`]: resolve context (cache or sample),
//!   forward the batch's misses — wrapped in the
//!   four-rung degradation ladder (DESIGN.md §10): the prediction memo,
//!   the model tier (per-batch deadlines, one forward per batch behind a
//!   `CircuitBreaker`), a trained [`hire_core::HybridModel`]
//!   mid-tier, and a graph-statistics fallback predictor. Every [`Answer`]
//!   is tagged with the tier that produced it ([`ServedBy`]).
//! - `CircuitBreaker` — sliding-window failure-rate breaker
//!   (closed / open / half-open) that sheds model-tier load when the
//!   frozen forward is misbehaving.
//! - [`Server`] — a micro-batching worker pool: queries enter a bounded
//!   queue (optionally with per-query deadline budgets) and each answer
//!   comes back through a one-shot reply slot its [`PredictionHandle`]
//!   waits on; a free worker takes what is queued (at most `max_batch`,
//!   never waiting for more) and runs it as one batch under the tightest
//!   deadline in it, on `workers` threads, with bounded-queue backpressure
//!   ([`ServeError::Overloaded`]), panic isolation
//!   ([`ServeError::WorkerLost`]) and typed deadline replies
//!   ([`ServeError::DeadlineExceeded`]).
//! - [`ShardedEngine`] — N [`ServeEngine`] shards by hash of the seed user
//!   behind one [`Predictor`], the single engine being its 1-shard case
//!   (DESIGN.md §14): every query and write on its user's owner shard,
//!   one model slot and lineage for all shards, owned by shard 0, one WAL
//!   per shard under a manifest ([`ShardedEngine::with_wal_root`]).
//!
//! A sixth layer closes the loop from serving back to training:
//! [`OnlineLoop`] fine-tunes a copy of the serving model on freshly
//! inserted ratings in a crash-isolated round that its caller runs on its
//! own cadence, scores the candidate against the incumbent on a held-out
//! slice (overall and per cold-start scenario — [`ColdScenario`]), and
//! promotes only non-regressing candidates via an atomic versioned hot swap
//! ([`ServeEngine::install_model`], [`ModelSlot`], [`ModelVersion`]).
//! Promotions and demotions are transitions of one [`Lineage`]; with a
//! write-ahead log attached they are logged before they take effect, and
//! [`recover`] replays the same transitions ([`fold_log`], then one
//! private rebuild that [`recover_sharded`] runs too, over one log a
//! shard) to rebuild an engine that answers bit-identically to one that
//! never crashed (DESIGN.md §15).
//!
//! Fault injection for all of the above lives in the `hire-chaos` crate;
//! the serve sites are `server.batch`, `engine.resolve`, `engine.forward`,
//! `hybrid.forward`, `ckpt.decode` (see `tests/chaos.rs`)
//! and the online sites `trainer.step`, `online.shadow_eval`,
//! `online.swap` (see `tests/online_chaos.rs`).

mod breaker;
mod cache;
mod durable;
mod engine;
mod online;
mod server;
mod sharded;

pub use breaker::{BreakerConfig, BreakerState, BreakerStats};
pub use cache::{CacheKey, CacheStats, CachedContext, ContextCache};
pub use durable::{
    fold_log, recover, recover_sharded, write_snapshot, LogFold, Recovered, RecoveredShards,
    SERVING_TAG,
};
pub use engine::{
    ColdScenario, EngineConfig, Lineage, ModelSlot, ServeEngine, SlotSource, TierStats,
};
pub use hire_core::{FrozenModel, QuantizedModel};
pub use online::{
    EvalReport, OnlineConfig, OnlineLoop, RoundOutcome, ScenarioEval, CANDIDATE_TAG, REJECTED_TAG,
};
pub use server::{
    Answer, ModelVersion, Prediction, PredictionHandle, Predictor, RatingQuery, ServeError,
    ServedBy, Server, ServerConfig, ServerStats,
};
pub use sharded::{HotKeyStats, ShardConfig, ShardStats, ShardedEngine};
