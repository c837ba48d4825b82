//! # hire-serve
//!
//! Online inference for the HIRE reproduction — the first subsystem of the
//! repo that never builds an autograd tape. Five layers:
//!
//! - [`FrozenModel`] — a trained [`hire_core::HireModel`] exported to plain
//!   [`hire_tensor::NdArray`] weights (or loaded from a `hire-ckpt`
//!   snapshot), with a tape-free forward that is bit-identical to the live
//!   model, a batched variant for micro-batching, and a deadline-aware
//!   variant that abandons work for queries that already timed out. The
//!   forward itself is written once, in the private `him` module, generic
//!   over the weight storage format ([`hire_tensor::WeightMatrix`]);
//!   [`FrozenModel`] and [`QuantizedModel`] are its f32 and int8
//!   instances, so neither has forward code of its own.
//! - [`ContextCache`] — a capacity-bounded LRU memoizing sampled
//!   [`hire_data::PredictionContext`]s per `(user, item, strategy, n, m)`
//!   key, with explicit invalidation when new rating edges arrive.
//! - [`ServeEngine`] — glues frozen model, dataset, rating graph, sampler
//!   and cache into a [`Predictor`]: resolve context (cache or sample),
//!   group same-shape queries, run one batched forward — wrapped in the
//!   four-rung degradation ladder (DESIGN.md §10): the prediction memo,
//!   the model tier (per-batch deadlines, a [`CircuitBreaker`],
//!   seeded-backoff retries), a trained [`hire_core::HybridModel`]
//!   mid-tier, and a graph-statistics fallback predictor. Every [`Answer`]
//!   is tagged with the tier that produced it ([`ServedBy`]).
//! - [`QuantizedModel`] — a [`FrozenModel`] with its weights stored as
//!   symmetric-per-tensor int8 (a field-wise map over them), expanded to
//!   f32 where they are read. A storage-format library type: the engine
//!   does not serve it.
//! - [`CircuitBreaker`] — sliding-window failure-rate breaker
//!   (closed / open / half-open) that sheds model-tier load when the
//!   frozen forward is misbehaving.
//! - [`Server`] — a micro-batching worker pool: queries are submitted over
//!   channels (optionally with per-query deadline budgets); a free worker
//!   takes what is queued (at most `max_batch`, never waiting for more)
//!   and runs it as one batch under the tightest deadline in it, on
//!   `workers` threads, with bounded-queue backpressure
//!   ([`ServeError::Overloaded`]), panic isolation
//!   ([`ServeError::WorkerLost`]) and typed deadline replies
//!   ([`ServeError::DeadlineExceeded`]).
//!
//! A sixth layer closes the loop from serving back to training:
//! [`OnlineLoop`] / [`OnlineTrainer`] fine-tune a copy of the serving
//! model on freshly inserted ratings in a crash-isolated background
//! thread, score the candidate against the incumbent on a held-out slice
//! (overall and per cold-start scenario — [`ColdScenario`]), and promote
//! only non-regressing candidates via an atomic versioned hot swap
//! ([`ServeEngine::install_model`], [`ModelSlot`], [`ModelVersion`]).
//! Promotions and demotions are transitions of one [`Lineage`]; with a
//! write-ahead log attached they are logged before they take effect, and
//! [`recover`] replays the same transitions ([`fold_log`] →
//! [`rebuild_engine`]) to rebuild an engine that answers bit-identically
//! to one that never crashed (DESIGN.md §15).
//!
//! Fault injection for all of the above lives in the `hire-chaos` crate;
//! the serve sites are `server.batch`, `engine.resolve`, `engine.forward`,
//! `hybrid.forward`, `ckpt.decode` (see `tests/chaos.rs`)
//! and the online sites `trainer.step`, `online.shadow_eval`,
//! `online.swap` (see `tests/online_chaos.rs`).

pub mod breaker;
pub mod cache;
pub mod durable;
pub mod engine;
pub mod frozen;
mod him;
pub mod online;
pub mod quant;
pub mod server;

pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker};
pub use cache::{CacheKey, CacheStats, CachedContext, ContextCache, ExportedContext};
pub use durable::{
    fold_log, rebuild_engine, recover, write_snapshot, LogFold, Recovered, SERVING_TAG,
};
pub use engine::{
    ColdScenario, EngineConfig, Lineage, ModelSlot, PreparedInstall, ResilienceConfig, ServeEngine,
    SlotSource, TierStats,
};
pub use frozen::FrozenModel;
pub use online::{
    EvalReport, OnlineConfig, OnlineLoop, OnlineTrainer, RoundOutcome, ScenarioEval, CANDIDATE_TAG,
    REJECTED_TAG,
};
pub use quant::QuantizedModel;
pub use server::{
    Answer, ModelVersion, Prediction, PredictionHandle, Predictor, RatingQuery, ServeError,
    ServedBy, Server, ServerConfig, ServerStats,
};
