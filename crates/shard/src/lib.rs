//! # hire-shard
//!
//! Horizontal scaling for the HIRE serving stack (DESIGN.md §14): a
//! [`ShardedEngine`] partitions queries across N inner
//! [`hire_serve::ServeEngine`] shards by hash of the seed user — the
//! natural unit for the paper's neighborhood-context workload, since a
//! query's BFS context is seeded at its user. Each shard owns its slice of
//! the context-cache key space, its own circuit breaker and degradation
//! ladder, and its own copy-on-write, epoch-pinned graph
//! (`hire_graph::EpochedGraph`) started from one shared base snapshot.
//!
//! Every query and every write goes to its user's owner shard, so a user's
//! answers see that user's writes: `insert_rating` commits to the owner
//! shard alone. A batch adds routing and nothing else: each shard takes
//! the engine's own walk (`ServeEngine::answer_owned`) over the positions
//! it owns, into one set of answer slots that `hire_serve::collect_answers`
//! collects once — the 1-shard engine is the single engine. The model is engine-wide: shard 0 owns the one incumbent
//! slot and its lineage, the other shards follow it, and a batch pins the
//! slot once — so a batch answers under one `ModelVersion`, and
//! `install_model` / `demote` are one swap, logged once in shard 0's WAL.
//!
//! Every shard shares one sampling seed and one base graph, so a
//! fault-free prediction for a given `(user, item)` is bit-identical at
//! every shard count up to the first write. A shard then sees the base
//! graph plus its own users' writes: a user's answers still equal a
//! 1-shard engine's that took the same writes when those writes are the
//! user's own. `tests/sharding.rs` locks both down.

mod engine;
mod recovery;

pub use engine::{HotKeyStats, ShardConfig, ShardStats, ShardedEngine};
pub use recovery::{recover_sharded, RecoveredShards};
