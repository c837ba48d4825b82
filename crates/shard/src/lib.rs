//! # hire-shard
//!
//! A re-export, kept only for the frozen `benchmark/` package, which names
//! these six items through this crate: the sharded serving engine and its
//! crash recovery live in `hire-serve` (DESIGN.md §14, §15). ROADMAP item
//! 10 removes this crate.

pub use hire_serve::{
    recover_sharded, HotKeyStats, RecoveredShards, ShardConfig, ShardStats, ShardedEngine,
};
