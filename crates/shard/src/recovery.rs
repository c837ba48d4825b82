//! Lockstep crash recovery for [`ShardedEngine`]: one manifest, N shard
//! logs, one reconciled model lineage.
//!
//! Each shard's WAL holds that shard's ratings (disjoint by user hash)
//! plus a copy of every model promotion/demotion — the install paths
//! append the same record to all N logs. A crash mid-install can leave
//! the copies uneven: the shards that appended before the crash carry
//! events the others never saw. Because the per-shard commit loop is
//! strictly ordered, the event lists are always **prefix-chained**: every
//! shard's list is a prefix of the longest one. Recovery exploits that —
//! it verifies the chain, takes the longest list as truth, rolls lagging
//! shards forward (appending the missing records to their logs so the
//! repair itself is durable), and reinstates one lineage on every shard.
//!
//! Rolling *forward* is sound because the install protocol checkpoints
//! the promoted weights before any shard logs the record: a record that
//! exists on any log always has loadable weights behind it.
//!
//! Scope: sharded recovery rebuilds graphs, insert logs, and the model
//! lineage. Online-loop routing state and `SnapshotBarrier`-anchored
//! truncation are single-engine concerns (`hire_serve::durable`) — the
//! online loop fine-tunes against one engine, not a shard fan-out — so
//! the routing fields of each shard's [`hire_serve::LogFold`] go unused
//! here and sharded logs are never truncated.

use crate::engine::{ShardConfig, ShardedEngine};
use hire_data::Dataset;
use hire_error::{HireError, HireResult};
use hire_graph::BipartiteGraph;
use hire_serve::{fold_log, rebuild_engine, EngineConfig, FrozenModel, ModelVersion};
use hire_wal::{shard_dir, ShardManifest, Wal, WalOptions};
use std::path::Path;
use std::sync::Arc;

/// What [`recover_sharded`] rebuilt and repaired.
pub struct RecoveredShards {
    /// The rebuilt engine, all shards in version lockstep, logs
    /// re-attached.
    pub engine: ShardedEngine,
    /// Ratings replayed per shard.
    pub ratings_per_shard: Vec<usize>,
    /// Model events (promotions + demotions) in the reconciled lineage.
    pub model_events: usize,
    /// Catch-up records appended to lagging shard logs to restore
    /// lockstep (0 on a clean crash).
    pub rolled_forward: usize,
    /// Per shard, the versions of demotion targets dropped because their
    /// checkpointed weights could not be reloaded.
    pub dropped_history_per_shard: Vec<Vec<ModelVersion>>,
}

/// Rebuilds a [`ShardedEngine`] from a sharded WAL root written by
/// [`ShardedEngine::with_wal_root`]. The configs and base inputs must
/// match the crashed engine's; the manifest's shard count is validated
/// against `shard_config` (changing the count is a re-shard, not a
/// recovery). `ckpt_dir` is where promoted weights were checkpointed —
/// required if any promotion was ever logged.
#[allow(clippy::too_many_arguments)] // `benchmark/` calls this signature
pub fn recover_sharded(
    base_model: FrozenModel,
    dataset: Arc<Dataset>,
    base_graph: Arc<BipartiteGraph>,
    engine_config: EngineConfig,
    shard_config: ShardConfig,
    ckpt_dir: Option<&Path>,
    wal_root: &Path,
    wal_opts: WalOptions,
) -> HireResult<RecoveredShards> {
    let manifest = ShardManifest::read(wal_root)
        .map_err(HireError::from)?
        .ok_or_else(|| {
            HireError::invalid_data(
                "recover_sharded",
                format!("no shard manifest at {}", wal_root.display()),
            )
        })?;
    let n = shard_config.shards.max(1);
    if manifest.shards as usize != n {
        return Err(HireError::invalid_data(
            "recover_sharded",
            format!(
                "manifest names {} shard logs but the config asks for {n}; \
                 changing the shard count requires a re-shard, not a recovery",
                manifest.shards
            ),
        ));
    }

    // ── Open and fold every log ───────────────────────────────────────
    let mut wals = Vec::with_capacity(n);
    let mut folds = Vec::with_capacity(n);
    for idx in 0..n {
        let (wal, recovery) =
            Wal::open(shard_dir(wal_root, idx), wal_opts.clone()).map_err(HireError::from)?;
        wals.push(Arc::new(wal));
        folds.push(fold_log(&recovery.records, None)?);
    }

    // ── Reconcile: the longest event list is the truth ────────────────
    let target_idx = (0..n)
        .max_by_key(|&i| folds[i].events.len())
        .expect("at least one shard");
    let target = folds[target_idx].events.clone();
    for (idx, fold) in folds.iter().enumerate() {
        if fold.events[..] != target[..fold.events.len()] {
            return Err(HireError::invalid_data(
                "recover_sharded",
                format!(
                    "shard {idx}'s model events diverge from shard {target_idx}'s — the \
                     logs are not prefix-chained; refusing to guess a lineage"
                ),
            ));
        }
    }

    // ── Roll lagging shards forward, durably ──────────────────────────
    // Appending the missing records (rather than only patching in-memory
    // state) makes the repair survive a crash *during* recovery: the next
    // recovery sees equal, or still prefix-chained, logs. Applying them to
    // the fold too lands every shard on the target's lineage.
    let mut rolled_forward = 0usize;
    for (wal, fold) in wals.iter().zip(&mut folds) {
        for event in &target[fold.events.len()..] {
            wal.append_durable(event).map_err(HireError::from)?;
            fold.apply(event)?;
            rolled_forward += 1;
        }
    }

    // ── Rebuild every shard from its fold ─────────────────────────────
    let mut shards = Vec::with_capacity(n);
    let mut dropped_history_per_shard = Vec::with_capacity(n);
    for (wal, fold) in wals.into_iter().zip(&folds) {
        let (shard, dropped) = rebuild_engine(
            fold,
            wal,
            &base_model,
            &dataset,
            Arc::clone(&base_graph),
            engine_config.clone(),
            ckpt_dir,
        )?;
        shards.push(shard);
        dropped_history_per_shard.push(dropped);
    }

    Ok(RecoveredShards {
        engine: ShardedEngine::from_shards(shards),
        ratings_per_shard: folds.iter().map(|f| f.ratings.len()).collect(),
        model_events: target.len(),
        rolled_forward,
        dropped_history_per_shard,
    })
}
