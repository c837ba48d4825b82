//! Crash recovery for [`ShardedEngine`]: one manifest, N shard logs, one
//! model lineage.
//!
//! Each shard's WAL holds that shard's ratings (disjoint by user hash).
//! Shard 0 owns the engine's model lineage, so its log alone holds the
//! promotions and demotions; recovery folds every log, rebuilds shard 0 —
//! ratings and lineage, each slot's weights loaded once — and rebuilds
//! shards 1..N as its followers over their own ratings. It appends
//! nothing.
//!
//! A shard 1..N log that holds a model record (a root written when every
//! shard kept its own copy of the lineage, or a damaged one) is refused,
//! typed — recovery does not guess a lineage.
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
use hire_serve::{fold_log, rebuild_engine, EngineConfig, FrozenModel, Lineage, ModelVersion};
use hire_wal::{shard_dir, ShardManifest, Wal, WalOptions, WalRecovery};
use std::path::Path;
use std::sync::Arc;

/// Opens the sharded WAL root at `root` for `n` shards — the one door
/// [`ShardedEngine::with_wal_root`] and [`recover_sharded`] share. Its
/// `MANIFEST` must name `n` shards (changing the count is a re-shard, not a
/// reopen); a root without one is refused, or laid out for `n` when
/// `create`. Returns every shard log, in shard order, beside what it holds.
pub(crate) fn open_root(
    root: &Path,
    n: usize,
    opts: WalOptions,
    create: bool,
) -> HireResult<Vec<(Arc<Wal>, WalRecovery)>> {
    let refuse = |message: String| Err(HireError::invalid_data("sharded WAL root", message));
    match ShardManifest::read(root).map_err(HireError::from)? {
        Some(manifest) if manifest.shards as usize != n => {
            return refuse(format!(
                "{} is laid out for {} shards but {n} were asked for; changing the \
                 shard count requires a re-shard, not a reopen",
                root.display(),
                manifest.shards
            ))
        }
        Some(_) => {}
        None if create => ShardManifest { shards: n as u32 }
            .write(root)
            .map_err(HireError::from)?,
        None => return refuse(format!("no shard manifest at {}", root.display())),
    }
    (0..n)
        .map(|idx| {
            let (wal, recovery) =
                Wal::open(shard_dir(root, idx), opts.clone()).map_err(HireError::from)?;
            Ok((Arc::new(wal), recovery))
        })
        .collect()
}

/// What [`recover_sharded`] rebuilt.
pub struct RecoveredShards {
    /// The rebuilt engine, logs re-attached.
    pub engine: ShardedEngine,
    /// Ratings replayed per shard.
    pub ratings_per_shard: Vec<usize>,
    /// The versions of demotion targets dropped because their
    /// checkpointed weights could not be reloaded.
    pub dropped_history: Vec<ModelVersion>,
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
    let n = shard_config.shards.max(1);
    let mut wals = Vec::with_capacity(n);
    let mut folds = Vec::with_capacity(n);
    for (wal, recovery) in open_root(wal_root, n, wal_opts, false)? {
        wals.push(wal);
        folds.push(fold_log(&recovery.records, None)?);
    }

    // ── The lineage is shard 0's ──────────────────────────────────────
    // Every model record moves `next_version`, so a follower log folds to
    // the default lineage exactly when it holds none.
    if let Some(idx) = (1..n).find(|&idx| folds[idx].lineage != Lineage::default()) {
        return Err(HireError::invalid_data(
            "recover_sharded",
            format!(
                "shard {idx}'s log holds a model record, but only shard 0 owns the \
                 lineage; refusing to guess a lineage"
            ),
        ));
    }

    // ── Rebuild shard 0 with the lineage, the rest as its followers ───
    let mut wals = wals.into_iter();
    let (owner, dropped_history) = rebuild_engine(
        &folds[0],
        wals.next().expect("at least one shard"),
        &base_model,
        &dataset,
        Arc::clone(&base_graph),
        engine_config,
        ckpt_dir,
    )?;
    let followers: Vec<_> = wals
        .zip(&folds[1..])
        .map(|(wal, fold)| {
            owner
                .follower(Arc::clone(&base_graph), &fold.ratings)
                .with_wal(wal)
        })
        .collect();

    Ok(RecoveredShards {
        engine: ShardedEngine::from_shards(std::iter::once(owner).chain(followers).collect()),
        ratings_per_shard: folds.iter().map(|f| f.ratings.len()).collect(),
        dropped_history,
    })
}
