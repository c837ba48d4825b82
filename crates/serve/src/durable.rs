//! Durable serving state: snapshots + WAL replay = crash recovery
//! (DESIGN.md §15).
//!
//! A WAL-attached [`ServeEngine`] logs every state transition before it
//! takes effect: serve-time ratings, holdout diversions, model promotions
//! and demotions. This module closes the loop:
//!
//! * [`write_snapshot`] captures the whole serving state — the insert
//!   log, the online loop's routing state, and the model lineage — into
//!   one checksummed snapshot under the `serving` checkpoint lineage,
//!   logs a `SnapshotBarrier{covered}` record, and truncates WAL segments
//!   the snapshot fully covers. Without snapshots the log only grows;
//!   with them it stays bounded.
//! * [`recover`] rebuilds a crashed engine from the newest snapshot plus
//!   the WAL tail, in two steps that sharded recovery (`hire-shard`) reuses
//!   per shard log. [`fold_log`] folds the records into a [`LogFold`]:
//!   rating edges in their original commit order, the online loop's
//!   routing state, and the model lineage — promotions and demotions go
//!   through the same [`Lineage::promote`] / [`Lineage::demote`] the live
//!   engine ran, so the recovered lineage is the crashed one by
//!   construction. [`rebuild_engine`] replays the edges (bit-identical CSR
//!   ⇒ bit-identical deterministic context samples) and reloads every
//!   slot's weights from the checkpoints the lineage names.
//!
//! The recovery contract, proven by `tests/wal_recovery.rs` at every
//! kill point: **no acknowledged write is lost** (an ack follows an fsync
//! that covers the record) and the recovered engine answers
//! **bit-identically** to an engine that never crashed.

use crate::engine::{EngineConfig, Lineage, ServeEngine, SlotSource};
use crate::frozen::FrozenModel;
use crate::online::{OnlineConfig, OnlineLoop, REJECTED_TAG};
use crate::server::ModelVersion;
use hire_ckpt::{CheckpointStore, PayloadReader, PayloadWriter, SNAPSHOT_EXT};
use hire_data::Dataset;
use hire_error::{HireError, HireResult};
use hire_graph::{BipartiteGraph, Rating};
use hire_wal::{Wal, WalOptions, WalRecord};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Checkpoint lineage tag for whole-serving-state snapshots. The steps
/// key of each snapshot is the WAL LSN it covers.
pub const SERVING_TAG: &str = "serving";

/// Serving-snapshot payload format version.
const SNAPSHOT_FORMAT: u8 = 1;

/// The serving state a write-ahead log folds to, on top of the serving
/// snapshot it continues (if any). A serving snapshot persists exactly the
/// fields up to `lineage`.
#[derive(Debug, Default)]
pub struct LogFold {
    /// WAL LSN the starting snapshot is current as of: every record with a
    /// lower LSN is already reflected in it (0 = no snapshot).
    pub covered: u64,
    /// The engine's full insert log, in commit order.
    pub ratings: Vec<Rating>,
    /// Online-loop cursor (ratings consumed).
    pub cursor: usize,
    /// Online-loop round counter.
    pub round: u64,
    /// Arrival indices ever diverted to the holdout slice.
    pub marked: BTreeSet<usize>,
    /// Model lineage with reload sources.
    pub lineage: Lineage,
    /// The promotion/demotion records applied to `lineage`, in log order —
    /// what sharded recovery compares across shard logs.
    pub events: Vec<WalRecord>,
    /// Records applied on top of the snapshot.
    pub replayed: usize,
}

impl LogFold {
    /// Applies one record, in log order.
    ///
    /// Promotion/demotion records are logged with the engine's install
    /// lock held, so a valid log sequences versions exactly: each must
    /// carry the lineage's `next_version`. One that does not — or a
    /// demotion onto an empty history — means the log and the snapshot
    /// disagree, and recovery must stop rather than serve a lineage it
    /// cannot prove. The swap behind a record may not have completed
    /// before the crash; the record is durable, so recovery rolls it
    /// forward (the weights were checkpointed before it was logged).
    pub fn apply(&mut self, record: &WalRecord) -> HireResult<()> {
        self.replayed += 1;
        match record {
            WalRecord::Rating { user, item, value } => self.ratings.push(Rating {
                user: *user as usize,
                item: *item as usize,
                value: *value,
            }),
            WalRecord::HoldoutMark { index } => {
                self.marked.insert(*index as usize);
            }
            WalRecord::SnapshotBarrier { cursor, round, .. } => {
                self.cursor = *cursor as usize;
                self.round = *round;
            }
            WalRecord::ModelPromoted {
                version,
                tag,
                steps,
            } => {
                self.expect_next_version("promotion", *version)?;
                self.lineage.promote(SlotSource::Checkpoint {
                    tag: tag.clone(),
                    steps: *steps,
                });
                self.events.push(record.clone());
            }
            WalRecord::Demoted { new_version } => {
                self.expect_next_version("demotion", *new_version)?;
                self.lineage.demote().ok_or_else(|| {
                    HireError::invalid_data("durable", "demotion record with an empty history")
                })?;
                self.events.push(record.clone());
            }
        }
        Ok(())
    }

    fn expect_next_version(&self, what: &str, version: ModelVersion) -> HireResult<()> {
        if version == self.lineage.next_version {
            return Ok(());
        }
        Err(HireError::invalid_data(
            "durable",
            format!(
                "{what} record for v{version} does not follow next version {}",
                self.lineage.next_version
            ),
        ))
    }
}

fn encode_source(w: &mut PayloadWriter, source: &SlotSource) -> HireResult<()> {
    match source {
        SlotSource::Base => w.put_u8(0),
        SlotSource::Checkpoint { tag, steps } => {
            w.put_u8(1);
            w.put_u64(*steps);
            let bytes = tag.as_bytes();
            w.put_u32(bytes.len() as u32);
            for b in bytes {
                w.put_u8(*b);
            }
        }
        // E.g. a WAL attached after a checkpoint-less install.
        SlotSource::Unsaved => {
            return Err(HireError::invalid_data(
                "ServingSnapshot",
                "the lineage holds a slot whose weights were never checkpointed",
            ))
        }
    }
    Ok(())
}

fn decode_source(r: &mut PayloadReader<'_>) -> HireResult<SlotSource> {
    match r.take_u8("source kind")? {
        0 => Ok(SlotSource::Base),
        1 => {
            let steps = r.take_u64("source steps")?;
            let len = r.take_u32("source tag len")? as usize;
            // No reservation from `len`, which is read from disk: the tag
            // grows by the bytes actually there, and a bit-flipped length
            // runs off the payload's end as a typed error.
            let bytes = (0..len)
                .map(|_| r.take_u8("source tag byte"))
                .collect::<HireResult<Vec<u8>>>()?;
            let tag = String::from_utf8(bytes).map_err(|_| {
                HireError::invalid_data("ServingSnapshot", "source tag is not UTF-8")
            })?;
            Ok(SlotSource::Checkpoint { tag, steps })
        }
        other => Err(HireError::invalid_data(
            "ServingSnapshot",
            format!("unknown slot source kind {other}"),
        )),
    }
}

fn encode_snapshot(snap: &LogFold) -> HireResult<Vec<u8>> {
    let mut w = PayloadWriter::new();
    w.put_u8(SNAPSHOT_FORMAT);
    w.put_u64(snap.covered);
    w.put_u64(snap.ratings.len() as u64);
    for r in &snap.ratings {
        w.put_u64(r.user as u64);
        w.put_u64(r.item as u64);
        w.put_f32(r.value);
    }
    w.put_u64(snap.cursor as u64);
    w.put_u64(snap.round);
    w.put_u64(snap.marked.len() as u64);
    for &idx in &snap.marked {
        w.put_u64(idx as u64);
    }
    w.put_u64(snap.lineage.history.len() as u64);
    for (source, version) in &snap.lineage.history {
        encode_source(&mut w, source)?;
        w.put_u64(*version);
    }
    encode_source(&mut w, &snap.lineage.current.0)?;
    w.put_u64(snap.lineage.current.1);
    w.put_u64(snap.lineage.next_version);
    Ok(w.finish())
}

fn decode_snapshot(payload: &[u8], label: &str) -> HireResult<LogFold> {
    let mut r = PayloadReader::new(payload, label);
    let format = r.take_u8("snapshot format")?;
    if format != SNAPSHOT_FORMAT {
        return Err(HireError::invalid_data(
            "ServingSnapshot",
            format!("unsupported snapshot format {format}"),
        ));
    }
    let covered = r.take_u64("covered lsn")?;
    let n = r.take_len("rating count")?;
    let mut ratings = Vec::with_capacity(n);
    for _ in 0..n {
        ratings.push(Rating {
            user: r.take_u64("rating user")? as usize,
            item: r.take_u64("rating item")? as usize,
            value: r.take_f32("rating value")?,
        });
    }
    let cursor = r.take_u64("cursor")? as usize;
    let round = r.take_u64("round")?;
    let marks = r.take_len("mark count")?;
    let mut marked = BTreeSet::new();
    for _ in 0..marks {
        marked.insert(r.take_u64("mark index")? as usize);
    }
    let slots = r.take_len("history len")?;
    let mut history = Vec::with_capacity(slots);
    for _ in 0..slots {
        let source = decode_source(&mut r)?;
        let version = r.take_u64("history version")?;
        history.push((source, version));
    }
    let current_source = decode_source(&mut r)?;
    let current_version = r.take_u64("current version")?;
    let next_version = r.take_u64("next version")?;
    r.expect_exhausted()?;
    Ok(LogFold {
        covered,
        ratings,
        cursor,
        round,
        marked,
        lineage: Lineage {
            history,
            current: (current_source, current_version),
            next_version,
        },
        ..LogFold::default()
    })
}

/// Captures the engine + online-loop state into a durable snapshot under
/// the [`SERVING_TAG`] lineage, logs a covering `SnapshotBarrier`, and
/// truncates every WAL segment the snapshot fully covers. Returns the
/// covered LSN.
///
/// Lock order (the one `crate` convention that prevents deadlock):
/// online state → engine write order → engine install lock. Holding all
/// three pins the WAL — no rating, mark, promotion, or demotion record
/// can land between capturing the state and reading the covered LSN.
pub fn write_snapshot(engine: &ServeEngine, online: &OnlineLoop) -> HireResult<u64> {
    let wal = engine.wal().cloned().ok_or_else(|| {
        HireError::invalid_data("durable", "write_snapshot needs a WAL-attached engine")
    })?;
    let Some(dir) = online.config().checkpoint_dir.clone() else {
        return Err(HireError::invalid_data(
            "durable",
            "write_snapshot needs OnlineConfig::checkpoint_dir",
        ));
    };
    let keep = online.config().keep_last.max(1);
    let (payload, covered, cursor, round) = {
        let state = online.freeze_state();
        let (ratings, lineage, covered) = engine.durable_capture();
        let snap = LogFold {
            covered,
            ratings,
            cursor: state.cursor,
            round: state.round,
            marked: state.marked.clone(),
            lineage,
            ..LogFold::default()
        };
        (
            encode_snapshot(&snap)?,
            covered,
            state.cursor as u64,
            state.round,
        )
    };
    let store = CheckpointStore::open_tagged(&dir, SERVING_TAG, keep)?;
    store.save_raw(covered, &payload)?;
    // The barrier is logged only after the snapshot is durable: a crash
    // between the two leaves a barrier-less snapshot (recovery still uses
    // it — the steps key carries the covered LSN), never a barrier whose
    // snapshot does not exist.
    wal.append_durable(&WalRecord::SnapshotBarrier {
        covered: Some(covered),
        cursor,
        round,
    })
    .map_err(HireError::from)?;
    wal.truncate_covered(covered).map_err(HireError::from)?;
    Ok(covered)
}

/// The result of [`recover`]: a rebuilt engine + online loop, plus what
/// recovery found.
pub struct Recovered {
    /// The rebuilt serving engine, WAL re-attached (new writes append to
    /// the same log).
    pub engine: Arc<ServeEngine>,
    /// The rebuilt online loop: same cursor, round, and holdout slice the
    /// crashed loop had durably recorded.
    pub online: Arc<OnlineLoop>,
    /// Total ratings in the rebuilt insert log (snapshot + WAL replay).
    pub ratings: usize,
    /// WAL records replayed on top of the snapshot.
    pub records_replayed: usize,
    /// Covered LSN of the snapshot recovery started from (0 = no
    /// snapshot, full-log replay).
    pub snapshot_covered: u64,
    /// Torn-tail bytes the WAL open repaired away.
    pub torn_bytes: u64,
    /// Versions of demotion targets dropped because their checkpointed
    /// weights could not be reloaded (see [`rebuild_engine`]).
    pub dropped_history: Vec<ModelVersion>,
}

/// Rebuilds a serving engine + online loop after a crash, from the newest
/// [`SERVING_TAG`] snapshot (if any) plus the surviving WAL records.
///
/// `base_model`, `dataset`, `base_graph`, and the configs must be the
/// same the crashed engine started from — they are the deterministic
/// inputs the log's deltas apply to. Returns a typed error when the log
/// is corrupt mid-stream, when a record sequence is inconsistent (e.g. a
/// demotion with no history), or when the incumbent's checkpointed
/// weights cannot be reloaded.
pub fn recover(
    base_model: FrozenModel,
    dataset: Arc<Dataset>,
    base_graph: Arc<BipartiteGraph>,
    engine_config: EngineConfig,
    online_config: OnlineConfig,
    wal_dir: impl AsRef<Path>,
    wal_opts: WalOptions,
) -> HireResult<Recovered> {
    let (wal, wal_recovery) = Wal::open(wal_dir.as_ref(), wal_opts).map_err(HireError::from)?;
    let ckpt_dir = online_config.checkpoint_dir.clone();
    let fold = fold_log(&wal_recovery.records, ckpt_dir.as_deref())?;
    let (engine, dropped_history) = rebuild_engine(
        &fold,
        Arc::new(wal),
        &base_model,
        &dataset,
        base_graph,
        engine_config,
        ckpt_dir.as_deref(),
    )?;
    let engine = Arc::new(engine);
    if let Some(dir) = &ckpt_dir {
        prune_partial_rejected(dir);
    }
    let online = Arc::new(OnlineLoop::recovered(
        engine.clone(),
        online_config,
        fold.cursor,
        fold.round,
        fold.marked,
        &fold.ratings,
    ));
    Ok(Recovered {
        engine,
        online,
        ratings: fold.ratings.len(),
        records_replayed: fold.replayed,
        snapshot_covered: fold.covered,
        torn_bytes: wal_recovery.truncated_bytes,
        dropped_history,
    })
}

/// Folds a log's surviving `records` over the newest [`SERVING_TAG`]
/// snapshot in `snapshot_dir` (if the directory holds one). Records below
/// the snapshot's covered LSN are already reflected in it (they survive on
/// disk only until truncation catches up) and are skipped.
pub fn fold_log(records: &[(u64, WalRecord)], snapshot_dir: Option<&Path>) -> HireResult<LogFold> {
    let mut fold = LogFold::default();
    if let Some(dir) = snapshot_dir.filter(|dir| dir.exists()) {
        let store = CheckpointStore::open_tagged(dir, SERVING_TAG, 1)?;
        if let Some((steps, payload)) = store.load_latest_raw()? {
            fold = decode_snapshot(&payload, "serving snapshot")?;
            if fold.covered != steps {
                return Err(HireError::invalid_data(
                    "durable",
                    format!(
                        "serving snapshot self-reports covered LSN {} under steps key {steps}",
                        fold.covered
                    ),
                ));
            }
        }
    }
    for (lsn, record) in records {
        if *lsn >= fold.covered {
            fold.apply(record)?;
        }
    }
    Ok(fold)
}

/// Rebuilds the engine a [`LogFold`] describes, with `wal` re-attached.
///
/// One copy-on-write commit per rating, in log order, retraces the crashed
/// engine's epoch sequence — the final CSR is bit-identical, so every
/// deterministic context sample (and therefore every answer) matches. The
/// lineage's weights are then reloaded: `Base` sources resolve to
/// `base_model`, `Checkpoint` sources load `{tag}-{steps:012}.hckpt` from
/// `ckpt_dir`. A history slot whose weights fail to load is dropped — its
/// version is returned beside the engine — while an unloadable incumbent
/// is a typed error.
pub fn rebuild_engine(
    fold: &LogFold,
    wal: Arc<Wal>,
    base_model: &FrozenModel,
    dataset: &Arc<Dataset>,
    base_graph: Arc<BipartiteGraph>,
    engine_config: EngineConfig,
    ckpt_dir: Option<&Path>,
) -> HireResult<(ServeEngine, Vec<ModelVersion>)> {
    let engine = ServeEngine::with_shared_graph(
        base_model.clone(),
        dataset.clone(),
        base_graph,
        engine_config,
    )
    .with_wal(wal);
    for rating in &fold.ratings {
        engine.replay_rating(*rating);
    }
    let dropped = engine.restore_lineage(fold.lineage.clone(), |source| match source {
        SlotSource::Base => Ok(base_model.clone()),
        SlotSource::Checkpoint { tag, steps } => {
            let dir = ckpt_dir.ok_or_else(|| {
                HireError::invalid_data(
                    "durable",
                    "lineage references a checkpoint but no checkpoint_dir is configured",
                )
            })?;
            let path = dir.join(format!("{tag}-{steps:012}.{SNAPSHOT_EXT}"));
            FrozenModel::from_snapshot_file(&path, dataset, base_model.config())
        }
        SlotSource::Unsaved => Err(HireError::invalid_data(
            "durable",
            "lineage references weights that were never checkpointed",
        )),
    })?;
    Ok((engine, dropped))
}

/// Removes partial rejected-candidate artifacts a crash can strand in the
/// checkpoint dir: a `rejected-*` weights snapshot without its eval
/// report, an eval report without its snapshot, and interrupted-write
/// `.tmp` leftovers of the rejected lineage. (The online loop writes the
/// snapshot first, then the report — a crash between the two leaves the
/// pair half-made; neither half is referenced by the WAL, so sweeping is
/// safe.) Best-effort: I/O errors leave files for the next recovery.
fn prune_partial_rejected(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let prefix = format!("{REJECTED_TAG}-");
    let snap_ext = format!(".{SNAPSHOT_EXT}");
    let mut snaps: BTreeSet<String> = BTreeSet::new();
    let mut evals: BTreeSet<String> = BTreeSet::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix(&prefix) else {
            continue;
        };
        if name.ends_with(".tmp") {
            let _ = std::fs::remove_file(entry.path());
        } else if let Some(steps) = stem.strip_suffix(&snap_ext) {
            snaps.insert(steps.to_string());
        } else if let Some(steps) = stem.strip_suffix(".eval.json") {
            evals.insert(steps.to_string());
        }
    }
    for orphan in snaps.symmetric_difference(&evals) {
        let half = if snaps.contains(orphan) {
            dir.join(format!("{prefix}{orphan}{snap_ext}"))
        } else {
            dir.join(format!("{prefix}{orphan}.eval.json"))
        };
        let _ = std::fs::remove_file(half);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_payload_round_trips() {
        let snap = LogFold {
            covered: 42,
            ratings: vec![
                Rating {
                    user: 3,
                    item: 9,
                    value: 4.5,
                },
                Rating {
                    user: 0,
                    item: 1,
                    value: f32::from_bits(0x7FC0_0001), // NaN payload survives
                },
            ],
            cursor: 2,
            round: 7,
            marked: [0usize, 5, 9].into_iter().collect(),
            lineage: Lineage {
                history: vec![
                    (SlotSource::Base, 1),
                    (
                        SlotSource::Checkpoint {
                            tag: "candidate".into(),
                            steps: 3,
                        },
                        2,
                    ),
                ],
                current: (
                    SlotSource::Checkpoint {
                        tag: "candidate".into(),
                        steps: 5,
                    },
                    4,
                ),
                next_version: 5,
            },
            ..LogFold::default()
        };
        let payload = encode_snapshot(&snap).expect("encode");
        let back = decode_snapshot(&payload, "test").expect("decode");
        assert_eq!(back.covered, snap.covered);
        assert_eq!(back.ratings.len(), 2);
        assert_eq!(back.ratings[0].user, 3);
        assert_eq!(
            back.ratings[1].value.to_bits(),
            snap.ratings[1].value.to_bits()
        );
        assert_eq!(back.cursor, 2);
        assert_eq!(back.round, 7);
        assert_eq!(back.marked, snap.marked);
        assert_eq!(back.lineage, snap.lineage);
    }

    #[test]
    fn truncated_snapshot_payload_is_typed_error() {
        let snap = LogFold {
            covered: 1,
            ratings: vec![Rating {
                user: 1,
                item: 2,
                value: 3.0,
            }],
            cursor: 1,
            round: 1,
            ..LogFold::default()
        };
        let payload = encode_snapshot(&snap).expect("encode");
        for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
            assert!(
                decode_snapshot(&payload[..cut], "test").is_err(),
                "cut at {cut} must fail"
            );
        }

        // A tag length the payload cannot hold — every bit set — is the same
        // typed error, not a 4 GiB reservation. The payload ends `u32 tag
        // len | tag | u64 current version | u64 next version`.
        let mut tagged = snap;
        tagged.lineage.current.0 = SlotSource::Checkpoint {
            tag: "x".to_string(),
            steps: 7,
        };
        let mut payload = encode_snapshot(&tagged).expect("encode");
        decode_snapshot(&payload, "test").expect("the unedited payload decodes");
        let len_at = payload.len() - (8 + 8 + 1 + 4);
        assert_eq!(payload[len_at..len_at + 4], 1u32.to_le_bytes());
        payload[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_snapshot(&payload, "test") {
            Err(HireError::CorruptCheckpoint { message, .. }) => {
                assert!(message.contains("source tag byte"), "{message}")
            }
            other => panic!("expected a typed truncation error, got {other:?}"),
        }
    }

    #[test]
    fn prune_removes_orphan_halves_and_keeps_pairs() {
        let dir = std::env::temp_dir().join(format!("hire-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let touch = |name: &str| std::fs::write(dir.join(name), b"x").expect("touch");
        touch("rejected-000000000001.hckpt");
        touch("rejected-000000000001.eval.json");
        touch("rejected-000000000002.hckpt"); // crash before its report
        touch("rejected-000000000003.eval.json"); // report without weights
        touch("rejected-000000000004.hckpt.tmp"); // interrupted write
        touch("candidate-000000000009.hckpt"); // other lineage: untouched
        prune_partial_rejected(&dir);
        let left: BTreeSet<String> = std::fs::read_dir(&dir)
            .expect("read")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert!(left.contains("rejected-000000000001.hckpt"));
        assert!(left.contains("rejected-000000000001.eval.json"));
        assert!(left.contains("candidate-000000000009.hckpt"));
        assert!(!left.contains("rejected-000000000002.hckpt"));
        assert!(!left.contains("rejected-000000000003.eval.json"));
        assert!(!left.contains("rejected-000000000004.hckpt.tmp"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
