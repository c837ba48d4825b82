//! # hire-wal
//!
//! A segmented, CRC32-framed, append-only write-ahead log that makes the
//! serving stack's in-memory state — serve-time ratings, the online loop's
//! holdout routing, and the installed model version — survive `kill -9`.
//!
//! Pieces:
//!
//! * [`WalRecord`] — the logical events of the serving timeline (`Rating`,
//!   `HoldoutMark`, `ModelPromoted`, `Demoted`, `SnapshotBarrier`), encoded
//!   with `hire-ckpt`'s payload primitives.
//! * [`Wal`] — the log itself: segment files with fsynced headers, per-frame
//!   CRC32, group commit ([`Wal::commit`] returns only after an fsync that
//!   covers its record; a committer that finds no fsync in flight issues one
//!   at once, and those that arrive meanwhile share the next), size-triggered
//!   rotation, keep-after-barrier truncation, and open-time torn-tail repair
//!   with a typed [`WalError::Corrupt`] on real mid-log damage.
//! * [`ShardManifest`] — the recovery root for sharded serving: one manifest,
//!   one `shard-NNN/` log per shard, rebuilt in lockstep.
//!
//! Chaos integration: the log fires `hire-chaos` sites `wal.append`,
//! `wal.fsync`, and `wal.rotate`, including [`hire_chaos::FaultKind::TornWrite`]
//! — a simulated crash mid-`write(2)` that leaves a short garbage-tailed
//! prefix on disk and poisons the log like a dead process.
//!
//! See DESIGN.md §15 for the frame layout, the group-commit protocol, the
//! recovery state machine, and the truncation rules.

pub mod error;
pub mod frame;
pub mod log;
pub mod manifest;
pub mod record;

pub use error::{WalError, WalResult};
pub use frame::{
    parse_segment_name, segment_file_name, SEGMENT_EXT, SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
    SEGMENT_VERSION,
};
pub use log::{Wal, WalOptions, WalRecovery, WalStats};
pub use manifest::{shard_dir, ShardManifest, MANIFEST_FILE};
pub use record::WalRecord;
