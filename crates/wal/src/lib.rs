//! # hire-wal
//!
//! A segmented, CRC32-framed, append-only write-ahead log that makes the
//! serving stack's in-memory state — serve-time ratings, the online loop's
//! progress, and the installed model version — survive `kill -9`.
//!
//! Pieces:
//!
//! * [`WalRecord`] — the logical events of the serving timeline (`Rating`,
//!   `ModelPromoted`, `Demoted`, `SnapshotBarrier`), encoded with
//!   `hire-ckpt`'s payload primitives. The online loop's holdout is not
//!   logged: it is a function of each rating's arrival index. A record
//!   kind this tree does not write (tag 2, an older log's holdout mark)
//!   is refused at open, typed.
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

mod error;
mod frame;
mod log;
mod manifest;
mod record;

pub use error::{WalError, WalResult};
pub use frame::{SEGMENT_EXT, SEGMENT_HEADER_LEN};
pub use log::{Wal, WalOptions, WalRecovery, WalStats};
pub use manifest::{shard_dir, ShardManifest};
pub use record::WalRecord;
