//! # hire-ckpt
//!
//! Durable checkpoint/restore for long training and benchmark jobs: a
//! versioned binary snapshot format (magic + format version + payload +
//! CRC-32), crash-safe writes (temp file → fsync → atomic rename → directory
//! fsync), a keep-last-N retention policy, and a loader that skips
//! truncated or bit-flipped files and falls back to the newest *valid*
//! snapshot.
//!
//! The snapshot captures everything `hire-core`'s guarded trainer needs for
//! bit-exact resume after a `kill -9`: model parameters, the in-memory
//! rollback checkpoint, LAMB moments, Lookahead slow weights, the
//! divergence guard's EMA/retry state, the learning-rate scale, and the RNG
//! stream state. See `DESIGN.md` §8 for the format layout and the
//! fsync/rename discipline.
//!
//! Layering: this crate knows nothing about models or optimizers — it moves
//! plain [`NdArray`](hire_tensor::NdArray) state in and out of files.
//! `hire-core::trainer` converts live training state to a
//! [`TrainSnapshot`] and back; `hire-eval`'s harness layers scenario-level
//! resume on top for its sweeps, and writes its result files with
//! [`write_atomic`] too.

mod format;
mod snapshot;
mod store;

pub use format::{crc32, decode_container, encode_container, PayloadReader, PayloadWriter};
pub use snapshot::{fingerprint, GuardSnapshot, OptimizerSnapshot, TrainSnapshot};
pub use store::{sync_dir, write_atomic, CheckpointStore, LoadOutcome, SNAPSHOT_EXT};
