//! Typed error surface for the write-ahead log.
//!
//! Every failure mode a caller can hit — I/O, frame corruption, injected
//! chaos faults, a log poisoned by an earlier partial write, or an
//! inconsistency discovered while rebuilding state — gets its own variant so
//! serving code can distinguish "retry later" from "operator intervention".

use std::fmt;
use std::path::PathBuf;

use hire_error::HireError;

/// Result alias for WAL operations.
pub type WalResult<T> = Result<T, WalError>;

/// Errors raised by [`crate::Wal`] and the recovery path.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io {
        /// Path (file or directory) the operation targeted.
        path: PathBuf,
        /// The OS-level error.
        source: std::io::Error,
    },
    /// A frame failed validation somewhere other than the reclaimable tail.
    ///
    /// Torn tails (a partial final frame in the *last* segment, with nothing
    /// valid after it) are repaired silently; everything else — a bad frame in
    /// a sealed segment, or a bad frame followed by valid data — is real
    /// corruption and surfaces here.
    Corrupt {
        /// Segment file containing the bad frame.
        segment: PathBuf,
        /// Byte offset of the frame that failed validation.
        offset: u64,
        /// Human-readable reason (bad magic, CRC mismatch, ...).
        reason: String,
    },
    /// A chaos-injected fault fired at a WAL site.
    Injected {
        /// The chaos site that fired (e.g. `wal.fsync`).
        site: &'static str,
    },
    /// The log refused the operation because an earlier append failed
    /// part-way; the in-memory tail no longer matches the file and the log
    /// must be reopened (which repairs the torn tail).
    Poisoned,
    /// Recovery found the on-disk state internally inconsistent (e.g. a
    /// sharded manifest whose shards diverge, or a model event referencing a
    /// checkpoint that cannot be loaded).
    Recovery {
        /// What was inconsistent.
        reason: String,
    },
}

impl WalError {
    /// Convenience constructor for [`WalError::Io`].
    pub(crate) fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        WalError::Io {
            path: path.into(),
            source,
        }
    }

    /// Convenience constructor for [`WalError::Corrupt`].
    pub(crate) fn corrupt(
        segment: impl Into<PathBuf>,
        offset: u64,
        reason: impl Into<String>,
    ) -> Self {
        WalError::Corrupt {
            segment: segment.into(),
            offset,
            reason: reason.into(),
        }
    }

    /// Convenience constructor for [`WalError::Recovery`].
    pub(crate) fn recovery(reason: impl Into<String>) -> Self {
        WalError::Recovery {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io { path, source } => {
                write!(f, "wal i/o error at {}: {source}", path.display())
            }
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "wal corruption in {} at offset {offset}: {reason}",
                segment.display()
            ),
            WalError::Injected { site } => write!(f, "injected fault at wal site {site}"),
            WalError::Poisoned => write!(
                f,
                "wal poisoned by an earlier partial append; reopen to repair the tail"
            ),
            WalError::Recovery { reason } => write!(f, "wal recovery failed: {reason}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<WalError> for HireError {
    fn from(err: WalError) -> Self {
        match err {
            WalError::Io { path, source } => HireError::io(path.display().to_string(), source),
            other => HireError::invalid_data("wal", other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_specifics() {
        let e = WalError::corrupt("/tmp/wal-000.hwal", 24, "crc mismatch");
        let s = e.to_string();
        assert!(s.contains("offset 24"), "{s}");
        assert!(s.contains("crc mismatch"), "{s}");

        let e = WalError::Injected { site: "wal.fsync" };
        assert!(e.to_string().contains("wal.fsync"));
    }

    #[test]
    fn converts_into_hire_error() {
        let e: HireError = WalError::recovery("shard count mismatch").into();
        assert!(e.to_string().contains("shard count mismatch"));
    }
}
