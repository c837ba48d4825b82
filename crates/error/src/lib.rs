//! Shared typed errors for the HIRE workspace.
//!
//! Every externally-reachable failure path (dataset/context construction,
//! harness argument parsing, result serialization, training divergence)
//! surfaces as a [`HireError`] instead of a panic, so binaries can degrade
//! gracefully and callers can match on failure classes.

use std::fmt;

/// Convenience alias used across the workspace.
pub type HireResult<T> = Result<T, HireError>;

/// The workspace-wide error type.
#[derive(Debug)]
pub enum HireError {
    /// A command-line flag was unknown, malformed, or missing its value.
    InvalidArgument {
        /// The offending flag or token (e.g. `--tier`).
        flag: String,
        /// Human-readable explanation.
        message: String,
    },
    /// A dataset, split, or prediction context violated a structural
    /// invariant (empty query set, out-of-range ratio, shape mismatch, ...).
    InvalidData {
        /// Which structure was being built or validated.
        context: String,
        /// Human-readable explanation.
        message: String,
    },
    /// An I/O failure, annotated with the path involved.
    Io {
        /// The file being read or written.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A value could not be serialized for a report.
    Serialization(String),
    /// A durable checkpoint file failed validation (bad magic, unsupported
    /// format version, truncation, or a CRC mismatch). The loader treats
    /// this as "skip this file and fall back to an older snapshot".
    CorruptCheckpoint {
        /// The snapshot file that failed validation.
        path: String,
        /// What the validator found.
        message: String,
    },
}

impl HireError {
    /// Shorthand for an [`HireError::InvalidArgument`].
    pub fn invalid_argument(flag: impl Into<String>, message: impl Into<String>) -> Self {
        HireError::InvalidArgument {
            flag: flag.into(),
            message: message.into(),
        }
    }

    /// Shorthand for an [`HireError::InvalidData`].
    pub fn invalid_data(context: impl Into<String>, message: impl Into<String>) -> Self {
        HireError::InvalidData {
            context: context.into(),
            message: message.into(),
        }
    }

    /// Shorthand for an [`HireError::Io`].
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        HireError::Io {
            path: path.into(),
            source,
        }
    }

    /// Shorthand for an [`HireError::CorruptCheckpoint`].
    pub fn corrupt_checkpoint(path: impl Into<String>, message: impl Into<String>) -> Self {
        HireError::CorruptCheckpoint {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for HireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HireError::InvalidArgument { flag, message } => {
                write!(f, "invalid argument `{flag}`: {message}")
            }
            HireError::InvalidData { context, message } => {
                write!(f, "invalid data ({context}): {message}")
            }
            HireError::Io { path, source } => write!(f, "io error on `{path}`: {source}"),
            HireError::Serialization(message) => write!(f, "serialization error: {message}"),
            HireError::CorruptCheckpoint { path, message } => {
                write!(f, "corrupt checkpoint `{path}`: {message}")
            }
        }
    }
}

impl std::error::Error for HireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HireError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = HireError::invalid_argument("--tier", "expected smoke|fast|full, got `warp`");
        assert_eq!(
            e.to_string(),
            "invalid argument `--tier`: expected smoke|fast|full, got `warp`"
        );
        let e = HireError::invalid_data("PredictionContext", "no target cells");
        assert!(e.to_string().contains("PredictionContext"));
    }

    #[test]
    fn corrupt_checkpoint_names_the_file() {
        let e = HireError::corrupt_checkpoint("/ckpt/ckpt-0000000040.hckpt", "CRC mismatch");
        assert!(e.to_string().contains("ckpt-0000000040"));
        assert!(e.to_string().contains("CRC mismatch"));
    }

    #[test]
    fn io_errors_carry_source() {
        use std::error::Error;
        let e = HireError::io(
            "/tmp/report.json",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        assert!(e.source().is_some());
        assert!(e.to_string().contains("/tmp/report.json"));
    }
}
