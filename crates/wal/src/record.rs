//! Logical WAL record types and their binary codec.
//!
//! Records are encoded with `hire-ckpt`'s [`PayloadWriter`]/[`PayloadReader`]
//! primitives: one type-tag byte followed by the record's fields. The framing
//! layer (`frame.rs`) wraps each encoded record in a `[len][crc32]` frame; this
//! module only cares about the payload bytes.

use hire_ckpt::{PayloadReader, PayloadWriter};
use hire_error::HireResult;

use crate::error::{WalError, WalResult};

/// Record type tags (first payload byte). Tag 2 — a per-rating holdout
/// mark that older logs carry — is retired, never reused: a log holding one
/// fails to decode, typed, like any unknown tag.
const TAG_RATING: u8 = 1;
const TAG_MODEL_PROMOTED: u8 = 3;
const TAG_DEMOTED: u8 = 4;
const TAG_SNAPSHOT_BARRIER: u8 = 5;

/// A logical event in the serving timeline.
///
/// The replay contract: applying every record in LSN order against the base
/// graph + base model reproduces the exact live state — same CSR adjacency,
/// same online-loop `trained` index and round (the loop's holdout and
/// pending ratings are functions of the insert log), same installed model
/// version.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A serve-time rating accepted by `insert_rating`. Logged *before* the
    /// graph commit so recovery can replay edges in identical order.
    Rating {
        /// User index.
        user: u64,
        /// Item index.
        item: u64,
        /// Rating value.
        value: f32,
    },
    /// A fine-tuned candidate passed shadow eval and was installed.
    ModelPromoted {
        /// Engine version assigned to the new incumbent.
        version: u64,
        /// Checkpoint lineage tag holding the promoted weights.
        tag: String,
        /// Steps key of the checkpoint within that lineage.
        steps: u64,
    },
    /// The incumbent was demoted (rolled back to the previous slot);
    /// `new_version` is the version assigned to the reinstalled model.
    Demoted {
        /// Version of the slot that is serving after the demotion.
        new_version: u64,
    },
    /// Progress marker. With `covered = Some(c)`, a durable serving snapshot
    /// captures every record with LSN < `c` and segments wholly below `c` may
    /// be truncated. With `covered = None` this is the online loop's
    /// per-round marker, logged after every round that moved the counter.
    SnapshotBarrier {
        /// LSN prefix covered by a serving snapshot, if one was written.
        covered: Option<u64>,
        /// Insert-log index the online loop's last completed (promoted or
        /// rejected) round trained through.
        cursor: u64,
        /// Online-loop round counter.
        round: u64,
    },
}

impl WalRecord {
    /// Encode this record into payload bytes (no framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        match self {
            WalRecord::Rating { user, item, value } => {
                w.put_u8(TAG_RATING);
                w.put_u64(*user);
                w.put_u64(*item);
                w.put_f32(*value);
            }
            WalRecord::ModelPromoted {
                version,
                tag,
                steps,
            } => {
                w.put_u8(TAG_MODEL_PROMOTED);
                w.put_u64(*version);
                w.put_u64(*steps);
                let bytes = tag.as_bytes();
                w.put_u32(bytes.len() as u32);
                for b in bytes {
                    w.put_u8(*b);
                }
            }
            WalRecord::Demoted { new_version } => {
                w.put_u8(TAG_DEMOTED);
                w.put_u64(*new_version);
            }
            WalRecord::SnapshotBarrier {
                covered,
                cursor,
                round,
            } => {
                w.put_u8(TAG_SNAPSHOT_BARRIER);
                w.put_u8(u8::from(covered.is_some()));
                w.put_u64(covered.unwrap_or(0));
                w.put_u64(*cursor);
                w.put_u64(*round);
            }
        }
        w.finish()
    }

    /// Decode a record from payload bytes produced by [`WalRecord::encode`].
    ///
    /// `segment`/`offset` locate the frame for error reporting only.
    pub fn decode(payload: &[u8], segment: &std::path::Path, offset: u64) -> WalResult<Self> {
        let as_corrupt = |err: hire_error::HireError| {
            WalError::corrupt(segment, offset, format!("bad record payload: {err}"))
        };
        let path = segment.display().to_string();
        let mut r = PayloadReader::new(payload, &path);
        let record = Self::decode_inner(&mut r).map_err(as_corrupt)?;
        r.expect_exhausted().map_err(as_corrupt)?;
        Ok(record)
    }

    fn decode_inner(r: &mut PayloadReader<'_>) -> HireResult<Self> {
        let tag = r.take_u8("record tag")?;
        match tag {
            TAG_RATING => Ok(WalRecord::Rating {
                user: r.take_u64("rating user")?,
                item: r.take_u64("rating item")?,
                value: r.take_f32("rating value")?,
            }),
            TAG_MODEL_PROMOTED => {
                let version = r.take_u64("promoted version")?;
                let steps = r.take_u64("promoted steps")?;
                let len = r.take_u32("promoted tag length")? as usize;
                let mut bytes = Vec::with_capacity(len.min(256));
                for _ in 0..len {
                    bytes.push(r.take_u8("promoted tag byte")?);
                }
                let tag = String::from_utf8(bytes).map_err(|_| {
                    hire_error::HireError::invalid_data("wal record", "promoted tag is not utf-8")
                })?;
                Ok(WalRecord::ModelPromoted {
                    version,
                    tag,
                    steps,
                })
            }
            TAG_DEMOTED => Ok(WalRecord::Demoted {
                new_version: r.take_u64("demoted version")?,
            }),
            TAG_SNAPSHOT_BARRIER => {
                let has = r.take_u8("barrier flag")?;
                let covered_raw = r.take_u64("barrier covered lsn")?;
                let covered = match has {
                    0 => None,
                    1 => Some(covered_raw),
                    other => {
                        return Err(hire_error::HireError::invalid_data(
                            "wal record",
                            format!("bad barrier flag byte {other}"),
                        ))
                    }
                };
                Ok(WalRecord::SnapshotBarrier {
                    covered,
                    cursor: r.take_u64("barrier cursor")?,
                    round: r.take_u64("barrier round")?,
                })
            }
            other => Err(hire_error::HireError::invalid_data(
                "wal record",
                format!("unknown wal record tag {other}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn roundtrip(record: WalRecord) {
        let bytes = record.encode();
        let back = WalRecord::decode(&bytes, Path::new("t"), 0).expect("decode");
        assert_eq!(record, back);
    }

    #[test]
    fn all_record_types_round_trip() {
        roundtrip(WalRecord::Rating {
            user: 7,
            item: 12_345,
            value: 4.5,
        });
        roundtrip(WalRecord::Rating {
            user: 0,
            item: 0,
            value: -0.0,
        });
        roundtrip(WalRecord::ModelPromoted {
            version: 3,
            tag: "candidate".to_string(),
            steps: 9,
        });
        roundtrip(WalRecord::ModelPromoted {
            version: 1,
            tag: String::new(),
            steps: 0,
        });
        roundtrip(WalRecord::Demoted { new_version: 4 });
        roundtrip(WalRecord::SnapshotBarrier {
            covered: Some(17),
            cursor: 11,
            round: 2,
        });
        roundtrip(WalRecord::SnapshotBarrier {
            covered: None,
            cursor: 0,
            round: 0,
        });
    }

    #[test]
    fn nan_rating_round_trips_bitwise() {
        let record = WalRecord::Rating {
            user: 1,
            item: 2,
            value: f32::NAN,
        };
        let bytes = record.encode();
        let back = WalRecord::decode(&bytes, Path::new("t"), 0).expect("decode");
        match back {
            WalRecord::Rating { value, .. } => {
                assert_eq!(value.to_bits(), f32::NAN.to_bits());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn truncated_or_oversized_payloads_are_corrupt() {
        let bytes = WalRecord::Demoted { new_version: 9 }.encode();
        let err = WalRecord::decode(&bytes[..bytes.len() - 1], Path::new("t"), 4).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { offset: 4, .. }), "{err}");

        let mut padded = bytes.clone();
        padded.push(0);
        let err = WalRecord::decode(&padded, Path::new("t"), 0).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");

        let err = WalRecord::decode(&[42], Path::new("t"), 0).unwrap_err();
        assert!(err.to_string().contains("unknown wal record tag"), "{err}");
    }

    #[test]
    fn a_retired_holdout_mark_is_refused() {
        // What an older log's holdout mark for arrival index 9 looks like.
        let mut mark = vec![2u8];
        mark.extend_from_slice(&9u64.to_le_bytes());
        let err = WalRecord::decode(&mark, Path::new("t"), 4).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { offset: 4, .. }), "{err}");
        assert!(
            err.to_string().contains("unknown wal record tag 2"),
            "{err}"
        );
    }
}
