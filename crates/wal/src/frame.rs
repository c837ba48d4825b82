//! Segment file layout: header, frame encoding, and the recovery scanner.
//!
//! A segment file `wal-{base_lsn:012}.hwal` is:
//!
//! ```text
//! [magic "HIREWAL\0" 8B][format version u32 LE][base_lsn u64 LE]   header, 20 bytes
//! [len u32 LE][crc32 u32 LE][payload len bytes]                    frame, repeated
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload (same polynomial/table as
//! `hire-ckpt`). `len` must be ≥ 1: a zero-length frame would make eight zero
//! bytes — a common disk-garbage pattern — a "valid" frame, so it is banned at
//! both encode and scan time.
//!
//! Scan rules (the recovery state machine, see DESIGN.md §15):
//! * A **sealed** segment (any segment except the newest) must validate
//!   end-to-end; any bad frame is [`WalError::Corrupt`].
//! * The **last** segment may have a torn tail from a crash mid-append. On the
//!   first invalid frame, scan forward byte-wise for any later decodable
//!   frame: if one exists the damage is mid-log (`Corrupt`); if none, the tail
//!   is torn and is truncated back to the last valid frame boundary.
//! * A last segment too short to hold its header was torn during creation and
//!   is deleted outright (its `base_lsn` equals the previous segment's end, so
//!   nothing is lost).

use std::path::Path;

use hire_ckpt::crc32;

use crate::error::{WalError, WalResult};

/// Magic bytes opening every segment file.
pub(crate) const SEGMENT_MAGIC: &[u8; 8] = b"HIREWAL\0";
/// On-disk format version for segment files.
pub(crate) const SEGMENT_VERSION: u32 = 1;
/// Size of the fixed segment header in bytes.
pub const SEGMENT_HEADER_LEN: usize = 8 + 4 + 8;
/// Size of the per-frame prefix (`len` + `crc32`) in bytes.
pub(crate) const FRAME_PREFIX_LEN: usize = 8;
/// File extension for segment files.
pub const SEGMENT_EXT: &str = "hwal";

/// Render the file name for a segment whose first record has LSN `base_lsn`.
pub(crate) fn segment_file_name(base_lsn: u64) -> String {
    format!("wal-{base_lsn:012}.{SEGMENT_EXT}")
}

/// Parse `base_lsn` back out of a segment file name; `None` if the name is
/// not a segment.
pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    let digits = stem.strip_prefix("wal-")?;
    if digits.len() != 12 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Encode the 20-byte segment header.
pub(crate) fn encode_header(base_lsn: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_LEN);
    out.extend_from_slice(SEGMENT_MAGIC);
    out.extend_from_slice(&SEGMENT_VERSION.to_le_bytes());
    out.extend_from_slice(&base_lsn.to_le_bytes());
    out
}

/// Encode one frame around `payload`. Panics if the payload is empty (records
/// always carry at least a tag byte; an empty frame would be ambiguous with
/// zeroed garbage).
pub(crate) fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        !payload.is_empty(),
        "wal frames must carry a non-empty payload"
    );
    let mut out = Vec::with_capacity(FRAME_PREFIX_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Outcome of scanning one segment's bytes.
#[derive(Debug)]
pub(crate) struct SegmentScan {
    /// The segment's declared base LSN (from the header).
    pub(crate) base_lsn: u64,
    /// Decoded frame payloads, in order.
    pub(crate) payloads: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (header + all valid frames). Anything
    /// past this in the last segment is a torn tail to truncate.
    pub(crate) valid_len: u64,
    /// Bytes past `valid_len` that were present in the file (0 when clean).
    pub(crate) torn_bytes: u64,
}

/// Validate a single frame starting at `offset`; returns the payload slice
/// and the offset just past the frame, or a reason string.
fn try_frame(bytes: &[u8], offset: usize) -> Result<(&[u8], usize), String> {
    let remaining = &bytes[offset..];
    if remaining.len() < FRAME_PREFIX_LEN {
        return Err(format!(
            "frame prefix truncated ({} of {FRAME_PREFIX_LEN} bytes)",
            remaining.len()
        ));
    }
    let len = u32::from_le_bytes(remaining[0..4].try_into().unwrap()) as usize;
    if len == 0 {
        return Err("zero-length frame".to_string());
    }
    // Records are small (tens of bytes); a huge length is garbage, not a
    // frame. The cap also keeps the forward scan from quadratic blowup.
    const MAX_FRAME_PAYLOAD: usize = 1 << 20;
    if len > MAX_FRAME_PAYLOAD {
        return Err(format!("implausible frame length {len}"));
    }
    let stored_crc = u32::from_le_bytes(remaining[4..8].try_into().unwrap());
    if remaining.len() < FRAME_PREFIX_LEN + len {
        return Err(format!(
            "frame payload truncated (need {len}, have {})",
            remaining.len() - FRAME_PREFIX_LEN
        ));
    }
    let payload = &remaining[FRAME_PREFIX_LEN..FRAME_PREFIX_LEN + len];
    let actual = crc32(payload);
    if actual != stored_crc {
        return Err(format!(
            "crc mismatch (stored {stored_crc:#010x}, computed {actual:#010x})"
        ));
    }
    Ok((payload, offset + FRAME_PREFIX_LEN + len))
}

/// Scan a segment's full byte contents.
///
/// `is_last` selects the torn-tail-tolerant rules described in the module
/// docs. Returns `Ok(None)` only when `is_last` and the file is too short to
/// hold a header (torn during creation → caller deletes it).
pub(crate) fn scan_segment(
    path: &Path,
    bytes: &[u8],
    is_last: bool,
) -> WalResult<Option<SegmentScan>> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        if is_last {
            return Ok(None);
        }
        return Err(WalError::corrupt(
            path,
            0,
            format!("sealed segment shorter than header ({} bytes)", bytes.len()),
        ));
    }
    if &bytes[0..8] != SEGMENT_MAGIC {
        return Err(WalError::corrupt(path, 0, "bad segment magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SEGMENT_VERSION {
        return Err(WalError::corrupt(
            path,
            8,
            format!("unsupported segment version {version}"),
        ));
    }
    let base_lsn = u64::from_le_bytes(bytes[12..20].try_into().unwrap());

    let mut payloads = Vec::new();
    let mut offset = SEGMENT_HEADER_LEN;
    while offset < bytes.len() {
        match try_frame(bytes, offset) {
            Ok((payload, next)) => {
                payloads.push(payload.to_vec());
                offset = next;
            }
            Err(reason) => {
                if !is_last {
                    return Err(WalError::corrupt(path, offset as u64, reason));
                }
                // Torn tail vs mid-log corruption: if ANY byte position past
                // here starts a valid frame, real data follows the damage.
                for probe in offset + 1..bytes.len() {
                    if try_frame(bytes, probe).is_ok() {
                        return Err(WalError::corrupt(
                            path,
                            offset as u64,
                            format!("{reason}; valid frame found later at offset {probe} (mid-log corruption, not a torn tail)"),
                        ));
                    }
                }
                return Ok(Some(SegmentScan {
                    base_lsn,
                    payloads,
                    valid_len: offset as u64,
                    torn_bytes: (bytes.len() - offset) as u64,
                }));
            }
        }
    }
    Ok(Some(SegmentScan {
        base_lsn,
        payloads,
        valid_len: offset as u64,
        torn_bytes: 0,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn seg(base: u64, payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = encode_header(base);
        for p in payloads {
            out.extend_from_slice(&encode_frame(p));
        }
        out
    }

    #[test]
    fn names_round_trip() {
        let name = segment_file_name(42);
        assert_eq!(name, "wal-000000000042.hwal");
        assert_eq!(parse_segment_name(&name), Some(42));
        assert_eq!(parse_segment_name("wal-abc.hwal"), None);
        assert_eq!(parse_segment_name("other-000000000001.hwal"), None);
        assert_eq!(parse_segment_name("wal-000000000001.tmp"), None);
    }

    #[test]
    fn clean_segment_scans_fully() {
        let bytes = seg(5, &[b"one", b"two", b"three"]);
        let scan = scan_segment(&PathBuf::from("s"), &bytes, false)
            .unwrap()
            .unwrap();
        assert_eq!(scan.base_lsn, 5);
        assert_eq!(
            scan.payloads,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_on_last_segment_only() {
        let full = seg(0, &[b"alpha", b"beta"]);
        let keep = full.len() - 3; // cut into beta's payload
        let torn = &full[..keep];

        let scan = scan_segment(&PathBuf::from("s"), torn, true)
            .unwrap()
            .unwrap();
        assert_eq!(scan.payloads, vec![b"alpha".to_vec()]);
        let alpha_end = (SEGMENT_HEADER_LEN + FRAME_PREFIX_LEN + 5) as u64;
        assert_eq!(scan.valid_len, alpha_end);
        assert_eq!(scan.torn_bytes, keep as u64 - alpha_end);

        let err = scan_segment(&PathBuf::from("s"), torn, false).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
    }

    #[test]
    fn garbage_tail_without_later_frames_is_torn() {
        let mut bytes = seg(0, &[b"alpha"]);
        bytes.extend_from_slice(&[0u8; 13]); // zeroed garbage: not a valid frame (len 0)
        let scan = scan_segment(&PathBuf::from("s"), &bytes, true)
            .unwrap()
            .unwrap();
        assert_eq!(scan.payloads, vec![b"alpha".to_vec()]);
        assert_eq!(scan.torn_bytes, 13);
    }

    #[test]
    fn damage_followed_by_valid_frame_is_mid_log_corruption() {
        let mut bytes = seg(0, &[b"alpha", b"beta"]);
        // Flip a bit inside alpha's payload; beta remains valid after it.
        let flip = SEGMENT_HEADER_LEN + FRAME_PREFIX_LEN + 1;
        bytes[flip] ^= 0x01;
        let err = scan_segment(&PathBuf::from("s"), &bytes, true).unwrap_err();
        match err {
            WalError::Corrupt { reason, .. } => {
                assert!(reason.contains("mid-log corruption"), "{reason}");
            }
            other => panic!("wrong error {other}"),
        }
    }

    #[test]
    fn header_torn_last_segment_is_deleted_sealed_is_corrupt() {
        let bytes = &encode_header(3)[..10];
        assert!(scan_segment(&PathBuf::from("s"), bytes, true)
            .unwrap()
            .is_none());
        assert!(scan_segment(&PathBuf::from("s"), bytes, false).is_err());
        let mut bad_magic = encode_header(3);
        bad_magic[0] ^= 0xFF;
        assert!(scan_segment(&PathBuf::from("s"), &bad_magic, true).is_err());
    }

    #[test]
    #[should_panic(expected = "non-empty payload")]
    fn empty_frames_are_rejected_at_encode_time() {
        encode_frame(&[]);
    }
}
