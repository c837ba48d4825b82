//! Property tests for WAL durability: arbitrary truncation, bit flips, and
//! garbage tails against a real on-disk log, mirroring
//! `crates/ckpt/tests/corruption.rs`.
//!
//! The properties under test are the recovery state machine's contract:
//! * Truncating the newest segment at ANY byte loses only a suffix of
//!   records — never corrupts, never reorders, never invents.
//! * A bit flip inside a *sealed* segment is always a typed
//!   [`WalError::Corrupt`], never silent data loss.
//! * Garbage appended to the tail is repaired away; every record written
//!   before the garbage survives.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use hire_wal::{Wal, WalError, WalOptions, WalRecord};
use proptest::collection::vec;
use proptest::prelude::*;

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        static N: AtomicUsize = AtomicUsize::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("hire-wal-prop-{label}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn opts(segment_max_bytes: u64) -> WalOptions {
    WalOptions { segment_max_bytes }
}

/// Write `values` as Rating records (one commit at the end) and return the
/// sorted segment paths.
fn write_log(dir: &Path, values: &[f32], segment_max_bytes: u64) -> Vec<PathBuf> {
    let (wal, _) = Wal::open(dir, opts(segment_max_bytes)).expect("open");
    for (k, v) in values.iter().enumerate() {
        wal.append(&WalRecord::Rating {
            user: k as u64,
            item: (k as u64) * 7,
            value: *v,
        })
        .expect("append");
    }
    wal.sync_all().expect("sync");
    drop(wal);
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "hwal"))
        .collect();
    segs.sort();
    segs
}

fn replayed_values(dir: &Path, segment_max_bytes: u64) -> Result<Vec<f32>, WalError> {
    let (_, rec) = Wal::open(dir, opts(segment_max_bytes))?;
    Ok(rec
        .records
        .iter()
        .map(|(_, r)| match r {
            WalRecord::Rating { value, .. } => *value,
            other => panic!("unexpected record {other:?}"),
        })
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever we log, reopen replays bitwise — across rotation boundaries.
    #[test]
    fn round_trip_replays_bitwise(
        values in vec(-1000.0f32..1000.0, 1..80),
        seg_bytes in 96u64..4096,
    ) {
        let tmp = TempDir::new("roundtrip");
        write_log(tmp.path(), &values, seg_bytes);
        let back = replayed_values(tmp.path(), seg_bytes).expect("clean replay");
        prop_assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Truncating the newest segment at any byte keeps a clean prefix of the
    /// records; nothing is corrupted or invented.
    #[test]
    fn tail_truncation_loses_only_a_suffix(
        values in vec(-100.0f32..100.0, 4..60),
        cut_frac in 0.0f64..1.0,
    ) {
        let tmp = TempDir::new("cut");
        // One big segment so the cut always hits the *last* (tolerant) one.
        let segs = write_log(tmp.path(), &values, u64::MAX);
        prop_assert_eq!(segs.len(), 1);
        let bytes = fs::read(&segs[0]).expect("read");
        let keep = ((bytes.len() as f64) * cut_frac) as usize;
        fs::write(&segs[0], &bytes[..keep]).expect("truncate");

        let back = replayed_values(tmp.path(), u64::MAX).expect("repairable");
        prop_assert!(back.len() <= values.len());
        for (a, b) in values.iter().zip(&back) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// A single bit flip in a sealed (non-last) segment is always detected
    /// as typed corruption.
    #[test]
    fn sealed_segment_bit_flip_is_detected(
        values in vec(-100.0f32..100.0, 20..60),
        pos_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let tmp = TempDir::new("flip");
        // ~29 bytes per rating frame against a 128-byte rotation target and
        // ≥ 20 records guarantees several sealed segments.
        let segs = write_log(tmp.path(), &values, 128);
        prop_assert!(segs.len() >= 2, "expected rotation, got {} segment(s)", segs.len());
        let target = &segs[0];
        let mut bytes = fs::read(target).expect("read");
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        fs::write(target, &bytes).expect("rewrite");

        match replayed_values(tmp.path(), 128) {
            Err(WalError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error kind: {other}"),
            Ok(back) => {
                // The flip can only go undetected nowhere: any change to a
                // sealed segment must surface. Equal replay means the flip
                // hit a byte whose change is impossible — fail loudly.
                prop_assert!(false, "flip at {pos} bit {bit} went undetected ({} records)", back.len());
            }
        }
    }

    /// Garbage appended past the real frames is repaired; every real record
    /// survives.
    #[test]
    fn garbage_tail_is_repaired(
        values in vec(-100.0f32..100.0, 1..40),
        garbage in vec(0u32..256, 1..64),
    ) {
        let garbage: Vec<u8> = garbage.iter().map(|b| *b as u8).collect();
        let tmp = TempDir::new("garbage");
        let segs = write_log(tmp.path(), &values, u64::MAX);
        let mut f = OpenOptions::new().append(true).open(&segs[0]).expect("open");
        f.write_all(&garbage).expect("garbage");
        drop(f);

        match replayed_values(tmp.path(), u64::MAX) {
            Ok(back) => {
                prop_assert_eq!(back.len(), values.len(), "no real record may be lost");
                for (a, b) in values.iter().zip(&back) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            // Random garbage can (rarely) form a valid frame after the torn
            // point — the scanner then rightly refuses as mid-log damage
            // rather than silently swallowing a fabricated record.
            Err(WalError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "wrong error kind: {other}"),
        }
    }
}

/// Deterministic regression: damage in the middle of the last segment with
/// valid frames after it must be refused, not "repaired" by dropping data.
#[test]
fn mid_log_damage_with_valid_frames_after_is_refused() {
    let tmp = TempDir::new("midlog");
    let values: Vec<f32> = (0..10).map(|k| k as f32).collect();
    let segs = write_log(tmp.path(), &values, u64::MAX);
    let mut bytes = fs::read(&segs[0]).expect("read");
    // Flip a bit in the FIRST frame's payload; nine valid frames follow.
    let flip = hire_wal::SEGMENT_HEADER_LEN + 8 + 2;
    bytes[flip] ^= 0x10;
    fs::write(&segs[0], &bytes).expect("rewrite");
    let err = replayed_values(tmp.path(), u64::MAX).expect_err("must refuse");
    match err {
        WalError::Corrupt { reason, .. } => {
            assert!(reason.contains("mid-log"), "{reason}");
        }
        other => panic!("wrong error {other}"),
    }
}
