//! The write-ahead log proper: segmented append, group commit, rotation,
//! truncation, and open-time recovery.
//!
//! ## Concurrency model
//!
//! Two locks, never held together in the dangerous order:
//!
//! * `writer` guards the open segment file, the byte cursor, and `next_lsn`.
//!   An append holds it just long enough to (maybe) rotate, write one frame,
//!   and take an LSN.
//! * `sync` + a condvar implement the group-commit batcher. At most one
//!   thread is the **leader** (holds `syncing = true`). A committer that
//!   finds no sync in flight leads at once — it never waits for company: it
//!   clones the file handle (touching `writer` only for the clone + an LSN
//!   snapshot), fsyncs *outside* both locks, publishes the new
//!   `durable_upto`, and wakes everyone. Committers that arrive meanwhile
//!   are **followers**: they wait on the condvar and re-check, and one of
//!   them leads the next fsync, which covers them all — so batches grow by
//!   themselves exactly when the device is slow. If the leader failed or
//!   panicked they retry as leaders, so an injected fsync error surfaces to
//!   every waiter that still needs durability.
//!
//! Invariant: `durable_upto` counts records whose bytes are known
//! to have been fsynced — via a commit fsync or a rotation (rotation fsyncs
//! the outgoing segment before sealing it).

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use hire_chaos::{sites, FaultKind, FaultPlan};
use hire_ckpt::sync_dir;

use crate::error::{WalError, WalResult};
use crate::frame::{
    encode_frame, encode_header, parse_segment_name, scan_segment, segment_file_name,
    FRAME_PREFIX_LEN, SEGMENT_HEADER_LEN,
};
use crate::record::WalRecord;

/// Tuning knobs for a [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one exceeds this many bytes.
    pub segment_max_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_max_bytes: 4 << 20,
        }
    }
}

/// What [`Wal::open`] found and repaired on disk.
#[derive(Debug)]
pub struct WalRecovery {
    /// Surviving records as `(lsn, record)`, in LSN order. The first LSN is
    /// the base of the oldest surviving segment — earlier records were
    /// truncated after a snapshot barrier covered them.
    pub records: Vec<(u64, WalRecord)>,
    /// Torn-tail bytes removed from the newest segment (0 on a clean open).
    pub truncated_bytes: u64,
    /// Whether a newest segment too short to hold its header was deleted.
    pub deleted_torn_segment: bool,
}

/// Mutable writer state behind the `writer` lock.
struct Writer {
    file: File,
    path: PathBuf,
    /// Bytes written to the current segment (header included).
    seg_len: u64,
    /// LSN the next append will receive.
    next_lsn: u64,
    /// Set when an append failed part-way: the in-memory cursor no longer
    /// matches the file, so every further operation is refused until the log
    /// is reopened (which repairs the torn tail).
    poisoned: bool,
}

/// Group-commit state behind the `sync` lock.
struct SyncState {
    /// Count of records known durable (records with `lsn < durable_upto`).
    durable_upto: u64,
    /// Whether a leader currently owns the fsync.
    syncing: bool,
}

/// The fsync leader's claim on `syncing`. Dropping it — on return, on an
/// error, or while a panic unwinds — publishes what the fsync covered (0:
/// nothing), hands leadership back and wakes every follower, so a leader
/// that dies can never wedge the log.
struct Leader<'a> {
    wal: &'a Wal,
    covered: u64,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        let mut sync = self.wal.lock_sync();
        sync.durable_upto = sync.durable_upto.max(self.covered);
        sync.syncing = false;
        drop(sync);
        self.wal.sync_cv.notify_all();
    }
}

/// Observability counters for one log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub appended: u64,
    /// fsync calls issued (commit + rotation + open repair).
    pub fsyncs: u64,
    /// Segment rotations completed.
    pub rotations: u64,
    /// Records known durable.
    pub durable_upto: u64,
    /// LSN the next append will receive.
    pub next_lsn: u64,
}

/// A segmented, CRC-framed, crash-recoverable append-only log.
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    writer: Mutex<Writer>,
    sync: Mutex<SyncState>,
    sync_cv: Condvar,
    appended: AtomicU64,
    fsyncs: AtomicU64,
    rotations: AtomicU64,
    faults: Option<Arc<FaultPlan>>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

fn io_err(path: &Path, e: std::io::Error) -> WalError {
    WalError::io(path, e)
}

/// Sorted `(base_lsn, path)` list of segment files in `dir`.
fn list_segments(dir: &Path) -> WalResult<Vec<(u64, PathBuf)>> {
    let mut segments = BTreeMap::new();
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(base) = parse_segment_name(name) {
            segments.insert(base, entry.path());
        }
    }
    Ok(segments.into_iter().collect())
}

/// Create a fresh segment file with a fsynced header and a fsynced dir entry.
fn create_segment(dir: &Path, base_lsn: u64) -> WalResult<(File, PathBuf)> {
    let path = dir.join(segment_file_name(base_lsn));
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .write(true)
        .open(&path)
        .map_err(|e| io_err(&path, e))?;
    file.write_all(&encode_header(base_lsn))
        .map_err(|e| io_err(&path, e))?;
    file.sync_all().map_err(|e| io_err(&path, e))?;
    sync_dir(dir).map_err(|e| WalError::recovery(format!("dir fsync failed: {e}")))?;
    Ok((file, path))
}

impl Wal {
    /// Open (or create) the log in `dir`, repairing any torn tail, and return
    /// the surviving records for replay.
    pub fn open(dir: impl Into<PathBuf>, opts: WalOptions) -> WalResult<(Self, WalRecovery)> {
        Self::open_with_faults(dir, opts, None)
    }

    /// [`Wal::open`] with a chaos fault plan attached to the WAL sites.
    pub fn open_with_faults(
        dir: impl Into<PathBuf>,
        opts: WalOptions,
        faults: Option<Arc<FaultPlan>>,
    ) -> WalResult<(Self, WalRecovery)> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let segments = list_segments(&dir)?;

        let mut recovery = WalRecovery {
            records: Vec::new(),
            truncated_bytes: 0,
            deleted_torn_segment: false,
        };

        let (file, path, seg_len, next_lsn) = if segments.is_empty() {
            let (file, path) = create_segment(&dir, 0)?;
            (file, path, SEGMENT_HEADER_LEN as u64, 0)
        } else {
            // Scan every segment; sealed ones must be pristine, the last may
            // have a torn tail.
            let mut expected_base: Option<u64> = None;
            let mut tail: Option<(PathBuf, u64)> = None; // (path, valid_len)
            let last_idx = segments.len() - 1;
            for (idx, (name_base, path)) in segments.iter().enumerate() {
                let is_last = idx == last_idx;
                let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
                let Some(scan) = scan_segment(path, &bytes, is_last)? else {
                    // Header itself was torn: the segment was created at
                    // rotation but the crash hit before any record landed.
                    fs::remove_file(path).map_err(|e| io_err(path, e))?;
                    sync_dir(&dir)
                        .map_err(|e| WalError::recovery(format!("dir fsync failed: {e}")))?;
                    recovery.deleted_torn_segment = true;
                    continue;
                };
                if scan.base_lsn != *name_base {
                    return Err(WalError::corrupt(
                        path,
                        12,
                        format!(
                            "header base lsn {} disagrees with file name base {name_base}",
                            scan.base_lsn
                        ),
                    ));
                }
                if let Some(expected) = expected_base {
                    if scan.base_lsn != expected {
                        return Err(WalError::recovery(format!(
                            "segment {} starts at lsn {} but the previous segment ends at {expected}",
                            path.display(),
                            scan.base_lsn
                        )));
                    }
                }
                let mut offset = SEGMENT_HEADER_LEN as u64;
                for (i, payload) in scan.payloads.iter().enumerate() {
                    let record = WalRecord::decode(payload, path, offset)?;
                    recovery.records.push((scan.base_lsn + i as u64, record));
                    offset += (FRAME_PREFIX_LEN + payload.len()) as u64;
                }
                expected_base = Some(scan.base_lsn + scan.payloads.len() as u64);
                if is_last {
                    recovery.truncated_bytes = scan.torn_bytes;
                    tail = Some((path.clone(), scan.valid_len));
                }
            }
            let next_lsn = expected_base.unwrap_or(0);
            match tail {
                Some((path, valid_len)) => {
                    // Repair the torn tail in place, then reopen for append.
                    let file = OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| io_err(&path, e))?;
                    file.set_len(valid_len).map_err(|e| io_err(&path, e))?;
                    file.sync_all().map_err(|e| io_err(&path, e))?;
                    drop(file);
                    let file = OpenOptions::new()
                        .append(true)
                        .open(&path)
                        .map_err(|e| io_err(&path, e))?;
                    (file, path, valid_len, next_lsn)
                }
                None => {
                    // The only segment(s) past the sealed ones were torn at
                    // creation and deleted; start a fresh one where they left
                    // off. (Also covers a dir whose sole segment was torn.)
                    let (file, path) = create_segment(&dir, next_lsn)?;
                    (file, path, SEGMENT_HEADER_LEN as u64, next_lsn)
                }
            }
        };

        let wal = Wal {
            dir,
            opts,
            writer: Mutex::new(Writer {
                file,
                path,
                seg_len,
                next_lsn,
                poisoned: false,
            }),
            sync: Mutex::new(SyncState {
                // Everything read back at open is on disk and was fsynced
                // either before the crash or by the repair above.
                durable_upto: next_lsn,
                syncing: false,
            }),
            sync_cv: Condvar::new(),
            appended: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            faults,
        };
        Ok((wal, recovery))
    }

    /// LSN the next append will receive (= count of records ever logged,
    /// including truncated ones).
    pub fn next_lsn(&self) -> u64 {
        self.lock_writer_unchecked().next_lsn
    }

    /// Count of records known durable.
    pub fn durable_upto(&self) -> u64 {
        self.lock_sync().durable_upto
    }

    /// Observability counters.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appended: self.appended.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            rotations: self.rotations.load(Ordering::Relaxed),
            durable_upto: self.lock_sync().durable_upto,
            next_lsn: self.lock_writer_unchecked().next_lsn,
        }
    }

    fn lock_writer_unchecked(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn lock_sync(&self) -> MutexGuard<'_, SyncState> {
        self.sync.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Append one record (buffered — not yet durable) and return its LSN.
    /// Call [`Wal::commit`] with the LSN before acknowledging the write.
    pub fn append(&self, record: &WalRecord) -> WalResult<u64> {
        let payload = record.encode();
        let frame = encode_frame(&payload);

        let mut writer = self.lock_writer_unchecked();
        if writer.poisoned {
            return Err(WalError::Poisoned);
        }

        // Chaos hook: one decision per arrival, applied in-place.
        let mut torn: Option<Vec<u8>> = None;
        if let Some(plan) = &self.faults {
            match plan.fire(sites::WAL_APPEND) {
                Err(fault) => return Err(WalError::Injected { site: fault.site }),
                Ok(Some(FaultKind::TornWrite)) => {
                    torn = Some(plan.torn_image(sites::WAL_APPEND, &frame));
                }
                Ok(_) => {}
            }
        }

        if let Some(torn_bytes) = torn {
            // Simulate a crash mid-write(2): a short prefix plus garbage
            // reaches the file, and this process would be dead — poison the
            // log so nothing else appends after the tear.
            let _ = writer.file.write_all(&torn_bytes);
            let _ = writer.file.sync_all();
            writer.poisoned = true;
            return Err(WalError::Injected {
                site: sites::WAL_APPEND,
            });
        }

        // Rotate if the current segment is full. A failed rotation (injected
        // or real) is abandoned: the segment keeps growing, which is safe.
        if writer.seg_len >= self.opts.segment_max_bytes {
            if let Err(err) = self.rotate_locked(&mut writer) {
                if !matches!(err, WalError::Injected { .. }) {
                    return Err(err);
                }
            }
        }

        if let Err(e) = writer.file.write_all(&frame) {
            // The frame may be partially on disk; the in-memory cursor is no
            // longer trustworthy. Poison until reopen repairs the tail.
            writer.poisoned = true;
            return Err(io_err(&writer.path, e));
        }
        writer.seg_len += frame.len() as u64;
        let lsn = writer.next_lsn;
        writer.next_lsn += 1;
        drop(writer);

        self.appended.fetch_add(1, Ordering::Relaxed);
        Ok(lsn)
    }

    /// Seal the current segment (fsync it) and start a new one at the
    /// current LSN. Caller holds the writer lock.
    fn rotate_locked(&self, writer: &mut Writer) -> WalResult<()> {
        if let Some(plan) = &self.faults {
            if let Err(fault) = plan.fire(sites::WAL_ROTATE) {
                return Err(WalError::Injected { site: fault.site });
            }
        }
        writer
            .file
            .sync_all()
            .map_err(|e| io_err(&writer.path, e))?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        let sealed_upto = writer.next_lsn;
        let (file, path) = create_segment(&self.dir, writer.next_lsn)?;
        writer.file = file;
        writer.path = path;
        writer.seg_len = SEGMENT_HEADER_LEN as u64;
        self.rotations.fetch_add(1, Ordering::Relaxed);
        // The sealed segment's records are now durable.
        let mut sync = self.lock_sync();
        if sealed_upto > sync.durable_upto {
            sync.durable_upto = sealed_upto;
            self.sync_cv.notify_all();
        }
        Ok(())
    }

    /// Wait until the record at `lsn` is durable: returns only after an
    /// fsync that covers it (this caller's, or a concurrent committer's).
    pub fn commit(&self, lsn: u64) -> WalResult<()> {
        loop {
            let mut sync = self.lock_sync();
            if sync.durable_upto > lsn {
                return Ok(());
            }
            if sync.syncing {
                // Follower: wait for the leader's verdict, then re-check.
                // The timeout is a lost-wakeup backstop, not a pacing knob.
                let (guard, _) = self
                    .sync_cv
                    .wait_timeout(sync, Duration::from_millis(50))
                    .unwrap_or_else(|p| p.into_inner());
                drop(guard);
                continue;
            }
            sync.syncing = true;
            drop(sync);

            // Leader: fsync at once. Whatever the outcome — covered, failed
            // or panicked — dropping `leader` publishes it and wakes the
            // followers; then go around: a rotation or a racing append may
            // still leave `lsn` uncovered.
            let mut leader = Leader {
                wal: self,
                covered: 0,
            };
            leader.covered = self.fsync_once()?;
        }
    }

    /// Append and make durable — for control records like barriers and
    /// model events, which are acknowledged one at a time.
    pub fn append_durable(&self, record: &WalRecord) -> WalResult<u64> {
        let lsn = self.append(record)?;
        self.commit(lsn)?;
        Ok(lsn)
    }

    /// Make everything appended so far durable.
    pub fn sync_all(&self) -> WalResult<()> {
        let next = self.lock_writer_unchecked().next_lsn;
        if next == 0 {
            return Ok(());
        }
        self.commit(next - 1)
    }

    /// One fsync of the current segment; returns the LSN count it covers.
    fn fsync_once(&self) -> WalResult<u64> {
        // Touch the writer lock only to clone the handle and snapshot the
        // cursor — the fsync itself runs with no lock held.
        let (handle, covered, path) = {
            let writer = self.lock_writer_unchecked();
            if writer.poisoned {
                return Err(WalError::Poisoned);
            }
            let handle = writer
                .file
                .try_clone()
                .map_err(|e| io_err(&writer.path, e))?;
            (handle, writer.next_lsn, writer.path.clone())
        };
        if let Some(plan) = &self.faults {
            if let Err(fault) = plan.fire(sites::WAL_FSYNC) {
                return Err(WalError::Injected { site: fault.site });
            }
        }
        handle.sync_all().map_err(|e| io_err(&path, e))?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(covered)
    }

    /// Drop every sealed segment whose records are all below `covered` (a
    /// snapshot-barrier LSN). The active segment is never removed. Returns
    /// the number of segments deleted.
    pub fn truncate_covered(&self, covered: u64) -> WalResult<usize> {
        // Hold the writer lock so rotation cannot race the directory walk.
        let writer = self.lock_writer_unchecked();
        let segments = list_segments(&self.dir)?;
        let mut removed = 0;
        for window in segments.windows(2) {
            let (_, ref path) = window[0];
            let (next_base, _) = window[1];
            if next_base <= covered && *path != writer.path {
                fs::remove_file(path).map_err(|e| io_err(path, e))?;
                removed += 1;
            }
        }
        drop(writer);
        if removed > 0 {
            sync_dir(&self.dir)
                .map_err(|e| WalError::recovery(format!("dir fsync failed: {e}")))?;
        }
        Ok(removed)
    }

    /// Number of segment files currently on disk.
    pub fn segment_count(&self) -> WalResult<usize> {
        Ok(list_segments(&self.dir)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct TempDir(PathBuf);
    impl TempDir {
        fn new(label: &str) -> Self {
            static N: AtomicUsize = AtomicUsize::new(0);
            let n = N.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("hire-wal-{label}-{}-{n}", std::process::id()));
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

    fn rating(k: u64) -> WalRecord {
        WalRecord::Rating {
            user: k,
            item: k * 3,
            value: (k % 5) as f32,
        }
    }

    fn tiny_opts() -> WalOptions {
        WalOptions {
            segment_max_bytes: 128, // force frequent rotation
        }
    }

    #[test]
    fn appends_replay_across_reopen() {
        let tmp = TempDir::new("reopen");
        let records: Vec<WalRecord> = (0..40).map(rating).collect();
        {
            let (wal, rec) = Wal::open(tmp.path(), tiny_opts()).expect("open");
            assert!(rec.records.is_empty());
            for r in &records {
                let lsn = wal.append(r).expect("append");
                wal.commit(lsn).expect("commit");
            }
            assert_eq!(wal.next_lsn(), 40);
            assert_eq!(wal.durable_upto(), 40);
            assert!(wal.stats().rotations > 0, "tiny segments must rotate");
        }
        let (wal, rec) = Wal::open(tmp.path(), tiny_opts()).expect("reopen");
        assert_eq!(rec.truncated_bytes, 0);
        let replayed: Vec<WalRecord> = rec.records.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(replayed, records);
        let lsns: Vec<u64> = rec.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, (0..40).collect::<Vec<_>>());
        assert_eq!(wal.next_lsn(), 40);
    }

    /// The batching rule, stated without a clock: a committer that finds no
    /// sync in flight fsyncs at once (covering what is appended by then),
    /// and everyone who commits while it is in flight shares *one* further
    /// fsync. The `Delay` holds the first leader inside its fsync so the
    /// followers really do arrive meanwhile; the counts below do not depend
    /// on it — the followers append only after the leader has snapshotted
    /// its coverage, and commit only once all of them have appended.
    #[test]
    fn group_commit_batches_concurrent_writers() {
        const FOLLOWERS: u64 = 6;
        let tmp = TempDir::new("group");
        let plan = Arc::new(FaultPlan::new(1).with_fault(
            sites::WAL_FSYNC,
            FaultKind::Delay(Duration::from_millis(50)),
            1.0,
        ));
        let (wal, _) = Wal::open_with_faults(tmp.path(), WalOptions::default(), Some(plan.clone()))
            .expect("open");
        let appended = std::sync::Barrier::new(FOLLOWERS as usize);
        std::thread::scope(|scope| {
            let (wal, appended) = (&wal, &appended);
            let lsn = wal.append(&rating(0)).expect("append");
            scope.spawn(move || wal.commit(lsn).expect("leader commit"));
            // The fault site sits after the leader's coverage snapshot:
            // once it has been passed, nothing appended from here on can
            // be covered by the first fsync.
            while plan.site_stats(sites::WAL_FSYNC).arrivals == 0 {
                std::thread::yield_now();
            }
            for k in 1..=FOLLOWERS {
                scope.spawn(move || {
                    let lsn = wal.append(&rating(k)).expect("append");
                    appended.wait();
                    wal.commit(lsn).expect("follower commit");
                });
            }
        });
        let stats = wal.stats();
        assert_eq!(stats.appended, FOLLOWERS + 1);
        assert_eq!(stats.durable_upto, FOLLOWERS + 1);
        assert_eq!(
            stats.fsyncs, 2,
            "one fsync for the leader, one shared by every committer that arrived meanwhile"
        );
        drop(wal);
        let (_, rec) = Wal::open(tmp.path(), WalOptions::default()).expect("reopen");
        let lsns: Vec<u64> = rec.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, (0..=FOLLOWERS).collect::<Vec<_>>());
    }

    #[test]
    fn truncate_drops_only_fully_covered_sealed_segments() {
        let tmp = TempDir::new("trunc");
        let (wal, _) = Wal::open(tmp.path(), tiny_opts()).expect("open");
        for k in 0..60 {
            let lsn = wal.append(&rating(k)).expect("append");
            wal.commit(lsn).expect("commit");
        }
        let before = wal.segment_count().expect("count");
        assert!(before > 2, "need several segments, got {before}");

        // Covering nothing removes nothing.
        assert_eq!(wal.truncate_covered(0).expect("truncate"), 0);
        // Cover half the log.
        let removed = wal.truncate_covered(30).expect("truncate");
        assert!(removed > 0);
        let (wal2, rec) = Wal::open(tmp.path(), tiny_opts()).expect("reopen");
        assert_eq!(wal2.next_lsn(), 60);
        let first_lsn = rec.records.first().expect("records survive").0;
        assert!(
            first_lsn <= 30,
            "the segment straddling lsn 30 must survive"
        );
        // Every record ≥ 30 must still be present and contiguous.
        let lsns: Vec<u64> = rec.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, (first_lsn..60).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_is_repaired_and_log_reusable() {
        let tmp = TempDir::new("torn");
        let (wal, _) = Wal::open(tmp.path(), tiny_opts()).expect("open");
        for k in 0..5 {
            wal.append(&rating(k)).expect("append");
        }
        wal.sync_all().expect("sync");
        // Simulate a crash mid-append: write half a frame by hand.
        let seg = {
            let segs = list_segments(tmp.path()).expect("list");
            segs.last().expect("segment").1.clone()
        };
        drop(wal);
        let mut f = OpenOptions::new()
            .append(true)
            .open(&seg)
            .expect("open seg");
        f.write_all(&[9, 0, 0, 0, 0xAA, 0xBB]).expect("torn bytes");
        f.sync_all().expect("sync");
        drop(f);

        let (wal, rec) = Wal::open(tmp.path(), tiny_opts()).expect("reopen repairs");
        assert_eq!(rec.records.len(), 5);
        assert_eq!(rec.truncated_bytes, 6);
        // The repaired log keeps working.
        let lsn = wal.append(&rating(99)).expect("append after repair");
        assert_eq!(lsn, 5);
        wal.commit(lsn).expect("commit");
        drop(wal);
        let (_, rec) = Wal::open(tmp.path(), tiny_opts()).expect("reopen again");
        assert_eq!(rec.records.len(), 6);
        assert_eq!(rec.truncated_bytes, 0);
    }

    #[test]
    fn injected_append_error_means_nothing_landed() {
        let tmp = TempDir::new("inj-append");
        let plan =
            Arc::new(FaultPlan::new(11).with_fault(sites::WAL_APPEND, FaultKind::Error, 1.0));
        let (wal, _) = Wal::open_with_faults(tmp.path(), tiny_opts(), Some(plan)).expect("open");
        let err = wal.append(&rating(1)).expect_err("must inject");
        assert!(matches!(err, WalError::Injected { site } if site == sites::WAL_APPEND));
        assert_eq!(wal.next_lsn(), 0);
        drop(wal);
        let (_, rec) = Wal::open(tmp.path(), tiny_opts()).expect("reopen");
        assert!(rec.records.is_empty(), "refused write must not leave bytes");
    }

    #[test]
    fn torn_write_poisons_until_reopen() {
        let tmp = TempDir::new("inj-tear");
        let plan =
            Arc::new(FaultPlan::new(7).with_fault(sites::WAL_APPEND, FaultKind::TornWrite, 0.5));
        let (wal, _) = Wal::open_with_faults(tmp.path(), tiny_opts(), Some(plan)).expect("open");
        let mut acked = Vec::new();
        let mut poisoned = false;
        for k in 0..50u64 {
            match wal.append(&rating(k)) {
                Ok(lsn) => {
                    wal.commit(lsn).expect("commit");
                    acked.push(k);
                }
                Err(WalError::Injected { .. }) => {
                    poisoned = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(poisoned, "a 50% tear rate must fire within 50 appends");
        assert!(matches!(
            wal.append(&rating(1000)).expect_err("poisoned"),
            WalError::Poisoned
        ));
        // Already-durable records stay committed (sync_to short-circuits on
        // durable_upto without touching the poisoned writer).
        wal.sync_all().expect("acked prefix stays durable");
        drop(wal);
        // Reopen repairs the torn frame; every acked record survives.
        let (_, rec) = Wal::open(tmp.path(), tiny_opts()).expect("reopen");
        let users: Vec<u64> = rec
            .records
            .iter()
            .map(|(_, r)| match r {
                WalRecord::Rating { user, .. } => *user,
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(users, acked, "acked writes survive, torn write does not");
        assert!(rec.truncated_bytes > 0, "the tear left bytes to repair");
    }

    #[test]
    fn injected_fsync_error_fails_commit_but_retry_succeeds() {
        let tmp = TempDir::new("inj-fsync");
        // Fire once, then heal: rate 1.0 on the first arrival only is not
        // expressible, so use a plan that fails ~always and check the error,
        // then a clean plan for the retry.
        let plan = Arc::new(FaultPlan::new(3).with_fault(sites::WAL_FSYNC, FaultKind::Error, 1.0));
        let opts = tiny_opts();
        let (wal, _) = Wal::open_with_faults(tmp.path(), opts.clone(), Some(plan)).expect("open");
        let lsn = wal.append(&rating(4)).expect("append buffers fine");
        let err = wal.commit(lsn).expect_err("fsync must fail");
        assert!(matches!(err, WalError::Injected { site } if site == sites::WAL_FSYNC));
        assert_eq!(wal.durable_upto(), 0, "no durability was promised");
        drop(wal);
        // The buffered frame reached the file (only the fsync was refused) —
        // after reopen it replays, and commits work again.
        let (wal, rec) = Wal::open(tmp.path(), opts).expect("reopen");
        assert_eq!(rec.records.len(), 1);
        let lsn = wal.append(&rating(5)).expect("append");
        wal.commit(lsn).expect("commit heals");
    }

    #[test]
    fn injected_rotation_error_is_abandoned_not_fatal() {
        let tmp = TempDir::new("inj-rotate");
        let plan = Arc::new(FaultPlan::new(5).with_fault(sites::WAL_ROTATE, FaultKind::Error, 1.0));
        let (wal, _) = Wal::open_with_faults(tmp.path(), tiny_opts(), Some(plan)).expect("open");
        for k in 0..40 {
            let lsn = wal
                .append(&rating(k))
                .expect("append despite failed rotations");
            wal.commit(lsn).expect("commit");
        }
        assert_eq!(wal.stats().rotations, 0, "every rotation was injected away");
        assert_eq!(wal.segment_count().expect("count"), 1);
        drop(wal);
        let (_, rec) = Wal::open(tmp.path(), tiny_opts()).expect("reopen");
        assert_eq!(rec.records.len(), 40);
    }

    /// A leader that panics inside its fsync must hand leadership back on
    /// the way out: the next committer leads (and here panics in turn, the
    /// plan fires on every arrival) instead of waiting for ever on a
    /// `syncing` flag nobody will clear.
    #[test]
    fn panicking_fsync_leader_does_not_wedge_the_log() {
        let tmp = TempDir::new("inj-panic");
        let plan = Arc::new(FaultPlan::new(9).with_fault(sites::WAL_FSYNC, FaultKind::Panic, 1.0));
        let (wal, _) =
            Wal::open_with_faults(tmp.path(), tiny_opts(), Some(plan.clone())).expect("open");
        let wal = Arc::new(wal);
        let lsn = wal.append(&rating(1)).expect("append");
        for committer in 1..=2u64 {
            let wal = Arc::clone(&wal);
            let (done, finished) = std::sync::mpsc::channel::<()>();
            let handle = std::thread::spawn(move || {
                let _done = done; // dropped on return and on unwind alike
                let _ = wal.commit(lsn);
            });
            assert_eq!(
                finished.recv_timeout(Duration::from_secs(10)),
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected),
                "committer {committer} hung behind a dead leader"
            );
            assert!(handle.join().is_err(), "the injected panic propagates");
            assert_eq!(plan.site_stats(sites::WAL_FSYNC).arrivals, committer);
        }
        assert_eq!(wal.durable_upto(), 0, "no durability was promised");
    }

    /// Appends 40 records through a plan that panics at `site` on half its
    /// arrivals and stalls the rest (`Delay`), retrying a panicked append.
    /// Both `wal.append` and `wal.rotate` fire before a byte is written or
    /// the cursor moves, so a panic there must cost nothing: the log is not
    /// poisoned, the retry gets the LSN the panicked append would have, and
    /// a reopen finds every record and no torn tail.
    fn append_through_panics_at(site: &'static str) {
        let tmp = TempDir::new("inj-append-panic");
        let plan = Arc::new(
            FaultPlan::new(21)
                .with_fault(site, FaultKind::Panic, 0.5)
                .with_fault(site, FaultKind::Delay(Duration::from_micros(50)), 1.0),
        );
        let (wal, _) =
            Wal::open_with_faults(tmp.path(), tiny_opts(), Some(plan.clone())).expect("open");
        let mut panics = 0;
        for k in 0..40 {
            let lsn = loop {
                let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    wal.append(&rating(k))
                }));
                match attempt {
                    Ok(appended) => break appended.expect("not poisoned"),
                    Err(_) => {
                        panics += 1;
                        assert_eq!(wal.next_lsn(), k, "a panicked append consumed an LSN");
                    }
                }
            };
            assert_eq!(lsn, k);
        }
        let fired = plan.site_stats(site);
        assert!(
            panics > 0 && fired.injected > panics,
            "panic and delay fired"
        );
        assert_eq!(fired.arrivals, fired.injected, "every arrival took a fault");
        assert!(wal.stats().rotations > 0);
        wal.sync_all().expect("commit");
        drop(wal);
        let (_, rec) = Wal::open(tmp.path(), tiny_opts()).expect("reopen");
        assert_eq!((rec.truncated_bytes, rec.deleted_torn_segment), (0, false));
        let want: Vec<(u64, WalRecord)> = (0..40).map(|k| (k, rating(k))).collect();
        assert_eq!(rec.records, want);
    }

    /// A checksummed frame whose record this tree does not write (tag 2, an
    /// older log's holdout mark) is refused at open, typed, and the log is
    /// left as it was: it is not a torn tail to repair away.
    #[test]
    fn a_retired_record_kind_is_refused_not_truncated() {
        let tmp = TempDir::new("retired");
        {
            let (wal, _) = Wal::open(tmp.path(), WalOptions::default()).expect("open");
            for k in 0..3 {
                wal.append_durable(&rating(k)).expect("append");
            }
        }
        let (_, path) = list_segments(tmp.path())
            .expect("list")
            .pop()
            .expect("a segment");
        let mut mark = vec![2u8];
        mark.extend_from_slice(&1u64.to_le_bytes());
        let mut bytes = fs::read(&path).expect("read");
        bytes.extend_from_slice(&encode_frame(&mark));
        fs::write(&path, &bytes).expect("write");

        let err = Wal::open(tmp.path(), WalOptions::default()).unwrap_err();
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");
        assert!(
            err.to_string().contains("unknown wal record tag 2"),
            "{err}"
        );
        assert_eq!(
            fs::read(&path).expect("reread"),
            bytes,
            "the log is untouched"
        );
    }

    #[test]
    fn panicking_append_costs_nothing() {
        append_through_panics_at(sites::WAL_APPEND);
    }

    #[test]
    fn panicking_rotation_costs_nothing() {
        append_through_panics_at(sites::WAL_ROTATE);
    }
}
