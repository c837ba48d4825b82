//! Directory-backed checkpoint store: crash-safe writes, retention, and a
//! loader that survives corrupt files.
//!
//! Write discipline: the snapshot is written to a `.tmp` sibling, fsynced,
//! atomically renamed to `ckpt-<steps>.hckpt`, and the directory is fsynced
//! so the rename itself is durable. A crash at any point leaves either the
//! previous file set or the new one — never a half-written snapshot under a
//! valid name.
//!
//! Read discipline: [`CheckpointStore::load_latest`] scans the directory
//! newest-first and returns the first snapshot that passes magic, version,
//! length, and CRC validation. Truncated or bit-flipped files are reported
//! in [`LoadOutcome::rejected`] (and logged to stderr) but never abort the
//! load — the run falls back to the newest *valid* state.

use crate::snapshot::TrainSnapshot;
use hire_error::{HireError, HireResult};
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File extension for snapshot files.
pub const SNAPSHOT_EXT: &str = "hckpt";

/// Fsyncs a directory so a just-renamed entry inside it is durable.
/// Surfaces failures typed: until the directory entry is flushed, a
/// crash can roll the rename back, so the write is *not* durable yet.
pub fn sync_dir(dir: &Path) -> HireResult<()> {
    let handle = File::open(dir).map_err(|e| HireError::io(dir.display().to_string(), e))?;
    handle
        .sync_all()
        .map_err(|e| HireError::io(dir.display().to_string(), e))
}

/// Default lineage tag: plain training snapshots (`ckpt-*.hckpt`).
pub const DEFAULT_TAG: &str = "ckpt";

/// A snapshot store rooted at one directory.
///
/// Several stores may share one directory as long as they use distinct
/// lineage *tags* (see [`CheckpointStore::open_tagged`]): file naming,
/// listing, retention, and the newest-valid-fallback loader are all scoped
/// to the store's own tag, so a background trainer's snapshots and the
/// candidate/rejected model lineages of an online-learning loop can live
/// side by side without evicting each other.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    tag: String,
    keep_last: usize,
}

/// What a directory scan found.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The newest valid snapshot, if any file validated.
    pub snapshot: TrainSnapshot,
    /// The file it came from.
    pub path: PathBuf,
    /// Newer files that failed validation, with the reason each was
    /// skipped.
    pub rejected: Vec<(PathBuf, HireError)>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store keeping the last `keep_last`
    /// snapshots under the default [`DEFAULT_TAG`] lineage. `keep_last` is
    /// clamped to at least 1.
    pub fn open(dir: impl Into<PathBuf>, keep_last: usize) -> HireResult<Self> {
        Self::open_tagged(dir, DEFAULT_TAG, keep_last)
    }

    /// Opens a store scoped to one lineage `tag` in (possibly shared)
    /// `dir`: files are named `<tag>-<steps>.hckpt` and only the store's
    /// own lineage is listed, pruned, or loaded. The tag must be non-empty
    /// and free of path separators / dots, so tags cannot collide with the
    /// extension or escape the directory.
    pub fn open_tagged(
        dir: impl Into<PathBuf>,
        tag: impl Into<String>,
        keep_last: usize,
    ) -> HireResult<Self> {
        let dir = dir.into();
        let tag = tag.into();
        if tag.is_empty()
            || !tag
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(HireError::invalid_argument(
                "CheckpointStore",
                format!("invalid lineage tag `{tag}` (alphanumeric, `_`, `-` only)"),
            ));
        }
        fs::create_dir_all(&dir).map_err(|e| HireError::io(dir.display().to_string(), e))?;
        Ok(CheckpointStore {
            dir,
            tag,
            keep_last: keep_last.max(1),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's lineage tag.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    fn file_name(&self, steps: u64) -> String {
        format!("{}-{steps:012}.{SNAPSHOT_EXT}", self.tag)
    }

    /// Parses the step count out of a snapshot file name belonging to this
    /// store's lineage. Files of other lineages (different tag) yield
    /// `None` — a tag that happens to be a prefix of another cannot match,
    /// because the remainder after `<tag>-` must be purely numeric.
    fn steps_of(&self, path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let stem = name
            .strip_prefix(&self.tag)?
            .strip_prefix('-')?
            .strip_suffix(&format!(".{SNAPSHOT_EXT}"))?;
        if stem.is_empty() || !stem.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        stem.parse().ok()
    }

    /// Snapshot files in the store's lineage, sorted oldest → newest by
    /// step count.
    pub fn list(&self) -> HireResult<Vec<PathBuf>> {
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| HireError::io(self.dir.display().to_string(), e))?;
        let mut files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| HireError::io(self.dir.display().to_string(), e))?;
            let path = entry.path();
            if let Some(steps) = self.steps_of(&path) {
                files.push((steps, path));
            }
        }
        files.sort();
        Ok(files.into_iter().map(|(_, p)| p).collect())
    }

    /// Writes `snapshot` crash-safely and prunes old files down to the
    /// retention limit. Returns the snapshot's final path.
    pub fn save(&self, snapshot: &TrainSnapshot) -> HireResult<PathBuf> {
        self.save_bytes(snapshot.completed_steps, &snapshot.encode())
    }

    /// Writes an arbitrary payload into this lineage under `steps`,
    /// wrapped in the standard checksummed container (see
    /// [`crate::format::encode_container`]) — the raw counterpart of
    /// [`CheckpointStore::save`], used by callers whose state is not a
    /// [`TrainSnapshot`] (e.g. the serving-state snapshots that anchor
    /// WAL truncation barriers). Same write discipline, retention, and
    /// newest-valid-fallback loading as training snapshots.
    pub fn save_raw(&self, steps: u64, payload: &[u8]) -> HireResult<PathBuf> {
        self.save_bytes(steps, &crate::format::encode_container(payload))
    }

    fn save_bytes(&self, steps: u64, bytes: &[u8]) -> HireResult<PathBuf> {
        let final_path = self.dir.join(self.file_name(steps));
        let tmp_path = {
            let mut os = final_path.as_os_str().to_os_string();
            os.push(".tmp");
            PathBuf::from(os)
        };
        {
            let mut tmp = File::create(&tmp_path)
                .map_err(|e| HireError::io(tmp_path.display().to_string(), e))?;
            tmp.write_all(bytes)
                .map_err(|e| HireError::io(tmp_path.display().to_string(), e))?;
            // Flush file contents to stable storage before the rename makes
            // the snapshot visible under its real name.
            tmp.sync_all()
                .map_err(|e| HireError::io(tmp_path.display().to_string(), e))?;
        }
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| HireError::io(final_path.display().to_string(), e))?;
        // Persist the rename (the directory entry) as well; without this a
        // power loss can roll back to a state where neither name exists.
        // A failure here is a durability failure — the caller must not
        // treat the snapshot as saved — so it surfaces typed, not swallowed.
        sync_dir(&self.dir)?;
        self.prune()?;
        Ok(final_path)
    }

    /// Deletes all but the newest `keep_last` snapshots of this lineage.
    /// Leftover `.tmp` files from interrupted writes are removed too — but
    /// only the lineage's own: another tagged store writing into the same
    /// directory may have an in-flight `.tmp` that must not be swept away.
    fn prune(&self) -> HireResult<()> {
        let files = self.list()?;
        if files.len() > self.keep_last {
            for old in &files[..files.len() - self.keep_last] {
                let _ = fs::remove_file(old);
            }
        }
        let own_prefix = format!("{}-", self.tag);
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                let own = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&own_prefix));
                if own && path.extension().is_some_and(|e| e == "tmp") {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        Ok(())
    }

    /// Retention by reference: deletes every snapshot of this lineage whose
    /// step count `keep` rejects. For a lineage whose files something else
    /// names — a serving model lineage can make an *old* snapshot the
    /// incumbent again, so "the newest `keep_last`" is the wrong set there.
    /// Open such a store with `keep_last = usize::MAX` so [`Self::save`]
    /// prunes nothing by count.
    pub fn retain(&self, keep: impl Fn(u64) -> bool) -> HireResult<()> {
        for path in self.list()? {
            if !self.steps_of(&path).is_some_and(&keep) {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(())
    }

    /// Scans for the newest snapshot that passes validation. Returns
    /// `Ok(None)` for an empty (or snapshot-free) store. Corrupt files are
    /// skipped with a stderr warning and reported in
    /// [`LoadOutcome::rejected`].
    pub fn load_latest(&self) -> HireResult<Option<LoadOutcome>> {
        if !self.dir.exists() {
            return Ok(None);
        }
        let mut files = self.list()?;
        files.reverse(); // newest first
        let mut rejected = Vec::new();
        for path in files {
            let label = path.display().to_string();
            let result = fs::read(&path)
                .map_err(|e| HireError::io(label.clone(), e))
                .and_then(|bytes| TrainSnapshot::decode(&bytes, &label));
            match result {
                Ok(snapshot) => {
                    return Ok(Some(LoadOutcome {
                        snapshot,
                        path,
                        rejected,
                    }));
                }
                Err(err) => {
                    eprintln!("checkpoint: skipping invalid snapshot: {err}");
                    rejected.push((path, err));
                }
            }
        }
        Ok(None)
    }

    /// [`CheckpointStore::load_latest`] for raw payloads written with
    /// [`CheckpointStore::save_raw`]: scans newest-first, returns the
    /// first payload whose container validates (with its step number),
    /// and skips corrupt files the same way the snapshot loader does.
    pub fn load_latest_raw(&self) -> HireResult<Option<(u64, Vec<u8>)>> {
        if !self.dir.exists() {
            return Ok(None);
        }
        let mut files = self.list()?;
        files.reverse(); // newest first
        for path in files {
            let steps = self.steps_of(&path).expect("listed files parse");
            let label = path.display().to_string();
            let result = fs::read(&path)
                .map_err(|e| HireError::io(label.clone(), e))
                .and_then(|bytes| {
                    crate::format::decode_container(&bytes, &label).map(<[u8]>::to_vec)
                });
            match result {
                Ok(payload) => return Ok(Some((steps, payload))),
                Err(err) => eprintln!("checkpoint: skipping invalid raw snapshot: {err}"),
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{GuardSnapshot, OptimizerSnapshot};
    use hire_tensor::NdArray;

    /// Self-cleaning temp dir for checkpoint tests.
    pub struct TempDir(pub PathBuf);

    impl TempDir {
        pub fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "hire_ckpt_{tag}_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn snap(step: u64) -> TrainSnapshot {
        TrainSnapshot {
            completed_steps: step,
            config_fingerprint: 99,
            params: vec![NdArray::from_vec(vec![2], vec![step as f32, 1.0])],
            rollback_step: step,
            rollback_params: vec![NdArray::from_vec(vec![2], vec![step as f32, 1.0])],
            optimizer: OptimizerSnapshot {
                lamb_m: vec![None],
                lamb_v: vec![None],
                lamb_t: 0,
                slow_weights: vec![NdArray::from_vec(vec![2], vec![0.0, 0.0])],
                lookahead_steps: 0,
            },
            guard: GuardSnapshot {
                ema: None,
                healthy_steps: 0,
                suspicious_streak: 0,
                lr_scale: 1.0,
                recoveries: 0,
            },
            rng_words: vec![step, step],
        }
    }

    #[test]
    fn save_load_round_trip() {
        let tmp = TempDir::new("round_trip");
        let store = CheckpointStore::open(&tmp.0, 3).unwrap();
        assert!(store.load_latest().unwrap().is_none(), "empty store");
        store.save(&snap(10)).unwrap();
        store.save(&snap(20)).unwrap();
        let loaded = store.load_latest().unwrap().expect("snapshot present");
        assert_eq!(loaded.snapshot.completed_steps, 20);
        assert!(loaded.rejected.is_empty());
        assert!(loaded.path.to_string_lossy().contains("ckpt-000000000020"));
    }

    #[test]
    fn retention_keeps_only_the_newest_n() {
        let tmp = TempDir::new("retention");
        let store = CheckpointStore::open(&tmp.0, 2).unwrap();
        for step in [1, 2, 3, 4, 5] {
            store.save(&snap(step)).unwrap();
        }
        let files = store.list().unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(store.steps_of(&files[0]), Some(4));
        assert_eq!(store.steps_of(&files[1]), Some(5));
    }

    #[test]
    fn retain_deletes_by_reference_not_by_age() {
        let tmp = TempDir::new("retain");
        let store = CheckpointStore::open_tagged(&tmp.0, "candidate", usize::MAX).unwrap();
        let trainer = CheckpointStore::open(&tmp.0, 5).unwrap();
        for step in [1, 2, 3, 4] {
            store.save(&snap(step)).unwrap();
            trainer.save(&snap(step)).unwrap();
        }
        assert_eq!(store.list().unwrap().len(), 4, "no pruning by count");
        // An old snapshot is still referenced; two newer ones are not.
        store.retain(|steps| steps == 2 || steps == 4).unwrap();
        let kept = store.list().unwrap();
        let kept: Vec<_> = kept.iter().map(|p| store.steps_of(p)).collect();
        assert_eq!(kept, vec![Some(2), Some(4)]);
        assert_eq!(trainer.list().unwrap().len(), 4, "other lineages untouched");
    }

    #[test]
    fn tagged_lineages_in_one_dir_do_not_interfere() {
        let tmp = TempDir::new("tagged");
        let trainer = CheckpointStore::open(&tmp.0, 2).unwrap();
        let candidates = CheckpointStore::open_tagged(&tmp.0, "candidate", 1).unwrap();
        for step in [1, 2, 3] {
            trainer.save(&snap(step)).unwrap();
        }
        candidates.save(&snap(100)).unwrap();
        candidates.save(&snap(200)).unwrap();
        // Each lineage prunes and lists only itself.
        assert_eq!(trainer.list().unwrap().len(), 2);
        assert_eq!(candidates.list().unwrap().len(), 1);
        assert_eq!(
            trainer
                .load_latest()
                .unwrap()
                .unwrap()
                .snapshot
                .completed_steps,
            3
        );
        assert_eq!(
            candidates
                .load_latest()
                .unwrap()
                .unwrap()
                .snapshot
                .completed_steps,
            200
        );
    }

    #[test]
    fn prune_spares_other_lineages_tmp_files() {
        let tmp = TempDir::new("tagged_tmp");
        let trainer = CheckpointStore::open(&tmp.0, 1).unwrap();
        // Another store's in-flight write must survive this store's prune.
        fs::create_dir_all(&tmp.0).unwrap();
        let foreign = tmp.0.join("candidate-000000000007.hckpt.tmp");
        fs::write(&foreign, b"in flight").unwrap();
        trainer.save(&snap(1)).unwrap();
        assert!(foreign.exists(), "foreign lineage .tmp must not be swept");
        // Own leftovers still are.
        let own = tmp.0.join("ckpt-000000000099.hckpt.tmp");
        fs::write(&own, b"dead").unwrap();
        trainer.save(&snap(2)).unwrap();
        assert!(!own.exists(), "own lineage .tmp must be pruned");
    }

    #[test]
    fn invalid_tags_are_rejected() {
        let tmp = TempDir::new("bad_tag");
        assert!(CheckpointStore::open_tagged(&tmp.0, "", 1).is_err());
        assert!(CheckpointStore::open_tagged(&tmp.0, "a.b", 1).is_err());
        assert!(CheckpointStore::open_tagged(&tmp.0, "a/b", 1).is_err());
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_valid() {
        let tmp = TempDir::new("fallback");
        let store = CheckpointStore::open(&tmp.0, 5).unwrap();
        store.save(&snap(10)).unwrap();
        let newest = store.save(&snap(20)).unwrap();
        // Flip a payload byte in the newest snapshot.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();

        let loaded = store.load_latest().unwrap().expect("older snapshot valid");
        assert_eq!(loaded.snapshot.completed_steps, 10, "fell back to step 10");
        assert_eq!(loaded.rejected.len(), 1);
        assert!(loaded.rejected[0].0.ends_with("ckpt-000000000020.hckpt"));
    }

    #[test]
    fn truncated_snapshot_is_skipped() {
        let tmp = TempDir::new("truncated");
        let store = CheckpointStore::open(&tmp.0, 5).unwrap();
        store.save(&snap(5)).unwrap();
        let newest = store.save(&snap(9)).unwrap();
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.snapshot.completed_steps, 5);
    }

    #[test]
    fn all_snapshots_corrupt_means_none() {
        let tmp = TempDir::new("all_corrupt");
        let store = CheckpointStore::open(&tmp.0, 5).unwrap();
        let p = store.save(&snap(3)).unwrap();
        fs::write(&p, b"not a checkpoint at all").unwrap();
        assert!(store.load_latest().unwrap().is_none());
    }

    #[test]
    fn tmp_leftovers_are_cleaned_and_ignored() {
        let tmp = TempDir::new("tmp_leftover");
        let store = CheckpointStore::open(&tmp.0, 5).unwrap();
        // Simulate a crash mid-write: a dangling .tmp from a dead process.
        fs::write(tmp.0.join("ckpt-000000000099.hckpt.tmp"), b"half-written").unwrap();
        store.save(&snap(1)).unwrap();
        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.snapshot.completed_steps, 1);
        let leftover: Vec<_> = fs::read_dir(&tmp.0)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftover.is_empty(), "tmp files must be pruned");
    }

    #[test]
    fn raw_payloads_round_trip_and_fall_back_past_corruption() {
        let tmp = TempDir::new("raw");
        let store = CheckpointStore::open_tagged(&tmp.0, "serving", 4).unwrap();
        assert!(store.load_latest_raw().unwrap().is_none());
        store.save_raw(3, b"state at three").unwrap();
        let newest = store.save_raw(9, b"state at nine").unwrap();
        assert_eq!(
            store.load_latest_raw().unwrap(),
            Some((9, b"state at nine".to_vec()))
        );
        // Corrupt the newest raw snapshot: the loader falls back.
        let mut bytes = fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newest, &bytes).unwrap();
        assert_eq!(
            store.load_latest_raw().unwrap(),
            Some((3, b"state at three".to_vec()))
        );
        // Raw and TrainSnapshot lineages share listing/retention, so a raw
        // store never confuses the snapshot loader of another tag.
        let trainer = CheckpointStore::open(&tmp.0, 2).unwrap();
        assert!(trainer.load_latest().unwrap().is_none());
    }

    #[test]
    fn open_clamps_keep_last_to_one() {
        let tmp = TempDir::new("clamp");
        let store = CheckpointStore::open(&tmp.0, 0).unwrap();
        store.save(&snap(1)).unwrap();
        store.save(&snap(2)).unwrap();
        assert_eq!(store.list().unwrap().len(), 1);
    }
}
