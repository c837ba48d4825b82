//! Sharded-log manifest: one root directory, one `MANIFEST` file naming the
//! shard count, and one `shard-NNN/` WAL directory per shard.
//!
//! The manifest is the recovery root for `hire_shard::ShardedEngine`:
//! recovery reads it, opens every shard's log, and rebuilds the shards in lockstep —
//! refusing to serve if the shard count on disk disagrees with the serving
//! configuration.

use std::fs;
use std::path::{Path, PathBuf};

use hire_ckpt::{decode_container, encode_container, sync_dir, PayloadReader, PayloadWriter};

use crate::error::{WalError, WalResult};

/// File name of the manifest inside the sharded-WAL root.
pub(crate) const MANIFEST_FILE: &str = "MANIFEST";

/// The sharded-log layout descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardManifest {
    /// Number of shard logs under the root.
    pub shards: u32,
}

/// Directory holding shard `idx`'s WAL under `root`.
pub fn shard_dir(root: &Path, idx: usize) -> PathBuf {
    root.join(format!("shard-{idx:03}"))
}

impl ShardManifest {
    /// Write the manifest atomically (temp → fsync → rename → dir fsync),
    /// using the same container framing as checkpoints so a torn or
    /// bit-flipped manifest is detected, not silently honored.
    pub fn write(&self, root: &Path) -> WalResult<()> {
        fs::create_dir_all(root).map_err(|e| WalError::io(root, e))?;
        let mut w = PayloadWriter::new();
        w.put_u32(self.shards);
        let bytes = encode_container(&w.finish());
        let tmp = root.join(format!("{MANIFEST_FILE}.tmp"));
        let path = root.join(MANIFEST_FILE);
        {
            use std::io::Write;
            let mut file = fs::File::create(&tmp).map_err(|e| WalError::io(&tmp, e))?;
            file.write_all(&bytes).map_err(|e| WalError::io(&tmp, e))?;
            file.sync_all().map_err(|e| WalError::io(&tmp, e))?;
        }
        fs::rename(&tmp, &path).map_err(|e| WalError::io(&path, e))?;
        sync_dir(root).map_err(|e| WalError::recovery(format!("dir fsync failed: {e}")))?;
        Ok(())
    }

    /// Read and validate the manifest. `Ok(None)` when no manifest exists
    /// (a fresh root); corruption is a typed error.
    pub fn read(root: &Path) -> WalResult<Option<Self>> {
        let path = root.join(MANIFEST_FILE);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(WalError::io(&path, e)),
        };
        let path_str = path.display().to_string();
        let payload = decode_container(&bytes, &path_str)
            .map_err(|e| WalError::corrupt(&path, 0, format!("bad manifest container: {e}")))?;
        let mut r = PayloadReader::new(payload, &path_str);
        let shards = r
            .take_u32("shard count")
            .and_then(|s| r.expect_exhausted().map(|_| s))
            .map_err(|e| WalError::corrupt(&path, 0, format!("bad manifest payload: {e}")))?;
        Ok(Some(ShardManifest { shards }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_and_detects_corruption() {
        let root = std::env::temp_dir().join(format!("hire-wal-manifest-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);

        assert!(ShardManifest::read(&root).expect("missing root").is_none());
        fs::create_dir_all(&root).expect("mkdir");
        assert!(ShardManifest::read(&root).expect("fresh root").is_none());

        let m = ShardManifest { shards: 4 };
        m.write(&root).expect("write");
        assert_eq!(ShardManifest::read(&root).expect("read"), Some(m));
        assert!(!root.join(format!("{MANIFEST_FILE}.tmp")).exists());

        // Flip one byte: typed corruption, not a silent bad shard count.
        let path = root.join(MANIFEST_FILE);
        let mut bytes = fs::read(&path).expect("read bytes");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).expect("rewrite");
        let err = ShardManifest::read(&root).expect_err("corrupt manifest");
        assert!(matches!(err, WalError::Corrupt { .. }), "{err}");

        assert_eq!(shard_dir(&root, 7), root.join("shard-007"));
        let _ = fs::remove_dir_all(&root);
    }
}
