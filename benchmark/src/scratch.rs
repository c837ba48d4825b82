//! The run's scratch directory (WAL roots, intermediate files).
//!
//! The driver's contract is that a run reads and writes only inside its
//! checkout, so scratch cannot live in the OS temp dir: it lives next to
//! the benchmark executable, i.e. inside the cargo target directory, which
//! is always inside the checkout and always git-ignored. It is removed when
//! the guard drops — also on a failed check, because checks return errors
//! up to `main` instead of exiting in place.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Distinguishes the scratch directories of one process (unit tests run in
/// parallel threads and must not share a directory).
static NEXT: AtomicUsize = AtomicUsize::new(0);

pub struct Scratch {
    root: PathBuf,
}

/// The directory holding the running executable.
pub fn exe_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from(".")))
}

impl Scratch {
    pub fn create() -> std::io::Result<Self> {
        let root = exe_dir()?.join(format!(
            "hire-benchmark-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A stale directory of a killed run with a recycled pid.
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// A fresh, empty sub-directory.
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop() {
        let scratch = Scratch::create().unwrap();
        let dir = scratch.subdir("wal-0").unwrap();
        std::fs::write(dir.join("x"), b"y").unwrap();
        let root = scratch.root.clone();
        assert!(root.starts_with(exe_dir().unwrap()));
        drop(scratch);
        assert!(!root.exists());
    }
}
