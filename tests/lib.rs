//! Cross-crate integration tests live in `tests/tests/`; this library holds
//! the helpers they share.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch directory no other test can collide with, removed with its
/// contents on drop.
///
/// The name joins the process id, a per-process counter and the caller's
/// test name, so tests running in parallel threads of one binary, and
/// binaries running side by side, never share a path.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh directory for the test `name`.
    pub fn new(name: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("sixscope-it-{}-{n}-{name}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create test temp dir");
        TempDir(path)
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A path inside the directory.
    pub fn join<P: AsRef<Path>>(&self, name: P) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
