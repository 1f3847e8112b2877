//! A path under the system temp directory that is removed when its guard
//! drops — also when the test panics — so a test run leaves nothing
//! behind. A binary opts in with
//! `#[path = "support/temp_path.rs"] mod temp_path;`.

#![allow(dead_code)]

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Owns `<temp>/ivmf_<tag>_<pid>_<n>`: unique per process and per call,
/// so tests running concurrently never share one. Nothing is created;
/// whatever the test puts there, a file or a directory tree, is removed
/// on drop.
#[derive(Debug)]
pub struct TempPath(PathBuf);

impl TempPath {
    pub fn new(tag: &str) -> TempPath {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("ivmf_{tag}_{}_{n}", std::process::id());
        TempPath(std::env::temp_dir().join(name))
    }
}

impl Deref for TempPath {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        if self.0.is_dir() {
            std::fs::remove_dir_all(&self.0).ok();
        } else {
            std::fs::remove_file(&self.0).ok();
        }
    }
}
