//! Folder-archive storage accounting (§VII-B baselines).
//!
//! ModelDB and MLflow "archive different versions of libraries and
//! intermediate results into separate folders": no content addressing, no
//! dedup — every archived object costs its full logical size, and identical
//! content archived twice costs twice. The only difference between the two
//! baselines is *what* gets archived (ModelDB re-archives every output every
//! iteration; MLflow archives each distinct intermediate once).

use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::hash::Hash256;
use std::collections::HashSet;
use std::time::Duration;

/// Cumulative folder-archive accounting.
#[derive(Debug, Default)]
pub struct FolderArchive {
    bytes: u64,
    seen: HashSet<Hash256>,
}

impl FolderArchive {
    /// Empty archive.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Archives an object unconditionally (ModelDB semantics). Returns the
    /// modeled copy time.
    pub(crate) fn archive(&mut self, len: u64) -> Duration {
        self.bytes += len;
        StorageCostModel::FOLDER_COPY.write_cost(len, len)
    }

    /// Archives an object only if its content id is new (MLflow reuse
    /// semantics). Returns the copy time (zero when skipped).
    pub(crate) fn archive_once(&mut self, id: Hash256, len: u64) -> Duration {
        if self.seen.insert(id) {
            self.archive(len)
        } else {
            Duration::ZERO
        }
    }

    /// Total bytes archived (the CSS contribution).
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_accumulates_every_copy() {
        let mut a = FolderArchive::new();
        let t1 = a.archive(1000);
        let t2 = a.archive(1000);
        assert_eq!(a.bytes(), 2000);
        assert_eq!(t1, t2);
        assert!(t1 > Duration::ZERO);
    }

    #[test]
    fn archive_once_skips_duplicates() {
        let mut a = FolderArchive::new();
        let id = Hash256::of(b"artifact");
        let first = a.archive_once(id, 500);
        let second = a.archive_once(id, 500);
        assert!(first > Duration::ZERO);
        assert_eq!(second, Duration::ZERO);
        assert_eq!(a.bytes(), 500);
        // Different content still archives.
        a.archive_once(Hash256::of(b"other"), 300);
        assert_eq!(a.bytes(), 800);
    }

    #[test]
    fn copy_time_scales_with_size() {
        let mut a = FolderArchive::new();
        let small = a.archive(1 << 10);
        let large = a.archive(1 << 30);
        assert!(large > small);
    }
}
