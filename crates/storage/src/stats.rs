//! Storage accounting: logical vs physical bytes, per [`ObjectKind`].
//!
//! The paper's Fig. 7 / Fig. 8 report *cumulative storage size* (CSS). The
//! key quantity distinguishing MLCask from the folder-archiving baselines is
//! the gap between logical bytes written (what an archive-per-version scheme
//! pays) and physical bytes after chunk dedup (what ForkBase pays).

use crate::object::ObjectKind;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::AddAssign;

/// Counters for one object category.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindStats {
    /// Number of blobs written (including logical duplicates).
    pub(crate) blobs_written: u64,
    /// Bytes presented to the store.
    pub logical_bytes: u64,
    /// New chunk bytes actually persisted.
    pub physical_bytes: u64,
    /// Chunks presented.
    pub(crate) chunks_seen: u64,
    /// Chunks that were already present (dedup hits).
    pub(crate) chunks_deduped: u64,
}

impl AddAssign for KindStats {
    fn add_assign(&mut self, rhs: Self) {
        self.blobs_written += rhs.blobs_written;
        self.logical_bytes += rhs.logical_bytes;
        self.physical_bytes += rhs.physical_bytes;
        self.chunks_seen += rhs.chunks_seen;
        self.chunks_deduped += rhs.chunks_deduped;
    }
}

/// Aggregated storage statistics.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageStats {
    per_kind: BTreeMap<ObjectKind, KindStats>,
}

impl StorageStats {
    /// Empty statistics.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one blob write.
    pub(crate) fn record(&mut self, kind: ObjectKind, delta: KindStats) {
        *self.per_kind.entry(kind).or_default() += delta;
    }

    /// Stats for one category.
    pub fn kind(&self, kind: ObjectKind) -> KindStats {
        self.per_kind.get(&kind).copied().unwrap_or_default()
    }

    /// Sum over all categories.
    pub fn total(&self) -> KindStats {
        let mut t = KindStats::default();
        for v in self.per_kind.values() {
            t += *v;
        }
        t
    }

    /// Logical bytes / physical bytes; 1.0 when nothing is stored.
    pub fn dedup_ratio(&self) -> f64 {
        let t = self.total();
        if t.physical_bytes == 0 {
            1.0
        } else {
            t.logical_bytes as f64 / t.physical_bytes as f64
        }
    }
}

/// Point-in-time snapshot of [`BlobCache`](crate::cache::BlobCache)
/// telemetry.
///
/// Deliberately **not** part of [`StorageStats`]: that table is serialized
/// into determinism observables (reports, ledgers), and cache counters vary
/// with worker scheduling and cache configuration. `CacheStats` is a
/// read-only side channel for tests and scenario prints only.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the backend.
    pub misses: u64,
    /// Entries admitted.
    pub(crate) insertions: u64,
    /// Entries evicted by the CLOCK hand to stay under budget.
    pub evictions: u64,
    /// Entries dropped because their key was removed from the backend.
    pub(crate) invalidations: u64,
    /// Bytes currently resident.
    pub(crate) resident_bytes: u64,
    /// Configured byte budget.
    pub(crate) capacity_bytes: u64,
}

impl CacheStats {
    /// Hits / (hits + misses); 0.0 when no lookups have happened.
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Lock-free accounting table: one set of atomic counters per
/// [`ObjectKind`], so parallel writers never serialize on a shared mutex
/// (the old design guarded a whole [`StorageStats`] with one `Mutex`).
#[derive(Debug, Default)]
pub struct AtomicStats {
    per_kind: [AtomicKindStats; ObjectKind::ALL.len()],
}

#[derive(Debug, Default)]
struct AtomicKindStats {
    blobs_written: AtomicU64,
    logical_bytes: AtomicU64,
    physical_bytes: AtomicU64,
    chunks_seen: AtomicU64,
    chunks_deduped: AtomicU64,
}

use std::sync::atomic::{AtomicU64, Ordering};

impl AtomicStats {
    /// Empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records one blob write (relaxed atomic adds; totals are exact, only
    /// cross-counter ordering is unsynchronized).
    pub(crate) fn record(&self, kind: ObjectKind, delta: KindStats) {
        let k = &self.per_kind[kind.index()];
        k.blobs_written
            .fetch_add(delta.blobs_written, Ordering::Relaxed);
        k.logical_bytes
            .fetch_add(delta.logical_bytes, Ordering::Relaxed);
        k.physical_bytes
            .fetch_add(delta.physical_bytes, Ordering::Relaxed);
        k.chunks_seen
            .fetch_add(delta.chunks_seen, Ordering::Relaxed);
        k.chunks_deduped
            .fetch_add(delta.chunks_deduped, Ordering::Relaxed);
    }

    /// Point-in-time copy as the serializable [`StorageStats`] table.
    pub(crate) fn snapshot(&self) -> StorageStats {
        let mut out = StorageStats::new();
        for kind in ObjectKind::ALL {
            let k = &self.per_kind[kind.index()];
            let delta = KindStats {
                blobs_written: k.blobs_written.load(Ordering::Relaxed),
                logical_bytes: k.logical_bytes.load(Ordering::Relaxed),
                physical_bytes: k.physical_bytes.load(Ordering::Relaxed),
                chunks_seen: k.chunks_seen.load(Ordering::Relaxed),
                chunks_deduped: k.chunks_deduped.load(Ordering::Relaxed),
            };
            if delta != KindStats::default() {
                out.record(kind, delta);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut s = StorageStats::new();
        s.record(
            ObjectKind::Dataset,
            KindStats {
                blobs_written: 1,
                logical_bytes: 100,
                physical_bytes: 60,
                chunks_seen: 4,
                chunks_deduped: 1,
            },
        );
        s.record(
            ObjectKind::Output,
            KindStats {
                blobs_written: 2,
                logical_bytes: 50,
                physical_bytes: 50,
                chunks_seen: 2,
                chunks_deduped: 0,
            },
        );
        let t = s.total();
        assert_eq!(t.blobs_written, 3);
        assert_eq!(t.logical_bytes, 150);
        assert_eq!(t.physical_bytes, 110);
        assert_eq!(s.kind(ObjectKind::Dataset).chunks_deduped, 1);
        assert_eq!(s.kind(ObjectKind::Model), KindStats::default());
    }

    #[test]
    fn dedup_ratio() {
        let mut s = StorageStats::new();
        assert_eq!(s.dedup_ratio(), 1.0);
        s.record(
            ObjectKind::Library,
            KindStats {
                blobs_written: 1,
                logical_bytes: 200,
                physical_bytes: 50,
                chunks_seen: 4,
                chunks_deduped: 3,
            },
        );
        assert!((s.dedup_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn atomic_stats_concurrent_recording_is_exact() {
        let table = AtomicStats::new();
        let delta = KindStats {
            blobs_written: 1,
            logical_bytes: 10,
            physical_bytes: 7,
            chunks_seen: 2,
            chunks_deduped: 1,
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..500 {
                        table.record(ObjectKind::Output, delta);
                        table.record(ObjectKind::Model, delta);
                    }
                });
            }
        });
        let snap = table.snapshot();
        assert_eq!(snap.kind(ObjectKind::Output).blobs_written, 8 * 500);
        assert_eq!(snap.kind(ObjectKind::Model).logical_bytes, 8 * 500 * 10);
        assert_eq!(snap.total().physical_bytes, 2 * 8 * 500 * 7);
    }

    #[test]
    fn serde_round_trip() {
        let mut s = StorageStats::new();
        s.record(
            ObjectKind::Pipeline,
            KindStats {
                blobs_written: 7,
                logical_bytes: 9,
                physical_bytes: 9,
                chunks_seen: 1,
                chunks_deduped: 0,
            },
        );
        let json = serde_json::to_string(&s).unwrap();
        let back: StorageStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
