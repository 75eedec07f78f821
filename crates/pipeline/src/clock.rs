//! Deterministic virtual time with thread-safe per-stage accounting.
//!
//! All reported times in the experiments come from this ledger, not
//! wall time, so figures are identical across machines (ARCHITECTURE.md,
//! "Virtual time: `ClockLedger`"). The split between pre-processing, model
//! training, and storage time is what Figs. 6 and 9 plot.
//!
//! [`ClockLedger`] replaces the old `SimClock`: charges go through `&self`
//! (relaxed atomic adds), so an executor run no longer needs exclusive
//! access to the time state and many runs can account concurrently into
//! per-run ledgers. [`ClockSnapshot`] is the immutable, mergeable view: the
//! parallel candidate-evaluation engines assign virtual end-times by a
//! deterministic reduction over per-candidate snapshots (see
//! `mlcask_pipeline::replay`), which keeps reports byte-identical between
//! sequential and parallel execution.

use crate::component::StageKind;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Accumulating, thread-safe virtual clock.
#[derive(Debug, Default)]
pub struct ClockLedger {
    ingest_ns: AtomicU64,
    preprocess_ns: AtomicU64,
    training_ns: AtomicU64,
    storage_ns: AtomicU64,
}

impl ClockLedger {
    /// A ledger at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A ledger pre-loaded with a snapshot's charges.
    pub fn from_snapshot(snap: &ClockSnapshot) -> Self {
        let ledger = Self::new();
        ledger.merge(snap);
        ledger
    }

    /// Charges execution time to a stage category.
    pub fn charge_exec(&self, stage: StageKind, d: Duration) {
        let ns = d.as_nanos() as u64;
        match stage {
            StageKind::Ingest => self.ingest_ns.fetch_add(ns, Ordering::Relaxed),
            StageKind::PreProcess => self.preprocess_ns.fetch_add(ns, Ordering::Relaxed),
            StageKind::ModelTraining => self.training_ns.fetch_add(ns, Ordering::Relaxed),
        };
    }

    /// Charges storage (data preparation/transfer) time.
    pub fn charge_storage(&self, d: Duration) {
        self.storage_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Adds a snapshot's charges into this ledger (the deterministic
    /// reduction step of the parallel engines).
    pub fn merge(&self, snap: &ClockSnapshot) {
        self.ingest_ns.fetch_add(snap.ingest_ns, Ordering::Relaxed);
        self.preprocess_ns
            .fetch_add(snap.preprocess_ns, Ordering::Relaxed);
        self.training_ns
            .fetch_add(snap.training_ns, Ordering::Relaxed);
        self.storage_ns
            .fetch_add(snap.storage_ns, Ordering::Relaxed);
    }

    /// Total execution time across stages (the paper's "execution time").
    pub fn exec_total(&self) -> Duration {
        Duration::from_nanos(self.snapshot().exec_ns())
    }

    /// Execution time attributed to one stage kind.
    pub fn exec_for(&self, stage: StageKind) -> Duration {
        let ns = match stage {
            StageKind::Ingest => self.ingest_ns.load(Ordering::Relaxed),
            StageKind::PreProcess => self.preprocess_ns.load(Ordering::Relaxed),
            StageKind::ModelTraining => self.training_ns.load(Ordering::Relaxed),
        };
        Duration::from_nanos(ns)
    }

    /// Storage time (the paper's "storage time").
    pub fn storage_total(&self) -> Duration {
        Duration::from_nanos(self.storage_ns.load(Ordering::Relaxed))
    }

    /// Pipeline time = execution + storage (the paper's "pipeline time").
    pub fn pipeline_total(&self) -> Duration {
        Duration::from_nanos(self.snapshot().total_ns())
    }

    /// Immutable snapshot for reports.
    ///
    /// The four counters are read individually with relaxed ordering; take
    /// snapshots at quiescent points (no concurrent charging) when exact
    /// cross-field consistency matters — that is how the engines use it.
    pub fn snapshot(&self) -> ClockSnapshot {
        ClockSnapshot {
            ingest_ns: self.ingest_ns.load(Ordering::Relaxed),
            preprocess_ns: self.preprocess_ns.load(Ordering::Relaxed),
            training_ns: self.training_ns.load(Ordering::Relaxed),
            storage_ns: self.storage_ns.load(Ordering::Relaxed),
        }
    }

    /// Difference `self - earlier` as a snapshot (for per-iteration deltas).
    pub fn delta_since(&self, earlier: &ClockSnapshot) -> ClockSnapshot {
        self.snapshot().minus(earlier)
    }
}

impl Clone for ClockLedger {
    fn clone(&self) -> Self {
        ClockLedger::from_snapshot(&self.snapshot())
    }
}

/// Serialisable clock state in nanoseconds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClockSnapshot {
    /// Data-ingest execution time.
    pub ingest_ns: u64,
    /// Pre-processing execution time.
    pub preprocess_ns: u64,
    /// Model-training execution time.
    pub training_ns: u64,
    /// Storage (preparation + transfer) time.
    pub storage_ns: u64,
}

impl ClockSnapshot {
    /// Total pipeline time in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ingest_ns + self.preprocess_ns + self.training_ns + self.storage_ns
    }

    /// Total execution (non-storage) time in nanoseconds.
    pub fn exec_ns(&self) -> u64 {
        self.ingest_ns + self.preprocess_ns + self.training_ns
    }

    /// Total pipeline time in (fractional) seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns() as f64 / 1e9
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &ClockSnapshot) -> ClockSnapshot {
        ClockSnapshot {
            ingest_ns: self.ingest_ns + other.ingest_ns,
            preprocess_ns: self.preprocess_ns + other.preprocess_ns,
            training_ns: self.training_ns + other.training_ns,
            storage_ns: self.storage_ns + other.storage_ns,
        }
    }

    /// Element-wise difference `self - earlier` (saturating at zero).
    pub fn minus(&self, earlier: &ClockSnapshot) -> ClockSnapshot {
        ClockSnapshot {
            ingest_ns: self.ingest_ns.saturating_sub(earlier.ingest_ns),
            preprocess_ns: self.preprocess_ns.saturating_sub(earlier.preprocess_ns),
            training_ns: self.training_ns.saturating_sub(earlier.training_ns),
            storage_ns: self.storage_ns.saturating_sub(earlier.storage_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_stage() {
        let c = ClockLedger::new();
        c.charge_exec(StageKind::PreProcess, Duration::from_millis(10));
        c.charge_exec(StageKind::PreProcess, Duration::from_millis(5));
        c.charge_exec(StageKind::ModelTraining, Duration::from_millis(20));
        c.charge_storage(Duration::from_millis(3));
        assert_eq!(c.exec_for(StageKind::PreProcess), Duration::from_millis(15));
        assert_eq!(c.exec_total(), Duration::from_millis(35));
        assert_eq!(c.storage_total(), Duration::from_millis(3));
        assert_eq!(c.pipeline_total(), Duration::from_millis(38));
    }

    #[test]
    fn snapshot_and_delta() {
        let c = ClockLedger::new();
        c.charge_exec(StageKind::Ingest, Duration::from_nanos(100));
        let earlier = c.snapshot();
        c.charge_exec(StageKind::ModelTraining, Duration::from_nanos(50));
        c.charge_storage(Duration::from_nanos(7));
        let d = c.delta_since(&earlier);
        assert_eq!(d.ingest_ns, 0);
        assert_eq!(d.training_ns, 50);
        assert_eq!(d.storage_ns, 7);
        assert_eq!(d.total_ns(), 57);
        assert_eq!(d.exec_ns(), 50);
    }

    #[test]
    fn snapshot_plus_minus() {
        let a = ClockSnapshot {
            ingest_ns: 1,
            preprocess_ns: 2,
            training_ns: 3,
            storage_ns: 4,
        };
        let b = a.plus(&a);
        assert_eq!(b.total_ns(), 20);
        assert_eq!(b.minus(&a), a);
        assert!((a.total_secs() - 10e-9).abs() < 1e-18);
    }

    #[test]
    fn zero_ledger() {
        let c = ClockLedger::new();
        assert_eq!(c.pipeline_total(), Duration::ZERO);
        assert_eq!(c.snapshot().total_ns(), 0);
    }

    #[test]
    fn merge_is_associative_over_snapshots() {
        let parts: Vec<ClockSnapshot> = (0..4)
            .map(|i| ClockSnapshot {
                ingest_ns: i,
                preprocess_ns: 2 * i,
                training_ns: 3 * i,
                storage_ns: 4 * i,
            })
            .collect();
        let left = ClockLedger::new();
        for p in &parts {
            left.merge(p);
        }
        let right = ClockLedger::new();
        for p in parts.iter().rev() {
            right.merge(p);
        }
        assert_eq!(left.snapshot(), right.snapshot());
    }

    #[test]
    fn concurrent_charging_is_lossless() {
        use std::sync::Arc;
        let c = Arc::new(ClockLedger::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.charge_exec(StageKind::ModelTraining, Duration::from_nanos(3));
                        c.charge_storage(Duration::from_nanos(1));
                    }
                });
            }
        });
        assert_eq!(c.snapshot().training_ns, 8 * 1000 * 3);
        assert_eq!(c.snapshot().storage_ns, 8 * 1000);
    }
}
