//! Deterministic virtual time, split by stage category.
//!
//! All reported times in the experiments are virtual, not wall time, so
//! figures are identical across machines (ARCHITECTURE.md, "Virtual
//! time"). The split between pre-processing, model training, and storage
//! time is what Figs. 6 and 9 plot.
//!
//! Time is a field of the report: the accounting replay charges one run
//! into a [`ClockSnapshot`] and returns it as the run's
//! `RunReport::clock`, and every fold over reports (a merge search, a
//! trial) sums those snapshots. A [`ClockLedger`] is only a caller's
//! running total across operations.

use crate::component::StageKind;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A caller's running total of the time its operations charged.
#[derive(Debug, Default)]
pub struct ClockLedger {
    total: Mutex<ClockSnapshot>,
}

impl ClockLedger {
    /// A ledger at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a snapshot's charges into this ledger.
    pub fn merge(&self, snap: &ClockSnapshot) {
        let mut total = self.total.lock();
        *total = total.plus(snap);
    }

    /// The total so far.
    pub fn snapshot(&self) -> ClockSnapshot {
        *self.total.lock()
    }
}

/// Virtual time in nanoseconds, per stage category.
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
    /// Charges execution time to a stage category.
    pub(crate) fn charge_exec(&mut self, stage: StageKind, d: Duration) {
        let ns = d.as_nanos() as u64;
        match stage {
            StageKind::Ingest => self.ingest_ns += ns,
            StageKind::PreProcess => self.preprocess_ns += ns,
            StageKind::ModelTraining => self.training_ns += ns,
        }
    }

    /// Charges storage (data preparation/transfer) time.
    pub fn charge_storage(&mut self, d: Duration) {
        self.storage_ns += d.as_nanos() as u64;
    }

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
        let mut c = ClockSnapshot::default();
        c.charge_exec(StageKind::PreProcess, Duration::from_millis(10));
        c.charge_exec(StageKind::PreProcess, Duration::from_millis(5));
        c.charge_exec(StageKind::ModelTraining, Duration::from_millis(20));
        c.charge_storage(Duration::from_millis(3));
        assert_eq!(c.preprocess_ns, 15_000_000);
        assert_eq!(c.exec_ns(), 35_000_000);
        assert_eq!(c.storage_ns, 3_000_000);
        assert_eq!(c.total_ns(), 38_000_000);
    }

    #[test]
    fn snapshot_and_delta() {
        let mut c = ClockSnapshot::default();
        c.charge_exec(StageKind::Ingest, Duration::from_nanos(100));
        let earlier = c;
        c.charge_exec(StageKind::ModelTraining, Duration::from_nanos(50));
        c.charge_storage(Duration::from_nanos(7));
        let d = c.minus(&earlier);
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
        assert_eq!(ClockLedger::new().snapshot(), ClockSnapshot::default());
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
        let c = ClockLedger::new();
        let charge = ClockSnapshot {
            training_ns: 3,
            storage_ns: 1,
            ..ClockSnapshot::default()
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.merge(&charge);
                    }
                });
            }
        });
        assert_eq!(c.snapshot().training_ns, 8 * 1000 * 3);
        assert_eq!(c.snapshot().storage_ns, 8 * 1000);
    }
}
