//! Deterministic storage-time model.
//!
//! The paper measures "storage time" (data preparation + transfer) separately
//! from execution time, noting that the folder-archiving baselines write
//! almost instantaneously to a local directory while MLCask pays a few
//! seconds of chunking/hashing overhead in exchange for dedup (Fig. 6). To
//! keep experiments deterministic across machines, storage time is *modeled*
//! from byte counts with calibrated constants rather than measured.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Parameters of the affine cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StorageCostModel {
    /// Fixed per-blob latency in nanoseconds.
    pub(crate) latency_ns: u64,
    /// Write bandwidth in bytes per second (applies to *physical* bytes).
    pub(crate) write_bw: u64,
    /// Read bandwidth in bytes per second.
    pub(crate) read_bw: u64,
    /// Hashing/chunking cost in nanoseconds per *logical* byte (zero for the
    /// folder-copy baselines, which never hash content).
    pub(crate) hash_ns_per_byte: u64,
}

impl StorageCostModel {
    /// ForkBase-like engine: hashing overhead on every logical byte, SSD-ish
    /// bandwidth on the deduplicated physical bytes.
    pub const FORKBASE: StorageCostModel = StorageCostModel {
        latency_ns: 1_000_000, // 1 ms per object
        write_bw: 400 << 20,   // 400 MiB/s
        read_bw: 1 << 30,      // 1 GiB/s
        hash_ns_per_byte: 3,   // ~330 MB/s chunk+hash pipeline
    };

    /// Plain local folder copy (ModelDB / MLflow archive style): no hashing,
    /// page-cache speed writes of every logical byte.
    pub const FOLDER_COPY: StorageCostModel = StorageCostModel {
        latency_ns: 200_000, // 0.2 ms per file
        write_bw: 2 << 30,   // 2 GiB/s (buffered)
        read_bw: 2 << 30,
        hash_ns_per_byte: 0,
    };

    /// Zero-cost model: used when a harness does its own storage-time
    /// accounting and the store is purely mechanical.
    pub const FREE: StorageCostModel = StorageCostModel {
        latency_ns: 0,
        write_bw: u64::MAX,
        read_bw: u64::MAX,
        hash_ns_per_byte: 0,
    };

    /// Cost of writing a blob with `logical` bytes of which `physical` are
    /// new after dedup.
    pub fn write_cost(&self, logical: u64, physical: u64) -> Duration {
        let bw_ns = physical.saturating_mul(1_000_000_000) / self.write_bw.max(1);
        let hash_ns = logical.saturating_mul(self.hash_ns_per_byte);
        Duration::from_nanos(self.latency_ns + bw_ns + hash_ns)
    }

    /// Cost of reading a blob of `logical` bytes.
    pub(crate) fn read_cost(&self, logical: u64) -> Duration {
        let bw_ns = logical.saturating_mul(1_000_000_000) / self.read_bw.max(1);
        Duration::from_nanos(self.latency_ns + bw_ns)
    }
}

impl Default for StorageCostModel {
    fn default() -> Self {
        StorageCostModel::FORKBASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_cost_scales_with_physical_bytes() {
        let m = StorageCostModel::FORKBASE;
        let small = m.write_cost(1 << 20, 1 << 10);
        let large = m.write_cost(1 << 20, 1 << 25);
        assert!(large > small);
    }

    #[test]
    fn hashing_charges_logical_bytes_even_when_fully_deduped() {
        let m = StorageCostModel::FORKBASE;
        let all_dup = m.write_cost(1 << 25, 0);
        let base = m.write_cost(0, 0);
        assert!(all_dup > base, "dedup still pays the hashing pass");
    }

    #[test]
    fn folder_copy_is_faster_for_small_objects() {
        // Mirrors Fig. 6: baselines materialise outputs near-instantly while
        // ForkBase pays hashing; for small-to-medium blobs folder copy wins.
        let fb = StorageCostModel::FORKBASE;
        let fc = StorageCostModel::FOLDER_COPY;
        let logical = 8 << 20; // 8 MiB
        assert!(fc.write_cost(logical, logical) < fb.write_cost(logical, logical));
    }

    #[test]
    fn dedup_reduces_write_cost_within_forkbase() {
        // Mirrors the paper's trade-off: ForkBase always pays the hashing
        // pass, but a mostly-deduplicated write skips the bandwidth cost of
        // the duplicate bytes.
        let fb = StorageCostModel::FORKBASE;
        let logical = 1u64 << 30;
        assert!(fb.write_cost(logical, 1 << 20) < fb.write_cost(logical, logical));
    }

    #[test]
    fn read_cost_monotone() {
        let m = StorageCostModel::default();
        assert!(m.read_cost(10) <= m.read_cost(1 << 30));
    }

    #[test]
    fn zero_bandwidth_does_not_panic() {
        let m = StorageCostModel {
            latency_ns: 1,
            write_bw: 0,
            read_bw: 0,
            hash_ns_per_byte: 0,
        };
        // max(1) guard: treat as 1 B/s rather than dividing by zero.
        let _ = m.write_cost(10, 10);
        let _ = m.read_cost(10);
    }
}
