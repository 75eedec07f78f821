//! Deterministic fault injection for crash-recovery testing.
//!
//! Two layers, matching the two backends under test:
//!
//! * [`FaultPlan`] is interpreted *inside* [`CaskBackend`](crate::cask::CaskBackend),
//!   where every batch of records lands: at a chosen record the backend dies
//!   mid-write (torn record at a seeded byte cut), right after the write
//!   (durable but unacknowledged), with its page cache dropped (everything
//!   since the last flush is lost), or with a failed write or `sync_data`.
//!   After the crash every operation fails until the directory is reopened
//!   — exactly a process death.
//! * [`FaultBackend`] wraps any [`StorageBackend`] at the trait level and
//!   fails every operation once N puts have gone through, with a
//!   [`heal`](FaultBackend::heal) hook standing in for "reopen" when the
//!   inner backend is in-memory. The crash matrix uses it to run the same
//!   kill-at-every-write sweep against `MemBackend`.
//!
//! All crash points are seeded and replayable: the same plan against the
//! same write sequence tears the same record at the same byte
//! (`tests/crash_recovery.rs` replays each kind twice and compares the
//! segment files).

use crate::backend::StorageBackend;
use crate::errors::{Result, StorageError};
use crate::hash::Hash256;
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What happens at the crash point — the k-th record landed — to the batch
/// that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The batch is written up to a seeded byte cut inside record k, then
    /// synced: a torn write the reopen scan must truncate away.
    Torn,
    /// The batch is written and synced through the end of record k, but the
    /// caller never hears back — death between write and acknowledgement.
    /// Recovery must tolerate state that is *ahead* of what any caller
    /// observed.
    AfterWrite,
    /// The machine dies with its page cache: the segment goes back to its
    /// length at the last flush (or open), as a writer-thread crash leaves
    /// it when nothing queued since then had landed.
    DropUnsynced,
    /// The batch fails with an I/O error — its write (even `seed`: a seeded
    /// prefix of the batch reaches the file, as on ENOSPC) or its
    /// `sync_data` (odd `seed`). No record of the batch becomes durable in
    /// the index, and the error surfaces from the next write and from
    /// `flush` until the directory is reopened.
    GroupCommitError,
}

/// A deterministic crash plan for [`CaskBackend`](crate::cask::CaskBackend).
///
/// Records are counted in landing order, which is submission order on
/// whichever thread lands them; under
/// [`CaskOptions::synchronous`](crate::cask::CaskOptions::synchronous) the
/// batches are the caller's too, so the crash point is reproducible byte
/// for byte.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Crash at the batch holding the record that brings the 1-based record
    /// counter to this value (`0` = never).
    pub crash_at_append: u64,
    /// What the crash does to the in-flight record.
    pub kind: FaultKind,
    /// Seeds the torn-write byte cut.
    pub seed: u64,
}

impl FaultPlan {
    /// Torn write at append `n` (1-based), byte cut seeded by `seed`.
    pub fn torn(n: u64, seed: u64) -> Self {
        FaultPlan {
            crash_at_append: n,
            kind: FaultKind::Torn,
            seed,
        }
    }

    /// Death right after append `n` durably completes.
    pub fn after_write(n: u64) -> Self {
        FaultPlan {
            crash_at_append: n,
            kind: FaultKind::AfterWrite,
            seed: 0,
        }
    }

    /// Death at append `n` with every unsynced byte dropped.
    pub fn drop_unsynced(n: u64) -> Self {
        FaultPlan {
            crash_at_append: n,
            kind: FaultKind::DropUnsynced,
            seed: 0,
        }
    }

    /// A seeded plan with a pseudo-random kind and crash point in
    /// `1..=max_appends` — the matrix tests sweep `seed` to cover the space.
    pub fn seeded(seed: u64, max_appends: u64) -> Self {
        let r = splitmix64(seed);
        let kind = match r % 3 {
            0 => FaultKind::Torn,
            1 => FaultKind::AfterWrite,
            _ => FaultKind::DropUnsynced,
        };
        FaultPlan {
            crash_at_append: 1 + (splitmix64(r) % max_appends.max(1)),
            kind,
            seed,
        }
    }

    /// The byte offset at which a [`FaultKind::Torn`] crash cuts a frame of
    /// `frame_len` bytes: deterministic in `(seed, crash_at_append)`, and
    /// anywhere in `0..=frame_len` (including "nothing written" and "fully
    /// written but that is indistinguishable from AfterWrite").
    pub(crate) fn torn_cut(&self, frame_len: usize) -> usize {
        (splitmix64(self.seed ^ self.crash_at_append) % (frame_len as u64 + 1)) as usize
    }
}

/// SplitMix64 — the standard 64-bit seed scrambler; deterministic and
/// dependency-free.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Trait-level crash wrapper: delegates to `inner` until `crash_at_put`
/// puts have succeeded, then fails every mutation *and* read until
/// [`heal`](FaultBackend::heal) — the in-memory stand-in for "the process
/// died and the store was reopened".
///
/// Reads before the crash delegate honestly, so a traced execution sees
/// exactly the dedup behaviour the inner backend would give.
pub struct FaultBackend {
    inner: Arc<dyn StorageBackend>,
    puts: AtomicU64,
    crash_at_put: AtomicU64,
    crashed: AtomicBool,
}

impl FaultBackend {
    /// Wraps `inner`, crashing once `crash_at_put` puts have succeeded
    /// (`0` = never). The crashing put itself fails — its bytes never reach
    /// `inner`, like a torn write that recovery truncates.
    pub fn new(inner: Arc<dyn StorageBackend>, crash_at_put: u64) -> Self {
        FaultBackend {
            inner,
            puts: AtomicU64::new(0),
            crash_at_put: AtomicU64::new(crash_at_put),
            crashed: AtomicBool::new(false),
        }
    }

    /// Whether the crash point has been reached.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Puts observed while the crash point is armed — run once with a
    /// far-away crash point to learn how many writes a workload issues,
    /// then sweep the crash point across `1..=puts()`.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::SeqCst)
    }

    /// Clears the crashed flag and disarms the crash point: the simulated
    /// reopen (a reopened store has no pending fault). The inner backend's
    /// contents are whatever survived — for `MemBackend` that is every put
    /// acknowledged before the crash, i.e. a perfectly synced log.
    pub fn heal(&self) {
        self.crash_at_put.store(0, Ordering::SeqCst);
        self.crashed.store(false, Ordering::SeqCst);
    }

    fn check(&self) -> Result<()> {
        if self.crashed() {
            Err(StorageError::Io(std::io::Error::other(
                "injected crash: backend is down",
            )))
        } else {
            Ok(())
        }
    }
}

impl StorageBackend for FaultBackend {
    fn put(&self, key: Hash256, data: &[u8]) -> Result<bool> {
        self.check()?;
        let crash_at = self.crash_at_put.load(Ordering::SeqCst);
        if crash_at != 0 {
            let n = self.puts.fetch_add(1, Ordering::SeqCst) + 1;
            if n >= crash_at {
                self.crashed.store(true, Ordering::SeqCst);
                return self
                    .check()
                    .map(|_| unreachable!("check fails when crashed"));
            }
        }
        self.inner.put(key, data)
    }

    fn get(&self, key: Hash256) -> Result<Bytes> {
        self.check()?;
        self.inner.get(key)
    }

    fn contains(&self, key: Hash256) -> bool {
        !self.crashed() && self.inner.contains(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn physical_bytes(&self) -> u64 {
        self.inner.physical_bytes()
    }

    fn keys(&self) -> Vec<Hash256> {
        self.inner.keys()
    }

    fn remove(&self, key: Hash256) -> Result<Option<u64>> {
        self.check()?;
        self.inner.remove(key)
    }

    fn flush(&self) -> Result<()> {
        self.check()?;
        self.inner.flush()
    }

    fn compact(&self) -> Result<u64> {
        self.check()?;
        self.inner.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn splitmix_is_deterministic_and_scrambles() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(42), splitmix64(43));
    }

    #[test]
    fn torn_cut_covers_full_range_deterministically() {
        let plan = FaultPlan::torn(7, 99);
        let a = plan.torn_cut(100);
        assert_eq!(a, plan.torn_cut(100), "same plan, same cut");
        assert!(a <= 100);
        // Different crash points give different cuts (with overwhelming
        // probability for this seed).
        assert_ne!(plan.torn_cut(1000), FaultPlan::torn(8, 99).torn_cut(1000));
    }

    #[test]
    fn seeded_plans_stay_in_bounds() {
        for seed in 0..64u64 {
            let p = FaultPlan::seeded(seed, 10);
            assert!(p.crash_at_append >= 1 && p.crash_at_append <= 10);
        }
    }

    #[test]
    fn fault_backend_crashes_at_nth_put_and_heals() {
        let inner = Arc::new(MemBackend::new());
        let fb = FaultBackend::new(inner.clone(), 3);
        let keys: Vec<(Hash256, Vec<u8>)> = (0..4u8)
            .map(|i| {
                let d = vec![i; 8];
                (Hash256::of(&d), d)
            })
            .collect();
        assert!(fb.put(keys[0].0, &keys[0].1).unwrap());
        assert!(fb.put(keys[1].0, &keys[1].1).unwrap());
        assert!(fb.put(keys[2].0, &keys[2].1).is_err(), "3rd put crashes");
        assert!(fb.crashed());
        assert!(fb.get(keys[0].0).is_err(), "reads fail while down");
        assert!(!fb.contains(keys[0].0));
        fb.heal();
        assert_eq!(fb.get(keys[0].0).unwrap().as_ref(), &keys[0].1[..]);
        assert!(!fb.contains(keys[2].0), "crashing put never landed");
        assert!(
            fb.put(keys[3].0, &keys[3].1).unwrap(),
            "healed backend accepts writes again"
        );
    }

    #[test]
    fn zero_crash_point_never_fires() {
        let fb = FaultBackend::new(Arc::new(MemBackend::new()), 0);
        for i in 0..50u8 {
            let d = vec![i; 4];
            fb.put(Hash256::of(&d), &d).unwrap();
        }
        assert!(!fb.crashed());
    }
}
