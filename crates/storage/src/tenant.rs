//! Multi-tenant accounting for a shared [`ChunkStore`](crate::store::ChunkStore).
//!
//! The paper's economic argument is that content-addressed storage lets many
//! collaborators' pipeline versions share physical chunks. When several
//! tenants (teams, pipelines, CI jobs) write through one store, three
//! questions arise that single-tenant accounting cannot answer:
//!
//! 1. **Who pays for a deduplicated chunk?** Its *first referent*: a
//!    tenant whose write (or adoption) references a chunk that no tenant
//!    references yet pays the chunk's bytes, whether or not the chunk was
//!    already stored — an orphan left by a refused or aborted write is
//!    adopted and paid for by whoever references it next. Later referents
//!    pay nothing. When an orphan sweep drops a chunk its payer is
//!    refunded, and when a tenant is forgotten the next referent of each
//!    chunk it paid for takes the charge over. So charged physical bytes
//!    always equal the bytes of live-referenced chunks
//!    ([`TenantAccounts::check_charges`]), and after a sweep they equal the
//!    store's total — nothing is double-counted or lost.
//! 2. **How much does each tenant *depend on*?** The *shared-refcount* view
//!    divides every chunk's size evenly among the tenants referencing it,
//!    so a dataset shared by four teams costs each team a quarter. This is
//!    the fair-share number a capacity planner bills against.
//! 3. **How is a tenant stopped from filling the store?** A [`QuotaPolicy`]
//!    caps a tenant's logical and/or first-referent-pays physical bytes;
//!    breaching writes fail with
//!    [`StorageError::QuotaExceeded`](crate::errors::StorageError) *before*
//!    any chunk is persisted. Enforcement is a **reservation protocol**: a
//!    write first atomically reserves its logical size plus a conservative
//!    upper bound of its physical size (`TenantAccounts::reserve`), and
//!    reserved bytes count against the cap for every concurrent check — so
//!    one in-flight parallel evaluation cannot overshoot its quota by racing
//!    many writes past a stale usage snapshot. A reservation is *settled*
//!    (converted into usage) when the write is attributed — immediately for
//!    live writes, at canonical replay time for traced ones — and *released*
//!    when its evaluation aborts, leaving the accounts exactly as before.
//! 4. **May a tenant read, fork, or merge into a peer's namespace?** This
//!    crate only names the levels, as [`ShareRight`]s; which peer holds
//!    which right, and the check itself, live in the workspace layer
//!    (`mlcask_core::workspace`) — the commit graph is a plain version DAG.
//!
//! All bookkeeping lives in [`TenantAccounts`], shared (via `Arc`) by every
//! tenant-scoped view of one store (see
//! [`ChunkStore::for_tenant`](crate::store::ChunkStore::for_tenant)).

use crate::errors::{Result, StorageError};
use crate::hash::Hash256;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Identifies one tenant of a shared store. Handed out by the workspace
/// layer; the store only uses it as an accounting key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Byte limits for one tenant; `None` means unlimited.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuotaPolicy {
    /// Cap on cumulative logical bytes presented to the store.
    pub max_logical_bytes: Option<u64>,
    /// Cap on cumulative first-referent-pays physical bytes.
    pub max_physical_bytes: Option<u64>,
}

impl QuotaPolicy {
    /// No limits.
    pub const UNLIMITED: QuotaPolicy = QuotaPolicy {
        max_logical_bytes: None,
        max_physical_bytes: None,
    };

    /// Caps logical bytes only.
    pub fn logical(max: u64) -> QuotaPolicy {
        QuotaPolicy {
            max_logical_bytes: Some(max),
            ..Self::UNLIMITED
        }
    }
}

/// Cumulative write accounting for one tenant (first-referent-pays).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantUsage {
    /// Blobs written by this tenant (including logical duplicates).
    pub blobs_written: u64,
    /// Bytes this tenant presented to the store.
    pub logical_bytes: u64,
    /// Bytes of the live-referenced chunks this tenant is the first
    /// referent of.
    pub physical_bytes: u64,
}

/// The shared-refcount view of one tenant's footprint.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SharedUsage {
    /// Total bytes of distinct chunks this tenant references.
    pub referenced_bytes: u64,
    /// Fair share: every referenced chunk's size divided by the number of
    /// tenants referencing it.
    pub amortized_bytes: f64,
}

/// Bytes a tenant has reserved for in-flight writes but not yet settled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReservedBytes {
    /// Reserved logical bytes.
    pub(crate) logical: u64,
    /// Reserved physical bytes (a conservative upper bound — concurrent
    /// writers of one new chunk may each reserve its size).
    pub(crate) physical: u64,
}

/// Handle to one open reservation made by `TenantAccounts::reserve`.
///
/// Settling or releasing a reservation is idempotent: the first
/// `TenantAccounts::settle`/`TenantAccounts::release` returns the
/// reserved bytes to the tenant's headroom, later calls are no-ops. Traced
/// writes carry their id in
/// [`PutTrace::reservation`](crate::store::PutTrace) so the deterministic
/// replay can settle (and abort paths can release) exactly once however
/// many times a trace is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReservationId(u64);

struct OpenReservation {
    tenant: TenantId,
    logical: u64,
    physical: u64,
}

struct TenantState {
    quota: QuotaPolicy,
    usage: TenantUsage,
    reserved: ReservedBytes,
}

struct AccountsState {
    /// Per-tenant quota + settled usage + in-flight reservations.
    tenants: BTreeMap<TenantId, TenantState>,
    next_reservation: u64,
    open: HashMap<u64, OpenReservation>,
}

/// Per-chunk reference record: size plus the distinct tenants that
/// reference it, in the order they came to; the first is the one charged.
struct ChunkOwners {
    len: u64,
    owners: Vec<TenantId>,
}

/// Number of independently locked shards in the chunk-owner ledger.
const CHUNK_SHARDS: usize = 16;

/// Shared accounting table for all tenants of one store.
///
/// Tenant state (quota + usage + reservations) sits behind one small lock —
/// it is touched once per blob. The chunk-owner ledger is sharded like the
/// pipeline crate's `ShardedMap` because it is touched once per *chunk*.
pub struct TenantAccounts {
    state: RwLock<AccountsState>,
    chunks: Vec<RwLock<HashMap<Hash256, ChunkOwners>>>,
}

impl Default for TenantAccounts {
    fn default() -> Self {
        TenantAccounts {
            state: RwLock::new(AccountsState {
                tenants: BTreeMap::new(),
                next_reservation: 0,
                open: HashMap::new(),
            }),
            chunks: (0..CHUNK_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }
}

impl TenantAccounts {
    /// Empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn shard_of(&self, hash: &Hash256) -> usize {
        // Content addresses are uniformly distributed; the first byte is as
        // good a shard key as any hasher's output.
        hash.0[0] as usize % self.chunks.len()
    }

    /// Registers (or re-quotas) a tenant. Usage is preserved across quota
    /// changes.
    pub fn register(&self, tenant: TenantId, quota: QuotaPolicy) {
        let mut st = self.state.write();
        st.tenants
            .entry(tenant)
            .and_modify(|s| s.quota = quota)
            .or_insert(TenantState {
                quota,
                usage: TenantUsage::default(),
                reserved: ReservedBytes::default(),
            });
    }

    /// The quota in effect for a tenant (unlimited if never registered).
    pub(crate) fn quota(&self, tenant: TenantId) -> QuotaPolicy {
        self.state
            .read()
            .tenants
            .get(&tenant)
            .map(|s| s.quota)
            .unwrap_or(QuotaPolicy::UNLIMITED)
    }

    /// Cumulative first-referent-pays usage of a tenant (settled writes only;
    /// see [`TenantAccounts::reserved`] for in-flight bytes).
    pub fn usage(&self, tenant: TenantId) -> TenantUsage {
        self.state
            .read()
            .tenants
            .get(&tenant)
            .map(|s| s.usage)
            .unwrap_or_default()
    }

    /// Bytes currently reserved by a tenant's in-flight writes. Zero
    /// whenever no evaluation is running — every reservation is settled at
    /// replay time or released on abort.
    pub fn reserved(&self, tenant: TenantId) -> ReservedBytes {
        self.state
            .read()
            .tenants
            .get(&tenant)
            .map(|s| s.reserved)
            .unwrap_or_default()
    }

    /// Number of reservations not yet settled or released (across all
    /// tenants).
    pub fn open_reservations(&self) -> usize {
        self.state.read().open.len()
    }

    /// Usage of every registered tenant.
    pub fn usages(&self) -> BTreeMap<TenantId, TenantUsage> {
        self.state
            .read()
            .tenants
            .iter()
            .map(|(k, v)| (*k, v.usage))
            .collect()
    }

    fn quota_check(
        state: &TenantState,
        tenant: TenantId,
        logical_delta: u64,
        physical_delta: u64,
    ) -> Result<()> {
        if let Some(max) = state.quota.max_logical_bytes {
            let needed = state.usage.logical_bytes + state.reserved.logical + logical_delta;
            if needed > max {
                return Err(StorageError::QuotaExceeded {
                    tenant,
                    needed,
                    limit: max,
                    resource: "logical bytes",
                });
            }
        }
        if let Some(max) = state.quota.max_physical_bytes {
            let needed = state.usage.physical_bytes + state.reserved.physical + physical_delta;
            if needed > max {
                return Err(StorageError::QuotaExceeded {
                    tenant,
                    needed,
                    limit: max,
                    resource: "physical bytes",
                });
            }
        }
        Ok(())
    }

    /// Atomically checks the quota and reserves `logical`/`physical` bytes
    /// for an in-flight write. The physical amount is a conservative upper
    /// bound computed before the write; because every concurrent writer
    /// reserves before persisting, a tenant's evaluations can never
    /// overshoot the cap — at worst a near-cap parallel evaluation aborts
    /// *earlier* than a sequential one would (racing writers of one new
    /// chunk may each reserve its size).
    ///
    /// The returned id must eventually be [`settled`](TenantAccounts::settle)
    /// (write attributed) or [`released`](TenantAccounts::release) (write
    /// aborted); both are idempotent.
    pub(crate) fn reserve(
        &self,
        tenant: TenantId,
        logical: u64,
        physical: u64,
    ) -> Result<ReservationId> {
        let mut st = self.state.write();
        if let Some(state) = st.tenants.get(&tenant) {
            Self::quota_check(state, tenant, logical, physical)?;
        }
        let id = st.next_reservation;
        st.next_reservation += 1;
        st.open.insert(
            id,
            OpenReservation {
                tenant,
                logical,
                physical,
            },
        );
        let state = st.tenants.entry(tenant).or_insert(TenantState {
            quota: QuotaPolicy::UNLIMITED,
            usage: TenantUsage::default(),
            reserved: ReservedBytes::default(),
        });
        state.reserved.logical += logical;
        state.reserved.physical += physical;
        Ok(ReservationId(id))
    }

    fn release_locked(st: &mut AccountsState, id: ReservationId) {
        if let Some(r) = st.open.remove(&id.0) {
            if let Some(state) = st.tenants.get_mut(&r.tenant) {
                state.reserved.logical -= r.logical;
                state.reserved.physical -= r.physical;
            }
        }
    }

    /// Releases a reservation without charging anything (the write's
    /// evaluation aborted). Idempotent.
    pub(crate) fn release(&self, id: ReservationId) {
        Self::release_locked(&mut self.state.write(), id);
    }

    /// Settles a reservation: returns the reserved headroom (first call
    /// only) and charges `delta` against `tenant`. Replaying one traced
    /// write several times — the no-reuse ablations replay a deduplicated
    /// execution once per candidate containing it — releases once and
    /// charges every time, exactly as executing it every time would.
    pub(crate) fn settle(&self, id: ReservationId, tenant: TenantId, delta: TenantUsage) {
        let mut st = self.state.write();
        Self::release_locked(&mut st, id);
        Self::charge_locked(&mut st, tenant, delta);
    }

    fn charge_locked(st: &mut AccountsState, tenant: TenantId, delta: TenantUsage) {
        let state = st.tenants.entry(tenant).or_insert(TenantState {
            quota: QuotaPolicy::UNLIMITED,
            usage: TenantUsage::default(),
            reserved: ReservedBytes::default(),
        });
        state.usage.blobs_written += delta.blobs_written;
        state.usage.logical_bytes += delta.logical_bytes;
        state.usage.physical_bytes += delta.physical_bytes;
    }

    /// Records a completed write against a tenant (no reservation involved).
    pub(crate) fn charge(&self, tenant: TenantId, delta: TenantUsage) {
        Self::charge_locked(&mut self.state.write(), tenant, delta);
    }

    /// Records that `tenant` references the chunk at `hash` (`len` bytes).
    /// Idempotent per (chunk, tenant) pair. Returns the bytes `tenant` is
    /// to be charged: `len` if no tenant referenced the chunk yet, else 0.
    pub(crate) fn add_chunk_ref(&self, hash: Hash256, len: u64, tenant: TenantId) -> u64 {
        let mut shard = self.chunks[self.shard_of(&hash)].write();
        let entry = shard.entry(hash).or_insert(ChunkOwners {
            len,
            owners: Vec::new(),
        });
        let first = entry.owners.is_empty();
        if !entry.owners.contains(&tenant) {
            entry.owners.push(tenant);
        }
        if first {
            len
        } else {
            0
        }
    }

    /// True if some tenant references the chunk at `hash`.
    pub(crate) fn is_referenced(&self, hash: &Hash256) -> bool {
        self.chunks[self.shard_of(hash)].read().contains_key(hash)
    }

    /// Adjusts `tenant`'s charged physical bytes by `+add - sub`.
    fn recharge(&self, tenant: TenantId, add: u64, sub: u64) {
        let mut st = self.state.write();
        if let Some(state) = st.tenants.get_mut(&tenant) {
            state.usage.physical_bytes = (state.usage.physical_bytes + add).saturating_sub(sub);
        }
    }

    /// Removes every trace of `tenant`: its quota and usage, its open
    /// reservations, and its name on every chunk it references (a chunk
    /// left with no referencing tenant leaves the ledger). A chunk it was
    /// charged for that another tenant still references is charged to the
    /// next of them.
    pub(crate) fn forget(&self, tenant: TenantId) {
        {
            let mut st = self.state.write();
            st.tenants.remove(&tenant);
            st.open.retain(|_, r| r.tenant != tenant);
        }
        let mut handed_over = Vec::new();
        for shard in &self.chunks {
            shard.write().retain(|_, entry| {
                let paid = entry.owners.first() == Some(&tenant);
                entry.owners.retain(|&t| t != tenant);
                if let (true, Some(&next)) = (paid, entry.owners.first()) {
                    handed_over.push((next, entry.len));
                }
                !entry.owners.is_empty()
            });
        }
        for (next, len) in handed_over {
            self.recharge(next, len, 0);
        }
    }

    /// Drops a chunk from the shared-refcount ledger (orphan GC) and
    /// refunds the tenant charged for it.
    pub(crate) fn drop_chunk(&self, hash: &Hash256) {
        let dropped = self.chunks[self.shard_of(hash)].write().remove(hash);
        if let Some(ChunkOwners { len, owners }) = dropped {
            if let Some(&payer) = owners.first() {
                self.recharge(payer, 0, len);
            }
        }
    }

    /// The charging invariant: the physical bytes charged to all tenants
    /// equal the bytes of the chunks some tenant references. Returns those
    /// bytes, or both figures when they differ. Meaningful when no write
    /// is being attributed.
    pub fn check_charges(&self) -> std::result::Result<u64, String> {
        let charged: u64 = self
            .state
            .read()
            .tenants
            .values()
            .map(|s| s.usage.physical_bytes)
            .sum();
        let referenced: u64 = self
            .chunks
            .iter()
            .map(|s| s.read().values().map(|e| e.len).sum::<u64>())
            .sum();
        if charged == referenced {
            Ok(charged)
        } else {
            Err(format!(
                "tenants are charged {charged} physical bytes, live-referenced chunks hold {referenced}"
            ))
        }
    }

    /// Number of distinct chunks the ledger attributes.
    pub fn tracked_chunks(&self) -> usize {
        self.chunks.iter().map(|s| s.read().len()).sum()
    }

    /// The shared-refcount view: every chunk's size split evenly among the
    /// tenants referencing it.
    pub fn shared_view(&self) -> BTreeMap<TenantId, SharedUsage> {
        let mut out: BTreeMap<TenantId, SharedUsage> = self
            .state
            .read()
            .tenants
            .keys()
            .map(|k| (*k, SharedUsage::default()))
            .collect();
        for shard in &self.chunks {
            for entry in shard.read().values() {
                let share = entry.len as f64 / entry.owners.len().max(1) as f64;
                for owner in &entry.owners {
                    let s = out.entry(*owner).or_default();
                    s.referenced_bytes += entry.len;
                    s.amortized_bytes += share;
                }
            }
        }
        out
    }
}

/// A right one tenant (the *owner*) can grant a peer over the owner's
/// branch namespace. Reading the owner's history and reusing its cached
/// component outputs needs no grant. Rights are ordered — each implies the
/// one below it:
///
/// * [`ShareRight::Fork`] — branch off the owner's commits into one's own
///   namespace (how a peer's work is pulled: fork it, then merge the fork).
/// * [`ShareRight::MergeInto`] — additionally commit merges *onto* the
///   owner's branches (the upstream accepting a downstream contribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ShareRight {
    /// Fork (branch from) the owner's commits.
    Fork,
    /// Merge into the owner's branches. Implies `Fork`.
    MergeInto,
}

impl fmt::Display for ShareRight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ShareRight::Fork => "fork",
            ShareRight::MergeInto => "merge-into",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: TenantId = TenantId(1);
    const B: TenantId = TenantId(2);

    #[test]
    fn register_and_quota_lookup() {
        let acc = TenantAccounts::new();
        assert_eq!(acc.quota(A), QuotaPolicy::UNLIMITED);
        acc.register(A, QuotaPolicy::logical(100));
        assert_eq!(acc.quota(A).max_logical_bytes, Some(100));
        // Re-registering changes the quota but keeps usage.
        acc.charge(
            A,
            TenantUsage {
                blobs_written: 1,
                logical_bytes: 10,
                physical_bytes: 10,
            },
        );
        acc.register(
            A,
            QuotaPolicy {
                max_physical_bytes: Some(50),
                ..QuotaPolicy::UNLIMITED
            },
        );
        assert_eq!(acc.usage(A).logical_bytes, 10);
        assert_eq!(acc.quota(A).max_physical_bytes, Some(50));
    }

    #[test]
    fn check_enforces_both_axes() {
        let acc = TenantAccounts::new();
        acc.register(
            A,
            QuotaPolicy {
                max_logical_bytes: Some(100),
                max_physical_bytes: Some(40),
            },
        );
        acc.charge(
            A,
            TenantUsage {
                blobs_written: 1,
                logical_bytes: 90,
                physical_bytes: 30,
            },
        );
        // Within the cap on both axes: reserved, and released again so the
        // next reservation sees the same headroom.
        acc.release(acc.reserve(A, 10, 10).unwrap());
        assert!(matches!(
            acc.reserve(A, 11, 0),
            Err(StorageError::QuotaExceeded {
                resource: "logical bytes",
                ..
            })
        ));
        assert!(matches!(
            acc.reserve(A, 0, 11),
            Err(StorageError::QuotaExceeded {
                resource: "physical bytes",
                ..
            })
        ));
        // Unregistered tenants are unlimited.
        acc.release(acc.reserve(B, u64::MAX / 2, u64::MAX / 2).unwrap());
        assert_eq!(acc.open_reservations(), 0);
    }

    #[test]
    fn shared_view_splits_chunks_evenly() {
        let acc = TenantAccounts::new();
        acc.register(A, QuotaPolicy::UNLIMITED);
        acc.register(B, QuotaPolicy::UNLIMITED);
        let shared = Hash256::of(b"shared");
        let solo = Hash256::of(b"solo");
        acc.add_chunk_ref(shared, 100, A);
        acc.add_chunk_ref(shared, 100, B);
        acc.add_chunk_ref(shared, 100, B); // idempotent
        acc.add_chunk_ref(solo, 40, A);
        let view = acc.shared_view();
        assert_eq!(view[&A].referenced_bytes, 140);
        assert_eq!(view[&B].referenced_bytes, 100);
        assert!((view[&A].amortized_bytes - 90.0).abs() < 1e-9);
        assert!((view[&B].amortized_bytes - 50.0).abs() < 1e-9);
        // Amortized shares sum to the bytes of all tracked chunks.
        let total: f64 = view.values().map(|s| s.amortized_bytes).sum();
        assert!((total - 140.0).abs() < 1e-9);
        assert_eq!(acc.tracked_chunks(), 2);
        acc.drop_chunk(&solo);
        assert_eq!(acc.tracked_chunks(), 1);
    }

    #[test]
    fn forget_drops_usage_reservations_and_references() {
        let acc = TenantAccounts::new();
        acc.register(A, QuotaPolicy::logical(1_000));
        acc.register(B, QuotaPolicy::UNLIMITED);
        let (shared, solo) = (Hash256::of(b"shared"), Hash256::of(b"solo"));
        acc.add_chunk_ref(shared, 100, A);
        acc.add_chunk_ref(shared, 100, B);
        acc.add_chunk_ref(solo, 40, A);
        acc.charge(
            A,
            TenantUsage {
                blobs_written: 1,
                logical_bytes: 140,
                physical_bytes: 140,
            },
        );
        acc.reserve(A, 50, 10).unwrap();
        let kept = acc.reserve(B, 20, 0).unwrap();
        acc.forget(A);
        assert_eq!(acc.usages().keys().collect::<Vec<_>>(), vec![&B]);
        assert_eq!(acc.usage(A), TenantUsage::default());
        assert_eq!(acc.reserved(A), ReservedBytes::default());
        assert_eq!(acc.quota(A), QuotaPolicy::UNLIMITED);
        assert_eq!(acc.open_reservations(), 1, "B's reservation stays");
        // The chunk only A referenced leaves the ledger; B keeps all of
        // the shared one.
        assert_eq!(acc.tracked_chunks(), 1);
        assert_eq!(acc.shared_view()[&B].amortized_bytes, 100.0);
        acc.release(kept);
        assert_eq!(acc.open_reservations(), 0);
    }

    #[test]
    fn reservations_gate_concurrent_writers() {
        let acc = TenantAccounts::new();
        acc.register(A, QuotaPolicy::logical(100));
        let r1 = acc.reserve(A, 60, 0).unwrap();
        // A second in-flight write sees the first one's reservation.
        assert!(matches!(
            acc.reserve(A, 50, 0),
            Err(StorageError::QuotaExceeded {
                resource: "logical bytes",
                ..
            })
        ));
        assert_eq!(acc.reserved(A).logical, 60);
        // Settling converts the reservation into usage…
        acc.settle(
            r1,
            A,
            TenantUsage {
                blobs_written: 1,
                logical_bytes: 60,
                physical_bytes: 10,
            },
        );
        assert_eq!(acc.reserved(A), ReservedBytes::default());
        assert_eq!(acc.usage(A).logical_bytes, 60);
        assert_eq!(acc.open_reservations(), 0);
        // …and the cap still counts it.
        assert!(acc.reserve(A, 50, 0).is_err());
        let r2 = acc.reserve(A, 40, 0).unwrap();
        // Releasing an aborted write restores the headroom exactly.
        acc.release(r2);
        assert_eq!(acc.reserved(A), ReservedBytes::default());
        assert_eq!(acc.usage(A).logical_bytes, 60, "release charges nothing");
        // Settle/release are idempotent.
        acc.release(r2);
        acc.settle(
            r2,
            A,
            TenantUsage {
                blobs_written: 1,
                logical_bytes: 5,
                physical_bytes: 0,
            },
        );
        assert_eq!(acc.usage(A).logical_bytes, 65, "late settle still charges");
        assert_eq!(acc.reserved(A), ReservedBytes::default());
    }

    #[test]
    fn parallel_reservations_never_overshoot_the_cap() {
        let acc = TenantAccounts::new();
        acc.register(
            A,
            QuotaPolicy {
                max_physical_bytes: Some(1_000),
                ..QuotaPolicy::UNLIMITED
            },
        );
        let granted = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if let Ok(id) = acc.reserve(A, 0, 30) {
                            granted.fetch_add(30, std::sync::atomic::Ordering::Relaxed);
                            acc.settle(
                                id,
                                A,
                                TenantUsage {
                                    blobs_written: 1,
                                    logical_bytes: 0,
                                    physical_bytes: 30,
                                },
                            );
                        }
                    }
                });
            }
        });
        let total = granted.load(std::sync::atomic::Ordering::Relaxed);
        assert!(total <= 1_000, "overshoot: {total}");
        assert_eq!(acc.usage(A).physical_bytes, total);
        assert_eq!(acc.open_reservations(), 0);
    }

    #[test]
    fn share_rights_are_ordered_and_imply_weaker() {
        assert!(ShareRight::MergeInto > ShareRight::Fork);
        assert_eq!(ShareRight::MergeInto.to_string(), "merge-into");
    }

    #[test]
    fn concurrent_charges_are_exact() {
        let acc = TenantAccounts::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..200u64 {
                        acc.charge(
                            A,
                            TenantUsage {
                                blobs_written: 1,
                                logical_bytes: 10,
                                physical_bytes: 5,
                            },
                        );
                        acc.add_chunk_ref(Hash256::of(&i.to_le_bytes()), 10, A);
                    }
                });
            }
        });
        let u = acc.usage(A);
        assert_eq!(u.blobs_written, 8 * 200);
        assert_eq!(u.logical_bytes, 8 * 200 * 10);
        assert_eq!(u.physical_bytes, 8 * 200 * 5);
        assert_eq!(acc.tracked_chunks(), 200);
    }
}
