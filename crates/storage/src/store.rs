//! The deduplicating chunk store — the ForkBase stand-in.
//!
//! `ChunkStore` splits every blob with content-defined chunking, persists
//! only unseen chunks, and records a manifest addressing the whole blob.
//! Writing the same (or a slightly edited) blob twice therefore costs only
//! the changed chunks, which is exactly the property the paper exploits for
//! libraries and reusable component outputs.
//!
//! One physical store can serve many tenants: [`ChunkStore::for_tenant`]
//! produces a view that shares the backend, statistics, and dedup state but
//! attributes every write to one [`TenantId`] — charging quota checks and
//! first-referent-pays byte accounting through the shared
//! [`TenantAccounts`] (see [`crate::tenant`]).

use crate::backend::{MemBackend, StorageBackend};
use crate::cache::{BlobCache, CacheOptions};
use crate::chunk::{chunk_blob, ChunkParams, ChunkRef};
use crate::costmodel::StorageCostModel;
use crate::errors::{Result, StorageError};
use crate::hash::Hash256;
use crate::object::{Manifest, ObjectKind, ObjectRef};
use crate::stats::{AtomicStats, CacheStats, KindStats, StorageStats};
use crate::tenant::{ReservationId, TenantAccounts, TenantId, TenantUsage};
use bytes::Bytes;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of a blob write: the reference plus accounting for this write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PutOutcome {
    /// Handle to the stored blob.
    pub object: ObjectRef,
    /// Bytes newly persisted by this write (0 for a perfect duplicate).
    pub physical_bytes: u64,
    /// Modeled storage time for this write.
    pub cost: Duration,
}

/// One chunk-level observation from a traced write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteObs {
    /// Chunk content address.
    pub hash: Hash256,
    /// Chunk length in bytes.
    pub len: u64,
    /// True if this write persisted the chunk (it was absent before).
    pub was_new: bool,
}

/// Chunk-level record of one traced blob write, sufficient to *replay* the
/// write's dedup accounting later under any write order.
///
/// The parallel candidate-evaluation engines execute pipelines concurrently
/// (racy write order) but charge storage time by replaying these traces in
/// the candidates' index order against a simulated chunk set, which makes
/// the reported costs identical to a fully sequential run. The key
/// property: a chunk was present *before* the whole evaluation iff no
/// traced write observed it as new — an order-independent predicate.
#[derive(Debug, Clone)]
pub struct PutTrace {
    /// Accounting category.
    pub kind: ObjectKind,
    /// Logical blob length presented to the store.
    pub logical: u64,
    /// Data chunks, in blob order.
    pub chunks: Vec<WriteObs>,
    /// The manifest object.
    pub manifest: WriteObs,
    /// The quota reservation this (tenant-attributed) write holds until it
    /// is settled at replay time or released on abort.
    pub reservation: Option<ReservationId>,
}

impl PutTrace {
    /// Replays this write against a simulated set of not-yet-persisted chunk
    /// hashes, consuming the chunks it persists. Returns the modeled cost
    /// and stats delta the live sequential store would have produced at this
    /// point in the replay order.
    pub fn replay(
        &self,
        cost: &StorageCostModel,
        unseen: &mut std::collections::HashSet<Hash256>,
    ) -> (Duration, KindStats) {
        let mut physical = 0u64;
        let mut deduped = 0u64;
        for c in &self.chunks {
            if unseen.remove(&c.hash) {
                physical += c.len;
            } else {
                deduped += 1;
            }
        }
        if unseen.remove(&self.manifest.hash) {
            physical += self.manifest.len;
        }
        let stats = KindStats {
            blobs_written: 1,
            logical_bytes: self.logical,
            physical_bytes: physical,
            chunks_seen: self.chunks.len() as u64,
            chunks_deduped: deduped,
        };
        (cost.write_cost(self.logical, physical), stats)
    }
}

/// Result of an orphan sweep ([`ChunkStore::sweep_orphans`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Distinct objects (manifests + chunks) reachable from the roots.
    pub(crate) live_objects: usize,
    /// Unreachable objects deleted from the backend.
    pub removed_objects: usize,
    /// Physical bytes reclaimed.
    pub removed_bytes: u64,
    /// Segment file bytes reclaimed by backend compaction after the sweep
    /// (0 for backends without log compaction).
    pub(crate) compacted_file_bytes: u64,
}

/// Content-addressed, deduplicating blob store.
///
/// Statistics and tenant accounting sit behind `Arc`s so tenant-scoped
/// views ([`ChunkStore::for_tenant`]) share them with the root store.
pub struct ChunkStore {
    backend: Arc<dyn StorageBackend>,
    params: ChunkParams,
    cost: StorageCostModel,
    stats: Arc<AtomicStats>,
    tenants: Arc<TenantAccounts>,
    /// Hot read path: content-hash-keyed blob cache in front of the
    /// backend. `None` disables caching. Because
    /// entries are keyed by the hash of their bytes, a hit is always
    /// byte-identical to the backend read it replaces.
    cache: Option<Arc<BlobCache>>,
    /// When set, writes through this view are attributed (and quota-checked)
    /// against the tenant.
    tenant: Option<TenantId>,
}

impl ChunkStore {
    /// Creates a store over an arbitrary backend, with the blob cache at
    /// its default budget ([`CacheOptions::default`]).
    pub fn new(
        backend: Arc<dyn StorageBackend>,
        params: ChunkParams,
        cost: StorageCostModel,
    ) -> Self {
        Self::with_cache(backend, params, cost, Some(CacheOptions::default()))
    }

    /// Creates a store with an explicit cache configuration (`None`
    /// disables caching).
    pub fn with_cache(
        backend: Arc<dyn StorageBackend>,
        params: ChunkParams,
        cost: StorageCostModel,
        cache: Option<CacheOptions>,
    ) -> Self {
        ChunkStore {
            backend,
            params,
            cost,
            stats: Arc::new(AtomicStats::new()),
            tenants: Arc::new(TenantAccounts::new()),
            cache: cache.map(|opts| Arc::new(BlobCache::new(opts))),
            tenant: None,
        }
    }

    /// A view of the same physical store that attributes every write to
    /// `tenant`: quota checks apply before any chunk is persisted, and
    /// first-referent-pays usage plus chunk references accrue in the shared
    /// [`TenantAccounts`]. Backend, dedup state, cost model, and statistics
    /// are shared with the parent — a blob written by one tenant
    /// deduplicates against every other tenant's chunks.
    pub fn for_tenant(&self, tenant: TenantId) -> ChunkStore {
        ChunkStore {
            backend: Arc::clone(&self.backend),
            params: self.params,
            cost: self.cost,
            stats: Arc::clone(&self.stats),
            tenants: Arc::clone(&self.tenants),
            cache: self.cache.clone(),
            tenant: Some(tenant),
        }
    }

    /// The shared tenant accounting table.
    pub fn tenant_accounts(&self) -> &Arc<TenantAccounts> {
        &self.tenants
    }

    /// Drops this view's tenant from the shared accounts — its quota,
    /// usage, open reservations and chunk references — as if it had never
    /// written: the undo of a tenant whose join was refused. The bytes its
    /// writes persisted stay, unattributed, until another tenant's write
    /// references them (and pays for them) or an orphan sweep reclaims
    /// them. A no-op on untenanted views.
    pub fn forget_tenant(&self) {
        if let Some(tenant) = self.tenant {
            self.tenants.forget(tenant);
        }
    }

    /// In-memory store with default (ForkBase-like) parameters.
    pub fn in_memory() -> Self {
        Self::new(
            Arc::new(MemBackend::new()),
            ChunkParams::DEFAULT,
            StorageCostModel::FORKBASE,
        )
    }

    /// In-memory store with small chunks, convenient for unit tests.
    pub fn in_memory_small() -> Self {
        Self::new(
            Arc::new(MemBackend::new()),
            ChunkParams::SMALL,
            StorageCostModel::FORKBASE,
        )
    }

    /// The storage cost model in effect.
    pub fn cost_model(&self) -> StorageCostModel {
        self.cost
    }

    /// Writes a blob, deduplicating chunks, and returns its reference.
    pub fn put_blob(&self, kind: ObjectKind, data: &[u8]) -> Result<PutOutcome> {
        self.put_revision(kind, data, None)
            .map(|(outcome, _)| outcome)
    }

    /// Writes a blob like [`ChunkStore::put_blob`], given what it is known
    /// to repeat of a blob written before: `prior` holds that blob's
    /// chunks and how many leading bytes the two share. A cut depends only
    /// on the bytes from its chunk's start to the cut, so the prior's
    /// chunks that end inside the shared prefix are this blob's too, all
    /// but the prior's last, whose cut end-of-data may have forced. Only
    /// what follows them is chunked and hashed; the chunks, the write and
    /// its charges are `put_blob`'s. Returns the blob's chunks too, the
    /// prior of its next revision.
    pub fn put_revision(
        &self,
        kind: ObjectKind,
        data: &[u8],
        prior: Option<(&[ChunkRef], usize)>,
    ) -> Result<(PutOutcome, Vec<ChunkRef>)> {
        let chunks = chunk_blob(data, self.params, prior);
        debug_assert!(
            prior.is_none() || chunks == chunk_blob(data, self.params, None),
            "chunking resumed from a prior differs from chunking the whole blob"
        );
        let (outcome, trace) = self.write_blob(kind, data, &chunks)?;
        self.record_live_write(&trace, outcome.physical_bytes);
        Ok((outcome, chunks))
    }

    /// Applies the stats delta of a completed (non-traced) write, `physical`
    /// being the bytes it persisted.
    fn record_live_write(&self, trace: &PutTrace, physical: u64) {
        let deduped = trace.chunks.iter().filter(|c| !c.was_new).count() as u64;
        self.stats.record(
            trace.kind,
            KindStats {
                blobs_written: 1,
                logical_bytes: trace.logical,
                physical_bytes: physical,
                chunks_seen: trace.chunks.len() as u64,
                chunks_deduped: deduped,
            },
        );
        self.attribute_tenant(trace);
    }

    /// Records this view's tenant (if any) as a referent of every chunk of
    /// one blob write and charges it — settling the reservation the write
    /// took out — the write's logical bytes and the bytes of the chunks it
    /// is the first referent of, stored before or not (see
    /// [`crate::tenant`]).
    ///
    /// Tenant attribution deliberately mirrors the statistics protocol:
    /// live writes charge immediately, traced writes charge during the
    /// deterministic replay ([`ChunkStore::record_replayed_write`]) — so
    /// per-tenant usage, like every other observable, is byte-identical
    /// across worker counts.
    fn attribute_tenant(&self, trace: &PutTrace) {
        let Some(tenant) = self.tenant else {
            // An untenanted view replaying a tenant-reserved trace must
            // still return the headroom.
            self.release_trace(trace);
            return;
        };
        let physical = trace
            .chunks
            .iter()
            .chain([&trace.manifest])
            .map(|c| self.tenants.add_chunk_ref(c.hash, c.len, tenant))
            .sum();
        let usage = TenantUsage {
            blobs_written: 1,
            logical_bytes: trace.logical,
            physical_bytes: physical,
        };
        match trace.reservation {
            Some(id) => self.tenants.settle(id, tenant, usage),
            None => self.tenants.charge(tenant, usage),
        }
    }

    /// An upper bound of what a write of `chunks` and a manifest of
    /// `manifest_len` bytes at `id` charges: the bytes of those no tenant
    /// references yet (a chunk repeated within the blob counts once per
    /// occurrence). Zero unless this view's tenant has a physical quota.
    fn physical_estimate(
        &self,
        chunks: impl Iterator<Item = (Hash256, u64)>,
        id: Hash256,
        manifest_len: u64,
    ) -> u64 {
        let capped = self
            .tenant
            .is_some_and(|t| self.tenants.quota(t).max_physical_bytes.is_some());
        if !capped {
            return 0;
        }
        chunks
            .chain([(id, manifest_len)])
            .filter(|(hash, _)| !self.tenants.is_referenced(hash))
            .map(|(_, len)| len)
            .sum()
    }

    /// Releases the quota reservation a traced write holds, without charging
    /// anything (the write's evaluation aborted). Idempotent, and a no-op
    /// for settled or untenanted traces — abort paths may release a whole
    /// profile book of traces wholesale.
    pub fn release_trace(&self, trace: &PutTrace) {
        if let Some(id) = trace.reservation {
            self.tenants.release(id);
        }
    }

    /// Writes a blob like [`ChunkStore::put_blob`] but records **no**
    /// statistics; instead it returns the chunk-level [`PutTrace`] so a
    /// deterministic replay can attribute cost and stats in a canonical
    /// order. Used by the parallel candidate-evaluation engines.
    pub fn put_blob_traced(&self, kind: ObjectKind, data: &[u8]) -> Result<(PutOutcome, PutTrace)> {
        self.write_blob(kind, data, &chunk_blob(data, self.params, None))
    }

    /// The replay half of the traced-write protocol: applies the stats delta
    /// *and* attributes the write to this view's tenant in canonical
    /// (replay) order, so per-tenant accounting stays deterministic whatever
    /// the phase-1 schedule.
    pub fn record_replayed_write(&self, trace: &PutTrace, delta: KindStats) {
        self.stats.record(trace.kind, delta);
        self.attribute_tenant(trace);
    }

    /// Writes `data`, cut into `chunks`, as one backend call.
    fn write_blob(
        &self,
        kind: ObjectKind,
        data: &[u8],
        chunks: &[ChunkRef],
    ) -> Result<(PutOutcome, PutTrace)> {
        let manifest = Manifest::from_chunks(chunks);
        let enc = manifest.encode();
        let id = Hash256::of(&enc);
        // Quota gate: tenant-attributed writes (live *and* traced)
        // atomically check-and-*reserve* their bytes before any chunk is
        // persisted, so a breaching write leaves no partial state and
        // concurrent writers of one evaluation cannot jointly overshoot the
        // cap. The reservation is settled when the write is *attributed* —
        // immediately for live writes, at canonical replay time for traced
        // ones — and released if the evaluation aborts (see
        // `TenantAccounts::reserve`).
        let reservation = match self.tenant {
            Some(tenant) => {
                let estimate = self.physical_estimate(
                    chunks.iter().map(|c| (c.hash, c.len as u64)),
                    id,
                    enc.len() as u64,
                );
                Some(self.tenants.reserve(tenant, data.len() as u64, estimate)?)
            }
            None => None,
        };
        // The blob is one backend call: its chunks in order, then its
        // manifest, so a backend can land them as one unit.
        let mut items: Vec<(Hash256, &[u8])> = chunks
            .iter()
            .map(|c| {
                let s = c.offset as usize;
                (c.hash, &data[s..s + c.len as usize])
            })
            .collect();
        items.push((id, &enc));
        let fresh = match self.backend.put_many(&items) {
            Ok(fresh) => fresh,
            Err(e) => {
                // A backend fault mid-write must not strand the headroom.
                if let Some(r) = reservation {
                    self.tenants.release(r);
                }
                return Err(e);
            }
        };
        let obs: Vec<WriteObs> = chunks
            .iter()
            .zip(&fresh)
            .map(|(c, &was_new)| WriteObs {
                hash: c.hash,
                len: c.len as u64,
                was_new,
            })
            .collect();
        let manifest_new = fresh[chunks.len()];
        let physical = obs.iter().filter(|o| o.was_new).map(|o| o.len).sum::<u64>()
            + if manifest_new { enc.len() as u64 } else { 0 };
        let trace = PutTrace {
            kind,
            logical: data.len() as u64,
            chunks: obs,
            manifest: WriteObs {
                hash: id,
                len: enc.len() as u64,
                was_new: manifest_new,
            },
            reservation,
        };
        Ok((
            PutOutcome {
                object: ObjectRef {
                    id,
                    kind,
                    len: data.len() as u64,
                },
                physical_bytes: physical,
                cost: self.cost.write_cost(data.len() as u64, physical),
            },
            trace,
        ))
    }

    /// Charges this view for writing the bytes of the stored blob `object`
    /// again, without the bytes: exactly what a fully duplicate
    /// [`ChunkStore::put_blob`] of them charges — the same outcome, stats
    /// delta, quota check, usage and chunk references (so the chunks no
    /// tenant references are charged to this one) — for one index probe
    /// per chunk and no chunking, hashing or backend write.
    ///
    /// The manifest is read from the backend, not through the blob cache,
    /// so a registration leaves the cache as a duplicate write would.
    /// Returns `None` when the manifest or any chunk it lists is missing
    /// (swept, or never stored); the caller then writes the bytes.
    pub fn put_stored(&self, object: &ObjectRef) -> Result<Option<PutOutcome>> {
        let enc = match self.backend.get(object.id) {
            Ok(enc) => enc,
            Err(StorageError::NotFound(_)) => return Ok(None),
            Err(e) => return Err(e),
        };
        let manifest = Manifest::decode(&enc)
            .ok_or_else(|| StorageError::Codec("invalid manifest encoding".into()))?;
        if !manifest
            .chunks
            .iter()
            .all(|c| self.backend.contains(c.hash))
        {
            return Ok(None);
        }
        let reservation = match self.tenant {
            Some(tenant) => {
                let estimate = self.physical_estimate(
                    manifest.chunks.iter().map(|c| (c.hash, c.len as u64)),
                    object.id,
                    enc.len() as u64,
                );
                Some(self.tenants.reserve(tenant, manifest.len, estimate)?)
            }
            None => None,
        };
        let obs = |hash, len| WriteObs {
            hash,
            len,
            was_new: false,
        };
        let trace = PutTrace {
            kind: object.kind,
            logical: manifest.len,
            chunks: manifest
                .chunks
                .iter()
                .map(|c| obs(c.hash, c.len as u64))
                .collect(),
            manifest: obs(object.id, enc.len() as u64),
            reservation,
        };
        self.record_live_write(&trace, 0);
        Ok(Some(PutOutcome {
            object: ObjectRef {
                id: object.id,
                kind: object.kind,
                len: manifest.len,
            },
            physical_bytes: 0,
            cost: self.cost.write_cost(manifest.len, 0),
        }))
    }

    /// Reads one backend object (manifest or chunk) through the blob cache.
    ///
    /// A hit skips both the backend read and — on the durable backend — its
    /// per-read content-hash verification; that verification already proved
    /// the bytes match `key` when they were first fetched, and content
    /// addressing means the association can never go stale.
    fn fetch_object(&self, key: Hash256) -> Result<Bytes> {
        let Some(cache) = &self.cache else {
            return self.backend.get(key);
        };
        if let Some(hit) = cache.get(&key) {
            return Ok(hit);
        }
        let data = self.backend.get(key)?;
        cache.insert(key, data.clone());
        Ok(data)
    }

    /// Reads a blob back by reference.
    pub fn get_blob(&self, object: &ObjectRef) -> Result<Bytes> {
        let manifest_bytes = self.fetch_object(object.id)?;
        let manifest = Manifest::decode(&manifest_bytes)
            .ok_or_else(|| StorageError::Codec("invalid manifest encoding".into()))?;
        let mut out = Vec::with_capacity(manifest.len as usize);
        for entry in &manifest.chunks {
            let chunk = self.fetch_object(entry.hash)?;
            if chunk.len() != entry.len as usize {
                return Err(StorageError::Corrupt {
                    expected: entry.hash,
                    actual: Hash256::of(&chunk),
                });
            }
            out.extend_from_slice(&chunk);
        }
        Ok(Bytes::from(out))
    }

    /// Modeled cost of reading `object`.
    pub fn read_cost(&self, object: &ObjectRef) -> Duration {
        self.cost.read_cost(object.len)
    }

    /// True if the blob's manifest is present.
    pub fn contains(&self, id: Hash256) -> bool {
        self.backend.contains(id)
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> StorageStats {
        self.stats.snapshot()
    }

    /// Physical bytes held by the backend.
    pub fn physical_bytes(&self) -> u64 {
        self.backend.physical_bytes()
    }

    /// Records that this view's tenant now references the stored blob at
    /// `id` — its manifest and every chunk the manifest lists — in the
    /// shared-refcount ledger, without writing or charging anything.
    ///
    /// This is the accounting half of forking another tenant's committed
    /// state: the forker starts *depending on* the peer's bytes (they now
    /// appear in the forker's [`SharedUsage`](crate::tenant::SharedUsage)
    /// fair-share view) while the charge stays with their first referent —
    /// the forker pays only for a chunk no tenant referenced yet. Returns
    /// the referenced bytes; a no-op on untenanted views.
    pub fn adopt_blob(&self, id: Hash256) -> Result<u64> {
        let Some(tenant) = self.tenant else {
            return Ok(0);
        };
        let manifest_bytes = self.fetch_object(id)?;
        let manifest = Manifest::decode(&manifest_bytes)
            .ok_or_else(|| StorageError::Codec("invalid manifest encoding".into()))?;
        let chunks = manifest.chunks.iter().map(|e| (e.hash, e.len as u64));
        let (mut referenced, mut charged) = (0, 0);
        for (hash, len) in chunks.chain([(id, manifest_bytes.len() as u64)]) {
            charged += self.tenants.add_chunk_ref(hash, len, tenant);
            referenced += len;
        }
        if charged > 0 {
            let usage = TenantUsage {
                physical_bytes: charged,
                ..TenantUsage::default()
            };
            self.tenants.charge(tenant, usage);
        }
        Ok(referenced)
    }

    /// Stores a small metadata record (serialised JSON) without chunking
    /// overhead semantics — still content-addressed and deduplicated as a
    /// single chunk.
    pub fn put_meta<T: serde::Serialize>(&self, kind: ObjectKind, value: &T) -> Result<PutOutcome> {
        let bytes = serde_json::to_vec(value)?;
        self.put_blob(kind, &bytes)
    }

    /// Reads back a metadata record.
    pub fn get_meta<T: serde::de::DeserializeOwned>(&self, object: &ObjectRef) -> Result<T> {
        let bytes = self.get_blob(object)?;
        Ok(serde_json::from_slice(&bytes)?)
    }

    /// Deletes every backend object unreachable from `roots` and returns
    /// what was reclaimed.
    ///
    /// Each root is the content address of a stored blob (a manifest); the
    /// manifest and all chunks it lists are live. Everything else —
    /// typically blobs persisted by independent siblings of a dynamically
    /// failing node, which no metafile or checkpoint ever came to reference
    /// — is removed, restoring byte-level parity with what was charged.
    /// Roots not present in the backend are ignored (callers may pass
    /// references whose blobs were already swept).
    pub fn sweep_orphans(&self, roots: impl IntoIterator<Item = Hash256>) -> Result<SweepReport> {
        let mut live: HashSet<Hash256> = HashSet::new();
        for root in roots {
            if !live.insert(root) {
                continue;
            }
            let Ok(bytes) = self.backend.get(root) else {
                continue;
            };
            if let Some(manifest) = Manifest::decode(&bytes) {
                for entry in &manifest.chunks {
                    live.insert(entry.hash);
                }
            }
        }
        let mut report = SweepReport {
            live_objects: live.len(),
            ..SweepReport::default()
        };
        // One key snapshot per sweep: `keys` clones the index under its
        // lock (on the cask backend, the whole keydir), so it must not be
        // re-queried inside the loop. The snapshot is taken once, reused
        // for the whole removal pass, and any key it misses was written
        // after the sweep started — by definition reachable from roots the
        // caller didn't pass, so not this sweep's business.
        let snapshot = self.backend.keys();
        for key in snapshot {
            if live.contains(&key) {
                continue;
            }
            if let Some(freed) = self.backend.remove(key)? {
                report.removed_objects += 1;
                report.removed_bytes += freed;
                self.tenants.drop_chunk(&key);
                // Presence is the cache's only staleness hazard: a removed
                // key must never be served from memory again.
                if let Some(cache) = &self.cache {
                    cache.invalidate(&key);
                }
            }
        }
        // Removal only tombstones on log-structured backends; compaction
        // rewrites the segments so the file bytes actually come back.
        report.compacted_file_bytes = self.backend.compact()?;
        Ok(report)
    }

    /// Makes every acknowledged write durable (drains the backend's write
    /// queue and fsyncs). A no-op on in-memory stores.
    pub fn flush(&self) -> Result<()> {
        self.backend.flush()
    }

    /// Direct access to the physical backend (recovery tooling needs to ask
    /// it about chunk presence and durability counters).
    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    /// Telemetry snapshot of the blob cache, or `None` when caching is
    /// disabled. A read-only side channel — never part of
    /// [`StorageStats`], so determinism observables cannot see it.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn round_trip() {
        let store = ChunkStore::in_memory_small();
        let data = random_bytes(1, 10_000);
        let out = store.put_blob(ObjectKind::Dataset, &data).unwrap();
        assert_eq!(out.object.len, data.len() as u64);
        assert_eq!(store.get_blob(&out.object).unwrap().as_ref(), &data[..]);
    }

    #[test]
    fn duplicate_write_is_free() {
        let store = ChunkStore::in_memory_small();
        let data = random_bytes(2, 50_000);
        let first = store.put_blob(ObjectKind::Output, &data).unwrap();
        let second = store.put_blob(ObjectKind::Output, &data).unwrap();
        assert_eq!(first.object, second.object);
        assert!(first.physical_bytes > 0);
        assert_eq!(second.physical_bytes, 0, "perfect duplicate stores nothing");
        let s = store.stats().kind(ObjectKind::Output);
        assert_eq!(s.blobs_written, 2);
        assert_eq!(s.logical_bytes, 100_000);
        assert!(s.physical_bytes < 60_000);
    }

    #[test]
    fn small_edit_stores_only_changed_chunks() {
        let store = ChunkStore::in_memory_small();
        let mut data = random_bytes(3, 200_000);
        let first = store.put_blob(ObjectKind::Library, &data).unwrap();
        data[100_000] ^= 0xff;
        let second = store.put_blob(ObjectKind::Library, &data).unwrap();
        assert_ne!(first.object.id, second.object.id);
        // The rewrite pays for the changed chunk(s) plus a fresh manifest
        // (36 B per chunk entry); with SMALL chunk params the manifest is the
        // dominant term, so allow up to ~1/5 of the original write.
        assert!(
            second.physical_bytes < first.physical_bytes / 5,
            "edit stored {} of {} original bytes",
            second.physical_bytes,
            first.physical_bytes
        );
    }

    #[test]
    fn empty_blob() {
        let store = ChunkStore::in_memory_small();
        let out = store.put_blob(ObjectKind::Model, &[]).unwrap();
        assert_eq!(out.object.len, 0);
        assert!(store.get_blob(&out.object).unwrap().is_empty());
    }

    #[test]
    fn missing_blob_errors() {
        let store = ChunkStore::in_memory_small();
        let fake = ObjectRef {
            id: Hash256::of(b"nope"),
            kind: ObjectKind::Output,
            len: 4,
        };
        assert!(matches!(
            store.get_blob(&fake),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn meta_round_trip() {
        #[derive(serde::Serialize, serde::Deserialize, PartialEq, Debug)]
        struct Meta {
            name: String,
            version: u32,
        }
        let store = ChunkStore::in_memory_small();
        let m = Meta {
            name: "feature_extract".into(),
            version: 3,
        };
        let out = store.put_meta(ObjectKind::Pipeline, &m).unwrap();
        let back: Meta = store.get_meta(&out.object).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn write_cost_reflects_dedup() {
        let store = ChunkStore::in_memory();
        let data = random_bytes(4, 4 << 20);
        let first = store.put_blob(ObjectKind::Output, &data).unwrap();
        let second = store.put_blob(ObjectKind::Output, &data).unwrap();
        assert!(second.cost < first.cost);
    }

    #[test]
    fn stats_dedup_ratio_improves_with_duplicates() {
        let store = ChunkStore::in_memory_small();
        let data = random_bytes(5, 100_000);
        for _ in 0..5 {
            store.put_blob(ObjectKind::Dataset, &data).unwrap();
        }
        assert!(store.stats().dedup_ratio() > 4.0);
    }

    #[test]
    fn traced_write_replay_matches_live_accounting() {
        // Two stores fed the same blobs: one live, one traced + replayed.
        let live = ChunkStore::in_memory_small();
        let traced = ChunkStore::in_memory_small();
        let blobs = [
            random_bytes(10, 30_000),
            random_bytes(11, 10_000),
            random_bytes(10, 30_000), // duplicate of the first
        ];
        let mut live_costs = Vec::new();
        for b in &blobs {
            live_costs.push(live.put_blob(ObjectKind::Output, b).unwrap().cost);
        }
        let mut traces = Vec::new();
        let mut unseen = std::collections::HashSet::new();
        for b in &blobs {
            let (_, t) = traced.put_blob_traced(ObjectKind::Output, b).unwrap();
            for c in &t.chunks {
                if c.was_new {
                    unseen.insert(c.hash);
                }
            }
            if t.manifest.was_new {
                unseen.insert(t.manifest.hash);
            }
            traces.push(t);
        }
        assert_eq!(
            traced.stats().total(),
            KindStats::default(),
            "traced writes record nothing"
        );
        for (t, live_cost) in traces.iter().zip(&live_costs) {
            let (cost, stats) = t.replay(&traced.cost_model(), &mut unseen);
            assert_eq!(cost, *live_cost, "replayed cost equals live cost");
            traced.record_replayed_write(t, stats);
        }
        assert_eq!(traced.stats(), live.stats(), "replayed stats equal live");
        assert_eq!(traced.physical_bytes(), live.physical_bytes());
    }

    #[test]
    fn tenant_views_share_dedup_and_split_attribution() {
        use crate::tenant::{QuotaPolicy, TenantId};
        let root = ChunkStore::in_memory_small();
        let a = root.for_tenant(TenantId(1));
        let b = root.for_tenant(TenantId(2));
        root.tenant_accounts()
            .register(TenantId(1), QuotaPolicy::UNLIMITED);
        root.tenant_accounts()
            .register(TenantId(2), QuotaPolicy::UNLIMITED);
        let data = random_bytes(20, 40_000);
        let first = a.put_blob(ObjectKind::Dataset, &data).unwrap();
        let second = b.put_blob(ObjectKind::Dataset, &data).unwrap();
        assert_eq!(first.object, second.object, "one shared store");
        assert!(first.physical_bytes > 0);
        assert_eq!(second.physical_bytes, 0, "tenant B dedups against A");
        // First-writer-pays attribution.
        let ua = root.tenant_accounts().usage(TenantId(1));
        let ub = root.tenant_accounts().usage(TenantId(2));
        assert_eq!(ua.logical_bytes, 40_000);
        assert_eq!(ub.logical_bytes, 40_000);
        assert_eq!(ua.physical_bytes, first.physical_bytes);
        assert_eq!(ub.physical_bytes, 0);
        assert_eq!(
            ua.physical_bytes + ub.physical_bytes,
            root.physical_bytes(),
            "per-tenant physical sums to the store total"
        );
        // Shared-refcount view splits every chunk between the two tenants.
        let view = root.tenant_accounts().shared_view();
        assert_eq!(
            view[&TenantId(1)].referenced_bytes,
            view[&TenantId(2)].referenced_bytes
        );
        assert!(
            (view[&TenantId(1)].amortized_bytes - root.physical_bytes() as f64 / 2.0).abs() < 1e-6
        );
        // Untenanted root writes stay unattributed.
        root.put_blob(ObjectKind::Output, b"root data").unwrap();
        assert_eq!(root.tenant_accounts().usage(TenantId(1)), ua);
    }

    #[test]
    fn quota_breach_aborts_before_persisting() {
        use crate::tenant::{QuotaPolicy, TenantId};
        let root = ChunkStore::in_memory_small();
        let t = root.for_tenant(TenantId(7));
        root.tenant_accounts()
            .register(TenantId(7), QuotaPolicy::logical(10_000));
        let small = random_bytes(30, 8_000);
        t.put_blob(ObjectKind::Output, &small).unwrap();
        let bytes_before = root.physical_bytes();
        let too_big = random_bytes(31, 4_000);
        assert!(matches!(
            t.put_blob(ObjectKind::Output, &too_big),
            Err(StorageError::QuotaExceeded {
                resource: "logical bytes",
                ..
            })
        ));
        assert_eq!(
            root.physical_bytes(),
            bytes_before,
            "breaching write persisted nothing"
        );
        // Physical quotas respect dedup: rewriting existing content needs
        // (almost) no new physical bytes, so it passes a tight physical cap.
        let p = root.for_tenant(TenantId(8));
        root.tenant_accounts().register(
            TenantId(8),
            QuotaPolicy {
                max_physical_bytes: Some(1_000),
                ..QuotaPolicy::UNLIMITED
            },
        );
        p.put_blob(ObjectKind::Output, &small).unwrap();
        assert!(matches!(
            p.put_blob(ObjectKind::Output, &too_big),
            Err(StorageError::QuotaExceeded {
                resource: "physical bytes",
                ..
            })
        ));
    }

    #[test]
    fn adopt_blob_adds_refs_without_charging() {
        use crate::tenant::{QuotaPolicy, TenantId};
        let root = ChunkStore::in_memory_small();
        let a = root.for_tenant(TenantId(1));
        let b = root.for_tenant(TenantId(2));
        root.tenant_accounts()
            .register(TenantId(1), QuotaPolicy::UNLIMITED);
        root.tenant_accounts()
            .register(TenantId(2), QuotaPolicy::UNLIMITED);
        let data = random_bytes(60, 50_000);
        let put = a.put_blob(ObjectKind::Output, &data).unwrap();
        let referenced = b.adopt_blob(put.object.id).unwrap();
        assert!(referenced >= data.len() as u64);
        // B now depends on the blob (fair-share view) but paid nothing.
        let view = root.tenant_accounts().shared_view();
        assert_eq!(
            view[&TenantId(1)].referenced_bytes,
            view[&TenantId(2)].referenced_bytes
        );
        assert_eq!(
            root.tenant_accounts().usage(TenantId(2)),
            Default::default()
        );
        // Unknown blobs error; untenanted adoption is a no-op.
        assert!(b.adopt_blob(Hash256::of(b"ghost")).is_err());
        assert_eq!(root.adopt_blob(put.object.id).unwrap(), 0);
    }

    #[test]
    fn traced_write_reservation_settles_or_releases() {
        use crate::tenant::{QuotaPolicy, TenantId};
        let root = ChunkStore::in_memory_small();
        let t = root.for_tenant(TenantId(3));
        root.tenant_accounts()
            .register(TenantId(3), QuotaPolicy::logical(100_000));
        let data = random_bytes(61, 30_000);
        let (_, trace) = t.put_blob_traced(ObjectKind::Output, &data).unwrap();
        assert!(trace.reservation.is_some());
        let accounts = root.tenant_accounts();
        assert_eq!(accounts.reserved(TenantId(3)).logical, 30_000);
        assert_eq!(accounts.usage(TenantId(3)).logical_bytes, 0);
        // Aborting the evaluation releases the headroom untouched.
        t.release_trace(&trace);
        assert_eq!(accounts.reserved(TenantId(3)).logical, 0);
        assert_eq!(accounts.usage(TenantId(3)), Default::default());
        assert_eq!(accounts.open_reservations(), 0);
        // A replayed trace settles: reservation gone, usage charged.
        let (_, trace2) = t.put_blob_traced(ObjectKind::Output, &data).unwrap();
        let mut unseen = std::collections::HashSet::new();
        let (_, stats) = trace2.replay(&root.cost_model(), &mut unseen);
        t.record_replayed_write(&trace2, stats);
        assert_eq!(accounts.reserved(TenantId(3)).logical, 0);
        assert_eq!(accounts.usage(TenantId(3)).logical_bytes, 30_000);
    }

    #[test]
    fn sweep_orphans_removes_unreachable_blobs_only() {
        let store = ChunkStore::in_memory_small();
        let live_data = random_bytes(40, 30_000);
        let orphan_data = random_bytes(41, 20_000);
        let live = store.put_blob(ObjectKind::Output, &live_data).unwrap();
        let orphan = store.put_blob(ObjectKind::Output, &orphan_data).unwrap();
        let before = store.physical_bytes();
        let report = store.sweep_orphans([live.object.id]).unwrap();
        assert!(report.removed_objects > 0);
        assert_eq!(report.removed_bytes, orphan.physical_bytes);
        assert_eq!(store.physical_bytes(), before - orphan.physical_bytes);
        // Live blob still reads back; orphan is gone.
        assert_eq!(
            store.get_blob(&live.object).unwrap().as_ref(),
            &live_data[..]
        );
        assert!(store.get_blob(&orphan.object).is_err());
        // Second sweep is a no-op; unknown roots are ignored.
        let again = store
            .sweep_orphans([live.object.id, Hash256::of(b"ghost")])
            .unwrap();
        assert_eq!(again.removed_objects, 0);
    }

    #[test]
    fn sweep_keeps_chunks_shared_with_live_blobs() {
        let store = ChunkStore::in_memory_small();
        // Two blobs sharing a long common prefix share chunks; sweeping the
        // second must not tear chunks out from under the first.
        let mut base = random_bytes(50, 100_000);
        let live = store.put_blob(ObjectKind::Output, &base).unwrap();
        base[99_000] ^= 0xff;
        let orphan = store.put_blob(ObjectKind::Output, &base).unwrap();
        store.sweep_orphans([live.object.id]).unwrap();
        assert_eq!(
            store.get_blob(&live.object).unwrap().len(),
            100_000,
            "shared chunks survived the sweep"
        );
        assert!(store.get_blob(&orphan.object).is_err());
    }

    /// What tenant B's write of `data` leaves observable, in a store where
    /// tenant A already wrote `data` and B wrote `data[..split]`, then got
    /// the quota `quota` makes of its usage; `second` is B's write, handed
    /// A's outcome.
    fn second_tenant_write(
        data: &[u8],
        split: usize,
        quota: impl Fn(TenantUsage) -> crate::tenant::QuotaPolicy,
        second: impl Fn(&ChunkStore, &PutOutcome) -> Result<PutOutcome>,
    ) -> String {
        use crate::tenant::{QuotaPolicy, TenantId};
        let (a, b) = (TenantId(1), TenantId(2));
        let root = ChunkStore::in_memory_small();
        let accounts = root.tenant_accounts();
        accounts.register(a, QuotaPolicy::UNLIMITED);
        accounts.register(b, QuotaPolicy::UNLIMITED);
        let first = root
            .for_tenant(a)
            .put_blob(ObjectKind::Library, data)
            .unwrap();
        let view = root.for_tenant(b);
        view.put_blob(ObjectKind::Output, &data[..split]).unwrap();
        accounts.register(b, quota(accounts.usage(b)));
        let before = root.stats();
        let outcome = second(&view, &first);
        let after = root.stats();
        let delta = |k: ObjectKind| {
            let (x, y) = (before.kind(k), after.kind(k));
            [
                y.blobs_written - x.blobs_written,
                y.logical_bytes - x.logical_bytes,
                y.physical_bytes - x.physical_bytes,
                y.chunks_seen - x.chunks_seen,
                y.chunks_deduped - x.chunks_deduped,
            ]
        };
        format!(
            "{outcome:?} {:?} {:?} {:?} {:?} {} {}",
            delta(ObjectKind::Library),
            accounts.usage(b),
            accounts.reserved(b),
            accounts.shared_view(),
            accounts.open_reservations(),
            root.physical_bytes(),
        )
    }

    #[test]
    fn put_stored_passes_over_a_missing_manifest_or_chunk() {
        use crate::tenant::{QuotaPolicy, TenantId};
        let data = random_bytes(70, 20_000);
        let manifest_of = |store: &ChunkStore, object: &ObjectRef| {
            Manifest::decode(&store.backend().get(object.id).unwrap()).unwrap()
        };
        type Remove = fn(&Manifest, &ObjectRef) -> Hash256;
        let removals: [(&str, Remove); 3] = [
            ("the manifest", |_, object| object.id),
            ("the first chunk", |m, _| m.chunks[0].hash),
            ("the last chunk", |m, _| m.chunks[m.chunks.len() - 1].hash),
        ];
        for (what, victim) in removals {
            let root = ChunkStore::in_memory_small();
            let tenant = root.for_tenant(TenantId(1));
            root.tenant_accounts()
                .register(TenantId(1), QuotaPolicy::logical(100_000));
            let put = root.put_blob(ObjectKind::Library, &data).unwrap();
            let victim = victim(&manifest_of(&root, &put.object), &put.object);
            root.backend().remove(victim).unwrap().unwrap();
            let stats = root.stats();
            assert_eq!(tenant.put_stored(&put.object).unwrap(), None, "{what}");
            assert_eq!(root.stats(), stats, "{what}: nothing recorded");
            let accounts = root.tenant_accounts();
            assert_eq!(accounts.usage(TenantId(1)), TenantUsage::default());
            assert_eq!(accounts.open_reservations(), 0);
            assert_eq!(accounts.tracked_chunks(), 0);
        }
        // A blob never stored is missing too.
        let fake = ObjectRef {
            id: Hash256::of(b"nope"),
            kind: ObjectKind::Library,
            len: 4,
        };
        assert_eq!(
            ChunkStore::in_memory_small().put_stored(&fake).unwrap(),
            None
        );
    }

    /// `put_stored` reads the manifest past the blob cache: it leaves the
    /// cache as the duplicate write it stands for would.
    #[test]
    fn put_stored_leaves_the_blob_cache_alone() {
        let store = ChunkStore::in_memory_small();
        let put = store
            .put_blob(ObjectKind::Library, &random_bytes(71, 20_000))
            .unwrap();
        let cache = store.cache_stats();
        let again = store.put_stored(&put.object).unwrap().unwrap();
        assert_eq!(again.object, put.object);
        assert_eq!(store.cache_stats(), cache);
    }

    /// EIO on a read surfaces from `get_blob` as a typed I/O error — at
    /// the manifest and at a chunk — and leaves nothing in the blob cache
    /// for the key whose read failed: the next read of it goes to the file.
    #[test]
    fn a_read_error_surfaces_typed_and_caches_nothing() {
        use crate::cask::{CaskBackend, CaskOptions};
        use crate::fault::{FaultKind, FaultPlan, SimFile};
        let sim = SimFile::new();
        let be = CaskBackend::open_sim(sim.clone(), CaskOptions::synchronous()).unwrap();
        let store = ChunkStore::new(Arc::new(be), ChunkParams::SMALL, StorageCostModel::FORKBASE);
        let data = random_bytes(80, 20_000);
        let put = store.put_blob(ObjectKind::Output, &data).unwrap();
        let manifest = Manifest::decode(&store.backend().get(put.object.id).unwrap()).unwrap();
        let cache = store.cache.as_ref().unwrap();
        // Read 1 is the manifest's, read 2 its first chunk's.
        for (at, key) in [(1, put.object.id), (2, manifest.chunks[0].hash)] {
            sim.arm(FaultPlan::new(FaultKind::ReadError, at, 0));
            assert!(matches!(
                store.get_blob(&put.object),
                Err(StorageError::Io(_))
            ));
            assert!(cache.get(&key).is_none(), "read {at} left its key cached");
        }
        assert_eq!(store.get_blob(&put.object).unwrap().as_ref(), &data[..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_store_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let store = ChunkStore::in_memory_small();
            let out = store.put_blob(ObjectKind::Output, &data).unwrap();
            let blob = store.get_blob(&out.object).unwrap();
            prop_assert_eq!(blob.as_ref(), &data[..]);
        }

        /// Tenant B's `put_stored` of the blob tenant A wrote equals B's
        /// `put_blob` of the same bytes: outcome (cost included), stats
        /// delta, B's usage and reservations, the shared view, and a quota
        /// refusal (same error, nothing charged, no reservation left).
        #[test]
        fn prop_put_stored_is_a_duplicate_put_blob(
            data in proptest::collection::vec(any::<u8>(), 1..12_000),
            split in 0usize..12_000,
            limit in 0u8..3,
            cap in 0u64..24_000
        ) {
            use crate::tenant::QuotaPolicy;
            let split = split % data.len();
            // Logical headroom below and above the blob's length; physical
            // headroom of none or one byte, which a duplicate needs none of.
            let quota = |used: TenantUsage| match limit {
                0 => QuotaPolicy::UNLIMITED,
                1 => QuotaPolicy::logical(used.logical_bytes + cap),
                _ => QuotaPolicy { max_physical_bytes: Some(used.physical_bytes + cap % 2), ..QuotaPolicy::UNLIMITED },
            };
            let stored = second_tenant_write(&data, split, quota, |b, first| {
                b.put_stored(&first.object).map(|put| put.expect("stored"))
            });
            let written = second_tenant_write(&data, split, quota, |b, _| {
                b.put_blob(ObjectKind::Library, &data)
            });
            prop_assert_eq!(stored, written);
        }

        #[test]
        fn prop_physical_never_exceeds_logical_plus_manifest(
            data in proptest::collection::vec(any::<u8>(), 1..4096)
        ) {
            let store = ChunkStore::in_memory_small();
            let out = store.put_blob(ObjectKind::Output, &data).unwrap();
            // Manifest adds 12 bytes header + 36 per chunk.
            let max_manifest = 12 + 36 * (data.len() / 64 + 2) as u64;
            prop_assert!(out.physical_bytes <= data.len() as u64 + max_manifest);
        }
    }
}
