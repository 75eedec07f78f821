//! Sharded, byte-budgeted blob cache for the hot read path.
//!
//! Every durable backend pays a disk read (plus a content-hash
//! verification) on [`get`](crate::backend::StorageBackend::get). The
//! workloads the paper optimizes — merge search and incremental
//! re-evaluation — *re-read* the same component outputs over and over, so
//! [`ChunkStore`](crate::store::ChunkStore) layers a [`BlobCache`] in front
//! of whatever backend it wraps.
//!
//! Correctness comes for free from content addressing: an entry is keyed by
//! the [`Hash256`] of its bytes, so a hit can never return different bytes
//! than the backend would — the cache can only change *where* the bytes
//! come from, never *what* they are. The one observable hazard is presence:
//! after [`ChunkStore::sweep_orphans`](crate::store::ChunkStore::sweep_orphans)
//! removes a key, a stale entry would serve a blob the backend no longer
//! holds, so the sweep invalidates each removed key (`BlobCache::invalidate`).
//!
//! # Replacement policy
//!
//! CLOCK (second-chance): each shard keeps its entries on a circular list
//! with a referenced bit set on every hit. Eviction sweeps the clock hand,
//! clearing bits until it finds an unreferenced victim — LRU-approximating,
//! O(1) amortized, and with none of LRU's list-splice work on the hit path
//! (a hit is one hash-map probe and one store to a `bool`). The ring itself,
//! [`ClockRing`], is generic over what it holds: the pipeline crate's
//! decoded-artifact cache evicts with the same one.
//!
//! # Sharding
//!
//! The byte budget is split evenly over `shards` independent CLOCK rings,
//! selected by the first key byte — the same prefix used for cask segment
//! sharding — so concurrent readers on different shards never contend on
//! one lock.
//!
//! # Telemetry
//!
//! Hit/miss/insert/evict counters are surfaced as a [`CacheStats`]
//! snapshot. They are a read-only side channel: nothing in the replay
//! accounting protocol observes them, so reports, ledgers, and
//! [`StorageStats`](crate::stats::StorageStats) stay byte-identical with
//! the cache on or off, at any worker count.

use crate::hash::Hash256;
use crate::stats::CacheStats;
use bytes::Bytes;
use mlcask_obs::metrics::instance_label;
use mlcask_obs::{Counter, Gauge, MetricsRegistry};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Construction options for [`BlobCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheOptions {
    /// Total byte budget across all shards. Entries larger than one shard's
    /// share (`capacity_bytes / shards`) are never cached.
    pub capacity_bytes: u64,
    /// Number of independently locked CLOCK shards.
    pub shards: usize,
}

pub use mlcask_obs::config::DEFAULT_CACHE_BYTES;

impl Default for CacheOptions {
    fn default() -> Self {
        CacheOptions {
            capacity_bytes: DEFAULT_CACHE_BYTES,
            shards: 8,
        }
    }
}

impl CacheOptions {
    /// Replaces the byte budget.
    pub fn with_capacity(mut self, capacity_bytes: u64) -> Self {
        self.capacity_bytes = capacity_bytes;
        self
    }
}

/// One entry on a clock ring.
struct Entry<V> {
    key: Hash256,
    value: V,
    /// Bytes this entry counts against the ring's budget.
    weight: u64,
    /// CLOCK reference bit: set on hit, cleared by a passing hand.
    referenced: bool,
}

/// What one [`ClockRing::insert`] pushed out to make room.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Evicted {
    /// Entries evicted.
    pub entries: u64,
    /// Their combined weight.
    pub(crate) bytes: u64,
}

/// One byte-budgeted CLOCK ring over content-addressed values: entries in
/// insertion order, a hand, and a weight total. Unsynchronised — the owner
/// wraps it in its own lock ([`BlobCache`] keeps one per shard).
pub struct ClockRing<V> {
    /// key → index into `entries`.
    map: std::collections::HashMap<Hash256, usize>,
    entries: Vec<Entry<V>>,
    hand: usize,
    bytes: u64,
}

impl<V> Default for ClockRing<V> {
    fn default() -> Self {
        ClockRing {
            map: std::collections::HashMap::new(),
            entries: Vec::new(),
            hand: 0,
            bytes: 0,
        }
    }
}

impl<V: Clone> ClockRing<V> {
    /// Looks `key` up, setting its reference bit on a hit.
    pub fn get(&mut self, key: &Hash256) -> Option<V> {
        let entry = &mut self.entries[*self.map.get(key)?];
        entry.referenced = true;
        Some(entry.value.clone())
    }

    /// Inserts `key → value` at `weight` bytes, sweeping the hand (second
    /// chance: a referenced entry loses its bit, an unreferenced one is
    /// evicted) until the ring fits `capacity`. `None` — nothing changed —
    /// for a key already present or a weight above `capacity`.
    pub fn insert(
        &mut self,
        key: Hash256,
        value: V,
        weight: u64,
        capacity: u64,
    ) -> Option<Evicted> {
        if weight > capacity || self.map.contains_key(&key) {
            return None;
        }
        let mut evicted = Evicted::default();
        while self.bytes + weight > capacity && !self.entries.is_empty() {
            let hand = self.hand;
            if self.entries[hand].referenced {
                self.entries[hand].referenced = false;
                self.hand = (hand + 1) % self.entries.len();
            } else {
                evicted.bytes += self.remove_at(hand);
                evicted.entries += 1;
            }
        }
        self.map.insert(key, self.entries.len());
        self.entries.push(Entry {
            key,
            value,
            weight,
            referenced: false,
        });
        self.bytes += weight;
        Some(evicted)
    }

    /// Drops `key` if present, returning its weight.
    pub(crate) fn remove(&mut self, key: &Hash256) -> Option<u64> {
        let idx = *self.map.get(key)?;
        Some(self.remove_at(idx))
    }

    /// Combined weight of the resident entries.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Removes the entry at `idx` (swap-remove, fixing the displaced
    /// entry's map slot and the hand), returning its weight.
    fn remove_at(&mut self, idx: usize) -> u64 {
        let entry = self.entries.swap_remove(idx);
        self.map.remove(&entry.key);
        self.bytes -= entry.weight;
        if idx < self.entries.len() {
            self.map.insert(self.entries[idx].key, idx);
        }
        if self.hand >= self.entries.len() {
            self.hand = 0;
        }
        entry.weight
    }
}

/// Sharded CLOCK blob cache. See the [module docs](self) for the policy and
/// the determinism argument.
pub struct BlobCache {
    shards: Vec<Mutex<ClockRing<Bytes>>>,
    /// Per-shard byte budget.
    shard_capacity: u64,
    capacity_bytes: u64,
    /// Registry-backed counters (`mlcask_blob_cache_*{instance=...}`): each
    /// cache instance owns distinct series so two caches in one process
    /// (e.g. cache-on vs cache-off A/B in the read-path bench) don't mix.
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    invalidations: Counter,
    /// Kept as a raw atomic (needs `fetch_sub`, which monotone counters
    /// forbid); mirrored into `resident_gauge` on mutation.
    resident_bytes: AtomicU64,
    resident_gauge: Gauge,
    /// Cumulative hit rate, refreshed on every [`BlobCache::stats`] call so
    /// a scrape that snapshots stats first sees a current value.
    hit_rate_gauge: Gauge,
}

impl BlobCache {
    /// Builds a cache with the given budget and shard count (shards are
    /// clamped to at least 1).
    pub fn new(opts: CacheOptions) -> Self {
        let n = opts.shards.max(1);
        let reg = MetricsRegistry::global();
        let instance = instance_label("blobcache");
        let ilabel = [("instance", instance.as_str())];
        let counter = |name: &str, help: &str| reg.counter(name, help, &ilabel);
        reg.gauge(
            "mlcask_blob_cache_capacity_bytes",
            "Configured blob cache byte budget",
            &ilabel,
        )
        .set(opts.capacity_bytes as f64);
        BlobCache {
            shards: (0..n).map(|_| Mutex::new(ClockRing::default())).collect(),
            shard_capacity: opts.capacity_bytes / n as u64,
            capacity_bytes: opts.capacity_bytes,
            hits: counter("mlcask_blob_cache_hits_total", "Blob cache hits"),
            misses: counter("mlcask_blob_cache_misses_total", "Blob cache misses"),
            insertions: counter(
                "mlcask_blob_cache_insertions_total",
                "Blob cache insertions",
            ),
            evictions: counter(
                "mlcask_blob_cache_evictions_total",
                "Blob cache CLOCK evictions",
            ),
            invalidations: counter(
                "mlcask_blob_cache_invalidations_total",
                "Blob cache invalidations after backend removes",
            ),
            resident_bytes: AtomicU64::new(0),
            resident_gauge: reg.gauge(
                "mlcask_blob_cache_resident_bytes",
                "Bytes currently resident in the blob cache",
                &ilabel,
            ),
            hit_rate_gauge: reg.gauge(
                "mlcask_blob_cache_hit_rate",
                "Cumulative blob cache hit rate (hits / lookups)",
                &ilabel,
            ),
        }
    }

    fn ring(&self, key: &Hash256) -> &Mutex<ClockRing<Bytes>> {
        &self.shards[key.0[0] as usize % self.shards.len()]
    }

    /// Looks `key` up, setting its reference bit on a hit.
    pub fn get(&self, key: &Hash256) -> Option<Bytes> {
        let found = self.ring(key).lock().get(key);
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Inserts `key → data`, evicting via the clock hand until it fits.
    /// Oversized blobs (bigger than one shard's budget) and duplicate keys
    /// are no-ops.
    pub fn insert(&self, key: Hash256, data: Bytes) {
        let len = data.len() as u64;
        let Some(evicted) = self
            .ring(&key)
            .lock()
            .insert(key, data, len, self.shard_capacity)
        else {
            return;
        };
        self.insertions.inc();
        self.evictions.add(evicted.entries);
        self.resident_bytes.fetch_add(len, Ordering::Relaxed);
        let resident = self
            .resident_bytes
            .fetch_sub(evicted.bytes, Ordering::Relaxed)
            - evicted.bytes;
        self.resident_gauge.set(resident as f64);
    }

    /// Drops `key` if cached — called after a backend `remove` so a stale
    /// entry can never resurrect a deleted blob.
    pub(crate) fn invalidate(&self, key: &Hash256) {
        let removed = self.ring(key).lock().remove(key);
        if let Some(len) = removed {
            self.invalidations.inc();
            let resident = self.resident_bytes.fetch_sub(len, Ordering::Relaxed) - len;
            self.resident_gauge.set(resident as f64);
        }
    }

    /// Point-in-time telemetry snapshot. Also refreshes the registry's
    /// hit-rate gauge, so callers that snapshot stats right before a
    /// `metrics.scrape` export a current rate.
    pub(crate) fn stats(&self) -> CacheStats {
        let stats = CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed),
            capacity_bytes: self.capacity_bytes,
        };
        self.hit_rate_gauge.set(stats.hit_rate());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u8) -> Hash256 {
        Hash256::of(&[i])
    }

    fn blob(i: u8, len: usize) -> Bytes {
        Bytes::from(vec![i; len])
    }

    #[test]
    fn hit_miss_and_insert() {
        let cache = BlobCache::new(CacheOptions {
            capacity_bytes: 1024,
            shards: 1,
        });
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), blob(1, 100));
        assert_eq!(cache.get(&key(1)).unwrap().as_ref(), &[1u8; 100][..]);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.resident_bytes, 100);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_respects_budget_and_second_chance() {
        let cache = BlobCache::new(CacheOptions {
            capacity_bytes: 250,
            shards: 1,
        });
        cache.insert(key(1), blob(1, 100));
        cache.insert(key(2), blob(2, 100));
        // Touch key 1 so its reference bit protects it from the first sweep.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), blob(3, 100));
        let s = cache.stats();
        assert!(s.evictions >= 1, "budget forced an eviction");
        assert!(s.resident_bytes <= 250);
        assert!(
            cache.get(&key(1)).is_some(),
            "referenced entry got its second chance"
        );
        assert!(cache.get(&key(3)).is_some(), "new entry resident");
    }

    #[test]
    fn oversized_blobs_are_never_cached() {
        let cache = BlobCache::new(CacheOptions {
            capacity_bytes: 64,
            shards: 2,
        });
        cache.insert(key(1), blob(1, 100));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn invalidate_drops_entry() {
        let cache = BlobCache::new(CacheOptions::default());
        cache.insert(key(7), blob(7, 64));
        assert!(cache.get(&key(7)).is_some());
        cache.invalidate(&key(7));
        assert!(cache.get(&key(7)).is_none());
        let s = cache.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.resident_bytes, 0);
        // Idempotent.
        cache.invalidate(&key(7));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn concurrent_mixed_use_stays_consistent() {
        use std::sync::Arc;
        let cache = Arc::new(BlobCache::new(CacheOptions {
            capacity_bytes: 8 * 1024,
            shards: 4,
        }));
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..200u8 {
                        // Data must be a function of the key — the cache's
                        // contract is content addressing.
                        let kb = t.wrapping_mul(31).wrapping_add(i);
                        let k = key(kb);
                        cache.insert(k, blob(kb, 64));
                        if let Some(b) = cache.get(&k) {
                            assert_eq!(b.as_ref(), &[kb; 64][..]);
                        }
                        if i % 5 == 0 {
                            cache.invalidate(&k);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert!(s.resident_bytes <= s.capacity_bytes);
    }
}
