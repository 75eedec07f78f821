//! Decoded-checkpoint cache: artifacts already in memory, by the id of the
//! blob that holds their encoding.
//!
//! Reloading a checkpoint means fetching its blob and parsing it, and the
//! parse costs more than most components take to run. A merge search reloads
//! the same few checkpoints once per candidate, usually minutes after this
//! very process produced them. The executor therefore offers every artifact
//! it produces or decodes to the [`HistoryIndex`](crate::history::HistoryIndex)
//! it runs against, and asks it before going to the store; each history
//! owns one of these, shared with its `decoded_only` views.
//!
//! Like the blob cache underneath ([`mlcask_storage::cache`]) it is keyed by
//! content address, so a hit can only change where an artifact comes from,
//! never what it is — and the accounting replay charges a materialising
//! read from the checkpoint's `ObjectRef`, whether or not bytes moved. It is
//! consulted only through a checkpoint that names the blob, and every
//! checkpoint is a GC root, so an entry cannot outlive its blob in any way a
//! run could observe.
//!
//! Entries are weighed by encoded length against a fixed budget and evicted
//! by the same CLOCK ring the blob cache uses; one lock, because a lookup
//! holds it for a map probe and an `Arc` clone.

use crate::artifact::Artifact;
use mlcask_obs::metrics::instance_label;
use mlcask_obs::{Counter, Gauge, MetricsRegistry};
use mlcask_storage::cache::ClockRing;
use mlcask_storage::hash::Hash256;
use parking_lot::Mutex;
use std::sync::Arc;

/// Encoded bytes of checkpoints kept decoded. Encoded length is the size
/// every layer already knows (it is `ObjectRef::len`); the heap footprint is
/// of the same order — smaller for float matrices, a few times larger for
/// token lists.
const BUDGET_BYTES: u64 = 64 << 20;

/// See the [module docs](self).
pub(crate) struct ArtifactCache {
    ring: Mutex<ClockRing<Arc<Artifact>>>,
    budget: u64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    resident: Gauge,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache::with_budget(BUDGET_BYTES)
    }
}

impl ArtifactCache {
    /// A cache holding at most `budget` encoded bytes (tests force evictions
    /// with a tiny one; everything else takes the default).
    pub(crate) fn with_budget(budget: u64) -> Self {
        let reg = MetricsRegistry::global();
        let instance = instance_label("artifactcache");
        let ilabel = [("instance", instance.as_str())];
        let counter = |name: &str, help: &str| reg.counter(name, help, &ilabel);
        ArtifactCache {
            ring: Mutex::new(ClockRing::default()),
            budget,
            hits: counter(
                "mlcask_artifact_cache_hits_total",
                "Checkpoints materialised without fetching or parsing their blob",
            ),
            misses: counter(
                "mlcask_artifact_cache_misses_total",
                "Checkpoints that had to be fetched and parsed",
            ),
            evictions: counter(
                "mlcask_artifact_cache_evictions_total",
                "Decoded checkpoints evicted by the CLOCK hand",
            ),
            resident: reg.gauge(
                "mlcask_artifact_cache_resident_bytes",
                "Encoded bytes of the checkpoints currently held decoded",
                &ilabel,
            ),
        }
    }

    /// The decoded artifact stored in blob `blob`, if held.
    pub(crate) fn get(&self, blob: &Hash256) -> Option<Arc<Artifact>> {
        let found = self.ring.lock().get(blob);
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// `[hits, misses, evictions]` so far.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> [u64; 3] {
        [self.hits.get(), self.misses.get(), self.evictions.get()]
    }

    /// Offers the decoded form of blob `blob`.
    pub(crate) fn insert(&self, blob: Hash256, artifact: &Arc<Artifact>) {
        let weight = artifact.byte_len();
        let mut ring = self.ring.lock();
        let inserted = ring.insert(blob, Arc::clone(artifact), weight, self.budget);
        if let Some(evicted) = inserted {
            self.evictions.add(evicted.entries);
            self.resident.set(ring.bytes() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactData, ModelArtifact};
    use crate::schema::Schema;
    use mlcask_ml::metrics::{MetricKind, Score};

    fn model(n: u8) -> Arc<Artifact> {
        let family = "m".to_string();
        let schema = Schema::Model {
            family: family.clone(),
        }
        .id();
        Arc::new(Artifact::new(
            ArtifactData::Model(ModelArtifact {
                family,
                blob: vec![n; 64],
                score: Score::new(MetricKind::Accuracy, 0.5),
            }),
            schema,
        ))
    }

    #[test]
    fn holds_within_budget_and_counts() {
        let (a, b, c) = (model(1), model(2), model(3));
        let cache = ArtifactCache::with_budget(a.byte_len() * 2);
        let key = |n: u8| Hash256::of(&[n]);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), &a);
        cache.insert(key(2), &b);
        assert!(Arc::ptr_eq(&cache.get(&key(1)).unwrap(), &a));
        // A third entry does not fit: the unreferenced one goes.
        cache.insert(key(3), &c);
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(1)).is_some() && cache.get(&key(3)).is_some());
        assert_eq!(
            (cache.hits.get(), cache.misses.get(), cache.evictions.get()),
            (3, 2, 1)
        );
        assert_eq!(cache.resident.get(), (a.byte_len() * 2) as f64);
        // Larger than the whole budget: never held.
        let tiny = ArtifactCache::with_budget(8);
        tiny.insert(key(1), &a);
        assert!(tiny.get(&key(1)).is_none());
    }
}
