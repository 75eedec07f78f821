//! The reusable-output history — the one checkpoint store behind "Pruning
//! using Reusable output" (PR, §VI-B) and linear-versioning reuse
//! (challenge C1: skipping unchanged pre-processing steps).
//!
//! Every component execution is checkpointed under the key *(component
//! version, input artifact ids)*. During a merge, a search-tree node whose
//! key hits the history is a "green" node (Fig. 4): its output is reused and
//! it never re-executes. The same checkpoint is also filed under the node's
//! static provenance fingerprint ([`crate::provenance`]), which is what a
//! frontier cut looks up.
//!
//! The **pairing invariant**: every fingerprint's output is also filed
//! under its `CacheKey`, so a fingerprint hit is what a full re-evaluation's
//! lookup would find. `HistoryIndex::publish` keeps it — the checkpoint
//! first, then the fingerprint — and is the accounting replay's one write
//! (`replay::replay_run`): a checkpoint enters the history only
//! once its blob has been charged. No public method records a fingerprint.
//!
//! Both maps are sharded so the parallel candidate evaluators' concurrent
//! lookups do not serialize on one lock, and both only grow.

use crate::artifact::Artifact;
use crate::artifact_cache::ArtifactCache;
use crate::executor::{CacheKey, CachedOutput};
use crate::parallel::ShardedMap;
use crate::replay::CacheSnapshot;
use mlcask_storage::hash::Hash256;
use std::collections::HashMap;
use std::sync::Arc;

/// Shared, cloneable history of checkpointed component outputs, by
/// `CacheKey` and by provenance fingerprint, with the decoded artifacts of
/// the checkpoints it has seen. Cloning is shallow (`Arc`).
///
/// Engines read the live index: what an evaluation reuses is what its
/// phase 1 found here (see [`crate::replay`]), never a copy taken
/// beforehand, so checkpoints other writers land mid-evaluation are reused
/// as found.
#[derive(Clone, Default)]
pub struct HistoryIndex {
    checkpoints: Arc<ShardedMap<CacheKey, CachedOutput>>,
    fingerprints: Arc<ShardedMap<Hash256, CachedOutput>>,
    /// Checkpointed artifacts already in memory, by blob id, so reusing a
    /// checkpoint does not mean fetching and parsing it again. Content
    /// addressed, hence shared with [`HistoryIndex::decoded_only`] views.
    decoded: Arc<ArtifactCache>,
}

impl HistoryIndex {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty history whose decoded-artifact cache holds at most `budget`
    /// encoded bytes (0 keeps none).
    #[cfg(test)]
    pub(crate) fn with_decoded_budget(budget: u64) -> Self {
        HistoryIndex {
            decoded: Arc::new(ArtifactCache::with_budget(budget)),
            ..HistoryIndex::default()
        }
    }

    /// A view holding none of this history's checkpoints or fingerprints,
    /// only its decoded artifacts: what a policy without reuse traces
    /// against, so that what a candidate is charged is from scratch while
    /// artifacts already in memory are not parsed again.
    pub(crate) fn decoded_only(&self) -> HistoryIndex {
        HistoryIndex {
            decoded: Arc::clone(&self.decoded),
            ..HistoryIndex::default()
        }
    }

    /// The checkpoint filed under `key`, if any.
    pub fn get(&self, key: &CacheKey) -> Option<CachedOutput> {
        self.checkpoints.get(key)
    }

    /// The checkpoint filed under provenance fingerprint `fp`, if any.
    pub(crate) fn by_fingerprint(&self, fp: &Hash256) -> Option<CachedOutput> {
        self.fingerprints.get(fp)
    }

    /// Point-in-time copy of every checkpoint.
    pub fn snapshot(&self) -> CacheSnapshot {
        self.checkpoints.to_hashmap()
    }

    /// Point-in-time copy of every fingerprinted checkpoint.
    pub fn fingerprints(&self) -> HashMap<Hash256, CachedOutput> {
        self.fingerprints.to_hashmap()
    }

    /// Records a checkpoint under `key` alone, with no fingerprint: a
    /// history that frontier cuts never hit.
    pub fn insert(&self, key: CacheKey, cached: CachedOutput) {
        self.checkpoints.insert(key, cached);
    }

    /// Records a checkpoint the replay charged under `key`, then under its
    /// fingerprint `fp` — the pairing invariant's one writer.
    pub(crate) fn publish(&self, key: CacheKey, fp: Hash256, cached: CachedOutput) {
        self.checkpoints.insert(key, cached.clone());
        self.fingerprints.insert(fp, cached);
    }

    /// The artifact stored in checkpoint blob `blob`, already decoded, if
    /// held. The executor asks before fetching and parsing the blob.
    pub(crate) fn decoded(&self, blob: &Hash256) -> Option<Arc<Artifact>> {
        self.decoded.get(blob)
    }

    /// Offers the decoded form of checkpoint blob `blob`: the executor
    /// calls this with every artifact it produces or parses.
    pub(crate) fn keep_decoded(&self, blob: Hash256, artifact: &Arc<Artifact>) {
        self.decoded.insert(blob, artifact);
    }

    /// The decoded-artifact cache's `[hits, misses, evictions]` so far.
    #[cfg(test)]
    pub(crate) fn decoded_counts(&self) -> [u64; 3] {
        self.decoded.counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{ArtifactData, ModelArtifact};
    use crate::component::ComponentKey;
    use crate::schema::{Schema, SchemaId};
    use crate::semver::SemVer;
    use mlcask_ml::metrics::{MetricKind, Score};
    use mlcask_storage::object::{ObjectKind, ObjectRef};

    fn key(n: u8) -> CacheKey {
        CacheKey {
            component: ComponentKey::new("c", SemVer::master(0, n as u32)),
            inputs: vec![Hash256::of(&[n])],
        }
    }

    fn output(n: u8) -> CachedOutput {
        CachedOutput {
            object: ObjectRef {
                id: Hash256::of(&[n, n]),
                kind: ObjectKind::Output,
                len: 1,
            },
            artifact_id: Hash256::of(&[n, n, n]),
            schema: SchemaId(Hash256::of(&[9])),
            score: Some(Score::new(MetricKind::Accuracy, 0.5)),
        }
    }

    fn fp(n: u8) -> Hash256 {
        Hash256::of(&[n, 0xf])
    }

    #[test]
    fn insert_and_lookup() {
        let h = HistoryIndex::new();
        assert!(h.snapshot().is_empty());
        h.insert(key(1), output(1));
        assert_eq!(h.snapshot().len(), 1);
        assert_eq!(h.get(&key(1)).unwrap().artifact_id, Hash256::of(&[1, 1, 1]));
        assert!(h.get(&key(2)).is_none());
    }

    #[test]
    fn shallow_clone_shares_state() {
        let h = HistoryIndex::new();
        let h2 = h.clone();
        h.insert(key(1), output(1));
        h.publish(key(2), fp(2), output(2));
        assert!(h2.get(&key(1)).is_some(), "shallow clones share the map");
        assert!(h2.by_fingerprint(&fp(2)).is_some(), "and the fingerprints");
    }

    #[test]
    fn key_distinguishes_inputs() {
        let h = HistoryIndex::new();
        let base = key(1);
        let mut other_inputs = base.clone();
        other_inputs.inputs = vec![Hash256::of(b"different")];
        h.insert(base.clone(), output(1));
        assert!(
            h.get(&other_inputs).is_none(),
            "same component, different input"
        );
    }

    #[test]
    fn snapshot_captures_all_shards() {
        let h = HistoryIndex::new();
        for n in 0..50u8 {
            h.insert(key(n), output(n));
        }
        let snap = h.snapshot();
        assert_eq!(snap.len(), 50);
        for n in 0..50u8 {
            assert_eq!(snap[&key(n)], output(n));
        }
        // Snapshot is a copy: later inserts don't appear.
        h.insert(key(51), output(51));
        assert_eq!(snap.len(), 50);
    }

    #[test]
    fn concurrent_inserts_and_lookups() {
        let h = HistoryIndex::new();
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let h = h.clone();
                s.spawn(move || {
                    for n in 0..50u8 {
                        h.insert(key(t.wrapping_mul(50).wrapping_add(n)), output(n));
                        let _ = h.get(&key(n));
                    }
                });
            }
        });
        assert_eq!(h.snapshot().len(), 200);
    }

    #[test]
    fn publish_makes_both_lookups_hit() {
        let h = HistoryIndex::new();
        h.publish(key(1), fp(1), output(1));
        assert_eq!(h.get(&key(1)), Some(output(1)));
        assert_eq!(h.by_fingerprint(&fp(1)), Some(output(1)));
        assert_eq!((h.snapshot().len(), h.fingerprints().len()), (1, 1));
    }

    #[test]
    fn insert_records_no_fingerprint() {
        let h = HistoryIndex::new();
        h.insert(key(1), output(1));
        assert!(h.fingerprints().is_empty());
        assert!(h.by_fingerprint(&fp(1)).is_none());
    }

    #[test]
    fn a_decoded_only_view_shares_decoded_artifacts_and_neither_index() {
        let h = HistoryIndex::new();
        h.publish(key(1), fp(1), output(1));
        let family = "m".to_string();
        let schema = Schema::Model {
            family: family.clone(),
        }
        .id();
        let artifact = Arc::new(Artifact::new(
            ArtifactData::Model(ModelArtifact {
                family,
                blob: vec![1; 64],
                score: Score::new(MetricKind::Accuracy, 0.5),
            }),
            schema,
        ));
        let blob = output(1).object.id;
        h.keep_decoded(blob, &artifact);
        let view = h.decoded_only();
        assert!(Arc::ptr_eq(&view.decoded(&blob).unwrap(), &artifact));
        assert!(view.snapshot().is_empty() && view.fingerprints().is_empty());
        assert!(view.get(&key(1)).is_none() && view.by_fingerprint(&fp(1)).is_none());
        // Nor does the view write through to the history's indexes.
        view.publish(key(2), fp(2), output(2));
        assert!(h.get(&key(2)).is_none() && h.by_fingerprint(&fp(2)).is_none());
    }
}
