//! The reusable-output history index — the data behind "Pruning using
//! Reusable output" (PR, §VI-B).
//!
//! Every component execution is checkpointed under the key *(component
//! version, input artifact ids)*. During a merge, a search-tree node whose
//! key hits this index is a "green" node (Fig. 4): its output is reused and
//! it never re-executes. The index also powers linear-versioning reuse
//! (challenge C1: skipping unchanged pre-processing steps).
//!
//! The index is sharded (like `MemoryCache`) so the parallel candidate
//! evaluators' concurrent lookups do not serialize on one lock. Its one
//! writer is the accounting replay's publication
//! (`mlcask_pipeline::replay::replay_run`): a checkpoint enters the history
//! only once its blob has been charged.

use mlcask_pipeline::artifact::Artifact;
use mlcask_pipeline::artifact_cache::ArtifactCache;
use mlcask_pipeline::executor::{CacheKey, CachedOutput, OutputCache};
use mlcask_pipeline::parallel::ShardedMap;
use mlcask_pipeline::provenance::ProvenanceIndex;
use mlcask_pipeline::replay::CacheSnapshot;
use mlcask_storage::hash::Hash256;
use std::sync::Arc;

/// Shared, cloneable history of checkpointed component outputs. Cloning is
/// shallow (`Arc`).
///
/// Alongside the `CacheKey`-keyed checkpoints, the history carries a
/// [`ProvenanceIndex`] keyed by static sub-DAG fingerprints. The pairing
/// invariant: every fingerprint's output is also filed under its
/// `CacheKey` here, so a provenance hit is what a full re-evaluation's
/// lookup would find.
///
/// Engines read the live index: what an evaluation reuses is what its
/// phase 1 found here (see `mlcask_pipeline::replay`), never a copy taken
/// beforehand, so checkpoints other writers land mid-evaluation are reused
/// as found.
#[derive(Clone, Default)]
pub struct HistoryIndex {
    map: Arc<ShardedMap<CacheKey, CachedOutput>>,
    provenance: Arc<ProvenanceIndex>,
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

    /// Number of checkpoints recorded.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no checkpoints exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A view holding none of this history's checkpoints, only its decoded
    /// artifacts: what the from-scratch merge ablations trace against, so
    /// that what a candidate is charged is from scratch while artifacts
    /// already in memory are not parsed again.
    pub fn decoded_only(&self) -> HistoryIndex {
        HistoryIndex {
            decoded: Arc::clone(&self.decoded),
            ..HistoryIndex::default()
        }
    }

    /// The paired provenance index (static fingerprint → cached output).
    pub fn provenance(&self) -> &ProvenanceIndex {
        &self.provenance
    }

    /// Point-in-time copy of every checkpoint.
    pub fn snapshot(&self) -> CacheSnapshot {
        self.map.to_hashmap()
    }

    /// Direct lookup (non-trait convenience).
    pub fn get(&self, key: &CacheKey) -> Option<CachedOutput> {
        self.map.get(key)
    }

    /// True if the key has a checkpoint.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.map.contains(key)
    }
}

impl OutputCache for HistoryIndex {
    fn lookup(&self, key: &CacheKey) -> Option<CachedOutput> {
        self.get(key)
    }

    fn insert(&self, key: CacheKey, value: CachedOutput) {
        self.map.insert(key, value);
    }

    fn decoded(&self, blob: &Hash256) -> Option<Arc<Artifact>> {
        self.decoded.get(blob)
    }

    fn keep_decoded(&self, blob: Hash256, artifact: &Arc<Artifact>) {
        self.decoded.insert(blob, artifact);
    }

    fn paired_provenance(&self) -> Option<&ProvenanceIndex> {
        Some(&self.provenance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcask_ml::metrics::{MetricKind, Score};
    use mlcask_pipeline::component::ComponentKey;
    use mlcask_pipeline::schema::SchemaId;
    use mlcask_pipeline::semver::SemVer;
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

    #[test]
    fn insert_and_lookup() {
        let h = HistoryIndex::new();
        assert!(h.is_empty());
        h.insert(key(1), output(1));
        assert_eq!(h.len(), 1);
        assert!(h.contains(&key(1)));
        assert_eq!(
            h.lookup(&key(1)).unwrap().artifact_id,
            Hash256::of(&[1, 1, 1])
        );
        assert!(h.lookup(&key(2)).is_none());
    }

    #[test]
    fn shallow_clone_shares_state() {
        let h = HistoryIndex::new();
        let h2 = h.clone();
        h.insert(key(1), output(1));
        assert!(h2.contains(&key(1)), "shallow clones share the map");
    }

    #[test]
    fn key_distinguishes_inputs() {
        let h = HistoryIndex::new();
        let base = key(1);
        let mut other_inputs = base.clone();
        other_inputs.inputs = vec![Hash256::of(b"different")];
        h.insert(base.clone(), output(1));
        assert!(
            !h.contains(&other_inputs),
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
        assert_eq!(h.len(), 200);
    }
}
