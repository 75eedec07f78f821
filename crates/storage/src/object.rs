//! Object model of the store: blobs, manifests, and typed references.
//!
//! Everything persisted is immutable and content-addressed. Large byte
//! payloads are stored as a *manifest* (ordered chunk list) whose chunks are
//! individually deduplicated; small metadata records are stored inline.

use crate::chunk::ChunkRef;
use crate::hash::Hash256;
use serde::{Deserialize, Serialize};

/// The category an object belongs to, used for storage accounting.
///
/// The paper's repositories (dataset / library / pipeline) plus the
/// intermediate outputs produced by pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ObjectKind {
    /// Dataset payloads (the dataset repository).
    Dataset,
    /// Library executables + metafiles (the library repository).
    Library,
    /// Pipeline metafiles and commit records (the pipeline repository).
    Pipeline,
    /// Materialised intermediate/final outputs of components.
    Output,
    /// Trained model checkpoints.
    Model,
}

impl ObjectKind {
    /// All kinds, for iterating accounting tables.
    pub(crate) const ALL: [ObjectKind; 5] = [
        ObjectKind::Dataset,
        ObjectKind::Library,
        ObjectKind::Pipeline,
        ObjectKind::Output,
        ObjectKind::Model,
    ];

    /// Dense index of this kind within [`ObjectKind::ALL`] (used by the
    /// lock-free per-kind statistics counters).
    pub(crate) fn index(&self) -> usize {
        match self {
            ObjectKind::Dataset => 0,
            ObjectKind::Library => 1,
            ObjectKind::Pipeline => 2,
            ObjectKind::Output => 3,
            ObjectKind::Model => 4,
        }
    }
}

/// Manifest describing a chunked blob: the ordered chunk list plus totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Logical (un-deduplicated) blob length.
    pub(crate) len: u64,
    /// Chunks in order.
    pub chunks: Vec<ManifestEntry>,
}

/// One entry of a [`Manifest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Chunk content address.
    pub hash: Hash256,
    /// Chunk length in bytes.
    pub(crate) len: u32,
}

impl Manifest {
    /// Builds a manifest from chunker output.
    pub(crate) fn from_chunks(chunks: &[ChunkRef]) -> Manifest {
        let len = chunks.iter().map(|c| c.len as u64).sum();
        Manifest {
            len,
            chunks: chunks
                .iter()
                .map(|c| ManifestEntry {
                    hash: c.hash,
                    len: c.len,
                })
                .collect(),
        }
    }

    /// Canonical byte encoding (length-prefixed), used both for persistence
    /// and for computing the manifest's own content address.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.chunks.len() * 36);
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.chunks.len() as u32).to_le_bytes());
        for c in &self.chunks {
            out.extend_from_slice(&c.hash.0);
            out.extend_from_slice(&c.len.to_le_bytes());
        }
        out
    }

    /// Inverse of `Manifest::encode`.
    pub fn decode(bytes: &[u8]) -> Option<Manifest> {
        if bytes.len() < 12 {
            return None;
        }
        let len = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let n = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
        if bytes.len() != 12 + n * 36 {
            return None;
        }
        let mut chunks = Vec::with_capacity(n);
        for i in 0..n {
            let base = 12 + i * 36;
            let mut h = [0u8; 32];
            h.copy_from_slice(&bytes[base..base + 32]);
            let clen = u32::from_le_bytes(bytes[base + 32..base + 36].try_into().ok()?);
            chunks.push(ManifestEntry {
                hash: Hash256(h),
                len: clen,
            });
        }
        let m = Manifest { len, chunks };
        if m.chunks.iter().map(|c| c.len as u64).sum::<u64>() != len {
            return None;
        }
        Some(m)
    }
}

/// A typed handle to a stored blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObjectRef {
    /// Manifest content address.
    pub id: Hash256,
    /// Accounting category.
    pub kind: ObjectKind,
    /// Logical size in bytes.
    pub len: u64,
}

impl ObjectRef {
    /// Sentinel reference for "nothing stored" (e.g. unscored placeholder).
    pub fn null(kind: ObjectKind) -> ObjectRef {
        ObjectRef {
            id: Hash256::ZERO,
            kind,
            len: 0,
        }
    }

    /// True if this is the null sentinel.
    pub fn is_null(&self) -> bool {
        self.id.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{chunk_blob, ChunkParams};

    #[test]
    fn manifest_round_trip() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 256) as u8).collect();
        let m = Manifest::from_chunks(&chunk_blob(&data, ChunkParams::SMALL, None));
        assert_eq!(m.len, data.len() as u64);
        let enc = m.encode();
        assert_eq!(Manifest::decode(&enc), Some(m.clone()));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Manifest::decode(&[]), None);
        assert_eq!(Manifest::decode(&[0u8; 11]), None);
        // Valid header claiming one chunk but truncated body.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&100u64.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 10]);
        assert_eq!(Manifest::decode(&bytes), None);
    }

    #[test]
    fn decode_rejects_len_mismatch() {
        let data = vec![1u8; 300];
        let m = Manifest::from_chunks(&chunk_blob(&data, ChunkParams::SMALL, None));
        let mut enc = m.encode();
        // Corrupt the logical length field.
        enc[0] ^= 1;
        assert_eq!(Manifest::decode(&enc), None);
    }

    #[test]
    fn object_kind_index_matches_all_ordering() {
        // AtomicStats records by `index()` and snapshots by iterating `ALL`;
        // the two orderings must agree.
        for (i, k) in ObjectKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i, "{k:?}");
        }
    }

    #[test]
    fn null_ref() {
        let r = ObjectRef::null(ObjectKind::Output);
        assert!(r.is_null());
        assert_eq!(r.len, 0);
    }

    #[test]
    fn empty_manifest() {
        let m = Manifest::from_chunks(&[]);
        assert_eq!(m.len, 0);
        assert_eq!(Manifest::decode(&m.encode()), Some(m));
    }
}
