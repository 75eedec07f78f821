//! The storage backend trait.
//!
//! The chunk store is generic over a [`StorageBackend`]; this crate has one
//! implementation, the append-only [`CaskBackend`], over a segment file in
//! a directory or over an in-memory [`SimFile`](crate::fault::SimFile)
//! ([`MemBackend`]). The trait stays the seam for decorators that time or
//! gate a backend's calls.

use crate::cask::CaskBackend;
use crate::errors::Result;
use crate::hash::Hash256;
/// What [`StorageBackend::get`] returns, for implementors outside this crate.
pub use bytes::Bytes;

/// Key-value storage for content-addressed bytes.
///
/// Implementations must be safe for concurrent use; writes of the same key
/// are idempotent because keys are content addresses.
pub trait StorageBackend: Send + Sync {
    /// Stores `data` under `key`. Returns `true` if the key was new.
    fn put(&self, key: Hash256, data: &[u8]) -> Result<bool>;
    /// Stores every `(key, data)` pair in order and returns, per pair, what
    /// [`put`](Self::put) would have: `true` if the key was new (a key
    /// repeated within the call is new at most once). On error a prefix of
    /// the pairs may be stored, as with the loop. A backend may treat the
    /// call as one unit of work — the cask appends a blob's new records as
    /// one group to one segment; this default is the per-key loop.
    fn put_many(&self, items: &[(Hash256, &[u8])]) -> Result<Vec<bool>> {
        items
            .iter()
            .map(|&(key, data)| self.put(key, data))
            .collect()
    }
    /// Fetches bytes for `key`.
    fn get(&self, key: Hash256) -> Result<Bytes>;
    /// True if `key` is present.
    fn contains(&self, key: Hash256) -> bool;
    /// Number of stored keys.
    fn len(&self) -> usize;
    /// True if no keys are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Total physical bytes stored.
    fn physical_bytes(&self) -> u64;
    /// All stored keys (order unspecified) — the orphan sweep's enumeration.
    fn keys(&self) -> Vec<Hash256>;
    /// Removes `key`, returning the freed byte count (`None` if absent).
    fn remove(&self, key: Hash256) -> Result<Option<u64>>;
    /// Makes every acknowledged write durable: drains any in-flight write
    /// queue and fsyncs. A no-op for decorators that hold nothing back.
    fn flush(&self) -> Result<()> {
        Ok(())
    }
    /// Reclaims physical space held by removed objects, returning the file
    /// bytes freed. A no-op for backends without dead space.
    fn compact(&self) -> Result<u64> {
        Ok(0)
    }
}

/// The in-memory store: the cask over a fault-free [`SimFile`] that lands
/// every write on its caller's thread, so in-memory and durable stores run
/// one code path. [`MemBackend::new`] is [`CaskBackend::new`].
///
/// [`SimFile`]: crate::fault::SimFile
pub type MemBackend = CaskBackend;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::StorageError;

    fn exercise(backend: &dyn StorageBackend) {
        assert!(backend.is_empty());
        let a = Hash256::of(b"aaa");
        let b = Hash256::of(b"bbb");
        assert!(backend.put(a, b"aaa").unwrap());
        assert!(!backend.put(a, b"aaa").unwrap(), "idempotent put");
        assert!(backend.put(b, b"bbb").unwrap());
        assert_eq!(backend.len(), 2);
        assert_eq!(backend.get(a).unwrap().as_ref(), b"aaa");
        assert_eq!(backend.get(b).unwrap().as_ref(), b"bbb");
        assert!(backend.contains(a));
        assert!(!backend.contains(Hash256::of(b"missing")));
        assert!(matches!(
            backend.get(Hash256::of(b"missing")),
            Err(StorageError::NotFound(_))
        ));
        assert_eq!(backend.physical_bytes(), 6);
        let mut keys = backend.keys();
        keys.sort();
        let mut expected = vec![a, b];
        expected.sort();
        assert_eq!(keys, expected);
        assert_eq!(backend.remove(a).unwrap(), Some(3));
        assert_eq!(backend.remove(a).unwrap(), None, "double remove is a no-op");
        assert!(!backend.contains(a));
        assert_eq!(backend.len(), 1);
        assert_eq!(backend.physical_bytes(), 3);
        assert!(backend.put(a, b"aaa").unwrap(), "removed keys can return");
    }

    #[test]
    fn mem_backend_basics() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn mem_backend_concurrent_puts() {
        use std::sync::Arc;
        let be = Arc::new(MemBackend::new());
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let be = Arc::clone(&be);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u32 {
                    let data = [t, (i % 64) as u8];
                    be.put(Hash256::of(&data), &data).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 8 threads x 64 distinct payloads each (i%64), all 2 bytes.
        assert_eq!(be.len(), 8 * 64);
        assert_eq!(be.physical_bytes(), 8 * 64 * 2);
    }
}
