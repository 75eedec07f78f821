//! # mlcask-storage
//!
//! A ForkBase-like storage substrate for MLCask (ICDE 2021): immutable,
//! content-addressed blobs with chunk-level deduplication, plus a Git-like
//! commit graph with branches and common-ancestor queries.
//!
//! The paper stores pipeline components and reusable intermediate outputs in
//! ForkBase and credits its chunk-level dedup for the storage savings in
//! Figs. 7–8. This crate reproduces exactly the properties those experiments
//! rely on:
//!
//! * **Content addressing** — every object is identified by the SHA-256 of
//!   its bytes ([`hash`], implemented from scratch; the compression function
//!   runs on the CPU's SHA extensions where it has them and on portable
//!   scalar rounds elsewhere, with identical digests; independent messages
//!   hash two at a time through [`hash::digest_many`]).
//! * **Content-defined chunking** — blobs split at Gear-hash boundaries so a
//!   local edit re-stores only the touched chunks ([`chunk`]).
//! * **Deduplicating store** — [`store::ChunkStore`] persists unseen chunks
//!   only, with per-[`object::ObjectKind`] accounting in [`stats`].
//! * **Branches + merges** — [`commit::CommitGraph`] is a Merkle commit DAG
//!   with branch heads, fast-forward detection, LCA, and first-parent paths.
//!   It checks no rights: which tenant may write which namespaced branch
//!   (the [`tenant::ShareRight`] levels) is the workspace layer's to decide.
//! * **Multi-tenant accounting** — [`tenant::TenantAccounts`] attributes
//!   dedup'd writes (first-writer-pays + fair-share views) and enforces
//!   [`tenant::QuotaPolicy`] caps through an atomic reserve/settle/release
//!   protocol, so even parallel in-flight evaluations cannot overshoot.
//! * **Deterministic storage-time model** — [`costmodel::StorageCostModel`]
//!   converts byte counts into modeled storage time so experiments are
//!   machine-independent.
//!
//! ```
//! use mlcask_storage::prelude::*;
//!
//! let store = ChunkStore::in_memory();
//! let v1 = store.put_blob(ObjectKind::Library, b"model code v1").unwrap();
//! let v2 = store.put_blob(ObjectKind::Library, b"model code v1").unwrap();
//! assert_eq!(v1.object, v2.object);          // same content, same address
//! assert_eq!(v2.physical_bytes, 0);          // duplicate stored for free
//! ```

// The one exception is the SHA-NI kernel module in `hash`, which carries the
// crate's only `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]

pub mod backend;
pub mod cache;
pub mod cask;
pub mod chunk;
pub mod commit;
pub mod costmodel;
pub mod errors;
pub mod fault;
pub mod hash;
pub mod object;
pub mod pmap;
pub mod stats;
pub mod store;
pub mod tenant;

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::backend::{MemBackend, StorageBackend};
    pub use crate::cache::{BlobCache, CacheOptions};
    pub use crate::cask::{CaskBackend, CaskOptions, DurableLog};
    pub use crate::chunk::ChunkParams;
    pub use crate::commit::{Commit, CommitGraph, GraphView};
    pub use crate::costmodel::StorageCostModel;
    pub use crate::errors::{Result as StorageResult, StorageError};
    pub use crate::fault::{FaultBackend, FaultKind, FaultPlan};
    pub use crate::hash::{Hash256, Sha256};
    pub use crate::object::{Manifest, ObjectKind, ObjectRef};
    pub use crate::pmap::PMap;
    pub use crate::stats::{AtomicStats, CacheStats, KindStats, StorageStats};
    pub use crate::store::{ChunkStore, PutOutcome, PutTrace, SweepReport, WriteObs};
    pub use crate::tenant::{
        QuotaPolicy, ReservationId, ReservedBytes, ShareRight, SharedUsage, TenantAccounts,
        TenantId, TenantUsage,
    };
}
