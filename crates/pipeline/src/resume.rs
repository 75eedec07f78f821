//! Crash recovery for traced pipeline executions: a durable journal of
//! completed operations plus the recovery protocol that lets a partially
//! executed DAG resume from its `last_completed_operation`.
//!
//! # Protocol
//!
//! While a resumable run executes, every completed component execution is
//! appended to a [`ResumeLog`] — its [`CacheKey`] and full
//! [`StageProfile`], including the chunk-level write trace. After a crash:
//!
//! 1. Reopen the storage backend (which truncates torn segment tails) and
//!    the journal (which truncates its own torn tail).
//! 2. [`ResumeSnapshot::recover`] **validates** each journaled entry
//!    against the recovered store: an entry survives only if *every* chunk
//!    and the manifest its trace recorded are still present. This absorbs
//!    the async-writer race where an operation was journaled before its
//!    chunks were fsynced — such entries are discarded and the node simply
//!    re-executes.
//! 3. It then **sweeps** the store down to exactly the validated entries'
//!    blobs (plus any caller-supplied extra roots): chunks persisted by
//!    executions that never reached the journal are removed. This is what
//!    makes the resumed run's accounting byte-identical to an uninterrupted
//!    one — a re-executed node must observe its chunks as *new*, exactly as
//!    the uninterrupted run did, not find pre-crash leftovers.
//! 4. An executor built with
//!    [`Executor::resuming`](crate::executor::Executor::resuming) takes
//!    the snapshot: journaled nodes are adopted without re-execution
//!    (their profiles feed the accounting replay verbatim), the rest of the
//!    DAG executes normally.
//!
//! Because the accounting replay charges every node in canonical
//! topological order from recorded profiles — never from wall-clock
//! observations — a resumed run's report (its clock included), store
//! statistics, and per-tenant accounting are byte-identical to an
//! uninterrupted run at any worker count. `tests/crash_recovery.rs` pins
//! this down by killing the backend at every k-th write.

use crate::errors::Result;
use crate::executor::CacheKey;
use crate::replay::StageProfile;
use mlcask_storage::cask::DurableLog;
use mlcask_storage::hash::Hash256;
use mlcask_storage::store::{ChunkStore, SweepReport};
use std::collections::HashMap;
use std::path::Path;

/// One journaled completed operation: the cache key identifying the
/// execution plus everything the accounting replay needs.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ResumeEntry {
    /// Identity of the completed execution.
    pub key: CacheKey,
    /// Its recorded profile (write trace included; the quota reservation is
    /// stripped by serialization).
    pub profile: StageProfile,
}

/// Durable journal of completed operations, CRC-framed and fsynced per
/// append (see [`DurableLog`]). A torn final entry — the appender died
/// mid-write — is truncated away on open.
pub struct ResumeLog {
    log: DurableLog,
}

impl ResumeLog {
    /// Opens (creating if needed) a journal file and returns it together
    /// with the intact entries recovered from it. Entries that fail to
    /// decode are skipped — a versioning safety valve, not an expected
    /// path.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Vec<ResumeEntry>)> {
        let (log, payloads) = DurableLog::open(path)?;
        let entries = payloads
            .iter()
            .filter_map(|p| serde_json::from_slice(p).ok())
            .collect();
        Ok((ResumeLog { log }, entries))
    }

    /// A journal that lives only in memory — for tests that simulate the
    /// crash at the storage layer while the "journal host" survives.
    pub fn in_memory() -> Self {
        ResumeLog {
            log: DurableLog::in_memory(),
        }
    }

    /// Durably appends one completed operation.
    pub(crate) fn record(&self, key: &CacheKey, profile: &StageProfile) -> Result<()> {
        let entry = ResumeEntry {
            key: key.clone(),
            profile: profile.clone(),
        };
        let payload = serde_json::to_vec(&entry).map_err(|e| {
            crate::errors::PipelineError::Storage(mlcask_storage::errors::StorageError::Codec(
                e.to_string(),
            ))
        })?;
        self.log.append(&payload)?;
        Ok(())
    }

    /// All intact entries currently in the journal.
    pub fn entries(&self) -> Result<Vec<ResumeEntry>> {
        Ok(self
            .log
            .entries()?
            .iter()
            .filter_map(|p| serde_json::from_slice(p).ok())
            .collect())
    }
}

/// What [`ResumeSnapshot::recover`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journaled operations whose blobs fully survived the crash — the
    /// resumed run adopts these without re-executing.
    pub recovered_operations: usize,
    /// Journaled operations discarded because some of their chunks did not
    /// survive (journaled before the async writers synced them).
    pub discarded_operations: usize,
    /// The post-validation orphan sweep that removed unjournaled leftovers.
    pub(crate) swept: SweepReport,
}

/// Validated journal state a resumed execution consults: for each cache
/// key, the profile of its already-completed execution.
#[derive(Default)]
pub struct ResumeSnapshot {
    map: HashMap<CacheKey, StageProfile>,
}

impl ResumeSnapshot {
    /// An empty snapshot (a resumable run's first attempt).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Validates journaled `entries` against the recovered `store` and
    /// sweeps unjournaled leftovers, returning the snapshot and a report.
    ///
    /// An entry is kept iff every hash its write trace recorded — all
    /// chunks and the manifest — is present in the store; partially durable
    /// operations are discarded wholesale (their node re-executes). The
    /// sweep then removes every object unreachable from the kept entries'
    /// manifests and `extra_roots` (pass the manifests of any pre-existing
    /// blobs the store must retain — committed pipelines, lookup-cache
    /// outputs), so re-executed nodes observe their chunk writes as new
    /// exactly as an uninterrupted run would.
    pub fn recover(
        store: &ChunkStore,
        entries: Vec<ResumeEntry>,
        extra_roots: impl IntoIterator<Item = Hash256>,
    ) -> Result<(Self, RecoveryReport)> {
        let backend = store.backend();
        let mut map = HashMap::new();
        let mut report = RecoveryReport::default();
        for entry in entries {
            let durable = entry.profile.write.as_ref().is_some_and(|trace| {
                trace.chunks.iter().all(|c| backend.contains(c.hash))
                    && backend.contains(trace.manifest.hash)
            });
            if durable {
                report.recovered_operations += 1;
                map.insert(entry.key, entry.profile);
            } else {
                report.discarded_operations += 1;
            }
        }
        let roots: Vec<Hash256> = map
            .values()
            .filter_map(|p| p.write.as_ref().map(|t| t.manifest.hash))
            .chain(extra_roots)
            .collect();
        report.swept = store.sweep_orphans(roots)?;
        Ok((ResumeSnapshot { map }, report))
    }

    /// The journaled profile for `key`, if its execution completed durably
    /// before the crash.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<&StageProfile> {
        self.map.get(key)
    }
}

/// Everything [`Executor::resuming`](crate::executor::Executor::resuming)
/// needs: the validated snapshot to adopt completed operations from, and
/// (optionally) the journal to record this attempt's completions into.
pub struct ResumeCtx<'a> {
    /// Completed operations adopted without re-execution.
    pub snapshot: &'a ResumeSnapshot,
    /// Journal for newly completed operations; `None` runs without
    /// journaling (recovery-only mode).
    pub journal: Option<&'a ResumeLog>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentKey;
    use crate::schema::Schema;
    use crate::semver::SemVer;
    use mlcask_storage::object::ObjectKind;

    fn entry_for(store: &ChunkStore, data: &[u8]) -> ResumeEntry {
        let (put, trace) = store.put_blob_traced(ObjectKind::Output, data).unwrap();
        ResumeEntry {
            key: CacheKey {
                component: ComponentKey::new("c", SemVer::master(0, 0)),
                inputs: vec![Hash256::of(data)],
            },
            profile: StageProfile {
                cached: crate::executor::CachedOutput {
                    object: put.object,
                    artifact_id: put.object.id,
                    schema: Schema::FeatureMatrix {
                        dim: 2,
                        n_classes: 2,
                    }
                    .id(),
                    score: None,
                },
                artifact_bytes: data.len() as u64,
                exec_ns: 7,
                write: Some(trace),
            },
        }
    }

    #[test]
    fn entry_round_trips_without_reservation() {
        let store = ChunkStore::in_memory_small();
        let entry = entry_for(&store, b"journal me");
        let bytes = serde_json::to_vec(&entry).unwrap();
        let back: ResumeEntry = serde_json::from_slice(&bytes).unwrap();
        assert_eq!(back.key, entry.key);
        assert_eq!(back.profile.exec_ns, entry.profile.exec_ns);
        let w = back.profile.write.unwrap();
        let orig = entry.profile.write.unwrap();
        assert_eq!(w.chunks, orig.chunks);
        assert_eq!(w.manifest, orig.manifest);
        assert!(w.reservation.is_none(), "reservations never round-trip");
    }

    #[test]
    fn in_memory_log_records_and_lists() {
        let store = ChunkStore::in_memory_small();
        let log = ResumeLog::in_memory();
        let e = entry_for(&store, b"op one");
        log.record(&e.key, &e.profile).unwrap();
        let back = log.entries().unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].key, e.key);
    }

    #[test]
    fn recover_validates_against_store_and_sweeps_leftovers() {
        let store = ChunkStore::in_memory_small();
        let kept = entry_for(&store, b"durable operation");
        // A journaled entry whose blob did NOT survive: fabricate a trace
        // pointing at hashes the store never persisted.
        let mut ghost = entry_for(&store, b"ghost operation");
        ghost.key.component = ComponentKey::new("ghost", SemVer::master(0, 0));
        let w = ghost.profile.write.as_mut().unwrap();
        w.manifest.hash = Hash256::of(b"never persisted");
        // An unjournaled leftover blob (pre-crash execution that never
        // reached the journal): must be swept.
        let leftover = store
            .put_blob(ObjectKind::Output, b"leftover from before the crash")
            .unwrap();
        let (snap, report) =
            ResumeSnapshot::recover(&store, vec![kept.clone(), ghost.clone()], []).unwrap();
        assert_eq!(report.recovered_operations, 1);
        assert_eq!(report.discarded_operations, 1);
        assert!(report.swept.removed_objects > 0, "leftover swept");
        assert!(snap.get(&kept.key).is_some());
        assert!(snap.get(&ghost.key).is_none());
        assert!(
            !store.contains(leftover.object.id),
            "unjournaled blob is gone"
        );
        // The kept operation's blob is intact.
        let obj = snap.get(&kept.key).unwrap().cached.object;
        assert_eq!(store.get_blob(&obj).unwrap().as_ref(), b"durable operation");
    }

    #[test]
    fn extra_roots_protect_preexisting_blobs() {
        let store = ChunkStore::in_memory_small();
        let precious = store
            .put_blob(ObjectKind::Output, b"committed earlier")
            .unwrap();
        let (snap, _) = ResumeSnapshot::recover(&store, vec![], [precious.object.id]).unwrap();
        assert!(snap.map.is_empty());
        assert_eq!(
            store.get_blob(&precious.object).unwrap().as_ref(),
            b"committed earlier"
        );
    }
}
