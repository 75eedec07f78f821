//! Deterministic replay of traced pipeline executions.
//!
//! Every evaluation is split into two phases:
//!
//! 1. **Execute (possibly parallel, racy order)** — work runs via
//!    `Executor::trace`. Component outputs, scores, and chunk layouts are
//!    pure functions of the candidate, so the *results* are
//!    order-independent; only timing and dedup attribution would be racy.
//!    Each distinct `(component, inputs)` key executes at most once per
//!    shared `ProfileBook`, which is all phase 1 writes: its checkpoint
//!    lookups are read-only, and a node whose key a sibling candidate
//!    executes, or already executed, adopts that execution's outcome
//!    (`ProfileBook::claim`).
//! 2. **Account (sequential, canonical order)** — `replay_run` walks the
//!    work in canonical order and computes what a strictly one-at-a-time
//!    walk charges: cache hits against the sequentially-evolving
//!    checkpoint state, materialisation reads, execution time from
//!    profiles, and storage writes replayed chunk-by-chunk against a
//!    simulated "not yet persisted" set ([`PutTrace::replay`]). Then it
//!    **publishes** the stages it charged as executed, and only those,
//!    into the caller's [`HistoryIndex`] (`Publication`).
//!
//! The protocol is applied at two granularities, both by the one
//! evaluation loop ([`crate::search`]):
//!
//! * **Across candidates** — the loop (behind commits,
//!   `MergeEngine::search`, `MergeEngine::run_trials` and
//!   [`Executor::run`](crate::executor::Executor::run)) traces candidates
//!   concurrently, then replays them in pick order.
//! * **Within one pipeline** — each trace runs one pipeline's nodes
//!   (concurrently when the policy leaves it workers), and `replay_run`
//!   walks that candidate's nodes in canonical topological order, which is
//!   the per-node half of the same argument; `Executor::run` is the loop
//!   with one candidate.
//!
//! The key order-independence argument: a chunk was present in the store
//! *before* the whole evaluation iff **no** traced write observed it as new,
//! which is invariant under phase-1 scheduling. Checkpoints follow the same
//! rule: one counts as **pre-existing** iff phase 1 *found* it — a lookup hit
//! or a node its frontier cut skipped — and the book holds no profile for
//! it, i.e. this evaluation did not produce it. A checkpoint a sibling
//! candidate of the same search produced has a profile, so the replay
//! charges it wherever the canonical order executes it. The rule reads only
//! what phase 1 recorded, never a copy of the history, so a checkpoint
//! another writer lands mid-evaluation counts as the reuse the trace
//! actually did. Everything else the replay consumes (work units, artifact
//! ids, blob layouts, failure points) is deterministic per candidate.
//! Reports are therefore byte-identical for `ParallelismPolicy::Sequential`
//! and `ParallelismPolicy::Parallel(n)` — the property the
//! `parallel_determinism` integration test pins down, and that the
//! executor's unit tests check against a strictly sequential reference
//! walk.
//!
//! The replay being the only writer of checkpoints, a checkpoint is shared
//! exactly when its blob has been charged: an evaluation that aborts
//! publishes nothing, and outputs phase 1 persisted that the canonical
//! order never charged (siblings past a dynamic failure) stay unreferenced,
//! for `sweep_orphans` to reclaim. Its one write is
//! `HistoryIndex::publish`, which keeps the history's **pairing
//! invariant**: a fingerprint only after its checkpoint.

use crate::clock::ClockSnapshot;
use crate::dag::BoundPipeline;
use crate::errors::{PipelineError, Result};
use crate::executor::{CacheKey, CachedOutput, RunOutcome, RunReport, StageReport};
use crate::history::HistoryIndex;
use crate::parallel::ShardedMap;
use mlcask_storage::hash::Hash256;
use mlcask_storage::store::{ChunkStore, PutTrace};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

/// Everything the accounting replay needs to know about one component
/// execution observed during phase 1.
///
/// Serializable so a [`ResumeLog`](crate::resume::ResumeLog) can journal
/// completed executions durably; note a journaled profile's write trace
/// round-trips with its quota reservation stripped (see
/// [`PutTrace`]'s serialization).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StageProfile {
    /// The checkpoint the execution produced.
    pub cached: CachedOutput,
    /// Logical artifact size (`Artifact::byte_len`), independent of the
    /// persisted blob encoding.
    pub artifact_bytes: u64,
    /// Deterministic execution cost in virtual nanoseconds.
    pub exec_ns: u64,
    /// Chunk-level trace of the persisted output blob, if any.
    pub write: Option<PutTrace>,
}

/// Concurrent record of phase 1, shared by all workers of one search: the
/// executions it performed and the checkpoints it found. It also decides
/// who executes a key: [`ProfileBook::claim`] admits one owner per key,
/// so the book holds at most one profile per key by construction.
#[derive(Default)]
pub(crate) struct ProfileBook {
    profiles: ShardedMap<CacheKey, StageProfile>,
    found: ShardedMap<CacheKey, CachedOutput>,
    failures: RwLock<HashSet<CacheKey>>,
    new_chunks: Mutex<HashSet<Hash256>>,
    /// Keys an owner is executing right now.
    executing: Mutex<HashSet<CacheKey>>,
    /// Signalled whenever an owner settles or drops its key.
    settled: Condvar,
}

/// What [`ProfileBook::claim`] resolved a key to.
pub(crate) enum Claim<'b> {
    /// A sibling's execution recorded this checkpoint.
    Produced(CachedOutput),
    /// A sibling saw this key fail with a schema incompatibility.
    Failed,
    /// The caller executes the key and settles it through the token.
    Owner(KeyOwner<'b>),
}

/// The one execution of a claimed key. [`KeyOwner::record`] or
/// [`KeyOwner::fail`] settles the key and wakes its waiters; dropping the
/// token unsettled (a hard error, a panic) un-claims the key, so the next
/// claimant owns it instead — a dead owner never strands a waiter.
pub(crate) struct KeyOwner<'b> {
    book: &'b ProfileBook,
    key: CacheKey,
}

impl KeyOwner<'_> {
    /// Records the execution's profile: the book keeps its write trace, so
    /// the replay settles its reservation or
    /// [`ProfileBook::release_reservations`] releases it.
    pub(crate) fn record(self, profile: StageProfile) {
        if let Some(w) = &profile.write {
            self.book.observe_write(w);
        }
        self.book.profiles.insert(self.key.clone(), profile);
    }

    /// Records that executing the key fails with a schema incompatibility.
    pub(crate) fn fail(self) {
        self.book.record_failure(self.key.clone());
    }
}

impl Drop for KeyOwner<'_> {
    fn drop(&mut self) {
        self.book.executing.lock().remove(&self.key);
        self.book.settled.notify_all();
    }
}

impl ProfileBook {
    /// Empty book.
    pub(crate) fn new() -> ProfileBook {
        ProfileBook::default()
    }

    /// Decides who executes `key`: a sibling's recorded checkpoint or
    /// failure if there is one; otherwise, while a sibling is executing the
    /// key, blocks until it settles or drops its claim; otherwise the
    /// caller owns the key. Components are deterministic, so which claimant
    /// executes is unobservable in the replayed accounting.
    pub(crate) fn claim(&self, key: &CacheKey) -> Claim<'_> {
        let mut executing = self.executing.lock();
        loop {
            if let Some(cached) = self.profiles.get_with(key, |p| p.cached.clone()) {
                return Claim::Produced(cached);
            }
            if self.is_failure(key) {
                return Claim::Failed;
            }
            if executing.insert(key.clone()) {
                return Claim::Owner(KeyOwner {
                    book: self,
                    key: key.clone(),
                });
            }
            executing = self
                .settled
                .wait(executing)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records that phase 1 found `key`'s checkpoint instead of executing
    /// it: a lookup hit, or a node its frontier cut skipped.
    pub(crate) fn record_found(&self, key: CacheKey, cached: CachedOutput) {
        self.found.insert(key, cached);
    }

    /// The checkpoint `key` had before this evaluation: phase 1 found it,
    /// and no execution recorded in this book produced it.
    pub(crate) fn pre_existing(&self, key: &CacheKey) -> Option<CachedOutput> {
        self.found.get(key).filter(|_| !self.profiles.contains(key))
    }

    /// Records that executing `key` fails with a schema incompatibility.
    pub(crate) fn record_failure(&self, key: CacheKey) {
        self.failures.write().insert(key);
    }

    /// Folds a write trace's newly-persisted chunk hashes into the "new
    /// during this evaluation" set.
    pub(crate) fn observe_write(&self, trace: &PutTrace) {
        let mut set = self.new_chunks.lock();
        for c in &trace.chunks {
            if c.was_new {
                set.insert(c.hash);
            }
        }
        if trace.manifest.was_new {
            set.insert(trace.manifest.hash);
        }
    }

    /// The profile recorded for `key`, if any.
    pub(crate) fn profile(&self, key: &CacheKey) -> Option<StageProfile> {
        self.profiles.get(key)
    }

    /// True if phase 1 observed `key` failing.
    pub(crate) fn is_failure(&self, key: &CacheKey) -> bool {
        self.failures.read().contains(key)
    }

    /// Starts a replay cursor over this book's observations: the simulated
    /// set of chunks that the canonical sequential order has not yet
    /// persisted.
    pub(crate) fn replay_cursor(&self) -> ReplayCursor {
        ReplayCursor {
            unseen: self.new_chunks.lock().clone(),
        }
    }

    /// Releases the quota reservations of every traced write recorded in
    /// this book that has not been settled by a replay.
    ///
    /// The evaluation loop calls this once its evaluation ends, success and
    /// failure alike. Traces the replay charged are already settled, so
    /// releasing them is a no-op; what this reclaims are the traces the
    /// canonical order never replays: nodes past a dynamic failure frontier
    /// (a run that *completes* with `RunOutcome::Failed`) and everything
    /// recorded before a hard error — a quota breach, an unresolvable
    /// component, a storage fault. So **no reservation outlives the
    /// evaluation that took it**: tenant accounts end exactly where they
    /// started.
    pub(crate) fn release_reservations(&self, store: &ChunkStore) {
        self.profiles.for_each_value(|profile| {
            if let Some(trace) = &profile.write {
                store.release_trace(trace);
            }
        });
    }
}

/// Mutable chunk-dedup state threaded through a replay in canonical order.
#[derive(Debug, Clone)]
pub(crate) struct ReplayCursor {
    /// Chunks phase 1 persisted that the replay has not yet attributed.
    pub(crate) unseen: HashSet<Hash256>,
}

/// Checkpoints by `CacheKey`: the replay's sequential cache simulation, and
/// a point-in-time copy of a [`HistoryIndex`].
pub type CacheSnapshot = HashMap<CacheKey, CachedOutput>;

struct ReplayNode {
    cached: CachedOutput,
    in_memory: bool,
}

/// Where a replay publishes the stages it charged as executed.
pub(crate) struct Publication<'a> {
    /// The caller's checkpoint history.
    pub(crate) index: &'a HistoryIndex,
    /// The candidate's provenance fingerprints
    /// ([`crate::provenance::Provenance`]).
    pub(crate) fingerprints: &'a [Hash256],
}

/// Replays one candidate's execution for accounting, then publishes it: the
/// charged half of the evaluation loop ([`crate::search::evaluate`]).
///
/// * `book` — what phase 1 recorded; its
///   [`pre_existing`](ProfileBook::pre_existing) checkpoints are the ones
///   a sequential run would hit from the first candidate on.
/// * `reuse` — `Some` under a policy that reuses checkpoints: the ones
///   "created so far" in replay order, consulted with the pre-existing ones
///   before charging an execution, and grown by this call. `None` charges
///   every stage as executed. Whether a prechecking policy runs the
///   pipeline at all is the caller's decision, made before phase 1.
/// * `cursor` — chunk-dedup state in replay order (shared across all
///   candidates of the search, in index order).
/// * `publish` — the caller's history, if the policy publishes. After a
///   replay that returns a report (completed or failed), every stage it
///   charged as executed is published there by
///   `HistoryIndex::publish`: under its `CacheKey`, then under its
///   fingerprint. This is the history's one writer, and a replay that
///   errors publishes nothing.
///
/// Charges land on the report's `clock`; stats deltas are recorded on
/// `store`, both in canonical order.
pub(crate) fn replay_run(
    store: &ChunkStore,
    pipeline: &BoundPipeline,
    book: &ProfileBook,
    mut reuse: Option<&mut CacheSnapshot>,
    cursor: &mut ReplayCursor,
    publish: Option<Publication<'_>>,
) -> Result<RunReport> {
    let order = pipeline.dag.topo_order()?;
    let mut stages: Vec<StageReport> = Vec::with_capacity(order.len());
    let mut outputs: Vec<Option<ReplayNode>> = (0..order.len()).map(|_| None).collect();
    let mut final_score = None;
    let mut failed = None;
    let mut clock = ClockSnapshot::default();
    // Stages charged as executed, by node, for the publication.
    let mut charged: Vec<(usize, CacheKey, CachedOutput)> = Vec::new();

    for &node in order {
        let comp = &pipeline.components()[node];
        let preds = pipeline.dag.pre(node);
        let input_ids: Vec<Hash256> = preds
            .iter()
            .map(|&p| {
                let out = outputs[p].as_ref().expect("topological order");
                out.cached.artifact_id
            })
            .collect();
        let key = CacheKey {
            component: comp.key(),
            inputs: input_ids,
        };

        // Reuse path under the *sequential* cache state.
        if let Some(sim) = reuse.as_deref() {
            let hit = sim.get(&key).cloned().or_else(|| book.pre_existing(&key));
            if let Some(hit) = hit {
                stages.push(StageReport::reused(comp, &hit, &mut final_score));
                outputs[node] = Some(ReplayNode {
                    cached: hit,
                    in_memory: false,
                });
                continue;
            }
        }

        // Materialise checkpointed inputs (phase 1 did the reads; this
        // charges them).
        let mut materialise_ns: u64 = 0;
        for &p in preds {
            let out = outputs[p].as_mut().expect("topological order");
            if !out.in_memory {
                if out.cached.object.is_null() {
                    return Err(PipelineError::Storage(
                        mlcask_storage::errors::StorageError::NotFound(out.cached.artifact_id),
                    ));
                }
                materialise_ns += store.read_cost(&out.cached.object).as_nanos() as u64;
                out.in_memory = true;
            }
        }
        if materialise_ns > 0 {
            clock.charge_storage(Duration::from_nanos(materialise_ns));
        }

        // Failure point observed in phase 1: inputs were materialised (and
        // paid for) but the component never charged execution time.
        if book.is_failure(&key) {
            let at = comp.key();
            failed = Some(RunOutcome::Failed {
                reason: format!("schema incompatibility at {at}"),
                at,
            });
            break;
        }

        let prof = book.profile(&key).ok_or_else(|| {
            PipelineError::InvalidDag(format!(
                "replay invariant violated: no phase-1 profile for {}",
                key.component
            ))
        })?;

        clock.charge_exec(comp.stage(), Duration::from_nanos(prof.exec_ns));
        if let Some(s) = prof.cached.score {
            final_score = Some(s);
        }
        let trace = prof.write.as_ref().ok_or_else(|| {
            PipelineError::InvalidDag(
                "replay invariant violated: phase 1 did not persist an output".into(),
            )
        })?;
        let (cost, stats) = trace.replay(&store.cost_model(), &mut cursor.unseen);
        clock.charge_storage(cost);
        // Stats *and* per-tenant attribution land here, in canonical
        // replay order, so tenant usage is deterministic too.
        store.record_replayed_write(trace, stats);
        let cached = prof.cached;
        let storage_ns = cost.as_nanos() as u64;
        if let Some(sim) = reuse.as_deref_mut() {
            sim.insert(key.clone(), cached.clone());
        }
        stages.push(StageReport {
            component: comp.key(),
            stage: comp.stage(),
            reused: false,
            exec_ns: prof.exec_ns,
            storage_ns: storage_ns + materialise_ns,
            output: cached.object,
            artifact_id: cached.artifact_id,
            artifact_bytes: prof.artifact_bytes,
        });
        if publish.is_some() {
            charged.push((node, key, cached.clone()));
        }
        outputs[node] = Some(ReplayNode {
            cached,
            in_memory: true,
        });
    }

    let outcome = match (failed, final_score) {
        (Some(failed), _) => failed,
        (None, Some(score)) => RunOutcome::Completed { score },
        (None, None) => return Err(PipelineError::NoScore),
    };
    if let Some(Publication {
        index,
        fingerprints,
    }) = publish
    {
        for (node, key, cached) in charged {
            index.publish(key, fingerprints[node], cached);
        }
    }
    Ok(RunReport {
        stages,
        outcome,
        clock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::ComponentKey;
    use crate::schema::Schema;
    use crate::semver::SemVer;
    use mlcask_storage::object::{ObjectKind, ObjectRef};
    use mlcask_storage::tenant::{QuotaPolicy, TenantId};

    fn key(name: &str) -> CacheKey {
        CacheKey {
            component: ComponentKey::new(name, SemVer::master(0, 0)),
            inputs: vec![],
        }
    }

    /// A profile of `cached`, written as `write`.
    fn profile(cached: CachedOutput, write: Option<PutTrace>) -> StageProfile {
        StageProfile {
            cached,
            artifact_bytes: 1,
            exec_ns: 1,
            write,
        }
    }

    fn cached(tag: u8) -> CachedOutput {
        CachedOutput {
            object: ObjectRef::null(ObjectKind::Output),
            artifact_id: Hash256::of(&[tag]),
            schema: Schema::FeatureMatrix {
                dim: 2,
                n_classes: 2,
            }
            .id(),
            score: None,
        }
    }

    fn owner<'b>(book: &'b ProfileBook, key: &CacheKey) -> KeyOwner<'b> {
        match book.claim(key) {
            Claim::Owner(owner) => owner,
            _ => panic!("an unsettled, unclaimed key is owned"),
        }
    }

    /// Runs `settle` on the owner of a fresh key while a second thread
    /// claims the key; returns what the second claim resolved to once it
    /// stopped blocking (`None` when it was handed the key).
    fn settled_under_a_waiter(settle: impl FnOnce(KeyOwner<'_>)) -> Option<Claim<'static>> {
        let book = ProfileBook::new();
        let key = key("shared-prefix");
        let first = owner(&book, &key);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match book.claim(&key) {
                Claim::Produced(out) => Some(Claim::Produced(out)),
                Claim::Failed => Some(Claim::Failed),
                Claim::Owner(_) => None,
            });
            // Give the waiter time to block; the outcome does not depend on
            // whether it did.
            std::thread::sleep(Duration::from_millis(10));
            settle(first);
            waiter.join().unwrap()
        })
    }

    #[test]
    fn the_owner_records_and_a_waiter_adopts() {
        let adopted = settled_under_a_waiter(|owner| owner.record(profile(cached(7), None)));
        let Some(Claim::Produced(out)) = adopted else {
            panic!("the waiter adopts the recorded checkpoint");
        };
        assert_eq!(out, cached(7));
    }

    #[test]
    fn a_recorded_failure_is_adopted_not_rerun() {
        let adopted = settled_under_a_waiter(|owner| owner.fail());
        assert!(matches!(adopted, Some(Claim::Failed)));
    }

    #[test]
    fn a_dropped_owner_unclaims_the_key() {
        let adopted = settled_under_a_waiter(|owner| drop(owner));
        assert!(adopted.is_none(), "the next claimant owns the key");
        let book = ProfileBook::new();
        let key = key("poisoned");
        drop(owner(&book, &key));
        owner(&book, &key).record(profile(cached(1), None));
        assert!(matches!(book.claim(&key), Claim::Produced(_)));
    }

    /// One owner per key: its write trace is the only one the book holds
    /// for the key, settled by the replay or released by
    /// `release_reservations` — a second trace of the key adopts, so no
    /// duplicate's reservation is ever taken.
    #[test]
    fn an_owners_trace_is_settled_by_the_replay_or_released() {
        use crate::executor::Executor;
        use crate::parallel::ParallelismPolicy;
        let root = ChunkStore::in_memory_small();
        let t = root.for_tenant(TenantId(1));
        root.tenant_accounts()
            .register(TenantId(1), QuotaPolicy::logical(1_000_000));
        let accounts = root.tenant_accounts();
        let (exec, cache, p) = (Executor::new(&t), HistoryIndex::new(), chain(0));
        for replayed in [false, true] {
            let book = ProfileBook::new();
            for _ in 0..2 {
                exec.trace(&p, &cache, &book, ParallelismPolicy::Sequential, None)
                    .unwrap();
            }
            assert_eq!(accounts.open_reservations(), 3, "one per key");
            let report = replayed
                .then(|| replay_run(&t, &p, &book, None, &mut book.replay_cursor(), None).unwrap());
            book.release_reservations(&t);
            assert_eq!(accounts.open_reservations(), 0);
            let usage = accounts.usage(TenantId(1)).logical_bytes;
            match report {
                Some(report) => {
                    assert_eq!(report.executed_count(), 3);
                    assert!(usage > 0, "the replay settled the owner's traces");
                }
                None => assert_eq!(usage, 0, "the release reclaimed them"),
            }
        }
    }

    /// `test_source → test_scaler → test_model@0.{model}`: every model
    /// shares the source and scaler checkpoints.
    fn chain(model: u32) -> BoundPipeline {
        use crate::component::test_support::{TestModel, TestScaler, TestSource};
        use crate::dag::PipelineDag;
        use std::sync::Arc;
        let dag = PipelineDag::chain(&["test_source", "test_scaler", "test_model"]).unwrap();
        let comps: Vec<crate::component::ComponentHandle> = vec![
            Arc::new(TestSource {
                version: SemVer::initial(),
                dim: 3,
                rows: 8,
            }),
            Arc::new(TestScaler {
                version: SemVer::initial(),
                dim_in: 3,
                dim_out: 3,
                factor: 2.0,
            }),
            Arc::new(TestModel {
                version: SemVer::master(0, model),
                dim_in: 3,
                quality: 0.1 * (model + 1) as f64,
            }),
        ];
        BoundPipeline::new(Arc::new(dag), comps).unwrap()
    }

    /// Traces two candidates sharing a prefix in `phase1` order (after a
    /// run of `primer`, if any), replays them in canonical order, and
    /// returns the reports (their clocks included), plus whether the book
    /// counts the shared source checkpoint as pre-existing.
    fn found_or_produced(phase1: [u32; 2], primer: Option<u32>) -> (String, bool) {
        use crate::executor::Executor;
        use crate::parallel::ParallelismPolicy;
        use crate::search::Policy;
        let store = ChunkStore::in_memory_small();
        let cache = HistoryIndex::new();
        let exec = Executor::new(&store);
        if let Some(model) = primer {
            let primed = exec.run(&chain(model), Some(&cache), Policy::MLCASK);
            assert!(primed.unwrap().outcome.is_completed());
        }
        let book = ProfileBook::new();
        for model in phase1 {
            let policy = ParallelismPolicy::Sequential;
            exec.trace(&chain(model), &cache, &book, policy, None)
                .unwrap();
        }
        let (mut sim, mut cursor) = (CacheSnapshot::new(), book.replay_cursor());
        let reports: Vec<RunReport> = [0, 1]
            .map(|model| {
                let p = chain(model);
                replay_run(&store, &p, &book, Some(&mut sim), &mut cursor, None).unwrap()
            })
            .into();
        let source = CacheKey {
            component: chain(0).components()[0].key(),
            inputs: vec![],
        };
        let observed = format!(
            "executed={:?} reports={}",
            reports
                .iter()
                .map(RunReport::executed_count)
                .collect::<Vec<_>>(),
            serde_json::to_string(&reports).unwrap(),
        );
        (observed, book.pre_existing(&source).is_some())
    }

    /// A checkpoint phase 1 found counts as pre-existing only if no
    /// execution recorded in the book produced it. Tracing candidate 1
    /// before candidate 0 makes candidate 0 adopt the prefix candidate 1
    /// just produced — from the book, since tracing publishes nothing — so
    /// the replay charges the prefix to candidate 0, first in canonical
    /// order, exactly as when phase 1 runs in that order. A prefix a primer
    /// checkpointed was found with no profile: both candidates reuse it.
    #[test]
    fn found_checkpoints_are_pre_existing_unless_this_book_produced_them() {
        let (canonical, pre) = found_or_produced([0, 1], None);
        assert!(!pre, "nothing was checkpointed before phase 1");
        assert!(canonical.starts_with("executed=[3, 1] "), "{canonical}");
        let (reversed, pre) = found_or_produced([1, 0], None);
        assert!(!pre, "a sibling's checkpoint is not pre-existing");
        assert_eq!(reversed, canonical);

        let (primed, pre) = found_or_produced([1, 0], Some(9));
        assert!(pre, "found, and produced by no execution in the book");
        assert!(primed.starts_with("executed=[1, 1] "), "{primed}");
    }
}
