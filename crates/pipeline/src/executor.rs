//! Pipeline executor: runs bound pipelines, persists outputs, reuses
//! checkpointed results, and accounts virtual time per stage.
//!
//! The executor implements the mechanics every system in the evaluation
//! shares; the *policies* differ per system and are values of one
//! [`Policy`].
//!
//! There is one engine. `Executor::trace` executes a pipeline's nodes for
//! their results only — inline on the caller's thread at one worker, on a
//! pool above that — recording execution profiles and write traces, and
//! only reading the [`HistoryIndex`] it is given; the evaluation loop
//! ([`crate::search`]) follows it with the accounting replay in canonical
//! order (see [`crate::replay`]), so what a run charges never depends on
//! how it was scheduled, and [`Executor::run`] is that loop with one
//! candidate. Every component output is archived: the replay charges
//! storage from the write traces, and publishes the checkpoints it charged
//! into the history (`HistoryIndex::publish` is its one write).

use crate::artifact::Artifact;
use crate::clock::ClockSnapshot;
use crate::component::{ComponentHandle, ComponentKey, StageKind};
use crate::dag::BoundPipeline;
use crate::errors::{PipelineError, Result};
use crate::history::HistoryIndex;
use crate::parallel::{run_dag, NodeVerdict, ParallelismPolicy};
use crate::provenance::{schedulable, FrontierCut, Provenance};
use crate::replay::{Claim, ProfileBook, StageProfile};
use crate::schema::SchemaId;
use crate::search::{self, Candidate, Policy};
use mlcask_ml::metrics::Score;
use mlcask_storage::hash::Hash256;
use mlcask_storage::object::{ObjectKind, ObjectRef};
use mlcask_storage::store::ChunkStore;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Key identifying "this component version applied to these exact inputs".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Component version.
    pub component: ComponentKey,
    /// Content ids of the input artifacts, in edge order.
    pub inputs: Vec<Hash256>,
}

/// A checkpointed component output.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedOutput {
    /// Where the artifact bytes live.
    pub object: ObjectRef,
    /// Content id of the artifact.
    pub artifact_id: Hash256,
    /// Schema of the artifact.
    pub schema: SchemaId,
    /// Score if the artifact was a trained model.
    pub score: Option<Score>,
}

/// Per-stage record of one pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageReport {
    /// Which component version ran (or was reused).
    pub component: ComponentKey,
    /// Stage classification.
    pub stage: StageKind,
    /// True if the output came from the cache without execution.
    pub reused: bool,
    /// Virtual execution time charged.
    pub exec_ns: u64,
    /// Virtual storage time charged (writes + any materialising reads).
    pub storage_ns: u64,
    /// Archived output.
    pub output: ObjectRef,
    /// Content id of the output artifact.
    pub artifact_id: Hash256,
    /// Logical size of the output artifact in bytes (independent of the
    /// persisted blob encoding — used by archive-accounting harnesses).
    pub artifact_bytes: u64,
}

impl StageReport {
    /// The report of `comp` satisfied by checkpoint `hit` without running:
    /// no execution or storage time, the hit's output. Folds the hit's
    /// score into `score`, where the last score in topological order wins.
    pub(crate) fn reused(
        comp: &ComponentHandle,
        hit: &CachedOutput,
        score: &mut Option<Score>,
    ) -> StageReport {
        if let Some(s) = hit.score {
            *score = Some(s);
        }
        StageReport {
            component: comp.key(),
            stage: comp.stage(),
            reused: true,
            exec_ns: 0,
            storage_ns: 0,
            output: hit.object,
            artifact_id: hit.artifact_id,
            artifact_bytes: hit.object.len,
        }
    }
}

/// Outcome of a pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum RunOutcome {
    /// All stages completed; final model score attached.
    Completed {
        /// Score of the sink model artifact.
        score: Score,
    },
    /// A stage failed (the baselines' mid-run compatibility error).
    Failed {
        /// Component that failed.
        at: ComponentKey,
        /// Human-readable reason.
        reason: String,
    },
    /// MLCask's precheck refused to run a doomed pipeline.
    RejectedByPrecheck {
        /// Component whose input would be incompatible.
        at: ComponentKey,
    },
}

impl RunOutcome {
    /// The score if the run completed.
    pub fn score(&self) -> Option<Score> {
        match self {
            RunOutcome::Completed { score } => Some(*score),
            _ => None,
        }
    }

    /// True if the run completed successfully.
    pub fn is_completed(&self) -> bool {
        matches!(self, RunOutcome::Completed { .. })
    }
}

/// Full report of one pipeline run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-stage details in topological order (possibly truncated on
    /// failure).
    pub stages: Vec<StageReport>,
    /// Final outcome.
    pub outcome: RunOutcome,
    /// Virtual time the run charged: zero for a lookup or a rejection.
    pub clock: ClockSnapshot,
}

impl RunReport {
    /// Count of stages that actually executed (not reused).
    pub fn executed_count(&self) -> usize {
        self.stages.iter().filter(|s| !s.reused).count()
    }

    /// Count of stages satisfied from the cache.
    pub fn reused_count(&self) -> usize {
        self.stages.iter().filter(|s| s.reused).count()
    }
}

/// MLCask's precheck: the report of a pipeline whose declared schemas
/// cannot line up, rejected before anything executes (zero time charged)
/// at the node a run would fail at
/// ([`BoundPipeline::static_failure_node`], the frontier the scheduler
/// stops at), or `None` when it may run. Prechecking policies ask it
/// before tracing.
pub(crate) fn precheck(pipeline: &BoundPipeline) -> Option<RunReport> {
    let node = pipeline.static_failure_node().ok()??;
    Some(RunReport {
        stages: Vec::new(),
        outcome: RunOutcome::RejectedByPrecheck {
            at: pipeline.components()[node].key(),
        },
        clock: ClockSnapshot::default(),
    })
}

/// Runs bound pipelines against a [`ChunkStore`], implementing checkpoint
/// reuse, output archiving, virtual-time accounting, and wavefront
/// execution of independent nodes. Stateless apart from the store
/// reference — cheap to construct per run and safe to share across threads.
pub struct Executor<'s> {
    pub(crate) store: &'s ChunkStore,
}

/// Result of one completed node.
struct WaveSlot {
    cached: CachedOutput,
    /// In-memory output; `None` for cache hits until a successor
    /// materialises them from the store. Shared so sibling consumers can
    /// deep-copy it outside the slot lock.
    artifact: Option<Arc<Artifact>>,
}

/// Everything executing a pipeline's nodes leaves behind for the canonical
/// accounting replay.
struct WavefrontRun {
    /// Per-node results, indexed by node id; `None` for nodes never reached
    /// (at or beyond a failure frontier).
    slots: Vec<Mutex<Option<WaveSlot>>>,
    /// True if any node failed (statically predicted or observed live).
    failed: bool,
}

impl<'s> Executor<'s> {
    /// Creates an executor over a store.
    pub fn new(store: &'s ChunkStore) -> Self {
        Executor { store }
    }

    /// Runs a bound pipeline under `policy`: the evaluation loop
    /// ([`search::evaluate`]) with this one candidate, so a run is cut,
    /// prechecked, traced, replayed and published, as `policy` says,
    /// exactly as one candidate of a commit or a merge search is — at every
    /// worker count and DAG shape the report (its clock included), store
    /// statistics, and history are byte-identical however the nodes were
    /// scheduled (see [`crate::replay`]). Without a history nothing is
    /// looked up or published.
    ///
    /// *Expected* failures (schema incompatibility discovered mid-run) are
    /// reported in [`RunOutcome`] so callers can account for the time the
    /// failed run consumed — exactly what Fig. 5's last iteration measures.
    /// Infrastructure failures (storage faults, quota breaches, malformed
    /// DAGs) surface as `Err`, and leave no trace: nothing is charged to the
    /// tenant, no reservation stays open, and the `history` receives no
    /// checkpoint.
    pub fn run(
        &self,
        pipeline: &BoundPipeline,
        history: Option<&HistoryIndex>,
        policy: Policy,
    ) -> Result<RunReport> {
        let history = history.cloned().unwrap_or_default();
        // Only a cut and a publication read fingerprints.
        let provenance = match policy.cut || policy.publish {
            true => Provenance::of(pipeline)?,
            false => Provenance::unfingerprinted(pipeline)?,
        };
        let candidate = Arc::new(Candidate {
            pipeline: pipeline.clone(),
            provenance,
        });
        let keys = pipeline.components().iter().map(|c| c.key()).collect();
        let resolve = |_: &[ComponentKey]| Ok::<_, PipelineError>(Arc::clone(&candidate));
        let mut evaluated = search::evaluate(self, &history, policy, &mut [vec![keys]], resolve)?;
        Ok(evaluated.swap_remove(0).swap_remove(0).report)
    }

    /// Executes a bound pipeline for its *results only*, recording
    /// execution profiles and write traces into `book` instead of charging
    /// a clock or store statistics: nodes run inline on the caller's
    /// thread at one worker and on `policy`'s pool above that, composing
    /// with the engines' candidate- and trial-level fan-out via
    /// [`ParallelismPolicy::split`].
    ///
    /// This is phase 1 of the evaluation protocol (see [`crate::replay`]):
    /// many traces may execute concurrently against one `book`, which is
    /// all they write — `history` is only read. Each `(component, inputs)`
    /// key executes at most once per book: a node whose key another trace
    /// of the same book is executing, or already executed, adopts that
    /// execution's outcome ([`ProfileBook::claim`]), which hoists prefixes
    /// shared across candidates; the deterministic accounting, and the
    /// publication of checkpoints, happen afterwards via
    /// [`crate::replay::replay_run`] in canonical candidate order. A
    /// statically doomed pipeline executes up to its failure frontier,
    /// which the replay then reports as the failed stage.
    ///
    /// With a `cut` (see [`crate::provenance`]) — the caller's
    /// [`FrontierCut`] of this pipeline, computed before its search traced
    /// anything — only the dirty region below it is scheduled.
    /// Frontier-skipped nodes are recorded in `book` as found, so the
    /// replay still charges them as *reused*, and by the history's pairing
    /// invariant a full re-evaluation would have found the same outputs
    /// under their `CacheKey`s: reports (their clocks included) and tenant
    /// accounting stay byte-identical to it. A cut that covers the whole
    /// pipeline leaves nothing to schedule or replay: it is the pipeline's
    /// report ([`FrontierCut::report`]), and the loop answers it without
    /// calling this at all.
    ///
    /// Returns the final model score in canonical topological order, or
    /// `None` when the pipeline failed (adaptive searchers need the score
    /// before accounting runs).
    pub(crate) fn trace(
        &self,
        pipeline: &BoundPipeline,
        history: &HistoryIndex,
        book: &ProfileBook,
        policy: ParallelismPolicy,
        cut: Option<&FrontierCut>,
    ) -> Result<Option<Score>> {
        let order = pipeline.dag.topo_order()?;
        let fail_at = pipeline.static_failure_node()?;
        let traced = self.trace_nodes(pipeline, order, fail_at, history, book, policy, cut)?;
        // The final score is the last score in canonical topological order.
        let mut score: Option<Score> = None;
        if !traced.failed {
            for &node in order {
                if let Some(slot) = traced.slots[node].lock().as_ref() {
                    score = slot.cached.score.or(score);
                }
            }
        }
        Ok(score)
    }

    /// A checkpointed output as an in-memory artifact (results only; the
    /// replay charges the read in canonical order): from `history`'s decoded
    /// artifacts when it holds this blob, else fetched from the store,
    /// parsed, and offered to `history` so the next consumer — another
    /// merge candidate, a later commit — does neither.
    fn materialise(
        &self,
        checkpoint: &CachedOutput,
        history: &HistoryIndex,
    ) -> Result<Arc<Artifact>> {
        use mlcask_storage::errors::StorageError;
        if checkpoint.object.is_null() {
            return Err(StorageError::NotFound(checkpoint.artifact_id).into());
        }
        let blob = checkpoint.object.id;
        if let Some(held) = history.decoded(&blob) {
            return Ok(held);
        }
        let bytes = self.store.get_blob(&checkpoint.object)?;
        let artifact =
            Artifact::from_bytes(&bytes).map_err(|e| StorageError::Codec(e.to_string()))?;
        let artifact = Arc::new(artifact);
        history.keep_decoded(blob, &artifact);
        Ok(artifact)
    }

    /// The engine: executes the pipeline's nodes for their results only —
    /// inline on the caller's thread at one worker, on `policy`'s pool
    /// above that — recording execution profiles and write traces into
    /// `book`.
    ///
    /// * `order`, `fail_at` — the canonical topological order and
    ///   [`BoundPipeline::static_failure_node`], read once by the caller.
    /// * `lookup` — consulted (never written) before executing a node; a
    ///   hit skips execution. A miss claims the key in `book`
    ///   ([`ProfileBook::claim`]): a sibling's outcome is adopted, and the
    ///   owner executes the component.
    ///
    /// Every lookup hit and every frontier-cut node is recorded in `book` as
    /// found, which is all the replay's reuse simulation consults (see
    /// [`ProfileBook::pre_existing`]).
    ///
    /// Scheduling is bounded by the canonical failure frontier: nodes at or
    /// after `fail_at` (in topological order) are never dispatched, and the
    /// frontier node's failure is recorded in `book` so the replay stops
    /// exactly there.
    ///
    /// With a `cut`, the pipeline is additionally cut at the deepest cached
    /// provenance frontier *before* scheduling: cut nodes' slots are
    /// pre-filled from it and only the dirty region is dispatched (an
    /// induced sub-DAG schedule). The caller computed the cut before its
    /// search traced anything, so the skipped set is identical for every
    /// worker count.
    #[allow(clippy::too_many_arguments)]
    fn trace_nodes(
        &self,
        pipeline: &BoundPipeline,
        order: &[usize],
        fail_at: Option<usize>,
        lookup: &HistoryIndex,
        book: &ProfileBook,
        policy: ParallelismPolicy,
        cut: Option<&FrontierCut>,
    ) -> Result<WavefrontRun> {
        let _wave_span = mlcask_obs::span!(
            "exec.wavefront",
            "nodes" => pipeline.components().len(),
            "workers" => policy.workers(),
        );
        let allowed = schedulable(order, fail_at);
        let slots: Vec<Mutex<Option<WaveSlot>>> =
            (0..order.len()).map(|_| Mutex::new(None)).collect();
        // Pre-fill frontier-skipped nodes' results. Their `CacheKey`s are
        // reconstructible because the cut is downward-closed: every
        // predecessor of a cut node is itself cut, so its artifact id is at
        // hand without touching the store.
        if let Some(cut) = cut {
            for &node in order {
                let Some(cached) = &cut.cached[node] else {
                    continue;
                };
                let inputs: Vec<Hash256> = pipeline
                    .dag
                    .pre(node)
                    .iter()
                    .map(|&p| {
                        cut.cached[p]
                            .as_ref()
                            .expect("frontier cut is downward-closed")
                            .artifact_id
                    })
                    .collect();
                let key = CacheKey {
                    component: pipeline.components()[node].key(),
                    inputs,
                };
                book.record_found(key, cached.clone());
                *slots[node].lock() = Some(WaveSlot {
                    cached: cached.clone(),
                    artifact: None,
                });
            }
        }
        // Induced dirty-region schedule: cut nodes are never dispatched
        // (sentinel indegree) and dirty nodes wait only on dirty
        // predecessors; edges touching cut nodes drop out entirely.
        let induced: Vec<Vec<usize>>;
        let (indeg, adjacency): (Vec<usize>, &[Vec<usize>]) = match cut {
            Some(cut) if cut.skipped > 0 => {
                let mut indeg = vec![0usize; order.len()];
                let mut adj: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
                for (node, deg) in indeg.iter_mut().enumerate() {
                    if cut.cached[node].is_some() {
                        *deg = 1;
                        continue;
                    }
                    for &p in pipeline.dag.pre(node) {
                        if cut.cached[p].is_none() {
                            *deg += 1;
                            adj[p].push(node);
                        }
                    }
                }
                induced = adj;
                (indeg, &induced)
            }
            _ => (pipeline.dag.indegrees().to_vec(), pipeline.dag.adjacency()),
        };
        let dynamic_failure = AtomicBool::new(false);

        // At most one node of the longest dependency chain is ready at any
        // moment, so no pool keeps more than `nodes - longest + 1` workers
        // busy. A chain therefore runs inline on the caller's thread
        // whatever the policy grants — no idle threads, and its artifacts
        // stay in the caller's allocator arena.
        let priority = pipeline.dag.critical_path_lengths();
        let longest = priority.iter().copied().max().unwrap_or(1) as usize;
        let pool = policy.workers().min(order.len() + 1 - longest).max(1);
        run_dag(
            ParallelismPolicy::Parallel(pool),
            indeg,
            adjacency,
            priority,
            |node| -> Result<NodeVerdict> {
                if !allowed[node] {
                    // Beyond the failure frontier: never executes, but its
                    // (equally excluded) successors must still be released
                    // so the scheduler drains.
                    return Ok(NodeVerdict::Continue);
                }
                let comp = &pipeline.components()[node];
                let preds = pipeline.dag.pre(node);
                let input_ids: Vec<Hash256> = preds
                    .iter()
                    .map(|p| {
                        slots[*p]
                            .lock()
                            .as_ref()
                            .expect("predecessors complete before their successors run")
                            .cached
                            .artifact_id
                    })
                    .collect();
                let key = CacheKey {
                    component: comp.key(),
                    inputs: input_ids,
                };

                if let Some(hit) = lookup.get(&key) {
                    book.record_found(key, hit.clone());
                    *slots[node].lock() = Some(WaveSlot {
                        cached: hit,
                        artifact: None,
                    });
                    return Ok(NodeVerdict::Continue);
                }
                // One execution per key: another trace of this book (a
                // sibling candidate, or another trial) that executes, or
                // executed, the key hands over its outcome.
                let owner = match book.claim(&key) {
                    Claim::Produced(cached) => {
                        *slots[node].lock() = Some(WaveSlot {
                            cached,
                            artifact: None,
                        });
                        return Ok(NodeVerdict::Continue);
                    }
                    Claim::Failed => {
                        dynamic_failure.store(true, Ordering::Relaxed);
                        return Ok(NodeVerdict::SkipSuccessors);
                    }
                    Claim::Owner(owner) => owner,
                };

                // Materialise checkpointed inputs (results only; the replay
                // charges the read costs in canonical order). Each slot lock
                // is held only to obtain the shared handle; the deep copy
                // handed to the component happens outside it, so sibling
                // consumers of one input do not serialize on its lock.
                let mut input_handles: Vec<Arc<Artifact>> = Vec::with_capacity(preds.len());
                for p in preds {
                    let mut slot = slots[*p].lock();
                    let slot = slot.as_mut().expect("topological order");
                    if slot.artifact.is_none() {
                        slot.artifact = Some(self.materialise(&slot.cached, lookup)?);
                    }
                    input_handles.push(Arc::clone(
                        slot.artifact.as_ref().expect("just materialised"),
                    ));
                }
                let input_artifacts: Vec<Artifact> =
                    input_handles.iter().map(|a| (**a).clone()).collect();

                let work = comp.work_units(&input_artifacts);
                let exec_ns = work.saturating_mul(comp.ns_per_unit());
                // Telemetry only: duration feeds the flight recorder, never
                // the accounting (that uses the deterministic virtual clock).
                let _node_span = mlcask_obs::span!("exec.node", "component" => comp.key());
                match comp.run(&input_artifacts) {
                    Ok(artifact) => {
                        let kind = match comp.stage() {
                            StageKind::ModelTraining => ObjectKind::Model,
                            _ => ObjectKind::Output,
                        };
                        // The one encoding of this artifact: what is stored,
                        // and what its id and length below are taken from.
                        let (put, trace) =
                            self.store.put_blob_traced(kind, &artifact.to_bytes())?;
                        let artifact = Arc::new(artifact);
                        let cached = CachedOutput {
                            object: put.object,
                            artifact_id: artifact.content_id(),
                            schema: artifact.schema(),
                            score: artifact.score(),
                        };
                        lookup.keep_decoded(cached.object.id, &artifact);
                        let profile = StageProfile {
                            cached: cached.clone(),
                            artifact_bytes: artifact.byte_len(),
                            exec_ns,
                            write: Some(trace),
                        };
                        *slots[node].lock() = Some(WaveSlot {
                            cached,
                            artifact: Some(artifact),
                        });
                        owner.record(profile);
                        Ok(NodeVerdict::Continue)
                    }
                    Err(PipelineError::IncompatibleSchema(_)) => {
                        // A component whose run-time check contradicts its
                        // declared schemas — invisible to the static
                        // frontier. Record it and prune its descendants;
                        // independent nodes keep running so the executed set
                        // stays deterministic.
                        owner.fail();
                        dynamic_failure.store(true, Ordering::Relaxed);
                        Ok(NodeVerdict::SkipSuccessors)
                    }
                    // A hard error drops `owner` unsettled, which un-claims
                    // the key so a waiter claims and executes it itself.
                    Err(e) => Err(e),
                }
            },
        )?;

        // Record the statically predicted failure so the replay (and the
        // engines' score accounting) stops at the canonical node. Skipped if
        // a dynamic failure upstream already prevented the frontier node's
        // inputs from existing — the replay stops at that earlier node.
        let mut failed = dynamic_failure.load(Ordering::Relaxed);
        if let Some(fail) = fail_at {
            failed = true;
            let inputs: Option<Vec<Hash256>> = pipeline
                .dag
                .pre(fail)
                .iter()
                .map(|p| slots[*p].lock().as_ref().map(|s| s.cached.artifact_id))
                .collect();
            if let Some(inputs) = inputs {
                book.record_failure(CacheKey {
                    component: pipeline.components()[fail].key(),
                    inputs,
                });
            }
        }
        Ok(WavefrontRun { slots, failed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::codec_log;
    use crate::component::test_support::{TestBranch, TestJoin, TestModel, TestScaler, TestSource};
    use crate::component::ComponentHandle;
    use crate::dag::PipelineDag;
    use crate::provenance::DERIVATIONS;
    use crate::replay::{replay_run, CacheSnapshot};
    use crate::semver::SemVer;
    use std::collections::HashMap;
    use std::time::Duration;

    fn pipeline(scale_factor: f32, scaler_out: usize, model_in: usize) -> BoundPipeline {
        let dag =
            Arc::new(PipelineDag::chain(&["test_source", "test_scaler", "test_model"]).unwrap());
        let comps: Vec<ComponentHandle> = vec![
            Arc::new(TestSource {
                version: SemVer::initial(),
                dim: 3,
                rows: 8,
            }),
            Arc::new(TestScaler {
                version: SemVer::initial(),
                dim_in: 3,
                dim_out: scaler_out,
                factor: scale_factor,
            }),
            Arc::new(TestModel {
                version: SemVer::initial(),
                dim_in: model_in,
                quality: 0.3,
            }),
        ];
        BoundPipeline::new(dag, comps).unwrap()
    }

    /// ModelDB's run, with no history, derives no fingerprint: nothing
    /// cuts or publishes. A run that cuts derives one set.
    #[test]
    fn a_run_that_neither_cuts_nor_publishes_derives_no_fingerprints() {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let p = pipeline(2.0, 3, 3);
        let derived = |policy| {
            let before = DERIVATIONS.with(|n| n.get());
            exec.run(&p, None, policy).unwrap();
            DERIVATIONS.with(|n| n.get()) - before
        };
        assert_eq!(derived(Policy::RERUN_ALL), 0);
        assert_eq!(derived(Policy::MLCASK), 1);
    }

    #[test]
    fn completes_and_scores() {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let report = exec
            .run(&pipeline(2.0, 3, 3), None, Policy::RERUN_ALL)
            .unwrap();
        assert!(report.outcome.is_completed());
        assert_eq!(report.stages.len(), 3);
        assert_eq!(report.executed_count(), 3);
        assert!(report.clock.exec_ns() > 0);
        assert!(report.clock.storage_ns > 0);
        // Each stage archived an output.
        assert!(report.stages.iter().all(|s| !s.output.is_null()));
    }

    #[test]
    fn reuse_skips_execution_on_second_run() {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let cache = HistoryIndex::new();
        let p = pipeline(2.0, 3, 3);
        let first = exec.run(&p, Some(&cache), Policy::MLCASK).unwrap();
        assert_eq!(first.executed_count(), 3);
        let second = exec.run(&p, Some(&cache), Policy::MLCASK).unwrap();
        assert_eq!(second.executed_count(), 0);
        assert_eq!(second.reused_count(), 3);
        assert_eq!(
            second.clock.total_ns(),
            0,
            "full reuse charges zero additional time"
        );
        // Scores propagate through reuse.
        assert_eq!(
            second.outcome.score().unwrap().raw,
            first.outcome.score().unwrap().raw
        );
    }

    #[test]
    fn partial_reuse_materialises_from_store() {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let cache = HistoryIndex::new();
        let p1 = pipeline(2.0, 3, 3);
        exec.run(&p1, Some(&cache), Policy::MLCASK).unwrap();
        // Same source+scaler, different model quality → prefix reused, model
        // re-executed from the materialised scaler output.
        let dag = Arc::clone(&p1.dag);
        let comps: Vec<ComponentHandle> = vec![
            p1.components()[0].clone(),
            p1.components()[1].clone(),
            Arc::new(TestModel {
                version: SemVer::master(0, 1),
                dim_in: 3,
                quality: 0.9,
            }),
        ];
        let p2 = BoundPipeline::new(dag, comps).unwrap();
        let report = exec.run(&p2, Some(&cache), Policy::MLCASK).unwrap();
        assert_eq!(report.reused_count(), 2);
        assert_eq!(report.executed_count(), 1);
        assert!(
            report.clock.storage_ns > 0,
            "materialising the checkpointed input costs storage time"
        );
        assert!(report.outcome.is_completed());
    }

    #[test]
    fn precheck_rejects_without_charging_time() {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        // Scaler widens to 5 dims, model expects 3 → statically doomed.
        let doomed = pipeline(1.0, 5, 3);
        let report = exec.run(&doomed, None, Policy::MLCASK).unwrap();
        assert!(matches!(
            report.outcome,
            RunOutcome::RejectedByPrecheck { .. }
        ));
        assert!(report.stages.is_empty());
        assert_eq!(report.clock, ClockSnapshot::default());
    }

    /// The precheck names the node a run fails at — the first in canonical
    /// topological order whose input a predecessor's output is rejected
    /// by — not the first mismatching edge in insertion order. Here
    /// `test_join` rejects `b1` on the DAG's second edge, but `b2`, which
    /// rejects the source, comes first in the order the scheduler walks.
    #[test]
    fn the_precheck_names_the_node_a_run_fails_at() {
        let dag = Arc::new(PipelineDag::fan("test_source", &["b1", "b2"], "test_join").unwrap());
        let branch = |name, dim| -> ComponentHandle {
            Arc::new(TestBranch {
                name,
                version: SemVer::initial(),
                dim,
                factor: 1.0,
                spin: 0,
            })
        };
        let comps: Vec<ComponentHandle> = vec![
            Arc::new(TestSource {
                version: SemVer::initial(),
                dim: 4,
                rows: 8,
            }),
            branch("b1", 4),
            branch("b2", 5),
            Arc::new(TestJoin {
                version: SemVer::initial(),
                dim_in: 5,
                dim_out: 5,
            }),
        ];
        let doomed = BoundPipeline::new(dag, comps).unwrap();
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let failed_at = |report: RunReport| match report.outcome {
            RunOutcome::RejectedByPrecheck { at } | RunOutcome::Failed { at, .. } => at.name,
            o => panic!("expected a failure, got {o:?}"),
        };
        for policy in [Policy::MLCASK, Policy::RERUN_ALL] {
            let report = exec.run(&doomed, None, policy).unwrap();
            assert_eq!(failed_at(report), "b2", "{policy:?}");
        }
    }

    #[test]
    fn without_precheck_fails_midway_after_spending_time() {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let doomed = pipeline(1.0, 5, 3);
        let report = exec.run(&doomed, None, Policy::RERUN_ALL).unwrap();
        match &report.outcome {
            RunOutcome::Failed { at, .. } => assert_eq!(at.name, "test_model"),
            o => panic!("expected failure, got {o:?}"),
        }
        // Source and scaler ran (and were paid for) before the failure.
        assert_eq!(report.stages.len(), 2);
        assert!(report.clock.exec_ns() > 0);
    }

    /// A report's clock is what its stages charged, per stage kind. A run
    /// that fails mid-way also paid to materialise the failing stage's
    /// inputs, which no stage reports; a rejection and a full cut charged
    /// nothing.
    #[test]
    fn a_reports_clock_is_what_its_stages_charged() {
        let staged = |report: &RunReport| {
            let mut sum = ClockSnapshot::default();
            for s in &report.stages {
                sum.charge_exec(s.stage, Duration::from_nanos(s.exec_ns));
                sum.charge_storage(Duration::from_nanos(s.storage_ns));
            }
            sum
        };
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let cache = HistoryIndex::new();
        let p = pipeline(2.0, 3, 3);
        let published = Policy {
            publish: true,
            ..Policy::RERUN_ALL
        };
        let cold = exec.run(&p, Some(&cache), published).unwrap();
        assert_eq!(cold.executed_count(), 3);
        // A new model over the checkpointed prefix reads the scaler's output.
        let model = TestModel {
            version: SemVer::master(0, 1),
            dim_in: 3,
            quality: 0.9,
        };
        let partial = replacing(&p, 2, Arc::new(model));
        let partial = exec.run(&partial, Some(&cache), Policy::MLCASK).unwrap();
        assert_eq!(partial.reused_count(), 2);
        for report in [&cold, &partial] {
            assert!(report.outcome.is_completed());
            assert_eq!(report.clock, staged(report));
        }

        // The doomed model's input is in memory on the first run, and read
        // from the scaler's checkpoint on the second.
        let doomed = pipeline(1.0, 5, 3);
        let doomed_cache = HistoryIndex::new();
        for warm in [false, true] {
            let report = exec
                .run(&doomed, Some(&doomed_cache), Policy::REUSE_ONLY)
                .unwrap();
            assert!(matches!(report.outcome, RunOutcome::Failed { .. }));
            assert_eq!(report.stages.len(), 2);
            assert!(report.stages.iter().all(|s| s.reused == warm));
            let materialised = match warm {
                true => store.read_cost(&report.stages[1].output).as_nanos() as u64,
                false => 0,
            };
            let sum = staged(&report);
            let expected = ClockSnapshot {
                storage_ns: sum.storage_ns + materialised,
                ..sum
            };
            assert!(report.clock.storage_ns > 0);
            assert_eq!(report.clock, expected, "warm={warm}");
        }

        let rejected = exec.run(&doomed, None, Policy::MLCASK).unwrap();
        assert!(matches!(
            rejected.outcome,
            RunOutcome::RejectedByPrecheck { .. }
        ));
        let cut = FrontierCut::against(&p, &Provenance::of(&p).unwrap(), &cache).unwrap();
        let looked_up = cut.report(&p).expect("the cold run published every stage");
        for report in [rejected, looked_up] {
            assert_eq!(report.clock, ClockSnapshot::default());
        }
    }

    #[test]
    fn no_reuse_policy_ignores_cache() {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let cache = HistoryIndex::new();
        let p = pipeline(2.0, 3, 3);
        exec.run(&p, Some(&cache), Policy::RERUN_ALL).unwrap();
        let second = exec.run(&p, Some(&cache), Policy::RERUN_ALL).unwrap();
        assert_eq!(second.executed_count(), 3, "ModelDB reruns everything");
    }

    #[test]
    fn duplicate_outputs_dedup_in_store() {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let p = pipeline(2.0, 3, 3);
        exec.run(&p, None, Policy::RERUN_ALL).unwrap();
        let physical_after_first = store.physical_bytes();
        exec.run(&p, None, Policy::RERUN_ALL).unwrap();
        // Identical outputs → chunk store stores nothing new.
        assert_eq!(store.physical_bytes(), physical_after_first);
        // But logical bytes doubled (ModelDB-style accounting).
        assert!(store.stats().total().logical_bytes >= 2 * physical_after_first / 2);
    }

    /// Fan DAG: source → one branch per name → join → model, `dim` wide
    /// throughout; the join *declares* `join_in`-dim inputs, so anything but
    /// `dim` dooms it mid-DAG. Two branches make the classic diamond.
    fn fan(
        branches: &[&'static str],
        dim: usize,
        join_in: usize,
        model: TestModel,
    ) -> BoundPipeline {
        use crate::component::test_support::{TestBranch, TestJoin};
        let mut dag = PipelineDag::new();
        dag.add_node("test_source").unwrap();
        for b in branches {
            dag.add_node(b).unwrap();
        }
        dag.add_node("test_join").unwrap();
        dag.add_node("test_model").unwrap();
        for b in branches {
            dag.add_edge("test_source", b).unwrap();
            dag.add_edge(b, "test_join").unwrap();
        }
        dag.add_edge("test_join", "test_model").unwrap();
        let mut comps: Vec<ComponentHandle> = vec![Arc::new(TestSource {
            version: SemVer::initial(),
            dim,
            rows: 8,
        })];
        for (i, &name) in branches.iter().enumerate() {
            comps.push(Arc::new(TestBranch {
                name,
                version: SemVer::initial(),
                dim,
                factor: 2.0 + i as f32,
                spin: 0,
            }));
        }
        comps.push(Arc::new(TestJoin {
            version: SemVer::initial(),
            dim_in: join_in,
            dim_out: dim,
        }));
        comps.push(Arc::new(model));
        BoundPipeline::new(Arc::new(dag), comps).unwrap()
    }

    /// Per-node output of the reference walk: always the metadata, lazily
    /// the bytes.
    struct NodeOutput {
        cached: CachedOutput,
        in_memory: Option<Artifact>,
    }

    /// The oracle: the strictly sequential executor this crate shipped
    /// before [`Executor::run`] became trace + replay — one node at a time
    /// in canonical topological order, charging the report's clock and the
    /// store as it goes. Kept verbatim so the accounting replay is checked
    /// against an independent implementation of the same walk, not against
    /// itself.
    fn reference_run(
        store: &ChunkStore,
        pipeline: &BoundPipeline,
        cache: Option<&HistoryIndex>,
        options: Policy,
    ) -> Result<RunReport> {
        let order = pipeline.dag.topo_order()?;
        let mut stages: Vec<StageReport> = Vec::with_capacity(order.len());
        let mut clock = ClockSnapshot::default();

        if options.precheck {
            // Rejected before any execution: zero time charged.
            if let Some(rejected) = precheck(pipeline) {
                return Ok(rejected);
            }
        }

        let mut outputs: HashMap<usize, NodeOutput> = HashMap::new();
        let mut final_score: Option<Score> = None;

        for &node in order {
            let comp = &pipeline.components()[node];
            let preds = pipeline.dag.pre(node);
            let input_ids: Vec<Hash256> = preds
                .iter()
                .map(|p| outputs[p].cached.artifact_id)
                .collect();
            let key = CacheKey {
                component: comp.key(),
                inputs: input_ids,
            };

            // Reuse path: checkpoint hit costs nothing to "run".
            if options.reuse {
                if let Some(hit) = cache.and_then(|c| c.get(&key)) {
                    stages.push(StageReport {
                        component: comp.key(),
                        stage: comp.stage(),
                        reused: true,
                        exec_ns: 0,
                        storage_ns: 0,
                        output: hit.object,
                        artifact_id: hit.artifact_id,
                        artifact_bytes: hit.object.len,
                    });
                    if let Some(s) = hit.score {
                        final_score = Some(s);
                    }
                    outputs.insert(
                        node,
                        NodeOutput {
                            cached: hit,
                            in_memory: None,
                        },
                    );
                    continue;
                }
            }

            // Materialise inputs that only exist as checkpoints.
            let mut input_artifacts: Vec<Artifact> = Vec::with_capacity(preds.len());
            let mut materialise_ns: u64 = 0;
            for p in preds {
                let out = outputs.get_mut(p).expect("topological order");
                if out.in_memory.is_none() {
                    if out.cached.object.is_null() {
                        return Err(PipelineError::Storage(
                            mlcask_storage::errors::StorageError::NotFound(out.cached.artifact_id),
                        ));
                    }
                    let bytes = store.get_blob(&out.cached.object)?;
                    materialise_ns += store.read_cost(&out.cached.object).as_nanos() as u64;
                    let artifact = Artifact::from_bytes(&bytes).map_err(|e| {
                        PipelineError::Storage(mlcask_storage::errors::StorageError::Codec(
                            e.to_string(),
                        ))
                    })?;
                    out.in_memory = Some(artifact);
                }
                input_artifacts.push(out.in_memory.clone().expect("just materialised"));
            }
            if materialise_ns > 0 {
                clock.charge_storage(Duration::from_nanos(materialise_ns));
            }

            // Execute.
            let work = comp.work_units(&input_artifacts);
            let exec_ns = work.saturating_mul(comp.ns_per_unit());
            match comp.run(&input_artifacts) {
                Ok(artifact) => {
                    clock.charge_exec(comp.stage(), Duration::from_nanos(exec_ns));
                    let artifact_id = artifact.content_id();
                    let score = artifact.score();
                    if let Some(s) = score {
                        final_score = Some(s);
                    }
                    let kind = match comp.stage() {
                        StageKind::ModelTraining => ObjectKind::Model,
                        _ => ObjectKind::Output,
                    };
                    let put = store.put_blob(kind, &artifact.to_bytes())?;
                    clock.charge_storage(put.cost);
                    let (object, storage_ns) = (put.object, put.cost.as_nanos() as u64);
                    let cached = CachedOutput {
                        object,
                        artifact_id,
                        schema: artifact.schema(),
                        score,
                    };
                    if let Some(c) = cache {
                        c.insert(key, cached.clone());
                    }
                    stages.push(StageReport {
                        component: comp.key(),
                        stage: comp.stage(),
                        reused: false,
                        exec_ns,
                        storage_ns: storage_ns + materialise_ns,
                        output: cached.object,
                        artifact_id,
                        artifact_bytes: artifact.byte_len(),
                    });
                    outputs.insert(
                        node,
                        NodeOutput {
                            cached,
                            in_memory: Some(artifact),
                        },
                    );
                }
                Err(PipelineError::IncompatibleSchema(detail)) => {
                    // The failing component still consumed its execution
                    // attempt time up to the failure point (the baselines
                    // "run the pipeline until the compatibility error
                    // occurs"); prior stages' costs are already charged.
                    let at = detail.component.clone();
                    return Ok(RunReport {
                        stages,
                        outcome: RunOutcome::Failed {
                            reason: format!("schema incompatibility at {at}"),
                            at,
                        },
                        clock,
                    });
                }
                Err(e) => return Err(e),
            }
        }

        match final_score {
            Some(score) => Ok(RunReport {
                stages,
                outcome: RunOutcome::Completed { score },
                clock,
            }),
            None => Err(PipelineError::NoScore),
        }
    }

    /// One oracle-table pipeline: `shape` ending in `model`. Every variant
    /// of one shape shares its whole prefix, so a cache warmed by one
    /// variant serves the others' prefixes.
    fn shaped(shape: &str, model: TestModel) -> BoundPipeline {
        match shape {
            "chain" => {
                let dag = PipelineDag::chain(&["test_source", "test_scaler", "test_model"]);
                let mut comps = pipeline(2.0, 3, 3).components().to_vec();
                comps[2] = Arc::new(model);
                BoundPipeline::new(Arc::new(dag.unwrap()), comps).unwrap()
            }
            "diamond" => fan(&["left", "right"], 3, 3, model),
            "fan8" => fan(
                &["b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"],
                3,
                3,
                model,
            ),
            other => panic!("unknown shape {other}"),
        }
    }

    /// Room for every artifact a test makes.
    const ROOMY: u64 = 1 << 20;
    /// Room for two or three of the test artifacts (300–500 bytes each), so
    /// the hand keeps evicting.
    const CRAMPED: u64 = 1200;

    /// Every observable of one run of `subject` on a fresh store, through
    /// the reference walk (`workers == None`) or [`Executor::run`], the
    /// evaluation loop. `cache` is `"none"`, `"cold"`, or `"warm"`: primed by
    /// a run of `primer` — a reference walk, or with a decoded-artifact cache
    /// of `decoded_budget` bytes the engine itself, so that the cache starts
    /// out holding what the primer produced (`None` keeps no decoded
    /// artifacts; only an engine primer publishes fingerprints, so only it
    /// gives a cut anything to cut). The reference walk records what it
    /// executes into any cache it is given, so the engine publishes there
    /// too. The second value is the decoded-artifact cache's `[hits,
    /// misses, evictions]`, the fourth the nodes the subject's frontier cut
    /// skips under `options`.
    fn observe(
        subject: &BoundPipeline,
        primer: &BoundPipeline,
        options: Policy,
        cache: &str,
        workers: Option<usize>,
        decoded_budget: Option<u64>,
    ) -> (String, [u64; 3], RunOutcome, usize) {
        let store = ChunkStore::in_memory_small();
        let checkpoints = HistoryIndex::with_decoded_budget(decoded_budget.unwrap_or(0));
        let engine = Policy {
            publish: true,
            ..options
        };
        if cache == "warm" {
            let primed = match decoded_budget {
                None => reference_run(&store, primer, Some(&checkpoints), options),
                Some(_) => Executor::new(&store).run(primer, Some(&checkpoints), engine),
            };
            assert!(primed.unwrap().outcome.is_completed());
        }
        let cache_arg = (cache != "none").then_some(&checkpoints);
        let cut_nodes = match cache_arg {
            Some(history) if options.cut => {
                FrontierCut::against(subject, &Provenance::of(subject).unwrap(), history)
                    .unwrap()
                    .skipped
            }
            _ => 0,
        };
        let report = match workers {
            None => reference_run(&store, subject, cache_arg, options),
            Some(n) => Executor::new(&store).run(
                subject,
                cache_arg,
                engine.with_parallelism(ParallelismPolicy::Parallel(n)),
            ),
        }
        .unwrap();
        let observed = format!(
            "report={} stats={} physical={} cache_len={}",
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&store.stats()).unwrap(),
            store.physical_bytes(),
            checkpoints.snapshot().len(),
        );
        (
            observed,
            checkpoints.decoded_counts(),
            report.outcome,
            cut_nodes,
        )
    }

    /// The evaluation loop against the oracle, over every combination of
    /// DAG shape, policy, cache state, and pipeline health, at workers
    /// {1, 2, 8} — with the cache keeping no decoded artifacts, all of
    /// them, or too few, and the two history-backed policies both with and
    /// without their frontier cut.
    #[test]
    fn run_matches_reference_walk_at_every_worker_count() {
        let model = |inc: u32, dim_in: usize, quality: f64| TestModel {
            version: SemVer::master(0, inc),
            dim_in,
            quality,
        };
        let policies = [
            ("MLCASK", Policy::MLCASK),
            ("REUSE_ONLY", Policy::REUSE_ONLY),
            ("RERUN_ALL", Policy::RERUN_ALL),
        ];
        let (mut completed, mut failed, mut rejected) = (0, 0, 0);
        let mut census_cut = (0, 0, 0);
        let (mut decoded_hits, mut decoded_evictions, mut cut_nodes) = (0, 0, 0);
        for shape in ["chain", "diamond", "fan8"] {
            let primer = shaped(shape, model(1, 3, 0.9));
            for (policy, options) in policies {
                for cache in ["none", "cold", "warm"] {
                    // Healthy, or doomed: a model declaring a 5-dim input
                    // behind a 3-dim producer — a precheck rejection under
                    // a prechecking policy, a static schema failure at the
                    // model otherwise.
                    for doomed in [false, true] {
                        let subject = if doomed {
                            shaped(shape, model(2, 5, 0.3))
                        } else {
                            shaped(shape, model(0, 3, 0.3))
                        };
                        let cell = format!("{shape}/{policy}/{cache}/doomed={doomed}");
                        let (expected, _, outcome, _) =
                            observe(&subject, &primer, options, cache, None, None);
                        let census = |(completed, failed, rejected): &mut (i32, i32, i32)| match (
                            &outcome,
                            doomed,
                            options.precheck,
                        ) {
                            (RunOutcome::Completed { .. }, false, _) => *completed += 1,
                            (RunOutcome::Failed { .. }, true, false) => *failed += 1,
                            (RunOutcome::RejectedByPrecheck { .. }, true, true) => *rejected += 1,
                            other => panic!("{cell}: unexpected reference outcome {other:?}"),
                        };
                        let mut uncut = (completed, failed, rejected);
                        census(&mut uncut);
                        (completed, failed, rejected) = uncut;
                        // The reference walk never cuts; the loop must match
                        // it whether or not it cuts first.
                        let cuts: &[bool] = if options.reuse {
                            census(&mut census_cut);
                            &[false, true]
                        } else {
                            &[false]
                        };
                        for &cut in cuts {
                            let options = Policy { cut, ..options };
                            for workers in [1, 2, 8] {
                                for decoded in [None, Some(ROOMY), Some(CRAMPED)] {
                                    let (got, [hits, _, evictions], _, skipped) = observe(
                                        &subject,
                                        &primer,
                                        options,
                                        cache,
                                        Some(workers),
                                        decoded,
                                    );
                                    assert_eq!(
                                        got, expected,
                                        "{cell} diverged at {workers} workers, decoded \
                                         {decoded:?}, cut={cut}"
                                    );
                                    decoded_hits += hits;
                                    decoded_evictions += evictions;
                                    cut_nodes += skipped;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert_eq!((completed, failed, rejected), (27, 18, 9));
        assert_eq!(census_cut, (18, 9, 9), "the cells run with the cut too");
        // The table did cross every path it exists for.
        assert!(decoded_hits > 0 && decoded_evictions > 0);
        assert!(cut_nodes > 0, "no cell cut anything");
    }

    /// A failure *inside* the DAG: the join declares 5-dim inputs behind
    /// 3-dim branches, so both branches are charged, the join fails, and
    /// the model behind it is never reached — at every worker count.
    #[test]
    fn diamond_mid_dag_failure_matches_reference_walk() {
        let model = TestModel {
            version: SemVer::initial(),
            dim_in: 3,
            quality: 0.3,
        };
        let doomed = fan(&["left", "right"], 3, 5, model);
        let (expected, _, outcome, _) =
            observe(&doomed, &doomed, Policy::RERUN_ALL, "cold", None, None);
        match outcome {
            RunOutcome::Failed { at, .. } => assert_eq!(at.name, "test_join"),
            other => panic!("expected a failure at the join, got {other:?}"),
        }
        for workers in [1, 2, 8] {
            let (got, _, _, _) = observe(
                &doomed,
                &doomed,
                Policy::RERUN_ALL,
                "cold",
                Some(workers),
                Some(CRAMPED),
            );
            assert_eq!(
                got, expected,
                "failure path with {workers} workers diverged"
            );
        }
    }

    /// `shape` over a source no other test uses (`rows` picks it) and a
    /// model weak enough that its score — hence its artifact — differs with
    /// the data: every artifact of the pipeline is this caller's alone, so
    /// the codec log counts only this caller's work on it.
    fn private_pipeline(shape: &str, rows: usize, model_inc: u32) -> BoundPipeline {
        let model = TestModel {
            version: SemVer::master(0, model_inc),
            dim_in: 3,
            quality: 0.001 * (model_inc + 1) as f64,
        };
        let source = TestSource {
            version: SemVer::initial(),
            dim: 3,
            rows,
        };
        replacing(&shaped(shape, model), 0, Arc::new(source))
    }

    /// `p` with `component` bound to `slot` instead (same name, so the
    /// binding still lines up).
    fn replacing(p: &BoundPipeline, slot: usize, component: ComponentHandle) -> BoundPipeline {
        let mut comps = p.components().to_vec();
        comps[slot] = component;
        BoundPipeline::new(Arc::clone(&p.dag), comps).unwrap()
    }

    /// An artifact is encoded when it is produced and never again — not for
    /// its id, not for its length, not by the `work_units` of the nodes that
    /// consume it — and a checkpoint this process made is never parsed,
    /// however many later runs reuse it.
    #[test]
    fn produced_artifacts_are_encoded_once_and_never_parsed() {
        for (s, shape) in ["chain", "diamond", "fan8"].into_iter().enumerate() {
            for (w, workers) in [1, 2, 8].into_iter().enumerate() {
                let rows = 100 + 3 * s + w;
                let store = ChunkStore::in_memory_small();
                let cache = HistoryIndex::with_decoded_budget(ROOMY);
                let options = Policy::MLCASK.with_parallelism(ParallelismPolicy::Parallel(workers));
                let run = |model_inc| {
                    Executor::new(&store)
                        .run(
                            &private_pipeline(shape, rows, model_inc),
                            Some(&cache),
                            options,
                        )
                        .unwrap()
                };
                let first = run(0);
                assert_eq!(first.executed_count(), first.stages.len());
                // Two more models over the same prefix: each reuses every
                // checkpoint but the last and feeds its model from one.
                let later: Vec<RunReport> = vec![run(1), run(2)];
                for report in later.iter().chain([&first]) {
                    for stage in &report.stages {
                        assert_eq!(
                            codec_log::counts(&stage.artifact_id),
                            [1, 0],
                            "{shape} at {workers} workers: {} ({})",
                            stage.component,
                            if stage.reused { "reused" } else { "executed" },
                        );
                    }
                }
                assert!(later.iter().all(|r| r.executed_count() == 1));
                let [hits, misses, _] = cache.decoded_counts();
                assert_eq!((hits, misses), (2, 0), "{shape} at {workers} workers");
            }
        }
    }

    /// A checkpoint that exists only in the store — made by an earlier
    /// process — is parsed by the first merge candidate that needs it and by
    /// no other: once per process, not once per candidate. (Without the
    /// decoded-artifact cache it is once per candidate, which is what the
    /// `None` row shows this test can see.)
    #[test]
    fn a_stored_checkpoint_is_parsed_once_for_all_candidates() {
        const CANDIDATES: u32 = 4;
        for (w, workers) in [1, 2, 8].into_iter().enumerate() {
            for (d, decoded_budget) in [None, Some(ROOMY)].into_iter().enumerate() {
                let rows = 200 + 2 * w + d;
                let store = ChunkStore::in_memory_small();
                let cache = HistoryIndex::with_decoded_budget(decoded_budget.unwrap_or(0));
                // The earlier process: checkpoints land in the index, no
                // artifact stays in memory.
                let primer = private_pipeline("fan8", rows, 0);
                let primed = reference_run(&store, &primer, Some(&cache), Policy::MLCASK).unwrap();
                let join = &primed.stages[primed.stages.len() - 2];
                assert_eq!(join.component.name, "test_join");
                assert_eq!(codec_log::counts(&join.artifact_id)[codec_log::DECODED], 0);
                let options = Policy::MLCASK.with_parallelism(ParallelismPolicy::Parallel(workers));
                for candidate in 1..=CANDIDATES {
                    let report = Executor::new(&store)
                        .run(
                            &private_pipeline("fan8", rows, candidate),
                            Some(&cache),
                            options,
                        )
                        .unwrap();
                    assert_eq!(report.executed_count(), 1, "only the model is new");
                }
                assert_eq!(
                    codec_log::counts(&join.artifact_id)[codec_log::DECODED],
                    if decoded_budget.is_some() {
                        1
                    } else {
                        CANDIDATES
                    },
                    "{workers} workers, decoded budget {decoded_budget:?}"
                );
            }
        }
    }

    /// A chain never has two nodes ready at once, so it executes inline on
    /// the caller's thread however many workers the policy grants.
    #[test]
    fn chain_runs_on_the_callers_thread_at_any_worker_count() {
        struct Probe(TestScaler, Mutex<Vec<std::thread::ThreadId>>);
        impl crate::component::Component for Probe {
            fn name(&self) -> &str {
                self.0.name()
            }
            fn version(&self) -> SemVer {
                self.0.version()
            }
            fn stage(&self) -> StageKind {
                self.0.stage()
            }
            fn input_schema(&self) -> Option<SchemaId> {
                self.0.input_schema()
            }
            fn output_schema(&self) -> SchemaId {
                self.0.output_schema()
            }
            fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
                self.1.lock().push(std::thread::current().id());
                self.0.run(inputs)
            }
            fn work_units(&self, inputs: &[Artifact]) -> u64 {
                self.0.work_units(inputs)
            }
        }
        let scaler = TestScaler {
            version: SemVer::initial(),
            dim_in: 3,
            dim_out: 3,
            factor: 2.0,
        };
        let probe = Arc::new(Probe(scaler, Mutex::new(Vec::new())));
        let p = replacing(&pipeline(2.0, 3, 3), 1, probe.clone());
        let store = ChunkStore::in_memory_small();
        let options = Policy::RERUN_ALL.with_parallelism(ParallelismPolicy::Parallel(8));
        let report = Executor::new(&store).run(&p, None, options).unwrap();
        assert!(report.outcome.is_completed());
        assert_eq!(*probe.1.lock(), vec![std::thread::current().id()]);
    }

    /// Holds its component's first run until the test opens it, and counts
    /// every run.
    struct Held {
        inner: TestSource,
        hold: Mutex<Hold>,
        changed: std::sync::Condvar,
    }

    #[derive(Default)]
    struct Hold {
        runs: u32,
        held: bool,
        open: bool,
    }

    impl Held {
        fn await_held(&self) {
            let mut hold = self.hold.lock();
            while !hold.held {
                hold = self.changed.wait(hold).unwrap();
            }
        }

        fn open(&self) {
            self.hold.lock().open = true;
            self.changed.notify_all();
        }
    }

    impl crate::component::Component for Held {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn version(&self) -> SemVer {
            self.inner.version()
        }
        fn stage(&self) -> StageKind {
            self.inner.stage()
        }
        fn input_schema(&self) -> Option<SchemaId> {
            self.inner.input_schema()
        }
        fn output_schema(&self) -> SchemaId {
            self.inner.output_schema()
        }
        fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
            let mut hold = self.hold.lock();
            hold.runs += 1;
            if hold.runs == 1 {
                hold.held = true;
                self.changed.notify_all();
                while !hold.open {
                    hold = self.changed.wait(hold).unwrap();
                }
            }
            drop(hold);
            self.inner.run(inputs)
        }
        fn work_units(&self, inputs: &[Artifact]) -> u64 {
            self.inner.work_units(inputs)
        }
    }

    /// Traces `p` twice into one book — on two threads, the second started
    /// while `held` holds the first inside its source, or else one after
    /// the other on this thread — then replays both traces in order.
    fn trace_twice(p: &BoundPipeline, held: Option<&Held>) -> String {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let (cache, book) = (HistoryIndex::new(), ProfileBook::new());
        let trace = || {
            exec.trace(p, &cache, &book, ParallelismPolicy::Sequential, None)
                .unwrap()
        };
        match held {
            Some(held) => std::thread::scope(|scope| {
                let first = scope.spawn(trace);
                held.await_held();
                let second = scope.spawn(trace);
                // Time for the second trace to reach the source's claim; the
                // outcome does not depend on whether it got there.
                std::thread::sleep(Duration::from_millis(20));
                held.open();
                first.join().unwrap();
                second.join().unwrap();
            }),
            None => {
                trace();
                trace();
            }
        }
        let (mut created, mut cursor) = (CacheSnapshot::new(), book.replay_cursor());
        let reports: Vec<RunReport> = (0..2)
            .map(|_| {
                let sim = Some(&mut created);
                replay_run(&store, p, &book, sim, &mut cursor, None).unwrap()
            })
            .collect();
        serde_json::to_string(&reports).unwrap()
    }

    /// Two traces of one book, without a cut, reach a key while the first
    /// is still executing it: the second waits and adopts the first's
    /// checkpoint instead of running the component again, and the replayed
    /// reports are those of the two traces run one after the other.
    #[test]
    fn a_key_a_sibling_is_executing_is_adopted_not_rerun() {
        let p = pipeline(2.0, 3, 3);
        let held = Arc::new(Held {
            inner: TestSource {
                version: SemVer::initial(),
                dim: 3,
                rows: 8,
            },
            hold: Mutex::default(),
            changed: std::sync::Condvar::new(),
        });
        let raced = trace_twice(&replacing(&p, 0, held.clone()), Some(&held));
        assert_eq!(held.hold.lock().runs, 1, "the second trace ran the source");
        assert_eq!(raced, trace_twice(&p, None));
    }

    #[test]
    fn diamond_wavefront_reuses_checkpoints() {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let cache = HistoryIndex::new();
        let model = TestModel {
            version: SemVer::initial(),
            dim_in: 3,
            quality: 0.3,
        };
        let p = shaped("diamond", model);
        let options = Policy::MLCASK.with_parallelism(ParallelismPolicy::Parallel(4));
        let first = exec.run(&p, Some(&cache), options).unwrap();
        assert_eq!(first.executed_count(), 5);
        let second = exec.run(&p, Some(&cache), options).unwrap();
        assert_eq!(second.reused_count(), 5, "full reuse through the wavefront");
        assert_eq!(second.clock.total_ns(), 0);
        assert_eq!(
            second.outcome.score().unwrap().raw,
            first.outcome.score().unwrap().raw
        );
    }

    #[test]
    fn stage_time_attribution() {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let snap = exec
            .run(&pipeline(2.0, 3, 3), None, Policy::RERUN_ALL)
            .unwrap()
            .clock;
        assert!(snap.ingest_ns > 0);
        assert!(snap.preprocess_ns > 0);
        assert!(snap.training_ns > 0);
        assert!(snap.storage_ns > 0);
        // Model charges 8 ns/unit on 4x byte_len units — training dominates.
        assert!(snap.training_ns > snap.preprocess_ns);
    }
}
