//! Provenance-keyed incremental re-evaluation.
//!
//! The executor's checkpoint reuse (see [`crate::executor`]) is *dynamic*:
//! a node's [`CacheKey`](crate::executor::CacheKey) contains its input
//! artifact ids, so reuse is discovered node-by-node at runtime — every
//! candidate pipeline is still fully scheduled, and every node pays a key
//! construction plus a sharded lookup even when the whole prefix is a hit. This module adds the
//! *static* complement:
//!
//! * [`pipeline_fingerprints`] lifts a [`BoundPipeline`] to per-node
//!   **provenance fingerprints** `hash(component key, input fingerprints)`
//!   — computable from the DAG alone, no artifact bytes and no execution.
//!   Because components are deterministic (a documented [`crate::component::Component`]
//!   contract), a node's fingerprint fully determines its output.
//! * The [`HistoryIndex`] files every published checkpoint under its
//!   fingerprint as well as its `CacheKey`, the checkpoint first — the
//!   **pairing invariant** — so a fingerprint hit is what a full
//!   re-evaluation's lookup would have found. The accounting replay's
//!   publication is its one writer (see `replay::replay_run`).
//! * [`FrontierCut`] cuts a pipeline at the deepest cached frontier: the
//!   downward-closed set of nodes whose fingerprints hit the history. The
//!   executor pre-fills those nodes' results, records them as found for
//!   the accounting replay (which charges them as `reused`, exactly as a
//!   full re-evaluation would), and schedules only the dirty region.
//! * A pipeline's [`Provenance`] — its fingerprints and the nodes a run
//!   dispatches — depends on no history, so a caller that evaluates the
//!   same pipeline again keeps it and cuts with `FrontierCut::against`,
//!   which only reads the history.
//! * A cut that covers every node *is* the pipeline's run report
//!   (`FrontierCut::report`): every stage reused at zero cost, nothing
//!   charged, nothing recorded — what tracing and replaying it would
//!   produce. Commits, merge searches and prioritized trials answer such
//!   a pipeline by lookup and hand only the rest to the executor.
//!
//! Every evaluation cuts against the live history, before phase 1 starts: a
//! merge search cuts all its candidates before tracing any of them, and
//! prioritized-search trials cut against the base history, which they
//! never write. Tracing writes no history at all, so what a search executes
//! can never move one of its own cuts, and the number of frontier-skipped
//! nodes is deterministic for every worker count. The history only grows, so
//! a cut cannot be torn either: a checkpoint another writer lands meanwhile
//! is simply found, by the cut or by a lookup.

use crate::clock::ClockSnapshot;
use crate::component::ComponentKey;
use crate::dag::BoundPipeline;
use crate::errors::Result;
use crate::executor::{CachedOutput, RunOutcome, RunReport, StageReport};
use crate::history::HistoryIndex;
use mlcask_obs::{Counter, MetricsRegistry};
use mlcask_storage::hash::Hash256;
use std::sync::OnceLock;

/// Computes the provenance fingerprint of one node from its component key
/// and its predecessors' fingerprints (in edge order).
pub(crate) fn node_fingerprint(component: &ComponentKey, input_fps: &[Hash256]) -> Hash256 {
    let key_repr = component.to_string();
    let mut parts: Vec<&[u8]> = Vec::with_capacity(2 + input_fps.len());
    parts.push(b"mlcask-provenance-v1");
    parts.push(key_repr.as_bytes());
    for fp in input_fps {
        parts.push(&fp.0);
    }
    Hash256::of_parts(&parts)
}

/// Per-node provenance fingerprints of a bound pipeline, indexed by node
/// id. Purely static: derived from component keys and DAG edges, so two
/// pipelines that share a prefix share the prefix's fingerprints.
pub fn pipeline_fingerprints(pipeline: &BoundPipeline) -> Result<Vec<Hash256>> {
    #[cfg(test)]
    DERIVATIONS.with(|n| n.set(n.get() + 1));
    let order = pipeline.dag.topo_order()?;
    let mut fps = vec![Hash256::ZERO; order.len()];
    let mut input_fps: Vec<Hash256> = Vec::new();
    for &node in order {
        input_fps.clear();
        input_fps.extend(pipeline.dag.pre(node).iter().map(|&p| fps[p]));
        fps[node] = node_fingerprint(&pipeline.components()[node].key(), &input_fps);
    }
    Ok(fps)
}

#[cfg(test)]
thread_local! {
    /// [`pipeline_fingerprints`] calls on this thread so far.
    pub(crate) static DERIVATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// What a frontier cut needs of a pipeline that no history can change: its
/// per-node fingerprints and the nodes a run dispatches at all (those
/// before its static failure frontier). A pure function of the bound
/// pipeline — component keys, declared schemas and DAG edges — so a caller
/// that evaluates the same pipeline again may keep it and cut against any
/// later history with `FrontierCut::against`.
pub struct Provenance {
    /// Per-node fingerprints (index = node id).
    pub fingerprints: Vec<Hash256>,
    /// Per-node: does a run dispatch it?
    pub schedulable: Vec<bool>,
}

impl Provenance {
    /// Derives `pipeline`'s fingerprints and schedulable mask.
    pub(crate) fn of(pipeline: &BoundPipeline) -> Result<Provenance> {
        let mut provenance = Self::unfingerprinted(pipeline)?;
        provenance.fingerprints = pipeline_fingerprints(pipeline)?;
        Ok(provenance)
    }

    /// `pipeline`'s schedulable mask and no fingerprints: all that a run
    /// which neither cuts nor publishes reads.
    pub(crate) fn unfingerprinted(pipeline: &BoundPipeline) -> Result<Provenance> {
        let order = pipeline.dag.topo_order()?;
        Ok(Provenance {
            fingerprints: Vec::new(),
            schedulable: schedulable(order, pipeline.static_failure_node()?),
        })
    }
}

/// A pipeline cut at its deepest cached frontier: the downward-closed set
/// of nodes whose fingerprints hit the history (a node counts as
/// cached only if all its predecessors are), restricted to nodes the
/// scheduler would dispatch at all. Everything else is the *dirty region*
/// the executor actually schedules.
pub struct FrontierCut {
    /// Cached output for every frontier-skipped node; `None` for dirty
    /// nodes.
    pub(crate) cached: Vec<Option<CachedOutput>>,
    /// Number of nodes skipped by the cut.
    pub(crate) skipped: usize,
}

impl FrontierCut {
    /// Computes the cut of `pipeline`, whose [`Provenance`] is at hand,
    /// against the fingerprints of the live `history`
    /// ([`HistoryIndex::by_fingerprint`]), read before the evaluation's
    /// phase 1 starts, over the nodes a run dispatches: those before the
    /// pipeline's static failure frontier. Nodes at or beyond it are never
    /// cached — a sequential run never reaches them, so skipping them would
    /// change observables.
    pub(crate) fn against(
        pipeline: &BoundPipeline,
        provenance: &Provenance,
        history: &HistoryIndex,
    ) -> Result<FrontierCut> {
        Self::compute(pipeline, provenance, |fp| history.by_fingerprint(fp))
    }

    /// The cut of `pipeline` over the nodes `provenance` marks schedulable,
    /// against any fingerprint `lookup`.
    fn compute(
        pipeline: &BoundPipeline,
        provenance: &Provenance,
        lookup: impl Fn(&Hash256) -> Option<CachedOutput>,
    ) -> Result<FrontierCut> {
        let order = pipeline.dag.topo_order()?;
        let mut cached: Vec<Option<CachedOutput>> = vec![None; order.len()];
        let mut skipped = 0usize;
        for &node in order {
            if !provenance.schedulable[node] {
                continue;
            }
            let closed = pipeline.dag.pre(node).iter().all(|&p| cached[p].is_some());
            if !closed {
                continue;
            }
            if let Some(hit) = lookup(&provenance.fingerprints[node]) {
                cached[node] = Some(hit);
                skipped += 1;
            }
        }
        Ok(FrontierCut { cached, skipped })
    }

    /// The run report of a pipeline this cut covers completely, or `None`
    /// when any node is dirty (or, degenerately, no stage carries a score).
    ///
    /// A full cut has no static failure (those nodes are never cut), and by
    /// the history's pairing invariant every node's `CacheKey` hits it too,
    /// so executing and replaying the pipeline would reuse every
    /// stage: each reported `reused` at zero execution and storage cost,
    /// with the hit's output, artifact id and size, and the last score in
    /// topological order as the outcome — exactly what
    /// `replay::replay_run` reports for it, a zero clock included.
    /// Nothing is charged to the store statistics or a tenant, and nothing
    /// is recorded in the history, so answering the pipeline with this
    /// report instead is unobservable.
    pub(crate) fn report(&self, pipeline: &BoundPipeline) -> Option<RunReport> {
        if self.skipped != self.cached.len() {
            return None;
        }
        let mut score = None;
        let stages = pipeline
            .dag
            .topo_order()
            .ok()?
            .iter()
            .map(|&node| {
                let hit = self.cached[node]
                    .as_ref()
                    .expect("a full cut caches every node");
                StageReport::reused(&pipeline.components()[node], hit, &mut score)
            })
            .collect();
        Some(RunReport {
            stages,
            outcome: RunOutcome::Completed { score: score? },
            clock: ClockSnapshot::default(),
        })
    }
}

/// Which nodes a run dispatches: those before `fail_at` (the pipeline's
/// static failure node, if any) in canonical topological `order`.
pub(crate) fn schedulable(order: &[usize], fail_at: Option<usize>) -> Vec<bool> {
    let mut schedulable = vec![true; order.len()];
    if let Some(beyond) = fail_at.and_then(|fail| order.iter().position(|&node| node == fail)) {
        for &node in &order[beyond..] {
            schedulable[node] = false;
        }
    }
    schedulable
}

/// Adds `nodes` to the process-wide `mlcask_frontier_skipped_total`: the
/// telemetry twin of a search report's `skipped_by_frontier`, so searches
/// call it once with their total, however each candidate was answered.
pub fn count_frontier_skipped(nodes: usize) {
    static SKIPPED: OnceLock<Counter> = OnceLock::new();
    if nodes > 0 {
        SKIPPED
            .get_or_init(|| {
                MetricsRegistry::global().counter(
                    "mlcask_frontier_skipped_total",
                    "Pipeline nodes skipped by provenance frontier cuts",
                    &[],
                )
            })
            .add(nodes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::test_support::{TestModel, TestScaler, TestSource};
    use crate::component::ComponentHandle;
    use crate::dag::PipelineDag;
    use crate::executor::CacheKey;
    use crate::schema::SchemaId;
    use crate::semver::SemVer;
    use mlcask_storage::object::{ObjectKind, ObjectRef};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn chain(model_version: SemVer) -> BoundPipeline {
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
                dim_out: 3,
                factor: 2.0,
            }),
            Arc::new(TestModel {
                version: model_version,
                dim_in: 3,
                quality: 0.3,
            }),
        ];
        BoundPipeline::new(dag, comps).unwrap()
    }

    fn output(n: u8) -> CachedOutput {
        CachedOutput {
            object: ObjectRef {
                id: Hash256::of(&[n]),
                kind: ObjectKind::Output,
                len: 1,
            },
            artifact_id: Hash256::of(&[n, n]),
            schema: SchemaId(Hash256::of(&[9])),
            score: None,
        }
    }

    #[test]
    fn fingerprints_are_static_and_prefix_stable() {
        let a = pipeline_fingerprints(&chain(SemVer::master(0, 0))).unwrap();
        let b = pipeline_fingerprints(&chain(SemVer::master(0, 1))).unwrap();
        // Shared prefix (source, scaler) → identical fingerprints.
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
        // Different model version → different sink fingerprint.
        assert_ne!(a[2], b[2]);
        // Deterministic.
        assert_eq!(
            a,
            pipeline_fingerprints(&chain(SemVer::master(0, 0))).unwrap()
        );
    }

    #[test]
    fn frontier_cut_is_downward_closed() {
        let p = chain(SemVer::master(0, 0));
        let fps = pipeline_fingerprints(&p).unwrap();
        let mut snap = HashMap::new();
        // Only the *middle* node cached: without its source it must stay
        // dirty (no way to reconstruct its CacheKey or inputs).
        snap.insert(fps[1], output(1));
        let all = Provenance {
            fingerprints: fps.clone(),
            schedulable: vec![true; 3],
        };
        let cut = FrontierCut::compute(&p, &all, |fp| snap.get(fp).cloned()).unwrap();
        assert_eq!(cut.skipped, 0);
        // Source + scaler cached → both skipped, model dirty.
        snap.insert(fps[0], output(0));
        let cut = FrontierCut::compute(&p, &all, |fp| snap.get(fp).cloned()).unwrap();
        assert_eq!(cut.skipped, 2);
        assert!(cut.cached[0].is_some() && cut.cached[1].is_some());
        assert!(cut.cached[2].is_none());
    }

    #[test]
    fn frontier_cut_respects_schedulable_mask() {
        let p = chain(SemVer::master(0, 0));
        let fps = pipeline_fingerprints(&p).unwrap();
        let mut snap = HashMap::new();
        for (i, fp) in fps.iter().enumerate() {
            snap.insert(*fp, output(i as u8));
        }
        let source_only = Provenance {
            fingerprints: fps,
            schedulable: vec![true, false, false],
        };
        let cut = FrontierCut::compute(&p, &source_only, |fp| snap.get(fp).cloned()).unwrap();
        assert_eq!(cut.skipped, 1, "unschedulable nodes never count as cached");
    }

    /// A kept provenance cuts exactly as a fresh one against a history
    /// that grew after it was derived; a doomed pipeline's mask stops at
    /// its static failure.
    #[test]
    fn a_kept_provenance_cuts_like_a_fresh_one() {
        use crate::executor::Executor;
        use crate::search::Policy;
        use mlcask_storage::store::ChunkStore;
        let store = ChunkStore::in_memory_small();
        let cache = HistoryIndex::new();
        let p = chain(SemVer::master(0, 0));
        let kept = Provenance::of(&p).unwrap();
        assert_eq!(kept.fingerprints, pipeline_fingerprints(&p).unwrap());
        assert_eq!(kept.schedulable, vec![true; 3]);
        let skipped = |history: &HistoryIndex| {
            let fresh = FrontierCut::against(&p, &Provenance::of(&p).unwrap(), history).unwrap();
            let reused = FrontierCut::against(&p, &kept, history).unwrap();
            assert_eq!(fresh.cached, reused.cached);
            reused.skipped
        };
        assert_eq!(skipped(&cache), 0);
        Executor::new(&store)
            .run(&p, Some(&cache), Policy::MLCASK)
            .unwrap();
        assert_eq!(skipped(&cache), 3);
        let mut comps = p.components().to_vec();
        comps[1] = Arc::new(TestScaler {
            version: SemVer::master(1, 0),
            dim_in: 3,
            dim_out: 5,
            factor: 2.0,
        });
        let doomed = BoundPipeline::new(Arc::clone(&p.dag), comps).unwrap();
        let mask = Provenance::of(&doomed).unwrap().schedulable;
        assert_eq!(mask, vec![true, true, false]);
    }

    /// A run publishes what it executed into the history under each stage's
    /// fingerprint, and each fingerprint's output under its `CacheKey` too:
    /// the published pipeline cuts completely.
    #[test]
    fn a_run_publishes_its_fingerprints_beside_its_checkpoints() {
        use crate::executor::Executor;
        use crate::search::Policy;
        use mlcask_storage::store::ChunkStore;
        let store = ChunkStore::in_memory_small();
        let cache = HistoryIndex::new();
        let run = |p: &BoundPipeline| {
            Executor::new(&store)
                .run(p, Some(&cache), Policy::MLCASK)
                .unwrap()
                .executed_count()
        };
        let p = chain(SemVer::master(0, 0));
        assert_eq!(run(&p), 3);
        let fps = pipeline_fingerprints(&p).unwrap();
        let mut inputs = Vec::new();
        for (node, comp) in p.components().iter().enumerate() {
            let out = cache.by_fingerprint(&fps[node]).expect("fingerprinted");
            let key = CacheKey {
                component: comp.key(),
                inputs,
            };
            assert_eq!(cache.get(&key), Some(out.clone()));
            inputs = vec![out.artifact_id];
        }
        let cut = FrontierCut::against(&p, &Provenance::of(&p).unwrap(), &cache).unwrap();
        assert_eq!(cut.skipped, 3, "a published pipeline cuts completely");
        // A new model: only the stage it executes is published.
        assert_eq!(run(&chain(SemVer::master(0, 1))), 1);
        assert_eq!((cache.snapshot().len(), cache.fingerprints().len()), (4, 4));
    }

    /// A full cut's report is the engine's report for the same pipeline
    /// against the same history, found node by node (no cut); a partial
    /// cut, or a static failure, has none.
    #[test]
    fn a_full_cut_reports_what_the_engine_reports() {
        use crate::executor::Executor;
        use crate::search::Policy;
        use mlcask_storage::store::ChunkStore;
        let store = ChunkStore::in_memory_small();
        let cache = HistoryIndex::new();
        let p = chain(SemVer::master(0, 0));
        let uncut = Policy {
            cut: false,
            ..Policy::MLCASK
        };
        let run = |p: &BoundPipeline| Executor::new(&store).run(p, Some(&cache), uncut).unwrap();
        assert!(
            FrontierCut::against(&p, &Provenance::of(&p).unwrap(), &cache)
                .unwrap()
                .report(&p)
                .is_none()
        );
        let cold = run(&p);
        assert!(cold.clock.total_ns() > 0 && cold.executed_count() == 3);
        let cut = FrontierCut::against(&p, &Provenance::of(&p).unwrap(), &cache).unwrap();
        let known = cut.report(&p).expect("every node is indexed");
        let warm = run(&p);
        assert_eq!(warm.clock.total_ns(), 0);
        assert_eq!(
            serde_json::to_string(&known).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );
        // A new model: its prefix is known, the model is not.
        let q = chain(SemVer::master(0, 1));
        let cut = FrontierCut::against(&q, &Provenance::of(&q).unwrap(), &cache).unwrap();
        assert_eq!((cut.skipped, cut.report(&q).is_none()), (2, true));
        // A doomed model: nothing at or past the failure is ever cut.
        let doomed = {
            let mut comps = p.components().to_vec();
            comps[2] = Arc::new(TestModel {
                version: SemVer::master(0, 2),
                dim_in: 5,
                quality: 0.3,
            });
            BoundPipeline::new(Arc::clone(&p.dag), comps).unwrap()
        };
        let cut = FrontierCut::against(&doomed, &Provenance::of(&doomed).unwrap(), &cache).unwrap();
        assert_eq!((cut.skipped, cut.report(&doomed).is_none()), (2, true));
    }
}
