//! The `MlCask` facade: the end-to-end version-controlled pipeline system.
//!
//! Ties together the repositories (§III), version-control semantics (§IV),
//! branching/merging (§V) and the optimized merge search (§VI) behind the
//! API a deployment would script against: `commit` / `branch` / `merge`.
//! A merge merges one of the caller's own branches into a base named by a
//! [`BranchRef`], so contributing to a peer tenant's branch is the same
//! operation as merging two of one's own; a peer's work is pulled by
//! forking it first. A system only reads the commit graph
//! ([`MlCask::graph`] is a snapshot); its commits and branches are written
//! by the [`Workspace`], which applies the one access rule at the write.

use crate::errors::{CoreError, Result};
use crate::merge::{MergeEngine, MergeSearchReport, MergeStrategy};
use crate::registry::ComponentRegistry;
use crate::search_space::SearchSpaces;
use crate::workspace::Workspace;
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::{BoundPipeline, PipelineDag};
use mlcask_pipeline::executor::{RunOutcome, RunReport};
use mlcask_pipeline::history::HistoryIndex;
use mlcask_pipeline::metafile::{PipelineMetafile, PipelineSlot};
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::search::Policy;
use mlcask_storage::commit::{Commit, GraphView};
use mlcask_storage::hash::Hash256;
use mlcask_storage::object::ObjectKind;
use mlcask_storage::store::ChunkStore;
use mlcask_storage::tenant::ShareRight;
use std::collections::HashMap;
use std::sync::Arc;

/// Result of committing a pipeline update.
#[derive(Debug)]
pub struct CommitResult {
    /// The created commit; `None` when MLCask's precheck rejected the update
    /// without running it (Fig. 5's final iteration).
    pub commit: Option<Commit>,
    /// The execution report of the committed run.
    pub report: RunReport,
}

/// Result of a merge operation.
#[derive(Debug)]
pub struct MergeOutcome {
    /// The merge commit on the base branch (None for rejected merges).
    pub commit: Option<Commit>,
    /// True if the merge was a fast-forward (no search needed).
    pub fast_forward: bool,
    /// Search details (empty/default for fast-forward merges).
    pub report: Option<MergeSearchReport>,
}

/// A branch as a merge names its base: one of the caller's own branches
/// (what a plain `&str` converts to) or a peer tenant's
/// ([`BranchRef::peer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchRef<'a> {
    /// The owning tenant when it is not the caller.
    pub(crate) peer: Option<&'a str>,
    /// The branch name inside its owner's namespace.
    pub(crate) branch: &'a str,
}

impl<'a> BranchRef<'a> {
    /// Tenant `tenant`'s branch `branch`.
    pub fn peer(tenant: &'a str, branch: &'a str) -> BranchRef<'a> {
        BranchRef {
            peer: Some(tenant),
            branch,
        }
    }

    /// The branch's name in the shared commit graph, for a caller whose
    /// own namespace is `home` (`None` for a solo system): the one place a
    /// `"{tenant}/{branch}"` name is spelled.
    pub(crate) fn qualified(&self, home: Option<&str>) -> String {
        match self.peer.or(home) {
            Some(tenant) => format!("{tenant}/{}", self.branch),
            None => self.branch.to_string(),
        }
    }
}

impl<'a> From<&'a str> for BranchRef<'a> {
    fn from(branch: &'a str) -> Self {
        BranchRef { peer: None, branch }
    }
}

/// A version-controlled ML pipeline: MLCask's user-facing object.
///
/// The commit graph (pipeline repository), the reusable-output
/// [`HistoryIndex`], and the object store are owned by a [`Workspace`] the
/// system is a view of: a solo system created with [`MlCask::new`] gets a
/// private workspace, while systems opened through
/// [`Tenant::open_pipeline`](crate::workspace::Tenant) share one workspace
/// — and hence one deduplicating store, one commit graph (branches
/// namespaced `tenant/branch`), and one checkpoint history — with every
/// other tenant. Commits, branches, and metric-driven merges go through
/// it. A [`ParallelismPolicy`] set via [`MlCask::with_parallelism`] is
/// threaded through every execution — merge candidates fan out across
/// workers, and a single commit over a non-chain DAG fans its independent
/// nodes out — without changing any report or statistic (see
/// `mlcask_pipeline::replay`).
pub struct MlCask {
    name: String,
    dag: Arc<PipelineDag>,
    registry: Arc<ComponentRegistry>,
    workspace: Arc<Workspace>,
    /// Branch namespace (the tenant name) — the actor this system's graph
    /// writes act as; `None` for solo systems.
    namespace: Option<String>,
    /// Worker pool for merge-search candidate evaluation.
    parallelism: ParallelismPolicy,
    /// Provenance-keyed incremental re-evaluation for merge searches
    /// (frontier cuts) and commits (a fully known pipeline is not run). On by default; reports and accounting are
    /// identical either way, only wall-clock changes.
    incremental: bool,
}

impl MlCask {
    /// Opens a new single-tenant pipeline system over a registry (and its
    /// store): a thin convenience over a private [`Workspace`].
    pub fn new(name: &str, dag: PipelineDag, registry: Arc<ComponentRegistry>) -> MlCask {
        let workspace = Workspace::over(Arc::clone(registry.store()));
        workspace.attach_registry(&registry);
        Self::in_workspace(workspace, None, name, dag, registry)
    }

    /// Opens a system as a view over `workspace` (used by
    /// [`Tenant::open_pipeline`](crate::workspace::Tenant) and
    /// [`MlCask::new`]). With a namespace, every branch name this system
    /// sees maps to `"{namespace}/{branch}"` in the shared graph.
    pub(crate) fn in_workspace(
        workspace: Arc<Workspace>,
        namespace: Option<String>,
        name: &str,
        dag: PipelineDag,
        registry: Arc<ComponentRegistry>,
    ) -> MlCask {
        MlCask {
            name: name.to_string(),
            dag: Arc::new(dag),
            registry,
            workspace,
            namespace,
            parallelism: ParallelismPolicy::Sequential,
            incremental: true,
        }
    }

    /// Sets the worker pool used by this system's pipeline executions:
    /// merge-search candidates fan out across workers, and a single
    /// commit's non-chain DAG fans its independent nodes out (wavefront
    /// execution). Reports are identical under every policy; only
    /// wall-clock changes.
    pub fn with_parallelism(mut self, parallelism: ParallelismPolicy) -> MlCask {
        self.parallelism = parallelism;
        self
    }

    /// Toggles provenance-keyed incremental re-evaluation (see
    /// [`mlcask_pipeline::provenance`]) for this system's merge searches
    /// and commits — plain commits, fast-forwards and merge winners alike.
    /// On by default. Off, every pipeline is traced and replayed by the
    /// executor: that is the reference the fast path is tested against, and
    /// every report (but a search's `skipped_by_frontier`, the nodes the
    /// fast path cut), ledger charge, tenant account and commit is
    /// byte-identical either way.
    pub fn with_incremental(mut self, incremental: bool) -> MlCask {
        self.incremental = incremental;
        self
    }

    /// The backing object store.
    pub fn store(&self) -> &Arc<ChunkStore> {
        self.registry.store()
    }

    /// The component registry.
    pub fn registry(&self) -> &Arc<ComponentRegistry> {
        &self.registry
    }

    /// The latest snapshot of the commit graph (pipeline repository) —
    /// shared across every tenant of the workspace; this system's branches
    /// appear under their namespaced names. It is read-only: commits and
    /// branches are written through [`MlCask::commit_pipeline`],
    /// [`MlCask::branch`] and [`MlCask::merge`], which the workspace checks
    /// against its access rule, and there is no other writer. (The view's
    /// `commit` reads a commit by id; a branch cannot be made through it.)
    ///
    /// ```compile_fail,E0599
    /// fn raw_write(sys: &mlcask_core::system::MlCask) {
    ///     let _ = sys.graph().branch("master", "no-public-writer");
    /// }
    /// ```
    pub fn graph(&self) -> GraphView {
        self.workspace.graph()
    }

    /// The reusable-output history — shared across every tenant of the
    /// workspace (cross-pipeline checkpoint reuse).
    pub fn history(&self) -> &HistoryIndex {
        self.workspace.history()
    }

    /// The shared-graph name of a branch reference: `"{tenant}/{branch}"`
    /// for a peer's branch or a tenant system's own, `branch` unchanged for
    /// a solo system's own.
    pub fn qualified_branch<'a>(&self, branch: impl Into<BranchRef<'a>>) -> String {
        branch.into().qualified(self.namespace.as_deref())
    }

    /// The pipeline shape.
    pub fn dag(&self) -> &Arc<PipelineDag> {
        &self.dag
    }

    /// Resolves slot-ordered component keys to a bound pipeline.
    pub fn bind(&self, keys: &[ComponentKey]) -> Result<BoundPipeline> {
        self.registry.bind(&self.dag, keys)
    }

    /// Runs a pipeline under MLCask policy (reuse + precheck) and, on
    /// success, commits it to `branch` (creating the branch's root commit if
    /// the graph is empty). The run's time, which is also its report's
    /// `clock`, is added to `ledger`, the caller's running total, before the
    /// commit is written.
    pub fn commit_pipeline(
        &self,
        branch: &str,
        keys: &[ComponentKey],
        message: &str,
        ledger: &ClockLedger,
    ) -> Result<CommitResult> {
        self.run_and_commit(self.qualified_branch(branch), keys, message, None, ledger)
    }

    /// How a run becomes a commit, for plain commits and both merge arms:
    /// evaluate `keys` as the one candidate of the evaluation loop under
    /// MLCask's commit policy — reuse, precheck, and publish into the shared
    /// history the checkpoints (and their fingerprints) of what it executed
    /// — and, if the run completes, store its metafile and append the
    /// commit carrying it to `branch`: an already-qualified (shared-graph)
    /// name, since `merge.into` commits onto a *peer's* branch, which has
    /// no caller-facing name in this system's namespace. A merge passes the
    /// base head it searched, the merging branch and its head; a plain
    /// commit reads `branch`'s head (none for a new branch) once the run
    /// completes. That one read decides both the metafile's label and the
    /// head the commit must land on, so a commit that landed meanwhile
    /// refuses this one (`StorageError::BaseMoved`). A run the precheck
    /// rejects (or that fails) commits nothing.
    ///
    /// With incremental re-evaluation on, the pipeline is cut against the
    /// live history before it is prechecked: one its fingerprints resolve
    /// end to end — a warm commit, a fast-forward, a merge winner the search
    /// just evaluated — is not run, its report is the cut's, and there is
    /// nothing new to publish.
    fn run_and_commit(
        &self,
        branch: String,
        keys: &[ComponentKey],
        message: &str,
        merge: Option<(&Commit, (&str, Hash256))>,
        ledger: &ClockLedger,
    ) -> Result<CommitResult> {
        let policy = Policy {
            cut: self.incremental,
            parallelism: self.parallelism,
            ..Policy::MLCASK
        };
        let evaluated = self.registry.evaluate(
            &self.dag,
            self.history(),
            policy,
            &mut [vec![keys.to_vec()]],
        )?;
        let run = evaluated
            .into_iter()
            .flatten()
            .next()
            .expect("one candidate");
        let report = run.report;
        ledger.merge(&report.clock);
        if !report.outcome.is_completed() {
            return Ok(CommitResult {
                commit: None,
                report,
            });
        }
        // The head the commit lands on, whose seq + 1 labels it (a root, 0,
        // when the branch does not exist).
        let view = self.graph();
        let (base, merge) = match merge {
            Some((base, merging)) => (Some(base), Some(merging)),
            None => (view.head_commit(&branch).ok(), None),
        };
        let next_seq = base.map_or(0, |b| b.seq + 1);
        let metafile = self.build_metafile(&branch, next_seq, keys, &report);
        let put = self.store().put_meta(ObjectKind::Pipeline, &metafile)?;
        let commit = self.workspace.commit(
            self.namespace.as_deref(),
            &branch,
            base.map(|b| b.id),
            merge,
            put.object.id,
            message,
        )?;
        self.workspace.keep_metafile(put.object.id, metafile);
        Ok(CommitResult {
            commit: Some(commit),
            report,
        })
    }

    /// Builds the metafile describing one committed run of this pipeline.
    fn build_metafile(
        &self,
        ns_branch: &str,
        seq: u32,
        keys: &[ComponentKey],
        report: &RunReport,
    ) -> PipelineMetafile {
        // Stages arrive in topological order, which on a non-chain DAG can
        // differ from slot order; match them to slots by component name
        // (names are unique per DAG).
        let stage_of: HashMap<&str, &mlcask_pipeline::executor::StageReport> = report
            .stages
            .iter()
            .map(|s| (s.component.name.as_str(), s))
            .collect();
        PipelineMetafile {
            name: self.name.clone(),
            label: format!("{ns_branch}.{seq}"),
            slots: keys
                .iter()
                .map(|k| {
                    let s = stage_of[k.name.as_str()];
                    PipelineSlot {
                        component: k.clone(),
                        output: s.output,
                        artifact_id: s.artifact_id,
                    }
                })
                .collect(),
            edges: self.dag.named_edges(),
            score: report.outcome.score(),
        }
    }

    /// Creates a branch at `from`'s head (the paper's isolation of stable
    /// production pipelines from development pipelines).
    pub fn branch(&self, from: &str, new_branch: &str) -> Result<Commit> {
        let from = self.qualified_branch(from);
        let head = self.graph().head(&from)?;
        self.workspace.branch_at(
            self.namespace.as_deref(),
            &from,
            &self.qualified_branch(new_branch),
            head.id,
        )
    }

    /// The pipeline metafile committed at `commit`: the workspace's decoded
    /// copy (shared with every sibling view, whichever wrote the commit),
    /// read from the store only the first time anyone in the workspace asks.
    pub fn metafile_of(&self, commit: &Commit) -> Result<Arc<PipelineMetafile>> {
        self.workspace
            .metafile(commit.payload)
            .map_err(|_| CoreError::MissingMetafile(commit.label()))
    }

    /// The metafile at a branch head.
    pub fn head_metafile<'a>(
        &self,
        branch: impl Into<BranchRef<'a>>,
    ) -> Result<Arc<PipelineMetafile>> {
        let head = self.graph().head(&self.qualified_branch(branch))?;
        self.metafile_of(&head)
    }

    /// Builds the merge search spaces for merging this system's own branch
    /// `merging` into `base` (§V): versions developed since the common
    /// ancestor on either branch. The base may be a peer tenant's branch
    /// ([`BranchRef::peer`]); reading a history needs no grant.
    pub fn merge_search_spaces<'a>(
        &self,
        base: impl Into<BranchRef<'a>>,
        merging: &str,
    ) -> Result<SearchSpaces> {
        let view = self.graph();
        let (base, merging) = (self.qualified_branch(base), self.qualified_branch(merging));
        let heads = (view.head(&base)?, view.head(&merging)?);
        self.merge_search_spaces_qualified(&view, (&base, &heads.0), (&merging, &heads.1))
    }

    /// [`MlCask::merge_search_spaces`] over already-qualified (shared-graph)
    /// branch names, so the base may belong to a *different* tenant: a
    /// cross-tenant merge assembles its space from the commits both teams
    /// made since the fork point, exactly like the single-tenant case —
    /// cross-namespace parentage makes the common ancestor well defined.
    ///
    /// Each side is a branch name with the head the caller resolved in
    /// `view`. The whole multi-step read (the LCA, both first-parent paths)
    /// runs against that frozen view: concurrent commits on either branch
    /// can neither tear this computation nor block it.
    ///
    /// Every component version referenced along either path must be
    /// registered in *this* system's registry (collaborating teams share
    /// component libraries the way they share the workload definition).
    fn merge_search_spaces_qualified(
        &self,
        view: &GraphView,
        (base, base_head): (&str, &Commit),
        (merging, merge_head): (&str, &Commit),
    ) -> Result<SearchSpaces> {
        let ancestor = view
            .common_ancestor(base_head.id, merge_head.id)?
            .ok_or_else(|| CoreError::NoCommonAncestor {
                base: base.into(),
                merging: merging.into(),
            })?;
        let ancestor_meta = self.metafile_of(&ancestor)?;
        let collect_path = |head: &Commit| -> Result<Vec<Arc<PipelineMetafile>>> {
            let mut metas = vec![Arc::clone(&ancestor_meta)];
            for c in view.path_from(ancestor.id, head.id)? {
                metas.push(self.metafile_of(&c)?);
            }
            Ok(metas)
        };
        let head_path = collect_path(base_head)?;
        let merge_path = collect_path(merge_head)?;
        Ok(SearchSpaces::build(
            self.dag.node_names(),
            &head_path,
            &merge_path,
        ))
    }

    /// Initial leaf scores for prioritized search: the already-trained
    /// pipelines on both heads with their recorded metrics (§VII-E).
    pub fn initial_scores<'a>(
        &self,
        base: impl Into<BranchRef<'a>>,
        merging: &str,
    ) -> Result<Vec<(Vec<ComponentKey>, f64)>> {
        let mut out = Vec::new();
        for b in [base.into(), merging.into()] {
            let meta = self.head_metafile(b)?;
            if let Some(score) = meta.score {
                out.push((meta.component_keys(), score.value));
            }
        }
        Ok(out)
    }

    /// Merges this system's own branch `merging` into `base` with the given
    /// strategy (§V–§VI). The base may name a peer tenant's branch
    /// ([`BranchRef::peer`]): that is the downstream team contributing its
    /// fork back upstream, and needs [`ShareRight::MergeInto`] from the
    /// peer, checked before any work and again at the commit. (Upstream
    /// work is pulled by forking it first.) The merge commits only onto the
    /// base head it searched: a base another commit moved meanwhile is
    /// `StorageError::BaseMoved`, the graph does not move, and merging again
    /// searches the new head.
    ///
    /// Fast-forward merges duplicate the `MERGE_HEAD` pipeline onto the base
    /// branch without any search. Diverged branches trigger the
    /// metric-driven merge over both histories since the common ancestor:
    /// the best-scoring candidate is committed with both heads as parents.
    /// Candidates reuse every tenant's cached outputs through the shared
    /// history; any *newly* materialized output is charged to this system's
    /// tenant, byte-deterministically across worker counts, because writes
    /// go through its tenant-scoped store view and ride the
    /// traced-execute/replay protocol.
    ///
    /// `ledger`, the caller's running total, gains the time of each run the
    /// merge makes: the search's (its report's `clock`) as soon as the
    /// search returns, then that of committing the winner (which the
    /// from-scratch strategies re-execute) or the fast-forward.
    ///
    /// The merging side is the caller's own branch, never a peer's:
    ///
    /// ```compile_fail,E0308
    /// use mlcask_core::prelude::{BranchRef, ClockLedger, MergeStrategy, MlCask};
    /// fn pull(sys: &MlCask, ledger: &ClockLedger) {
    ///     let peer = BranchRef::peer("up", "master");
    ///     let _ = sys.merge("master", peer, MergeStrategy::Full, ledger);
    /// }
    /// ```
    pub fn merge<'a>(
        &self,
        base: impl Into<BranchRef<'a>>,
        merging: &str,
        strategy: MergeStrategy,
        ledger: &ClockLedger,
    ) -> Result<MergeOutcome> {
        let base = base.into();
        if base.peer.is_some() {
            let me = self
                .namespace
                .as_deref()
                .ok_or_else(|| CoreError::NotATenant(self.name.clone()))?;
            self.workspace
                .authorize(base, Some(me), ShareRight::MergeInto)?;
        }
        // Errors and commit messages name the branches as the caller does
        // when the base is its own, else by their shared-graph names.
        let own = base.peer.is_none();
        let (base_q, merging_q) = (self.qualified_branch(base), self.qualified_branch(merging));
        if base_q == merging_q {
            let name = if own { base.branch.to_string() } else { base_q };
            return Err(CoreError::SelfMerge(name));
        }
        let merging_label = if own { merging } else { &merging_q };
        // One frozen view decides everything the merge reads off the graph:
        // both heads, the fast-forward test, the common ancestor and the
        // paths up from it. The commit at the end lands on this base head
        // or not at all.
        let view = self.graph();
        let base_head = view.head(&base_q)?;
        let merge_head = view.head(&merging_q)?;

        let (keys, message, report) = if view.is_fast_forward(base_head.id, merge_head.id)? {
            // "MLCask duplicates the latest version in MERGE_HEAD, changes
            // its branch to HEAD, creates a new commit on HEAD, and finally
            // sets its parents to both MERGE_HEAD and HEAD."
            // Fully checkpointed: a lookup assembles the metafile.
            let keys = self.metafile_of(&merge_head)?.component_keys();
            (keys, format!("fast-forward merge of {merging_label}"), None)
        } else {
            let spaces = self.merge_search_spaces_qualified(
                &view,
                (&base_q, &base_head),
                (&merging_q, &merge_head),
            )?;
            let engine = MergeEngine::new(&self.registry, Arc::clone(&self.dag))
                .with_parallelism(self.parallelism)
                .with_incremental(self.incremental);
            let report = engine.search(&spaces, self.history(), strategy)?;
            ledger.merge(&report.clock);
            let Some((best_keys, _)) = report.best.clone() else {
                return Err(CoreError::NoViableCandidate);
            };
            let label = strategy.label();
            let message = format!("metric-driven merge of {merging_label} ({label})");
            (best_keys, message, Some(report))
        };
        // Commit with both parents. A search just evaluated its winner, so
        // with incremental re-evaluation on and a history-backed strategy
        // its report is a lookup, as a fast-forward's is.
        let merge = (&base_head, (merging_q.as_str(), merge_head.id));
        let done = self.run_and_commit(base_q, &keys, &message, Some(merge), ledger)?;
        let completed = matches!(done.report.outcome, RunOutcome::Completed { .. });
        debug_assert!(completed || report.is_none(), "a search winner completes");
        Ok(MergeOutcome {
            commit: done.commit,
            fast_forward: report.is_none(),
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
    use mlcask_pipeline::semver::SemVer;

    struct Fixture {
        sys: MlCask,
        src: ComponentKey,
        s00: ComponentKey,
        s01: ComponentKey,
        s10: ComponentKey,
        m00: ComponentKey,
        m01: ComponentKey,
        m02: ComponentKey,
        m04: ComponentKey,
    }

    fn fixture() -> Fixture {
        let store = Arc::new(ChunkStore::in_memory_small());
        let registry = Arc::new(ComponentRegistry::with_exe_size(store, 2048));
        let src = toy_source(SemVer::master(0, 0), 4, 16);
        let s00 = toy_scaler(SemVer::master(0, 0), 4, 4, 1.0);
        let s01 = toy_scaler(SemVer::master(0, 1), 4, 4, 2.0);
        let s10 = toy_scaler(SemVer::master(1, 0), 4, 6, 3.0);
        let m00 = toy_model(SemVer::master(0, 0), 4, 0.5);
        let m01 = toy_model(SemVer::master(0, 1), 4, 0.6);
        let m02 = toy_model(SemVer::master(0, 2), 6, 0.7);
        let m04 = toy_model(SemVer::master(0, 4), 4, 0.9);
        let keys: Vec<ComponentKey> = [&src, &s00, &s01, &s10, &m00, &m01, &m02, &m04]
            .iter()
            .map(|c| {
                registry.register((*c).clone()).unwrap();
                c.key()
            })
            .collect();
        let dag = PipelineDag::chain(&toy_slots()).unwrap();
        Fixture {
            sys: MlCask::new("toy", dag, registry),
            src: keys[0].clone(),
            s00: keys[1].clone(),
            s01: keys[2].clone(),
            s10: keys[3].clone(),
            m00: keys[4].clone(),
            m01: keys[5].clone(),
            m02: keys[6].clone(),
            m04: keys[7].clone(),
        }
    }

    fn seed_master(f: &Fixture, ledger: &ClockLedger) -> Commit {
        f.sys
            .commit_pipeline(
                "master",
                &[f.src.clone(), f.s00.clone(), f.m00.clone()],
                "initial pipeline",
                ledger,
            )
            .unwrap()
            .commit
            .unwrap()
    }

    #[test]
    fn commit_creates_metafile_and_history() {
        let f = fixture();
        let clock = ClockLedger::new();
        let c = seed_master(&f, &clock);
        assert_eq!(c.label(), "master.0");
        let meta = f.sys.head_metafile("master").unwrap();
        assert_eq!(meta.label, "master.0");
        assert_eq!(meta.slots.len(), 3);
        assert!(meta.score.is_some());
        assert_eq!(
            f.sys.history().snapshot().len(),
            3,
            "three checkpoints recorded"
        );
    }

    #[test]
    fn second_commit_reuses_unchanged_prefix() {
        let f = fixture();
        let clock = ClockLedger::new();
        seed_master(&f, &clock);
        let before = clock.snapshot();
        // Only the model changes → source and scaler reused (C1).
        let res = f
            .sys
            .commit_pipeline(
                "master",
                &[f.src.clone(), f.s00.clone(), f.m01.clone()],
                "bump model",
                &clock,
            )
            .unwrap();
        assert_eq!(res.report.reused_count(), 2);
        assert_eq!(res.report.executed_count(), 1);
        let delta = clock.snapshot();
        assert!(delta.total_ns() > before.total_ns());
        assert_eq!(res.commit.unwrap().seq, 1);
    }

    #[test]
    fn precheck_rejection_commits_nothing() {
        let f = fixture();
        let clock = ClockLedger::new();
        seed_master(&f, &clock);
        let before_ns = clock.snapshot().total_ns();
        // scaler 1.0 (dim 6) + model 0.4 (dim 4): the paper's incompatible
        // final iteration.
        let res = f
            .sys
            .commit_pipeline(
                "master",
                &[f.src.clone(), f.s10.clone(), f.m04.clone()],
                "doomed",
                &clock,
            )
            .unwrap();
        assert!(res.commit.is_none());
        assert!(matches!(
            res.report.outcome,
            RunOutcome::RejectedByPrecheck { .. }
        ));
        assert_eq!(
            clock.snapshot().total_ns(),
            before_ns,
            "rejected update costs no pipeline time"
        );
        assert_eq!(f.sys.graph().head("master").unwrap().seq, 0);
    }

    #[test]
    fn fast_forward_merge() {
        let f = fixture();
        let clock = ClockLedger::new();
        seed_master(&f, &clock);
        f.sys.branch("master", "dev").unwrap();
        f.sys
            .commit_pipeline(
                "dev",
                &[f.src.clone(), f.s00.clone(), f.m01.clone()],
                "dev work",
                &clock,
            )
            .unwrap();
        let out = f
            .sys
            .merge("master", "dev", MergeStrategy::Full, &clock)
            .unwrap();
        assert!(out.fast_forward);
        assert!(out.report.is_none());
        let c = out.commit.unwrap();
        assert_eq!(c.parents.len(), 2);
        // Master's head now carries dev's pipeline.
        let meta = f.sys.head_metafile("master").unwrap();
        assert_eq!(meta.component_version("test_model").unwrap(), &f.m01);
    }

    #[test]
    fn diverged_merge_selects_best_candidate() {
        let f = fixture();
        let clock = ClockLedger::new();
        seed_master(&f, &clock);
        f.sys.branch("master", "dev").unwrap();
        // Master moves: better scaler.
        f.sys
            .commit_pipeline(
                "master",
                &[f.src.clone(), f.s01.clone(), f.m00.clone()],
                "scaler 0.1",
                &clock,
            )
            .unwrap();
        // Dev moves: better model.
        f.sys
            .commit_pipeline(
                "dev",
                &[f.src.clone(), f.s00.clone(), f.m01.clone()],
                "model 0.1",
                &clock,
            )
            .unwrap();
        let out = f
            .sys
            .merge("master", "dev", MergeStrategy::Full, &clock)
            .unwrap();
        assert!(!out.fast_forward);
        let report = out.report.unwrap();
        // Space: 1 src × 2 scalers × 2 models = 4 candidates.
        assert_eq!(report.candidates_total, 4);
        // The metric-driven merge finds the cross-branch combination
        // (scaler 0.1 + model 0.1) that neither branch tested.
        let meta = f.sys.head_metafile("master").unwrap();
        assert_eq!(meta.component_version("test_scaler").unwrap(), &f.s01);
        assert_eq!(meta.component_version("test_model").unwrap(), &f.m01);
        let c = out.commit.unwrap();
        assert_eq!(c.parents.len(), 2);
        // Merge commit beats both parents' scores.
        let best = report.best.unwrap().1;
        let parent_meta = f.sys.head_metafile("dev").unwrap();
        assert!(best.value >= parent_meta.score.unwrap().value);
    }

    #[test]
    fn merge_search_space_excludes_pre_ancestor_versions() {
        let f = fixture();
        let clock = ClockLedger::new();
        seed_master(&f, &clock);
        // Advance master twice before branching; the old model 0.0 version
        // predates the fork point and must not appear in the search space.
        f.sys
            .commit_pipeline(
                "master",
                &[f.src.clone(), f.s00.clone(), f.m01.clone()],
                "model 0.1",
                &clock,
            )
            .unwrap();
        f.sys.branch("master", "dev").unwrap();
        f.sys
            .commit_pipeline(
                "master",
                &[f.src.clone(), f.s01.clone(), f.m01.clone()],
                "scaler 0.1",
                &clock,
            )
            .unwrap();
        // Dev adopts the schema-changing scaler 1.0 together with the
        // matching dim-6 model 0.2 (a compatible pipeline, so it commits).
        f.sys
            .commit_pipeline(
                "dev",
                &[f.src.clone(), f.s10.clone(), f.m02.clone()],
                "scaler 1.0 + model 0.2",
                &clock,
            )
            .unwrap();
        let spaces = f.sys.merge_search_spaces("master", "dev").unwrap();
        let model_versions = &spaces.per_slot[2];
        assert!(
            !model_versions.contains(&f.m00),
            "pre-ancestor version leaked into the space"
        );
        assert!(model_versions.contains(&f.m01));
        assert!(model_versions.contains(&f.m02));
    }

    #[test]
    fn search_spaces_read_only_the_view_they_are_given() {
        let f = fixture();
        let clock = ClockLedger::new();
        seed_master(&f, &clock);
        f.sys.branch("master", "dev").unwrap();
        let commit = |branch: &str, scaler: &ComponentKey, model: &ComponentKey| {
            f.sys
                .commit_pipeline(
                    branch,
                    &[f.src.clone(), scaler.clone(), model.clone()],
                    "update",
                    &clock,
                )
                .unwrap();
        };
        commit("master", &f.s01, &f.m00);
        commit("dev", &f.s00, &f.m01);
        let frozen = f.sys.graph();
        // Lands after the view was taken: invisible to a search over it.
        commit("dev", &f.s00, &f.m04);
        let models = |view: &GraphView| {
            let heads = (view.head("master").unwrap(), view.head("dev").unwrap());
            let spaces = f
                .sys
                .merge_search_spaces_qualified(view, ("master", &heads.0), ("dev", &heads.1))
                .unwrap();
            spaces.per_slot[2].clone()
        };
        assert!(!models(&frozen).contains(&f.m04));
        assert!(models(&f.sys.graph()).contains(&f.m04));
    }

    #[test]
    fn self_merge_rejected() {
        let f = fixture();
        let clock = ClockLedger::new();
        seed_master(&f, &clock);
        assert!(matches!(
            f.sys.merge("master", "master", MergeStrategy::Full, &clock),
            Err(CoreError::SelfMerge(_))
        ));
    }

    #[test]
    fn initial_scores_come_from_heads() {
        let f = fixture();
        let clock = ClockLedger::new();
        seed_master(&f, &clock);
        f.sys.branch("master", "dev").unwrap();
        f.sys
            .commit_pipeline(
                "dev",
                &[f.src.clone(), f.s00.clone(), f.m01.clone()],
                "dev",
                &clock,
            )
            .unwrap();
        let scores = f.sys.initial_scores("master", "dev").unwrap();
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|(_, v)| *v > 0.0));
    }

    #[test]
    fn commit_after_dev_work_isolates_master() {
        let f = fixture();
        let clock = ClockLedger::new();
        seed_master(&f, &clock);
        f.sys.branch("master", "dev").unwrap();
        f.sys
            .commit_pipeline(
                "dev",
                &[f.src.clone(), f.s01.clone(), f.m01.clone()],
                "dev iteration",
                &clock,
            )
            .unwrap();
        // Master untouched ("the master branch remains unchanged before the
        // merge if all updates are committed to the dev branch").
        let m = f.sys.head_metafile("master").unwrap();
        assert_eq!(m.component_version("test_model").unwrap(), &f.m00);
        assert_eq!(f.sys.graph().head("master").unwrap().seq, 0);
    }
}
