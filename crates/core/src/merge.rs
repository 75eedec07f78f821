//! The metric-driven merge search (§V–§VI, Algorithm 2).
//!
//! `p_merged = argmax { score(p) | p ∈ P_candidate }` — the merge selects
//! the best-scoring pipeline from the pre-merge candidate set rather than
//! blindly combining the latest components. Three ablation strategies mirror
//! the paper's systems:
//!
//! * [`MergeStrategy::WithoutPcPr`] — enumerate every combination, run each
//!   from scratch (the baseline whose cost grows with `∏|S(f_i)|`).
//! * [`MergeStrategy::WithoutPr`] — prune incompatible pipelines first, then
//!   run the survivors from scratch.
//! * [`MergeStrategy::Full`] — prune + reuse: depth-first traversal of the
//!   search tree where every node executes at most once (Algorithm 2).
//! * [`MergeStrategy::Naive`] — Git-style "take the latest components",
//!   shown in §V to be both failure-prone and metric-blind.

use crate::errors::Result;
use crate::memo::MemoTree;
use crate::prioritized::{SearchMethod, Trial, TrialResult, TrialStats};
use crate::registry::ComponentRegistry;
use crate::search_space::{CompatLut, SearchSpaces};
use crate::tree::{SearchTree, StateCounts};
use mlcask_ml::metrics::Score;
use mlcask_pipeline::clock::ClockSnapshot;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::history::HistoryIndex;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::provenance::count_frontier_skipped;
use mlcask_pipeline::search::{Evaluated, Policy};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Merge-search strategy (the paper's system ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MergeStrategy {
    /// Combine the latest component versions, Git-style.
    Naive,
    /// Exhaustive search, no pruning, no reuse ("MLCask w/o PCPR").
    WithoutPcPr,
    /// Compatibility pruning only, no reuse ("MLCask w/o PR").
    WithoutPr,
    /// Both pruning heuristics (full MLCask).
    Full,
}

impl MergeStrategy {
    /// Display label matching the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            MergeStrategy::Naive => "naive",
            MergeStrategy::WithoutPcPr => "MLCask w/o PCPR",
            MergeStrategy::WithoutPr => "MLCask w/o PR",
            MergeStrategy::Full => "MLCask",
        }
    }
}

/// One evaluated candidate pipeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CandidateRecord {
    /// Component versions in slot order.
    pub(crate) keys: Vec<ComponentKey>,
    /// Score if the candidate completed.
    pub(crate) score: Option<Score>,
    /// True if the candidate failed (mid-run incompatibility).
    pub(crate) failed: bool,
    /// Cumulative merge virtual time (ns) when this candidate finished.
    pub end_time_ns: u64,
}

/// Outcome of a merge search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MergeSearchReport {
    /// Strategy used.
    pub strategy: MergeStrategy,
    /// Upper bound `∏|S(f_i)|` on candidates.
    pub candidates_total: usize,
    /// Candidates actually evaluated (run or attempted).
    pub candidates_evaluated: usize,
    /// Candidates removed by compatibility pruning.
    pub candidates_pruned: usize,
    /// Fig. 4 node-state summary of the search tree.
    pub state_counts: StateCounts,
    /// Component executions actually performed.
    pub executed_components: usize,
    /// Component executions avoided via checkpoint reuse.
    pub reused_components: usize,
    /// Nodes never scheduled at all: cut out of the plan statically by the
    /// provenance frontier (a subset of `reused_components`).
    pub skipped_by_frontier: usize,
    /// Candidates that failed mid-run.
    pub failed_candidates: usize,
    /// Best candidate found.
    pub best: Option<(Vec<ComponentKey>, Score)>,
    /// Every evaluated candidate in evaluation order.
    pub candidates: Vec<CandidateRecord>,
    /// Virtual time consumed by the merge only.
    pub clock: ClockSnapshot,
    /// Logical bytes written during the merge.
    pub logical_bytes: u64,
    /// Physical (post-dedup) bytes written during the merge.
    pub physical_bytes: u64,
}

/// Executes merge searches — and the prioritized-search trials over the
/// same candidate tree (§VII-E) — against a registry and a history.
pub struct MergeEngine<'a> {
    registry: &'a ComponentRegistry,
    dag: Arc<PipelineDag>,
    parallelism: ParallelismPolicy,
    incremental: bool,
}

impl<'a> MergeEngine<'a> {
    /// Creates an engine for one pipeline shape (sequential evaluation),
    /// writing through the registry's store.
    pub fn new(registry: &'a ComponentRegistry, dag: Arc<PipelineDag>) -> Self {
        MergeEngine {
            registry,
            dag,
            parallelism: ParallelismPolicy::Sequential,
            incremental: true,
        }
    }

    /// Enables or disables the provenance fast path (frontier cuts and the
    /// lookup of fully cut candidates) for history-backed strategies and
    /// trials. Shared prefixes execute once either way: candidates claim
    /// their keys in one profile book. On by default; reports are
    /// byte-identical either way but for `skipped_by_frontier`, which
    /// counts the nodes the fast path cut (none when it is off) — otherwise
    /// only wall-clock changes — which makes the disabled engine the
    /// reference the fast path is tested against.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Sets the worker pool for candidates and trials. Reports and trial
    /// statistics are identical for every policy (see
    /// [`mlcask_pipeline::replay`]); only wall-clock time changes.
    pub fn with_parallelism(mut self, parallelism: ParallelismPolicy) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The search tree over `spaces`, PC-pruned (§VI-A) when `pc`: built
    /// here on the first request for this DAG shape, search spaces and
    /// `pc`, and read from the registry's memo after (see [`crate::memo`]).
    fn tree(&self, spaces: &SearchSpaces, pc: bool) -> Result<Arc<MemoTree>> {
        self.registry.memo(&self.dag).tree(spaces, pc, || {
            let mut tree = SearchTree::build(spaces);
            if pc {
                // Real DAG in-edges per slot: PC follows the pipeline
                // shape, which need not be a chain.
                let preds = self.dag.predecessors();
                let lut = CompatLut::build(self.registry, spaces, preds)?;
                tree.prune_incompatible(&lut, preds);
            }
            Ok(tree)
        })
    }

    /// Runs the merge search. `history` is consulted and extended only by
    /// the history-backed strategies (`Full`, which is PR, and `Naive`); the
    /// ablations run from scratch as the paper describes. Checkpoints enter
    /// `history` only through the phase-2 replay, which publishes each
    /// candidate's charged executions after charging them.
    ///
    /// Candidates go through the one evaluation loop (see
    /// [`mlcask_pipeline::replay`] for its two phases) on the engine's
    /// [`ParallelismPolicy`], so the returned report (records, scores,
    /// virtual end-times, storage accounting) is identical whatever the
    /// worker count. With the incremental fast path on, history-backed
    /// strategies cut every candidate against the history's fingerprints
    /// before tracing any: a candidate every node of which is a fingerprint
    /// hit is a lookup — its report is the cut's
    /// ([`FrontierCut::report`](mlcask_pipeline::provenance::FrontierCut::report)),
    /// in its place in candidate order — and only the others are traced and
    /// replayed. No strategy prechecks: incompatibilities are either pruned
    /// from the tree (PC) or discovered mid-run.
    ///
    /// Tenant-attributed stores take quota *reservations* during phase 1 and
    /// settle them in the phase-2 replay; if the search aborts in phase 1 —
    /// a mid-evaluation quota breach, an unresolvable component, a storage
    /// fault — every unsettled reservation is released before the error
    /// surfaces and nothing has been published, so the tenant's accounts
    /// and the history end exactly where they started. Blobs phase 1
    /// persisted are then unreferenced, for `Workspace::sweep_orphans`.
    pub fn search(
        &self,
        spaces: &SearchSpaces,
        history: &HistoryIndex,
        strategy: MergeStrategy,
    ) -> Result<MergeSearchReport> {
        let _search_span = mlcask_obs::span!(
            "merge.search",
            "strategy" => format!("{strategy:?}"),
            "candidates" => spaces.candidate_upper_bound(),
        );
        let store = self.registry.store();
        let stats_before = store.stats().total();
        let pc = matches!(strategy, MergeStrategy::WithoutPr | MergeStrategy::Full);
        let tree = self.tree(spaces, pc)?;
        // PR marking reads the history, so it is the one per-search pass
        // over the tree: it turns feasible nodes green.
        let mut state_counts = tree.counts;
        if strategy == MergeStrategy::Full {
            let marked = tree.tree.checkpoints(history, self.dag.predecessors());
            state_counts.checkpointed += marked;
            state_counts.feasible -= marked;
        }
        // Marking never prunes, so the live leaves are the ones pruning
        // left; a naive merge with an empty slot has no candidate at all.
        let candidates: Vec<Vec<ComponentKey>> = match strategy {
            MergeStrategy::Naive => naive_candidate(spaces).into_iter().collect(),
            _ => tree.candidates.clone(),
        };
        let candidates_total = spaces.candidate_upper_bound();
        let mut report = MergeSearchReport {
            strategy,
            candidates_total,
            candidates_evaluated: candidates.len(),
            candidates_pruned: if pc {
                candidates_total - candidates.len()
            } else {
                0
            },
            state_counts,
            executed_components: 0,
            reused_components: 0,
            skipped_by_frontier: 0,
            failed_candidates: 0,
            best: None,
            candidates: Vec::with_capacity(candidates.len()),
            clock: ClockSnapshot::default(),
            logical_bytes: 0,
            physical_bytes: 0,
        };
        // The from-scratch ablations pay every component for every
        // candidate; Full and Naive reuse and extend the shared history.
        let reuse = matches!(strategy, MergeStrategy::Full | MergeStrategy::Naive);
        let policy = Policy {
            reuse,
            cut: reuse && self.incremental,
            publish: reuse,
            precheck: false,
            parallelism: self.parallelism,
            round_span: None,
            candidate_span: Some("merge.candidate"),
        };
        let evaluated = self
            .registry
            .evaluate(&self.dag, history, policy, &mut [candidates])?;
        for e in evaluated.into_iter().flatten() {
            report.clock = report.clock.plus(&e.report.clock);
            report.executed_components += e.report.executed_count();
            report.reused_components += e.report.reused_count();
            report.skipped_by_frontier += e.skipped;
            let score = e.report.outcome.score();
            let failed = !e.report.outcome.is_completed();
            report.failed_candidates += failed as usize;
            if let Some(s) = score {
                if report
                    .best
                    .as_ref()
                    .is_none_or(|(_, b)| s.total_cmp(b).is_gt())
                {
                    report.best = Some((e.keys.clone(), s));
                }
            }
            report.candidates.push(CandidateRecord {
                keys: e.keys,
                score,
                failed,
                end_time_ns: report.clock.total_ns(),
            });
        }
        count_frontier_skipped(report.skipped_by_frontier);
        let stats_after = store.stats().total();
        report.logical_bytes = stats_after.logical_bytes - stats_before.logical_bytes;
        report.physical_bytes = stats_after.physical_bytes - stats_before.physical_bytes;
        Ok(report)
    }

    /// Runs `trials` independent prioritized or random trials over the
    /// PC-pruned candidate tree and aggregates Fig. 10 / Table I
    /// statistics. Each trial searches *all* live candidates in the order
    /// chosen by `method`, reusing within the trial what it executed
    /// earlier — what a live one-candidate-at-a-time trial would pay;
    /// `initial_scores` seeds leaf scores (the trained pipelines on both
    /// heads).
    ///
    /// Trials read `base_history` and never write it: a pick it holds
    /// whole is a lookup. They advance in rounds of the evaluation loop,
    /// one candidate per trial per round, so a long trial cannot idle the
    /// workers a short trial has released, and share one profile book, so
    /// a prefix common to several executes once. The statistics are
    /// identical for every worker count.
    pub fn run_trials(
        &self,
        spaces: &SearchSpaces,
        base_history: &HistoryIndex,
        initial_scores: &[(Vec<ComponentKey>, f64)],
        method: SearchMethod,
        trials: usize,
        seed: u64,
    ) -> Result<TrialStats> {
        // Trial 0 runs under `seed` itself.
        let seeds: Vec<u64> = (0..trials)
            .map(|t| seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let evaluated = self.trials(spaces, base_history, initial_scores, method, &seeds)?;
        let skipped = evaluated.iter().flatten().map(|e| e.skipped).sum();
        count_frontier_skipped(skipped);
        let results: Vec<TrialResult> = evaluated.into_iter().map(TrialResult::of).collect();
        Ok(TrialStats::of(method, &results, skipped))
    }

    /// One trial per seed: its candidates in search order, as the
    /// evaluation loop evaluated them.
    pub(crate) fn trials(
        &self,
        spaces: &SearchSpaces,
        base_history: &HistoryIndex,
        initial_scores: &[(Vec<ComponentKey>, f64)],
        method: SearchMethod,
        seeds: &[u64],
    ) -> Result<Vec<Vec<Evaluated>>> {
        let tree = self.tree(spaces, true)?.tree.clone();
        let mut trials = Trial::seeded(tree, initial_scores, method, seeds);
        let policy = Policy {
            reuse: true,
            cut: self.incremental,
            publish: false,
            precheck: false,
            parallelism: self.parallelism,
            round_span: Some("trials.round"),
            candidate_span: None,
        };
        self.registry
            .evaluate(&self.dag, base_history, policy, &mut trials)
    }
}

/// The naive merge candidate: the newest version of every component across
/// both branches (what Git-style merging would pick), or `None` when a slot
/// has no version at all.
pub(crate) fn naive_candidate(spaces: &SearchSpaces) -> Option<Vec<ComponentKey>> {
    spaces
        .per_slot
        .iter()
        .map(|versions| {
            versions
                .iter()
                .max_by_key(|k| (k.version.schema, k.version.increment))
                .cloned()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
    use mlcask_pipeline::executor::Executor;
    use mlcask_pipeline::semver::SemVer;
    use mlcask_storage::store::ChunkStore;

    /// Builds a Fig.-3-like scenario:
    /// * source: one version (dim 4)
    /// * scaler: 0.0/0.1 keep dim 4; 1.0 widens to 6 (schema change)
    /// * model: 0.0, 0.1, 0.4 expect dim 4; 0.2, 0.3 expect dim 6
    fn scenario() -> (ComponentRegistry, Arc<PipelineDag>, SearchSpaces) {
        let store = Arc::new(ChunkStore::in_memory_small());
        let reg = ComponentRegistry::with_exe_size(store, 2048);
        let src = toy_source(SemVer::master(0, 0), 4, 16);
        let s00 = toy_scaler(SemVer::master(0, 0), 4, 4, 1.0);
        let s01 = toy_scaler(SemVer::master(0, 1), 4, 4, 2.0);
        let s10 = toy_scaler(SemVer::master(1, 0), 4, 6, 3.0);
        let m00 = toy_model(SemVer::master(0, 0), 4, 0.50);
        let m01 = toy_model(SemVer::master(0, 1), 4, 0.60);
        let m02 = toy_model(SemVer::master(0, 2), 6, 0.70);
        let m03 = toy_model(SemVer::master(0, 3), 6, 0.80);
        let m04 = toy_model(SemVer::master(0, 4), 4, 0.90);
        let mut spaces = SearchSpaces {
            slot_names: toy_slots().iter().map(|s| s.to_string()).collect(),
            per_slot: vec![vec![], vec![], vec![]],
        };
        reg.register(src.clone()).unwrap();
        spaces.per_slot[0].push(src.key());
        for c in [&s00, &s01, &s10] {
            reg.register(c.clone()).unwrap();
            spaces.per_slot[1].push(c.key());
        }
        for c in [&m00, &m01, &m02, &m03, &m04] {
            reg.register(c.clone()).unwrap();
            spaces.per_slot[2].push(c.key());
        }
        let dag = Arc::new(PipelineDag::chain(&toy_slots()).unwrap());
        (reg, dag, spaces)
    }

    #[test]
    fn exhaustive_evaluates_upper_bound() {
        let (reg, dag, spaces) = scenario();
        let engine = MergeEngine::new(&reg, dag);
        let history = HistoryIndex::new();
        let report = engine
            .search(&spaces, &history, MergeStrategy::WithoutPcPr)
            .unwrap();
        assert_eq!(report.candidates_total, 15);
        assert_eq!(report.candidates_evaluated, 15);
        assert_eq!(report.candidates_pruned, 0);
        // 2 scalers × 2 incompatible dim-6 models + 1 scaler × 3 incompatible
        // dim-4 models = 7 failing candidates.
        assert_eq!(report.failed_candidates, 7);
        assert!(report.best.is_some());
    }

    #[test]
    fn compat_pruning_removes_doomed_candidates() {
        let (reg, dag, spaces) = scenario();
        let engine = MergeEngine::new(&reg, dag);
        let history = HistoryIndex::new();
        let report = engine
            .search(&spaces, &history, MergeStrategy::WithoutPr)
            .unwrap();
        assert_eq!(report.candidates_pruned, 7);
        assert_eq!(report.candidates_evaluated, 8);
        assert_eq!(report.failed_candidates, 0, "pruning removed all failures");
        assert!(report.best.is_some());
    }

    #[test]
    fn full_strategy_executes_each_node_once() {
        let (reg, dag, spaces) = scenario();
        let engine = MergeEngine::new(&reg, dag.clone());
        let history = HistoryIndex::new();
        let report = engine
            .search(&spaces, &history, MergeStrategy::Full)
            .unwrap();
        assert_eq!(report.candidates_evaluated, 8);
        // Distinct tree nodes along live paths: 1 source + 3 scalers +
        // (2 scalers × 3 dim4 models) + (1 scaler × 2 dim6 models) = 12.
        assert_eq!(
            report.executed_components, 12,
            "every live tree node executes exactly once"
        );
        assert!(report.reused_components > 0);
        assert!(report.best.is_some());
    }

    #[test]
    fn full_is_faster_and_smaller_than_ablations() {
        let strategies = [
            MergeStrategy::WithoutPcPr,
            MergeStrategy::WithoutPr,
            MergeStrategy::Full,
        ];
        let mut times = Vec::new();
        let mut bytes = Vec::new();
        let mut bests = Vec::new();
        for s in strategies {
            let (reg, dag, spaces) = scenario(); // fresh store per strategy
            let engine = MergeEngine::new(&reg, dag);
            let history = HistoryIndex::new();
            let r = engine.search(&spaces, &history, s).unwrap();
            times.push(r.clock.total_ns());
            bytes.push(r.physical_bytes);
            bests.push(r.best.clone().unwrap());
        }
        assert!(times[2] < times[1], "Full beats w/o PR: {times:?}");
        assert!(times[1] < times[0], "w/o PR beats w/o PCPR: {times:?}");
        assert!(bytes[2] <= bytes[1]);
        // All strategies agree on the optimum (they search the same space).
        assert_eq!(bests[0].1.raw, bests[2].1.raw);
        assert_eq!(bests[1].1.raw, bests[2].1.raw);
    }

    #[test]
    fn full_reuses_prior_history() {
        let (reg, dag, spaces) = scenario();
        let engine = MergeEngine::new(&reg, dag.clone());
        let history = HistoryIndex::new();
        // Pre-train one pipeline (the common ancestor's, say) so its prefix
        // is checkpointed.
        let keys = vec![
            spaces.per_slot[0][0].clone(),
            spaces.per_slot[1][0].clone(),
            spaces.per_slot[2][0].clone(),
        ];
        let bound = reg.bind(&dag, &keys).unwrap();
        let pre_train_ns = Executor::new(reg.store())
            .run(&bound, Some(&history), Policy::MLCASK)
            .unwrap()
            .clock
            .total_ns();
        let report = engine
            .search(&spaces, &history, MergeStrategy::Full)
            .unwrap();
        // The pre-trained path's three nodes are green → fewer executions.
        assert_eq!(report.executed_components, 9);
        assert_eq!(
            report.state_counts.checkpointed, 3,
            "exactly its path is green"
        );
        assert!(pre_train_ns > 0);
    }

    #[test]
    fn naive_candidate_picks_latest_and_fails_here() {
        let (reg, dag, spaces) = scenario();
        let cand = naive_candidate(&spaces).unwrap();
        // Latest scaler is 1.0 (dim 6), latest model is 0.4 (expects dim 4):
        // exactly the paper's incompatibility example.
        assert_eq!(cand[1].version, SemVer::master(1, 0));
        assert_eq!(cand[2].version, SemVer::master(0, 4));
        let engine = MergeEngine::new(&reg, dag);
        let history = HistoryIndex::new();
        let report = engine
            .search(&spaces, &history, MergeStrategy::Naive)
            .unwrap();
        assert_eq!(report.candidates_evaluated, 1);
        assert_eq!(report.failed_candidates, 1);
        assert!(report.best.is_none());
    }

    #[test]
    fn an_empty_slot_leaves_every_strategy_without_a_candidate() {
        let (reg, dag, mut spaces) = scenario();
        spaces.per_slot[2].clear();
        assert!(naive_candidate(&spaces).is_none());
        let engine = MergeEngine::new(&reg, dag);
        for strategy in [
            MergeStrategy::Naive,
            MergeStrategy::WithoutPcPr,
            MergeStrategy::WithoutPr,
            MergeStrategy::Full,
        ] {
            let report = engine
                .search(&spaces, &HistoryIndex::new(), strategy)
                .unwrap();
            assert_eq!(report.candidates_evaluated, 0, "{strategy:?}");
            assert!(report.best.is_none(), "{strategy:?}");
        }
    }

    #[test]
    fn candidate_end_times_are_monotone() {
        let (reg, dag, spaces) = scenario();
        let engine = MergeEngine::new(&reg, dag);
        let history = HistoryIndex::new();
        let report = engine
            .search(&spaces, &history, MergeStrategy::Full)
            .unwrap();
        for w in report.candidates.windows(2) {
            assert!(w[1].end_time_ns >= w[0].end_time_ns);
        }
        assert_eq!(
            report.clock.total_ns(),
            report.candidates.last().unwrap().end_time_ns
        );
    }

    #[test]
    fn best_score_is_global_max() {
        let (reg, dag, spaces) = scenario();
        let engine = MergeEngine::new(&reg, dag);
        let history = HistoryIndex::new();
        let report = engine
            .search(&spaces, &history, MergeStrategy::Full)
            .unwrap();
        let (_, best) = report.best.clone().unwrap();
        for c in &report.candidates {
            if let Some(s) = c.score {
                assert!(best.value >= s.value);
            }
        }
    }
}
