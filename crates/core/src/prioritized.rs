//! Prioritized pipeline search (§VII-E).
//!
//! When the pruned candidate set is still large, MLCask orders the search so
//! promising candidates run first: every tree node carries a score (a leaf's
//! score is its pipeline metric; a parent's score is the average of its
//! scored children, seeded from the pipelines already trained on `HEAD` and
//! `MERGE_HEAD`). The search repeatedly descends from the root picking the
//! highest-scoring child until it reaches an un-run leaf. Under a time
//! budget this returns better pipelines earlier; with an unlimited budget it
//! finds the same optimum as the exhaustive pruned search.
//!
//! Trials read the base history and never write it: a node one trial
//! executes is adopted by the others through the shared [`ProfileBook`]'s
//! claim, not from a copy of the history per trial. Each trial's
//! accounting replay reuses what that trial executed earlier in its own
//! search order — what a live one-candidate-at-a-time trial would pay —
//! and publishes nothing.

use crate::errors::Result;
use crate::registry::ComponentRegistry;
use crate::search_space::{CompatLut, SearchSpaces};
use crate::tree::{NodeState, SearchTree};
use mlcask_ml::metrics::Score;
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::{BoundPipeline, PipelineDag};
use mlcask_pipeline::executor::{Executor, TracedOutcome};
use mlcask_pipeline::history::HistoryIndex;
use mlcask_pipeline::parallel::{map_indexed, ParallelismPolicy};
use mlcask_pipeline::provenance::{count_frontier_skipped, FrontierCut};
use mlcask_pipeline::replay::{replay_run, CacheSnapshot, ProfileBook, ReplayCursor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Candidate ordering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchMethod {
    /// Best-first descent by node scores (the paper's prioritized search).
    Prioritized,
    /// Uniformly random order (the paper's baseline).
    Random,
}

impl SearchMethod {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            SearchMethod::Prioritized => "Prioritized",
            SearchMethod::Random => "Random",
        }
    }
}

/// One candidate evaluation within a trial, in search order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchedCandidate {
    /// 1-based position in the search order.
    pub rank: usize,
    /// The candidate's component versions.
    pub keys: Vec<ComponentKey>,
    /// Its score (None if it failed).
    pub score: Option<Score>,
    /// Cumulative virtual time (ns) when this candidate finished.
    pub end_time_ns: u64,
}

/// Result of searching all candidates once.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialResult {
    /// Candidates in the order they were searched.
    pub searched: Vec<SearchedCandidate>,
    /// 1-based rank at which the global optimum was found.
    pub optimal_rank: Option<usize>,
}

/// Aggregated statistics over many trials (Fig. 10 / Table I).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialStats {
    /// Method these stats describe.
    pub method: SearchMethod,
    /// Number of trials aggregated.
    pub trials: usize,
    /// Per-rank aggregates (index 0 = first candidate searched).
    pub per_rank: Vec<RankStats>,
    /// Fraction of trials in which the optimum was found within the first
    /// `k+1` searches (index k).
    pub optimal_found_cdf: Vec<f64>,
    /// Nodes cut out of the plan statically by the provenance frontier,
    /// summed across all trials.
    pub skipped_by_frontier: usize,
}

/// Aggregates for the k-th searched candidate across trials.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RankStats {
    /// Mean end time in seconds.
    pub avg_end_time_s: f64,
    /// Mean score value.
    pub mean_score: f64,
    /// Score variance across trials.
    pub var_score: f64,
}

impl TrialStats {
    /// Fraction of trials with the optimum found within the first
    /// `fraction` (0–1] of searches — the Table I cells.
    pub fn optimal_within(&self, fraction: f64) -> f64 {
        if self.optimal_found_cdf.is_empty() {
            return 0.0;
        }
        let n = self.optimal_found_cdf.len();
        let k = ((n as f64 * fraction).ceil() as usize).clamp(1, n);
        self.optimal_found_cdf[k - 1]
    }
}

/// Prioritized/random search driver over one merge scenario.
pub struct PrioritizedSearcher<'a> {
    registry: &'a ComponentRegistry,
    dag: Arc<PipelineDag>,
    parallelism: ParallelismPolicy,
}

/// Mutable state of one in-flight trial, advanced one candidate at a time
/// so the trial scheduler can interleave candidates from many trials on a
/// single worker pool (divergent trial lengths then stop idling workers).
struct TrialState {
    tree: SearchTree,
    remaining: HashMap<usize, usize>,
    rng: StdRng,
    /// Pre-drawn search order (`Random`); `None` means adaptive descent.
    order: Option<Vec<usize>>,
    searched: Vec<(Vec<ComponentKey>, Option<Score>)>,
    bound: Vec<BoundPipeline>,
    skipped_by_frontier: usize,
    picked: usize,
    total: usize,
}

/// Folds one executed candidate back into its trial: scores drive the next
/// descent and `remaining` shrinks along the leaf's path, which is what
/// keeps the descent off it. Must be called in pick order for the trial (the descent is
/// adaptive), which the round-based scheduler guarantees — at most one
/// candidate per trial is in flight.
fn record_pick(
    state: &mut TrialState,
    leaf: usize,
    keys: Vec<ComponentKey>,
    pipeline: BoundPipeline,
    outcome: TracedOutcome,
) {
    if let Some(s) = outcome.score {
        state.tree.node_mut(leaf).score = Some(s.value);
        propagate_up(&mut state.tree, leaf);
    }
    // Decrement remaining along the path.
    for id in state.tree.path(leaf) {
        *state.remaining.get_mut(&id).expect("counted") -= 1;
    }
    *state
        .remaining
        .get_mut(&state.tree.root())
        .expect("counted") -= 1;
    state.skipped_by_frontier += outcome.skipped_by_frontier;
    state.searched.push((keys, outcome.score));
    state.bound.push(pipeline);
}

impl<'a> PrioritizedSearcher<'a> {
    /// Creates a searcher (sequential trial evaluation).
    pub fn new(registry: &'a ComponentRegistry, dag: Arc<PipelineDag>) -> Self {
        PrioritizedSearcher {
            registry,
            dag,
            parallelism: ParallelismPolicy::Sequential,
        }
    }

    /// Sets the worker pool used by [`PrioritizedSearcher::run_trials`].
    /// Trials are independent, so they fan out across workers; the replayed
    /// statistics are identical for every policy.
    pub fn with_parallelism(mut self, parallelism: ParallelismPolicy) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Builds the initial state of one trial: prune, seed initial scores,
    /// and draw the search order for `Random`.
    fn trial_state(
        &self,
        spaces: &SearchSpaces,
        initial_scores: &[(Vec<ComponentKey>, f64)],
        method: SearchMethod,
        seed: u64,
    ) -> Result<TrialState> {
        let mut tree = SearchTree::build(spaces);
        let preds = self.dag.predecessors();
        let lut = CompatLut::build(self.registry, spaces, preds)?;
        tree.prune_incompatible(&lut, preds);

        let leaves = tree.live_leaves();
        let mut leaf_of: HashMap<Vec<ComponentKey>, usize> = HashMap::new();
        for &l in &leaves {
            leaf_of.insert(tree.candidate(l), l);
        }
        // Seed initial scores and propagate averages upward.
        for (keys, value) in initial_scores {
            if let Some(&leaf) = leaf_of.get(keys) {
                tree.node_mut(leaf).score = Some(*value);
                propagate_up(&mut tree, leaf);
            }
        }

        // Remaining un-run leaf counts per subtree.
        let mut remaining: HashMap<usize, usize> = HashMap::new();
        for &l in &leaves {
            for id in tree.path(l) {
                *remaining.entry(id).or_insert(0) += 1;
            }
            *remaining.entry(tree.root()).or_insert(0) += 1;
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let order: Option<Vec<usize>> = match method {
            SearchMethod::Random => {
                let mut o = leaves.clone();
                o.shuffle(&mut rng);
                Some(o)
            }
            SearchMethod::Prioritized => None, // chosen adaptively
        };
        let total = leaves.len();
        Ok(TrialState {
            tree,
            remaining,
            rng,
            order,
            searched: Vec::with_capacity(total),
            bound: Vec::with_capacity(total),
            skipped_by_frontier: 0,
            picked: 0,
            total,
        })
    }

    /// Picks and binds the trial's next candidate, or `None` when the trial
    /// has searched every live leaf. Deterministic: the descent depends only
    /// on the trial's own rng and the scores recorded so far.
    fn pick_next(
        &self,
        state: &mut TrialState,
    ) -> Result<Option<(usize, Vec<ComponentKey>, BoundPipeline)>> {
        if state.picked == state.total {
            return Ok(None);
        }
        let leaf = match &state.order {
            Some(o) => o[state.picked],
            None => descend_best(&state.tree, &state.remaining, &mut state.rng),
        };
        state.picked += 1;
        let keys = state.tree.candidate(leaf);
        let pipeline = self.registry.bind(&self.dag, &keys)?;
        Ok(Some((leaf, keys, pipeline)))
    }

    /// Phase 2 of one trial: the deterministic accounting replay in search
    /// order — what a live one-candidate-at-a-time trial charges, reusing
    /// within the trial what it executed. `cursor` carries chunk-dedup state
    /// across trials in trial order. Trials publish nothing: the base
    /// history is the same for every trial.
    fn replay_trial(
        &self,
        trial: &TrialState,
        book: &ProfileBook,
        cursor: &mut ReplayCursor,
    ) -> Result<TrialResult> {
        let store = self.registry.store();
        let ledger = ClockLedger::new();
        let mut sim = CacheSnapshot::new();
        let mut searched = Vec::with_capacity(trial.searched.len());
        for (idx, ((keys, _), pipeline)) in trial.searched.iter().zip(&trial.bound).enumerate() {
            let report = replay_run(store, pipeline, book, Some(&mut sim), cursor, &ledger, None)?;
            searched.push(SearchedCandidate {
                rank: idx + 1,
                keys: keys.clone(),
                score: report.outcome.score(),
                end_time_ns: ledger.snapshot().total_ns(),
            });
        }

        // Identify the global optimum and the rank at which it appeared.
        let best = searched
            .iter()
            .filter_map(|s| s.score.map(|v| v.value))
            .fold(f64::NEG_INFINITY, f64::max);
        let optimal_rank = searched
            .iter()
            .find(|s| s.score.map(|v| v.value) == Some(best))
            .map(|s| s.rank);
        Ok(TrialResult {
            searched,
            optimal_rank,
        })
    }

    /// Searches one trial per seed to completion (phase 1), then replays
    /// their accounting in trial order (phase 2). Returns the per-trial
    /// results and the frontier-skipped node count summed across trials.
    ///
    /// Trials advance in work-stealing rounds: each round takes the *next*
    /// candidate from every still-active trial (a deterministic, sequential
    /// pick — the descent is adaptive) and fans the whole batch across the
    /// searcher's [`ParallelismPolicy`], so a long trial cannot idle the
    /// workers a short trial has released; with one trial the whole pool
    /// flows into each candidate's DAG. Trials share one [`ProfileBook`],
    /// whose claim executes each `(component, inputs)` key once, so a
    /// prefix common to several trials executes once rather than once per
    /// trial; the accounting replay walks trials in index order, so the
    /// results are identical for every worker count. An aborted
    /// search (quota breach, storage fault) releases every unsettled
    /// reservation before the error surfaces.
    fn search(
        &self,
        spaces: &SearchSpaces,
        base_history: &HistoryIndex,
        initial_scores: &[(Vec<ComponentKey>, f64)],
        method: SearchMethod,
        seeds: &[u64],
    ) -> Result<(Vec<TrialResult>, usize)> {
        let book = ProfileBook::new();
        book.reservation_scope(self.registry.store(), || {
            // Candidates cut against the base history, which no trial
            // writes, so a cut never depends on how far other trials have
            // got.
            let executor = Executor::new(self.registry.store());
            let mut states: Vec<TrialState> = seeds
                .iter()
                .map(|&seed| self.trial_state(spaces, initial_scores, method, seed))
                .collect::<Result<_>>()?;
            let mut round = 0usize;
            loop {
                // Pick phase: sequential and trial-local, so each trial's
                // search order is the same for every worker count.
                let mut picks = Vec::new();
                for (t, state) in states.iter_mut().enumerate() {
                    if let Some((leaf, keys, pipeline)) = self.pick_next(state)? {
                        picks.push((t, leaf, keys, pipeline));
                    }
                }
                if picks.is_empty() {
                    break;
                }
                round += 1;
                let _round_span = mlcask_obs::span!(
                    "trials.round",
                    "round" => round,
                    "picks" => picks.len(),
                );
                // Execute phase: the round's batch fans across the pool;
                // leftover workers run each candidate's DAG wavefront.
                let (outer, inner) = self.parallelism.split(picks.len());
                let outcomes = map_indexed(outer, &picks, |_, (_, _, _, pipeline)| {
                    let cut = FrontierCut::of(pipeline, base_history)?;
                    executor.trace(pipeline, base_history, &book, inner, Some(&cut))
                });
                // Record phase: fold results back in trial order.
                for ((t, leaf, keys, pipeline), outcome) in picks.into_iter().zip(outcomes) {
                    record_pick(&mut states[t], leaf, keys, pipeline, outcome?);
                }
            }
            let mut results = Vec::with_capacity(states.len());
            let mut skipped = 0usize;
            let mut cursor = book.replay_cursor();
            for state in &states {
                skipped += state.skipped_by_frontier;
                results.push(self.replay_trial(state, &book, &mut cursor)?);
            }
            count_frontier_skipped(skipped);
            Ok((results, skipped))
        })
    }

    /// Runs one trial: searches *all* live candidates in the order chosen by
    /// `method`, reusing checkpoints within the trial exactly as a real
    /// merge would. `initial_scores` seeds leaf scores (the trained
    /// pipelines on both heads).
    pub fn run_trial(
        &self,
        spaces: &SearchSpaces,
        base_history: &HistoryIndex,
        initial_scores: &[(Vec<ComponentKey>, f64)],
        method: SearchMethod,
        seed: u64,
    ) -> Result<TrialResult> {
        let (mut results, _) =
            self.search(spaces, base_history, initial_scores, method, &[seed])?;
        Ok(results.pop().expect("one seed yields one trial"))
    }

    /// Runs `trials` independent trials and aggregates Fig. 10 / Table I
    /// statistics. Trials advance in work-stealing rounds over one worker
    /// pool and one profile book; the aggregated statistics are identical
    /// for every worker count.
    pub fn run_trials(
        &self,
        spaces: &SearchSpaces,
        base_history: &HistoryIndex,
        initial_scores: &[(Vec<ComponentKey>, f64)],
        method: SearchMethod,
        trials: usize,
        seed: u64,
    ) -> Result<TrialStats> {
        // Trial 0 runs under `seed` itself, so `run_trial` is the one-trial
        // case of this search.
        let seeds: Vec<u64> = (0..trials)
            .map(|t| seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15))
            .collect();
        let (results, skipped_by_frontier) =
            self.search(spaces, base_history, initial_scores, method, &seeds)?;
        let n = results.first().map(|r| r.searched.len()).unwrap_or(0);
        let mut per_rank = Vec::with_capacity(n);
        for k in 0..n {
            let times: Vec<f64> = results
                .iter()
                .map(|r| r.searched[k].end_time_ns as f64 / 1e9)
                .collect();
            let scores: Vec<f64> = results
                .iter()
                .map(|r| r.searched[k].score.map(|s| s.value).unwrap_or(0.0))
                .collect();
            let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
            let m = mean(&scores);
            let var =
                scores.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / scores.len().max(1) as f64;
            per_rank.push(RankStats {
                avg_end_time_s: mean(&times),
                mean_score: m,
                var_score: var,
            });
        }
        let mut cdf = vec![0.0; n];
        for r in &results {
            if let Some(rank) = r.optimal_rank {
                for slot in cdf.iter_mut().skip(rank - 1) {
                    *slot += 1.0;
                }
            }
        }
        for v in &mut cdf {
            *v /= trials.max(1) as f64;
        }
        Ok(TrialStats {
            method,
            trials,
            per_rank,
            optimal_found_cdf: cdf,
            skipped_by_frontier,
        })
    }
}

/// Recomputes ancestor scores as the average of their scored children.
fn propagate_up(tree: &mut SearchTree, leaf: usize) {
    let mut cur = tree.node(leaf).parent;
    while let Some(id) = cur {
        let children = tree.node(id).children.clone();
        let scored: Vec<f64> = children
            .iter()
            .filter(|&&c| tree.node(c).state != NodeState::Incompatible)
            .filter_map(|&c| tree.node(c).score)
            .collect();
        if !scored.is_empty() {
            tree.node_mut(id).score = Some(scored.iter().sum::<f64>() / scored.len() as f64);
        }
        cur = tree.node(id).parent;
    }
}

/// Relative magnitude of the per-trial exploration jitter added to node
/// scores during the descent. In the paper, trial-to-trial variance comes
/// from training nondeterminism; our components are bit-deterministic, so a
/// small seeded jitter is the honest analogue (and prevents a slightly
/// misleading seed score from deterministically starving a subtree).
const DESCENT_JITTER: f64 = 0.01;

/// Best-first descent: from the root, repeatedly pick the child with the
/// highest effective score among subtrees that still contain un-run leaves.
/// Unscored children inherit their parent's effective score (the paper's
/// average-based expectation); scores are perturbed by a small per-trial
/// jitter, and exact ties break uniformly at random.
fn descend_best(tree: &SearchTree, remaining: &HashMap<usize, usize>, rng: &mut StdRng) -> usize {
    let mut cur = tree.root();
    let mut cur_eff = tree.node(cur).score.unwrap_or(0.5);
    loop {
        let node = tree.node(cur);
        if node.children.is_empty() {
            return cur;
        }
        let viable: Vec<usize> = node
            .children
            .iter()
            .copied()
            .filter(|c| tree.node(*c).state != NodeState::Incompatible)
            .filter(|c| remaining.get(c).copied().unwrap_or(0) > 0)
            .collect();
        debug_assert!(!viable.is_empty(), "descent into exhausted subtree");
        let base_eff = |c: usize| tree.node(c).score.unwrap_or(cur_eff);
        let jittered: Vec<(usize, f64)> = viable
            .iter()
            .map(|&c| {
                let jitter = (rng.gen::<f64>() * 2.0 - 1.0) * DESCENT_JITTER;
                (c, base_eff(c) * (1.0 + jitter))
            })
            .collect();
        let best = jittered
            .iter()
            .map(|&(_, e)| e)
            .fold(f64::NEG_INFINITY, f64::max);
        let ties: Vec<usize> = jittered
            .iter()
            .filter(|&&(_, e)| e == best)
            .map(|&(c, _)| c)
            .collect();
        let pick = ties[rng.gen_range(0..ties.len())];
        cur_eff = base_eff(pick);
        cur = pick;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
    use mlcask_pipeline::semver::SemVer;
    use mlcask_storage::store::ChunkStore;

    /// Registry with 1 source × 2 scalers × 4 models, all compatible, with
    /// monotonically increasing model quality.
    fn scenario() -> (ComponentRegistry, Arc<PipelineDag>, SearchSpaces) {
        let store = Arc::new(ChunkStore::in_memory_small());
        let reg = ComponentRegistry::with_exe_size(store, 1024);
        let src = toy_source(SemVer::master(0, 0), 4, 8);
        let scalers = [
            toy_scaler(SemVer::master(0, 0), 4, 4, 1.0),
            toy_scaler(SemVer::master(0, 1), 4, 4, 2.0),
        ];
        let models: Vec<_> = (0..4)
            .map(|i| toy_model(SemVer::master(0, i), 4, 0.3 + 0.15 * i as f64))
            .collect();
        let mut spaces = SearchSpaces {
            slot_names: toy_slots().iter().map(|s| s.to_string()).collect(),
            per_slot: vec![vec![], vec![], vec![]],
        };
        reg.register(src.clone()).unwrap();
        spaces.per_slot[0].push(src.key());
        for s in &scalers {
            reg.register(s.clone()).unwrap();
            spaces.per_slot[1].push(s.key());
        }
        for m in &models {
            reg.register(m.clone()).unwrap();
            spaces.per_slot[2].push(m.key());
        }
        let dag = Arc::new(PipelineDag::chain(&toy_slots()).unwrap());
        (reg, dag, spaces)
    }

    fn initial_scores(spaces: &SearchSpaces) -> Vec<(Vec<ComponentKey>, f64)> {
        // Pretend the HEAD pipeline (scaler 0.1, model 0.3 — the best) and
        // the MERGE_HEAD pipeline (scaler 0.0, model 0.0 — weak) are trained.
        vec![
            (
                vec![
                    spaces.per_slot[0][0].clone(),
                    spaces.per_slot[1][1].clone(),
                    spaces.per_slot[2][3].clone(),
                ],
                0.9,
            ),
            (
                vec![
                    spaces.per_slot[0][0].clone(),
                    spaces.per_slot[1][0].clone(),
                    spaces.per_slot[2][0].clone(),
                ],
                0.4,
            ),
        ]
    }

    #[test]
    fn trial_searches_every_candidate_once() {
        let (reg, dag, spaces) = scenario();
        let searcher = PrioritizedSearcher::new(&reg, dag);
        let history = HistoryIndex::new();
        let res = searcher
            .run_trial(
                &spaces,
                &history,
                &initial_scores(&spaces),
                SearchMethod::Random,
                7,
            )
            .unwrap();
        assert_eq!(res.searched.len(), 8);
        // Every candidate distinct.
        let mut keys: Vec<_> = res.searched.iter().map(|s| s.keys.clone()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 8);
        assert!(res.optimal_rank.is_some());
        // End times monotone.
        for w in res.searched.windows(2) {
            assert!(w[1].end_time_ns >= w[0].end_time_ns);
        }
    }

    #[test]
    fn prioritized_finds_optimum_earlier_on_average() {
        let (reg, dag, spaces) = scenario();
        let searcher = PrioritizedSearcher::new(&reg, dag);
        let history = HistoryIndex::new();
        let init = initial_scores(&spaces);
        let pri = searcher
            .run_trials(&spaces, &history, &init, SearchMethod::Prioritized, 20, 1)
            .unwrap();
        let rnd = searcher
            .run_trials(&spaces, &history, &init, SearchMethod::Random, 20, 1)
            .unwrap();
        // Compare CDF at 40% of searches: prioritized should dominate.
        assert!(
            pri.optimal_within(0.4) >= rnd.optimal_within(0.4),
            "prioritized {} vs random {}",
            pri.optimal_within(0.4),
            rnd.optimal_within(0.4)
        );
        // Both find it eventually.
        assert_eq!(pri.optimal_within(1.0), 1.0);
        assert_eq!(rnd.optimal_within(1.0), 1.0);
    }

    #[test]
    fn prioritized_early_ranks_score_higher() {
        let (reg, dag, spaces) = scenario();
        let searcher = PrioritizedSearcher::new(&reg, dag);
        let history = HistoryIndex::new();
        let stats = searcher
            .run_trials(
                &spaces,
                &history,
                &initial_scores(&spaces),
                SearchMethod::Prioritized,
                10,
                3,
            )
            .unwrap();
        let first = stats.per_rank.first().unwrap().mean_score;
        let last = stats.per_rank.last().unwrap().mean_score;
        assert!(
            first > last,
            "first-searched candidates should score higher: {first} vs {last}"
        );
    }

    #[test]
    fn random_scores_flat_across_ranks() {
        let (reg, dag, spaces) = scenario();
        let searcher = PrioritizedSearcher::new(&reg, dag);
        let history = HistoryIndex::new();
        let stats = searcher
            .run_trials(
                &spaces,
                &history,
                &initial_scores(&spaces),
                SearchMethod::Random,
                50,
                9,
            )
            .unwrap();
        // Mean score at the first and last rank should be similar (the
        // paper: "nearly the same for all pipeline candidates").
        let first = stats.per_rank.first().unwrap().mean_score;
        let last = stats.per_rank.last().unwrap().mean_score;
        assert!(
            (first - last).abs() < 0.15,
            "random should be flat: {first} vs {last}"
        );
    }

    #[test]
    fn cdf_is_monotone() {
        let (reg, dag, spaces) = scenario();
        let searcher = PrioritizedSearcher::new(&reg, dag);
        let history = HistoryIndex::new();
        for method in [SearchMethod::Prioritized, SearchMethod::Random] {
            let stats = searcher
                .run_trials(&spaces, &history, &initial_scores(&spaces), method, 10, 5)
                .unwrap();
            for w in stats.optimal_found_cdf.windows(2) {
                assert!(w[1] >= w[0]);
            }
            assert!(stats.optimal_within(1.0) <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn trials_are_deterministic_given_seed() {
        let (reg, dag, spaces) = scenario();
        let searcher = PrioritizedSearcher::new(&reg, dag);
        let history = HistoryIndex::new();
        let init = initial_scores(&spaces);
        let a = searcher
            .run_trial(&spaces, &history, &init, SearchMethod::Random, 42)
            .unwrap();
        let b = searcher
            .run_trial(&spaces, &history, &init, SearchMethod::Random, 42)
            .unwrap();
        let order_a: Vec<_> = a.searched.iter().map(|s| s.keys.clone()).collect();
        let order_b: Vec<_> = b.searched.iter().map(|s| s.keys.clone()).collect();
        assert_eq!(order_a, order_b);
    }

    #[test]
    fn method_labels() {
        assert_eq!(SearchMethod::Prioritized.label(), "Prioritized");
        assert_eq!(SearchMethod::Random.label(), "Random");
    }
}
