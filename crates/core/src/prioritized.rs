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
//! A trial is a picker of the evaluation loop merge searches and
//! commits also go through; `MergeEngine::run_trials` runs them over the
//! merge's PC-pruned tree. Trials read the base history and never write
//! it; a node one trial executes is adopted by the others through the
//! loop's shared profile book.

use crate::tree::{NodeState, SearchTree};
use mlcask_ml::metrics::Score;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::search::{Evaluated, Picker};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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
pub(crate) struct SearchedCandidate {
    /// 1-based position in the search order.
    pub(crate) rank: usize,
    /// Its score (None if it failed).
    pub(crate) score: Option<Score>,
    /// Cumulative virtual time (ns) when this candidate finished.
    pub(crate) end_time_ns: u64,
}

/// Result of searching all candidates once.
pub(crate) struct TrialResult {
    /// Candidates in the order they were searched.
    pub(crate) searched: Vec<SearchedCandidate>,
    /// 1-based rank at which the global optimum was found.
    pub(crate) optimal_rank: Option<usize>,
}

/// Aggregated statistics over many trials (Fig. 10 / Table I).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialStats {
    /// Method these stats describe.
    pub(crate) method: SearchMethod,
    /// Number of trials aggregated.
    pub trials: usize,
    /// Per-rank aggregates (index 0 = first candidate searched).
    pub per_rank: Vec<RankStats>,
    /// Fraction of trials in which the optimum was found within the first
    /// `k+1` searches (index k).
    pub(crate) optimal_found_cdf: Vec<f64>,
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
    pub(crate) var_score: f64,
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

impl TrialResult {
    /// Folds one trial's evaluated candidates, in search order: cumulative
    /// end times, and the rank at which the global optimum appeared.
    pub(crate) fn of(evaluated: Vec<Evaluated>) -> TrialResult {
        let mut end_time_ns = 0;
        let searched: Vec<SearchedCandidate> = evaluated
            .into_iter()
            .enumerate()
            .map(|(idx, e)| {
                end_time_ns += e.report.clock.total_ns();
                SearchedCandidate {
                    rank: idx + 1,
                    score: e.report.outcome.score(),
                    end_time_ns,
                }
            })
            .collect();
        let best = searched
            .iter()
            .filter_map(|s| s.score.map(|v| v.value))
            .fold(f64::NEG_INFINITY, f64::max);
        let optimal_rank = searched
            .iter()
            .find(|s| s.score.map(|v| v.value) == Some(best))
            .map(|s| s.rank);
        TrialResult {
            searched,
            optimal_rank,
        }
    }
}

impl TrialStats {
    /// Aggregates per-trial results (in trial order) into per-rank means
    /// and variances and the optimum-found CDF.
    pub(crate) fn of(
        method: SearchMethod,
        results: &[TrialResult],
        skipped_by_frontier: usize,
    ) -> TrialStats {
        let trials = results.len();
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
        for r in results {
            if let Some(rank) = r.optimal_rank {
                for slot in cdf.iter_mut().skip(rank - 1) {
                    *slot += 1.0;
                }
            }
        }
        for v in &mut cdf {
            *v /= trials.max(1) as f64;
        }
        TrialStats {
            method,
            trials,
            per_rank,
            optimal_found_cdf: cdf,
            skipped_by_frontier,
        }
    }
}

/// One trial as a picker of the evaluation loop: one candidate per round,
/// the next chosen from the scores handed back so far. Deterministic: the
/// descent depends only on the trial's own rng and its recorded scores.
pub(crate) struct Trial {
    tree: SearchTree,
    /// Un-run live leaves per subtree (and at the root, in all).
    remaining: HashMap<usize, usize>,
    rng: StdRng,
    /// The rest of a pre-drawn search order (`Random`); `None` means
    /// adaptive descent.
    order: Option<Vec<usize>>,
    /// The leaf picked this round, until its score comes back.
    pending: Option<usize>,
}

impl Trial {
    /// One trial per seed over the PC-pruned `tree`, seeded with
    /// `initial_scores`.
    pub(crate) fn seeded(
        mut tree: SearchTree,
        initial_scores: &[(Vec<ComponentKey>, f64)],
        method: SearchMethod,
        seeds: &[u64],
    ) -> Vec<Trial> {
        let leaves = tree.live_leaves();
        let leaf_of: HashMap<Vec<ComponentKey>, usize> =
            leaves.iter().map(|&l| (tree.candidate(l), l)).collect();
        // Seed initial scores and propagate averages upward.
        for (keys, value) in initial_scores {
            if let Some(&leaf) = leaf_of.get(keys) {
                tree.node_mut(leaf).score = Some(*value);
                propagate_up(&mut tree, leaf);
            }
        }
        let mut remaining: HashMap<usize, usize> = HashMap::new();
        for &l in &leaves {
            for id in tree.path(l) {
                *remaining.entry(id).or_insert(0) += 1;
            }
            *remaining.entry(tree.root()).or_insert(0) += 1;
        }
        seeds
            .iter()
            .map(|&seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let order = (method == SearchMethod::Random).then(|| {
                    let mut o = leaves.clone();
                    o.shuffle(&mut rng);
                    o.reverse();
                    o
                });
                Trial {
                    tree: tree.clone(),
                    remaining: remaining.clone(),
                    rng,
                    order,
                    pending: None,
                }
            })
            .collect()
    }
}

impl Picker for Trial {
    fn pick(&mut self) -> Vec<Vec<ComponentKey>> {
        if self
            .remaining
            .get(&self.tree.root())
            .is_none_or(|&n| n == 0)
        {
            return Vec::new();
        }
        let leaf = match &mut self.order {
            Some(order) => order.pop().expect("one drawn leaf per un-run leaf"),
            None => descend_best(&self.tree, &self.remaining, &mut self.rng),
        };
        self.pending = Some(leaf);
        vec![self.tree.candidate(leaf)]
    }

    /// Scores drive the next descent, and `remaining` shrinks along the
    /// leaf's path, which keeps the descent off it.
    fn scored(&mut self, score: Option<Score>) {
        let leaf = self.pending.take().expect("one pick awaits its score");
        if let Some(s) = score {
            self.tree.node_mut(leaf).score = Some(s.value);
            propagate_up(&mut self.tree, leaf);
        }
        for id in self.tree.path(leaf).into_iter().chain([self.tree.root()]) {
            *self.remaining.get_mut(&id).expect("counted") -= 1;
        }
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
    use crate::merge::MergeEngine;
    use crate::registry::ComponentRegistry;
    use crate::search_space::SearchSpaces;
    use crate::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
    use mlcask_pipeline::dag::PipelineDag;
    use mlcask_pipeline::history::HistoryIndex;
    use mlcask_pipeline::semver::SemVer;
    use mlcask_storage::store::ChunkStore;
    use std::sync::Arc;

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
        let searcher = MergeEngine::new(&reg, dag);
        let history = HistoryIndex::new();
        let trial = searcher
            .trials(
                &spaces,
                &history,
                &initial_scores(&spaces),
                SearchMethod::Random,
                &[7],
            )
            .unwrap()
            .pop()
            .unwrap();
        // Every candidate distinct.
        let mut keys: Vec<_> = trial.iter().map(|e| e.keys.clone()).collect();
        let res = TrialResult::of(trial);
        assert_eq!(res.searched.len(), 8);
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
        let searcher = MergeEngine::new(&reg, dag);
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
        let searcher = MergeEngine::new(&reg, dag);
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
        let searcher = MergeEngine::new(&reg, dag);
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
        let searcher = MergeEngine::new(&reg, dag);
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
        let searcher = MergeEngine::new(&reg, dag);
        let history = HistoryIndex::new();
        let init = initial_scores(&spaces);
        let order = || {
            let trials = searcher
                .trials(&spaces, &history, &init, SearchMethod::Random, &[42])
                .unwrap();
            trials[0].iter().map(|e| e.keys.clone()).collect::<Vec<_>>()
        };
        assert_eq!(order(), order());
    }

    #[test]
    fn method_labels() {
        assert_eq!(SearchMethod::Prioritized.label(), "Prioritized");
        assert_eq!(SearchMethod::Random.label(), "Random");
    }
}
