//! The one evaluation loop: a commit, a merge search and a prioritized trial
//! are the same cut → lookup → trace → replay.
//!
//! [`evaluate`] owns the evaluation's one [`ProfileBook`] and works in
//! rounds. Each round it asks every [`Picker`] for its next batch, binds and
//! cuts each candidate against the history, answers a full cut with the
//! cut's report, prechecks the rest when the [`Policy`] says so, traces what
//! is left, and hands each score back to its picker. Then it replays every
//! picker's candidates in pick order (see [`mlcask_pipeline::replay`]).
//! A commit is a one-candidate list, a merge search the live leaves of its
//! pruned tree, a prioritized trial one adaptive pick per round.
//!
//! A candidate is cut before it is traced and nothing is published before
//! every candidate is traced, so an evaluation never moves one of its own
//! cuts: a merge search cuts every candidate before it traces any, and
//! trials, which publish nothing, cut against the base history.

use crate::errors::Result;
use crate::memo::Candidate;
use crate::registry::ComponentRegistry;
use mlcask_ml::metrics::Score;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::executor::{precheck, Executor, RunReport};
use mlcask_pipeline::history::HistoryIndex;
use mlcask_pipeline::parallel::{map_indexed, ParallelismPolicy};
use mlcask_pipeline::provenance::FrontierCut;
use mlcask_pipeline::replay::{replay_run, CacheSnapshot, ProfileBook, Publication};
use std::sync::{Arc, OnceLock};

/// The strategy's choices, as data.
#[derive(Clone, Copy)]
pub(crate) struct Policy {
    /// Look checkpoints up in the history and reuse them in the replay
    /// (off for the from-scratch ablations).
    pub use_history: bool,
    /// Cut each candidate at its cached provenance frontier (the
    /// incremental fast path).
    pub cut: bool,
    /// Publish what the replay charged as executed into the history.
    pub publish: bool,
    /// Reject a statically doomed candidate before tracing it.
    pub precheck: bool,
    /// Span around each round.
    pub round_span: Option<&'static str>,
    /// Span around each traced candidate.
    pub candidate_span: Option<&'static str>,
}

impl Policy {
    /// MLCask's commit: reuse, cut, precheck and publish.
    pub const COMMIT: Policy = Policy {
        use_history: true,
        cut: true,
        publish: true,
        precheck: true,
        round_span: None,
        candidate_span: None,
    };
}

/// A source of candidates, asked for a batch once per round.
pub(crate) trait Picker {
    /// The next batch; empty once the picker is done.
    fn pick(&mut self) -> Vec<Vec<ComponentKey>>;

    /// The score of one picked candidate (`None` if it failed or was
    /// rejected), handed back in pick order at the end of its round.
    fn scored(&mut self, _score: Option<Score>) {}
}

/// A fixed list is picked whole in the first round.
impl Picker for Vec<Vec<ComponentKey>> {
    fn pick(&mut self) -> Vec<Vec<ComponentKey>> {
        std::mem::take(self)
    }
}

/// One candidate as the loop evaluated it.
pub(crate) struct Evaluated {
    /// Component versions in slot order.
    pub keys: Vec<ComponentKey>,
    /// The cut's report for a lookup, the precheck's for a rejection, the
    /// replay's otherwise.
    pub report: RunReport,
    /// Nodes the frontier cut never scheduled.
    pub skipped: usize,
}

/// A picked candidate, from its round to its replay.
struct Pick {
    keys: Vec<ComponentKey>,
    /// Its bound pipeline and provenance, from the registry's memo.
    candidate: Arc<Candidate>,
    cut: Option<FrontierCut>,
    /// The report when nothing needs tracing: a full cut or a rejection.
    known: Option<RunReport>,
    /// Phase 1's score, handed back to the picker.
    score: Option<Score>,
    skipped: usize,
}

/// Evaluates everything `pickers` pick, on `parallelism`'s pool, and
/// returns per picker its candidates in pick order — the same records for
/// every worker count. A hard error (an unresolvable component, a quota
/// breach, a storage fault) surfaces with nothing charged or published and
/// every reservation released.
///
/// Each candidate's bound pipeline and provenance come from the registry's
/// memo ([`crate::memo`]), so only the history is read per evaluation. The
/// profile book — and with it the reservation scope and the replay cursor
/// — is made by the first pick that needs a trace: an evaluation whose
/// every pick is a lookup or a rejection makes none.
pub(crate) fn evaluate<P: Picker>(
    registry: &ComponentRegistry,
    dag: &Arc<PipelineDag>,
    history: &HistoryIndex,
    policy: Policy,
    parallelism: ParallelismPolicy,
    pickers: &mut [P],
) -> Result<Vec<Vec<Evaluated>>> {
    let store = registry.store();
    let book: OnceLock<ProfileBook> = OnceLock::new();
    let evaluated = (|| -> Result<Vec<Vec<Evaluated>>> {
        let memo = registry.memo(dag);
        // The ablations trace against a view holding no checkpoints.
        let from_scratch;
        let lookup = if policy.use_history {
            history
        } else {
            from_scratch = history.decoded_only();
            &from_scratch
        };
        let executor = Executor::new(store);
        let mut picked: Vec<Vec<Pick>> = pickers.iter().map(|_| Vec::new()).collect();
        for round in 1usize.. {
            let mut batch: Vec<(usize, Pick)> = Vec::new();
            for (p, picker) in pickers.iter_mut().enumerate() {
                for keys in picker.pick() {
                    let candidate = memo.candidate(registry, &keys)?;
                    let (pipeline, provenance) = (&candidate.pipeline, &candidate.provenance);
                    let cut = policy
                        .cut
                        .then(|| FrontierCut::against(pipeline, provenance, history))
                        .transpose()?;
                    let known = match cut.as_ref().and_then(|cut| cut.report(pipeline)) {
                        None if policy.precheck => precheck(pipeline),
                        known => known,
                    };
                    let score = known.as_ref().and_then(|r| r.outcome.score());
                    // A lookup skips every node, a rejection reports none.
                    let skipped = known.as_ref().map_or(0, |r| r.stages.len());
                    let pick = Pick {
                        keys,
                        candidate,
                        cut,
                        known,
                        score,
                        skipped,
                    };
                    batch.push((p, pick));
                }
            }
            if batch.is_empty() {
                break;
            }
            let _round_span = policy
                .round_span
                .map(|name| mlcask_obs::span!(name, "round" => round, "picks" => batch.len()));
            // Candidates share the book, so a prefix common to several
            // executes once; leftover workers run each candidate's DAG.
            let pending: Vec<usize> = (0..batch.len())
                .filter(|&i| batch[i].1.known.is_none())
                .collect();
            if !pending.is_empty() {
                let book = book.get_or_init(ProfileBook::new);
                let (outer, inner) = parallelism.split(pending.len());
                let traced = map_indexed(outer, &pending, |_, &i| {
                    let _candidate_span = policy
                        .candidate_span
                        .map(|name| mlcask_obs::span!(name, "index" => i));
                    let pick = &batch[i].1;
                    let pipeline = &pick.candidate.pipeline;
                    executor.trace(pipeline, lookup, book, inner, pick.cut.as_ref())
                });
                for (&i, outcome) in pending.iter().zip(traced) {
                    let outcome = outcome?;
                    batch[i].1.score = outcome.score;
                    batch[i].1.skipped = outcome.skipped_by_frontier;
                }
            }
            for (p, pick) in batch {
                pickers[p].scored(pick.score);
                picked[p].push(pick);
            }
        }

        // Phase 2: each picker replays with its own reuse simulation, all of
        // them through one chunk cursor, taken once every trace is done.
        let mut cursor = None;
        let mut evaluated = Vec::with_capacity(picked.len());
        for picks in picked {
            let mut sim = CacheSnapshot::new();
            let mut records = Vec::with_capacity(picks.len());
            for pick in picks {
                let report = match pick.known {
                    Some(report) => report,
                    None => {
                        let book = book.get().expect("a traced pick made the book");
                        replay_run(
                            store,
                            &pick.candidate.pipeline,
                            book,
                            policy.use_history.then_some(&mut sim),
                            cursor.get_or_insert_with(|| book.replay_cursor()),
                            policy.publish.then(|| Publication {
                                index: history,
                                fingerprints: Some(&pick.candidate.provenance.fingerprints),
                            }),
                        )?
                    }
                };
                records.push(Evaluated {
                    keys: pick.keys,
                    report,
                    skipped: pick.skipped,
                });
            }
            evaluated.push(records);
        }
        Ok(evaluated)
    })();
    // The reservation scope: release whatever the replay did not settle.
    if let Some(book) = book.get() {
        book.release_reservations(store);
    }
    evaluated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
    use mlcask_pipeline::executor::RunOutcome;
    use mlcask_pipeline::semver::SemVer;
    use mlcask_storage::store::ChunkStore;

    /// One source, two scalers (the second widens to dim 6), two dim-4
    /// models.
    fn scenario() -> (ComponentRegistry, Arc<PipelineDag>, Vec<Vec<ComponentKey>>) {
        let store = Arc::new(ChunkStore::in_memory_small());
        let reg = ComponentRegistry::with_exe_size(store, 1024);
        let src = toy_source(SemVer::master(0, 0), 4, 8);
        let scalers = [
            toy_scaler(SemVer::master(0, 0), 4, 4, 1.0),
            toy_scaler(SemVer::master(1, 0), 4, 6, 2.0),
        ];
        let models = [
            toy_model(SemVer::master(0, 0), 4, 0.5),
            toy_model(SemVer::master(0, 1), 4, 0.7),
        ];
        let mut candidates = Vec::new();
        for s in &scalers {
            for m in &models {
                candidates.push(vec![src.key(), s.key(), m.key()]);
            }
        }
        for c in [src].iter().chain(&scalers).chain(&models) {
            reg.register(c.clone()).unwrap();
        }
        (
            reg,
            Arc::new(PipelineDag::chain(&toy_slots()).unwrap()),
            candidates,
        )
    }

    fn run<P: Picker>(
        reg: &ComponentRegistry,
        dag: &Arc<PipelineDag>,
        history: &HistoryIndex,
        policy: Policy,
        pickers: &mut [P],
    ) -> Vec<Vec<Evaluated>> {
        evaluate(
            reg,
            dag,
            history,
            policy,
            ParallelismPolicy::Sequential,
            pickers,
        )
        .unwrap()
    }

    #[test]
    fn a_committed_pipeline_is_a_lookup_the_second_time() {
        let (reg, dag, candidates) = scenario();
        let history = HistoryIndex::new();
        let commit = |history: &HistoryIndex| {
            let mut list = vec![candidates[1].clone()];
            let mut out = run(
                &reg,
                &dag,
                history,
                Policy::COMMIT,
                std::slice::from_mut(&mut list),
            );
            out.pop().unwrap().pop().unwrap()
        };
        let cold = commit(&history);
        assert_eq!(cold.report.executed_count(), 3);
        assert!(cold.report.clock.total_ns() > 0);
        assert_eq!(history.fingerprints().len(), 3, "a commit publishes");
        let stats = reg.store().stats();
        let warm = commit(&history);
        assert_eq!(warm.report.reused_count(), 3);
        assert_eq!(warm.report.clock.total_ns(), 0);
        assert_eq!(warm.skipped, 3, "answered whole by its cut");
        assert_eq!(warm.report.outcome.score(), cold.report.outcome.score());
        assert_eq!(reg.store().stats(), stats, "a lookup writes nothing");
    }

    #[test]
    fn a_doomed_commit_is_rejected_without_a_trace() {
        let (reg, dag, candidates) = scenario();
        let history = HistoryIndex::new();
        // Scaler 1.0 widens to dim 6; the model expects dim 4.
        let physical = reg.store().physical_bytes();
        let mut list = vec![candidates[2].clone()];
        let out = run(
            &reg,
            &dag,
            &history,
            Policy::COMMIT,
            std::slice::from_mut(&mut list),
        );
        let rejected = &out[0][0];
        assert!(matches!(
            rejected.report.outcome,
            RunOutcome::RejectedByPrecheck { .. }
        ));
        assert_eq!(rejected.report.clock.total_ns(), 0);
        assert_eq!(reg.store().physical_bytes(), physical, "nothing executed");
        assert!(history.snapshot().is_empty());
    }

    #[test]
    fn each_picker_replays_with_its_own_reuse() {
        let (reg, dag, candidates) = scenario();
        let policy = Policy {
            precheck: false,
            publish: false,
            ..Policy::COMMIT
        };
        let compatible = vec![candidates[0].clone(), candidates[1].clone()];
        // One picker: the second pass over the list reuses the first's.
        let mut once = [[compatible.clone(), compatible.clone()].concat()];
        let one = run(&reg, &dag, &HistoryIndex::new(), policy, &mut once);
        assert_eq!(one[0][2].report.executed_count(), 0);
        // Two pickers: each pays for what it executes, as if alone.
        let (reg, dag, _) = scenario();
        let mut twice = [compatible.clone(), compatible];
        let two = run(&reg, &dag, &HistoryIndex::new(), policy, &mut twice);
        for (a, b) in two[0].iter().zip(&two[1]) {
            assert_eq!(a.keys, b.keys);
            assert_eq!(a.report.executed_count(), b.report.executed_count());
            assert_eq!(a.report.clock.exec_ns(), b.report.clock.exec_ns());
        }
        assert_eq!(two[1][0].report.executed_count(), 3);
    }

    /// Picks one candidate per round and only once the previous score is
    /// back, recording what it was handed.
    struct OneByOne {
        left: Vec<Vec<ComponentKey>>,
        waiting: bool,
        scores: Vec<Option<Score>>,
    }

    impl Picker for OneByOne {
        fn pick(&mut self) -> Vec<Vec<ComponentKey>> {
            assert!(!self.waiting, "picked before its score came back");
            if self.left.is_empty() {
                return Vec::new();
            }
            self.waiting = true;
            vec![self.left.remove(0)]
        }

        fn scored(&mut self, score: Option<Score>) {
            self.waiting = false;
            self.scores.push(score);
        }
    }

    #[test]
    fn adaptive_pickers_get_their_scores_in_pick_order() {
        let (reg, dag, candidates) = scenario();
        let policy = Policy {
            publish: false,
            precheck: false,
            ..Policy::COMMIT
        };
        let mut pickers: Vec<OneByOne> = [candidates.clone(), candidates[..2].to_vec()]
            .into_iter()
            .map(|left| OneByOne {
                left,
                waiting: false,
                scores: Vec::new(),
            })
            .collect();
        let out = run(&reg, &dag, &HistoryIndex::new(), policy, &mut pickers);
        for (picker, records) in pickers.iter().zip(&out) {
            let replayed: Vec<Option<Score>> =
                records.iter().map(|e| e.report.outcome.score()).collect();
            assert_eq!(picker.scores, replayed);
        }
        assert_eq!(out[0].len(), 4);
        assert_eq!(out[1].len(), 2);
        // The widening scaler fails its model mid-run.
        assert!(out[0][2].report.outcome.score().is_none());
    }
}
