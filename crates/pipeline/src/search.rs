//! The one evaluation loop: a commit, a merge search, a prioritized trial
//! and a baseline's run are the same cut → lookup → trace → replay.
//!
//! [`evaluate`] owns the evaluation's one `ProfileBook` and works in
//! rounds. Each round it asks every [`Picker`] for its next batch, resolves
//! each candidate's keys to its bound pipeline and [`Provenance`], cuts it
//! against the history, answers a full cut with the cut's report, prechecks
//! the rest when the [`Policy`] says so, traces what is left
//! (`Executor::trace`), and hands each score back to its picker. Then it
//! replays every picker's candidates in pick order (`replay_run`). A
//! commit is a one-candidate list, a merge search the live leaves of its
//! pruned tree, a prioritized trial one adaptive pick per round, and
//! [`Executor::run`] one bound pipeline.
//!
//! A candidate is cut before it is traced and nothing is published before
//! every candidate is traced, so an evaluation never moves one of its own
//! cuts: a merge search cuts every candidate before it traces any, and
//! trials, which publish nothing, cut against the base history.

use crate::component::ComponentKey;
use crate::dag::BoundPipeline;
use crate::errors::PipelineError;
use crate::executor::{precheck, Executor, RunReport};
use crate::history::HistoryIndex;
use crate::parallel::{map_indexed, ParallelismPolicy};
use crate::provenance::{FrontierCut, Provenance};
use crate::replay::{replay_run, CacheSnapshot, ProfileBook, Publication};
use mlcask_ml::metrics::Score;
use std::sync::{Arc, OnceLock};

/// How an evaluation runs its candidates: the one policy type, whose values
/// are MLCask and the baselines it is compared with (§VII-B), the merge
/// ablations and the trials.
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Look checkpoints up in the history and reuse them in the replay
    /// (off for ModelDB and the from-scratch ablations).
    pub reuse: bool,
    /// Cut each candidate at its cached provenance frontier (the
    /// incremental fast path).
    pub cut: bool,
    /// Publish what the replay charged as executed into the history.
    pub publish: bool,
    /// Reject a statically doomed candidate before tracing it (MLCask
    /// does; the baselines discover incompatibility only when the failing
    /// component executes).
    pub precheck: bool,
    /// Worker-pool size, applied at two levels: candidates fan out across
    /// workers, and the workers left over fan each candidate's independent
    /// nodes out (wavefront scheduling). Reports are byte-identical for
    /// every worker count; see [`crate::replay`].
    pub parallelism: ParallelismPolicy,
    /// Span around each round.
    pub round_span: Option<&'static str>,
    /// Span around each traced candidate.
    pub candidate_span: Option<&'static str>,
}

impl Policy {
    /// MLCask: reuse, cut, precheck and publish.
    pub const MLCASK: Policy = Policy {
        reuse: true,
        cut: true,
        publish: true,
        precheck: true,
        parallelism: ParallelismPolicy::Sequential,
        round_span: None,
        candidate_span: None,
    };

    /// MLflow-like: reuse and publish, with no cut (its reuse is found
    /// node by node) and no precheck.
    pub const REUSE_ONLY: Policy = Policy {
        cut: false,
        precheck: false,
        ..Policy::MLCASK
    };

    /// ModelDB-like: no history read or written, no precheck.
    pub const RERUN_ALL: Policy = Policy {
        reuse: false,
        publish: false,
        ..Policy::REUSE_ONLY
    };

    /// The same policy with a different pool size.
    pub fn with_parallelism(mut self, parallelism: ParallelismPolicy) -> Policy {
        self.parallelism = parallelism;
        self
    }
}

/// A candidate the loop can evaluate: its keys bound, and what a frontier
/// cut and a publication need of it.
pub struct Candidate {
    /// The keys bound over the DAG, with their declared schemas.
    pub(crate) pipeline: BoundPipeline,
    /// Its fingerprints and the nodes a run dispatches.
    pub provenance: Provenance,
}

impl Candidate {
    /// `pipeline` with its provenance.
    pub fn of(pipeline: BoundPipeline) -> Result<Candidate, PipelineError> {
        let provenance = Provenance::of(&pipeline)?;
        Ok(Candidate {
            pipeline,
            provenance,
        })
    }
}

/// A source of candidates, asked for a batch once per round.
pub trait Picker {
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
pub struct Evaluated {
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
    /// Its bound pipeline and provenance, from the resolver.
    candidate: Arc<Candidate>,
    cut: Option<FrontierCut>,
    /// The report when nothing needs tracing: a full cut or a rejection.
    known: Option<RunReport>,
    /// Phase 1's score, handed back to the picker.
    score: Option<Score>,
    /// Nodes the frontier cut never scheduled.
    skipped: usize,
}

/// Evaluates everything `pickers` pick with `executor`, and returns per
/// picker its candidates in pick order — the same records for every worker
/// count. `resolve` turns a pick's keys into its [`Candidate`]; it is the
/// only thing the loop asks of its caller. A hard error (an unresolvable
/// component, a quota breach, a storage fault) surfaces with nothing
/// charged or published and every reservation released.
///
/// The profile book — and with it the replay cursor — is made by the first
/// pick that needs a trace: an evaluation whose every pick is a lookup or a
/// rejection makes none.
pub fn evaluate<P: Picker, E: From<PipelineError>>(
    executor: &Executor<'_>,
    history: &HistoryIndex,
    policy: Policy,
    pickers: &mut [P],
    mut resolve: impl FnMut(&[ComponentKey]) -> Result<Arc<Candidate>, E>,
) -> Result<Vec<Vec<Evaluated>>, E> {
    let store = executor.store;
    let book: OnceLock<ProfileBook> = OnceLock::new();
    let evaluated = (|| -> Result<Vec<Vec<Evaluated>>, E> {
        // Without reuse, candidates trace against a view holding no
        // checkpoints.
        let from_scratch;
        let lookup = if policy.reuse {
            history
        } else {
            from_scratch = history.decoded_only();
            &from_scratch
        };
        let mut picked: Vec<Vec<Pick>> = pickers.iter().map(|_| Vec::new()).collect();
        for round in 1usize.. {
            let mut batch: Vec<(usize, Pick)> = Vec::new();
            for (p, picker) in pickers.iter_mut().enumerate() {
                for keys in picker.pick() {
                    let candidate = resolve(&keys)?;
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
                    // A lookup skips every node, a rejection none, a trace
                    // what its cut holds.
                    let skipped = match &known {
                        Some(report) => report.stages.len(),
                        None => cut.as_ref().map_or(0, |cut| cut.skipped),
                    };
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
                let (outer, inner) = policy.parallelism.split(pending.len());
                let traced = map_indexed(outer, &pending, |_, &i| {
                    let _candidate_span = policy
                        .candidate_span
                        .map(|name| mlcask_obs::span!(name, "index" => i));
                    let pick = &batch[i].1;
                    let pipeline = &pick.candidate.pipeline;
                    executor.trace(pipeline, lookup, book, inner, pick.cut.as_ref())
                });
                for (&i, score) in pending.iter().zip(traced) {
                    batch[i].1.score = score?;
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
                            policy.reuse.then_some(&mut sim),
                            cursor.get_or_insert_with(|| book.replay_cursor()),
                            policy.publish.then(|| Publication {
                                index: history,
                                fingerprints: &pick.candidate.provenance.fingerprints,
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
    // Release whatever reservations the replay did not settle: traces past
    // a dynamic failure, and everything recorded before a hard error.
    if let Some(book) = book.get() {
        book.release_reservations(store);
    }
    evaluated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::test_support::{TestModel, TestScaler, TestSource};
    use crate::component::ComponentHandle;
    use crate::dag::PipelineDag;
    use crate::executor::RunOutcome;
    use crate::semver::SemVer;
    use mlcask_storage::store::ChunkStore;
    use std::collections::HashMap;

    /// One source, two scalers (the second widens to dim 6), two dim-4
    /// models, bound over a chain.
    struct Scenario {
        store: ChunkStore,
        dag: Arc<PipelineDag>,
        handles: HashMap<ComponentKey, ComponentHandle>,
        candidates: Vec<Vec<ComponentKey>>,
    }

    fn scenario() -> Scenario {
        let src: ComponentHandle = Arc::new(TestSource {
            version: SemVer::master(0, 0),
            dim: 4,
            rows: 8,
        });
        let scalers: [ComponentHandle; 2] = [(0, 4, 1.0), (1, 6, 2.0)].map(|(s, out, f)| {
            Arc::new(TestScaler {
                version: SemVer::master(s, 0),
                dim_in: 4,
                dim_out: out,
                factor: f,
            }) as ComponentHandle
        });
        let models: [ComponentHandle; 2] = [(0, 0.5), (1, 0.7)].map(|(inc, quality)| {
            Arc::new(TestModel {
                version: SemVer::master(0, inc),
                dim_in: 4,
                quality,
            }) as ComponentHandle
        });
        let mut candidates = Vec::new();
        for s in &scalers {
            for m in &models {
                candidates.push(vec![src.key(), s.key(), m.key()]);
            }
        }
        let handles = [src].into_iter().chain(scalers).chain(models);
        Scenario {
            store: ChunkStore::in_memory_small(),
            dag: Arc::new(
                PipelineDag::chain(&["test_source", "test_scaler", "test_model"]).unwrap(),
            ),
            handles: handles.map(|h| (h.key(), h)).collect(),
            candidates,
        }
    }

    impl Scenario {
        fn run<P: Picker>(
            &self,
            history: &HistoryIndex,
            policy: Policy,
            pickers: &mut [P],
        ) -> Vec<Vec<Evaluated>> {
            let resolve = |keys: &[ComponentKey]| {
                let handles = keys.iter().map(|k| Arc::clone(&self.handles[k])).collect();
                let pipeline = BoundPipeline::new(Arc::clone(&self.dag), handles)?;
                Candidate::of(pipeline).map(Arc::new)
            };
            evaluate(
                &Executor::new(&self.store),
                history,
                policy,
                pickers,
                resolve,
            )
            .unwrap()
        }
    }

    #[test]
    fn a_committed_pipeline_is_a_lookup_the_second_time() {
        let s = scenario();
        let history = HistoryIndex::new();
        let commit = |history: &HistoryIndex| {
            let mut list = vec![s.candidates[1].clone()];
            let mut out = s.run(history, Policy::MLCASK, std::slice::from_mut(&mut list));
            out.pop().unwrap().pop().unwrap()
        };
        let cold = commit(&history);
        assert_eq!(cold.report.executed_count(), 3);
        assert!(cold.report.clock.total_ns() > 0);
        assert_eq!(history.fingerprints().len(), 3, "a commit publishes");
        let stats = s.store.stats();
        let warm = commit(&history);
        assert_eq!(warm.report.reused_count(), 3);
        assert_eq!(warm.report.clock.total_ns(), 0);
        assert_eq!(warm.skipped, 3, "answered whole by its cut");
        assert_eq!(warm.report.outcome.score(), cold.report.outcome.score());
        assert_eq!(s.store.stats(), stats, "a lookup writes nothing");
    }

    #[test]
    fn a_doomed_commit_is_rejected_without_a_trace() {
        let s = scenario();
        let history = HistoryIndex::new();
        // Scaler 1.0 widens to dim 6; the model expects dim 4.
        let physical = s.store.physical_bytes();
        let mut list = vec![s.candidates[2].clone()];
        let out = s.run(&history, Policy::MLCASK, std::slice::from_mut(&mut list));
        let rejected = &out[0][0];
        assert!(matches!(
            rejected.report.outcome,
            RunOutcome::RejectedByPrecheck { .. }
        ));
        assert_eq!(rejected.report.clock.total_ns(), 0);
        assert_eq!(s.store.physical_bytes(), physical, "nothing executed");
        assert!(history.snapshot().is_empty());
    }

    #[test]
    fn each_picker_replays_with_its_own_reuse() {
        let s = scenario();
        let policy = Policy {
            precheck: false,
            publish: false,
            ..Policy::MLCASK
        };
        let compatible = vec![s.candidates[0].clone(), s.candidates[1].clone()];
        // One picker: the second pass over the list reuses the first's.
        let mut once = [[compatible.clone(), compatible.clone()].concat()];
        let one = s.run(&HistoryIndex::new(), policy, &mut once);
        assert_eq!(one[0][2].report.executed_count(), 0);
        // Two pickers: each pays for what it executes, as if alone.
        let s = scenario();
        let mut twice = [compatible.clone(), compatible];
        let two = s.run(&HistoryIndex::new(), policy, &mut twice);
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
        let s = scenario();
        let policy = Policy {
            publish: false,
            precheck: false,
            ..Policy::MLCASK
        };
        let mut pickers: Vec<OneByOne> = [s.candidates.clone(), s.candidates[..2].to_vec()]
            .into_iter()
            .map(|left| OneByOne {
                left,
                waiting: false,
                scores: Vec::new(),
            })
            .collect();
        let out = s.run(&HistoryIndex::new(), policy, &mut pickers);
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

    /// Runs `keys` alone under `policy`.
    fn run_one(
        s: &Scenario,
        history: &HistoryIndex,
        policy: Policy,
        keys: &[ComponentKey],
    ) -> Evaluated {
        let mut list = vec![keys.to_vec()];
        let mut out = s.run(history, policy, std::slice::from_mut(&mut list));
        out.pop().unwrap().pop().unwrap()
    }

    #[test]
    fn rerun_all_executes_everything_and_leaves_the_history_alone() {
        let s = scenario();
        let history = HistoryIndex::new();
        let committed = run_one(&s, &history, Policy::MLCASK, &s.candidates[1]);
        let published = history.fingerprints().len();
        assert_eq!(published, 3);
        let rerun = run_one(&s, &history, Policy::RERUN_ALL, &s.candidates[1]);
        assert_eq!(rerun.report.executed_count(), 3, "ModelDB reuses nothing");
        assert_eq!(rerun.skipped, 0, "and cuts nothing");
        assert_eq!(
            rerun.report.clock.exec_ns(),
            committed.report.clock.exec_ns()
        );
        assert_eq!(
            rerun.report.outcome.score(),
            committed.report.outcome.score()
        );
        // A candidate the history has never seen is not published either.
        run_one(&s, &history, Policy::RERUN_ALL, &s.candidates[0]);
        assert_eq!(history.fingerprints().len(), published);
        assert_eq!(history.snapshot().len(), published);
    }

    #[test]
    fn reuse_only_finds_checkpoints_node_by_node() {
        let s = scenario();
        let history = HistoryIndex::new();
        run_one(&s, &history, Policy::MLCASK, &s.candidates[1]);
        let again = run_one(&s, &history, Policy::REUSE_ONLY, &s.candidates[1]);
        assert_eq!(again.report.reused_count(), 3);
        assert_eq!(again.skipped, 0, "no cut: every node is traced");
        // A sibling model reuses the shared prefix and publishes its own.
        let sibling = run_one(&s, &history, Policy::REUSE_ONLY, &s.candidates[0]);
        assert_eq!(sibling.report.reused_count(), 2);
        assert_eq!(sibling.report.executed_count(), 1);
        assert_eq!(history.fingerprints().len(), 4);
    }

    #[test]
    fn without_a_precheck_a_doomed_candidate_fails_when_its_model_runs() {
        let s = scenario();
        let history = HistoryIndex::new();
        // Scaler 1.0 widens to dim 6; the model expects dim 4.
        let doomed = &s.candidates[2];
        let failed = run_one(&s, &history, Policy::REUSE_ONLY, doomed);
        match &failed.report.outcome {
            RunOutcome::Failed { at, .. } => assert_eq!(at, &doomed[2]),
            other => panic!("expected a mid-run failure, got {other:?}"),
        }
        assert!(
            failed.report.clock.total_ns() > 0,
            "the baselines pay for the stages before the failure"
        );
        let rejected = run_one(&s, &HistoryIndex::new(), Policy::MLCASK, doomed);
        assert!(matches!(
            rejected.report.outcome,
            RunOutcome::RejectedByPrecheck { .. }
        ));
    }

    #[test]
    fn a_hard_error_mid_evaluation_leaves_no_reservation_and_no_publication() {
        use crate::errors::PipelineError;
        use mlcask_storage::tenant::{QuotaPolicy, TenantId};
        let s = scenario();
        s.store
            .tenant_accounts()
            .register(TenantId(1), QuotaPolicy::logical(1_000_000));
        let tenant = s.store.for_tenant(TenantId(1));
        let accounts = s.store.tenant_accounts();
        let history = HistoryIndex::new();
        // The first pick is traced in round one; the second cannot be
        // resolved in round two.
        let mut pickers = [OneByOne {
            left: s.candidates[..2].to_vec(),
            waiting: false,
            scores: Vec::new(),
        }];
        let mut resolved = 0;
        let resolve = |keys: &[ComponentKey]| {
            resolved += 1;
            if resolved == 2 {
                return Err(PipelineError::UnknownComponent(keys[2].clone()));
            }
            let handles = keys.iter().map(|k| Arc::clone(&s.handles[k])).collect();
            let pipeline = BoundPipeline::new(Arc::clone(&s.dag), handles)?;
            Candidate::of(pipeline).map(Arc::new)
        };
        let out = evaluate(
            &Executor::new(&tenant),
            &history,
            Policy::MLCASK,
            &mut pickers,
            resolve,
        );
        assert!(matches!(out, Err(PipelineError::UnknownComponent(_))));
        assert_eq!(pickers[0].scores.len(), 1, "round one was traced");
        assert_eq!(accounts.open_reservations(), 0);
        assert_eq!(accounts.usage(TenantId(1)).logical_bytes, 0);
        assert!(history.snapshot().is_empty());
        assert!(history.fingerprints().is_empty());
    }
}
