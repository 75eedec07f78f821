//! Determinism of the parallel candidate-evaluation engines.
//!
//! `MergeEngine::search` and `MergeEngine::run_trials` evaluate
//! candidates in two phases: parallel traced execution, then a sequential
//! accounting replay in canonical order (see `mlcask_pipeline::replay`).
//! These tests pin the resulting guarantee: for every strategy and worker
//! count, the report — candidate order, scores, virtual end-times, storage
//! accounting, ledger totals, and history side-state — is **byte-identical**
//! (compared via JSON serialization) to the one-worker run's. There is one
//! execution engine, so this file compares worker counts against each
//! other; the engine is checked against an independent sequential walk by
//! `mlcask_pipeline`'s executor unit tests.

mod common;

use mlcask_core::merge::{MergeEngine, MergeSearchReport, MergeStrategy};
use mlcask_core::prioritized::SearchMethod;
use mlcask_core::registry::ComponentRegistry;
use mlcask_core::search_space::SearchSpaces;
use mlcask_core::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::executor::Executor;
use mlcask_pipeline::history::HistoryIndex;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::search::Policy;
use mlcask_pipeline::semver::SemVer;
use mlcask_storage::store::ChunkStore;
use std::sync::Arc;

/// A Fig.-3-like scenario: 1 source × 3 scalers × 5 models, with schema
/// incompatibilities so some candidates fail (exercising the failure path).
fn scenario() -> (ComponentRegistry, Arc<PipelineDag>, SearchSpaces) {
    let store = Arc::new(ChunkStore::in_memory_small());
    let reg = ComponentRegistry::with_exe_size(store, 2048);
    let src = toy_source(SemVer::master(0, 0), 4, 16);
    let scalers = [
        toy_scaler(SemVer::master(0, 0), 4, 4, 1.0),
        toy_scaler(SemVer::master(0, 1), 4, 4, 2.0),
        toy_scaler(SemVer::master(1, 0), 4, 6, 3.0), // schema change
    ];
    let models = [
        toy_model(SemVer::master(0, 0), 4, 0.50),
        toy_model(SemVer::master(0, 1), 4, 0.60),
        toy_model(SemVer::master(0, 2), 6, 0.70),
        toy_model(SemVer::master(0, 3), 6, 0.80),
        toy_model(SemVer::master(0, 4), 4, 0.90),
    ];
    let mut spaces = SearchSpaces {
        slot_names: toy_slots().iter().map(|s| s.to_string()).collect(),
        per_slot: vec![vec![], vec![], vec![]],
    };
    reg.register(src.clone()).unwrap();
    spaces.per_slot[0].push(src.key());
    for c in &scalers {
        reg.register(c.clone()).unwrap();
        spaces.per_slot[1].push(c.key());
    }
    for c in &models {
        reg.register(c.clone()).unwrap();
        spaces.per_slot[2].push(c.key());
    }
    let dag = Arc::new(PipelineDag::chain(&toy_slots()).unwrap());
    (reg, dag, spaces)
}

/// Runs a fresh merge search under `policy` and returns every observable:
/// the full report (its clock included), store stats, and history size.
fn run_search(
    strategy: MergeStrategy,
    policy: ParallelismPolicy,
    pretrain: bool,
) -> (MergeSearchReport, String) {
    let (reg, dag, spaces) = scenario();
    let history = HistoryIndex::new();
    if pretrain {
        // Checkpoint one pipeline up front so the Full strategy exercises
        // pre-existing history reuse.
        let keys = vec![
            spaces.per_slot[0][0].clone(),
            spaces.per_slot[1][0].clone(),
            spaces.per_slot[2][0].clone(),
        ];
        let bound = reg.bind(&dag, &keys).unwrap();
        Executor::new(reg.store())
            .run(&bound, Some(&history), Policy::MLCASK)
            .unwrap();
    }
    let engine = MergeEngine::new(&reg, dag).with_parallelism(policy);
    let report = engine.search(&spaces, &history, strategy).unwrap();
    let observables = format!(
        "report={} stats={} history_len={}",
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&reg.store().stats()).unwrap(),
        history.snapshot().len(),
    );
    (report, observables)
}

#[test]
fn merge_search_parallel_report_identical_to_sequential() {
    for strategy in [
        MergeStrategy::Full,
        MergeStrategy::WithoutPr,
        MergeStrategy::WithoutPcPr,
        MergeStrategy::Naive,
    ] {
        let (_, sequential) = run_search(strategy, ParallelismPolicy::Sequential, false);
        for workers in [2, 4, 8] {
            let (_, parallel) = run_search(strategy, ParallelismPolicy::Parallel(workers), false);
            assert_eq!(
                sequential, parallel,
                "{strategy:?} with {workers} workers diverged from sequential"
            );
        }
    }
}

#[test]
fn merge_search_with_prior_history_identical() {
    for strategy in [MergeStrategy::Full, MergeStrategy::Naive] {
        let (_, sequential) = run_search(strategy, ParallelismPolicy::Sequential, true);
        let (_, parallel) = run_search(strategy, ParallelismPolicy::Parallel(4), true);
        assert_eq!(
            sequential, parallel,
            "{strategy:?} with warm history diverged"
        );
    }
}

#[test]
fn parallel_candidate_end_times_are_monotone() {
    let (report, _) = run_search(MergeStrategy::Full, ParallelismPolicy::Parallel(4), false);
    assert!(!report.candidates.is_empty());
    for w in report.candidates.windows(2) {
        assert!(w[1].end_time_ns >= w[0].end_time_ns);
    }
    assert_eq!(
        report.clock.total_ns(),
        report.candidates.last().unwrap().end_time_ns,
        "merge clock ends at the last candidate's end time"
    );
}

fn initial_scores(spaces: &SearchSpaces) -> Vec<(Vec<ComponentKey>, f64)> {
    vec![
        (
            vec![
                spaces.per_slot[0][0].clone(),
                spaces.per_slot[1][1].clone(),
                spaces.per_slot[2][4].clone(),
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

fn run_trials(policy: ParallelismPolicy, method: SearchMethod) -> String {
    let (reg, dag, spaces) = scenario();
    let history = HistoryIndex::new();
    let searcher = MergeEngine::new(&reg, dag).with_parallelism(policy);
    let stats = searcher
        .run_trials(&spaces, &history, &initial_scores(&spaces), method, 12, 42)
        .unwrap();
    format!(
        "stats={} store={}",
        serde_json::to_string(&stats).unwrap(),
        serde_json::to_string(&reg.store().stats()).unwrap(),
    )
}

#[test]
fn prioritized_trials_parallel_identical_to_sequential() {
    for method in [SearchMethod::Prioritized, SearchMethod::Random] {
        let sequential = run_trials(ParallelismPolicy::Sequential, method);
        for workers in [2, 4] {
            let parallel = run_trials(ParallelismPolicy::Parallel(workers), method);
            assert_eq!(
                sequential, parallel,
                "{method:?} trials with {workers} workers diverged"
            );
        }
    }
}

#[test]
fn auto_policy_matches_sequential_too() {
    let (_, sequential) = run_search(MergeStrategy::Full, ParallelismPolicy::Sequential, false);
    let (_, auto) = run_search(MergeStrategy::Full, ParallelismPolicy::auto(), false);
    assert_eq!(sequential, auto);
}

// ---------------------------------------------------------------------------
// Non-chain DAGs: the executor must be byte-identical to its one-worker
// (inline, canonical-order) execution for every worker count, including
// interleaved traced writes from sibling branches and mid-DAG failures.
// ---------------------------------------------------------------------------

mod dag {
    use super::*;
    use mlcask_ml::metrics::{MetricKind, Score};
    use mlcask_ml::tensor::Matrix;
    use mlcask_pipeline::artifact::{Artifact, ArtifactData, Features, ModelArtifact};
    use mlcask_pipeline::component::{Component, ComponentHandle, StageKind};
    use mlcask_pipeline::dag::BoundPipeline;
    use mlcask_pipeline::errors::Result as PipelineResult;
    use mlcask_pipeline::schema::{Schema, SchemaId};

    const DIM: usize = 6;
    const ROWS: usize = 64;

    fn feature_schema(dim: usize) -> SchemaId {
        Schema::FeatureMatrix { dim, n_classes: 2 }.id()
    }

    struct Src;

    impl Component for Src {
        fn name(&self) -> &str {
            "src"
        }
        fn version(&self) -> SemVer {
            SemVer::master(0, 0)
        }
        fn stage(&self) -> StageKind {
            StageKind::Ingest
        }
        fn input_schema(&self) -> Option<SchemaId> {
            None
        }
        fn output_schema(&self) -> SchemaId {
            feature_schema(DIM)
        }
        fn run(&self, _inputs: &[Artifact]) -> PipelineResult<Artifact> {
            let x = Matrix::from_fn(ROWS, DIM, |r, c| ((r * 13 + c * 5) % 11) as f32 / 11.0);
            let y = (0..ROWS).map(|r| r % 2).collect();
            Ok(Artifact::new(
                ArtifactData::Features(Features { x, y, n_classes: 2 }),
                self.output_schema(),
            ))
        }
        fn work_units(&self, _inputs: &[Artifact]) -> u64 {
            (ROWS * DIM) as u64
        }
    }

    /// Sibling branch. Every `Twin` with the same `factor` produces a
    /// byte-identical artifact, so parallel siblings race their traced
    /// writes on exactly the same chunks — the dedup-attribution case the
    /// replay protocol must keep canonical.
    struct Twin {
        name: &'static str,
        factor: f32,
    }

    impl Component for Twin {
        fn name(&self) -> &str {
            self.name
        }
        fn version(&self) -> SemVer {
            SemVer::master(0, 0)
        }
        fn stage(&self) -> StageKind {
            StageKind::PreProcess
        }
        fn input_schema(&self) -> Option<SchemaId> {
            Some(feature_schema(DIM))
        }
        fn output_schema(&self) -> SchemaId {
            feature_schema(DIM)
        }
        fn run(&self, inputs: &[Artifact]) -> PipelineResult<Artifact> {
            self.check_compatibility(inputs)?;
            let ArtifactData::Features(f) = inputs[0].data() else {
                unreachable!("schema-checked input");
            };
            let x = Matrix::from_fn(f.x.rows(), DIM, |r, c| f.x.get(r, c) * self.factor);
            Ok(Artifact::new(
                ArtifactData::Features(Features {
                    x,
                    y: f.y.clone(),
                    n_classes: f.n_classes,
                }),
                self.output_schema(),
            ))
        }
        fn work_units(&self, inputs: &[Artifact]) -> u64 {
            inputs.first().map(|a| a.byte_len()).unwrap_or(1)
        }
    }

    /// Fan-in joining all branch outputs; `dim_out` lets tests inject a
    /// schema change for mid-DAG failure coverage.
    struct Join {
        dim_out: usize,
    }

    impl Component for Join {
        fn name(&self) -> &str {
            "join"
        }
        fn version(&self) -> SemVer {
            SemVer::master(0, 0)
        }
        fn stage(&self) -> StageKind {
            StageKind::PreProcess
        }
        fn input_schema(&self) -> Option<SchemaId> {
            Some(feature_schema(DIM))
        }
        fn output_schema(&self) -> SchemaId {
            feature_schema(self.dim_out)
        }
        fn run(&self, inputs: &[Artifact]) -> PipelineResult<Artifact> {
            self.check_compatibility(inputs)?;
            let feats: Vec<&Features> = inputs
                .iter()
                .map(|a| match a.data() {
                    ArtifactData::Features(f) => f,
                    _ => unreachable!("schema-checked input"),
                })
                .collect();
            let first = feats[0];
            let x = Matrix::from_fn(first.x.rows(), self.dim_out, |r, c| {
                if c < DIM {
                    feats.iter().map(|f| f.x.get(r, c)).sum::<f32>() / feats.len() as f32
                } else {
                    0.0
                }
            });
            Ok(Artifact::new(
                ArtifactData::Features(Features {
                    x,
                    y: first.y.clone(),
                    n_classes: first.n_classes,
                }),
                self.output_schema(),
            ))
        }
        fn work_units(&self, inputs: &[Artifact]) -> u64 {
            inputs.iter().map(|a| a.byte_len()).sum::<u64>().max(1)
        }
    }

    struct Model {
        dim_in: usize,
    }

    impl Component for Model {
        fn name(&self) -> &str {
            "model"
        }
        fn version(&self) -> SemVer {
            SemVer::master(0, 0)
        }
        fn stage(&self) -> StageKind {
            StageKind::ModelTraining
        }
        fn input_schema(&self) -> Option<SchemaId> {
            Some(feature_schema(self.dim_in))
        }
        fn output_schema(&self) -> SchemaId {
            Schema::Model {
                family: "dag-test".into(),
            }
            .id()
        }
        fn run(&self, inputs: &[Artifact]) -> PipelineResult<Artifact> {
            self.check_compatibility(inputs)?;
            let ArtifactData::Features(f) = inputs[0].data() else {
                unreachable!("schema-checked input");
            };
            let mean = f.x.as_slice().iter().map(|v| *v as f64).sum::<f64>()
                / f.x.as_slice().len().max(1) as f64;
            Ok(Artifact::new(
                ArtifactData::Model(ModelArtifact {
                    family: "dag-test".into(),
                    blob: vec![7u8; 48],
                    score: Score::new(MetricKind::Accuracy, (0.5 + mean / 4.0).min(1.0)),
                }),
                self.output_schema(),
            ))
        }
        fn work_units(&self, inputs: &[Artifact]) -> u64 {
            inputs.first().map(|a| a.byte_len() * 2).unwrap_or(1)
        }
    }

    /// `src → {twin_a, twin_b, twin_c} → join → model`, with twins
    /// producing byte-identical outputs (maximal traced-write contention).
    fn fan_pipeline(join_out: usize, model_in: usize) -> BoundPipeline {
        let mut dag = PipelineDag::new();
        for n in ["src", "twin_a", "twin_b", "twin_c", "join", "model"] {
            dag.add_node(n).unwrap();
        }
        for b in ["twin_a", "twin_b", "twin_c"] {
            dag.add_edge("src", b).unwrap();
            dag.add_edge(b, "join").unwrap();
        }
        dag.add_edge("join", "model").unwrap();
        let comps: Vec<ComponentHandle> = vec![
            Arc::new(Src),
            Arc::new(Twin {
                name: "twin_a",
                factor: 2.0,
            }),
            Arc::new(Twin {
                name: "twin_b",
                factor: 2.0,
            }),
            Arc::new(Twin {
                name: "twin_c",
                factor: 2.0,
            }),
            Arc::new(Join { dim_out: join_out }),
            Arc::new(Model { dim_in: model_in }),
        ];
        BoundPipeline::new(Arc::new(dag), comps).unwrap()
    }

    /// Runs the fan pipeline twice on one fresh store (second run re-writes
    /// identical content, pinning cross-run dedup attribution) and returns
    /// every observable.
    fn run_fan(policy: ParallelismPolicy, join_out: usize, model_in: usize) -> String {
        let p = fan_pipeline(join_out, model_in);
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let cache = HistoryIndex::new();
        // Without reuse, and published, so the history is observed too.
        let options = Policy {
            publish: true,
            ..Policy::RERUN_ALL.with_parallelism(policy)
        };
        let first = exec.run(&p, Some(&cache), options).unwrap();
        let second = exec.run(&p, Some(&cache), options).unwrap();
        format!(
            "first={} second={} stats={} physical={} cache_len={}",
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            serde_json::to_string(&store.stats()).unwrap(),
            store.physical_bytes(),
            cache.snapshot().len(),
        )
    }

    #[test]
    fn fan_dag_identical_across_worker_counts() {
        let sequential = run_fan(ParallelismPolicy::Sequential, DIM, DIM);
        for workers in [1, 2, 8] {
            let parallel = run_fan(ParallelismPolicy::Parallel(workers), DIM, DIM);
            assert_eq!(
                sequential, parallel,
                "fan DAG with {workers} workers diverged from sequential"
            );
        }
    }

    #[test]
    fn fan_dag_mid_failure_identical_across_worker_counts() {
        // Join widens to DIM+2 but the model expects DIM: the run fails at
        // the model *after* all three sibling branches and the join ran.
        let sequential = run_fan(ParallelismPolicy::Sequential, DIM + 2, DIM);
        for workers in [1, 2, 8] {
            let parallel = run_fan(ParallelismPolicy::Parallel(workers), DIM + 2, DIM);
            assert_eq!(
                sequential, parallel,
                "failing fan DAG with {workers} workers diverged"
            );
        }
    }

    /// Full collaborative lifecycle on the diamond fusion workload: commit,
    /// branch, fast-forward merge, diverged metric-driven merge — all
    /// observables identical across worker counts {1, 2, 8}.
    fn run_fusion_lifecycle(policy: ParallelismPolicy) -> String {
        use mlcask_workloads::scenario::{build_system, setup_nonlinear};
        let w = mlcask_workloads::fusion::build();
        let (reg, sys) = build_system(&w).unwrap();
        let sys = sys.with_parallelism(policy);
        setup_nonlinear(&sys, &w).unwrap();
        let clock = ClockLedger::new();
        let merge = sys
            .merge("master", "dev", MergeStrategy::Full, &clock)
            .unwrap();
        let meta = sys.head_metafile("master").unwrap();
        format!(
            "ff={} report={} meta={} clock={} stats={} history_len={}",
            merge.fast_forward,
            serde_json::to_string(&merge.report).unwrap(),
            serde_json::to_string(&meta).unwrap(),
            serde_json::to_string(&clock.snapshot()).unwrap(),
            serde_json::to_string(&reg.store().stats()).unwrap(),
            sys.history().snapshot().len(),
        )
    }

    #[test]
    fn fusion_diamond_merge_identical_across_worker_counts() {
        let sequential = run_fusion_lifecycle(ParallelismPolicy::Sequential);
        for workers in [2, 8] {
            let parallel = run_fusion_lifecycle(ParallelismPolicy::Parallel(workers));
            assert_eq!(
                sequential, parallel,
                "fusion lifecycle with {workers} workers diverged"
            );
        }
    }

    #[test]
    fn fusion_prioritized_trials_identical_across_worker_counts() {
        let run = |policy: ParallelismPolicy| {
            use mlcask_workloads::scenario::{build_system, setup_nonlinear};
            let w = mlcask_workloads::fusion::build();
            let (reg, sys) = build_system(&w).unwrap();
            setup_nonlinear(&sys, &w).unwrap();
            let spaces = sys.merge_search_spaces("master", "dev").unwrap();
            let init = sys.initial_scores("master", "dev").unwrap();
            let searcher =
                MergeEngine::new(sys.registry(), Arc::clone(sys.dag())).with_parallelism(policy);
            let stats = searcher
                .run_trials(
                    &spaces,
                    sys.history(),
                    &init,
                    SearchMethod::Prioritized,
                    3,
                    11,
                )
                .unwrap();
            format!(
                "stats={} store={}",
                serde_json::to_string(&stats).unwrap(),
                serde_json::to_string(&reg.store().stats()).unwrap(),
            )
        };
        let sequential = run(ParallelismPolicy::Sequential);
        // 8 workers over 3 trials splits the pool as outer=3, inner=2, so
        // each trial's candidates run their diamond wavefronts on 2 workers
        // — trial-level fan-out genuinely composed with node-level fan-out.
        for workers in [2, 8] {
            let parallel = run(ParallelismPolicy::Parallel(workers));
            assert_eq!(
                sequential, parallel,
                "fusion trials with {workers} workers diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// A second writer: a commit lands while a merge (or another commit) runs.
// On another branch, the merge reuses the commit's checkpoint exactly as if
// the commit had landed before the merge began; on the merge's base, the
// merge commits nothing (`BaseMoved`), since it never searched that commit.
// ---------------------------------------------------------------------------

mod second_writer {
    use super::*;
    use common::{toy_library, toy_pipeline, Gate, Tripwire};
    use mlcask_core::errors::CoreError;
    use mlcask_core::system::MlCask;
    use mlcask_storage::backend::{Bytes, MemBackend, StorageBackend};
    use mlcask_storage::chunk::ChunkParams;
    use mlcask_storage::costmodel::StorageCostModel;
    use mlcask_storage::errors::{Result as StorageResult, StorageError};
    use mlcask_storage::hash::Hash256;
    use mlcask_workloads::scenario::harness_store;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    /// The toy chain plus model 0.3 (quality 0.9) over `store`, with
    /// library entry `gated` (model 0.1 is 4, model 0.2 is 5) behind `runs`.
    fn toy_chain(store: Arc<ChunkStore>, gated: usize, runs: &Gate, workers: usize) -> MlCask {
        let registry = ComponentRegistry::with_exe_size(store, 2048);
        let mut library = toy_library();
        library[gated] = Tripwire::wrap(Arc::clone(&library[gated]), runs);
        library.push(toy_model(SemVer::master(0, 3), 4, 0.9));
        for c in library {
            registry.register(c).unwrap();
        }
        let policy = match workers {
            1 => ParallelismPolicy::Sequential,
            n => ParallelismPolicy::Parallel(n),
        };
        let dag = PipelineDag::chain(&toy_slots()).unwrap();
        MlCask::new("toy", dag, Arc::new(registry)).with_parallelism(policy)
    }

    /// Runs `first` on a thread until it reaches `gate`, then `second` on
    /// this one, then lets `first` go on.
    fn held<A: Send, B>(
        gate: &Gate,
        first: impl FnOnce() -> A + Send,
        second: impl FnOnce() -> B,
    ) -> (A, B) {
        let ((reached, at_gate), (open, opened)) = (channel(), channel());
        *gate.lock().unwrap() = Some(Box::new(move || {
            reached.send(()).unwrap();
            opened.recv().unwrap()
        }));
        std::thread::scope(|scope| {
            let first = scope.spawn(first);
            while at_gate.recv_timeout(Duration::from_millis(10)).is_err() {
                assert!(
                    !first.is_finished(),
                    "the first writer never reached the gate"
                );
            }
            let second = second();
            open.send(()).unwrap();
            (first.join().unwrap(), second)
        })
    }

    /// Everything one scenario leaves behind.
    struct Observed {
        report: MergeSearchReport,
        ledger: String,
        stats: String,
        /// Logical and physical bytes the `other` commit wrote while the
        /// merge ran (none when it landed first).
        beside: (u64, u64),
    }

    /// The toy chain with model 0.1 behind a gate. `master` and `dev`
    /// diverge, and `other` commits `[src, s0.1, m0.2]` — a candidate of
    /// their merge — either before the merge starts or, with `race`, while
    /// the merge executes its `[src, s0.1, m0.1]` candidate (model 0.1's
    /// first run in the merge), after it cut its candidates and before it
    /// traces `[src, s0.1, m0.2]`.
    fn merge_beside_a_commit(workers: usize, race: bool) -> Observed {
        let gate = Gate::default();
        let sys = toy_chain(harness_store("second_writer"), 4, &gate, workers);
        let ledger = ClockLedger::new();
        let commit = |branch: &str, scaler: u32, model: u32| {
            let done = sys.commit_pipeline(branch, &toy_pipeline(scaler, model), "step", &ledger);
            assert!(done.unwrap().commit.is_some(), "{branch} commits");
        };
        commit("master", 0, 0);
        sys.branch("master", "dev").unwrap();
        sys.branch("master", "other").unwrap();
        commit("master", 1, 0);
        commit("dev", 0, 1);
        commit("dev", 0, 2);
        let other = || {
            let before = sys.store().stats().total();
            commit("other", 1, 2);
            let after = sys.store().stats().total();
            (
                after.logical_bytes - before.logical_bytes,
                after.physical_bytes - before.physical_bytes,
            )
        };
        let merge = || sys.merge("master", "dev", MergeStrategy::Full, &ledger);
        let (merged, beside) = match race {
            true => held(&gate, merge, other),
            false => {
                other();
                (merge(), (0, 0))
            }
        };
        let merged = merged.unwrap_or_else(|e| panic!("merge beside a commit: {e}"));
        assert!(merged.commit.is_some());
        Observed {
            report: merged.report.expect("diverged branches search"),
            ledger: serde_json::to_string(&ledger.snapshot()).unwrap(),
            stats: serde_json::to_string(&sys.store().stats()).unwrap(),
            beside,
        }
    }

    /// What the merge charged, leaving out what it saw of the commit that
    /// landed beside it: its frontier skips and the checkpoints it marked
    /// green when it started, and the commit's bytes inside its byte window.
    fn charged(observed: &Observed) -> String {
        let mut report = observed.report.clone();
        report.skipped_by_frontier = 0;
        report.state_counts = Default::default();
        report.logical_bytes -= observed.beside.0;
        report.physical_bytes -= observed.beside.1;
        serde_json::to_string(&report).unwrap()
    }

    /// The commit's checkpoint lands after the merge cut its candidates and
    /// before it traces the candidate the checkpoint belongs to: the trace
    /// finds it, so the replay reuses it — and the merge charges exactly
    /// what it charges when the commit lands first.
    #[test]
    fn a_commit_landing_mid_merge_is_reused_as_found() {
        let raced = merge_beside_a_commit(1, true);
        let (executed, reused) = (
            raced.report.executed_components,
            raced.report.reused_components,
        );
        assert_eq!((executed, reused), (1, 17));
        assert!(raced.beside.0 > 0, "the commit wrote while the merge ran");
        let twin = merge_beside_a_commit(1, false);
        assert_eq!(
            raced.report.state_counts.checkpointed + 1,
            twin.report.state_counts.checkpointed,
            "landing first, the commit's checkpoint is green from the start"
        );
        assert_eq!(charged(&raced), charged(&twin));
        assert_eq!(raced.ledger, twin.ledger);
        assert_eq!(raced.stats, twin.stats);

        let raced = merge_beside_a_commit(2, true);
        assert_eq!(raced.report.best, twin.report.best, "same winner");
    }

    /// A memory backend whose next blob write first calls the hook its gate
    /// is armed with: it holds an evaluation that runs no component, such
    /// as a fast-forward, at its metafile write.
    struct GatedWrites {
        inner: MemBackend,
        gate: Gate,
    }

    impl GatedWrites {
        fn store(gate: &Gate) -> Arc<ChunkStore> {
            let gate = Arc::clone(gate);
            let backend = Arc::new(GatedWrites {
                inner: MemBackend::new(),
                gate,
            });
            let (params, cost) = (ChunkParams::SMALL, StorageCostModel::FORKBASE);
            Arc::new(ChunkStore::with_cache(backend, params, cost, None))
        }

        fn fire(&self) {
            let hook = self.gate.lock().unwrap().take();
            if let Some(hook) = hook {
                hook();
            }
        }
    }

    impl StorageBackend for GatedWrites {
        fn put(&self, key: Hash256, data: &[u8]) -> StorageResult<bool> {
            self.fire();
            self.inner.put(key, data)
        }
        fn put_many(&self, items: &[(Hash256, &[u8])]) -> StorageResult<Vec<bool>> {
            self.fire();
            self.inner.put_many(items)
        }
        fn get(&self, key: Hash256) -> StorageResult<Bytes> {
            self.inner.get(key)
        }
        fn contains(&self, key: Hash256) -> bool {
            self.inner.contains(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn physical_bytes(&self) -> u64 {
            self.inner.physical_bytes()
        }
        fn keys(&self) -> Vec<Hash256> {
            self.inner.keys()
        }
        fn remove(&self, key: Hash256) -> StorageResult<Option<u64>> {
            self.inner.remove(key)
        }
    }

    /// `master` holds (scaler 0.1, model 0.0) and `dev` (scaler 0.0, model
    /// 0.2), so `merge master dev` searches; in the fast-forward row
    /// `master` stays at its root, which `dev` descends from. While the
    /// merge is held — inside model 0.2's run, or at the fast-forward's
    /// metafile write — (scaler 0.1, model 0.3) lands on `master`. The merge
    /// never searched model 0.3, so it commits nothing and says the base
    /// moved; merging again searches the new head and commits onto it.
    #[test]
    fn a_commit_landing_on_the_base_mid_merge_refuses_the_merge() {
        for fast_forward in [false, true] {
            let (runs, writes) = (Gate::default(), Gate::default());
            let sys = toy_chain(GatedWrites::store(&writes), 5, &runs, 1);
            let ledger = ClockLedger::new();
            let commit = |branch: &str, scaler: u32, model: u32| {
                let done =
                    sys.commit_pipeline(branch, &toy_pipeline(scaler, model), "step", &ledger);
                done.unwrap().commit.expect("the pipeline commits")
            };
            commit("master", 0, 0);
            sys.branch("master", "dev").unwrap();
            if !fast_forward {
                commit("master", 1, 0);
            }
            commit("dev", 0, 2);
            let searched = sys.graph().head("master").unwrap();
            let merge = || sys.merge("master", "dev", MergeStrategy::Full, &ledger);
            let gate = if fast_forward { &writes } else { &runs };
            let (merged, landed) = held(gate, merge, || commit("master", 1, 3));
            let row = if fast_forward {
                "fast-forward"
            } else {
                "search"
            };
            assert!(
                matches!(
                    &merged,
                    Err(CoreError::Storage(StorageError::BaseMoved { branch, searched: s, head }))
                        if branch == "master" && *s == searched.id && *head == landed.id
                ),
                "{row}: {:?}",
                merged.map(|m| m.commit)
            );
            assert_eq!(sys.graph().head("master").unwrap(), landed, "{row}");
            let again = merge().unwrap_or_else(|e| panic!("{row}, merging again: {e}"));
            assert!(!again.fast_forward, "{row}");
            assert_eq!(again.commit.unwrap().parents[0], landed.id, "{row}");
        }
    }

    /// Two plain commits to one branch: one is held while the other lands.
    /// Held inside model 0.2's run, before it reads the head, the held
    /// commit chains onto the one that landed. Held at its metafile write,
    /// after it read the head, a warm commit is refused (`BaseMoved`) and
    /// `master` stays where the other commit put it; committing again lands
    /// it. Either way each commit's metafile is labelled with its own `seq`.
    #[test]
    fn two_commits_racing_on_one_branch_each_label_their_own_seq() {
        let runs = Gate::default();
        let sys = toy_chain(harness_store("racing_commits"), 5, &runs, 1);
        let ledger = ClockLedger::new();
        let commit = |model: u32| {
            let done = sys.commit_pipeline("master", &toy_pipeline(0, model), "step", &ledger);
            done.unwrap().commit.expect("the pipeline commits")
        };
        commit(0);
        let (held_commit, landed) = held(&runs, || commit(2), || commit(1));
        assert_eq!(held_commit.parents, vec![landed.id]);
        for c in [&held_commit, &landed] {
            assert_eq!(sys.metafile_of(c).unwrap().label, c.label());
        }

        let writes = Gate::default();
        let sys = toy_chain(GatedWrites::store(&writes), 5, &Gate::default(), 1);
        let commit = |model: u32| {
            sys.commit_pipeline("master", &toy_pipeline(0, model), "step", &ledger)
                .map(|done| done.commit.expect("the pipeline commits"))
        };
        let read = commit(0).unwrap();
        let (refused, landed) = held(&writes, || commit(0), || commit(1).unwrap());
        assert!(
            matches!(
                &refused,
                Err(CoreError::Storage(StorageError::BaseMoved { branch, searched, head }))
                    if branch == "master" && *searched == read.id && *head == landed.id
            ),
            "{:?}",
            refused.map(|c| c.label())
        );
        assert_eq!(sys.graph().head("master").unwrap(), landed);
        let again = commit(0).unwrap();
        assert_eq!(again.parents, vec![landed.id]);
        for c in [&again, &landed] {
            assert_eq!(sys.metafile_of(c).unwrap().label, c.label());
        }
    }
}
