//! Multi-tenant workspace semantics: shared-store dedup attribution,
//! quota enforcement, batched-commit equivalence, orphan GC, and parallel
//! determinism of a multi-tenant workload.

mod common;

use common::{toy_pipeline, toy_system};
use mlcask_core::errors::CoreError;
use mlcask_core::merge::{MergeEngine, MergeStrategy};
use mlcask_core::registry::ComponentRegistry;
use mlcask_core::search_space::SearchSpaces;
use mlcask_core::system::MlCask;
use mlcask_core::workspace::{Tenant, Workspace};
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::errors::PipelineError;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::semver::SemVer;
use mlcask_storage::backend::{Bytes, MemBackend, StorageBackend};
use mlcask_storage::cask::CaskBackend;
use mlcask_storage::chunk::ChunkParams;
use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::errors::StorageError;
use mlcask_storage::hash::Hash256;
use mlcask_storage::store::ChunkStore;
use mlcask_storage::tenant::QuotaPolicy;
use mlcask_workloads::scenario::{
    build_multi_tenant, build_system, join_workspace, setup_nonlinear,
};
use mlcask_workloads::{autolearn, dpm, fusion, readmission, sa};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn is_quota_error(err: &CoreError) -> bool {
    matches!(
        err,
        CoreError::Pipeline(PipelineError::Storage(StorageError::QuotaExceeded { .. }))
    )
}

#[test]
fn dedup_attribution_across_two_tenants() {
    let ws = Workspace::in_memory_small();
    let a = ws.add_tenant("team_a", QuotaPolicy::UNLIMITED).unwrap();
    let b = ws.add_tenant("team_b", QuotaPolicy::UNLIMITED).unwrap();
    let sys_a = toy_system(&a);
    let sys_b = toy_system(&b);
    let clock = ClockLedger::new();
    // Both tenants commit the identical pipeline: identical library
    // executables and identical component outputs.
    sys_a
        .commit_pipeline("master", &toy_pipeline(0, 0), "a initial", &clock)
        .unwrap();
    let physical_after_a = ws.store().physical_bytes();
    sys_b
        .commit_pipeline("master", &toy_pipeline(0, 0), "b initial", &clock)
        .unwrap();
    // The shared chunks are stored once: tenant B added almost nothing
    // physically (only its namespaced metafile differs).
    let usage = ws.usages();
    assert!(usage["team_a"].physical_bytes > 0);
    assert!(
        usage["team_b"].physical_bytes < physical_after_a / 20,
        "tenant B re-paid {} of {}",
        usage["team_b"].physical_bytes,
        physical_after_a
    );
    // First-writer-pays attribution is conservative: tenant sums equal the
    // backend's physical bytes exactly.
    assert_eq!(
        usage["team_a"].physical_bytes + usage["team_b"].physical_bytes,
        ws.store().physical_bytes()
    );
    // Both tenants reference the shared chunks in the fair-share view.
    let shared = ws.shared_view();
    assert!(shared["team_b"].referenced_bytes > 0);
    assert!(shared["team_a"].amortized_bytes > shared["team_b"].amortized_bytes);
    // Isolation: each tenant sees only its own branches under its names.
    assert_eq!(
        ws.graph().branches(),
        vec!["team_a/master", "team_b/master"]
    );
    assert_eq!(
        sys_a.head_metafile("master").unwrap().label,
        "team_a/master.0"
    );
    assert_eq!(
        sys_b.head_metafile("master").unwrap().label,
        "team_b/master.0"
    );
}

/// The same economics on a real workload: four teams each build the Fig. 3
/// history of Readmission. One shared store against one store per team —
/// deterministic byte counts, not timings.
#[test]
fn shared_store_undercuts_isolated_stores_on_readmission() {
    const TEAMS: [&str; 4] = ["team_a", "team_b", "team_c", "team_d"];
    let w = readmission::build();
    let (ws, teams) = build_multi_tenant(&w, &TEAMS).unwrap();
    for t in &teams {
        setup_nonlinear(&t.sys, &w).unwrap();
    }
    let shared = ws.store().physical_bytes();
    // Every isolated store holds the same bytes (the scenario is
    // deterministic), so one stands for all four.
    let (_registry, alone) = build_system(&w).unwrap();
    setup_nonlinear(&alone, &w).unwrap();
    let isolated = TEAMS.len() as u64 * alone.store().physical_bytes();
    assert!(
        isolated as f64 > 1.5 * shared as f64,
        "isolated stores hold {isolated} B, the shared store {shared} B"
    );
    let logical = ws.store().stats().total().logical_bytes;
    assert!(
        logical as f64 > 1.5 * shared as f64,
        "dedup ratio: {logical} B logical over {shared} B physical"
    );
}

#[test]
fn quota_breach_aborts_commit_and_search_without_corrupting_graph() {
    let ws = Workspace::in_memory_small();
    let t = ws.add_tenant("team", QuotaPolicy::UNLIMITED).unwrap();
    let sys = toy_system(&t);
    let clock = ClockLedger::new();
    sys.commit_pipeline("master", &toy_pipeline(0, 0), "initial", &clock)
        .unwrap();
    sys.branch("master", "dev").unwrap();
    sys.commit_pipeline("master", &toy_pipeline(1, 0), "head scaler", &clock)
        .unwrap();
    sys.commit_pipeline("dev", &toy_pipeline(0, 1), "dev model", &clock)
        .unwrap();
    let head_before = sys.graph().head("team/master").unwrap();
    let commits_before = sys.graph().len();

    // Clamp the quota to the bytes already used: the next attributed write
    // breaches.
    let used = t.usage().logical_bytes;
    ws.store()
        .tenant_accounts()
        .register(t.id(), QuotaPolicy::logical(used));

    // A fresh commit aborts mid-run...
    let err = sys
        .commit_pipeline("master", &toy_pipeline(1, 2), "over quota", &clock)
        .unwrap_err();
    assert!(is_quota_error(&err), "unexpected error: {err}");
    // ...and so does the merge search, whose candidate evaluations write
    // through the same tenant view.
    let err = sys
        .merge("master", "dev", MergeStrategy::Full, &clock)
        .unwrap_err();
    assert!(is_quota_error(&err), "unexpected error: {err}");

    // The graph is untouched: same head, same commit count, and the
    // workspace still works once the quota is raised.
    assert_eq!(sys.graph().head("team/master").unwrap().id, head_before.id);
    assert_eq!(sys.graph().len(), commits_before);
    ws.store()
        .tenant_accounts()
        .register(t.id(), QuotaPolicy::UNLIMITED);
    let merged = sys
        .merge("master", "dev", MergeStrategy::Full, &clock)
        .unwrap();
    assert!(merged.commit.is_some(), "raised quota unblocks the merge");
}

/// Everything a commit aborted by a hard error must leave exactly where it
/// found it: tenant accounts, open reservations, store statistics, the
/// checkpoint history, the provenance index, and the commit graph.
fn commit_footprint(ws: &Arc<Workspace>, t: &Tenant) -> String {
    let accounts = ws.store().tenant_accounts();
    let mut provenance: Vec<Hash256> = ws.history().fingerprints().into_keys().collect();
    provenance.sort();
    format!(
        "usages={} reserved={:?} open={} stats={} history={} provenance={provenance:?} commits={}",
        serde_json::to_string(&ws.usages()).unwrap(),
        accounts.reserved(t.id()),
        accounts.open_reservations(),
        serde_json::to_string(&ws.store().stats()).unwrap(),
        ws.history().snapshot().len(),
        ws.graph().len(),
    )
}

/// A quota breach at node *k* of a commit — after earlier nodes of the same
/// pipeline already executed and persisted — aborts the commit without a
/// trace at every worker count: there is one engine, so one worker releases
/// the completed prefix's reservations exactly as eight do. A merge search
/// breaching in phase 1 leaves none either: what it persisted is published
/// by no one, so the sweep reclaims it and the retried merge pays for it.
#[test]
fn quota_breach_mid_commit_leaves_no_trace_at_any_worker_count() {
    /// Opens a pipeline for a tenant; returns it with an initial commit's
    /// keys and a follow-up's that executes at least two new nodes.
    type Open<'a> = &'a dyn Fn(&Tenant) -> (MlCask, Vec<ComponentKey>, Vec<ComponentKey>);
    let chain: Open = &|t| {
        let sys = toy_system(t);
        let (first, second) = (toy_pipeline(0, 0), toy_pipeline(1, 2));
        (sys, first, second)
    };
    let w = fusion::build();
    let diamond: Open = &|t| {
        let registry = Arc::new(ComponentRegistry::new(Arc::clone(t.store())));
        w.register_all(&registry).unwrap();
        let sys = t.open_pipeline(&w.name, w.dag(), registry);
        (sys, w.initial.clone(), w.head_updates[0].clone())
    };
    // A workspace over `backend` with the initial commit landed.
    let primed = |open: Open, backend: Arc<dyn StorageBackend>, workers: usize| {
        let ws = Workspace::over(Arc::new(ChunkStore::new(
            backend,
            ChunkParams::DEFAULT,
            StorageCostModel::FORKBASE,
        )));
        let t = ws.add_tenant("team", QuotaPolicy::UNLIMITED).unwrap();
        let (sys, first, second) = open(&t);
        let sys = sys.with_parallelism(ParallelismPolicy::Parallel(workers));
        sys.commit_pipeline("master", &first, "initial", &ClockLedger::new())
            .unwrap();
        (ws, t, sys, second)
    };
    let clock = ClockLedger::new();
    for (shape, open) in [("chain", chain), ("diamond", diamond)] {
        // Unclamped twin: the logical bytes the follow-up's executed nodes
        // write. One byte less of headroom breaches at the last of them.
        let (_ws, _t, twin, second) = primed(open, Arc::new(MemBackend::new()), 1);
        let report = twin
            .commit_pipeline("master", &second, "twin", &clock)
            .unwrap()
            .report;
        let executed = report.stages.iter().filter(|s| !s.reused);
        assert!(
            executed.clone().count() >= 2,
            "{shape}: breach must follow a prefix"
        );
        let need: u64 = executed.map(|s| s.output.len).sum();

        for backend in ["mem", "cask"] {
            for workers in [1, 2, 8] {
                let cell = format!("{shape}/{backend}/{workers} workers");
                let dir = std::env::temp_dir().join(format!(
                    "mlcask-quota-{shape}-{workers}-{}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let be: Arc<dyn StorageBackend> = match backend {
                    "cask" => Arc::new(CaskBackend::open(&dir).unwrap()),
                    _ => Arc::new(MemBackend::new()),
                };
                let (ws, t, sys, second) = primed(open, be, workers);
                let accounts = ws.store().tenant_accounts();
                let clamp = QuotaPolicy::logical(t.usage().logical_bytes + need - 1);
                accounts.register(t.id(), clamp);
                let before = commit_footprint(&ws, &t);
                let err = sys
                    .commit_pipeline("master", &second, "over quota", &clock)
                    .unwrap_err();
                assert!(is_quota_error(&err), "{cell}: unexpected error: {err}");
                assert_eq!(commit_footprint(&ws, &t), before, "{cell}");
                // Nothing stale is left behind: the identical commit lands
                // once the quota is raised.
                accounts.register(t.id(), QuotaPolicy::UNLIMITED);
                let landed = sys
                    .commit_pipeline("master", &second, "raised", &clock)
                    .unwrap();
                assert!(landed.commit.is_some(), "{cell}");
                assert_eq!(accounts.open_reservations(), 0, "{cell}");
                drop((sys, t, ws));
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    // The merge-search row: `master` trains scaler 0.1, `dev` models 0.1 and
    // 0.2, so the `Full` search executes two new models, independent of
    // each other; one byte less of headroom than both need breaches at
    // whichever writes second.
    let diverged = |backend: Arc<dyn StorageBackend>, workers: usize| {
        let ws = Workspace::over(Arc::new(ChunkStore::new(
            backend,
            ChunkParams::DEFAULT,
            StorageCostModel::FORKBASE,
        )));
        let t = ws.add_tenant("team", QuotaPolicy::UNLIMITED).unwrap();
        let sys = toy_system(&t).with_parallelism(ParallelismPolicy::Parallel(workers));
        let clock = ClockLedger::new();
        sys.commit_pipeline("master", &toy_pipeline(0, 0), "initial", &clock)
            .unwrap();
        sys.branch("master", "dev").unwrap();
        for (branch, scaler, model) in [("master", 1, 0), ("dev", 0, 1), ("dev", 0, 2)] {
            sys.commit_pipeline(branch, &toy_pipeline(scaler, model), "diverge", &clock)
                .unwrap();
        }
        (ws, t, sys)
    };
    let merge = |sys: &MlCask| sys.merge("master", "dev", MergeStrategy::Full, &clock);
    let (twin_ws, _t, twin) = diverged(Arc::new(MemBackend::new()), 1);
    let twin_report = merge(&twin).unwrap().report.expect("a searched merge");
    assert_eq!(twin_report.executed_components, 2, "two new models");
    let need = twin_report.logical_bytes;
    let twin_report = serde_json::to_string(&twin_report).unwrap();
    let twin_usages = serde_json::to_string(&twin_ws.usages()).unwrap();
    for backend in ["mem", "cask"] {
        for workers in [1, 2, 8] {
            let cell = format!("merge/{backend}/{workers} workers");
            let dir = std::env::temp_dir().join(format!(
                "mlcask-quota-merge-{workers}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let be: Arc<dyn StorageBackend> = match backend {
                "cask" => Arc::new(CaskBackend::open(&dir).unwrap()),
                _ => Arc::new(MemBackend::new()),
            };
            let (ws, t, sys) = diverged(be, workers);
            let accounts = ws.store().tenant_accounts();
            accounts.register(
                t.id(),
                QuotaPolicy::logical(t.usage().logical_bytes + need - 1),
            );
            let before = commit_footprint(&ws, &t);
            let physical_before = ws.store().physical_bytes();
            let err = merge(&sys).unwrap_err();
            assert!(is_quota_error(&err), "{cell}: unexpected error: {err}");
            assert!(
                ws.store().physical_bytes() > physical_before,
                "{cell}: the breach must follow a persisted model"
            );
            assert_eq!(commit_footprint(&ws, &t), before, "{cell}");
            let checkpoints = ws.history().snapshot();
            for (fp, output) in ws.history().fingerprints() {
                assert!(
                    checkpoints.values().any(|c| *c == output),
                    "{cell}: fingerprint {fp} has no checkpoint"
                );
            }
            // What phase 1 persisted was never charged, and nothing refers
            // to it: the sweep restores byte-level parity.
            ws.sweep_orphans().unwrap();
            let charged: u64 = ws.usages().values().map(|u| u.physical_bytes).sum();
            assert_eq!(ws.store().physical_bytes(), charged, "{cell}");
            // The retried merge pays what a merge that never aborted pays.
            accounts.register(t.id(), QuotaPolicy::UNLIMITED);
            let retried = merge(&sys).unwrap().report.expect("a searched merge");
            assert_eq!(
                serde_json::to_string(&retried).unwrap(),
                twin_report,
                "{cell}"
            );
            assert_eq!(
                serde_json::to_string(&ws.usages()).unwrap(),
                twin_usages,
                "{cell}"
            );
            drop((sys, t, ws));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn quota_of_one_tenant_does_not_throttle_another() {
    let ws = Workspace::in_memory_small();
    let starved = ws.add_tenant("starved", QuotaPolicy::UNLIMITED).unwrap();
    let healthy = ws.add_tenant("healthy", QuotaPolicy::UNLIMITED).unwrap();
    let clock = ClockLedger::new();
    let sys_starved = toy_system(&starved);
    let sys_healthy = toy_system(&healthy);
    // Starve the first tenant after registration: its next write breaches.
    ws.store().tenant_accounts().register(
        starved.id(),
        QuotaPolicy::logical(starved.usage().logical_bytes),
    );
    let err = sys_starved
        .commit_pipeline("master", &toy_pipeline(0, 0), "nope", &clock)
        .unwrap_err();
    assert!(is_quota_error(&err), "{err}");
    // The healthy tenant shares the store but not the quota.
    sys_healthy
        .commit_pipeline("master", &toy_pipeline(0, 0), "fine", &clock)
        .unwrap();
    assert_eq!(ws.graph().branches(), vec!["healthy/master"]);
}

/// Orphan GC: a schema-dishonest node failing mid-DAG leaves behind the
/// blobs of independent siblings that the canonical accounting never
/// charged; `Workspace::sweep_orphans` restores byte-level parity.
mod orphan_gc {
    use super::*;
    use mlcask_ml::metrics::{MetricKind, Score};
    use mlcask_ml::tensor::Matrix;
    use mlcask_pipeline::artifact::{Artifact, ArtifactData, Features, ModelArtifact};
    use mlcask_pipeline::component::{Component, StageKind};
    use mlcask_pipeline::errors::{IncompatibleSchemaDetail, Result as PipelineResult};
    use mlcask_pipeline::schema::{Schema, SchemaId};

    const DIM: usize = 5;

    fn feature_schema() -> SchemaId {
        Schema::FeatureMatrix {
            dim: DIM,
            n_classes: 2,
        }
        .id()
    }

    /// A node of the diamond, by name: `src` makes features, `good_a` and
    /// `good_b` scale their input by `factor`, `join` sums its inputs and
    /// `model` scores them. `liar` declares compatible schemas but fails at
    /// run time — invisible to the static failure frontier, so it exercises
    /// the dynamic-failure path.
    struct Node {
        name: &'static str,
        factor: f32,
    }

    impl Component for Node {
        fn name(&self) -> &str {
            self.name
        }
        fn version(&self) -> SemVer {
            SemVer::master(0, 0)
        }
        fn stage(&self) -> StageKind {
            match self.name {
                "src" => StageKind::Ingest,
                "model" => StageKind::ModelTraining,
                _ => StageKind::PreProcess,
            }
        }
        fn input_schema(&self) -> Option<SchemaId> {
            (self.name != "src").then(feature_schema)
        }
        fn output_schema(&self) -> SchemaId {
            match self.name {
                "model" => Schema::Model {
                    family: "gc-test".into(),
                }
                .id(),
                _ => feature_schema(),
            }
        }
        fn run(&self, inputs: &[Artifact]) -> PipelineResult<Artifact> {
            let data = match self.name {
                "src" => ArtifactData::Features(Features {
                    x: Matrix::from_fn(32, DIM, |r, c| ((r * 7 + c * 3) % 13) as f32 / 13.0),
                    y: (0..32).map(|r| r % 2).collect(),
                    n_classes: 2,
                }),
                "liar" => {
                    let actual = Schema::Model {
                        family: "surprise".into(),
                    };
                    let detail = IncompatibleSchemaDetail {
                        component: self.key(),
                        input_index: 0,
                        expected: feature_schema(),
                        actual: actual.id(),
                    };
                    return Err(PipelineError::IncompatibleSchema(Box::new(detail)));
                }
                "model" => ArtifactData::Model(ModelArtifact {
                    family: "gc-test".into(),
                    blob: vec![3u8; 24],
                    score: Score::new(MetricKind::Accuracy, 0.5),
                }),
                _ => {
                    self.check_compatibility(inputs)?;
                    let feats: Vec<&Features> = inputs
                        .iter()
                        .map(|a| match a.data() {
                            ArtifactData::Features(f) => f,
                            _ => unreachable!("schema-checked input"),
                        })
                        .collect();
                    let x = Matrix::from_fn(feats[0].x.rows(), DIM, |r, c| {
                        feats.iter().map(|f| f.x.get(r, c)).sum::<f32>() * self.factor
                    });
                    let (y, n_classes) = (feats[0].y.clone(), 2);
                    ArtifactData::Features(Features { x, y, n_classes })
                }
            };
            Ok(Artifact::new(data, self.output_schema()))
        }
        fn work_units(&self, inputs: &[Artifact]) -> u64 {
            inputs.iter().map(|a| a.byte_len()).sum::<u64>().max(1)
        }
    }

    /// `src → {liar, good_a, good_b} → join → model`, the liar listed
    /// *before* its siblings in topological order: the accounting stops at
    /// the liar, but the siblings do not depend on it and execute anyway.
    fn open_system(t: &Tenant, policy: ParallelismPolicy) -> MlCask {
        let mut dag = PipelineDag::new();
        for n in ["src", "liar", "good_a", "good_b", "join", "model"] {
            dag.add_node(n).unwrap();
        }
        for b in ["liar", "good_a", "good_b"] {
            dag.add_edge("src", b).unwrap();
            dag.add_edge(b, "join").unwrap();
        }
        dag.add_edge("join", "model").unwrap();
        let registry = Arc::new(ComponentRegistry::with_exe_size(
            Arc::clone(t.store()),
            2048,
        ));
        for (name, factor) in [
            ("src", 1.0),
            ("liar", 1.0),
            ("good_a", 2.0),
            ("good_b", 3.0),
        ] {
            registry.register(Arc::new(Node { name, factor })).unwrap();
        }
        for name in ["join", "model"] {
            registry
                .register(Arc::new(Node { name, factor: 1.0 }))
                .unwrap();
        }
        t.open_pipeline("gc", dag, registry)
            .with_parallelism(policy)
    }

    /// Evaluates the liar diamond on a fresh workspace — as a commit, or as
    /// the one candidate of a `Full` merge search — and returns the
    /// workspace and the backend's physical bytes.
    fn run_failing(policy: ParallelismPolicy, search: bool) -> (Arc<Workspace>, u64) {
        let ws = Workspace::in_memory_small();
        let t = ws.add_tenant("team", QuotaPolicy::UNLIMITED).unwrap();
        let sys = open_system(&t, policy);
        let slots = ["src", "liar", "good_a", "good_b", "join", "model"];
        let keys: Vec<ComponentKey> = slots
            .iter()
            .map(|n| sys.registry().versions_of(n)[0].clone())
            .collect();
        let clock = ClockLedger::new();
        if search {
            let spaces = SearchSpaces {
                slot_names: slots.iter().map(|s| s.to_string()).collect(),
                per_slot: keys.iter().map(|k| vec![k.clone()]).collect(),
            };
            let report = MergeEngine::new(sys.registry(), Arc::clone(sys.dag()))
                .with_parallelism(policy)
                .search(&spaces, ws.history(), MergeStrategy::Full)
                .unwrap();
            assert_eq!(report.failed_candidates, 1, "the liar fails its candidate");
        } else {
            let res = sys
                .commit_pipeline("master", &keys, "doomed", &clock)
                .unwrap();
            assert!(res.commit.is_none(), "dynamic failure must not commit");
        }
        let physical = ws.store().physical_bytes();
        (ws, physical)
    }

    #[test]
    fn sweep_restores_parity_after_dynamic_failure() {
        for search in [false, true] {
            let (ws_one, one_bytes) = run_failing(ParallelismPolicy::Sequential, search);
            let (ws_par, par_bytes) = run_failing(ParallelismPolicy::Parallel(8), search);
            assert_eq!(
                one_bytes, par_bytes,
                "one worker executes the same node set as eight"
            );
            for ws in [ws_one, ws_par] {
                // What the canonical order charged the tenant: the
                // libraries and `src`'s checkpoint. The siblings' blobs were
                // never charged, so the backend holds more than the
                // accounts say.
                let charged = ws.usages()["team"].physical_bytes;
                assert!(
                    par_bytes > charged,
                    "the liar's siblings should have persisted orphans ({par_bytes} vs {charged})"
                );
                let report = ws.sweep_orphans().unwrap();
                assert!(report.removed_objects > 0, "search: {search}");
                assert_eq!(
                    ws.store().physical_bytes(),
                    charged,
                    "sweep restores byte-level parity with what was charged (search: {search})"
                );
                // Sweeping again finds nothing; live data still reads back.
                let again = ws.sweep_orphans().unwrap();
                assert_eq!(again.removed_objects, 0);
            }
        }
    }
}

#[test]
fn multi_tenant_workload_deterministic_across_worker_counts() {
    let run = |policy: ParallelismPolicy| -> String {
        let w = fusion::build();
        let (ws, teams) = build_multi_tenant(&w, &["alpha", "beta"]).unwrap();
        let teams: Vec<mlcask_workloads::scenario::TenantSystem> = teams
            .into_iter()
            .map(|t| mlcask_workloads::scenario::TenantSystem {
                tenant: t.tenant,
                registry: t.registry,
                sys: t.sys.with_parallelism(policy),
            })
            .collect();
        for t in &teams {
            setup_nonlinear(&t.sys, &w).unwrap();
            let clock = ClockLedger::new();
            let merged = t
                .sys
                .merge(
                    "master",
                    "dev",
                    mlcask_core::merge::MergeStrategy::Full,
                    &clock,
                )
                .unwrap();
            assert!(merged.commit.is_some());
        }
        let heads: Vec<String> = ws
            .graph()
            .branches()
            .iter()
            .map(|b| {
                let h = ws.graph().head(b).unwrap();
                format!("{b}={} seq={}", h.payload.short(), h.seq)
            })
            .collect();
        format!(
            "usages={} shared={} stats={} physical={} history={} heads={heads:?} metas={:?}",
            serde_json::to_string(&ws.usages()).unwrap(),
            serde_json::to_string(&ws.shared_view()).unwrap(),
            serde_json::to_string(&ws.store().stats()).unwrap(),
            ws.store().physical_bytes(),
            ws.history().snapshot().len(),
            teams
                .iter()
                .map(|t| serde_json::to_string(&t.sys.head_metafile("master").unwrap()).unwrap())
                .collect::<Vec<_>>(),
        )
    };
    let sequential = run(ParallelismPolicy::Sequential);
    for workers in [1, 2, 8] {
        let parallel = run(ParallelismPolicy::Parallel(workers));
        assert_eq!(
            sequential, parallel,
            "multi-tenant workload with {workers} workers diverged"
        );
    }
}

/// `Workload::register_all` — one `register_many` batch — registers what
/// one `register` per handle does on every workload: the same executables,
/// versions in the same order, the same store statistics.
#[test]
fn register_many_registers_what_register_does_on_every_workload() {
    for w in [
        autolearn::build(),
        dpm::build(),
        fusion::build(),
        readmission::build(),
        sa::build(),
    ] {
        let registry = || ComponentRegistry::with_exe_size(Arc::new(ChunkStore::in_memory()), 4097);
        let (batch, single) = (registry(), registry());
        w.register_all(&batch).unwrap();
        for h in &w.handles {
            single.register(Arc::clone(h)).unwrap();
        }
        assert_eq!(batch.names(), single.names(), "{}", w.name);
        for name in single.names() {
            let versions = single.versions_of(&name);
            assert_eq!(batch.versions_of(&name), versions, "{}: {name}", w.name);
            for key in &versions {
                let exe = |r: &ComponentRegistry| r.get(key).unwrap().executable;
                assert_eq!(exe(&batch), exe(&single), "{}: {key}", w.name);
            }
        }
        assert_eq!(batch.store().stats(), single.store().stats(), "{}", w.name);
    }
}

/// A memory backend counting the writes that reach it.
#[derive(Default)]
struct CountingBackend {
    inner: MemBackend,
    writes: AtomicUsize,
}

impl StorageBackend for CountingBackend {
    fn put(&self, key: Hash256, data: &[u8]) -> mlcask_storage::errors::Result<bool> {
        self.writes.fetch_add(1, Ordering::SeqCst);
        self.inner.put(key, data)
    }
    fn put_many(&self, items: &[(Hash256, &[u8])]) -> mlcask_storage::errors::Result<Vec<bool>> {
        self.writes.fetch_add(1, Ordering::SeqCst);
        self.inner.put_many(items)
    }
    fn get(&self, key: Hash256) -> mlcask_storage::errors::Result<Bytes> {
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
    fn remove(&self, key: Hash256) -> mlcask_storage::errors::Result<Option<u64>> {
        self.inner.remove(key)
    }
}

/// A second team joining a workspace makes no backend write — every
/// library is charged from the first team's manifests — and is charged
/// the first team's logical bytes and no physical ones.
#[test]
fn a_second_team_joins_without_a_backend_write() {
    let w = readmission::build();
    let backend = Arc::new(CountingBackend::default());
    let ws = Workspace::over(Arc::new(ChunkStore::new(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        ChunkParams::DEFAULT,
        StorageCostModel::FORKBASE,
    )));
    let a = join_workspace(&ws, &w, "team_a", QuotaPolicy::UNLIMITED).unwrap();
    let writes = backend.writes.load(Ordering::SeqCst);
    assert!(writes > 0);
    let physical = ws.store().physical_bytes();
    let b = join_workspace(&ws, &w, "team_b", QuotaPolicy::UNLIMITED).unwrap();
    assert_eq!(backend.writes.load(Ordering::SeqCst), writes);
    assert_eq!(ws.store().physical_bytes(), physical);
    let (ua, ub) = (a.tenant.usage(), b.tenant.usage());
    assert_eq!(
        (ub.blobs_written, ub.logical_bytes),
        (ua.blobs_written, ua.logical_bytes)
    );
    assert_eq!(ub.physical_bytes, 0);
    let shared = ws.shared_view();
    assert_eq!(shared["team_a"], shared["team_b"]);
}

/// A join its quota refuses leaves no tenant behind: the name is free, no
/// reservation or chunk reference remains, no tenant is charged for the
/// library it archived — which the sweep reclaims — and a retry with room
/// is charged what a first-time join is.
#[test]
fn a_refused_join_leaves_no_trace() {
    let w = readmission::build();
    let ws = Workspace::over(Arc::new(ChunkStore::in_memory()));
    let refused = join_workspace(&ws, &w, "a", QuotaPolicy::logical(1_000_000))
        .err()
        .expect("the second library breaches the quota");
    assert!(
        matches!(
            refused,
            CoreError::Storage(StorageError::QuotaExceeded { .. })
        ),
        "{refused:?}"
    );
    let accounts = ws.store().tenant_accounts();
    assert!(ws.tenant_names().is_empty());
    assert!(accounts.usages().is_empty());
    assert_eq!(accounts.open_reservations(), 0);
    assert_eq!(accounts.tracked_chunks(), 0);
    let orphaned = ws.store().physical_bytes();
    assert!(orphaned > 0, "one library was archived");
    assert_eq!(ws.sweep_orphans().unwrap().removed_bytes, orphaned);
    assert!(
        ws.usages().is_empty(),
        "no tenant is charged for swept bytes"
    );
    let retry = join_workspace(&ws, &w, "a", QuotaPolicy::UNLIMITED).unwrap();
    let fresh = Workspace::over(Arc::new(ChunkStore::in_memory()));
    let first = join_workspace(&fresh, &w, "a", QuotaPolicy::UNLIMITED).unwrap();
    assert_eq!(retry.tenant.usage(), first.tenant.usage());
    assert_eq!(ws.shared_view(), fresh.shared_view());
    assert_eq!(ws.store().physical_bytes(), fresh.store().physical_bytes());
    assert_eq!(accounts.open_reservations(), 0);
}

/// A join refused part-way leaves its library chunks as unreferenced
/// orphans. Another tenant joining before any sweep references them, and
/// a byte is charged to its first referent, so it pays for them whether
/// they were stored already or not: it is charged what a first join on a
/// fresh store is, and after a sweep the tenants are charged exactly the
/// bytes the store holds.
#[test]
fn a_refused_join_then_another_join_keeps_byte_parity() {
    let w = readmission::build();
    let ws = Workspace::over(Arc::new(ChunkStore::in_memory()));
    join_workspace(&ws, &w, "a", QuotaPolicy::logical(1_000_000))
        .err()
        .expect("the second library breaches the quota");
    let b = join_workspace(&ws, &w, "b", QuotaPolicy::UNLIMITED).unwrap();
    let accounts = ws.store().tenant_accounts();
    accounts.check_charges().unwrap();
    let fresh = Workspace::over(Arc::new(ChunkStore::in_memory()));
    let first = join_workspace(&fresh, &w, "b", QuotaPolicy::UNLIMITED).unwrap();
    assert_eq!(b.tenant.usage(), first.tenant.usage());
    ws.sweep_orphans().unwrap();
    let charged: u64 = ws.usages().values().map(|u| u.physical_bytes).sum();
    assert_eq!(
        charged,
        ws.store().physical_bytes(),
        "charged bytes against the bytes the store holds after a sweep"
    );
    assert_eq!(accounts.check_charges(), Ok(charged));
}
