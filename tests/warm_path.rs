//! The warm path reads what cannot change instead of deriving it again.
//! Counts, not timings: after registration nothing asks a component for its
//! schemas, a metafile is decoded once per workspace whichever tenant wrote
//! it, re-recording what the indexes already hold changes neither, and no
//! search tree, compatibility table or fingerprint is derived twice for the
//! same inputs.

use mlcask_core::errors::CoreError;
use mlcask_core::merge::MergeStrategy;
use mlcask_core::registry::{ComponentRegistry, MemoStats};
use mlcask_core::system::{BranchRef, MlCask};
use mlcask_core::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
use mlcask_core::workspace::{Tenant, Workspace};
use mlcask_pipeline::artifact::Artifact;
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::{Component, ComponentHandle, ComponentKey, StageKind};
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::executor::RunOutcome;
use mlcask_pipeline::provenance::pipeline_fingerprints;
use mlcask_pipeline::schema::SchemaId;
use mlcask_pipeline::semver::SemVer;
use mlcask_storage::backend::{Bytes, MemBackend, StorageBackend};
use mlcask_storage::cache::CacheOptions;
use mlcask_storage::chunk::ChunkParams;
use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::hash::Hash256;
use mlcask_storage::object::Manifest;
use mlcask_storage::store::ChunkStore;
use mlcask_storage::tenant::{QuotaPolicy, ShareRight};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A component that counts how often anyone outside it asks for its declared
/// schemas. (Its own `run` delegates to the inner component, whose run-time
/// `check_compatibility` asks the inner component: not counted, and not on
/// the path under test.)
struct Counted {
    inner: ComponentHandle,
    schema_calls: Arc<AtomicUsize>,
}

impl Component for Counted {
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
        self.schema_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.input_schema()
    }
    fn output_schema(&self) -> SchemaId {
        self.schema_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.output_schema()
    }
    fn run(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        self.inner.run(inputs)
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        self.inner.work_units(inputs)
    }
    fn ns_per_unit(&self) -> u64 {
        self.inner.ns_per_unit()
    }
}

/// The toy library: one source, scalers 0.0/0.1 (dim 4) and 1.0 (dim 6),
/// models 0.0/0.1/0.2 (dim 4).
fn library() -> Vec<ComponentHandle> {
    vec![
        toy_source(SemVer::master(0, 0), 4, 16),
        toy_scaler(SemVer::master(0, 0), 4, 4, 1.0),
        toy_scaler(SemVer::master(0, 1), 4, 4, 2.0),
        toy_scaler(SemVer::master(1, 0), 4, 6, 3.0),
        toy_model(SemVer::master(0, 0), 4, 0.5),
        toy_model(SemVer::master(0, 1), 4, 0.6),
        toy_model(SemVer::master(0, 2), 4, 0.7),
    ]
}

fn pipeline(scaler: (u32, u32), model_inc: u32) -> Vec<ComponentKey> {
    vec![
        ComponentKey::new("test_source", SemVer::master(0, 0)),
        ComponentKey::new("test_scaler", SemVer::master(scaler.0, scaler.1)),
        ComponentKey::new("test_model", SemVer::master(0, model_inc)),
    ]
}

/// A registry over `store` holding `library()`, every version wrapped in
/// [`Counted`] when a counter is given.
fn registry_over(
    store: &Arc<ChunkStore>,
    counter: Option<&Arc<AtomicUsize>>,
) -> Arc<ComponentRegistry> {
    let registry = ComponentRegistry::with_exe_size(Arc::clone(store), 2048);
    for c in library() {
        let handle: ComponentHandle = match counter {
            Some(calls) => Arc::new(Counted {
                inner: c,
                schema_calls: Arc::clone(calls),
            }),
            None => c,
        };
        registry.register(handle).unwrap();
    }
    Arc::new(registry)
}

fn toy_dag() -> PipelineDag {
    PipelineDag::chain(&toy_slots()).unwrap()
}

/// Registers the library, then runs the script: ten commits over two
/// branches, a diverged `Full` merge, a commit the precheck rejects.
/// Returns everything observable (every report, the ledger) and the schema
/// calls made *after* registration.
fn scripted_run(counter: Option<Arc<AtomicUsize>>) -> (Vec<String>, usize) {
    let store = Arc::new(ChunkStore::in_memory_small());
    let registry = registry_over(&store, counter.as_ref());
    let calls = || counter.as_ref().map_or(0, |c| c.load(Ordering::Relaxed));
    let registered = calls();
    let sys = MlCask::new("toy", toy_dag(), registry);
    let ledger = ClockLedger::new();
    let mut seen = Vec::new();
    let commit = |seen: &mut Vec<String>, branch: &str, keys: &[ComponentKey]| {
        let result = sys.commit_pipeline(branch, keys, "step", &ledger).unwrap();
        seen.push(serde_json::to_string(&result.report).unwrap());
        result
    };
    commit(&mut seen, "master", &pipeline((0, 0), 0));
    sys.branch("master", "dev").unwrap();
    for round in 0..3 {
        commit(&mut seen, "master", &pipeline((0, 1), round % 2));
        commit(&mut seen, "dev", &pipeline((0, 0), 1 + round % 2));
        // Nothing new: fully reused.
        commit(&mut seen, "dev", &pipeline((0, 0), 1 + round % 2));
    }
    let merged = sys
        .merge("master", "dev", MergeStrategy::Full, &ledger)
        .unwrap();
    let search = merged.report.expect("diverged branches search");
    assert!(search.candidates_evaluated > 1);
    seen.push(serde_json::to_string(&search).unwrap());
    // Scaler 1.0 emits dim 6, every model reads dim 4.
    let doomed = commit(&mut seen, "master", &pipeline((1, 0), 2));
    assert!(doomed.commit.is_none());
    assert!(matches!(
        doomed.report.outcome,
        RunOutcome::RejectedByPrecheck { .. }
    ));
    assert_eq!(seen.len(), 12);
    seen.push(serde_json::to_string(&ledger.snapshot()).unwrap());
    (seen, calls() - registered)
}

#[test]
fn after_registration_nothing_asks_a_component_for_its_schemas() {
    let counter = Arc::new(AtomicUsize::new(0));
    let (counted, calls_after_registration) = scripted_run(Some(Arc::clone(&counter)));
    assert!(
        counter.load(Ordering::Relaxed) >= 2 * library().len(),
        "registration reads both schemas of every version"
    );
    assert_eq!(
        calls_after_registration, 0,
        "commits, the merge search and the precheck read the registry's copy"
    );
    let (plain, _) = scripted_run(None);
    assert_eq!(counted, plain, "same reports, same ledger");
}

#[test]
fn re_recording_a_warm_run_leaves_both_indexes_unchanged() {
    let store = Arc::new(ChunkStore::in_memory_small());
    let sys = MlCask::new("toy", toy_dag(), registry_over(&store, None));
    let ledger = ClockLedger::new();
    let commit = |branch: &str, keys: &[ComponentKey]| {
        let result = sys.commit_pipeline(branch, keys, "step", &ledger).unwrap();
        assert!(result.commit.is_some());
        result.report
    };
    let snapshots = || {
        let history = sys.history();
        (history.fingerprints(), history.snapshot())
    };
    // One round of fork, diverge, merge: trains every candidate.
    let round = |dev: &str| {
        sys.branch("master", dev).unwrap();
        commit(dev, &pipeline((0, 0), 1));
        commit("master", &pipeline((0, 1), 0));
        sys.merge("master", dev, MergeStrategy::Full, &ledger)
            .unwrap()
            .report
            .expect("diverged branches search")
    };
    commit("master", &pipeline((0, 0), 0));
    let cold = round("dev0");
    assert!(cold.executed_components > 0);

    // A commit that reuses every stage records nothing new.
    let (prov, keys) = snapshots();
    assert_eq!(commit("master", &pipeline((0, 0), 0)).executed_count(), 0);
    let (prov_after, keys_after) = snapshots();
    assert!(prov == prov_after, "provenance changed");
    assert!(keys == keys_after, "history changed");

    // The same round again: every candidate checkpointed, so neither its
    // commits nor its search change either index.
    let warm = round("dev1");
    assert_eq!(warm.executed_components, 0);
    assert_eq!(warm.candidates_evaluated, cold.candidates_evaluated);
    let (prov_after, keys_after) = snapshots();
    assert!(prov == prov_after, "provenance changed");
    assert!(keys == keys_after, "history changed");

    // A pipeline nobody ran yet is a new fingerprint and a new checkpoint.
    assert!(commit("master", &pipeline((0, 1), 2)).executed_count() > 0);
    let (prov_after, keys_after) = snapshots();
    assert!(prov_after.len() > prov.len());
    assert!(keys_after.len() > keys.len());
}

/// A second identical warm merge builds no search tree, no compatibility
/// table and no fingerprint — its registry's memo derives nothing — and
/// reports byte for byte what the first did, with the incremental fast
/// path on and off alike.
#[test]
fn a_second_identical_warm_merge_derives_nothing() {
    for incremental in [true, false] {
        let store = Arc::new(ChunkStore::in_memory_small());
        let registry = registry_over(&store, None);
        let sys =
            MlCask::new("toy", toy_dag(), Arc::clone(&registry)).with_incremental(incremental);
        let ledger = ClockLedger::new();
        let commit = |branch: &str, keys: &[ComponentKey]| {
            let result = sys.commit_pipeline(branch, keys, "step", &ledger).unwrap();
            assert!(result.commit.is_some());
        };
        let round = |dev: &str| {
            sys.branch("master", dev).unwrap();
            commit(dev, &pipeline((0, 0), 1));
            commit("master", &pipeline((0, 1), 0));
            let spaces = sys.merge_search_spaces("master", dev).unwrap();
            let merged = sys
                .merge("master", dev, MergeStrategy::Full, &ledger)
                .unwrap();
            let report = merged.report.expect("diverged branches search");
            (spaces, serde_json::to_string(&report).unwrap())
        };
        commit("master", &pipeline((0, 0), 0));
        round("dev0"); // trains every candidate
        let (spaces, first) = round("dev1");
        let derived = registry.memo_stats();
        assert!(derived.trees > 0 && derived.candidates > 0);
        let (same_spaces, second) = round("dev2");
        assert_eq!(same_spaces, spaces, "the same search-space pair");
        assert_eq!(
            registry.memo_stats(),
            derived,
            "a warm round derived something again (incremental={incremental})"
        );
        assert_eq!(second, first, "incremental={incremental}");
    }
}

/// The memo files entries under the DAG's shape: one registry serving two
/// shapes over the same component names binds and fingerprints a key list
/// once per shape, and each system publishes its own shape's fingerprints.
/// A key list that failed to bind is not kept: once its version is
/// registered, it is bound fresh.
#[test]
fn the_memo_keeps_shapes_apart_and_binds_new_versions_fresh() {
    let store = Arc::new(ChunkStore::in_memory_small());
    let registry = registry_over(&store, None);
    let chain = MlCask::new("chain", toy_dag(), Arc::clone(&registry));
    // The chain's names, other edges: the model reads the source.
    let slots = toy_slots();
    let mut forked_dag = PipelineDag::new();
    for slot in &slots {
        forked_dag.add_node(slot).unwrap();
    }
    forked_dag.add_edge(slots[0], slots[1]).unwrap();
    forked_dag.add_edge(slots[0], slots[2]).unwrap();
    let forked = MlCask::new("forked", forked_dag, Arc::clone(&registry));
    let ledger = ClockLedger::new();
    let keys = pipeline((0, 0), 0);
    for sys in [&chain, &forked] {
        let result = sys
            .commit_pipeline("master", &keys, "step", &ledger)
            .unwrap();
        assert_eq!(result.report.executed_count(), 3);
    }
    let two_shapes = MemoStats {
        shapes: 2,
        trees: 0,
        candidates: 2,
    };
    assert_eq!(registry.memo_stats(), two_shapes);
    let fingerprints = |sys: &MlCask| pipeline_fingerprints(&sys.bind(&keys).unwrap()).unwrap();
    let (chain_fps, forked_fps) = (fingerprints(&chain), fingerprints(&forked));
    assert_ne!(chain_fps[2], forked_fps[2], "the model reads other inputs");
    for (sys, fps) in [(&chain, &chain_fps), (&forked, &forked_fps)] {
        let published = sys.history().fingerprints();
        assert!(fps.iter().all(|fp| published.contains_key(fp)));
    }

    let newer = pipeline((0, 0), 3);
    assert!(matches!(
        chain.commit_pipeline("master", &newer, "step", &ledger),
        Err(CoreError::UnknownComponent(_))
    ));
    registry
        .register(toy_model(SemVer::master(0, 3), 4, 0.8))
        .unwrap();
    let result = chain
        .commit_pipeline("master", &newer, "step", &ledger)
        .unwrap();
    assert!(result.commit.is_some());
    assert_eq!(result.report.executed_count(), 1, "only the new model runs");
    assert_eq!(registry.memo_stats().candidates, 3);
}

/// A backend that logs the key of every `get`.
struct LoggedGets {
    inner: MemBackend,
    gets: Mutex<Vec<Hash256>>,
}

impl StorageBackend for LoggedGets {
    fn put(&self, key: Hash256, data: &[u8]) -> mlcask_storage::errors::Result<bool> {
        self.inner.put(key, data)
    }
    fn get(&self, key: Hash256) -> mlcask_storage::errors::Result<Bytes> {
        self.gets.lock().unwrap().push(key);
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

fn tenant_system(t: &Tenant) -> MlCask {
    t.open_pipeline("toy", toy_dag(), registry_over(t.store(), None))
}

/// Upstream commits; downstream forks, commits, and merges back into
/// upstream's branch. Every metafile involved was written (or has been
/// decoded) by one of the two systems of this workspace, so none of them is
/// fetched and parsed: the only backend read that names a metafile at all is
/// the fork's reference hand-over (`adopt_blob` reads the head metafile's
/// *manifest* to list the chunks the forker now references), once per fork.
fn cross_tenant_round_reads_no_metafile(cache: Option<CacheOptions>) {
    let backend = Arc::new(LoggedGets {
        inner: MemBackend::new(),
        gets: Mutex::new(Vec::new()),
    });
    let store = ChunkStore::with_cache(
        Arc::clone(&backend) as Arc<dyn StorageBackend>,
        ChunkParams::SMALL,
        StorageCostModel::FORKBASE,
        cache,
    );
    let ws = Workspace::over(Arc::new(store));
    let up = ws.add_tenant("up", QuotaPolicy::UNLIMITED).unwrap();
    let down = ws.add_tenant("down", QuotaPolicy::UNLIMITED).unwrap();
    let (sys_up, sys_down) = (tenant_system(&up), tenant_system(&down));
    let ledger = ClockLedger::new();
    let commit = |sys: &MlCask, branch: &str, keys: &[ComponentKey]| {
        let result = sys.commit_pipeline(branch, keys, "step", &ledger).unwrap();
        result.commit.expect("compatible pipelines commit")
    };
    commit(&sys_up, "master", &pipeline((0, 0), 0));
    up.grant_to("down", ShareRight::MergeInto).unwrap();

    backend.gets.lock().unwrap().clear();
    const ROUNDS: usize = 3;
    for round in 0..ROUNDS {
        let branch = format!("feature{round}");
        let forked = down.fork_from("up", "master", &branch).unwrap();
        assert_eq!(forked.branch, "up/master");
        commit(&sys_down, &branch, &pipeline((0, 0), 1 + round as u32 % 2));
        commit(&sys_up, "master", &pipeline((0, 1), round as u32 % 2));
        let merged = sys_down
            .merge(
                BranchRef::peer("up", "master"),
                &branch,
                MergeStrategy::Full,
                &ledger,
            )
            .unwrap();
        assert!(merged.report.is_some(), "diverged: a real search");
        assert_eq!(merged.commit.unwrap().branch, "up/master");
    }
    let read: Vec<Hash256> = std::mem::take(&mut *backend.gets.lock().unwrap());

    // Every committed metafile: its manifest (the commit payload) and the
    // chunks holding its JSON.
    let view = ws.graph();
    let mut manifests = HashSet::new();
    let mut chunks = HashSet::new();
    for id in view.live_commits().unwrap() {
        let payload = view.get(id).unwrap().payload;
        manifests.insert(payload);
        let manifest = Manifest::decode(&backend.inner.get(payload).unwrap()).unwrap();
        chunks.extend(manifest.chunks.iter().map(|c| c.hash));
    }
    assert!(manifests.len() > 3 * ROUNDS && !chunks.is_empty());
    let parsed = read.iter().filter(|k| chunks.contains(k)).count();
    assert_eq!(parsed, 0, "a metafile's bytes were fetched to be parsed");
    let listed = read.iter().filter(|k| manifests.contains(k)).count();
    assert!(
        listed <= ROUNDS,
        "{listed} metafile manifests read over {ROUNDS} forks"
    );
    // And what the systems then serve is the stored metafile all the same.
    let head = sys_up.head_metafile("master").unwrap();
    assert_eq!(head.label, format!("up/master.{}", 2 * ROUNDS));
    assert!(Arc::ptr_eq(
        &head,
        &sys_down
            .metafile_of(&view.head("up/master").unwrap())
            .unwrap()
    ));
}

#[test]
fn a_metafile_is_decoded_once_per_workspace_not_per_tenant() {
    cross_tenant_round_reads_no_metafile(None);
    cross_tenant_round_reads_no_metafile(Some(CacheOptions::default()));
}
