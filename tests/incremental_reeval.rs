//! Provenance-keyed incremental re-evaluation: the frontier-cut fast path
//! must be an *invisible* optimisation. Reports stay byte-identical to full
//! re-evaluation at every worker count, data changes invalidate the cut,
//! and cross-tenant accounting cannot move by a byte when a peer's cached
//! prefix is reused.

mod common;

use common::{toy_pipeline, toy_system};
use mlcask_core::merge::{MergeEngine, MergeSearchReport, MergeStrategy};
use mlcask_core::registry::ComponentRegistry;
use mlcask_core::search_space::SearchSpaces;
use mlcask_core::system::BranchRef;
use mlcask_core::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
use mlcask_core::workspace::Workspace;
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::errors::PipelineError;
use mlcask_pipeline::executor::Executor;
use mlcask_pipeline::history::HistoryIndex;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::search::{self, Candidate, Policy};
use mlcask_pipeline::semver::SemVer;
use mlcask_storage::backend::{MemBackend, StorageBackend};
use mlcask_storage::cache::CacheOptions;
use mlcask_storage::cask::CaskBackend;
use mlcask_storage::chunk::ChunkParams;
use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::store::ChunkStore;
use mlcask_storage::tenant::{QuotaPolicy, ShareRight};
use std::sync::Arc;

/// The what-if scenario on the toy chain: the source and the scaler are
/// the shared prefix, the model slot swaps its base version 0.0 for four
/// variants, and source 0.1, with other rows, is a data change.
fn key(slot: &str, increment: u32) -> ComponentKey {
    ComponentKey::new(slot, SemVer::master(0, increment))
}

/// The committed pipeline, over source 0.`source`.
fn base(source: u32) -> Vec<ComponentKey> {
    let slots = ["test_source", "test_scaler", "test_model"];
    slots
        .into_iter()
        .zip([source, 0, 0])
        .map(|(s, i)| key(s, i))
        .collect()
}

/// The what-if batch as a merge search space: the base everywhere but the
/// model slot, which carries the base version and every variant.
fn spaces() -> SearchSpaces {
    let mut per_slot: Vec<_> = base(0).into_iter().map(|k| vec![k]).collect();
    per_slot[2] = (0..5).map(|i| key("test_model", i)).collect();
    let slot_names = toy_slots().into_iter().map(String::from).collect();
    SearchSpaces {
        slot_names,
        per_slot,
    }
}

/// A primed what-if system: the base pipeline run into the history, which
/// publishes its checkpoints and their provenance fingerprints, exactly as
/// `MlCask::commit_pipeline` leaves it.
struct Primed {
    reg: ComponentRegistry,
    history: HistoryIndex,
    dag: Arc<PipelineDag>,
}

fn primed() -> Primed {
    primed_on(Arc::new(ChunkStore::in_memory()))
}

fn primed_on(store: Arc<ChunkStore>) -> Primed {
    let reg = ComponentRegistry::with_exe_size(store, 4096);
    let sources = [(0, 32), (1, 48)].map(|(i, rows)| toy_source(SemVer::master(0, i), 4, rows));
    let scaler = toy_scaler(SemVer::master(0, 0), 4, 4, 1.5);
    let models = (0..5).map(|i| toy_model(SemVer::master(0, i), 4, 0.5 + 0.1 * f64::from(i)));
    let handles: Vec<_> = sources.into_iter().chain([scaler]).chain(models).collect();
    reg.register_many(&handles).unwrap();
    let (dag, history) = (
        Arc::new(PipelineDag::chain(&toy_slots()).unwrap()),
        HistoryIndex::new(),
    );
    let bound = reg.bind(&dag, &base(0)).unwrap();
    Executor::new(reg.store())
        .run(&bound, Some(&history), Policy::MLCASK)
        .unwrap();
    Primed { reg, history, dag }
}

/// One what-if search on a *fresh* primed system — a search warms the
/// history it runs over, so comparable runs each get their own.
fn search(policy: ParallelismPolicy, incremental: bool) -> MergeSearchReport {
    search_on(Arc::new(ChunkStore::in_memory()), policy, incremental)
}

fn search_on(
    store: Arc<ChunkStore>,
    policy: ParallelismPolicy,
    incremental: bool,
) -> MergeSearchReport {
    let p = primed_on(store);
    let engine = MergeEngine::new(&p.reg, Arc::clone(&p.dag))
        .with_parallelism(policy)
        .with_incremental(incremental);
    engine
        .search(&spaces(), &p.history, MergeStrategy::Full)
        .unwrap()
}

/// Serialized report with the frontier telemetry zeroed — the only field
/// allowed to differ between incremental and full re-evaluation.
fn normalized(report: &MergeSearchReport) -> String {
    let mut r = report.clone();
    r.skipped_by_frontier = 0;
    serde_json::to_string(&r).unwrap()
}

#[test]
fn incremental_report_byte_identical_to_full_reevaluation() {
    let full = search(ParallelismPolicy::Sequential, false);
    let inc = search(ParallelismPolicy::Sequential, true);
    assert_eq!(full.skipped_by_frontier, 0, "full re-evaluation never cuts");
    assert!(
        inc.skipped_by_frontier > 0,
        "the shared prefix must be cut out of the what-if candidates"
    );
    assert_eq!(
        normalized(&full),
        normalized(&inc),
        "frontier cuts must not move the report by a byte"
    );
}

#[test]
fn incremental_search_deterministic_across_worker_counts() {
    let reference = search(ParallelismPolicy::Sequential, true);
    let reference_obs = normalized(&reference);
    for workers in [1usize, 2, 8] {
        let policy = if workers == 1 {
            ParallelismPolicy::Sequential
        } else {
            ParallelismPolicy::Parallel(workers)
        };
        let report = search(policy, true);
        assert_eq!(
            normalized(&report),
            reference_obs,
            "incremental search diverged at {workers} workers"
        );
        assert_eq!(
            report.skipped_by_frontier, reference.skipped_by_frontier,
            "frontier telemetry must be worker-count independent"
        );
    }
    // Nor may the report depend on where the bytes live: memory or a cask,
    // blob cache off or on. One cell per store (each store's own worker
    // sweep is what CI's backend matrix runs `parallel_determinism` for).
    let dir = std::env::temp_dir().join(format!("mlcask-whatif-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cask = |tag: &str| -> Arc<dyn StorageBackend> {
        Arc::new(CaskBackend::open(dir.join(tag)).unwrap())
    };
    for (what, backend, cache, policy) in [
        (
            "mem, cache off",
            Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
            None,
            ParallelismPolicy::Parallel(2),
        ),
        (
            "cask, cache off",
            cask("off"),
            None,
            ParallelismPolicy::Parallel(8),
        ),
        (
            "cask, cache on",
            cask("on"),
            Some(CacheOptions::default()),
            ParallelismPolicy::Sequential,
        ),
    ] {
        let store = ChunkStore::with_cache(
            backend,
            ChunkParams::DEFAULT,
            StorageCostModel::FORKBASE,
            cache,
        );
        assert_eq!(
            normalized(&search_on(Arc::new(store), policy, true)),
            reference_obs,
            "incremental search diverged on {what}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn data_artifact_change_invalidates_the_frontier() {
    let p = primed();
    let dag = &p.dag;
    let executor = Executor::new(p.reg.store());
    // Cut and reuse, publishing nothing, so both runs cut the primed history.
    let policy = Policy {
        publish: false,
        ..Policy::MLCASK
    };
    let run = |keys: &[ComponentKey]| {
        let resolve = |keys: &[ComponentKey]| {
            let bound = p.reg.bind(dag, keys).unwrap();
            Candidate::of(bound).map(Arc::new)
        };
        let mut picked = [vec![keys.to_vec()]];
        let mut evaluated = search::evaluate::<_, PipelineError>(
            &executor,
            &p.history,
            policy,
            &mut picked,
            resolve,
        )
        .unwrap();
        evaluated.remove(0).remove(0)
    };
    // Re-evaluating the committed pipeline verbatim: everything is cut.
    let cached = run(&base(0));
    assert_eq!(cached.skipped, base(0).len());
    // Swapping the source version produces *different data*, so every
    // downstream fingerprint changes and nothing may be reused statically.
    let invalidated = run(&base(1));
    assert_eq!(
        invalidated.skipped, 0,
        "a data-artifact change must invalidate the whole frontier"
    );
}

/// Everything tenant accounting observes, plus the merge report with the
/// frontier telemetry zeroed.
fn cross_tenant_fingerprint(incremental: bool) -> (String, usize) {
    let ws = Workspace::in_memory_small();
    let up = ws.add_tenant("up", QuotaPolicy::UNLIMITED).unwrap();
    let down = ws.add_tenant("down", QuotaPolicy::UNLIMITED).unwrap();
    let sys_up = toy_system(&up).with_incremental(incremental);
    let sys_down = toy_system(&down).with_incremental(incremental);
    let clock = ClockLedger::new();
    sys_up
        .commit_pipeline("master", &toy_pipeline(0, 0), "up initial", &clock)
        .unwrap();
    up.grant_to("down", ShareRight::MergeInto).unwrap();
    down.fork_from("up", "master", "feature").unwrap();
    // Diverge both sides so the merge needs a real search; the shared
    // prefix (source + scaler 0) stays cached from upstream's commits.
    sys_up
        .commit_pipeline("master", &toy_pipeline(1, 0), "up scaler", &clock)
        .unwrap();
    sys_down
        .commit_pipeline("feature", &toy_pipeline(0, 1), "down model", &clock)
        .unwrap();
    let merged = sys_down
        .merge(
            BranchRef::peer("up", "master"),
            "feature",
            MergeStrategy::Full,
            &clock,
        )
        .unwrap();
    let mut report = merged.report.unwrap();
    let skipped = report.skipped_by_frontier;
    report.skipped_by_frontier = 0;
    let heads: Vec<String> = ws
        .graph()
        .branches()
        .iter()
        .map(|b| format!("{b}={}", ws.graph().head(b).unwrap().id.short()))
        .collect();
    let fp = format!(
        "report={} usages={} shared={} physical={} reserved={} heads={heads:?} clock={}",
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&ws.usages()).unwrap(),
        serde_json::to_string(&ws.shared_view()).unwrap(),
        ws.store().physical_bytes(),
        ws.store().tenant_accounts().open_reservations(),
        serde_json::to_string(&clock.snapshot()).unwrap(),
    );
    (fp, skipped)
}

#[test]
fn cross_tenant_accounting_unchanged_when_peer_prefix_is_reused() {
    let (without, skipped_off) = cross_tenant_fingerprint(false);
    let (with, skipped_on) = cross_tenant_fingerprint(true);
    assert_eq!(skipped_off, 0, "disabled systems must never cut");
    assert!(
        skipped_on > 0,
        "the cross-tenant merge must reuse the peer's cached prefix via the frontier"
    );
    assert_eq!(
        with, without,
        "frontier reuse must not move tenant accounting by a byte"
    );
}
