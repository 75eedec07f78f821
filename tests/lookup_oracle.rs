//! A fully checkpointed pipeline is a lookup, and the lookup is invisible.
//!
//! Commits, merge searches and prioritized trials — one evaluation loop —
//! answer a pipeline every node of which is a provenance hit with the
//! frontier cut's report instead of tracing and replaying it. This suite
//! holds that fast path to the executor it replaces:
//! `with_incremental(false)` (or, for the trials, a history without
//! provenance) is the reference, and every search report, commit, ledger,
//! tenant account, store statistic and served byte must equal it — on the
//! paper's four workloads, under every merge strategy, at workers
//! {1, 2, 8}. It also pins that the path fires: a warm commit, a warm merge
//! and a warm trial schedule nothing.

mod common;

use common::{serve, toy_library, toy_pipeline, Client};
use mlcask_core::merge::{MergeEngine, MergeStrategy};
use mlcask_core::prioritized::SearchMethod;
use mlcask_core::registry::ComponentRegistry;
use mlcask_core::system::{BranchRef, CommitResult, MergeOutcome, MlCask};
use mlcask_core::testkit::toy_slots;
use mlcask_obs::{trace, MetricsRegistry};
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::history::HistoryIndex;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_storage::hash::Hash256;
use mlcask_storage::store::ChunkStore;
use mlcask_storage::tenant::ShareRight;
use mlcask_workloads::common::Workload;
use mlcask_workloads::scenario::{build_multi_tenant, TenantSystem};
use std::sync::{Arc, RwLock};

/// The flight recorder and the metrics registry are process-wide: the tests
/// that count spans or a counter take this exclusively, the others share it.
static GLOBALS: RwLock<()> = RwLock::new(());

fn policy(workers: usize) -> ParallelismPolicy {
    match workers {
        1 => ParallelismPolicy::Sequential,
        n => ParallelismPolicy::Parallel(n),
    }
}

/// The same checkpoints, no provenance: nothing can be cut, so every
/// candidate is traced and replayed.
fn without_provenance(history: &HistoryIndex) -> HistoryIndex {
    let copy = HistoryIndex::new();
    for (key, output) in history.snapshot() {
        copy.insert(key, output);
    }
    copy
}

/// The history's pairing invariant, seen from outside: every fingerprinted
/// output is also one of its checkpoints.
fn assert_paired(history: &HistoryIndex, what: &str) {
    let checkpoints = history.snapshot();
    for (fp, output) in history.fingerprints() {
        assert!(
            checkpoints.values().any(|c| *c == output),
            "{what}: fingerprint {fp} has no checkpoint"
        );
    }
}

/// Records every observable of one commit or merge, with the ledger after it.
struct Observer {
    ledger: ClockLedger,
    seen: Vec<String>,
}

impl Observer {
    fn commit(&mut self, sys: &MlCask, branch: &str, keys: &[ComponentKey], message: &str) {
        let result = sys.commit_pipeline(branch, keys, message, &self.ledger);
        let seen = match result {
            Ok(CommitResult { commit, report }) => format!(
                "commit {branch}: {} {}",
                serde_json::to_string(&commit).unwrap(),
                serde_json::to_string(&report).unwrap(),
            ),
            Err(e) => format!("commit {branch}: error {e}"),
        };
        self.push(seen);
    }

    fn merge(&mut self, what: &str, merged: mlcask_core::errors::Result<MergeOutcome>) {
        let seen = match merged {
            Ok(outcome) => {
                let report = outcome.report.map(|mut r| {
                    // The one field allowed to differ from the reference.
                    r.skipped_by_frontier = 0;
                    r
                });
                format!(
                    "merge {what}: ff={} {} {}",
                    outcome.fast_forward,
                    serde_json::to_string(&outcome.commit).unwrap(),
                    serde_json::to_string(&report).unwrap(),
                )
            }
            Err(e) => format!("merge {what}: error {e}"),
        };
        self.push(seen);
    }

    fn push(&mut self, what: String) {
        let ledger = serde_json::to_string(&self.ledger.snapshot()).unwrap();
        self.seen.push(format!("{what} ledger={ledger}"));
    }
}

const STRATEGIES: [(&str, MergeStrategy); 4] = [
    ("without_pc_pr", MergeStrategy::WithoutPcPr),
    ("without_pr", MergeStrategy::WithoutPr),
    ("naive", MergeStrategy::Naive),
    ("full", MergeStrategy::Full),
];

/// Two tenants evolve `w` and merge it back and forth: a cold history, a
/// round of trials, a merge under every strategy, the history-backed ones
/// again once warm, warm re-commits, and a fast-forward. Returns every
/// observable in order, and the frontier-skipped nodes the trials reported.
fn collaboration(w: &Workload, workers: usize, incremental: bool) -> (Vec<String>, usize) {
    let (ws, teams) = build_multi_tenant(w, &["up", "down"]).unwrap();
    let mut teams = teams.into_iter().map(|t| TenantSystem {
        sys: t
            .sys
            .with_parallelism(policy(workers))
            .with_incremental(incremental),
        ..t
    });
    let (up, down) = (teams.next().unwrap(), teams.next().unwrap());
    let mut o = Observer {
        ledger: ClockLedger::new(),
        seen: Vec::new(),
    };

    o.commit(&up.sys, "master", &w.initial, "initial");
    up.tenant.grant_to("down", ShareRight::MergeInto).unwrap();
    down.tenant.fork_from("up", "master", "feature").unwrap();
    for keys in &w.head_updates {
        o.commit(&up.sys, "master", keys, "head");
    }
    for keys in &w.dev_updates {
        o.commit(&down.sys, "feature", keys, "dev");
    }

    // Trials over the cold history: the committed pipelines are cut whole,
    // the rest only partly, interleaved in one trial.
    let spaces = down
        .sys
        .merge_search_spaces(BranchRef::peer("up", "master"), "feature")
        .unwrap();
    let history = if incremental {
        down.sys.history().clone()
    } else {
        without_provenance(down.sys.history())
    };
    let searcher =
        MergeEngine::new(&down.registry, Arc::new(w.dag())).with_parallelism(policy(workers));
    let mut trial_skips = 0;
    for method in [SearchMethod::Prioritized, SearchMethod::Random] {
        let mut stats = searcher
            .run_trials(&spaces, &history, &[], method, 2, 5)
            .unwrap();
        trial_skips += stats.skipped_by_frontier;
        stats.skipped_by_frontier = 0;
        o.push(format!("trials {}", serde_json::to_string(&stats).unwrap()));
    }

    // Every strategy merges the same diverged pair of heads, cold; the
    // history-backed ones again, over what the first pass checkpointed.
    for (pass, strategies) in [("cold", &STRATEGIES[..]), ("warm", &STRATEGIES[2..])] {
        for (name, strategy) in strategies {
            let (base, feature) = (format!("{pass}_{name}"), format!("f_{pass}_{name}"));
            up.sys.branch("master", &base).unwrap();
            down.sys.branch("feature", &feature).unwrap();
            let merged =
                down.sys
                    .merge(BranchRef::peer("up", &base), &feature, *strategy, &o.ledger);
            o.merge(&format!("{pass} {name}"), merged);
        }
    }

    // Warm re-commits, then a fast-forward of a fork that only re-commits.
    o.commit(&up.sys, "master", &w.initial, "again");
    for keys in &w.dev_updates {
        o.commit(&down.sys, "feature", keys, "again");
    }
    down.tenant.fork_from("up", "master", "ff").unwrap();
    o.commit(&down.sys, "ff", &w.dev_updates[0], "ff");
    let merged = down.sys.merge(
        BranchRef::peer("up", "master"),
        "ff",
        MergeStrategy::Full,
        &o.ledger,
    );
    o.merge("fast-forward", merged);

    let store = ws.store();
    o.seen.push(format!(
        "usages={} shared={} stats={} physical={} reserved={} checkpoints={}",
        serde_json::to_string(&ws.usages()).unwrap(),
        serde_json::to_string(&ws.shared_view()).unwrap(),
        serde_json::to_string(&store.stats()).unwrap(),
        store.physical_bytes(),
        store.tenant_accounts().open_reservations(),
        down.sys.history().snapshot().len(),
    ));
    assert_paired(
        down.sys.history(),
        &format!("{} at {workers} workers, incremental {incremental}", w.name),
    );
    (o.seen, trial_skips)
}

/// The fast path at workers {1, 2, 8} against the reference, line by line.
fn oracle(name: &str) {
    let _shared = GLOBALS.read().unwrap_or_else(|e| e.into_inner());
    let w = mlcask_workloads::by_name(name).unwrap();
    let (reference, reference_skips) = collaboration(&w, 1, false);
    assert_eq!(reference_skips, 0, "{name}: the reference never cuts");
    for workers in [1, 2, 8] {
        let (fast, skips) = collaboration(&w, workers, true);
        assert!(skips > 0, "{name}: no trial candidate was cut");
        assert_eq!(fast.len(), reference.len());
        for (got, want) in fast.iter().zip(&reference) {
            assert_eq!(got, want, "{name} diverged at {workers} workers");
        }
    }
}

#[test]
fn readmission_lookups_match_the_executor() {
    oracle("readmission");
}

#[test]
fn dpm_lookups_match_the_executor() {
    oracle("dpm");
}

#[test]
fn sa_lookups_match_the_executor() {
    oracle("sa");
}

#[test]
fn autolearn_lookups_match_the_executor() {
    oracle("autolearn");
}

/// The toy chain with two scalers and three models.
fn toy_system() -> MlCask {
    let store = Arc::new(ChunkStore::in_memory_small());
    let registry = ComponentRegistry::with_exe_size(store, 2048);
    for c in toy_library() {
        registry.register(c).unwrap();
    }
    let dag = PipelineDag::chain(&toy_slots()).unwrap();
    MlCask::new("toy", dag, Arc::new(registry))
}

/// `exec.wavefront` spans recorded while `f` runs (callers hold `GLOBALS`
/// exclusively, so every span in the window is theirs).
fn wavefronts(f: impl FnOnce()) -> usize {
    let rec = trace::recorder();
    let before = rec.recorded();
    f();
    let recorded = (rec.recorded() - before) as usize;
    assert!(recorded < rec.capacity(), "the ring kept every span");
    rec.recent(recorded)
        .iter()
        .filter(|s| s.name == "exec.wavefront")
        .count()
}

/// Nodes `mlcask_frontier_skipped_total` counted while `f` ran.
fn frontier_counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let counter = MetricsRegistry::global().counter(
        "mlcask_frontier_skipped_total",
        "Pipeline nodes skipped by provenance frontier cuts",
        &[],
    );
    let before = counter.get();
    let out = f();
    (out, counter.get() - before)
}

#[test]
fn a_warm_commit_and_a_warm_merge_schedule_nothing() {
    let _alone = GLOBALS.write().unwrap_or_else(|e| e.into_inner());
    let rec = trace::recorder();
    let restore = (rec.is_enabled(), rec.capacity());
    rec.configure(true, trace::DEFAULT_CAPACITY);
    let sys = toy_system();
    let ledger = ClockLedger::new();
    let commit = |branch: &str, keys: Vec<ComponentKey>| {
        let done = sys.commit_pipeline(branch, &keys, "step", &ledger).unwrap();
        assert!(done.commit.is_some());
        done.report
    };
    let round = |dev: &str| {
        sys.branch("master", dev).unwrap();
        commit(dev, toy_pipeline(0, 1));
        commit("master", toy_pipeline(1, 0));
        let (merged, counted) = frontier_counted(|| {
            sys.merge("master", dev, MergeStrategy::Full, &ledger)
                .unwrap()
        });
        let report = merged.report.expect("diverged branches search");
        assert_eq!(counted, report.skipped_by_frontier as u64);
        report
    };

    let cold = wavefronts(|| {
        commit("master", toy_pipeline(0, 0));
        let report = round("dev0");
        assert!(report.executed_components > 0);
    });
    assert!(cold > 0, "a cold run schedules its nodes");

    let warm_commit = wavefronts(|| {
        assert_eq!(commit("master", toy_pipeline(0, 0)).reused_count(), 3);
    });
    assert_eq!(warm_commit, 0, "a warm commit is a lookup");

    let mut warm = None;
    let warm_round = wavefronts(|| warm = Some(round("dev1")));
    let warm = warm.unwrap();
    assert_eq!(warm_round, 0, "a warm round is lookups end to end");
    assert_eq!(warm.executed_components, 0);
    assert_eq!(
        warm.skipped_by_frontier,
        3 * warm.candidates_evaluated,
        "every candidate was answered whole"
    );
    rec.configure(restore.0, restore.1);
}

#[test]
fn a_warm_trial_is_lookups_end_to_end() {
    let _alone = GLOBALS.write().unwrap_or_else(|e| e.into_inner());
    let rec = trace::recorder();
    let restore = (rec.is_enabled(), rec.capacity());
    rec.configure(true, trace::DEFAULT_CAPACITY);
    let sys = toy_system();
    let ledger = ClockLedger::new();
    let commit = |branch: &str, keys: Vec<ComponentKey>| {
        let done = sys.commit_pipeline(branch, &keys, "step", &ledger).unwrap();
        assert!(done.commit.is_some());
    };
    commit("master", toy_pipeline(0, 0));
    sys.branch("master", "dev").unwrap();
    commit("dev", toy_pipeline(0, 1));
    commit("master", toy_pipeline(1, 0));
    let spaces = sys.merge_search_spaces("master", "dev").unwrap();
    // The merge's search checkpoints every candidate the trials pick.
    sys.merge("master", "dev", MergeStrategy::Full, &ledger)
        .unwrap();

    let engine = MergeEngine::new(sys.registry(), Arc::clone(sys.dag()));
    let trials = |history: &HistoryIndex| {
        [SearchMethod::Prioritized, SearchMethod::Random].map(|method| {
            engine
                .run_trials(&spaces, history, &[], method, 3, 5)
                .unwrap()
        })
    };
    let mut warm = None;
    let scheduled = wavefronts(|| warm = Some(trials(sys.history())));
    assert_eq!(scheduled, 0, "a warm trial is lookups end to end");
    let reference = trials(&without_provenance(sys.history()));
    for (mut got, want) in warm.unwrap().into_iter().zip(reference) {
        let picks: usize = got.per_rank.len() * got.trials;
        assert_eq!(got.skipped_by_frontier, 3 * picks, "every pick was whole");
        assert_eq!(want.skipped_by_frontier, 0, "the reference never cuts");
        got.skipped_by_frontier = 0;
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
    }
    rec.configure(restore.0, restore.1);
}

/// Two tenants of the served toy chain, a cold episode, then warm rounds of
/// fork → re-commit → merge → reads, through the router.
fn served_session(workers: usize) -> String {
    let _shared = GLOBALS.read().unwrap_or_else(|e| e.into_inner());
    let mut client = Client::new(serve(workers, None).0);
    let mut script: Vec<String> = ["up open unlimited", "down open unlimited"]
        .map(String::from)
        .to_vec();
    script.extend(["up commit master 0 0 0", "up grant down merge_into"].map(String::from));
    for round in 0..4 {
        let (down, up) = (round % 2, 1 - round % 2);
        script.extend([
            format!("down fork up master f{round}"),
            format!("down commit f{round} 0 1 {down}"),
            format!("up commit master 0 0 {up}"),
            format!("down merge.into up master f{round}"),
        ]);
        script.extend(["up log master 5", "up head master", "down usage"].map(String::from));
    }
    script.push("workspace.usage".into());
    let served: Vec<String> = script.iter().map(|step| client.send(step)).collect();
    assert!(
        !served.iter().any(|r| r.contains(r#""error""#)),
        "{served:?}"
    );
    served.join("\n")
}

/// The SHA-256 of what the router served for [`served_session`] when every
/// commit and merge candidate went through the executor — the daemon has no
/// switch for the lookups, so the reference is recorded: taken from the
/// executor-only build, identical at workers {1, 2, 8}.
const SERVED_BY_THE_EXECUTOR: &str =
    "56020cf17be8cf1068e44b1e3adbbab01964c1dafa63ad0bc280a8603cc847af";

#[test]
fn a_warm_daemon_session_serves_what_the_executor_served() {
    for workers in [1, 2, 8] {
        let served = served_session(workers);
        assert_eq!(
            Hash256::of(served.as_bytes()).to_hex(),
            SERVED_BY_THE_EXECUTOR,
            "served at {workers} workers:\n{served}"
        );
    }
}
