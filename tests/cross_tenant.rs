//! Cross-tenant collaboration through the library API (the served requests
//! are `tests/simulation.rs`'s): merging into a peer's branch under every
//! grant, branch names that spell a peer's branch, a grant revoked
//! mid-search, a quota breach mid cross-tenant merge, dedup attribution of
//! cross-tenant merges, and worker-count determinism of the whole
//! upstream/downstream workflow.

mod common;

use common::{accounting_fingerprint, graph_fingerprint, toy_pipeline, toy_system};
use common::{toy_system_with, Gate, Tripwire};
use mlcask_core::errors::CoreError;
use mlcask_core::merge::MergeStrategy;
use mlcask_core::system::{BranchRef, MlCask};
use mlcask_core::testkit::{toy_model, toy_slots};
use mlcask_core::workspace::Workspace;
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::errors::PipelineError;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::semver::SemVer;
use mlcask_storage::errors::StorageError;
use mlcask_storage::tenant::{QuotaPolicy, ShareRight};
use mlcask_workloads::readmission;
use mlcask_workloads::scenario::{build_system, run_upstream_downstream, setup_nonlinear};
use std::sync::Arc;

/// Two tenants whose histories diverge on both sides of one fork point:
/// `up` owns `master`, `down` owns `master` (forked from `up/master`), so
/// they merge by a real search. `up` ends up granting `down` exactly
/// `grant`.
struct Peers {
    ws: Arc<Workspace>,
    sys_down: MlCask,
}

fn peers(grant: Option<ShareRight>) -> Peers {
    let ws = Workspace::in_memory_small();
    let up = ws.add_tenant("up", QuotaPolicy::UNLIMITED).unwrap();
    let down = ws.add_tenant("down", QuotaPolicy::UNLIMITED).unwrap();
    let (sys_up, sys_down) = (toy_system(&up), toy_system(&down));
    let clock = ClockLedger::new();
    let commit = |sys: &MlCask, branch: &str, scaler: u32, model: u32| {
        let keys = toy_pipeline(scaler, model);
        let done = sys.commit_pipeline(branch, &keys, branch, &clock).unwrap();
        assert!(done.commit.is_some());
    };
    commit(&sys_up, "master", 0, 0);
    up.grant_to("down", ShareRight::Fork).unwrap();
    down.fork_from("up", "master", "master").unwrap();
    commit(&sys_up, "master", 1, 0);
    commit(&sys_down, "master", 0, 2);
    match grant {
        Some(right) => up.grant_to("down", right),
        None => up.revoke_from("down"),
    }
    .unwrap();
    Peers { ws, sys_down }
}

/// `down` merges its own `master` into `up`'s under every grant: an
/// admitted merge commits, and a refused one moves neither graph nor
/// accounts by a single byte. The served forks and merges (own branches,
/// `merge.into` a peer's, unknown peers) are `tests/simulation.rs`'s; that
/// the graph writes apply the very rule the precheck does is
/// `mlcask_core`'s `workspace::tests::the_write_time_rule_is_the_precheck`.
#[test]
fn denied_fork_and_merge_leave_graph_and_accounts_bit_unchanged() {
    let clock = ClockLedger::new();
    for grant in [None, Some(ShareRight::Fork), Some(ShareRight::MergeInto)] {
        let p = peers(grant);
        let before = accounting_fingerprint(&p.ws);
        let base = BranchRef::peer("up", "master");
        let merged = p
            .sys_down
            .merge(base, "master", MergeStrategy::Full, &clock);
        if grant == Some(ShareRight::MergeInto) {
            let merged = merged.unwrap_or_else(|e| panic!("{grant:?}: {e}"));
            assert!(
                merged.commit.is_some(),
                "{grant:?}: admitted but not committed"
            );
            continue;
        }
        assert!(
            matches!(
                &merged,
                Err(CoreError::ShareDenied { owner, peer, needed: ShareRight::MergeInto })
                    if owner == "up" && peer == "down"
            ),
            "{grant:?}: {:?}",
            merged.map(|m| m.commit)
        );
        assert_eq!(accounting_fingerprint(&p.ws), before, "{grant:?}");
    }

    // A solo system has no namespace to act from.
    let p = peers(Some(ShareRight::MergeInto));
    let solo = MlCask::new(
        "toy",
        PipelineDag::chain(&toy_slots()).unwrap(),
        Arc::clone(p.sys_down.registry()),
    );
    assert!(matches!(
        solo.merge(
            BranchRef::peer("up", "master"),
            "master",
            MergeStrategy::Full,
            &clock
        ),
        Err(CoreError::NotATenant(_))
    ));
}

/// A tenant cannot reach another namespace by spelling it: every public
/// API that takes a branch name resolves it inside the caller's own
/// namespace, so a name that spells a peer's branch is a branch of one's
/// own.
#[test]
fn raw_string_apis_cannot_touch_foreign_namespaces() {
    let ws = Workspace::in_memory_small();
    let up = ws.add_tenant("up", QuotaPolicy::UNLIMITED).unwrap();
    let down = ws.add_tenant("down", QuotaPolicy::UNLIMITED).unwrap();
    let sys_up = toy_system(&up);
    let sys_down = toy_system(&down);
    let clock = ClockLedger::new();
    sys_up
        .commit_pipeline("master", &toy_pipeline(0, 0), "up initial", &clock)
        .unwrap();
    let up_head = ws.graph().head("up/master").unwrap();
    let before = accounting_fingerprint(&ws);
    // Branching off "up/master" looks for down's own `down/up/master`.
    assert!(matches!(
        sys_down.branch("up/master", "steal"),
        Err(CoreError::Storage(StorageError::UnknownBranch(b))) if b == "down/up/master"
    ));
    assert!(matches!(
        sys_down.merge("up/master", "master", MergeStrategy::Full, &clock),
        Err(CoreError::Storage(StorageError::UnknownBranch(b))) if b == "down/up/master"
    ));
    assert_eq!(accounting_fingerprint(&ws), before);
    // Committing to "up/master" roots a branch in down's namespace.
    let squat = sys_down
        .commit_pipeline("up/master", &toy_pipeline(0, 0), "squat", &clock)
        .unwrap()
        .commit
        .unwrap();
    assert_eq!(squat.branch, "down/up/master");
    assert_eq!(ws.graph().head("up/master").unwrap(), up_head);
    assert_eq!(down.branches(), vec!["up/master"]);
    assert_eq!(up.branches(), vec!["master"]);
    // Only a grant reaches up's namespace, and only what it grants.
    assert!(matches!(
        down.fork_from("up", "master", "fork"),
        Err(CoreError::ShareDenied { .. })
    ));
    up.grant_to("down", ShareRight::Fork).unwrap();
    down.fork_from("up", "master", "fork").unwrap();
    assert_eq!(down.branches(), vec!["fork", "up/master"]);
}

/// The rule is applied again when the merge commit is written: a grant
/// revoked while the search runs refuses the commit, and the graph does
/// not move. A component `down` committed revokes the grant the first time
/// the merge search runs it.
#[test]
fn a_grant_revoked_mid_search_refuses_the_merge_commit() {
    let ws = Workspace::in_memory_small();
    let up = ws.add_tenant("up", QuotaPolicy::UNLIMITED).unwrap();
    let down = ws.add_tenant("down", QuotaPolicy::UNLIMITED).unwrap();
    let gate = Gate::default();
    let wire = Tripwire::wrap(toy_model(SemVer::master(0, 2), 4, 0.7), &gate);
    let sys_up = toy_system(&up);
    let sys_down = toy_system_with(&down, wire);
    let clock = ClockLedger::new();
    sys_up
        .commit_pipeline("master", &toy_pipeline(0, 0), "up initial", &clock)
        .unwrap();
    up.grant_to("down", ShareRight::MergeInto).unwrap();
    down.fork_from("up", "master", "feature").unwrap();
    sys_up
        .commit_pipeline("master", &toy_pipeline(1, 0), "up scaler", &clock)
        .unwrap();
    sys_down
        .commit_pipeline("feature", &toy_pipeline(0, 2), "down model", &clock)
        .unwrap();
    let revoker = Arc::clone(&ws);
    *gate.lock().unwrap() = Some(Box::new(move || {
        revoker.revoke_share("up", "down").unwrap()
    }));
    let before = graph_fingerprint(&ws);
    let base = BranchRef::peer("up", "master");
    let merged = sys_down.merge(base, "feature", MergeStrategy::Full, &clock);
    assert!(
        gate.lock().unwrap().is_none(),
        "the search never ran model 0.2"
    );
    assert!(
        matches!(
            &merged,
            Err(CoreError::ShareDenied { owner, peer, needed: ShareRight::MergeInto })
                if owner == "up" && peer == "down"
        ),
        "{:?}",
        merged.map(|m| m.commit)
    );
    assert_eq!(graph_fingerprint(&ws), before);
}

#[test]
fn cross_tenant_merge_attribution_sums_to_store_totals() {
    let w = readmission::build();
    let c = run_upstream_downstream(&w, ParallelismPolicy::Sequential).unwrap();
    let usage = c.ws.usages();
    // First-writer-pays attribution stays exact through fork + cross merge.
    assert_eq!(
        usage.values().map(|u| u.physical_bytes).sum::<u64>(),
        c.ws.store().physical_bytes(),
        "attribution must sum to the store total after a cross-tenant merge"
    );
    // Downstream reused upstream's bytes rather than re-materializing them.
    assert!(usage["downstream"].physical_bytes < usage["upstream"].physical_bytes);
    // Without the shared workspace, collaborating means exporting
    // upstream's history and re-importing it into a store downstream owns:
    // the same workflow there pays again for every byte upstream stored.
    let (_registry, isolated) = build_system(&w).unwrap();
    let clock = setup_nonlinear(&isolated, &w).unwrap();
    isolated
        .merge("master", "dev", MergeStrategy::Full, &clock)
        .unwrap();
    let (reimported, forked) = (
        isolated.store().physical_bytes(),
        usage["downstream"].physical_bytes,
    );
    assert!(
        reimported as f64 > 1.5 * forked as f64,
        "downstream materialises {reimported} B by re-import, {forked} B by fork"
    );
    // Both teams reference the shared chunks in the fair-share view.
    let shared = c.ws.shared_view();
    assert!(shared["downstream"].referenced_bytes > 0);
    // No reservation outlives the evaluation.
    assert_eq!(c.ws.store().tenant_accounts().open_reservations(), 0);
    // The merge commit carries the upstream label sequence.
    let commit = c.merge.commit.as_ref().unwrap();
    assert!(commit.label().starts_with("upstream/master."));
}

#[test]
fn cross_tenant_merge_deterministic_across_worker_counts() {
    let run = |policy: ParallelismPolicy| -> String {
        let w = readmission::build();
        let c = run_upstream_downstream(&w, policy).unwrap();
        let heads: Vec<String> =
            c.ws.graph()
                .branches()
                .iter()
                .map(|b| {
                    let h = c.ws.graph().head(b).unwrap();
                    format!("{b}={} seq={}", h.id.short(), h.seq)
                })
                .collect();
        format!(
            "report={} usages={} shared={} stats={} physical={} heads={heads:?} clock={}",
            serde_json::to_string(c.merge.report.as_ref().unwrap()).unwrap(),
            serde_json::to_string(&c.ws.usages()).unwrap(),
            serde_json::to_string(&c.ws.shared_view()).unwrap(),
            serde_json::to_string(&c.ws.store().stats()).unwrap(),
            c.ws.store().physical_bytes(),
            serde_json::to_string(&c.clock.snapshot()).unwrap(),
        )
    };
    let sequential = run(ParallelismPolicy::Sequential);
    for workers in [1, 2, 8] {
        let parallel = run(ParallelismPolicy::Parallel(workers));
        assert_eq!(
            sequential, parallel,
            "cross-tenant merge with {workers} workers diverged"
        );
    }
}

/// A merge search that breaches the merging tenant's quota on its first
/// attributed write releases every reservation and charges nothing, at one
/// worker and at eight; raising the quota unblocks the identical merge.
#[test]
fn quota_breach_mid_cross_merge_releases_reservations_and_leaves_accounts() {
    let ws = Workspace::in_memory_small();
    let up = ws.add_tenant("up", QuotaPolicy::UNLIMITED).unwrap();
    let down = ws.add_tenant("down", QuotaPolicy::UNLIMITED).unwrap();
    let sys_up = toy_system(&up);
    let sys_down = toy_system(&down);
    let clock = ClockLedger::new();
    sys_up
        .commit_pipeline("master", &toy_pipeline(0, 0), "up initial", &clock)
        .unwrap();
    up.grant_to("down", ShareRight::MergeInto).unwrap();
    down.fork_from("up", "master", "feature").unwrap();
    // Diverge both sides so the merge needs a real search.
    sys_up
        .commit_pipeline("master", &toy_pipeline(1, 0), "up scaler", &clock)
        .unwrap();
    sys_down
        .commit_pipeline("feature", &toy_pipeline(0, 1), "down model", &clock)
        .unwrap();
    sys_down
        .commit_pipeline("feature", &toy_pipeline(0, 2), "down model 2", &clock)
        .unwrap();

    // Clamp downstream's quota to its current usage: the merge search's
    // first attributed write must breach.
    ws.store()
        .tenant_accounts()
        .register(down.id(), QuotaPolicy::logical(down.usage().logical_bytes));
    let before = accounting_fingerprint(&ws);
    for policy in [
        ParallelismPolicy::Sequential,
        ParallelismPolicy::Parallel(8),
    ] {
        // Re-open over the same registry: opening writes nothing, so the
        // clamped quota stays exactly at current usage.
        let dag = PipelineDag::chain(&toy_slots()).unwrap();
        let sys = down
            .open_pipeline("toy", dag, Arc::clone(sys_down.registry()))
            .with_parallelism(policy);
        let err = sys
            .merge(
                BranchRef::peer("up", "master"),
                "feature",
                MergeStrategy::Full,
                &clock,
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                CoreError::Pipeline(PipelineError::Storage(StorageError::QuotaExceeded { .. }))
            ),
            "unexpected error: {err}"
        );
        assert_eq!(
            accounting_fingerprint(&ws),
            before,
            "aborted merge must release every reservation and charge nothing"
        );
    }
    // Raising the quota unblocks the identical merge.
    ws.store()
        .tenant_accounts()
        .register(down.id(), QuotaPolicy::UNLIMITED);
    let merged = sys_down
        .merge(
            BranchRef::peer("up", "master"),
            "feature",
            MergeStrategy::Full,
            &clock,
        )
        .unwrap();
    assert!(merged.commit.is_some());
    assert_eq!(ws.store().tenant_accounts().open_reservations(), 0);
}
