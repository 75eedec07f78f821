//! Cross-crate integration tests: the full commit → branch → merge life
//! cycle over real workloads, exercising storage, pipeline, core, and
//! workloads together.

use mlcask::prelude::*;

/// Runs the complete Fig. 3 scenario for every workload and validates the
/// merge outcome's invariants.
#[test]
fn fig3_merge_works_on_all_four_workloads() {
    for workload in all_workloads() {
        let (_registry, sys) = build_system(&workload).unwrap();
        setup_nonlinear(&sys, &workload).unwrap();
        let clock = ClockLedger::new();
        let outcome = sys
            .merge("master", "dev", MergeStrategy::Full, &clock)
            .unwrap_or_else(|e| panic!("{} merge failed: {e}", workload.name));
        assert!(!outcome.fast_forward, "{}", workload.name);
        let report = outcome.report.unwrap();
        // The Fig. 4 candidate structure: 2 cleansing-ish × 2 schema
        // versions × 5 models (times 1 for every other slot).
        assert_eq!(report.candidates_total, 20, "{}", workload.name);
        assert!(report.candidates_pruned > 0, "{}", workload.name);
        assert!(report.reused_components > 0, "{}", workload.name);
        let (_, best) = report.best.as_ref().unwrap();
        // The winner is at least as good as both branch heads.
        {
            let branch = "dev";
            let head_score = sys.head_metafile(branch).unwrap().score.unwrap();
            assert!(
                best.value >= head_score.value - 1e-12,
                "{}: winner {} vs {} head {}",
                workload.name,
                best.value,
                branch,
                head_score.value
            );
        }
        // The merge commit exists on master with two parents.
        let commit = outcome.commit.unwrap();
        assert_eq!(commit.parents.len(), 2);
        assert_eq!(sys.graph().head("master").unwrap().id, commit.id);
    }
}

/// The merged pipeline must be replayable from the archived history with
/// zero additional execution.
#[test]
fn merged_pipeline_replays_from_checkpoints() {
    let workload = by_name("readmission").unwrap();
    let (_registry, sys) = build_system(&workload).unwrap();
    setup_nonlinear(&sys, &workload).unwrap();
    let clock = ClockLedger::new();
    sys.merge("master", "dev", MergeStrategy::Full, &clock)
        .unwrap();
    let meta = sys.head_metafile("master").unwrap();
    let keys = meta.component_keys();
    let bound = sys.bind(&keys).unwrap();
    let executor = Executor::new(sys.store());
    let report = executor
        .run(&bound, Some(sys.history()), Policy::MLCASK)
        .unwrap();
    assert_eq!(report.executed_count(), 0, "everything checkpointed");
    assert_eq!(report.clock.exec_ns(), 0, "no execution time");
    assert_eq!(
        report.outcome.score().unwrap().raw,
        meta.score.unwrap().raw,
        "replayed score matches the committed metafile"
    );
}

/// The commit graph records the full lineage: walking parents from the
/// merge commit reaches both branch histories.
#[test]
fn lineage_is_fully_traceable() {
    let workload = by_name("sa").unwrap();
    let (_registry, sys) = build_system(&workload).unwrap();
    setup_nonlinear(&sys, &workload).unwrap();
    let clock = ClockLedger::new();
    let outcome = sys
        .merge("master", "dev", MergeStrategy::Full, &clock)
        .unwrap();
    let merge_commit = outcome.commit.unwrap();
    let ancestors = sys.graph().ancestors(merge_commit.id).unwrap();
    // initial + 1 head update + 3 dev updates + merge = 6 commits.
    assert_eq!(ancestors.len(), 6);
    // Every ancestor's metafile is still resolvable (full reproducibility).
    for id in ancestors {
        let commit = sys.graph().get(id).unwrap();
        let meta = sys.metafile_of(&commit).unwrap();
        assert!(!meta.slots.is_empty());
    }
}

/// Deterministic end-to-end: two independent systems replaying the same
/// scenario produce identical scores, storage bytes, and virtual times.
#[test]
fn full_scenario_is_deterministic() {
    let run = || {
        let workload = by_name("autolearn").unwrap();
        let (_registry, sys) = build_system(&workload).unwrap();
        setup_nonlinear(&sys, &workload).unwrap();
        let clock = ClockLedger::new();
        let outcome = sys
            .merge("master", "dev", MergeStrategy::Full, &clock)
            .unwrap();
        let report = outcome.report.unwrap();
        (
            report.best.as_ref().unwrap().1.raw,
            report.clock.total_ns(),
            sys.store().stats().total().physical_bytes,
        )
    };
    assert_eq!(run(), run());
}
