//! Diamond-DAG pipeline walkthrough.
//!
//! Builds the Fusion workload — a multimodal clinical-risk pipeline whose
//! two pre-processing branches are independent —
//!
//! ```text
//! fusion_source ──► vitals_branch ──► fusion ──► risk_model
//!             └───► labs_branch  ───┘
//! ```
//!
//! then runs the full collaborative lifecycle on it: commit on `master`
//! (with the branches executing concurrently on a worker pool), let a
//! vitals team and a labs team iterate on their own git branches, and merge
//! both back with the metric-driven merge. Along the way it asserts the
//! wavefront determinism contract: the parallel run's report is identical
//! to a one-worker run's.
//!
//! Run with: `cargo run --release --example dag_pipeline`

use mlcask::prelude::*;

fn main() {
    let workload = mlcask::workloads::fusion::build();
    let dag = workload.dag();
    println!(
        "fusion pipeline: {} slots, {} edges, wavefront width {}",
        dag.len(),
        dag.edge_list().len(),
        dag.max_width()
    );
    assert_eq!(
        dag.max_width(),
        2,
        "the diamond has two independent branches"
    );

    // The same commit, executed sequentially and on a worker pool, must
    // produce byte-identical reports (the wavefront scheduler replays its
    // accounting in canonical topological order).
    let sequential = run_initial(&workload, ParallelismPolicy::Sequential);
    let parallel = run_initial(&workload, ParallelismPolicy::Parallel(4));
    assert_eq!(sequential, parallel, "parallel execution must be invisible");
    println!("sequential and 4-worker commit reports are byte-identical");

    // Collaborative lifecycle on the diamond, branches evaluated in
    // parallel throughout.
    let (_registry, sys) = build_system(&workload).expect("system builds");
    let sys = sys.with_parallelism(ParallelismPolicy::auto());
    let clock = ClockLedger::new();

    let initial = sys
        .commit_pipeline("master", &workload.initial, "production v1", &clock)
        .expect("initial commit");
    let baseline = initial.report.outcome.score().unwrap().raw;
    println!("\nproduction (master.0) AUC: {baseline:.4}");

    // Each stage of the diamond was archived; the fusion stage consumed
    // *both* branch outputs (its metafile slot is distinct from either
    // branch's).
    let meta = sys.head_metafile("master").expect("metafile");
    assert_eq!(meta.slots.len(), 5);
    assert_eq!(
        meta.edges.len(),
        5,
        "metafile records the diamond, not a chain"
    );
    assert!(
        meta.edges
            .contains(&("vitals_branch".to_string(), "fusion".to_string()))
            && meta
                .edges
                .contains(&("labs_branch".to_string(), "fusion".to_string())),
        "both branch edges recorded"
    );

    // Two teams iterate independently.
    sys.branch("master", "vitals-team").expect("branch");
    sys.branch("master", "labs-team").expect("branch");
    sys.commit_pipeline(
        "vitals-team",
        &workload.head_updates[0],
        "better vitals normalisation + model bump",
        &clock,
    )
    .expect("vitals commit");
    for (i, update) in workload.dev_updates.iter().enumerate() {
        sys.commit_pipeline("labs-team", update, &format!("labs iteration {i}"), &clock)
            .expect("labs commit");
    }

    // Merge the vitals team first (fast-forward: master has not moved),
    // then the labs team (diverged: triggers the metric-driven search over
    // cross-team combinations).
    let m1 = sys
        .merge("master", "vitals-team", MergeStrategy::Full, &clock)
        .expect("merge vitals-team");
    println!(
        "merged vitals-team -> master{}",
        if m1.fast_forward {
            " (fast-forward)"
        } else {
            ""
        }
    );
    let m2 = sys
        .merge("master", "labs-team", MergeStrategy::Full, &clock)
        .expect("merge labs-team");
    let report = m2.report.as_ref().expect("diverged merge searches");
    println!(
        "merged labs-team -> master: {} candidates evaluated, {} components reused",
        report.candidates_evaluated, report.reused_components
    );

    // The merged pipeline combines both teams' work: the merge is free to
    // pick each team's best component per slot.
    let final_meta = sys.head_metafile("master").expect("metafile");
    let final_score = final_meta.score.unwrap().raw;
    println!("\nfinal production pipeline ({}):", final_meta.label);
    for slot in &final_meta.slots {
        println!("  {}", slot.component);
    }
    println!("AUC: {baseline:.4} -> {final_score:.4}");
    assert!(
        final_score >= baseline,
        "metric-driven merge never regresses production"
    );
    // Both branch slots still feed the fusion slot in the merged metafile.
    assert!(final_meta.component_version("vitals_branch").is_some());
    assert!(final_meta.component_version("labs_branch").is_some());
}

/// Commits the initial fusion pipeline on a fresh system under `policy` and
/// returns the serialised run report.
fn run_initial(workload: &Workload, policy: ParallelismPolicy) -> String {
    let (_registry, sys) = build_system(workload).expect("system builds");
    let sys = sys.with_parallelism(policy);
    let clock = ClockLedger::new();
    let result = sys
        .commit_pipeline("master", &workload.initial, "initial", &clock)
        .expect("commit succeeds");
    format!(
        "{} {}",
        serde_json::to_string(&result.report).expect("serializable"),
        serde_json::to_string(&clock.snapshot()).expect("serializable"),
    )
}
