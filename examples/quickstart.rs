//! Quickstart: version-control an ML pipeline with MLCask.
//!
//! Walks the paper's running example end to end: commit the Readmission
//! pipeline, iterate on a development branch, and run the metric-driven
//! merge back into master.
//!
//! Run with: `cargo run --release --example quickstart`

use mlcask::prelude::*;

fn main() {
    // 1. Build the Readmission workload (dataset → cleanse → extract → CNN)
    //    and a fresh MLCask system over an in-memory ForkBase-like store.
    let workload = mlcask::workloads::readmission::build();
    let (_registry, sys) = build_system(&workload).expect("system builds");
    let clock = ClockLedger::new();

    // 2. Commit the initial pipeline on master. MLCask runs it, archives
    //    every component output, and records the metric score.
    let initial = sys
        .commit_pipeline("master", &workload.initial, "initial pipeline", &clock)
        .expect("initial commit");
    let commit = initial.commit.expect("committed");
    println!(
        "committed {} score={:.4} (executed {} components)",
        commit.label(),
        initial.report.outcome.score().unwrap().raw,
        initial.report.executed_count(),
    );

    // 3. Branch for development — master stays untouched (the paper's
    //    production/development isolation).
    sys.branch("master", "dev").expect("branch");
    for (i, update) in workload.dev_updates.iter().enumerate() {
        let res = sys
            .commit_pipeline("dev", update, &format!("dev update {i}"), &clock)
            .expect("dev commit");
        let report = &res.report;
        println!(
            "dev.{} score={:.4} (reused {} / executed {})",
            i + 1,
            report.outcome.score().unwrap().raw,
            report.reused_count(),
            report.executed_count(),
        );
    }

    // 4. Meanwhile master also moved (another user role).
    for (i, update) in workload.head_updates.iter().enumerate() {
        sys.commit_pipeline("master", update, &format!("head update {i}"), &clock)
            .expect("head commit");
    }

    // 5. Metric-driven merge: search the cross-product of component versions
    //    developed since the common ancestor, pruned by compatibility (PC)
    //    and accelerated by reusable checkpoints (PR).
    let outcome = sys
        .merge("master", "dev", MergeStrategy::Full, &clock)
        .expect("merge");
    let report = outcome.report.expect("diverged merge");
    println!(
        "\nmerge searched {} candidates ({} pruned as incompatible)",
        report.candidates_evaluated, report.candidates_pruned
    );
    println!(
        "  components executed: {}  reused from history: {}",
        report.executed_components, report.reused_components
    );
    let (keys, score) = report.best.expect("winner");
    println!("  winner (score {:.4}):", score.raw);
    for k in &keys {
        println!("    {k}");
    }
    println!(
        "  merge commit: {} (parents: {})",
        outcome.commit.as_ref().unwrap().label(),
        outcome.commit.as_ref().unwrap().parents.len()
    );
    let time = clock.snapshot();
    println!(
        "\nvirtual pipeline time so far: {:.2}s (storage {:.2}s)",
        time.total_secs(),
        time.storage_ns as f64 / 1e9
    );
    let stats = sys.store().stats();
    println!(
        "store: {:.1} MiB logical → {:.1} MiB physical (dedup {:.1}x)",
        stats.total().logical_bytes as f64 / (1 << 20) as f64,
        stats.total().physical_bytes as f64 / (1 << 20) as f64,
        stats.dedup_ratio()
    );
}
