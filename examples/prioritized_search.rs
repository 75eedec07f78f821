//! Prioritized pipeline search under a time budget (paper §VII-E).
//!
//! When the pruned candidate set is still large, MLCask orders the search so
//! promising pipelines run first. This example compares prioritized and
//! random search on the SA pipeline's merge and shows how quickly each finds
//! the optimum.
//!
//! Run with: `cargo run --release --example prioritized_search`

use mlcask::prelude::*;

fn main() {
    let workload = mlcask::workloads::sa::build();
    let (registry, sys) = build_system(&workload).expect("system builds");
    setup_nonlinear(&sys, &workload).expect("fig-3 history");

    let spaces = sys
        .merge_search_spaces("master", "dev")
        .expect("search spaces");
    let init_scores = sys.initial_scores("master", "dev").expect("head scores");
    println!(
        "search space: {} candidates over {} slots; {} initial scores from trained heads\n",
        spaces.candidate_upper_bound(),
        spaces.len(),
        init_scores.len()
    );

    // Trials walk the merge's own PC-pruned candidate tree, so they run on
    // the merge engine.
    let engine = MergeEngine::new(&registry, sys.dag().clone());
    let trials = 40;
    for method in [SearchMethod::Prioritized, SearchMethod::Random] {
        let stats = engine
            .run_trials(&spaces, sys.history(), &init_scores, method, trials, 7)
            .expect("trials");
        println!("{} search ({} trials):", method.label(), trials);
        println!(
            "  optimum found within 20%/40%/60%/80% of searches: {:.0}% / {:.0}% / {:.0}% / {:.0}%",
            stats.optimal_within(0.2) * 100.0,
            stats.optimal_within(0.4) * 100.0,
            stats.optimal_within(0.6) * 100.0,
            stats.optimal_within(0.8) * 100.0,
        );
        let first = stats.per_rank.first().unwrap();
        let last = stats.per_rank.last().unwrap();
        println!(
            "  first-searched candidate: mean score {:.4} (t={:.2}s); last: {:.4} (t={:.2}s)\n",
            first.mean_score, first.avg_end_time_s, last.mean_score, last.avg_end_time_s
        );
    }

    println!(
        "Prioritized search runs high-score candidates first, so a budget\n\
         that stops the search early still returns a near-optimal pipeline."
    );
}
