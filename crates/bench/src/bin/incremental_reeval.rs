//! Wall-clock win of provenance-keyed incremental re-evaluation.
//!
//! Drives the what-if component-swap scenario (`mlcask_workloads::whatif`):
//! a committed five-stage pipeline with a compute-heavy three-stage prefix,
//! re-evaluated under a batch of cheap `select`-stage swaps. Compares
//!
//! * **full re-evaluation** — empty history, every candidate scheduled and
//!   the shared prefix executed (the pre-provenance behaviour), against
//! * **incremental re-evaluation** — the committed run lifted into the
//!   provenance index, so the frontier cut removes the prefix from every
//!   candidate's plan statically and only the dirty suffix runs,
//!
//! and asserts the incremental reports are byte-identical to a primed
//! non-incremental sequential search at workers {1, 2, 8} (the
//! `skipped_by_frontier` telemetry field is zeroed on both sides first —
//! it is *designed* to differ, every other byte must match). Run with
//! `--release`:
//!
//! ```text
//! cargo run --release -p mlcask_bench --bin incremental_reeval
//! ```

use mlcask_bench::{f2, print_header, print_row, write_bench_json};
use mlcask_core::history::HistoryIndex;
use mlcask_core::merge::{MergeEngine, MergeSearchReport, MergeStrategy};
use mlcask_core::registry::ComponentRegistry;
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::executor::{ExecOptions, Executor};
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_workloads::whatif;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

struct Run {
    wall: f64,
    report: MergeSearchReport,
}

#[derive(Serialize)]
struct BenchPayload {
    scenario: &'static str,
    candidates: usize,
    executed_components: usize,
    reused_components: usize,
    skipped_by_frontier: usize,
    wall_full_s: f64,
    wall_incremental_s: f64,
    speedup: f64,
}

/// One full what-if search on a fresh system. `primed` commits the base
/// pipeline and lifts it into the provenance index first (setup, untimed);
/// `incremental` toggles the frontier-cut fast path. Only the search is
/// timed.
fn search(policy: ParallelismPolicy, primed: bool, incremental: bool) -> Run {
    let w = whatif::build();
    let store = Arc::new(mlcask_storage::store::ChunkStore::in_memory());
    let reg = ComponentRegistry::new(store);
    w.register_all(&reg).expect("what-if components register");
    let dag = Arc::new(w.dag());
    let engine = MergeEngine::new(&reg, reg.store(), Arc::clone(&dag))
        .with_parallelism(policy)
        .with_incremental(incremental);
    let history = HistoryIndex::new();
    if primed {
        let bound = reg.bind(&dag, &w.base).expect("base pipeline binds");
        let clock = ClockLedger::new();
        Executor::new(reg.store())
            .run(&bound, &clock, Some(&history), ExecOptions::MLCASK)
            .expect("base pipeline runs");
        history
            .provenance()
            .absorb(&bound, &history)
            .expect("committed run lifts into provenance");
    }
    let clock = ClockLedger::new();
    let start = Instant::now();
    let report = engine
        .search(&w.spaces(), &history, MergeStrategy::Full, &clock)
        .expect("what-if search succeeds");
    Run {
        wall: start.elapsed().as_secs_f64(),
        report,
    }
}

/// Serialized report with the frontier telemetry zeroed — the one field
/// whose whole point is to differ between incremental and not.
fn normalized(report: &MergeSearchReport) -> String {
    let mut r = report.clone();
    r.skipped_by_frontier = 0;
    serde_json::to_string(&r).expect("report serializes")
}

fn main() {
    let smoke = std::env::var("MLCASK_BENCH_SMOKE").is_ok();
    let reps = if smoke { 1 } else { 3 };
    println!("# Provenance-keyed incremental re-evaluation — what-if component swap");
    println!(
        "\nscenario: heavy shared prefix (ingest -> clean -> featurize) + {} select variants; \
         full = empty history, incremental = committed base lifted into provenance",
        whatif::VARIANTS
    );

    // Wall-clock: best of `reps` for each side, sequential policies (the
    // contrast under test is plan-level, not worker-level).
    let mut full_wall = f64::INFINITY;
    let mut inc_wall = f64::INFINITY;
    let mut full_run = None;
    let mut inc_run = None;
    for _ in 0..reps {
        let r = search(ParallelismPolicy::Sequential, false, false);
        if r.wall < full_wall {
            full_wall = r.wall;
        }
        full_run = Some(r);
        let r = search(ParallelismPolicy::Sequential, true, true);
        if r.wall < inc_wall {
            inc_wall = r.wall;
        }
        inc_run = Some(r);
    }
    let full_run = full_run.expect("at least one rep");
    let inc_run = inc_run.expect("at least one rep");
    let speedup = full_wall / inc_wall.max(1e-9);

    print_header(
        "what-if batch re-evaluation",
        &[
            "mode",
            "wall s",
            "executed",
            "reused",
            "skipped by frontier",
        ],
    );
    print_row(&[
        "full re-evaluation".into(),
        f2(full_wall),
        full_run.report.executed_components.to_string(),
        full_run.report.reused_components.to_string(),
        full_run.report.skipped_by_frontier.to_string(),
    ]);
    print_row(&[
        "incremental".into(),
        f2(inc_wall),
        inc_run.report.executed_components.to_string(),
        inc_run.report.reused_components.to_string(),
        inc_run.report.skipped_by_frontier.to_string(),
    ]);
    println!("\nspeedup: {speedup:.1}x (wall-clock, full / incremental)");

    // The fast path must actually fire: the shared prefix is cut out of
    // every variant's plan (CI gates on this in smoke mode).
    if inc_run.report.skipped_by_frontier == 0 {
        println!("error: frontier cut never fired on the what-if scenario");
        std::process::exit(1);
    }

    // Byte-identity: incremental reports at workers {1,2,8} must match a
    // primed *non*-incremental sequential search, telemetry zeroed.
    let reference = search(ParallelismPolicy::Sequential, true, false);
    assert_eq!(
        reference.report.skipped_by_frontier, 0,
        "non-incremental search must not cut"
    );
    let ref_obs = normalized(&reference.report);
    print_header(
        "report identity vs primed non-incremental sequential",
        &["workers", "identical"],
    );
    for workers in [1usize, 2, 8] {
        let policy = if workers == 1 {
            ParallelismPolicy::Sequential
        } else {
            ParallelismPolicy::Parallel(workers)
        };
        let run = search(policy, true, true);
        let obs = normalized(&run.report);
        print_row(&[
            workers.to_string(),
            if obs == ref_obs { "yes" } else { "NO" }.into(),
        ]);
        assert_eq!(
            obs, ref_obs,
            "incremental report diverged at {workers} workers"
        );
        assert!(run.report.skipped_by_frontier > 0);
    }

    write_bench_json(
        "incremental",
        &BenchPayload {
            scenario: "whatif_component_swap",
            candidates: inc_run.report.candidates_evaluated,
            executed_components: inc_run.report.executed_components,
            reused_components: inc_run.report.reused_components,
            skipped_by_frontier: inc_run.report.skipped_by_frontier,
            wall_full_s: full_wall,
            wall_incremental_s: inc_wall,
            speedup,
        },
    );

    if smoke {
        return;
    }
    if speedup < 3.0 {
        println!("error: expected >=3x speedup over full re-evaluation, got {speedup:.1}x");
        std::process::exit(1);
    }
}
