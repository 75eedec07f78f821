//! The linear-versioning experiment runner (Figs. 5–7).
//!
//! Replays one update sequence through each system under test and collects
//! per-iteration time composition and cumulative storage. The three systems
//! run through the one evaluation loop (`mlcask_pipeline::search`) and
//! differ only in their policies — values of one `Policy` — and storage:
//!
//! | System | Policy | Intermediate reuse | Incompat. precheck | Storage |
//! |---|---|---|---|---|
//! | ModelDB | `RERUN_ALL` | no | no | folder archive, re-archives every output every iteration |
//! | MLflow | `REUSE_ONLY` | yes | no | folder archive, archives each distinct output once |
//! | MLCask | `MLCASK` | yes | yes | ForkBase chunk store (dedup, physical bytes) |

use crate::archive::FolderArchive;
use mlcask_core::errors::Result;
use mlcask_core::registry::{simulated_executable_len, ComponentRegistry};
use mlcask_core::system::MlCask;
use mlcask_pipeline::clock::{ClockLedger, ClockSnapshot};
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::BoundPipeline;
use mlcask_pipeline::executor::{Executor, RunOutcome};
use mlcask_pipeline::history::HistoryIndex;
use mlcask_pipeline::search::Policy;
use mlcask_storage::chunk::ChunkParams;
use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::store::ChunkStore;
use mlcask_workloads::common::Workload;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// The systems compared in the linear-versioning experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemKind {
    /// ModelDB-like: tracking only, rerun everything, folder archive.
    ModelDb,
    /// MLflow-like: intermediate reuse, folder archive.
    Mlflow,
    /// MLCask: reuse + precheck + deduplicating store.
    MlCask,
}

impl SystemKind {
    /// All three systems in figure order.
    pub const ALL: [SystemKind; 3] = [SystemKind::ModelDb, SystemKind::Mlflow, SystemKind::MlCask];
}

/// One iteration's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationRecord {
    /// Iteration number (0-based; iteration 0 is the initial training).
    pub(crate) iteration: usize,
    /// This iteration's time composition.
    pub(crate) delta: ClockSnapshot,
    /// Cumulative time composition up to and including this iteration.
    pub cumulative: ClockSnapshot,
    /// Cumulative storage size (CSS) in bytes after this iteration.
    pub(crate) cumulative_storage_bytes: u64,
    /// Whether the pipeline completed (false at the incompatible iteration).
    pub(crate) completed: bool,
    /// Component executions performed.
    pub(crate) executed_components: usize,
    /// Component executions skipped via reuse.
    pub(crate) reused_components: usize,
    /// Final metric score when completed.
    pub(crate) score: Option<f64>,
}

/// Result of replaying a full update sequence through one system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearRunResult {
    /// System under test.
    pub(crate) system: SystemKind,
    /// Per-iteration measurements.
    pub iterations: Vec<IterationRecord>,
}

impl LinearRunResult {
    /// Total time (seconds) after the final iteration — Fig. 5's y-axis.
    pub fn total_time_secs(&self) -> f64 {
        self.iterations
            .last()
            .map(|r| r.cumulative.total_secs())
            .unwrap_or(0.0)
    }

    /// Final CSS in MiB — Fig. 7's y-axis.
    pub fn final_css_mib(&self) -> f64 {
        self.iterations
            .last()
            .map(|r| r.cumulative_storage_bytes as f64 / (1024.0 * 1024.0))
            .unwrap_or(0.0)
    }
}

/// Runs the linear-versioning scenario for one system.
pub fn run_linear(
    system: SystemKind,
    workload: &Workload,
    sequence: &[Vec<ComponentKey>],
) -> Result<LinearRunResult> {
    match system {
        SystemKind::MlCask => run_linear_mlcask(workload, sequence),
        SystemKind::ModelDb | SystemKind::Mlflow => run_linear_baseline(system, workload, sequence),
    }
}

fn run_linear_mlcask(
    workload: &Workload,
    sequence: &[Vec<ComponentKey>],
) -> Result<LinearRunResult> {
    // Fresh ForkBase-like store; components registered on first use so
    // library storage lands in the iteration that introduces the version.
    let store = Arc::new(ChunkStore::in_memory());
    let registry = Arc::new(ComponentRegistry::new(Arc::clone(&store)));
    let sys = MlCask::new(&workload.name, workload.dag(), Arc::clone(&registry));
    let handle_for = |key: &ComponentKey| {
        workload
            .handles
            .iter()
            .find(|h| &h.key() == key)
            .cloned()
            .expect("sequence references a known version")
    };

    let clock = ClockLedger::new();
    let mut iterations = Vec::with_capacity(sequence.len());
    for (it, keys) in sequence.iter().enumerate() {
        let before = clock.snapshot();
        let handles: Vec<_> = keys.iter().map(handle_for).collect();
        let mut registration = ClockSnapshot::default();
        for (_, cost) in registry.register_many(&handles)? {
            registration.charge_storage(cost);
        }
        clock.merge(&registration);
        let result = sys.commit_pipeline("master", keys, &format!("iteration {it}"), &clock)?;
        let completed = result.report.outcome.is_completed();
        iterations.push(IterationRecord {
            iteration: it,
            delta: clock.snapshot().minus(&before),
            cumulative: clock.snapshot(),
            cumulative_storage_bytes: store.stats().total().physical_bytes,
            completed,
            executed_components: result.report.executed_count(),
            reused_components: result.report.reused_count(),
            score: result.report.outcome.score().map(|s| s.value),
        });
    }
    Ok(LinearRunResult {
        system: SystemKind::MlCask,
        iterations,
    })
}

fn run_linear_baseline(
    system: SystemKind,
    workload: &Workload,
    sequence: &[Vec<ComponentKey>],
) -> Result<LinearRunResult> {
    // Mechanical store (free cost model): persistence is required so MLflow
    // can materialise reused intermediates, but all storage *accounting* is
    // done by the folder archive below.
    let store = ChunkStore::new(
        Arc::new(mlcask_storage::backend::MemBackend::new()),
        ChunkParams::DEFAULT,
        StorageCostModel::FREE,
    );
    let executor = Executor::new(&store);
    let history = HistoryIndex::new();
    let dag = Arc::new(workload.dag());
    let handle_for = |key: &ComponentKey| {
        workload
            .handles
            .iter()
            .find(|h| &h.key() == key)
            .cloned()
            .expect("sequence references a known version")
    };
    let policy = match system {
        SystemKind::Mlflow => Policy::REUSE_ONLY,
        _ => Policy::RERUN_ALL,
    };

    let mut archive = FolderArchive::new();
    let mut libs_seen: HashSet<ComponentKey> = HashSet::new();
    let mut cumulative = ClockSnapshot::default();
    let mut iterations = Vec::with_capacity(sequence.len());
    for (it, keys) in sequence.iter().enumerate() {
        let mut delta = ClockSnapshot::default();
        // Library archiving: full folder copy the first time a version
        // appears.
        for key in keys {
            if libs_seen.insert(key.clone()) {
                let size = simulated_executable_len(ComponentRegistry::DEFAULT_EXE_SIZE);
                delta.charge_storage(archive.archive(size as u64));
            }
        }
        let components = keys.iter().map(&handle_for).collect();
        let bound = BoundPipeline::new(Arc::clone(&dag), components)?;
        let report = executor.run(&bound, Some(&history), policy)?;
        delta = delta.plus(&report.clock);
        // Output archiving per policy.
        for stage in &report.stages {
            if stage.reused {
                continue; // MLflow skipped it entirely
            }
            let t: Duration = match system {
                SystemKind::ModelDb => archive.archive(stage.artifact_bytes),
                SystemKind::Mlflow => archive.archive_once(stage.artifact_id, stage.artifact_bytes),
                SystemKind::MlCask => unreachable!(),
            };
            delta.charge_storage(t);
        }
        cumulative = cumulative.plus(&delta);
        // ModelDB re-archives previously produced outputs of reused... no:
        // ModelDB never reuses, so every stage re-executes and re-archives —
        // exactly the linear CSS growth of Fig. 7.
        let completed = report.outcome.is_completed();
        let failed_mid_run = matches!(report.outcome, RunOutcome::Failed { .. });
        debug_assert!(
            it != sequence.len() - 1 || failed_mid_run,
            "the final iteration must fail mid-run for the baselines"
        );
        iterations.push(IterationRecord {
            iteration: it,
            delta,
            cumulative,
            cumulative_storage_bytes: archive.bytes(),
            completed,
            executed_components: report.executed_count(),
            reused_components: report.reused_count(),
            score: report.outcome.score().map(|s| s.value),
        });
    }
    Ok(LinearRunResult { system, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcask_workloads::readmission;
    use mlcask_workloads::scenario::{linear_update_sequence, LinearScenario};

    fn run_all() -> Vec<LinearRunResult> {
        let w = readmission::build();
        let seq = linear_update_sequence(&w, &LinearScenario::default());
        SystemKind::ALL
            .iter()
            .map(|&s| run_linear(s, &w, &seq).unwrap())
            .collect()
    }

    #[test]
    fn all_systems_complete_ten_iterations() {
        for r in run_all() {
            assert_eq!(r.iterations.len(), 10, "{:?}", r.system);
            // Cumulative time monotone.
            for w in r.iterations.windows(2) {
                assert!(w[1].cumulative.total_ns() >= w[0].cumulative.total_ns());
                assert!(w[1].cumulative_storage_bytes >= w[0].cumulative_storage_bytes);
            }
        }
    }

    #[test]
    fn modeldb_slowest_mlcask_fastest() {
        let rs = run_all();
        let (modeldb, mlflow, mlcask) = (&rs[0], &rs[1], &rs[2]);
        assert!(
            modeldb.total_time_secs() > mlflow.total_time_secs(),
            "ModelDB {} vs MLflow {}",
            modeldb.total_time_secs(),
            mlflow.total_time_secs()
        );
        assert!(
            mlflow.total_time_secs() > mlcask.total_time_secs(),
            "MLflow {} vs MLCask {}",
            mlflow.total_time_secs(),
            mlcask.total_time_secs()
        );
    }

    #[test]
    fn storage_ordering_matches_fig7() {
        let rs = run_all();
        let (modeldb, mlflow, mlcask) = (&rs[0], &rs[1], &rs[2]);
        assert!(modeldb.final_css_mib() > mlflow.final_css_mib());
        assert!(mlflow.final_css_mib() > mlcask.final_css_mib());
    }

    #[test]
    fn final_iteration_fails_for_baselines_rejected_for_mlcask() {
        let rs = run_all();
        for r in &rs {
            let last = r.iterations.last().unwrap();
            assert!(!last.completed, "{:?}", r.system);
            match r.system {
                SystemKind::MlCask => {
                    // Precheck: zero execution time spent.
                    assert_eq!(last.delta.exec_ns(), 0);
                    assert_eq!(last.executed_components, 0);
                }
                _ => {
                    // Baselines ran until the error (paid pre-processing).
                    assert!(last.delta.exec_ns() > 0);
                    assert!(last.executed_components > 0);
                }
            }
        }
    }

    #[test]
    fn mlcask_reuses_unchanged_components() {
        let rs = run_all();
        let mlcask = &rs[2];
        // After iteration 0, every iteration reuses at least the dataset.
        for it in &mlcask.iterations[1..] {
            if it.completed {
                assert!(it.reused_components >= 1, "iteration {}", it.iteration);
            }
        }
        // ModelDB never reuses.
        for it in &rs[0].iterations {
            assert_eq!(it.reused_components, 0);
        }
    }
}
