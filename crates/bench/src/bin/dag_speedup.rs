//! Wall-clock speedup of DAG-internal parallel execution.
//!
//! Builds a *wide* pipeline — one source fanning out to eight independent,
//! compute-heavy feature branches that a sink model fuses — and runs the
//! same `Executor::run` under `ParallelismPolicy::Sequential` and
//! increasing worker counts. Reports, ledger charges, and store statistics
//! are asserted byte-identical (the wavefront determinism contract); only
//! wall-clock time should change. Run with `--release`:
//!
//! ```text
//! cargo run --release -p mlcask_bench --bin dag_speedup
//! ```

use mlcask_bench::{f2, print_header, print_row, write_bench_json};
use mlcask_ml::metrics::{MetricKind, Score};
use mlcask_ml::tensor::Matrix;
use mlcask_pipeline::artifact::{Artifact, ArtifactData, Features, ModelArtifact};
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::{Component, ComponentHandle, StageKind};
use mlcask_pipeline::dag::{BoundPipeline, PipelineDag};
use mlcask_pipeline::executor::{ExecOptions, Executor};
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::schema::{Schema, SchemaId};
use mlcask_pipeline::semver::SemVer;
use mlcask_storage::store::ChunkStore;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct BenchPayload {
    branches: usize,
    cores: usize,
    wall_sequential_s: f64,
    best_speedup: f64,
    best_workers: usize,
}

const ROWS: usize = 1200;
const DIM: usize = 16;
const BRANCHES: usize = 8;
const BRANCH_EPOCHS: usize = 60;

fn feature_schema() -> SchemaId {
    Schema::FeatureMatrix {
        dim: DIM,
        n_classes: 2,
    }
    .id()
}

struct WideSource;

impl Component for WideSource {
    fn name(&self) -> &str {
        "wide_source"
    }
    fn version(&self) -> SemVer {
        SemVer::master(0, 0)
    }
    fn stage(&self) -> StageKind {
        StageKind::Ingest
    }
    fn input_schema(&self) -> Option<SchemaId> {
        None
    }
    fn output_schema(&self) -> SchemaId {
        feature_schema()
    }
    fn run(&self, _inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        let x = Matrix::from_fn(ROWS, DIM, |r, c| ((r * 31 + c * 7) % 17) as f32 / 17.0);
        let y = (0..ROWS).map(|r| r % 2).collect();
        Ok(Artifact::new(
            ArtifactData::Features(Features { x, y, n_classes: 2 }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        (ROWS * DIM) as u64
    }
}

/// One independent feature branch doing real (deterministic) gradient work
/// — the compute-bound regime DAG-internal fan-out targets.
struct HeavyBranch {
    name: String,
    lr: f32,
}

impl Component for HeavyBranch {
    fn name(&self) -> &str {
        &self.name
    }
    fn version(&self) -> SemVer {
        SemVer::master(0, 0)
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(feature_schema())
    }
    fn output_schema(&self) -> SchemaId {
        feature_schema()
    }
    fn run(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Features(f) = inputs[0].data() else {
            unreachable!("schema-checked input is a feature matrix");
        };
        // Deterministic logistic-regression epochs whose weights re-scale
        // the branch's feature view.
        let mut w = [0.05f32; DIM];
        for _ in 0..BRANCH_EPOCHS {
            let mut grad = [0.0f32; DIM];
            for r in 0..f.x.rows() {
                let mut z = 0.0f32;
                for (c, wc) in w.iter().enumerate() {
                    z += wc * f.x.get(r, c);
                }
                let p = 1.0 / (1.0 + (-z).exp());
                let err = p - (f.y[r] as f32);
                for (c, g) in grad.iter_mut().enumerate() {
                    *g += err * f.x.get(r, c);
                }
            }
            for (wc, g) in w.iter_mut().zip(&grad) {
                *wc -= self.lr * g / f.x.rows() as f32;
            }
        }
        let x = Matrix::from_fn(f.x.rows(), DIM, |r, c| f.x.get(r, c) * (1.0 + w[c].abs()));
        Ok(Artifact::new(
            ArtifactData::Features(Features {
                x,
                y: f.y.clone(),
                n_classes: f.n_classes,
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs
            .first()
            .map(|a| a.byte_len() * BRANCH_EPOCHS as u64)
            .unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        4
    }
}

/// Sink: fuses every branch's view and scores a simple threshold model.
struct FuseModel;

impl Component for FuseModel {
    fn name(&self) -> &str {
        "fuse_model"
    }
    fn version(&self) -> SemVer {
        SemVer::master(0, 0)
    }
    fn stage(&self) -> StageKind {
        StageKind::ModelTraining
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(feature_schema())
    }
    fn output_schema(&self) -> SchemaId {
        Schema::Model {
            family: "wide".into(),
        }
        .id()
    }
    fn run(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        self.check_compatibility(inputs)?;
        let branches: Vec<&Features> = inputs
            .iter()
            .map(|a| match a.data() {
                ArtifactData::Features(f) => f,
                _ => unreachable!("schema-checked inputs are feature matrices"),
            })
            .collect();
        let first = branches[0];
        let mut correct = 0usize;
        for r in 0..first.x.rows() {
            let mut z = 0.0f32;
            for f in &branches {
                for c in 0..DIM {
                    z += f.x.get(r, c) - 0.55;
                }
            }
            if (z > 0.0) as usize == first.y[r] {
                correct += 1;
            }
        }
        let acc = correct as f64 / first.x.rows() as f64;
        Ok(Artifact::new(
            ArtifactData::Model(ModelArtifact {
                family: "wide".into(),
                blob: vec![1u8; 32],
                score: Score::new(MetricKind::Accuracy, acc),
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs.iter().map(|a| a.byte_len()).sum::<u64>().max(1)
    }
}

fn wide_pipeline() -> BoundPipeline {
    let branch_names: Vec<String> = (0..BRANCHES).map(|i| format!("branch_{i}")).collect();
    let branch_refs: Vec<&str> = branch_names.iter().map(|s| s.as_str()).collect();
    let dag = PipelineDag::fan("wide_source", &branch_refs, "fuse_model").expect("well-formed fan");
    let mut comps: Vec<ComponentHandle> = vec![Arc::new(WideSource)];
    for (i, n) in branch_names.iter().enumerate() {
        comps.push(Arc::new(HeavyBranch {
            name: n.clone(),
            lr: 0.05 + i as f32 * 0.01,
        }));
    }
    comps.push(Arc::new(FuseModel));
    BoundPipeline::new(Arc::new(dag), comps).expect("well-formed wide pipeline")
}

fn timed_run(policy: ParallelismPolicy) -> (f64, String) {
    let pipeline = wide_pipeline();
    let store = ChunkStore::in_memory();
    let exec = Executor::new(&store);
    let ledger = ClockLedger::new();
    let start = Instant::now();
    let report = exec
        .run(
            &pipeline,
            &ledger,
            None,
            ExecOptions::RERUN_ALL.with_parallelism(policy),
        )
        .expect("run succeeds");
    let wall = start.elapsed().as_secs_f64();
    let observables = format!(
        "report={} ledger={} stats={}",
        serde_json::to_string(&report).expect("serializable"),
        serde_json::to_string(&ledger.snapshot()).expect("serializable"),
        serde_json::to_string(&store.stats()).expect("serializable"),
    );
    (wall, observables)
}

fn main() {
    // Smoke mode (CI): one parallel run instead of the full worker sweep,
    // and no wall-clock threshold — the identity assertion still runs.
    let smoke = std::env::var("MLCASK_BENCH_SMOKE").is_ok();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# DAG-internal parallel execution — wall-clock speedup");
    println!(
        "\nmachine parallelism: {cores} — one pipeline: source -> {BRANCHES} heavy branches -> sink"
    );
    print_header(
        "single-pipeline wavefront execution",
        &["workers", "wall s", "speedup", "report identical"],
    );
    let (seq_wall, seq_obs) = timed_run(ParallelismPolicy::Sequential);
    print_row(&[
        "1 (sequential)".into(),
        f2(seq_wall),
        "1.0x".into(),
        "-".into(),
    ]);
    let mut best_speedup = 1.0f64;
    let mut best_workers = 1usize;
    let mut sweep = if smoke { vec![2] } else { vec![2, 4] };
    if !smoke && cores > 4 {
        sweep.push(cores);
    }
    for workers in sweep {
        let (wall, obs) = timed_run(ParallelismPolicy::Parallel(workers));
        let speedup = seq_wall / wall.max(1e-9);
        if speedup > best_speedup {
            best_speedup = speedup;
            best_workers = workers;
        }
        print_row(&[
            workers.to_string(),
            f2(wall),
            format!("{speedup:.1}x"),
            if obs == seq_obs { "yes" } else { "NO" }.into(),
        ]);
        assert_eq!(
            obs, seq_obs,
            "wavefront report diverged at {workers} workers"
        );
    }
    println!(
        "\nbest speedup {best_speedup:.1}x over sequential ({BRANCHES} independent branches, identical reports)"
    );
    write_bench_json(
        "dag_speedup",
        &BenchPayload {
            branches: BRANCHES,
            cores,
            wall_sequential_s: seq_wall,
            best_speedup,
            best_workers,
        },
    );
    if smoke {
        return;
    }
    if cores >= 4 && best_speedup < 1.5 {
        println!("warning: expected >=1.5x speedup on a >=4-core machine");
        std::process::exit(1);
    }
}
