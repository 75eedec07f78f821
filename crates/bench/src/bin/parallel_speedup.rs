//! Wall-clock speedup of parallel candidate evaluation.
//!
//! Builds a merge scenario whose model components do real (deterministic)
//! training work, then runs the same `MergeEngine::search` under
//! `ParallelismPolicy::Sequential` and increasing worker counts. The
//! reports are asserted byte-identical (the engine's determinism contract);
//! only wall-clock time should change. Run with `--release`:
//!
//! ```text
//! cargo run --release --bin parallel_speedup
//! ```

use mlcask_bench::{f2, print_header, print_row, write_bench_json};
use mlcask_core::history::HistoryIndex;
use mlcask_core::merge::{MergeEngine, MergeStrategy};
use mlcask_core::registry::ComponentRegistry;
use mlcask_core::search_space::SearchSpaces;
use mlcask_ml::metrics::{MetricKind, Score};
use mlcask_ml::tensor::Matrix;
use mlcask_pipeline::artifact::{Artifact, ArtifactData, Features, ModelArtifact};
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::{Component, StageKind};
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::schema::{Schema, SchemaId};
use mlcask_pipeline::semver::SemVer;
use mlcask_storage::store::ChunkStore;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct BenchPayload {
    candidates: usize,
    cores: usize,
    wall_sequential_s: f64,
    best_speedup: f64,
    best_workers: usize,
}

const ROWS: usize = 1500;
const DIM: usize = 16;
const TRAIN_EPOCHS: usize = 120;

struct HeavySource;

impl Component for HeavySource {
    fn name(&self) -> &str {
        "bench_source"
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
        Schema::FeatureMatrix {
            dim: DIM,
            n_classes: 2,
        }
        .id()
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

struct HeavyScaler {
    version: SemVer,
    factor: f32,
}

impl Component for HeavyScaler {
    fn name(&self) -> &str {
        "bench_scaler"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(
            Schema::FeatureMatrix {
                dim: DIM,
                n_classes: 2,
            }
            .id(),
        )
    }
    fn output_schema(&self) -> SchemaId {
        self.input_schema().expect("scaler has an input schema")
    }
    fn run(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Features(f) = inputs[0].data() else {
            unreachable!("schema-checked input is a feature matrix");
        };
        let x = Matrix::from_fn(f.x.rows(), DIM, |r, c| f.x.get(r, c) * self.factor);
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
        inputs.first().map(|a| a.byte_len()).unwrap_or(1)
    }
}

/// A model whose `run` performs real gradient-descent epochs, so candidate
/// evaluation is compute-bound — the regime the worker pool targets.
struct HeavyModel {
    version: SemVer,
    lr: f32,
}

impl Component for HeavyModel {
    fn name(&self) -> &str {
        "bench_model"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::ModelTraining
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(
            Schema::FeatureMatrix {
                dim: DIM,
                n_classes: 2,
            }
            .id(),
        )
    }
    fn output_schema(&self) -> SchemaId {
        Schema::Model {
            family: "bench".into(),
        }
        .id()
    }
    fn run(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Features(f) = inputs[0].data() else {
            unreachable!("schema-checked input is a feature matrix");
        };
        // Deterministic logistic-regression training.
        let mut w = [0.0f32; DIM];
        for _ in 0..TRAIN_EPOCHS {
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
        let mut correct = 0usize;
        for r in 0..f.x.rows() {
            let mut z = 0.0f32;
            for (c, wc) in w.iter().enumerate() {
                z += wc * f.x.get(r, c);
            }
            if (z > 0.0) as usize == f.y[r] {
                correct += 1;
            }
        }
        let acc = correct as f64 / f.x.rows() as f64;
        Ok(Artifact::new(
            ArtifactData::Model(ModelArtifact {
                family: "bench".into(),
                blob: w.iter().flat_map(|v| v.to_le_bytes()).collect(),
                score: Score::new(MetricKind::Accuracy, acc),
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs
            .first()
            .map(|a| a.byte_len() * TRAIN_EPOCHS as u64)
            .unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        4
    }
}

fn scenario(scalers: usize, models: usize) -> (ComponentRegistry, Arc<PipelineDag>, SearchSpaces) {
    let store = Arc::new(ChunkStore::in_memory());
    let reg = ComponentRegistry::with_exe_size(store, 4096);
    let slots = ["bench_source", "bench_scaler", "bench_model"];
    let mut spaces = SearchSpaces {
        slot_names: slots.iter().map(|s| s.to_string()).collect(),
        per_slot: vec![vec![], vec![], vec![]],
    };
    let src: Arc<dyn Component> = Arc::new(HeavySource);
    reg.register(src.clone()).expect("register source");
    spaces.per_slot[0].push(src.key());
    for i in 0..scalers {
        let c: Arc<dyn Component> = Arc::new(HeavyScaler {
            version: SemVer::master(0, i as u32),
            factor: 1.0 + i as f32 * 0.25,
        });
        reg.register(c.clone()).expect("register scaler");
        spaces.per_slot[1].push(c.key());
    }
    for i in 0..models {
        let c: Arc<dyn Component> = Arc::new(HeavyModel {
            version: SemVer::master(0, i as u32),
            lr: 0.05 + i as f32 * 0.01,
        });
        reg.register(c.clone()).expect("register model");
        spaces.per_slot[2].push(c.key());
    }
    let dag = Arc::new(PipelineDag::chain(&slots).expect("chain dag"));
    (reg, dag, spaces)
}

fn timed_search(policy: ParallelismPolicy) -> (f64, String) {
    let (reg, dag, spaces) = scenario(4, 8);
    let history = HistoryIndex::new();
    let engine = MergeEngine::new(&reg, reg.store(), dag).with_parallelism(policy);
    let ledger = ClockLedger::new();
    let start = Instant::now();
    let report = engine
        .search(&spaces, &history, MergeStrategy::Full, &ledger)
        .expect("search succeeds");
    let wall = start.elapsed().as_secs_f64();
    (wall, serde_json::to_string(&report).expect("serializable"))
}

fn main() {
    // Smoke mode (CI): one parallel run instead of the full worker sweep,
    // and no wall-clock threshold — the identity assertion still runs.
    let smoke = std::env::var("MLCASK_BENCH_SMOKE").is_ok();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# Parallel candidate evaluation — wall-clock speedup");
    println!("\nmachine parallelism: {cores} — 1 source x 4 scalers x 8 models = 32 candidates");
    print_header(
        "merge search (Full strategy)",
        &["workers", "wall s", "speedup", "report identical"],
    );
    let (seq_wall, seq_report) = timed_search(ParallelismPolicy::Sequential);
    print_row(&[
        "1 (sequential)".into(),
        f2(seq_wall),
        "1.0x".into(),
        "-".into(),
    ]);
    let mut best_speedup = 1.0f64;
    let mut best_workers = 1usize;
    let sweep = if smoke {
        vec![2]
    } else {
        vec![2, 4, cores.max(4)]
    };
    for workers in sweep {
        let (wall, report) = timed_search(ParallelismPolicy::Parallel(workers));
        let speedup = seq_wall / wall.max(1e-9);
        if speedup > best_speedup {
            best_speedup = speedup;
            best_workers = workers;
        }
        print_row(&[
            workers.to_string(),
            f2(wall),
            format!("{speedup:.1}x"),
            if report == seq_report { "yes" } else { "NO" }.into(),
        ]);
        assert_eq!(
            report, seq_report,
            "parallel report diverged at {workers} workers"
        );
    }
    println!(
        "\nbest speedup {best_speedup:.1}x over sequential ({} candidates, identical reports)",
        32
    );
    write_bench_json(
        "parallel_speedup",
        &BenchPayload {
            candidates: 32,
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
