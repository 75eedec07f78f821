//! The Fusion workload — a *diamond* pipeline exercising DAG-internal
//! parallelism.
//!
//! The paper's four evaluated pipelines are chains, but its pipeline model
//! (Definitions 1–2) is a general DAG. This workload is the smallest
//! realistic non-chain member of that family: a multimodal clinical-risk
//! pipeline whose two pre-processing branches are independent and therefore
//! execute concurrently on the wavefront scheduler:
//!
//! ```text
//! fusion_source ──► vitals_branch ──► fusion ──► risk_model
//!             └───► labs_branch  ───┘
//! ```
//!
//! * `fusion_source` synthesises one admission-episode feature table with a
//!   vitals half and a labs half.
//! * `vitals_branch` / `labs_branch` normalise their half independently —
//!   the branch components only read disjoint column ranges, so their
//!   outputs are genuinely order-independent.
//! * `fusion` concatenates the branch outputs into one fused feature
//!   matrix (its declared input schema applies to *both* in-edges).
//! * `risk_model` trains an MLP on the fused features (held-out AUC).
//!
//! The version structure mirrors the chain workloads: an increment-only
//! chain per slot, one schema-changing update (`vitals_branch 1.0` widens
//! its output, which `fusion 0.x` cannot consume — a *mid-DAG* static
//! incompatibility), and Fig.-3-style branch histories whose merge search
//! space spans cross-team combinations.

use crate::common::{mlp_work_units, train_eval_mlp, Workload};
use mlcask_ml::mlp::MlpConfig;
use mlcask_ml::tensor::Matrix;
use mlcask_pipeline::artifact::{Artifact, ArtifactData, Features};
use mlcask_pipeline::component::{Component, ComponentHandle, StageKind};
use mlcask_pipeline::errors::{PipelineError, Result};
use mlcask_pipeline::schema::{Schema, SchemaId};
use mlcask_pipeline::semver::SemVer;
use std::sync::Arc;

/// Admission episodes generated by the source.
pub(crate) const N_EPISODES: usize = 240;

/// Raw feature width: the first half is vitals, the second half labs.
pub(crate) const RAW_DIM: usize = 12;

/// Output width of each branch (`0.x` versions).
pub(crate) const BRANCH_DIM: usize = 6;

/// Output width of the schema-changing `vitals_branch 1.0`.
pub(crate) const WIDE_BRANCH_DIM: usize = 8;

/// Fused feature width consumed by the model.
pub(crate) const FUSED_DIM: usize = 2 * BRANCH_DIM;

fn raw_schema() -> SchemaId {
    Schema::FeatureMatrix {
        dim: RAW_DIM,
        n_classes: 2,
    }
    .id()
}

fn branch_schema(dim: usize) -> SchemaId {
    Schema::FeatureMatrix { dim, n_classes: 2 }.id()
}

/// Source: synthesises the episode table (vitals half + labs half) with a
/// deterministic, separable readmission label.
struct FusionSource {
    version: SemVer,
}

impl Component for FusionSource {
    fn name(&self) -> &str {
        "fusion_source"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::Ingest
    }
    fn input_schema(&self) -> Option<SchemaId> {
        None
    }
    fn output_schema(&self) -> SchemaId {
        raw_schema()
    }
    fn run(&self, _inputs: &[Artifact]) -> Result<Artifact> {
        let bump = self.version.increment as f32 * 0.005;
        let x = Matrix::from_fn(N_EPISODES, RAW_DIM, |r, c| {
            let h = (r * 31 + c * 17 + 7) % 97;
            h as f32 / 97.0 + bump
        });
        // Label rule mixes both halves so neither branch alone carries the
        // whole signal — the model needs the fused features.
        let y = (0..N_EPISODES)
            .map(|r| {
                let vitals = x.get(r, 0) + x.get(r, 2) + x.get(r, 4);
                let labs = x.get(r, RAW_DIM / 2) + x.get(r, RAW_DIM / 2 + 3);
                usize::from(vitals + 1.4 * labs > 2.4)
            })
            .collect();
        Ok(Artifact::new(
            ArtifactData::Features(Features { x, y, n_classes: 2 }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        (N_EPISODES * RAW_DIM) as u64
    }
    fn ns_per_unit(&self) -> u64 {
        2_000
    }
}

/// Which half of the raw features a branch reads.
#[derive(Clone, Copy)]
enum BranchKind {
    Vitals,
    Labs,
}

/// One pre-processing branch: normalises its half of the raw features.
/// Branches are independent (disjoint column ranges), so the executor may
/// run them concurrently. `vitals_branch` schema `>= 1` widens the output —
/// the workload's compatibility-breaking update.
struct FusionBranch {
    kind: BranchKind,
    version: SemVer,
}

impl FusionBranch {
    fn out_dim(&self) -> usize {
        match self.kind {
            BranchKind::Vitals if self.version.schema >= 1 => WIDE_BRANCH_DIM,
            _ => BRANCH_DIM,
        }
    }

    fn col_offset(&self) -> usize {
        match self.kind {
            BranchKind::Vitals => 0,
            BranchKind::Labs => RAW_DIM / 2,
        }
    }
}

impl Component for FusionBranch {
    fn name(&self) -> &str {
        match self.kind {
            BranchKind::Vitals => "vitals_branch",
            BranchKind::Labs => "labs_branch",
        }
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(raw_schema())
    }
    fn output_schema(&self) -> SchemaId {
        branch_schema(self.out_dim())
    }
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Features(f) = inputs[0].data() else {
            return Err(PipelineError::WrongArtifactKind {
                component: self.key(),
                expected: "features",
                actual: inputs[0].data().kind_label(),
            });
        };
        // Increments refine the normalisation, so every version produces a
        // distinct artifact (and a distinct downstream score).
        let scale = 1.0 + 0.1 * self.version.increment as f32;
        let offset = self.col_offset();
        let out_dim = self.out_dim();
        let x = Matrix::from_fn(f.x.rows(), out_dim, |r, c| {
            if c < BRANCH_DIM {
                let v = f.x.get(r, offset + c);
                match self.kind {
                    BranchKind::Vitals => (v * scale).min(1.5),
                    BranchKind::Labs => (v * scale).ln_1p(),
                }
            } else {
                // The wide (schema-changing) version appends interaction
                // columns.
                f.x.get(r, offset + (c - BRANCH_DIM)) * f.x.get(r, offset) * scale
            }
        });
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
        inputs.first().map(|a| a.byte_len() / 2).unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        60_000
    }
}

/// Fan-in: concatenates the vitals and labs branch outputs (edge order)
/// into one fused feature matrix.
struct FusionJoin {
    version: SemVer,
}

impl Component for FusionJoin {
    fn name(&self) -> &str {
        "fusion"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(branch_schema(BRANCH_DIM))
    }
    fn output_schema(&self) -> SchemaId {
        branch_schema(FUSED_DIM)
    }
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
        self.check_compatibility(inputs)?;
        let features: Vec<&Features> = inputs
            .iter()
            .map(|a| match a.data() {
                ArtifactData::Features(f) => Ok(f),
                other => Err(PipelineError::WrongArtifactKind {
                    component: self.key(),
                    expected: "features",
                    actual: other.kind_label(),
                }),
            })
            .collect::<Result<_>>()?;
        let vitals = features[0];
        let labs = features[1];
        // Increments rebalance the modality weighting.
        let labs_weight = 1.0 + 0.05 * self.version.increment as f32;
        let x = Matrix::from_fn(vitals.x.rows(), FUSED_DIM, |r, c| {
            if c < BRANCH_DIM {
                vitals.x.get(r, c)
            } else {
                labs.x.get(r, c - BRANCH_DIM) * labs_weight
            }
        });
        Ok(Artifact::new(
            ArtifactData::Features(Features {
                x,
                y: vitals.y.clone(),
                n_classes: vitals.n_classes,
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs.iter().map(|a| a.byte_len()).sum::<u64>().max(1) / 4
    }
    fn ns_per_unit(&self) -> u64 {
        20_000
    }
}

/// Terminal model: MLP over the fused features, scored by held-out AUC.
struct RiskModel {
    version: SemVer,
    config: MlpConfig,
}

impl Component for RiskModel {
    fn name(&self) -> &str {
        "risk_model"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::ModelTraining
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(branch_schema(FUSED_DIM))
    }
    fn output_schema(&self) -> SchemaId {
        Schema::Model {
            family: "fusion-risk".into(),
        }
        .id()
    }
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Features(f) = inputs[0].data() else {
            return Err(PipelineError::WrongArtifactKind {
                component: self.key(),
                expected: "features",
                actual: inputs[0].data().kind_label(),
            });
        };
        let model = train_eval_mlp(f, self.config.clone(), "fusion-risk");
        Ok(Artifact::new(
            ArtifactData::Model(model),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        mlp_work_units(FUSED_DIM, &self.config, N_EPISODES)
    }
    fn ns_per_unit(&self) -> u64 {
        3_000
    }
}

fn model_config(increment: u32) -> MlpConfig {
    let widths = [8usize, 12, 16, 20];
    let epochs = [16usize, 20, 24, 28];
    let i = (increment as usize).min(widths.len() - 1);
    MlpConfig {
        hidden: vec![widths[i]],
        learning_rate: 0.1,
        epochs: epochs[i],
        batch_size: 32,
        l2: 1e-4,
        seed: 300 + increment as u64,
    }
}

/// Builds the Fusion workload with its full version family.
pub fn build() -> Workload {
    let mk_key = |h: &ComponentHandle| h.key();
    let source: ComponentHandle = Arc::new(FusionSource {
        version: SemVer::master(0, 0),
    });
    let vitals: Vec<ComponentHandle> = (0..3)
        .map(|i| -> ComponentHandle {
            Arc::new(FusionBranch {
                kind: BranchKind::Vitals,
                version: SemVer::master(0, i),
            })
        })
        .collect();
    // The schema-changing vitals update: widens the branch output, which
    // `fusion 0.x` cannot consume — a static incompatibility *inside* the
    // diamond, after which the labs branch is still independently runnable.
    let vitals_wide: ComponentHandle = Arc::new(FusionBranch {
        kind: BranchKind::Vitals,
        version: SemVer::master(1, 0),
    });
    let labs: Vec<ComponentHandle> = (0..2)
        .map(|i| -> ComponentHandle {
            Arc::new(FusionBranch {
                kind: BranchKind::Labs,
                version: SemVer::master(0, i),
            })
        })
        .collect();
    let fusions: Vec<ComponentHandle> = (0..2)
        .map(|i| -> ComponentHandle {
            Arc::new(FusionJoin {
                version: SemVer::master(0, i),
            })
        })
        .collect();
    let models: Vec<ComponentHandle> = (0..4)
        .map(|i| -> ComponentHandle {
            Arc::new(RiskModel {
                version: SemVer::master(0, i),
                config: model_config(i),
            })
        })
        .collect();

    let slots = vec![
        "fusion_source".to_string(),
        "vitals_branch".to_string(),
        "labs_branch".to_string(),
        "fusion".to_string(),
        "risk_model".to_string(),
    ];
    let edges = vec![
        ("fusion_source".to_string(), "vitals_branch".to_string()),
        ("fusion_source".to_string(), "labs_branch".to_string()),
        ("vitals_branch".to_string(), "fusion".to_string()),
        ("labs_branch".to_string(), "fusion".to_string()),
        ("fusion".to_string(), "risk_model".to_string()),
    ];
    let initial = vec![
        source.key(),
        vitals[0].key(),
        labs[0].key(),
        fusions[0].key(),
        models[0].key(),
    ];
    let chains = vec![
        vec![source.key()],
        vitals.iter().map(mk_key).collect(),
        labs.iter().map(mk_key).collect(),
        fusions.iter().map(mk_key).collect(),
        models.iter().map(mk_key).collect(),
    ];
    // Fig.-3-style histories: the vitals team iterates on HEAD while the
    // labs team iterates on MERGE_HEAD; the merge space spans cross-team
    // combinations no one tested.
    let head_updates = vec![vec![
        source.key(),
        vitals[1].key(),
        labs[0].key(),
        fusions[0].key(),
        models[1].key(),
    ]];
    let dev_updates = vec![
        vec![
            source.key(),
            vitals[0].key(),
            labs[1].key(),
            fusions[0].key(),
            models[2].key(),
        ],
        vec![
            source.key(),
            vitals[0].key(),
            labs[1].key(),
            fusions[1].key(),
            models[3].key(),
        ],
    ];

    let incompat = vitals_wide.key();
    let mut handles = vec![source];
    handles.extend(vitals);
    handles.push(vitals_wide);
    handles.extend(labs);
    handles.extend(fusions);
    handles.extend(models);
    Workload {
        name: "fusion".into(),
        slots,
        handles,
        initial,
        chains,
        model_slot: 4,
        incompat_update: (1, incompat),
        head_updates,
        dev_updates,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcask_pipeline::component::ComponentKey;
    use mlcask_pipeline::dag::BoundPipeline;
    use mlcask_pipeline::executor::Executor;
    use mlcask_pipeline::parallel::ParallelismPolicy;
    use mlcask_pipeline::search::Policy;
    use mlcask_storage::store::ChunkStore;

    fn bind(w: &Workload, keys: &[ComponentKey]) -> BoundPipeline {
        let handles: Vec<ComponentHandle> = keys
            .iter()
            .map(|k| {
                w.handles
                    .iter()
                    .find(|h| &h.key() == k)
                    .expect("version exists")
                    .clone()
            })
            .collect();
        BoundPipeline::new(Arc::new(w.dag()), handles).unwrap()
    }

    #[test]
    fn structure_is_valid_and_diamond_shaped() {
        let w = build();
        w.validate();
        let dag = w.dag();
        assert_eq!(dag.max_width(), 2, "the two branches form one wavefront");
        assert_eq!(dag.pre(3).len(), 2, "fusion fans in");
        assert_eq!(dag.sources(), vec![0]);
        assert_eq!(dag.sinks(), vec![4]);
    }

    #[test]
    fn initial_pipeline_learns() {
        let w = build();
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let report = exec
            .run(&bind(&w, &w.initial), None, Policy::RERUN_ALL)
            .unwrap();
        assert!(report.outcome.is_completed());
        let score = report.outcome.score().unwrap().raw;
        assert!(score > 0.6, "fused features should be predictive: {score}");
        assert_eq!(report.stages.len(), 5);
    }

    #[test]
    fn parallel_run_matches_sequential() {
        let w = build();
        let run = |policy: ParallelismPolicy| {
            let store = ChunkStore::in_memory_small();
            let exec = Executor::new(&store);
            let report = exec
                .run(
                    &bind(&w, &w.initial),
                    None,
                    Policy::RERUN_ALL.with_parallelism(policy),
                )
                .unwrap();
            format!(
                "{} {}",
                serde_json::to_string(&report).unwrap(),
                serde_json::to_string(&store.stats()).unwrap(),
            )
        };
        assert_eq!(
            run(ParallelismPolicy::Sequential),
            run(ParallelismPolicy::Parallel(4))
        );
    }

    #[test]
    fn incompatible_vitals_update_is_detected_mid_dag() {
        let w = build();
        let (slot, ref wide) = w.incompat_update;
        let mut keys = w.initial.clone();
        keys[slot] = wide.clone();
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        // MLCask's precheck refuses statically.
        let report = exec.run(&bind(&w, &keys), None, Policy::MLCASK).unwrap();
        assert!(!report.outcome.is_completed());
        assert!(report.stages.is_empty());
        // Without precheck the run fails at the fusion node, after the
        // independent labs branch already executed.
        let report = exec.run(&bind(&w, &keys), None, Policy::RERUN_ALL).unwrap();
        assert!(!report.outcome.is_completed());
        assert_eq!(report.stages.len(), 3, "source + both branches ran");
    }

    #[test]
    fn model_versions_score_differently() {
        let w = build();
        let score_of = |keys: &[ComponentKey]| {
            let store = ChunkStore::in_memory_small();
            let exec = Executor::new(&store);
            exec.run(&bind(&w, keys), None, Policy::RERUN_ALL)
                .unwrap()
                .outcome
                .score()
                .unwrap()
                .raw
        };
        let mut a = w.initial.clone();
        let mut b = w.initial.clone();
        a[4] = w.chains[4][0].clone();
        b[4] = w.chains[4][3].clone();
        assert_ne!(score_of(&a), score_of(&b));
    }
}
