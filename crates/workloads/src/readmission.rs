//! The Readmission pipeline (§VII-A, Figs. 2–3 running example).
//!
//! `dataset → data_cleanse → feature_extract → cnn`, predicting 30-day
//! hospital readmission. Cleansing fills missing diagnosis codes and labs;
//! extraction builds medical feature vectors (the `1.0` version widens the
//! feature schema — the paper's compatibility-breaking update); the "CNN"
//! slot trains the deep model (MLP stand-in, its cost charged in virtual
//! time — see ARCHITECTURE.md, "Virtual time: a field of the report").
//! Model training dominates this pipeline's cost, matching Fig. 6(a).

use crate::common::{mlp_work_units, train_eval_mlp, Workload};
use crate::data::ehr;
use mlcask_ml::mlp::MlpConfig;
use mlcask_ml::tensor::Matrix;
use mlcask_pipeline::artifact::{Artifact, ArtifactData, Cell, Features, Table};
use mlcask_pipeline::component::{Component, ComponentHandle, ComponentKey, StageKind};
use mlcask_pipeline::errors::{PipelineError, Result};
use mlcask_pipeline::schema::{Schema, SchemaId};
use mlcask_pipeline::semver::SemVer;
use std::sync::Arc;

/// Number of admission episodes generated.
pub(crate) const N_PATIENTS: usize = 400;

/// Feature dimension of the `0.x` extractor (one-hot dx + demographics +
/// labs).
pub(crate) const DIM_V0: usize = ehr::DX_CODES.len() + 4 + ehr::N_LABS;

/// Feature dimension of the schema-changing `1.0` extractor (adds dx×age and
/// dx×procedures interactions).
pub(crate) const DIM_V1: usize = DIM_V0 + ehr::DX_CODES.len();

fn ehr_schema() -> Schema {
    Schema::Relational {
        columns: ehr::columns(),
    }
}

/// Dataset component: synthesises the admissions table.
struct ReadmissionData {
    version: SemVer,
}

impl Component for ReadmissionData {
    fn name(&self) -> &str {
        "readmission_data"
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
        ehr_schema().id()
    }
    fn run(&self, _inputs: &[Artifact]) -> Result<Artifact> {
        let table = ehr::generate(N_PATIENTS, 0.12, 40 + self.version.increment as u64);
        Ok(Artifact::new(
            ArtifactData::Table(table),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        (N_PATIENTS * ehr::columns().len()) as u64
    }
    fn ns_per_unit(&self) -> u64 {
        2_000
    }
}

/// Cleansing component: fills missing diagnosis codes and lab values.
/// `increment` selects progressively better imputation.
struct DataCleanse {
    version: SemVer,
}

impl DataCleanse {
    fn fill_table(&self, t: &Table) -> Table {
        let dx_col = t.col_index("dx_code").expect("dx column");
        // Column means for numeric fills.
        let mut sums = vec![0.0f64; t.columns.len()];
        let mut counts = vec![0usize; t.columns.len()];
        for row in &t.rows {
            for (c, cell) in row.iter().enumerate() {
                if let Some(v) = cell.as_f32() {
                    sums[c] += v as f64;
                    counts[c] += 1;
                }
            }
        }
        // Mode dx code for categorical fill.
        let mut dx_counts = std::collections::BTreeMap::new();
        for row in &t.rows {
            if let Cell::S(code) = &row[dx_col] {
                *dx_counts.entry(code.clone()).or_insert(0usize) += 1;
            }
        }
        let mode_dx = dx_counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(k, _)| k.clone())
            .unwrap_or_else(|| "UNK".to_string());
        let rows = t
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(c, cell)| match cell {
                        Cell::Null if c == dx_col => Cell::S(mode_dx.clone()),
                        Cell::Null => {
                            let mean = if counts[c] > 0 {
                                (sums[c] / counts[c] as f64) as f32
                            } else {
                                0.0
                            };
                            // Every increment refines the imputation slightly
                            // (so successive versions produce genuinely
                            // different outputs, as real updates would).
                            let shrink = match self.version.increment {
                                0 => 0.8,
                                i => 1.0 - 0.01 * (i - 1) as f32,
                            };
                            Cell::F(mean * shrink)
                        }
                        other => other.clone(),
                    })
                    .collect()
            })
            .collect();
        Table::new(t.columns.clone(), rows)
    }
}

impl Component for DataCleanse {
    fn name(&self) -> &str {
        "data_cleanse"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(ehr_schema().id())
    }
    fn output_schema(&self) -> SchemaId {
        ehr_schema().id()
    }
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Table(t) = inputs[0].data() else {
            return Err(PipelineError::WrongArtifactKind {
                component: self.key(),
                expected: "table",
                actual: inputs[0].data().kind_label(),
            });
        };
        let filled = self.fill_table(t);
        debug_assert_eq!(filled.null_count(), 0);
        Ok(Artifact::new(
            ArtifactData::Table(filled),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs.first().map(|a| a.byte_len() / 8).unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        80_000
    }
}

/// Feature extraction: one-hot dx + numeric features; `schema = 1` adds
/// interaction features (wider output — a schema change).
struct FeatureExtract {
    version: SemVer,
}

impl FeatureExtract {
    fn wide(&self) -> bool {
        self.version.schema >= 1
    }

    fn extract(&self, t: &Table) -> Features {
        let dim = if self.wide() { DIM_V1 } else { DIM_V0 };
        // Increments tweak the numeric scaling — each version's output is a
        // distinct artifact.
        let scale = 1.0 + 0.02 * self.version.increment as f32;
        let dx_col = t.col_index("dx_code").unwrap();
        let age_col = t.col_index("age").unwrap();
        let gender_col = t.col_index("gender").unwrap();
        let procs_col = t.col_index("num_procedures").unwrap();
        let los_col = t.col_index("los_days").unwrap();
        let label_col = t.col_index("readmitted").unwrap();
        let lab_cols: Vec<usize> = (0..ehr::N_LABS)
            .map(|i| t.col_index(&format!("lab_{i}")).unwrap())
            .collect();
        let mut x = Matrix::zeros(t.rows.len(), dim);
        let mut y = Vec::with_capacity(t.rows.len());
        for (r, row) in t.rows.iter().enumerate() {
            let dx_idx = match &row[dx_col] {
                Cell::S(code) => ehr::DX_CODES.iter().position(|c| c == code).unwrap_or(0),
                _ => 0,
            };
            x.set(r, dx_idx, 1.0);
            let mut c = ehr::DX_CODES.len();
            let age = row[age_col].as_f32().unwrap_or(50.0) / 100.0 * scale;
            x.set(r, c, age);
            c += 1;
            x.set(
                r,
                c,
                match &row[gender_col] {
                    Cell::S(g) if g == "M" => 1.0,
                    _ => 0.0,
                },
            );
            c += 1;
            let procs = row[procs_col].as_f32().unwrap_or(0.0) / 6.0;
            x.set(r, c, procs);
            c += 1;
            x.set(r, c, row[los_col].as_f32().unwrap_or(1.0) / 20.0);
            c += 1;
            for lc in &lab_cols {
                x.set(r, c, row[*lc].as_f32().unwrap_or(0.0) / 100.0);
                c += 1;
            }
            if self.wide() {
                // Interactions: dx one-hot scaled by (age + procedures).
                let strength = age + procs;
                x.set(r, ehr::DX_CODES.len() + 4 + ehr::N_LABS + dx_idx, strength);
            }
            y.push(match row[label_col] {
                Cell::I(v) => v as usize,
                _ => 0,
            });
        }
        Features { x, y, n_classes: 2 }
    }
}

impl Component for FeatureExtract {
    fn name(&self) -> &str {
        "feature_extract"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(ehr_schema().id())
    }
    fn output_schema(&self) -> SchemaId {
        Schema::FeatureMatrix {
            dim: if self.wide() { DIM_V1 } else { DIM_V0 },
            n_classes: 2,
        }
        .id()
    }
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Table(t) = inputs[0].data() else {
            return Err(PipelineError::WrongArtifactKind {
                component: self.key(),
                expected: "table",
                actual: inputs[0].data().kind_label(),
            });
        };
        Ok(Artifact::new(
            ArtifactData::Features(self.extract(t)),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs.first().map(|a| a.byte_len() / 4).unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        160_000
    }
}

/// The "CNN" model slot: an MLP whose hyperparameters vary by version.
struct Cnn {
    version: SemVer,
    expects_dim: usize,
    config: MlpConfig,
}

impl Component for Cnn {
    fn name(&self) -> &str {
        "cnn"
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
                dim: self.expects_dim,
                n_classes: 2,
            }
            .id(),
        )
    }
    fn output_schema(&self) -> SchemaId {
        Schema::Model {
            family: "readmission-cnn".into(),
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
        let model = train_eval_mlp(f, self.config.clone(), "readmission-cnn");
        Ok(Artifact::new(
            ArtifactData::Model(model),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        mlp_work_units(self.expects_dim, &self.config, N_PATIENTS)
    }
    fn ns_per_unit(&self) -> u64 {
        // Model training dominates the Readmission pipeline (Fig. 6a).
        3_000
    }
}

fn cnn_config(increment: u32) -> MlpConfig {
    // Hyperparameter trajectory across versions: widths/epochs grow, giving
    // later versions (usually) better accuracy at higher cost.
    // Increments 2 and 3 are the newest designs (adapted to the widened
    // feature schema) and carry the largest capacity.
    let widths = [12usize, 16, 40, 48, 32, 40, 48, 56];
    let epochs = [20usize, 24, 36, 40, 32, 36, 40, 44];
    let i = (increment as usize).min(widths.len() - 1);
    MlpConfig {
        hidden: vec![widths[i]],
        learning_rate: 0.1,
        epochs: epochs[i],
        batch_size: 32,
        l2: 1e-4,
        seed: 100 + increment as u64,
    }
}

/// Builds the Readmission workload with its full version family.
pub fn build() -> Workload {
    let mk_key = |h: &ComponentHandle| h.key();
    let data: ComponentHandle = Arc::new(ReadmissionData {
        version: SemVer::master(0, 0),
    });
    let cleanses: Vec<ComponentHandle> = (0..5)
        .map(|i| -> ComponentHandle {
            Arc::new(DataCleanse {
                version: SemVer::master(0, i),
            })
        })
        .collect();
    // Extract 0.0–0.3 keep DIM_V0; 1.0 widens to DIM_V1 (schema change).
    let extracts: Vec<ComponentHandle> = (0..4)
        .map(|i| -> ComponentHandle {
            Arc::new(FeatureExtract {
                version: SemVer::master(0, i),
            })
        })
        .chain(std::iter::once::<ComponentHandle>(Arc::new(
            FeatureExtract {
                version: SemVer::master(1, 0),
            },
        )))
        .collect();
    // CNNs: 0.0, 0.1, 0.4, 0.5, 0.6, 0.7 expect DIM_V0; 0.2, 0.3 expect
    // DIM_V1 (developed against the new extractor).
    let mut cnns: Vec<ComponentHandle> = Vec::new();
    for inc in [0u32, 1, 4, 5, 6, 7] {
        cnns.push(Arc::new(Cnn {
            version: SemVer::master(0, inc),
            expects_dim: DIM_V0,
            config: cnn_config(inc),
        }));
    }
    for inc in [2u32, 3] {
        cnns.push(Arc::new(Cnn {
            version: SemVer::master(0, inc),
            expects_dim: DIM_V1,
            config: cnn_config(inc),
        }));
    }
    let find_cnn = |inc: u32| -> ComponentKey {
        cnns.iter()
            .map(mk_key)
            .find(|k| k.version.increment == inc)
            .expect("cnn version exists")
    };

    let slots = vec![
        "readmission_data".to_string(),
        "data_cleanse".to_string(),
        "feature_extract".to_string(),
        "cnn".to_string(),
    ];
    let initial = vec![
        data.key(),
        cleanses[0].key(),
        extracts[0].key(),
        find_cnn(0),
    ];
    let chains = vec![
        vec![data.key()],
        cleanses.iter().map(mk_key).collect(),
        extracts[..4].iter().map(mk_key).collect(),
        vec![
            find_cnn(0),
            find_cnn(1),
            find_cnn(4),
            find_cnn(5),
            find_cnn(6),
            find_cnn(7),
        ],
    ];
    let fe_v1 = extracts[4].key();
    // Fig. 3 branch histories.
    let head_updates = vec![
        // master.1: cleansing 0.1 + CNN 0.4.
        vec![
            data.key(),
            cleanses[1].key(),
            extracts[0].key(),
            find_cnn(4),
        ],
    ];
    let dev_updates = vec![
        // dev.1: CNN 0.1.
        vec![
            data.key(),
            cleanses[0].key(),
            extracts[0].key(),
            find_cnn(1),
        ],
        // dev.2: feature extraction 1.0 (schema change) + CNN 0.2.
        vec![data.key(), cleanses[0].key(), fe_v1.clone(), find_cnn(2)],
        // dev.3: CNN 0.3.
        vec![data.key(), cleanses[0].key(), fe_v1.clone(), find_cnn(3)],
    ];

    let mut handles = vec![data];
    handles.extend(cleanses);
    handles.extend(extracts);
    handles.extend(cnns);
    Workload {
        name: "readmission".into(),
        slots,
        handles,
        initial,
        chains,
        model_slot: 3,
        incompat_update: (2, fe_v1),
        head_updates,
        dev_updates,
        edges: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcask_pipeline::clock::ClockSnapshot;
    use mlcask_pipeline::dag::BoundPipeline;
    use mlcask_pipeline::executor::Executor;
    use mlcask_pipeline::search::Policy;
    use mlcask_storage::store::ChunkStore;

    fn run_pipeline(w: &Workload, keys: &[ComponentKey]) -> (f64, ClockSnapshot) {
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
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
        let bound = BoundPipeline::new(Arc::new(w.dag()), handles).unwrap();
        let report = exec.run(&bound, None, Policy::RERUN_ALL).unwrap();
        (report.outcome.score().expect("completed").raw, report.clock)
    }

    #[test]
    fn structure_is_valid() {
        let w = build();
        w.validate();
        assert_eq!(w.slots.len(), 4);
        assert_eq!(w.handles.len(), 1 + 5 + 5 + 8);
        assert_eq!(w.preproc_slots(), vec![1, 2]);
    }

    #[test]
    fn initial_pipeline_learns() {
        let w = build();
        let (score, snap) = run_pipeline(&w, &w.initial);
        assert!(score > 0.55, "readmission accuracy {score}");
        // Model training dominates (Fig. 6a).
        assert!(
            snap.training_ns > snap.preprocess_ns,
            "training {} vs preproc {}",
            snap.training_ns,
            snap.preprocess_ns
        );
    }

    #[test]
    fn wide_extractor_with_matching_model_works() {
        let w = build();
        let keys = w.dev_updates[1].clone();
        let (score, _) = run_pipeline(&w, &keys);
        assert!(score > 0.5);
    }

    #[test]
    fn incompatible_update_is_detected() {
        let w = build();
        let (slot, ref v1) = w.incompat_update;
        let mut keys = w.initial.clone();
        keys[slot] = v1.clone();
        let store = ChunkStore::in_memory_small();
        let exec = Executor::new(&store);
        let handles: Vec<ComponentHandle> = keys
            .iter()
            .map(|k| w.handles.iter().find(|h| &h.key() == k).unwrap().clone())
            .collect();
        let bound = BoundPipeline::new(Arc::new(w.dag()), handles).unwrap();
        let report = exec.run(&bound, None, Policy::MLCASK).unwrap();
        assert!(!report.outcome.is_completed());
    }

    #[test]
    fn model_versions_score_differently() {
        let w = build();
        let mut keys_a = w.initial.clone();
        let mut keys_b = w.initial.clone();
        keys_a[3] = w.chains[3][0].clone();
        keys_b[3] = w.chains[3][4].clone();
        let (a, _) = run_pipeline(&w, &keys_a);
        let (b, _) = run_pipeline(&w, &keys_b);
        assert_ne!(a, b, "different CNN versions must differ in score");
    }
}
