//! The DPM (Disease Progression Modeling) pipeline (§VII-A).
//!
//! `dataset → clean → seq_extract → hmm_debias → model`: chronic-kidney
//! patients' one-year lab series are cleaned, discretised into observation
//! sequences, de-biased through an HMM whose state posteriors become
//! features, and fed to a DL model. HMM processing is the expensive stage —
//! the paper calls out iterations 3 and 8 of Fig. 5(b) where updates on or
//! before the HMM force its costly re-execution.

use crate::common::{mlp_work_units, train_eval_mlp, Workload};
use crate::data::ckd;
use mlcask_ml::hmm::Hmm;
use mlcask_ml::mlp::MlpConfig;
use mlcask_ml::tensor::Matrix;
use mlcask_pipeline::artifact::{Artifact, ArtifactData, Cell, Features, SequenceSet, Table};
use mlcask_pipeline::component::{Component, ComponentHandle, ComponentKey, StageKind};
use mlcask_pipeline::errors::{PipelineError, Result};
use mlcask_pipeline::schema::{Schema, SchemaId};
use mlcask_pipeline::semver::SemVer;
use std::sync::Arc;

/// Patients generated.
pub(crate) const N_PATIENTS: usize = 100;
/// Visits per patient.
pub(crate) const N_VISITS: usize = 16;
/// Observation symbols after discretisation.
pub(crate) const N_SYMBOLS: usize = 6;
/// HMM states of the `0.x` de-bias versions.
pub(crate) const STATES_V0: usize = 3;
/// HMM states of the schema-changing `1.0` version.
pub(crate) const STATES_V1: usize = 5;

/// Feature dimension produced by an HMM with `s` states: average posterior
/// (s) + final posterior (s) + 2 summary stats.
pub(crate) fn hmm_feature_dim(states: usize) -> usize {
    2 * states + 2
}

fn ckd_schema() -> Schema {
    Schema::Relational {
        columns: ckd::columns(),
    }
}

fn seq_schema() -> Schema {
    Schema::Sequences {
        n_symbols: N_SYMBOLS,
        n_classes: 2,
    }
}

struct DpmData {
    version: SemVer,
}

impl Component for DpmData {
    fn name(&self) -> &str {
        "dpm_data"
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
        ckd_schema().id()
    }
    fn run(&self, _inputs: &[Artifact]) -> Result<Artifact> {
        let t = ckd::generate(
            N_PATIENTS,
            N_VISITS,
            0.08,
            70 + self.version.increment as u64,
        );
        Ok(Artifact::new(ArtifactData::Table(t), self.output_schema()))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        (N_PATIENTS * N_VISITS * 6) as u64
    }
    fn ns_per_unit(&self) -> u64 {
        2_000
    }
}

/// Cleansing: per-patient forward fill of missing labs (v0.1+ falls back to
/// the column mean for leading nulls; v0.0 uses zero).
struct DpmClean {
    version: SemVer,
}

impl Component for DpmClean {
    fn name(&self) -> &str {
        "dpm_clean"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(ckd_schema().id())
    }
    fn output_schema(&self) -> SchemaId {
        ckd_schema().id()
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
        let numeric_cols: Vec<usize> = ["egfr", "creatinine", "potassium"]
            .iter()
            .map(|c| t.col_index(c).unwrap())
            .collect();
        // Column means for leading-null fallback (v0.1+).
        let mut means = vec![0.0f32; t.columns.len()];
        for &c in &numeric_cols {
            let vals: Vec<f32> = t.rows.iter().filter_map(|r| r[c].as_f32()).collect();
            means[c] = vals.iter().sum::<f32>() / vals.len().max(1) as f32;
        }
        let pid_col = t.col_index("patient_id").unwrap();
        let mut rows = t.rows.clone();
        let mut last_seen: std::collections::HashMap<(i64, usize), f32> = Default::default();
        for row in rows.iter_mut() {
            let pid = match row[pid_col] {
                Cell::I(p) => p,
                _ => -1,
            };
            for &c in &numeric_cols {
                match row[c].as_f32() {
                    Some(v) => {
                        last_seen.insert((pid, c), v);
                    }
                    None => {
                        let fill = last_seen.get(&(pid, c)).copied().unwrap_or(
                            if self.version.increment == 0 {
                                0.0
                            } else {
                                // Increments refine the fallback estimate.
                                means[c] * (1.0 + 0.02 * (self.version.increment - 1) as f32)
                            },
                        );
                        row[c] = Cell::F(fill);
                    }
                }
            }
        }
        Ok(Artifact::new(
            ArtifactData::Table(Table::new(t.columns.clone(), rows)),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs.first().map(|a| a.byte_len() / 8).unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        1_200
    }
}

/// Discretises per-patient eGFR trajectories into symbol sequences.
struct SeqExtract {
    version: SemVer,
}

impl Component for SeqExtract {
    fn name(&self) -> &str {
        "seq_extract"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(ckd_schema().id())
    }
    fn output_schema(&self) -> SchemaId {
        seq_schema().id()
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
        let pid_col = t.col_index("patient_id").unwrap();
        let egfr_col = t.col_index("egfr").unwrap();
        let creat_col = t.col_index("creatinine").unwrap();
        let label_col = t.col_index("progressed").unwrap();
        // v0.1+ blends creatinine into the discretised signal, with each
        // increment adjusting the blend weight.
        let blend = if self.version.increment == 0 {
            0.0
        } else {
            0.12 + 0.03 * self.version.increment as f32
        };
        let mut seqs: Vec<Vec<usize>> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        let mut current_pid = i64::MIN;
        for row in &t.rows {
            let pid = match row[pid_col] {
                Cell::I(p) => p,
                _ => continue,
            };
            if pid != current_pid {
                current_pid = pid;
                seqs.push(Vec::with_capacity(N_VISITS));
                labels.push(match row[label_col] {
                    Cell::I(v) => v as usize,
                    _ => 0,
                });
            }
            let egfr = row[egfr_col].as_f32().unwrap_or(60.0);
            let creat = row[creat_col].as_f32().unwrap_or(1.0);
            let signal = egfr - blend * creat * 10.0;
            // eGFR bands (CKD stages-ish) → symbols 0..N_SYMBOLS.
            let sym = ((120.0 - signal.clamp(5.0, 120.0)) / (115.0 / N_SYMBOLS as f32)) as usize;
            seqs.last_mut().unwrap().push(sym.min(N_SYMBOLS - 1));
        }
        Ok(Artifact::new(
            ArtifactData::Sequences(SequenceSet {
                seqs,
                labels,
                n_symbols: N_SYMBOLS,
                n_classes: 2,
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs.first().map(|a| a.byte_len() / 6).unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        1_500
    }
}

/// HMM de-biasing: Baum–Welch over the sequences, posterior features out.
/// `schema = 1` uses more hidden states → wider output (schema change).
struct HmmDebias {
    version: SemVer,
    iterations: usize,
}

impl HmmDebias {
    fn states(&self) -> usize {
        if self.version.schema >= 1 {
            STATES_V1
        } else {
            STATES_V0
        }
    }
}

impl Component for HmmDebias {
    fn name(&self) -> &str {
        "hmm_debias"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(seq_schema().id())
    }
    fn output_schema(&self) -> SchemaId {
        Schema::FeatureMatrix {
            dim: hmm_feature_dim(self.states()),
            n_classes: 2,
        }
        .id()
    }
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Sequences(s) = inputs[0].data() else {
            return Err(PipelineError::WrongArtifactKind {
                component: self.key(),
                expected: "sequences",
                actual: inputs[0].data().kind_label(),
            });
        };
        let states = self.states();
        let mut hmm = Hmm::random(states, s.n_symbols, 500 + self.version.increment as u64);
        hmm.fit(&s.seqs, self.iterations);
        let dim = hmm_feature_dim(states);
        let mut x = Matrix::zeros(s.seqs.len(), dim);
        for (r, seq) in s.seqs.iter().enumerate() {
            if seq.is_empty() {
                continue;
            }
            let gamma = hmm.posteriors(seq);
            for g in &gamma {
                for (k, v) in g.iter().enumerate() {
                    let cur = x.get(r, k);
                    x.set(r, k, cur + (*v as f32) / gamma.len() as f32);
                }
            }
            for (k, v) in gamma.last().unwrap().iter().enumerate() {
                x.set(r, states + k, *v as f32);
            }
            let mean_sym = seq.iter().sum::<usize>() as f32 / seq.len() as f32;
            x.set(r, 2 * states, mean_sym / s.n_symbols as f32);
            x.set(
                r,
                2 * states + 1,
                hmm.log_likelihood(seq) as f32 / seq.len() as f32 / 10.0,
            );
        }
        Ok(Artifact::new(
            ArtifactData::Features(Features {
                x,
                y: s.labels.clone(),
                n_classes: 2,
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        let hmm = Hmm::random(self.states(), N_SYMBOLS, 0);
        hmm.work_units(N_PATIENTS * N_VISITS, self.iterations)
    }
    fn ns_per_unit(&self) -> u64 {
        // HMM processing dominates DPM pre-processing (Fig. 6b).
        9_000
    }
}

/// Terminal DL model.
struct DpmModel {
    version: SemVer,
    expects_states: usize,
    config: MlpConfig,
}

impl Component for DpmModel {
    fn name(&self) -> &str {
        "dpm_model"
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
                dim: hmm_feature_dim(self.expects_states),
                n_classes: 2,
            }
            .id(),
        )
    }
    fn output_schema(&self) -> SchemaId {
        Schema::Model {
            family: "dpm-dl".into(),
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
        let model = train_eval_mlp(f, self.config.clone(), "dpm-dl");
        Ok(Artifact::new(
            ArtifactData::Model(model),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        mlp_work_units(
            hmm_feature_dim(self.expects_states),
            &self.config,
            N_PATIENTS,
        )
    }
    fn ns_per_unit(&self) -> u64 {
        1_000
    }
}

fn model_config(increment: u32) -> MlpConfig {
    let widths = [8usize, 12, 16, 16, 20, 24, 28, 32];
    let i = (increment as usize).min(widths.len() - 1);
    MlpConfig {
        hidden: vec![widths[i]],
        learning_rate: 0.1,
        epochs: 10 + 2 * i,
        batch_size: 16,
        l2: 1e-4,
        seed: 200 + increment as u64,
    }
}

/// Builds the DPM workload with its full version family.
pub fn build() -> Workload {
    let mk_key = |h: &ComponentHandle| h.key();
    let data: ComponentHandle = Arc::new(DpmData {
        version: SemVer::master(0, 0),
    });
    let cleans: Vec<ComponentHandle> = (0..5)
        .map(|i| -> ComponentHandle {
            Arc::new(DpmClean {
                version: SemVer::master(0, i),
            })
        })
        .collect();
    let extracts: Vec<ComponentHandle> = (0..4)
        .map(|i| -> ComponentHandle {
            Arc::new(SeqExtract {
                version: SemVer::master(0, i),
            })
        })
        .collect();
    // HMM de-bias: 0.0–0.3 with STATES_V0 (growing iterations), 1.0 with
    // STATES_V1 (schema change).
    let mut hmms: Vec<ComponentHandle> = (0..4)
        .map(|i| -> ComponentHandle {
            Arc::new(HmmDebias {
                version: SemVer::master(0, i),
                iterations: 8 + 2 * i as usize,
            })
        })
        .collect();
    hmms.push(Arc::new(HmmDebias {
        version: SemVer::master(1, 0),
        iterations: 12,
    }));
    let mut models: Vec<ComponentHandle> = Vec::new();
    for inc in [0u32, 1, 4, 5, 6, 7] {
        models.push(Arc::new(DpmModel {
            version: SemVer::master(0, inc),
            expects_states: STATES_V0,
            config: model_config(inc),
        }));
    }
    for inc in [2u32, 3] {
        models.push(Arc::new(DpmModel {
            version: SemVer::master(0, inc),
            expects_states: STATES_V1,
            config: model_config(inc),
        }));
    }
    let find_model = |inc: u32| -> ComponentKey {
        models
            .iter()
            .map(mk_key)
            .find(|k| k.version.increment == inc)
            .expect("model version exists")
    };

    let slots = vec![
        "dpm_data".to_string(),
        "dpm_clean".to_string(),
        "seq_extract".to_string(),
        "hmm_debias".to_string(),
        "dpm_model".to_string(),
    ];
    let initial = vec![
        data.key(),
        cleans[0].key(),
        extracts[0].key(),
        hmms[0].key(),
        find_model(0),
    ];
    let chains = vec![
        vec![data.key()],
        cleans.iter().map(mk_key).collect(),
        extracts.iter().map(mk_key).collect(),
        hmms[..4].iter().map(mk_key).collect(),
        vec![
            find_model(0),
            find_model(1),
            find_model(4),
            find_model(5),
            find_model(6),
            find_model(7),
        ],
    ];
    let hmm_v1 = hmms[4].key();
    let head_updates = vec![vec![
        data.key(),
        cleans[1].key(),
        extracts[0].key(),
        hmms[0].key(),
        find_model(4),
    ]];
    let dev_updates = vec![
        vec![
            data.key(),
            cleans[0].key(),
            extracts[0].key(),
            hmms[0].key(),
            find_model(1),
        ],
        vec![
            data.key(),
            cleans[0].key(),
            extracts[0].key(),
            hmm_v1.clone(),
            find_model(2),
        ],
        vec![
            data.key(),
            cleans[0].key(),
            extracts[0].key(),
            hmm_v1.clone(),
            find_model(3),
        ],
    ];

    let mut handles = vec![data];
    handles.extend(cleans);
    handles.extend(extracts);
    handles.extend(hmms);
    handles.extend(models);
    Workload {
        name: "dpm".into(),
        slots,
        handles,
        initial,
        chains,
        model_slot: 4,
        incompat_update: (3, hmm_v1),
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
            .map(|k| w.handles.iter().find(|h| &h.key() == k).unwrap().clone())
            .collect();
        let bound = BoundPipeline::new(Arc::new(w.dag()), handles).unwrap();
        let report = exec.run(&bound, None, Policy::RERUN_ALL).unwrap();
        (report.outcome.score().expect("completed").raw, report.clock)
    }

    #[test]
    fn structure_is_valid() {
        let w = build();
        w.validate();
        assert_eq!(w.slots.len(), 5);
        assert_eq!(w.preproc_slots(), vec![1, 2, 3]);
    }

    #[test]
    fn initial_pipeline_learns_progression() {
        let w = build();
        let (score, snap) = run_pipeline(&w, &w.initial);
        assert!(score > 0.6, "DPM accuracy {score}");
        // Pre-processing (HMM) dominates (Fig. 6b).
        assert!(
            snap.preprocess_ns > snap.training_ns,
            "preproc {} vs training {}",
            snap.preprocess_ns,
            snap.training_ns
        );
    }

    #[test]
    fn schema_change_pairs_with_adapted_model() {
        let w = build();
        let (score, _) = run_pipeline(&w, &w.dev_updates[1]);
        assert!(score > 0.5);
    }

    #[test]
    fn hmm_feature_dims_differ_across_schema_versions() {
        assert_ne!(hmm_feature_dim(STATES_V0), hmm_feature_dim(STATES_V1));
    }
}
