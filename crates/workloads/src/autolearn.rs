//! The Autolearn pipeline (§VII-A).
//!
//! `dataset → zernike_extract → autolearn_feat → ada_model`: digit images
//! are turned into Zernike-moment features, the Autolearn algorithm (Kaul
//! et al.) generates and selects derived features, and an AdaBoost
//! classifier finishes the pipeline. Feature generation dominates the cost —
//! the paper points at iterations 5 and 9 of Fig. 5(d).

use crate::common::Workload;
use crate::data::digits;
use mlcask_ml::adaboost::{AdaBoost, AdaBoostConfig};
use mlcask_ml::autofeat::{AutoFeat, AutoFeatConfig};
use mlcask_ml::metrics::{MetricKind, Score};
use mlcask_ml::tensor::Matrix;
use mlcask_ml::zernike::{feature_count, zernike_moments};
use mlcask_pipeline::artifact::{Artifact, ArtifactData, Features, ModelArtifact};
use mlcask_pipeline::component::{Component, ComponentHandle, ComponentKey, StageKind};
use mlcask_pipeline::errors::{PipelineError, Result};
use mlcask_pipeline::schema::{Schema, SchemaId};
use mlcask_pipeline::semver::SemVer;
use std::sync::Arc;

/// Images generated.
pub(crate) const N_IMAGES: usize = 240;
/// Zernike moment order used by the extractor.
pub(crate) const MOMENT_ORDER: u32 = 8;
/// Generated features kept by `0.x` Autolearn versions.
pub(crate) const TOP_K_V0: usize = 8;
/// Generated features kept by the schema-changing `1.0` version.
pub(crate) const TOP_K_V1: usize = 14;

fn image_schema() -> Schema {
    Schema::ImageSet {
        side: digits::SIDE,
        n_classes: digits::N_CLASSES,
    }
}

/// Zernike feature dimension.
pub(crate) fn zernike_dim() -> usize {
    feature_count(MOMENT_ORDER)
}

/// Output dimension of the Autolearn stage for a given `top_k`.
pub(crate) fn autolearn_dim(top_k: usize) -> usize {
    zernike_dim() + top_k
}

struct DigitsData {
    version: SemVer,
}

impl Component for DigitsData {
    fn name(&self) -> &str {
        "digits_data"
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
        image_schema().id()
    }
    fn run(&self, _inputs: &[Artifact]) -> Result<Artifact> {
        let s = digits::generate(N_IMAGES, 0.015, 120 + self.version.increment as u64);
        Ok(Artifact::new(ArtifactData::Images(s), self.output_schema()))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        (N_IMAGES * digits::SIDE * digits::SIDE) as u64
    }
    fn ns_per_unit(&self) -> u64 {
        1_000
    }
}

/// Zernike-moment extraction; `increment` adds light normalisation tweaks.
struct ZernikeExtract {
    version: SemVer,
}

impl Component for ZernikeExtract {
    fn name(&self) -> &str {
        "zernike_extract"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(image_schema().id())
    }
    fn output_schema(&self) -> SchemaId {
        Schema::FeatureMatrix {
            dim: zernike_dim(),
            n_classes: digits::N_CLASSES,
        }
        .id()
    }
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Images(s) = inputs[0].data() else {
            return Err(PipelineError::WrongArtifactKind {
                component: self.key(),
                expected: "images",
                actual: inputs[0].data().kind_label(),
            });
        };
        let dim = zernike_dim();
        let scale = 1.0 + self.version.increment as f32 * 0.05;
        let mut x = Matrix::zeros(s.images.len(), dim);
        for (r, img) in s.images.iter().enumerate() {
            for (c, m) in zernike_moments(img, MOMENT_ORDER).iter().enumerate() {
                x.set(r, c, m * scale);
            }
        }
        Ok(Artifact::new(
            ArtifactData::Features(Features {
                x,
                y: s.labels.clone(),
                n_classes: s.n_classes,
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        mlcask_ml::zernike::work_units(N_IMAGES, digits::SIDE, MOMENT_ORDER)
    }
    fn ns_per_unit(&self) -> u64 {
        // Feature generation dominates Autolearn (Fig. 6d).
        4_000
    }
}

/// Autolearn feature generation + selection; `schema = 1` keeps more
/// generated features (wider output — schema change).
struct AutolearnFeat {
    version: SemVer,
}

impl AutolearnFeat {
    fn top_k(&self) -> usize {
        if self.version.schema >= 1 {
            TOP_K_V1
        } else {
            TOP_K_V0
        }
    }
}

impl Component for AutolearnFeat {
    fn name(&self) -> &str {
        "autolearn_feat"
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
                dim: zernike_dim(),
                n_classes: digits::N_CLASSES,
            }
            .id(),
        )
    }
    fn output_schema(&self) -> SchemaId {
        Schema::FeatureMatrix {
            dim: autolearn_dim(self.top_k()),
            n_classes: digits::N_CLASSES,
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
        let cfg = AutoFeatConfig {
            top_k: self.top_k(),
            products: true,
            // Ratios only arrive in late versions (they are empirically a
            // regression here — which is exactly the kind of "update that
            // does not necessarily improve the pipeline" the metric-driven
            // merge is designed to catch).
            ratios: self.version.increment >= 3,
            min_std: 1e-6 * 10f32.powi(self.version.increment as i32),
        };
        let af = AutoFeat::fit(&f.x, &f.y, cfg);
        let mut x = af.transform(&f.x);
        // Pad to the declared dimension if fewer candidates survived.
        let want = autolearn_dim(self.top_k());
        if x.cols() < want {
            x = x.hcat(&Matrix::zeros(x.rows(), want - x.cols()));
        }
        // Increments rescale the generated block so each version's output is
        // a distinct artifact.
        let scale = 1.0 + 0.005 * self.version.increment as f32;
        if scale != 1.0 {
            x.map_inplace(|v| v * scale);
        }
        Ok(Artifact::new(
            ArtifactData::Features(Features {
                x,
                y: f.y.clone(),
                n_classes: f.n_classes,
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        AutoFeat::work_units(
            N_IMAGES,
            zernike_dim(),
            AutoFeatConfig {
                top_k: self.top_k(),
                products: true,
                ratios: true,
                min_std: 1e-6,
            },
        )
    }
    fn ns_per_unit(&self) -> u64 {
        5_000
    }
}

/// Terminal AdaBoost classifier.
struct AdaModel {
    version: SemVer,
    expects_top_k: usize,
    rounds: usize,
}

impl Component for AdaModel {
    fn name(&self) -> &str {
        "ada_model"
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
                dim: autolearn_dim(self.expects_top_k),
                n_classes: digits::N_CLASSES,
            }
            .id(),
        )
    }
    fn output_schema(&self) -> SchemaId {
        Schema::Model {
            family: "autolearn-ada".into(),
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
        // Deterministic stratified train/eval split.
        let (train_idx, eval_idx) = crate::common::stratified_holdout(&f.y, 4);
        let x_train = f.x.select_rows(&train_idx);
        let y_train: Vec<usize> = train_idx.iter().map(|&i| f.y[i]).collect();
        let x_eval = f.x.select_rows(&eval_idx);
        let y_eval: Vec<usize> = eval_idx.iter().map(|&i| f.y[i]).collect();
        let cfg = AdaBoostConfig {
            rounds: self.rounds,
            threshold_stride: 1,
        };
        let model = AdaBoost::fit(&x_train, &y_train, f.n_classes, cfg);
        let acc = model.evaluate(&x_eval, &y_eval);
        // Accuracy over a small eval set quantises coarsely; break ties with
        // the mean training-error margin so the merge search sees a total
        // order over candidates (raw accuracy is preserved in `raw`).
        let margin: f64 = 1.0
            - model.error_history.iter().copied().sum::<f64>()
                / model.error_history.len().max(1) as f64;
        let mut score = Score::new(MetricKind::Accuracy, acc);
        score.value += margin * 1e-4;
        let blob = serde_json::to_vec(&(self.rounds, model.error_history.clone()))
            .expect("model summary serialises");
        Ok(Artifact::new(
            ArtifactData::Model(ModelArtifact {
                family: "autolearn-ada".into(),
                blob,
                score,
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        AdaBoost::work_units(
            N_IMAGES,
            autolearn_dim(self.expects_top_k),
            AdaBoostConfig {
                rounds: self.rounds,
                threshold_stride: 1,
            },
        )
    }
    fn ns_per_unit(&self) -> u64 {
        3_000
    }
}

/// Builds the Autolearn workload with its full version family.
pub fn build() -> Workload {
    let mk_key = |h: &ComponentHandle| h.key();
    let data: ComponentHandle = Arc::new(DigitsData {
        version: SemVer::master(0, 0),
    });
    let zernikes: Vec<ComponentHandle> = (0..5)
        .map(|i| -> ComponentHandle {
            Arc::new(ZernikeExtract {
                version: SemVer::master(0, i),
            })
        })
        .collect();
    let mut autos: Vec<ComponentHandle> = (0..4)
        .map(|i| -> ComponentHandle {
            Arc::new(AutolearnFeat {
                version: SemVer::master(0, i),
            })
        })
        .collect();
    autos.push(Arc::new(AutolearnFeat {
        version: SemVer::master(1, 0),
    }));
    let rounds_for = |inc: u32| 60 + 15 * inc as usize;
    let mut models: Vec<ComponentHandle> = Vec::new();
    for inc in [0u32, 1, 4, 5, 6, 7] {
        models.push(Arc::new(AdaModel {
            version: SemVer::master(0, inc),
            expects_top_k: TOP_K_V0,
            rounds: rounds_for(inc),
        }));
    }
    for inc in [2u32, 3] {
        models.push(Arc::new(AdaModel {
            version: SemVer::master(0, inc),
            expects_top_k: TOP_K_V1,
            rounds: rounds_for(inc),
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
        "digits_data".to_string(),
        "zernike_extract".to_string(),
        "autolearn_feat".to_string(),
        "ada_model".to_string(),
    ];
    let initial = vec![data.key(), zernikes[0].key(), autos[0].key(), find_model(0)];
    let chains = vec![
        vec![data.key()],
        zernikes.iter().map(mk_key).collect(),
        autos[..4].iter().map(mk_key).collect(),
        vec![
            find_model(0),
            find_model(1),
            find_model(4),
            find_model(5),
            find_model(6),
            find_model(7),
        ],
    ];
    let auto_v1 = autos[4].key();
    let head_updates = vec![vec![
        data.key(),
        zernikes[1].key(),
        autos[0].key(),
        find_model(4),
    ]];
    let dev_updates = vec![
        vec![data.key(), zernikes[0].key(), autos[0].key(), find_model(1)],
        vec![
            data.key(),
            zernikes[0].key(),
            auto_v1.clone(),
            find_model(2),
        ],
        vec![
            data.key(),
            zernikes[0].key(),
            auto_v1.clone(),
            find_model(3),
        ],
    ];

    let mut handles = vec![data];
    handles.extend(zernikes);
    handles.extend(autos);
    handles.extend(models);
    Workload {
        name: "autolearn".into(),
        slots,
        handles,
        initial,
        chains,
        model_slot: 3,
        incompat_update: (2, auto_v1),
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
        assert_eq!(w.slots.len(), 4);
        assert_eq!(w.model_slot, 3);
    }

    #[test]
    fn initial_pipeline_classifies_digits() {
        let w = build();
        let (score, snap) = run_pipeline(&w, &w.initial);
        assert!(score > 0.6, "Autolearn accuracy {score}");
        // Pre-processing dominates (Fig. 6d).
        assert!(snap.preprocess_ns > snap.training_ns);
    }

    #[test]
    fn wide_autolearn_with_adapted_model_works() {
        let w = build();
        let (score, _) = run_pipeline(&w, &w.dev_updates[1]);
        assert!(score > 0.5);
    }

    #[test]
    fn dims_differ_across_schema_versions() {
        assert_ne!(autolearn_dim(TOP_K_V0), autolearn_dim(TOP_K_V1));
    }
}
