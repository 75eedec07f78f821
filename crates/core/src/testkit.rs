//! Small concrete components for tests, examples, and microbenchmarks.
//!
//! These mirror the paper's running example shape (dataset → pre-processing
//! → model) with controllable schemas and qualities, so version-control
//! behaviour can be exercised without the full workloads crate.

use mlcask_ml::metrics::{MetricKind, Score};
use mlcask_ml::tensor::Matrix;
use mlcask_pipeline::artifact::{Artifact, ArtifactData, Features, ModelArtifact};
use mlcask_pipeline::component::{Component, ComponentHandle, StageKind};
use mlcask_pipeline::errors::{PipelineError, Result};
use mlcask_pipeline::schema::{Schema, SchemaId};
use mlcask_pipeline::semver::SemVer;
use std::sync::Arc;

/// Source component producing a deterministic feature matrix. The version's
/// `increment` perturbs the data slightly so dataset updates are visible.
pub(crate) struct ToySource {
    version: SemVer,
    dim: usize,
    rows: usize,
}

impl Component for ToySource {
    fn name(&self) -> &str {
        "test_source"
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
        Schema::FeatureMatrix {
            dim: self.dim,
            n_classes: 2,
        }
        .id()
    }
    fn run(&self, _inputs: &[Artifact]) -> Result<Artifact> {
        let bump = self.version.increment as f32 * 0.01;
        let x = Matrix::from_fn(self.rows, self.dim, |r, c| {
            ((r * self.dim + c) % 7) as f32 + bump
        });
        let y = (0..self.rows).map(|r| r % 2).collect();
        Ok(Artifact::new(
            ArtifactData::Features(Features { x, y, n_classes: 2 }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        (self.rows * self.dim) as u64
    }
}

/// Pre-processor that scales features. `dim_out != dim_in` models an
/// output-schema change (the `schema` part of the version should be bumped
/// accordingly by the caller).
pub(crate) struct ToyScaler {
    version: SemVer,
    dim_in: usize,
    dim_out: usize,
    factor: f32,
}

impl Component for ToyScaler {
    fn name(&self) -> &str {
        "test_scaler"
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
                dim: self.dim_in,
                n_classes: 2,
            }
            .id(),
        )
    }
    fn output_schema(&self) -> SchemaId {
        Schema::FeatureMatrix {
            dim: self.dim_out,
            n_classes: 2,
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
        let x = Matrix::from_fn(f.x.rows(), self.dim_out, |r, c| {
            if c < f.x.cols() {
                f.x.get(r, c) * self.factor
            } else {
                0.0
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
        inputs.first().map(|a| a.byte_len()).unwrap_or(1)
    }
}

/// Terminal "model": score depends on both its own `quality` and the input
/// statistics, so upstream versions influence the pipeline metric.
pub(crate) struct ToyModel {
    version: SemVer,
    dim_in: usize,
    quality: f64,
}

impl Component for ToyModel {
    fn name(&self) -> &str {
        "test_model"
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
                dim: self.dim_in,
                n_classes: 2,
            }
            .id(),
        )
    }
    fn output_schema(&self) -> SchemaId {
        Schema::Model {
            family: "toy".into(),
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
        let mean = f.x.as_slice().iter().map(|v| v.abs() as f64).sum::<f64>()
            / (f.x.as_slice().len().max(1) as f64);
        // Saturating interaction between model quality and input scale.
        let raw = (self.quality * (mean / (1.0 + mean)) + self.quality * 0.5).min(1.0);
        Ok(Artifact::new(
            ArtifactData::Model(ModelArtifact {
                family: "toy".into(),
                blob: self.quality.to_le_bytes().to_vec(),
                score: Score::new(MetricKind::Accuracy, raw),
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs.first().map(|a| a.byte_len() * 4).unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        8
    }
}

/// Constructs a toy source handle.
pub fn toy_source(version: SemVer, dim: usize, rows: usize) -> ComponentHandle {
    Arc::new(ToySource { version, dim, rows })
}

/// Constructs a toy scaler handle.
pub fn toy_scaler(version: SemVer, dim_in: usize, dim_out: usize, factor: f32) -> ComponentHandle {
    Arc::new(ToyScaler {
        version,
        dim_in,
        dim_out,
        factor,
    })
}

/// Constructs a toy model handle.
pub fn toy_model(version: SemVer, dim_in: usize, quality: f64) -> ComponentHandle {
    Arc::new(ToyModel {
        version,
        dim_in,
        quality,
    })
}

/// The slot names of the toy pipeline chain.
pub fn toy_slots() -> Vec<&'static str> {
    vec!["test_source", "test_scaler", "test_model"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_chain_runs() {
        let src = toy_source(SemVer::initial(), 4, 8);
        let scl = toy_scaler(SemVer::initial(), 4, 4, 2.0);
        let mdl = toy_model(SemVer::initial(), 4, 0.8);
        let a = src.run(&[]).unwrap();
        let b = scl.run(std::slice::from_ref(&a)).unwrap();
        let c = mdl.run(std::slice::from_ref(&b)).unwrap();
        assert!(c.score().unwrap().value > 0.0);
    }

    #[test]
    fn model_score_depends_on_upstream() {
        let src = toy_source(SemVer::initial(), 4, 8);
        let weak = toy_scaler(SemVer::master(0, 0), 4, 4, 0.01);
        let strong = toy_scaler(SemVer::master(0, 1), 4, 4, 10.0);
        let mdl = toy_model(SemVer::initial(), 4, 0.8);
        let a = src.run(&[]).unwrap();
        let s1 = mdl
            .run(&[weak.run(std::slice::from_ref(&a)).unwrap()])
            .unwrap()
            .score()
            .unwrap();
        let s2 = mdl
            .run(&[strong.run(std::slice::from_ref(&a)).unwrap()])
            .unwrap()
            .score()
            .unwrap();
        assert!(s2.value > s1.value, "stronger scaling should score higher");
    }

    #[test]
    fn source_versions_differ() {
        let v0 = toy_source(SemVer::master(0, 0), 4, 8).run(&[]).unwrap();
        let v1 = toy_source(SemVer::master(0, 1), 4, 8).run(&[]).unwrap();
        assert_ne!(v0.content_id(), v1.content_id());
    }
}
