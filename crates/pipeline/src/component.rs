//! The component abstraction (Definitions 1, 3 and 4 of the paper).
//!
//! A component is "any computational unit in the ML pipeline, including
//! datasets, pre-processing methods, and ML models". Each implements
//! [`Component`]: a pure transformation `y = f(x | θ)` over artifacts, with
//! declared input/output schemas for compatibility checking, a semantic
//! version, and a deterministic work estimate for virtual-time accounting.

use crate::artifact::Artifact;
use crate::errors::{PipelineError, Result};
use crate::schema::SchemaId;
use crate::semver::SemVer;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Where a component sits in the pipeline — drives the time-composition
/// accounting of Figs. 6 and 9 (storage vs pre-processing vs model
/// training).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StageKind {
    /// Data ingestion (the dataset component).
    Ingest,
    /// Pre-processing (cleansing, feature extraction, embeddings…).
    PreProcess,
    /// Model training / deep analytics.
    ModelTraining,
}

/// Identity of a component version: `(name, semver)`. This is the key used
/// by search spaces, compatibility LUTs, and history records.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ComponentKey {
    /// Component name, e.g. `feature_extract`.
    pub name: String,
    /// Semantic version.
    pub version: SemVer,
}

impl Clone for ComponentKey {
    fn clone(&self) -> Self {
        ComponentKey {
            name: self.name.clone(),
            version: self.version.clone(),
        }
    }

    /// Field by field, so both names keep their buffers: a key reassigned
    /// per lookup allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        let ComponentKey { name, version } = source;
        self.name.clone_from(name);
        self.version.clone_from(version);
    }
}

impl ComponentKey {
    /// Constructs a key.
    pub fn new(name: &str, version: SemVer) -> ComponentKey {
        ComponentKey {
            name: name.to_string(),
            version,
        }
    }
}

impl fmt::Display for ComponentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}, {}>", self.name, self.version)
    }
}

/// A pipeline component: dataset, pre-processing library, or model library.
///
/// Implementations must be deterministic: the same input artifact must
/// produce the same output artifact (the reuse machinery depends on it).
pub trait Component: Send + Sync {
    /// Component name (stable across versions).
    fn name(&self) -> &str;

    /// Semantic version of this component instance.
    fn version(&self) -> SemVer;

    /// Stage classification for time accounting.
    fn stage(&self) -> StageKind;

    /// Schema this component expects on its input, or `None` for source
    /// (dataset) components.
    fn input_schema(&self) -> Option<SchemaId>;

    /// Schema of the produced output.
    fn output_schema(&self) -> SchemaId;

    /// Executes the transformation. `inputs` is empty for datasets and holds
    /// the predecessors' outputs (in DAG edge order) otherwise.
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact>;

    /// Deterministic work estimate in abstract units for the given inputs;
    /// the executor converts it to virtual time.
    fn work_units(&self, inputs: &[Artifact]) -> u64;

    /// Nanoseconds of virtual time per work unit (stage-specific rates give
    /// heterogeneous costs; default 1 ns/unit).
    fn ns_per_unit(&self) -> u64 {
        1
    }

    /// Key identifying this component version.
    fn key(&self) -> ComponentKey {
        ComponentKey::new(self.name(), self.version())
    }

    /// Validates input schemas (Definition 4): every input artifact must
    /// match the declared expectation.
    fn check_compatibility(&self, inputs: &[Artifact]) -> Result<()> {
        if let Some(expected) = self.input_schema() {
            for (i, a) in inputs.iter().enumerate() {
                if a.schema() != expected {
                    return Err(PipelineError::IncompatibleSchema(Box::new(
                        crate::errors::IncompatibleSchemaDetail {
                            component: self.key(),
                            input_index: i,
                            expected,
                            actual: a.schema(),
                        },
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Shared handle to a component implementation.
pub type ComponentHandle = Arc<dyn Component>;

#[cfg(test)]
pub(crate) mod test_support {
    //! Tiny concrete components reused by pipeline/executor tests.

    use super::*;
    use crate::artifact::{ArtifactData, Features, ModelArtifact};
    use crate::schema::Schema;
    use mlcask_ml::metrics::{MetricKind, Score};
    use mlcask_ml::tensor::Matrix;

    /// Source component producing a fixed feature matrix.
    pub(crate) struct TestSource {
        pub version: SemVer,
        pub dim: usize,
        pub rows: usize,
    }

    impl Component for TestSource {
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
            let x = Matrix::from_fn(self.rows, self.dim, |r, c| ((r * self.dim + c) % 7) as f32);
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

    /// Pre-processing component that scales features; versions with
    /// different `dim_out` have different output schemas.
    pub(crate) struct TestScaler {
        pub version: SemVer,
        pub dim_in: usize,
        pub dim_out: usize,
        pub factor: f32,
    }

    impl Component for TestScaler {
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

    /// Pre-processing branch with a configurable slot name, so non-chain
    /// DAG tests can bind several independent branches of one diamond.
    pub(crate) struct TestBranch {
        pub name: &'static str,
        pub version: SemVer,
        pub dim: usize,
        pub factor: f32,
        /// Extra work spin (deterministic) so branch overlap is measurable.
        pub spin: u32,
    }

    impl Component for TestBranch {
        fn name(&self) -> &str {
            self.name
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
                    dim: self.dim,
                    n_classes: 2,
                }
                .id(),
            )
        }
        fn output_schema(&self) -> SchemaId {
            self.input_schema().expect("branch has an input schema")
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
            let mut factor = self.factor;
            for _ in 0..self.spin {
                factor = (factor * 1.0000001).min(1e6);
            }
            let x = Matrix::from_fn(f.x.rows(), self.dim, |r, c| f.x.get(r, c) * factor);
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

    /// Fan-in component averaging equal-schema branch outputs, for
    /// diamond/fan-in DAG tests. `dim_out != dim_in` models a schema
    /// change.
    pub(crate) struct TestJoin {
        pub version: SemVer,
        pub dim_in: usize,
        pub dim_out: usize,
    }

    impl Component for TestJoin {
        fn name(&self) -> &str {
            "test_join"
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
            let first = features.first().expect("join has at least one input");
            let x = Matrix::from_fn(first.x.rows(), self.dim_out, |r, c| {
                if c < self.dim_in {
                    features.iter().map(|f| f.x.get(r, c)).sum::<f32>() / features.len() as f32
                } else {
                    0.0
                }
            });
            Ok(Artifact::new(
                ArtifactData::Features(Features {
                    x,
                    y: first.y.clone(),
                    n_classes: first.n_classes,
                }),
                self.output_schema(),
            ))
        }
        fn work_units(&self, inputs: &[Artifact]) -> u64 {
            inputs.iter().map(|a| a.byte_len()).sum::<u64>().max(1)
        }
    }

    /// Terminal "model" that scores higher for larger scale factors.
    pub(crate) struct TestModel {
        pub version: SemVer,
        pub dim_in: usize,
        pub quality: f64,
    }

    impl Component for TestModel {
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
                family: "test".into(),
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
            // Score depends on the input (mean magnitude) and model quality,
            // so different upstream versions yield different scores.
            let mean = f.x.as_slice().iter().map(|v| v.abs() as f64).sum::<f64>()
                / (f.x.as_slice().len().max(1) as f64);
            let raw = (self.quality + mean / (1.0 + mean)).min(1.0);
            Ok(Artifact::new(
                ArtifactData::Model(ModelArtifact {
                    family: "test".into(),
                    blob: vec![0u8; 64],
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
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn component_key_display_matches_paper_notation() {
        let k = ComponentKey::new("feature_extract", SemVer::master(0, 1));
        assert_eq!(k.to_string(), "<feature_extract, 0.1>");
        let k2 = ComponentKey::new(
            "cnn",
            SemVer {
                branch: "dev".to_string(),
                schema: 1,
                increment: 0,
            },
        );
        assert_eq!(k2.to_string(), "<cnn, dev@1.0>");
    }

    #[test]
    fn source_runs_without_inputs() {
        let s = TestSource {
            version: SemVer::initial(),
            dim: 3,
            rows: 4,
        };
        let a = s.run(&[]).unwrap();
        assert_eq!(a.schema(), s.output_schema());
        assert!(s.input_schema().is_none());
        assert!(s.work_units(&[]) > 0);
    }

    #[test]
    fn compatibility_check_rejects_wrong_schema() {
        let s = TestSource {
            version: SemVer::initial(),
            dim: 3,
            rows: 4,
        };
        let out = s.run(&[]).unwrap();
        // Scaler expecting dim 5 must reject dim-3 input.
        let bad = TestScaler {
            version: SemVer::initial(),
            dim_in: 5,
            dim_out: 5,
            factor: 1.0,
        };
        let err = bad.run(std::slice::from_ref(&out)).unwrap_err();
        assert!(matches!(err, PipelineError::IncompatibleSchema(_)));
        // Matching scaler passes.
        let good = TestScaler {
            version: SemVer::initial(),
            dim_in: 3,
            dim_out: 3,
            factor: 2.0,
        };
        assert!(good.run(std::slice::from_ref(&out)).is_ok());
    }

    #[test]
    fn chain_produces_scored_model() {
        let src = TestSource {
            version: SemVer::initial(),
            dim: 3,
            rows: 4,
        };
        let scaler = TestScaler {
            version: SemVer::initial(),
            dim_in: 3,
            dim_out: 3,
            factor: 2.0,
        };
        let model = TestModel {
            version: SemVer::initial(),
            dim_in: 3,
            quality: 0.1,
        };
        let a = src.run(&[]).unwrap();
        let b = scaler.run(std::slice::from_ref(&a)).unwrap();
        let c = model.run(std::slice::from_ref(&b)).unwrap();
        assert!(c.score().is_some());
        assert!(c.score().unwrap().value > 0.0);
    }
}
