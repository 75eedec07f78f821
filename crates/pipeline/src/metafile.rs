//! Metafiles — the serialisable descriptions of datasets, libraries, and
//! pipelines (§III).
//!
//! * A **dataset** has a mandatory metafile describing the encapsulation of
//!   data (plus optional data files).
//! * A **library** metafile records the entry point, inputs/outputs, and
//!   essential hyperparameters; schema updates are "explicitly indicated by
//!   the library developer in the library metafile" (§IV-B).
//! * A **pipeline** metafile records the entry point and component order;
//!   once fully processed, component-output references are logged into it.

use crate::component::{ComponentKey, StageKind};
use crate::schema::{Schema, SchemaId};
use crate::semver::SemVer;
use mlcask_ml::metrics::Score;
use mlcask_storage::object::ObjectRef;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Dataset repository entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetMetafile {
    /// Dataset name.
    pub name: String,
    /// Dataset version (schema derives from the data itself via the schema
    /// hash function).
    pub version: SemVer,
    /// Declared schema of the encapsulated data.
    pub schema: Schema,
    /// Reference to the stored data payload.
    pub data: ObjectRef,
    /// Free-form description (e.g. retrieval query or file provenance).
    pub description: String,
}

/// Library repository entry (pre-processing method or model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LibraryMetafile {
    /// Library name.
    pub name: String,
    /// Semantic version; `schema` bumps indicate output-schema changes.
    pub version: SemVer,
    /// Stage classification.
    pub stage: StageKind,
    /// Entry point of the executable.
    pub entry_point: String,
    /// Declared input schema (None for source libraries).
    pub input_schema: Option<SchemaId>,
    /// Declared output schema.
    pub output_schema: SchemaId,
    /// Essential hyperparameters (stringified for stability).
    pub hyperparams: BTreeMap<String, String>,
    /// Reference to the stored executable payload.
    pub executable: ObjectRef,
}

/// One slot of a pipeline metafile: which component version filled it and
/// where its archived output lives.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSlot {
    /// Component version bound to this slot.
    pub component: ComponentKey,
    /// Archived output of this component in this pipeline run (null ref if
    /// the run failed before reaching it).
    pub output: ObjectRef,
    /// Content id of the output artifact (reuse key).
    pub artifact_id: mlcask_storage::hash::Hash256,
}

/// Pipeline repository entry: a fully described pipeline version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineMetafile {
    /// Pipeline name (e.g. `readmission`).
    pub name: String,
    /// Version label `branch.seq` (e.g. `master.0`).
    pub label: String,
    /// Slots in pipeline slot order (DAG node order) with their bound
    /// versions and outputs.
    pub slots: Vec<PipelineSlot>,
    /// Data-flow edges by slot name — the full DAG shape, not just a chain.
    pub edges: Vec<(String, String)>,
    /// Final metric score of the run that produced this version.
    pub score: Option<Score>,
}

impl PipelineMetafile {
    /// The component version bound to `name`, if present.
    pub fn component_version(&self, name: &str) -> Option<&ComponentKey> {
        self.slots
            .iter()
            .map(|s| &s.component)
            .find(|k| k.name == name)
    }

    /// All component keys in slot order.
    pub fn component_keys(&self) -> Vec<ComponentKey> {
        self.slots.iter().map(|s| s.component.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcask_ml::metrics::MetricKind;
    use mlcask_storage::hash::Hash256;
    use mlcask_storage::object::ObjectKind;

    fn obj() -> ObjectRef {
        ObjectRef {
            id: Hash256::of(b"payload"),
            kind: ObjectKind::Output,
            len: 7,
        }
    }

    #[test]
    fn dataset_metafile_round_trip() {
        let m = DatasetMetafile {
            name: "ehr".into(),
            version: SemVer::initial(),
            schema: Schema::Relational {
                columns: vec!["age".into(), "dx".into()],
            },
            data: obj(),
            description: "synthetic admissions".into(),
        };
        let json = serde_json::to_string_pretty(&m).unwrap();
        let back: DatasetMetafile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn library_metafile_key() {
        let m = LibraryMetafile {
            name: "feature_extract".into(),
            version: SemVer::master(1, 0),
            stage: StageKind::PreProcess,
            entry_point: "extract.main".into(),
            input_schema: Some(
                Schema::Relational {
                    columns: vec!["age".into()],
                }
                .id(),
            ),
            output_schema: Schema::FeatureMatrix {
                dim: 8,
                n_classes: 2,
            }
            .id(),
            hyperparams: BTreeMap::from([("top_k".into(), "8".into())]),
            executable: obj(),
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: LibraryMetafile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn pipeline_metafile_lookup() {
        let m = PipelineMetafile {
            name: "readmission".into(),
            label: "master.2".into(),
            slots: vec![
                PipelineSlot {
                    component: ComponentKey::new("dataset", SemVer::master(0, 0)),
                    output: obj(),
                    artifact_id: Hash256::of(b"a0"),
                },
                PipelineSlot {
                    component: ComponentKey::new("cnn", SemVer::master(0, 3)),
                    output: obj(),
                    artifact_id: Hash256::of(b"a1"),
                },
            ],
            edges: vec![("dataset".into(), "cnn".into())],
            score: Some(Score::new(MetricKind::Accuracy, 0.9)),
        };
        assert_eq!(
            m.component_version("cnn").unwrap().version,
            SemVer::master(0, 3)
        );
        assert!(m.component_version("absent").is_none());
        assert_eq!(m.component_keys().len(), 2);
        let back: PipelineMetafile =
            serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(back, m);
    }
}
