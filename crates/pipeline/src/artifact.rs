//! Typed immutable artifacts flowing between pipeline components.
//!
//! Every component output is an [`Artifact`]: a typed payload plus its
//! schema id. Artifacts have a deterministic canonical byte encoding, so
//! their content hash serves as the cache/reuse key, and storing them in
//! the chunk store benefits from dedup when consecutive versions produce
//! overlapping bytes.

use crate::schema::SchemaId;
use mlcask_ml::metrics::Score;
use mlcask_ml::tensor::Matrix;
use mlcask_ml::zernike::Image;
use mlcask_storage::hash::Hash256;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A relational table cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Cell {
    /// Missing value (the cleansing stages fill these).
    Null,
    /// Numeric value.
    F(f32),
    /// Integer value (codes, counts).
    I(i64),
    /// Categorical/text value.
    S(String),
}

impl Cell {
    /// True if the cell is missing.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// Numeric view (integers widened; null/text → None).
    pub fn as_f32(&self) -> Option<f32> {
        match self {
            Cell::F(v) => Some(*v),
            Cell::I(v) => Some(*v as f32),
            _ => None,
        }
    }
}

/// A relational table with named columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Column names.
    pub columns: Vec<String>,
    /// Row-major cells; every row has `columns.len()` entries.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates a table, validating row widths.
    pub fn new(columns: Vec<String>, rows: Vec<Vec<Cell>>) -> Table {
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), columns.len(), "row {i} width mismatch");
        }
        Table { columns, rows }
    }

    /// Index of a named column.
    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Count of null cells (data-quality measure for cleansing stages).
    pub fn null_count(&self) -> usize {
        self.rows
            .iter()
            .flat_map(|r| r.iter())
            .filter(|c| c.is_null())
            .count()
    }
}

/// Labelled token documents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Docs {
    /// Tokenised documents.
    pub docs: Vec<Vec<String>>,
    /// One label per document.
    pub labels: Vec<usize>,
    /// Vocabulary bound for schema purposes.
    pub vocab_size: usize,
}

/// Labelled square images.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageSet {
    /// Images, all with the same side length.
    pub images: Vec<Image>,
    /// One label per image.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub n_classes: usize,
}

/// A dense feature matrix with labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Features {
    /// Feature matrix, one row per sample.
    pub x: Matrix,
    /// One label per row.
    pub y: Vec<usize>,
    /// Number of classes.
    pub n_classes: usize,
}

/// Categorical observation sequences with labels (HMM input).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequenceSet {
    /// Observation sequences.
    pub seqs: Vec<Vec<usize>>,
    /// One label per sequence.
    pub labels: Vec<usize>,
    /// Number of observation symbols.
    pub n_symbols: usize,
    /// Number of classes.
    pub n_classes: usize,
}

/// A trained model: opaque serialised weights plus its evaluation score.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// Model family label (matches `Schema::Model`).
    pub family: String,
    /// Serialised model parameters.
    pub blob: Vec<u8>,
    /// Held-out evaluation score — the pipeline's metric for merge.
    pub score: Score,
}

/// The payload of an artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArtifactData {
    /// Relational table.
    Table(Table),
    /// Token documents.
    Docs(Docs),
    /// Labelled images.
    Images(ImageSet),
    /// Feature matrix.
    Features(Features),
    /// Observation sequences.
    Sequences(SequenceSet),
    /// Trained model.
    Model(ModelArtifact),
}

impl ArtifactData {
    /// Short label for diagnostics.
    pub fn kind_label(&self) -> &'static str {
        match self {
            ArtifactData::Table(_) => "table",
            ArtifactData::Docs(_) => "docs",
            ArtifactData::Images(_) => "images",
            ArtifactData::Features(_) => "features",
            ArtifactData::Sequences(_) => "sequences",
            ArtifactData::Model(_) => "model",
        }
    }
}

/// A typed immutable value produced by a component.
///
/// Immutable is load-bearing: the content id and encoded length are
/// remembered the first time the canonical encoding is made (or handed in by
/// [`Artifact::from_bytes`]), so the fields are readable but not writable.
#[derive(Debug, Clone)]
pub struct Artifact {
    data: ArtifactData,
    schema: SchemaId,
    /// Content id and length of the canonical encoding, once either has been
    /// computed. Not part of the value: equality and serde ignore it, clones
    /// carry it.
    encoded: OnceLock<(Hash256, u64)>,
}

impl PartialEq for Artifact {
    fn eq(&self, other: &Artifact) -> bool {
        self.data == other.data && self.schema == other.schema
    }
}

// Written out because the derive has no `skip`; the field order is the
// canonical encoding's.
impl Serialize for Artifact {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("data".to_string(), self.data.to_value()),
            ("schema".to_string(), self.schema.to_value()),
        ])
    }
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"data\":");
        self.data.write_json(out);
        out.push_str(",\"schema\":");
        self.schema.write_json(out);
        out.push('}');
    }
}

impl Deserialize for Artifact {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let m = serde::expect_map(v, "Artifact")?;
        Ok(Artifact::new(
            serde::field(m, "data", "Artifact")?,
            serde::field(m, "schema", "Artifact")?,
        ))
    }
}

impl Artifact {
    /// Wraps a payload with its schema.
    pub fn new(data: ArtifactData, schema: SchemaId) -> Artifact {
        Artifact {
            data,
            schema,
            encoded: OnceLock::new(),
        }
    }

    /// Payload.
    pub fn data(&self) -> &ArtifactData {
        &self.data
    }

    /// Schema identity of the payload.
    pub(crate) fn schema(&self) -> SchemaId {
        self.schema
    }

    /// Canonical byte encoding (deterministic JSON over Vec/ordered fields).
    /// Encoding is the expensive step of checkpointing an artifact, so a
    /// caller that needs the bytes should make them once and take the id and
    /// length afterwards — both are remembered from this call.
    pub fn to_bytes(&self) -> Vec<u8> {
        let bytes = serde_json::to_vec(self).expect("artifact serialisation cannot fail");
        let encoded = self.encoded.get_or_init(|| describe(&bytes));
        debug_assert_eq!(
            *encoded,
            describe(&bytes),
            "artifact changed after encoding"
        );
        #[cfg(test)]
        codec_log::record(encoded.0, codec_log::ENCODED);
        bytes
    }

    /// Inverse of [`Artifact::to_bytes`]. `bytes` must be a canonical
    /// encoding — what `to_bytes` returned, as every stored checkpoint is —
    /// because the content id and length are taken from them as given rather
    /// than from a second encoding.
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, serde_json::Error> {
        let artifact: Artifact = serde_json::from_slice(bytes)?;
        debug_assert_eq!(
            serde_json::to_vec(&artifact).ok().as_deref(),
            Some(bytes),
            "from_bytes expects a canonical encoding"
        );
        let encoded = describe(bytes);
        #[cfg(test)]
        codec_log::record(encoded.0, codec_log::DECODED);
        artifact
            .encoded
            .set(encoded)
            .expect("a freshly decoded artifact has no encoding recorded");
        Ok(artifact)
    }

    fn encoded(&self) -> (Hash256, u64) {
        if self.encoded.get().is_none() {
            self.to_bytes();
        }
        *self.encoded.get().expect("to_bytes records the encoding")
    }

    /// Content hash of the canonical encoding — the reuse/cache key.
    pub fn content_id(&self) -> Hash256 {
        self.encoded().0
    }

    /// The model score if this artifact is a trained model.
    pub fn score(&self) -> Option<Score> {
        match &self.data {
            ArtifactData::Model(m) => Some(m.score),
            _ => None,
        }
    }

    /// Length of the canonical encoding in bytes (drives storage cost
    /// accounting and the components' work-unit models).
    pub fn byte_len(&self) -> u64 {
        self.encoded().1
    }
}

/// What is remembered of an encoding: its content id and its length.
fn describe(bytes: &[u8]) -> (Hash256, u64) {
    (Hash256::of(bytes), bytes.len() as u64)
}

/// Test-only ledger of codec work: how many times this process encoded and
/// decoded each artifact, by content id — so a test can count the passes
/// over *its* artifacts while other tests run beside it.
#[cfg(test)]
pub(crate) mod codec_log {
    use mlcask_storage::hash::Hash256;
    use parking_lot::Mutex;
    use std::collections::HashMap;

    pub(crate) const ENCODED: usize = 0;
    pub(crate) const DECODED: usize = 1;

    static LOG: Mutex<Option<HashMap<Hash256, [u32; 2]>>> = Mutex::new(None);

    pub(crate) fn record(id: Hash256, what: usize) {
        LOG.lock()
            .get_or_insert_with(HashMap::new)
            .entry(id)
            .or_default()[what] += 1;
    }

    /// `[encodes, decodes]` of the artifact with content id `id` so far.
    pub(crate) fn counts(id: &Hash256) -> [u32; 2] {
        LOG.lock()
            .as_ref()
            .and_then(|log| log.get(id).copied())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use mlcask_ml::metrics::MetricKind;
    use mlcask_ml::tensor::Matrix;

    fn small_table() -> Table {
        Table::new(
            vec!["age".into(), "dx".into()],
            vec![
                vec![Cell::F(61.0), Cell::S("I10".into())],
                vec![Cell::Null, Cell::S("E11".into())],
            ],
        )
    }

    #[test]
    fn table_basics() {
        let t = small_table();
        assert_eq!(t.col_index("dx"), Some(1));
        assert_eq!(t.col_index("missing"), None);
        assert_eq!(t.null_count(), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn table_checks_row_width() {
        Table::new(vec!["a".into()], vec![vec![Cell::Null, Cell::Null]]);
    }

    #[test]
    fn cell_views() {
        assert_eq!(Cell::F(1.5).as_f32(), Some(1.5));
        assert_eq!(Cell::I(3).as_f32(), Some(3.0));
        assert_eq!(Cell::S("x".into()).as_f32(), None);
        assert!(Cell::Null.is_null());
        assert!(!Cell::F(0.0).is_null());
    }

    #[test]
    fn artifact_round_trip_and_id_stability() {
        let t = small_table();
        let schema = Schema::Relational {
            columns: t.columns.clone(),
        }
        .id();
        let a = Artifact::new(ArtifactData::Table(t), schema);
        let bytes = a.to_bytes();
        let back = Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.content_id(), a.content_id());
        assert_eq!(a.byte_len(), bytes.len() as u64);
    }

    #[test]
    fn content_id_changes_with_payload() {
        let t1 = small_table();
        let mut t2 = small_table();
        t2.rows[0][0] = Cell::F(62.0);
        let s = Schema::Relational {
            columns: t1.columns.clone(),
        }
        .id();
        let a = Artifact::new(ArtifactData::Table(t1), s);
        let b = Artifact::new(ArtifactData::Table(t2), s);
        assert_ne!(a.content_id(), b.content_id());
    }

    #[test]
    fn model_artifact_score() {
        let m = ModelArtifact {
            family: "mlp".into(),
            blob: vec![1, 2, 3],
            score: Score::new(MetricKind::Accuracy, 0.87),
        };
        let schema = Schema::Model {
            family: "mlp".into(),
        }
        .id();
        let a = Artifact::new(ArtifactData::Model(m), schema);
        assert_eq!(a.score().unwrap().raw, 0.87);
        assert_eq!(a.data().kind_label(), "model");
        // Non-model artifacts have no score.
        let t = Artifact::new(
            ArtifactData::Table(small_table()),
            Schema::Relational {
                columns: vec!["age".into(), "dx".into()],
            }
            .id(),
        );
        assert!(t.score().is_none());
    }

    #[test]
    fn kind_labels() {
        let f = Features {
            x: Matrix::zeros(1, 1),
            y: vec![0],
            n_classes: 2,
        };
        assert_eq!(ArtifactData::Features(f).kind_label(), "features");
        let d = Docs {
            docs: vec![],
            labels: vec![],
            vocab_size: 10,
        };
        assert_eq!(ArtifactData::Docs(d).kind_label(), "docs");
    }

    /// One artifact per payload variant, holding what an encoding can get
    /// wrong: `f32`s that widen (`0.1f32`), `-0.0`, `f32::MAX`, `i64::MIN`,
    /// every string escape, text of every UTF-8 width, empty containers.
    fn golden_artifacts() -> Vec<Artifact> {
        let table = Table::new(
            vec!["age".into(), "dx \"q\"\\".into()],
            vec![
                vec![Cell::F(0.1), Cell::S("I10\n\t\r\u{1}\u{1f}é漢😀/".into())],
                vec![Cell::Null, Cell::I(i64::MIN)],
                vec![Cell::F(-0.0), Cell::I(7)],
            ],
        );
        let table_schema = Schema::Relational {
            columns: table.columns.clone(),
        }
        .id();
        let model_schema = Schema::Model {
            family: "mlp".into(),
        }
        .id();
        vec![
            Artifact::new(ArtifactData::Table(table), table_schema),
            Artifact::new(
                ArtifactData::Docs(Docs {
                    docs: vec![vec!["a".into(), "b\\c".into()], vec![]],
                    labels: vec![0, 1],
                    vocab_size: 10,
                }),
                table_schema,
            ),
            Artifact::new(
                ArtifactData::Images(ImageSet {
                    images: vec![Image::new(2, vec![0.0, 0.25, 1.0, 0.1])],
                    labels: vec![1],
                    n_classes: 2,
                }),
                table_schema,
            ),
            Artifact::new(
                ArtifactData::Features(Features {
                    x: Matrix::from_vec(2, 2, vec![0.1, -0.0, 1e-7, f32::MAX]),
                    y: vec![0, 1],
                    n_classes: 2,
                }),
                table_schema,
            ),
            Artifact::new(
                ArtifactData::Sequences(SequenceSet {
                    seqs: vec![vec![0, 1, 2], vec![]],
                    labels: vec![0, 1],
                    n_symbols: 3,
                    n_classes: 2,
                }),
                table_schema,
            ),
            Artifact::new(
                ArtifactData::Model(ModelArtifact {
                    family: "mlp".into(),
                    blob: vec![0, 255, 16],
                    score: Score::new(MetricKind::Mse, 0.25),
                }),
                model_schema,
            ),
        ]
    }

    /// The canonical encoding and content id of [`golden_artifacts`], as the
    /// tree produced them before the codec was rewritten (PR 14's commit).
    /// Artifact ids key every checkpoint and feed every blob and commit id
    /// downstream: if one of these moves, stored histories stop resolving.
    const GOLDEN: [(&str, &str); 6] = [
        (
            r##"{"data":{"Table":{"columns":["age","dx \"q\"\\"],"rows":[[{"F":0.10000000149011612},{"S":"I10\n\t\r\u0001\u001fé漢😀/"}],["Null",{"I":-9223372036854775808}],[{"F":-0.0},{"I":7}]]}},"schema":"20940223b84005510311e3f13bec67dbeb796c350efc57fab5c97e38b2cba1c7"}"##,
            "fdfb5aa6f31dd9cd2add4864a663c7df1491f224fa5ab8ffc743956b2314de72",
        ),
        (
            r##"{"data":{"Docs":{"docs":[["a","b\\c"],[]],"labels":[0,1],"vocab_size":10}},"schema":"20940223b84005510311e3f13bec67dbeb796c350efc57fab5c97e38b2cba1c7"}"##,
            "849cea2dc791e13046780cc8b1e963e012bf6fe88ace96432d6ed547ea310642",
        ),
        (
            r##"{"data":{"Images":{"images":[{"side":2,"pixels":[0.0,0.25,1.0,0.10000000149011612]}],"labels":[1],"n_classes":2}},"schema":"20940223b84005510311e3f13bec67dbeb796c350efc57fab5c97e38b2cba1c7"}"##,
            "a03170af9b29ffabc412b9ce07f92860078abde3fc0fd67874c5ba0b143eeaee",
        ),
        (
            r##"{"data":{"Features":{"x":{"rows":2,"cols":2,"data":[0.10000000149011612,-0.0,1.0000000116860974e-7,3.4028234663852886e38]},"y":[0,1],"n_classes":2}},"schema":"20940223b84005510311e3f13bec67dbeb796c350efc57fab5c97e38b2cba1c7"}"##,
            "886baf8fee6c7ff8fef08271d7e1b5b4a0766143f208cdd3a66d986e03ec2f6d",
        ),
        (
            r##"{"data":{"Sequences":{"seqs":[[0,1,2],[]],"labels":[0,1],"n_symbols":3,"n_classes":2}},"schema":"20940223b84005510311e3f13bec67dbeb796c350efc57fab5c97e38b2cba1c7"}"##,
            "3c9f2d4a3b6a229690f4c9b95c804404bdc7be3e1b4542eed076b4f577414390",
        ),
        (
            r##"{"data":{"Model":{"family":"mlp","blob":[0,255,16],"score":{"kind":"Mse","raw":0.25,"value":4.0}}},"schema":"be3ed9e97b2e63d1eac51c67ef8330ec52d2604de963c9d3e6b99e47b011286e"}"##,
            "c6700ac77b71f434952cf099aaee8b17b275b4b47b849a50bbbf01d920c5818e",
        ),
    ];

    #[test]
    fn encodings_and_ids_match_the_golden_bytes() {
        for (artifact, (bytes, id)) in golden_artifacts().into_iter().zip(GOLDEN) {
            let label = artifact.data().kind_label();
            assert_eq!(
                String::from_utf8(artifact.to_bytes()).unwrap(),
                bytes,
                "{label}: encoding moved"
            );
            assert_eq!(artifact.content_id().to_hex(), id, "{label}: id moved");
            assert_eq!(artifact.byte_len(), bytes.len() as u64);
            // Decoding takes id and length from the bytes it was given, and
            // yields the same value and the same encoding again.
            let back = Artifact::from_bytes(bytes.as_bytes()).unwrap();
            assert_eq!(back, artifact, "{label}");
            assert_eq!(back.content_id().to_hex(), id, "{label}");
            assert_eq!(back.byte_len(), bytes.len() as u64);
            assert_eq!(back.to_bytes(), bytes.as_bytes(), "{label}");
            // The same bytes again from the generic tree, handed to the
            // codec directly (rendered in place, not from a copy).
            let tree: serde::Value = serde_json::from_str(bytes).unwrap();
            assert_eq!(serde_json::to_string(&tree).unwrap(), bytes, "{label}");
            assert_eq!(serde_json::to_vec(&tree).unwrap(), bytes.as_bytes());
        }
    }

    #[test]
    fn id_and_length_cost_one_encoding_and_travel_with_clones() {
        // A payload no other test builds, so the codec log counts only this.
        let artifact = Artifact::new(
            ArtifactData::Sequences(SequenceSet {
                seqs: vec![vec![271, 828, 182, 845]],
                labels: vec![0],
                n_symbols: 904,
                n_classes: 2,
            }),
            Schema::Relational {
                columns: vec!["memo".into()],
            }
            .id(),
        );
        let id = artifact.content_id();
        assert_eq!(codec_log::counts(&id), [1, 0], "the id needs an encoding");
        let copy = artifact.clone();
        for a in [&artifact, &copy] {
            assert_eq!((a.content_id(), a.byte_len()), (id, artifact.byte_len()));
        }
        assert_eq!(
            codec_log::counts(&id),
            [1, 0],
            "asked again, nothing encodes"
        );
        // What was remembered is no part of the value.
        let fresh = Artifact::new(artifact.data().clone(), artifact.schema());
        assert_eq!(fresh, artifact);
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&artifact).unwrap()
        );
        // A decoded artifact knows both without ever encoding.
        let decoded = Artifact::from_bytes(&artifact.to_bytes()).unwrap();
        let before = codec_log::counts(&id);
        assert_eq!(
            (decoded.content_id(), decoded.byte_len()),
            (id, artifact.byte_len())
        );
        assert_eq!(codec_log::counts(&id), before);
    }
}
