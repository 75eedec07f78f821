//! Data schemas and the schema hash (§IV-B).
//!
//! The paper determines component compatibility purely from output data
//! schemas. For relational data, "all the column headers are extracted,
//! standardized, sorted, and then concatenated into a single flat vector"
//! and hashed (SHA-256). For non-relational data, the compatibility-relevant
//! meta information is used instead (image shape, vocabulary size, …).

use mlcask_storage::hash::Hash256;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Canonical identity of a data schema: the value two adjacent components
/// compare to decide compatibility (Definition 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SchemaId(pub Hash256);

impl fmt::Display for SchemaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schema:{}", self.0.short())
    }
}

/// Structural description of the data flowing between components.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Schema {
    /// Relational table identified by its column headers.
    Relational {
        /// Column names (order-insensitive; canonicalised before hashing).
        columns: Vec<String>,
    },
    /// Dense feature matrix with a fixed dimensionality.
    FeatureMatrix {
        /// Number of feature columns.
        dim: usize,
        /// Number of label classes carried alongside.
        n_classes: usize,
    },
    /// Token documents over a bounded vocabulary.
    TextCorpus {
        /// Vocabulary size bound (compatibility-relevant per §IV-B).
        vocab_size: usize,
    },
    /// Square grayscale images.
    ImageSet {
        /// Image side length in pixels ("shape for image datasets").
        side: usize,
        /// Number of label classes.
        n_classes: usize,
    },
    /// Categorical observation sequences (HMM inputs).
    Sequences {
        /// Number of distinct observation symbols.
        n_symbols: usize,
        /// Number of label classes.
        n_classes: usize,
    },
    /// A trained model artifact tagged with its metric family.
    Model {
        /// Free-form model family label (e.g. `"mlp"`, `"adaboost"`).
        family: String,
    },
}

/// Standardises a column header: trim, lowercase, inner whitespace → `_`.
fn standardize(col: &str) -> String {
    col.trim()
        .to_lowercase()
        .split_whitespace()
        .collect::<Vec<_>>()
        .join("_")
}

impl Schema {
    /// Computes the canonical schema hash.
    ///
    /// Relational schemas follow the paper's recipe exactly: standardise,
    /// sort, concatenate, hash. Non-relational schemas hash their
    /// compatibility-relevant meta information with a variant tag.
    pub fn id(&self) -> SchemaId {
        let h = match self {
            Schema::Relational { columns } => {
                let mut canon: Vec<String> = columns.iter().map(|c| standardize(c)).collect();
                canon.sort();
                let parts: Vec<&[u8]> = std::iter::once("relational".as_bytes())
                    .chain(canon.iter().map(|c| c.as_bytes()))
                    .collect();
                Hash256::of_parts(&parts)
            }
            Schema::FeatureMatrix { dim, n_classes } => Hash256::of_parts(&[
                b"features",
                &(*dim as u64).to_le_bytes(),
                &(*n_classes as u64).to_le_bytes(),
            ]),
            Schema::TextCorpus { vocab_size } => {
                Hash256::of_parts(&[b"text", &(*vocab_size as u64).to_le_bytes()])
            }
            Schema::ImageSet { side, n_classes } => Hash256::of_parts(&[
                b"images",
                &(*side as u64).to_le_bytes(),
                &(*n_classes as u64).to_le_bytes(),
            ]),
            Schema::Sequences {
                n_symbols,
                n_classes,
            } => Hash256::of_parts(&[
                b"sequences",
                &(*n_symbols as u64).to_le_bytes(),
                &(*n_classes as u64).to_le_bytes(),
            ]),
            Schema::Model { family } => Hash256::of_parts(&[b"model", family.as_bytes()]),
        };
        SchemaId(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relational_hash_is_order_insensitive() {
        let a = Schema::Relational {
            columns: vec!["age".into(), "diagnosis".into(), "lab_result".into()],
        };
        let b = Schema::Relational {
            columns: vec!["lab_result".into(), "age".into(), "diagnosis".into()],
        };
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn relational_hash_standardizes_headers() {
        let a = Schema::Relational {
            columns: vec!["  Age ".into(), "Lab Result".into()],
        };
        let b = Schema::Relational {
            columns: vec!["age".into(), "lab_result".into()],
        };
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn different_columns_different_hash() {
        let a = Schema::Relational {
            columns: vec!["age".into(), "diagnosis".into()],
        };
        let b = Schema::Relational {
            columns: vec!["age".into(), "diagnosis".into(), "procedure".into()],
        };
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn column_split_is_not_ambiguous() {
        // ["ab", "c"] vs ["a", "bc"] must hash differently (length-prefixed
        // parts, not plain concatenation).
        let a = Schema::Relational {
            columns: vec!["ab".into(), "c".into()],
        };
        let b = Schema::Relational {
            columns: vec!["a".into(), "bc".into()],
        };
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn feature_matrix_dims_matter() {
        let a = Schema::FeatureMatrix {
            dim: 10,
            n_classes: 2,
        };
        let b = Schema::FeatureMatrix {
            dim: 12,
            n_classes: 2,
        };
        let c = Schema::FeatureMatrix {
            dim: 10,
            n_classes: 3,
        };
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_eq!(
            a.id(),
            Schema::FeatureMatrix {
                dim: 10,
                n_classes: 2
            }
            .id()
        );
    }

    #[test]
    fn variant_tags_prevent_cross_kind_collisions() {
        // Same numeric payloads in different variants must not collide.
        let img = Schema::ImageSet {
            side: 16,
            n_classes: 10,
        };
        let seq = Schema::Sequences {
            n_symbols: 16,
            n_classes: 10,
        };
        assert_ne!(img.id(), seq.id());
    }

    #[test]
    fn text_vocab_size_is_compat_signal() {
        let a = Schema::TextCorpus { vocab_size: 1000 };
        let b = Schema::TextCorpus { vocab_size: 2000 };
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn model_family_distinguishes() {
        assert_ne!(
            Schema::Model {
                family: "mlp".into()
            }
            .id(),
            Schema::Model {
                family: "adaboost".into()
            }
            .id()
        );
    }

    #[test]
    fn display_is_short() {
        let id = Schema::Relational {
            columns: vec!["a".into()],
        }
        .id();
        assert!(id.to_string().starts_with("schema:"));
        assert_eq!(id.to_string().len(), "schema:".len() + 8);
    }

    #[test]
    fn serde_round_trip() {
        let s = Schema::ImageSet {
            side: 8,
            n_classes: 4,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: Schema = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.id(), s.id());
    }
}
