//! The SA (sentiment analysis) pipeline (§VII-A).
//!
//! `dataset → corpus_clean → token_filter → embed_featurize → model`: the
//! first three steps process the corpus and train word embeddings; the last
//! trains the classifier. Embedding training is the expensive step — the
//! paper points at iteration 9 of Fig. 5(c) where a word-embedding update
//! forces its costly re-execution.

use crate::common::{mlp_work_units, train_eval_mlp, Workload};
use crate::data::reviews;
use mlcask_ml::embedding::{Embedding, EmbeddingConfig};
use mlcask_ml::mlp::MlpConfig;
use mlcask_ml::tensor::Matrix;
use mlcask_pipeline::artifact::{Artifact, ArtifactData, Docs, Features};
use mlcask_pipeline::component::{Component, ComponentHandle, ComponentKey, StageKind};
use mlcask_pipeline::errors::{PipelineError, Result};
use mlcask_pipeline::schema::{Schema, SchemaId};
use mlcask_pipeline::semver::SemVer;
use std::sync::Arc;

/// Reviews generated.
pub(crate) const N_REVIEWS: usize = 240;
/// Tokens per review.
pub(crate) const REVIEW_LEN: usize = 24;
/// Embedding dimension of the `0.x` featurizer versions.
pub(crate) const DIM_V0: usize = 10;
/// Embedding dimension of the schema-changing `1.0` version.
pub(crate) const DIM_V1: usize = 16;

fn corpus_schema() -> Schema {
    Schema::TextCorpus {
        vocab_size: reviews::POSITIVE.len() + reviews::NEGATIVE.len() + reviews::NEUTRAL.len(),
    }
}

/// Feature dim = embedding dim + 2 summary statistics.
pub(crate) fn feature_dim(embed_dim: usize) -> usize {
    embed_dim + 2
}

struct SaData {
    version: SemVer,
}

impl Component for SaData {
    fn name(&self) -> &str {
        "sa_data"
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
        corpus_schema().id()
    }
    fn run(&self, _inputs: &[Artifact]) -> Result<Artifact> {
        let d = reviews::generate(N_REVIEWS, REVIEW_LEN, 90 + self.version.increment as u64);
        Ok(Artifact::new(ArtifactData::Docs(d), self.output_schema()))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        (N_REVIEWS * REVIEW_LEN) as u64
    }
    fn ns_per_unit(&self) -> u64 {
        2_000
    }
}

/// Corpus normalisation: lowercasing plus (v0.1+) collapsing of immediate
/// duplicate tokens.
struct CorpusClean {
    version: SemVer,
}

impl Component for CorpusClean {
    fn name(&self) -> &str {
        "corpus_clean"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(corpus_schema().id())
    }
    fn output_schema(&self) -> SchemaId {
        corpus_schema().id()
    }
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Docs(d) = inputs[0].data() else {
            return Err(PipelineError::WrongArtifactKind {
                component: self.key(),
                expected: "docs",
                actual: inputs[0].data().kind_label(),
            });
        };
        let dedup = self.version.increment >= 1;
        // Later increments additionally truncate overly long reviews, so
        // every version emits a distinct corpus.
        let max_len = if self.version.increment >= 2 {
            REVIEW_LEN.saturating_sub(self.version.increment as usize)
        } else {
            usize::MAX
        };
        let docs = d
            .docs
            .iter()
            .map(|doc| {
                let mut out: Vec<String> = Vec::with_capacity(doc.len());
                for t in doc.iter().take(max_len) {
                    let t = t.to_lowercase();
                    if dedup && out.last() == Some(&t) {
                        continue;
                    }
                    out.push(t);
                }
                out
            })
            .collect();
        Ok(Artifact::new(
            ArtifactData::Docs(Docs {
                docs,
                labels: d.labels.clone(),
                vocab_size: d.vocab_size,
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs.first().map(|a| a.byte_len() / 16).unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        1_200
    }
}

/// Rare-token filtering: drops tokens whose corpus frequency falls below a
/// version-dependent threshold.
struct TokenFilter {
    version: SemVer,
}

impl Component for TokenFilter {
    fn name(&self) -> &str {
        "token_filter"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(corpus_schema().id())
    }
    fn output_schema(&self) -> SchemaId {
        corpus_schema().id()
    }
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Docs(d) = inputs[0].data() else {
            return Err(PipelineError::WrongArtifactKind {
                component: self.key(),
                expected: "docs",
                actual: inputs[0].data().kind_label(),
            });
        };
        // Thresholds scale with the corpus so each version filters a
        // different slice of the frequency tail.
        let min_count = 2 + 40 * self.version.increment as usize;
        let mut counts: std::collections::HashMap<&str, usize> = Default::default();
        for doc in &d.docs {
            for t in doc {
                *counts.entry(t.as_str()).or_default() += 1;
            }
        }
        let docs: Vec<Vec<String>> = d
            .docs
            .iter()
            .map(|doc| {
                doc.iter()
                    .filter(|t| counts.get(t.as_str()).copied().unwrap_or(0) >= min_count)
                    .cloned()
                    .collect()
            })
            .collect();
        Ok(Artifact::new(
            ArtifactData::Docs(Docs {
                docs,
                labels: d.labels.clone(),
                vocab_size: d.vocab_size,
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs.first().map(|a| a.byte_len() / 16).unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        1_200
    }
}

/// Embedding training + document featurisation (the costly stage). The
/// `schema = 1` version widens the embedding dimension (schema change).
struct EmbedFeaturize {
    version: SemVer,
    iterations: usize,
}

impl EmbedFeaturize {
    fn dim(&self) -> usize {
        if self.version.schema >= 1 {
            DIM_V1
        } else {
            DIM_V0
        }
    }
}

impl Component for EmbedFeaturize {
    fn name(&self) -> &str {
        "embed_featurize"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(corpus_schema().id())
    }
    fn output_schema(&self) -> SchemaId {
        Schema::FeatureMatrix {
            dim: feature_dim(self.dim()),
            n_classes: 2,
        }
        .id()
    }
    fn run(&self, inputs: &[Artifact]) -> Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Docs(d) = inputs[0].data() else {
            return Err(PipelineError::WrongArtifactKind {
                component: self.key(),
                expected: "docs",
                actual: inputs[0].data().kind_label(),
            });
        };
        let emb = Embedding::train(
            &d.docs,
            EmbeddingConfig {
                dim: self.dim(),
                window: 3,
                iterations: self.iterations,
                min_count: 1,
            },
        );
        let dim = feature_dim(self.dim());
        let mut x = Matrix::zeros(d.docs.len(), dim);
        for (r, doc) in d.docs.iter().enumerate() {
            let v = emb.embed_document(doc);
            for (c, val) in v.iter().enumerate() {
                x.set(r, c, *val);
            }
            x.set(r, self.dim(), doc.len() as f32 / REVIEW_LEN as f32);
            let distinct: std::collections::HashSet<&String> = doc.iter().collect();
            x.set(
                r,
                self.dim() + 1,
                distinct.len() as f32 / doc.len().max(1) as f32,
            );
        }
        Ok(Artifact::new(
            ArtifactData::Features(Features {
                x,
                y: d.labels.clone(),
                n_classes: 2,
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        let vocab = reviews::POSITIVE.len() + reviews::NEGATIVE.len() + reviews::NEUTRAL.len();
        Embedding::work_units(
            vocab,
            &EmbeddingConfig {
                dim: self.dim(),
                window: 3,
                iterations: self.iterations,
                min_count: 1,
            },
        )
    }
    fn ns_per_unit(&self) -> u64 {
        // Word-embedding training dominates SA pre-processing (Fig. 6c).
        150_000
    }
}

/// Terminal sentiment classifier.
struct SaModel {
    version: SemVer,
    expects_embed_dim: usize,
    config: MlpConfig,
}

impl Component for SaModel {
    fn name(&self) -> &str {
        "sa_model"
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
                dim: feature_dim(self.expects_embed_dim),
                n_classes: 2,
            }
            .id(),
        )
    }
    fn output_schema(&self) -> SchemaId {
        Schema::Model {
            family: "sa-dl".into(),
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
        let model = train_eval_mlp(f, self.config.clone(), "sa-dl");
        Ok(Artifact::new(
            ArtifactData::Model(model),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        mlp_work_units(feature_dim(self.expects_embed_dim), &self.config, N_REVIEWS)
    }
    fn ns_per_unit(&self) -> u64 {
        1_200
    }
}

fn model_config(increment: u32) -> MlpConfig {
    let widths = [12usize, 14, 16, 16, 18, 20, 22, 24];
    let i = (increment as usize).min(widths.len() - 1);
    MlpConfig {
        hidden: vec![widths[i]],
        learning_rate: 0.1,
        epochs: 12 + 2 * i,
        batch_size: 32,
        l2: 1e-4,
        seed: 300 + increment as u64,
    }
}

/// Builds the SA workload with its full version family.
pub fn build() -> Workload {
    let mk_key = |h: &ComponentHandle| h.key();
    let data: ComponentHandle = Arc::new(SaData {
        version: SemVer::master(0, 0),
    });
    let cleans: Vec<ComponentHandle> = (0..5)
        .map(|i| -> ComponentHandle {
            Arc::new(CorpusClean {
                version: SemVer::master(0, i),
            })
        })
        .collect();
    let filters: Vec<ComponentHandle> = (0..4)
        .map(|i| -> ComponentHandle {
            Arc::new(TokenFilter {
                version: SemVer::master(0, i),
            })
        })
        .collect();
    let mut embeds: Vec<ComponentHandle> = (0..4)
        .map(|i| -> ComponentHandle {
            Arc::new(EmbedFeaturize {
                version: SemVer::master(0, i),
                iterations: 10 + 3 * i as usize,
            })
        })
        .collect();
    embeds.push(Arc::new(EmbedFeaturize {
        version: SemVer::master(1, 0),
        iterations: 14,
    }));
    let mut models: Vec<ComponentHandle> = Vec::new();
    for inc in [0u32, 1, 4, 5, 6, 7] {
        models.push(Arc::new(SaModel {
            version: SemVer::master(0, inc),
            expects_embed_dim: DIM_V0,
            config: model_config(inc),
        }));
    }
    for inc in [2u32, 3] {
        models.push(Arc::new(SaModel {
            version: SemVer::master(0, inc),
            expects_embed_dim: DIM_V1,
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
        "sa_data".to_string(),
        "corpus_clean".to_string(),
        "token_filter".to_string(),
        "embed_featurize".to_string(),
        "sa_model".to_string(),
    ];
    let initial = vec![
        data.key(),
        cleans[0].key(),
        filters[0].key(),
        embeds[0].key(),
        find_model(0),
    ];
    let chains = vec![
        vec![data.key()],
        cleans.iter().map(mk_key).collect(),
        filters.iter().map(mk_key).collect(),
        embeds[..4].iter().map(mk_key).collect(),
        vec![
            find_model(0),
            find_model(1),
            find_model(4),
            find_model(5),
            find_model(6),
            find_model(7),
        ],
    ];
    let embed_v1 = embeds[4].key();
    let head_updates = vec![vec![
        data.key(),
        cleans[1].key(),
        filters[0].key(),
        embeds[0].key(),
        find_model(4),
    ]];
    let dev_updates = vec![
        vec![
            data.key(),
            cleans[0].key(),
            filters[0].key(),
            embeds[0].key(),
            find_model(1),
        ],
        vec![
            data.key(),
            cleans[0].key(),
            filters[0].key(),
            embed_v1.clone(),
            find_model(2),
        ],
        vec![
            data.key(),
            cleans[0].key(),
            filters[0].key(),
            embed_v1.clone(),
            find_model(3),
        ],
    ];

    let mut handles = vec![data];
    handles.extend(cleans);
    handles.extend(filters);
    handles.extend(embeds);
    handles.extend(models);
    Workload {
        name: "sa".into(),
        slots,
        handles,
        initial,
        chains,
        model_slot: 4,
        incompat_update: (3, embed_v1),
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
    }

    #[test]
    fn initial_pipeline_separates_sentiment() {
        let w = build();
        let (score, snap) = run_pipeline(&w, &w.initial);
        assert!(score > 0.7, "SA accuracy {score}");
        // Embedding (pre-processing) dominates (Fig. 6c).
        assert!(snap.preprocess_ns > snap.training_ns);
    }

    #[test]
    fn wide_embedding_with_adapted_model_works() {
        let w = build();
        let (score, _) = run_pipeline(&w, &w.dev_updates[1]);
        assert!(score > 0.6);
    }
}
