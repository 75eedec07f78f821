//! The what-if component-swap scenario behind incremental re-evaluation.
//!
//! A team has committed a five-stage pipeline whose pre-processing prefix
//! (`ingest -> clean -> featurize`) is compute-heavy, and now asks a batch
//! of *what-if* questions: "how would the score move if we swapped the
//! feature-selection stage for variant k?" Every what-if candidate shares
//! the expensive prefix and differs only in the cheap suffix
//! (`select -> train`), which is exactly the shape the provenance frontier
//! cut exploits — the prefix is cut out of every candidate's plan
//! statically, so re-evaluation touches only the dirty suffix.
//!
//! The scenario also carries an *alternative ingest version* producing
//! different data: swapping it invalidates every downstream fingerprint,
//! which tests pin as the frontier-invalidation property.

use crate::errors::Result;
use mlcask_core::registry::ComponentRegistry;
use mlcask_core::search_space::SearchSpaces;
use mlcask_ml::metrics::{MetricKind, Score};
use mlcask_ml::tensor::Matrix;
use mlcask_pipeline::artifact::{Artifact, ArtifactData, Features, ModelArtifact};
use mlcask_pipeline::component::{Component, ComponentHandle, ComponentKey, StageKind};
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::schema::{Schema, SchemaId};
use mlcask_pipeline::semver::SemVer;
use std::sync::Arc;

/// Rows in the synthetic feature matrix.
pub(crate) const ROWS: usize = 300;
/// Feature dimensionality.
pub(crate) const DIM: usize = 16;
/// Gradient epochs per heavy prefix stage (`clean`, `featurize`).
pub(crate) const PREFIX_EPOCHS: usize = 6000;
/// Gradient epochs per light suffix stage (`select`).
pub(crate) const SUFFIX_EPOCHS: usize = 2;
/// Number of what-if `select` variants beyond the committed base version.
pub(crate) const VARIANTS: usize = 4;

fn feature_schema() -> SchemaId {
    Schema::FeatureMatrix {
        dim: DIM,
        n_classes: 2,
    }
    .id()
}

/// Deterministic logistic-regression epochs; the learned weights re-scale
/// the feature view so downstream scores depend on every upstream stage.
fn gradient_rescale(f: &Features, epochs: usize, lr: f32) -> Features {
    let mut w = [0.05f32; DIM];
    for _ in 0..epochs {
        let mut grad = [0.0f32; DIM];
        for r in 0..f.x.rows() {
            let mut z = 0.0f32;
            for (c, wc) in w.iter().enumerate() {
                z += wc * f.x.get(r, c);
            }
            let p = 1.0 / (1.0 + (-z).exp());
            let err = p - (f.y[r] as f32);
            for (c, g) in grad.iter_mut().enumerate() {
                *g += err * f.x.get(r, c);
            }
        }
        for (wc, g) in w.iter_mut().zip(&grad) {
            *wc -= lr * g / f.x.rows() as f32;
        }
    }
    let x = Matrix::from_fn(f.x.rows(), DIM, |r, c| f.x.get(r, c) * (1.0 + w[c].abs()));
    Features {
        x,
        y: f.y.clone(),
        n_classes: f.n_classes,
    }
}

/// Source stage: generates the synthetic dataset. The version increment
/// seeds the generator, so a new ingest version means new *data* and
/// therefore new fingerprints everywhere downstream.
struct WhatIfIngest {
    version: SemVer,
}

impl Component for WhatIfIngest {
    fn name(&self) -> &str {
        "ingest"
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
        feature_schema()
    }
    fn run(&self, _inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        let salt = self.version.increment as usize;
        let x = Matrix::from_fn(ROWS, DIM, |r, c| {
            ((r * 31 + c * 7 + salt * 13) % 17) as f32 / 17.0
        });
        let y = (0..ROWS).map(|r| (r + salt) % 2).collect();
        Ok(Artifact::new(
            ArtifactData::Features(Features { x, y, n_classes: 2 }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        (ROWS * DIM) as u64
    }
}

/// Heavy prefix stage (`clean` or `featurize`): real gradient work.
struct WhatIfHeavy {
    name: &'static str,
    lr: f32,
}

impl Component for WhatIfHeavy {
    fn name(&self) -> &str {
        self.name
    }
    fn version(&self) -> SemVer {
        SemVer::master(0, 0)
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(feature_schema())
    }
    fn output_schema(&self) -> SchemaId {
        feature_schema()
    }
    fn run(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Features(f) = inputs[0].data() else {
            unreachable!("schema-checked input is a feature matrix");
        };
        Ok(Artifact::new(
            ArtifactData::Features(gradient_rescale(f, PREFIX_EPOCHS, self.lr)),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs
            .first()
            .map(|a| a.byte_len() * PREFIX_EPOCHS as u64)
            .unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        4
    }
}

/// The swap slot: a light feature-selection stage whose version picks a
/// different re-weighting — each what-if variant lands a different score.
struct WhatIfSelect {
    version: SemVer,
}

impl Component for WhatIfSelect {
    fn name(&self) -> &str {
        "select"
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(feature_schema())
    }
    fn output_schema(&self) -> SchemaId {
        feature_schema()
    }
    fn run(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Features(f) = inputs[0].data() else {
            unreachable!("schema-checked input is a feature matrix");
        };
        let lr = 0.02 + self.version.increment as f32 * 0.015;
        Ok(Artifact::new(
            ArtifactData::Features(gradient_rescale(f, SUFFIX_EPOCHS, lr)),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs
            .first()
            .map(|a| a.byte_len() * SUFFIX_EPOCHS as u64)
            .unwrap_or(1)
    }
    fn ns_per_unit(&self) -> u64 {
        4
    }
}

/// Terminal stage: scores a simple threshold model on the selected view.
struct WhatIfTrain;

impl Component for WhatIfTrain {
    fn name(&self) -> &str {
        "train"
    }
    fn version(&self) -> SemVer {
        SemVer::master(0, 0)
    }
    fn stage(&self) -> StageKind {
        StageKind::ModelTraining
    }
    fn input_schema(&self) -> Option<SchemaId> {
        Some(feature_schema())
    }
    fn output_schema(&self) -> SchemaId {
        Schema::Model {
            family: "whatif".into(),
        }
        .id()
    }
    fn run(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        self.check_compatibility(inputs)?;
        let ArtifactData::Features(f) = inputs[0].data() else {
            unreachable!("schema-checked input is a feature matrix");
        };
        let mut correct = 0usize;
        for r in 0..f.x.rows() {
            let mut z = 0.0f32;
            for c in 0..DIM {
                z += f.x.get(r, c) - 0.55;
            }
            if (z > 0.0) as usize == f.y[r] {
                correct += 1;
            }
        }
        let acc = correct as f64 / f.x.rows() as f64;
        Ok(Artifact::new(
            ArtifactData::Model(ModelArtifact {
                family: "whatif".into(),
                blob: vec![1u8; 32],
                score: Score::new(MetricKind::Accuracy, acc),
            }),
            self.output_schema(),
        ))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        inputs.iter().map(|a| a.byte_len()).sum::<u64>().max(1)
    }
}

/// The what-if scenario: slot names, every registrable version, the
/// committed base pipeline, and the what-if swap candidates.
pub struct WhatIf {
    /// Slot names in (topological) chain order.
    pub(crate) slots: Vec<&'static str>,
    /// Every component version, for registration.
    pub(crate) handles: Vec<ComponentHandle>,
    /// The committed base pipeline (variant 0 in the swap slot).
    pub base: Vec<ComponentKey>,
    /// The swap-slot versions, base first then the what-if variants.
    pub(crate) variants: Vec<ComponentKey>,
    /// An alternative ingest version producing *different data* — swapping
    /// it in must invalidate every downstream frontier fingerprint.
    pub(crate) alt_ingest: ComponentKey,
    /// Index of the swap slot (`select`).
    pub(crate) swap_slot: usize,
}

impl WhatIf {
    /// The pipeline chain `ingest -> clean -> featurize -> select -> train`.
    pub fn dag(&self) -> PipelineDag {
        PipelineDag::chain(&self.slots).expect("what-if slots form a valid chain")
    }

    /// Registers every component version with a registry, as one batch
    /// ([`ComponentRegistry::register_many`]).
    pub fn register_all(&self, registry: &ComponentRegistry) -> Result<()> {
        registry.register_many(&self.handles)?;
        Ok(())
    }

    /// The what-if candidate space: one version everywhere except the swap
    /// slot, which carries the base version and every variant. A merge
    /// search over this space *is* the what-if batch.
    pub fn spaces(&self) -> SearchSpaces {
        let per_slot = self
            .base
            .iter()
            .enumerate()
            .map(|(i, k)| {
                if i == self.swap_slot {
                    self.variants.clone()
                } else {
                    vec![k.clone()]
                }
            })
            .collect();
        SearchSpaces {
            slot_names: self.slots.iter().map(|s| s.to_string()).collect(),
            per_slot,
        }
    }

    /// The base pipeline with the *ingest* slot replaced by the alternative
    /// data version.
    pub fn swap_ingest(&self) -> Vec<ComponentKey> {
        let mut keys = self.base.clone();
        keys[0] = self.alt_ingest.clone();
        keys
    }
}

/// Builds the scenario: heavy 3-stage prefix, light 2-stage suffix, and
/// `VARIANTS` what-if versions of the `select` stage.
pub fn build() -> WhatIf {
    let slots = vec!["ingest", "clean", "featurize", "select", "train"];
    let ingest = Arc::new(WhatIfIngest {
        version: SemVer::master(0, 0),
    });
    let alt_ingest = Arc::new(WhatIfIngest {
        version: SemVer::master(0, 1),
    });
    let clean = Arc::new(WhatIfHeavy {
        name: "clean",
        lr: 0.05,
    });
    let featurize = Arc::new(WhatIfHeavy {
        name: "featurize",
        lr: 0.07,
    });
    let selects: Vec<Arc<WhatIfSelect>> = (0..=VARIANTS as u32)
        .map(|i| {
            Arc::new(WhatIfSelect {
                version: SemVer::master(0, i),
            })
        })
        .collect();
    let train = Arc::new(WhatIfTrain);

    let base = vec![
        ingest.key(),
        clean.key(),
        featurize.key(),
        selects[0].key(),
        train.key(),
    ];
    let variants = selects.iter().map(|s| s.key()).collect();
    let mut handles: Vec<ComponentHandle> =
        vec![ingest, alt_ingest.clone(), clean, featurize, train];
    handles.extend(selects.into_iter().map(|s| s as ComponentHandle));
    WhatIf {
        slots,
        handles,
        base,
        variants,
        alt_ingest: alt_ingest.key(),
        swap_slot: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_shape() {
        let w = build();
        assert_eq!(w.slots.len(), 5);
        assert_eq!(w.base.len(), 5);
        assert_eq!(w.variants.len(), VARIANTS + 1);
        assert_eq!(w.base[w.swap_slot], w.variants[0]);
        assert_eq!(w.spaces().candidate_upper_bound(), VARIANTS + 1);
        assert_eq!(
            w.dag().topo_order().unwrap(),
            (0..5).collect::<Vec<usize>>()
        );
    }

    #[test]
    fn swaps_change_exactly_one_slot() {
        let w = build();
        let alt = w.swap_ingest();
        assert_eq!(alt[0], w.alt_ingest);
        assert_eq!(alt[1..], w.base[1..]);
    }

    #[test]
    fn components_register_and_run() {
        use mlcask_storage::store::ChunkStore;
        let w = build();
        let store = Arc::new(ChunkStore::in_memory_small());
        let reg = ComponentRegistry::new(store);
        w.register_all(&reg).unwrap();
        for k in &w.base {
            assert!(reg.get(k).is_some());
        }
        assert!(reg.get(&w.alt_ingest).is_some());
    }
}
