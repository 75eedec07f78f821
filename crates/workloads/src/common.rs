//! Shared scaffolding for the evaluation workloads.
//!
//! Every workload exposes the same structure: a pipeline DAG (the paper's
//! four pipelines are chains; [`crate::fusion`] is a diamond), a family of
//! component versions mirroring the paper's Figs. 2–3 histories, an
//! increment-only *linear chain* per slot (for the Fig. 5–7 scenario), one
//! schema-changing *incompatible update* (the last linear iteration), and
//! the Fig. 3 branch histories (for the Fig. 8–10 merge scenario).

use crate::errors::Result;
use mlcask_core::registry::ComponentRegistry;
use mlcask_ml::metrics::{MetricKind, Score};
use mlcask_ml::mlp::{Mlp, MlpConfig};
use mlcask_pipeline::artifact::{Features, ModelArtifact};
use mlcask_pipeline::component::{ComponentHandle, ComponentKey};
use mlcask_pipeline::dag::PipelineDag;

/// A fully described evaluation workload.
pub struct Workload {
    /// Workload name (matches the paper: readmission / dpm / sa / autolearn).
    pub name: String,
    /// Slot names in pipeline order.
    pub slots: Vec<String>,
    /// Every component version (to be registered before use).
    pub handles: Vec<ComponentHandle>,
    /// The initial (`0.0` everywhere) pipeline.
    pub initial: Vec<ComponentKey>,
    /// Increment-only version chain per slot (index-aligned with `slots`);
    /// `chain[0]` is the initial version.
    pub chains: Vec<Vec<ComponentKey>>,
    /// Which slot holds the model.
    pub model_slot: usize,
    /// The schema-changing pre-processing update injected at the last
    /// linear-versioning iteration: `(slot, version)`.
    pub incompat_update: (usize, ComponentKey),
    /// Successive full pipelines committed on HEAD after branching (Fig. 3).
    pub head_updates: Vec<Vec<ComponentKey>>,
    /// Successive full pipelines committed on MERGE_HEAD (Fig. 3).
    pub dev_updates: Vec<Vec<ComponentKey>>,
    /// Data-flow edges by slot name. Empty means a linear chain over
    /// `slots` (the shape of the paper's four pipelines); non-empty gives
    /// the full DAG (e.g. the [`crate::fusion`] diamond). Slot order must
    /// be topological.
    pub edges: Vec<(String, String)>,
}

impl Workload {
    /// The pipeline DAG: a chain over `slots` unless explicit `edges` give
    /// a non-chain shape.
    pub fn dag(&self) -> PipelineDag {
        let names: Vec<&str> = self.slots.iter().map(|s| s.as_str()).collect();
        if self.edges.is_empty() {
            return PipelineDag::chain(&names).expect("workload slots form a valid chain");
        }
        let mut dag = PipelineDag::new();
        for n in &names {
            dag.add_node(n).expect("workload slot names are unique");
        }
        for (f, t) in &self.edges {
            dag.add_edge(f, t)
                .expect("workload edges reference known slots");
        }
        dag
    }

    /// Registers every component version with a registry, as one batch
    /// ([`ComponentRegistry::register_many`]).
    pub fn register_all(&self, registry: &ComponentRegistry) -> Result<()> {
        registry.register_many(&self.handles)?;
        Ok(())
    }

    /// Pre-processing slots (everything but the dataset and the model).
    pub(crate) fn preproc_slots(&self) -> Vec<usize> {
        (1..self.slots.len())
            .filter(|&i| i != self.model_slot)
            .collect()
    }

    /// Sanity checks the internal structure (used by tests).
    #[cfg(test)]
    pub(crate) fn validate(&self) {
        assert_eq!(self.slots.len(), self.chains.len());
        assert_eq!(self.slots.len(), self.initial.len());
        for (slot, chain) in self.chains.iter().enumerate() {
            assert!(!chain.is_empty(), "slot {slot} has an empty chain");
            assert_eq!(chain[0], self.initial[slot], "chain must start at initial");
            for k in chain {
                assert_eq!(k.name, self.slots[slot], "chain key in wrong slot");
            }
        }
        assert!(self.model_slot < self.slots.len());
        let (slot, ref v) = self.incompat_update;
        assert!(
            slot != self.model_slot,
            "incompat update must be pre-processing"
        );
        assert_eq!(v.name, self.slots[slot]);
        for update in self.head_updates.iter().chain(self.dev_updates.iter()) {
            assert_eq!(update.len(), self.slots.len());
        }
        // The DAG must be well-formed *and* listed in topological slot
        // order (node ids equal slot indices; the merge-search tree indexes
        // per-level path state by predecessor slot). With in-order slots,
        // the canonical topo order is exactly 0..n.
        let dag = self.dag();
        assert_eq!(
            dag.topo_order().expect("workload DAG is acyclic"),
            (0..self.slots.len()).collect::<Vec<_>>(),
            "workload slots must be listed in topological order"
        );
    }
}

/// Deterministic *stratified* split: within each class, every `k`-th member
/// is held out. Generators emit labels in cyclic patterns, so a plain
/// every-`k`-th split can collapse the eval set onto a single class; the
/// stratified variant keeps class proportions intact.
pub(crate) fn stratified_holdout(labels: &[usize], every_k: usize) -> (Vec<usize>, Vec<usize>) {
    let mut per_class_seen: std::collections::HashMap<usize, usize> = Default::default();
    let mut train = Vec::with_capacity(labels.len());
    let mut eval = Vec::with_capacity(labels.len() / every_k + 1);
    for (i, &y) in labels.iter().enumerate() {
        let seen = per_class_seen.entry(y).or_insert(0);
        if (*seen).is_multiple_of(every_k) {
            eval.push(i);
        } else {
            train.push(i);
        }
        *seen += 1;
    }
    (train, eval)
}

/// Trains an MLP on a deterministic split of `features` and packages the
/// held-out metric as a model artifact — the standard terminal stage of the
/// Readmission/DPM/SA pipelines.
///
/// Binary tasks are scored by held-out **AUC**: it is continuous, so the
/// metric-driven merge and prioritized search see real orderings rather
/// than the ties a small-eval-set accuracy would produce. Multiclass tasks
/// fall back to accuracy.
pub(crate) fn train_eval_mlp(
    features: &Features,
    config: MlpConfig,
    family: &str,
) -> ModelArtifact {
    let (train_idx, eval_idx) = stratified_holdout(&features.y, 4);
    let x_train = features.x.select_rows(&train_idx);
    let y_train: Vec<usize> = train_idx.iter().map(|&i| features.y[i]).collect();
    let x_eval = features.x.select_rows(&eval_idx);
    let y_eval: Vec<usize> = eval_idx.iter().map(|&i| features.y[i]).collect();
    let mut mlp = Mlp::new(features.x.cols(), features.n_classes, config.clone());
    let final_loss = mlp.fit(&x_train, &y_train);
    let score = if features.n_classes == 2 {
        let probs = mlp.predict_proba(&x_eval);
        let pos: Vec<f64> = (0..x_eval.rows()).map(|r| probs.get(r, 1) as f64).collect();
        Score::new(MetricKind::Auc, mlcask_ml::metrics::auc(&pos, &y_eval))
    } else {
        Score::new(MetricKind::Accuracy, mlp.evaluate(&x_eval, &y_eval))
    };
    let blob = serde_json::to_vec(&(config, final_loss, mlp.loss_history.clone()))
        .expect("model summary serialises");
    ModelArtifact {
        family: family.to_string(),
        blob,
        score,
    }
}

/// MLP training work in abstract units for the given shape (mirrors
/// `Mlp::training_work_units` without constructing the network).
pub(crate) fn mlp_work_units(input_dim: usize, config: &MlpConfig, n_samples: usize) -> u64 {
    let mut dims = vec![input_dim];
    dims.extend_from_slice(&config.hidden);
    dims.push(2);
    let params: usize = dims.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
    (params as u64) * (n_samples as u64) * (config.epochs as u64) * 6
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcask_ml::mlp::synthetic_classification;

    #[test]
    fn train_eval_mlp_produces_score() {
        let (x, y) = synthetic_classification(200, 6, 2, 0.2, 9);
        let f = Features { x, y, n_classes: 2 };
        let m = train_eval_mlp(&f, MlpConfig::default(), "test");
        assert!(m.score.raw > 0.6, "separable data should score well");
        assert!(!m.blob.is_empty());
        assert_eq!(m.family, "test");
        // Deterministic.
        let m2 = train_eval_mlp(&f, MlpConfig::default(), "test");
        assert_eq!(m.score.raw, m2.score.raw);
    }

    #[test]
    fn work_units_formula_matches_model() {
        let cfg = MlpConfig {
            hidden: vec![8],
            ..Default::default()
        };
        let units = mlp_work_units(10, &cfg, 50);
        let model = Mlp::new(10, 2, cfg);
        assert_eq!(units, model.training_work_units(50));
    }
}
