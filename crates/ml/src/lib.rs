//! # mlcask-ml
//!
//! From-scratch ML algorithm substrate for the MLCask reproduction. The
//! paper's pipelines are built from real analytics components (data
//! cleansing, feature extraction, HMM de-biasing, word embeddings, Zernike
//! moments, deep models, AdaBoost). MLCask itself is agnostic to what runs
//! inside a component, but the *evaluation* depends on components that (a)
//! have deterministic, seed-controlled behaviour, (b) produce genuinely
//! different pipeline scores for different version combinations, and (c)
//! have heterogeneous costs (cheap cleansing vs expensive embeddings). This
//! crate provides exactly those building blocks:
//!
//! * [`tensor`] — minimal dense matrix algebra.
//! * [`metrics`] — accuracy / AUC / F1 and the paper's score wrapper.
//! * [`mlp`] — feed-forward networks with SGD (the "CNN"/DL-model slot).
//! * [`hmm`] — discrete HMM + Baum–Welch (DPM de-biasing stage).
//! * [`adaboost`] — decision-stump boosting (Autolearn classifier).
//! * [`embedding`] — PPMI co-occurrence embeddings (SA pre-processing).
//! * [`zernike`] — Zernike moment image features (Autolearn features).
//! * [`autofeat`] — Autolearn-style feature generation/selection.
//! * [`distributed`] — synchronous data-parallel training simulator
//!   (Fig. 11; test-only).
//!
//! Every training routine exposes a deterministic `work_units` estimate so
//! the pipeline executor can charge virtual time proportional to real
//! computational effort (see ARCHITECTURE.md, "Virtual time: a field of
//! the report").

#![forbid(unsafe_code)]
// Numeric kernels intentionally use index loops that mirror the math
// notation; the iterator rewrites clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod adaboost;
pub mod autofeat;
pub mod distributed;
pub mod embedding;
pub mod hmm;
pub mod metrics;
pub mod mlp;
pub mod tensor;
pub mod zernike;

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::adaboost::{AdaBoost, AdaBoostConfig};
    pub use crate::autofeat::{AutoFeat, AutoFeatConfig};
    pub use crate::embedding::{Embedding, EmbeddingConfig};
    pub use crate::hmm::Hmm;
    pub use crate::metrics::{accuracy, auc, f1, MetricKind, Score};
    pub use crate::mlp::{synthetic_classification, Mlp, MlpConfig};
    pub use crate::tensor::Matrix;
    pub use crate::zernike::{zernike_moments, Image};
}
