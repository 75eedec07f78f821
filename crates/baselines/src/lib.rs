//! # mlcask-baselines
//!
//! The comparison systems of the MLCask evaluation (§VII-B):
//!
//! * **ModelDB-like** — tracking APIs without automatic intermediate reuse;
//!   every retraining starts from scratch; outputs archived to per-iteration
//!   folders.
//! * **MLflow-like** — intermediate-result reuse, but folder-archive storage
//!   without chunk-level dedup and no compatibility precheck.
//!
//! Both are *policy-faithful simulators* built on the same executor as
//! MLCask so measured differences isolate exactly the policies the paper
//! compares (see ARCHITECTURE.md, "Layering" and "Virtual time: a field of
//! the report"). [`runner`] drives the linear-versioning
//! scenario across all three systems; [`nonlinear`] drives the merge
//! ablations (MLCask vs "w/o PCPR" vs "w/o PR").

#![forbid(unsafe_code)]

pub mod archive;
pub mod nonlinear;
pub mod runner;

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::archive::FolderArchive;
    pub use crate::nonlinear::{run_merge, MergeRunResult, FIG8_STRATEGIES};
    pub use crate::runner::{run_linear, IterationRecord, LinearRunResult, SystemKind};
}
