//! # mlcask-core
//!
//! The primary contribution of *MLCask: Efficient Management of Component
//! Evolution in Collaborative Data Analytics Pipelines* (ICDE 2021):
//! non-linear (Git-like) version control semantics for ML pipelines with a
//! metric-driven merge operation, two search-tree pruning heuristics, and a
//! prioritized pipeline search for time-budgeted merges.
//!
//! Paper-to-module map:
//!
//! | Paper section | Module |
//! |---|---|
//! | Repositories (§III) | [`registry`] |
//! | Reusable outputs / challenge C1 (§IV) | [`mlcask_pipeline::history`] |
//! | Search space `S(f)` (§V) | [`search_space`] |
//! | Compatibility LUT / PC (§VI-A) | [`search_space`] |
//! | Pipeline search tree, Algorithm 1 (§V, Fig. 4) | [`tree`] |
//! | Metric-driven merge, Algorithm 2 (§V–§VI) | [`merge`] |
//! | Prioritized pipeline search (§VII-E) | [`prioritized`] |
//! | End-to-end system (commit/branch/merge) | [`system`] |
//! | Shared workspace, tenants and their access rule | [`workspace`] |
//!
//! ```
//! use mlcask_core::prelude::*;
//! use mlcask_core::testkit::{toy_model, toy_scaler, toy_source, toy_slots};
//! use mlcask_pipeline::prelude::*;
//! use mlcask_storage::prelude::*;
//! use std::sync::Arc;
//!
//! // Register component versions and open a pipeline system.
//! let store = Arc::new(ChunkStore::in_memory_small());
//! let registry = Arc::new(ComponentRegistry::with_exe_size(store, 1024));
//! let src = toy_source(SemVer::master(0, 0), 4, 8);
//! let scl = toy_scaler(SemVer::master(0, 0), 4, 4, 1.0);
//! let mdl = toy_model(SemVer::master(0, 0), 4, 0.7);
//! for c in [&src, &scl, &mdl] { registry.register(c.clone()).unwrap(); }
//!
//! let dag = PipelineDag::chain(&toy_slots()).unwrap();
//! let sys = MlCask::new("demo", dag, registry);
//! let ledger = ClockLedger::new();
//! let keys = vec![src.key(), scl.key(), mdl.key()];
//! let result = sys.commit_pipeline("master", &keys, "initial", &ledger).unwrap();
//! assert_eq!(result.commit.unwrap().label(), "master.0");
//! ```

#![forbid(unsafe_code)]

pub mod errors;
mod memo;
pub mod merge;
pub mod prioritized;
pub mod registry;
pub mod search_space;
pub mod system;
pub mod testkit;
pub mod tree;
pub mod workspace;

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::errors::{CoreError, Result as CoreResult};
    pub use crate::merge::{CandidateRecord, MergeEngine, MergeSearchReport, MergeStrategy};
    pub use crate::prioritized::{RankStats, SearchMethod, TrialStats};
    pub use crate::registry::{ComponentRegistry, RegisteredLibrary};
    pub use crate::search_space::{CompatLut, SearchSpaces};
    pub use crate::system::{BranchRef, CommitResult, MergeOutcome, MlCask};
    pub use crate::tree::{NodeState, SearchTree, StateCounts, TreeNode};
    pub use crate::workspace::{Tenant, Workspace};
    pub use mlcask_pipeline::clock::ClockLedger;
    pub use mlcask_pipeline::history::HistoryIndex;
    pub use mlcask_storage::tenant::ShareRight;
}
