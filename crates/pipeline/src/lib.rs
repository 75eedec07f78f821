//! # mlcask-pipeline
//!
//! The ML-pipeline model underlying MLCask (ICDE 2021): components with
//! semantic versions, typed artifacts with schema hashes, pipeline DAGs, and
//! an executor with checkpoint reuse and deterministic virtual-time
//! accounting.
//!
//! Mapping to the paper:
//!
//! | Paper concept | Module |
//! |---|---|
//! | `branch@schema.increment` versions (§IV-B) | [`semver`] |
//! | Schema hash function (§IV-B) | [`schema`] |
//! | Component / pipeline metafiles (§III) | [`metafile`] |
//! | Components `y = f(x\|θ)` (Defs. 1, 3, 4) | [`component`] |
//! | Pipeline DAG `G = (F, E)` (Defs. 1–2) | [`dag`] |
//! | Execution, output archiving (§IV) | [`executor`] |
//! | Reusable outputs: checkpoints by key and fingerprint (§IV C1, §VI-B) | [`history`] |
//! | Execution vs storage time split (§VII-B) | [`clock`] |
//!
//! Beyond the paper, this crate supplies the parallel-execution substrate:
//! [`parallel`] (worker pools, the DAG wavefront scheduler, and the
//! [`parallel::ParallelismPolicy`] knob), [`replay`] (the
//! traced-execute/deterministic-replay protocol that keeps parallel
//! reports byte-identical to sequential ones), [`search`] (the one
//! evaluation loop composing the two phases, behind commits, merge
//! searches, trials and the baselines' runs), [`provenance`]
//! (static per-node fingerprints, frontier cuts, and the shared-prefix
//! gate behind incremental re-evaluation).
//!
//! Crash recovery is the store's: a crashed execution's outputs are
//! content-addressed blobs, so a rerun on the reopened store dedups what
//! survived and writes what did not.
//!
//! The versioning semantics themselves (branching, merging, search-tree
//! pruning) live in `mlcask-core`, which builds on this crate.

#![forbid(unsafe_code)]

pub mod artifact;
mod artifact_cache;
pub mod clock;
pub mod component;
pub mod dag;
pub mod errors;
pub mod executor;
pub mod history;
pub mod metafile;
pub mod parallel;
pub mod provenance;
pub mod replay;
pub mod schema;
pub mod search;
pub mod semver;

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::artifact::{
        Artifact, ArtifactData, Cell, Docs, Features, ImageSet, ModelArtifact, SequenceSet, Table,
    };
    pub use crate::clock::ClockSnapshot;
    pub use crate::component::{Component, ComponentHandle, ComponentKey, StageKind};
    pub use crate::dag::{BoundPipeline, PipelineDag};
    pub use crate::errors::{PipelineError, Result as PipelineResult};
    pub use crate::executor::{
        CacheKey, CachedOutput, Executor, RunOutcome, RunReport, StageReport,
    };
    pub use crate::history::HistoryIndex;
    pub use crate::metafile::{DatasetMetafile, LibraryMetafile, PipelineMetafile, PipelineSlot};
    pub use crate::parallel::ParallelismPolicy;
    pub use crate::provenance::{pipeline_fingerprints, FrontierCut, Provenance};
    pub use crate::replay::{CacheSnapshot, StageProfile};
    pub use crate::schema::{Schema, SchemaId};
    pub use crate::search::Policy;
    pub use crate::semver::SemVer;
}
