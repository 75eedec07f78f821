//! # MLCask — Git-like version control for collaborative ML pipelines
//!
//! A from-scratch Rust implementation of *MLCask: Efficient Management of
//! Component Evolution in Collaborative Data Analytics Pipelines*
//! (ICDE 2021), including every substrate the paper depends on: a
//! ForkBase-like deduplicating storage engine, an ML algorithm library, the
//! pipeline/component model, the non-linear version-control core with
//! metric-driven merge and prioritized search, the four evaluation
//! workloads, and the ModelDB/MLflow baseline simulators.
//!
//! ## Quick start
//!
//! ```
//! use mlcask::prelude::*;
//!
//! // Build the paper's running example: the Readmission pipeline. Merge
//! // candidates evaluate on a worker pool; reports are identical to
//! // sequential evaluation (deterministic virtual time), only faster.
//! let workload = mlcask::workloads::readmission::build();
//! let (_registry, sys) = build_system(&workload).unwrap();
//! let sys = sys.with_parallelism(ParallelismPolicy::auto());
//! let clock = ClockLedger::new();
//!
//! // Commit the initial pipeline on master.
//! let result = sys
//!     .commit_pipeline("master", &workload.initial, "initial", &clock)
//!     .unwrap();
//! assert_eq!(result.commit.unwrap().label(), "master.0");
//!
//! // Branch for development, commit an update, and merge it back.
//! sys.branch("master", "dev").unwrap();
//! sys.commit_pipeline("dev", &workload.dev_updates[0], "dev work", &clock)
//!     .unwrap();
//! let merged = sys
//!     .merge("master", "dev", MergeStrategy::Full, &clock)
//!     .unwrap();
//! assert!(merged.commit.is_some());
//! ```
//!
//! ## Collaboration across teams
//!
//! Tenants of one [`core::workspace::Workspace`] share a deduplicating
//! store and one commit graph; with a
//! [`ShareRight`](mlcask_storage::tenant::ShareRight) grant a team can
//! fork a peer's branch into its own namespace and merge its work back
//! into the peer's branch, paying only for newly materialized bytes:
//!
//! ```
//! use mlcask::prelude::*;
//! use mlcask_pipeline::parallel::ParallelismPolicy;
//!
//! let workload = mlcask::workloads::readmission::build();
//! // Upstream evolves master and grants downstream MergeInto; downstream
//! // forks `upstream/master`, evolves its `feature` branch, and merges it
//! // back into `upstream/master` with the full metric-driven search.
//! let c = mlcask::workloads::scenario::run_upstream_downstream(
//!     &workload,
//!     ParallelismPolicy::Sequential,
//! )
//! .unwrap();
//! assert_eq!(c.merge.commit.unwrap().branch, "upstream/master");
//! let usage = c.ws.usages();
//! assert!(usage["downstream"].physical_bytes < usage["upstream"].physical_bytes);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`storage`] | content-addressed chunk store, commit graph, cost models |
//! | [`ml`] | MLP, HMM, AdaBoost, embeddings, Zernike moments, Autolearn |
//! | [`pipeline`] | components, semantic versions, DAG, executor, clock |
//! | [`core`] | branching, metric-driven merge, PC/PR pruning, prioritized search, multi-tenant workspace |
//! | [`workloads`] | Readmission, DPM, SA, Autolearn, the diamond Fusion + scenario drivers |
//! | [`baselines`] | ModelDB-like and MLflow-like comparison systems |
//! | [`obs`] | metrics registry, span tracing, flight recorder, Prometheus scrape |
//!
//! The repository-level `README.md` covers building, the benchmark, and
//! the paper-figure checks; `ARCHITECTURE.md` explains the parallel execution
//! engine (the traced-execute + deterministic-replay protocol and the DAG
//! wavefront scheduler) and the multi-tenant workspace layer (shared-store
//! ownership, reservation-based tenant quotas and dedup attribution,
//! permissioned cross-tenant fork/merge, orphan GC).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mlcask_baselines as baselines;
pub use mlcask_core as core;
pub use mlcask_ml as ml;
pub use mlcask_obs as obs;
pub use mlcask_pipeline as pipeline;
pub use mlcask_storage as storage;
pub use mlcask_workloads as workloads;

/// One-stop imports covering the public API surface.
pub mod prelude {
    pub use mlcask_baselines::prelude::*;
    pub use mlcask_core::prelude::*;
    pub use mlcask_ml::prelude::*;
    pub use mlcask_pipeline::prelude::*;
    pub use mlcask_storage::prelude::*;
    pub use mlcask_workloads::prelude::*;
}
