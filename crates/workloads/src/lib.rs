//! # mlcask-workloads
//!
//! The four real-world pipelines of the MLCask evaluation (§VII-A), rebuilt
//! on synthetic data with full component-version families:
//!
//! * [`readmission`] — 30-day hospital readmission (clean → extract → CNN);
//!   model training dominates.
//! * [`dpm`] — disease progression modeling (clean → sequence extraction →
//!   HMM de-biasing → DL model); the HMM stage dominates.
//! * [`sa`] — movie-review sentiment analysis (corpus processing → word
//!   embeddings → DL model); embedding training dominates.
//! * [`autolearn`] — digit classification with Zernike moments + Autolearn
//!   feature generation + AdaBoost; feature generation dominates.
//!
//! Beyond the paper's four chains, [`fusion`] adds a *diamond* pipeline
//! (two independent pre-processing branches fused before the model) that
//! exercises the executor's DAG-internal parallelism.
//!
//! Every workload carries the version structure the experiments need: an
//! increment-only chain per slot for the linear-versioning scenario, one
//! schema-changing update for the injected incompatibility, and the Fig. 3
//! branch histories for the merge scenario ([`scenario`]).

#![forbid(unsafe_code)]

pub mod autolearn;
pub mod common;
pub mod data;
pub mod dpm;
pub mod errors;
pub mod fusion;
pub mod readmission;
pub mod sa;
pub mod scenario;

use common::Workload;

/// Builds all four chain workloads (the paper's evaluation set). The
/// non-chain [`fusion`] workload is deliberately excluded so the figure
/// harnesses keep reproducing the paper's numbers; fetch it via [`by_name`]
/// or [`fusion::build`].
pub fn all_workloads() -> Vec<Workload> {
    vec![
        readmission::build(),
        dpm::build(),
        sa::build(),
        autolearn::build(),
    ]
}

/// Builds a workload by name (the paper's four plus `fusion`).
pub fn by_name(name: &str) -> Option<Workload> {
    match name {
        "readmission" => Some(readmission::build()),
        "dpm" => Some(dpm::build()),
        "sa" => Some(sa::build()),
        "autolearn" => Some(autolearn::build()),
        "fusion" => Some(fusion::build()),
        _ => None,
    }
}

/// Common imports for downstream crates.
pub mod prelude {
    pub use crate::common::Workload;
    pub use crate::scenario::{
        build_multi_tenant, build_system, join_workspace, linear_update_sequence, setup_nonlinear,
        LinearScenario, TenantSystem,
    };
    pub use crate::{all_workloads, by_name};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_workloads_valid() {
        let ws = all_workloads();
        assert_eq!(ws.len(), 4);
        let names: Vec<&str> = ws.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, vec!["readmission", "dpm", "sa", "autolearn"]);
        for w in &ws {
            w.validate();
        }
    }

    #[test]
    fn by_name_lookup() {
        assert!(by_name("dpm").is_some());
        assert!(by_name("unknown").is_none());
    }
}
