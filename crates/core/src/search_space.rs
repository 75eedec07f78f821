//! Component search spaces (§V) and the compatibility look-up table (§VI-A).
//!
//! For a merge of `MERGE_HEAD` into `HEAD` with common ancestor `A`, the
//! search space of component `f` is
//! `S(f) = S_HEAD(f) ∪ S_MERGE_HEAD(f)` where `S_b(f)` collects the versions
//! of `f` appearing in pipeline versions on branch `b` from `A` (inclusive)
//! to the branch head. Versions older than the ancestor are excluded ("they
//! could be outdated or irrelevant to the pipeline improvement").

use crate::errors::Result;
use crate::registry::ComponentRegistry;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::DeclaredSchemas;
use mlcask_pipeline::metafile::PipelineMetafile;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// Per-slot candidate versions for the merge search, in topological slot
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SearchSpaces {
    /// Slot names in topological order.
    pub slot_names: Vec<String>,
    /// Candidate versions per slot (deterministically ordered).
    pub per_slot: Vec<Vec<ComponentKey>>,
}

impl SearchSpaces {
    /// Builds the search spaces from the pipeline metafiles on both branch
    /// paths (each path must include the common ancestor's metafile), owned
    /// or shared (`Arc`) alike: one pass over the metafiles gathers each
    /// slot's versions by reference, and each distinct version is cloned
    /// once.
    pub(crate) fn build<M: Borrow<PipelineMetafile>>(
        slot_names: &[String],
        head_path: &[M],
        merge_path: &[M],
    ) -> SearchSpaces {
        let mut seen: Vec<Vec<&ComponentKey>> = vec![Vec::new(); slot_names.len()];
        for meta in head_path.iter().chain(merge_path) {
            let meta = meta.borrow();
            for (slot, versions) in slot_names.iter().zip(&mut seen) {
                // Consecutive commits mostly keep a slot's version.
                if let Some(key) = meta.component_version(slot) {
                    if versions.last() != Some(&key) {
                        versions.push(key);
                    }
                }
            }
        }
        // Deterministic order: sort by semantic version (branch, schema,
        // increment); the paper enumerates "all available component
        // versions" without prescribing order.
        let per_slot = seen
            .into_iter()
            .map(|mut versions| {
                versions.sort_unstable();
                versions.dedup();
                versions.into_iter().cloned().collect()
            })
            .collect();
        SearchSpaces {
            slot_names: slot_names.to_vec(),
            per_slot,
        }
    }

    /// Upper bound on candidate count: `∏ |S(f_i)|` (§VI).
    pub fn candidate_upper_bound(&self) -> usize {
        self.per_slot.iter().map(|s| s.len().max(1)).product()
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.per_slot.len()
    }

    /// True if there are no slots.
    pub fn is_empty(&self) -> bool {
        self.per_slot.is_empty()
    }
}

/// Compatibility look-up table: the set of `(producer version, consumer
/// version)` pairs that can legally be adjacent (§VI-A), keyed by producer
/// so a check borrows both keys instead of building a pair.
#[derive(Debug, Default, Clone)]
pub struct CompatLut {
    consumers: HashMap<ComponentKey, HashSet<ComponentKey>>,
}

impl CompatLut {
    /// Builds the LUT for every data-flow edge of the pipeline DAG, using
    /// the declared input/output schema ids stored in the registry
    /// ("evaluated based on the pipelines' version history").
    ///
    /// `preds[slot]` lists the slots feeding `slot`
    /// ([`mlcask_pipeline::dag::PipelineDag::predecessors`]); for the
    /// paper's chain pipelines this is `[slot - 1]`, but diamond/fan-in
    /// DAGs check each real edge instead of assuming adjacency.
    pub(crate) fn build(
        registry: &ComponentRegistry,
        spaces: &SearchSpaces,
        preds: &[Vec<usize>],
    ) -> Result<CompatLut> {
        // Each version's registered schema ids, looked up once per version.
        let declared: Vec<Vec<DeclaredSchemas>> = spaces
            .per_slot
            .iter()
            .map(|versions| {
                versions
                    .iter()
                    .map(|k| registry.declared_schemas(k))
                    .collect::<Result<_>>()
            })
            .collect::<Result<_>>()?;
        let mut consumers: HashMap<ComponentKey, HashSet<ComponentKey>> = HashMap::new();
        for (slot, producers_slots) in preds.iter().enumerate() {
            for &p_slot in producers_slots {
                for (p, (_, produced)) in spaces.per_slot[p_slot].iter().zip(&declared[p_slot]) {
                    let fits = spaces.per_slot[slot]
                        .iter()
                        .zip(&declared[slot])
                        .filter(|(_, (expected, _))| expected.is_none_or(|e| e == *produced))
                        .map(|(c, _)| c.clone());
                    consumers.entry(p.clone()).or_default().extend(fits);
                }
            }
        }
        Ok(CompatLut { consumers })
    }

    /// True if `consumer` can follow `producer`.
    pub(crate) fn compatible(&self, producer: &ComponentKey, consumer: &ComponentKey) -> bool {
        self.consumers
            .get(producer)
            .is_some_and(|fits| fits.contains(consumer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ComponentRegistry;
    use crate::testkit::{toy_model, toy_scaler, toy_source};
    use mlcask_pipeline::metafile::PipelineSlot;
    use mlcask_pipeline::semver::SemVer;
    use mlcask_storage::hash::Hash256;
    use mlcask_storage::object::{ObjectKind, ObjectRef};
    use mlcask_storage::store::ChunkStore;
    use std::sync::Arc;

    fn meta(label: &str, versions: &[(&str, SemVer)]) -> PipelineMetafile {
        PipelineMetafile {
            name: "toy".into(),
            label: label.into(),
            slots: versions
                .iter()
                .map(|(n, v)| PipelineSlot {
                    component: ComponentKey::new(n, v.clone()),
                    output: ObjectRef::null(ObjectKind::Output),
                    artifact_id: Hash256::ZERO,
                })
                .collect(),
            edges: vec![],
            score: None,
        }
    }

    fn slots() -> Vec<String> {
        vec![
            "test_source".into(),
            "test_scaler".into(),
            "test_model".into(),
        ]
    }

    #[test]
    fn spaces_union_both_branches() {
        // Mirrors Fig. 3: the ancestor plus per-branch updates.
        let ancestor = meta(
            "master.0",
            &[
                ("test_source", SemVer::master(0, 0)),
                ("test_scaler", SemVer::master(0, 0)),
                ("test_model", SemVer::master(0, 0)),
            ],
        );
        let head = vec![
            ancestor.clone(),
            meta(
                "master.1",
                &[
                    ("test_source", SemVer::master(0, 0)),
                    ("test_scaler", SemVer::master(0, 1)),
                    ("test_model", SemVer::master(0, 4)),
                ],
            ),
        ];
        let merge = vec![
            ancestor,
            meta(
                "dev.1",
                &[
                    ("test_source", SemVer::master(0, 0)),
                    ("test_scaler", SemVer::master(0, 0)),
                    ("test_model", SemVer::master(0, 1)),
                ],
            ),
            meta(
                "dev.2",
                &[
                    ("test_source", SemVer::master(0, 0)),
                    ("test_scaler", SemVer::master(1, 0)),
                    ("test_model", SemVer::master(0, 2)),
                ],
            ),
        ];
        let spaces = SearchSpaces::build(&slots(), &head, &merge);
        assert_eq!(spaces.per_slot[0].len(), 1, "dataset never changed");
        assert_eq!(spaces.per_slot[1].len(), 3, "scaler: 0.0, 0.1, 1.0");
        assert_eq!(spaces.per_slot[2].len(), 4, "model: 0.0, 0.1, 0.2, 0.4");
        assert_eq!(spaces.candidate_upper_bound(), 12);
        // Deterministic sorted order.
        assert_eq!(spaces.per_slot[2][0].version, SemVer::master(0, 0));
        assert_eq!(spaces.per_slot[2][3].version, SemVer::master(0, 4));
    }

    #[test]
    fn empty_paths_give_empty_spaces() {
        let none: &[PipelineMetafile] = &[];
        let spaces = SearchSpaces::build(&slots(), none, none);
        assert_eq!(spaces.candidate_upper_bound(), 1);
        assert!(spaces.per_slot.iter().all(|s| s.is_empty()));
        assert_eq!(spaces.len(), 3);
        assert!(!spaces.is_empty());
    }

    #[test]
    fn lut_reflects_declared_schemas() {
        let store = Arc::new(ChunkStore::in_memory_small());
        let reg = ComponentRegistry::with_exe_size(store, 1024);
        // Source emits dim-4. Scaler 0.0 keeps dim 4; scaler 1.0 widens to 6.
        let src = toy_source(SemVer::master(0, 0), 4, 8);
        let s00 = toy_scaler(SemVer::master(0, 0), 4, 4, 1.0);
        let s10 = toy_scaler(SemVer::master(1, 0), 4, 6, 1.0);
        // Model 0.0 expects dim 4; model 0.2 expects dim 6.
        let m00 = toy_model(SemVer::master(0, 0), 4, 0.5);
        let m02 = toy_model(SemVer::master(0, 2), 6, 0.6);
        for c in [&src, &s00, &s10, &m00, &m02] {
            reg.register(c.clone()).unwrap();
        }
        let spaces = SearchSpaces {
            slot_names: slots(),
            per_slot: vec![
                vec![src.key()],
                vec![s00.key(), s10.key()],
                vec![m00.key(), m02.key()],
            ],
        };
        let lut = CompatLut::build(&reg, &spaces, &[vec![], vec![0], vec![1]]).unwrap();
        // Source feeds both scalers (scaler 1.0 still *reads* dim 4).
        assert!(lut.compatible(&src.key(), &s00.key()));
        assert!(lut.compatible(&src.key(), &s10.key()));
        // Scaler 0.0 (dim 4 out) feeds model 0.0 but not model 0.2.
        assert!(lut.compatible(&s00.key(), &m00.key()));
        assert!(!lut.compatible(&s00.key(), &m02.key()));
        // Scaler 1.0 (dim 6 out) feeds model 0.2 but not model 0.0.
        assert!(lut.compatible(&s10.key(), &m02.key()));
        assert!(!lut.compatible(&s10.key(), &m00.key()));
        assert_eq!(lut.consumers.values().map(HashSet::len).sum::<usize>(), 4);
    }

    #[test]
    fn lut_unknown_component_errors() {
        let store = Arc::new(ChunkStore::in_memory_small());
        let reg = ComponentRegistry::with_exe_size(store, 1024);
        let spaces = SearchSpaces {
            slot_names: vec!["a".into(), "b".into()],
            per_slot: vec![
                vec![ComponentKey::new("a", SemVer::initial())],
                vec![ComponentKey::new("b", SemVer::initial())],
            ],
        };
        assert!(CompatLut::build(&reg, &spaces, &[vec![], vec![0]]).is_err());
    }
}
