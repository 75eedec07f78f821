//! The history-independent half of the search, derived once per registry.
//!
//! A commit, a merge search and a prioritized trial each split into what
//! reads the history — PR marking ([`SearchTree::checkpoints`]), the
//! frontier cut's fingerprint lookups, the replay — and what does not:
//!
//! * per search-space pair and PC on/off, the search tree, PC-pruned when
//!   asked, with its live candidates and its node-state counts;
//! * per candidate key list, its [`Candidate`]: the bound pipeline and its
//!   provenance (fingerprints and schedulable mask).
//!
//! The second half is a function of the DAG's shape, the component keys and
//! the schemas the registry recorded for them, and a registered key's
//! handle and schemas never change: `register_many` returns the existing
//! entry for a known key. So the [`ComponentRegistry`] keeps it here and
//! every evaluation after the first reads it:
//!
//! * entries are filed under the DAG's *shape* — node names and edges —
//!   never under an `Arc` pointer, so equal DAGs share entries and two
//!   shapes over the same component names never do;
//! * a derivation that fails (a key not registered yet) is not kept, so a
//!   version registered later is bound fresh;
//! * there is no cap: the memo grows by at most one entry per distinct
//!   candidate and per distinct search-space pair ever evaluated, which is
//!   slower than the history, which gains a checkpoint per execution.

use crate::errors::Result;
use crate::registry::ComponentRegistry;
use crate::search_space::SearchSpaces;
use crate::tree::{SearchTree, StateCounts};
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::search::Candidate;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What a registry's memo has derived: every count is of derivations, each
/// made once per distinct input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Distinct DAG shapes evaluated over.
    pub shapes: usize,
    /// Search trees built (with their compatibility tables when pruned).
    pub trees: usize,
    /// Candidates bound and fingerprinted.
    pub candidates: usize,
}

/// A registry's memo: one [`ShapeMemo`] per DAG shape.
#[derive(Default)]
pub(crate) struct SearchMemo {
    shapes: RwLock<Vec<Arc<ShapeMemo>>>,
}

impl SearchMemo {
    /// The memo of `dag`'s shape, created on its first evaluation.
    pub(crate) fn shape(&self, dag: &Arc<PipelineDag>) -> Arc<ShapeMemo> {
        let same = |memo: &&Arc<ShapeMemo>| {
            memo.dag.node_names() == dag.node_names() && memo.dag.edge_list() == dag.edge_list()
        };
        if let Some(memo) = self.shapes.read().iter().find(same) {
            return Arc::clone(memo);
        }
        let mut shapes = self.shapes.write();
        if let Some(memo) = shapes.iter().find(same) {
            return Arc::clone(memo);
        }
        let memo = Arc::new(ShapeMemo {
            dag: Arc::clone(dag),
            candidates: RwLock::default(),
            trees: Default::default(),
            trees_built: AtomicUsize::new(0),
            candidates_built: AtomicUsize::new(0),
        });
        shapes.push(Arc::clone(&memo));
        memo
    }

    /// What every shape's memo has derived so far.
    pub(crate) fn stats(&self) -> MemoStats {
        let shapes = self.shapes.read();
        MemoStats {
            shapes: shapes.len(),
            trees: shapes
                .iter()
                .map(|m| m.trees_built.load(Ordering::Relaxed))
                .sum(),
            candidates: shapes
                .iter()
                .map(|m| m.candidates_built.load(Ordering::Relaxed))
                .sum(),
        }
    }
}

/// A search tree over one search-space pair, PC-pruned when it was asked
/// for pruned; never marked, so it serves every history.
pub(crate) struct MemoTree {
    /// The tree itself (prioritized trials start from a copy).
    pub(crate) tree: SearchTree,
    /// The key lists of its live leaves, in DFS order.
    pub(crate) candidates: Vec<Vec<ComponentKey>>,
    /// Its node states before PR marking.
    pub(crate) counts: StateCounts,
}

/// The memo entries of one DAG shape.
pub(crate) struct ShapeMemo {
    /// The first DAG of this shape; candidates are bound over it.
    dag: Arc<PipelineDag>,
    candidates: RwLock<HashMap<Vec<ComponentKey>, Arc<Candidate>>>,
    /// Unpruned trees at index 0, PC-pruned at 1.
    trees: [RwLock<HashMap<SearchSpaces, Arc<MemoTree>>>; 2],
    trees_built: AtomicUsize,
    candidates_built: AtomicUsize,
}

impl ShapeMemo {
    /// `keys` bound over this shape, with their provenance.
    pub(crate) fn candidate(
        &self,
        registry: &ComponentRegistry,
        keys: &[ComponentKey],
    ) -> Result<Arc<Candidate>> {
        if let Some(known) = self.candidates.read().get(keys) {
            return Ok(Arc::clone(known));
        }
        let derived = Arc::new(Candidate::of(registry.bind(&self.dag, keys)?)?);
        self.candidates_built.fetch_add(1, Ordering::Relaxed);
        // A concurrent evaluation may have derived the same entry first.
        let mut candidates = self.candidates.write();
        Ok(Arc::clone(
            candidates.entry(keys.to_vec()).or_insert(derived),
        ))
    }

    /// The tree over `spaces`, PC-pruned when `pc`, built by `build` on
    /// its first request.
    pub(crate) fn tree(
        &self,
        spaces: &SearchSpaces,
        pc: bool,
        build: impl FnOnce() -> Result<SearchTree>,
    ) -> Result<Arc<MemoTree>> {
        let trees = &self.trees[pc as usize];
        if let Some(known) = trees.read().get(spaces) {
            return Ok(Arc::clone(known));
        }
        let tree = build()?;
        self.trees_built.fetch_add(1, Ordering::Relaxed);
        let derived = Arc::new(MemoTree {
            candidates: tree
                .live_leaves()
                .into_iter()
                .map(|leaf| tree.candidate(leaf))
                .collect(),
            counts: tree.state_counts(),
            tree,
        });
        let mut trees = trees.write();
        Ok(Arc::clone(trees.entry(spaces.clone()).or_insert(derived)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::CoreError;
    use crate::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
    use mlcask_pipeline::provenance::pipeline_fingerprints;
    use mlcask_pipeline::semver::SemVer;
    use mlcask_storage::store::ChunkStore;

    fn registry() -> ComponentRegistry {
        let reg = ComponentRegistry::with_exe_size(Arc::new(ChunkStore::in_memory_small()), 1024);
        for c in [
            toy_source(SemVer::master(0, 0), 4, 8),
            toy_scaler(SemVer::master(0, 0), 4, 4, 1.0),
            toy_model(SemVer::master(0, 0), 4, 0.5),
        ] {
            reg.register(c).unwrap();
        }
        reg
    }

    fn keys(model: u32) -> Vec<ComponentKey> {
        let slots = toy_slots();
        vec![
            ComponentKey::new(slots[0], SemVer::master(0, 0)),
            ComponentKey::new(slots[1], SemVer::master(0, 0)),
            ComponentKey::new(slots[2], SemVer::master(0, model)),
        ]
    }

    fn chain() -> Arc<PipelineDag> {
        Arc::new(PipelineDag::chain(&toy_slots()).unwrap())
    }

    /// Source feeds both the scaler and the model: the chain's names, other
    /// edges.
    fn forked() -> Arc<PipelineDag> {
        let slots = toy_slots();
        let mut dag = PipelineDag::new();
        for s in &slots {
            dag.add_node(s).unwrap();
        }
        dag.add_edge(slots[0], slots[1]).unwrap();
        dag.add_edge(slots[0], slots[2]).unwrap();
        Arc::new(dag)
    }

    #[test]
    fn equal_shapes_share_an_entry_and_other_edges_do_not() {
        let memo = SearchMemo::default();
        let a = memo.shape(&chain());
        assert!(Arc::ptr_eq(&a, &memo.shape(&chain())), "keyed by shape");
        let b = memo.shape(&forked());
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(memo.stats().shapes, 2);
    }

    #[test]
    fn a_candidate_is_bound_and_fingerprinted_once_per_shape() {
        let reg = registry();
        let memo = SearchMemo::default();
        let (chain, forked) = (chain(), forked());
        let first = memo.shape(&chain).candidate(&reg, &keys(0)).unwrap();
        let again = memo.shape(&chain).candidate(&reg, &keys(0)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let bound = reg.bind(&chain, &keys(0)).unwrap();
        assert_eq!(
            first.provenance.fingerprints,
            pipeline_fingerprints(&bound).unwrap()
        );
        assert_eq!(first.provenance.schedulable, vec![true; 3]);
        let other = memo.shape(&forked).candidate(&reg, &keys(0)).unwrap();
        assert_ne!(
            first.provenance.fingerprints[2],
            other.provenance.fingerprints[2]
        );
        assert_eq!(memo.stats().candidates, 2);
    }

    #[test]
    fn a_failed_binding_is_not_kept() {
        let reg = registry();
        let memo = SearchMemo::default();
        let shape = memo.shape(&chain());
        assert!(matches!(
            shape.candidate(&reg, &keys(1)),
            Err(CoreError::UnknownComponent(_))
        ));
        reg.register(toy_model(SemVer::master(0, 1), 4, 0.6))
            .unwrap();
        assert!(shape.candidate(&reg, &keys(1)).is_ok());
        assert_eq!(memo.stats().candidates, 1);
    }

    #[test]
    fn a_tree_is_built_once_per_spaces_and_pc() {
        let memo = SearchMemo::default();
        let shape = memo.shape(&chain());
        let spaces = SearchSpaces {
            slot_names: toy_slots().iter().map(|s| s.to_string()).collect(),
            per_slot: keys(0).into_iter().map(|k| vec![k]).collect(),
        };
        let built = AtomicUsize::new(0);
        let build = || {
            built.fetch_add(1, Ordering::Relaxed);
            Ok(SearchTree::build(&spaces))
        };
        let first = shape.tree(&spaces, true, build).unwrap();
        assert!(Arc::ptr_eq(
            &first,
            &shape.tree(&spaces, true, build).unwrap()
        ));
        assert_eq!(first.candidates, vec![keys(0)]);
        assert_eq!(first.counts, first.tree.state_counts());
        shape.tree(&spaces, false, build).unwrap();
        assert_eq!(
            built.load(Ordering::Relaxed),
            2,
            "PC on and off are two trees"
        );
        let mut grown = spaces.clone();
        grown.per_slot[2].push(keys(1).swap_remove(2));
        let failed = shape.tree(&grown, true, || Err(CoreError::NoViableCandidate));
        assert!(failed.is_err());
        let rebuilt = shape.tree(&grown, true, || Ok(SearchTree::build(&grown)));
        assert_eq!(
            rebuilt.unwrap().candidates.len(),
            2,
            "a failed build is not kept"
        );
        assert_eq!(memo.stats().trees, 3);
    }
}
