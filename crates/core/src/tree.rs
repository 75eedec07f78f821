//! The pipeline search tree (Algorithm 1) and its node states (Fig. 4).
//!
//! Level `i` of the tree holds the candidate versions of the `i`-th pipeline
//! component; every root-to-leaf path is one pre-merge pipeline candidate.
//! Nodes are classified exactly as in Fig. 4:
//!
//! * **Checkpointed** (green) — the node's prefix path was executed in the
//!   development history, so its output is reusable (PR, §VI-B);
//! * **Incompatible** (red) — the node's component cannot consume its
//!   parent's output schema (PC, §VI-A);
//! * **Feasible** (orange) — remaining nodes that must be executed.
//!
//! PC is a function of the search spaces and the registered schemas, so
//! pruning marks the tree itself. PR reads the history, so
//! `SearchTree::checkpoints` reports the green nodes instead of marking
//! them: one pruned tree serves every history it is asked about.

use crate::search_space::{CompatLut, SearchSpaces};
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::executor::{CacheKey, CachedOutput};
use mlcask_pipeline::history::HistoryIndex;
use serde::{Deserialize, Serialize};

/// Node classification mirroring Fig. 4's colours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeState {
    /// Output already exists in the history (green): no need to re-execute.
    /// Counted from `SearchTree::checkpoints`; only the virtual root
    /// carries it in the tree.
    Checkpointed,
    /// Must be executed (orange).
    Feasible,
    /// Incompatible with its parent (red): pruned, never executed.
    Incompatible,
}

/// One node of the search tree.
#[derive(Debug, Clone)]
pub struct TreeNode {
    /// Parent arena index (`None` only for the virtual root).
    pub(crate) parent: Option<usize>,
    /// Slot level (0-based component index); root has no level.
    pub(crate) level: Option<usize>,
    /// Component version at this node (`None` for the virtual root).
    pub(crate) component: Option<ComponentKey>,
    /// Children arena indices.
    pub(crate) children: Vec<usize>,
    /// Classification after pruning.
    pub(crate) state: NodeState,
    /// Prioritized-search score (§VII-E).
    pub(crate) score: Option<f64>,
}

/// Arena-allocated pipeline search tree.
#[derive(Debug, Clone)]
pub struct SearchTree {
    nodes: Vec<TreeNode>,
    /// Slot names, aligned with levels.
    pub(crate) slot_names: Vec<String>,
}

/// One step of the iterative tree walks below: enter a node (process it and
/// descend) or leave one (pop its path state).
enum WalkStep {
    Enter(usize),
    Exit,
}

/// The tree walks index per-level path state by predecessor slot, which is
/// only sound when every slot's predecessors are earlier slots — i.e. slot
/// order is topological. Fail loudly (instead of an opaque index panic)
/// when a caller violates that.
fn assert_topological(preds: &[Vec<usize>]) {
    for (level, ps) in preds.iter().enumerate() {
        assert!(
            ps.iter().all(|&j| j < level),
            "slot order must be topological: slot {level} has a predecessor slot >= {level}"
        );
    }
}

impl SearchTree {
    /// Algorithm 1: full cartesian expansion of the search spaces.
    pub(crate) fn build(spaces: &SearchSpaces) -> SearchTree {
        let mut nodes = vec![TreeNode {
            parent: None,
            level: None,
            component: None,
            children: Vec::new(),
            state: NodeState::Checkpointed,
            score: None,
        }];
        let mut frontier = vec![0usize];
        for (level, versions) in spaces.per_slot.iter().enumerate() {
            let mut next = Vec::with_capacity(frontier.len() * versions.len());
            for &parent in &frontier {
                for v in versions {
                    let id = nodes.len();
                    nodes.push(TreeNode {
                        parent: Some(parent),
                        level: Some(level),
                        component: Some(v.clone()),
                        children: Vec::new(),
                        state: NodeState::Feasible,
                        score: None,
                    });
                    nodes[parent].children.push(id);
                    next.push(id);
                }
            }
            frontier = next;
        }
        SearchTree {
            nodes,
            slot_names: spaces.slot_names.clone(),
        }
    }

    /// The virtual root's arena index.
    pub(crate) fn root(&self) -> usize {
        0
    }

    /// Node accessor.
    pub(crate) fn node(&self, id: usize) -> &TreeNode {
        &self.nodes[id]
    }

    /// Mutable node accessor.
    pub(crate) fn node_mut(&mut self, id: usize) -> &mut TreeNode {
        &mut self.nodes[id]
    }

    /// Leaf nodes (level = last slot) that are not pruned, in DFS order.
    pub(crate) fn live_leaves(&self) -> Vec<usize> {
        let last = self.slot_names.len().saturating_sub(1);
        let mut out = Vec::new();
        self.dfs_collect(0, last, &mut out);
        out
    }

    fn dfs_collect(&self, id: usize, last_level: usize, out: &mut Vec<usize>) {
        let n = &self.nodes[id];
        if n.state == NodeState::Incompatible {
            return;
        }
        if n.level == Some(last_level) {
            out.push(id);
            return;
        }
        for &c in &n.children {
            self.dfs_collect(c, last_level, out);
        }
    }

    /// Path from the root (exclusive) to `node` (inclusive), top-down.
    pub(crate) fn path(&self, node: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut cur = Some(node);
        while let Some(id) = cur {
            if id == 0 {
                break;
            }
            path.push(id);
            cur = self.nodes[id].parent;
        }
        path.reverse();
        path
    }

    /// The candidate pipeline (component keys in slot order) ending at a
    /// leaf.
    pub(crate) fn candidate(&self, leaf: usize) -> Vec<ComponentKey> {
        self.path(leaf)
            .into_iter()
            .map(|id| self.nodes[id].component.clone().expect("non-root"))
            .collect()
    }

    /// PC pruning (§VI-A): marks nodes whose component is incompatible with
    /// any of its DAG-predecessor slots' chosen versions as
    /// [`NodeState::Incompatible`] (whole subtrees die with them).
    ///
    /// `preds[level]` lists the slots feeding `level`
    /// ([`mlcask_pipeline::dag::PipelineDag::predecessors`]); for chain
    /// pipelines that is `[level - 1]` (the tree parent), but diamond/fan-in
    /// DAGs check every real in-edge against the versions already chosen on
    /// the path. Slot order must be topological (`preds[level]` may only
    /// reference earlier levels) — asserted here with a clear message.
    /// Returns the number of nodes newly marked (subtree roots only).
    pub(crate) fn prune_incompatible(&mut self, lut: &CompatLut, preds: &[Vec<usize>]) -> usize {
        assert_topological(preds);
        let mut pruned = 0;
        // DFS with explicit enter/exit steps so the per-level path state is
        // maintained by push/pop instead of cloned per node; the path holds
        // node ids, whose keys the LUT borrows.
        let mut path: Vec<usize> = Vec::new();
        let mut stack: Vec<WalkStep> = self.nodes[0]
            .children
            .iter()
            .rev()
            .map(|&c| WalkStep::Enter(c))
            .collect();
        while let Some(step) = stack.pop() {
            let c = match step {
                WalkStep::Exit => {
                    path.pop();
                    continue;
                }
                WalkStep::Enter(c) => c,
            };
            let key = |id: usize| self.nodes[id].component.as_ref().expect("non-root");
            let level = self.nodes[c].level.expect("non-root");
            let incompatible = preds[level]
                .iter()
                .any(|&j| !lut.compatible(key(path[j]), key(c)));
            if incompatible {
                self.nodes[c].state = NodeState::Incompatible;
                pruned += 1;
                continue; // do not descend
            }
            path.push(c);
            stack.push(WalkStep::Exit);
            stack.extend(
                self.nodes[c]
                    .children
                    .iter()
                    .rev()
                    .map(|&g| WalkStep::Enter(g)),
            );
        }
        pruned
    }

    /// PR marking (§VI-B): counts the live nodes whose output already
    /// exists in the history (green). A node can only be checkpointed when
    /// the outputs of *all* its DAG-predecessor slots are known (the cache
    /// key lists their artifact ids in edge order); `preds` is as in
    /// [`SearchTree::prune_incompatible`]. The tree is left as it was, so
    /// one tree serves every history.
    pub(crate) fn checkpoints(&self, history: &HistoryIndex, preds: &[Vec<usize>]) -> usize {
        assert_topological(preds);
        let mut checkpointed = 0;
        // DFS with explicit enter/exit steps; the per-level known outputs
        // are maintained by push/pop instead of cloned per node.
        let mut outs: Vec<Option<CachedOutput>> = Vec::new();
        // One probe key, reassigned per node: its strings and its input list
        // keep their buffers, so a probe allocates nothing.
        let mut probe: Option<CacheKey> = None;
        let mut stack: Vec<WalkStep> = self.nodes[0]
            .children
            .iter()
            .rev()
            .map(|&c| WalkStep::Enter(c))
            .collect();
        while let Some(step) = stack.pop() {
            let c = match step {
                WalkStep::Exit => {
                    outs.pop();
                    continue;
                }
                WalkStep::Enter(c) => c,
            };
            if self.nodes[c].state == NodeState::Incompatible {
                continue;
            }
            let level = self.nodes[c].level.expect("non-root");
            // Inputs = predecessor outputs in edge order; unknown
            // predecessor output (not checkpointed) → prefix unknown →
            // cannot have a checkpoint.
            let component = self.nodes[c].component.as_ref().expect("non-root");
            let key = probe.get_or_insert_with(|| CacheKey {
                component: component.clone(),
                inputs: Vec::new(),
            });
            key.component.clone_from(component);
            key.inputs.clear();
            let known = preds[level].iter().all(|&j| match &outs[j] {
                Some(o) => {
                    key.inputs.push(o.artifact_id);
                    true
                }
                None => false,
            });
            let hit = if known { history.get(key) } else { None };
            checkpointed += hit.is_some() as usize;
            outs.push(hit);
            stack.push(WalkStep::Exit);
            stack.extend(
                self.nodes[c]
                    .children
                    .iter()
                    .rev()
                    .map(|&g| WalkStep::Enter(g)),
            );
        }
        checkpointed
    }

    /// Counts nodes per state (the Fig. 4 summary).
    pub(crate) fn state_counts(&self) -> StateCounts {
        let mut counts = StateCounts::default();
        // Skip the virtual root.
        for n in &self.nodes[1..] {
            match n.state {
                NodeState::Checkpointed => counts.checkpointed += 1,
                NodeState::Feasible => counts.feasible += 1,
                NodeState::Incompatible => counts.incompatible += 1,
            }
        }
        counts
    }
}

/// Node-state summary.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateCounts {
    /// Green nodes (reusable checkpoints).
    pub checkpointed: usize,
    /// Orange nodes (need execution).
    pub(crate) feasible: usize,
    /// Red nodes (pruned).
    pub(crate) incompatible: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcask_pipeline::semver::SemVer;

    fn spaces(sizes: &[usize]) -> SearchSpaces {
        SearchSpaces {
            slot_names: (0..sizes.len()).map(|i| format!("slot{i}")).collect(),
            per_slot: sizes
                .iter()
                .enumerate()
                .map(|(slot, &n)| {
                    (0..n)
                        .map(|v| {
                            ComponentKey::new(&format!("slot{slot}"), SemVer::master(0, v as u32))
                        })
                        .collect()
                })
                .collect(),
        }
    }

    #[test]
    fn build_matches_cartesian_structure() {
        // Fig. 4 shape: 1 dataset × 2 cleansing × 2 extraction × 5 CNN.
        let tree = SearchTree::build(&spaces(&[1, 2, 2, 5]));
        // Nodes per level: 1 + 1 + 2 + 4 + 20, plus root.
        assert_eq!(tree.nodes.len(), 1 + 1 + 2 + 4 + 20);
        assert_eq!(tree.live_leaves().len(), 20);
    }

    #[test]
    fn paths_and_candidates() {
        let tree = SearchTree::build(&spaces(&[1, 2]));
        let leaves = tree.live_leaves();
        assert_eq!(leaves.len(), 2);
        let cand = tree.candidate(leaves[1]);
        assert_eq!(cand.len(), 2);
        assert_eq!(cand[0].name, "slot0");
        assert_eq!(cand[1].version, SemVer::master(0, 1));
        // Path is top-down and excludes the root.
        let path = tree.path(leaves[1]);
        assert_eq!(path.len(), 2);
        assert_eq!(tree.node(path[0]).level, Some(0));
    }

    #[test]
    fn empty_spaces_tree_is_root_only() {
        let tree = SearchTree::build(&spaces(&[]));
        assert_eq!(tree.nodes.len(), 1);
    }

    #[test]
    fn prune_incompatible_blocks_subtrees() {
        let s = spaces(&[2, 2]);
        let mut tree = SearchTree::build(&s);
        // An empty LUT declares every adjacent pair incompatible, so all
        // four level-1 nodes (2 parents × 2 versions) are pruned; level-0
        // nodes survive because the virtual root imposes no constraint.
        let lut = CompatLut::default();
        let pruned_all = tree.prune_incompatible(&lut, &[vec![], vec![0]]);
        assert_eq!(pruned_all, 4);
        assert!(tree.live_leaves().is_empty());
        // (Schema-driven LUT behaviour is covered in search_space tests.)
    }

    #[test]
    fn state_counts_sum_to_non_root_nodes() {
        let s = spaces(&[2, 3]);
        let mut tree = SearchTree::build(&s);
        let lut = CompatLut::default();
        tree.prune_incompatible(&lut, &[vec![], vec![0]]);
        let c = tree.state_counts();
        assert_eq!(
            c.checkpointed + c.feasible + c.incompatible,
            tree.nodes.len() - 1
        );
    }
}
