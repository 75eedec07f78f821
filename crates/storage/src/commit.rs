//! Git-like commit graph with branches and common-ancestor queries.
//!
//! Commits are immutable, content-addressed records forming a Merkle DAG
//! (each commit id covers its payload and parent ids). Branches are mutable
//! names pointing at head commits. The merge machinery in `mlcask-core`
//! relies on [`CommitGraph::common_ancestor`] to delimit component search
//! spaces (§V of the paper).
//!
//! # Snapshot isolation
//!
//! The graph's contents live in one immutable [`GraphView`] published behind
//! an `Arc`: the commit set and the branch heads are persistent tries
//! ([`crate::pmap::PMap`]) and the sorted branch-name set is shared by every
//! generation that created no branch, so deriving the next generation copies
//! an O(log n) path and shares the rest with the previous one (only creating
//! a branch copies the name set). Readers call
//! [`CommitGraph::view`] (an `Arc` clone — no lock is held afterwards) and
//! traverse a frozen, internally consistent graph: a branch head resolved
//! from a view always points at a commit in that same view, however many
//! merges land concurrently. Writers serialize on a private mutex, build the
//! successor generation off the current one, and publish it atomically, so
//! no update is ever lost. Workspace writes land only on the head they
//! read: [`CommitGraph::commit_onto`], their one way in, compares it with
//! the head under the writer lock and refuses a moved branch. The raw
//! [`CommitGraph::commit`] still chains onto whatever head it finds.
//! Logical ticks come from an atomic counter advanced inside the writer
//! section, so commit ids and ordering stay deterministic for any serial
//! schedule.
//!
//! # Ticks order ancestry
//!
//! **Invariant:** every commit's tick is strictly greater than each of its
//! parents' ticks (parents are published before the child's tick is drawn;
//! commit creation `debug_assert!`s it). The ancestry queries lean on it so
//! that their cost follows how far two commits have *diverged*, never how
//! much history lies below them: [`GraphView::common_ancestor`] visits both
//! ancestries merged in descending tick order, marking each commit with the
//! side(s) it was reached from — a commit is visited only after every one of
//! its descendants, so its marks are final, and the first commit visited
//! carrying both marks is the common ancestor with the greatest tick.
//! [`GraphView::is_ancestor`] runs the same walk from the descendant alone
//! and gives up once the visit order drops below the candidate's tick.
//!
//! # Branch names carry no rights
//!
//! The graph is a plain version DAG: every read and every write is
//! unrestricted, and a branch name is only a name. In a multi-tenant
//! workspace each tenant's branches live under a `"{tenant}/"` prefix of one
//! shared graph, and who may write which of them is decided by the
//! workspace (`mlcask_core::workspace`), which owns that graph and is its
//! only writer.

use crate::errors::{Result, StorageError};
use crate::hash::Hash256;
use crate::pmap::PMap;
use mlcask_obs::metrics::instance_label;
use mlcask_obs::{Counter, MetricsRegistry};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable commit record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Commit {
    /// Content address of this commit (hash of the canonical encoding).
    pub id: Hash256,
    /// Zero (root), one (normal), or two (merge) parents.
    pub parents: Vec<Hash256>,
    /// Branch this commit was created on.
    pub branch: String,
    /// Monotone sequence number within the branch (`master.0`, `master.1`…).
    pub seq: u32,
    /// Content address of the committed payload (e.g. a pipeline metafile).
    pub payload: Hash256,
    /// Free-form description.
    pub message: String,
    /// Logical creation order across the whole graph (not wall time, so the
    /// graph is deterministic).
    pub tick: u64,
}

impl Commit {
    /// Computes the content address for the given fields.
    fn compute_id(
        parents: &[Hash256],
        branch: &str,
        seq: u32,
        payload: Hash256,
        message: &str,
        tick: u64,
    ) -> Hash256 {
        let (seq, tick) = (seq.to_le_bytes(), tick.to_le_bytes());
        let mut parts: Vec<&[u8]> = parents.iter().map(|p| &p.0[..]).collect();
        parts.extend([
            branch.as_bytes(),
            &seq[..],
            &payload.0[..],
            message.as_bytes(),
            &tick[..],
        ]);
        Hash256::of_parts(&parts)
    }

    /// Human-readable `branch.seq` version label (the paper's notation, e.g.
    /// `master.0.2` for branch `master.0`, seq 2 — we render `branch.seq`).
    pub fn label(&self) -> String {
        format!("{}.{}", self.branch, self.seq)
    }
}

/// The branch table of one generation.
///
/// A head move — most publishes — path-copies `heads` and shares `names`;
/// creating a branch also copies the name set, O(branches).
#[derive(Clone, Default)]
struct Branches {
    /// Head commit of every branch.
    heads: PMap<Arc<str>, Hash256>,
    /// Every branch name, ordered: [`GraphView::branches`] is sorted and a
    /// namespace is one contiguous range.
    names: Arc<BTreeSet<Arc<str>>>,
}

impl Branches {
    fn head(&self, branch: &str) -> Option<Hash256> {
        self.heads.get(branch).copied()
    }

    /// This table with `branch` (created if new) pointing at `head`.
    fn with_head(&self, branch: &str, head: Hash256) -> Branches {
        let (name, names) = match self.names.get(branch) {
            Some(name) => (Arc::clone(name), Arc::clone(&self.names)),
            None => {
                let name: Arc<str> = Arc::from(branch);
                let mut names = BTreeSet::clone(&self.names);
                names.insert(Arc::clone(&name));
                (name, Arc::new(names))
            }
        };
        Branches {
            heads: self.heads.insert(name, head),
            names,
        }
    }
}

/// The graph contents at one publication point: immutable once published.
struct Snapshot {
    commits: PMap<Hash256, Commit>,
    branches: Branches,
}

impl Snapshot {
    fn empty() -> Arc<Snapshot> {
        Arc::new(Snapshot {
            commits: PMap::new(),
            branches: Branches::default(),
        })
    }

    /// The successor generation: `commits`, and this generation's branch
    /// table with `branch` pointing at `head`.
    fn advance(&self, commits: PMap<Hash256, Commit>, branch: &str, head: Hash256) -> Snapshot {
        Snapshot {
            commits,
            branches: self.branches.with_head(branch, head),
        }
    }
}

/// Mark: reachable from a walk's first seed.
const FROM_A: u8 = 1;
/// Mark: reachable from a walk's second seed.
const FROM_B: u8 = 2;

/// An ancestry walk in descending tick order (see "Ticks order ancestry" in
/// the module docs): seeds are `discover`ed, `pop` visits the discovered
/// commit with the greatest tick, and `descend` discovers its parents.
struct TickWalk<'a> {
    commits: &'a PMap<Hash256, Commit>,
    /// Discovered but not yet visited.
    frontier: BinaryHeap<(u64, Hash256)>,
    /// Every discovered commit with the seeds it is reachable from.
    marks: HashMap<Hash256, (&'a Commit, u8)>,
    /// Commits visited so far — what the scaling tests bound.
    visited: usize,
}

impl<'a> TickWalk<'a> {
    fn new(commits: &'a PMap<Hash256, Commit>) -> Self {
        TickWalk {
            commits,
            frontier: BinaryHeap::new(),
            marks: HashMap::new(),
            visited: 0,
        }
    }

    /// Adds `mark` to `id`, queueing it on first sight. `missing` names the
    /// error for an id the graph does not hold (a seed or a parent).
    fn discover(
        &mut self,
        id: Hash256,
        mark: u8,
        missing: fn(Hash256) -> StorageError,
    ) -> Result<()> {
        match self.marks.entry(id) {
            Entry::Occupied(mut e) => e.get_mut().1 |= mark,
            Entry::Vacant(e) => {
                let c = self.commits.get(&id).ok_or_else(|| missing(id))?;
                self.frontier.push((c.tick, id));
                e.insert((c, mark));
            }
        }
        Ok(())
    }

    /// Visits the discovered commit with the greatest tick. All of its
    /// descendants in the walk were visited before it, so its marks are
    /// final.
    fn pop(&mut self) -> Option<(&'a Commit, u8)> {
        let (_, id) = self.frontier.pop()?;
        self.visited += 1;
        Some(self.marks[&id])
    }

    /// Passes a visited commit's marks on to its parents.
    fn descend(&mut self, c: &Commit, mark: u8) -> Result<()> {
        c.parents
            .iter()
            .try_for_each(|p| self.discover(*p, mark, StorageError::MissingParent))
    }
}

/// A frozen, internally consistent view of the whole graph.
///
/// Obtained from [`CommitGraph::view`]; holding one costs an `Arc` and
/// blocks nobody. Every query answers against the same publication point, so
/// a head resolved here is guaranteed to `get` successfully here — there are
/// no torn branch→commit reads even while writers are publishing.
#[derive(Clone)]
pub struct GraphView {
    snap: Arc<Snapshot>,
}

impl GraphView {
    /// Current head commit of `branch` in this view.
    pub fn head(&self, branch: &str) -> Result<Commit> {
        self.head_commit(branch).cloned()
    }

    /// Fetches a commit by id.
    pub fn get(&self, id: Hash256) -> Result<Commit> {
        self.commit(id).cloned()
    }

    /// The head commit of `branch`, borrowed from this view.
    pub fn head_commit(&self, branch: &str) -> Result<&Commit> {
        let id = self
            .snap
            .branches
            .head(branch)
            .ok_or_else(|| StorageError::UnknownBranch(branch.to_string()))?;
        self.commit(id)
    }

    /// The commit `id`, borrowed from this view: a walk over many commits
    /// (a log) copies none of them.
    pub fn commit(&self, id: Hash256) -> Result<&Commit> {
        self.snap.commits.get(&id).ok_or(StorageError::NotFound(id))
    }

    /// All branch names (sorted for determinism).
    pub fn branches(&self) -> Vec<String> {
        self.snap
            .branches
            .names
            .iter()
            .map(|b| b.to_string())
            .collect()
    }

    /// The branches of one namespace — the `"{namespace}/…"` range of the
    /// ordered branch names — under their prefix-stripped names, sorted.
    /// Costs the size of that namespace, not of the table.
    pub fn branches_in(&self, namespace: &str) -> Vec<String> {
        let prefix = format!("{namespace}/");
        self.snap
            .branches
            .names
            .range::<str, _>((Bound::Included(prefix.as_str()), Bound::Unbounded))
            .map_while(|name| name.strip_prefix(&prefix))
            .map(str::to_string)
            .collect()
    }

    /// Number of commits in the view.
    pub fn len(&self) -> usize {
        self.snap.commits.len()
    }

    /// True if the view has no commits.
    pub fn is_empty(&self) -> bool {
        self.snap.commits.len() == 0
    }

    /// Set of all ancestors of `id` (including `id` itself).
    pub fn ancestors(&self, id: Hash256) -> Result<HashSet<Hash256>> {
        self.reachable([id])
    }

    /// Every commit reachable from any branch head: one walk seeded with
    /// all the heads, so history shared between branches is crossed once.
    pub fn live_commits(&self) -> Result<HashSet<Hash256>> {
        let mut heads = Vec::with_capacity(self.snap.branches.heads.len());
        self.snap.branches.heads.for_each(|_, id| heads.push(*id));
        self.reachable(heads)
    }

    /// Union of the ancestor sets of `seeds` (each seed included).
    fn reachable(&self, seeds: impl IntoIterator<Item = Hash256>) -> Result<HashSet<Hash256>> {
        let mut queue = VecDeque::new();
        for id in seeds {
            if !self.snap.commits.contains_key(&id) {
                return Err(StorageError::NotFound(id));
            }
            queue.push_back(id);
        }
        let mut seen = HashSet::new();
        while let Some(cur) = queue.pop_front() {
            if !seen.insert(cur) {
                continue;
            }
            let c = self
                .snap
                .commits
                .get(&cur)
                .ok_or(StorageError::MissingParent(cur))?;
            for p in &c.parents {
                queue.push_back(*p);
            }
        }
        Ok(seen)
    }

    /// True if `ancestor` is reachable from `descendant` (inclusive).
    pub fn is_ancestor(&self, ancestor: Hash256, descendant: Hash256) -> Result<bool> {
        Ok(self.reaches(ancestor, descendant)?.0)
    }

    /// [`GraphView::is_ancestor`] plus the number of commits visited.
    fn reaches(&self, ancestor: Hash256, descendant: Hash256) -> Result<(bool, usize)> {
        let mut walk = TickWalk::new(&self.snap.commits);
        walk.discover(descendant, FROM_A, StorageError::NotFound)?;
        let Some(target) = self.snap.commits.get(&ancestor) else {
            return Ok((false, 0));
        };
        while let Some((c, mark)) = walk.pop() {
            if c.id == ancestor {
                return Ok((true, walk.visited));
            }
            // Everything still unvisited is older than `c`, and `ancestor`
            // could only be found at its own tick.
            if c.tick < target.tick {
                break;
            }
            walk.descend(c, mark)?;
        }
        Ok((false, walk.visited))
    }

    /// Lowest common ancestor of two commits: the common ancestor with the
    /// greatest logical tick (i.e. the most recent shared history point).
    pub fn common_ancestor(&self, a: Hash256, b: Hash256) -> Result<Option<Commit>> {
        Ok(self.merge_base(a, b)?.0.cloned())
    }

    /// [`GraphView::common_ancestor`] plus the number of commits visited.
    fn merge_base(&self, a: Hash256, b: Hash256) -> Result<(Option<&Commit>, usize)> {
        let mut walk = TickWalk::new(&self.snap.commits);
        walk.discover(a, FROM_A, StorageError::NotFound)?;
        walk.discover(b, FROM_B, StorageError::NotFound)?;
        while let Some((c, mark)) = walk.pop() {
            if mark == FROM_A | FROM_B {
                return Ok((Some(c), walk.visited));
            }
            walk.descend(c, mark)?;
        }
        Ok((None, walk.visited))
    }

    /// Commits strictly between `ancestor` (exclusive) and `head`
    /// (inclusive), following first-parent history, oldest first.
    ///
    /// This is the path the merge machinery walks to collect component
    /// versions developed since the common ancestor.
    pub fn path_from(&self, ancestor: Hash256, head: Hash256) -> Result<Vec<Commit>> {
        let mut path = Vec::new();
        let mut cur = head;
        loop {
            if cur == ancestor {
                break;
            }
            let c = self.get(cur)?;
            let next = match c.parents.first() {
                Some(p) => *p,
                None => {
                    // Reached a root without meeting the ancestor.
                    path.push(c);
                    break;
                }
            };
            path.push(c);
            cur = next;
        }
        path.reverse();
        Ok(path)
    }

    /// Whether a merge of `merge_head` into `base_head` is a fast-forward
    /// (i.e. `base_head` is an ancestor of `merge_head`).
    pub fn is_fast_forward(&self, base_head: Hash256, merge_head: Hash256) -> Result<bool> {
        self.is_ancestor(base_head, merge_head)
    }
}

/// Mutable branch table + immutable commit set — see the module docs.
pub struct CommitGraph {
    /// The latest published generation. The write lock is held only for the
    /// pointer swap; readers clone the `Arc` and get out.
    published: RwLock<Arc<Snapshot>>,
    /// Serializes writers: each builds its successor generation off the
    /// currently published one, so publication order is a total order.
    writer: Mutex<()>,
    /// Logical clock; advanced inside the writer section only.
    tick: AtomicU64,
    /// Graph appends (publications of a new commit):
    /// `mlcask_graph_append_ops_total{instance=...}`, one label per graph.
    appends: Counter,
    /// Snapshot publications (appends and branch creations).
    publishes: Counter,
}

impl Default for CommitGraph {
    fn default() -> Self {
        let reg = MetricsRegistry::global();
        let instance = instance_label("graph");
        let ilabel = [("instance", instance.as_str())];
        CommitGraph {
            published: RwLock::new(Snapshot::empty()),
            writer: Mutex::new(()),
            tick: AtomicU64::new(0),
            appends: reg.counter(
                "mlcask_graph_append_ops_total",
                "Commit-graph append operations (publications of new commits)",
                &ilabel,
            ),
            publishes: reg.counter(
                "mlcask_graph_publish_total",
                "Commit-graph snapshot publications",
                &ilabel,
            ),
        }
    }
}

impl CommitGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latest published snapshot of the whole graph. Cheap (one `Arc`
    /// clone under a momentary read lock); the returned [`GraphView`] never
    /// blocks writers and is never torn by them. Multi-step read sequences
    /// (resolve a head, walk its log, compare branches) should grab one view
    /// and run every step against it.
    pub fn view(&self) -> GraphView {
        GraphView {
            snap: self.published.read().clone(),
        }
    }

    /// Swaps in the successor generation. Caller must hold the writer lock.
    fn publish(&self, next: Snapshot) {
        self.publishes.inc();
        *self.published.write() = Arc::new(next);
    }

    /// Publishes `cur` plus one commit on `branch` as its new head — one
    /// append operation. Its parents are `head` (the branch's head, absent
    /// for a root) then `merge_head`, both in `cur`; its seq is `head`'s plus
    /// one, or 0. Draws the tick and checks the tick invariant. Caller must
    /// hold the writer lock.
    fn append(
        &self,
        cur: &GraphView,
        branch: &str,
        head: Option<&Commit>,
        merge_head: Option<Hash256>,
        payload: Hash256,
        message: &str,
    ) -> Commit {
        let parents: Vec<Hash256> = head.map(|h| h.id).into_iter().chain(merge_head).collect();
        let seq = head.map_or(0, |h| h.seq + 1);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        debug_assert!(
            parents
                .iter()
                .all(|p| cur.snap.commits.get(p).is_some_and(|c| c.tick < tick)),
            "a commit's tick must exceed its parents' (the ancestry walks rely on it)"
        );
        let c = Commit {
            id: Commit::compute_id(&parents, branch, seq, payload, message, tick),
            parents,
            branch: branch.to_string(),
            seq,
            payload,
            message: message.to_string(),
            tick,
        };
        let commits = cur.snap.commits.insert(c.id, c.clone());
        self.publish(cur.snap.advance(commits, branch, c.id));
        self.appends.inc();
        c
    }

    /// Creates a root commit on a new branch.
    pub fn commit_root(&self, branch: &str, payload: Hash256, message: &str) -> Result<Commit> {
        self.commit_onto(branch, None, None, payload, message)
    }

    /// Appends a commit to whatever `branch`'s head is once the writer lock
    /// is held, so two racing appends chain rather than losing one. The
    /// workspace never calls this: its commits go through
    /// [`CommitGraph::commit_onto`].
    pub fn commit(&self, branch: &str, payload: Hash256, message: &str) -> Result<Commit> {
        let _w = self.writer.lock();
        let cur = self.view();
        let head = cur.head_commit(branch)?;
        Ok(self.append(&cur, branch, Some(head), None, payload, message))
    }

    /// Appends a commit to `branch` only if its head is still `base`, the
    /// head the caller built the commit on: with `base` absent the branch
    /// must not exist ([`StorageError::BranchExists`]) and the commit is
    /// its root; with `base` given, another head is
    /// [`StorageError::BaseMoved`]. Either way a refusal writes nothing.
    /// `merge_head`, which must be in the graph, becomes the second parent.
    pub fn commit_onto(
        &self,
        branch: &str,
        base: Option<Hash256>,
        merge_head: Option<Hash256>,
        payload: Hash256,
        message: &str,
    ) -> Result<Commit> {
        let _w = self.writer.lock();
        let cur = self.view();
        let head = match (base, cur.snap.branches.head(branch)) {
            (None, None) => None,
            (None, Some(_)) => return Err(StorageError::BranchExists(branch.to_string())),
            (Some(_), None) => return Err(StorageError::UnknownBranch(branch.to_string())),
            (Some(searched), Some(head)) if searched != head => {
                return Err(StorageError::BaseMoved {
                    branch: branch.to_string(),
                    searched,
                    head,
                })
            }
            (Some(_), Some(head)) => Some(cur.commit(head)?),
        };
        if let Some(m) = merge_head.filter(|m| !cur.snap.commits.contains_key(m)) {
            return Err(StorageError::MissingParent(m));
        }
        Ok(self.append(&cur, branch, head, merge_head, payload, message))
    }

    /// Creates `new_branch` pointing at `from`'s current head.
    pub fn branch(&self, from: &str, new_branch: &str) -> Result<Commit> {
        let head = self.head(from)?;
        self.branch_at(from, new_branch, head.id)
    }

    /// [`CommitGraph::branch`] pinned to a snapshot: creates `new_branch`
    /// pointing at `at`, which must be `from`'s current head or one of its
    /// ancestors. Callers that pre-validate state against a head they read
    /// earlier (e.g. the workspace's fork handoff) use this to fork exactly
    /// that snapshot, immune to the source branch advancing concurrently.
    pub fn branch_at(&self, from: &str, new_branch: &str, at: Hash256) -> Result<Commit> {
        let _w = self.writer.lock();
        let cur = self.view();
        let head = cur.head(from)?;
        // `at == head` is the common (plain `branch`) case — skip the
        // ancestor walk so branch creation stays O(1) on long histories.
        if at != head.id && !cur.is_ancestor(at, head.id)? {
            return Err(StorageError::MissingParent(at));
        }
        let commit = cur.get(at)?;
        if cur.snap.branches.head(new_branch).is_some() {
            return Err(StorageError::BranchExists(new_branch.to_string()));
        }
        self.publish(cur.snap.advance(cur.snap.commits.clone(), new_branch, at));
        Ok(commit)
    }

    /// Current head commit of `branch`.
    pub fn head(&self, branch: &str) -> Result<Commit> {
        self.view().head(branch)
    }

    /// Lowest common ancestor of two commits: the common ancestor with the
    /// greatest logical tick (i.e. the most recent shared history point).
    pub fn common_ancestor(&self, a: Hash256, b: Hash256) -> Result<Option<Commit>> {
        self.view().common_ancestor(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Commit ids computed by the tree before `compute_id` stopped copying
    /// its parts (PR 14's commit): a root and a two-parent merge.
    #[test]
    fn commit_ids_are_pinned() {
        let payload = Hash256::of(b"payload");
        assert_eq!(
            Commit::compute_id(&[], "master", 0, payload, "", 0).to_hex(),
            "db3aac2fed5bdb4167ce0424f2c5cb98f3f5632a05d8f7c20412f859754e5d02"
        );
        let parents = [Hash256::of(b"p1"), Hash256::of(b"p2")];
        assert_eq!(
            Commit::compute_id(&parents, "alice/dev", 3, payload, "merge é \"x\"", u64::MAX)
                .to_hex(),
            "1d0492b2bade74a97126a609a68e42ba911adc5c831793a5a78ac5b60106ecc0"
        );
    }

    fn payload(n: u8) -> Hash256 {
        Hash256::of(&[n])
    }

    fn linear_graph() -> (CommitGraph, Vec<Commit>) {
        let g = CommitGraph::new();
        let mut cs = vec![g.commit_root("master", payload(0), "init").unwrap()];
        for i in 1..4u8 {
            cs.push(g.commit("master", payload(i), "update").unwrap());
        }
        (g, cs)
    }

    #[test]
    fn root_and_linear_commits() {
        let (g, cs) = linear_graph();
        assert_eq!(g.view().len(), 4);
        assert_eq!(g.head("master").unwrap().id, cs[3].id);
        assert_eq!(cs[3].seq, 3);
        assert_eq!(cs[3].label(), "master.3");
        assert_eq!(cs[3].parents, vec![cs[2].id]);
    }

    #[test]
    fn duplicate_branch_rejected() {
        let g = CommitGraph::new();
        g.commit_root("master", payload(0), "init").unwrap();
        assert!(matches!(
            g.commit_root("master", payload(1), "again"),
            Err(StorageError::BranchExists(_))
        ));
        g.branch("master", "dev").unwrap();
        assert!(matches!(
            g.branch("master", "dev"),
            Err(StorageError::BranchExists(_))
        ));
    }

    #[test]
    fn unknown_branch_errors() {
        let g = CommitGraph::new();
        assert!(matches!(
            g.head("nope"),
            Err(StorageError::UnknownBranch(_))
        ));
        assert!(matches!(
            g.commit("nope", payload(0), "x"),
            Err(StorageError::UnknownBranch(_))
        ));
    }

    #[test]
    fn branch_points_at_head() {
        let (g, cs) = linear_graph();
        let head = g.branch("master", "dev").unwrap();
        assert_eq!(head.id, cs[3].id);
        assert_eq!(g.head("dev").unwrap().id, cs[3].id);
        // Branch seq continues from the fork point.
        let d = g.commit("dev", payload(9), "dev work").unwrap();
        assert_eq!(d.seq, 4);
        assert_eq!(d.branch, "dev");
    }

    #[test]
    fn ancestors_and_is_ancestor() {
        let (g, cs) = linear_graph();
        let anc = g.view().ancestors(cs[3].id).unwrap();
        assert_eq!(anc.len(), 4);
        assert!(g.view().is_ancestor(cs[0].id, cs[3].id).unwrap());
        assert!(!g.view().is_ancestor(cs[3].id, cs[0].id).unwrap());
        assert!(
            g.view().is_ancestor(cs[2].id, cs[2].id).unwrap(),
            "inclusive"
        );
    }

    #[test]
    fn common_ancestor_diverged() {
        let g = CommitGraph::new();
        let root = g.commit_root("master", payload(0), "init").unwrap();
        let fork = g.commit("master", payload(1), "shared").unwrap();
        g.branch("master", "dev").unwrap();
        let m = g.commit("master", payload(2), "on master").unwrap();
        let d1 = g.commit("dev", payload(3), "on dev").unwrap();
        let d2 = g.commit("dev", payload(4), "more dev").unwrap();
        let lca = g.common_ancestor(m.id, d2.id).unwrap().unwrap();
        assert_eq!(lca.id, fork.id);
        assert_ne!(lca.id, root.id);
        // Path from ancestor to dev head.
        let path = g.view().path_from(fork.id, d2.id).unwrap();
        assert_eq!(
            path.iter().map(|c| c.id).collect::<Vec<_>>(),
            vec![d1.id, d2.id]
        );
    }

    #[test]
    fn fast_forward_detection() {
        let g = CommitGraph::new();
        g.commit_root("master", payload(0), "init").unwrap();
        g.branch("master", "dev").unwrap();
        let d = g.commit("dev", payload(1), "dev").unwrap();
        let base = g.head("master").unwrap();
        assert!(g.view().is_fast_forward(base.id, d.id).unwrap());
        // After master moves, no longer fast-forward.
        let m = g.commit("master", payload(2), "master").unwrap();
        assert!(!g.view().is_fast_forward(m.id, d.id).unwrap());
    }

    /// Slide-back guard: below the fork point the ancestry queries must not
    /// look at history at all. Counts, not timings, so it fails
    /// deterministically.
    #[test]
    fn ancestry_walks_scale_with_divergence_not_history() {
        let g = CommitGraph::new();
        g.commit_root("master", payload(0), "init").unwrap();
        for i in 1..5_000u32 {
            g.commit("master", Hash256::of(&i.to_le_bytes()), "fill")
                .unwrap();
        }
        let fork = g.branch("master", "dev").unwrap();
        for i in 0..3u8 {
            g.commit("dev", payload(i), "dev work").unwrap();
        }
        let m = g.commit("master", payload(9), "master moves").unwrap();
        let d = g.head("dev").unwrap();
        let view = g.view();
        let (base, visited) = view.merge_base(m.id, d.id).unwrap();
        assert_eq!(base.unwrap().id, fork.id);
        assert!(visited <= 16, "merge-base walk visited {visited} commits");
        for (anc, desc, expect) in [
            (m.id, d.id, false),
            (d.id, m.id, false),
            (fork.id, d.id, true),
            (fork.id, m.id, true),
        ] {
            let (found, visited) = view.reaches(anc, desc).unwrap();
            assert_eq!(found, expect);
            assert!(visited <= 16, "ancestor walk visited {visited} commits");
        }
    }

    /// A parent id the graph does not hold (unconstructible through the
    /// public API) surfaces as `MissingParent` from every walk that reaches
    /// it.
    #[test]
    fn dangling_parent_is_reported_by_every_walk() {
        let ghost = Hash256::of(b"ghost");
        let mk = |n: u8, parents: Vec<Hash256>, tick: u64| Commit {
            id: payload(n),
            parents,
            branch: "master".into(),
            seq: 0,
            payload: payload(n),
            message: String::new(),
            tick,
        };
        // old (a root), a -> ghost, b -> a, c -> ghost.
        let old = mk(0, vec![], 1);
        let a = mk(1, vec![ghost], 2);
        let b = mk(2, vec![a.id], 3);
        let c = mk(3, vec![ghost], 4);
        let commits = [&old, &a, &b, &c]
            .into_iter()
            .fold(PMap::new(), |m, x| m.insert(x.id, x.clone()));
        let view = GraphView {
            snap: Arc::new(Snapshot {
                commits,
                branches: Branches::default().with_head("master", b.id),
            }),
        };
        let dangling =
            |e: StorageError| assert!(matches!(e, StorageError::MissingParent(p) if p == ghost));
        dangling(view.common_ancestor(b.id, c.id).unwrap_err());
        dangling(view.is_ancestor(old.id, b.id).unwrap_err());
        dangling(view.is_fast_forward(old.id, c.id).unwrap_err());
        dangling(view.ancestors(b.id).unwrap_err());
        dangling(view.live_commits().unwrap_err());
        // Walks that end above the hole never see it.
        assert!(view.is_ancestor(a.id, b.id).unwrap());
        assert_eq!(view.common_ancestor(a.id, b.id).unwrap().unwrap().id, a.id);
    }

    #[test]
    fn merge_commit_has_two_parents() {
        let g = CommitGraph::new();
        g.commit_root("master", payload(0), "init").unwrap();
        g.branch("master", "dev").unwrap();
        let d = g.commit("dev", payload(1), "dev").unwrap();
        let m = g.commit("master", payload(2), "master").unwrap();
        let merged = g
            .commit_onto("master", Some(m.id), Some(d.id), payload(3), "merge dev")
            .unwrap();
        assert_eq!(merged.parents, vec![m.id, d.id]);
        assert_eq!(g.head("master").unwrap().id, merged.id);
        // LCA of the two heads afterwards is the merge commit itself.
        let lca = g.common_ancestor(merged.id, d.id).unwrap().unwrap();
        assert_eq!(lca.id, d.id);
    }

    #[test]
    fn merge_with_unknown_parent_fails() {
        let g = CommitGraph::new();
        let root = g.commit_root("master", payload(0), "init").unwrap();
        assert!(matches!(
            g.commit_onto(
                "master",
                Some(root.id),
                Some(Hash256::of(b"ghost")),
                payload(1),
                "bad"
            ),
            Err(StorageError::MissingParent(_))
        ));
    }

    #[test]
    fn merge_onto_a_moved_base_fails_and_writes_nothing() {
        let g = CommitGraph::new();
        let root = g.commit_root("master", payload(0), "init").unwrap();
        g.branch("master", "dev").unwrap();
        let d = g.commit("dev", payload(1), "dev").unwrap();
        let moved = g.commit("master", payload(2), "lands meanwhile").unwrap();
        let before = g.view().len();
        assert!(matches!(
            g.commit_onto("master", Some(root.id), Some(d.id), payload(3), "stale"),
            Err(StorageError::BaseMoved { branch, searched, head })
                if branch == "master" && searched == root.id && head == moved.id
        ));
        assert_eq!(g.head("master").unwrap().id, moved.id);
        assert_eq!(g.view().len(), before);
    }

    /// A plain commit built on a head another commit replaced is refused
    /// and writes nothing; built on the new head it lands.
    #[test]
    fn a_plain_commit_onto_a_moved_base_fails_and_writes_nothing() {
        let g = CommitGraph::new();
        let read = g.commit_root("master", payload(0), "init").unwrap();
        let moved = g.commit("master", payload(1), "lands meanwhile").unwrap();
        let before = g.view().len();
        assert!(matches!(
            g.commit_onto("master", Some(read.id), None, payload(2), "stale"),
            Err(StorageError::BaseMoved { branch, searched, head })
                if branch == "master" && searched == read.id && head == moved.id
        ));
        assert_eq!(g.head("master").unwrap().id, moved.id);
        assert_eq!(g.view().len(), before);
        let c = g
            .commit_onto("master", Some(moved.id), None, payload(2), "fresh")
            .unwrap();
        assert_eq!((c.parents, c.seq), (vec![moved.id], 2));
        assert_eq!(g.view().len(), before + 1);
    }

    #[test]
    fn commit_ids_are_unique_even_for_same_payload() {
        let g = CommitGraph::new();
        let a = g.commit_root("master", payload(0), "same").unwrap();
        let b = g.commit("master", payload(0), "same").unwrap();
        assert_ne!(a.id, b.id, "tick and parents differentiate ids");
    }

    #[test]
    fn path_from_self_is_empty() {
        let (g, cs) = linear_graph();
        assert!(g.view().path_from(cs[3].id, cs[3].id).unwrap().is_empty());
    }

    #[test]
    fn branch_at_pins_a_snapshot() {
        let (g, cs) = linear_graph();
        // Pin the branch to an ancestor of the current head.
        let pinned = g.branch_at("master", "old", cs[1].id).unwrap();
        assert_eq!(pinned.id, cs[1].id);
        assert_eq!(g.head("old").unwrap().id, cs[1].id);
        // Non-ancestors are rejected.
        g.branch("master", "side").unwrap();
        let s = g.commit("side", payload(9), "diverge").unwrap();
        assert!(matches!(
            g.branch_at("master", "bad", s.id),
            Err(StorageError::MissingParent(_))
        ));
    }

    #[test]
    fn views_share_one_graph() {
        let g = CommitGraph::new();
        g.commit_root("master", payload(0), "init").unwrap();
        // Views taken with no write between them are one generation.
        let (a, b) = (g.view(), g.view());
        assert!(Arc::ptr_eq(&a.snap, &b.snap));
        g.commit("master", payload(1), "via graph").unwrap();
        g.branch("master", "dev").unwrap();
        let c = g.view();
        assert!(!Arc::ptr_eq(&a.snap, &c.snap));
        assert_eq!(c.head("master").unwrap().seq, 1);
        // Two appends and a branch creation: three publications.
        assert_eq!(g.appends.get(), 2);
        assert_eq!(g.publishes.get(), 3);
    }

    #[test]
    fn branches_sorted() {
        let g = CommitGraph::new();
        g.commit_root("master", payload(0), "init").unwrap();
        g.branch("master", "zeta").unwrap();
        g.branch("master", "alpha").unwrap();
        assert_eq!(g.view().branches(), vec!["alpha", "master", "zeta"]);
    }

    #[test]
    fn branches_in_reads_one_namespace_range() {
        let g = CommitGraph::new();
        g.commit_root("master", payload(0), "init").unwrap();
        // Neighbours in table order on both sides of "team/…": '.' and '/'
        // sort below and at the separator, '0' just above it.
        for b in [
            "team/zeta",
            "team/alpha",
            "team.x/a",
            "team0/b",
            "tea/m",
            "team",
        ] {
            g.branch("master", b).unwrap();
        }
        let v = g.view();
        assert_eq!(v.branches_in("team"), vec!["alpha", "zeta"]);
        assert_eq!(v.branches_in("tea"), vec!["m"]);
        assert!(v.branches_in("master").is_empty());
        assert!(v.branches_in("nobody").is_empty());
    }

    /// Slide-back guard for the branch table: on a wide graph a head move
    /// copies no names (the successor generation holds the very same name
    /// set), only creating a branch does, and views taken before either
    /// keep answering for their own generation. Pointer identity, not
    /// timings, so it fails deterministically.
    #[test]
    fn head_moves_share_the_name_set_on_a_thousand_branch_graph() {
        let g = CommitGraph::new();
        g.commit_root("master", payload(0), "init").unwrap();
        for i in 0..1_000 {
            g.branch("master", &format!("team/b{i:04}")).unwrap();
        }
        let names = |v: &GraphView| Arc::clone(&v.snap.branches.names);
        let before = g.view();
        let old_head = before.head("team/b0500").unwrap();
        let c = g.commit("team/b0500", payload(1), "move a head").unwrap();
        let after_commit = g.view();
        assert!(Arc::ptr_eq(&names(&before), &names(&after_commit)));
        let base = before.head("master").unwrap().id;
        let m = g
            .commit_onto(
                "master",
                Some(base),
                Some(c.id),
                payload(2),
                "move another by merging",
            )
            .unwrap();
        let after_merge = g.view();
        assert!(Arc::ptr_eq(&names(&before), &names(&after_merge)));
        // Each generation answers for itself.
        assert_eq!(before.head("team/b0500").unwrap(), old_head);
        assert_eq!(before.head("master").unwrap().seq, 0);
        assert_eq!(after_commit.head("team/b0500").unwrap().id, c.id);
        assert_eq!(after_commit.head("master").unwrap().seq, 0);
        assert_eq!(after_merge.head("master").unwrap().id, m.id);
        // A new branch is a new name set — and only for views from then on.
        g.branch("master", "team/b9999").unwrap();
        let grown = g.view();
        assert!(!Arc::ptr_eq(&names(&before), &names(&grown)));
        assert_eq!(before.branches().len(), 1_001);
        assert_eq!(grown.branches().len(), 1_002);
        assert_eq!(grown.branches_in("team").len(), 1_001);
        assert!(before.head("team/b9999").is_err());
        assert_eq!(grown.head("team/b9999").unwrap().id, m.id);
    }

    #[test]
    fn live_commits_is_the_union_of_every_heads_ancestry() {
        let g = CommitGraph::new();
        g.commit_root("master", payload(0), "init").unwrap();
        g.branch("master", "dev").unwrap();
        g.commit("dev", payload(1), "dev").unwrap();
        g.commit("master", payload(2), "master").unwrap();
        g.commit_root("island", payload(3), "unrelated root")
            .unwrap();
        let v = g.view();
        let mut union = HashSet::new();
        for b in v.branches() {
            union.extend(v.ancestors(v.head(&b).unwrap().id).unwrap());
        }
        assert_eq!(v.live_commits().unwrap(), union);
        assert_eq!(union.len(), 4);
    }

    #[test]
    fn graph_views_are_frozen_snapshots() {
        let (g, cs) = linear_graph();
        let v = g.view();
        assert_eq!(v.len(), 4);
        assert_eq!(v.head("master").unwrap().id, cs[3].id);
        // Later writes never leak into an already-taken view.
        let c5 = g.commit("master", payload(7), "after view").unwrap();
        g.branch("master", "late").unwrap();
        assert_eq!(v.len(), 4);
        assert_eq!(v.head("master").unwrap().id, cs[3].id);
        assert!(v.get(c5.id).is_err(), "new commit invisible to old view");
        assert_eq!(v.branches(), vec!["master"]);
        // A fresh view sees everything.
        let v2 = g.view();
        assert_eq!(v2.len(), 5);
        assert_eq!(v2.branches(), vec!["late", "master"]);
    }

    #[test]
    fn views_never_tear_under_concurrent_writes() {
        let g = Arc::new(CommitGraph::new());
        g.commit_root("master", payload(0), "init").unwrap();
        let writers: Vec<_> = (0..4u8)
            .map(|t| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for i in 0..40u8 {
                        g.commit("master", Hash256::of(&[t, i]), "race").unwrap();
                    }
                })
            })
            .collect();
        // Readers: in any single view, every branch head must resolve and
        // every head's full ancestry must be present — no torn reads.
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let v = g.view();
                        for b in v.branches() {
                            let head = v.head(&b).expect("head resolves in its own view");
                            let anc = v.ancestors(head.id).expect("ancestry complete");
                            assert!(anc.len() <= v.len());
                        }
                    }
                })
            })
            .collect();
        for h in writers.into_iter().chain(readers) {
            h.join().unwrap();
        }
        // No lost updates: 1 root + 4*40 racing appends all landed.
        assert_eq!(g.view().len(), 161);
        assert_eq!(g.head("master").unwrap().seq, 160);
    }
}
