//! Worker-pool primitives for parallel pipeline evaluation.
//!
//! Two fan-out shapes share one pool budget:
//!
//! * **Across pipelines** — merge searches and prioritized-search trials
//!   evaluate many *independent* pipelines; `map_indexed`
//!   fans that work out over scoped threads while keeping results in input
//!   order so downstream accounting is deterministic.
//! * **Within one pipeline** — independent DAG nodes of a *single* pipeline
//!   run concurrently via `run_dag`, a ready-set (wavefront) scheduler: a
//!   node is dispatched the moment its last predecessor completes.
//!
//! [`ParallelismPolicy`] is the user-facing knob, exposed on
//! [`Policy`](crate::search::Policy), `MergeEngine`, and `MlCask`;
//! `ParallelismPolicy::split` divides one budget between the two levels
//! without oversubscribing.
//!
//! Determinism contract: callers must make worker closures *pure up to
//! commutative side effects* (content-addressed stores and output caches
//! commute); every ordering-sensitive computation (virtual time, virtual
//! end-times, storage accounting, best-candidate selection) is then
//! performed by a sequential reduction over the index-ordered results — see
//! `mlcask_pipeline::replay`.

use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Condvar as StdCondvar;
use std::sync::Mutex as StdMutex;

/// How many worker threads candidate evaluation may use.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParallelismPolicy {
    /// Evaluate candidates one at a time on the caller's thread.
    #[default]
    Sequential,
    /// Evaluate candidates on a pool of `n` workers; `Parallel(0)` sizes the
    /// pool to the machine's available parallelism.
    Parallel(usize),
}

impl ParallelismPolicy {
    /// A pool sized to the machine.
    pub fn auto() -> ParallelismPolicy {
        ParallelismPolicy::Parallel(0)
    }

    /// The concrete worker count this policy resolves to.
    pub(crate) fn workers(&self) -> usize {
        match self {
            ParallelismPolicy::Sequential => 1,
            ParallelismPolicy::Parallel(0) => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            ParallelismPolicy::Parallel(n) => *n,
        }
    }

    /// Divides this pool between an outer fan-out over `outer_items`
    /// independent work items and DAG-internal execution *inside* each
    /// item, without oversubscribing: the outer level gets
    /// `min(workers, outer_items)` workers and each item inherits the
    /// leftover `workers / outer` as its inner policy.
    ///
    /// With many items (a wide merge search) all workers go to the outer
    /// level and inner execution stays sequential; with few items (one
    /// trial, one commit) the spare workers flow into each pipeline's
    /// wavefront instead.
    pub(crate) fn split(&self, outer_items: usize) -> (ParallelismPolicy, ParallelismPolicy) {
        let w = self.workers();
        if w <= 1 {
            return (ParallelismPolicy::Sequential, ParallelismPolicy::Sequential);
        }
        let outer = w.min(outer_items.max(1));
        let inner = w / outer;
        let as_policy = |n: usize| {
            if n <= 1 {
                ParallelismPolicy::Sequential
            } else {
                ParallelismPolicy::Parallel(n)
            }
        };
        (as_policy(outer), as_policy(inner))
    }
}

/// Applies `f` to every item, possibly in parallel, returning results in
/// input order. Work is distributed dynamically (an atomic cursor), so
/// heterogeneous item costs balance across workers. Panics in workers
/// propagate to the caller.
pub(crate) fn map_indexed<T, R, F>(policy: ParallelismPolicy, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = policy.workers().min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("worker filled every slot"))
        .collect()
}

/// Directs the [`run_dag`] scheduler after one node completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeVerdict {
    /// The node succeeded: release its successors into the ready set.
    Continue,
    /// The node hit an *expected* failure (e.g. a schema incompatibility):
    /// its successors stay unreachable, but independent nodes keep
    /// executing. This keeps the executed node set deterministic — it
    /// depends only on the DAG and which nodes fail, never on worker count
    /// or completion order.
    SkipSuccessors,
}

struct DagState<E> {
    ready: Vec<usize>,
    indeg: Vec<usize>,
    in_flight: usize,
    stop: bool,
    err: Option<E>,
}

/// Removes and returns the best ready node: longest critical path first
/// (see [`crate::dag::PipelineDag::critical_path_lengths`]), lowest index
/// on ties. With an empty `priority` slice this degenerates to canonical
/// lowest-index (FIFO-equivalent) popping.
fn pop_ready(ready: &mut Vec<usize>, priority: &[u64]) -> Option<usize> {
    let pos = ready
        .iter()
        .enumerate()
        .min_by_key(|(_, &n)| (std::cmp::Reverse(priority.get(n).copied().unwrap_or(0)), n))
        .map(|(i, _)| i)?;
    Some(ready.swap_remove(pos))
}

/// Decrements `in_flight` and halts the scheduler if the worker unwinds
/// inside the node callback, so sibling workers blocked on the condvar are
/// released instead of deadlocking while the panic propagates.
struct FlightGuard<'a, E> {
    state: &'a StdMutex<DagState<E>>,
    cv: &'a StdCondvar,
    armed: bool,
}

impl<E> Drop for FlightGuard<'_, E> {
    fn drop(&mut self) {
        if self.armed {
            let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
            s.in_flight -= 1;
            s.stop = true;
            drop(s);
            self.cv.notify_all();
        }
    }
}

/// Executes the nodes of a DAG on a worker pool, dispatching each node the
/// moment its last predecessor completes (a ready-set wavefront scheduler).
///
/// * `indeg[i]` — number of predecessors of node `i` (see
///   `crate::dag::PipelineDag::indegrees`).
/// * `adjacency[i]` — successors of node `i` (see
///   `crate::dag::PipelineDag::adjacency`).
/// * `priority[i]` — dispatch priority among simultaneously-ready nodes;
///   highest first, lowest index on ties. Callers pass
///   `crate::dag::PipelineDag::critical_path_lengths` so the node heading
///   the longest remaining dependency chain is dispatched first
///   (cost-aware wavefront ordering — FIFO can strand the critical chain
///   behind a burst of short branches on skewed DAGs). An empty slice
///   means no preference (canonical lowest-index order).
/// * `f(i)` — executes node `i`; its [`NodeVerdict`] tells the scheduler
///   whether to release the node's successors or stop dispatching.
///
/// With one worker the nodes run on the caller's thread in canonical
/// topological order (lowest index first among ready nodes — the
/// [`crate::dag::PipelineDag::topo_order`] tie-break). With more workers
/// the completion order is racy, so callers must keep `f`'s side effects
/// commutative and defer ordering-sensitive accounting to a deterministic
/// replay (see [`crate::replay`]).
///
/// Which nodes run is *not* racy: a node runs iff every ancestor returned
/// [`NodeVerdict::Continue`], a predicate independent of scheduling. Nodes
/// left unreachable by a [`NodeVerdict::SkipSuccessors`] are simply never
/// visited; `run_dag` still returns `Ok`.
///
/// The first `Err` from `f` halts dispatch and is returned; panics in
/// workers propagate to the caller.
pub(crate) fn run_dag<E, F>(
    policy: ParallelismPolicy,
    indeg: Vec<usize>,
    adjacency: &[Vec<usize>],
    priority: &[u64],
    f: F,
) -> std::result::Result<(), E>
where
    F: Fn(usize) -> std::result::Result<NodeVerdict, E> + Sync,
    E: Send,
{
    let n = indeg.len();
    let workers = policy.workers().min(n.max(1));
    if workers <= 1 {
        let mut indeg = indeg;
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        while let Some(&next) = ready.iter().min() {
            ready.retain(|&x| x != next);
            if f(next)? == NodeVerdict::Continue {
                for &s in &adjacency[next] {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        ready.push(s);
                    }
                }
            }
        }
        return Ok(());
    }

    let ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let state = StdMutex::new(DagState {
        ready,
        indeg,
        in_flight: 0,
        stop: false,
        err: None,
    });
    let cv = StdCondvar::new();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let node = {
                    let mut s = state.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        if s.stop {
                            return;
                        }
                        if let Some(next) = pop_ready(&mut s.ready, priority) {
                            s.in_flight += 1;
                            break next;
                        }
                        if s.in_flight == 0 {
                            return;
                        }
                        s = cv.wait(s).unwrap_or_else(|e| e.into_inner());
                    }
                };
                let mut panic_guard = FlightGuard {
                    state: &state,
                    cv: &cv,
                    armed: true,
                };
                let verdict = f(node);
                panic_guard.armed = false;
                let mut s = state.lock().unwrap_or_else(|e| e.into_inner());
                s.in_flight -= 1;
                match verdict {
                    Ok(NodeVerdict::Continue) => {
                        for &suc in &adjacency[node] {
                            s.indeg[suc] -= 1;
                            if s.indeg[suc] == 0 {
                                s.ready.push(suc);
                            }
                        }
                    }
                    Ok(NodeVerdict::SkipSuccessors) => {}
                    Err(e) => {
                        if s.err.is_none() {
                            s.err = Some(e);
                        }
                        s.stop = true;
                    }
                }
                drop(s);
                cv.notify_all();
            });
        }
    });
    let s = state.into_inner().unwrap_or_else(|e| e.into_inner());
    match s.err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Number of independently locked shards in a [`ShardedMap`].
const MAP_SHARDS: usize = 16;

/// A concurrent hash map split into independently locked shards, so many
/// worker threads can look up and insert without serializing on one lock.
/// Backs the replay's `ProfileBook` and both maps of the `HistoryIndex`.
pub(crate) struct ShardedMap<K, V> {
    shards: Vec<RwLock<HashMap<K, V>>>,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap {
            shards: (0..MAP_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }
}

impl<K: Eq + Hash, V> ShardedMap<K, V> {
    fn shard_of(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// True if the key is present.
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.shards[self.shard_of(key)].read().contains_key(key)
    }

    /// Inserts (last writer wins).
    pub(crate) fn insert(&self, key: K, value: V) {
        self.shards[self.shard_of(&key)].write().insert(key, value);
    }

    /// `f` applied to the value for `key`, if present, under the shard's
    /// read lock: reads part of a large value without cloning all of it.
    pub(crate) fn get_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.shards[self.shard_of(key)].read().get(key).map(f)
    }

    /// Number of entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    /// Cloned value for `key`, if present.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        self.get_with(key, V::clone)
    }
}

impl<K: Eq + Hash, V> ShardedMap<K, V> {
    /// Visits every value by reference (unspecified order, one shard read
    /// lock at a time) — no clones, for cheap sweeps over large values.
    pub(crate) fn for_each_value(&self, mut f: impl FnMut(&V)) {
        for s in &self.shards {
            for v in s.read().values() {
                f(v);
            }
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedMap<K, V> {
    /// Point-in-time copy of every entry as one `HashMap`.
    pub(crate) fn to_hashmap(&self) -> HashMap<K, V> {
        let mut out = HashMap::with_capacity(self.len());
        for s in &self.shards {
            for (k, v) in s.read().iter() {
                out.insert(k.clone(), v.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_map_basics() {
        let m: ShardedMap<u32, String> = ShardedMap::default();
        assert_eq!(m.len(), 0);
        for i in 0..100u32 {
            m.insert(i, i.to_string());
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&42).as_deref(), Some("42"));
        assert!(m.contains(&7));
        assert!(!m.contains(&1000));
        assert_eq!(m.to_hashmap().len(), 100);
    }

    #[test]
    fn sharded_map_concurrent_inserts() {
        let m: ShardedMap<u32, u32> = ShardedMap::default();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..250u32 {
                        m.insert(t * 250 + i, i);
                    }
                });
            }
        });
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn policy_workers() {
        assert_eq!(ParallelismPolicy::Sequential.workers(), 1);
        assert_eq!(ParallelismPolicy::Parallel(3).workers(), 3);
        assert!(ParallelismPolicy::auto().workers() >= 1);
        assert_eq!(ParallelismPolicy::default(), ParallelismPolicy::Sequential);
    }

    #[test]
    fn results_keep_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for policy in [
            ParallelismPolicy::Sequential,
            ParallelismPolicy::Parallel(4),
        ] {
            let out = map_indexed(policy, &items, |i, x| (i as u64) * 1000 + x * 2);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i as u64) * 1000 + items[i] * 2);
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let items: Vec<u64> = (0..64).collect();
        let seq = map_indexed(ParallelismPolicy::Sequential, &items, |_, x| x * x);
        let par = map_indexed(ParallelismPolicy::Parallel(8), &items, |_, x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(map_indexed(ParallelismPolicy::Parallel(4), &empty, |_, x| *x).is_empty());
        let one = [7u32];
        assert_eq!(
            map_indexed(ParallelismPolicy::Parallel(4), &one, |_, x| x + 1),
            vec![8]
        );
    }

    #[test]
    fn split_divides_the_pool() {
        // Many items: all workers fan out, inner stays sequential.
        assert_eq!(
            ParallelismPolicy::Parallel(8).split(32),
            (
                ParallelismPolicy::Parallel(8),
                ParallelismPolicy::Sequential
            )
        );
        // Few items: spare workers flow into each item's wavefront.
        assert_eq!(
            ParallelismPolicy::Parallel(8).split(2),
            (
                ParallelismPolicy::Parallel(2),
                ParallelismPolicy::Parallel(4)
            )
        );
        // One item: everything goes inner.
        assert_eq!(
            ParallelismPolicy::Parallel(6).split(1),
            (
                ParallelismPolicy::Sequential,
                ParallelismPolicy::Parallel(6)
            )
        );
        assert_eq!(
            ParallelismPolicy::Sequential.split(10),
            (ParallelismPolicy::Sequential, ParallelismPolicy::Sequential)
        );
        // Never oversubscribes: outer * inner <= workers.
        for w in 1..16 {
            for items in 1..40 {
                let (o, i) = ParallelismPolicy::Parallel(w).split(items);
                assert!(o.workers() * i.workers() <= w, "{w} workers, {items} items");
            }
        }
    }

    /// A diamond: 0 → {1, 2} → 3.
    fn diamond() -> (Vec<usize>, Vec<Vec<usize>>) {
        (vec![0, 1, 1, 2], vec![vec![1, 2], vec![3], vec![3], vec![]])
    }

    #[test]
    fn run_dag_respects_dependencies() {
        use std::sync::Mutex;
        for policy in [
            ParallelismPolicy::Sequential,
            ParallelismPolicy::Parallel(4),
        ] {
            let (indeg, adj) = diamond();
            let done: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            run_dag::<(), _>(policy, indeg, &adj, &[], |node| {
                let seen = done.lock().unwrap().clone();
                match node {
                    0 => assert!(seen.is_empty()),
                    1 | 2 => assert!(seen.contains(&0)),
                    _ => assert!(seen.contains(&1) && seen.contains(&2)),
                }
                done.lock().unwrap().push(node);
                Ok(NodeVerdict::Continue)
            })
            .unwrap();
            let mut order = done.into_inner().unwrap();
            order.sort();
            assert_eq!(order, vec![0, 1, 2, 3], "every node ran exactly once");
        }
    }

    #[test]
    fn run_dag_sequential_uses_canonical_topo_order() {
        use std::sync::Mutex;
        let (indeg, adj) = diamond();
        let done: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        run_dag::<(), _>(ParallelismPolicy::Sequential, indeg, &adj, &[], |node| {
            done.lock().unwrap().push(node);
            Ok(NodeVerdict::Continue)
        })
        .unwrap();
        assert_eq!(done.into_inner().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn run_dag_skip_successors_prunes_descendants_only() {
        use std::sync::Mutex;
        for policy in [
            ParallelismPolicy::Sequential,
            ParallelismPolicy::Parallel(4),
        ] {
            let (indeg, adj) = diamond();
            let done: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            run_dag::<(), _>(policy, indeg, &adj, &[], |node| {
                done.lock().unwrap().push(node);
                if node == 1 {
                    Ok(NodeVerdict::SkipSuccessors)
                } else {
                    Ok(NodeVerdict::Continue)
                }
            })
            .unwrap();
            let mut order = done.into_inner().unwrap();
            order.sort();
            // Node 3 needs both 1 and 2; 1 failed, so 3 never runs — but the
            // independent sibling 2 still does, whatever the worker count.
            assert_eq!(order, vec![0, 1, 2]);
        }
    }

    #[test]
    fn run_dag_propagates_errors() {
        let (indeg, adj) = diamond();
        let err = run_dag::<String, _>(ParallelismPolicy::Parallel(4), indeg, &adj, &[], |node| {
            if node == 1 {
                Err("boom".to_string())
            } else {
                Ok(NodeVerdict::Continue)
            }
        });
        assert_eq!(err.unwrap_err(), "boom");
    }

    #[test]
    fn run_dag_overlaps_independent_branches() {
        let indeg = vec![0, 1, 1, 1, 1, 4];
        let adj = vec![vec![1, 2, 3, 4], vec![5], vec![5], vec![5], vec![5], vec![]];
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        run_dag::<(), _>(ParallelismPolicy::Parallel(4), indeg, &adj, &[], |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            in_flight.fetch_sub(1, Ordering::SeqCst);
            Ok(NodeVerdict::Continue)
        })
        .unwrap();
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "sibling branches never overlapped"
        );
    }

    #[test]
    fn pop_ready_prefers_longest_critical_path() {
        // Priorities: node 2 heads the longest chain, so it pops first even
        // though nodes 0 and 1 were enqueued earlier; ties break low-index.
        let mut ready = vec![0, 1, 2, 3];
        let priority = [1, 3, 5, 3];
        assert_eq!(pop_ready(&mut ready, &priority), Some(2));
        assert_eq!(pop_ready(&mut ready, &priority), Some(1), "tie → low index");
        assert_eq!(pop_ready(&mut ready, &priority), Some(3));
        assert_eq!(pop_ready(&mut ready, &priority), Some(0));
        assert_eq!(pop_ready(&mut ready, &priority), None);
        // Empty priority slice: canonical lowest-index order.
        let mut fifo = vec![2, 0, 1];
        assert_eq!(pop_ready(&mut fifo, &[]), Some(0));
        assert_eq!(pop_ready(&mut fifo, &[]), Some(1));
        assert_eq!(pop_ready(&mut fifo, &[]), Some(2));
    }

    #[test]
    fn run_dag_critical_path_first_dispatch_order() {
        use std::sync::Mutex;
        // Skewed DAG: src → x1 → x2 → x3 (long chain) plus short leaves
        // src → {4, 5}. With 2 workers and critical-path priorities, the
        // chain head x1 must be among the first two nodes dispatched after
        // src (the workers pop the two highest-priority ready nodes);
        // dispatch *completion* order is racy, so only membership is pinned.
        let indeg = vec![0, 1, 1, 1, 1, 1];
        let adj: Vec<Vec<usize>> = vec![vec![1, 4, 5], vec![2], vec![3], vec![], vec![], vec![]];
        let priority = [4u64, 3, 2, 1, 1, 1];
        for _ in 0..16 {
            let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            run_dag::<(), _>(
                ParallelismPolicy::Parallel(2),
                indeg.clone(),
                &adj,
                &priority,
                |n| {
                    order.lock().unwrap().push(n);
                    Ok(NodeVerdict::Continue)
                },
            )
            .unwrap();
            let order = order.into_inner().unwrap();
            assert_eq!(order[0], 0, "source first");
            assert!(
                order[1..3].contains(&1),
                "chain head stranded behind short leaves: {order:?}"
            );
            let mut all = order.clone();
            all.sort();
            assert_eq!(all, vec![0, 1, 2, 3, 4, 5], "every node ran once");
        }
    }

    #[test]
    fn run_dag_empty() {
        run_dag::<(), _>(ParallelismPolicy::Parallel(4), Vec::new(), &[], &[], |_| {
            panic!("no nodes to run")
        })
        .unwrap();
    }

    #[test]
    fn really_runs_concurrently() {
        use std::sync::atomic::AtomicUsize;
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let items: Vec<u32> = (0..16).collect();
        map_indexed(ParallelismPolicy::Parallel(4), &items, |_, _| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) > 1, "no overlap observed");
    }
}
