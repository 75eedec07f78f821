//! Pipeline DAG structure (Definitions 1–2).
//!
//! An ML pipeline is a DAG `G = (F, E)` whose vertices are components and
//! whose edges carry data flow. The paper's evaluated pipelines are chains,
//! but the structure (and the executor) supports general DAGs; the merge
//! search tree linearises components in topological order.
//!
//! Non-chain shapes are first-class: [`PipelineDag::fan`] builds the
//! diamond/fan-in pipelines the DAG-parallel executor exploits, and the
//! scheduling helpers (`PipelineDag::indegrees`,
//! `PipelineDag::adjacency`, [`PipelineDag::max_width`]) drive the
//! wavefront scheduler in [`crate::executor`].

use crate::component::ComponentHandle;
use crate::errors::{PipelineError, Result};
use crate::schema::SchemaId;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The shape of a pipeline: named component slots and data-flow edges.
///
/// A DAG is built mutably (`add_node` / `add_edge`) and then frozen in an
/// `Arc` that every evaluation shares. Everything derived from the edge list
/// — topological order, per-node predecessor and successor lists,
/// in-degrees, critical-path lengths — is one plan, computed together on
/// first use and dropped by every mutation, so the accessors below are
/// borrowed views that cost a pointer read however often an evaluation asks.
#[derive(Debug, Clone, Default)]
pub struct PipelineDag {
    nodes: Vec<String>,
    /// Edges as (from, to) node indices.
    edges: Vec<(usize, usize)>,
    index: HashMap<String, usize>,
    /// Derived from `nodes` and `edges`; reset by `add_node`/`add_edge`.
    plan: OnceLock<Plan>,
}

/// Everything the executor, the merge search and the provenance layer read
/// off a DAG's shape (see [`PipelineDag`]).
#[derive(Debug, Clone)]
struct Plan {
    /// Kahn order, lowest index first among ready nodes; `None` on a cycle.
    order: Option<Vec<usize>>,
    /// Predecessors per node, in edge order.
    pre: Vec<Vec<usize>>,
    /// Successors per node, in edge order.
    suc: Vec<Vec<usize>>,
    indeg: Vec<usize>,
    /// Nodes on the longest downstream path from each node (all 1 on a
    /// cycle).
    critical: Vec<u64>,
}

impl Plan {
    fn of(n: usize, edges: &[(usize, usize)]) -> Plan {
        let mut pre: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut suc: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(f, t) in edges {
            suc[f].push(t);
            pre[t].push(f);
        }
        let indeg: Vec<usize> = pre.iter().map(Vec::len).collect();
        // Stable order: lowest index first among ready nodes.
        let mut left = indeg.clone();
        let mut ready: Vec<usize> = (0..n).filter(|&i| left[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(pos) = (0..ready.len()).min_by_key(|&i| ready[i]) {
            let next = ready.swap_remove(pos);
            order.push(next);
            for &s in &suc[next] {
                left[s] -= 1;
                if left[s] == 0 {
                    ready.push(s);
                }
            }
        }
        let order = (order.len() == n).then_some(order);
        let mut critical = vec![1u64; n];
        for &node in order.iter().flatten().rev() {
            let downstream = suc[node].iter().map(|&s| critical[s]).max().unwrap_or(0);
            critical[node] = 1 + downstream;
        }
        Plan {
            order,
            pre,
            suc,
            indeg,
            critical,
        }
    }
}

impl PipelineDag {
    /// Empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a linear chain — the shape of all four evaluated pipelines.
    pub fn chain(slots: &[&str]) -> Result<PipelineDag> {
        let mut dag = PipelineDag::new();
        for s in slots {
            dag.add_node(s)?;
        }
        for w in slots.windows(2) {
            dag.add_edge(w[0], w[1])?;
        }
        Ok(dag)
    }

    /// Builds a fan-out/fan-in DAG: `source → each branch → sink` — the
    /// diamond shape when two branches are given. This is the smallest
    /// pipeline family with DAG-internal parallelism: all branches are
    /// independent and may execute concurrently.
    pub fn fan(source: &str, branches: &[&str], sink: &str) -> Result<PipelineDag> {
        let mut dag = PipelineDag::new();
        dag.add_node(source)?;
        for b in branches {
            dag.add_node(b)?;
        }
        dag.add_node(sink)?;
        for b in branches {
            dag.add_edge(source, b)?;
            dag.add_edge(b, sink)?;
        }
        Ok(dag)
    }

    /// Adds a named component slot.
    pub fn add_node(&mut self, name: &str) -> Result<usize> {
        if self.index.contains_key(name) {
            return Err(PipelineError::InvalidDag(format!(
                "duplicate node '{name}'"
            )));
        }
        let id = self.nodes.len();
        self.nodes.push(name.to_string());
        self.index.insert(name.to_string(), id);
        self.plan = OnceLock::new();
        Ok(id)
    }

    /// Adds a data-flow edge `from → to`.
    pub fn add_edge(&mut self, from: &str, to: &str) -> Result<()> {
        let f = self.node_id(from)?;
        let t = self.node_id(to)?;
        if f == t {
            return Err(PipelineError::InvalidDag(format!("self-loop on '{from}'")));
        }
        if self.edges.contains(&(f, t)) {
            return Err(PipelineError::InvalidDag(format!(
                "duplicate edge {from} -> {to}"
            )));
        }
        self.edges.push((f, t));
        self.plan = OnceLock::new();
        Ok(())
    }

    /// The plan of the DAG as it stands (built on first use after the last
    /// mutation).
    fn plan(&self) -> &Plan {
        self.plan
            .get_or_init(|| Plan::of(self.nodes.len(), &self.edges))
    }

    /// Node index by name.
    pub(crate) fn node_id(&self, name: &str) -> Result<usize> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| PipelineError::InvalidDag(format!("unknown node '{name}'")))
    }

    /// Node name by index.
    pub(crate) fn node_name(&self, id: usize) -> &str {
        &self.nodes[id]
    }

    /// Number of component slots (`N_f` in the paper).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Predecessors `pre(f)` of a node (Definition 2), in edge order.
    pub fn pre(&self, node: usize) -> &[usize] {
        &self.plan().pre[node]
    }

    /// Successors `suc(f)` of a node (Definition 2), in edge order.
    pub(crate) fn suc(&self, node: usize) -> &[usize] {
        &self.plan().suc[node]
    }

    /// All node names in insertion order.
    pub fn node_names(&self) -> &[String] {
        &self.nodes
    }

    /// Kahn topological order (lowest index first among ready nodes);
    /// errors on cycles.
    pub fn topo_order(&self) -> Result<&[usize]> {
        self.plan()
            .order
            .as_deref()
            .ok_or_else(|| PipelineError::InvalidDag("cycle detected".into()))
    }

    /// All data-flow edges as `(from, to)` node-index pairs, in insertion
    /// order.
    pub fn edge_list(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// All data-flow edges as `(from, to)` node-name pairs, in insertion
    /// order (the representation pipeline metafiles record).
    pub fn named_edges(&self) -> Vec<(String, String)> {
        self.edges
            .iter()
            .map(|&(f, t)| (self.nodes[f].clone(), self.nodes[t].clone()))
            .collect()
    }

    /// In-degree of every node — the ready-set seed of the wavefront
    /// scheduler (a node is runnable once its in-degree counter drains to
    /// zero).
    pub(crate) fn indegrees(&self) -> &[usize] {
        &self.plan().indeg
    }

    /// Successor adjacency list for every node, in edge order.
    pub(crate) fn adjacency(&self) -> &[Vec<usize>] {
        &self.plan().suc
    }

    /// Predecessor list for every node, in edge order — [`PipelineDag::pre`]
    /// for all nodes at once. The merge search uses this to check
    /// compatibility and checkpoint reuse along real DAG edges rather than
    /// assuming a chain.
    pub fn predecessors(&self) -> &[Vec<usize>] {
        &self.plan().pre
    }

    /// Critical-path length of every node: the number of nodes on the
    /// longest downstream path starting at (and including) the node. Sinks
    /// have length 1; a chain's source has length `n`.
    ///
    /// The wavefront scheduler pops the ready node with the longest
    /// critical path first — finishing long dependency chains early shaves
    /// the tail on skewed DAGs, while FIFO order can strand the critical
    /// chain behind a burst of short independent branches.
    pub(crate) fn critical_path_lengths(&self) -> &[u64] {
        &self.plan().critical
    }

    /// Width of the widest wavefront: the maximum number of nodes sharing
    /// one longest-path depth. A chain has width 1; a diamond has width 2.
    /// The executor uses this as the parallelism gate — DAG-internal
    /// fan-out only pays off when some wavefront holds more than one node.
    pub fn max_width(&self) -> usize {
        let Ok(order) = self.topo_order() else {
            return 1;
        };
        let mut depth = vec![0usize; self.nodes.len()];
        let mut width: HashMap<usize, usize> = HashMap::new();
        for &node in order {
            let d = self
                .pre(node)
                .iter()
                .map(|&p| depth[p] + 1)
                .max()
                .unwrap_or(0);
            depth[node] = d;
            *width.entry(d).or_insert(0) += 1;
        }
        width.values().copied().max().unwrap_or(1)
    }

    /// Source nodes (no predecessors).
    pub fn sources(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.pre(i).is_empty())
            .collect()
    }

    /// Sink nodes (no successors).
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| self.suc(i).is_empty())
            .collect()
    }
}

/// A component's declared `(input, output)` schema ids — the stored hashes
/// the paper's compatibility pruning compares.
pub type DeclaredSchemas = (Option<SchemaId>, SchemaId);

/// A DAG with a concrete component version bound to every slot — a runnable
/// pipeline instance (one candidate in the merge search space).
///
/// Binding also fixes each slot's [`DeclaredSchemas`]: the static check
/// (`BoundPipeline::static_failure_node`) compares those and never calls
/// the component, so the fields stay private to keep the two aligned.
#[derive(Clone)]
pub struct BoundPipeline {
    /// The pipeline shape.
    pub(crate) dag: Arc<PipelineDag>,
    /// One component per slot, aligned with node indices.
    components: Vec<ComponentHandle>,
    /// What `components[i]` declares, aligned with node indices.
    schemas: Vec<DeclaredSchemas>,
}

impl BoundPipeline {
    /// Binds components to a DAG. The i-th component fills slot i; names
    /// must match slot names. Asks every component for its declared schemas
    /// once; callers holding registered metafiles use
    /// [`BoundPipeline::with_schemas`] and ask nothing.
    pub fn new(dag: Arc<PipelineDag>, components: Vec<ComponentHandle>) -> Result<BoundPipeline> {
        let schemas = components
            .iter()
            .map(|c| (c.input_schema(), c.output_schema()))
            .collect();
        Self::with_schemas(dag, components, schemas)
    }

    /// [`BoundPipeline::new`] with each slot's declared schemas supplied by
    /// the caller — what the component registry recorded in the library
    /// metafile when the version was registered.
    pub fn with_schemas(
        dag: Arc<PipelineDag>,
        components: Vec<ComponentHandle>,
        schemas: Vec<DeclaredSchemas>,
    ) -> Result<BoundPipeline> {
        if components.len() != dag.len() || schemas.len() != dag.len() {
            return Err(PipelineError::InvalidDag(format!(
                "bound {} components ({} schema pairs) to {} slots",
                components.len(),
                schemas.len(),
                dag.len()
            )));
        }
        for (i, c) in components.iter().enumerate() {
            if c.name() != dag.node_name(i) {
                return Err(PipelineError::InvalidDag(format!(
                    "slot '{}' bound to component '{}'",
                    dag.node_name(i),
                    c.name()
                )));
            }
        }
        Ok(BoundPipeline {
            dag,
            components,
            schemas,
        })
    }

    /// One component per slot, aligned with node indices.
    pub(crate) fn components(&self) -> &[ComponentHandle] {
        &self.components
    }

    /// Whether `consumer`'s declared input schema rejects `producer`'s
    /// declared output schema (Definition 4).
    fn rejects(&self, consumer: usize, producer: usize) -> bool {
        self.schemas[consumer]
            .0
            .is_some_and(|expected| expected != self.schemas[producer].1)
    }

    /// First node in canonical topological order whose declared input schema
    /// is incompatible with a predecessor's declared output schema — the
    /// node at which a run of a schema-honest pipeline fails.
    ///
    /// The scheduler stops short of this frontier, so the executed (and
    /// persisted) node set — and with it the physical store contents — is
    /// the same for every worker count. Components whose run-time behaviour
    /// contradicts their declared schemas fail past this prediction; those
    /// are handled dynamically: the failing node's descendants are pruned
    /// and every independent node still executes, which again depends only
    /// on the DAG.
    pub(crate) fn static_failure_node(&self) -> Result<Option<usize>> {
        Ok(self
            .dag
            .topo_order()?
            .iter()
            .copied()
            .find(|&node| self.dag.pre(node).iter().any(|&p| self.rejects(node, p))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::test_support::{TestModel, TestScaler, TestSource};
    use crate::schema::Schema;
    use crate::semver::SemVer;

    fn chain3() -> (Arc<PipelineDag>, Vec<ComponentHandle>) {
        let dag =
            Arc::new(PipelineDag::chain(&["test_source", "test_scaler", "test_model"]).unwrap());
        let comps: Vec<ComponentHandle> = vec![
            Arc::new(TestSource {
                version: SemVer::initial(),
                dim: 3,
                rows: 4,
            }),
            Arc::new(TestScaler {
                version: SemVer::initial(),
                dim_in: 3,
                dim_out: 3,
                factor: 1.0,
            }),
            Arc::new(TestModel {
                version: SemVer::initial(),
                dim_in: 3,
                quality: 0.5,
            }),
        ];
        (dag, comps)
    }

    #[test]
    fn chain_structure() {
        let dag = PipelineDag::chain(&["a", "b", "c"]).unwrap();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.pre(1), vec![0]);
        assert_eq!(dag.suc(1), vec![2]);
        assert_eq!(dag.sources(), vec![0]);
        assert_eq!(dag.sinks(), vec![2]);
        assert_eq!(dag.topo_order().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn rejects_duplicates_and_self_loops() {
        let mut dag = PipelineDag::new();
        dag.add_node("a").unwrap();
        assert!(dag.add_node("a").is_err());
        dag.add_node("b").unwrap();
        dag.add_edge("a", "b").unwrap();
        assert!(dag.add_edge("a", "b").is_err());
        assert!(dag.add_edge("a", "a").is_err());
        assert!(dag.add_edge("a", "zzz").is_err());
    }

    #[test]
    fn detects_cycles() {
        let mut dag = PipelineDag::new();
        for n in ["a", "b", "c"] {
            dag.add_node(n).unwrap();
        }
        dag.add_edge("a", "b").unwrap();
        dag.add_edge("b", "c").unwrap();
        dag.add_edge("c", "a").unwrap();
        assert!(matches!(
            dag.topo_order(),
            Err(PipelineError::InvalidDag(_))
        ));
    }

    #[test]
    fn diamond_topo_order() {
        let mut dag = PipelineDag::new();
        for n in ["src", "left", "right", "join"] {
            dag.add_node(n).unwrap();
        }
        dag.add_edge("src", "left").unwrap();
        dag.add_edge("src", "right").unwrap();
        dag.add_edge("left", "join").unwrap();
        dag.add_edge("right", "join").unwrap();
        let order = dag.topo_order().unwrap();
        assert_eq!(order[0], 0);
        assert_eq!(order[3], 3);
        assert_eq!(dag.pre(3).len(), 2);
    }

    #[test]
    fn fan_builder_and_scheduling_helpers() {
        let dag = PipelineDag::fan("src", &["a", "b", "c"], "sink").unwrap();
        assert_eq!(dag.len(), 5);
        assert_eq!(dag.sources(), vec![0]);
        assert_eq!(dag.sinks(), vec![4]);
        assert_eq!(dag.pre(4).len(), 3);
        assert_eq!(dag.indegrees(), vec![0, 1, 1, 1, 3]);
        assert_eq!(dag.adjacency()[0], vec![1, 2, 3]);
        assert_eq!(dag.edge_list().len(), 6);
        assert_eq!(dag.named_edges()[0], ("src".to_string(), "a".to_string()));
        assert_eq!(dag.max_width(), 3, "three branches run concurrently");
    }

    #[test]
    fn chain_has_width_one() {
        let dag = PipelineDag::chain(&["a", "b", "c"]).unwrap();
        assert_eq!(dag.max_width(), 1);
        assert_eq!(dag.indegrees(), vec![0, 1, 1]);
        let diamond = PipelineDag::fan("s", &["l", "r"], "j").unwrap();
        assert_eq!(diamond.max_width(), 2);
    }

    #[test]
    fn critical_path_lengths_measure_downstream_chains() {
        let chain = PipelineDag::chain(&["a", "b", "c"]).unwrap();
        assert_eq!(chain.critical_path_lengths(), vec![3, 2, 1]);
        // Skewed DAG: src feeds a long chain (x1→x2→x3) and a short leaf.
        let mut dag = PipelineDag::new();
        for n in ["src", "x1", "x2", "x3", "leaf"] {
            dag.add_node(n).unwrap();
        }
        dag.add_edge("src", "x1").unwrap();
        dag.add_edge("x1", "x2").unwrap();
        dag.add_edge("x2", "x3").unwrap();
        dag.add_edge("src", "leaf").unwrap();
        assert_eq!(dag.critical_path_lengths(), vec![4, 3, 2, 1, 1]);
        let fan = PipelineDag::fan("s", &["a", "b"], "t").unwrap();
        assert_eq!(fan.critical_path_lengths(), vec![3, 2, 2, 1]);
    }

    /// The derivations as this module computed them before the plan — each
    /// one a fresh walk of the edge list — kept as the oracle the plan's
    /// views are compared with.
    mod oracle {
        pub(crate) fn pre(edges: &[(usize, usize)], node: usize) -> Vec<usize> {
            let into = edges.iter().filter(|(_, t)| *t == node);
            into.map(|(f, _)| *f).collect()
        }

        pub(crate) fn suc(edges: &[(usize, usize)], node: usize) -> Vec<usize> {
            let out = edges.iter().filter(|(f, _)| *f == node);
            out.map(|(_, t)| *t).collect()
        }

        pub(crate) fn indegrees(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
            let mut indeg = vec![0usize; n];
            for (_, t) in edges {
                indeg[*t] += 1;
            }
            indeg
        }

        pub(crate) fn topo_order(n: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
            let mut indeg = indegrees(n, edges);
            let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
            let mut out = Vec::with_capacity(n);
            while let Some(&next) = ready.iter().min() {
                ready.retain(|&x| x != next);
                out.push(next);
                for s in suc(edges, next) {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        ready.push(s);
                    }
                }
            }
            (out.len() == n).then_some(out)
        }

        pub(crate) fn critical_path_lengths(n: usize, edges: &[(usize, usize)]) -> Vec<u64> {
            let Some(order) = topo_order(n, edges) else {
                return vec![1; n];
            };
            let mut cp = vec![1u64; n];
            for &node in order.iter().rev() {
                let downstream = suc(edges, node).iter().map(|&s| cp[s]).max();
                cp[node] = 1 + downstream.unwrap_or(0);
            }
            cp
        }
    }

    /// Every view of the plan against the oracle, on `dag` as it stands.
    fn assert_plan_matches_oracle(dag: &PipelineDag) {
        let (n, edges) = (dag.len(), dag.edge_list());
        match oracle::topo_order(n, edges) {
            Some(order) => assert_eq!(dag.topo_order().unwrap(), order),
            None => assert!(matches!(
                dag.topo_order(),
                Err(PipelineError::InvalidDag(_))
            )),
        }
        assert_eq!(dag.indegrees(), oracle::indegrees(n, edges));
        assert_eq!(
            dag.critical_path_lengths(),
            oracle::critical_path_lengths(n, edges)
        );
        for node in 0..n {
            assert_eq!(dag.pre(node), oracle::pre(edges, node));
            assert_eq!(dag.suc(node), oracle::suc(edges, node));
            assert_eq!(dag.predecessors()[node], oracle::pre(edges, node));
            assert_eq!(dag.adjacency()[node], oracle::suc(edges, node));
        }
    }

    #[test]
    fn plans_equal_the_per_call_derivations() {
        let chain = PipelineDag::chain(&["a", "b", "c", "d"]).unwrap();
        let diamond = PipelineDag::fan("s", &["l", "r"], "j").unwrap();
        let fan = PipelineDag::fan("s", &["b0", "b1", "b2", "b3", "b4"], "t").unwrap();
        // Nodes listed against the data flow, two sources, a skewed tail.
        let mut skewed = PipelineDag::new();
        for n in ["sink", "mid", "src", "leaf", "other"] {
            skewed.add_node(n).unwrap();
        }
        for (f, t) in [
            ("src", "mid"),
            ("mid", "sink"),
            ("src", "leaf"),
            ("other", "sink"),
        ] {
            skewed.add_edge(f, t).unwrap();
        }
        for dag in [&chain, &diamond, &fan, &skewed, &PipelineDag::new()] {
            assert_plan_matches_oracle(dag);
            // A clone carries (or rebuilds) an equal plan.
            assert_plan_matches_oracle(&dag.clone());
        }
    }

    #[test]
    fn plan_is_rebuilt_after_every_mutation() {
        let mut dag = PipelineDag::chain(&["a", "b"]).unwrap();
        assert_eq!(dag.topo_order().unwrap(), [0, 1]);
        assert_eq!(dag.critical_path_lengths(), [2, 1]);
        // Read, then grow: the views answer for the DAG as it is now.
        dag.add_node("c").unwrap();
        assert_eq!(dag.topo_order().unwrap(), [0, 1, 2]);
        assert_eq!(dag.indegrees(), [0, 1, 0]);
        assert!(dag.pre(2).is_empty());
        dag.add_edge("c", "a").unwrap();
        assert_eq!(dag.topo_order().unwrap(), [2, 0, 1]);
        assert_eq!(dag.pre(0), [2]);
        assert_eq!(dag.critical_path_lengths(), [2, 1, 3]);
        assert_plan_matches_oracle(&dag);
        // A rejected mutation changes nothing.
        assert!(dag.add_edge("c", "a").is_err());
        assert_eq!(dag.topo_order().unwrap(), [2, 0, 1]);
        // Closing a cycle is accepted by `add_edge` and reported by the
        // order, as before; the per-node views still answer.
        dag.add_edge("b", "c").unwrap();
        assert!(matches!(
            dag.topo_order(),
            Err(PipelineError::InvalidDag(_))
        ));
        assert_eq!(dag.critical_path_lengths(), [1, 1, 1]);
        assert_eq!(dag.max_width(), 1);
        assert_plan_matches_oracle(&dag);
    }

    #[test]
    fn bind_validates_alignment() {
        let (dag, comps) = chain3();
        assert!(BoundPipeline::new(Arc::clone(&dag), comps.clone()).is_ok());
        // Wrong count.
        assert!(BoundPipeline::new(Arc::clone(&dag), comps[..2].to_vec()).is_err());
        // Wrong order.
        let mut shuffled = comps;
        shuffled.swap(0, 1);
        assert!(BoundPipeline::new(dag, shuffled).is_err());
    }

    #[test]
    fn precheck_detects_static_incompatibility() {
        let dag =
            Arc::new(PipelineDag::chain(&["test_source", "test_scaler", "test_model"]).unwrap());
        let comps: Vec<ComponentHandle> = vec![
            Arc::new(TestSource {
                version: SemVer::initial(),
                dim: 3,
                rows: 4,
            }),
            // Scaler widens to 5 dims, but model expects 3 → incompatible.
            Arc::new(TestScaler {
                version: SemVer::master(1, 0),
                dim_in: 3,
                dim_out: 5,
                factor: 1.0,
            }),
            Arc::new(TestModel {
                version: SemVer::initial(),
                dim_in: 3,
                quality: 0.5,
            }),
        ];
        let bound = BoundPipeline::new(dag, comps).unwrap();
        assert_eq!(bound.static_failure_node().unwrap(), Some(2));
    }

    #[test]
    fn static_checks_compare_the_schemas_a_binding_was_given() {
        let (dag, comps) = chain3();
        let honest: Vec<DeclaredSchemas> = comps
            .iter()
            .map(|c| (c.input_schema(), c.output_schema()))
            .collect();
        let bound =
            BoundPipeline::with_schemas(Arc::clone(&dag), comps.clone(), honest.clone()).unwrap();
        assert_eq!(bound.static_failure_node().unwrap(), None);
        // The same components under a registry record that says the scaler
        // emits something else: the checks follow the record.
        let mut recorded = honest;
        recorded[1].1 = Schema::Model {
            family: "elsewhere".into(),
        }
        .id();
        let bound = BoundPipeline::with_schemas(Arc::clone(&dag), comps.clone(), recorded).unwrap();
        assert_eq!(bound.static_failure_node().unwrap(), Some(2));
        // One pair per slot, or no binding.
        assert!(BoundPipeline::with_schemas(dag, comps, Vec::new()).is_err());
    }
}
