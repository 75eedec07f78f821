//! What the collaboration tests share: the toy chain pipeline a tenant
//! opens, the same chain served by a router and driven in a one-line step
//! language, a component that runs a hook from inside an evaluation, and
//! the snapshots a refused operation must leave unchanged.
//!
//! Each test binary uses part of it.
#![allow(dead_code)]

use mlcask_core::registry::ComponentRegistry;
use mlcask_core::system::MlCask;
use mlcask_core::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
use mlcask_core::workspace::{Tenant, Workspace};
use mlcask_pipeline::artifact::Artifact;
use mlcask_pipeline::component::{Component, ComponentHandle, ComponentKey, StageKind};
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::errors::Result as PipelineResult;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::schema::SchemaId;
use mlcask_pipeline::semver::SemVer;
use mlcask_server::service::{Router, ServerOptions};
use mlcask_workloads::common::Workload;
use serde::{map_get, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// The toy library: source 0.0, scalers 0.0 and 0.1, models 0.0, 0.1 and
/// 0.2, in that order.
pub fn toy_library() -> Vec<ComponentHandle> {
    vec![
        toy_source(SemVer::master(0, 0), 4, 16),
        toy_scaler(SemVer::master(0, 0), 4, 4, 1.0),
        toy_scaler(SemVer::master(0, 1), 4, 4, 2.0),
        toy_model(SemVer::master(0, 0), 4, 0.5),
        toy_model(SemVer::master(0, 1), 4, 0.6),
        toy_model(SemVer::master(0, 2), 4, 0.7),
    ]
}

/// Opens the toy chain pipeline over [`toy_library`] for a tenant
/// (registry over its store view).
pub fn toy_system(t: &Tenant) -> MlCask {
    toy_system_with(t, toy_library().swap_remove(5))
}

/// [`toy_system`] with `model_02` as its model 0.2.
pub fn toy_system_with(t: &Tenant, model_02: ComponentHandle) -> MlCask {
    let registry = Arc::new(ComponentRegistry::with_exe_size(
        Arc::clone(t.store()),
        4096,
    ));
    let mut library = toy_library();
    library[5] = model_02;
    for c in library {
        registry.register(c).unwrap();
    }
    let dag = PipelineDag::chain(&toy_slots()).unwrap();
    t.open_pipeline("toy", dag, registry)
}

/// The toy pipeline over source 0.0 with scaler 0.`scaler` and model
/// 0.`model`.
pub fn toy_pipeline(scaler: u32, model: u32) -> Vec<ComponentKey> {
    let slots = ["test_source", "test_scaler", "test_model"].into_iter();
    let versions = [0, scaler, model].map(|v| SemVer::master(0, v));
    slots
        .zip(versions)
        .map(|(s, v)| ComponentKey::new(s, v))
        .collect()
}

/// The hook a [`Gate`] holds until a component runs.
pub type Hook = Box<dyn FnOnce() + Send>;

/// Armed with a hook, the gate hands it to the next component run of any
/// [`Tripwire`] behind it; empty again once that run took it.
pub type Gate = Arc<Mutex<Option<Hook>>>;

/// `inner`, except that its run first calls the hook its gate is armed
/// with, if any: a step placed inside a live evaluation, without sleeps.
pub struct Tripwire {
    inner: ComponentHandle,
    gate: Gate,
}

impl Tripwire {
    /// `inner` behind `gate`.
    pub fn wrap(inner: ComponentHandle, gate: &Gate) -> ComponentHandle {
        Arc::new(Tripwire {
            inner,
            gate: Arc::clone(gate),
        })
    }
}

impl Component for Tripwire {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn version(&self) -> SemVer {
        self.inner.version()
    }
    fn stage(&self) -> StageKind {
        self.inner.stage()
    }
    fn input_schema(&self) -> Option<SchemaId> {
        self.inner.input_schema()
    }
    fn output_schema(&self) -> SchemaId {
        self.inner.output_schema()
    }
    fn run(&self, inputs: &[Artifact]) -> PipelineResult<Artifact> {
        let hook = self.gate.lock().unwrap().take();
        if let Some(hook) = hook {
            hook();
        }
        self.inner.run(inputs)
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        self.inner.work_units(inputs)
    }
    fn ns_per_unit(&self) -> u64 {
        self.inner.ns_per_unit()
    }
}

/// Every branch head and the commit count.
pub fn graph_fingerprint(ws: &Workspace) -> String {
    let graph = ws.graph();
    let heads: Vec<String> = graph
        .branches()
        .iter()
        .map(|b| format!("{b}={}", graph.head(b).unwrap().id.short()))
        .collect();
    format!("commits={} heads={heads:?}", graph.len())
}

/// Everything a refused operation must not touch: branch heads, commit
/// count, per-tenant usages, the fair-share view, and open reservations.
pub fn accounting_fingerprint(ws: &Workspace) -> String {
    format!(
        "{} usages={} shared={} reserved={}",
        graph_fingerprint(ws),
        serde_json::to_string(&ws.usages()).unwrap(),
        serde_json::to_string(&ws.shared_view()).unwrap(),
        ws.store().tenant_accounts().open_reservations(),
    )
}

/// The served toy chain's model qualities, by version increment.
pub const MODELS: [f64; 5] = [0.6, 0.8, 0.7, 0.9, 0.5];

/// The served toy chain's scaler `scaler`: increments 0 to 2 keep four
/// features, 3 (schema 1.0) makes six, which no model takes.
fn scaler_version(scaler: usize) -> SemVer {
    match scaler {
        3 => SemVer::master(1, 0),
        s => SemVer::master(0, s as u32),
    }
}

/// A router serving the toy chain — sources 0.0 and 0.1, the four scalers
/// of [`scaler_version`], a model per [`MODELS`] entry — at `workers`, in
/// memory or on a cask at `cask`, with every component behind the gate.
pub fn serve(workers: usize, cask: Option<&Path>) -> (Arc<Router>, Gate) {
    let gate = Gate::default();
    let mut handles = vec![
        toy_source(SemVer::master(0, 0), 4, 32),
        toy_source(SemVer::master(0, 1), 4, 48),
    ];
    for (s, (dim, factor)) in [(4, 1.0), (4, 1.5), (4, 0.5), (6, 2.0)]
        .into_iter()
        .enumerate()
    {
        handles.push(toy_scaler(scaler_version(s), 4, dim, factor));
    }
    for (m, quality) in MODELS.into_iter().enumerate() {
        handles.push(toy_model(SemVer::master(0, m as u32), 4, quality));
    }
    let handles: Vec<_> = handles
        .into_iter()
        .map(|c| Tripwire::wrap(c, &gate))
        .collect();
    let key = |i: usize| handles[i].key();
    let workload = Workload {
        name: "toy_chain".into(),
        slots: toy_slots().into_iter().map(String::from).collect(),
        initial: vec![key(0), key(2), key(6)],
        chains: vec![],
        model_slot: 2,
        incompat_update: (1, key(5)),
        head_updates: vec![],
        dev_updates: vec![],
        edges: vec![],
        handles: handles.clone(),
    };
    let parallelism = match workers {
        1 => ParallelismPolicy::Sequential,
        n => ParallelismPolicy::Parallel(n),
    };
    let opts = ServerOptions {
        parallelism,
        ..ServerOptions::default()
    };
    let router = match cask {
        None => Router::in_memory(workload, opts),
        Some(dir) => Router::over(Workspace::durable(dir).unwrap(), workload, opts),
    };
    (Arc::new(router), gate)
}

/// The logical bytes a join charges: the same for every joiner, since a
/// later one is charged from the library archive what writing it would.
pub fn join_cost() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut client = Client::new(serve(1, None).0);
        client.send("probe open unlimited");
        client.router.workspace().usages()["probe"].logical_bytes
    })
}

/// A client of a [`serve`]d router, in a language of one line per request:
/// `workspace.usage`, or a tenant and what it asks — `up open starved` (or
/// `unlimited`, or `refused`: a one-byte quota), `up commit master 0 1 3`
/// (source, scaler, model), `up branch master dev`, `up grant down
/// merge_into`, `up revoke down`, `down fork up master dev`, `down merge
/// master dev`, `down merge.into up master dev`, `up log master 5`, `up
/// head master`, `up branches`, `up usage`. A tenant's request goes out on
/// its latest session, or on session 0, which no one holds.
pub struct Client {
    pub router: Arc<Router>,
    sessions: BTreeMap<String, u64>,
}

impl Client {
    pub fn new(router: Arc<Router>) -> Client {
        let sessions = BTreeMap::new();
        Client { router, sessions }
    }

    /// The request line of step `op`.
    pub fn line(&self, op: &str) -> String {
        let w: Vec<&str> = op.split(' ').collect();
        let session = self.sessions.get(w[0]).copied().unwrap_or(0);
        let method = w.get(1).unwrap_or(&w[0]);
        let mut line = format!(r#"{{"id":0,"method":"{method}","params":{{"session":{session}"#);
        let names: &[&str] = match w[..] {
            [t, "open", quota] => {
                line = format!(r#"{{"id":0,"method":"session.open","params":{{"tenant":"{t}""#);
                match quota {
                    "starved" => line += &format!(r#","max_logical_bytes":{}"#, join_cost()),
                    "refused" => line += r#","max_logical_bytes":1"#,
                    _ => {}
                }
                &[]
            }
            [_, "commit", b, source, scaler, model] => {
                let version = |v: &str| SemVer::master(0, v.parse().unwrap());
                let (source, model) = (version(source), version(model));
                let scaler = scaler_version(scaler.parse().unwrap());
                let keys =
                    format!("test_source@{source}\",\"test_scaler@{scaler}\",\"test_model@{model}");
                line += &format!(r#","branch":"{b}","message":"commit","components":["{keys}"]"#);
                &[]
            }
            [_, "log", b, limit] => {
                line += &format!(r#","branch":"{b}","limit":{limit}"#);
                &[]
            }
            [_, "branch", ..] => &["from", "to"],
            [_, "grant", ..] => &["peer", "right"],
            [_, "revoke", ..] => &["peer"],
            [_, "fork", ..] => &["peer", "branch", "new_branch"],
            [_, "merge", ..] => &["base", "merging"],
            [_, "merge.into", ..] => &["peer", "peer_branch", "merging"],
            [_, "head", ..] => &["branch"],
            _ => &[],
        };
        for (name, value) in names.iter().zip(w.iter().skip(2)) {
            line += &format!(r#","{name}":"{value}""#);
        }
        line + "}}"
    }

    /// Serves step `op` and returns the reply line, keeping the session a
    /// `session.open` opened.
    pub fn send(&mut self, op: &str) -> String {
        let reply = self.router.handle_text(&self.line(op));
        if let [tenant, "open", _] = op.split(' ').collect::<Vec<_>>()[..] {
            let v: Value = serde_json::from_str(&reply).unwrap();
            let result = map_get(v.as_map().unwrap(), "result");
            if let Some(Value::U64(id)) = result.and_then(|r| map_get(r.as_map()?, "session")) {
                self.sessions.insert(tenant.to_string(), *id);
            }
        }
        reply
    }
}
