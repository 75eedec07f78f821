//! The serving front-end: a [`Router`] mapping JSON-RPC requests onto a
//! shared [`Workspace`].
//!
//! Every connection (or in-process caller) opens *sessions*; a session is
//! bound to one tenant. All sessions of a tenant share one pipeline system
//! ([`MlCask`]) — and all tenants share one workspace: one deduplicating
//! store, one snapshot-published commit graph, one checkpoint history.
//!
//! **Why reads scale under live merges.** Read methods (`branches`, `log`,
//! `head`, `usage`) resolve everything against one frozen
//! [`GraphView`](mlcask_storage::commit::GraphView) pulled from the commit
//! graph's atomically-published snapshot: no lock is held while the reply
//! is assembled, and a concurrent merge commit simply publishes the next
//! snapshot pointer. The `coarse_lock` option recreates the pre-refactor
//! design — one workspace-wide reader/writer lock, held in write mode for
//! the full duration of every mutation — and exists purely as a baseline
//! to measure against (only caskbench, `bench/`, still names it).

use crate::limits::{AdmissionControl, Limiter};
use crate::protocol::{
    self, obj, s, Failure, LineRequest, Params, Request, BASE_MOVED, INVALID_PARAMS,
    METHOD_NOT_FOUND, OP_FAILED, QUOTA_CONFLICT,
};
use crate::reply::{CommitReply, CommitResultReply, MergeReply, SessionReply, UsageReply};
use mlcask_core::errors::CoreError;
use mlcask_core::merge::MergeStrategy;
use mlcask_core::system::{BranchRef, MlCask};
use mlcask_core::workspace::{Tenant, Workspace};
use mlcask_obs::metrics::LATENCY_SECONDS;
use mlcask_obs::{trace, Counter, Histogram, MetricsRegistry};
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::ComponentKey;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::semver::SemVer;
use mlcask_storage::errors::StorageError;
use mlcask_storage::tenant::{QuotaPolicy, ShareRight};
use mlcask_workloads::common::Workload;
use mlcask_workloads::scenario::{harness_store, join_workspace};
use parking_lot::{Mutex, RwLock};
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker pool for pipeline execution and merge-search candidates
    /// (`Sequential` keeps single-threaded semantics).
    pub parallelism: ParallelismPolicy,
    /// Serve every request under one workspace-wide RwLock, mutations in
    /// write mode for their full duration. **Baseline only** — this is the
    /// lock discipline the snapshot refactor removed.
    pub coarse_lock: bool,
    /// Admission control and rate limiting.
    pub admission: AdmissionControl,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            parallelism: ParallelismPolicy::Sequential,
            coarse_lock: false,
            admission: AdmissionControl::unlimited(),
        }
    }
}

/// One tenant's serving state: the tenant handle plus the pipeline system
/// every session of that tenant shares.
pub(crate) struct TenantEntry {
    /// Tenant handle (accounting, shares, forks).
    pub(crate) tenant: Tenant,
    /// The tenant's pipeline system over the shared workspace.
    pub(crate) sys: MlCask,
    /// The request telemetry recorded under this tenant's label.
    requests: RequestSeries,
    /// The quota the tenant joined with.
    quota: QuotaPolicy,
}

/// A handler's outcome: its reply went to the [`ReplyTo`], or it has none
/// and says why.
type Served = Result<(), Failure>;

/// Where a handler sends its reply, which is the last thing it does.
enum ReplyTo<'r> {
    /// Written onto the response line, in the envelope echoing `id`: the
    /// served path ([`Router::handle_text`]).
    Line { out: &'r mut String, id: &'r Value },
    /// Made a tree, for [`Router::handle`] — the one place a served reply
    /// becomes a [`Value`].
    Tree(&'r mut Value),
}

impl ReplyTo<'_> {
    fn send(&mut self, result: &(impl Serialize + ?Sized)) -> Served {
        match self {
            ReplyTo::Line { out, id } => protocol::write_ok(out, id, result),
            ReplyTo::Tree(tree) => **tree = result.to_value(),
        }
        Ok(())
    }
}

/// Which side of the coarse-lock baseline's workspace lock a method holds
/// while it runs (see [`ServerOptions::coarse_lock`]).
#[derive(Clone, Copy)]
enum Guard {
    None,
    Read,
    Write,
}

/// A method's scope and handler. Control-plane methods run without a
/// session or admission and see the parameters only; session-scoped ones
/// run once their session resolves and admission lets them in, and see the
/// session's tenant entry too.
#[derive(Clone, Copy)]
enum Scope {
    Control(fn(&Router, &Params<'_>, &mut ReplyTo<'_>) -> Served),
    Session(fn(&Router, &TenantEntry, &Params<'_>, &mut ReplyTo<'_>) -> Served),
}

/// One served method: its wire name, its scope and handler, and its guard.
struct Route {
    name: &'static str,
    scope: Scope,
    guard: Guard,
}

const fn control(
    name: &'static str,
    guard: Guard,
    handler: fn(&Router, &Params<'_>, &mut ReplyTo<'_>) -> Served,
) -> Route {
    Route {
        name,
        scope: Scope::Control(handler),
        guard,
    }
}

const fn session(
    name: &'static str,
    guard: Guard,
    handler: fn(&Router, &TenantEntry, &Params<'_>, &mut ReplyTo<'_>) -> Served,
) -> Route {
    Route {
        name,
        scope: Scope::Session(handler),
        guard,
    }
}

/// Every method the router serves, and the values the request series'
/// `method` label takes. Whatever else a client sends is recorded as
/// [`UNKNOWN_METHOD`], so a stream of made-up method names mints one series,
/// not one per name.
static ROUTES: [Route; 19] = [
    control("ping", Guard::None, |_, _, out| out.send("pong")),
    control("server.info", Guard::None, |router, _, out| {
        out.send(&router.info())
    }),
    control("metrics.scrape", Guard::None, |router, _, out| {
        out.send(&router.metrics_scrape())
    }),
    control("obs.spans", Guard::None, |_, p, out| {
        out.send(&obs_spans(p)?)
    }),
    control("obs.slow", Guard::None, |_, p, out| out.send(&obs_slow(p)?)),
    control("session.open", Guard::None, Router::session_open),
    control("session.close", Guard::None, Router::session_close),
    control("workspace.usage", Guard::Read, |router, _, out| {
        out.send(&workspace_usage_json(&router.ws))
    }),
    session("branches", Guard::Read, |_, entry, _, out| {
        out.send(&entry.tenant.branches())
    }),
    session("head", Guard::Read, |_, entry, p, out| {
        let view = entry.sys.graph();
        let q = entry.sys.qualified_branch(p.str("branch")?);
        let head = view.head_commit(&q).map_err(Failure::op)?;
        out.send(&CommitReply(head))
    }),
    session("log", Guard::Read, Router::log),
    session("usage", Guard::Read, |_, entry, _, out| {
        out.send(&UsageReply(&entry.tenant.usage()))
    }),
    session("commit", Guard::Write, Router::commit),
    session("branch", Guard::Write, |_, entry, p, out| {
        let (from, to) = (p.str("from")?, p.str("to")?);
        let c = entry.sys.branch(from, to).map_err(Failure::op)?;
        out.send(&CommitReply(&c))
    }),
    session("grant", Guard::Write, |_, entry, p, out| {
        let peer = p.str("peer")?;
        let right = parse_right(p.str("right")?)?;
        let tenant = &entry.tenant;
        tenant.grant_to(peer, right).map_err(Failure::op)?;
        out.send(&true)
    }),
    session("revoke", Guard::Write, |_, entry, p, out| {
        let peer = p.str("peer")?;
        let tenant = &entry.tenant;
        tenant.revoke_from(peer).map_err(Failure::op)?;
        out.send(&true)
    }),
    session("fork", Guard::Write, |_, entry, p, out| {
        let peer = p.str("peer")?;
        let branch = p.str("branch")?;
        let new_branch = p.str("new_branch")?;
        let tenant = &entry.tenant;
        let c = tenant
            .fork_from(peer, branch, new_branch)
            .map_err(Failure::op)?;
        out.send(&CommitReply(&c))
    }),
    session("merge", Guard::Write, |_, entry, p, out| {
        merge(entry, p.str("base")?.into(), p, out)
    }),
    session("merge.into", Guard::Write, |_, entry, p, out| {
        let base = BranchRef::peer(p.str("peer")?, p.str("peer_branch")?);
        merge(entry, base, p, out)
    }),
];
const UNKNOWN_METHOD: &str = "unknown";

/// Where a response line's buffer starts: most replies fit, a long `log`
/// grows it by doubling.
const REPLY_CAPACITY: usize = 512;

/// How a request ended, as the request counter labels it.
#[derive(Clone, Copy)]
enum Outcome {
    Ok,
    Error,
    Rejected,
}
const OUTCOMES: [&str; 3] = ["ok", "error", "rejected"];

/// One method's series under one tenant label, each resolved from the
/// registry when first needed and held from then on.
#[derive(Default)]
struct MethodSeries {
    seconds: OnceLock<Histogram>,
    /// Indexed by [`Outcome`], labelled by [`OUTCOMES`].
    total: [OnceLock<Counter>; OUTCOMES.len()],
}

/// The request telemetry of one tenant label: a latency histogram per method
/// and a counter per (method, outcome). A request pays two atomic updates,
/// not two registry look-ups.
struct RequestSeries {
    tenant: String,
    /// Indexed like [`ROUTES`], with [`UNKNOWN_METHOD`] last.
    by_method: Vec<MethodSeries>,
}

impl RequestSeries {
    fn new(tenant: &str) -> RequestSeries {
        RequestSeries {
            tenant: tenant.to_string(),
            by_method: (0..=ROUTES.len())
                .map(|_| MethodSeries::default())
                .collect(),
        }
    }

    /// Records one request to the method at `route` in [`ROUTES`] (`None`
    /// for a name the router does not serve).
    fn record(&self, route: Option<usize>, outcome: Outcome, elapsed: Duration) {
        let index = route.unwrap_or(ROUTES.len());
        let method = route.map_or(UNKNOWN_METHOD, |i| ROUTES[i].name);
        let series = &self.by_method[index];
        let reg = MetricsRegistry::global();
        series
            .seconds
            .get_or_init(|| {
                reg.histogram(
                    "mlcask_server_request_seconds",
                    "Server request latency by method and tenant",
                    &[("method", method), ("tenant", &self.tenant)],
                    LATENCY_SECONDS,
                )
            })
            .observe_duration(elapsed);
        series.total[outcome as usize]
            .get_or_init(|| {
                reg.counter(
                    "mlcask_server_requests_total",
                    "Server requests by method, tenant, and outcome",
                    &[
                        ("method", method),
                        ("tenant", &self.tenant),
                        ("outcome", OUTCOMES[outcome as usize]),
                    ],
                )
            })
            .inc();
    }
}

/// The request router: a shared-workspace JSON-RPC service.
pub struct Router {
    ws: Arc<Workspace>,
    workload: Workload,
    opts: ServerOptions,
    limiter: Limiter,
    tenants: Mutex<HashMap<String, Arc<TenantEntry>>>,
    sessions: Mutex<HashMap<u64, Arc<TenantEntry>>>,
    next_session: AtomicU64,
    ops_served: AtomicU64,
    /// Telemetry of requests that resolve no session (tenant label `"-"`).
    sessionless: RequestSeries,
    /// The coarse-lock baseline's single workspace-wide lock.
    coarse: RwLock<()>,
}

impl Router {
    /// A router serving `workload` pipelines out of `ws`.
    pub fn over(ws: Arc<Workspace>, workload: Workload, opts: ServerOptions) -> Router {
        Router {
            ws,
            workload,
            limiter: Limiter::new(opts.admission),
            opts,
            tenants: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            ops_served: AtomicU64::new(0),
            sessionless: RequestSeries::new("-"),
            coarse: RwLock::new(()),
        }
    }

    /// A router over a fresh workspace on the test harness's store
    /// ([`harness_store`]: memory unless the environment says cask).
    pub fn in_memory(workload: Workload, opts: ServerOptions) -> Router {
        let store = harness_store(&workload.name);
        Router::over(Workspace::over(store), workload, opts)
    }

    /// The shared workspace.
    pub fn workspace(&self) -> &Arc<Workspace> {
        &self.ws
    }

    /// Total operations served (successful or not, past admission).
    pub(crate) fn ops_served(&self) -> u64 {
        self.ops_served.load(Ordering::Relaxed)
    }

    /// The name of every method the router serves.
    pub fn methods() -> impl Iterator<Item = &'static str> {
        ROUTES.iter().map(|route| route.name)
    }

    /// Serves one raw request line, returning one response line (no
    /// trailing newline). The request is read without a tree and the reply
    /// written straight onto the line: the bytes `handle` renders to.
    pub fn handle_text(&self, line: &str) -> String {
        let mut out = String::with_capacity(REPLY_CAPACITY);
        match protocol::read_request(line) {
            Ok(LineRequest {
                id, method, params, ..
            }) => {
                let mut reply = ReplyTo::Line {
                    out: &mut out,
                    id: &id,
                };
                if let Err(failure) = self.dispatch(&method, params, &mut reply) {
                    protocol::write_error(&mut out, &id, &failure);
                }
            }
            Err(failure) => protocol::write_error(&mut out, &Value::Null, &failure),
        }
        out
    }

    /// Serves one parsed request: what [`Router::handle_text`] serves, as
    /// the response's tree.
    pub fn handle(&self, req: &Request) -> Value {
        let mut result = Value::Null;
        match self.dispatch(
            &req.method,
            Params::of(req),
            &mut ReplyTo::Tree(&mut result),
        ) {
            Ok(()) => protocol::ok_response(&req.id, result),
            Err(failure) => protocol::error_response(&req.id, &failure),
        }
    }

    /// Serves the request and records per-method/per-tenant telemetry:
    /// a latency histogram and an outcome-labelled counter, both strictly
    /// outside the response (admission rejections count too). The tenant
    /// label is known only once the session resolves; control-plane and
    /// failed-before-session requests record under tenant `"-"`.
    fn dispatch(
        &self,
        method: &str,
        params: Result<Params<'_>, Failure>,
        out: &mut ReplyTo<'_>,
    ) -> Served {
        let start = Instant::now();
        let route = ROUTES.iter().position(|r| r.name == method);
        let mut entry: Option<Arc<TenantEntry>> = None;
        let result =
            self.dispatch_inner(method, params, route.map(|i| &ROUTES[i]), &mut entry, out);
        let outcome = match &result {
            Ok(()) => Outcome::Ok,
            Err(f) => match f.code {
                protocol::ADMISSION_DENIED | protocol::RATE_LIMITED | protocol::OVERLOADED => {
                    Outcome::Rejected
                }
                _ => Outcome::Error,
            },
        };
        let series = entry.as_ref().map_or(&self.sessionless, |e| &e.requests);
        series.record(route, outcome, start.elapsed());
        result
    }

    /// Serves `req` by its `route`: a control-plane method directly; a
    /// session-scoped one — or a name the router does not serve — only once
    /// its session resolves and admission lets it in, so an unknown method
    /// is refused as such under its tenant's label.
    fn dispatch_inner(
        &self,
        method: &str,
        params: Result<Params<'_>, Failure>,
        route: Option<&Route>,
        entry_out: &mut Option<Arc<TenantEntry>>,
        out: &mut ReplyTo<'_>,
    ) -> Served {
        self.ops_served.fetch_add(1, Ordering::Relaxed);
        let p = params?;
        if let Some(Route {
            scope: Scope::Control(handler),
            guard,
            ..
        }) = route
        {
            return self.holding(*guard, || handler(self, &p, out));
        }
        let entry: &TenantEntry = entry_out.insert(self.session(&p)?);
        let _op = self.limiter.begin_op(entry.tenant.name())?;
        match route {
            Some(Route {
                scope: Scope::Session(handler),
                guard,
                ..
            }) => self.holding(*guard, || handler(self, entry, &p, out)),
            _ => Err(Failure::new(
                METHOD_NOT_FOUND,
                format!("unknown method `{method}`"),
            )),
        }
    }

    // -- method implementations ---------------------------------------

    fn info(&self) -> Value {
        let mut tenants: Vec<String> = self.tenants.lock().keys().cloned().collect();
        tenants.sort();
        let workers = match self.opts.parallelism {
            ParallelismPolicy::Sequential => 1,
            ParallelismPolicy::Parallel(n) => n as u64,
        };
        obj(vec![
            ("workload", s(&self.workload.name)),
            ("workers", Value::U64(workers)),
            ("coarse_lock", Value::Bool(self.opts.coarse_lock)),
            ("tenants", Value::Seq(tenants.into_iter().map(s).collect())),
            (
                "open_sessions",
                Value::U64(self.limiter.open_sessions() as u64),
            ),
            ("ops_served", Value::U64(self.ops_served())),
            (
                "sessions_refused",
                Value::U64(self.limiter.sessions_refused.load(Ordering::Relaxed)),
            ),
            (
                "ops_shed",
                Value::U64(self.limiter.ops_shed.load(Ordering::Relaxed)),
            ),
            (
                "ops_throttled",
                Value::U64(self.limiter.ops_throttled.load(Ordering::Relaxed)),
            ),
        ])
    }

    /// Prometheus text scrape of the global registry. Derived gauges (cache
    /// hit rate, resident bytes) are refreshed from a stats snapshot first,
    /// so the exported values are current as of this scrape.
    fn metrics_scrape(&self) -> Value {
        let _ = self.ws.cache_stats();
        s(MetricsRegistry::global().render_prometheus())
    }

    fn session_open(&self, p: &Params<'_>, out: &mut ReplyTo<'_>) -> Served {
        let tenant = p.str("tenant")?;
        let quota = QuotaPolicy {
            max_logical_bytes: p.u64_opt("max_logical_bytes")?,
            max_physical_bytes: p.u64_opt("max_physical_bytes")?,
        };
        self.limiter.open_session()?;
        let entry = match self.tenant_entry(tenant, quota) {
            Ok(entry) => entry,
            Err(failure) => {
                self.limiter.close_session();
                return Err(failure);
            }
        };
        let id = self.next_session.fetch_add(1, Ordering::Relaxed) + 1;
        self.sessions.lock().insert(id, entry);
        out.send(&SessionReply {
            session: id,
            tenant,
        })
    }

    fn session_close(&self, p: &Params<'_>, out: &mut ReplyTo<'_>) -> Served {
        let id = p.u64("session")?;
        match self.sessions.lock().remove(&id) {
            Some(_) => {
                self.limiter.close_session();
                out.send(&true)
            }
            None => Err(Failure::new(OP_FAILED, format!("no such session {id}"))),
        }
    }

    /// Resolves the session id in `params` to its tenant's entry.
    fn session(&self, p: &Params<'_>) -> Result<Arc<TenantEntry>, Failure> {
        let id = p.u64("session")?;
        self.sessions
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| Failure::new(OP_FAILED, format!("no such session {id}")))
    }

    /// The tenant's serving entry, registering it with the workspace (and
    /// the workload's components) on first use. A joined tenant's quota is
    /// the one it joined with: a request naming another is refused.
    fn tenant_entry(&self, name: &str, quota: QuotaPolicy) -> Result<Arc<TenantEntry>, Failure> {
        let mut tenants = self.tenants.lock();
        if let Some(entry) = tenants.get(name) {
            if quota != QuotaPolicy::UNLIMITED && quota != entry.quota {
                let msg = format!(
                    "tenant '{name}' joined with quota {}; a session cannot ask for {}",
                    describe_quota(entry.quota),
                    describe_quota(quota)
                );
                return Err(Failure::new(QUOTA_CONFLICT, msg));
            }
            return Ok(Arc::clone(entry));
        }
        let ts = join_workspace(&self.ws, &self.workload, name, quota)
            .map_err(|e| Failure::new(OP_FAILED, e))?;
        let entry = Arc::new(TenantEntry {
            tenant: ts.tenant,
            sys: ts.sys.with_parallelism(self.opts.parallelism),
            requests: RequestSeries::new(name),
            quota,
        });
        tenants.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Walks the first-parent chain from the branch head — all of it
    /// resolved against **one** frozen graph view, so a merge landing
    /// mid-walk can never produce a torn lineage — and writes the commits
    /// from where the view holds them.
    fn log(&self, entry: &TenantEntry, p: &Params<'_>, out: &mut ReplyTo<'_>) -> Served {
        let branch = p.str("branch")?;
        let limit = p.u64_opt("limit")?.unwrap_or(50) as usize;
        let view = entry.sys.graph();
        let q = entry.sys.qualified_branch(branch);
        let mut commit = view.head_commit(&q).map_err(Failure::op)?;
        let mut lineage = Vec::new();
        while lineage.len() < limit {
            lineage.push(CommitReply(commit));
            match commit.parents.first() {
                Some(&parent) => commit = view.commit(parent).map_err(Failure::op)?,
                None => break,
            }
        }
        out.send(&lineage)
    }

    fn commit(&self, entry: &TenantEntry, p: &Params<'_>, out: &mut ReplyTo<'_>) -> Served {
        let branch = p.str("branch")?;
        let message = p.str_opt("message")?.unwrap_or("serving commit");
        let keys = p
            .str_seq("components")?
            .iter()
            .map(|spec| parse_component(spec))
            .collect::<Result<Vec<_>, _>>()?;
        let result = entry
            .sys
            .commit_pipeline(branch, &keys, message, &ClockLedger::new())
            .map_err(write_failure)?;
        out.send(&CommitResultReply(&result))
    }

    // -- coarse-lock baseline guard ------------------------------------

    /// Runs `f` holding the side of the coarse-lock baseline's workspace
    /// lock that `guard` names (nothing unless the baseline is on).
    fn holding<T>(&self, guard: Guard, f: impl FnOnce() -> T) -> T {
        match (self.opts.coarse_lock, guard) {
            (false, _) | (_, Guard::None) => f(),
            (true, Guard::Read) => {
                let _r = self.coarse.read();
                f()
            }
            (true, Guard::Write) => {
                let _w = self.coarse.write();
                f()
            }
        }
    }
}

// -- control-plane methods and parameter parsing -----------------------

/// `obs.spans`: the most recent `n` (default 64) flight-recorder spans.
/// Introspection only — span payloads carry wall-clock times and must never
/// feed back into determinism observables.
fn obs_spans(p: &Params<'_>) -> Result<Value, Failure> {
    let n = p.u64_opt("n")?.unwrap_or(64) as usize;
    let rec = trace::recorder();
    Ok(obj(vec![
        ("enabled", Value::Bool(rec.is_enabled())),
        ("capacity", Value::U64(rec.capacity() as u64)),
        ("recorded", Value::U64(rec.recorded())),
        (
            "spans",
            Value::Seq(rec.recent(n).iter().map(span_json).collect()),
        ),
    ]))
}

/// `obs.slow`: the `n` (default 10) slowest retained spans.
fn obs_slow(p: &Params<'_>) -> Result<Value, Failure> {
    let n = p.u64_opt("n")?.unwrap_or(10) as usize;
    Ok(Value::Seq(
        trace::recorder().slowest(n).iter().map(span_json).collect(),
    ))
}

fn span_json(rec: &mlcask_obs::SpanRecord) -> Value {
    obj(vec![
        ("seq", Value::U64(rec.seq)),
        ("name", s(rec.name)),
        (
            "labels",
            obj(rec
                .labels
                .iter()
                .map(|(k, v)| (*k, s(v)))
                .collect::<Vec<_>>()),
        ),
        ("thread", Value::U64(rec.thread)),
        ("end_unix_micros", Value::U64(rec.end_unix_micros)),
        ("duration_nanos", Value::U64(rec.duration_nanos)),
    ])
}

/// Parses `"name@<semver>"` (e.g. `"model@0.2"`, `"impute@dev@1.0"`).
fn parse_component(spec: &str) -> Result<ComponentKey, Failure> {
    let (name, version) = spec.split_once('@').ok_or_else(|| {
        Failure::new(
            INVALID_PARAMS,
            format!("component `{spec}` must be `name@version`"),
        )
    })?;
    let version: SemVer = version
        .parse()
        .map_err(|e| Failure::new(INVALID_PARAMS, format!("component `{spec}`: {e}")))?;
    Ok(ComponentKey::new(name, version))
}

/// `quota`'s caps, as a refusal names them.
fn describe_quota(quota: QuotaPolicy) -> String {
    let cap = |max: Option<u64>| max.map_or("unlimited".to_string(), |b| format!("{b} B"));
    format!(
        "(logical {}, physical {})",
        cap(quota.max_logical_bytes),
        cap(quota.max_physical_bytes)
    )
}

/// `merge` and `merge.into`: the session's own branch `merging` into
/// `base`.
fn merge(entry: &TenantEntry, base: BranchRef, p: &Params, out: &mut ReplyTo) -> Served {
    let merging = p.str("merging")?;
    let strategy = parse_strategy(p.str_opt("strategy")?)?;
    let outcome = entry
        .sys
        .merge(base, merging, strategy, &ClockLedger::new());
    out.send(&MergeReply(&outcome.map_err(write_failure)?))
}

/// A commit's or a merge's error: `-32002` when its branch moved off the
/// head it was built on, which a client answers by sending it again, else
/// `-32000`.
fn write_failure(e: CoreError) -> Failure {
    match e {
        CoreError::Storage(StorageError::BaseMoved { .. }) => Failure::new(BASE_MOVED, e),
        e => Failure::op(e),
    }
}

fn parse_right(name: &str) -> Result<ShareRight, Failure> {
    match name {
        "fork" => Ok(ShareRight::Fork),
        "merge_into" => Ok(ShareRight::MergeInto),
        other => Err(Failure::params(format!(
            "unknown share right `{other}` (fork|merge_into)"
        ))),
    }
}

fn parse_strategy(name: Option<&str>) -> Result<MergeStrategy, Failure> {
    match name.unwrap_or("full") {
        "naive" => Ok(MergeStrategy::Naive),
        "without_pc_pr" => Ok(MergeStrategy::WithoutPcPr),
        "without_pr" => Ok(MergeStrategy::WithoutPr),
        "full" => Ok(MergeStrategy::Full),
        other => Err(Failure::params(format!(
            "unknown strategy `{other}` (naive|without_pc_pr|without_pr|full)"
        ))),
    }
}

// -- control-plane rendering -------------------------------------------

fn workspace_usage_json(ws: &Workspace) -> Value {
    let usages = ws.usages();
    let shared = ws.shared_view();
    Value::Map(
        usages
            .into_iter()
            .map(|(name, u)| {
                let mut fields = UsageReply(&u).to_value();
                if let (Value::Map(pairs), Some(sh)) = (&mut fields, shared.get(&name)) {
                    pairs.push((
                        "referenced_bytes".to_string(),
                        Value::U64(sh.referenced_bytes),
                    ));
                }
                (name, fields)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcask_storage::backend::{Bytes, MemBackend, StorageBackend};
    use mlcask_storage::chunk::ChunkParams;
    use mlcask_storage::costmodel::StorageCostModel;
    use mlcask_storage::errors::Result as StorageResult;
    use mlcask_storage::hash::Hash256;
    use mlcask_storage::store::ChunkStore;

    /// A memory backend whose next write first runs the hook it is armed
    /// with: it holds a warm commit, which runs nothing, at its metafile
    /// write, after the commit read its base.
    struct GatedWrites {
        inner: MemBackend,
        hook: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl GatedWrites {
        fn fire(&self) {
            let hook = self.hook.lock().take();
            if let Some(hook) = hook {
                hook();
            }
        }
    }

    impl StorageBackend for GatedWrites {
        fn put(&self, key: Hash256, data: &[u8]) -> StorageResult<bool> {
            self.fire();
            self.inner.put(key, data)
        }
        fn put_many(&self, items: &[(Hash256, &[u8])]) -> StorageResult<Vec<bool>> {
            self.fire();
            self.inner.put_many(items)
        }
        fn get(&self, key: Hash256) -> StorageResult<Bytes> {
            self.inner.get(key)
        }
        fn contains(&self, key: Hash256) -> bool {
            self.inner.contains(key)
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn physical_bytes(&self) -> u64 {
            self.inner.physical_bytes()
        }
        fn keys(&self) -> Vec<Hash256> {
            self.inner.keys()
        }
        fn remove(&self, key: Hash256) -> StorageResult<Option<u64>> {
            self.inner.remove(key)
        }
    }

    /// A commit or merge whose branch moved has its own code; their other
    /// errors do not. Served: a commit held at its metafile write while
    /// another commit lands on its branch is answered with that code.
    #[test]
    fn a_moved_base_has_its_own_code() {
        let moved = StorageError::BaseMoved {
            branch: "up/master".into(),
            searched: Hash256::of(b"searched"),
            head: Hash256::of(b"landed"),
        };
        let failure = write_failure(moved.into());
        assert_eq!(failure.code, BASE_MOVED);
        assert!(failure.msg.contains("'up/master' moved"), "{}", failure.msg);
        assert_eq!(write_failure(CoreError::NoViableCandidate).code, OP_FAILED);

        let backend = Arc::new(GatedWrites {
            inner: MemBackend::new(),
            hook: Mutex::new(None),
        });
        let (params, cost) = (ChunkParams::SMALL, StorageCostModel::FORKBASE);
        let store = ChunkStore::with_cache(Arc::clone(&backend) as _, params, cost, None);
        let workload = mlcask_workloads::readmission::build();
        let (warm, landing) = (workload.initial.clone(), workload.head_updates[0].clone());
        let ws = Workspace::over(Arc::new(store));
        let router = Arc::new(Router::over(ws, workload, ServerOptions::default()));
        let code = |reply: &str| {
            let reply: Value = serde_json::from_str(reply).unwrap();
            let error = serde::map_get(reply.as_map().unwrap(), "error");
            error.map(|e| serde::map_get(e.as_map().unwrap(), "code").unwrap().clone())
        };
        let open = r#"{"id":0,"method":"session.open","params":{"tenant":"t"}}"#;
        assert_eq!(code(&router.handle_text(open)), None);
        let commit = |keys: &[ComponentKey]| {
            let specs: Vec<String> = keys
                .iter()
                .map(|k| format!(r#""{}@{}""#, k.name, k.version))
                .collect();
            let components = specs.join(",");
            format!(
                r#"{{"id":0,"method":"commit","params":{{"session":1,"branch":"master","components":[{components}]}}}}"#
            )
        };
        assert_eq!(code(&router.handle_text(&commit(&warm))), None);
        let (beside, line) = (Arc::clone(&router), commit(&landing));
        *backend.hook.lock() = Some(Box::new(move || {
            let landed = std::thread::spawn(move || beside.handle_text(&line));
            assert_eq!(
                code(&landed.join().unwrap()),
                None,
                "the other commit lands"
            );
        }));
        let held = router.handle_text(&commit(&warm));
        assert_eq!(code(&held), Some(Value::I64(BASE_MOVED)), "{held}");
    }

    /// EIO on a read of the store's file answers the request that read —
    /// a second tenant's join, which adopts the first's stored libraries —
    /// with an error reply, not a panic, and the same request succeeds once
    /// the file reads again.
    #[test]
    fn a_read_error_is_an_error_reply() {
        use mlcask_storage::cask::{CaskBackend, CaskOptions};
        use mlcask_storage::fault::{FaultKind, FaultPlan, SimFile};
        let sim = SimFile::new();
        let backend = CaskBackend::open_sim(sim.clone(), CaskOptions::synchronous()).unwrap();
        let (params, cost) = (ChunkParams::SMALL, StorageCostModel::FORKBASE);
        let store = ChunkStore::with_cache(Arc::new(backend), params, cost, None);
        let ws = Workspace::over(Arc::new(store));
        let workload = mlcask_workloads::readmission::build();
        let router = Router::over(ws, workload, ServerOptions::default());
        let open = |tenant: &str| {
            let line =
                format!(r#"{{"id":0,"method":"session.open","params":{{"tenant":"{tenant}"}}}}"#);
            let reply: Value = serde_json::from_str(&router.handle_text(&line)).unwrap();
            serde::map_get(reply.as_map().unwrap(), "error").cloned()
        };
        assert_eq!(open("a"), None);
        sim.arm(FaultPlan::new(FaultKind::ReadError, 1, 0));
        let refused = open("b").expect("the join's read failed");
        let msg = serde::map_get(refused.as_map().unwrap(), "message");
        assert!(format!("{msg:?}").contains("EIO"), "{msg:?}");
        assert_eq!(open("b"), None, "the read error was that request's only");
    }

    /// Every name in [`ROUTES`] is one the router serves: with a live
    /// session each gets past the method lookup (whatever it then says about
    /// its missing parameters), and a name outside the table does not.
    #[test]
    fn the_method_label_set_is_the_served_set() {
        let router = Router::in_memory(
            mlcask_workloads::readmission::build(),
            ServerOptions::default(),
        );
        let call = |method: &str| {
            router.handle(&Request {
                id: Value::U64(0),
                method: method.to_string(),
                params: r#"{"session":1,"tenant":"t"}"#.to_string(),
            })
        };
        let code = |reply: &Value| match serde::map_get(reply.as_map().unwrap(), "error") {
            Some(err) => match serde::map_get(err.as_map().unwrap(), "code") {
                Some(Value::I64(code)) => Some(*code),
                other => panic!("error code: {other:?}"),
            },
            None => None,
        };
        // Opens session 1 (the first id a router hands out).
        assert_eq!(code(&call("session.open")), None);
        for route in &ROUTES {
            if route.name != "session.close" {
                let method = route.name;
                assert_ne!(code(&call(method)), Some(METHOD_NOT_FOUND), "{method}");
            }
        }
        assert_eq!(code(&call("no.such.method")), Some(METHOD_NOT_FOUND));
        assert_eq!(code(&call("session.close")), None);
    }
}
