//! The traced replay: the workloads' scripts run in-process against the
//! same `Router` the daemon wraps, with spans recorded *from here* around
//! each layer's public seam — `protocol::parse_request`, `Router::handle`,
//! `serde_json::to_string`, every `Component::run`, every
//! `StorageBackend::{put,get,contains}`. Spans stay in memory and are
//! written out when the run ends. The program's own `span!` recorder stays
//! off; spans inside the program are a later change.

use crate::script::{Op, Req};
use crate::target::{self, Endpoint, Instance, ProcStats, Spec, Target};
use bytes::Bytes;
use mlcask_core::workspace::Workspace;
use mlcask_pipeline::artifact::Artifact;
use mlcask_pipeline::component::{Component, ComponentHandle, ComponentKey, StageKind};
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::schema::SchemaId;
use mlcask_pipeline::semver::SemVer;
use mlcask_server::limits::AdmissionControl;
use mlcask_server::protocol;
use mlcask_server::service::{Router, ServerOptions};
use mlcask_storage::backend::{MemBackend, StorageBackend};
use mlcask_storage::cache::CacheOptions;
use mlcask_storage::cask::{CaskBackend, CaskOptions};
use mlcask_storage::chunk::ChunkParams;
use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::hash::Hash256;
use mlcask_storage::store::ChunkStore;
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Span names, one per seam.
pub const REQUEST: &str = "server.request";
pub const PARSE: &str = "server.protocol.parse";
pub const HANDLE: &str = "server.service.handle";
pub const RENDER: &str = "server.protocol.render";
pub const COMPONENT: &str = "ml.components.run";
pub const BACKEND_PUT: &str = "storage.backend.put";
pub const BACKEND_GET: &str = "storage.backend.get";
pub const BACKEND_CONTAINS: &str = "storage.backend.contains";

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique, starting at 1.
    pub id: u32,
    /// The span that caused this one (0 for a request's root span).
    pub parent: u32,
    /// The request id every span of one request shares.
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one `handle` span served — the request metadata the layer
/// attribution needs and a span does not carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Note {
    /// Id of the request's `handle` span.
    pub handle: u32,
    /// The request's id.
    pub req: u64,
    pub op: Op,
    pub method: &'static str,
}

/// A span that has started.
pub struct Open {
    id: u32,
    parent: u32,
    req: u64,
    name: &'static str,
    start_ns: u64,
}

thread_local! {
    /// The `handle` span (and request) running on this thread, if any.
    static CURRENT: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

/// In-memory span sink shared by the replay driver and the decorators.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    notes: Mutex<Vec<Note>>,
    /// The `handle` span of the write request in flight (each workload has
    /// at most one writer): executor worker threads have no thread-local
    /// context, so their component and backend spans attach here.
    inflight_write_span: AtomicU32,
    inflight_write_req: AtomicU64,
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            notes: Mutex::new(Vec::new()),
            inflight_write_span: AtomicU32::new(0),
            inflight_write_req: AtomicU64::new(0),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span under `parent`.
    pub fn begin(&self, name: &'static str, parent: u32, req: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Ends a span and stores it; returns its duration.
    pub fn end(&self, open: Open) -> Duration {
        let end_ns = self.now_ns();
        let span = Span {
            id: open.id,
            parent: open.parent,
            req: open.req,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("no panic while holding the span list")
            .push(span);
        Duration::from_nanos(end_ns - open.start_ns)
    }

    /// Runs `f` as the body of `handle` on this thread, so that spans the
    /// decorators open underneath find their parent.
    fn within<T>(&self, handle: &Open, is_write: bool, f: impl FnOnce() -> T) -> T {
        CURRENT.with(|c| c.set((handle.id, handle.req)));
        if is_write {
            self.inflight_write_req.store(handle.req, Ordering::Relaxed);
            self.inflight_write_span.store(handle.id, Ordering::Release);
        }
        let out = f();
        if is_write {
            self.inflight_write_span.store(0, Ordering::Release);
        }
        CURRENT.with(|c| c.set((0, 0)));
        out
    }

    /// Times `f` as a child of whatever request caused the call: this
    /// thread's, or else the in-flight write's.
    fn child<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (mut parent, mut req) = CURRENT.with(Cell::get);
        if parent == 0 {
            parent = self.inflight_write_span.load(Ordering::Acquire);
            req = self.inflight_write_req.load(Ordering::Relaxed);
        }
        let open = self.begin(name, parent, req);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no panic while holding the span list")
            .clone()
    }

    /// One note per request served, in completion order.
    pub fn notes(&self) -> Vec<Note> {
        self.notes
            .lock()
            .expect("no panic while holding the note list")
            .clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children may overlap each other — parallel
/// workers — and are clipped to the parent). Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.duration_ns() - union_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Writes spans as JSON lines with their self time.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let selfs = self_times(spans);
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(selfs) {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"req":{},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{}}}"#,
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, self_ns
        )?;
    }
    out.flush()
}

/// Timing decorator around one workload component.
struct TimedComponent {
    inner: ComponentHandle,
    rec: Arc<Recorder>,
}

impl Component for TimedComponent {
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
    fn run(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        self.rec.child(COMPONENT, || self.inner.run(inputs))
    }
    fn work_units(&self, inputs: &[Artifact]) -> u64 {
        self.inner.work_units(inputs)
    }
    fn ns_per_unit(&self) -> u64 {
        self.inner.ns_per_unit()
    }
    fn key(&self) -> ComponentKey {
        self.inner.key()
    }
    fn check_compatibility(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<()> {
        self.inner.check_compatibility(inputs)
    }
}

/// Byte and call counts of a [`TimedBackend`].
#[derive(Debug, Default)]
pub struct BackendCounts {
    pub put_calls: AtomicU64,
    pub put_bytes: AtomicU64,
    pub get_calls: AtomicU64,
    pub get_bytes: AtomicU64,
    pub contains_calls: AtomicU64,
}

/// Timing decorator between the chunk store and its physical backend.
struct TimedBackend {
    inner: Arc<dyn StorageBackend>,
    rec: Arc<Recorder>,
    counts: Arc<BackendCounts>,
}

impl StorageBackend for TimedBackend {
    fn put(&self, key: Hash256, data: &[u8]) -> mlcask_storage::errors::Result<bool> {
        self.counts.put_calls.fetch_add(1, Ordering::Relaxed);
        self.counts
            .put_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.rec.child(BACKEND_PUT, || self.inner.put(key, data))
    }
    fn get(&self, key: Hash256) -> mlcask_storage::errors::Result<Bytes> {
        self.counts.get_calls.fetch_add(1, Ordering::Relaxed);
        let out = self.rec.child(BACKEND_GET, || self.inner.get(key));
        if let Ok(bytes) = &out {
            self.counts
                .get_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        out
    }
    fn contains(&self, key: Hash256) -> bool {
        self.counts.contains_calls.fetch_add(1, Ordering::Relaxed);
        self.rec
            .child(BACKEND_CONTAINS, || self.inner.contains(key))
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
    fn remove(&self, key: Hash256) -> mlcask_storage::errors::Result<Option<u64>> {
        self.inner.remove(key)
    }
    fn flush(&self) -> mlcask_storage::errors::Result<()> {
        self.inner.flush()
    }
    fn compact(&self) -> mlcask_storage::errors::Result<u64> {
        self.inner.compact()
    }
}

/// Counters the layers themselves keep, summed over every instance the
/// replay started and read when an instance is torn down.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    pub store_logical_bytes: u64,
    pub store_physical_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cask_appends: u64,
    pub cask_fsyncs: u64,
    pub cask_file_bytes: u64,
    pub cask_payload_bytes: u64,
}

/// Starts in-process routers configured like the daemon `spec` describes,
/// with the timing decorators in place.
pub struct InProcTarget {
    pub rec: Arc<Recorder>,
    pub tmp: PathBuf,
    pub backend_counts: Arc<BackendCounts>,
    pub layer_counts: Mutex<LayerCounts>,
}

impl InProcTarget {
    pub fn new(tmp: PathBuf) -> InProcTarget {
        // The program's own span recorder stays off for the replay, so the
        // layer times are not inflated by spans nobody reads.
        mlcask_obs::trace::recorder().configure(false, 0);
        InProcTarget {
            rec: Recorder::new(),
            tmp,
            backend_counts: Arc::default(),
            layer_counts: Mutex::default(),
        }
    }
}

impl Target for InProcTarget {
    fn start(&self, spec: &Spec) -> std::io::Result<Box<dyn Instance + '_>> {
        let mut workload = crate::script::pipeline(&spec.pipeline);
        for handle in &mut workload.handles {
            *handle = Arc::new(TimedComponent {
                inner: Arc::clone(handle),
                rec: Arc::clone(&self.rec),
            });
        }
        // The same stack `Workspace::durable` / `Router::in_memory` build,
        // with the decorator slipped in under the chunk store.
        let (root, cask, inner): (_, _, Arc<dyn StorageBackend>) = if spec.durable {
            let root = target::fresh_root(&self.tmp);
            let cask = Arc::new(
                CaskBackend::open_with(&root, CaskOptions::default())
                    .map_err(std::io::Error::other)?,
            );
            (Some(root), Some(Arc::clone(&cask)), cask)
        } else {
            (None, None, Arc::new(MemBackend::new()))
        };
        let store = ChunkStore::with_cache(
            Arc::new(TimedBackend {
                inner,
                rec: Arc::clone(&self.rec),
                counts: Arc::clone(&self.backend_counts),
            }),
            ChunkParams::DEFAULT,
            StorageCostModel::FORKBASE,
            Some(CacheOptions::default()),
        );
        let router = Router::over(
            Workspace::over(Arc::new(store)),
            workload,
            ServerOptions {
                parallelism: match spec.workers {
                    0 | 1 => ParallelismPolicy::Sequential,
                    n => ParallelismPolicy::Parallel(n),
                },
                coarse_lock: false,
                admission: AdmissionControl::unlimited(),
            },
        );
        Ok(Box::new(InProc {
            target: self,
            router: Arc::new(router),
            cask,
            root,
        }))
    }
}

struct InProc<'a> {
    target: &'a InProcTarget,
    router: Arc<Router>,
    cask: Option<Arc<CaskBackend>>,
    root: Option<PathBuf>,
}

impl Instance for InProc<'_> {
    fn connect(&mut self) -> std::io::Result<Box<dyn Endpoint>> {
        Ok(Box::new(InProcEndpoint {
            router: Arc::clone(&self.router),
            rec: Arc::clone(&self.target.rec),
            reply: String::new(),
        }))
    }

    fn proc_stats(&self) -> ProcStats {
        target::proc_stats_of("self")
    }
}

impl Drop for InProc<'_> {
    fn drop(&mut self) {
        let ws = self.router.workspace();
        let mut c = self.target.layer_counts.lock().expect("plain counters");
        let total = ws.store().stats().total();
        c.store_logical_bytes += total.logical_bytes;
        c.store_physical_bytes += total.physical_bytes;
        if let Some(cache) = ws.cache_stats() {
            c.cache_hits += cache.hits;
            c.cache_misses += cache.misses;
            c.cache_evictions += cache.evictions;
        }
        if let Some(cask) = &self.cask {
            // Drain the writer pool so the counters are final.
            let _ = cask.flush();
            c.cask_appends += cask.append_count();
            c.cask_fsyncs += cask.sync_count();
            c.cask_file_bytes += cask.file_bytes();
            c.cask_payload_bytes += cask.physical_bytes();
        }
        drop(c);
        if let Some(root) = &self.root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

struct InProcEndpoint {
    router: Arc<Router>,
    rec: Arc<Recorder>,
    reply: String,
}

impl Endpoint for InProcEndpoint {
    /// `Router::handle_text`, split at its three public seams.
    fn call(&mut self, req: &Req) -> Option<(&str, Duration)> {
        let rec = &self.rec;
        let root = rec.begin(REQUEST, 0, req.id);
        let parse = rec.begin(PARSE, root.id, req.id);
        let parsed = protocol::parse_request(&req.line);
        rec.end(parse);
        let response = match parsed {
            Ok(parsed) => {
                let handle = rec.begin(HANDLE, root.id, req.id);
                let is_write = req.op != Op::Read;
                let response = rec.within(&handle, is_write, || self.router.handle(&parsed));
                rec.notes
                    .lock()
                    .expect("no panic while holding the note list")
                    .push(Note {
                        handle: handle.id,
                        req: req.id,
                        op: req.op,
                        method: req.method,
                    });
                rec.end(handle);
                response
            }
            Err(failure) => protocol::error_response(&serde::Value::Null, &failure),
        };
        let render = rec.begin(RENDER, root.id, req.id);
        self.reply = serde_json::to_string(&response).expect("response values always render");
        rec.end(render);
        let rtt = rec.end(root);
        Some((&self.reply, rtt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Two overlapping children (parallel workers): cover 10..60.
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            // A disjoint one: covers 70..80.
            span(4, 1, 70, 80),
            // A grandchild only counts against its own parent.
            span(5, 2, 15, 20),
            // A child that outlives its parent is clipped: covers 90..100.
            span(6, 1, 90, 130),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 50 - 10 - 10);
        assert_eq!(selfs[1], 30 - 5);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn union_handles_nesting_and_order() {
        assert_eq!(union_ns(0, 100, &mut [(50, 60), (0, 100), (10, 20)]), 100);
        assert_eq!(union_ns(0, 100, &mut []), 0);
        assert_eq!(union_ns(10, 20, &mut [(0, 5), (25, 30)]), 0);
        assert_eq!(union_ns(10, 20, &mut [(0, 15), (18, 30)]), 7);
    }

    #[test]
    fn decorators_attach_to_the_request_that_caused_them() {
        let rec = Recorder::new();
        let handle = rec.begin(HANDLE, 0, 42);
        let handle_id = handle.id;
        rec.within(&handle, true, || {
            rec.child(BACKEND_PUT, || ());
            // A worker thread has no thread-local context: it falls back to
            // the in-flight write.
            std::thread::scope(|s| {
                s.spawn(|| rec.child(COMPONENT, || ()));
            });
        });
        rec.end(handle);
        // After the request, nothing is in flight.
        rec.child(BACKEND_GET, || ());
        let spans = rec.spans();
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(
            (by_name(BACKEND_PUT).parent, by_name(BACKEND_PUT).req),
            (handle_id, 42)
        );
        assert_eq!(
            (by_name(COMPONENT).parent, by_name(COMPONENT).req),
            (handle_id, 42)
        );
        assert_eq!(by_name(BACKEND_GET).parent, 0);
    }
}
