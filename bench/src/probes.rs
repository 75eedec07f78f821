//! Isolated probes: one layer at a time through its public functions, in
//! absolute units (ns/op, MiB/s). They are what the in-situ spans cannot
//! split from outside the program, and the yardstick the replay's
//! unattributed remainder is estimated against. Sizes are small enough for
//! all probes together to take a few seconds.

use crate::daemon::DaemonTarget;
use crate::metrics::Values;
use crate::rng::SplitMix64;
use crate::script::{Op, Req};
use crate::stats::median;
use crate::target::{self, Spec, Target, Transport};
use bytes::Bytes;
use mlcask_core::registry::ComponentRegistry;
use mlcask_core::system::MlCask;
use mlcask_ml::metrics::{MetricKind, Score};
use mlcask_pipeline::artifact::{Artifact, ArtifactData, ModelArtifact};
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::component::{Component, ComponentKey, StageKind};
use mlcask_pipeline::dag::PipelineDag;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::provenance::pipeline_fingerprints;
use mlcask_pipeline::schema::{Schema, SchemaId};
use mlcask_pipeline::semver::SemVer;
use mlcask_storage::backend::{MemBackend, StorageBackend};
use mlcask_storage::cache::{BlobCache, CacheOptions};
use mlcask_storage::cask::{CaskBackend, CaskOptions};
use mlcask_storage::chunk::{boundaries, ChunkParams};
use mlcask_storage::commit::CommitGraph;
use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::hash::{Hash256, Sha256};
use mlcask_storage::object::ObjectKind;
use mlcask_storage::pmap::PMap;
use mlcask_storage::store::ChunkStore;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MIB: f64 = 1024.0 * 1024.0;

/// Nanoseconds per call of `f` over `iters` calls.
fn ns_per_op(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Median microseconds of `f` over `iters` individually timed calls.
fn p50_us(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples).expect("iters > 0")
}

fn mib_per_s(bytes: usize, elapsed: Duration) -> f64 {
    bytes as f64 / MIB / elapsed.as_secs_f64()
}

fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut buf = vec![0u8; len];
    SplitMix64::new(seed).fill(&mut buf);
    buf
}

fn ping(id: u64) -> Req {
    Req {
        id,
        op: Op::Other,
        method: "ping",
        line: format!(r#"{{"id":{id},"method":"ping"}}"#),
    }
}

/// `ping` round trips to a child daemon over each transport, and what
/// starting one costs.
fn transport(daemon: &DaemonTarget, out: &mut Values) -> std::io::Result<()> {
    let spec = |transport| Spec {
        transport,
        pipeline: "readmission".into(),
        workers: 1,
        durable: false,
    };
    for (name, kind, max_pings) in [
        ("server.transport.stdio_rtt_p50_us", Transport::Stdio, 2000),
        ("server.transport.tcp_rtt_p50_us", Transport::Tcp, 2000),
    ] {
        let mut instance = daemon.start(&spec(kind))?;
        let mut conn = instance.connect()?;
        // Bounded by time as well as count: a 40 ms round trip must not
        // turn the probe into a minute.
        let deadline = Instant::now() + Duration::from_millis(600);
        let mut rtts = Vec::new();
        while rtts.len() < max_pings && (rtts.len() < 11 || Instant::now() < deadline) {
            match conn.call(&ping(rtts.len() as u64 + 1)) {
                Some((_, rtt)) => rtts.push(rtt.as_nanos() as f64 / 1e3),
                None => {
                    return Err(std::io::Error::other(
                        "daemon went away during the ping probe",
                    ))
                }
            }
        }
        out.insert(name, median(&rtts).expect("at least eleven pings"));
    }
    let spawns: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            daemon
                .start(&spec(Transport::Stdio))
                .map(|_| start.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<std::io::Result<_>>()?;
    out.insert(
        "bench.daemon_spawn_ms_p50",
        median(&spawns).expect("five spawns"),
    );
    Ok(())
}

/// A component that does nothing: a source emits a few bytes derived from
/// its version, every other node passes its first input through.
struct NoOp {
    name: String,
    version: SemVer,
}

fn noop_schema() -> SchemaId {
    Schema::Model {
        family: "noop".into(),
    }
    .id()
}

impl Component for NoOp {
    fn name(&self) -> &str {
        &self.name
    }
    fn version(&self) -> SemVer {
        self.version.clone()
    }
    fn stage(&self) -> StageKind {
        StageKind::PreProcess
    }
    fn input_schema(&self) -> Option<SchemaId> {
        None
    }
    fn output_schema(&self) -> SchemaId {
        noop_schema()
    }
    fn run(&self, inputs: &[Artifact]) -> mlcask_pipeline::errors::Result<Artifact> {
        Ok(match inputs.first() {
            Some(input) => input.clone(),
            None => Artifact::new(
                ArtifactData::Model(ModelArtifact {
                    family: "noop".into(),
                    blob: self.version.increment.to_le_bytes().to_vec(),
                    score: Score::new(MetricKind::Accuracy, 0.5),
                }),
                noop_schema(),
            ),
        })
    }
    fn work_units(&self, _inputs: &[Artifact]) -> u64 {
        1
    }
}

/// A pipeline system over `dag` whose source slot has `versions` versions
/// (a new source version makes every node downstream run again).
fn noop_system(
    dag: PipelineDag,
    versions: u32,
    policy: ParallelismPolicy,
) -> (MlCask, Vec<Vec<ComponentKey>>) {
    let store = Arc::new(ChunkStore::with_cache(
        Arc::new(MemBackend::new()),
        ChunkParams::DEFAULT,
        StorageCostModel::FORKBASE,
        Some(CacheOptions::default()),
    ));
    let registry = Arc::new(ComponentRegistry::with_exe_size(store, 64));
    let names: Vec<String> = dag.node_names().to_vec();
    let register = |name: &str, increment: u32| -> ComponentKey {
        let handle = Arc::new(NoOp {
            name: name.to_string(),
            version: SemVer::master(0, increment),
        });
        let key = handle.key();
        registry
            .register(handle)
            .expect("a fresh in-memory registry accepts the component");
        key
    };
    let rest: Vec<ComponentKey> = names[1..].iter().map(|n| register(n, 0)).collect();
    let pipelines = (0..versions)
        .map(|v| {
            std::iter::once(register(&names[0], v))
                .chain(rest.iter().cloned())
                .collect()
        })
        .collect();
    let sys = MlCask::new("noop", dag, Arc::clone(&registry)).with_parallelism(policy);
    (sys, pipelines)
}

/// `MlCask::commit_pipeline` over no-op components: what the executor,
/// history, provenance, metafile and graph cost per node when components
/// cost nothing — executed (new source version every commit) and fully
/// reused (same pipeline again).
fn executor(out: &mut Values) {
    const FRESH: u32 = 40;
    let chain_names: Vec<String> = (0..16).map(|i| format!("n{i}")).collect();
    let chain_refs: Vec<&str> = chain_names.iter().map(String::as_str).collect();
    let chain = || PipelineDag::chain(&chain_refs).expect("distinct names form a chain");
    let branch_names: Vec<String> = (0..8).map(|i| format!("b{i}")).collect();
    let branch_refs: Vec<&str> = branch_names.iter().map(String::as_str).collect();
    let fan = || PipelineDag::fan("src", &branch_refs, "sink").expect("distinct names form a fan");
    let ledger = ClockLedger::new();
    let commit_all = |sys: &MlCask, pipelines: &[Vec<ComponentKey>]| -> f64 {
        ns_per_op(pipelines.len(), |i| {
            let r = sys.commit_pipeline("master", &pipelines[i], "probe", &ledger);
            assert!(r.expect("no-op pipelines run").commit.is_some());
        }) / pipelines[0].len() as f64
    };

    let (sys, pipelines) = noop_system(chain(), FRESH, ParallelismPolicy::Sequential);
    out.insert(
        "pipeline.executor.noop_chain_ns_per_node",
        commit_all(&sys, &pipelines),
    );
    let again: Vec<Vec<ComponentKey>> = (0..200).map(|_| pipelines[0].clone()).collect();
    out.insert(
        "pipeline.executor.noop_chain_reuse_ns_per_node",
        commit_all(&sys, &again),
    );
    let bound = sys.bind(&pipelines[0]).expect("registered keys bind");
    out.insert(
        "pipeline.provenance.fingerprint_ns_per_node",
        ns_per_op(2000, |_| {
            black_box(pipeline_fingerprints(black_box(&bound)).expect("acyclic"));
        }) / 16.0,
    );
    for (name, policy) in [
        (
            "pipeline.executor.noop_fan_ns_per_node_w1",
            ParallelismPolicy::Sequential,
        ),
        (
            "pipeline.executor.noop_fan_ns_per_node_w2",
            ParallelismPolicy::Parallel(2),
        ),
    ] {
        let (sys, pipelines) = noop_system(fan(), FRESH, policy);
        out.insert(name, commit_all(&sys, &pipelines));
    }
}

/// Hashing, chunking and the chunk store over 32 MiB of seeded bytes.
fn hash_chunk_store(seed: u64, out: &mut Values) {
    let data = seeded_bytes(seed, 32 << 20);
    let t = Instant::now();
    black_box(Sha256::digest(black_box(&data)));
    out.insert(
        "storage.hash.sha256_mib_per_s",
        mib_per_s(data.len(), t.elapsed()),
    );
    let t = Instant::now();
    black_box(boundaries(black_box(&data), ChunkParams::DEFAULT));
    out.insert(
        "storage.chunk.chunk_mib_per_s",
        mib_per_s(data.len(), t.elapsed()),
    );

    // No cache: `get` measures reassembly from the backend, not a cache hit.
    let store = ChunkStore::with_cache(
        Arc::new(MemBackend::new()),
        ChunkParams::DEFAULT,
        StorageCostModel::FORKBASE,
        None,
    );
    let t = Instant::now();
    let put = store
        .put_blob(ObjectKind::Dataset, &data)
        .expect("in-memory put");
    out.insert(
        "storage.store.put_new_mib_per_s",
        mib_per_s(data.len(), t.elapsed()),
    );
    let t = Instant::now();
    store
        .put_blob(ObjectKind::Dataset, &data)
        .expect("in-memory put");
    out.insert(
        "storage.store.put_dup_mib_per_s",
        mib_per_s(data.len(), t.elapsed()),
    );
    let t = Instant::now();
    black_box(store.get_blob(&put.object).expect("just written"));
    out.insert(
        "storage.store.get_mib_per_s",
        mib_per_s(data.len(), t.elapsed()),
    );
}

/// The cask backend on this sandbox's filesystem: appends through the
/// writer pool and synchronously, reads, flush, and index recovery of a
/// 64 MiB store.
fn cask(seed: u64, tmp: &Path, out: &mut Values) -> std::io::Result<()> {
    let err = std::io::Error::other::<mlcask_storage::errors::StorageError>;
    // The cask checks that a key is the hash of its value, so every record
    // is the same 16 KiB stamped with its index, hashed before the clock
    // starts.
    const N: usize = 4096; // x 16 KiB = 64 MiB
    let mut value = seeded_bytes(seed, 16 << 10);
    fn stamp(value: &mut [u8], i: usize) {
        value[..8].copy_from_slice(&(i as u64).to_le_bytes());
    }
    let keys: Vec<Hash256> = (0..N)
        .map(|i| {
            stamp(&mut value, i);
            Hash256::of(&value)
        })
        .collect();

    let root = target::fresh_root(tmp);
    let pooled = CaskBackend::open_with(&root, CaskOptions::default()).map_err(err)?;
    out.insert(
        "storage.cask.append_us_p50",
        p50_us(N, |i| {
            stamp(&mut value, i);
            pooled.put(keys[i], &value).expect("append");
        }),
    );
    let t = Instant::now();
    pooled.flush().map_err(err)?;
    out.insert("storage.cask.flush_ms", t.elapsed().as_secs_f64() * 1e3);
    out.insert(
        "storage.cask.read_us_p50",
        p50_us(N, |i| {
            black_box(pooled.get(keys[(i * 2654435761) % N]).expect("present"));
        }),
    );
    drop(pooled);
    let t = Instant::now();
    let reopened = CaskBackend::open_with(&root, CaskOptions::default()).map_err(err)?;
    out.insert(
        "storage.cask.recover_mib_per_s",
        mib_per_s(N * (16 << 10), t.elapsed()),
    );
    assert_eq!(reopened.len(), N, "recovery found every record");
    drop(reopened);
    let _ = std::fs::remove_dir_all(&root);

    let root = target::fresh_root(tmp);
    let sync = CaskBackend::open_with(&root, CaskOptions::synchronous()).map_err(err)?;
    out.insert(
        "storage.cask.append_sync_us_p50",
        p50_us(256, |i| {
            stamp(&mut value, i);
            sync.put(keys[i], &value).expect("append");
        }),
    );
    drop(sync);
    let _ = std::fs::remove_dir_all(&root);
    Ok(())
}

/// The blob cache: a hit, and a miss followed by the insert that fills it.
fn cache(seed: u64, out: &mut Values) {
    let cache = BlobCache::new(CacheOptions::default());
    let blob = Bytes::from(seeded_bytes(seed, 4096));
    let keys: Vec<Hash256> = (0..4096u64)
        .map(|i| Hash256::of_parts(&[b"cache-probe", &i.to_le_bytes()]))
        .collect();
    out.insert(
        "storage.cache.miss_insert_ns",
        ns_per_op(keys.len(), |i| {
            if cache.get(&keys[i]).is_none() {
                cache.insert(keys[i], blob.clone());
            }
        }),
    );
    out.insert(
        "storage.cache.hit_ns",
        ns_per_op(200_000, |i| {
            black_box(cache.get(&keys[i % keys.len()]));
        }),
    );
}

/// The commit graph and its persistent map at 10 000 commits: the size a
/// long `warm_evolve` run reaches.
fn graph(out: &mut Values) {
    const N: usize = 10_000;
    let payload = |i: usize| Hash256::of_parts(&[b"graph-probe", &(i as u64).to_le_bytes()]);
    let g = CommitGraph::new();
    g.commit_root("master", payload(0), "root")
        .expect("empty graph");
    for i in 1..N {
        if i % 100 == 0 {
            g.branch("master", &format!("side{i}"))
                .expect("new branch name");
        }
        g.commit("master", payload(i), "fill").expect("append");
    }
    g.branch("master", "far").expect("new branch name");
    out.insert(
        "storage.commit.append_publish_us_at_10k",
        p50_us(500, |i| {
            g.commit("master", payload(N + i), "probe").expect("append");
        }),
    );
    out.insert(
        "storage.commit.view_head_ns",
        ns_per_op(100_000, |_| {
            black_box(g.view().head("master").expect("exists"));
        }),
    );
    let view = g.view();
    let head = view.head("master").expect("exists");
    let walk = 2000;
    let t = Instant::now();
    let mut c = head.clone();
    for _ in 0..walk {
        c = view.get(c.parents[0]).expect("parent exists");
    }
    black_box(c);
    out.insert(
        "storage.commit.log_walk_ns_per_commit",
        t.elapsed().as_nanos() as f64 / walk as f64,
    );
    // `far` forked 500 commits ago and got one commit of its own since.
    g.commit("far", payload(usize::MAX), "diverge")
        .expect("append");
    let far = g.head("far").expect("exists");
    out.insert(
        "storage.commit.common_ancestor_us_at_10k",
        p50_us(20, |_| {
            black_box(g.common_ancestor(head.id, far.id).expect("connected"));
        }),
    );

    let mut map: PMap<Hash256, u64> = PMap::new();
    let keys: Vec<Hash256> = (0..N + 2000).map(payload).collect();
    for (i, k) in keys[..N].iter().enumerate() {
        map = map.insert(*k, i as u64);
    }
    out.insert(
        "storage.pmap.insert_ns_at_10k",
        ns_per_op(2000, |i| {
            map = map.insert(keys[N + i], i as u64);
        }),
    );
    out.insert(
        "storage.pmap.get_ns_at_10k",
        ns_per_op(100_000, |i| {
            black_box(map.get(&keys[i % N]));
        }),
    );
}

/// What the telemetry itself costs, as the server uses it: a labelled span
/// with the recorder on and off, and a registry lookup plus update for the
/// per-request counter and histogram.
fn obs(out: &mut Values) {
    let rec = mlcask_obs::trace::recorder();
    rec.configure(true, 4096);
    out.insert(
        "obs.span_on_ns",
        ns_per_op(100_000, |i| {
            let _s = mlcask_obs::span!("bench.probe", "i" => i);
        }),
    );
    rec.configure(false, 0);
    out.insert(
        "obs.span_off_ns",
        ns_per_op(1_000_000, |i| {
            let _s = mlcask_obs::span!("bench.probe", "i" => i);
        }),
    );
    // A private registry: the probe's series stay out of the global scrape.
    let reg = mlcask_obs::MetricsRegistry::new();
    let labels = [("method", "log"), ("tenant", "probe"), ("outcome", "ok")];
    out.insert(
        "obs.counter_inc_ns",
        ns_per_op(200_000, |_| {
            reg.counter("probe_requests_total", "probe", &labels).inc();
        }),
    );
    out.insert(
        "obs.histogram_observe_ns",
        ns_per_op(200_000, |i| {
            reg.histogram(
                "probe_request_seconds",
                "probe",
                &labels[..2],
                mlcask_obs::metrics::LATENCY_SECONDS,
            )
            .observe_duration(Duration::from_nanos(i as u64));
        }),
    );
}

/// Runs every probe.
pub fn run_all(daemon: &DaemonTarget, seed: u64) -> std::io::Result<Values> {
    let mut out = Values::new();
    transport(daemon, &mut out)?;
    executor(&mut out);
    hash_chunk_store(seed, &mut out);
    cask(seed, &daemon.tmp, &mut out)?;
    cache(seed, &mut out);
    graph(&mut out);
    obs(&mut out);
    Ok(out)
}
