//! Hot read path of the durable backend: blob cache + group commit.
//!
//! Two deterministic gates plus a determinism sweep:
//!
//! 1. **Cache win** — a read-heavy loop (the access pattern of merge search
//!    and incremental re-evaluation re-reading reusable component outputs)
//!    over a cask store, cache off vs on. The portable win metric is the
//!    backend's `read_ops` counter — segment disk reads, each of which also
//!    pays a content-hash verification. With the cache on, only the first
//!    round misses; every later round is served from memory. The binary
//!    exits nonzero unless cached disk reads undercut uncached by at least
//!    2x and the cache reports hits. Wall-clock is printed too, and gated
//!    (cached < uncached) outside smoke mode.
//!
//! 2. **Group commit** — the write phase runs on the default writer pool,
//!    where each drained batch costs one `sync_data`. Exits nonzero unless
//!    fsyncs-per-append lands below 1.
//!
//! 3. **Determinism sweep** — the what-if merge search (primed +
//!    incremental) on {`MemBackend`, `CaskBackend`} x {cache off, cache on}
//!    x workers {1, 2, 8}: every normalized observation (report + modeled
//!    ledger + store stats) must be byte-identical to the reference. The
//!    cache is keyed by content hash, so it can change *where* bytes come
//!    from but never *what* they are — this sweep is the executable proof.
//!
//! ```text
//! cargo run --release -p mlcask_bench --bin read_path
//! ```

use mlcask_bench::{f2, print_header, print_row, write_bench_json};
use mlcask_core::history::HistoryIndex;
use mlcask_core::merge::{MergeEngine, MergeStrategy};
use mlcask_core::registry::ComponentRegistry;
use mlcask_pipeline::clock::ClockLedger;
use mlcask_pipeline::executor::{ExecOptions, Executor};
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_storage::backend::MemBackend;
use mlcask_storage::cache::CacheOptions;
use mlcask_storage::cask::{CaskBackend, CaskOptions};
use mlcask_storage::chunk::ChunkParams;
use mlcask_storage::costmodel::StorageCostModel;
use mlcask_storage::object::{ObjectKind, ObjectRef};
use mlcask_storage::store::ChunkStore;
use mlcask_workloads::whatif;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct BenchPayload {
    scenario: &'static str,
    objects: usize,
    rounds: usize,
    uncached_disk_reads: u64,
    cached_disk_reads: u64,
    disk_read_reduction: f64,
    cache_hit_rate: f64,
    uncached_wall_s: f64,
    cached_wall_s: f64,
    appends: u64,
    fsyncs: u64,
    fsyncs_per_append: f64,
    group_commit_batches: u64,
    determinism_configs: usize,
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mlcask-read-path-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads every object `rounds` times and returns the wall-clock seconds.
fn read_loop(store: &ChunkStore, refs: &[ObjectRef], rounds: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..rounds {
        for r in refs {
            let blob = store.get_blob(r).expect("stored blob reads back");
            assert_eq!(blob.len() as u64, r.len);
        }
    }
    start.elapsed().as_secs_f64()
}

/// One primed incremental what-if search over `store`, reduced to the
/// normalized observation string: report (frontier telemetry zeroed — it is
/// designed to vary), the modeled clock ledger, and the store statistics.
fn search_obs(store: Arc<ChunkStore>, policy: ParallelismPolicy) -> String {
    let w = whatif::build();
    let reg = ComponentRegistry::new(store.clone());
    w.register_all(&reg).expect("what-if components register");
    let dag = Arc::new(w.dag());
    let engine = MergeEngine::new(&reg, reg.store(), Arc::clone(&dag))
        .with_parallelism(policy)
        .with_incremental(true);
    let history = HistoryIndex::new();
    let bound = reg.bind(&dag, &w.base).expect("base pipeline binds");
    let clock = ClockLedger::new();
    Executor::new(reg.store())
        .run(&bound, &clock, Some(&history), ExecOptions::MLCASK)
        .expect("base pipeline runs");
    history
        .provenance()
        .absorb(&bound, &history)
        .expect("committed run lifts into provenance");
    let clock = ClockLedger::new();
    let mut report = engine
        .search(&w.spaces(), &history, MergeStrategy::Full, &clock)
        .expect("what-if search succeeds");
    store.flush().expect("store flushes");
    report.skipped_by_frontier = 0;
    format!(
        "report={} ledger={} stats={}",
        serde_json::to_string(&report).expect("report serializes"),
        serde_json::to_string(&clock.snapshot()).expect("ledger serializes"),
        serde_json::to_string(&store.stats()).expect("stats serialize"),
    )
}

/// Builds a fresh store for one determinism-sweep cell. Cask stores get
/// their own temp directory (returned for cleanup).
fn sweep_store(backend: &str, cache: bool) -> (Arc<ChunkStore>, Option<std::path::PathBuf>) {
    let cache = cache.then(CacheOptions::default);
    match backend {
        "mem" => (
            Arc::new(ChunkStore::with_cache(
                Arc::new(MemBackend::new()),
                ChunkParams::DEFAULT,
                StorageCostModel::FORKBASE,
                cache,
            )),
            None,
        ),
        _ => {
            let root = temp_root("sweep");
            let be = CaskBackend::open_with(&root, CaskOptions::default()).expect("cask opens");
            (
                Arc::new(ChunkStore::with_cache(
                    Arc::new(be),
                    ChunkParams::DEFAULT,
                    StorageCostModel::FORKBASE,
                    cache,
                )),
                Some(root),
            )
        }
    }
}

fn main() {
    let smoke = std::env::var("MLCASK_BENCH_SMOKE").is_ok();
    let objects = if smoke { 48 } else { 160 };
    let rounds = if smoke { 6 } else { 16 };
    println!("# Durable hot read path — blob cache + group commit");
    println!(
        "\nworkload: {objects} archived library versions on a writer-pool cask, \
         re-read {rounds} rounds with the blob cache off vs on"
    );

    // -- Write phase (group-commit gate) ------------------------------------
    let root = temp_root("store");
    let be = Arc::new(CaskBackend::open_with(&root, CaskOptions::default()).expect("cask opens"));
    let store_off = ChunkStore::with_cache(
        be.clone(),
        ChunkParams::DEFAULT,
        StorageCostModel::FORKBASE,
        None,
    );
    let refs: Vec<ObjectRef> = (0..objects)
        .map(|i| {
            let payload = mlcask_core::registry::simulated_executable(
                "read-path-lib",
                &format!("0.{i}"),
                32 * 1024,
            );
            store_off
                .put_blob(ObjectKind::Library, &payload)
                .expect("library archives")
                .object
        })
        .collect();
    store_off.flush().expect("flush drains and group-commits");
    let appends = be.append_count();
    let fsyncs = be.sync_count();
    let batches = be.group_commit_batches();
    let fsyncs_per_append = fsyncs as f64 / appends.max(1) as f64;

    // -- Read phase: cache off vs on over the same backend ------------------
    let base_reads = be.read_ops();
    let uncached_wall = read_loop(&store_off, &refs, rounds);
    let uncached_reads = be.read_ops() - base_reads;

    let store_on = ChunkStore::with_cache(
        be.clone(),
        ChunkParams::DEFAULT,
        StorageCostModel::FORKBASE,
        Some(CacheOptions::default()),
    );
    let base_reads = be.read_ops();
    let cached_wall = read_loop(&store_on, &refs, rounds);
    let cached_reads = be.read_ops() - base_reads;
    let cache = store_on.cache_stats().expect("cache is on");

    print_header(
        "read-heavy loop on cask",
        &["mode", "wall s", "disk reads", "cache hit rate"],
    );
    print_row(&[
        "cache off".into(),
        f2(uncached_wall),
        uncached_reads.to_string(),
        "-".into(),
    ]);
    print_row(&[
        "cache on".into(),
        f2(cached_wall),
        cached_reads.to_string(),
        format!("{:.3}", cache.hit_rate()),
    ]);
    let reduction = uncached_reads as f64 / cached_reads.max(1) as f64;
    println!(
        "\ndisk reads: {uncached_reads} -> {cached_reads} ({reduction:.1}x fewer); \
         group commit: {fsyncs} fsyncs for {appends} appends \
         ({fsyncs_per_append:.3} per append, {batches} batches)"
    );

    // -- Determinism sweep ---------------------------------------------------
    print_header(
        "observation identity vs mem/cache-off/sequential",
        &["backend", "cache", "workers", "identical"],
    );
    let mut reference: Option<String> = None;
    let mut configs = 0usize;
    for backend in ["mem", "cask"] {
        for cache_on in [false, true] {
            for workers in [1usize, 2, 8] {
                let policy = if workers == 1 {
                    ParallelismPolicy::Sequential
                } else {
                    ParallelismPolicy::Parallel(workers)
                };
                let (store, tmp) = sweep_store(backend, cache_on);
                let obs = search_obs(store, policy);
                if let Some(tmp) = tmp {
                    let _ = std::fs::remove_dir_all(&tmp);
                }
                let reference = reference.get_or_insert(obs.clone());
                let same = &obs == reference;
                print_row(&[
                    backend.into(),
                    if cache_on { "on" } else { "off" }.into(),
                    workers.to_string(),
                    if same { "yes" } else { "NO" }.into(),
                ]);
                assert_eq!(
                    &obs, reference,
                    "observation diverged: backend={backend} cache={cache_on} workers={workers}"
                );
                configs += 1;
            }
        }
    }

    write_bench_json(
        "read_path",
        &BenchPayload {
            scenario: "library_reread_plus_whatif_sweep",
            objects,
            rounds,
            uncached_disk_reads: uncached_reads,
            cached_disk_reads: cached_reads,
            disk_read_reduction: reduction,
            cache_hit_rate: cache.hit_rate(),
            uncached_wall_s: uncached_wall,
            cached_wall_s: cached_wall,
            appends,
            fsyncs,
            fsyncs_per_append,
            group_commit_batches: batches,
            determinism_configs: configs,
        },
    );

    drop(store_off);
    drop(store_on);
    drop(be);
    let _ = std::fs::remove_dir_all(&root);

    // -- Gates ---------------------------------------------------------------
    if cache.hits == 0 {
        println!("error: the blob cache never served a hit");
        std::process::exit(1);
    }
    if cached_reads * 2 > uncached_reads {
        println!(
            "error: cached reads show no win ({cached_reads} disk reads vs {uncached_reads} uncached)"
        );
        std::process::exit(1);
    }
    if fsyncs >= appends {
        println!("error: group commit shows no coalescing ({fsyncs} fsyncs for {appends} appends)");
        std::process::exit(1);
    }
    if !smoke && cached_wall >= uncached_wall {
        println!(
            "error: cached read loop was not faster ({} s vs {} s)",
            f2(cached_wall),
            f2(uncached_wall)
        );
        std::process::exit(1);
    }
}
