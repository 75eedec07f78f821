//! Crash-recovery matrix: kill the storage backend at every k-th write,
//! reopen, and check what the store promises: every output manifest that
//! survived reads back whole, and a from-scratch rerun on the reopened
//! store completes with the uninterrupted run's outcome, score, artifact
//! ids and output references, leaving exactly the uninterrupted run's
//! blobs and physical bytes behind. Runs on both the durable
//! [`CaskBackend`] (fault-injected torn/dropped writes, real reopen) and an
//! in-memory store behind the trait-level [`FaultBackend`], with the rerun
//! at worker counts {1, 2, 8}.
//!
//! Outputs are content-addressed blobs, so the rerun dedups whatever
//! survived and writes the rest. Crashed attempts run at one worker (nodes
//! execute inline in canonical order). The in-memory matrix also runs its
//! crashed attempt through a quota'd tenant view and checks that the failed
//! run left no trace in the tenant's accounts.

use mlcask::core::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
use mlcask::pipeline::artifact::Artifact;
use mlcask::prelude::*;
use mlcask::storage::backend::MemBackend;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-call-unique temp dir: pid alone is not enough because one process
/// runs many matrix cells (and the test harness runs tests concurrently).
fn temp_base(tag: &str) -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mlcask-crash-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The toy source → scaler → model chain: small artifacts, so with
/// [`ChunkParams::SMALL`] the whole run issues a few dozen backend writes
/// — a crash matrix over *every* write stays fast.
fn bound_toy() -> BoundPipeline {
    let dag = Arc::new(PipelineDag::chain(&toy_slots()).unwrap());
    let comps = vec![
        toy_source(SemVer::master(0, 0), 4, 32),
        toy_scaler(SemVer::master(0, 0), 4, 4, 2.0),
        toy_model(SemVer::master(0, 0), 4, 0.8),
    ];
    BoundPipeline::new(dag, comps).unwrap()
}

/// The diamond fusion workload — real DAG width, so the rerun's parallel
/// wavefront genuinely fans out.
fn bound_fusion() -> BoundPipeline {
    let w = mlcask::workloads::fusion::build();
    let comps = w
        .initial
        .iter()
        .map(|key| {
            w.handles
                .iter()
                .find(|h| &h.key() == key)
                .expect("initial key registered")
                .clone()
        })
        .collect();
    BoundPipeline::new(Arc::new(w.dag()), comps).unwrap()
}

fn run_once(
    pipeline: &BoundPipeline,
    store: &ChunkStore,
    policy: ParallelismPolicy,
) -> PipelineResult<RunReport> {
    Executor::new(store).run(pipeline, None, Policy::RERUN_ALL.with_parallelism(policy))
}

/// Every observable of an uninterrupted run: its report (clock included),
/// the store statistics, and the physical bytes.
fn observe(report: &RunReport, store: &ChunkStore) -> String {
    format!(
        "report={} stats={} physical={}",
        serde_json::to_string(report).unwrap(),
        serde_json::to_string(&store.stats()).unwrap(),
        store.physical_bytes(),
    )
}

/// What a rerun after a crash must reproduce: the outcome (score
/// included), every stage's artifact id and output reference, and the
/// backend's blobs and physical bytes. Clocks and store statistics are
/// left out: a rerun dedups the blobs that survived the crash.
fn outputs(report: &RunReport, store: &ChunkStore) -> String {
    let stages: Vec<_> = report
        .stages
        .iter()
        .map(|s| (s.artifact_id, s.output))
        .collect();
    let mut keys = store.backend().keys();
    keys.sort();
    format!(
        "outcome={} stages={stages:?} physical={} keys={keys:?}",
        serde_json::to_string(&report.outcome).unwrap(),
        store.physical_bytes(),
    )
}

/// Uninterrupted one-worker run on a fresh in-memory store — the reference
/// every crashed-and-rerun store must reproduce.
fn reference(pipeline: &BoundPipeline, params: ChunkParams) -> (RunReport, ChunkStore) {
    let store = ChunkStore::new(
        Arc::new(MemBackend::new()),
        params,
        StorageCostModel::FORKBASE,
    );
    let report = run_once(pipeline, &store, ParallelismPolicy::Sequential).unwrap();
    assert!(report.outcome.is_completed());
    (report, store)
}

/// Checks every output manifest of `reference` that survived in `store`
/// reads back whole: its bytes decode to the artifact the reference
/// produced. Returns how many survived.
fn check_survivors(store: &ChunkStore, reference: &RunReport, cell: &str) -> usize {
    let mut survived = 0;
    for s in &reference.stages {
        if !store.contains(s.output.id) {
            continue;
        }
        let bytes = store.get_blob(&s.output).unwrap_or_else(|e| {
            panic!(
                "{cell}: surviving manifest of {} unreadable: {e}",
                s.component
            )
        });
        let artifact = Artifact::from_bytes(&bytes).unwrap_or_else(|e| {
            panic!(
                "{cell}: surviving output of {} undecodable: {e}",
                s.component
            )
        });
        assert_eq!(
            artifact.content_id(),
            s.artifact_id,
            "{cell}: surviving output of {} is not the artifact it named",
            s.component
        );
        survived += 1;
    }
    survived
}

/// Reruns the pipeline from scratch on a reopened store and returns the
/// rerun's [`outputs`].
fn rerun(
    pipeline: &BoundPipeline,
    store: &ChunkStore,
    policy: ParallelismPolicy,
    cell: &str,
) -> String {
    let report = run_once(pipeline, store, policy)
        .unwrap_or_else(|e| panic!("{cell}: rerun on the reopened store failed: {e}"));
    assert!(
        report.outcome.is_completed(),
        "{cell}: rerun did not complete"
    );
    outputs(&report, store)
}

/// Runs the pipeline once against a clean synchronous cask to learn the
/// total number of segment appends the workload issues.
fn cask_total_appends(pipeline: &BoundPipeline, params: ChunkParams) -> u64 {
    let base = temp_base("count");
    let be =
        Arc::new(CaskBackend::open_with(base.join("store"), CaskOptions::synchronous()).unwrap());
    let store = ChunkStore::new(be.clone(), params, StorageCostModel::FORKBASE);
    run_once(pipeline, &store, ParallelismPolicy::Sequential).unwrap();
    store.flush().unwrap();
    let n = be.append_count();
    drop(store);
    let _ = std::fs::remove_dir_all(&base);
    n
}

fn fault_plan(k: u64, kind_sel: u64) -> FaultPlan {
    match kind_sel % 3 {
        0 => FaultPlan::torn(k, 0xC0FFEE ^ k),
        1 => FaultPlan::after_write(k),
        _ => FaultPlan::drop_unsynced(k),
    }
}

/// One cask matrix cell: crash the k-th segment append during a one-worker
/// attempt, reopen the directory (torn-tail truncation), check the
/// survivors against `reference`, and rerun under `policy`. Returns the
/// rerun's [`outputs`] and how many of the reference's output manifests
/// survived the crash.
fn crash_then_rerun_cask(
    pipeline: &BoundPipeline,
    reference: &RunReport,
    params: ChunkParams,
    k: u64,
    kind_sel: u64,
    policy: ParallelismPolicy,
) -> (String, usize) {
    let base = temp_base("cask");
    let root = base.join("store");
    let plan = fault_plan(k, kind_sel);
    let cell = format!("crash at append {k} ({:?}), rerun {policy:?}", plan.kind);
    {
        let be = Arc::new(
            CaskBackend::open_with(&root, CaskOptions::synchronous().with_fault(plan)).unwrap(),
        );
        let store = ChunkStore::new(be, params, StorageCostModel::FORKBASE);
        // Crashes mid-run for every fault kind except `AfterWrite` on the
        // run's final append (the crash point then fires with nothing left
        // to write).
        let _ = run_once(pipeline, &store, ParallelismPolicy::Sequential);
    }
    let be = Arc::new(CaskBackend::open(&root).unwrap());
    let store = ChunkStore::new(be, params, StorageCostModel::FORKBASE);
    let survived = check_survivors(&store, reference, &cell);
    let out = rerun(pipeline, &store, policy, &cell);
    drop(store);
    let _ = std::fs::remove_dir_all(&base);
    (out, survived)
}

const POLICIES: [ParallelismPolicy; 3] = [
    ParallelismPolicy::Sequential,
    ParallelismPolicy::Parallel(2),
    ParallelismPolicy::Parallel(8),
];

/// Every segment append of the toy chain killed in turn, fault kind and
/// rerun worker count rotating: the work resumes as a rerun on the
/// reopened store and ends byte-identical in outputs and physical bytes.
#[test]
fn cask_crash_at_every_append_resumes_byte_identical() {
    let pipeline = bound_toy();
    let (report, store) = reference(&pipeline, ChunkParams::SMALL);
    let expected = outputs(&report, &store);
    let total = cask_total_appends(&pipeline, ChunkParams::SMALL);
    assert!(total > 8, "toy chain must issue enough writes to matter");

    let (mut survived_some, mut lost_some) = (false, false);
    for k in 1..=total {
        // Rotate fault kind and rerun worker count so every append gets
        // killed under some combination while the matrix stays affordable.
        let policy = POLICIES[(k % 3) as usize];
        let (out, survived) =
            crash_then_rerun_cask(&pipeline, &report, ChunkParams::SMALL, k, k / 3, policy);
        survived_some |= survived > 0;
        lost_some |= survived < report.stages.len();
        assert_eq!(
            out, expected,
            "rerun diverged after crash at append {k} ({policy:?})"
        );
    }
    assert!(
        survived_some,
        "no output ever survived a crash — the rerun never deduped a survivor"
    );
    assert!(
        lost_some,
        "every crash kept every output — nothing was rerun"
    );
}

/// `FaultPlan`'s promise — the same plan against the same write sequence
/// tears the same record at the same byte — checked on the files: the toy
/// chain run twice on a synchronous cask under one plan leaves the segment
/// file byte-identical, for every fault kind at several k.
#[test]
fn cask_fault_replays_byte_identical() {
    let pipeline = bound_toy();
    let total = cask_total_appends(&pipeline, ChunkParams::SMALL);
    let segments = |plan: FaultPlan| -> Vec<(String, Vec<u8>)> {
        let base = temp_base("replay");
        let root = base.join("store");
        {
            let opts = CaskOptions::synchronous().with_fault(plan);
            let be = Arc::new(CaskBackend::open_with(&root, opts).unwrap());
            let store = ChunkStore::new(be, ChunkParams::SMALL, StorageCostModel::FORKBASE);
            let run = run_once(&pipeline, &store, ParallelismPolicy::Sequential);
            assert!(run.is_err(), "{plan:?} fires");
        }
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".log"))
            .map(|name| {
                let bytes = std::fs::read(root.join(&name)).unwrap();
                (name, bytes)
            })
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(&base);
        files
    };
    for k in [1, total / 2, total - 1, total] {
        for kind in [
            FaultKind::Torn,
            FaultKind::AfterWrite,
            FaultKind::DropUnsynced,
            FaultKind::GroupCommitError,
        ] {
            for seed in [6, 7] {
                let plan = FaultPlan {
                    crash_at_append: k,
                    kind,
                    seed,
                };
                let first = segments(plan);
                assert_eq!(first.len(), 1, "the segment file is there");
                assert!(first == segments(plan), "{plan:?} replayed differently");
            }
        }
    }
}

/// The fusion diamond crashed at four appends, each rerun at every worker
/// count.
#[test]
fn fusion_diamond_crash_resume_all_worker_counts() {
    let pipeline = bound_fusion();
    let (report, store) = reference(&pipeline, ChunkParams::DEFAULT);
    let expected = outputs(&report, &store);
    let total = cask_total_appends(&pipeline, ChunkParams::DEFAULT);
    assert!(total > 4);

    for (i, k) in [1, total / 3, 2 * total / 3, total].into_iter().enumerate() {
        let k = k.max(1);
        for policy in POLICIES {
            let (out, _) = crash_then_rerun_cask(
                &pipeline,
                &report,
                ChunkParams::DEFAULT,
                k,
                i as u64,
                policy,
            );
            assert_eq!(
                out, expected,
                "fusion rerun diverged after crash at append {k} ({policy:?})"
            );
        }
    }
}

/// One in-memory matrix cell: the trait-level [`FaultBackend`] fails the
/// p-th put of an attempt made through a quota'd tenant view, the backend
/// heals (simulated reopen — `MemBackend` keeps every acknowledged put),
/// and a fresh store view over the healed backend checks the survivors and
/// reruns. The failed attempt must leave no trace in the tenant's
/// accounts: no open reservation, and the usage it had before the run.
fn crash_then_rerun_mem(
    pipeline: &BoundPipeline,
    reference: &RunReport,
    p: u64,
    policy: ParallelismPolicy,
) -> (String, usize) {
    let cell = format!("crash at put {p}, rerun {policy:?}");
    let fb = Arc::new(FaultBackend::new(Arc::new(MemBackend::new()), p));
    let store = ChunkStore::new(fb.clone(), ChunkParams::SMALL, StorageCostModel::FORKBASE);
    let tenant = TenantId(7);
    let accounts = store.tenant_accounts();
    accounts.register(
        tenant,
        QuotaPolicy {
            max_logical_bytes: Some(1 << 30),
            max_physical_bytes: Some(1 << 30),
        },
    );
    let before = accounts.usage(tenant);
    let first = run_once(
        pipeline,
        &store.for_tenant(tenant),
        ParallelismPolicy::Sequential,
    );
    assert!(first.is_err(), "{cell}: armed backend must fail the run");
    assert!(fb.crashed());
    assert_eq!(
        accounts.open_reservations(),
        0,
        "{cell}: the failed run left a reservation open"
    );
    assert_eq!(
        accounts.usage(tenant),
        before,
        "{cell}: the failed run charged its tenant"
    );
    fb.heal();

    let store = ChunkStore::new(fb, ChunkParams::SMALL, StorageCostModel::FORKBASE);
    let survived = check_survivors(&store, reference, &cell);
    (rerun(pipeline, &store, policy, &cell), survived)
}

/// Every put of the toy chain failed in turn on the in-memory store, the
/// crashed attempt running as a quota'd tenant (see
/// [`crash_then_rerun_mem`]).
#[test]
fn mem_fault_crash_at_every_put_resumes_byte_identical() {
    let pipeline = bound_toy();
    let (report, store) = reference(&pipeline, ChunkParams::SMALL);
    let expected = outputs(&report, &store);

    // Learn the workload's put count with a far-away crash point.
    let fb = Arc::new(FaultBackend::new(Arc::new(MemBackend::new()), u64::MAX));
    let counting = ChunkStore::new(fb.clone(), ChunkParams::SMALL, StorageCostModel::FORKBASE);
    run_once(&pipeline, &counting, ParallelismPolicy::Sequential).unwrap();
    let total = fb.puts();
    assert!(total > 8);

    let mut survived_some = false;
    for p in 1..=total {
        let policy = POLICIES[(p % 3) as usize];
        let (out, survived) = crash_then_rerun_mem(&pipeline, &report, p, policy);
        survived_some |= survived > 0;
        assert_eq!(
            out, expected,
            "mem rerun diverged after crash at put {p} ({policy:?})"
        );
    }
    assert!(survived_some, "no output ever survived a mem crash");
}

/// Group commit writes a whole batch as one contiguous segment write
/// followed by a single `sync_data`. If the machine dies mid-batch, only a
/// prefix of the concatenated frames reaches the disk; reopen must keep
/// every fully-written frame of the batch and truncate the torn one — the
/// per-append torn-tail protocol applied to a batched write.
///
/// Killing a live writer thread mid-batch is inherently racy, so the batch
/// is hand-crafted: three records framed exactly as the cask lays a batch
/// out, appended to the segment file with the last frame cut short.
#[test]
fn group_commit_torn_mid_batch_truncates_to_last_full_frame() {
    use mlcask::storage::backend::StorageBackend;
    use mlcask::storage::cask::{frame, FRAME_HEADER};
    use std::io::Write;

    let base = temp_base("torn-batch");
    let root = base.join("store");

    // A durable base object, flushed so the crafted batch lands behind it.
    let base_blob = vec![7u8; 96];
    let base_key = Hash256::of(&base_blob);
    {
        let be = CaskBackend::open_with(&root, CaskOptions::synchronous()).unwrap();
        be.put(base_key, &base_blob).unwrap();
        be.flush().unwrap();
    }
    let path = root.join("segment.log");
    let base_len = std::fs::metadata(&path).unwrap().len();

    // One group-commit batch: record frames back to back, the third cut
    // mid-payload (its fsync never completed).
    let blobs: Vec<Vec<u8>> = (0u8..3)
        .map(|i| vec![i + 1; 64 + i as usize * 17])
        .collect();
    let mut batch = Vec::new();
    let mut full_ends = Vec::new();
    for b in &blobs {
        let mut payload = vec![0u8]; // FLAG_PUT
        payload.extend_from_slice(&Hash256::of(b).0);
        payload.extend_from_slice(b);
        batch.extend_from_slice(&frame(&payload));
        full_ends.push(batch.len());
    }
    let cut = full_ends[1] + FRAME_HEADER + 5;
    assert!(cut < batch.len(), "cut must land inside the third frame");
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&batch[..cut]).unwrap();
        f.sync_all().unwrap();
    }

    // Reopen: the two full frames survive, the torn third does not, the
    // base object is untouched, and the file is truncated to the last full
    // frame.
    {
        let be = CaskBackend::open(&root).unwrap();
        assert_eq!(be.get(base_key).unwrap().as_ref(), &base_blob[..]);
        for b in &blobs[..2] {
            assert_eq!(be.get(Hash256::of(b)).unwrap().as_ref(), &b[..]);
        }
        assert!(
            !be.contains(Hash256::of(&blobs[2])),
            "torn frame must not resurrect"
        );
        assert_eq!(be.len(), 3);
    }
    assert_eq!(
        std::fs::metadata(&path).unwrap().len(),
        base_len + full_ends[1] as u64,
        "recovery truncates to the last full frame of the batch"
    );

    // Truncation is idempotent: a second reopen sees the same state and
    // appends continue cleanly from the truncated tail.
    let be = CaskBackend::open(&root).unwrap();
    assert_eq!(be.len(), 3);
    let extra = vec![9u8; 40];
    be.put(Hash256::of(&extra), &extra).unwrap();
    be.flush().unwrap();
    assert_eq!(be.get(Hash256::of(&extra)).unwrap().as_ref(), &extra[..]);
    drop(be);
    let _ = std::fs::remove_dir_all(&base);
}

/// The durable backend is observationally identical to the in-memory one:
/// the same run on a cask store (writer thread *and* synchronous mode)
/// produces byte-identical observables, and every artifact survives a real
/// close-and-reopen of the directory.
#[test]
fn cask_uninterrupted_matches_mem_and_survives_reopen() {
    let pipeline = bound_toy();
    let (report, store) = reference(&pipeline, ChunkParams::SMALL);
    let expected = observe(&report, &store);

    for opts in [CaskOptions::default(), CaskOptions::synchronous()] {
        let base = temp_base("parity");
        let root = base.join("store");
        let be = Arc::new(CaskBackend::open_with(&root, opts).unwrap());
        let store = ChunkStore::new(be, ChunkParams::SMALL, StorageCostModel::FORKBASE);
        let report = run_once(&pipeline, &store, ParallelismPolicy::Sequential).unwrap();
        assert_eq!(observe(&report, &store), expected);
        store.flush().unwrap();
        let outputs: Vec<_> = report.stages.iter().map(|s| s.output).collect();
        drop(store);

        // Reopen and recover every artifact bit-exact.
        let be = Arc::new(CaskBackend::open(&root).unwrap());
        let store = ChunkStore::new(be, ChunkParams::SMALL, StorageCostModel::FORKBASE);
        for (r, s) in outputs.iter().zip(&report.stages) {
            let bytes = store.get_blob(r).unwrap();
            let artifact = mlcask::pipeline::artifact::Artifact::from_bytes(&bytes).unwrap();
            assert_eq!(artifact.content_id(), s.artifact_id);
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}

/// A blob is one durability unit with a writer thread: its new chunks and
/// its manifest are one group, landed by one write and one `sync_data`.
/// Crash the writer (`simulate_crash`: queued groups dropped, unsynced
/// bytes truncated) after every prefix of a run of blob writes; after
/// reopen, every blob whose chunks were all new and whose manifest survived
/// reads back byte-exact. With chunk and manifest under independent fsyncs,
/// a manifest could outlive its chunks.
#[test]
fn pool_crash_never_keeps_a_manifest_without_its_chunks() {
    use mlcask::storage::object::ObjectKind;

    let blobs: Vec<Vec<u8>> = (0..12u32)
        .map(|b| {
            (0..3000u32)
                .map(|i| (b * 7919 + i).wrapping_mul(2654435761).to_le_bytes()[2])
                .collect()
        })
        .collect();
    let mut checked = 0;
    for crash_after in 0..=blobs.len() {
        let base = temp_base("blob-unit");
        let root = base.join("store");
        let mut written = Vec::new();
        {
            let be = Arc::new(CaskBackend::open_with(&root, CaskOptions::default()).unwrap());
            let store = ChunkStore::new(be.clone(), ChunkParams::SMALL, StorageCostModel::FORKBASE);
            for (i, blob) in blobs[..crash_after].iter().enumerate() {
                let (out, trace) = store.put_blob_traced(ObjectKind::Output, blob).unwrap();
                let all_new = trace.manifest.was_new && trace.chunks.iter().all(|c| c.was_new);
                written.push((out.object, blob, all_new));
                if i == 0 {
                    store.flush().unwrap(); // one blob always survives
                }
                // Let the writer land some of the rest before the crash.
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
            be.simulate_crash();
        }
        let be = Arc::new(CaskBackend::open(&root).unwrap());
        let store = ChunkStore::new(be, ChunkParams::SMALL, StorageCostModel::FORKBASE);
        for (object, blob, all_new) in &written {
            if *all_new && store.contains(object.id) {
                checked += 1;
                assert_eq!(
                    store.get_blob(object).unwrap().as_ref(),
                    &blob[..],
                    "a manifest survived without its chunks (crash after {crash_after} blobs)"
                );
            }
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&base);
    }
    assert!(
        checked > 0,
        "no manifest ever survived: the sweep checked nothing"
    );
}
