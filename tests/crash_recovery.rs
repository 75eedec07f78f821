//! Crash-recovery matrix: kill the storage backend at every k-th write,
//! reopen, recover, and assert the **resumed** run is byte-identical to an
//! uninterrupted one-worker run — report (its clock included), store
//! statistics, and physical bytes — at worker counts {1, 2, 8}, on both
//! the durable [`CaskBackend`] (fault-injected torn/dropped writes, real
//! reopen) and an in-memory store behind the trait-level [`FaultBackend`].
//!
//! Protocol under test (see `mlcask_pipeline::resume`): completed
//! operations are journaled to a [`ResumeLog`]; recovery validates each
//! journaled operation against the blobs that actually survived, sweeps
//! unjournaled leftovers, and an [`Executor::resuming`] run adopts the
//! validated operations without re-executing them. Crashed attempts run at
//! one worker (nodes execute inline in canonical order), so the journal
//! always holds a canonical prefix of the run; the *resumed* attempt is
//! exercised at every worker count.

use mlcask::core::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
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

/// The diamond fusion workload — real DAG width, so the resumed attempt's
/// parallel wavefront genuinely fans out.
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
    resume: &ResumeCtx<'_>,
) -> PipelineResult<RunReport> {
    Executor::new(store).resuming(resume).run(
        pipeline,
        None,
        Policy::RERUN_ALL.with_parallelism(policy),
    )
}

/// Every observable the determinism contract covers.
fn observe(report: &RunReport, store: &ChunkStore) -> String {
    format!(
        "report={} stats={} physical={}",
        serde_json::to_string(report).unwrap(),
        serde_json::to_string(&store.stats()).unwrap(),
        store.physical_bytes(),
    )
}

/// Uninterrupted one-worker run on a fresh in-memory store — the reference
/// every crashed-and-resumed run must reproduce byte-for-byte.
fn reference(pipeline: &BoundPipeline, params: ChunkParams) -> String {
    let store = ChunkStore::new(
        Arc::new(MemBackend::new()),
        params,
        StorageCostModel::FORKBASE,
    );
    let empty = ResumeSnapshot::empty();
    let ctx = ResumeCtx {
        snapshot: &empty,
        journal: None,
    };
    let report = run_once(pipeline, &store, ParallelismPolicy::Sequential, &ctx).unwrap();
    assert!(report.outcome.is_completed());
    observe(&report, &store)
}

/// Runs the pipeline once against a clean synchronous cask to learn the
/// total number of segment appends the workload issues.
fn cask_total_appends(pipeline: &BoundPipeline, params: ChunkParams) -> u64 {
    let base = temp_base("count");
    let be =
        Arc::new(CaskBackend::open_with(base.join("store"), CaskOptions::synchronous()).unwrap());
    let store = ChunkStore::new(be.clone(), params, StorageCostModel::FORKBASE);
    let empty = ResumeSnapshot::empty();
    let ctx = ResumeCtx {
        snapshot: &empty,
        journal: None,
    };
    run_once(pipeline, &store, ParallelismPolicy::Sequential, &ctx).unwrap();
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
/// attempt, reopen the directory (torn-tail truncation), recover from the
/// journal, and finish the run under `policy`. Returns the resumed run's
/// observables plus the recovery report and the journal size it validated.
fn crash_then_resume_cask(
    pipeline: &BoundPipeline,
    params: ChunkParams,
    k: u64,
    kind_sel: u64,
    policy: ParallelismPolicy,
) -> (String, RecoveryReport, usize) {
    let base = temp_base("cask");
    let root = base.join("store");
    let journal = base.join("resume.log");

    // Attempt 1: journaled one-worker run against the faulted backend.
    {
        let be = Arc::new(
            CaskBackend::open_with(
                &root,
                CaskOptions::synchronous().with_fault(fault_plan(k, kind_sel)),
            )
            .unwrap(),
        );
        let store = ChunkStore::new(be, params, StorageCostModel::FORKBASE);
        let (log, entries) = ResumeLog::open(&journal).unwrap();
        assert!(entries.is_empty(), "fresh journal");
        let empty = ResumeSnapshot::empty();
        let ctx = ResumeCtx {
            snapshot: &empty,
            journal: Some(&log),
        };
        // Crashes mid-run for every fault kind except `AfterWrite` on the
        // run's final append (the crash point then fires with nothing left
        // to write) — in that case the "resume" below adopts every node.
        let _ = run_once(pipeline, &store, ParallelismPolicy::Sequential, &ctx);
    }

    // Recovery: reopen both logs, validate, sweep, resume.
    let be = Arc::new(CaskBackend::open(&root).unwrap());
    let store = ChunkStore::new(be, params, StorageCostModel::FORKBASE);
    let (log, entries) = ResumeLog::open(&journal).unwrap();
    let journaled = entries.len();
    let (snap, rec) = ResumeSnapshot::recover(&store, entries, []).unwrap();
    let ctx = ResumeCtx {
        snapshot: &snap,
        journal: Some(&log),
    };
    let report = run_once(pipeline, &store, policy, &ctx).unwrap();
    assert!(report.outcome.is_completed());
    let obs = observe(&report, &store);
    let _ = std::fs::remove_dir_all(&base);
    (obs, rec, journaled)
}

const POLICIES: [ParallelismPolicy; 3] = [
    ParallelismPolicy::Sequential,
    ParallelismPolicy::Parallel(2),
    ParallelismPolicy::Parallel(8),
];

#[test]
fn cask_crash_at_every_append_resumes_byte_identical() {
    let pipeline = bound_toy();
    let expected = reference(&pipeline, ChunkParams::SMALL);
    let total = cask_total_appends(&pipeline, ChunkParams::SMALL);
    assert!(total > 8, "toy chain must issue enough writes to matter");

    let (mut adopted_any, mut discarded_any) = (false, false);
    for k in 1..=total {
        // Rotate fault kind and resumed worker count so every append gets
        // killed under some combination while the matrix stays affordable.
        let policy = POLICIES[(k % 3) as usize];
        let (obs, rec, journaled) =
            crash_then_resume_cask(&pipeline, ChunkParams::SMALL, k, k / 3, policy);
        assert_eq!(
            rec.recovered_operations + rec.discarded_operations,
            journaled,
            "every journaled operation is either adopted or discarded (k={k})"
        );
        adopted_any |= rec.recovered_operations > 0;
        discarded_any |= rec.discarded_operations > 0;
        assert_eq!(
            obs, expected,
            "resumed run diverged after crash at append {k} ({policy:?})"
        );
    }
    assert!(
        adopted_any,
        "matrix never exercised adoption — journal validation is vacuous"
    );
    // Dropped page cache: an operation journaled while its blob sat unsynced
    // must be discarded on recovery, not adopted.
    assert!(
        discarded_any,
        "matrix never lost a journaled operation's blob — the discard path is untested"
    );
}

/// `FaultPlan`'s promise — the same plan against the same write sequence
/// tears the same record at the same byte — checked on the files: the toy
/// chain run twice on a synchronous cask under one plan leaves every
/// `shard-*.log` byte-identical, for every fault kind at several k.
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
            let empty = ResumeSnapshot::empty();
            let ctx = ResumeCtx {
                snapshot: &empty,
                journal: None,
            };
            let run = run_once(&pipeline, &store, ParallelismPolicy::Sequential, &ctx);
            assert!(run.is_err(), "{plan:?} fires");
        }
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.starts_with("shard-"))
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
                assert_eq!(first.len(), 8, "every shard file is there");
                assert!(first == segments(plan), "{plan:?} replayed differently");
            }
        }
    }
}

#[test]
fn fusion_diamond_crash_resume_all_worker_counts() {
    let pipeline = bound_fusion();
    let expected = reference(&pipeline, ChunkParams::DEFAULT);
    let total = cask_total_appends(&pipeline, ChunkParams::DEFAULT);
    assert!(total > 4);

    for (i, k) in [1, total / 3, 2 * total / 3, total].into_iter().enumerate() {
        let k = k.max(1);
        for policy in POLICIES {
            let (obs, _, _) =
                crash_then_resume_cask(&pipeline, ChunkParams::DEFAULT, k, i as u64, policy);
            assert_eq!(
                obs, expected,
                "fusion resume diverged after crash at append {k} ({policy:?})"
            );
        }
    }
}

/// One in-memory matrix cell: the trait-level [`FaultBackend`] fails the
/// p-th put, the "process" survives (journal in memory), the backend heals
/// (simulated reopen — `MemBackend` keeps every acknowledged put), and a
/// fresh store view over the healed backend recovers and resumes.
fn crash_then_resume_mem(
    pipeline: &BoundPipeline,
    p: u64,
    policy: ParallelismPolicy,
) -> (String, RecoveryReport) {
    let fb = Arc::new(FaultBackend::new(Arc::new(MemBackend::new()), p));
    let store = ChunkStore::new(fb.clone(), ChunkParams::SMALL, StorageCostModel::FORKBASE);
    let log = ResumeLog::in_memory();
    let empty = ResumeSnapshot::empty();
    let ctx = ResumeCtx {
        snapshot: &empty,
        journal: Some(&log),
    };
    let first = run_once(pipeline, &store, ParallelismPolicy::Sequential, &ctx);
    assert!(first.is_err(), "armed backend must fail the run (p={p})");
    assert!(fb.crashed());
    fb.heal();

    // Fresh store view: recovery accounting starts from zero, exactly as a
    // reopened process's would.
    let store = ChunkStore::new(fb.clone(), ChunkParams::SMALL, StorageCostModel::FORKBASE);
    let entries = log.entries().unwrap();
    let journaled = entries.len();
    let (snap, rec) = ResumeSnapshot::recover(&store, entries, []).unwrap();
    assert_eq!(
        rec.recovered_operations + rec.discarded_operations,
        journaled
    );
    let ctx = ResumeCtx {
        snapshot: &snap,
        journal: Some(&log),
    };
    let report = run_once(pipeline, &store, policy, &ctx).unwrap();
    assert!(report.outcome.is_completed());
    (observe(&report, &store), rec)
}

#[test]
fn mem_fault_crash_at_every_put_resumes_byte_identical() {
    let pipeline = bound_toy();
    let expected = reference(&pipeline, ChunkParams::SMALL);

    // Learn the workload's put count with a far-away crash point.
    let fb = Arc::new(FaultBackend::new(Arc::new(MemBackend::new()), u64::MAX));
    let store = ChunkStore::new(fb.clone(), ChunkParams::SMALL, StorageCostModel::FORKBASE);
    let empty = ResumeSnapshot::empty();
    let ctx = ResumeCtx {
        snapshot: &empty,
        journal: None,
    };
    run_once(&pipeline, &store, ParallelismPolicy::Sequential, &ctx).unwrap();
    let total = fb.puts();
    assert!(total > 8);

    let mut adopted_any = false;
    for p in 1..=total {
        let policy = POLICIES[(p % 3) as usize];
        let (obs, rec) = crash_then_resume_mem(&pipeline, p, policy);
        adopted_any |= rec.recovered_operations > 0;
        assert_eq!(
            obs, expected,
            "mem resume diverged after crash at put {p} ({policy:?})"
        );
    }
    assert!(adopted_any, "mem matrix never exercised adoption");
}

/// Group commit writes a whole batch as one contiguous segment write
/// followed by a single `sync_data`. If the machine dies mid-batch, only a
/// prefix of the concatenated frames reaches the disk; reopen must keep
/// every fully-written frame of the batch and truncate the torn one — the
/// per-append torn-tail protocol applied to a batched write.
///
/// Killing a live writer pool mid-batch is inherently racy, so the batch is
/// hand-crafted: three records framed exactly as the cask lays a batch out,
/// appended to the shard file with the last frame cut short.
#[test]
fn group_commit_torn_mid_batch_truncates_to_last_full_frame() {
    use mlcask::storage::backend::StorageBackend;
    use mlcask::storage::cask::{frame, FRAME_HEADER};
    use std::io::Write;

    let base = temp_base("torn-batch");
    let root = base.join("store");

    // A durable base object, flushed through a single-shard cask so the
    // crafted batch lands in a known file.
    let base_blob = vec![7u8; 96];
    let base_key = Hash256::of(&base_blob);
    {
        let be = CaskBackend::open_with(&root, CaskOptions::synchronous().with_shards(1)).unwrap();
        be.put(base_key, &base_blob).unwrap();
        be.flush().unwrap();
    }
    let path = root.join("shard-000.log");
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
/// the same run on a cask store (async writer pool *and* synchronous mode)
/// produces byte-identical observables, and every artifact survives a real
/// close-and-reopen of the directory.
#[test]
fn cask_uninterrupted_matches_mem_and_survives_reopen() {
    let pipeline = bound_toy();
    let expected = reference(&pipeline, ChunkParams::SMALL);

    for opts in [CaskOptions::default(), CaskOptions::synchronous()] {
        let base = temp_base("parity");
        let root = base.join("store");
        let be = Arc::new(CaskBackend::open_with(&root, opts).unwrap());
        let store = ChunkStore::new(be, ChunkParams::SMALL, StorageCostModel::FORKBASE);
        let empty = ResumeSnapshot::empty();
        let ctx = ResumeCtx {
            snapshot: &empty,
            journal: None,
        };
        let report = run_once(&pipeline, &store, ParallelismPolicy::Sequential, &ctx).unwrap();
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

/// Per-blob routing makes one state reachable that hash-prefix routing
/// never produced: a key live in two segments. A sweep's tombstone for K is
/// queued in one shard and lost in a crash while K, re-put by another blob,
/// became durable in another. Recovery counts K once — the lowest shard's
/// record stays live, the other is that shard's dead bytes — and
/// compaction reclaims exactly that one record.
#[test]
fn a_key_live_in_two_segments_is_counted_once_and_compacted_away() {
    use mlcask::storage::backend::StorageBackend;
    use mlcask::storage::cask::frame;

    let base = temp_base("dup-key");
    let root = base.join("store");
    // An empty two-shard directory: the manifest pins the shard count.
    drop(
        CaskBackend::open_with(
            &root,
            CaskOptions {
                shards: 2,
                ..CaskOptions::synchronous()
            },
        )
        .unwrap(),
    );
    let data = vec![42u8; 100];
    let key = Hash256::of(&data);
    let mut payload = vec![0u8]; // FLAG_PUT
    payload.extend_from_slice(&key.0);
    payload.extend_from_slice(&data);
    let record = frame(&payload);
    let shard = |s: usize| root.join(format!("shard-{s:03}.log"));
    for s in 0..2 {
        std::fs::write(shard(s), &record).unwrap();
    }
    let rec = record.len() as u64;

    let be = CaskBackend::open(&root).unwrap();
    assert_eq!(be.len(), 1);
    assert_eq!(be.physical_bytes(), data.len() as u64, "live bytes once");
    assert_eq!(be.get(key).unwrap().as_ref(), &data[..]);
    assert_eq!(be.dead_bytes(), rec, "the duplicate is dead");
    assert_eq!(be.compact().unwrap(), rec, "compaction reclaims one record");
    assert_eq!(
        std::fs::metadata(shard(0)).unwrap().len(),
        rec,
        "lowest kept"
    );
    assert_eq!(std::fs::metadata(shard(1)).unwrap().len(), 0);
    assert_eq!(be.get(key).unwrap().as_ref(), &data[..]);
    drop(be);

    let be = CaskBackend::open(&root).unwrap();
    assert_eq!((be.len(), be.physical_bytes()), (1, data.len() as u64));
    assert_eq!(be.dead_bytes(), 0);
    assert_eq!(be.get(key).unwrap().as_ref(), &data[..]);
    drop(be);
    let _ = std::fs::remove_dir_all(&base);
}

/// A blob is one durability unit in writer-pool mode: its new chunks and
/// its manifest are one group in one segment, landed by one write and one
/// `sync_data`. Crash the pool (`simulate_crash`: queued groups dropped,
/// unsynced bytes truncated) after every prefix of a run of blob writes;
/// after reopen, every blob whose chunks were all new and whose manifest
/// survived reads back byte-exact. With chunk and manifest in different
/// segments under independent fsyncs, a manifest could outlive its chunks.
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
            let be = Arc::new(
                CaskBackend::open_with(
                    &root,
                    CaskOptions {
                        shards: 8,
                        writer_threads: 2,
                        ..CaskOptions::default()
                    },
                )
                .unwrap(),
            );
            let store = ChunkStore::new(be.clone(), ChunkParams::SMALL, StorageCostModel::FORKBASE);
            for (i, blob) in blobs[..crash_after].iter().enumerate() {
                let (out, trace) = store.put_blob_traced(ObjectKind::Output, blob).unwrap();
                let all_new = trace.manifest.was_new && trace.chunks.iter().all(|c| c.was_new);
                written.push((out.object, blob, all_new));
                if i == 0 {
                    store.flush().unwrap(); // one blob always survives
                }
                // Let the pool land some of the rest before the crash.
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
