//! Persistence integration: the storage substrate against the durable
//! on-disk cask backend, including artifact recovery after reopening the
//! store — the durability property a deployed MLCask relies on.

use mlcask::prelude::*;
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    // Pid + per-call counter: pid alone collides when one test process asks
    // for two directories under the same tag (or a test reuses a tag).
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "mlcask-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run a pipeline against the append-only cask backend with its
/// asynchronous writer thread, let the "process" exit, and reopen: `flush`
/// drains the queue, and a fresh `CaskBackend::open` recovers
/// every artifact.
#[test]
fn pipeline_artifacts_survive_cask_reopen() {
    let dir = temp_dir("cask-reopen");
    let workload = by_name("autolearn").unwrap();
    let handle_for = |key: &ComponentKey| {
        workload
            .handles
            .iter()
            .find(|h| &h.key() == key)
            .unwrap()
            .clone()
    };

    let (refs, ids) = {
        let store = ChunkStore::new(
            Arc::new(CaskBackend::open(&dir).unwrap()),
            ChunkParams::DEFAULT,
            StorageCostModel::FORKBASE,
        );
        let dag = Arc::new(workload.dag());
        let components = workload.initial.iter().map(&handle_for).collect();
        let bound = BoundPipeline::new(dag, components).unwrap();
        let report = Executor::new(&store)
            .run(&bound, None, Policy::RERUN_ALL)
            .unwrap();
        assert!(report.outcome.is_completed());
        store.flush().unwrap();
        let refs: Vec<_> = report.stages.iter().map(|s| s.output).collect();
        let ids: Vec<_> = report.stages.iter().map(|s| s.artifact_id).collect();
        (refs, ids)
    };

    let store = ChunkStore::new(
        Arc::new(CaskBackend::open(&dir).unwrap()),
        ChunkParams::DEFAULT,
        StorageCostModel::FORKBASE,
    );
    for (r, id) in refs.iter().zip(&ids) {
        let bytes = store.get_blob(r).unwrap();
        let artifact = mlcask::pipeline::artifact::Artifact::from_bytes(&bytes).unwrap();
        assert_eq!(&artifact.content_id(), id, "artifact recovered bit-exact");
    }
    // The final model artifact still carries its score.
    let bytes = store.get_blob(refs.last().unwrap()).unwrap();
    let model = mlcask::pipeline::artifact::Artifact::from_bytes(&bytes).unwrap();
    assert!(model.score().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `Workspace::durable` + `Workspace::flush`: blobs written through a
/// durable workspace survive reopening the same directory.
#[test]
fn durable_workspace_reopens_with_contents() {
    let dir = temp_dir("cask-ws");
    let payload = mlcask::core::registry::simulated_executable("lib", "0.0", 64 * 1024);
    let obj = {
        let ws = Workspace::durable(&dir).unwrap();
        let put = ws.store().put_blob(ObjectKind::Library, &payload).unwrap();
        ws.flush().unwrap();
        put.object
    };
    let ws = Workspace::durable(&dir).unwrap();
    assert_eq!(ws.store().get_blob(&obj).unwrap().as_ref(), &payload[..]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_writes_are_free_on_disk_too() {
    let dir = temp_dir("dedup");
    let store = ChunkStore::new(
        Arc::new(CaskBackend::open(&dir).unwrap()),
        ChunkParams::DEFAULT,
        StorageCostModel::FORKBASE,
    );
    let payload = mlcask::core::registry::simulated_executable("lib", "0.0", 256 * 1024);
    let first = store.put_blob(ObjectKind::Library, &payload).unwrap();
    let physical_after_first = store.physical_bytes();
    let second = store.put_blob(ObjectKind::Library, &payload).unwrap();
    assert_eq!(first.object, second.object);
    assert_eq!(second.physical_bytes, 0);
    assert_eq!(store.physical_bytes(), physical_after_first);
    // A new version shares the base region: small physical delta.
    let v2 = mlcask::core::registry::simulated_executable("lib", "0.1", 256 * 1024);
    let third = store.put_blob(ObjectKind::Library, &v2).unwrap();
    assert!(
        third.physical_bytes < first.physical_bytes / 4,
        "consecutive versions must dedup on disk: {} vs {}",
        third.physical_bytes,
        first.physical_bytes
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
