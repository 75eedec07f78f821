//! Serving-path integration: concurrent reader sessions against the
//! JSON-RPC router while a cross-tenant merge runs live, plus byte
//! determinism of the full served script across worker counts.
//!
//! These tests drive the daemon surface (`mlcask_server::service::Router`)
//! rather than the library API: every assertion is over response *lines*,
//! so the protocol encoding, the session machinery, and the snapshot-
//! isolated read path are all in the loop.

use mlcask_core::testkit::{toy_model, toy_scaler, toy_slots, toy_source};
use mlcask_core::workspace::Workspace;
use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_pipeline::semver::SemVer;
use mlcask_server::limits::AdmissionControl;
use mlcask_server::service::{Router, ServerOptions};
use mlcask_workloads::common::Workload;
use serde::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// A three-stage toy workload (source → scaler → model) cheap enough to
/// merge in debug builds, with one head update and one dev update so the
/// cross-tenant merge runs a real (non-fast-forward) search.
fn toy_workload() -> Workload {
    let source = toy_source(SemVer::master(0, 0), 4, 32);
    let scalers = vec![
        toy_scaler(SemVer::master(0, 0), 4, 4, 1.0),
        toy_scaler(SemVer::master(0, 1), 4, 4, 1.5),
    ];
    let models = vec![
        toy_model(SemVer::master(0, 0), 4, 0.6),
        toy_model(SemVer::master(0, 1), 4, 0.8),
    ];
    let initial = vec![source.key(), scalers[0].key(), models[0].key()];
    let head_updates = vec![vec![source.key(), scalers[0].key(), models[1].key()]];
    let dev_updates = vec![vec![source.key(), scalers[1].key(), models[0].key()]];
    let chains = vec![
        vec![source.key()],
        scalers.iter().map(|h| h.key()).collect(),
        models.iter().map(|h| h.key()).collect(),
    ];
    let incompat_update = (1, scalers[1].key());
    let mut handles = vec![source];
    handles.extend(scalers);
    handles.extend(models);
    Workload {
        name: "serving_toy".to_string(),
        slots: toy_slots().into_iter().map(String::from).collect(),
        handles,
        initial,
        chains,
        model_slot: 2,
        incompat_update,
        head_updates,
        dev_updates,
        edges: vec![],
    }
}

fn options(workers: usize) -> ServerOptions {
    ServerOptions {
        parallelism: if workers <= 1 {
            ParallelismPolicy::Sequential
        } else {
            ParallelismPolicy::Parallel(workers)
        },
        coarse_lock: false,
        admission: AdmissionControl::unlimited(),
    }
}

fn router(workers: usize) -> Router {
    Router::in_memory(toy_workload(), options(workers))
}

/// Issues one request and asserts the response carries no error.
fn rpc(router: &Router, method: &str, params: &str) -> String {
    let line = format!(r#"{{"id":0,"method":"{method}","params":{params}}}"#);
    let resp = router.handle_text(&line);
    assert!(!resp.contains(r#""error""#), "rpc {method} failed: {resp}");
    resp
}

/// `result` field of a response line.
fn result_of(line: &str) -> Value {
    let v: Value = serde_json::from_str(line).expect("response parses");
    serde::map_get(v.as_map().expect("response is an object"), "result")
        .cloned()
        .expect("response has a result")
}

fn str_field(v: &Value, key: &str) -> String {
    match serde::map_get(v.as_map().unwrap(), key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("field {key}: {other:?}"),
    }
}

fn u64_field(v: &Value, key: &str) -> u64 {
    match serde::map_get(v.as_map().unwrap(), key) {
        Some(Value::U64(n)) => *n,
        other => panic!("field {key}: {other:?}"),
    }
}

/// Upstream (session 1) commits its history, grants downstream
/// (session 2), which forks `feature` and diverges — the point where a
/// non-fast-forward merge back into `upstream/master` is pending.
fn setup_collaboration(r: &Router, w: &Workload) -> Vec<String> {
    let spec = |keys: &[mlcask_pipeline::component::ComponentKey]| -> String {
        let items: Vec<String> = keys
            .iter()
            .map(|k| format!(r#""{}@{}""#, k.name, k.version))
            .collect();
        format!("[{}]", items.join(","))
    };
    let mut out = Vec::new();
    out.push(rpc(r, "session.open", r#"{"tenant":"upstream"}"#));
    out.push(rpc(r, "session.open", r#"{"tenant":"downstream"}"#));
    out.push(rpc(
        r,
        "commit",
        &format!(
            r#"{{"session":1,"branch":"master","components":{},"message":"initial"}}"#,
            spec(&w.initial)
        ),
    ));
    out.push(rpc(
        r,
        "grant",
        r#"{"session":1,"peer":"downstream","right":"merge_into"}"#,
    ));
    out.push(rpc(
        r,
        "fork",
        r#"{"session":2,"peer":"upstream","branch":"master","new_branch":"feature"}"#,
    ));
    for (i, keys) in w.head_updates.iter().enumerate() {
        out.push(rpc(
            r,
            "commit",
            &format!(
                r#"{{"session":1,"branch":"master","components":{},"message":"head {i}"}}"#,
                spec(keys)
            ),
        ));
    }
    for (i, keys) in w.dev_updates.iter().enumerate() {
        out.push(rpc(
            r,
            "commit",
            &format!(
                r#"{{"session":2,"branch":"feature","components":{},"message":"dev {i}"}}"#,
                spec(keys)
            ),
        ));
    }
    out
}

const MERGE: &str = r#"{"session":2,"peer":"upstream","peer_branch":"master","merging":"feature","strategy":"full"}"#;

/// Asserts one `log` response is an untorn lineage: entries linked by
/// first parent, sequence numbers strictly descending to the root.
fn assert_consistent_lineage(log: &Value) {
    let entries = log.as_seq().expect("log is an array");
    assert!(!entries.is_empty(), "log never comes back empty");
    for pair in entries.windows(2) {
        let parents = serde::map_get(pair[0].as_map().unwrap(), "parents")
            .and_then(|p| p.as_seq())
            .expect("commit has parents");
        let first_parent = match &parents[0] {
            Value::Str(id) => id.clone(),
            other => panic!("parent id: {other:?}"),
        };
        assert_eq!(
            first_parent,
            str_field(&pair[1], "id"),
            "log entries must chain by first parent"
        );
        assert_eq!(
            u64_field(&pair[0], "seq"),
            u64_field(&pair[1], "seq") + 1,
            "first-parent walk descends one seq per step"
        );
    }
    let last = entries.last().unwrap();
    assert_eq!(u64_field(last, "seq"), 0, "walk reaches the branch root");
}

/// N reader sessions walk `upstream/master` (log + head + branches +
/// usage) while downstream's full merge search runs. Every response each
/// reader sees must be internally consistent — a torn branch→commit read
/// would either error or break the first-parent chain.
#[test]
fn readers_never_tear_under_live_merge() {
    const READERS: usize = 6;
    let r = Arc::new(router(1));
    let w = toy_workload();
    setup_collaboration(&r, &w);
    for _ in 0..READERS {
        rpc(&r, "session.open", r#"{"tenant":"upstream"}"#);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(READERS + 1));
    let mut handles = Vec::new();
    for i in 0..READERS {
        let r = Arc::clone(&r);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let session = 3 + i as u64;
        handles.push(std::thread::spawn(move || {
            let mut walks = 0u64;
            barrier.wait();
            // Every reader walks at least once: the merge may finish
            // before a reader is first scheduled.
            loop {
                let log = result_of(&rpc(
                    &r,
                    "log",
                    &format!(r#"{{"session":{session},"branch":"master","limit":50}}"#),
                ));
                assert_consistent_lineage(&log);
                let head = result_of(&rpc(
                    &r,
                    "head",
                    &format!(r#"{{"session":{session},"branch":"master"}}"#),
                ));
                assert_eq!(str_field(&head, "branch"), "upstream/master");
                rpc(&r, "branches", &format!(r#"{{"session":{session}}}"#));
                rpc(&r, "usage", &format!(r#"{{"session":{session}}}"#));
                walks += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            walks
        }));
    }
    barrier.wait();
    let merged = result_of(&rpc(&r, "merge.into", MERGE));
    stop.store(true, Ordering::Relaxed);
    let walks: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(walks >= READERS as u64, "every reader walked");
    assert_eq!(
        serde::map_get(merged.as_map().unwrap(), "committed"),
        Some(&Value::Bool(true)),
        "live merge commits"
    );
    // After the merge lands, a fresh walk sees it at the head with both
    // parents, still a consistent lineage.
    let log = result_of(&rpc(
        &r,
        "log",
        r#"{"session":3,"branch":"master","limit":50}"#,
    ));
    assert_consistent_lineage(&log);
    let head = &log.as_seq().unwrap()[0];
    let parents = serde::map_get(head.as_map().unwrap(), "parents")
        .and_then(|p| p.as_seq())
        .unwrap();
    assert_eq!(parents.len(), 2, "head is the merge commit");
}

/// The complete served script — setup, merge, log, usages — must produce
/// byte-identical response lines at workers {1, 2, 8}, from memory and from
/// a cask: parallel merge search and the durable store change wall-clock
/// only, never a served byte.
#[test]
fn served_bytes_identical_across_worker_counts() {
    let run = |r: Router| -> Vec<String> {
        let w = toy_workload();
        let mut out = setup_collaboration(&r, &w);
        out.push(rpc(&r, "merge.into", MERGE));
        out.push(rpc(
            &r,
            "log",
            r#"{"session":1,"branch":"master","limit":50}"#,
        ));
        out.push(rpc(&r, "usage", r#"{"session":1}"#));
        out.push(rpc(&r, "usage", r#"{"session":2}"#));
        out.push(rpc(&r, "workspace.usage", "{}"));
        out
    };
    let dir = std::env::temp_dir().join(format!("mlcask-served-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let on_cask = |workers: usize| {
        let ws = Workspace::durable(dir.join(workers.to_string())).unwrap();
        Router::over(ws, toy_workload(), options(workers))
    };
    let reference = run(router(1));
    for (store, workers, r) in [
        ("memory", 2, router(2)),
        ("memory", 8, router(8)),
        ("a cask", 1, on_cask(1)),
        ("a cask", 2, on_cask(2)),
        ("a cask", 8, on_cask(8)),
    ] {
        assert_eq!(
            run(r),
            reference,
            "served bytes diverged on {store} at {workers} workers"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
