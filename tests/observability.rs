//! Telemetry stays strictly outside the determinism observables.
//!
//! The repo's core invariant is that reports, ledgers, and served bytes
//! are identical at any worker count. This suite extends that invariant
//! over the new `mlcask_obs` layer: the full served script must be
//! byte-identical with span tracing on or off, at any flight-recorder
//! capacity, at workers {1, 2, 8} — and the observability RPCs
//! (`metrics.scrape`, `obs.spans`, `obs.slow`) must expose the telemetry
//! without perturbing a single served byte.

mod common;

use common::{serve, Client};
use mlcask_obs::{trace, MetricsRegistry};
use mlcask_server::service::Router;
use serde::Value;

fn rpc(router: &Router, method: &str, params: &str) -> String {
    let line = format!(r#"{{"id":0,"method":"{method}","params":{params}}}"#);
    let resp = router.handle_text(&line);
    assert!(!resp.contains(r#""error""#), "rpc {method} failed: {resp}");
    resp
}

fn result_of(line: &str) -> Value {
    let v: Value = serde_json::from_str(line).expect("response parses");
    serde::map_get(v.as_map().expect("response is an object"), "result")
        .cloned()
        .expect("response has a result")
}

/// The full served script — sessions, commits, grant/fork, a cross-tenant
/// merge that searches, log, usages — in the step language of
/// [`Client`].
const SCRIPT: [&str; 12] = [
    "upstream open unlimited",
    "downstream open unlimited",
    "upstream commit master 0 0 0",
    "upstream grant downstream merge_into",
    "downstream fork upstream master feature",
    "upstream commit master 0 0 1",
    "downstream commit feature 0 1 0",
    "downstream merge.into upstream master feature",
    "upstream log master 50",
    "upstream usage",
    "downstream usage",
    "workspace.usage",
];

/// [`SCRIPT`]'s response lines, concatenated (the determinism observation).
fn served_script(workers: usize) -> String {
    let mut client = Client::new(serve(workers, None).0);
    let served: Vec<String> = SCRIPT.iter().map(|step| client.send(step)).collect();
    assert!(
        served.iter().all(|reply| !reply.contains(r#""error""#)),
        "{served:?}"
    );
    served.join("\n")
}

/// The tentpole's hard constraint, as one sweep: tracing {off, on} ×
/// recorder capacity {0, 64, 4096} × workers {1, 2, 8} must serve
/// byte-identical scripts. Afterwards (tracing on) the obs RPCs must see
/// the spans the sweep recorded.
///
/// One test (not several) because the flight recorder is process-global:
/// sequential cells can't race another test's `configure`.
#[test]
fn served_bytes_identical_across_tracing_and_capacity() {
    let rec = trace::recorder();
    let (restore_enabled, restore_capacity) = (rec.is_enabled(), rec.capacity());
    let mut reference: Option<String> = None;
    for enabled in [false, true] {
        for capacity in [0usize, 64, 4096] {
            rec.configure(enabled, capacity);
            for workers in [1usize, 2, 8] {
                let obs = served_script(workers);
                match &reference {
                    None => reference = Some(obs),
                    Some(r) => assert_eq!(
                        &obs, r,
                        "served bytes diverged: tracing={enabled} capacity={capacity} workers={workers}"
                    ),
                }
            }
            if enabled && capacity > 0 {
                assert!(
                    !rec.recent(16).is_empty(),
                    "tracing-on cells must retain spans (capacity={capacity})"
                );
            }
            if enabled && capacity == 0 {
                assert!(
                    rec.recent(16).is_empty(),
                    "capacity 0 must retain nothing (seq still advances)"
                );
            }
        }
    }

    // With spans retained from the last (enabled, 4096) cell, the obs RPCs
    // expose them — through the same daemon surface the sweep measured.
    let r = serve(1, None).0;
    let spans = result_of(&rpc(&r, "obs.spans", r#"{"n":32}"#));
    let m = spans.as_map().expect("obs.spans returns an object");
    assert_eq!(serde::map_get(m, "enabled"), Some(&Value::Bool(true)));
    let listed = serde::map_get(m, "spans")
        .and_then(|s| s.as_seq())
        .expect("spans field is an array");
    assert!(!listed.is_empty(), "recent spans are exposed");
    for span in listed {
        let sm = span.as_map().expect("span is an object");
        for field in ["seq", "name", "thread", "end_unix_micros", "duration_nanos"] {
            assert!(serde::map_get(sm, field).is_some(), "span has `{field}`");
        }
    }
    let slow = result_of(&rpc(&r, "obs.slow", r#"{"n":3}"#));
    let slow = slow.as_seq().expect("obs.slow returns an array");
    assert!(slow.len() <= 3, "obs.slow honours n");
    // Slowest-first ordering.
    let dur = |v: &Value| -> u64 {
        match serde::map_get(v.as_map().unwrap(), "duration_nanos") {
            Some(Value::U64(n)) => *n,
            other => panic!("duration_nanos: {other:?}"),
        }
    };
    for pair in slow.windows(2) {
        assert!(dur(&pair[0]) >= dur(&pair[1]), "obs.slow sorts descending");
    }

    rec.configure(restore_enabled, restore_capacity);
}

/// `metrics.scrape` over the daemon surface returns a Prometheus text
/// exposition carrying the per-method/per-tenant request series the serving
/// instrumentation records.
#[test]
fn metrics_scrape_exposes_request_series() {
    // Over a cask with the blob cache on, so the scrape also carries the
    // storage layer's series.
    let dir = std::env::temp_dir().join(format!("mlcask-obs-scrape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let r = serve(1, Some(&dir)).0;
    rpc(&r, "session.open", r#"{"tenant":"scrape_tenant"}"#);
    // Find this router's session id (the registry is global; other tests
    // may have opened sessions first).
    let info = result_of(&rpc(&r, "server.info", "{}"));
    assert!(serde::map_get(info.as_map().unwrap(), "open_sessions").is_some());
    let text = match result_of(&rpc(&r, "metrics.scrape", "{}")) {
        Value::Str(s) => s,
        other => panic!("scrape returns text: {other:?}"),
    };
    for needle in [
        "# TYPE mlcask_server_request_seconds histogram",
        "# TYPE mlcask_server_requests_total counter",
        r#"method="session.open""#,
        "mlcask_server_request_seconds_bucket",
        "mlcask_server_request_seconds_sum",
        "mlcask_server_request_seconds_count",
        "mlcask_cask_fsync_seconds",
        "mlcask_graph_append_ops_total",
        "mlcask_blob_cache_hit_rate",
    ] {
        assert!(text.contains(needle), "scrape missing `{needle}`:\n{text}");
    }
    // The session-scoped request recorded under its tenant label. (The
    // `usage` call below lands after this scrape; scrape again to see it.)
    rpc(&r, "usage", r#"{"session":1}"#);
    let text = match result_of(&rpc(&r, "metrics.scrape", "{}")) {
        Value::Str(s) => s,
        other => panic!("scrape returns text: {other:?}"),
    };
    assert!(
        text.contains(r#"tenant="scrape_tenant""#),
        "per-tenant series missing:\n{text}"
    );
    drop(r);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `method` label takes only the names the router serves: a client that
/// makes up a method name per request lands every one of them in the single
/// `unknown` series instead of minting a histogram and a counter each time.
/// (Counted under a tenant label of this test's own: the registry is global
/// and other tests run beside this one.)
#[test]
fn made_up_method_names_share_one_request_series() {
    let r = serve(1, None).0;
    let opened = result_of(&rpc(&r, "session.open", r#"{"tenant":"made_up_methods"}"#));
    let session = match serde::map_get(opened.as_map().unwrap(), "session") {
        Some(Value::U64(id)) => *id,
        other => panic!("session id: {other:?}"),
    };
    let call = |method: &str| {
        r.handle_text(&format!(
            r#"{{"id":0,"method":"{method}","params":{{"session":{session}}}}}"#
        ))
    };
    let mine = || -> Vec<(String, f64)> {
        let all = MetricsRegistry::global().snapshot();
        let of_tenant = all
            .into_iter()
            .filter(|(name, _)| name.contains(r#"tenant="made_up_methods""#));
        of_tenant.collect()
    };
    assert!(call("x0").contains("unknown method `x0`"));
    let after_first = mine().len();
    for n in 1..1_000 {
        assert!(call(&format!("x{n}")).contains("unknown method"));
    }
    let series = mine();
    assert_eq!(series.len(), after_first, "{series:?}");
    let counted = series.iter().find(|(name, _)| {
        name.starts_with("mlcask_server_requests_total{")
            && name.contains(r#"method="unknown""#)
            && name.contains(r#"outcome="error""#)
    });
    assert_eq!(counted.map(|(_, n)| *n), Some(1_000.0), "{series:?}");
    // Served methods keep their own names, asked for repeatedly or not.
    for _ in 0..3 {
        assert!(call("usage").contains("result"));
    }
    let series = mine();
    let usage = series.iter().find(|(name, _)| {
        name.starts_with("mlcask_server_requests_total{") && name.contains(r#"method="usage""#)
    });
    assert_eq!(usage.map(|(_, n)| *n), Some(3.0), "{series:?}");
    assert!(!series.iter().any(|(name, _)| name.contains(r#"method="x"#)));
}

/// The decoded-checkpoint cache reports through the same scrape: a script
/// whose later commits and merge reuse checkpoints this process made moves
/// its hit counter and leaves artifacts resident. (Sums over instances, and
/// only "grew": the registry is global and other tests run beside this one.)
#[test]
fn artifact_cache_series_move_on_checkpoint_reuse() {
    let scraper = serve(1, None).0;
    let scrape_sum = |family: &str| -> f64 {
        let text = match result_of(&rpc(&scraper, "metrics.scrape", "{}")) {
            Value::Str(s) => s,
            other => panic!("scrape returns text: {other:?}"),
        };
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "scrape missing `{family}`"
        );
        text.lines()
            .filter(|l| l.starts_with(&format!("{family}{{")))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum()
    };
    let hits_before = scrape_sum("mlcask_artifact_cache_hits_total");
    served_script(1);
    assert!(scrape_sum("mlcask_artifact_cache_hits_total") > hits_before);
    assert!(scrape_sum("mlcask_artifact_cache_resident_bytes") > 0.0);
    // Registered even while idle: nothing here misses or evicts.
    scrape_sum("mlcask_artifact_cache_misses_total");
    scrape_sum("mlcask_artifact_cache_evictions_total");
}

/// Golden scrape: exact Prometheus text for a hand-built (local, not
/// global) registry — families sorted by name, series by label set,
/// cumulative buckets with `+Inf`, and label values escaped.
#[test]
fn prometheus_rendering_matches_golden() {
    let reg = MetricsRegistry::new();
    reg.counter(
        "t_requests_total",
        "Requests served",
        &[("tenant", "a\"b\\c\nd"), ("method", "log")],
    )
    .add(3);
    reg.gauge("t_hit_rate", "Hit rate", &[]).set(0.5);
    let h = reg.histogram(
        "t_lat_seconds",
        "Latency",
        &[("stage", "merge")],
        &[0.3, 1.0],
    );
    h.observe(0.25);
    h.observe(0.5);
    h.observe(4.0);
    let golden = "# HELP t_hit_rate Hit rate\n\
                  # TYPE t_hit_rate gauge\n\
                  t_hit_rate 0.5\n\
                  # HELP t_lat_seconds Latency\n\
                  # TYPE t_lat_seconds histogram\n\
                  t_lat_seconds_bucket{stage=\"merge\",le=\"0.3\"} 1\n\
                  t_lat_seconds_bucket{stage=\"merge\",le=\"1\"} 2\n\
                  t_lat_seconds_bucket{stage=\"merge\",le=\"+Inf\"} 3\n\
                  t_lat_seconds_sum{stage=\"merge\"} 4.75\n\
                  t_lat_seconds_count{stage=\"merge\"} 3\n\
                  # HELP t_requests_total Requests served\n\
                  # TYPE t_requests_total counter\n\
                  t_requests_total{method=\"log\",tenant=\"a\\\"b\\\\c\\nd\"} 3\n";
    assert_eq!(reg.render_prometheus(), golden);
}

/// Registry-backed storage counters keep their pre-registry accessor
/// semantics: two backends in one process count independently.
#[test]
fn per_instance_counters_stay_independent() {
    let a = tempdir("obs-cask-a");
    let b = tempdir("obs-cask-b");
    let ba = mlcask_storage::cask::CaskBackend::open(&a).expect("cask backend opens");
    let bb = mlcask_storage::cask::CaskBackend::open(&b).expect("cask backend opens");
    use mlcask_storage::backend::StorageBackend;
    ba.put(mlcask_storage::hash::Hash256::of(b"a"), b"a")
        .unwrap();
    ba.flush().unwrap();
    assert!(ba.append_count() >= 1);
    assert_eq!(bb.append_count(), 0, "instances must not share series");
    drop(ba);
    drop(bb);
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mlcask-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
