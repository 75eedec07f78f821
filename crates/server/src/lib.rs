//! Serving front-end for a shared MLCask workspace.
//!
//! A long-running daemon exposing session-scoped pipeline operations —
//! open/commit/log/merge/usage — as line-delimited JSON-RPC over stdio or
//! TCP, with admission control and per-tenant rate limiting layered over
//! the storage-level quotas.
//!
//! The crate exists to *serve reads while merges run*. The workspace's
//! commit graph publishes immutable snapshots at commit points
//! (`mlcask_storage::commit::GraphView`), so every read request resolves
//! against a frozen view without holding any lock across the reply; the
//! only coarse lock in this crate is the opt-in baseline mode caskbench
//! (`bench/`) still names.
//!
//! Module map:
//! * [`protocol`] — request reading, response writing and error codes;
//! * [`reply`] — the typed replies of the session-scoped methods;
//! * [`limits`] — admission control (session cap, in-flight cap,
//!   per-tenant token buckets);
//! * [`service`] — the [`Router`](service::Router): sessions, tenants,
//!   method dispatch;
//! * [`transport`] — stdio and TCP loops.

#![forbid(unsafe_code)]

pub mod limits;
pub mod protocol;
pub mod reply;
pub mod service;
pub mod transport;

/// Common re-exports.
pub mod prelude {
    pub use crate::limits::{AdmissionControl, RateLimit};
    pub use crate::protocol::{Failure, Request};
    pub use crate::service::{Router, ServerOptions};
    pub use crate::transport::{serve_stdio, serve_tcp};
}

#[cfg(test)]
mod tests {
    use crate::limits::AdmissionControl;
    use crate::service::{Router, ServerOptions};
    use mlcask_pipeline::parallel::ParallelismPolicy;
    use serde::Value;

    fn router(coarse: bool) -> Router {
        Router::in_memory(
            mlcask_workloads::readmission::build(),
            ServerOptions {
                parallelism: ParallelismPolicy::Sequential,
                coarse_lock: coarse,
                admission: AdmissionControl::unlimited(),
            },
        )
    }

    /// Extracts `result` from a response line, panicking on `error`.
    fn result_of(line: &str) -> Value {
        let v: Value = serde_json::from_str(line).unwrap();
        let m = v.as_map().unwrap();
        if let Some(err) = serde::map_get(m, "error") {
            panic!("unexpected error response: {err:?} in {line}");
        }
        serde::map_get(m, "result").cloned().unwrap()
    }

    fn u64_field(v: &Value, key: &str) -> u64 {
        match serde::map_get(v.as_map().unwrap(), key) {
            Some(Value::U64(n)) => *n,
            other => panic!("field {key}: {other:?}"),
        }
    }

    #[test]
    fn end_to_end_session_lifecycle() {
        let r = router(false);
        assert!(r
            .handle_text(r#"{"id":0,"method":"ping"}"#)
            .contains("pong"));

        let open = result_of(
            &r.handle_text(r#"{"id":1,"method":"session.open","params":{"tenant":"alpha"}}"#),
        );
        let sid = u64_field(&open, "session");
        assert_eq!(sid, 1);

        // Initial commit over the workload's starting pipeline.
        let commit = result_of(&r.handle_text(
            r#"{"id":2,"method":"commit","params":{"session":1,"branch":"master","components":["readmission_data@0.0","data_cleanse@0.0","feature_extract@0.0","cnn@0.0"],"message":"initial"}}"#,
        ));
        assert_eq!(
            serde::map_get(commit.as_map().unwrap(), "committed"),
            Some(&Value::Bool(true))
        );

        let branches =
            result_of(&r.handle_text(r#"{"id":3,"method":"branches","params":{"session":1}}"#));
        assert_eq!(branches, Value::Seq(vec![Value::Str("master".into())]));

        let log = result_of(
            &r.handle_text(r#"{"id":4,"method":"log","params":{"session":1,"branch":"master"}}"#),
        );
        assert_eq!(log.as_seq().unwrap().len(), 1);

        let usage =
            result_of(&r.handle_text(r#"{"id":5,"method":"usage","params":{"session":1}}"#));
        assert!(u64_field(&usage, "logical_bytes") > 0);

        assert!(r
            .handle_text(r#"{"id":6,"method":"session.close","params":{"session":1}}"#)
            .contains("true"));
        // Closed sessions are gone.
        assert!(r
            .handle_text(r#"{"id":7,"method":"log","params":{"session":1,"branch":"master"}}"#)
            .contains("no such session"));
    }

    #[test]
    fn unknown_method_and_bad_params() {
        let r = router(false);
        r.handle_text(r#"{"id":1,"method":"session.open","params":{"tenant":"a"}}"#);
        assert!(r
            .handle_text(r#"{"id":2,"method":"frobnicate","params":{"session":1}}"#)
            .contains("-32601"));
        assert!(r
            .handle_text(r#"{"id":3,"method":"commit","params":{"session":1}}"#)
            .contains("-32602"));
        assert!(r
            .handle_text(
                r#"{"id":4,"method":"commit","params":{"session":1,"branch":"b","components":["nope"]}}"#
            )
            .contains("-32602"));
    }

    /// Lines no honest client sends: each gets a well-formed `-32700` reply,
    /// and the router goes on serving. (The first used to overflow the
    /// parser's stack and abort the daemon; the second wrapped a subtraction
    /// into a bogus character in release builds and panicked in debug ones.)
    #[test]
    fn hostile_json_gets_a_parse_error_and_the_router_keeps_serving() {
        let r = router(false);
        let hostile = [
            "[".repeat(200_000),
            r#"{"id":1,"method":"ping","params":"#.to_string() + &"{\"a\":".repeat(100_000),
            r#"{"id":1,"method":"\uD800A"}"#.to_string(),
            r#"{"id":"\uD800\u0041","method":"ping"}"#.to_string(),
        ];
        for line in &hostile {
            let reply: Value = serde_json::from_str(&r.handle_text(line)).unwrap();
            let m = reply.as_map().expect("reply is an object");
            assert_eq!(serde::map_get(m, "id"), Some(&Value::Null));
            let error = serde::map_get(m, "error").and_then(Value::as_map).unwrap();
            assert_eq!(
                serde::map_get(error, "code"),
                Some(&Value::I64(crate::protocol::PARSE_ERROR))
            );
            assert!(matches!(
                serde::map_get(error, "message"),
                Some(Value::Str(_))
            ));
            assert!(r
                .handle_text(r#"{"id":2,"method":"ping"}"#)
                .contains("pong"));
        }
    }

    #[test]
    fn session_cap_refuses_with_admission_code() {
        let r = Router::in_memory(
            mlcask_workloads::readmission::build(),
            ServerOptions {
                parallelism: ParallelismPolicy::Sequential,
                coarse_lock: false,
                admission: AdmissionControl {
                    max_sessions: Some(1),
                    ..AdmissionControl::default()
                },
            },
        );
        r.handle_text(r#"{"id":1,"method":"session.open","params":{"tenant":"a"}}"#);
        let refused = r.handle_text(r#"{"id":2,"method":"session.open","params":{"tenant":"b"}}"#);
        assert!(refused.contains("-32050"), "{refused}");
        // Closing frees the slot.
        r.handle_text(r#"{"id":3,"method":"session.close","params":{"session":1}}"#);
        let ok = r.handle_text(r#"{"id":4,"method":"session.open","params":{"tenant":"b"}}"#);
        assert!(ok.contains("result"), "{ok}");
    }

    #[test]
    fn coarse_and_snapshot_modes_serve_identical_bytes() {
        // The baseline differs only in lock discipline, never in results.
        let script = [
            r#"{"id":1,"method":"session.open","params":{"tenant":"team"}}"#,
            r#"{"id":2,"method":"commit","params":{"session":1,"branch":"master","components":["readmission_data@0.0","data_cleanse@0.0","feature_extract@0.0","cnn@0.0"],"message":"initial"}}"#,
            r#"{"id":3,"method":"branch","params":{"session":1,"from":"master","to":"dev"}}"#,
            r#"{"id":4,"method":"commit","params":{"session":1,"branch":"dev","components":["readmission_data@0.0","data_cleanse@0.1","feature_extract@0.0","cnn@0.0"],"message":"dev update"}}"#,
            r#"{"id":5,"method":"merge","params":{"session":1,"base":"master","merging":"dev"}}"#,
            r#"{"id":6,"method":"log","params":{"session":1,"branch":"master"}}"#,
            r#"{"id":7,"method":"usage","params":{"session":1}}"#,
        ];
        let run = |coarse: bool| -> Vec<String> {
            let r = router(coarse);
            script.iter().map(|line| r.handle_text(line)).collect()
        };
        assert_eq!(run(false), run(true));
    }

    /// A `session.open` whose quota refuses the tenant's join leaves no
    /// tenant behind: a retry with room succeeds, nobody is charged for
    /// the library the refused join archived (the sweep reclaims it), and
    /// the retry is charged what a first-time join is.
    #[test]
    fn a_refused_join_can_be_retried() {
        let r = router(false);
        let refused = r.handle_text(
            r#"{"id":1,"method":"session.open","params":{"tenant":"a","max_logical_bytes":1000000}}"#,
        );
        assert!(refused.contains("quota exceeded"), "{refused}");
        let ws = r.workspace();
        let accounts = ws.store().tenant_accounts();
        assert!(ws.tenant_names().is_empty());
        assert!(accounts.usages().is_empty());
        assert_eq!(accounts.open_reservations(), 0);
        let orphaned = ws.store().physical_bytes();
        assert_eq!(ws.sweep_orphans().unwrap().removed_bytes, orphaned);
        assert!(
            ws.usages().is_empty(),
            "no tenant is charged for swept bytes"
        );
        let open = r#"{"id":2,"method":"session.open","params":{"tenant":"a"}}"#;
        assert_eq!(u64_field(&result_of(&r.handle_text(open)), "session"), 1);
        let fresh = router(false);
        result_of(&fresh.handle_text(open));
        assert_eq!(ws.usages(), fresh.workspace().usages());
        assert_eq!(accounts.open_reservations(), 0);
    }

    #[test]
    fn cross_tenant_grant_fork_merge_via_rpc() {
        let r = router(false);
        r.handle_text(r#"{"id":1,"method":"session.open","params":{"tenant":"upstream"}}"#);
        r.handle_text(r#"{"id":2,"method":"session.open","params":{"tenant":"downstream"}}"#);
        result_of(&r.handle_text(
            r#"{"id":3,"method":"commit","params":{"session":1,"branch":"master","components":["readmission_data@0.0","data_cleanse@0.0","feature_extract@0.0","cnn@0.0"],"message":"initial"}}"#,
        ));
        result_of(&r.handle_text(
            r#"{"id":4,"method":"grant","params":{"session":1,"peer":"downstream","right":"merge_into"}}"#,
        ));
        result_of(&r.handle_text(
            r#"{"id":5,"method":"fork","params":{"session":2,"peer":"upstream","branch":"master","new_branch":"feature"}}"#,
        ));
        result_of(&r.handle_text(
            r#"{"id":6,"method":"commit","params":{"session":2,"branch":"feature","components":["readmission_data@0.0","data_cleanse@0.0","feature_extract@0.0","cnn@0.1"],"message":"feature"}}"#,
        ));
        let merged = result_of(&r.handle_text(
            r#"{"id":7,"method":"merge.into","params":{"session":2,"peer":"upstream","peer_branch":"master","merging":"feature"}}"#,
        ));
        assert_eq!(
            serde::map_get(merged.as_map().unwrap(), "committed"),
            Some(&Value::Bool(true))
        );
        // The workspace view shows both tenants.
        let usage = result_of(&r.handle_text(r#"{"id":8,"method":"workspace.usage"}"#));
        let names: Vec<&String> = usage.as_map().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["downstream", "upstream"]);
    }
}
