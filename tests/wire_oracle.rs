//! The wire oracle. The daemon serves a line through `Router::handle_text`,
//! which reads the request with a pull reader that borrows from the line
//! and writes the reply straight onto the response line; the pinned path —
//! `protocol::parse_request`, `Router::handle`, `serde_json::to_string` of
//! the tree — must say the same bytes. Checked here:
//!
//! * on a scripted two-tenant session that calls every served method and
//!   hits every error class, line by line, byte for byte;
//! * on arbitrary text and on mutations of the script's lines: the reader
//!   accepts exactly the lines the tree parser accepts, with the same `id`,
//!   `method` and params (and the same message where it refuses one), and
//!   every line gets one well-formed JSON-RPC reply — the served one equal
//!   to the pinned one.

use mlcask_pipeline::parallel::ParallelismPolicy;
use mlcask_server::limits::AdmissionControl;
use mlcask_server::protocol::{self, Failure, Params, Request};
use mlcask_server::service::{Router, ServerOptions};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::Value;
use std::collections::BTreeSet;
use std::sync::{Mutex, OnceLock};

/// A router allowing two open sessions, so a third `session.open` is refused.
fn router() -> Router {
    Router::in_memory(
        mlcask_workloads::readmission::build(),
        ServerOptions {
            parallelism: ParallelismPolicy::Sequential,
            coarse_lock: false,
            admission: AdmissionControl {
                max_sessions: Some(2),
                ..AdmissionControl::unlimited()
            },
        },
    )
}

/// The pinned path: the parsed request served as a tree, then rendered.
fn pinned(router: &Router, line: &str) -> String {
    let response = match protocol::parse_request(line) {
        Ok(req) => router.handle(&req),
        Err(failure) => protocol::error_response(&Value::Null, &failure),
    };
    serde_json::to_string(&response).unwrap()
}

/// Methods whose result is wall-clock telemetry of the whole process
/// (every request served so far, by anyone): two routers cannot answer them
/// with the same bytes, so only their shapes are compared.
const WALL_CLOCK: [&str; 3] = ["metrics.scrape", "obs.spans", "obs.slow"];

/// `v` with every number and string zeroed.
fn shape(v: &Value) -> Value {
    match v {
        Value::U64(_) | Value::I64(_) | Value::F64(_) => Value::U64(0),
        Value::Str(_) => Value::Str(String::new()),
        Value::Seq(items) => Value::Seq(items.iter().map(shape).collect()),
        Value::Map(pairs) => Value::Map(pairs.iter().map(|(k, v)| (k.clone(), shape(v))).collect()),
        other => other.clone(),
    }
}

fn method_of(line: &str) -> Option<String> {
    protocol::parse_request(line).ok().map(|req| req.method)
}

/// The served reply to `line` against the pinned one: equal bytes, or equal
/// shapes for [`WALL_CLOCK`] methods.
fn assert_served_as_pinned(served: &Router, reference: &Router, line: &str) -> String {
    let got = served.handle_text(line);
    let want = pinned(reference, line);
    match method_of(line) {
        Some(m) if WALL_CLOCK.contains(&m.as_str()) => {
            let (g, w): (Value, Value) = (
                serde_json::from_str(&got).unwrap(),
                serde_json::from_str(&want).unwrap(),
            );
            assert_eq!(shape(&g), shape(&w), "on {line}");
        }
        _ => assert_eq!(got, want, "on {line}"),
    }
    got
}

/// Checks that `reply` is one JSON-RPC response: an object holding `id` and
/// exactly one of `result` and `error {code, message}`. Returns the error
/// code, if any.
fn well_formed(reply: &str) -> Option<i64> {
    assert!(!reply.contains('\n'), "one line: {reply}");
    let v: Value = serde_json::from_str(reply).expect("a reply is JSON");
    let m = v.as_map().expect("a reply is an object");
    assert_eq!(m[0].0, "id", "{reply}");
    assert_eq!(m.len(), 2, "{reply}");
    match (m[1].0.as_str(), &m[1].1) {
        ("result", _) => None,
        ("error", Value::Map(error)) => {
            assert!(matches!(
                serde::map_get(error, "message"),
                Some(Value::Str(_))
            ));
            match serde::map_get(error, "code") {
                Some(Value::I64(code)) => Some(*code),
                other => panic!("error code {other:?} in {reply}"),
            }
        }
        other => panic!("neither result nor error: {other:?} in {reply}"),
    }
}

const PIPELINE: &str =
    r#"["readmission_data@0.0","data_cleanse@0.0","feature_extract@0.0","cnn@0.0"]"#;

/// A two-tenant session: every served method, then every error class.
fn script() -> Vec<String> {
    let mut lines = vec![
        r#"{"id":1,"method":"session.open","params":{"tenant":"upstream"}}"#.to_string(),
        r#"{"id":2,"method":"session.open","params":{"tenant":"downstream","max_logical_bytes":null}}"#.into(),
        // Admission refusal: the cap is two sessions.
        r#"{"id":3,"method":"session.open","params":{"tenant":"third"}}"#.into(),
        r#" {"method":"ping","id":4} "#.into(),
        format!(r#"{{"id":5,"method":"commit","params":{{"session":1,"branch":"master","components":{PIPELINE},"message":"initial"}}}}"#),
        r#"{"id":6,"method":"branch","params":{"session":1,"from":"master","to":"dev"}}"#.into(),
        r#"{"id":7,"method":"commit","params":{"session":1,"branch":"dev","components":["readmission_data@0.0","data_cleanse@0.1","feature_extract@0.0","cnn@0.0"]}}"#.into(),
        r#"{"id":8,"method":"head","params":{"session":1,"branch":"dev"}}"#.into(),
        r#"{"id":9,"method":"merge","params":{"session":1,"base":"master","merging":"dev"}}"#.into(),
        r#"{"id":10,"method":"log","params":{"session":1,"branch":"master"}}"#.into(),
        r#"{"id":11,"method":"log","params":{"session":1,"branch":"master","limit":1}}"#.into(),
        r#"{"id":12,"method":"branches","params":{"session":1}}"#.into(),
        r#"{"id":13,"method":"usage","params":{"session":1}}"#.into(),
        r#"{"id":14,"method":"grant","params":{"session":1,"peer":"downstream","right":"merge_into"}}"#.into(),
        r#"{"id":15,"method":"fork","params":{"session":2,"peer":"upstream","branch":"master","new_branch":"feature"}}"#.into(),
        r#"{"id":16,"method":"commit","params":{"session":2,"branch":"feature","components":["readmission_data@0.0","data_cleanse@0.0","feature_extract@0.0","cnn@0.1"],"message":"feature \"q\"\n"}}"#.into(),
        r#"{"id":17,"method":"merge.into","params":{"session":2,"peer":"upstream","peer_branch":"master","merging":"feature","strategy":"without_pr"}}"#.into(),
        r#"{"id":18,"method":"log","params":{"session":1,"branch":"master","limit":0}}"#.into(),
        r#"{"id":19,"method":"revoke","params":{"session":1,"peer":"downstream"}}"#.into(),
        r#"{"id":20,"method":"workspace.usage"}"#.into(),
        r#"{"id":21,"method":"server.info","params":{}}"#.into(),
        r#"{"id":22,"method":"metrics.scrape"}"#.into(),
        r#"{"id":23,"method":"obs.spans","params":{"n":0}}"#.into(),
        r#"{"id":24,"method":"obs.slow","params":{"n":0}}"#.into(),
        // Escapes in the id, the method, a key and a value; repeated keys
        // (the first counts); ids of every kind.
        r#"{"id":"A\n","me\u0074hod":"he\u0061d","params":{"session":1,"bra\u006ech":"master","branch":7}}"#.into(),
        r#"{"id":26,"method":"head","params":{"session":1,"branch":"dev"},"method":"ping","params":null,"id":0}"#.into(),
        r#"{"id":1.5e1,"method":"ping","params":null}"#.into(),
        r#"{"id":-3,"method":"ping"}"#.into(),
        r#"{"id":{"k":[1,"two",null,true]},"method":"ping"}"#.into(),
        r#"{"method":"ping"}"#.into(),
        r#"{"id":31,"method":"branches","params":{"session":1},"extra":{"deep":[[[{}]]]}}"#.into(),
        // Parse errors.
        r#"{"id":40,"method":"ping""#.into(),
        r#"{"id":41,"method":"ping"} trailing"#.into(),
        r#"{"id":42,"method":"\uD800"}"#.into(),
        "[".repeat(300),
        String::new(),
        // Not an object.
        "[1,2]".into(),
        r#""ping""#.into(),
        // Missing or ill-typed method.
        r#"{"id":50}"#.into(),
        r#"{"id":51,"method":7}"#.into(),
        r#"{"id":52,"method":["ping"]}"#.into(),
        // Unknown method, with and without a session.
        r#"{"id":60,"method":"frobnicate","params":{"session":1}}"#.into(),
        r#"{"id":61,"method":"frobnicate"}"#.into(),
        // Ill-typed params.
        r#"{"id":70,"method":"log","params":[1]}"#.into(),
        r#"{"id":71,"method":"ping","params":"x"}"#.into(),
        r#"{"id":72,"method":"log","params":{"session":1,"branch":{"a":1}}}"#.into(),
        r#"{"id":73,"method":"log","params":{"session":1,"branch":"master","limit":-1}}"#.into(),
        r#"{"id":74,"method":"log","params":{"session":"1","branch":"master"}}"#.into(),
        r#"{"id":75,"method":"commit","params":{"session":1,"branch":"master","components":["cnn@0.0",3]}}"#.into(),
        r#"{"id":76,"method":"commit","params":{"session":1,"branch":"master","components":"cnn@0.0"}}"#.into(),
        r#"{"id":77,"method":"commit","params":{"session":1,"branch":"master","components":["nope"]}}"#.into(),
        r#"{"id":78,"method":"merge","params":{"session":1,"base":"master","merging":"dev","strategy":"fastest"}}"#.into(),
        r#"{"id":79,"method":"grant","params":{"session":1,"peer":"downstream","right":"all"}}"#.into(),
        r#"{"id":80,"method":"commit","params":{"session":1}}"#.into(),
        // Unknown session; an operation that fails.
        r#"{"id":90,"method":"log","params":{"session":99,"branch":"master"}}"#.into(),
        r#"{"id":91,"method":"head","params":{"session":1,"branch":"nope"}}"#.into(),
        // Closing frees a slot: the refused tenant gets in.
        r#"{"id":92,"method":"session.close","params":{"session":2}}"#.into(),
        r#"{"id":93,"method":"session.close","params":{"session":2}}"#.into(),
        r#"{"id":94,"method":"session.open","params":{"tenant":"third"}}"#.into(),
        r#"{"id":95,"method":"server.info"}"#.into(),
    ];
    lines.push(format!(
        r#"{{"id":96,"method":"commit","params":{{"session":3,"branch":"master","components":{PIPELINE}}}}}"#
    ));
    lines
}

#[test]
fn the_served_bytes_are_the_pinned_bytes() {
    let (served, reference) = (router(), router());
    let mut called = BTreeSet::new();
    let mut codes = BTreeSet::new();
    for line in script() {
        let reply = assert_served_as_pinned(&served, &reference, &line);
        if let Some(code) = well_formed(&reply) {
            codes.insert(code);
        } else if let Some(m) = method_of(&line) {
            called.insert(m);
        }
    }
    let served_methods: BTreeSet<String> = Router::methods().map(str::to_string).collect();
    assert_eq!(called, served_methods, "every method answers once at least");
    let classes = [
        protocol::PARSE_ERROR,
        protocol::INVALID_REQUEST,
        protocol::METHOD_NOT_FOUND,
        protocol::INVALID_PARAMS,
        protocol::OP_FAILED,
        protocol::ADMISSION_DENIED,
    ];
    assert_eq!(codes, classes.into_iter().collect(), "every error class");
}

// -- the tree-based reading the pull reader replaced, kept as its oracle --

/// A request's fields as the tree parser reads them, or its failure as
/// `(code, message)`.
type TreeRequest = Result<(Value, String, Value), (i64, String)>;

/// Parses the whole line into a tree, then takes each envelope field's
/// first occurrence.
fn tree_request(line: &str) -> TreeRequest {
    let v: Value =
        serde_json::from_str(line).map_err(|e| (protocol::PARSE_ERROR, e.to_string()))?;
    let Value::Map(pairs) = v else {
        return Err((
            protocol::INVALID_REQUEST,
            "request must be an object".into(),
        ));
    };
    let first = |key: &str| serde::map_get(&pairs, key).cloned();
    let method = match first("method") {
        Some(Value::Str(name)) => name,
        Some(other) => {
            return Err((
                protocol::INVALID_REQUEST,
                format!("method must be a string, got {}", other.type_name()),
            ))
        }
        None => return Err((protocol::INVALID_REQUEST, "missing `method`".into())),
    };
    Ok((
        first("id").unwrap_or(Value::Null),
        method,
        first("params").unwrap_or(Value::Null),
    ))
}

type Answer<T> = Result<T, (i64, String)>;

fn answer<T>(r: Result<T, Failure>) -> Answer<T> {
    r.map_err(|f| (f.code, f.msg))
}

fn bad_params(msg: String) -> (i64, String) {
    (protocol::INVALID_PARAMS, msg)
}

/// The accessors' answers over a params tree, as they were written for it.
fn tree_accessors(params: &[(String, Value)], key: &str) -> [Answer<String>; 5] {
    let get = serde::map_get(params, key);
    let str_of = |v: Option<&Value>| match v {
        Some(Value::Str(s)) => Ok(s.clone()),
        Some(other) => Err(bad_params(format!(
            "`{key}` must be a string, got {}",
            other.type_name()
        ))),
        None => Err(bad_params(format!("missing `{key}`"))),
    };
    let u64_of = |v: Option<&Value>| match v {
        Some(Value::U64(n)) => Ok(n.to_string()),
        Some(Value::I64(n)) if *n >= 0 => Ok(n.to_string()),
        Some(other) => Err(bad_params(format!(
            "`{key}` must be a non-negative integer, got {}",
            other.type_name()
        ))),
        None => Err(bad_params(format!("missing `{key}`"))),
    };
    let optional = |v: Option<&Value>, f: &dyn Fn(Option<&Value>) -> Answer<String>| match v {
        None | Some(Value::Null) => Ok("none".to_string()),
        _ => f(v),
    };
    let seq = match get {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|v| match v {
                Value::Str(s) => Ok(s.clone()),
                other => Err(bad_params(format!(
                    "`{key}` items must be strings, got {}",
                    other.type_name()
                ))),
            })
            .collect::<Result<Vec<_>, _>>()
            .map(|items| items.join("\u{0}")),
        Some(other) => Err(bad_params(format!(
            "`{key}` must be an array, got {}",
            other.type_name()
        ))),
        None => Err(bad_params(format!("missing `{key}`"))),
    };
    [
        str_of(get),
        optional(get, &str_of),
        u64_of(get),
        optional(get, &u64_of),
        seq,
    ]
}

/// The same five answers from the reader's [`Params`].
fn reader_accessors(p: &Params<'_>, key: &str) -> [Answer<String>; 5] {
    let none = |o: Option<String>| o.unwrap_or_else(|| "none".to_string());
    [
        answer(p.str(key).map(str::to_string)),
        answer(p.str_opt(key).map(|o| none(o.map(str::to_string)))),
        answer(p.u64(key).map(|n| n.to_string())),
        answer(p.u64_opt(key).map(|o| none(o.map(|n| n.to_string())))),
        answer(p.str_seq(key).map(|items| items.join("\u{0}"))),
    ]
}

/// The reader's reading of `line` against the tree parser's.
fn assert_reads_as_the_tree(line: &str) {
    let read = protocol::parse_request(line);
    let req: Request = match (tree_request(line), read) {
        (Err(want), Err(got)) => {
            assert_eq!((got.code, got.msg), want, "on {line:?}");
            return;
        }
        (Ok((id, method, params)), Ok(req)) => {
            assert_eq!(req.id, id, "on {line:?}");
            assert_eq!(req.method, method, "on {line:?}");
            let text: Value = if req.params.is_empty() {
                Value::Null
            } else {
                serde_json::from_str(&req.params).unwrap()
            };
            assert_eq!(text, params, "on {line:?}");
            req
        }
        (want, got) => panic!(
            "on {line:?}: tree {want:?}, reader {:?}",
            got.map(|r| r.method)
        ),
    };
    let tree_params = serde_json::from_str::<Value>(if req.params.is_empty() {
        "null"
    } else {
        &req.params
    })
    .unwrap();
    match (&tree_params, Params::of(&req)) {
        (Value::Map(pairs), Ok(p)) => {
            let keys = pairs.iter().map(|(k, _)| k.as_str());
            for key in keys.chain(["session", "absent"]) {
                assert_eq!(
                    reader_accessors(&p, key),
                    tree_accessors(pairs, key),
                    "`{key}` on {line:?}"
                );
            }
        }
        (Value::Null, Ok(p)) => {
            assert_eq!(
                reader_accessors(&p, "session"),
                tree_accessors(&[], "session")
            );
        }
        (other, got) => {
            let want = format!("params must be an object, got {}", other.type_name());
            assert_eq!(
                answer(got.map(|_| ())),
                Err(bad_params(want)),
                "on {line:?}"
            );
        }
    }
}

// -- generated lines ---------------------------------------------------------

/// Pieces a mutation splices in: structure, escapes whole and broken,
/// numbers at the edges, the envelope's keys.
const PIECES: &[&str] = &[
    "\"",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\\",
    "\\\"",
    "\\u00",
    "\\u0041",
    "\\uD83D\\uDE00",
    "\\uD800",
    "null",
    "true",
    "fals",
    "0",
    "-",
    "1e400",
    "1.5",
    "-7",
    "18446744073709551616",
    "\"id\":",
    "\"method\":",
    "\"params\":",
    "\"session\":1",
    "\"branch\":",
    "\"limit\":",
    "\"ping\"",
    "\"log\"",
    "\"head\"",
    "\"components\":",
    "[\"cnn@0.0\"]",
    "é",
    "😀",
    "\n",
    "\u{0}",
];

/// A line: arbitrary text, or a script line mutated one to four times.
struct Line;

impl Strategy for Line {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        if (0u32..5).generate(rng) == 0 {
            let len = (0usize..40).generate(rng);
            let bytes: Vec<u8> = (0..len).map(|_| any::<u8>().generate(rng)).collect();
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        let script = script();
        let mut line = script[(0..script.len()).generate(rng)].clone();
        for _ in 0..(1usize..5).generate(rng) {
            let at = boundary(&line, (0..line.len() + 1).generate(rng));
            match (0u32..4).generate(rng) {
                0 => line.insert_str(at, PIECES[(0..PIECES.len()).generate(rng)]),
                1 => {
                    let end = boundary(&line, at + (0usize..6).generate(rng));
                    line.replace_range(at..end, "");
                }
                2 => line.truncate(at),
                _ => {
                    let end = boundary(&line, at + (0usize..12).generate(rng));
                    let copy = line[at..end].to_string();
                    line.insert_str(end, &copy);
                }
            }
        }
        line
    }
}

/// The nearest character boundary at or before `at` (clamped to the end).
fn boundary(s: &str, at: usize) -> usize {
    let mut at = at.min(s.len());
    while !s.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Two routers fed the same lines in lock step — one served, one pinned —
/// with the script's sessions open.
fn twins() -> &'static Mutex<(Router, Router)> {
    static TWINS: OnceLock<Mutex<(Router, Router)>> = OnceLock::new();
    TWINS.get_or_init(|| {
        let twins = (router(), router());
        for line in &script()[..8] {
            assert_served_as_pinned(&twins.0, &twins.1, line);
        }
        Mutex::new(twins)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// The reader accepts exactly what the tree parser accepts, with the
    /// same fields, params answers and refusals.
    #[test]
    fn the_reader_reads_what_the_tree_parser_reads(line in Line) {
        assert_reads_as_the_tree(&line);
    }

    /// Every line gets one well-formed reply, and the served reply is the
    /// pinned one.
    #[test]
    fn every_line_gets_one_well_formed_reply(line in Line) {
        let twins = twins().lock().unwrap();
        let reply = assert_served_as_pinned(&twins.0, &twins.1, &line);
        well_formed(&reply);
    }
}

/// The script's own lines, and the hostile ones the server's unit test
/// sends, read as the tree parser reads them.
#[test]
fn the_script_and_hostile_lines_read_as_the_tree() {
    let hostile = [
        "[".repeat(200_000),
        r#"{"id":1,"method":"ping","params":"#.to_string() + &"{\"a\":".repeat(100_000),
        r#"{"id":1,"method":"\uD800A"}"#.to_string(),
        r#"{"id":"\uD800A","method":"ping"}"#.to_string(),
        "{\"k\":".repeat(127) + "{}" + &"}".repeat(127),
        "{\"k\":".repeat(128) + "{}" + &"}".repeat(128),
    ];
    for line in script().iter().chain(&hostile) {
        assert_reads_as_the_tree(line);
    }
}
