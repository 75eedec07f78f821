//! Line-delimited JSON-RPC protocol: requests read off their line with a
//! pull reader, responses written straight onto it.
//!
//! One request per line, one response per line. Requests carry an opaque
//! `id` (echoed verbatim), a `method` string, and an optional `params`
//! object. Responses carry either a `result` value or an `error` object
//! `{code, message}` with JSON-RPC style codes (negative integers; the
//! `-3205x` range is the daemon's admission-control band).
//!
//! The served path builds no [`Value`] tree: `read_request` borrows the
//! method and the params from the line, and `write_ok`/`write_error`
//! render a reply with [`Serialize::write_json`]. The tree forms —
//! [`parse_request`], `ok_response`, [`error_response`] — stay for
//! in-process callers of `Router::handle`, and say byte for byte what the
//! served path says.

use serde::{Serialize, Value};
use serde_json::Reader;
use std::borrow::Cow;

/// Malformed request line (invalid JSON).
pub const PARSE_ERROR: i64 = -32700;
/// Structurally invalid request object.
pub const INVALID_REQUEST: i64 = -32600;
/// Unknown method name.
pub const METHOD_NOT_FOUND: i64 = -32601;
/// Missing or ill-typed parameters.
pub const INVALID_PARAMS: i64 = -32602;
/// The operation itself failed (store/graph/quota errors).
pub const OP_FAILED: i64 = -32000;
/// A session asked for a quota other than the one its tenant joined with.
pub(crate) const QUOTA_CONFLICT: i64 = -32001;
/// A commit or merge found its branch moved off its base: nothing written.
pub(crate) const BASE_MOVED: i64 = -32002;
/// Admission control refused a new session (session cap reached).
pub const ADMISSION_DENIED: i64 = -32050;
/// Per-tenant rate limiter refused the operation.
pub(crate) const RATE_LIMITED: i64 = -32051;
/// Too many operations in flight (server-wide backpressure).
pub(crate) const OVERLOADED: i64 = -32052;

/// A parsed request, owning its fields.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen correlation id, echoed back verbatim.
    pub id: Value,
    /// Method name (e.g. `"session.open"`).
    pub method: String,
    /// The `params` value's JSON text as it stood on the line; empty when
    /// the request had none.
    pub params: String,
}

/// A request read off its line, borrowing from it: the method and the
/// params' strings are slices of the line unless they hold an escape.
pub(crate) struct LineRequest<'a> {
    /// Caller-chosen correlation id, echoed back verbatim.
    pub(crate) id: Value,
    /// Method name.
    pub(crate) method: Cow<'a, str>,
    /// The params object, or what [`Params::of`] refuses a non-object with.
    pub(crate) params: Result<Params<'a>, Failure>,
    /// The params' text (empty when the request had none).
    params_text: &'a str,
}

/// A method failure: the error code plus a human-readable message.
#[derive(Debug, Clone)]
pub struct Failure {
    /// One of the code constants above.
    pub code: i64,
    /// Description rendered into the `error.message` field.
    pub msg: String,
}

impl Failure {
    /// Builds a failure from any displayable message.
    pub(crate) fn new(code: i64, msg: impl std::fmt::Display) -> Failure {
        Failure {
            code,
            msg: msg.to_string(),
        }
    }

    /// Shorthand for a `-32602` parameter error.
    pub(crate) fn params(msg: impl std::fmt::Display) -> Failure {
        Failure::new(INVALID_PARAMS, msg)
    }

    /// Shorthand for a `-32000` operation error.
    pub(crate) fn op(msg: impl std::fmt::Display) -> Failure {
        Failure::new(OP_FAILED, msg)
    }
}

/// Text the JSON reader refuses: a `-32700` parse error.
impl From<serde_json::Error> for Failure {
    fn from(e: serde_json::Error) -> Failure {
        Failure::new(PARSE_ERROR, e)
    }
}

/// Builds an object value from key/value pairs (insertion-ordered, so the
/// rendered JSON is deterministic).
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// String value shorthand.
pub fn s(x: impl Into<String>) -> Value {
    Value::Str(x.into())
}

/// Reads one request line without building its tree. Of a repeated key
/// the first occurrence counts. A line `serde_json` would not parse fails
/// with its message; the envelope is checked only once the whole line
/// parsed.
pub(crate) fn read_request(line: &str) -> Result<LineRequest<'_>, Failure> {
    let mut r = Reader::new(line);
    if r.peek() != Some(b'{') {
        r.skip()?;
        r.finish()?;
        return Err(Failure::new(INVALID_REQUEST, "request must be an object"));
    }
    let (mut id, mut method, mut params) = (None, None, None);
    r.object(|r, key| {
        match key.as_ref() {
            "id" if id.is_none() => id = Some(r.value()?),
            "method" if method.is_none() => method = Some(Field::read(r)?),
            "params" if params.is_none() => {
                let start = r.offset();
                let read = Params::read(r)?;
                params = Some((read, &line[start..r.offset()]));
            }
            _ => {
                r.skip()?;
            }
        }
        Ok::<_, Failure>(())
    })?;
    r.finish()?;
    let method = match method {
        Some(Field::Str(name)) => name,
        Some(other) => {
            return Err(Failure::new(
                INVALID_REQUEST,
                format!("method must be a string, got {}", other.type_name()),
            ))
        }
        None => return Err(Failure::new(INVALID_REQUEST, "missing `method`")),
    };
    let (params, params_text) = params.unwrap_or((Ok(Params::default()), ""));
    Ok(LineRequest {
        id: id.unwrap_or(Value::Null),
        method,
        params,
        params_text,
    })
}

/// Parses one request line into an owned [`Request`]: `read_request`,
/// with the params kept as their text.
pub fn parse_request(line: &str) -> Result<Request, Failure> {
    let req = read_request(line)?;
    Ok(Request {
        id: req.id,
        method: req.method.into_owned(),
        params: req.params_text.to_string(),
    })
}

/// A success response value.
pub(crate) fn ok_response(id: &Value, result: Value) -> Value {
    obj(vec![("id", id.clone()), ("result", result)])
}

/// An error response value.
pub fn error_response(id: &Value, failure: &Failure) -> Value {
    obj(vec![
        ("id", id.clone()),
        (
            "error",
            obj(vec![
                ("code", Value::I64(failure.code)),
                ("message", s(&failure.msg)),
            ]),
        ),
    ])
}

/// Appends a success response: the bytes [`ok_response`] renders to, with
/// `result` written by [`Serialize::write_json`].
pub(crate) fn write_ok(out: &mut String, id: &Value, result: &(impl Serialize + ?Sized)) {
    out.push_str("{\"id\":");
    id.write_json(out);
    out.push_str(",\"result\":");
    result.write_json(out);
    out.push('}');
}

/// Appends an error response: the bytes [`error_response`] renders to.
pub(crate) fn write_error(out: &mut String, id: &Value, failure: &Failure) {
    out.push_str("{\"id\":");
    id.write_json(out);
    out.push_str(",\"error\":{\"code\":");
    failure.code.write_json(out);
    out.push_str(",\"message\":");
    failure.msg.write_json(out);
    out.push_str("}}");
}

/// One params value as read off the line.
enum Field<'a> {
    Str(Cow<'a, str>),
    /// `null`, a boolean or a number.
    Scalar(Value),
    /// An array, kept as its text until an accessor reads it.
    Seq(&'a str),
    Object,
}

impl<'a> Field<'a> {
    fn read(r: &mut Reader<'a>) -> serde_json::Result<Field<'a>> {
        Ok(match r.peek() {
            Some(b'"') => Field::Str(r.str()?),
            Some(b'[') => Field::Seq(r.skip()?),
            Some(b'{') => {
                r.skip()?;
                Field::Object
            }
            _ => Field::Scalar(r.value()?),
        })
    }

    /// What [`Value::type_name`] calls this value.
    fn type_name(&self) -> &'static str {
        match self {
            Field::Str(_) => "string",
            Field::Scalar(v) => v.type_name(),
            Field::Seq(_) => "array",
            Field::Object => "object",
        }
    }
}

/// Typed parameter accessors over a request's `params` object, whose keys
/// and strings borrow from the request line.
#[derive(Default)]
pub struct Params<'a> {
    /// Every entry in line order, repeated keys included.
    entries: Vec<(Cow<'a, str>, Field<'a>)>,
}

impl<'a> Params<'a> {
    /// The params of an owned request; errors unless they are an object.
    pub fn of(req: &'a Request) -> Result<Params<'a>, Failure> {
        if req.params.is_empty() {
            return Ok(Params::default());
        }
        let mut r = Reader::new(&req.params);
        let params = Params::read(&mut r)?;
        r.finish()?;
        params
    }

    /// Reads a params value: an object's entries, none for `null`, or, for
    /// any other value, the failure [`Params::of`] reports.
    fn read(r: &mut Reader<'a>) -> serde_json::Result<Result<Params<'a>, Failure>> {
        if r.peek() != Some(b'{') {
            return Ok(match Field::read(r)? {
                Field::Scalar(Value::Null) => Ok(Params::default()),
                other => Err(Failure::params(format!(
                    "params must be an object, got {}",
                    other.type_name()
                ))),
            });
        }
        let mut entries = Vec::new();
        r.object(|r, key| {
            entries.push((key, Field::read(r)?));
            Ok::<_, serde_json::Error>(())
        })?;
        Ok(Ok(Params { entries }))
    }

    /// The first value under `key`.
    fn get(&self, key: &str) -> Option<&Field<'a>> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, field)| field)
    }

    /// Required string field.
    pub fn str(&self, key: &str) -> Result<&str, Failure> {
        match self.get(key) {
            Some(Field::Str(v)) => Ok(v),
            Some(other) => Err(Failure::params(format!(
                "`{key}` must be a string, got {}",
                other.type_name()
            ))),
            None => Err(Failure::params(format!("missing `{key}`"))),
        }
    }

    /// Optional string field.
    pub fn str_opt(&self, key: &str) -> Result<Option<&str>, Failure> {
        match self.get(key) {
            None | Some(Field::Scalar(Value::Null)) => Ok(None),
            _ => self.str(key).map(Some),
        }
    }

    /// Required unsigned integer field.
    pub fn u64(&self, key: &str) -> Result<u64, Failure> {
        match self.get(key) {
            Some(Field::Scalar(Value::U64(v))) => Ok(*v),
            Some(Field::Scalar(Value::I64(v))) if *v >= 0 => Ok(*v as u64),
            Some(other) => Err(Failure::params(format!(
                "`{key}` must be a non-negative integer, got {}",
                other.type_name()
            ))),
            None => Err(Failure::params(format!("missing `{key}`"))),
        }
    }

    /// Optional unsigned integer field.
    pub fn u64_opt(&self, key: &str) -> Result<Option<u64>, Failure> {
        match self.get(key) {
            None | Some(Field::Scalar(Value::Null)) => Ok(None),
            _ => self.u64(key).map(Some),
        }
    }

    /// Required array-of-strings field.
    pub fn str_seq(&self, key: &str) -> Result<Vec<Cow<'a, str>>, Failure> {
        let text = match self.get(key) {
            Some(Field::Seq(text)) => *text,
            Some(other) => {
                return Err(Failure::params(format!(
                    "`{key}` must be an array, got {}",
                    other.type_name()
                )))
            }
            None => return Err(Failure::params(format!("missing `{key}`"))),
        };
        let mut items = Vec::new();
        Reader::new(text).array(|r| match Field::read(r)? {
            Field::Str(item) => {
                items.push(item);
                Ok(())
            }
            other => Err(Failure::params(format!(
                "`{key}` items must be strings, got {}",
                other.type_name()
            ))),
        })?;
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_request() {
        let req = parse_request(r#"{"id": 7, "method": "commit", "params": {"branch": "master"}}"#)
            .unwrap();
        assert_eq!(req.id, Value::U64(7));
        assert_eq!(req.method, "commit");
        let p = Params::of(&req).unwrap();
        assert_eq!(p.str("branch").unwrap(), "master");
        assert!(p.str("missing").is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        assert_eq!(parse_request("not json").unwrap_err().code, PARSE_ERROR);
        assert_eq!(parse_request("[1,2]").unwrap_err().code, INVALID_REQUEST);
        assert_eq!(
            parse_request(r#"{"id": 1}"#).unwrap_err().code,
            INVALID_REQUEST
        );
        assert_eq!(
            parse_request(r#"{"method": 3}"#).unwrap_err().code,
            INVALID_REQUEST
        );
    }

    #[test]
    fn first_of_a_repeated_key_counts() {
        let req = parse_request(
            r#"{"id":1,"method":"a","params":{"k":1},"id":2,"method":"b","params":null}"#,
        )
        .unwrap();
        assert_eq!(req.id, Value::U64(1));
        assert_eq!(req.method, "a");
        assert_eq!(Params::of(&req).unwrap().u64("k").unwrap(), 1);
    }

    #[test]
    fn responses_round_trip() {
        let id = Value::Str("abc".into());
        let ok = ok_response(&id, s("pong"));
        let text = serde_json::to_string(&ok).unwrap();
        assert_eq!(text, r#"{"id":"abc","result":"pong"}"#);
        let err = error_response(&id, &Failure::new(METHOD_NOT_FOUND, "no such method"));
        let text = serde_json::to_string(&err).unwrap();
        assert!(text.contains("-32601"), "{text}");
    }
}
