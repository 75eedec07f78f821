//! Line-delimited JSON-RPC protocol: request parsing and response
//! rendering over the vendored [`serde::Value`] tree.
//!
//! One request per line, one response per line. Requests carry an opaque
//! `id` (echoed verbatim), a `method` string, and an optional `params`
//! object. Responses carry either a `result` value or an `error` object
//! `{code, message}` with JSON-RPC style codes (negative integers; the
//! `-3205x` range is the daemon's admission-control band).

use serde::Value;

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
/// Admission control refused a new session (session cap reached).
pub const ADMISSION_DENIED: i64 = -32050;
/// Per-tenant rate limiter refused the operation.
pub const RATE_LIMITED: i64 = -32051;
/// Too many operations in flight (server-wide backpressure).
pub const OVERLOADED: i64 = -32052;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Caller-chosen correlation id, echoed back verbatim.
    pub id: Value,
    /// Method name (e.g. `"session.open"`).
    pub method: String,
    /// Parameter object (`Value::Null` when omitted).
    pub params: Value,
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
    pub fn new(code: i64, msg: impl std::fmt::Display) -> Failure {
        Failure {
            code,
            msg: msg.to_string(),
        }
    }

    /// Shorthand for a `-32602` parameter error.
    pub fn params(msg: impl std::fmt::Display) -> Failure {
        Failure::new(INVALID_PARAMS, msg)
    }

    /// Shorthand for a `-32000` operation error.
    pub fn op(msg: impl std::fmt::Display) -> Failure {
        Failure::new(OP_FAILED, msg)
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

/// Parses one request line. The fields are moved out of the parsed tree,
/// not copied (`params` can be most of the line); of a repeated key the
/// first occurrence counts.
pub fn parse_request(line: &str) -> Result<Request, Failure> {
    let v: Value = serde_json::from_str(line).map_err(|e| Failure::new(PARSE_ERROR, e))?;
    let Value::Map(pairs) = v else {
        return Err(Failure::new(INVALID_REQUEST, "request must be an object"));
    };
    let (mut id, mut method, mut params) = (None, None, None);
    for (key, value) in pairs {
        let field = match key.as_str() {
            "id" => &mut id,
            "method" => &mut method,
            "params" => &mut params,
            _ => continue,
        };
        field.get_or_insert(value);
    }
    let method = match method {
        Some(Value::Str(name)) => name,
        Some(other) => {
            return Err(Failure::new(
                INVALID_REQUEST,
                format!("method must be a string, got {}", other.type_name()),
            ))
        }
        None => return Err(Failure::new(INVALID_REQUEST, "missing `method`")),
    };
    Ok(Request {
        id: id.unwrap_or(Value::Null),
        method,
        params: params.unwrap_or(Value::Null),
    })
}

/// A success response value.
pub fn ok_response(id: &Value, result: Value) -> Value {
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

/// Typed parameter accessors over the request's `params` object.
pub struct Params<'a> {
    map: &'a [(String, Value)],
}

impl<'a> Params<'a> {
    /// Wraps the request's params; errors unless it is an object.
    pub fn of(req: &'a Request) -> Result<Params<'a>, Failure> {
        match &req.params {
            Value::Map(m) => Ok(Params { map: m }),
            Value::Null => Ok(Params { map: &[] }),
            other => Err(Failure::params(format!(
                "params must be an object, got {}",
                other.type_name()
            ))),
        }
    }

    /// Raw field lookup.
    pub fn get(&self, key: &str) -> Option<&'a Value> {
        serde::map_get(self.map, key)
    }

    /// Required string field.
    pub fn str(&self, key: &str) -> Result<&'a str, Failure> {
        match self.get(key) {
            Some(Value::Str(v)) => Ok(v),
            Some(other) => Err(Failure::params(format!(
                "`{key}` must be a string, got {}",
                other.type_name()
            ))),
            None => Err(Failure::params(format!("missing `{key}`"))),
        }
    }

    /// Optional string field.
    pub fn str_opt(&self, key: &str) -> Result<Option<&'a str>, Failure> {
        match self.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Str(v)) => Ok(Some(v)),
            Some(other) => Err(Failure::params(format!(
                "`{key}` must be a string, got {}",
                other.type_name()
            ))),
        }
    }

    /// Required unsigned integer field.
    pub fn u64(&self, key: &str) -> Result<u64, Failure> {
        match self.get(key) {
            Some(Value::U64(v)) => Ok(*v),
            Some(Value::I64(v)) if *v >= 0 => Ok(*v as u64),
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
            None | Some(Value::Null) => Ok(None),
            _ => self.u64(key).map(Some),
        }
    }

    /// Required array-of-strings field.
    pub fn str_seq(&self, key: &str) -> Result<Vec<&'a str>, Failure> {
        let seq = match self.get(key) {
            Some(Value::Seq(items)) => items,
            Some(other) => {
                return Err(Failure::params(format!(
                    "`{key}` must be an array, got {}",
                    other.type_name()
                )))
            }
            None => return Err(Failure::params(format!("missing `{key}`"))),
        };
        seq.iter()
            .map(|v| match v {
                Value::Str(x) => Ok(x.as_str()),
                other => Err(Failure::params(format!(
                    "`{key}` items must be strings, got {}",
                    other.type_name()
                ))),
            })
            .collect()
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
