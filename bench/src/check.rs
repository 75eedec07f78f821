//! Response checks: every reply must be valid JSON carrying the request's
//! id; replies are classified, digested for the byte-identity checks, and
//! the per-method invariants (`log` ordering, warm merges executing
//! nothing) are tested here.

use serde::{map_get, Value};

/// FNV-1a, 64 bit: the digest behind every byte-identity check. Not
/// cryptographic — it only has to tell two response scripts apart.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a digest over more bytes.
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Running digest over a sequence of response lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(fnv1a64(b""))
    }
}

impl Digest {
    /// Folds one response line (newline-terminated) into the digest.
    pub fn push(&mut self, line: &str) {
        self.0 = fnv1a64_extend(self.0, line.as_bytes());
        self.0 = fnv1a64_extend(self.0, b"\n");
    }

    /// Sixteen hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What one reply turned out to be.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A `result` carrying the request's id.
    Ok(Value),
    /// An `error` object: the operation failed (`refused` when the code is
    /// in the daemon's admission band -3205x).
    Failed { code: i64, refused: bool },
    /// Not JSON, not an object, wrong id, or neither `result` nor `error`.
    Malformed(String),
}

/// Classifies one reply line against the id its request carried.
pub fn classify(line: &str, expect_id: u64) -> Reply {
    let v: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return Reply::Malformed(format!("not JSON: {e}")),
    };
    let Some(m) = v.as_map() else {
        return Reply::Malformed("reply is not an object".into());
    };
    match map_get(m, "id") {
        Some(Value::U64(id)) if *id == expect_id => {}
        other => return Reply::Malformed(format!("id {other:?}, expected {expect_id}")),
    }
    if let Some(err) = map_get(m, "error") {
        let code = match err.as_map().and_then(|e| map_get(e, "code")) {
            Some(Value::I64(c)) => *c,
            Some(Value::U64(c)) => *c as i64,
            _ => return Reply::Malformed("error without a code".into()),
        };
        return Reply::Failed {
            code,
            refused: (-32059..=-32050).contains(&code),
        };
    }
    match map_get(m, "result") {
        Some(r) => Reply::Ok(r.clone()),
        None => Reply::Malformed("neither result nor error".into()),
    }
}

/// Field `key` of an object value.
pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    map_get(v.as_map()?, key)
}

/// Unsigned integer field `key` of an object value.
pub fn u64_field(v: &Value, key: &str) -> Option<u64> {
    match field(v, key)? {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

/// A `log` result must list commits in strictly descending first-parent
/// `seq`: a reader that saw a torn snapshot would repeat or skip one.
pub fn log_is_strictly_descending(result: &Value) -> bool {
    let Some(entries) = result.as_seq() else {
        return false;
    };
    let seqs: Option<Vec<u64>> = entries.iter().map(|e| u64_field(e, "seq")).collect();
    match seqs {
        Some(s) => !s.is_empty() && s.windows(2).all(|w| w[0] > w[1]),
        None => false,
    }
}

/// The search counters of a `merge`/`merge.into` result (absent on a
/// fast-forward).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounts {
    pub total: u64,
    pub evaluated: u64,
    pub pruned: u64,
    pub executed: u64,
    pub reused: u64,
}

/// Extracts [`SearchCounts`] from a merge result.
pub fn search_counts(result: &Value) -> Option<SearchCounts> {
    let s = field(result, "search")?;
    Some(SearchCounts {
        total: u64_field(s, "candidates_total")?,
        evaluated: u64_field(s, "candidates_evaluated")?,
        pruned: u64_field(s, "candidates_pruned")?,
        executed: u64_field(s, "executed_components")?,
        reused: u64_field(s, "reused_components")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert_eq!(
            classify(r#"{"id":7,"result":"pong"}"#, 7),
            Reply::Ok(Value::Str("pong".into()))
        );
        assert_eq!(
            classify(r#"{"id":7,"error":{"code":-32000,"message":"x"}}"#, 7),
            Reply::Failed {
                code: -32000,
                refused: false
            }
        );
        assert_eq!(
            classify(r#"{"id":7,"error":{"code":-32052,"message":"busy"}}"#, 7),
            Reply::Failed {
                code: -32052,
                refused: true
            }
        );
        // Wrong id, truncated JSON, empty object, non-object: all malformed.
        for bad in [
            r#"{"id":8,"result":1}"#,
            r#"{"id":7,"result":"#,
            r#"{"id":7}"#,
            "[]",
            "",
        ] {
            assert!(matches!(classify(bad, 7), Reply::Malformed(_)), "{bad}");
        }
    }

    #[test]
    fn log_ordering() {
        let parse = |s: &str| serde_json::from_str::<Value>(s).unwrap();
        assert!(log_is_strictly_descending(&parse(
            r#"[{"seq":3},{"seq":2},{"seq":0}]"#
        )));
        assert!(!log_is_strictly_descending(&parse(
            r#"[{"seq":3},{"seq":3}]"#
        )));
        assert!(!log_is_strictly_descending(&parse(
            r#"[{"seq":1},{"seq":2}]"#
        )));
        assert!(!log_is_strictly_descending(&parse("[]")));
        assert!(!log_is_strictly_descending(&parse(r#"[{"id":"x"}]"#)));
    }

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Digest::default();
        a.push("x");
        a.push("y");
        let mut b = Digest::default();
        b.push("y");
        b.push("x");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.push("x");
        c.push("y");
        assert_eq!(a, c);
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn merge_counters() {
        let v: Value = serde_json::from_str(
            r#"{"committed":true,"fast_forward":false,"search":{"candidates_total":8,"candidates_evaluated":6,"candidates_pruned":2,"executed_components":0,"reused_components":24,"failed_candidates":0}}"#,
        )
        .unwrap();
        let c = search_counts(&v).unwrap();
        assert_eq!(
            (c.total, c.evaluated, c.pruned, c.executed, c.reused),
            (8, 6, 2, 0, 24)
        );
        let ff: Value = serde_json::from_str(r#"{"committed":true,"fast_forward":true}"#).unwrap();
        assert_eq!(search_counts(&ff), None);
    }
}
