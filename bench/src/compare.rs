//! `caskbench compare A.json B.json`: is B worse than A? Applies each
//! end-to-end metric's direction and bound, per workload, and refuses to
//! call a difference it cannot resolve.

use crate::metrics::{Better, Def, END_TO_END};
use serde::Value;

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The middle half of one side's repetitions spreads wider than the
    /// bound, and the two sides' ranges overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric: the median of its repetitions and the
/// range their middle half spanned (first to third quartile).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

/// Judges `b` against baseline `a`.
pub fn judge(def: &Def, a: Reading, b: Reading) -> Verdict {
    // Orient everything so that larger is worse.
    let flip = |r: Reading| match def.better {
        Better::Lower => r,
        Better::Higher => Reading {
            value: -r.value,
            q1: -r.q3,
            q3: -r.q1,
        },
    };
    let (a, b) = (flip(a), flip(b));
    let scale = a.value.abs();
    if scale == 0.0 {
        return if b.value == a.value {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let slack = def.bound * scale;
    let noisy = (a.q3 - a.q1) > slack || (b.q3 - b.q1) > slack;
    if noisy {
        // A wide spread still resolves when the ranges do not even touch.
        return if b.q1 > a.q3 + slack {
            Verdict::Worse
        } else if b.q3 < a.q1 {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if b.value > a.value + slack {
        Verdict::Worse
    } else if b.value < a.value - slack {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn get<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter()
        .try_fold(v, |v, key| crate::check::field(v, key))
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn reading(results: &Value, workload: &str, metric: &str) -> Option<Reading> {
    let m = get(results, &["workloads", workload, "metrics", metric])?;
    Some(Reading {
        value: number(get(m, &["value"])?)?,
        q1: number(get(m, &["q1"])?)?,
        q3: number(get(m, &["q3"])?)?,
    })
}

/// One line of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Reading,
    pub b: Reading,
    pub verdict: Verdict,
}

/// Compares every workload × end-to-end metric present in both files.
/// A pair missing from either side is an error: silently skipping it
/// would let a metric vanish unnoticed.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let workloads = get(a, &["workloads"])
        .and_then(Value::as_map)
        .ok_or("baseline has no `workloads` object")?;
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for def in END_TO_END {
            let side = |results, which| {
                reading(results, workload, def.name)
                    .ok_or_else(|| format!("{which} lacks {workload} {}", def.name))
            };
            let (ra, rb) = (side(a, "baseline")?, side(b, "candidate")?);
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                a: ra,
                b: rb,
                verdict: judge(def, ra, rb),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::def;

    fn tight(value: f64) -> Reading {
        Reading {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let lower = def("peak_rss_mib").unwrap(); // lower is better, bound 0.10
        assert_eq!(judge(lower, tight(10.0), tight(10.5)), Verdict::Same);
        assert_eq!(judge(lower, tight(10.0), tight(11.5)), Verdict::Worse);
        assert_eq!(judge(lower, tight(10.0), tight(8.0)), Verdict::Better);
        let higher = def("ops_per_s").unwrap(); // higher is better, bound 0.25
        assert_eq!(judge(higher, tight(100.0), tight(70.0)), Verdict::Worse);
        assert_eq!(judge(higher, tight(100.0), tight(130.0)), Verdict::Better);
        assert_eq!(judge(higher, tight(100.0), tight(90.0)), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_ranges_are_disjoint() {
        let d = def("peak_rss_mib").unwrap();
        let wide = |value: f64| Reading {
            value,
            q1: value * 0.8,
            q3: value * 1.2,
        };
        // Medians 15% apart but the repetitions overlap: cannot tell.
        assert_eq!(judge(d, wide(10.0), wide(11.5)), Verdict::Unresolved);
        assert_eq!(judge(d, tight(10.0), wide(10.0)), Verdict::Unresolved);
        // Every candidate repetition beyond every baseline one plus the bound.
        assert_eq!(judge(d, wide(10.0), wide(20.0)), Verdict::Worse);
        // Every candidate repetition better than every baseline one.
        assert_eq!(judge(d, wide(10.0), wide(5.0)), Verdict::Better);
        // A zero baseline has no scale to apply a bound to.
        let zero = Reading {
            value: 0.0,
            q1: 0.0,
            q3: 0.0,
        };
        assert_eq!(judge(d, zero, zero), Verdict::Same);
        assert_eq!(judge(d, zero, tight(1.0)), Verdict::Unresolved);
    }

    #[test]
    fn compare_walks_both_files_and_rejects_gaps() {
        let file = |read: f64| -> Value {
            let metrics: Vec<String> = END_TO_END
                .iter()
                .map(|d| {
                    let v = if d.name == "read_p50_us" { read } else { 1.0 };
                    format!(r#""{}":{{"value":{v:?},"q1":{v:?},"q3":{v:?}}}"#, d.name)
                })
                .collect();
            serde_json::from_str(&format!(
                r#"{{"workloads":{{"w":{{"metrics":{{{}}}}}}}}}"#,
                metrics.join(",")
            ))
            .unwrap()
        };
        let rows = compare(&file(10.0), &file(20.0)).unwrap();
        assert_eq!(rows.len(), END_TO_END.len());
        for r in &rows {
            let want = if r.metric == "read_p50_us" {
                Verdict::Worse
            } else {
                Verdict::Same
            };
            assert_eq!(r.verdict, want, "{}", r.metric);
        }
        let empty: Value = serde_json::from_str(r#"{"workloads":{"w":{"metrics":{}}}}"#).unwrap();
        assert!(compare(&file(1.0), &empty)
            .unwrap_err()
            .contains("candidate lacks w"));
    }
}
