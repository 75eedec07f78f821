//! What the benchmark writes: the driver's one JSON line, `results.json`,
//! `layers.json`, and `BENCHMARK.json` itself (generated from the tables,
//! so the manifest cannot drift from what the program reports).

use crate::metrics::{self, Def, Summary};
use crate::workloads::WORKLOADS;
use crate::{Outcome, Traced};
use mlcask_server::protocol::{obj, s};
use serde::Value;
use std::collections::BTreeMap;

/// Why each workload exists, for `BENCHMARK.json` (one line each).
pub const WHY: [&str; 4] = [
    "Everything first-time on a fresh daemon and cask: library registration (chunk+hash+dedup), component compute, PC/PR merge search; stresses ml.components, storage.chunk/hash, cask writes.",
    "The same episodes at --workers 2, on one CPU: what the wavefront engine and candidate fan-out cost in place of the sequential engine; replies must equal cold_collab's byte for byte.",
    "Hundreds of fork/commit/merge/read rounds over already-trained pipelines: component compute is zero, so dispatch, search, executor replay, history, cache, cask and a growing graph do all the work.",
    "The only TCP and only concurrent workload: a reader session beside a writer whose merges recompute every candidate, over the in-memory store (the cask is bypassed).",
];

fn num(x: f64) -> Value {
    // Neither a non-finite value nor the `-0.0` an empty float sum yields
    // belongs in a report.
    Value::F64(if x.is_finite() && x != 0.0 { x } else { 0.0 })
}

fn strings(items: &[String]) -> Value {
    Value::Seq(items.iter().map(s).collect())
}

/// The last line of standard output in `--workload` mode.
pub fn contract_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a Def, f64)>,
) -> String {
    let metrics = metrics
        .map(|(d, v)| {
            (
                d.name.to_string(),
                obj(vec![("value", num(v)), ("unit", s(d.unit))]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted.max(1))),
        ("failed", Value::U64(failed)),
        ("metrics", Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("plain values render")
}

/// The machine the numbers came from: they are this sandbox's, not a
/// device's.
fn host() -> Value {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .unwrap_or_default()
            .trim()
            .to_string()
    };
    // Filesystem under the store roots: the mount with the longest prefix
    // of the working directory.
    let cwd = std::env::current_dir().unwrap_or_default();
    let fs = read("/proc/mounts")
        .lines()
        .filter_map(|l| {
            let mut f = l.split(' ');
            let (_, mount, kind) = (f.next()?, f.next()?, f.next()?);
            cwd.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map(|(_, kind)| kind)
        .unwrap_or_default();
    obj(vec![
        (
            "nproc",
            Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("kernel", s(read("/proc/sys/kernel/osrelease"))),
        ("store_fs", s(&fs)),
    ])
}

fn summaries(defs: &[Def], values: &BTreeMap<&'static str, Summary>) -> Value {
    Value::Map(
        defs.iter()
            .map(|d| {
                let m = &values[d.name];
                (
                    d.name.to_string(),
                    obj(vec![
                        ("value", num(m.value)),
                        ("unit", s(d.unit)),
                        ("min", num(m.min)),
                        ("max", num(m.max)),
                        ("q1", num(m.q1)),
                        ("q3", num(m.q3)),
                        ("reps", Value::Seq(m.reps.iter().map(|v| num(*v)).collect())),
                    ]),
                )
            })
            .collect(),
    )
}

fn header(kind: &str, seed: u64, seconds: u64, smoke: bool) -> Vec<(&'static str, Value)> {
    vec![
        ("schema", Value::U64(1)),
        ("kind", s(kind)),
        ("seed", Value::U64(seed)),
        ("seconds", Value::U64(seconds)),
        ("smoke", Value::Bool(smoke)),
        ("host", host()),
    ]
}

/// `bench/out/results.json`: what `compare` reads.
pub fn results_json(seed: u64, seconds: u64, smoke: bool, outcomes: &[(&str, Outcome)]) -> String {
    let workloads = outcomes
        .iter()
        .map(|(name, o)| {
            let samples = |f: fn(&crate::workloads::Tally) -> usize| {
                Value::Seq(
                    o.reps
                        .iter()
                        .map(|r| Value::U64(f(&r.measured) as u64))
                        .collect(),
                )
            };
            (
                name.to_string(),
                obj(vec![
                    ("correct", Value::Bool(o.correct())),
                    ("attempted", Value::U64(o.attempted)),
                    ("failed", Value::U64(o.failed)),
                    ("violations", strings(&o.violations)),
                    ("metrics", summaries(metrics::END_TO_END, &o.metrics)),
                    ("detail", summaries(metrics::DETAIL, &o.detail)),
                    (
                        "samples_per_rep",
                        obj(vec![
                            ("commit", samples(|t| t.commit_ms.len())),
                            ("merge", samples(|t| t.merges.len())),
                            ("read", samples(|t| t.read_us.len())),
                            ("join", samples(|t| t.join_ms.len())),
                        ]),
                    ),
                ]),
            )
        })
        .collect();
    let mut top = header("end_to_end", seed, seconds, smoke);
    top.push(("workloads", Value::Map(workloads)));
    serde_json::to_string_pretty(&obj(top)).expect("plain values render")
}

/// `bench/out/layers.json`: every per-layer metric of every workload.
pub fn layers_json(seed: u64, seconds: u64, smoke: bool, traced: &[(&str, Traced)]) -> String {
    let workloads = traced
        .iter()
        .map(|(name, t)| {
            let values = metrics::DETAIL
                .iter()
                .chain(metrics::LAYERS)
                .map(|d| {
                    (
                        d.name.to_string(),
                        obj(vec![("value", num(t.values[d.name])), ("unit", s(d.unit))]),
                    )
                })
                .collect();
            (
                name.to_string(),
                obj(vec![
                    ("correct", Value::Bool(t.correct())),
                    ("attempted", Value::U64(t.attempted)),
                    ("failed", Value::U64(t.failed)),
                    ("violations", strings(&t.violations)),
                    ("spans", Value::U64(t.spans.len() as u64)),
                    ("layers", Value::Map(values)),
                ]),
            )
        })
        .collect();
    let mut top = header("per_layer", seed, seconds, smoke);
    top.push(("workloads", Value::Map(workloads)));
    serde_json::to_string_pretty(&obj(top)).expect("plain values render")
}

/// `BENCHMARK.json`, from the tables.
pub fn manifest_json() -> String {
    let metric = |d: &Def, bounded: bool| {
        let mut pairs = vec![
            ("name", s(d.name)),
            ("unit", s(d.unit)),
            ("better", s(d.better.as_str())),
        ];
        if bounded {
            pairs.push(("bound", num(d.bound)));
        }
        obj(pairs)
    };
    let manifest = obj(vec![
        ("command", Value::Seq(vec![s("bash"), s("bench/run.sh")])),
        ("paths", Value::Seq(vec![s("bench")])),
        ("run_seconds", Value::U64(crate::RUN_SECONDS)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .zip(WHY)
                    .map(|(name, why)| obj(vec![("name", s(*name)), ("why", s(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                metrics::END_TO_END
                    .iter()
                    .map(|d| metric(d, true))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                metrics::DETAIL
                    .iter()
                    .chain(metrics::LAYERS)
                    .map(|d| metric(d, false))
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&manifest).expect("plain values render")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        assert_eq!(
            committed.trim_end(),
            manifest_json(),
            "regenerate with `caskbench manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        assert!(WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let line = contract_line(true, 10, 0, metrics::END_TO_END.iter().map(|d| (d, 1.25)));
        let v: Value = serde_json::from_str(&line).unwrap();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(
            line.contains(r#""setup_s":{"value":1.25,"unit":"s"}"#),
            "{line}"
        );
        assert!(!line.contains('\n'));
        // `attempted` is at least 1 even for an empty run.
        assert!(contract_line(false, 0, 0, std::iter::empty()).contains(r#""attempted":1"#));
    }
}
