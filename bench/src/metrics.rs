//! The metric tables — names, units, directions, bounds — and the
//! end-to-end metrics' computation from repetitions. `BENCHMARK.json` is
//! generated from these tables (`caskbench manifest`) and a test keeps the
//! committed file equal to them.

use crate::stats;
use crate::workloads::Rep;
use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the baseline's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the daemon sees. Every workload reports every one of
/// these, from untraced runs only. The time-based bounds are the widest the
/// benchmark contract allows: this sandbox's CPU-bound timings spread
/// 5-20 % between identical runs (see the README), and a bound the
/// benchmark's own repeated runs cannot hold would make every comparison
/// `unresolved`.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("stored_bytes_per_user_byte", "B/B", Lower, 0.02),
    e2e("peak_rss_mib", "MiB", Lower, 0.10),
];

/// End-to-end numbers that cannot carry a bound: latencies not every
/// workload can support (a tail needs hundreds of samples, a team joins
/// once), the commit and merge latencies and `daemon_cpu_ms_per_op`, whose
/// ten-seed spread reached or came near their bound (a cold episode's
/// commits take 1 to 70 ms, so their median falls in a gap and jumps; their
/// mean follows the host's memory contention at 1.5 times the amplitude of
/// `ops_per_s`), and the failure share, identically zero on a healthy run. The traced run reports them from its
/// one *untraced* daemon repetition; `results.json` carries them too.
pub const DETAIL: &[Def] = &[
    layer("commit_mean_ms", "ms", Lower),
    layer("commit_p50_ms", "ms", Lower),
    layer("merge_p50_ms", "ms", Lower),
    layer("daemon_cpu_ms_per_op", "ms", Lower),
    layer("join_p50_ms", "ms", Lower),
    layer("commit_p99_ms", "ms", Lower),
    layer("merge_p99_ms", "ms", Lower),
    layer("read_p95_us", "us", Lower),
    layer("read_quiet_p50_us", "us", Lower),
    layer("failed_ops_share", "ratio", Lower),
];

/// Single-layer metrics: in-situ spans and counts from the traced replay,
/// and isolated probes in absolute units.
pub const LAYERS: &[Def] = &[
    layer("server.transport.tcp_rtt_p50_us", "us", Lower),
    layer("server.transport.stdio_rtt_p50_us", "us", Lower),
    layer("server.protocol.parse_ns_per_req", "ns", Lower),
    layer("server.protocol.render_ns_per_req", "ns", Lower),
    layer("server.protocol.bytes_in_per_req", "B", Lower),
    layer("server.protocol.bytes_out_per_req", "B", Lower),
    layer("server.service.read_handle_p50_us", "us", Lower),
    layer("server.service.handle_busy_s", "s", Lower),
    layer("server.service.requests", "count", Higher),
    layer("server.service.rejected", "count", Lower),
    layer("core.system.commit_overhead_us_p50", "us", Lower),
    layer("core.merge.search_overhead_ms_p50", "ms", Lower),
    layer("core.merge.overhead_ms_first_decile", "ms", Lower),
    layer("core.merge.overhead_ms_last_decile", "ms", Lower),
    layer("core.merge.candidates_evaluated", "count", Lower),
    layer("core.merge.candidates_pruned", "count", Higher),
    layer("core.merge.executed_components", "count", Lower),
    layer("core.merge.reused_components", "count", Higher),
    layer("core.merge.reuse_ratio", "ratio", Higher),
    layer("core.merge.prune_ratio", "ratio", Higher),
    layer("core.unattributed_share", "ratio", Lower),
    layer("pipeline.executor.noop_chain_ns_per_node", "ns", Lower),
    layer(
        "pipeline.executor.noop_chain_reuse_ns_per_node",
        "ns",
        Lower,
    ),
    layer("pipeline.executor.noop_fan_ns_per_node_w1", "ns", Lower),
    layer("pipeline.executor.noop_fan_ns_per_node_w2", "ns", Lower),
    layer("pipeline.provenance.fingerprint_ns_per_node", "ns", Lower),
    layer("ml.components.busy_s", "s", Lower),
    layer("ml.components.runs", "count", Lower),
    layer("ml.components.share_of_handle", "ratio", Lower),
    layer("storage.hash.sha256_mib_per_s", "MiB/s", Higher),
    layer("storage.chunk.chunk_mib_per_s", "MiB/s", Higher),
    layer("storage.store.put_new_mib_per_s", "MiB/s", Higher),
    layer("storage.store.put_dup_mib_per_s", "MiB/s", Higher),
    layer("storage.store.get_mib_per_s", "MiB/s", Higher),
    layer("storage.store.logical_bytes", "B", Lower),
    layer("storage.store.physical_bytes", "B", Lower),
    layer("storage.backend.put_calls", "count", Lower),
    layer("storage.backend.put_bytes", "B", Lower),
    layer("storage.backend.put_busy_s", "s", Lower),
    layer("storage.backend.get_calls", "count", Lower),
    layer("storage.backend.get_bytes", "B", Lower),
    layer("storage.backend.get_busy_s", "s", Lower),
    layer("storage.backend.contains_calls", "count", Lower),
    layer("storage.cask.append_us_p50", "us", Lower),
    layer("storage.cask.append_sync_us_p50", "us", Lower),
    layer("storage.cask.read_us_p50", "us", Lower),
    layer("storage.cask.flush_ms", "ms", Lower),
    layer("storage.cask.fsyncs_per_append", "ratio", Lower),
    layer("storage.cask.recover_mib_per_s", "MiB/s", Higher),
    layer("storage.cask.disk_bytes_per_payload_byte", "B/B", Lower),
    layer("storage.cache.hit_ns", "ns", Lower),
    layer("storage.cache.miss_insert_ns", "ns", Lower),
    layer("storage.cache.hit_rate", "ratio", Higher),
    layer("storage.cache.evictions", "count", Lower),
    layer("storage.commit.append_publish_us_at_10k", "us", Lower),
    layer("storage.commit.view_head_ns", "ns", Lower),
    layer("storage.commit.log_walk_ns_per_commit", "ns", Lower),
    layer("storage.commit.common_ancestor_us_at_10k", "us", Lower),
    layer("storage.pmap.insert_ns_at_10k", "ns", Lower),
    layer("storage.pmap.get_ns_at_10k", "ns", Lower),
    layer("obs.span_on_ns", "ns", Lower),
    layer("obs.span_off_ns", "ns", Lower),
    layer("obs.counter_inc_ns", "ns", Lower),
    layer("obs.histogram_observe_ns", "ns", Lower),
    layer("bench.daemon_spawn_ms_p50", "ms", Lower),
    layer("bench.trace_cpu_overhead_share", "ratio", Lower),
];

/// Looks a definition up by name in all three tables.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .chain(DETAIL)
        .chain(LAYERS)
        .find(|d| d.name == name)
}

/// Name → value.
pub type Values = BTreeMap<&'static str, f64>;

fn ms(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Operations completed inside the measured window (at least one, so it
/// can divide).
fn completed(rep: &Rep) -> f64 {
    (rep.measured.attempted - rep.measured.failed).max(1) as f64
}

/// The end-to-end metrics of one repetition.
pub fn end_to_end_of(rep: &Rep) -> Values {
    let m = &rep.measured;
    Values::from([
        ("setup_s", rep.setup_s),
        ("ops_per_s", completed(rep) / rep.window_s),
        ("read_p50_us", ms(&m.read_us)),
        (
            "stored_bytes_per_user_byte",
            rep.physical_bytes as f64 / rep.logical_bytes.max(1) as f64,
        ),
        ("peak_rss_mib", rep.peak_rss_mib),
    ])
}

/// The [`DETAIL`] metrics of one repetition.
pub fn detail_of(rep: &Rep) -> Values {
    let m = &rep.measured;
    let tail = |v: &[f64], pct: f64| stats::tail(v, pct).map_or(0.0, |t| t.value);
    let merge_ms: Vec<f64> = m.merges.iter().map(|s| s.ms).collect();
    // Teams join inside the window on the cold workloads and during the
    // warm-up episode on the others.
    let joins = if m.join_ms.is_empty() {
        &rep.warmup.join_ms
    } else {
        &m.join_ms
    };
    // Only `serve_mixed` has a writer to be quiet from; with a single
    // client every read is a quiet read.
    let quiet = if rep.quiet.read_us.is_empty() {
        &m.read_us
    } else {
        &rep.quiet.read_us
    };
    let (attempted, failed) = rep.attempted_failed();
    Values::from([
        ("commit_mean_ms", mean(&m.commit_ms)),
        ("commit_p50_ms", ms(&m.commit_ms)),
        ("merge_p50_ms", ms(&merge_ms)),
        ("daemon_cpu_ms_per_op", rep.cpu_s * 1e3 / completed(rep)),
        ("join_p50_ms", ms(joins)),
        ("commit_p99_ms", tail(&m.commit_ms, 99.0)),
        ("merge_p99_ms", tail(&merge_ms, 99.0)),
        ("read_p95_us", tail(&m.read_us, 95.0)),
        ("read_quiet_p50_us", ms(quiet)),
        ("failed_ops_share", failed as f64 / attempted.max(1) as f64),
    ])
}

/// A metric across repetitions: the median, with the range it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// The middle half of the repetitions (never outside `min..max`):
    /// what `compare` takes for their spread, because the extremes of ten
    /// repetitions on a shared host span more than any bound.
    pub q1: f64,
    pub q3: f64,
    pub reps: Vec<f64>,
}

/// Median (with quartiles and min..max) of each metric across repetitions.
pub fn summarize(per_rep: &[Values]) -> BTreeMap<&'static str, Summary> {
    let mut out = BTreeMap::new();
    for name in per_rep.iter().flat_map(|v| v.keys()) {
        let reps: Vec<f64> = per_rep
            .iter()
            .filter_map(|v| v.get(name).copied())
            .collect();
        let (min, max) = stats::min_max(&reps).expect("the key came from a repetition");
        let (q1, q3) = stats::quartiles(&reps).unwrap_or((min, max));
        out.entry(*name).or_insert(Summary {
            value: stats::median(&reps).expect("non-empty"),
            min,
            max,
            q1: q1.max(min),
            q3: q3.min(max),
            reps,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_well_formed() {
        let all: Vec<&Def> = END_TO_END.iter().chain(DETAIL).chain(LAYERS).collect();
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
        for d in &all {
            assert!(
                d.name.len() <= 64
                    && d.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "set-up has the largest bound"
        );
        assert!(DETAIL.len() + LAYERS.len() <= 128);
    }

    #[test]
    fn summary_is_median_with_range() {
        let reps = [
            Values::from([("a", 3.0), ("b", 1.0)]),
            Values::from([("a", 1.0), ("b", 1.0)]),
            Values::from([("a", 2.0), ("b", 4.0)]),
        ];
        let s = summarize(&reps);
        assert_eq!((s["a"].value, s["a"].min, s["a"].max), (2.0, 1.0, 3.0));
        assert_eq!((s["a"].q1, s["a"].q3), (1.0, 3.0));
        let one = summarize(&reps[..1]);
        assert_eq!((one["a"].q1, one["a"].q3), (3.0, 3.0));
        assert_eq!(s["b"].value, 1.0);
        assert_eq!(s["a"].reps, vec![3.0, 1.0, 2.0]);
    }
}
