//! The metrics registry: named counters, gauges, and fixed-bound
//! histograms with labels, exported in Prometheus text format.
//!
//! # Design
//!
//! A *family* is a metric name plus its help string and kind; a *series*
//! is one family instantiated with a concrete label set. Series live in a
//! sharded `RwLock<HashMap>` keyed by `(name, sorted labels)` — the hot
//! path (an existing series being bumped) takes one shard read lock and
//! one hash probe, and the returned handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are `Arc`-backed, so instrumented structs hold them
//! directly and never touch the registry again.
//!
//! Per-instance metrics (two `CaskBackend`s in one test process must not
//! share a `blocking_syncs` series) disambiguate with an `instance` label
//! minted by [`instance_label`].
//!
//! # Scrape format
//!
//! [`MetricsRegistry::render_prometheus`] renders the classic text
//! exposition format: `# HELP` / `# TYPE` per family (sorted by name),
//! series sorted by label set, label values escaped (`\\`, `\"`, `\n`),
//! histograms as cumulative `_bucket{le="..."}` lines plus `_sum` and
//! `_count`.

use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Default latency bucket bounds, in seconds: 100 µs to 10 s, roughly
/// geometric. Shared by span histograms, server request latency, and the
/// cask fsync histograms so dashboards line up.
pub const LATENCY_SECONDS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Byte-size bucket bounds: 1 KiB to 64 MiB, ×4 steps.
pub const SIZE_BYTES: &[f64] = &[
    1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0, 67108864.0,
];

/// Mints a process-unique `instance` label value (`"<prefix>-N"`) so two
/// instances of one instrumented struct get distinct series.
pub fn instance_label(prefix: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    format!("{prefix}-{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a settable `f64` (stored as bits in an atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Replaces the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    /// Upper bounds of the finite buckets; an implicit `+Inf` bucket
    /// follows.
    bounds: Vec<f64>,
    /// One count per finite bound plus the overflow bucket
    /// (non-cumulative; render accumulates).
    buckets: Vec<AtomicU64>,
    /// Σ observed values, as `f64` bits updated by CAS.
    sum_bits: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bound histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A histogram registered nowhere, with the given finite bucket bounds
    /// (ascending; `+Inf` implicit) — for an instrument whose owner is not
    /// to appear in any scrape.
    pub fn new(bounds: &[f64]) -> Histogram {
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let core = &self.0;
        let idx = core
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(core.bounds.len());
        core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = core.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match core.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub(crate) fn sum(&self) -> f64 {
        f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Series {
    fn kind(&self) -> &'static str {
        match self {
            Series::Counter(_) => "counter",
            Series::Gauge(_) => "gauge",
            Series::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct SeriesKey {
    name: String,
    /// Sorted `(key, value)` pairs.
    labels: Vec<(String, String)>,
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: &'static str,
}

const SHARDS: usize = 8;

/// The registry of metric families and their series. See the
/// [module docs](self).
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: [RwLock<HashMap<SeriesKey, Series>>; SHARDS],
    families: Mutex<BTreeMap<String, Family>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry. Production code uses [`MetricsRegistry::global`];
    /// fresh registries exist for tests (the golden scrape test) and for
    /// embedding.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            families: Mutex::new(BTreeMap::new()),
        }
    }

    /// The process-wide registry every built-in instrument records into.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// The counter series `name{labels}`, registering it (and its family)
    /// on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, labels, || Series::Counter(Counter::default())) {
            Series::Counter(c) => c,
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge series `name{labels}`, registering it on first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, labels, || Series::Gauge(Gauge::default())) {
            Series::Gauge(g) => g,
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram series `name{labels}` with the given finite bucket
    /// bounds (ascending; `+Inf` implicit), registering it on first use.
    /// Bounds are fixed at first registration; later calls reuse them.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.series(name, help, labels, || {
            Series::Histogram(Histogram::new(bounds))
        }) {
            Series::Histogram(h) => h,
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        sorted.sort();
        let key = SeriesKey {
            name: name.to_string(),
            labels: sorted,
        };
        let shard = &self.shards[hash_of(&key) as usize % SHARDS];
        if let Some(existing) = shard.read().get(&key) {
            return existing.clone();
        }
        let mut map = shard.write();
        if let Some(existing) = map.get(&key) {
            return existing.clone();
        }
        let series = make();
        self.families
            .lock()
            .entry(name.to_string())
            .or_insert_with(|| Family {
                help: help.to_string(),
                kind: series.kind(),
            });
        map.insert(key, series.clone());
        series
    }

    /// All series of one family, sorted by label set.
    fn family_series(&self, name: &str) -> Vec<(Vec<(String, String)>, Series)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            for (key, series) in shard.read().iter() {
                if key.name == name {
                    out.push((key.labels.clone(), series.clone()));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Renders the whole registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let families: Vec<(String, String, &'static str)> = {
            let fams = self.families.lock();
            fams.iter()
                .map(|(name, f)| (name.clone(), f.help.clone(), f.kind))
                .collect()
        };
        let mut out = String::new();
        for (name, help, kind) in families {
            out.push_str(&format!("# HELP {name} {}\n", escape_help(&help)));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for (labels, series) in self.family_series(&name) {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(&labels, None),
                            c.get()
                        ));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!(
                            "{name}{} {}\n",
                            render_labels(&labels, None),
                            fmt_f64(g.get())
                        ));
                    }
                    Series::Histogram(h) => {
                        let core = &h.0;
                        let mut cum = 0u64;
                        for (i, bound) in core.bounds.iter().enumerate() {
                            cum += core.buckets[i].load(Ordering::Relaxed);
                            out.push_str(&format!(
                                "{name}_bucket{} {cum}\n",
                                render_labels(&labels, Some(&fmt_f64(*bound)))
                            ));
                        }
                        cum += core.buckets[core.bounds.len()].load(Ordering::Relaxed);
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            render_labels(&labels, Some("+Inf"))
                        ));
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            render_labels(&labels, None),
                            fmt_f64(h.sum())
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            render_labels(&labels, None),
                            h.count()
                        ));
                    }
                }
            }
        }
        out
    }

    /// A flat point-in-time snapshot: `("name{labels}", value)` per series,
    /// histograms contributing `_sum` and `_count` entries (buckets are
    /// omitted to keep embedded snapshots small). Sorted by series name.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let names: Vec<String> = self.families.lock().keys().cloned().collect();
        let mut out = Vec::new();
        for name in names {
            for (labels, series) in self.family_series(&name) {
                let rendered = render_labels(&labels, None);
                match series {
                    Series::Counter(c) => out.push((format!("{name}{rendered}"), c.get() as f64)),
                    Series::Gauge(g) => out.push((format!("{name}{rendered}"), g.get())),
                    Series::Histogram(h) => {
                        out.push((format!("{name}_sum{rendered}"), h.sum()));
                        out.push((format!("{name}_count{rendered}"), h.count() as f64));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

fn hash_of(key: &SeriesKey) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Help strings escape backslash and newline only.
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Renders `{k="v",...}` (with an optional trailing `le`), or the empty
/// string when there are no labels.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Prometheus-friendly float rendering (`1`, `0.25`, `+Inf` handled by the
/// caller; `NaN` rendered as `NaN`).
fn fmt_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t_total", "a counter", &[("k", "v")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Same (name, labels) resolves to the same series.
        assert_eq!(reg.counter("t_total", "a counter", &[("k", "v")]).get(), 3);
        let g = reg.gauge("t_gauge", "a gauge", &[]);
        g.set(0.25);
        assert_eq!(g.get(), 0.25);
        let h = reg.histogram("t_hist", "a histogram", &[], &[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(99.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 101.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("same_name", "", &[]);
        reg.gauge("same_name", "", &[]);
    }

    #[test]
    fn concurrent_bumps_are_exact() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        reg.counter("c_total", "", &[("t", "x")]).inc();
                        reg.histogram("h_sec", "", &[], LATENCY_SECONDS)
                            .observe(0.001);
                    }
                });
            }
        });
        assert_eq!(reg.counter("c_total", "", &[("t", "x")]).get(), 8000);
        assert_eq!(
            reg.histogram("h_sec", "", &[], LATENCY_SECONDS).count(),
            8000
        );
    }

    #[test]
    fn instance_labels_are_unique() {
        let a = instance_label("cask");
        let b = instance_label("cask");
        assert_ne!(a, b);
    }

    #[test]
    fn escaping() {
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(escape_help("h\\x\ny"), "h\\\\x\\ny");
    }
}
