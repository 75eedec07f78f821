//! Span tracing: scope guards feeding duration histograms and a bounded
//! ring-buffer **flight recorder** of recent spans.
//!
//! A [`Span`] (usually opened via the [`span!`](crate::span) macro) holds
//! a monotonic start instant; on drop it reports its duration to the
//! recorder, which
//!
//! 1. observes it into the `mlcask_span_seconds{span="<name>"}` histogram
//!    in the global [`MetricsRegistry`],
//! 2. emits a rate-limited slow-op log line when the duration exceeds the
//!    configured threshold, and
//! 3. pushes a [`SpanRecord`] — monotonic sequence id, labels, duration,
//!    and the **only** wall-clock read in the whole path — onto the ring.
//!
//! Wall time is captured here, at the recorder boundary, precisely so no
//! deterministic computation can observe it: instrumented code sees only
//! the inert guard. Capacity 0 keeps histograms and sequence ids but
//! retains no spans; disabling span recording altogether makes the
//! [`span!`](crate::span) macro return an inert guard without building
//! labels.
//!
//! The ring dumps as [chrome-trace JSONL](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! (`chrome://tracing`, Perfetto) via [`FlightRecorder::dump_chrome_trace`];
//! the daemon does so when its transport loop exits, if `MLCASK_TRACE` named
//! a path.

use crate::metrics::{Histogram, MetricsRegistry, LATENCY_SECONDS};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime};

/// Default flight-recorder capacity.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One completed span retained by the recorder.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Monotonic sequence id (1-based, process-wide, advances even when
    /// the ring retains nothing).
    pub seq: u64,
    /// Span name.
    pub name: &'static str,
    /// Labels attached at the span site.
    pub labels: Vec<(&'static str, String)>,
    /// Small dense id of the recording thread.
    pub thread: u64,
    /// Wall-clock completion time (µs since the Unix epoch), captured at
    /// the recorder boundary.
    pub end_unix_micros: u64,
    /// Measured (monotonic) duration.
    pub duration_nanos: u64,
}

/// The bounded ring buffer of recent spans. See the [module docs](self).
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    capacity: AtomicUsize,
    seq: AtomicU64,
    slow_threshold_nanos: AtomicU64,
    ring: Mutex<VecDeque<SpanRecord>>,
    slow_last_log: Mutex<HashMap<&'static str, Instant>>,
}

/// The process-wide recorder: spans on, [`DEFAULT_CAPACITY`], no slow-span
/// threshold, until someone calls [`FlightRecorder::configure`] or
/// [`FlightRecorder::set_slow_threshold`] (the daemon does, from its
/// [`Config`](crate::config::Config)).
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(FlightRecorder::new)
}

/// Whether span recording is currently enabled (the [`span!`](crate::span)
/// macro's fast-path check).
pub fn enabled() -> bool {
    recorder().is_enabled()
}

impl FlightRecorder {
    fn new() -> FlightRecorder {
        FlightRecorder {
            enabled: AtomicBool::new(true),
            capacity: AtomicUsize::new(DEFAULT_CAPACITY),
            seq: AtomicU64::new(0),
            slow_threshold_nanos: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            slow_last_log: Mutex::new(HashMap::new()),
        }
    }

    /// Whether spans are recorded at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Reconfigures recording and ring capacity (shrinking drops the
    /// oldest retained spans). Used by the determinism sweep to iterate
    /// tracing-on/off × capacity cells within one process.
    pub fn configure(&self, enabled: bool, capacity: usize) {
        self.enabled.store(enabled, Ordering::Relaxed);
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut ring = self.ring.lock();
        while ring.len() > capacity {
            ring.pop_front();
        }
    }

    /// Sets (or clears) the slow-span log threshold.
    pub fn set_slow_threshold(&self, threshold: Option<Duration>) {
        let nanos = threshold.map(|d| d.as_nanos() as u64).unwrap_or(0);
        self.slow_threshold_nanos.store(nanos, Ordering::Relaxed);
    }

    /// Configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Total spans ever recorded (= the latest sequence id).
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Records one completed span from a [`span!`](crate::span) call site,
    /// whose histogram the site resolves once. Reads the wall clock — the
    /// only place in the tracing path that does.
    fn record(
        &self,
        site: &SpanSite,
        name: &'static str,
        labels: Vec<(&'static str, String)>,
        duration: Duration,
    ) {
        if !self.is_enabled() {
            return;
        }
        site.observe(name, duration);
        let threshold = self.slow_threshold_nanos.load(Ordering::Relaxed);
        let duration_nanos = duration.as_nanos().min(u64::MAX as u128) as u64;
        if threshold > 0 && duration_nanos >= threshold {
            self.log_slow(name, &labels, duration);
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let capacity = self.capacity.load(Ordering::Relaxed);
        if capacity == 0 {
            return;
        }
        let end_unix_micros = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let record = SpanRecord {
            seq,
            name,
            labels,
            thread: thread_id(),
            end_unix_micros,
            duration_nanos,
        };
        let mut ring = self.ring.lock();
        while ring.len() >= capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// At most one slow-span line per span name per second, to stderr.
    fn log_slow(&self, name: &'static str, labels: &[(&'static str, String)], d: Duration) {
        let mut last = self.slow_last_log.lock();
        let now = Instant::now();
        if let Some(prev) = last.get(name) {
            if now.duration_since(*prev) < Duration::from_secs(1) {
                return;
            }
        }
        last.insert(name, now);
        drop(last);
        let labels = labels
            .iter()
            .map(|(k, v)| format!(" {k}={v}"))
            .collect::<String>();
        eprintln!(
            "[mlcask_obs] slow span {name} took {:.1} ms{labels}",
            d.as_secs_f64() * 1e3
        );
    }

    /// The most recent `n` retained spans, oldest first.
    pub fn recent(&self, n: usize) -> Vec<SpanRecord> {
        let ring = self.ring.lock();
        let skip = ring.len().saturating_sub(n);
        ring.iter().skip(skip).cloned().collect()
    }

    /// The `n` slowest retained spans, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<SpanRecord> {
        let mut all: Vec<SpanRecord> = self.ring.lock().iter().cloned().collect();
        all.sort_by(|a, b| {
            b.duration_nanos
                .cmp(&a.duration_nanos)
                .then(a.seq.cmp(&b.seq))
        });
        all.truncate(n);
        all
    }

    /// Dumps the retained spans as chrome-trace JSONL (one complete `"X"`
    /// event per line, timestamps in µs) and returns how many were
    /// written. Load the file in `chrome://tracing` or Perfetto.
    pub fn dump_chrome_trace(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        let spans = self.recent(usize::MAX);
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let dur_us = s.duration_nanos as f64 / 1e3;
            let ts_us = s.end_unix_micros as f64 - dur_us;
            let mut args = format!("\"seq\":{}", s.seq);
            for (k, v) in &s.labels {
                args.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            writeln!(
                file,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},\"dur\":{dur_us:.3},\"args\":{{{args}}}}}",
                json_escape(s.name),
                s.thread,
            )?;
        }
        file.flush()?;
        Ok(spans.len())
    }
}

fn json_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Small dense per-thread id (1-based, assigned on first use).
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    ID.with(|cell| {
        if cell.get() == 0 {
            cell.set(NEXT.fetch_add(1, Ordering::Relaxed) + 1);
        }
        cell.get()
    })
}

/// The `mlcask_span_seconds{span="<name>"}` histogram, looked up by name.
fn span_histogram(name: &'static str) -> Histogram {
    MetricsRegistry::global().histogram(
        "mlcask_span_seconds",
        "Span durations by span name",
        &[("span", name)],
        LATENCY_SECONDS,
    )
}

/// One [`span!`](crate::span) call site: the histogram of the first name it
/// records, resolved then and read from here after, so a span's drop looks
/// nothing up by name. A site whose name is a runtime value observes any
/// other name through a lookup.
#[derive(Debug)]
pub struct SpanSite {
    histogram: OnceLock<(&'static str, Histogram)>,
}

impl SpanSite {
    /// A site that has resolved nothing yet (the macro's `static`).
    pub const fn new() -> SpanSite {
        SpanSite {
            histogram: OnceLock::new(),
        }
    }

    fn observe(&self, name: &'static str, duration: Duration) {
        let (resolved, histogram) = self.histogram.get_or_init(|| (name, span_histogram(name)));
        if *resolved == name {
            histogram.observe_duration(duration);
        } else {
            span_histogram(name).observe_duration(duration);
        }
    }
}

impl Default for SpanSite {
    fn default() -> Self {
        SpanSite::new()
    }
}

/// A scope guard reporting its lifetime to the flight recorder on drop.
/// Open via the [`span!`](crate::span) macro.
#[derive(Debug)]
pub struct Span {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    site: &'static SpanSite,
    name: &'static str,
    labels: Vec<(&'static str, String)>,
    start: Instant,
}

impl Span {
    /// Starts a live span at a [`span!`](crate::span) call site, which
    /// resolves its histogram once.
    pub fn begin(
        site: &'static SpanSite,
        name: &'static str,
        labels: Vec<(&'static str, String)>,
    ) -> Span {
        Span {
            active: Some(ActiveSpan {
                site,
                name,
                labels,
                start: Instant::now(),
            }),
        }
    }

    /// An inert guard (recording disabled).
    pub fn disabled() -> Span {
        Span { active: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let elapsed = active.start.elapsed();
            recorder().record(active.site, active.name, active.labels, elapsed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_recorder(capacity: usize) -> FlightRecorder {
        let r = FlightRecorder::new();
        r.configure(true, capacity);
        r
    }

    #[test]
    fn ring_bounds_and_monotonic_seq() {
        let r = test_recorder(4);
        let site = SpanSite::new();
        for i in 0..10u64 {
            r.record(
                &site,
                "t.span",
                vec![("i", i.to_string())],
                Duration::from_micros(i),
            );
        }
        let recent = r.recent(100);
        assert_eq!(recent.len(), 4, "capacity bounds the ring");
        let seqs: Vec<u64> = recent.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10], "oldest evicted, seq monotonic");
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn capacity_zero_keeps_counting_but_retains_nothing() {
        let r = test_recorder(0);
        let site = SpanSite::new();
        r.record(&site, "t.zero", vec![], Duration::from_micros(5));
        assert_eq!(r.recorded(), 1);
        assert!(r.recent(10).is_empty());
    }

    #[test]
    fn slowest_sorts_by_duration() {
        let r = test_recorder(16);
        let site = SpanSite::new();
        for d in [3u64, 9, 1, 7] {
            r.record(&site, "t.slowest", vec![], Duration::from_millis(d));
        }
        let top = r.slowest(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].duration_nanos >= top[1].duration_nanos);
        assert_eq!(top[0].duration_nanos, 9_000_000);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let r = recorder();
        r.configure(true, 64);
        let before = r.recorded();
        {
            let _span = crate::span!("t.guard", "k" => 42);
        }
        assert_eq!(r.recorded(), before + 1);
        let last = r.recent(1).pop().expect("span retained");
        assert_eq!(last.name, "t.guard");
        assert_eq!(last.labels, vec![("k", "42".to_string())]);
    }

    /// A site keeps the first name's histogram; a runtime name that differs
    /// still lands in its own.
    #[test]
    fn a_span_site_keeps_its_first_histogram_and_names_apart() {
        static SITE: SpanSite = SpanSite::new();
        for name in ["t.site.first", "t.site.second", "t.site.first"] {
            SITE.observe(name, Duration::from_micros(3));
        }
        let count = |name| span_histogram(name).count();
        assert_eq!((count("t.site.first"), count("t.site.second")), (2, 1));
        let resolved = SITE.histogram.get().map(|(name, _)| *name);
        assert_eq!(resolved, Some("t.site.first"));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let r = test_recorder(8);
        let site = SpanSite::new();
        r.configure(false, 8);
        r.record(&site, "t.disabled", vec![], Duration::from_micros(1));
        assert_eq!(r.recorded(), 0);
    }

    #[test]
    fn chrome_trace_dump_is_valid_jsonl() {
        let r = test_recorder(8);
        let site = SpanSite::new();
        r.record(
            &site,
            "t.dump",
            vec![("tenant", "a\"b".to_string())],
            Duration::from_micros(250),
        );
        let path =
            std::env::temp_dir().join(format!("mlcask-obs-trace-{}.jsonl", std::process::id()));
        let n = r.dump_chrome_trace(&path).expect("dump writes");
        assert_eq!(n, 1);
        let text = std::fs::read_to_string(&path).expect("trace readable");
        let line = text.lines().next().expect("one event line");
        assert!(line.contains("\"ph\":\"X\""));
        assert!(line.contains("\"name\":\"t.dump\""));
        assert!(line.contains("a\\\"b"));
        let _ = std::fs::remove_file(&path);
    }
}
