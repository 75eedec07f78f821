//! # mlcask-obs
//!
//! Unified telemetry for the MLCask stack: a sharded, lock-cheap
//! [`MetricsRegistry`] of named counters, gauges, and fixed-bound
//! histograms (exported in Prometheus text format), plus lightweight span
//! tracing — [`span!`] guards record durations into histograms and into a
//! bounded ring-buffer [`FlightRecorder`] of recent
//! spans, dumpable as chrome-trace JSONL.
//!
//! ## The determinism boundary
//!
//! Everything in this crate is a **read-only side channel**. The repo's
//! invariant — reports, ledgers, tenant accounting, and served scripts are
//! byte-identical at workers {1, 2, 8} — must hold with tracing on, off,
//! and at any recorder capacity, so:
//!
//! * nothing here is ever serialized into a determinism observable;
//! * wall-clock times are captured only at the recorder boundary (when a
//!   [`span!`] guard drops into the [`FlightRecorder`]), never returned to
//!   instrumented code;
//! * a [`span!`] guard's only effect on the instrumented path is one
//!   `Instant::now()` pair and a handful of relaxed atomics.
//!
//! ## Quick tour
//!
//! ```
//! use mlcask_obs::metrics::{MetricsRegistry, LATENCY_SECONDS};
//!
//! let reg = MetricsRegistry::global();
//! let hits = reg.counter("doc_cache_hits_total", "Cache hits", &[("shard", "0")]);
//! hits.inc();
//! let lat = reg.histogram(
//!     "doc_request_seconds",
//!     "Request latency",
//!     &[("method", "ping")],
//!     LATENCY_SECONDS,
//! );
//! lat.observe(0.0042);
//! {
//!     // Records its duration when dropped.
//!     let _guard = mlcask_obs::span!("doc.work", "tenant" => "alice");
//! }
//! let text = reg.render_prometheus();
//! assert!(text.contains("doc_cache_hits_total{shard=\"0\"} 1"));
//! ```
//!
//! ## Environment
//!
//! The telemetry here reads none: the recorder starts with spans on at
//! [`trace::DEFAULT_CAPACITY`]. [`config`] is where a process's `MLCASK_*`
//! variables become a typed [`config::Config`], once, at its boundary.

#![forbid(unsafe_code)]

pub mod config;
pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use trace::{FlightRecorder, Span, SpanRecord};

/// Opens a span guard recording its scope's duration when dropped.
///
/// The first argument is the span name (`&'static str`); optional
/// `"key" => value` pairs attach labels (values via `ToString`). When span
/// recording is disabled the macro skips label construction entirely and
/// returns an inert guard. Each call site resolves its
/// `mlcask_span_seconds` histogram once ([`trace::SpanSite`]), however
/// many spans it records.
///
/// ```
/// let _span = mlcask_obs::span!("merge.search", "tenant" => "alice");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::trace::enabled() {
            static SITE: $crate::trace::SpanSite = $crate::trace::SpanSite::new();
            $crate::trace::Span::begin(&SITE, $name, ::std::vec::Vec::new())
        } else {
            $crate::trace::Span::disabled()
        }
    };
    ($name:expr, $($k:expr => $v:expr),+ $(,)?) => {
        if $crate::trace::enabled() {
            static SITE: $crate::trace::SpanSite = $crate::trace::SpanSite::new();
            $crate::trace::Span::begin(
                &SITE,
                $name,
                ::std::vec![$(($k, ::std::string::ToString::to_string(&$v))),+],
            )
        } else {
            $crate::trace::Span::disabled()
        }
    };
}
