//! Admission control and per-tenant rate limiting.
//!
//! Three independent knobs, each optional (absent = unlimited):
//!
//! * **session cap** — `session.open` beyond the cap is refused with
//!   [`crate::protocol::ADMISSION_DENIED`]; existing sessions are
//!   untouched.
//! * **in-flight cap** — server-wide backpressure: at most N operations
//!   executing at once, the rest refused with
//!   `crate::protocol::OVERLOADED` (clients retry).
//! * **per-tenant token bucket** — each tenant name refills at `per_sec`
//!   tokens up to `burst`; an op costs one token. A hot writer exhausting
//!   its bucket is throttled with `crate::protocol::RATE_LIMITED`
//!   without slowing the read-heavy tail of other tenants.
//!
//! The limits layer sits *in front of* the storage-level
//! [`QuotaPolicy`](mlcask_storage::tenant::QuotaPolicy): quotas bound how
//! many bytes a tenant may ever persist, admission bounds how fast it may
//! ask. Deterministic runs (the identity sweep, the tests) use
//! [`AdmissionControl::unlimited`], which never consults a clock.

use crate::protocol::{Failure, ADMISSION_DENIED, OVERLOADED, RATE_LIMITED};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Token-bucket parameters applied per tenant name.
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Bucket capacity (maximum burst of back-to-back ops).
    pub burst: f64,
    /// Refill rate in tokens per second.
    pub per_sec: f64,
}

/// The admission-control configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionControl {
    /// Cap on concurrently open sessions.
    pub max_sessions: Option<usize>,
    /// Cap on operations executing at once, server-wide.
    pub max_inflight: Option<usize>,
    /// Per-tenant token bucket.
    pub per_tenant_rate: Option<RateLimit>,
}

impl AdmissionControl {
    /// No limits and no clock reads — the deterministic configuration.
    pub fn unlimited() -> AdmissionControl {
        AdmissionControl::default()
    }
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Runtime state enforcing an [`AdmissionControl`] configuration.
#[derive(Debug)]
pub(crate) struct Limiter {
    cfg: AdmissionControl,
    open_sessions: AtomicUsize,
    inflight: AtomicUsize,
    buckets: Mutex<HashMap<String, Bucket>>,
    /// Sessions refused by the session cap.
    pub(crate) sessions_refused: AtomicU64,
    /// Ops refused by the in-flight cap.
    pub(crate) ops_shed: AtomicU64,
    /// Ops refused by a tenant's token bucket.
    pub(crate) ops_throttled: AtomicU64,
}

impl Limiter {
    /// A limiter enforcing `cfg`.
    pub(crate) fn new(cfg: AdmissionControl) -> Limiter {
        Limiter {
            cfg,
            open_sessions: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            buckets: Mutex::new(HashMap::new()),
            sessions_refused: AtomicU64::new(0),
            ops_shed: AtomicU64::new(0),
            ops_throttled: AtomicU64::new(0),
        }
    }

    /// Currently open sessions.
    pub(crate) fn open_sessions(&self) -> usize {
        self.open_sessions.load(Ordering::Relaxed)
    }

    /// Admits a new session or refuses with `ADMISSION_DENIED`.
    pub(crate) fn open_session(&self) -> Result<(), Failure> {
        if let Some(cap) = self.cfg.max_sessions {
            // Optimistic increment with rollback keeps this lock-free.
            let prev = self.open_sessions.fetch_add(1, Ordering::AcqRel);
            if prev >= cap {
                self.open_sessions.fetch_sub(1, Ordering::AcqRel);
                self.sessions_refused.fetch_add(1, Ordering::Relaxed);
                return Err(Failure::new(
                    ADMISSION_DENIED,
                    format!("session cap reached ({cap})"),
                ));
            }
        } else {
            self.open_sessions.fetch_add(1, Ordering::AcqRel);
        }
        Ok(())
    }

    /// Releases a session slot.
    pub(crate) fn close_session(&self) {
        self.open_sessions.fetch_sub(1, Ordering::AcqRel);
    }

    /// Admits one operation for `tenant`, returning a guard that releases
    /// the in-flight slot on drop.
    pub(crate) fn begin_op(&self, tenant: &str) -> Result<OpGuard<'_>, Failure> {
        if let Some(cap) = self.cfg.max_inflight {
            let prev = self.inflight.fetch_add(1, Ordering::AcqRel);
            if prev >= cap {
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                self.ops_shed.fetch_add(1, Ordering::Relaxed);
                return Err(Failure::new(
                    OVERLOADED,
                    format!("too many operations in flight (cap {cap})"),
                ));
            }
        } else {
            self.inflight.fetch_add(1, Ordering::AcqRel);
        }
        if let Some(rate) = self.cfg.per_tenant_rate {
            if !self.take_token(tenant, rate) {
                self.inflight.fetch_sub(1, Ordering::AcqRel);
                self.ops_throttled.fetch_add(1, Ordering::Relaxed);
                return Err(Failure::new(
                    RATE_LIMITED,
                    format!("tenant `{tenant}` rate limited"),
                ));
            }
        }
        Ok(OpGuard { limiter: self })
    }

    fn take_token(&self, tenant: &str, rate: RateLimit) -> bool {
        let now = Instant::now();
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(tenant.to_string()).or_insert(Bucket {
            tokens: rate.burst,
            last: now,
        });
        let elapsed = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * rate.per_sec).min(rate.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Releases one in-flight slot when dropped.
#[derive(Debug)]
pub(crate) struct OpGuard<'a> {
    limiter: &'a Limiter,
}

impl Drop for OpGuard<'_> {
    fn drop(&mut self) {
        self.limiter.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_cap_enforced() {
        let l = Limiter::new(AdmissionControl {
            max_sessions: Some(2),
            ..AdmissionControl::default()
        });
        l.open_session().unwrap();
        l.open_session().unwrap();
        let err = l.open_session().unwrap_err();
        assert_eq!(err.code, ADMISSION_DENIED);
        assert_eq!(l.sessions_refused.load(Ordering::Relaxed), 1);
        l.close_session();
        l.open_session().unwrap();
        assert_eq!(l.open_sessions(), 2);
    }

    #[test]
    fn inflight_cap_sheds_and_releases() {
        let l = Limiter::new(AdmissionControl {
            max_inflight: Some(1),
            ..AdmissionControl::default()
        });
        let g = l.begin_op("t").unwrap();
        assert_eq!(l.begin_op("t").unwrap_err().code, OVERLOADED);
        drop(g);
        let _g2 = l.begin_op("t").unwrap();
    }

    #[test]
    fn token_bucket_throttles_bursts_per_tenant() {
        let l = Limiter::new(AdmissionControl {
            per_tenant_rate: Some(RateLimit {
                burst: 3.0,
                per_sec: 0.0001, // effectively no refill within the test
            }),
            ..AdmissionControl::default()
        });
        for _ in 0..3 {
            l.begin_op("hot").unwrap();
        }
        assert_eq!(l.begin_op("hot").unwrap_err().code, RATE_LIMITED);
        // A different tenant has its own bucket.
        l.begin_op("cold").unwrap();
        assert_eq!(l.ops_throttled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn unlimited_never_refuses() {
        let l = Limiter::new(AdmissionControl::unlimited());
        for _ in 0..100 {
            l.open_session().unwrap();
            let _g = l.begin_op("x").unwrap();
        }
    }
}
