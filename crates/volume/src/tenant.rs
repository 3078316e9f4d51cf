//! Tenant QoS classes and per-tenant accounting.
//!
//! A tenant owns volumes and carries a [`TenantClass`]: an optional *rate
//! cap* enforced by a token bucket at submission time, and an optional
//! latency SLO. Capped tenants pace **themselves** (the submitting thread
//! sleeps before any of its ops is served, reads included, or enters the
//! shard queues), so a throttled tenant can never hold a drain slot
//! hostage — the isolation model E19c measures. The drain itself knows no
//! tenants: a shard's writes are served in arrival order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use telemetry::{Histogram, Sharded};

use crate::slo::{SloPolicy, SloTracker};

/// Identifies a tenant within one [`VolumeManager`](crate::VolumeManager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// The tenant's index (registration order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A tenant's QoS class: an optional rate cap plus an optional SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantClass {
    /// Optional hard cap on submitted operations per second, enforced by a
    /// token bucket at submission time. `None` = uncapped.
    pub rate_ops_per_sec: Option<f64>,
    /// Bucket depth for capped tenants: how many ops may burst through
    /// before pacing engages.
    pub burst_ops: f64,
    /// Optional latency SLO. When set, every completed request is
    /// classified good/bad against the objective and exported as the
    /// `oi_slo_*` series (see [`crate::slo`]).
    pub slo: Option<SloPolicy>,
}

impl Default for TenantClass {
    fn default() -> Self {
        Self {
            rate_ops_per_sec: None,
            burst_ops: 64.0,
            slo: None,
        }
    }
}

impl TenantClass {
    /// A class capped at `ops_per_sec`.
    pub fn capped(ops_per_sec: f64) -> Self {
        Self {
            rate_ops_per_sec: Some(ops_per_sec),
            ..Self::default()
        }
    }

    /// Attaches a latency SLO to this class.
    pub fn with_slo(mut self, slo: SloPolicy) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// Token-bucket state for one capped tenant.
#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// One registered tenant: class, token bucket, and live metrics.
#[derive(Debug)]
pub(crate) struct Tenant {
    /// Registration index, used as the flight-event payload when the rate
    /// cap forces a wait.
    pub(crate) id: usize,
    pub(crate) name: String,
    pub(crate) class: TenantClass,
    bucket: Mutex<Bucket>,
    pub(crate) reads: Sharded,
    pub(crate) writes: Sharded,
    pub(crate) absorbed_reads: Sharded,
    pub(crate) throttle_waits: AtomicU64,
    pub(crate) throttle_wait_ns: AtomicU64,
    pub(crate) read_latency: Arc<Histogram>,
    pub(crate) write_latency: Arc<Histogram>,
    pub(crate) slo: Option<SloTracker>,
}

impl Tenant {
    pub(crate) fn new(id: usize, name: &str, class: TenantClass) -> Self {
        Self {
            id,
            name: name.to_string(),
            class,
            bucket: Mutex::new(Bucket {
                tokens: class.burst_ops,
                last: Instant::now(),
            }),
            reads: Sharded::new(),
            writes: Sharded::new(),
            absorbed_reads: Sharded::new(),
            throttle_waits: AtomicU64::new(0),
            throttle_wait_ns: AtomicU64::new(0),
            read_latency: Arc::new(Histogram::new()),
            write_latency: Arc::new(Histogram::new()),
            slo: class.slo.map(SloTracker::new),
        }
    }

    /// Pays `n` ops out of the rate cap, sleeping the submitting thread
    /// until the bucket can cover them. No-op for uncapped tenants.
    pub(crate) fn pay(&self, n: u64) {
        let Some(rate) = self.class.rate_ops_per_sec else {
            return;
        };
        if rate <= 0.0 || n == 0 {
            return;
        }
        let need = n as f64;
        let wait = {
            let mut b = self.bucket.lock().expect("tenant bucket lock");
            let now = Instant::now();
            let dt = now.duration_since(b.last).as_secs_f64();
            b.last = now;
            b.tokens = (b.tokens + dt * rate).min(self.class.burst_ops.max(need));
            // The bucket may go negative (we borrow); the sleep below covers
            // exactly the borrowed amount, and the next refill starts from
            // the debt — otherwise the slept time would be credited twice.
            b.tokens -= need;
            if b.tokens >= 0.0 {
                Duration::ZERO
            } else {
                Duration::from_secs_f64(-b.tokens / rate)
            }
        };
        if !wait.is_zero() {
            self.throttle_waits.fetch_add(1, Ordering::Relaxed);
            self.throttle_wait_ns
                .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
            telemetry::flight_event(
                telemetry::EventKind::TenantCapWait,
                self.id as u64,
                wait.as_nanos().min(u64::MAX as u128) as u64,
            );
            std::thread::sleep(wait);
        }
    }

    pub(crate) fn record_read(&self, took: Duration) {
        self.reads.add(1);
        self.read_latency.record_duration(took);
        if let Some(slo) = &self.slo {
            slo.record_read(took);
        }
    }

    pub(crate) fn record_write(&self, took: Duration) {
        self.writes.add(1);
        self.write_latency.record_duration(took);
        if let Some(slo) = &self.slo {
            slo.record_write(took);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncapped_tenant_never_sleeps() {
        let t = Tenant::new(0, "free", TenantClass::default());
        let start = Instant::now();
        t.pay(1_000_000);
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(t.throttle_waits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn capped_tenant_paces_to_its_rate() {
        // 1000 ops/s, burst 10: paying 60 ops must take roughly 50ms.
        let t = Tenant::new(
            0,
            "slow",
            TenantClass {
                rate_ops_per_sec: Some(1000.0),
                burst_ops: 10.0,
                ..TenantClass::default()
            },
        );
        let start = Instant::now();
        for _ in 0..6 {
            t.pay(10);
        }
        let took = start.elapsed();
        assert!(took >= Duration::from_millis(35), "took {took:?}");
        assert!(t.throttle_waits.load(Ordering::Relaxed) > 0);
    }
}
