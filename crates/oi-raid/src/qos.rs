//! Foreground/rebuild QoS: a token-bucket throttle on rebuild reads.
//!
//! The rebuild engine competes with foreground I/O for the same spindles.
//! Unthrottled, a rebuild round saturates every surviving disk and
//! foreground latency collapses — the exact failure mode OI-RAID's
//! declustered layout is meant to avoid (claims C2/C5). The throttle caps
//! rebuild reads at a configurable rate (chunks per second) and is
//! *work-conserving*: it only engages while foreground requests have been
//! seen recently, so an idle array still rebuilds at full speed.
//!
//! A store starts unthrottled ([`QosConfig::default`]); callers set a rate
//! with [`crate::OiRaidStore::set_qos`], also while a rebuild runs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use telemetry::Sharded;

/// Rebuild-bandwidth policy for one store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosConfig {
    /// Maximum rebuild read rate in chunks per second while foreground
    /// traffic is active; `None` (or a non-positive rate) = unlimited.
    pub rebuild_chunks_per_sec: Option<f64>,
    /// Token-bucket capacity in chunks: how large a burst the rebuilder
    /// may issue after an idle period before pacing kicks in.
    pub burst_chunks: u32,
    /// How recently a foreground request must have arrived for the
    /// throttle to engage (work conservation: no foreground traffic in
    /// this window means the rebuild runs unthrottled).
    pub foreground_window: Duration,
}

impl Default for QosConfig {
    fn default() -> Self {
        Self {
            rebuild_chunks_per_sec: None,
            burst_chunks: 32,
            foreground_window: Duration::from_millis(100),
        }
    }
}

impl QosConfig {
    /// No throttling: rebuilds take all the bandwidth they can.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps rebuild reads at `chunks_per_sec` while foreground traffic is
    /// active.
    pub fn throttled(chunks_per_sec: f64) -> Self {
        Self {
            rebuild_chunks_per_sec: (chunks_per_sec > 0.0).then_some(chunks_per_sec),
            ..Self::default()
        }
    }
}

/// Point-in-time throttle counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QosCounters {
    /// Rebuild batches that had to sleep for tokens.
    pub throttle_waits: u64,
    /// Total time rebuild readers slept waiting for tokens, in
    /// nanoseconds.
    pub throttle_wait_ns: u64,
}

#[derive(Debug)]
struct Bucket {
    /// May go negative: a batch larger than the balance borrows against
    /// future refill, which is what paces steady-state throughput.
    tokens: f64,
    last_refill: Instant,
}

/// Shared throttle state: the store's foreground paths call
/// [`QosState::note_foreground`], rebuild readers call
/// [`QosState::throttle_rebuild`] before each batch of reads.
#[derive(Debug)]
pub(crate) struct QosState {
    cfg: Mutex<QosConfig>,
    bucket: Mutex<Bucket>,
    /// Per thread, one plus the nanoseconds since `epoch` of that
    /// thread's last foreground request (0 = never); the latest request
    /// of any thread is the largest cell. Each client stamps its own cache
    /// line.
    last_foreground: Sharded,
    epoch: Instant,
    waits: AtomicU64,
    wait_ns: AtomicU64,
}

impl Default for QosState {
    fn default() -> Self {
        Self::new(QosConfig::default())
    }
}

impl Clone for QosState {
    /// Cloned stores keep the policy but start with fresh counters and a
    /// full bucket.
    fn clone(&self) -> Self {
        Self::new(self.config())
    }
}

impl QosState {
    pub(crate) fn new(cfg: QosConfig) -> Self {
        let now = Instant::now();
        Self {
            bucket: Mutex::new(Bucket {
                tokens: cfg.burst_chunks as f64,
                last_refill: now,
            }),
            cfg: Mutex::new(cfg),
            last_foreground: Sharded::new(),
            epoch: now,
            waits: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn config(&self) -> QosConfig {
        *self.cfg.lock().expect("qos lock")
    }

    pub(crate) fn set_config(&self, cfg: QosConfig) {
        *self.cfg.lock().expect("qos lock") = cfg;
        let mut b = self.bucket.lock().expect("qos bucket");
        b.tokens = cfg.burst_chunks as f64;
        b.last_refill = Instant::now();
    }

    /// Nanoseconds since `epoch`, plus one so that 0 means never.
    fn stamp(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() as u64).saturating_add(1)
    }

    /// Stamps the arrival of a foreground request.
    pub(crate) fn note_foreground(&self) {
        self.last_foreground.store(self.stamp());
    }

    fn foreground_active(&self, window: Duration) -> bool {
        let last = self.last_foreground.max();
        if last == 0 {
            return false;
        }
        self.stamp().saturating_sub(last) <= window.as_nanos().min(u64::MAX as u128) as u64
    }

    /// Paces a rebuild batch of `chunks` reads. Sleeps only when a rate is
    /// configured *and* foreground traffic is active; the sleep per call is
    /// bounded so a reconfiguration takes effect promptly.
    pub(crate) fn throttle_rebuild(&self, chunks: usize) {
        let cfg = self.config();
        let Some(rate) = cfg.rebuild_chunks_per_sec else {
            return;
        };
        if rate <= 0.0 || chunks == 0 || !self.foreground_active(cfg.foreground_window) {
            return;
        }
        let wait = {
            let mut b = self.bucket.lock().expect("qos bucket");
            let dt = b.last_refill.elapsed();
            b.last_refill += dt;
            b.tokens = (b.tokens + dt.as_secs_f64() * rate).min(cfg.burst_chunks as f64);
            b.tokens -= chunks as f64;
            if b.tokens >= 0.0 {
                return;
            }
            Duration::from_secs_f64((-b.tokens / rate).min(1.0))
        };
        std::thread::sleep(wait);
        self.waits.fetch_add(1, Ordering::Relaxed);
        let wait_ns = wait.as_nanos().min(u64::MAX as u128) as u64;
        self.wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        telemetry::flight_event(telemetry::EventKind::ThrottleWait, chunks as u64, wait_ns);
    }

    pub(crate) fn counters(&self) -> QosCounters {
        QosCounters {
            throttle_waits: self.waits.load(Ordering::Relaxed),
            throttle_wait_ns: self.wait_ns.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_sleeps() {
        let q = QosState::new(QosConfig::unlimited());
        q.note_foreground();
        let began = Instant::now();
        for _ in 0..1000 {
            q.throttle_rebuild(8);
        }
        assert!(began.elapsed() < Duration::from_millis(50));
        assert_eq!(q.counters(), QosCounters::default());
    }

    #[test]
    fn idle_foreground_means_no_throttle() {
        let q = QosState::new(QosConfig::throttled(10.0));
        // No foreground request ever seen: full speed.
        let began = Instant::now();
        for _ in 0..200 {
            q.throttle_rebuild(4);
        }
        assert!(began.elapsed() < Duration::from_millis(50));
        assert_eq!(q.counters().throttle_waits, 0);
    }

    #[test]
    fn active_foreground_paces_rebuild_reads() {
        let mut cfg = QosConfig::throttled(2000.0);
        cfg.burst_chunks = 4;
        let q = QosState::new(cfg);
        q.note_foreground();
        let began = Instant::now();
        // 100 chunks at 2000/s with a 4-chunk burst: ≥ ~45 ms of pacing.
        for _ in 0..25 {
            q.throttle_rebuild(4);
        }
        let c = q.counters();
        assert!(c.throttle_waits > 0, "{c:?}");
        assert!(
            began.elapsed() >= Duration::from_millis(30),
            "paced to ~50ms, took {:?}",
            began.elapsed()
        );
    }

    #[test]
    fn stale_foreground_activity_expires() {
        let mut cfg = QosConfig::throttled(10.0);
        cfg.foreground_window = Duration::from_millis(20);
        let q = QosState::new(cfg);
        q.note_foreground();
        std::thread::sleep(Duration::from_millis(40));
        let began = Instant::now();
        for _ in 0..50 {
            q.throttle_rebuild(8);
        }
        assert!(
            began.elapsed() < Duration::from_millis(50),
            "window expired"
        );
    }

    #[test]
    fn a_foreground_stamp_on_one_thread_paces_a_rebuild_on_another() {
        let mut cfg = QosConfig::throttled(2000.0);
        cfg.burst_chunks = 4;
        let q = QosState::new(cfg);
        std::thread::scope(|s| {
            s.spawn(|| q.note_foreground());
        });
        let began = Instant::now();
        let c = std::thread::scope(|s| {
            s.spawn(|| {
                // Same pacing as above: 100 chunks at 2000/s after a
                // 4-chunk burst.
                for _ in 0..25 {
                    q.throttle_rebuild(4);
                }
                q.counters()
            })
            .join()
            .expect("rebuild thread")
        });
        assert!(c.throttle_waits > 0, "{c:?}");
        assert!(
            began.elapsed() >= Duration::from_millis(30),
            "paced to ~50ms, took {:?}",
            began.elapsed()
        );
    }

    #[test]
    fn stamps_from_several_threads_all_expire() {
        let mut cfg = QosConfig::throttled(10.0);
        cfg.foreground_window = Duration::from_millis(20);
        cfg.burst_chunks = 1;
        let q = QosState::new(cfg);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| q.note_foreground());
            }
        });
        q.note_foreground();
        assert!(q.foreground_active(cfg.foreground_window), "fresh stamps");
        std::thread::sleep(Duration::from_millis(40));
        assert!(
            !q.foreground_active(cfg.foreground_window),
            "every thread's stamp is older than the window"
        );
        let began = Instant::now();
        for _ in 0..50 {
            q.throttle_rebuild(8);
        }
        assert!(
            began.elapsed() < Duration::from_millis(50),
            "window expired"
        );
        assert_eq!(q.counters().throttle_waits, 0);
    }

    #[test]
    fn throttled_rejects_non_positive_rates() {
        assert_eq!(QosConfig::default().rebuild_chunks_per_sec, None);
        assert_eq!(
            QosConfig::throttled(500.0).rebuild_chunks_per_sec,
            Some(500.0)
        );
        assert_eq!(QosConfig::throttled(0.0).rebuild_chunks_per_sec, None);
        assert_eq!(QosConfig::throttled(-3.0).rebuild_chunks_per_sec, None);
    }
}
