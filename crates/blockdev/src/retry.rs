//! Bounded retry with deterministic backoff around any [`BlockDevice`].
//!
//! The rebuild engine must not die on the first transient fault — real
//! arrays spend their rebuild windows in exactly the regime where reads
//! time out and sectors go latent. This module provides the policy
//! (attempt bound + exponential backoff schedule) and a thin shared-read
//! wrapper, [`RetryReader`], that the engine layers over every plan read.
//! Failures are *classified* ([`DeviceError::class`]): transients are
//! retried up to the bound, permanents (latent sector errors, dead
//! devices) surface immediately so the planner can re-route around them.
//!
//! Coalesced multi-chunk runs degrade instead of poisoning the batch:
//! [`RetryReader::read_chunks_degrading`] retries the whole run while the
//! failure is transient, then falls back to per-chunk reads (each with its
//! own retry budget) so one bad sector costs one chunk, not the run.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::{BlockDevice, DeviceError};

/// Bounded-retry policy with deterministic exponential backoff.
///
/// Attempt `n` (1-based) that fails transiently sleeps
/// `base_backoff * 2^(n-1)` (capped at `max_backoff`) before attempt
/// `n + 1`. The schedule is a pure function of the policy, so fault-
/// injection experiments stay reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (1 = no retries). Never 0; a 0 passed
    /// in is treated as 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// No retries at all: fail on the first error, never sleep.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// `attempts` tries with zero backoff — what tests use to exercise the
    /// retry path without wall-clock cost.
    pub fn immediate(attempts: u32) -> Self {
        Self {
            max_attempts: attempts.max(1),
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// The sleep before retry number `retry` (1-based).
    ///
    /// Saturates: once the doubling series overflows the shift width, the
    /// factor clamps to `u32::MAX` (and the product to `max_backoff`), so
    /// arbitrarily high retry counts always sleep the cap — never zero.
    pub fn backoff(&self, retry: u32) -> Duration {
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let shift = retry.saturating_sub(1);
        let factor = if shift >= u32::BITS {
            u32::MAX
        } else {
            1u32 << shift
        };
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }
}

/// Per-device retry counters (atomics: shared with reader threads).
#[derive(Debug, Default)]
pub struct RetryStats {
    retries: AtomicU64,
    exhausted: AtomicU64,
    backoff_ns: AtomicU64,
}

impl RetryStats {
    /// Records one retry and the backoff slept before it.
    pub fn record_retry(&self, backoff: Duration) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        self.backoff_ns.fetch_add(
            backoff.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
    }

    /// Records an operation that stayed transient through its whole budget.
    pub fn record_exhausted(&self) {
        self.exhausted.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> RetryCounters {
        RetryCounters {
            retries: self.retries.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            backoff_ns: self.backoff_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`RetryStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Individual retried attempts (3 tries of one read = 2 retries).
    pub retries: u64,
    /// Operations that used their whole attempt budget and still failed
    /// transiently.
    pub exhausted: u64,
    /// Total backoff slept, in nanoseconds.
    pub backoff_ns: u64,
}

impl RetryCounters {
    /// Sums two snapshots (for aggregating per-device stats).
    pub fn merged(&self, other: &RetryCounters) -> RetryCounters {
        RetryCounters {
            retries: self.retries + other.retries,
            exhausted: self.exhausted + other.exhausted,
            backoff_ns: self.backoff_ns + other.backoff_ns,
        }
    }
}

fn retry_op<T>(
    policy: &RetryPolicy,
    stats: &RetryStats,
    chunk: usize,
    mut op: impl FnMut() -> Result<T, DeviceError>,
) -> Result<T, DeviceError> {
    let attempts = policy.attempts();
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < attempts => {
                let backoff = policy.backoff(attempt);
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                stats.record_retry(backoff);
                telemetry::flight_event(telemetry::EventKind::Retry, chunk as u64, attempt as u64);
                attempt += 1;
            }
            Err(e) => {
                if e.is_transient() {
                    stats.record_exhausted();
                    telemetry::flight_event(
                        telemetry::EventKind::RetryExhausted,
                        chunk as u64,
                        attempt as u64,
                    );
                }
                return Err(e);
            }
        }
    }
}

/// A shared-read view of a device that retries transient faults.
///
/// Borrows the device immutably, so one reader per disk can live inside a
/// scoped worker thread exactly like a bare `&B` does today.
#[derive(Debug)]
pub struct RetryReader<'d, B: ?Sized> {
    dev: &'d B,
    policy: RetryPolicy,
    stats: RetryStats,
}

impl<'d, B: BlockDevice + ?Sized> RetryReader<'d, B> {
    /// Wraps `dev` under `policy` with fresh counters.
    pub fn new(dev: &'d B, policy: RetryPolicy) -> Self {
        Self {
            dev,
            policy,
            stats: RetryStats::default(),
        }
    }

    /// The wrapped device.
    pub fn device(&self) -> &'d B {
        self.dev
    }

    /// Counters accumulated by this reader.
    pub fn counters(&self) -> RetryCounters {
        self.stats.snapshot()
    }

    /// [`BlockDevice::read_chunk`] with bounded retry of transient faults.
    pub fn read_chunk(&self, chunk: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        retry_op(&self.policy, &self.stats, chunk, || {
            self.dev.read_chunk(chunk, buf)
        })
    }

    /// [`BlockDevice::read_range`] with bounded retry of transient faults.
    pub fn read_range(
        &self,
        chunk: usize,
        range: Range<usize>,
        buf: &mut [u8],
    ) -> Result<(), DeviceError> {
        retry_op(&self.policy, &self.stats, chunk, || {
            self.dev.read_range(chunk, range.clone(), buf)
        })
    }

    /// Coalesced [`BlockDevice::read_chunks`] that degrades on failure.
    ///
    /// First the whole run is attempted (with retry while the error stays
    /// transient). If the run cannot complete as a unit, it degrades to
    /// per-chunk reads, each with its own retry budget, so exactly the
    /// unreadable chunks are reported and every healthy chunk in the run
    /// is still filled into `buf`.
    ///
    /// Returns the chunks that remained unreadable, as
    /// `(chunk_index, error)` pairs; an empty vec means the whole run was
    /// read. Buffer slots for unreadable chunks are left zeroed.
    pub fn read_chunks_degrading(
        &self,
        first: usize,
        count: usize,
        buf: &mut [u8],
    ) -> Vec<(usize, DeviceError)> {
        if retry_op(&self.policy, &self.stats, first, || {
            self.dev.read_chunks(first, count, buf)
        })
        .is_ok()
        {
            return Vec::new();
        }
        // The run failed as a unit (one bad chunk poisons the batch, or a
        // pathological transient streak outlived the budget). Degrade:
        // re-read chunk by chunk so one bad sector costs one chunk.
        let cs = self.dev.chunk_size();
        let mut failures = Vec::new();
        for (i, slot) in buf.chunks_exact_mut(cs).enumerate() {
            if let Err(e) = self.read_chunk(first + i, slot) {
                slot.fill(0);
                failures.push((first + i, e));
            }
        }
        failures
    }
}

/// [`BlockDevice::write_chunk`] with bounded retry of transient faults.
pub fn write_chunk_retrying<B: BlockDevice + ?Sized>(
    dev: &B,
    policy: &RetryPolicy,
    stats: &RetryStats,
    chunk: usize,
    data: &[u8],
) -> Result<(), DeviceError> {
    retry_op(policy, stats, chunk, || dev.write_chunk(chunk, data))
}

/// [`BlockDevice::write_range`] with bounded retry of transient faults.
pub fn write_range_retrying<B: BlockDevice + ?Sized>(
    dev: &B,
    policy: &RetryPolicy,
    stats: &RetryStats,
    chunk: usize,
    range: Range<usize>,
    buf: &[u8],
) -> Result<(), DeviceError> {
    retry_op(policy, stats, chunk, || {
        dev.write_range(chunk, range.clone(), buf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultConfig, FaultInjectingDevice, MemDevice};

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_micros(450),
        };
        assert_eq!(p.backoff(1), Duration::from_micros(100));
        assert_eq!(p.backoff(2), Duration::from_micros(200));
        assert_eq!(p.backoff(3), Duration::from_micros(400));
        assert_eq!(p.backoff(4), Duration::from_micros(450), "capped");
        assert_eq!(p.backoff(40), Duration::from_micros(450), "no overflow");
        assert_eq!(RetryPolicy::none().backoff(3), Duration::ZERO);
    }

    #[test]
    fn backoff_saturates_past_the_shift_width() {
        // retry 33 onward shifts past u32::BITS; the factor must clamp to
        // the cap, never wrap to a zero-delay sleep.
        let p = RetryPolicy {
            max_attempts: u32::MAX,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(2),
        };
        for retry in [32, 33, 63, 64, 1000, u32::MAX] {
            assert_eq!(
                p.backoff(retry),
                Duration::from_millis(2),
                "retry {retry} must sleep the cap"
            );
            assert!(!p.backoff(retry).is_zero(), "retry {retry} slept zero");
        }
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        // 1000‰ transient would never succeed; 500‰ with a healthy budget
        // converges. Use a rate guaranteed to both fault and recover.
        let cfg = FaultConfig {
            seed: 3,
            transient_read_per_mille: 500,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), cfg);
        d.set_config(FaultConfig::default());
        d.write_chunk(0, &[7u8; 8]).unwrap();
        d.set_config(cfg);
        let r = RetryReader::new(&d, RetryPolicy::immediate(64));
        let mut buf = [0u8; 8];
        for _ in 0..200 {
            r.read_chunk(0, &mut buf).unwrap();
            assert_eq!(buf, [7u8; 8]);
        }
        let c = r.counters();
        assert!(c.retries > 0, "a 500‰ rate must have retried: {c:?}");
        assert_eq!(c.exhausted, 0);
    }

    #[test]
    fn permanent_faults_surface_immediately() {
        let cfg = FaultConfig {
            seed: 42,
            latent_per_mille: 300,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 64), cfg);
        let bad = (0..64).find(|&c| d.is_latent_bad(c)).expect("some bad");
        let r = RetryReader::new(&d, RetryPolicy::immediate(16));
        let mut buf = [0u8; 8];
        let err = r.read_chunk(bad, &mut buf).unwrap_err();
        assert!(!err.is_transient());
        let c = r.counters();
        assert_eq!(c.retries, 0, "latent errors are not retried");
        assert_eq!(c.exhausted, 0);
    }

    #[test]
    fn exhausted_budget_is_counted() {
        let cfg = FaultConfig {
            seed: 0,
            transient_read_per_mille: 1000,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), cfg);
        let r = RetryReader::new(&d, RetryPolicy::immediate(3));
        let mut buf = [0u8; 8];
        assert!(r.read_chunk(0, &mut buf).is_err());
        let c = r.counters();
        assert_eq!(c.retries, 2, "3 attempts = 2 retries");
        assert_eq!(c.exhausted, 1);
    }

    #[test]
    fn degrading_run_isolates_the_bad_chunk() {
        let cfg = FaultConfig {
            seed: 42,
            latent_per_mille: 300,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 64), cfg);
        let bad = (1..63)
            .find(|&c| d.is_latent_bad(c) && !d.is_latent_bad(c - 1) && !d.is_latent_bad(c + 1))
            .expect("an isolated bad chunk");
        d.set_config(FaultConfig::default());
        for c in [bad - 1, bad + 1] {
            d.write_chunk(c, &[c as u8; 8]).unwrap();
        }
        d.set_config(cfg);
        let r = RetryReader::new(&d, RetryPolicy::immediate(4));
        let mut buf = vec![0xFFu8; 24];
        let failures = r.read_chunks_degrading(bad - 1, 3, &mut buf);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, bad);
        assert!(!failures[0].1.is_transient());
        assert_eq!(&buf[0..8], &[(bad - 1) as u8; 8], "healthy neighbor read");
        assert_eq!(&buf[8..16], &[0u8; 8], "bad slot zeroed");
        assert_eq!(&buf[16..24], &[(bad + 1) as u8; 8], "healthy neighbor read");
    }

    #[test]
    fn write_retry_pushes_through_transient_write_faults() {
        let cfg = FaultConfig {
            seed: 9,
            transient_write_per_mille: 500,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), cfg);
        let policy = RetryPolicy::immediate(64);
        let stats = RetryStats::default();
        for i in 0..50 {
            write_chunk_retrying(&d, &policy, &stats, i % 4, &[i as u8; 8]).unwrap();
        }
        assert!(stats.snapshot().retries > 0, "{:?}", stats.snapshot());
    }

    #[test]
    fn range_forms_retry_transient_faults_and_move_only_the_range() {
        let cfg = FaultConfig {
            seed: 11,
            transient_read_per_mille: 500,
            transient_write_per_mille: 500,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), cfg);
        let (policy, stats) = (RetryPolicy::immediate(64), RetryStats::default());
        let r = RetryReader::new(&d, policy);
        for i in 0..50u8 {
            let mut buf = [0xEEu8; 8];
            r.read_range(1, 2..5, &mut buf).unwrap();
            buf[2..5].fill(i);
            write_range_retrying(&d, &policy, &stats, 1, 2..5, &buf).unwrap();
        }
        assert!(stats.snapshot().retries > 0, "{:?}", stats.snapshot());
        assert!(r.counters().retries > 0, "{:?}", r.counters());
        d.set_config(FaultConfig::default());
        let mut buf = [0u8; 8];
        d.read_chunk(1, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 49, 49, 49, 0, 0, 0]);
    }
}
