//! Deterministic fault injection and latency modelling around any backend.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::{
    check_range, BlockDevice, CounterSnapshot, DeviceError, DeviceLatency, InflightTracker,
};

/// Fault-injection policy. All decisions derive from `seed`, so runs are
/// reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Per-mille of chunks carrying a *latent sector error*: reads fault
    /// until the chunk is rewritten (which chunks is a pure function of
    /// `seed` and the chunk index, independent of I/O order).
    pub latent_per_mille: u16,
    /// Per-mille of reads failing *transiently* (depends on the device's
    /// read sequence number, so it is order-sensitive by design).
    pub transient_read_per_mille: u16,
    /// Per-mille of writes failing *transiently* (independent write
    /// sequence counter, so enabling write faults does not perturb the
    /// read-fault sequence).
    pub transient_write_per_mille: u16,
    /// Per-mille of [`BlockDevice::flush`] calls failing *transiently*
    /// (own sequence counter, so arming flush faults perturbs neither the
    /// read nor the write dice). Models a lost/failed cache-flush command.
    pub flush_fail_per_mille: u16,
    /// If nonzero, the device dies (all I/O returns
    /// [`DeviceError::Failed`], `is_failed` turns true) once this many
    /// reads have been served — the deterministic way to stage a
    /// surviving-disk failure *mid-rebuild*. One-shot: healing the device
    /// disarms the trigger.
    pub fail_after_reads: u64,
    /// Added service latency per read.
    pub read_latency: Duration,
    /// Added service latency per write.
    pub write_latency: Duration,
}

impl FaultConfig {
    /// A pure latency model (no faults): the slow-disk configuration the
    /// rebuild experiments use to make I/O time visible.
    pub fn latency(read: Duration, write: Duration) -> Self {
        Self {
            read_latency: read,
            write_latency: write,
            ..Self::default()
        }
    }
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Wraps any [`BlockDevice`] with seeded fault injection and latency.
///
/// Latent sector errors are a deterministic per-chunk property: the same
/// seed marks the same chunks bad on every run, and a write to a bad chunk
/// repairs it (sector remapping). Transient read/write faults are drawn per
/// operation. Injected faults are visible in the wrapped device's
/// [`CounterSnapshot::faults`].
///
/// The configuration can be swapped at runtime with
/// [`FaultInjectingDevice::set_config`], so a test can populate the device
/// cleanly and only then arm faults (or disarm them before comparing
/// contents).
///
/// This wrapper deliberately keeps the trait's default per-chunk
/// [`BlockDevice::read_chunks`] loop: coalesced runs still pay latency and
/// roll the fault dice once per chunk, so injection semantics do not change
/// when the rebuild engine batches reads. The range pair
/// ([`BlockDevice::read_range`] / [`BlockDevice::write_range`]) goes to the
/// wrapped device's own and rolls the same dice as a whole-chunk call: a
/// range of a latent chunk does not read, and a range write remaps the
/// sector only when it covers the whole chunk.
///
/// When latency injection is configured, the sleep is served under a
/// per-device lock: the device models a single spindle that serves one
/// operation at a time, so concurrent callers (foreground I/O during a
/// rebuild) queue behind each other exactly as they would on real media.
#[derive(Debug)]
pub struct FaultInjectingDevice<B> {
    inner: B,
    cfg: Mutex<FaultConfig>,
    /// Serializes the injected service time (one op in flight per device).
    spindle: Mutex<()>,
    /// Read-op sequence number for the transient-read dice.
    ops: AtomicU64,
    /// Write-op sequence number for the transient-write dice.
    write_ops: AtomicU64,
    /// Flush-op sequence number for the flush-failure dice.
    flush_ops: AtomicU64,
    /// Total reads served, for [`FaultConfig::fail_after_reads`].
    reads_seen: AtomicU64,
    /// Set when `fail_after_reads` fires; cleared by heal.
    died: AtomicBool,
    /// Latent-bad chunks that have been repaired by a rewrite.
    remapped: Mutex<HashSet<usize>>,
    faults: AtomicU64,
    injected_latency_ns: AtomicU64,
    /// Queue depth as seen by callers: covers the injected sleep, which
    /// the wrapped device's own tracker never sees.
    inflight: InflightTracker,
    /// Total service time seen by callers (sleep + inner device).
    latency: DeviceLatency,
}

impl<B: BlockDevice> FaultInjectingDevice<B> {
    /// Wraps `inner` under `cfg`.
    pub fn new(inner: B, cfg: FaultConfig) -> Self {
        Self {
            inner,
            cfg: Mutex::new(cfg),
            spindle: Mutex::new(()),
            ops: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            flush_ops: AtomicU64::new(0),
            reads_seen: AtomicU64::new(0),
            died: AtomicBool::new(false),
            remapped: Mutex::new(HashSet::new()),
            faults: AtomicU64::new(0),
            injected_latency_ns: AtomicU64::new(0),
            inflight: InflightTracker::default(),
            latency: DeviceLatency::default(),
        }
    }

    fn inject_latency(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let _spindle = self.spindle.lock().expect("spindle lock");
        std::thread::sleep(d);
        self.injected_latency_ns
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// The wrapped device.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped device.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The current fault configuration.
    pub fn config(&self) -> FaultConfig {
        *self.cfg.lock().expect("cfg lock")
    }

    /// Replaces the fault configuration and restarts the deterministic
    /// operation counters (read/write dice sequences and the
    /// `fail_after_reads` countdown begin again at zero), so the injected
    /// fault pattern is reproducible relative to the moment of arming.
    /// Latent-sector remap state is physical and survives reconfiguration.
    pub fn set_config(&self, cfg: FaultConfig) {
        *self.cfg.lock().expect("cfg lock") = cfg;
        self.ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
        self.flush_ops.store(0, Ordering::Relaxed);
        self.reads_seen.store(0, Ordering::Relaxed);
    }

    /// Whether `chunk` currently carries a latent sector error.
    pub fn is_latent_bad(&self, chunk: usize) -> bool {
        self.latent_bad_by_seed(&self.config(), chunk)
            && !self.remapped.lock().expect("remap lock").contains(&chunk)
    }

    fn latent_bad_by_seed(&self, cfg: &FaultConfig, chunk: usize) -> bool {
        if cfg.latent_per_mille == 0 {
            return false;
        }
        splitmix(cfg.seed ^ (chunk as u64).wrapping_mul(0x9E37_79B9)) % 1000
            < cfg.latent_per_mille as u64
    }

    fn transient_read_fault(&self, cfg: &FaultConfig) -> bool {
        if cfg.transient_read_per_mille == 0 {
            return false;
        }
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        splitmix(cfg.seed ^ op.wrapping_mul(0xC2B2_AE3D)) % 1000
            < cfg.transient_read_per_mille as u64
    }

    fn transient_write_fault(&self, cfg: &FaultConfig) -> bool {
        if cfg.transient_write_per_mille == 0 {
            return false;
        }
        let op = self.write_ops.fetch_add(1, Ordering::Relaxed);
        splitmix(cfg.seed ^ op.wrapping_mul(0x27D4_EB2F) ^ 0x5851_F42D) % 1000
            < cfg.transient_write_per_mille as u64
    }

    fn flush_fault(&self, cfg: &FaultConfig) -> bool {
        if cfg.flush_fail_per_mille == 0 {
            return false;
        }
        let op = self.flush_ops.fetch_add(1, Ordering::Relaxed);
        splitmix(cfg.seed ^ op.wrapping_mul(0x1657_67B1) ^ 0x94D0_49BB) % 1000
            < cfg.flush_fail_per_mille as u64
    }

    /// Counts one served read against `fail_after_reads`; returns `true`
    /// if the device just died (or was already dead).
    fn count_read_toward_death(&self, cfg: &FaultConfig) -> bool {
        if self.died.load(Ordering::Relaxed) {
            return true;
        }
        if cfg.fail_after_reads == 0 {
            return false;
        }
        let n = self.reads_seen.fetch_add(1, Ordering::Relaxed) + 1;
        if n > cfg.fail_after_reads {
            self.died.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// One read of `chunk` (`io` does it on the wrapped device) through the
    /// death countdown, the latency model and the fault dice.
    fn faulted_read(
        &self,
        chunk: usize,
        io: impl FnOnce() -> Result<(), DeviceError>,
    ) -> Result<(), DeviceError> {
        let _io = self.inflight.begin();
        let began = Instant::now();
        let cfg = self.config();
        if self.count_read_toward_death(&cfg) {
            return Err(DeviceError::Failed);
        }
        self.inject_latency(cfg.read_latency);
        let latent = self.is_latent_bad(chunk);
        if latent || self.transient_read_fault(&cfg) {
            self.faults.fetch_add(1, Ordering::Relaxed);
            // Faulted reads still consumed service time (the platters
            // spun, the retry happened inside the drive): record it so
            // fault latency is visible in the read histogram.
            self.latency.read.record_duration(began.elapsed());
            return Err(DeviceError::InjectedFault {
                chunk,
                transient: !latent,
            });
        }
        let result = io();
        if result.is_ok() {
            self.latency.read.record_duration(began.elapsed());
        }
        result
    }

    /// One write of `chunk` (`io` does it on the wrapped device) through
    /// the latency model and the fault dice; a write that `remaps` (covers
    /// the whole chunk) repairs a latent sector.
    fn faulted_write(
        &self,
        chunk: usize,
        remaps: bool,
        io: impl FnOnce() -> Result<(), DeviceError>,
    ) -> Result<(), DeviceError> {
        let _io = self.inflight.begin();
        let began = Instant::now();
        let cfg = self.config();
        if self.died.load(Ordering::Relaxed) {
            return Err(DeviceError::Failed);
        }
        self.inject_latency(cfg.write_latency);
        if self.transient_write_fault(&cfg) {
            self.faults.fetch_add(1, Ordering::Relaxed);
            self.latency.write.record_duration(began.elapsed());
            return Err(DeviceError::InjectedFault {
                chunk,
                transient: true,
            });
        }
        io()?;
        if remaps && self.latent_bad_by_seed(&cfg, chunk) {
            self.remapped.lock().expect("remap lock").insert(chunk);
        }
        self.latency.write.record_duration(began.elapsed());
        Ok(())
    }
}

impl<B: BlockDevice> BlockDevice for FaultInjectingDevice<B> {
    fn chunk_size(&self) -> usize {
        self.inner.chunk_size()
    }

    fn chunks(&self) -> usize {
        self.inner.chunks()
    }

    fn is_failed(&self) -> bool {
        // Acquire, pairing with `heal`'s Release: see `BlockDevice::heal`.
        self.died.load(Ordering::Acquire) || self.inner.is_failed()
    }

    fn read_chunk(&self, chunk: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        self.faulted_read(chunk, || self.inner.read_chunk(chunk, buf))
    }

    fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
        self.faulted_write(chunk, true, || self.inner.write_chunk(chunk, data))
    }

    fn read_range(
        &self,
        chunk: usize,
        range: Range<usize>,
        buf: &mut [u8],
    ) -> Result<(), DeviceError> {
        check_range(&range, self.chunk_size())?;
        self.faulted_read(chunk, || self.inner.read_range(chunk, range, buf))
    }

    fn write_range(
        &self,
        chunk: usize,
        range: Range<usize>,
        buf: &[u8],
    ) -> Result<(), DeviceError> {
        check_range(&range, self.chunk_size())?;
        let whole = range == (0..self.chunk_size());
        self.faulted_write(chunk, whole, || self.inner.write_range(chunk, range, buf))
    }

    /// Durability barrier with injected failures: a faulted flush returns a
    /// *transient* [`DeviceError::Io`] (kind `Interrupted`) — the caller
    /// must retry the flush before trusting its commit point, exactly as
    /// with a real lost cache-flush command.
    fn flush(&self) -> Result<(), DeviceError> {
        let cfg = self.config();
        if self.died.load(Ordering::Relaxed) {
            return Err(DeviceError::Failed);
        }
        if self.flush_fault(&cfg) {
            self.faults.fetch_add(1, Ordering::Relaxed);
            return Err(DeviceError::Io {
                kind: std::io::ErrorKind::Interrupted,
                message: "injected flush failure".into(),
            });
        }
        self.inner.flush()
    }

    fn fail(&self) {
        self.inner.fail();
    }

    fn heal(&self) -> Result<(), DeviceError> {
        self.inner.heal()?;
        // A mid-rebuild death is one-shot: bringing the device back
        // disarms the trigger so the healed replacement doesn't die at
        // the same read count.
        self.cfg.lock().expect("cfg lock").fail_after_reads = 0;
        self.died.store(false, Ordering::Release);
        Ok(())
    }

    fn counters(&self) -> CounterSnapshot {
        let mut c = self.inner.counters();
        c.faults = self.faults.load(Ordering::Relaxed);
        c.injected_latency_ns = self.injected_latency_ns.load(Ordering::Relaxed);
        c.max_inflight = c.max_inflight.max(self.inflight.peak());
        c
    }

    fn reset_counters(&self) {
        self.inner.reset_counters();
        self.faults.store(0, Ordering::Relaxed);
        self.injected_latency_ns.store(0, Ordering::Relaxed);
        self.inflight.reset();
        self.latency.read.reset();
        self.latency.write.reset();
    }

    /// Service time as seen by callers: injected sleep plus the wrapped
    /// device's own time (the wrapped device's [`BlockDevice::latency`]
    /// still reports its raw time separately).
    fn latency(&self) -> DeviceLatency {
        self.latency.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    #[test]
    fn latency_only_is_transparent() {
        let cfg = FaultConfig::latency(Duration::from_micros(1), Duration::from_micros(1));
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), cfg);
        d.write_chunk(0, &[5u8; 8]).unwrap();
        let mut buf = [0u8; 8];
        d.read_chunk(0, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 8]);
        assert_eq!(d.counters().faults, 0);
    }

    #[test]
    fn injected_latency_is_counted_and_histogrammed() {
        telemetry::set_enabled(true);
        let cfg = FaultConfig::latency(Duration::from_micros(200), Duration::from_micros(100));
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), cfg);
        let mut buf = [0u8; 8];
        d.write_chunk(0, &[5u8; 8]).unwrap();
        d.read_chunk(0, &mut buf).unwrap();
        d.read_chunk(1, &mut buf).unwrap();
        let c = d.counters();
        // Two 200 µs reads + one 100 µs write of configured sleep.
        assert_eq!(c.injected_latency_ns, 500_000, "{c}");
        let lat = d.latency();
        assert_eq!(lat.read.count(), 2);
        assert!(
            lat.read.snapshot().p50() >= 200_000,
            "service time includes the sleep: {}",
            lat.read.snapshot().summary_ns()
        );
        // The wrapped device's own histogram excludes the sleep but was
        // still recorded.
        assert_eq!(d.inner().latency().read.count(), 2);
        d.reset_counters();
        assert_eq!(d.counters().injected_latency_ns, 0);
        assert_eq!(d.latency().read.count(), 0);
    }

    #[test]
    fn faulted_reads_record_service_time() {
        telemetry::set_enabled(true);
        let cfg = FaultConfig {
            seed: 42,
            latent_per_mille: 300,
            read_latency: Duration::from_micros(150),
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 64), cfg);
        let bad = (0..64).find(|&c| d.is_latent_bad(c)).expect("some bad");
        let mut buf = [0u8; 8];
        assert!(d.read_chunk(bad, &mut buf).is_err());
        let lat = d.latency();
        assert_eq!(lat.read.count(), 1, "fault path records the histogram");
        assert!(
            lat.read.max() >= 150_000,
            "faulted read shows its injected service time: {} ns",
            lat.read.max()
        );
    }

    #[test]
    fn latent_errors_deterministic_and_write_repaired() {
        let cfg = FaultConfig {
            seed: 42,
            latent_per_mille: 300,
            ..FaultConfig::default()
        };
        let chunks = 64;
        let d = FaultInjectingDevice::new(MemDevice::new(8, chunks), cfg);
        let bad: Vec<usize> = (0..chunks).filter(|&c| d.is_latent_bad(c)).collect();
        assert!(!bad.is_empty(), "300‰ of 64 chunks marks some bad");
        assert!(bad.len() < chunks, "...but not all");
        // Same seed -> same set.
        let d2 = FaultInjectingDevice::new(MemDevice::new(8, chunks), cfg);
        let bad2: Vec<usize> = (0..chunks).filter(|&c| d2.is_latent_bad(c)).collect();
        assert_eq!(bad, bad2);
        // Reads fault until a write remaps the sector.
        let mut buf = [0u8; 8];
        let victim = bad[0];
        assert_eq!(
            d.read_chunk(victim, &mut buf),
            Err(DeviceError::InjectedFault {
                chunk: victim,
                transient: false
            })
        );
        assert_eq!(d.counters().faults, 1);
        d.write_chunk(victim, &[1u8; 8]).unwrap();
        assert!(d.read_chunk(victim, &mut buf).is_ok());
        assert_eq!(buf, [1u8; 8]);
    }

    #[test]
    fn transient_faults_happen_at_configured_rate() {
        let cfg = FaultConfig {
            seed: 7,
            transient_read_per_mille: 200,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), cfg);
        let mut buf = [0u8; 8];
        let faults = (0..1000)
            .filter(|_| d.read_chunk(0, &mut buf).is_err())
            .count();
        assert!((100..350).contains(&faults), "got {faults} of ~200");
    }

    #[test]
    fn transient_write_faults_happen_and_are_transient() {
        let cfg = FaultConfig {
            seed: 7,
            transient_write_per_mille: 200,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), cfg);
        let mut faults = 0;
        for i in 0..1000 {
            match d.write_chunk(i % 4, &[i as u8; 8]) {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.is_transient(), "{e}");
                    faults += 1;
                }
            }
        }
        assert!((100..350).contains(&faults), "got {faults} of ~200");
        // Write faults draw from their own sequence: the read dice are
        // untouched (reads never fault here).
        let mut buf = [0u8; 8];
        for _ in 0..100 {
            d.read_chunk(0, &mut buf).unwrap();
        }
    }

    #[test]
    fn fail_after_reads_kills_the_device_and_heal_disarms() {
        let cfg = FaultConfig {
            fail_after_reads: 3,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), cfg);
        let mut buf = [0u8; 8];
        for _ in 0..3 {
            d.read_chunk(0, &mut buf).unwrap();
        }
        assert!(!d.is_failed());
        assert_eq!(d.read_chunk(0, &mut buf), Err(DeviceError::Failed));
        assert!(d.is_failed(), "death is sticky");
        assert_eq!(d.read_chunk(1, &mut buf), Err(DeviceError::Failed));
        assert_eq!(d.write_chunk(0, &[1u8; 8]), Err(DeviceError::Failed));
        // Heal brings it back and disarms the one-shot trigger.
        d.fail();
        d.heal().unwrap();
        assert!(!d.is_failed());
        for _ in 0..10 {
            d.read_chunk(0, &mut buf).unwrap();
        }
    }

    #[test]
    fn set_config_rearms_deterministically() {
        let quiet = FaultConfig::default();
        let noisy = FaultConfig {
            seed: 7,
            transient_read_per_mille: 500,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), quiet);
        let mut buf = [0u8; 8];
        for _ in 0..37 {
            d.read_chunk(0, &mut buf).unwrap();
        }
        d.set_config(noisy);
        let pattern1: Vec<bool> = (0..64)
            .map(|_| d.read_chunk(0, &mut buf).is_err())
            .collect();
        d.set_config(noisy);
        let pattern2: Vec<bool> = (0..64)
            .map(|_| d.read_chunk(0, &mut buf).is_err())
            .collect();
        assert_eq!(
            pattern1, pattern2,
            "op counters restart at arming, so the fault pattern replays"
        );
        assert!(pattern1.iter().any(|&f| f), "500‰ faults somewhere");
    }

    #[test]
    fn read_chunks_keeps_per_chunk_fault_semantics() {
        let cfg = FaultConfig {
            seed: 42,
            latent_per_mille: 300,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 64), cfg);
        let bad = (0..64).find(|&c| d.is_latent_bad(c)).expect("some bad");
        // A coalesced run over a latent-bad chunk still faults on exactly
        // that chunk, and healthy runs count one read op per chunk.
        let first = bad.saturating_sub(1);
        let count = (64 - first).min(3);
        let mut buf = vec![0u8; 8 * count];
        assert_eq!(
            d.read_chunks(first, count, &mut buf),
            Err(DeviceError::InjectedFault {
                chunk: bad,
                transient: false
            })
        );
        let good_run: Option<usize> = (0..62).find(|&c| (c..c + 2).all(|x| !d.is_latent_bad(x)));
        if let Some(start) = good_run {
            d.reset_counters();
            let mut buf = [0u8; 16];
            d.read_chunks(start, 2, &mut buf).unwrap();
            assert_eq!(d.counters().reads, 2, "wrapper does not coalesce ops");
        }
    }

    #[test]
    fn flush_faults_are_transient_and_isolated() {
        let cfg = FaultConfig {
            seed: 7,
            flush_fail_per_mille: 300,
            ..FaultConfig::default()
        };
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), cfg);
        let mut faults = 0;
        for _ in 0..1000 {
            match d.flush() {
                Ok(()) => {}
                Err(e) => {
                    assert!(e.is_transient(), "{e}");
                    faults += 1;
                }
            }
        }
        assert!((150..450).contains(&faults), "got {faults} of ~300");
        assert_eq!(d.counters().faults, faults as u64);
        // Flush dice are independent: reads and writes stay clean.
        let mut buf = [0u8; 8];
        for i in 0..100 {
            d.write_chunk(i % 4, &[i as u8; 8]).unwrap();
            d.read_chunk(i % 4, &mut buf).unwrap();
        }
    }

    #[test]
    fn passthrough_state_management() {
        let d = FaultInjectingDevice::new(MemDevice::new(8, 4), FaultConfig::default());
        assert_eq!(d.chunk_size(), 8);
        assert_eq!(d.chunks(), 4);
        d.fail();
        assert!(d.is_failed());
        d.heal().unwrap();
        assert!(!d.is_failed());
    }
}
