//! Pluggable block-device backends for the OI-RAID store.
//!
//! The byte-level array in `oi-raid` used to hard-code an in-memory
//! `Vec<Option<Vec<u8>>>` per disk. This crate separates *what* the array
//! stores from *where* the bytes live: a [`BlockDevice`] is a
//! chunk-granular device with explicit fail/heal state and always-on I/O
//! counters, and the store is generic over it.
//!
//! Three backends ship here:
//!
//! * [`MemDevice`] — RAM-backed, the previous behavior.
//! * [`FileDevice`] — one file per disk via `std::fs`, so arrays larger
//!   than RAM work and contents survive the process.
//! * [`FaultInjectingDevice`] — wraps any backend and injects deterministic,
//!   seeded faults (latent sector errors, transient read failures) and
//!   configurable per-I/O latency, for robustness tests and for modelling
//!   disk speed in rebuild experiments.
//!
//! All I/O — reads *and* writes, plus fail/heal — takes `&self`: counters
//! use atomics and contents sit behind interior locks, so a rebuild engine
//! can drain many devices from parallel worker threads while foreground
//! writes land on the same devices concurrently.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crash;
mod fault;
mod file;
pub mod journal;
mod mem;
mod retry;
mod writeback;

pub use crash::crash_point;
pub use fault::{FaultConfig, FaultInjectingDevice};
pub use file::FileDevice;
pub use journal::{FlushPolicy, Journal, JournalStats, MemberWrite, RedoMember, ReplaySummary};
pub use mem::MemDevice;
pub use retry::{
    write_chunk_retrying, write_range_retrying, RetryCounters, RetryPolicy, RetryReader, RetryStats,
};
pub use writeback::WriteBackDevice;

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use telemetry::Histogram;

/// Errors surfaced by block devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The device is in the failed state and cannot serve I/O.
    Failed,
    /// A chunk index is past the end of the device.
    OutOfRange {
        /// The offending chunk index.
        chunk: usize,
        /// Device capacity in chunks.
        chunks: usize,
    },
    /// A buffer length does not match the device's chunk size.
    WrongBufferSize {
        /// Bytes supplied.
        found: usize,
        /// The device's chunk size.
        expected: usize,
    },
    /// A byte range of [`BlockDevice::read_range`] /
    /// [`BlockDevice::write_range`] runs backwards or past the end of its
    /// chunk.
    RangeOutsideChunk {
        /// The range asked for.
        range: Range<usize>,
        /// The device's chunk size.
        chunk_size: usize,
    },
    /// A deterministic injected fault (latent sector error or transient
    /// read failure) from a [`FaultInjectingDevice`].
    InjectedFault {
        /// The chunk whose read faulted.
        chunk: usize,
        /// `true` for a transient fault (a retry may succeed), `false` for
        /// a latent sector error (persists until the chunk is rewritten).
        /// Real devices distinguish these in sense data; the injector
        /// models that so the retry layer can classify without guessing.
        transient: bool,
    },
    /// An underlying I/O error (file backends). Carries the
    /// [`std::io::ErrorKind`] so callers can classify transient vs.
    /// permanent without string-matching the message.
    Io {
        /// The kind reported by the OS.
        kind: std::io::ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

/// Coarse classification of a [`DeviceError`] for retry decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Retrying the same operation may succeed (timeouts, interrupted
    /// syscalls, injected transient faults).
    Transient,
    /// Retrying the identical operation will keep failing: latent sector
    /// errors (until rewritten), failed devices, caller bugs
    /// (out-of-range, wrong buffer size), and hard I/O errors.
    Permanent,
}

impl DeviceError {
    /// Classifies the error for retry purposes.
    pub fn class(&self) -> ErrorClass {
        match self {
            Self::InjectedFault {
                transient: true, ..
            } => ErrorClass::Transient,
            Self::Io { kind, .. } => match kind {
                std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::WouldBlock => ErrorClass::Transient,
                _ => ErrorClass::Permanent,
            },
            Self::Failed
            | Self::OutOfRange { .. }
            | Self::WrongBufferSize { .. }
            | Self::RangeOutsideChunk { .. }
            | Self::InjectedFault {
                transient: false, ..
            } => ErrorClass::Permanent,
        }
    }

    /// Whether a bounded retry of the same operation is worth attempting.
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Failed => write!(f, "device is failed"),
            Self::OutOfRange { chunk, chunks } => {
                write!(f, "chunk {chunk} out of range ({chunks} chunks)")
            }
            Self::WrongBufferSize { found, expected } => {
                write!(
                    f,
                    "buffer has {found} bytes, device chunk size is {expected}"
                )
            }
            Self::RangeOutsideChunk { range, chunk_size } => {
                write!(
                    f,
                    "bytes {range:?} are not inside a {chunk_size}-byte chunk"
                )
            }
            Self::InjectedFault { chunk, transient } => {
                let kind = if *transient {
                    "transient fault"
                } else {
                    "latent sector error"
                };
                write!(f, "injected {kind} reading chunk {chunk}")
            }
            Self::Io { kind, message } => write!(f, "I/O error ({kind:?}): {message}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// A chunk-granular block device with explicit failure state.
///
/// Every operation takes `&self` so parallel readers can drain independent
/// devices inside [`std::thread::scope`] while writers (foreground I/O,
/// rebuild writeback) touch the same devices; implementations keep their
/// counters in atomics and their contents behind interior locks. All
/// chunks have the same size, fixed at construction.
pub trait BlockDevice: Send + Sync {
    /// Bytes per chunk.
    fn chunk_size(&self) -> usize;

    /// Capacity in chunks.
    fn chunks(&self) -> usize;

    /// Whether the device is currently failed. Callers ask this several
    /// times per chunk, so implementations answer from an atomic flag
    /// without taking a lock, loading it with `Acquire` (see
    /// [`BlockDevice::heal`]).
    fn is_failed(&self) -> bool;

    /// Reads chunk `chunk` into `buf` (`buf.len()` must equal
    /// [`BlockDevice::chunk_size`]).
    fn read_chunk(&self, chunk: usize, buf: &mut [u8]) -> Result<(), DeviceError>;

    /// Reads `count` consecutive chunks starting at `first` into `buf`
    /// (`buf.len()` must equal `count * chunk_size`).
    ///
    /// The default implementation loops over [`BlockDevice::read_chunk`],
    /// recording one I/O operation per chunk. Backends with contiguous
    /// storage (memory, files) override this to serve the whole run as a
    /// single operation — the rebuild engine coalesces adjacent same-disk
    /// reads into calls to this method.
    fn read_chunks(&self, first: usize, count: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
        let cs = self.chunk_size();
        if buf.len() != count * cs {
            return Err(DeviceError::WrongBufferSize {
                found: buf.len(),
                expected: count * cs,
            });
        }
        for (i, b) in buf.chunks_exact_mut(cs).enumerate() {
            self.read_chunk(first + i, b)?;
        }
        Ok(())
    }

    /// Writes `data` (exactly one chunk) to chunk `chunk`.
    fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError>;

    /// Reads at least bytes `range` of chunk `chunk` into the same bytes of
    /// `buf`, a whole chunk's buffer; what lands outside `range` is the
    /// device's business. The pair with [`BlockDevice::write_range`] is the
    /// contract: a caller that reads a range into `buf`, changes bytes
    /// inside it and writes the same range back from the same `buf` leaves
    /// every byte outside it as it was.
    ///
    /// The default reads the whole chunk ([`BlockDevice::read_chunk`]), so
    /// `buf` holds the device's bytes outside `range` too, which is what
    /// the default [`BlockDevice::write_range`] writes back. A device
    /// overrides both or neither: one that moves only the range each way
    /// must not take the other's whole-chunk default, or a range write
    /// would put back whatever `buf` held outside the range. Rejects a
    /// range past the end of the chunk before any I/O.
    fn read_range(
        &self,
        chunk: usize,
        range: Range<usize>,
        buf: &mut [u8],
    ) -> Result<(), DeviceError> {
        check_range(&range, self.chunk_size())?;
        self.read_chunk(chunk, buf)
    }

    /// Writes at least bytes `range` of `buf`, a whole chunk's buffer, to
    /// the same bytes of chunk `chunk`; see [`BlockDevice::read_range`] for
    /// the pair's contract. The default writes the whole chunk
    /// ([`BlockDevice::write_chunk`]): right after a default
    /// [`BlockDevice::read_range`] of the same chunk into `buf`, that is the
    /// device's own bytes outside `range`.
    fn write_range(
        &self,
        chunk: usize,
        range: Range<usize>,
        buf: &[u8],
    ) -> Result<(), DeviceError> {
        check_range(&range, self.chunk_size())?;
        self.write_chunk(chunk, buf)
    }

    /// Durability barrier: blocks until every write accepted so far is on
    /// stable storage. [`FileDevice`] issues a real `fdatasync`; memory
    /// backends are a no-op (the default) because their writes are
    /// "durable" the moment they land. The journal layer calls this
    /// before discarding redo records, so commit ordering is real on the
    /// file backend.
    fn flush(&self) -> Result<(), DeviceError> {
        Ok(())
    }

    /// Marks the device failed: its contents are unreachable from now on.
    fn fail(&self);

    /// Brings a failed device back online; every chunk reads as zeroes
    /// until written (a healed device has lost its pre-failure contents —
    /// the RAID layer rebuilds them). A no-op on a device that is not
    /// failed.
    ///
    /// The store that flips the failure state back must be a `Release`
    /// store, paired with the `Acquire` load in [`BlockDevice::is_failed`]:
    /// a thread that sees the device healthy again must also see what the
    /// healer published before healing it (the RAID layer opens its rebuild
    /// window first, so the blank chunks read as missing, not as zeroes).
    fn heal(&self) -> Result<(), DeviceError>;

    /// A snapshot of the device's I/O counters.
    fn counters(&self) -> CounterSnapshot;

    /// Resets the I/O counters to zero.
    fn reset_counters(&self);

    /// The device's per-operation service-time histograms. The returned
    /// handles share storage with the device (they are `Arc`s), so they
    /// stay live as I/O continues. Backends that do not measure latency
    /// return empty histograms (the default).
    fn latency(&self) -> DeviceLatency {
        DeviceLatency::default()
    }
}

/// Shared handles to a device's read/write service-time histograms
/// (nanoseconds per operation). Cloning shares the underlying storage.
#[derive(Debug, Clone, Default)]
pub struct DeviceLatency {
    /// Service time per read operation, in nanoseconds.
    pub read: Arc<Histogram>,
    /// Service time per write operation, in nanoseconds.
    pub write: Arc<Histogram>,
}

/// Live queue-depth accounting: how many operations are inside the device
/// right now, and the deepest it has ever been. Scheduler experiments use
/// the peak to verify that an engine actually kept a device's queue full
/// (or, for single-spindle models, that it didn't oversubscribe).
#[derive(Debug, Default)]
pub struct InflightTracker {
    inflight: AtomicU64,
    peak: AtomicU64,
}

impl InflightTracker {
    /// Marks one operation in flight until the returned guard drops.
    pub fn begin(&self) -> InflightGuard<'_> {
        let now = self.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        InflightGuard { tracker: self }
    }

    /// Deepest concurrent-operation count observed so far.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current in-flight count (not to zero: the
    /// operations currently inside the device are still in flight).
    pub fn reset(&self) {
        self.peak
            .store(self.inflight.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// RAII marker for one in-flight operation; dropping it decrements the
/// device's live queue depth.
#[derive(Debug)]
pub struct InflightGuard<'a> {
    tracker: &'a InflightTracker,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.tracker.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Always-on per-device I/O counters (atomics: reads count under `&self`),
/// plus shared service-time histograms for [`BlockDevice::latency`].
#[derive(Debug, Default)]
pub struct Counters {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    faults: AtomicU64,
    injected_latency_ns: AtomicU64,
    inflight: InflightTracker,
    latency: DeviceLatency,
}

impl Counters {
    pub(crate) fn record_read(&self, chunk: usize, bytes: u64, took: Duration) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.latency.read.record_duration(took);
        // Leaf of the request causal tree: only sampled requests carry an
        // ambient trace id, so untraced I/O pays one thread-local read.
        let trace = telemetry::current_trace();
        if trace != 0 {
            telemetry::trace_event(
                telemetry::EventKind::DeviceRead,
                telemetry::alloc_trace_id(),
                trace,
                chunk as u64,
                bytes,
            );
        }
    }

    pub(crate) fn record_write(&self, chunk: usize, bytes: u64, took: Duration) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.latency.write.record_duration(took);
        let trace = telemetry::current_trace();
        if trace != 0 {
            telemetry::trace_event(
                telemetry::EventKind::DeviceWrite,
                telemetry::alloc_trace_id(),
                trace,
                chunk as u64,
                bytes,
            );
        }
    }

    pub(crate) fn latency(&self) -> DeviceLatency {
        self.latency.clone()
    }

    /// Marks one operation in flight for queue-depth accounting; hold the
    /// guard for the operation's full duration.
    pub(crate) fn begin_io(&self) -> InflightGuard<'_> {
        self.inflight.begin()
    }

    pub(crate) fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            faults: self.faults.load(Ordering::Relaxed),
            injected_latency_ns: self.injected_latency_ns.load(Ordering::Relaxed),
            max_inflight: self.inflight.peak(),
        }
    }

    pub(crate) fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.faults.store(0, Ordering::Relaxed);
        self.injected_latency_ns.store(0, Ordering::Relaxed);
        self.inflight.reset();
        self.latency.read.reset();
        self.latency.write.reset();
    }
}

/// A point-in-time copy of a device's [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Chunk reads served.
    pub reads: u64,
    /// Chunk writes served.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Injected faults observed (always 0 for plain backends).
    pub faults: u64,
    /// Total artificial latency injected by a [`FaultInjectingDevice`],
    /// in nanoseconds (always 0 for plain backends) — separates modelled
    /// device time from engine overhead in rebuild accounting.
    pub injected_latency_ns: u64,
    /// Peak queue depth: the most operations concurrently inside the
    /// device since construction (or the last counter reset).
    pub max_inflight: u64,
}

impl CounterSnapshot {
    /// Counter deltas since `earlier` (saturating). `max_inflight` is a
    /// peak, not an accumulator, so the later snapshot's value carries
    /// through unchanged.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            faults: self.faults.saturating_sub(earlier.faults),
            injected_latency_ns: self
                .injected_latency_ns
                .saturating_sub(earlier.injected_latency_ns),
            max_inflight: self.max_inflight,
        }
    }

    /// Total I/O operations (reads + writes).
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }
}

impl fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reads ({} B), {} writes ({} B), {} faults",
            self.reads, self.bytes_read, self.writes, self.bytes_written, self.faults
        )?;
        if self.injected_latency_ns > 0 {
            write!(
                f,
                ", {:.2} ms injected latency",
                self.injected_latency_ns as f64 / 1e6
            )?;
        }
        Ok(())
    }
}

pub(crate) fn check_io_run(
    first: usize,
    count: usize,
    chunks: usize,
    buf_len: usize,
    chunk_size: usize,
) -> Result<(), DeviceError> {
    if first + count > chunks {
        return Err(DeviceError::OutOfRange {
            chunk: (first + count).saturating_sub(1),
            chunks,
        });
    }
    if buf_len != count * chunk_size {
        return Err(DeviceError::WrongBufferSize {
            found: buf_len,
            expected: count * chunk_size,
        });
    }
    Ok(())
}

/// Rejects a byte range that runs backwards or past a chunk's end.
pub(crate) fn check_range(range: &Range<usize>, chunk_size: usize) -> Result<(), DeviceError> {
    if range.start > range.end || range.end > chunk_size {
        return Err(DeviceError::RangeOutsideChunk {
            range: range.clone(),
            chunk_size,
        });
    }
    Ok(())
}

/// [`check_io`] and [`check_range`]: the checks every range I/O makes
/// before it touches the device.
pub(crate) fn check_range_io(
    chunk: usize,
    range: &Range<usize>,
    chunks: usize,
    buf_len: usize,
    chunk_size: usize,
) -> Result<(), DeviceError> {
    check_io(chunk, chunks, buf_len, chunk_size)?;
    check_range(range, chunk_size)
}

pub(crate) fn check_io(
    chunk: usize,
    chunks: usize,
    buf_len: usize,
    chunk_size: usize,
) -> Result<(), DeviceError> {
    if chunk >= chunks {
        return Err(DeviceError::OutOfRange { chunk, chunks });
    }
    if buf_len != chunk_size {
        return Err(DeviceError::WrongBufferSize {
            found: buf_len,
            expected: chunk_size,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_deltas() {
        let c = Counters::default();
        let t = Duration::from_micros(1);
        c.record_read(0, 64, t);
        c.record_read(0, 64, t);
        c.record_write(0, 64, t);
        let a = c.snapshot();
        c.record_read(0, 64, t);
        let b = c.snapshot();
        let d = b.since(&a);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 0);
        assert_eq!(d.bytes_read, 64);
        assert_eq!(b.ops(), 4);
        c.reset();
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn inflight_peak_tracks_concurrent_guards() {
        let t = InflightTracker::default();
        assert_eq!(t.peak(), 0);
        let a = t.begin();
        let b = t.begin();
        assert_eq!(t.peak(), 2);
        drop(b);
        let _c = t.begin();
        assert_eq!(t.peak(), 2, "peak is sticky across drops");
        drop(a);
        // Reset keeps the still-in-flight op (`_c`) in the new peak.
        t.reset();
        assert_eq!(t.peak(), 1);
        // The counter snapshot surfaces the peak and `since` keeps the
        // later snapshot's value (a peak is not a delta).
        let c = Counters::default();
        {
            let _one = c.begin_io();
            let _two = c.begin_io();
        }
        let early = CounterSnapshot::default();
        assert_eq!(c.snapshot().max_inflight, 2);
        assert_eq!(c.snapshot().since(&early).max_inflight, 2);
    }

    #[test]
    fn counters_feed_latency_histograms() {
        telemetry::set_enabled(true);
        let c = Counters::default();
        c.record_read(0, 64, Duration::from_micros(5));
        c.record_write(0, 64, Duration::from_micros(9));
        let lat = c.latency();
        assert_eq!(lat.read.count(), 1);
        assert!(lat.read.max() >= 5_000);
        assert_eq!(lat.write.count(), 1);
        c.reset();
        assert_eq!(lat.read.count(), 0, "reset clears shared histograms");
    }

    #[test]
    fn snapshot_display_and_injected_latency_delta() {
        let a = CounterSnapshot {
            reads: 2,
            bytes_read: 128,
            injected_latency_ns: 1_000_000,
            ..CounterSnapshot::default()
        };
        let b = CounterSnapshot {
            reads: 5,
            bytes_read: 320,
            injected_latency_ns: 4_500_000,
            ..CounterSnapshot::default()
        };
        let d = b.since(&a);
        assert_eq!(d.injected_latency_ns, 3_500_000);
        let shown = d.to_string();
        assert!(shown.contains("3 reads"), "{shown}");
        assert!(shown.contains("3.50 ms injected latency"), "{shown}");
        assert!(
            !CounterSnapshot::default().to_string().contains("injected"),
            "zero injected latency stays out of the display"
        );
    }

    #[test]
    fn error_display() {
        assert!(DeviceError::Failed.to_string().contains("failed"));
        assert!(DeviceError::OutOfRange {
            chunk: 9,
            chunks: 4
        }
        .to_string()
        .contains('9'));
        assert!(DeviceError::RangeOutsideChunk {
            range: 3..9,
            chunk_size: 8
        }
        .to_string()
        .contains("3..9"));
        assert!(DeviceError::InjectedFault {
            chunk: 2,
            transient: true
        }
        .to_string()
        .contains("transient"));
        assert!(DeviceError::InjectedFault {
            chunk: 2,
            transient: false
        }
        .to_string()
        .contains("latent"));
        let io = DeviceError::Io {
            kind: std::io::ErrorKind::TimedOut,
            message: "slow disk".into(),
        };
        assert!(io.to_string().contains("TimedOut"), "{io}");
    }

    #[test]
    fn error_classification() {
        use std::io::ErrorKind;
        assert!(DeviceError::InjectedFault {
            chunk: 0,
            transient: true
        }
        .is_transient());
        assert!(!DeviceError::InjectedFault {
            chunk: 0,
            transient: false
        }
        .is_transient());
        assert!(!DeviceError::Failed.is_transient());
        assert!(!DeviceError::OutOfRange {
            chunk: 1,
            chunks: 1
        }
        .is_transient());
        for (kind, transient) in [
            (ErrorKind::Interrupted, true),
            (ErrorKind::TimedOut, true),
            (ErrorKind::WouldBlock, true),
            (ErrorKind::NotFound, false),
            (ErrorKind::PermissionDenied, false),
            (ErrorKind::UnexpectedEof, false),
        ] {
            let e = DeviceError::Io {
                kind,
                message: String::new(),
            };
            assert_eq!(e.is_transient(), transient, "{kind:?}");
        }
    }
}
