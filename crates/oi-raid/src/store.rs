//! A byte-level OI-RAID array: real data, real XOR parity in both layers,
//! real reconstruction. This is the end-to-end proof that the geometry and
//! the codes compose correctly — the integration tests write data, kill
//! three disks, and get every byte back.
//!
//! The store is generic over its backing [`BlockDevice`]: [`MemDevice`]
//! (RAM, the default), [`FileDevice`] (one file per disk, for arrays larger
//! than RAM), or [`FaultInjectingDevice`](blockdev::FaultInjectingDevice)
//! (seeded fault/latency injection for robustness tests and rebuild
//! experiments). Recovery runs through the plan-driven executor in
//! [`crate::rebuild`], which drains all surviving disks concurrently.
//!
//! The store is **online**: every I/O entry point takes `&self` (devices
//! are interior-mutable), reads *and writes* keep working while disks are
//! failed or a rebuild is in flight, and a rebuild window (see
//! [`crate::online`]) keeps mid-rebuild chunks reading as missing until
//! they are written back. A value the store cannot simply read — a degraded
//! read's, a write's old data or parity — comes off one ladder (device
//! read, one relation of the chunk's own, the recovery plan's dependency
//! closure: `OiRaidStore::current_values`) through the rebuild engine's
//! combiner. Degraded writes apply the XOR delta to every member whose
//! device is up and leave the missing ones to the rebuilder — the parity
//! relations then imply the *new* values, so nothing is lost.

use std::collections::{BTreeMap, BTreeSet};
use std::convert::identity;
use std::fmt;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use blockdev::{
    crash_point, write_range_retrying, BlockDevice, DeviceError, FileDevice, FlushPolicy, Journal,
    MemDevice, RedoMember, RetryPolicy, RetryReader, RetryStats,
};
use ecc::{ErasureCode, Raid6, XorParity};
use gf::Gf256;
use layout::{ChunkAddr, ChunkRecovery, Layout, LayoutError, RecoveryPlan};
use telemetry::{Histogram, Registry, Sharded};

use crate::array::OiRaid;
use crate::bufpool::BufPool;
use crate::config::OiRaidConfig;
use crate::geometry::{Geometry, PayloadPos};
use crate::multifail;
use crate::online::{OnlineState, Region};
use crate::qos::{QosConfig, QosCounters, QosState};
use crate::rebuild::{combine, read_run_healing, run_chunks, Inputs};

/// Errors from the byte-level store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A data index is out of range.
    IndexOutOfRange {
        /// The offending logical index.
        index: usize,
        /// Number of data chunks.
        capacity: usize,
    },
    /// A write buffer has the wrong length.
    WrongChunkSize {
        /// Bytes supplied.
        found: usize,
        /// Chunk size of the store.
        expected: usize,
    },
    /// The operation needs a disk that is currently failed.
    DiskFailed {
        /// The failed disk.
        disk: usize,
    },
    /// A disk index is out of range.
    DiskOutOfRange {
        /// The offending disk index.
        disk: usize,
    },
    /// The current failure pattern is unrecoverable.
    DataLoss,
    /// A backend device reported an error (injected fault, I/O failure, or
    /// a geometry mismatch at construction).
    Device {
        /// The disk whose device errored.
        disk: usize,
        /// The underlying device error.
        error: DeviceError,
    },
    /// A layout-level query rejected the operation (e.g. the update set of
    /// a parity address).
    Layout {
        /// The underlying layout error.
        error: LayoutError,
    },
    /// The write-ahead journal failed (append, flush, or rewind) — the
    /// update was not made durable and no member was written.
    Journal {
        /// The underlying I/O error kind.
        kind: std::io::ErrorKind,
        /// Human-readable description.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::IndexOutOfRange { index, capacity } => {
                write!(f, "data index {index} out of range ({capacity} chunks)")
            }
            Self::WrongChunkSize { found, expected } => {
                write!(f, "chunk has {found} bytes, store uses {expected}")
            }
            Self::DiskFailed { disk } => write!(f, "disk {disk} is failed"),
            Self::DiskOutOfRange { disk } => write!(f, "disk {disk} out of range"),
            Self::DataLoss => write!(f, "failure pattern is unrecoverable"),
            Self::Device { disk, error } => write!(f, "device {disk}: {error}"),
            Self::Layout { error } => write!(f, "layout: {error}"),
            Self::Journal { message, .. } => write!(f, "journal: {message}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// What one [`OiRaidStore::scrub`] pass found and fixed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Chunks probed on online disks (latent pass).
    pub scanned: u64,
    /// Silently-corrupted chunks repaired from the redundancy.
    pub repaired_corruption: Vec<ChunkAddr>,
    /// Latent sector errors (unreadable after retries) re-derived from
    /// their relations and repaired by rewriting in place.
    pub repaired_latent: Vec<ChunkAddr>,
    /// Unreadable chunks the scrub could not repair (no decodable read
    /// set, or the rewrite failed) — left for rebuild or operator action.
    pub unrecoverable: Vec<ChunkAddr>,
    /// Reads the latent pass's probe retried after transient faults. The
    /// repairs' own reads and writes retry under the same policy, like any
    /// foreground I/O, and are not counted here.
    pub retries: u64,
    /// Wall-clock time of the whole pass.
    pub wall: Duration,
}

impl ScrubReport {
    /// Whether the pass found nothing wrong (no repairs, nothing
    /// unrecoverable).
    pub fn is_clean(&self) -> bool {
        self.repaired_corruption.is_empty()
            && self.repaired_latent.is_empty()
            && self.unrecoverable.is_empty()
    }
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scrub: {} chunks scanned in {:?}, {} corruption repairs, \
             {} latent repairs, {} unrecoverable, {} retries",
            self.scanned,
            self.wall,
            self.repaired_corruption.len(),
            self.repaired_latent.len(),
            self.unrecoverable.len(),
            self.retries,
        )
    }
}

/// Store-level telemetry: foreground and degraded I/O visibility.
///
/// Every [`OiRaidStore`] owns one. All foreground requests
/// ([`OiRaidStore::read_data`] / [`OiRaidStore::write_data`] and the byte
/// paths) record per-class latency; requests that had to reconstruct
/// through the redundancy additionally bump the degraded counters. The
/// foreground histograms are what experiment E17 reads its p99 from.
/// Counters and histograms are per-thread sharded ([`telemetry::Sharded`]),
/// so concurrent clients do not share a cache line through them.
#[derive(Debug, Default)]
pub struct StoreTelemetry {
    degraded_reads: Sharded,
    degraded_latency: Arc<Histogram>,
    degraded_writes: Sharded,
    degraded_write_latency: Arc<Histogram>,
    foreground_reads: Sharded,
    foreground_read_latency: Arc<Histogram>,
    foreground_writes: Sharded,
    foreground_write_latency: Arc<Histogram>,
    batch_read_requests: Sharded,
    batch_read_chunks: Sharded,
    batch_write_requests: Sharded,
    batch_write_chunks: Sharded,
}

impl Clone for StoreTelemetry {
    /// Cloned stores start with fresh telemetry — counters describe one
    /// store instance's history, not its lineage.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl StoreTelemetry {
    /// Reads served by reconstruction because the chunk's disk was failed.
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_reads.get()
    }

    /// End-to-end latency of degraded reads, in nanoseconds.
    pub fn degraded_read_latency(&self) -> Arc<Histogram> {
        Arc::clone(&self.degraded_latency)
    }

    /// Writes that found part of their update set unavailable and went
    /// through the degraded (reconstruct + partial-patch) path.
    pub fn degraded_writes(&self) -> u64 {
        self.degraded_writes.get()
    }

    /// End-to-end latency of degraded writes, in nanoseconds.
    pub fn degraded_write_latency(&self) -> Arc<Histogram> {
        Arc::clone(&self.degraded_write_latency)
    }

    /// All foreground chunk reads served (healthy and degraded).
    pub fn foreground_reads(&self) -> u64 {
        self.foreground_reads.get()
    }

    /// End-to-end foreground read latency, in nanoseconds.
    pub fn foreground_read_latency(&self) -> Arc<Histogram> {
        Arc::clone(&self.foreground_read_latency)
    }

    /// All foreground chunk writes served (healthy and degraded).
    pub fn foreground_writes(&self) -> u64 {
        self.foreground_writes.get()
    }

    /// End-to-end foreground write latency, in nanoseconds.
    pub fn foreground_write_latency(&self) -> Arc<Histogram> {
        Arc::clone(&self.foreground_write_latency)
    }

    /// `n` chunk reads that all saw latency `took`: one counter add and one
    /// histogram touch, whatever `n`.
    fn record_reads(count: &Sharded, latency: &Histogram, took: Duration, n: usize) {
        count.add(n as u64);
        latency.record_n(took.as_nanos().min(u64::MAX as u128) as u64, n as u64);
    }

    fn record_degraded_reads(&self, took: Duration, n: usize) {
        Self::record_reads(&self.degraded_reads, &self.degraded_latency, took, n);
    }

    fn record_degraded_write(&self, took: Duration) {
        self.degraded_writes.add(1);
        self.degraded_write_latency.record_duration(took);
    }

    fn record_foreground_reads(&self, took: Duration, n: usize) {
        let latency = &self.foreground_read_latency;
        Self::record_reads(&self.foreground_reads, latency, took, n);
    }

    fn record_foreground_write(&self, took: Duration) {
        self.foreground_writes.add(1);
        self.foreground_write_latency.record_duration(took);
    }

    /// Logical read requests submitted through
    /// [`OiRaidStore::read_data_batch`].
    pub fn batch_read_requests(&self) -> u64 {
        self.batch_read_requests.get()
    }

    /// Distinct chunks actually fetched for those batched reads — the gap
    /// to [`Self::batch_read_requests`] is the dedup win.
    pub fn batch_read_chunks(&self) -> u64 {
        self.batch_read_chunks.get()
    }

    /// Logical byte-range requests submitted through
    /// [`OiRaidStore::write_bytes_batch`].
    pub fn batch_write_requests(&self) -> u64 {
        self.batch_write_requests.get()
    }

    /// Distinct chunk read-modify-writes performed for those batched
    /// writes — the gap to [`Self::batch_write_requests`] is the
    /// coalescing win.
    pub fn batch_write_chunks(&self) -> u64 {
        self.batch_write_chunks.get()
    }

    fn record_batch_read(&self, requests: u64, chunks: u64) {
        self.batch_read_requests.add(requests);
        self.batch_read_chunks.add(chunks);
    }

    fn record_batch_write(&self, stats: BatchStats) {
        self.batch_write_requests.add(stats.requests as u64);
        self.batch_write_chunks.add(stats.chunks as u64);
    }
}

/// Aggregate outcome of one [`OiRaidStore::write_bytes_batch`] submission:
/// how many logical byte-range requests collapsed into how many physical
/// chunk read-modify-writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Logical byte-range requests submitted.
    pub requests: usize,
    /// Distinct chunks touched (read-modify-write cycles performed).
    pub chunks: usize,
}

/// Upper bound on chunks per batched-write commit group: caps the region
/// lock footprint and in-flight scratch while still amortizing parity
/// read-modify-writes across the group. A journal-attached store widens
/// this to the whole batch so one coalesced volume wave costs exactly one
/// journal flush (see [`OiRaidStore::write_bytes_batch`]). The degraded
/// chunks of a batched read are cut into groups of the same size.
const MAX_WRITE_GROUP: usize = 32;

fn journal_err(e: std::io::Error) -> StoreError {
    StoreError::Journal {
        kind: e.kind(),
        message: e.to_string(),
    }
}

/// Rejects `chunk_size == 0` before any device is built or opened
/// ([`MemDevice::new`] panics on it; the file backends would report a
/// device error instead of [`StoreError::WrongChunkSize`]).
fn nonzero_chunk_size(chunk_size: usize) -> Result<(), StoreError> {
    if chunk_size == 0 {
        return Err(StoreError::WrongChunkSize {
            found: 0,
            expected: 1,
        });
    }
    Ok(())
}

/// The inner-layer row code of an array: RAID5 for `p_in = 1`, RAID6 for
/// `p_in = 2` (payload width `g − p_in`).
fn row_code(geo: &Geometry) -> Box<dyn ErasureCode> {
    match geo.p_in {
        1 => Box::new(XorParity::new(geo.g - 1).expect("g >= 2")),
        2 => Box::new(Raid6::new(geo.g - 2).expect("g >= 3")),
        p => unreachable!("config validates p_in, got {p}"),
    }
}

/// Retry budget for *every* device read and write the store issues —
/// foreground chunk reads and writes, gathers, scrub and rebuild: 4
/// attempts, backing off 50 µs doubling to a 2 ms cap
/// (`RetryPolicy::default()`). Transient faults are retried within it;
/// what stays unreadable is a miss the value ladder decodes around.
pub(crate) const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    base_backoff: Duration::from_micros(50),
    max_backoff: Duration::from_millis(2),
};

/// Chunk credits between mid-round rebuild checkpoints of a durable store
/// (see [`OiRaidStore::set_checkpoint_policy`] to choose another).
const CKPT_INTERVAL: u64 = 128;

/// One touched chunk in a batched write: its data index and the
/// `(offset-within-chunk, bytes)` patches targeting it, in submission order.
type ChunkPatches<'a> = (usize, Vec<(usize, &'a [u8])>);

/// Splits the byte range `offset..offset + len` of the logical data address
/// space at chunk boundaries: one `(data chunk index, offset within that
/// chunk, range of the caller's buffer)` per touched chunk, ascending.
fn chunk_pieces(
    chunk_size: usize,
    offset: u64,
    len: usize,
) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let cs = chunk_size as u64;
    let mut done = 0usize;
    std::iter::from_fn(move || {
        if done == len {
            return None;
        }
        let pos = offset + done as u64;
        let within = (pos % cs) as usize;
        let take = (chunk_size - within).min(len - done);
        let piece = ((pos / cs) as usize, within, done..done + take);
        done += take;
        Some(piece)
    })
}

/// One member's computed new value awaiting commit.
struct MemberNew {
    addr: ChunkAddr,
    /// A whole chunk's buffer holding the member's absolute new bytes over
    /// `range` (around it, whatever its device read returned).
    bytes: Vec<u8>,
    /// Data chunks written whole become window-valid at commit, parity
    /// chunks do not.
    is_data: bool,
    /// The bytes the commit writes and the journal logs (see
    /// [`OiRaidStore::logged_range`]).
    range: Range<usize>,
}

/// A parity member's accumulated delta and the byte range it may be
/// nonzero in: the union of the ranges of the data deltas it absorbed. The
/// buffer holds the delta over that range only.
type ParityDelta = (Vec<u8>, Range<usize>);

/// What a foreground op holds on the value ladder ([`OiRaidStore::on_ladder`]):
/// the relations it locked, the plan they were locked for with its epoch,
/// the chunks whose values it decoded rather than read, and whether the
/// write attempt running under them moves every member whole
/// ([`OiRaidStore::logs_whole`], fixed when the attempt starts).
struct Held {
    regions: Vec<Region>,
    plan: Option<(u64, RecoveryPlan)>,
    decoded: Vec<ChunkAddr>,
    whole: bool,
}

/// The bytes a patch list changes, at most: from its lowest offset to the
/// end of its furthest patch.
fn hull(patches: &[(usize, &[u8])]) -> Range<usize> {
    let start = patches.iter().map(|(at, _)| *at).min().unwrap_or(0);
    let end = patches
        .iter()
        .map(|(at, s)| at + s.len())
        .max()
        .unwrap_or(0);
    start..end
}

/// An OI-RAID array storing real bytes on pluggable block devices.
///
/// Writes maintain both parity layers incrementally (1 data + 3 parity chunk
/// writes — the update-optimal path); reads reconstruct transparently while
/// disks are failed; writes against failed disks take the degraded path
/// (reconstruct old value, patch the surviving members);
/// [`OiRaidStore::rebuild`] performs actual recovery. All I/O entry points
/// take `&self` and are safe to call concurrently — including while a
/// rebuild runs on another thread.
///
/// # Example
///
/// ```
/// use oi_raid::{OiRaidConfig, OiRaidStore};
///
/// let store = OiRaidStore::new(OiRaidConfig::reference(), 64).unwrap();
/// store.write_data(0, &[7u8; 64]).unwrap();
/// store.fail_disk(store.locate(0).disk).unwrap();
/// // Degraded read reconstructs through the redundancy:
/// assert_eq!(store.read_data(0).unwrap(), vec![7u8; 64]);
/// // Degraded write: the lost chunk's new value is implied by the
/// // updated parities and materialises on rebuild.
/// store.write_data(0, &[9u8; 64]).unwrap();
/// assert_eq!(store.read_data(0).unwrap(), vec![9u8; 64]);
/// ```
#[derive(Debug)]
pub struct OiRaidStore<B: BlockDevice = MemDevice> {
    array: OiRaid,
    chunk_size: usize,
    /// One device per disk; failed disks are failed *devices*.
    devices: Vec<B>,
    telem: StoreTelemetry,
    /// Rebuild-window availability + dirty tracking for online rebuilds.
    online: OnlineState,
    /// Foreground/rebuild bandwidth arbitration.
    qos: QosState,
    /// Pool-size override for [`RebuildMode::Dag`](crate::RebuildMode::Dag)
    /// rounds; `usize::MAX` is the "unset" sentinel (= size the pool from
    /// the plan's queue count).
    dag_workers: AtomicUsize,
    /// Recycled chunk-sized scratch buffers for the RMW delta/parity legs.
    pool: BufPool,
    /// The inner-layer row code, built once (see [`row_code`]).
    inner: Box<dyn ErasureCode>,
    /// Write-ahead parity journal: when attached, every multi-member
    /// update logs the new bytes of each member's changed range as one
    /// intent record and group-commits it before any device write (see
    /// `commit_members`).
    durable: Option<Arc<DurableState>>,
    /// Rebuild checkpoint policy: when set, the rebuild engine serializes
    /// its valid-set every `interval` chunk credits (and each round) so a
    /// restarted process can resume instead of starting over.
    ckpt: Mutex<Option<CheckpointPolicy>>,
}

/// Journal handle plus the recovery counters from the open that created it.
#[derive(Debug)]
struct DurableState {
    journal: Journal,
    /// When member devices are flushed relative to applied markers: the
    /// process-crash vs power-loss durability knob (see [`FlushPolicy`]).
    policy: FlushPolicy,
    /// Intents redone at `open_durable_on` (0 for a fresh store).
    replayed: u64,
    /// Torn journal tails rolled back at `open_durable_on`.
    rolled_back: u64,
    /// Corrupt mid-log regions skipped during recovery.
    skipped: u64,
    /// `FlushPolicy::Timed` bookkeeping: applied markers deferred until
    /// the covering member flush completes.
    pending: Mutex<PendingFlush>,
    /// Member-flush counters and histograms (`oi_flush_*`).
    flush_stats: FlushStats,
}

impl DurableState {
    fn new(journal: Journal, policy: FlushPolicy) -> Self {
        Self {
            journal,
            policy,
            replayed: 0,
            rolled_back: 0,
            skipped: 0,
            pending: Mutex::new(PendingFlush::new()),
            flush_stats: FlushStats::default(),
        }
    }
}

/// Applied markers waiting for their covering member flush under
/// [`FlushPolicy::Timed`]: the high-water mark of sequence numbers whose
/// member writes have completed but not yet been flushed, plus the disks
/// those writes dirtied.
#[derive(Debug)]
struct PendingFlush {
    /// Intent sequence numbers whose applied markers are deferred.
    seqs: Vec<u64>,
    /// Disks dirtied by those intents' member writes.
    dirty: BTreeSet<usize>,
    /// When the last flush cycle started (deadline baseline).
    last_flush: Instant,
}

impl PendingFlush {
    fn new() -> Self {
        Self {
            seqs: Vec::new(),
            dirty: BTreeSet::new(),
            last_flush: Instant::now(),
        }
    }
}

/// Counters a store exports as `oi_flush_*` metrics.
#[derive(Debug)]
struct FlushStats {
    /// Member-flush barriers performed (one per wave or timed cycle).
    waves: AtomicU64,
    /// Individual device flushes issued across all barriers.
    devices: AtomicU64,
    /// Devices flushed per barrier (the flush batch size).
    batch: Arc<Histogram>,
    /// Wall time a commit stalled behind one barrier, in nanoseconds.
    stall: Arc<Histogram>,
}

impl Default for FlushStats {
    fn default() -> Self {
        Self {
            waves: AtomicU64::new(0),
            devices: AtomicU64::new(0),
            batch: Arc::new(Histogram::new()),
            stall: Arc::new(Histogram::new()),
        }
    }
}

/// Handle to the background flusher thread of a [`FlushPolicy::Timed`]
/// store (see [`OiRaidStore::spawn_flusher`]). Dropping it stops the
/// thread after one final flush cycle.
#[derive(Debug)]
pub struct FlusherHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for FlusherHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Where and how often the rebuild engine checkpoints (see
/// [`OiRaidStore::set_checkpoint_policy`]).
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (written atomically via temp + rename).
    pub path: std::path::PathBuf,
    /// Chunk credits between mid-round checkpoints; each round boundary
    /// also checkpoints regardless.
    pub interval: u64,
}

impl<B: BlockDevice + Clone> Clone for OiRaidStore<B> {
    /// Clones the array geometry, devices, and policies. Telemetry starts
    /// fresh (counters describe one store instance's history) and the
    /// scratch pool starts empty.
    fn clone(&self) -> Self {
        Self {
            array: self.array.clone(),
            chunk_size: self.chunk_size,
            devices: self.devices.clone(),
            telem: self.telem.clone(),
            online: self.online.clone(),
            qos: self.qos.clone(),
            dag_workers: AtomicUsize::new(self.dag_workers.load(Ordering::Relaxed)),
            pool: BufPool::new(self.chunk_size),
            inner: row_code(self.array.geometry()),
            durable: self.durable.clone(),
            ckpt: Mutex::new(self.ckpt.lock().expect("ckpt lock").clone()),
        }
    }
}

impl OiRaidStore<MemDevice> {
    /// Creates a zero-filled memory-backed store with `chunk_size` bytes
    /// per chunk.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from [`OiRaid::new`]; fails on
    /// `chunk_size == 0` via [`StoreError::WrongChunkSize`].
    pub fn new(cfg: OiRaidConfig, chunk_size: usize) -> Result<Self, StoreError> {
        nonzero_chunk_size(chunk_size)?;
        let devices = MemDevice::array(chunk_size, cfg.chunks_per_disk(), cfg.disks());
        Self::with_devices(cfg, chunk_size, devices)
    }
}

impl OiRaidStore<FileDevice> {
    /// Creates a zero-filled file-backed store: one `disk-NNN.img` file per
    /// disk under `dir` (created if absent). Arrays larger than RAM work;
    /// contents persist until the files are deleted.
    ///
    /// # Errors
    ///
    /// [`StoreError::WrongChunkSize`] for `chunk_size == 0`,
    /// [`StoreError::Device`] on filesystem errors.
    pub fn create_in_dir(
        cfg: OiRaidConfig,
        chunk_size: usize,
        dir: impl AsRef<Path>,
    ) -> Result<Self, StoreError> {
        nonzero_chunk_size(chunk_size)?;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| StoreError::Device {
            disk: 0,
            error: DeviceError::Io {
                kind: e.kind(),
                message: e.to_string(),
            },
        })?;
        let devices = (0..cfg.disks())
            .map(|d| {
                FileDevice::create(
                    dir.join(format!("disk-{d:03}.img")),
                    chunk_size,
                    cfg.chunks_per_disk(),
                )
                .map_err(|error| StoreError::Device { disk: d, error })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::with_devices(cfg, chunk_size, devices)
    }

    /// Creates a *crash-consistent* file-backed store under `dir`: device
    /// files as [`Self::create_in_dir`], plus a write-ahead parity journal
    /// (`journal.log`) threaded through every multi-member update and a
    /// rebuild checkpoint policy (`rebuild.ckpt`, every 128 chunk credits).
    ///
    /// `policy` says when member devices are flushed relative to applied
    /// markers ([`FlushPolicy::Never`]: process-crash durability). Use
    /// [`Self::open_durable_with`] to reopen the same directory after a
    /// crash or clean shutdown.
    ///
    /// # Errors
    ///
    /// As [`Self::create_in_dir`], plus [`StoreError::Journal`] if the
    /// journal file cannot be created.
    pub fn create_durable_with(
        cfg: OiRaidConfig,
        chunk_size: usize,
        dir: impl AsRef<Path>,
        policy: FlushPolicy,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let store = Self::create_in_dir(cfg, chunk_size, dir)?;
        store.into_durable_created(dir, policy)
    }

    /// Reopens a durable store created by [`Self::create_durable_with`] —
    /// the crash-recovery path. Device files are opened *without*
    /// truncation, the journal is scanned, committed-but-unapplied intents
    /// are redone onto the devices (absolute values, so replay is
    /// idempotent), torn tails are rolled back, and the journal is reset.
    /// A [`telemetry::EventKind::JournalReplay`] flight event records the
    /// counts; `oi_journal_replayed_total` / `oi_journal_rolled_back_total`
    /// export them.
    ///
    /// All devices come back *healthy*: disk-failure state is not
    /// persistent. Callers tracking failed disks across the crash must
    /// re-fail the ones that are genuinely dead (healing later swaps in a
    /// blank replacement) and may then [`Self::resume_rebuild`] from the
    /// checkpoint. Do *not* re-fail a disk whose device file survived the
    /// crash intact mid-rebuild — `resume_rebuild` reopens the rebuild
    /// window from the checkpoint and keeps its restored chunks.
    ///
    /// # Errors
    ///
    /// [`StoreError::Device`] if any device file is missing or has the
    /// wrong size, [`StoreError::Journal`] on journal I/O errors.
    pub fn open_durable_with(
        cfg: OiRaidConfig,
        chunk_size: usize,
        dir: impl AsRef<Path>,
        policy: FlushPolicy,
    ) -> Result<Self, StoreError> {
        nonzero_chunk_size(chunk_size)?;
        let dir = dir.as_ref();
        let devices = (0..cfg.disks())
            .map(|d| {
                FileDevice::open(
                    dir.join(format!("disk-{d:03}.img")),
                    chunk_size,
                    cfg.chunks_per_disk(),
                )
                .map_err(|error| StoreError::Device { disk: d, error })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::open_durable_on(cfg, chunk_size, devices, dir, policy)
    }
}

impl<B: BlockDevice> OiRaidStore<B> {
    /// Wraps caller-provided devices (one per disk, in disk order). Devices
    /// must all use `chunk_size`-byte chunks and hold exactly
    /// `chunks_per_disk` chunks.
    ///
    /// # Errors
    ///
    /// [`StoreError::Device`] with [`DeviceError::WrongBufferSize`] /
    /// [`DeviceError::OutOfRange`] on geometry mismatches,
    /// [`StoreError::DiskOutOfRange`] when the device count differs from
    /// the array's disk count.
    pub fn with_devices(
        cfg: OiRaidConfig,
        chunk_size: usize,
        devices: Vec<B>,
    ) -> Result<Self, StoreError> {
        nonzero_chunk_size(chunk_size)?;
        let array = OiRaid::new(cfg).expect("validated config constructs");
        if devices.len() != array.disks() {
            return Err(StoreError::DiskOutOfRange {
                disk: devices.len(),
            });
        }
        for (d, dev) in devices.iter().enumerate() {
            if dev.chunk_size() != chunk_size {
                return Err(StoreError::Device {
                    disk: d,
                    error: DeviceError::WrongBufferSize {
                        found: dev.chunk_size(),
                        expected: chunk_size,
                    },
                });
            }
            if dev.chunks() != array.chunks_per_disk() {
                return Err(StoreError::Device {
                    disk: d,
                    error: DeviceError::OutOfRange {
                        chunk: dev.chunks(),
                        chunks: array.chunks_per_disk(),
                    },
                });
            }
        }
        Ok(Self {
            inner: row_code(array.geometry()),
            array,
            chunk_size,
            devices,
            telem: StoreTelemetry::default(),
            online: OnlineState::default(),
            qos: QosState::new(QosConfig::default()),
            dag_workers: AtomicUsize::new(usize::MAX),
            pool: BufPool::new(chunk_size),
            durable: None,
            ckpt: Mutex::new(None),
        })
    }

    /// The underlying array.
    pub fn array(&self) -> &OiRaid {
        &self.array
    }

    /// The backing devices, in disk order (counters, fault state).
    pub fn devices(&self) -> &[B] {
        &self.devices
    }

    pub(crate) fn online(&self) -> &OnlineState {
        &self.online
    }

    pub(crate) fn qos(&self) -> &QosState {
        &self.qos
    }

    /// Replaces the rebuild-bandwidth policy (rate cap, burst size,
    /// foreground-activity window). Takes effect on the next rebuild
    /// batch, including mid-rebuild.
    pub fn set_qos(&self, cfg: QosConfig) {
        self.qos.set_config(cfg);
    }

    /// Cumulative rebuild-throttle counters for this store instance.
    pub fn qos_counters(&self) -> QosCounters {
        self.qos.counters()
    }

    /// Bytes per chunk.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Pool-size override for [`RebuildMode::Dag`](crate::RebuildMode::Dag)
    /// rounds, if one was set.
    pub fn dag_workers(&self) -> Option<usize> {
        match self.dag_workers.load(Ordering::Relaxed) {
            usize::MAX => None,
            n => Some(n),
        }
    }

    /// Overrides the DAG-mode worker-pool size. `None` (the default) sizes
    /// the pool at twice the plan's per-disk queue count, enough to keep
    /// every surviving disk's queue busy while combines and writebacks
    /// overlap. Takes `&self` — the next DAG round picks up the new size.
    /// (`Some(usize::MAX)` is reserved as the "unset" sentinel and reads
    /// back as `None`.)
    pub fn set_dag_workers(&self, workers: Option<usize>) {
        self.dag_workers
            .store(workers.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    /// Number of logical data chunks.
    pub fn data_chunks(&self) -> usize {
        self.array.data_chunks()
    }

    /// Physical address of logical data chunk `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn locate(&self, idx: usize) -> ChunkAddr {
        self.array.locate_data(idx)
    }

    /// Currently failed disks (ascending).
    pub fn failed_disks(&self) -> Vec<usize> {
        self.devices
            .iter()
            .enumerate()
            .filter_map(|(d, dev)| dev.is_failed().then_some(d))
            .collect()
    }

    fn disk_down(&self, disk: usize) -> bool {
        self.devices[disk].is_failed()
    }

    /// Whether `addr` currently holds trustworthy bytes: its device is up
    /// and it is not an un-rebuilt chunk inside an open rebuild window.
    fn chunk_available(&self, addr: ChunkAddr) -> bool {
        !self.disk_down(addr.disk) && !self.online.chunk_invalid(addr)
    }

    /// The parity relations `addr` participates in (its inner row, plus
    /// its outer stripe for payload chunks) — the granularity of the
    /// online dirty tracker.
    pub(crate) fn regions_for(&self, addr: ChunkAddr) -> impl Iterator<Item = Region> + '_ {
        multifail::relations_of(self.array.geometry(), addr)
    }

    /// Rung 1 of the value ladder (see [`Self::current_values`]): reads
    /// bytes `range` of `addr` from its device into the same bytes of `buf`
    /// ([`BlockDevice::read_range`]: what lands outside them is the
    /// device's business), through the retry layer and under the epoch
    /// ticket. `false` is a *miss*, never an error — the disk is
    /// failed, the chunk sits un-rebuilt inside an open rebuild window, or
    /// the member is up but stays unreadable past the retry policy (a
    /// latent sector): each is somebody's cue to decode, and scrubbing and
    /// verification, which skip relations they cannot fully read, see a
    /// stable view of flaky media.
    ///
    /// No lock spans the availability check and the read, and a whole fail
    /// → window open → heal fits between them, after which the device
    /// answers with a blank disk's zeroes for a chunk that was valid when
    /// asked. The window epoch moves on every such edge, so an unchanged
    /// epoch vouches for the answer; a changed one means ask again, not give
    /// up (a parity member may only be skipped when it really is
    /// unavailable).
    fn read_into(&self, addr: ChunkAddr, range: Range<usize>, buf: &mut [u8]) -> bool {
        loop {
            let epoch = self.online.epoch();
            // A plainly unavailable chunk costs no reader.
            let hit = self.chunk_available(addr)
                && RetryReader::new(&self.devices[addr.disk], RETRY)
                    .read_range(addr.offset, range.clone(), buf)
                    .is_ok();
            if self.online.epoch() == epoch {
                return hit;
            }
        }
    }

    /// Reads one chunk into a buffer of its own — a value that leaves the
    /// store. A chunk that is plainly unavailable costs no buffer.
    pub(crate) fn chunk(&self, addr: ChunkAddr) -> Option<Vec<u8>> {
        if !self.chunk_available(addr) {
            return None;
        }
        let mut buf = vec![0u8; self.chunk_size];
        self.read_into(addr, 0..self.chunk_size, &mut buf)
            .then_some(buf)
    }

    /// The inner-layer row code (see [`row_code`]), shared by the ladder,
    /// the scrub and every rebuild round.
    pub(crate) fn inner_code(&self) -> &dyn ErasureCode {
        self.inner.as_ref()
    }

    /// Writes one chunk, retrying transient device faults under the store
    /// policy so a flaky sector does not abort a multi-chunk parity update
    /// half-way through.
    pub(crate) fn write_chunk(&self, addr: ChunkAddr, data: &[u8]) -> Result<(), StoreError> {
        self.write_range(addr, 0..self.chunk_size, data)
    }

    /// [`Self::write_chunk`] of bytes `range` of `buf`, a whole chunk's
    /// buffer ([`BlockDevice::write_range`]): `buf` was read over the same
    /// range of the same chunk ([`Self::read_into`]) and changed only
    /// inside it, or holds the whole chunk's value.
    fn write_range(
        &self,
        addr: ChunkAddr,
        range: Range<usize>,
        buf: &[u8],
    ) -> Result<(), StoreError> {
        let stats = RetryStats::default();
        let dev = &self.devices[addr.disk];
        match write_range_retrying(dev, &RETRY, &stats, addr.offset, range, buf) {
            Ok(()) => Ok(()),
            Err(DeviceError::Failed) => Err(StoreError::DiskFailed { disk: addr.disk }),
            Err(error) => Err(StoreError::Device {
                disk: addr.disk,
                error,
            }),
        }
    }

    /// Rung 1 of the value ladder over a set (see [`Self::current_values`]):
    /// bytes `ranges[i]` of each of `addrs` (distinct) as its device serves
    /// them, or `None` for a miss (unavailable or unreadable, as in
    /// [`Self::read_into`]). What is available is read in device runs
    /// through [`Self::gather`] into pooled buffers, each handed to `keep`
    /// as it lands: `identity` keeps
    /// the pooled buffer (the caller hands it back with `self.pool.put` once
    /// the bytes are dead; dropping it is safe, just unpooled). The epoch
    /// ticket is [`Self::read_into`]'s: taken before the availability
    /// checks, compared after the last run, and a moved epoch asks again.
    /// A set of one is [`Self::read_into`]'s single read, which skips the
    /// gather's sort and bookkeeping: a write group resolves its parity
    /// members one at a time (EXPERIMENTS.md E32 measures the difference).
    fn read_set(
        &self,
        addrs: &[ChunkAddr],
        ranges: &[Range<usize>],
        mut keep: impl FnMut(Vec<u8>) -> Vec<u8>,
    ) -> Vec<Option<Vec<u8>>> {
        if let [addr] = addrs {
            let mut buf = self.pool.take_dirty();
            if self.read_into(*addr, ranges[0].clone(), &mut buf) {
                return vec![Some(keep(buf))];
            }
            self.pool.put(buf);
            return vec![None];
        }
        let staging = Mutex::default();
        loop {
            let epoch = self.online.epoch();
            let available = addrs.iter().copied().enumerate();
            let mut wanted: Vec<(usize, ChunkAddr)> = available
                .filter(|(_, a)| self.chunk_available(*a))
                .collect();
            wanted.sort_unstable_by_key(|w| w.1);
            let mut values = vec![None; addrs.len()];
            let range_of = |slot: usize| ranges[slot].clone();
            self.gather(&wanted, range_of, &staging, |slot, _, read| {
                values[slot] = read.ok().map(&mut keep);
            });
            if self.online.epoch() == epoch {
                return values;
            }
        }
    }

    /// The store's one gather, under both rungs of the ladder: reads
    /// `wanted` — `(slot, address)` pairs sorted by address, each address
    /// once — with one [`RetryReader`] per disk, consecutive offsets as one
    /// device run of at most [`run_chunks`] chunks ([`read_run_healing`],
    /// the rebuild engine's) into pooled buffers, one `DiskRun` trace scope
    /// per run. A slot that wants less than its whole chunk
    /// (`range_of(slot)`) joins no run: it is a run of one, which reads only
    /// its bytes. Every chunk goes to `sink` as `(slot, address, bytes or
    /// error)`.
    fn gather(
        &self,
        wanted: &[(usize, ChunkAddr)],
        range_of: impl Fn(usize) -> Range<usize>,
        staging: &Mutex<Vec<u8>>,
        mut sink: impl FnMut(usize, ChunkAddr, Result<Vec<u8>, DeviceError>),
    ) {
        let cs = self.chunk_size;
        let whole = |w: &(usize, ChunkAddr)| range_of(w.0).len() == cs;
        for on_disk in wanted.chunk_by(|a, b| a.1.disk == b.1.disk) {
            let disk = on_disk[0].1.disk;
            let reader = RetryReader::new(&self.devices[disk], RETRY);
            let adjacent = |a: &_, b: &_| whole(a) && whole(b) && a.1.offset + 1 == b.1.offset;
            for run in on_disk.chunk_by(adjacent) {
                for run in run.chunks(run_chunks(cs)) {
                    let kind = telemetry::EventKind::DiskRun;
                    let _trace = telemetry::trace_scope(kind, disk as u64, run.len() as u64);
                    let pool = &self.pool;
                    read_run_healing(&reader, run, &range_of, cs, pool, staging, &mut sink);
                }
            }
        }
    }

    /// Rejects a data chunk index past the end, before any I/O.
    fn check_index(&self, idx: usize) -> Result<(), StoreError> {
        let capacity = self.data_chunks();
        if idx >= capacity {
            return Err(StoreError::IndexOutOfRange {
                index: idx,
                capacity,
            });
        }
        Ok(())
    }

    /// Rejects a byte range that overflows or runs past
    /// [`Self::capacity_bytes`], before any I/O.
    fn check_range(&self, offset: u64, len: usize) -> Result<(), StoreError> {
        let capacity = self.capacity_bytes();
        if offset.checked_add(len as u64).is_none_or(|e| e > capacity) {
            return Err(StoreError::IndexOutOfRange {
                index: offset as usize,
                capacity: capacity as usize,
            });
        }
        Ok(())
    }

    /// Writes logical data chunk `idx`, updating both parity layers
    /// incrementally (4 chunk writes on 4 distinct disks on the healthy
    /// path).
    ///
    /// **Degraded writes work.** When members of the update set are
    /// unavailable (failed disk, or not yet restored by an in-flight
    /// rebuild), the old value is reconstructed through the redundancy and
    /// the XOR delta is applied to every *available* member; the missing
    /// members' implied values then already reflect the new data, so a
    /// subsequent rebuild materialises the write rather than losing it.
    ///
    /// # Errors
    ///
    /// [`StoreError::DataLoss`] if the failure pattern makes the old value
    /// unrecoverable, [`StoreError::IndexOutOfRange`] /
    /// [`StoreError::WrongChunkSize`] on malformed input.
    pub fn write_data(&self, idx: usize, data: &[u8]) -> Result<(), StoreError> {
        self.check_index(idx)?;
        if data.len() != self.chunk_size {
            return Err(StoreError::WrongChunkSize {
                found: data.len(),
                expected: self.chunk_size,
            });
        }
        self.write_group(&[(idx, vec![(0, data)])])
    }

    /// Converts accumulated parity deltas into absolute member new values:
    /// each parity member's old value off the ladder, XORed with its delta.
    /// An unavailable member (disk down, or un-rebuilt inside an open
    /// window) is skipped: the rebuilder owes it, and derives it from the
    /// relations this update leaves consistent. A member that is *up* is
    /// never skipped, readable or not — nobody would rewrite it, and its
    /// relation would sit stale behind a sector that may read again: its
    /// old value is decoded and the new one written in place (remapping the
    /// sector). `Ok(false)` hands on [`Self::current_values`]' `Ok(None)`.
    /// Only the member's range ([`Self::logged_range`]) is read, and only
    /// the bytes its delta may be nonzero in are XORed.
    fn resolve_parity_news(
        &self,
        parity: BTreeMap<ChunkAddr, ParityDelta>,
        news: &mut Vec<MemberNew>,
        held: &mut Held,
    ) -> Result<bool, StoreError> {
        // Member by member, each delta back in the pool before the next old
        // value is read: a group's hundred parity members then cycle a few
        // hot buffers instead of holding two hundred at once.
        for (addr, (pdelta, changed)) in parity {
            if self.chunk_available(addr) {
                let range = self.logged_range(addr, changed.clone(), held);
                let Some(mut old) = self.current_values(&[addr], &[range], held)? else {
                    return Ok(false);
                };
                let mut bytes = old.swap_remove(0);
                gf::kernels::xor_acc(&mut bytes[changed.clone()], &pdelta[changed.clone()]);
                news.push(MemberNew {
                    addr,
                    bytes,
                    is_data: false,
                    range: self.logged_range(addr, changed, held),
                });
            }
            self.pool.put(pdelta);
        }
        Ok(true)
    }

    /// The one rule for the bytes of member `addr`, whose update changes
    /// the bytes `changed` at most, that the update reads, writes and logs:
    /// `changed`, or the whole chunk. Asked before the old value is read
    /// (the range rung 1 reads) and after (the range the commit writes and
    /// the journal logs), the two answers differ only for a member whose
    /// old value was decoded in between, which is whole anyway.
    ///
    /// The range alone is enough only where the rest of the chunk is on
    /// its device. So the whole chunk is moved when the old value was
    /// decoded rather than read from the member's own device (a latent
    /// sector, an un-rebuilt chunk inside a rebuild window). A durable
    /// store also moves and logs every member whole while any disk is
    /// failed or a rebuild window is open (`held.whole`, see
    /// [`Self::logs_whole`]): redo patches a logged range onto the chunk as
    /// its device then holds it, and decodes the chunk from its relations
    /// if it no longer reads, but a failed or un-rebuilt disk holds stale
    /// bytes that replay, which knows no failure state, would decode from,
    /// and a window's writebacks may not be durable yet.
    fn logged_range(&self, addr: ChunkAddr, changed: Range<usize>, held: &Held) -> Range<usize> {
        if held.whole || held.decoded.contains(&addr) {
            0..self.chunk_size
        } else {
            changed
        }
    }

    /// Whether a write attempt starting now moves and logs every member
    /// whole (see [`Self::logged_range`]): a durable store's, while any disk
    /// is failed or a rebuild window may be open.
    fn logs_whole(&self) -> bool {
        self.durable.is_some()
            && (self.online.maybe_open() || self.devices.iter().any(|d| d.is_failed()))
    }

    /// Commits one update's member new-values crash-consistently:
    /// journal intent (each member's range, absolute bytes) →
    /// group-commit flush → member writes (each member's range) → applied
    /// marker. The journal
    /// flush is the commit point: after it, a crash anywhere leaves the
    /// update redoable from the log; before it, no member has been touched,
    /// so the update atomically never happened. Redo writes absolute bytes,
    /// so replaying an update whose members were partially (or fully)
    /// written is idempotent. Without a journal attached this is just the
    /// member writes.
    fn commit_members(&self, news: &[MemberNew]) -> Result<(), StoreError> {
        let seq = match &self.durable {
            Some(d) => {
                let members = news.iter().map(|m| {
                    let (disk, chunk) = (m.addr.disk as u32, m.addr.offset as u32);
                    (disk, chunk, m.range.start as u32, &m.bytes[m.range.clone()])
                });
                let seq = d.journal.append_ranges(members).map_err(journal_err)?;
                d.journal.commit(seq).map_err(journal_err)?;
                Some(seq)
            }
            None => None,
        };
        for m in news {
            self.write_range(m.addr, m.range.clone(), &m.bytes)?;
            crash_point("member_write");
            // Only a member written whole vouches for its whole chunk. A
            // range member was valid when it was read (else it was decoded,
            // and is whole); if its disk failed and was healed into a new
            // window since, the range landed on a blank chunk, which stays
            // invalid and is rebuilt from the relations this write updated.
            if m.is_data && m.range.len() == self.chunk_size {
                self.online.mark_valid(m.addr);
            }
        }
        if let Some(seq) = seq {
            let d = self.durable.as_ref().expect("journaled above");
            match d.policy {
                // Process-crash model: the page cache keeps member writes
                // alive through the abort, so the marker needs no barrier.
                FlushPolicy::Never => d.journal.mark_applied(seq).map_err(journal_err)?,
                // Power-loss model: the applied marker may only be
                // written once the member flush completed, and the rewind
                // (here, or inside a later append that finds the log
                // drained) is safe because every earlier marker obeyed the
                // same rule — the whole lap's member writes are on stable
                // storage by the time it drains.
                FlushPolicy::PerWave => {
                    let disks = news.iter().map(|m| m.addr.disk).collect::<BTreeSet<_>>();
                    self.flush_disks_inner(&d.flush_stats, disks)?;
                    crash_point("member_flush");
                    d.journal.mark_applied(seq).map_err(journal_err)?;
                }
                // Deferred barrier: park the marker behind the flush
                // high-water mark; a commit past the deadline runs the
                // flush cycle inline (a background flusher can run it too,
                // see `spawn_flusher`).
                FlushPolicy::Timed(interval) => {
                    let due = {
                        let mut p = d.pending.lock().expect("pending flush lock");
                        p.seqs.push(seq);
                        p.dirty.extend(news.iter().map(|m| m.addr.disk));
                        p.last_flush.elapsed() >= interval
                    };
                    if due {
                        self.flush_pending()?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs one `FlushPolicy::Timed` flush cycle now: flushes every disk
    /// dirtied since the last cycle, then appends the deferred applied
    /// markers those flushes cover (and rewinds the drained log).
    /// Returns how many intents were marked applied. A no-op `Ok(0)` for
    /// non-durable stores, other policies, and empty cycles. Call before
    /// dropping a `Timed` store for a clean shutdown — skipping it is
    /// *safe* (the intents replay from the log on the next open) but makes
    /// reopening do redundant redo work.
    pub fn flush_pending(&self) -> Result<usize, StoreError> {
        let Some(d) = &self.durable else {
            return Ok(0);
        };
        let (seqs, dirty) = {
            let mut p = d.pending.lock().expect("pending flush lock");
            p.last_flush = Instant::now();
            if p.seqs.is_empty() {
                return Ok(0);
            }
            (std::mem::take(&mut p.seqs), std::mem::take(&mut p.dirty))
        };
        if let Err(e) = self.flush_disks_inner(&d.flush_stats, dirty.iter().copied()) {
            // Markers were never appended, so the intents stay redoable;
            // re-park them for the next cycle's retry.
            let mut p = d.pending.lock().expect("pending flush lock");
            p.seqs.extend(seqs);
            p.dirty.extend(dirty);
            return Err(e);
        }
        crash_point("member_flush");
        for &seq in &seqs {
            d.journal.mark_applied(seq).map_err(journal_err)?;
        }
        Ok(seqs.len())
    }

    /// Flushes `disks` through [`BlockDevice::flush`], retrying transient
    /// failures (a lost cache-flush command must be reissued before the
    /// barrier counts), and records the `oi_flush_*` stats for the
    /// barrier. Failed disks are skipped — their contents are gone either
    /// way.
    fn flush_disks_inner(
        &self,
        stats: &FlushStats,
        disks: impl IntoIterator<Item = usize>,
    ) -> Result<(), StoreError> {
        let began = Instant::now();
        let mut flushed = 0u64;
        for disk in disks {
            if self.disk_down(disk) {
                continue;
            }
            let mut attempts = 0u32;
            loop {
                match self.devices[disk].flush() {
                    Ok(()) => break,
                    Err(error) if error.is_transient() && attempts < 8 => attempts += 1,
                    Err(error) => return Err(StoreError::Device { disk, error }),
                }
            }
            flushed += 1;
        }
        stats.waves.fetch_add(1, Ordering::Relaxed);
        stats.devices.fetch_add(flushed, Ordering::Relaxed);
        stats.batch.record(flushed);
        stats.stall.record_duration(began.elapsed());
        Ok(())
    }

    /// Flushes the rebuild target disks before a checkpoint save when the
    /// flush policy models power loss: the checkpoint file is fsynced, so
    /// it must not vouch for writeback chunks still sitting in a volatile
    /// device cache. A no-op under [`FlushPolicy::Never`] or without a
    /// journal.
    pub(crate) fn flush_for_checkpoint(&self, targets: &[usize]) -> Result<(), StoreError> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        if d.policy == FlushPolicy::Never {
            return Ok(());
        }
        self.flush_disks_inner(&d.flush_stats, targets.iter().copied())
    }

    /// Spawns the background flusher for a [`FlushPolicy::Timed`] store:
    /// a thread waking every half-interval to run [`Self::flush_pending`],
    /// so applied markers advance even when no foreground commit crosses
    /// the deadline. Returns `None` for non-durable stores and other
    /// policies. Dropping the handle stops the thread after one final
    /// flush cycle.
    pub fn spawn_flusher(self: &Arc<Self>) -> Option<FlusherHandle>
    where
        B: 'static,
    {
        let Some(FlushPolicy::Timed(interval)) = self.flush_policy() else {
            return None;
        };
        let stop = Arc::new(AtomicBool::new(false));
        let store = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("oi-flusher".into())
            .spawn(move || {
                let tick = (interval / 2).max(Duration::from_millis(1));
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(tick);
                    // Transient flush errors re-park the pending markers;
                    // the next tick retries them.
                    let _ = store.flush_pending();
                }
                let _ = store.flush_pending();
            })
            .expect("spawn flusher thread");
        Some(FlusherHandle {
            stop,
            thread: Some(thread),
        })
    }

    /// Reads logical data chunk `idx`, reconstructing through the
    /// redundancy if its disk is failed (or mid-rebuild).
    ///
    /// # Errors
    ///
    /// [`StoreError::DataLoss`] if the current failure pattern makes the
    /// chunk unrecoverable; [`StoreError::IndexOutOfRange`] on bad input.
    pub fn read_data(&self, idx: usize) -> Result<Vec<u8>, StoreError> {
        self.check_index(idx)?;
        self.qos.note_foreground();
        let began = Instant::now();
        if let Some(bytes) = self.chunk(self.array.locate_data(idx)) {
            self.telem.record_foreground_reads(began.elapsed(), 1);
            return Ok(bytes);
        }
        Ok(self.read_degraded(&[idx], began)?.swap_remove(0))
    }

    /// The degraded read of a group of data chunks — one of
    /// [`Self::read_data`], up to `MAX_WRITE_GROUP` of a
    /// [`Self::read_data_batch`]: their values off the ladder, in order,
    /// under one lock of the relations their plan decodes through, one
    /// degraded-read node hung under whatever asked
    /// (the redundancy reads below attribute to it) and one telemetry
    /// touch, counted per chunk since `began`.
    fn read_degraded(&self, idxs: &[usize], began: Instant) -> Result<Vec<Vec<u8>>, StoreError> {
        let kind = telemetry::EventKind::DegradedRead;
        let _trace = telemetry::trace_scope(kind, idxs[0] as u64, idxs.len() as u64);
        let addrs: Vec<ChunkAddr> = idxs.iter().map(|&i| self.array.locate_data(i)).collect();
        // A read changes nothing, so it locks only what its plan decodes
        // through. Every target just missed its device read; one that is
        // still available is up but unreadable, and is planned as a miss
        // and not read again: a read spends the retry budget once.
        let whole = vec![0..self.chunk_size; addrs.len()];
        let available = addrs.iter().filter(|a| self.chunk_available(**a));
        let unreadable = available.copied().collect();
        let values = self.on_ladder(&addrs, Vec::new(), unreadable, |held| {
            self.current_values(&addrs, &whole, held)
        })?;
        let took = began.elapsed();
        self.telem.record_degraded_reads(took, idxs.len());
        self.telem.record_foreground_reads(took, idxs.len());
        Ok(values)
    }

    /// Runs `body` where [`Self::current_values`] may decode: under the
    /// stripe locks of `regions` and of the relations the plan of the
    /// unavailable `targets`, made before locking and handed on for reuse,
    /// decodes through. `decoded` are targets whose device read already
    /// missed: they count as unavailable and start `held.decoded`. A writer
    /// locks every relation holding a chunk it modifies, so these keep
    /// still all that the decodes read. `Ok(None)` from `body` changed
    /// nothing and grew what it holds (a latent source moved the plan): it
    /// runs again under the union.
    fn on_ladder<T>(
        &self,
        targets: &[ChunkAddr],
        regions: Vec<Region>,
        decoded: Vec<ChunkAddr>,
        mut body: impl FnMut(&mut Held) -> Result<Option<T>, StoreError>,
    ) -> Result<T, StoreError> {
        let epoch = self.online.epoch();
        let available = |a: ChunkAddr| self.chunk_available(a) && !decoded.contains(&a);
        let (plan, via) = multifail::plan_closure(&self.array, targets, available);
        let mut held = Held {
            regions,
            plan: Some((epoch, plan)),
            decoded,
            whole: false,
        };
        held.regions.extend(via);
        loop {
            let _guard = self.online.lock_regions(&held.regions);
            if let Some(out) = body(&mut held)? {
                return Ok(out);
            }
        }
    }

    /// The store's one way to a value it may not be able to simply read:
    /// the current bytes of `addrs` (distinct), in order, in pooled
    /// buffers. Reads, and writes for the old values of their data *and*
    /// parity members, all come here, from inside [`Self::on_ladder`].
    ///
    /// * **Rung 1** — the device read of bytes `ranges[i]` of each, in runs
    ///   ([`Self::read_set`]); a buffer holds only those bytes for sure. A
    ///   member that is up but unreadable is a miss like a failed disk's.
    ///   One already in `held.decoded` missed before and is not read again.
    /// * **Rung 2** — one plan of every miss, walked by [`Self::walk_plan`]:
    ///   `held`'s if it plans them all, else a new one
    ///   ([`multifail::plan_closure`], misses and unreadable sources counted
    ///   out). An unreadable source (a latent sector) or a moved epoch (see
    ///   [`Self::read_into`]) voids the walk and plans again.
    ///
    /// A new plan through a relation `held` lacks is kept in it, its
    /// relations added, and the answer is `Ok(None)` before anything is
    /// read: the caller relocks. [`StoreError::DataLoss`] is the planner's
    /// word that no relation chain reaches a miss any more. Every rung-1
    /// miss joins `held.decoded`, and its value is the whole chunk.
    fn current_values(
        &self,
        addrs: &[ChunkAddr],
        ranges: &[Range<usize>],
        held: &mut Held,
    ) -> Result<Option<Vec<Vec<u8>>>, StoreError> {
        let mut values = if held.decoded.is_empty() {
            self.read_set(addrs, ranges, identity)
        } else {
            let unread = |i: &usize| !held.decoded.contains(&addrs[*i]);
            let unread: Vec<usize> = (0..addrs.len()).filter(unread).collect();
            let pick = |&i: &usize| (addrs[i], ranges[i].clone());
            let (some, their): (Vec<_>, Vec<_>) = unread.iter().map(pick).unzip();
            let mut values = vec![None; addrs.len()];
            let read = self.read_set(&some, &their, identity);
            for (i, v) in unread.into_iter().zip(read) {
                values[i] = v;
            }
            values
        };
        let misses = addrs.iter().zip(&values).filter(|(_, v)| v.is_none());
        let targets: Vec<ChunkAddr> = misses.map(|(a, _)| *a).collect();
        held.decoded.extend_from_slice(&targets);
        // Each miss's item in `plan`, or `None` if one has none.
        let items_of = |plan: &RecoveryPlan| -> Option<Vec<usize>> {
            let item_of = |t: &ChunkAddr| plan.items().iter().position(|it| it.lost == *t);
            targets.iter().map(item_of).collect()
        };
        let mut reuse = held
            .plan
            .take()
            .and_then(|(epoch, plan)| Some((epoch, items_of(&plan)?, plan)));
        let mut unreadable = Vec::new();
        while !targets.is_empty() {
            let (epoch, at, plan) = match reuse.take() {
                Some(planned) => planned,
                None => {
                    let epoch = self.online.epoch();
                    let out = |a: &ChunkAddr| targets.contains(a) || unreadable.contains(a);
                    let available = |a: ChunkAddr| self.chunk_available(a) && !out(&a);
                    let (plan, via) = multifail::plan_closure(&self.array, &targets, available);
                    let Some(at) = items_of(&plan) else {
                        if self.online.epoch() == epoch {
                            return Err(StoreError::DataLoss);
                        }
                        continue;
                    };
                    if !via.iter().all(|r| held.regions.contains(r)) {
                        held.regions.extend(via);
                        held.plan = Some((epoch, plan));
                        values.into_iter().flatten().for_each(|v| self.pool.put(v));
                        return Ok(None);
                    }
                    (epoch, at, plan)
                }
            };
            let Some(mut outputs) = self.walk_plan(plan.items(), &mut unreadable) else {
                continue;
            };
            if self.online.epoch() == epoch {
                let misses = values.iter_mut().filter(|v| v.is_none());
                for (value, &item) in misses.zip(&at) {
                    *value = Some(std::mem::take(&mut outputs[item]));
                }
            }
            // Outputs taken above are empty, which the pool refuses.
            outputs.into_iter().for_each(|b| self.pool.put(b));
            if values.iter().all(Option::is_some) {
                break;
            }
        }
        let value = |v: Option<Vec<u8>>| v.expect("a rung answered");
        Ok(Some(values.into_iter().map(value).collect()))
    }

    /// Walks a ladder plan in order, [`run_chunks`] items at a time so a
    /// batch's sources are still in cache when they combine. **Gather** each
    /// read once, in device runs ([`Self::gather`], rung 1's); **combine**
    /// each item from its reads and the outputs it depends on. Every item's
    /// output, or `None` (everything back in the pool) once a source stays
    /// unreadable; it joins `unreadable`.
    fn walk_plan(
        &self,
        items: &[ChunkRecovery],
        unreadable: &mut Vec<ChunkAddr>,
    ) -> Option<Vec<Vec<u8>>> {
        let (geo, cs, pool) = (self.array.geometry(), self.chunk_size, &self.pool);
        let (code, staging) = (self.inner_code(), Mutex::default());
        // Sources are read whole: a decode combines whole chunks.
        let whole = |_: usize| 0..cs;
        let failed = unreadable.len();
        // A row decode parks its other erased units here for the read-less
        // siblings that follow it.
        let decoded = Mutex::default();
        let mut outputs: Vec<Vec<u8>> = Vec::with_capacity(items.len());
        for batch in items.chunks(run_chunks(cs)) {
            // `(source, item)` pairs, the sources of one item together.
            let mut wanted: Vec<(ChunkAddr, usize)> = Vec::new();
            for (i, it) in batch.iter().enumerate() {
                wanted.extend(it.reads.iter().map(|a| (*a, i)));
            }
            wanted.sort_unstable();
            let mut firsts: Vec<(usize, ChunkAddr)> =
                wanted.iter().map(|w| w.0).enumerate().collect();
            firsts.dedup_by_key(|first| first.1);
            let mut inputs: Vec<Inputs> = vec![Inputs::new(); batch.len()];
            self.gather(&firsts, whole, &staging, |w, addr, read| {
                let Ok(bytes) = read else {
                    return unreadable.push(addr);
                };
                // Read once; further items planned on it get copies.
                for &(_, i) in wanted[w + 1..].iter().take_while(|(a, _)| *a == addr) {
                    let mut copy = pool.take_dirty();
                    copy.copy_from_slice(&bytes);
                    inputs[i].push((addr, copy));
                }
                inputs[wanted[w].1].push((addr, bytes));
            });
            if unreadable.len() > failed {
                inputs.into_iter().flatten().for_each(|(_, b)| pool.put(b));
                break;
            }
            for (it, mut sources) in batch.iter().zip(inputs) {
                for &d in &it.depends {
                    let mut copy = pool.take_dirty();
                    copy.copy_from_slice(&outputs[d]);
                    sources.push((items[d].lost, copy));
                }
                outputs.push(combine(geo, code, it.lost, &mut sources, &decoded, pool));
                sources.into_iter().for_each(|(_, b)| pool.put(b));
            }
        }
        let parked = decoded.into_inner().expect("decode cache lock");
        parked.into_iter().for_each(|(_, b)| pool.put(b));
        if unreadable.len() == failed {
            return Some(outputs);
        }
        outputs.into_iter().for_each(|b| pool.put(b));
        None
    }

    /// Store-level telemetry (degraded-read counter and latency).
    pub fn telemetry(&self) -> &StoreTelemetry {
        &self.telem
    }

    /// Finishes durable creation over an already-built store: fresh
    /// journal in `dir`, checkpoint policy, flush policy.
    fn into_durable_created(mut self, dir: &Path, policy: FlushPolicy) -> Result<Self, StoreError> {
        let journal = Journal::create(dir.join("journal.log")).map_err(journal_err)?;
        self.durable = Some(Arc::new(DurableState::new(journal, policy)));
        *self.ckpt.lock().expect("ckpt lock") = Some(CheckpointPolicy {
            path: dir.join("rebuild.ckpt"),
            interval: CKPT_INTERVAL,
        });
        Ok(self)
    }

    /// [`OiRaidStore::create_durable_with`] over a caller-built device
    /// stack: wraps `devices` (one per disk, as
    /// [`OiRaidStore::with_devices`]) and creates a fresh journal plus
    /// checkpoint policy in `dir`. The caller owns device persistence —
    /// the crash harness uses this to journal
    /// [`blockdev::WriteBackDevice`]-wrapped file devices whose unflushed
    /// buffers model a volatile write cache.
    pub fn create_durable_on(
        cfg: OiRaidConfig,
        chunk_size: usize,
        devices: Vec<B>,
        dir: impl AsRef<Path>,
        policy: FlushPolicy,
    ) -> Result<Self, StoreError> {
        let store = Self::with_devices(cfg, chunk_size, devices)?;
        store.into_durable_created(dir.as_ref(), policy)
    }

    /// [`OiRaidStore::open_durable_with`] over a caller-built device
    /// stack: wraps `devices`, scans the journal in `dir`, redoes
    /// committed-but-unapplied intents onto them, and resets the log.
    /// Under a power-loss policy ([`FlushPolicy::PerWave`] or
    /// [`FlushPolicy::Timed`]) every device is flushed *before* the reset:
    /// the log's next lap overwrites the redo records, so the member writes
    /// they re-created must be on stable storage first.
    pub fn open_durable_on(
        cfg: OiRaidConfig,
        chunk_size: usize,
        devices: Vec<B>,
        dir: impl AsRef<Path>,
        policy: FlushPolicy,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        let mut store = Self::with_devices(cfg, chunk_size, devices)?;

        let (journal, summary) = Journal::open(dir.join("journal.log")).map_err(journal_err)?;
        let replayed = summary.redo.len() as u64;
        let (disks, chunks_per_disk) = (store.array.disks(), store.array.chunks_per_disk());
        let invalid = |message: String| StoreError::Journal {
            kind: std::io::ErrorKind::InvalidData,
            message,
        };
        let members = || summary.redo.iter().flat_map(|(_seq, members)| members);
        // Every intent is checked before any is written: a log that fails
        // the open must not have been half replayed onto the devices.
        for m in members() {
            match m.within {
                None if m.data.len() != chunk_size => {
                    return Err(invalid(format!(
                        "intent member has {} bytes, store uses {chunk_size}",
                        m.data.len()
                    )));
                }
                Some(within) if within as usize + m.data.len() > chunk_size => {
                    return Err(invalid(format!(
                        "intent member covers bytes {within}..{}, store chunks are {chunk_size}",
                        within as usize + m.data.len()
                    )));
                }
                _ => {}
            }
            // The log is outside input: a CRC-valid record written for
            // another geometry must fail the open, not index past the
            // device vector.
            if m.disk as usize >= disks || m.chunk as usize >= chunks_per_disk {
                return Err(invalid(format!(
                    "intent member addresses disk {} chunk {}, array is {disks} x {chunks_per_disk}",
                    m.disk, m.chunk
                )));
            }
        }
        store.redo(members())?;
        let durable = DurableState {
            replayed,
            rolled_back: summary.rolled_back,
            skipped: summary.skipped,
            ..DurableState::new(journal, policy)
        };
        if policy != FlushPolicy::Never && replayed > 0 {
            // Push the redo writes through the devices' volatile caches
            // before the journal forgets them. A crash mid-flush is fine:
            // the log is still intact, so the next open replays again.
            let disks: BTreeSet<usize> = members().map(|m| m.disk as usize).collect();
            store.flush_disks_inner(&durable.flush_stats, disks)?;
        }
        // Only after every redo write landed (and, under a power-loss
        // policy, was flushed) may the log start a new lap — a crash
        // before this point simply replays again on the next open.
        durable.journal.reset().map_err(journal_err)?;
        if replayed > 0 || summary.rolled_back > 0 || summary.skipped > 0 {
            telemetry::flight_event(
                telemetry::EventKind::JournalReplay,
                replayed,
                summary.rolled_back,
            );
        }
        store.durable = Some(Arc::new(durable));
        *store.ckpt.lock().expect("ckpt lock") = Some(CheckpointPolicy {
            path: dir.join("rebuild.ckpt"),
            interval: CKPT_INTERVAL,
        });
        Ok(store)
    }

    /// Writes replayed intent members back, in sequence order. A whole
    /// member is written as logged. A range is patched onto its chunk as
    /// the device holds it: outside the range that is the value its update
    /// started from, or a later one, and the two agree there. A chunk that
    /// does not read waits, with every later member of its own, until all
    /// the others are written; its relations then imply its final value,
    /// which the ladder decodes, and its members are patched onto that.
    /// The decode takes every device that answers at its word: no failure
    /// state survives a restart. That holds because ranges are only logged
    /// while every disk is up and no rebuild window is open (see
    /// [`Self::logged_range`]): the bytes around a range were then current
    /// on every device, and a write that changes them while a disk is down
    /// logs its members whole.
    fn redo<'a>(&self, members: impl Iterator<Item = &'a RedoMember>) -> Result<(), StoreError> {
        let mut waiting: BTreeMap<ChunkAddr, Vec<&RedoMember>> = BTreeMap::new();
        let mut chunk = vec![0u8; self.chunk_size];
        for m in members {
            let addr = ChunkAddr::new(m.disk as usize, m.chunk as usize);
            let within = m.within.unwrap_or(0) as usize;
            let range = within..within + m.data.len();
            if let Some(later) = waiting.get_mut(&addr) {
                later.push(m);
            } else if m.data.len() == self.chunk_size {
                self.write_chunk(addr, &m.data)?;
            } else if self.read_into(addr, range.clone(), &mut chunk) {
                // The range's own bytes, read and written back: the read is
                // the check that the chunk still reads, and on a device
                // that keeps the whole-chunk defaults it brings the rest.
                m.patch(&mut chunk);
                self.write_range(addr, range, &chunk)?;
            } else {
                waiting.insert(addr, vec![m]);
            }
        }
        let targets: Vec<ChunkAddr> = waiting.keys().copied().collect();
        let patch = |addr, value: &mut [u8]| waiting[&addr].iter().for_each(|m| m.patch(value));
        self.rewrite_lost(&targets, &patch).into_iter().collect()
    }

    /// Rewrites `targets` (distinct chunks) from their relations, outside a
    /// rebuild: the scrub's latent sectors and [`Self::redo`]'s unreadable
    /// chunks. `MAX_WRITE_GROUP` at a time, under one [`Self::on_ladder`]
    /// over the group's own relations: its values come off the ladder
    /// ([`Self::current_values`]), `patch` changes each, each is written in
    /// place, and the relations the group changed are marked dirty, as a
    /// write does. A group the ladder cannot answer is retried one chunk at
    /// a time, so only a chunk that does not decode fails
    /// ([`StoreError::DataLoss`]). One result per target.
    fn rewrite_lost(
        &self,
        targets: &[ChunkAddr],
        patch: &impl Fn(ChunkAddr, &mut [u8]),
    ) -> Vec<Result<(), StoreError>> {
        let mut results = Vec::with_capacity(targets.len());
        for group in targets.chunks(MAX_WRITE_GROUP) {
            let regions: Vec<Region> = group.iter().flat_map(|a| self.regions_for(*a)).collect();
            let whole = vec![0..self.chunk_size; group.len()];
            let rewritten = self.on_ladder(group, regions.clone(), Vec::new(), |held| {
                let Some(values) = self.current_values(group, &whole, held)? else {
                    return Ok(None);
                };
                let written = group.iter().zip(values).map(|(addr, mut value)| {
                    patch(*addr, &mut value);
                    let wrote = self.write_chunk(*addr, &value);
                    self.pool.put(value);
                    wrote
                });
                let written: Vec<_> = written.collect();
                self.online.mark_dirty(regions.iter().copied());
                Ok(Some(written))
            });
            match rewritten {
                Ok(written) => results.extend(written),
                Err(e) if group.len() == 1 => results.push(Err(e)),
                Err(_) => results.extend(
                    group
                        .chunks(1)
                        .flat_map(|one| self.rewrite_lost(one, patch)),
                ),
            }
        }
        results
    }

    /// The attached write-ahead journal, if this store is durable.
    pub fn journal(&self) -> Option<&Journal> {
        self.durable.as_deref().map(|d| &d.journal)
    }

    /// The member-flush policy, if this store is durable.
    pub fn flush_policy(&self) -> Option<FlushPolicy> {
        self.durable.as_deref().map(|d| d.policy)
    }

    /// Replaces the rebuild checkpoint policy (`None` disables
    /// checkpointing). [`OiRaidStore::create_durable_with`] /
    /// [`OiRaidStore::open_durable_with`] install one automatically.
    pub fn set_checkpoint_policy(&self, policy: Option<CheckpointPolicy>) {
        *self.ckpt.lock().expect("ckpt lock") = policy;
    }

    /// The current rebuild checkpoint policy.
    pub fn checkpoint_policy(&self) -> Option<CheckpointPolicy> {
        self.ckpt.lock().expect("ckpt lock").clone()
    }

    /// Registers this store's observable state with a metric registry:
    /// per-device I/O counters (mirrored from the current
    /// [`BlockDevice::counters`] snapshots — call again to refresh),
    /// per-device read/write latency histograms (live handles), and the
    /// degraded-read counter/latency.
    pub fn export_metrics(&self, reg: &Registry) {
        for (d, dev) in self.devices.iter().enumerate() {
            let disk = d.to_string();
            let labels: &[(&str, &str)] = &[("disk", &disk)];
            let c = dev.counters();
            for (name, help, value) in [
                ("oi_device_reads_total", "Chunk read operations", c.reads),
                ("oi_device_writes_total", "Chunk write operations", c.writes),
                ("oi_device_read_bytes_total", "Bytes read", c.bytes_read),
                (
                    "oi_device_written_bytes_total",
                    "Bytes written",
                    c.bytes_written,
                ),
                ("oi_device_faults_total", "Faults observed", c.faults),
                (
                    "oi_device_injected_latency_ns_total",
                    "Injected service latency in nanoseconds",
                    c.injected_latency_ns,
                ),
            ] {
                reg.counter(name, help, labels).set(value);
            }
            let lat = dev.latency();
            reg.register_histogram(
                "oi_device_read_latency_ns",
                "Device read service time in nanoseconds",
                labels,
                lat.read,
            );
            reg.register_histogram(
                "oi_device_write_latency_ns",
                "Device write service time in nanoseconds",
                labels,
                lat.write,
            );
        }
        reg.counter(
            "oi_store_degraded_reads_total",
            "Reads served by reconstruction because the home disk was failed",
            &[],
        )
        .set(self.telem.degraded_reads());
        reg.register_histogram(
            "oi_store_degraded_read_latency_ns",
            "End-to-end degraded-read latency in nanoseconds",
            &[],
            self.telem.degraded_read_latency(),
        );
        reg.counter(
            "oi_store_degraded_writes_total",
            "Writes that patched around unavailable update-set members",
            &[],
        )
        .set(self.telem.degraded_writes());
        reg.register_histogram(
            "oi_store_degraded_write_latency_ns",
            "End-to-end degraded-write latency in nanoseconds",
            &[],
            self.telem.degraded_write_latency(),
        );
        for (name, help, value) in [
            (
                "oi_store_foreground_reads_total",
                "Foreground chunk reads served (healthy and degraded)",
                self.telem.foreground_reads(),
            ),
            (
                "oi_store_foreground_writes_total",
                "Foreground chunk writes served (healthy and degraded)",
                self.telem.foreground_writes(),
            ),
            (
                "oi_store_batch_read_requests_total",
                "Logical read requests submitted through read_data_batch",
                self.telem.batch_read_requests(),
            ),
            (
                "oi_store_batch_read_chunks_total",
                "Distinct chunks fetched for batched reads",
                self.telem.batch_read_chunks(),
            ),
            (
                "oi_store_batch_write_requests_total",
                "Logical byte-range requests submitted through write_bytes_batch",
                self.telem.batch_write_requests(),
            ),
            (
                "oi_store_batch_write_chunks_total",
                "Distinct chunk RMWs performed for batched writes",
                self.telem.batch_write_chunks(),
            ),
            (
                "oi_store_rebuild_throttle_waits_total",
                "Rebuild batches delayed by the foreground QoS throttle",
                self.qos.counters().throttle_waits,
            ),
            (
                "oi_store_rebuild_throttle_wait_ns_total",
                "Total time rebuild readers slept for the QoS throttle",
                self.qos.counters().throttle_wait_ns,
            ),
        ] {
            reg.counter(name, help, &[]).set(value);
        }
        reg.register_histogram(
            "oi_store_foreground_read_latency_ns",
            "End-to-end foreground read latency in nanoseconds",
            &[],
            self.telem.foreground_read_latency(),
        );
        reg.register_histogram(
            "oi_store_foreground_write_latency_ns",
            "End-to-end foreground write latency in nanoseconds",
            &[],
            self.telem.foreground_write_latency(),
        );
        // Journal series export even without a journal attached (as zeros
        // / an empty histogram), so dashboards and the metrics lint see a
        // stable universe across durable and in-memory stores.
        let (appends, flushes, resets, bytes, tail, replayed, rolled_back, skipped) =
            match &self.durable {
                Some(d) => {
                    let s = d.journal.stats();
                    (
                        s.appends.load(Ordering::Relaxed),
                        s.flushes.load(Ordering::Relaxed),
                        s.resets.load(Ordering::Relaxed),
                        s.bytes.load(Ordering::Relaxed),
                        s.tail.load(Ordering::Relaxed),
                        d.replayed,
                        d.rolled_back,
                        d.skipped,
                    )
                }
                None => (0, 0, 0, 0, 0, 0, 0, 0),
            };
        for (name, help, value) in [
            (
                "oi_journal_appends_total",
                "Intent records appended to the write-ahead parity journal",
                appends,
            ),
            (
                "oi_journal_flushes_total",
                "Group-commit flushes of the write-ahead parity journal",
                flushes,
            ),
            (
                "oi_journal_resets_total",
                "Times the journal rewound to its first record (no outstanding intents)",
                resets,
            ),
            (
                "oi_journal_bytes_total",
                "Bytes written to the journal: intent records and applied markers",
                bytes,
            ),
            (
                "oi_journal_replayed_total",
                "Committed-but-unapplied intents redone during crash recovery",
                replayed,
            ),
            (
                "oi_journal_rolled_back_total",
                "Torn journal tails rolled back during crash recovery",
                rolled_back,
            ),
            (
                "oi_journal_skipped_total",
                "Corrupt mid-log regions skipped by resync during crash recovery",
                skipped,
            ),
        ] {
            reg.counter(name, help, &[]).set(value);
        }
        reg.gauge(
            "oi_journal_tail_bytes",
            "Offset in the journal file the next record is written at",
            &[],
        )
        .set(tail as i64);
        reg.register_histogram(
            "oi_journal_batch_records",
            "Intent records covered per journal group-commit flush",
            &[],
            match &self.durable {
                Some(d) => Arc::clone(&d.journal.stats().batch),
                None => Arc::new(Histogram::new()),
            },
        );
        // Member-flush series: same always-exported contract as the
        // journal series (zeros / empty histograms when no flush policy is
        // doing any work).
        let (flush_waves, flush_devices) = match &self.durable {
            Some(d) => (
                d.flush_stats.waves.load(Ordering::Relaxed),
                d.flush_stats.devices.load(Ordering::Relaxed),
            ),
            None => (0, 0),
        };
        reg.counter(
            "oi_flush_waves_total",
            "Member-flush barriers performed before applied markers",
            &[],
        )
        .set(flush_waves);
        reg.counter(
            "oi_flush_devices_total",
            "Individual device flushes issued across all barriers",
            &[],
        )
        .set(flush_devices);
        reg.register_histogram(
            "oi_flush_batch_devices",
            "Devices flushed per member-flush barrier",
            &[],
            match &self.durable {
                Some(d) => Arc::clone(&d.flush_stats.batch),
                None => Arc::new(Histogram::new()),
            },
        );
        reg.register_histogram(
            "oi_flush_stall_ns",
            "Commit stall behind one member-flush barrier in nanoseconds",
            &[],
            match &self.durable {
                Some(d) => Arc::clone(&d.flush_stats.stall),
                None => Arc::new(Histogram::new()),
            },
        );
    }

    /// Marks a disk failed, discarding its contents.
    ///
    /// # Errors
    ///
    /// [`StoreError::DiskOutOfRange`] for bad indices (double-failing is a
    /// no-op).
    pub fn fail_disk(&self, disk: usize) -> Result<(), StoreError> {
        if disk >= self.devices.len() {
            return Err(StoreError::DiskOutOfRange { disk });
        }
        self.devices[disk].fail();
        telemetry::flight_event(telemetry::EventKind::DegradedTransition, disk as u64, 1);
        Ok(())
    }

    /// Verifies every parity relation in both layers; returns the addresses
    /// of violated parity chunks (empty = consistent). Relations touching a
    /// failed disk — or a chunk the backend cannot read — are skipped.
    pub fn check_parity(&self) -> Vec<ChunkAddr> {
        let geo = self.array.geometry();
        let mut bad = Vec::new();
        for grp in 0..geo.v {
            for row in 0..geo.chunks_per_disk {
                let violated = self.row_violations(grp, row).unwrap_or_default();
                bad.extend(violated.into_iter().map(|(stored, _)| stored));
            }
        }
        // Outer stripes: XOR of all k chunks must be zero.
        for (block, stripe, _) in self.violated_stripes() {
            let pos = geo.outer_parity_pos(stripe);
            bad.push(geo.stripe_chunk(PayloadPos { block, stripe, pos }));
        }
        bad
    }

    /// The inner parities of row `row` in group `grp` that disagree with
    /// their payload re-encoded, each with the bytes it should hold; `None`
    /// if a chunk of the row does not read. Each chunk is read once.
    fn row_violations(&self, grp: usize, row: usize) -> Option<Vec<(ChunkAddr, Vec<u8>)>> {
        let geo = self.array.geometry();
        let read = |addrs: Vec<ChunkAddr>| -> Option<Vec<Vec<u8>>> {
            addrs.into_iter().map(|a| self.chunk(a)).collect()
        };
        let payload = read(geo.row_payload(grp, row))?;
        let expect = self.inner_code().encode(&payload).expect("row encodes");
        let parities = geo.inner_parities_of_row(grp, row);
        let stored = read(parities.clone())?;
        let pairs = parities.into_iter().zip(expect).zip(stored);
        Some(
            pairs
                .filter(|((_, want), had)| want != had)
                .map(|(p, _)| p)
                .collect(),
        )
    }

    /// The outer stripes that verify as broken — all `k` chunks read, and
    /// their XOR is not zero — as `(block, stripe, chunks)`. A stripe with
    /// an unreadable chunk is skipped, not suspected.
    fn violated_stripes(&self) -> Vec<(usize, usize, Vec<ChunkAddr>)> {
        let geo = self.array.geometry();
        let mut violated = Vec::new();
        for (block, s) in geo.all_stripes() {
            let chunks = geo.stripe_chunks(block, s);
            let whole = vec![0..self.chunk_size; chunks.len()];
            let values = self.read_set(&chunks, &whole, identity);
            let complete = values.iter().all(Option::is_some);
            let mut acc = self.pool.take();
            for v in values.into_iter().flatten() {
                gf::kernels::xor_acc(&mut acc, &v);
                self.pool.put(v);
            }
            if complete && acc.iter().any(|&x| x != 0) {
                violated.push((block, s, chunks));
            }
            self.pool.put(acc);
        }
        violated
    }

    /// Total user-data capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.data_chunks() as u64 * self.chunk_size as u64
    }

    /// Reads an arbitrary byte range of the logical data address space
    /// (block-device style), reconstructing through failures as needed.
    ///
    /// # Errors
    ///
    /// [`StoreError::IndexOutOfRange`] if the range exceeds
    /// [`OiRaidStore::capacity_bytes`]; [`StoreError::DataLoss`] if a
    /// touched chunk is unrecoverable.
    pub fn read_bytes(&self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.check_range(offset, buf.len())?;
        // The pieces are distinct chunks, ascending: one set read of each
        // piece's own bytes.
        let pieces = chunk_pieces(self.chunk_size, offset, buf.len());
        let (idxs, ranges): (Vec<usize>, Vec<Range<usize>>) = pieces
            .map(|(idx, within, range)| (idx, within..within + range.len()))
            .unzip();
        let chunks = self.read_distinct(&idxs, &ranges, identity)?;
        let pieces = chunk_pieces(self.chunk_size, offset, buf.len());
        for (((_, _, range), bytes), chunk) in pieces.zip(ranges).zip(chunks) {
            buf[range].copy_from_slice(&chunk[bytes]);
            self.pool.put(chunk);
        }
        Ok(())
    }

    /// Writes an arbitrary byte range of the logical data address space,
    /// maintaining both parity layers (read-modify-write on partial
    /// chunks).
    ///
    /// # Errors
    ///
    /// [`StoreError::IndexOutOfRange`] on range overflow and the
    /// [`OiRaidStore::write_data`] errors per touched chunk.
    pub fn write_bytes(&self, offset: u64, data: &[u8]) -> Result<(), StoreError> {
        self.check_range(offset, data.len())?;
        for (idx, within, range) in chunk_pieces(self.chunk_size, offset, data.len()) {
            // Whole or partial chunk alike: the old value is read and
            // patched under the chunk's region locks, or two writers to
            // different bytes of one chunk lose an update.
            self.write_group(&[(idx, vec![(within, &data[range])])])?;
        }
        Ok(())
    }

    /// Reads many logical data chunks in one submission: what
    /// [`Self::read_data`] does, over the set of distinct indices
    /// ([`Self::read_distinct`]). Returns one chunk value per input index,
    /// in input order (duplicates get copies of the same fetch).
    ///
    /// Foreground-read latency is recorded per *distinct* chunk at batch
    /// completion — the latency a batched client actually observes.
    ///
    /// # Errors
    ///
    /// [`StoreError::IndexOutOfRange`] if any index is out of range
    /// (checked before any I/O); [`StoreError::DataLoss`] /
    /// [`StoreError::Device`] from the degraded fallback, abandoning the
    /// rest of the batch.
    pub fn read_data_batch(&self, idxs: &[usize]) -> Result<Vec<Vec<u8>>, StoreError> {
        for &idx in idxs {
            self.check_index(idx)?;
        }
        if idxs.is_empty() {
            return Ok(Vec::new());
        }
        let _trace = telemetry::trace_scope(telemetry::EventKind::BatchRead, idxs.len() as u64, 0);
        let mut distinct = idxs.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        // A read leaves the store in the allocator's buffer, not the pool's:
        // copied out of its pooled buffer as it lands, which goes straight
        // back (a decoded value leaves in its own, as a degraded
        // `read_data`'s does).
        let copy_out = |pooled: Vec<u8>| {
            let bytes = pooled.clone();
            self.pool.put(pooled);
            bytes
        };
        let whole = vec![0..self.chunk_size; distinct.len()];
        let mut values = self.read_distinct(&distinct, &whole, copy_out)?;
        self.telem
            .record_batch_read(idxs.len() as u64, distinct.len() as u64);
        // Each distinct chunk fans back out to every slot that asked for it,
        // moved to the last one.
        let slots: Vec<usize> = idxs
            .iter()
            .map(|idx| distinct.binary_search(idx).expect("deduped above"))
            .collect();
        let mut uses = vec![0usize; distinct.len()];
        slots.iter().for_each(|&s| uses[s] += 1);
        let fan_out = |s: usize| {
            uses[s] -= 1;
            if uses[s] == 0 {
                std::mem::take(&mut values[s])
            } else {
                values[s].clone()
            }
        };
        Ok(slots.into_iter().map(fan_out).collect())
    }

    /// [`Self::read_data`] over the distinct data chunks `idxs`, in order,
    /// of which bytes `ranges[i]` are wanted: every chunk takes rung 1 of
    /// the value ladder for those bytes, in device runs and under no lock,
    /// each read passed through `keep` (see [`Self::read_set`]), and the
    /// misses come off the ladder whole in groups of `MAX_WRITE_GROUP`
    /// (`read_degraded`: one lock per group, its sources gathered in runs by
    /// the same gather) in the buffers they decode into.
    fn read_distinct(
        &self,
        idxs: &[usize],
        ranges: &[Range<usize>],
        keep: impl FnMut(Vec<u8>) -> Vec<u8>,
    ) -> Result<Vec<Vec<u8>>, StoreError> {
        self.qos.note_foreground();
        let began = Instant::now();
        let addrs: Vec<ChunkAddr> = idxs.iter().map(|&i| self.array.locate_data(i)).collect();
        let values = self.read_set(&addrs, ranges, keep);
        let misses = idxs.iter().zip(&values).filter(|(_, v)| v.is_none());
        let misses: Vec<usize> = misses.map(|(i, _)| *i).collect();
        self.telem
            .record_foreground_reads(began.elapsed(), idxs.len() - misses.len());
        let mut decoded = Vec::with_capacity(misses.len());
        for group in misses.chunks(MAX_WRITE_GROUP) {
            decoded.extend(self.read_degraded(group, began)?);
        }
        let mut decoded = decoded.into_iter();
        let value = |v: Option<Vec<u8>>| v.or_else(|| decoded.next()).expect("a rung answered");
        Ok(values.into_iter().map(value).collect())
    }

    /// Writes many byte ranges in one submission, coalescing them into **one
    /// read-modify-write per touched chunk** — one old-value reconstruct and
    /// one parity update per touched relation, instead of one per request.
    ///
    /// Overlapping ranges apply in submission order (later writes win), so
    /// the final contents are bit-identical to issuing the same writes
    /// one-at-a-time through [`Self::write_bytes`] — including against
    /// failed disks and mid-rebuild windows (property-tested in
    /// `crates/volume`). Within each commit group the old values are
    /// snapshotted under the union of the touched region locks before any
    /// mutation, and every touched parity chunk absorbs its *accumulated*
    /// XOR delta exactly once — equivalence with the sequential path
    /// follows from the linearity of both code layers.
    ///
    /// # Errors
    ///
    /// [`StoreError::IndexOutOfRange`] if any range exceeds
    /// [`Self::capacity_bytes`] (checked before any I/O). Mid-batch
    /// [`StoreError::DataLoss`] / [`StoreError::Device`] abandon the rest
    /// of the batch: chunks of earlier commit groups are applied, the
    /// failing group is rolled back to its pre-group state only if the
    /// error struck before its first mutation (old-value snapshot phase).
    pub fn write_bytes_batch(&self, writes: &[(u64, &[u8])]) -> Result<BatchStats, StoreError> {
        for &(off, data) in writes {
            self.check_range(off, data.len())?;
        }
        if writes.is_empty() {
            return Ok(BatchStats::default());
        }
        let _trace =
            telemetry::trace_scope(telemetry::EventKind::BatchWrite, writes.len() as u64, 0);
        // Split every request into per-chunk patch lists, preserving
        // submission order within each chunk (later writes win on overlap).
        let mut patches: BTreeMap<usize, Vec<(usize, &[u8])>> = BTreeMap::new();
        for &(off, data) in writes {
            for (idx, within, range) in chunk_pieces(self.chunk_size, off, data.len()) {
                patches.entry(idx).or_default().push((within, &data[range]));
            }
        }
        let stats = BatchStats {
            requests: writes.len(),
            chunks: patches.len(),
        };
        // Commit in bounded groups so the lock footprint and in-flight
        // scratch stay small while parity updates still amortize. A
        // journal-attached store commits the whole wave as ONE group —
        // one intent record and one group-commit flush per submission —
        // because per-update flushes would dominate the batch.
        let grouped: Vec<ChunkPatches<'_>> = patches.into_iter().collect();
        let group_cap = if self.durable.is_some() {
            grouped.len()
        } else {
            MAX_WRITE_GROUP
        };
        for group in grouped.chunks(group_cap) {
            self.write_group(group)?;
        }
        self.telem.record_batch_write(stats);
        Ok(stats)
    }

    /// The one foreground write path — single chunks, byte ranges and
    /// batches all land here. Commits one bounded group of per-chunk patch
    /// lists: take all old values off the value ladder under the union of the
    /// group's region locks, then apply data writes and accumulated parity
    /// deltas (see
    /// [`Self::apply_write_group`]). The whole read-modify-write runs under
    /// the relations it touches: parity deltas from concurrent writers to
    /// *intersecting* relation sets must not interleave, and the
    /// rebuilder's writebacks must not race the patches. How parallel that
    /// leaves writers depends on the group: a lone chunk write holds the
    /// stripes of its 3 relations (the chunk's inner row, its outer stripe,
    /// the outer parity's inner row), and two such writes to disjoint
    /// relations meet on a stripe in about 0.2 % of pairs (3 · 3 / 4096), so
    /// they do proceed in parallel. A full group of `MAX_WRITE_GROUP` chunks
    /// holds up to 96 of the 4096 stripes, and two full groups collide nine
    /// times in ten (1 − e^(−96·96/4096)): a group locks the union of its
    /// members' relations, so full groups mostly take turns. A degraded
    /// group adds the relations its lost data members' plan decodes through,
    /// planned before the lock; only a latent source found under it can
    /// grow that set, and then the group goes round again under the union
    /// (see [`Self::on_ladder`]).
    fn write_group(&self, group: &[ChunkPatches<'_>]) -> Result<(), StoreError> {
        self.qos.note_foreground();
        let _trace =
            telemetry::trace_scope(telemetry::EventKind::WriteGroup, group.len() as u64, 0);
        let began = Instant::now();
        let mut items: Vec<(ChunkAddr, ChunkAddr, bool)> = Vec::with_capacity(group.len());
        let mut regions: Vec<Region> = Vec::new();
        for (idx, _) in group {
            let addr = self.array.locate_data(*idx);
            let targets = self
                .array
                .update_set(addr)
                .map_err(|error| StoreError::Layout { error })?;
            let outer = targets[1 + self.array.geometry().p_in];
            debug_assert_eq!(self.array.chunk_role(outer), layout::Role::Parity);
            regions.extend(self.regions_for(addr));
            regions.extend(self.regions_for(outer));
            let degraded = targets.iter().any(|t| !self.chunk_available(*t));
            items.push((addr, outer, degraded));
        }
        let addrs: Vec<ChunkAddr> = items.iter().map(|(addr, ..)| *addr).collect();
        self.on_ladder(&addrs, regions.clone(), Vec::new(), |held| {
            self.apply_write_group(group, &items, &addrs, &regions, held)
        })?;
        let took = began.elapsed();
        for (_, _, degraded) in &items {
            if *degraded {
                self.telem.record_degraded_write(took);
            }
            self.telem.record_foreground_write(took);
        }
        Ok(())
    }

    /// The locked body of [`Self::write_group`], run by
    /// [`Self::on_ladder`]: takes every old value off the ladder before any
    /// mutation — group members that share relations must decode against
    /// the pre-group state, exactly what each one-at-a-time write would
    /// have seen at its turn (parity patches cancel out of a decode by
    /// linearity) — then writes each chunk's new value and accumulates
    /// every parity delta across the group so each touched parity chunk is
    /// read-modify-written **once**, not once per member.
    ///
    /// Compute-then-commit: every member's absolute new value is derived
    /// *before* any device is touched, so an `Ok(None)` (an old value's
    /// plan needs relations `held` lacks) has changed nothing; then the
    /// whole set commits through [`Self::commit_members`] — journaled as one
    /// intent record when a journal is attached — and marks the relations
    /// it modified, `regions`, dirty.
    ///
    /// Each member moves only its range ([`Self::logged_range`]): a data
    /// member the hull of its patches, a parity member the union of the
    /// deltas it absorbs, each read, changed and written back in one pooled
    /// buffer. The ranges are fixed before the reads, so an attempt that
    /// finds a disk failed or a window opened by commit time, on a store
    /// that must then move every member whole, goes round again.
    fn apply_write_group(
        &self,
        group: &[ChunkPatches<'_>],
        items: &[(ChunkAddr, ChunkAddr, bool)],
        addrs: &[ChunkAddr],
        regions: &[Region],
        held: &mut Held,
    ) -> Result<Option<()>, StoreError> {
        held.whole = self.logs_whole();
        let hulls: Vec<Range<usize>> = group.iter().map(|(_, patches)| hull(patches)).collect();
        let range = |(addr, changed): (&ChunkAddr, &Range<usize>)| {
            self.logged_range(*addr, changed.clone(), held)
        };
        let ranges: Vec<Range<usize>> = addrs.iter().zip(&hulls).map(range).collect();
        let Some(olds) = self.current_values(addrs, &ranges, held)? else {
            return Ok(None);
        };
        let mut parity: BTreeMap<ChunkAddr, ParityDelta> = BTreeMap::new();
        let mut news: Vec<MemberNew> = Vec::with_capacity(group.len());
        let members = group.iter().zip(items).zip(olds).zip(hulls);
        for ((((_, chunk_patches), (addr, outer, _)), mut new), changed) in members {
            // Δ = old ⊕ new is zero outside the patches' hull, and so is
            // every parity delta it feeds: Δ takes the hull's old bytes, the
            // old value is patched into the new one in place (in submission
            // order), and Δ absorbs the hull's new bytes.
            let mut delta = self.pool.take_dirty();
            delta[changed.clone()].copy_from_slice(&new[changed.clone()]);
            for (within, slice) in chunk_patches {
                new[*within..*within + slice.len()].copy_from_slice(slice);
            }
            gf::kernels::xor_acc(&mut delta[changed.clone()], &new[changed.clone()]);
            // Outer parity absorbs Δ directly; each affected row's inner
            // parities absorb the code-weighted Δ — all into the group
            // accumulator rather than the devices.
            let acc = (&delta[..], &changed);
            Self::acc_parity(&mut parity, &self.pool, *outer, acc, 1);
            self.acc_row_parities(&mut parity, *addr, acc);
            self.acc_row_parities(&mut parity, *outer, acc);
            self.pool.put(delta);
            // Data chunk: any writable device takes the full new value at
            // commit — including a mid-rebuild disk, whose chunk becomes
            // valid there.
            if !self.disk_down(addr.disk) {
                news.push(MemberNew {
                    addr: *addr,
                    bytes: new,
                    is_data: true,
                    range: self.logged_range(*addr, changed, held),
                });
            } else {
                self.pool.put(new);
            }
        }
        // Each accumulated parity delta resolves to one absolute new value
        // (one read-modify per touched parity chunk, not one per member);
        // the whole group then commits as a single journal intent — one
        // record, one flush, however many chunks the wave coalesced.
        let resolved = self.resolve_parity_news(parity, &mut news, held)?
            && (held.whole || !self.logs_whole());
        if resolved {
            self.commit_members(&news)?;
            // Tell an in-flight rebuild that these relations changed under
            // it: reconstructions read from them this round are stale.
            self.online.mark_dirty(regions.to_vec());
        }
        for m in news {
            self.pool.put(m.bytes);
        }
        Ok(resolved.then_some(()))
    }

    /// Accumulates the inner-parity deltas for an update of `delta` (its
    /// bytes and the range they may be nonzero in) at payload chunk `addr`
    /// into the update's parity accumulator (P gets
    /// `Δ`; the RAID6 Q gets `2^pos · Δ`, matching [`Raid6::encode`]'s
    /// generator). Availability is checked when the accumulator resolves
    /// to absolute values in [`Self::resolve_parity_news`].
    fn acc_row_parities(
        &self,
        parity: &mut BTreeMap<ChunkAddr, ParityDelta>,
        addr: ChunkAddr,
        delta: (&[u8], &Range<usize>),
    ) {
        let geo = self.array.geometry();
        let group = geo.group_of(addr.disk);
        let row = addr.offset;
        let pos = geo
            .row_payload(group, row)
            .iter()
            .position(|a| *a == addr)
            .expect("payload chunk is in its row");
        for (role, paddr) in geo
            .inner_parities_of_row(group, row)
            .into_iter()
            .enumerate()
        {
            let w = match role {
                0 => 1,
                1 => Raid6::generator_weight(pos),
                _ => unreachable!("at most two inner parities"),
            };
            Self::acc_parity(parity, &self.pool, paddr, delta, w);
        }
    }

    /// `parity[paddr] ^= w · delta` over `delta`'s range, materialising the
    /// accumulator slot from the scratch pool on first touch. The slot's
    /// range widens to cover `delta`'s, and only the bytes it gains are
    /// zeroed: what lies outside it is never read.
    fn acc_parity(
        parity: &mut BTreeMap<ChunkAddr, ParityDelta>,
        pool: &BufPool,
        paddr: ChunkAddr,
        (delta, changed): (&[u8], &Range<usize>),
        w: u8,
    ) {
        let (slot, range) = parity.entry(paddr).or_insert_with(|| {
            let mut slot = pool.take_dirty();
            slot[changed.clone()].fill(0);
            (slot, changed.clone())
        });
        let wider = range.start.min(changed.start)..range.end.max(changed.end);
        slot[wider.start..range.start].fill(0);
        slot[range.end..wider.end].fill(0);
        *range = wider;
        let (slot, delta) = (&mut slot[changed.clone()], &delta[changed.clone()]);
        if w == 1 {
            gf::kernels::xor_acc(slot, delta);
        } else {
            Gf256::get().mul_acc_slice(w, delta, slot);
        }
    }

    /// Flips bits in a stored chunk — a *silent* corruption (the disk still
    /// answers reads). Test/chaos hook for the scrubbing machinery.
    ///
    /// # Errors
    ///
    /// [`StoreError::DiskFailed`] if the disk is down,
    /// [`StoreError::DiskOutOfRange`] for bad addresses.
    pub fn corrupt_chunk(&self, addr: ChunkAddr, xor_mask: u8) -> Result<(), StoreError> {
        if addr.disk >= self.devices.len() {
            return Err(StoreError::DiskOutOfRange { disk: addr.disk });
        }
        let mut bytes = self
            .chunk(addr)
            .ok_or(StoreError::DiskFailed { disk: addr.disk })?;
        bytes.iter_mut().for_each(|b| *b ^= xor_mask);
        self.write_chunk(addr, &bytes)
    }

    /// Repairing scrub pass: probes every chunk on every online disk and
    /// fixes what it finds, in two sweeps.
    ///
    /// **Latent pass** — every chunk is read through the store's
    /// fixed retry budget; a chunk that stays
    /// unreadable (a latent sector error) is rewritten in place with the
    /// value its relations imply, off the value ladder and under the region
    /// locks of its relations and of those its decode reads, so a write
    /// that lands meanwhile waits and is never overwritten. Chunks with no
    /// decodable read set (or whose rewrite fails) land in
    /// [`ScrubReport::unrecoverable`] — the scrub reports, it never panics
    /// or errors.
    ///
    /// **Corruption pass** — finds chunks whose parity relations are
    /// violated (the disk answered, but with the wrong bytes) and repairs
    /// them from the redundancy. Identification uses the two layers as
    /// cross-checks: a corrupted *payload* chunk violates both its inner
    /// row and its outer stripe, a corrupted *inner parity* violates only
    /// its row. Assumes at most one corruption per inner row and per outer
    /// stripe (the regime periodic scrubbing is meant to maintain); denser
    /// corruption leaves residual inconsistencies, visible via
    /// [`OiRaidStore::check_parity`].
    ///
    /// Failed disks are skipped (they are [`OiRaidStore::rebuild`]'s job)
    /// but their chunks are excluded from repair read sets, so scrubbing a
    /// degraded array is safe. Every repair marks the relations it changed
    /// dirty, as a write does.
    pub fn scrub(&self) -> ScrubReport {
        let start = Instant::now();
        let failed = self.failed_disks();
        let chunks_per_disk = self.array.geometry().chunks_per_disk;
        let (mut scanned, mut retries) = (0u64, 0u64);
        // Latent pass, detection: probe every chunk of every online disk
        // through the retry layer.
        let mut bad: Vec<ChunkAddr> = Vec::new();
        let mut buf = vec![0u8; self.chunk_size];
        for (d, dev) in self.devices.iter().enumerate() {
            if failed.contains(&d) {
                continue;
            }
            let reader = RetryReader::new(dev, RETRY);
            for o in 0..chunks_per_disk {
                scanned += 1;
                if reader.read_chunk(o, &mut buf).is_err() {
                    bad.push(ChunkAddr::new(d, o));
                }
            }
            retries += reader.counters().retries;
        }
        // Latent pass, repair.
        let (mut repaired_latent, mut unrecoverable) = (Vec::new(), Vec::new());
        for (addr, rewrote) in bad.iter().zip(self.rewrite_lost(&bad, &|_, _| {})) {
            match rewrote {
                Ok(()) => repaired_latent.push(*addr),
                Err(_) => unrecoverable.push(*addr),
            }
        }
        let repaired_corruption = self.scrub_corruption();
        ScrubReport {
            scanned,
            repaired_corruption,
            repaired_latent,
            unrecoverable,
            retries,
            wall: start.elapsed(),
        }
    }

    /// The corruption sweep of [`OiRaidStore::scrub`]: locate and repair
    /// silently-corrupted chunks via the two parity layers' cross-check.
    fn scrub_corruption(&self) -> Vec<ChunkAddr> {
        let geo = self.array.geometry().clone();
        let mut repaired = Vec::new();
        let bad_stripes: Vec<Vec<ChunkAddr>> = self
            .violated_stripes()
            .into_iter()
            .map(|(.., chunks)| chunks)
            .collect();
        // Violated inner rows: locate the suspect within each. A row any
        // chunk of which is persistently unreadable (failed disk, latent
        // sector, exhausted retries — also mid-repair) is skipped and left
        // for a later pass.
        for grp in 0..geo.v {
            for row in 0..geo.chunks_per_disk {
                self.scrub_row(&geo, grp, row, &bad_stripes, &mut repaired);
            }
        }
        repaired
    }

    /// One row of the corruption sweep. Returns `None` — abandoning the
    /// row to a later pass — as soon as any chunk involved is unreadable
    /// or a repair write fails persistently; a partial repair left behind
    /// surfaces as a plain parity violation the next sweep closes.
    /// Runs under the region locks of the row and of the outer stripe of
    /// each payload chunk in it — every relation it reads or repairs — so
    /// repairs cannot interleave with foreground parity patches. Each
    /// repair marks the relations of the chunk it rewrote dirty.
    fn scrub_row(
        &self,
        geo: &Geometry,
        grp: usize,
        row: usize,
        bad_stripes: &[Vec<ChunkAddr>],
        repaired: &mut Vec<ChunkAddr>,
    ) -> Option<()> {
        let payload = geo.row_payload(grp, row);
        let regions: Vec<Region> = payload.iter().flat_map(|a| self.regions_for(*a)).collect();
        let _guard = self.online.lock_regions(&regions);
        let violated = self.row_violations(grp, row)?;
        if violated.is_empty() {
            return Some(());
        }
        // Payload suspects sit in a violated outer stripe too.
        let suspects: Vec<ChunkAddr> = payload
            .into_iter()
            .filter(|a| bad_stripes.iter().any(|s| s.contains(a)))
            .collect();
        let fix = |(a, want): (ChunkAddr, Vec<u8>)| {
            self.write_chunk(a, &want).ok()?;
            self.online.mark_dirty(self.regions_for(a));
            Some(a)
        };
        match suspects.as_slice() {
            [bad_payload] => {
                // Repair from the outer stripe (XOR of the others), then
                // refresh the row parities (they may have been consistent
                // with the corrupted value or with the true one).
                let p = geo.payload_pos(*bad_payload);
                let mut val = vec![0u8; self.chunk_size];
                for a in geo.stripe_chunks(p.block, p.stripe) {
                    if a != *bad_payload {
                        gf::kernels::xor_acc(&mut val, &self.chunk(a)?);
                    }
                }
                repaired.push(fix((*bad_payload, val))?);
                for parity in self.row_violations(grp, row)? {
                    fix(parity)?;
                }
            }
            [] => {
                // No payload suspect: the inner parity itself is
                // corrupted — recompute it.
                for parity in violated {
                    repaired.push(fix(parity)?);
                }
            }
            _ => {
                // Multiple suspects in one row: outside the scrub
                // contract; leave for check_parity to report.
            }
        }
        Some(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{RebuildMode, RecoveryStrategy};

    /// Writes the tests' pattern to every data chunk and returns it.
    fn fill<B: BlockDevice>(store: &OiRaidStore<B>) -> Vec<Vec<u8>> {
        let fill_one = |idx: usize| {
            let chunk: Vec<u8> = (0..store.chunk_size())
                .map(|j| (idx * 37 + j * 11 + 5) as u8)
                .collect();
            store.write_data(idx, &chunk).unwrap();
            chunk
        };
        (0..store.data_chunks()).map(fill_one).collect()
    }

    fn filled_store() -> (OiRaidStore, Vec<Vec<u8>>) {
        let store = OiRaidStore::new(OiRaidConfig::reference(), 16).unwrap();
        let expect = fill(&store);
        (store, expect)
    }

    type FaultyStore = OiRaidStore<blockdev::FaultInjectingDevice<MemDevice>>;

    /// The reference array, filled, on fault-injecting devices with nothing
    /// armed yet.
    fn filled_faulty_store(chunk_size: usize) -> (FaultyStore, Vec<Vec<u8>>) {
        use blockdev::{FaultConfig, FaultInjectingDevice};
        let cfg = OiRaidConfig::reference();
        let devices = (0..cfg.disks())
            .map(|_| MemDevice::new(chunk_size, cfg.chunks_per_disk()))
            .map(|mem| FaultInjectingDevice::new(mem, FaultConfig::default()))
            .collect();
        let store = OiRaidStore::with_devices(cfg, chunk_size, devices).unwrap();
        let expect = fill(&store);
        (store, expect)
    }

    #[test]
    fn zero_initialised_store_is_parity_consistent() {
        let store = OiRaidStore::new(OiRaidConfig::reference(), 8).unwrap();
        assert!(store.check_parity().is_empty());
    }

    #[test]
    fn writes_preserve_parity_in_both_layers() {
        let (store, _) = filled_store();
        assert!(store.check_parity().is_empty());
    }

    #[test]
    fn read_back_all_data() {
        let (store, expect) = filled_store();
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "idx {idx}");
        }
    }

    #[test]
    fn overwrites_keep_parity() {
        let (store, _) = filled_store();
        store.write_data(10, &[0xEE; 16]).unwrap();
        store.write_data(10, &[0x00; 16]).unwrap();
        store.write_data(10, &[0x42; 16]).unwrap();
        assert!(store.check_parity().is_empty());
        assert_eq!(store.read_data(10).unwrap(), vec![0x42; 16]);
    }

    #[test]
    fn a_read_whose_disk_always_faults_spends_the_retry_budget_then_decodes() {
        assert_eq!(RETRY, RetryPolicy::default());
        let (store, expect) = filled_faulty_store(16);
        let idx = 5;
        let dev = &store.devices()[store.locate(idx).disk];
        dev.set_config(blockdev::FaultConfig {
            seed: 7,
            transient_read_per_mille: 1000,
            ..blockdev::FaultConfig::default()
        });
        dev.reset_counters();
        assert_eq!(store.read_data(idx).unwrap(), expect[idx]);
        let c = dev.counters();
        assert_eq!(c.faults, u64::from(RETRY.max_attempts), "{c:?}");
        assert_eq!(c.reads, 0, "no attempt got past the fault dice");
    }

    #[test]
    fn degraded_read_single_failure() {
        let (store, expect) = filled_store();
        store.fail_disk(4).unwrap();
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "idx {idx}");
        }
    }

    #[test]
    fn degraded_reads_are_counted_and_timed() {
        telemetry::set_enabled(true);
        let (store, _) = filled_store();
        store.read_data(0).unwrap();
        assert_eq!(store.telemetry().degraded_reads(), 0, "healthy reads free");
        let victim = store.locate(0).disk;
        store.fail_disk(victim).unwrap();
        // Degraded chunks on the failed disk; healthy ones stay free.
        let degraded: Vec<usize> = (0..store.data_chunks())
            .filter(|&i| store.locate(i).disk == victim)
            .take(3)
            .collect();
        for &i in &degraded {
            store.read_data(i).unwrap();
        }
        let t = store.telemetry();
        assert_eq!(t.degraded_reads(), degraded.len() as u64);
        assert_eq!(t.degraded_read_latency().count(), degraded.len() as u64);
        let snap = t.degraded_read_latency().snapshot();
        assert!(snap.p50() <= snap.p99() && snap.p99() <= snap.max);
        // A cloned store starts clean.
        assert_eq!(store.clone().telemetry().degraded_reads(), 0);
    }

    #[test]
    fn export_metrics_lints_and_mirrors_counters() {
        telemetry::set_enabled(true);
        let (store, _) = filled_store();
        store.fail_disk(store.locate(0).disk).unwrap();
        store.read_data(0).unwrap();
        let reg = Registry::new();
        store.export_metrics(&reg);
        let text = reg.prometheus();
        telemetry::lint_prometheus(&text).expect("clean exposition");
        assert!(text.contains("oi_store_degraded_reads_total 1"));
        assert!(text.contains("oi_device_reads_total{disk=\"0\"}"));
        assert!(text.contains("# TYPE oi_device_read_latency_ns histogram"));
        let json = reg.json();
        assert!(json.contains("\"oi_store_degraded_read_latency_ns\""));
    }

    #[test]
    fn rebuild_after_triple_failure_restores_everything() {
        let (store, expect) = filled_store();
        for d in [2, 9, 17] {
            store.fail_disk(d).unwrap();
        }
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert!(store.failed_disks().is_empty());
        assert!(store.check_parity().is_empty());
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "idx {idx}");
        }
    }

    #[test]
    fn whole_group_rebuild() {
        let (store, expect) = filled_store();
        for d in [6, 7, 8] {
            store.fail_disk(d).unwrap();
        }
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "idx {idx}");
        }
    }

    #[test]
    fn degraded_write_to_failed_disk_roundtrips() {
        telemetry::set_enabled(true);
        let (store, _) = filled_store();
        let addr = store.locate(0);
        store.fail_disk(addr.disk).unwrap();
        store.write_data(0, &[0xA5u8; 16]).unwrap();
        // The lost chunk's new value is implied by the updated parities.
        assert_eq!(store.read_data(0).unwrap(), vec![0xA5u8; 16]);
        assert_eq!(store.telemetry().degraded_writes(), 1);
        assert_eq!(store.telemetry().degraded_write_latency().count(), 1);
        // After rebuild, the write has materialised and parity is clean.
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert!(store.check_parity().is_empty());
        assert_eq!(store.read_data(0).unwrap(), vec![0xA5u8; 16]);
    }

    #[test]
    fn degraded_writes_survive_triple_failure_and_rebuild() {
        let (store, mut expect) = filled_store();
        for d in [2, 9, 17] {
            store.fail_disk(d).unwrap();
        }
        // Overwrite every fifth chunk while three disks are down.
        for idx in (0..store.data_chunks()).step_by(5) {
            let chunk: Vec<u8> = (0..16).map(|j| (idx * 53 + j * 29 + 11) as u8).collect();
            store.write_data(idx, &chunk).unwrap();
            expect[idx] = chunk;
        }
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "degraded idx {idx}");
        }
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert!(store.check_parity().is_empty());
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "rebuilt idx {idx}");
        }
    }

    #[test]
    fn degraded_write_errors_with_data_loss_when_unrecoverable() {
        let (store, _) = filled_store();
        // Four failures in a pattern the layout cannot survive: chunks
        // that still decode locally accept writes, the rest report the
        // loss as an error instead of panicking.
        for d in [0, 1, 3, 4] {
            store.fail_disk(d).unwrap();
        }
        let mut losses = 0;
        for idx in 0..store.data_chunks() {
            if ![0usize, 1, 3, 4].contains(&store.locate(idx).disk) {
                continue;
            }
            match store.write_data(idx, &[0x3Cu8; 16]) {
                Ok(()) => assert_eq!(store.read_data(idx).unwrap(), vec![0x3Cu8; 16]),
                Err(e) => {
                    assert_eq!(e, StoreError::DataLoss, "idx {idx}");
                    losses += 1;
                }
            }
        }
        assert!(losses > 0, "pattern [0,1,3,4] must lose some chunk");
    }

    #[test]
    fn byte_range_io_roundtrips_across_chunk_boundaries() {
        let (store, _) = filled_store();
        // An unaligned range spanning three chunks.
        let payload: Vec<u8> = (0..40).map(|i| (i * 7 + 1) as u8).collect();
        store.write_bytes(10, &payload).unwrap();
        let mut back = vec![0u8; 40];
        store.read_bytes(10, &mut back).unwrap();
        assert_eq!(back, payload);
        assert!(store.check_parity().is_empty());
        // Neighbouring bytes are untouched by the read-modify-write.
        let mut head = vec![0u8; 10];
        store.read_bytes(0, &mut head).unwrap();
        let expect_head: Vec<u8> = (0..10).map(|j| ((j * 11) + 5) as u8).collect();
        assert_eq!(head, expect_head);
    }

    #[test]
    fn byte_range_io_survives_failures() {
        let (store, _) = filled_store();
        let payload = vec![0xABu8; 64];
        store.write_bytes(100, &payload).unwrap();
        for d in [1, 8, 15] {
            store.fail_disk(d).unwrap();
        }
        let mut back = vec![0u8; 64];
        store.read_bytes(100, &mut back).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn unaligned_tail_chunk_rmw_roundtrips() {
        // Partial write into the *last* chunk of the array at an unaligned
        // offset with an unaligned length: the read-modify-write must
        // preserve the untouched head and tail bytes.
        let (store, expect) = filled_store();
        let cap = store.capacity_bytes();
        let last = store.data_chunks() - 1;
        store.write_bytes(cap - 7, &[0x77u8; 5]).unwrap();
        let mut want = expect[last].clone();
        for b in &mut want[9..14] {
            *b = 0x77;
        }
        assert_eq!(store.read_data(last).unwrap(), want);
        assert!(store.check_parity().is_empty());
        // And via the byte path, straddling the untouched tail.
        let mut back = vec![0u8; 16];
        store.read_bytes(cap - 16, &mut back).unwrap();
        assert_eq!(back, want);
    }

    #[test]
    fn unaligned_tail_chunk_rmw_roundtrips_degraded() {
        // The same partial-tail read-modify-write with the home disk down:
        // the RMW read reconstructs, the write takes the degraded path.
        let (store, expect) = filled_store();
        let cap = store.capacity_bytes();
        let last = store.data_chunks() - 1;
        store.fail_disk(store.locate(last).disk).unwrap();
        store.write_bytes(cap - 3, &[0x88u8; 3]).unwrap();
        let mut want = expect[last].clone();
        for b in &mut want[13..16] {
            *b = 0x88;
        }
        let mut back = vec![0u8; 16];
        store.read_bytes(cap - 16, &mut back).unwrap();
        assert_eq!(back, want);
        assert!(store.telemetry().degraded_writes() >= 1);
        // Unaligned range spanning a healthy/degraded chunk boundary.
        let mid = (last as u64 - 1) * 16 + 11; // 5 bytes in last-1, 9 in last
        store.write_bytes(mid, &[0x99u8; 14]).unwrap();
        let mut span = vec![0u8; 14];
        store.read_bytes(mid, &mut span).unwrap();
        assert_eq!(span, vec![0x99u8; 14]);
        // Rebuild materialises everything bit-identically.
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert!(store.check_parity().is_empty());
        let mut final_back = vec![0u8; 16];
        store.read_bytes(cap - 16, &mut final_back).unwrap();
        assert_eq!(&final_back[13..16], &[0x88u8; 3]);
        assert_eq!(&final_back[0..9], &[0x99u8; 9]);
    }

    #[test]
    fn byte_range_bounds_checked() {
        let (store, _) = filled_store();
        let cap = store.capacity_bytes();
        let mut buf = [0u8; 4];
        assert!(store.read_bytes(cap - 2, &mut buf).is_err());
        assert!(store.write_bytes(cap - 2, &[0u8; 4]).is_err());
        assert!(store.read_bytes(cap - 4, &mut buf).is_ok());
    }

    #[test]
    fn scrub_repairs_corrupted_data_chunk() {
        let (store, expect) = filled_store();
        let addr = store.locate(20);
        store.corrupt_chunk(addr, 0x5A).unwrap();
        assert!(!store.check_parity().is_empty(), "corruption is visible");
        let report = store.scrub();
        assert!(
            report.repaired_corruption.contains(&addr),
            "{report}: {:?}",
            report.repaired_corruption
        );
        assert!(report.repaired_latent.is_empty());
        assert!(report.unrecoverable.is_empty());
        assert!(store.check_parity().is_empty());
        assert_eq!(store.read_data(20).unwrap(), expect[20]);
    }

    #[test]
    fn scrub_repairs_corrupted_inner_parity() {
        let (store, _) = filled_store();
        // Disk 0 offset 0 is inner parity (member 0, row 0).
        let addr = ChunkAddr::new(0, 0);
        store.corrupt_chunk(addr, 0xFF).unwrap();
        let report = store.scrub();
        assert_eq!(report.repaired_corruption, vec![addr]);
        assert!(store.check_parity().is_empty());
    }

    #[test]
    fn scrub_repairs_corrupted_outer_parity() {
        let (store, _) = filled_store();
        // Find an outer-parity chunk.
        let geo_total = store.array().chunks_per_disk();
        let mut target = None;
        'outer: for d in 0..store.array().disks() {
            for o in 0..geo_total {
                let a = ChunkAddr::new(d, o);
                if store.array().chunk_role(a) == layout::Role::Parity {
                    target = Some(a);
                    break 'outer;
                }
            }
        }
        let addr = target.expect("outer parity exists");
        store.corrupt_chunk(addr, 0x0F).unwrap();
        let report = store.scrub();
        assert!(
            report.repaired_corruption.contains(&addr),
            "{:?}",
            report.repaired_corruption
        );
        assert!(store.check_parity().is_empty());
    }

    #[test]
    fn scrub_handles_multiple_scattered_corruptions() {
        let (store, expect) = filled_store();
        // Corrupt chunks in different rows and stripes (distinct groups).
        let a1 = store.locate(5);
        let a2 = store.locate(40);
        let (g1, g2) = (
            store.array().group_of(a1.disk),
            store.array().group_of(a2.disk),
        );
        if g1 == g2 {
            return; // geometry places these apart for the reference config
        }
        store.corrupt_chunk(a1, 0x11).unwrap();
        store.corrupt_chunk(a2, 0x22).unwrap();
        store.scrub();
        assert!(store.check_parity().is_empty());
        assert_eq!(store.read_data(5).unwrap(), expect[5]);
        assert_eq!(store.read_data(40).unwrap(), expect[40]);
    }

    #[test]
    fn scrub_on_clean_store_is_a_no_op() {
        let (store, _) = filled_store();
        let report = store.scrub();
        assert!(report.is_clean(), "{report}");
        assert_eq!(
            report.scanned,
            (store.array().disks() * store.array().chunks_per_disk()) as u64
        );
        assert_eq!(report.retries, 0);
        assert!(report.to_string().contains("0 corruption repairs"));
    }

    #[test]
    fn scrub_repairs_latent_sectors_in_place() {
        use blockdev::FaultConfig;
        let (store, expect) = filled_faulty_store(16);
        // Deterministic latent sector errors on two disks in different
        // groups.
        for d in [5, 12] {
            store.devices()[d].set_config(FaultConfig {
                seed: 7,
                latent_per_mille: 200,
                ..FaultConfig::default()
            });
        }
        let latent: Vec<ChunkAddr> = [5usize, 12]
            .into_iter()
            .flat_map(|d| (0..store.array().chunks_per_disk()).map(move |o| ChunkAddr::new(d, o)))
            .filter(|a| store.devices()[a.disk].is_latent_bad(a.offset))
            .collect();
        assert!(!latent.is_empty(), "seed 7 plants latent errors");
        let report = store.scrub();
        assert_eq!(report.repaired_latent, latent, "{report}");
        assert!(report.repaired_corruption.is_empty());
        assert!(report.unrecoverable.is_empty());
        assert!(!report.is_clean());
        // Repaired by rewrite: with the fault config still armed, the
        // chunks read clean (remapped) and carry the right bytes.
        for a in &latent {
            assert!(!store.devices()[a.disk].is_latent_bad(a.offset), "{a:?}");
        }
        assert!(store.check_parity().is_empty());
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "idx {idx}");
        }
        // A second pass finds nothing left to do.
        assert!(store.scrub().is_clean());
    }

    #[test]
    fn scrub_skips_failed_disks_but_heals_latent_elsewhere() {
        use blockdev::FaultConfig;
        let (store, _) = filled_faulty_store(8);
        store.devices()[5].set_config(FaultConfig {
            seed: 7,
            latent_per_mille: 200,
            ..FaultConfig::default()
        });
        store.fail_disk(10).unwrap();
        let report = store.scrub();
        let cpd = store.array().chunks_per_disk();
        assert_eq!(
            report.scanned,
            ((store.array().disks() - 1) * cpd) as u64,
            "failed disk not probed"
        );
        assert!(!report.repaired_latent.is_empty(), "{report}");
        assert!(report.unrecoverable.is_empty());
        assert!(
            report.repaired_latent.iter().all(|a| a.disk == 5),
            "repairs only on the latent disk"
        );
        assert_eq!(store.failed_disks(), vec![10], "scrub does not rebuild");
    }

    // Regression: the corruption sweep used a check-then-reread pattern
    // (`expect("checked readable")`) that panicked when a transient fault
    // hit between the probe and the use. Scrubbing corruption on flaky
    // media must retry, degrade gracefully, and still converge.
    #[test]
    fn scrub_repairs_corruption_under_transient_faults() {
        use blockdev::FaultConfig;
        let (store, expect) = filled_faulty_store(16);
        let addr = store.locate(20);
        store.corrupt_chunk(addr, 0x5A).unwrap();
        for (d, dev) in store.devices().iter().enumerate() {
            dev.set_config(FaultConfig {
                seed: 0xC0DE ^ (d as u64).wrapping_mul(0x9E37_79B9),
                transient_read_per_mille: 50,
                transient_write_per_mille: 50,
                ..FaultConfig::default()
            });
        }
        // A row abandoned mid-repair (retry exhaustion) is legal — it just
        // takes another pass; with 50‰ faults and default retries, one
        // pass all but always suffices.
        let mut passes = 0;
        loop {
            let report = store.scrub();
            passes += 1;
            if report.is_clean() || passes >= 4 {
                assert!(report.is_clean(), "did not converge: {report}");
                break;
            }
        }
        for dev in store.devices() {
            dev.set_config(FaultConfig::default());
        }
        assert!(store.check_parity().is_empty());
        assert_eq!(store.read_data(20).unwrap(), expect[20]);
    }

    #[test]
    fn dual_parity_store_survives_five_failures() {
        let cfg = OiRaidConfig::new(bibd::fano(), 5, 1)
            .unwrap()
            .with_inner_parities(2)
            .unwrap();
        let store = OiRaidStore::new(cfg, 16).unwrap();
        let mut expect = Vec::new();
        for idx in 0..store.data_chunks() {
            let chunk: Vec<u8> = (0..16).map(|j| (idx * 61 + j * 19 + 7) as u8).collect();
            store.write_data(idx, &chunk).unwrap();
            expect.push(chunk);
        }
        assert!(
            store.check_parity().is_empty(),
            "dual-parity rows consistent"
        );
        // Kill five disks (a whole group) and rebuild.
        for d in [5, 6, 7, 8, 9] {
            store.fail_disk(d).unwrap();
        }
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert!(store.check_parity().is_empty());
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(&store.read_data(idx).unwrap(), e, "idx {idx}");
        }
    }

    #[test]
    fn dual_parity_update_set_is_six_writes() {
        let cfg = OiRaidConfig::new(bibd::fano(), 5, 1)
            .unwrap()
            .with_inner_parities(2)
            .unwrap();
        let store = OiRaidStore::new(cfg, 8).unwrap();
        let a = store.array();
        for idx in (0..a.data_chunks()).step_by(11) {
            let set = a.update_set(a.locate_data(idx)).unwrap();
            assert_eq!(set.len(), 6, "1 data + 5 parity writes");
            let disks: std::collections::HashSet<usize> = set.iter().map(|c| c.disk).collect();
            assert_eq!(disks.len(), 6, "all on distinct disks");
        }
    }

    #[test]
    fn input_validation() {
        let (store, _) = filled_store();
        assert!(matches!(
            store.write_data(0, &[0u8; 3]),
            Err(StoreError::WrongChunkSize { found: 3, .. })
        ));
        let cap = store.data_chunks();
        assert!(matches!(
            store.write_data(cap, &[0u8; 16]),
            Err(StoreError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            store.read_data(cap),
            Err(StoreError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            store.fail_disk(99),
            Err(StoreError::DiskOutOfRange { disk: 99 })
        ));
        assert!(OiRaidStore::new(OiRaidConfig::reference(), 0).is_err());
    }

    #[test]
    fn batched_reads_match_sequential_and_dedupe() {
        let (store, expect) = filled_store();
        let idxs = [0usize, 5, 5, 1, 0, 9, 5];
        let got = store.read_data_batch(&idxs).unwrap();
        for (&idx, bytes) in idxs.iter().zip(&got) {
            assert_eq!(bytes, &expect[idx]);
        }
        // 7 requests, 4 distinct chunks fetched.
        assert_eq!(store.telemetry().batch_read_requests(), 7);
        assert_eq!(store.telemetry().batch_read_chunks(), 4);
    }

    #[test]
    fn batched_reads_reconstruct_through_failures() {
        let (store, expect) = filled_store();
        store.fail_disk(store.locate(0).disk).unwrap();
        store.fail_disk(store.locate(7).disk).unwrap();
        let idxs: Vec<usize> = (0..store.data_chunks()).collect();
        let got = store.read_data_batch(&idxs).unwrap();
        assert_eq!(got, expect);
        assert!(store.telemetry().degraded_reads() >= 2);
    }

    /// What a degraded batch costs, counted: 64 consecutive data chunks of
    /// one failed disk at the serving geometry. Every third row is the
    /// disk's inner parity, so its data sits in runs of two and each
    /// source disk serves a run per op.
    #[test]
    fn a_degraded_batch_costs_per_group_not_per_chunk() {
        telemetry::set_enabled(true);
        let cfg = OiRaidConfig::new(bibd::fano(), 3, 32).unwrap();
        let store = OiRaidStore::new(cfg, 4096).unwrap();
        let value = |idx: usize| vec![(idx % 251) as u8 + 1; 4096];
        for idx in 0..store.data_chunks() {
            store.write_data(idx, &value(idx)).unwrap();
        }
        let idxs: Vec<usize> = (0..store.data_chunks())
            .filter(|&i| store.locate(i).disk == 0)
            .take(64)
            .collect();
        assert_eq!(idxs.len(), 64);
        store.fail_disk(0).unwrap();
        let io = |store: &OiRaidStore| {
            let counters = store.devices().iter().map(|d| d.counters());
            counters.fold((0, 0), |io, c| (io.0 + c.reads, io.1 + c.bytes_read))
        };
        let (io_before, locks_before) = (io(&store), store.online.update_locks());
        let got = store.read_data_batch(&idxs).unwrap();
        let (io_after, locks_after) = (io(&store), store.online.update_locks());
        for (idx, bytes) in idxs.iter().zip(&got) {
            assert_eq!(*bytes, value(*idx), "idx {idx}");
        }
        assert_eq!(
            io_after.1 - io_before.1,
            128 * 4096,
            "two sources per lost chunk, each read once and nothing else"
        );
        let ops = io_after.0 - io_before.0;
        assert!(ops <= 64, "{ops} device reads for 128 source chunks");
        assert_eq!(
            locks_after - locks_before,
            2,
            "one lock_regions per MAX_WRITE_GROUP chunks"
        );
        // Counted per chunk, touched per group.
        let t = store.telemetry();
        assert_eq!(t.degraded_reads(), 64);
        assert_eq!(t.degraded_read_latency().count(), 64);
        assert_eq!(t.foreground_reads(), 64);
    }

    /// Rung 1 reads in device runs, for a batch read and for a write's old
    /// values alike: the first `MAX_WRITE_GROUP` data chunks of one disk
    /// cost one read op on it per run of consecutive offsets (at most
    /// `run_chunks` long), not one per chunk. A write's parity members sit
    /// on other disks — the inner parity elsewhere in the row, the outer
    /// parity in another group, and that one's inner parity in its row — so
    /// the disk's reads are exactly the old data values.
    #[test]
    fn healthy_batches_read_in_device_runs() {
        // Groups of 17: a disk's inner parity comes every 17th row, so its
        // data runs are cut mostly by its outer parity, every third payload
        // chunk at k = 3.
        let cs = 512;
        let cfg = OiRaidConfig::new(bibd::fano(), 17, 1).unwrap();
        let store = OiRaidStore::new(cfg, cs).unwrap();
        let mut on_disk0: Vec<(usize, usize)> = (0..store.data_chunks())
            .map(|i| (store.locate(i), i))
            .filter(|(a, _)| a.disk == 0)
            .map(|(a, i)| (a.offset, i))
            .collect();
        on_disk0.sort_unstable();
        on_disk0.truncate(MAX_WRITE_GROUP);
        let (offsets, idxs): (Vec<usize>, Vec<usize>) = on_disk0.into_iter().unzip();
        let consecutive = offsets.chunk_by(|a, b| a + 1 == *b);
        let runs: u64 = consecutive
            .map(|run| run.len().div_ceil(run_chunks(cs)) as u64)
            .sum();
        assert!(
            2 * runs <= idxs.len() as u64 + 2,
            "{runs} runs of {offsets:?}"
        );

        let reads = |store: &OiRaidStore| store.devices()[0].counters().reads;
        let before = reads(&store);
        let zeroes = vec![vec![0u8; cs]; idxs.len()];
        assert_eq!(store.read_data_batch(&idxs).unwrap(), zeroes);
        assert_eq!(reads(&store) - before, runs, "a batch read");
        let payload = vec![0xA5u8; cs];
        let offset = |i: &usize| (i * cs) as u64;
        let writes: Vec<(u64, &[u8])> = idxs.iter().map(|i| (offset(i), &payload[..])).collect();
        let before = reads(&store);
        assert_eq!(store.write_bytes_batch(&writes).unwrap().chunks, idxs.len());
        assert_eq!(reads(&store) - before, runs, "a batch write's old values");
        assert!(store.check_parity().is_empty());
        assert_eq!(
            store.read_data_batch(&idxs).unwrap(),
            vec![payload; idxs.len()]
        );
    }

    /// Disks to fail together: every single disk, then pairs and triples
    /// inside one group, across groups that share a block (any two do,
    /// lambda = 1), and across three groups no block holds.
    fn failure_patterns() -> Vec<Vec<usize>> {
        let multi: [&[usize]; 8] = [
            &[0, 1],
            &[0, 1, 2],
            &[4, 9],
            &[0, 1, 3],
            &[0, 3, 6],
            &[2, 10, 20],
            &[5, 7, 12],
            &[13, 14, 18],
        ];
        let singles = (0..21).map(|d| vec![d]);
        singles.chain(multi.iter().map(|m| m.to_vec())).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        // `read_data_batch(idxs) == idxs.map(read_data)` for random index
        // multisets (duplicates, unsorted), under every failure pattern
        // above with latent sectors on the *surviving* disks: a source the
        // gather cannot read re-plans its miss, and what no relation of
        // its own reaches goes to rung 3, on both paths alike.
        #[test]
        fn a_batch_reads_what_single_reads_read_under_failures_and_latent_sources(
            idxs in proptest::collection::vec(0usize..84, 1..160),
            seed in proptest::any::<u64>(),
        ) {
            use blockdev::FaultConfig;
            let (store, expect) = filled_faulty_store(16);
            proptest::prop_assert_eq!(expect.len(), 84);
            // The random multiset, then every chunk once: each pattern's
            // whole lost set is asked for, among it the chunks whose row
            // sources sit on bad sectors.
            let idxs: Vec<usize> = idxs.into_iter().chain(0..84).collect();
            let mut replanned = 0;
            for failed in failure_patterns() {
                for &d in &failed {
                    store.fail_disk(d).unwrap();
                }
                for (d, dev) in store.devices().iter().enumerate() {
                    dev.set_config(FaultConfig {
                        seed: seed ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        latent_per_mille: 40,
                        ..FaultConfig::default()
                    });
                }
                let latent = |a: ChunkAddr| store.devices[a.disk].is_latent_bad(a.offset);
                let geo = store.array.geometry();
                replanned += idxs.iter().map(|&i| store.locate(i)).filter(|a| {
                    failed.contains(&a.disk)
                        && geo.row_chunks(geo.group_of(a.disk), a.offset).into_iter().any(latent)
                }).count();
                let singles: Vec<_> = idxs.iter().map(|&i| store.read_data(i)).collect();
                match store.read_data_batch(&idxs) {
                    Ok(batch) => {
                        let singles: Result<Vec<_>, _> = singles.iter().cloned().collect();
                        proptest::prop_assert_eq!(Ok(batch), singles, "{:?}", failed);
                    }
                    Err(e) => proptest::prop_assert!(singles.contains(&Err(e)), "{:?}", failed),
                }
                for (&i, single) in idxs.iter().zip(&singles) {
                    if let Ok(bytes) = single {
                        proptest::prop_assert_eq!(bytes, &expect[i], "{:?} idx {}", failed, i);
                    }
                }
                for dev in store.devices() {
                    dev.set_config(FaultConfig::default());
                }
                store.rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid).unwrap();
            }
            proptest::prop_assert!(replanned > 0, "no lost chunk had a latent row source");
        }
    }

    #[test]
    fn batched_writes_match_sequential_writes() {
        // Same byte-range writes (with overlaps crossing chunk boundaries)
        // through write_bytes one-at-a-time vs one write_bytes_batch call.
        let (seq, _) = filled_store();
        let (bat, _) = filled_store();
        let writes: Vec<(u64, Vec<u8>)> = vec![
            (3, vec![0x11; 20]),
            (10, vec![0x22; 40]),  // overlaps the first
            (100, vec![0x33; 16]), // chunk-aligned
            (5, vec![0x44; 4]),    // rewrites part of the first
            (250, vec![0x55; 33]),
        ];
        for (off, data) in &writes {
            seq.write_bytes(*off, data).unwrap();
        }
        let refs: Vec<(u64, &[u8])> = writes.iter().map(|(o, d)| (*o, d.as_slice())).collect();
        let stats = bat.write_bytes_batch(&refs).unwrap();
        assert_eq!(stats.requests, 5);
        // The 5 requests span 12 chunk-touches one-at-a-time but only 9
        // distinct chunks — the batch performs exactly one RMW per chunk.
        assert_eq!(stats.chunks, 9);
        for idx in 0..seq.data_chunks() {
            assert_eq!(seq.read_data(idx).unwrap(), bat.read_data(idx).unwrap());
        }
        assert!(bat.check_parity().is_empty());
    }

    #[test]
    fn batched_writes_match_sequential_under_failures() {
        let (seq, _) = filled_store();
        let (bat, _) = filled_store();
        for s in [&seq, &bat] {
            s.fail_disk(s.locate(0).disk).unwrap();
            s.fail_disk(s.locate(6).disk).unwrap();
        }
        let writes: Vec<(u64, Vec<u8>)> = (0..12)
            .map(|i| (i as u64 * 13, vec![(0xA0 + i) as u8; 21]))
            .collect();
        for (off, data) in &writes {
            seq.write_bytes(*off, data).unwrap();
        }
        let refs: Vec<(u64, &[u8])> = writes.iter().map(|(o, d)| (*o, d.as_slice())).collect();
        bat.write_bytes_batch(&refs).unwrap();
        // Degraded reads agree now, and every byte agrees after rebuild.
        for idx in 0..seq.data_chunks() {
            assert_eq!(seq.read_data(idx).unwrap(), bat.read_data(idx).unwrap());
        }
        for s in [&seq, &bat] {
            s.rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                .unwrap();
            assert!(s.check_parity().is_empty());
        }
        for idx in 0..seq.data_chunks() {
            assert_eq!(seq.read_data(idx).unwrap(), bat.read_data(idx).unwrap());
        }
    }

    #[test]
    fn foreground_io_over_latent_sectors_decodes_and_skips_no_up_member() {
        use blockdev::FaultConfig;
        use layout::Role;
        let (store, mut expect) = filled_faulty_store(16);
        // Armed after the fill, every disk up: 30 per mille of all sectors
        // stop reading until they are rewritten.
        for (d, dev) in store.devices().iter().enumerate() {
            dev.set_config(FaultConfig {
                seed: (5000 + d as u64) * 1_000_003,
                latent_per_mille: 30,
                ..FaultConfig::default()
            });
        }
        let chunks_per_disk = store.array().chunks_per_disk();
        let latent = |store: &FaultyStore| -> Vec<ChunkAddr> {
            (0..store.devices().len())
                .flat_map(|d| (0..chunks_per_disk).map(move |o| ChunkAddr::new(d, o)))
                .filter(|a| store.devices()[a.disk].is_latent_bad(a.offset))
                .collect()
        };
        let role = |a: &ChunkAddr| store.array().chunk_role(*a);
        let bad = latent(&store);
        let bad_data = bad.iter().filter(|a| role(a) == Role::Data).count() as u64;
        assert!(bad_data > 0, "a data member on a bad sector: {bad:?}");
        assert!(
            bad.iter().any(|a| role(a) != Role::Data),
            "a parity member on a bad sector: {bad:?}"
        );

        // Reads decode around the sector, and say so.
        let degraded = store.telemetry().degraded_reads();
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "idx {idx}");
        }
        assert_eq!(store.telemetry().degraded_reads() - degraded, bad_data);
        let all: Vec<usize> = (0..store.data_chunks()).collect();
        assert_eq!(store.read_data_batch(&all).unwrap(), expect);

        // Writes decode the old value of a data *or parity* member on a bad
        // sector and rewrite it in place; none is skipped.
        for (idx, e) in expect.iter_mut().enumerate() {
            *e = (0..16).map(|j| (idx * 53 + j * 29 + 11) as u8).collect();
            store.write_data(idx, e).unwrap();
        }
        assert_eq!(latent(&store), [], "every member was rewritten");
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "idx {idx}");
        }
        assert!(store.check_parity().is_empty());
        let report = store.scrub();
        assert!(report.is_clean(), "{report}");
    }

    /// What one 512-byte write logs, read off `JournalStats::bytes`: each
    /// member's changed range while every disk is up and no rebuild window
    /// is open, except a member whose old value was decoded instead of read
    /// (a latent sector); every member whole while a disk is failed or a
    /// window is open. A failed data disk's member is not written at all,
    /// and its parities log whole although they read from their own
    /// devices: replay could decode them from the failed disk's stale bytes.
    #[test]
    fn a_write_logs_whole_the_members_whose_rest_is_not_on_their_device() {
        use blockdev::{FaultConfig, FaultInjectingDevice};
        const CS: usize = 4096;
        const PIECE: usize = 512;
        // 16 bytes of address per member; 25 of header, count and CRC per
        // intent, and a 21-byte applied marker.
        const RANGE: u64 = 16 + PIECE as u64;
        const WHOLE: u64 = 16 + CS as u64;
        const FRAME: u64 = 25 + 21;
        let cfg = OiRaidConfig::reference();
        let devices = (0..cfg.disks())
            .map(|_| MemDevice::new(CS, cfg.chunks_per_disk()))
            .map(|mem| FaultInjectingDevice::new(mem, FaultConfig::default()))
            .collect();
        let dir = std::env::temp_dir().join(format!("oi-store-logged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store =
            OiRaidStore::create_durable_on(cfg, CS, devices, &dir, FlushPolicy::Never).unwrap();
        let mut expect = fill(&store);
        let stats = store.journal().unwrap().stats();
        let mut logged = |idx: usize, byte: u8| {
            let before = stats.bytes.load(Ordering::Relaxed);
            store
                .write_bytes((idx * CS + 1024) as u64, &[byte; PIECE])
                .unwrap();
            expect[idx][1024..1024 + PIECE].fill(byte);
            stats.bytes.load(Ordering::Relaxed) - before
        };
        assert_eq!(logged(0, 1), FRAME + 4 * RANGE, "healthy");

        // One latent sector: data chunk 1's, nothing else on its disk.
        let addr = store.locate(1);
        let dev = &store.devices()[addr.disk];
        let latent_at = |cfg: &FaultConfig| {
            dev.set_config(*cfg);
            (0..dev.chunks()).all(|c| dev.is_latent_bad(c) == (c == addr.offset))
        };
        (0..)
            .map(|seed| FaultConfig {
                seed,
                latent_per_mille: 200,
                ..FaultConfig::default()
            })
            .find(latent_at)
            .unwrap();
        assert_eq!(logged(1, 2), FRAME + WHOLE + 3 * RANGE, "latent data");
        assert!(!dev.is_latent_bad(addr.offset), "rewritten in place");

        let d = store.locate(2).disk;
        store.fail_disk(d).unwrap();
        assert_eq!(logged(2, 3), FRAME + 3 * WHOLE, "failed data disk");
        // A rebuild window over the disk, nothing rebuilt yet: the chunk is
        // decoded; once written it reads, but the window is still open.
        store.online.begin([d]);
        store.devices[d].heal().unwrap();
        assert_eq!(logged(2, 4), FRAME + 4 * WHOLE, "un-rebuilt");
        assert_eq!(logged(2, 5), FRAME + 4 * WHOLE, "in the window");
        store.online.end();
        store.fail_disk(d).unwrap();
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert_eq!(logged(2, 6), FRAME + 4 * RANGE, "rebuilt");

        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "idx {idx}");
        }
        assert!(store.check_parity().is_empty());
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A rebuild whose closing flush of its targets fails is aborted: the
    /// targets go back offline and the window closes, so no write logs a
    /// range over rebuilt chunks that may not be durable. The next rebuild
    /// brings them back.
    #[test]
    fn a_rebuild_whose_closing_flush_fails_takes_its_targets_offline() {
        use blockdev::{FaultConfig, FaultInjectingDevice};
        const CS: usize = 4096;
        let cfg = OiRaidConfig::reference();
        let devices = (0..cfg.disks())
            .map(|_| MemDevice::new(CS, cfg.chunks_per_disk()))
            .map(|mem| FaultInjectingDevice::new(mem, FaultConfig::default()))
            .collect();
        let dir =
            std::env::temp_dir().join(format!("oi-store-closing-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store =
            OiRaidStore::create_durable_on(cfg, CS, devices, &dir, FlushPolicy::PerWave).unwrap();
        let expect = fill(&store);
        let d = store.locate(0).disk;
        store.fail_disk(d).unwrap();
        store.devices[d].set_config(FaultConfig {
            flush_fail_per_mille: 1000,
            ..FaultConfig::default()
        });
        let rebuild = || store.rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid);
        assert!(rebuild().is_err());
        assert_eq!(store.failed_disks(), vec![d]);
        assert!(!store.online.maybe_open());

        store.devices[d].set_config(FaultConfig::default());
        rebuild().unwrap();
        assert!(store.failed_disks().is_empty());
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "idx {idx}");
        }
        assert!(store.check_parity().is_empty());
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every multi-disk pattern of [`failure_patterns`] is served and
    /// rebuilt under latent sectors: with 40 per mille of the surviving
    /// sectors latent, single and batched reads and writes either answer
    /// right or report data loss, and the rebuild restores every value.
    #[test]
    fn every_multi_disk_pattern_is_served_and_rebuilt_under_latent_sectors() {
        use blockdev::FaultConfig;
        let (store, mut expect) = filled_faulty_store(16);
        let all: Vec<usize> = (0..store.data_chunks()).collect();
        for failed in failure_patterns().into_iter().filter(|f| f.len() > 1) {
            for &d in &failed {
                store.fail_disk(d).unwrap();
            }
            for (d, dev) in store.devices().iter().enumerate() {
                dev.set_config(FaultConfig {
                    seed: 0x5EED ^ ((d as u64 + 1) * 7919),
                    latent_per_mille: 40,
                    ..FaultConfig::default()
                });
            }
            let answered = |got: Result<Vec<u8>, StoreError>, want: &[u8]| match got {
                Ok(bytes) => assert_eq!(bytes, want, "{failed:?}"),
                Err(e) => assert_eq!(e, StoreError::DataLoss, "{failed:?}"),
            };
            for &idx in &all {
                answered(store.read_data(idx), &expect[idx]);
                let new = vec![(idx + failed.len()) as u8; 16];
                if store.write_data(idx, &new).is_ok() {
                    expect[idx] = new;
                }
            }
            match store.read_data_batch(&all) {
                Ok(got) => assert_eq!(got, expect, "{failed:?}"),
                Err(e) => assert_eq!(e, StoreError::DataLoss, "{failed:?}"),
            }
            let new = [0xC3u8; 40];
            let writes: Vec<(u64, &[u8])> = (0..12).map(|k| (k * 53, &new[..])).collect();
            if store.write_bytes_batch(&writes).is_ok() {
                for (at, bytes) in &writes {
                    for (i, b) in bytes.iter().enumerate() {
                        let pos = *at as usize + i;
                        expect[pos / 16][pos % 16] = *b;
                    }
                }
            }
            for dev in store.devices() {
                dev.set_config(FaultConfig::default());
            }
            store
                .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                .unwrap();
            assert_eq!(store.read_data_batch(&all).unwrap(), expect, "{failed:?}");
        }
    }

    /// A device that keeps the trait's whole-chunk defaults for the range
    /// pair, as the benchmark's `NoSync` does: every range read or write is
    /// a whole-chunk one. Runs go to the wrapped device's own `read_chunks`.
    #[derive(Debug)]
    struct WholeChunks<B>(B);

    impl<B: BlockDevice> BlockDevice for WholeChunks<B> {
        fn chunk_size(&self) -> usize {
            self.0.chunk_size()
        }
        fn chunks(&self) -> usize {
            self.0.chunks()
        }
        fn is_failed(&self) -> bool {
            self.0.is_failed()
        }
        fn read_chunk(&self, chunk: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
            self.0.read_chunk(chunk, buf)
        }
        fn read_chunks(&self, first: usize, n: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
            self.0.read_chunks(first, n, buf)
        }
        fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
            self.0.write_chunk(chunk, data)
        }
        fn fail(&self) {
            self.0.fail()
        }
        fn heal(&self) -> Result<(), DeviceError> {
            self.0.heal()
        }
        fn counters(&self) -> blockdev::CounterSnapshot {
            self.0.counters()
        }
        fn reset_counters(&self) {
            self.0.reset_counters()
        }
    }

    type Ranged = OiRaidStore<blockdev::FaultInjectingDevice<MemDevice>>;
    type Whole = OiRaidStore<WholeChunks<blockdev::FaultInjectingDevice<MemDevice>>>;

    /// One call of the range == whole stream.
    #[derive(Debug)]
    enum Op {
        Write(u64, Vec<u8>),
        Batch(Vec<(u64, Vec<u8>)>),
        Read(u64, usize),
    }

    /// `n` sub-chunk calls at random places, some across a chunk boundary.
    fn random_ops(rng: &mut rand::rngs::StdRng, store: &Ranged, n: usize) -> Vec<Op> {
        use rand::Rng;
        let cs = store.chunk_size();
        let capacity = store.capacity_bytes();
        let piece = |rng: &mut rand::rngs::StdRng| {
            let len = rng.gen_range(1..cs);
            let at = rng.gen_range(0..capacity - len as u64);
            let byte = rng.gen_range(0..256usize) as u8;
            (at, (0..len).map(|j| byte ^ j as u8).collect::<Vec<u8>>())
        };
        (0..n)
            .map(|_| match rng.gen_range(0..3) {
                0 => {
                    let (at, bytes) = piece(rng);
                    Op::Write(at, bytes)
                }
                1 => Op::Batch((0..rng.gen_range(1..12)).map(|_| piece(rng)).collect()),
                _ => {
                    let (at, bytes) = piece(rng);
                    Op::Read(at, bytes.len())
                }
            })
            .collect()
    }

    /// Runs `ops` on both stores: every outcome and every read agree.
    fn run_both(ranged: &Ranged, whole: &Whole, ops: &[Op]) {
        for op in ops {
            match op {
                Op::Write(at, bytes) => {
                    assert_eq!(
                        ranged.write_bytes(*at, bytes),
                        whole.write_bytes(*at, bytes)
                    );
                }
                Op::Batch(writes) => {
                    let refs: Vec<(u64, &[u8])> =
                        writes.iter().map(|(at, b)| (*at, b.as_slice())).collect();
                    assert_eq!(
                        ranged.write_bytes_batch(&refs),
                        whole.write_bytes_batch(&refs)
                    );
                }
                Op::Read(at, len) => {
                    let (mut a, mut b) = (vec![0u8; *len], vec![1u8; *len]);
                    let a = ranged.read_bytes(*at, &mut a).map(|()| a);
                    assert_eq!(a, whole.read_bytes(*at, &mut b).map(|()| b), "{op:?}");
                }
            }
        }
    }

    /// Every up device holds the same bytes under both stores (read past
    /// the fault injector), and both stores' parity verifies.
    fn same_devices(ranged: &Ranged, whole: &Whole, leg: &str) {
        let chunks = ranged.array().chunks_per_disk();
        for (d, (a, b)) in ranged.devices().iter().zip(whole.devices()).enumerate() {
            assert_eq!(a.is_failed(), b.is_failed(), "{leg}: disk {d}");
            if a.is_failed() {
                continue;
            }
            let mut x = vec![0u8; chunks * ranged.chunk_size()];
            let mut y = vec![1u8; x.len()];
            a.inner().read_chunks(0, chunks, &mut x).unwrap();
            b.0.inner().read_chunks(0, chunks, &mut y).unwrap();
            assert!(x == y, "{leg}: disk {d}'s bytes differ");
        }
        assert_eq!(ranged.check_parity(), [], "{leg}");
        assert_eq!(whole.check_parity(), [], "{leg}");
    }

    /// Both stores on the reference array, filled alike, no fault armed.
    fn range_and_whole_stores(cs: usize) -> (Ranged, Whole) {
        use blockdev::{FaultConfig, FaultInjectingDevice};
        let cfg = OiRaidConfig::reference();
        let dev = || {
            FaultInjectingDevice::new(
                MemDevice::new(cs, cfg.chunks_per_disk()),
                FaultConfig::default(),
            )
        };
        let ranged =
            OiRaidStore::with_devices(cfg.clone(), cs, (0..cfg.disks()).map(|_| dev()).collect())
                .unwrap();
        let whole = (0..cfg.disks()).map(|_| WholeChunks(dev())).collect();
        let whole = OiRaidStore::with_devices(cfg, cs, whole).unwrap();
        assert_eq!(fill(&ranged), fill(&whole));
        (ranged, whole)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(4))]

        // Range I/O is whole-chunk I/O, byte for byte: one random stream of
        // sub-chunk `write_bytes`, `write_bytes_batch` and `read_bytes` on a
        // store whose devices move ranges and on one whose devices keep the
        // whole-chunk defaults reads alike and leaves the devices
        // bit-identical — healthy, with one and two disks failed, over
        // latent sectors, and inside an open rebuild window.
        #[test]
        fn a_stream_of_range_io_leaves_what_whole_chunk_io_leaves(seed in proptest::any::<u64>()) {
            use blockdev::FaultConfig;
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (ranged, whole) = range_and_whole_stores(64);
            let disks = ranged.devices().len();
            let rebuild = || {
                ranged.rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid).unwrap();
                whole.rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid).unwrap();
            };

            let ops = random_ops(&mut rng, &ranged, 40);
            run_both(&ranged, &whole, &ops);
            same_devices(&ranged, &whole, "healthy");

            let first = rng.gen_range(0..disks);
            let pair = [first, (first + 1 + rng.gen_range(0..disks - 1)) % disks];
            for failed in [&pair[..1], &pair[..]] {
                for &d in failed {
                    ranged.fail_disk(d).unwrap();
                    whole.fail_disk(d).unwrap();
                }
                let ops = random_ops(&mut rng, &ranged, 40);
                run_both(&ranged, &whole, &ops);
                same_devices(&ranged, &whole, "failed");
                rebuild();
                same_devices(&ranged, &whole, "rebuilt");
            }

            let arm = |latent_per_mille| {
                for d in 0..disks {
                    let cfg = FaultConfig {
                        seed: seed ^ (d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        latent_per_mille,
                        ..FaultConfig::default()
                    };
                    ranged.devices()[d].set_config(cfg);
                    whole.devices()[d].0.set_config(cfg);
                }
            };
            arm(40);
            let ops = random_ops(&mut rng, &ranged, 40);
            run_both(&ranged, &whole, &ops);
            arm(0);
            same_devices(&ranged, &whole, "latent");

            let d = rng.gen_range(0..disks);
            for store in [&ranged as &dyn WindowOver, &whole] {
                store.open_window_over(d);
            }
            let ops = random_ops(&mut rng, &ranged, 40);
            run_both(&ranged, &whole, &ops);
            same_devices(&ranged, &whole, "in the window");
            for store in [&ranged as &dyn WindowOver, &whole] {
                store.close_window_failing(d);
            }
            rebuild();
            same_devices(&ranged, &whole, "window rebuilt");
        }
    }

    /// A rebuild window opened over a disk by hand, nothing rebuilt yet.
    trait WindowOver {
        fn open_window_over(&self, d: usize);
        fn close_window_failing(&self, d: usize);
    }

    impl<B: BlockDevice> WindowOver for OiRaidStore<B> {
        fn open_window_over(&self, d: usize) {
            self.fail_disk(d).unwrap();
            self.online.begin([d]);
            self.devices[d].heal().unwrap();
        }
        fn close_window_failing(&self, d: usize) {
            self.online.end();
            self.fail_disk(d).unwrap();
        }
    }

    /// Device bytes read and written over all members while `op` runs.
    fn bytes_moved<B: BlockDevice>(store: &OiRaidStore<B>, op: impl FnOnce()) -> (u64, u64) {
        let sum = |store: &OiRaidStore<B>| {
            let counters = store.devices().iter().map(|d| d.counters());
            counters.fold((0, 0), |(r, w), c| (r + c.bytes_read, w + c.bytes_written))
        };
        let before = sum(store);
        op();
        let after = sum(store);
        (after.0 - before.0, after.1 - before.1)
    }

    /// C6 in bytes: a 512-byte write reads and writes 512 bytes of each of
    /// its four members, a 512-byte read reads 512 bytes, and a whole-chunk
    /// write still moves whole chunks. A member whose old value is decoded
    /// (a latent data sector, an un-rebuilt chunk inside an open window) is
    /// written whole: the rest of it is not on its device.
    #[test]
    fn a_sub_chunk_write_moves_only_its_bytes() {
        use blockdev::FaultConfig;
        const CS: u64 = 4096;
        const PIECE: u64 = 512;
        let (store, _) = filled_faulty_store(CS as usize);
        let piece = [0x5Au8; PIECE as usize];
        let write = |idx: u64| store.write_bytes(idx * CS + 1024, &piece).unwrap();
        assert_eq!(bytes_moved(&store, || write(0)), (4 * PIECE, 4 * PIECE));
        let mut buf = [0u8; PIECE as usize];
        let read = || store.read_bytes(1024, &mut buf).unwrap();
        assert_eq!(bytes_moved(&store, read), (PIECE, 0));
        assert_eq!(buf, piece);
        let chunk = vec![0xA5u8; CS as usize];
        let whole = || store.write_data(3, &chunk).unwrap();
        assert_eq!(bytes_moved(&store, whole), (4 * CS, 4 * CS));

        // A latent sector under data chunk 1, nothing else latent on its disk.
        let addr = store.locate(1);
        let dev = &store.devices()[addr.disk];
        let latent_at = |cfg: &FaultConfig| {
            dev.set_config(*cfg);
            (0..dev.chunks()).all(|c| dev.is_latent_bad(c) == (c == addr.offset))
        };
        (0..)
            .map(|seed| FaultConfig {
                seed,
                latent_per_mille: 200,
                ..FaultConfig::default()
            })
            .find(latent_at)
            .unwrap();
        let (_, written) = bytes_moved(&store, || write(1));
        assert_eq!(written, CS + 3 * PIECE, "latent data member");
        assert!(!dev.is_latent_bad(addr.offset), "rewritten whole");
        dev.set_config(FaultConfig::default());

        // Data chunk 2 inside an open window over its disk, not rebuilt:
        // decoded, and written whole. Its parities sit on other disks.
        let d = store.locate(2).disk;
        store.open_window_over(d);
        let (_, written) = bytes_moved(&store, || write(2));
        assert_eq!(written, CS + 3 * PIECE, "un-rebuilt data member");
        assert_eq!(
            bytes_moved(&store, || write(2)),
            (4 * PIECE, 4 * PIECE),
            "rebuilt by the write"
        );
        store.close_window_failing(d);
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert!(store.check_parity().is_empty());
        for idx in 0..3u64 {
            let mut got = [0u8; PIECE as usize];
            store.read_bytes(idx * CS + 1024, &mut got).unwrap();
            assert_eq!(got, piece, "idx {idx}");
        }
    }

    /// What [`HookedDevice`] runs once: `(chunk, calls on it to let by,
    /// hook)`.
    pub(crate) type Hook = (usize, usize, Box<dyn FnOnce() + Send>);

    /// A device that moves ranges and runs a hook once, right after a given
    /// read (or write) of one chunk: a way to act between two steps of an
    /// operation.
    pub(crate) struct HookedDevice<D = MemDevice> {
        pub(crate) inner: D,
        /// Runs after a read.
        pub(crate) hook: Mutex<Option<Hook>>,
        /// Runs after a write.
        pub(crate) write_hook: Mutex<Option<Hook>>,
    }

    impl<D> HookedDevice<D> {
        pub(crate) fn new(inner: D) -> Self {
            Self {
                inner,
                hook: Mutex::default(),
                write_hook: Mutex::default(),
            }
        }
    }

    /// Runs `slot`'s hook if this call on `chunk` is the one it waits for.
    fn fire(slot: &Mutex<Option<Hook>>, chunk: usize) {
        let due = {
            let mut hook = slot.lock().unwrap();
            match &mut *hook {
                Some((at, 0, _)) if *at == chunk => hook.take(),
                Some((at, skip, _)) if *at == chunk => {
                    *skip -= 1;
                    None
                }
                _ => None,
            }
        };
        if let Some((.., run)) = due {
            run();
        }
    }

    impl<D: BlockDevice> BlockDevice for HookedDevice<D> {
        fn chunk_size(&self) -> usize {
            self.inner.chunk_size()
        }
        fn chunks(&self) -> usize {
            self.inner.chunks()
        }
        fn is_failed(&self) -> bool {
            self.inner.is_failed()
        }
        fn read_chunk(&self, chunk: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
            self.read_range(chunk, 0..self.chunk_size(), buf)
        }
        fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
            self.write_range(chunk, 0..self.chunk_size(), data)
        }
        fn read_range(
            &self,
            chunk: usize,
            range: Range<usize>,
            buf: &mut [u8],
        ) -> Result<(), DeviceError> {
            let read = self.inner.read_range(chunk, range, buf);
            fire(&self.hook, chunk);
            read
        }
        fn write_range(
            &self,
            chunk: usize,
            range: Range<usize>,
            buf: &[u8],
        ) -> Result<(), DeviceError> {
            let written = self.inner.write_range(chunk, range, buf);
            fire(&self.write_hook, chunk);
            written
        }
        fn fail(&self) {
            self.inner.fail()
        }
        fn heal(&self) -> Result<(), DeviceError> {
            self.inner.heal()
        }
        fn counters(&self) -> blockdev::CounterSnapshot {
            self.inner.counters()
        }
        fn reset_counters(&self) {
            self.inner.reset_counters()
        }
    }

    /// A write that lands while the scrub repairs a latent data chunk,
    /// between the decode's source reads and the rewrite, is not
    /// overwritten with the value decoded before it. A hook sits on every
    /// parity the write changes, so it fires after the decode read the
    /// parity of the relation it decodes through, whichever that is: a
    /// chunk's first read is the scrub's probe, and the first second read
    /// fires the hook once. It writes the chunk from another thread and
    /// waits for that write, for at most a second — the write waits for the
    /// region locks the repair holds, and goes in after it.
    #[test]
    fn a_scrub_does_not_overwrite_a_write_that_lands_during_its_repair() {
        use blockdev::{FaultConfig, FaultInjectingDevice};
        use std::sync::mpsc;
        const CS: usize = 16;
        let cfg = OiRaidConfig::reference();
        let devices = (0..cfg.disks())
            .map(|_| MemDevice::new(CS, cfg.chunks_per_disk()))
            .map(|mem| HookedDevice::new(FaultInjectingDevice::new(mem, FaultConfig::default())))
            .collect();
        let store = Arc::new(OiRaidStore::with_devices(cfg, CS, devices).unwrap());
        fill(&*store);
        // One latent sector in the array, on a data chunk: the repair's
        // reads are then the only second reads.
        let disk = 5;
        let latent = &store.devices()[disk].inner;
        let cpd = store.array().chunks_per_disk();
        let data_index = |o: usize| store.array().data_index(ChunkAddr::new(disk, o));
        let idx = (1..)
            .find_map(|seed| {
                latent.set_config(FaultConfig {
                    seed,
                    latent_per_mille: 100,
                    ..FaultConfig::default()
                });
                let bad: Vec<usize> = (0..cpd).filter(|&o| latent.is_latent_bad(o)).collect();
                match bad[..] {
                    [o] => data_index(o),
                    _ => None,
                }
            })
            .unwrap();
        let addr = store.locate(idx);
        let mut parities = store.array().update_set(addr).unwrap();
        parities.retain(|a| *a != addr);
        let new = vec![0xA5u8; CS];
        let (joined, handle) = mpsc::channel();
        let weak = Arc::downgrade(&store);
        let bytes = new.clone();
        let write_meanwhile = move || {
            let store = weak.upgrade().unwrap();
            let (done, wrote) = mpsc::channel();
            let writer = std::thread::spawn(move || {
                store.write_data(idx, &bytes).unwrap();
                // Nobody listens once the wait has timed out.
                let _ = done.send(());
            });
            // Done at once if the repair holds no lock the write needs.
            let _ = wrote.recv_timeout(Duration::from_secs(1));
            joined.send(writer).unwrap();
        };
        type FirstOnly = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;
        let once: FirstOnly = Arc::new(Mutex::new(Some(Box::new(write_meanwhile))));
        for source in parities {
            let once = once.clone();
            let run = move || {
                let first = once.lock().unwrap().take();
                first.into_iter().for_each(|run| run());
            };
            let slot = &mut *store.devices()[source.disk].hook.lock().unwrap();
            assert!(slot.replace((source.offset, 1, Box::new(run))).is_none());
        }

        let report = store.scrub();
        let writer = handle.recv_timeout(Duration::from_secs(10));
        writer.expect("the decode read a parity").join().unwrap();
        assert_eq!(report.repaired_latent, [addr], "{report}");
        // Overwritten, the chunk disagrees with the parities the write
        // left, and the corruption sweep "repairs" it.
        assert!(report.repaired_corruption.is_empty(), "{report}");
        assert_eq!(
            store.read_data(idx).unwrap(),
            new,
            "the write was overwritten"
        );
        assert!(store.check_parity().is_empty());
    }

    /// A sub-chunk write whose data member's disk fails and comes back
    /// inside a new rebuild window after the member was read and before it
    /// is written: the range lands on a blank chunk, which the write must
    /// not mark rebuilt. The hook sits on the member's row parity, whose
    /// read comes between the two. The chunk reads back right inside the
    /// window and after the rebuild.
    #[test]
    fn a_range_written_onto_a_disk_healed_mid_write_is_not_marked_rebuilt() {
        const CS: usize = 4096;
        let cfg = OiRaidConfig::reference();
        let devices = (0..cfg.disks())
            .map(|_| HookedDevice::new(MemDevice::new(CS, cfg.chunks_per_disk())))
            .collect();
        let store = Arc::new(OiRaidStore::with_devices(cfg, CS, devices).unwrap());
        let mut expect = fill(&*store);
        let idx = 5;
        let addr = store.locate(idx);
        let parity = store.array().update_set(addr).unwrap()[1];
        assert_ne!(parity.disk, addr.disk);
        let weak = Arc::downgrade(&store);
        let replace = move || weak.upgrade().unwrap().open_window_over(addr.disk);
        *store.devices()[parity.disk].hook.lock().unwrap() =
            Some((parity.offset, 0, Box::new(replace)));

        store
            .write_bytes((idx * CS + 1024) as u64, &[0x77; 512])
            .unwrap();
        expect[idx][1024..1536].fill(0x77);
        assert!(store.devices()[parity.disk].hook.lock().unwrap().is_none());
        assert!(store.online.chunk_invalid(addr), "marked rebuilt");
        assert_eq!(store.read_data(idx).unwrap(), expect[idx], "in the window");
        store.close_window_failing(addr.disk);
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        for (idx, e) in expect.iter().enumerate() {
            assert_eq!(store.read_data(idx).unwrap(), *e, "idx {idx}");
        }
        assert!(store.check_parity().is_empty());
    }

    /// A memory device that counts the reads of each of its chunks.
    #[derive(Debug)]
    struct CountingDevice {
        inner: MemDevice,
        reads: Mutex<Vec<u32>>,
    }

    impl BlockDevice for CountingDevice {
        fn chunk_size(&self) -> usize {
            self.inner.chunk_size()
        }
        fn chunks(&self) -> usize {
            self.inner.chunks()
        }
        fn is_failed(&self) -> bool {
            self.inner.is_failed()
        }
        fn read_chunk(&self, chunk: usize, buf: &mut [u8]) -> Result<(), DeviceError> {
            self.reads.lock().unwrap()[chunk] += 1;
            self.inner.read_chunk(chunk, buf)
        }
        fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
            self.inner.write_chunk(chunk, data)
        }
        fn fail(&self) {
            self.inner.fail()
        }
        fn heal(&self) -> Result<(), DeviceError> {
            self.inner.heal()
        }
        fn counters(&self) -> blockdev::CounterSnapshot {
            self.inner.counters()
        }
        fn reset_counters(&self) {
            self.inner.reset_counters()
        }
    }

    /// At the serving geometry with disks {0, 1, 3} down, a 64-chunk batch
    /// of disk 1's lost chunks, the dense ones among them (row *and* stripe
    /// broken: their stripe's lost member on disk 3 decodes through its own
    /// row first), reads every source chunk once and takes `lock_regions`
    /// once per group of `MAX_WRITE_GROUP`: no group relocks.
    #[test]
    fn a_dense_degraded_batch_reads_each_source_once_under_one_lock_per_group() {
        let cfg = OiRaidConfig::new(bibd::fano(), 3, 32).unwrap();
        let devices = (0..cfg.disks())
            .map(|_| CountingDevice {
                inner: MemDevice::new(4096, cfg.chunks_per_disk()),
                reads: Mutex::new(vec![0; cfg.chunks_per_disk()]),
            })
            .collect();
        let store = OiRaidStore::with_devices(cfg, 4096, devices).unwrap();
        let value = |idx: usize| vec![(idx % 251) as u8 + 1; 4096];
        for idx in 0..store.data_chunks() {
            store.write_data(idx, &value(idx)).unwrap();
        }
        let failed = [0usize, 1, 3];
        for d in failed {
            store.fail_disk(d).unwrap();
        }
        let geo = store.array.geometry();
        let dense = |idx: &usize| {
            let p = geo.payload_pos(store.locate(*idx));
            let stripe = geo.stripe_chunks(p.block, p.stripe);
            stripe.iter().filter(|a| failed.contains(&a.disk)).count() > 1
        };
        let mut idxs: Vec<usize> = (0..store.data_chunks())
            .filter(|&i| store.locate(i).disk == 1)
            .collect();
        idxs.sort_by_key(|i| !dense(i));
        idxs.truncate(64);
        let dense_count = idxs.iter().filter(|i| dense(i)).count();
        assert!((1..64).contains(&dense_count), "{dense_count} dense of 64");
        for dev in store.devices() {
            dev.reads.lock().unwrap().fill(0);
        }
        let locks = store.online.update_locks();
        let got = store.read_data_batch(&idxs).unwrap();
        let after = store.online.update_locks();
        for (idx, bytes) in idxs.iter().zip(&got) {
            assert_eq!(*bytes, value(*idx), "idx {idx}");
        }
        assert_eq!(
            after - locks,
            64 / MAX_WRITE_GROUP,
            "one lock_regions per group"
        );
        let reads: Vec<u32> = store
            .devices()
            .iter()
            .flat_map(|d| d.reads.lock().unwrap().clone())
            .collect();
        assert_eq!(reads.iter().max(), Some(&1), "a source chunk read twice");
        // Two sources per lost chunk, one more per dense one.
        let sources: u32 = reads.iter().sum();
        assert_eq!(sources as usize, 2 * 64 + dense_count);
    }

    /// Device reads issued since the store was built, over all disks.
    fn device_reads<B: BlockDevice>(store: &OiRaidStore<B>) -> u64 {
        store.devices().iter().map(|d| d.counters().reads).sum()
    }

    /// With `failed` down: every data chunk reads back right for at most
    /// 16 device reads, and a degraded write materialises on rebuild.
    fn serves_every_chunk_bounded(store: &OiRaidStore, expect: &mut [Vec<u8>], failed: &[usize]) {
        for &d in failed {
            store.fail_disk(d).unwrap();
        }
        for (idx, e) in expect.iter().enumerate() {
            let before = device_reads(store);
            assert_eq!(store.read_data(idx).unwrap(), *e, "{failed:?} idx {idx}");
            let reads = device_reads(store) - before;
            assert!(reads <= 16, "{failed:?} idx {idx}: {reads} device reads");
        }
        // A write whose home disk is down, where there is one.
        let idx = (0..expect.len())
            .find(|&idx| failed.contains(&store.locate(idx).disk))
            .unwrap_or(0);
        expect[idx]
            .iter_mut()
            .for_each(|b| *b = b.wrapping_add(failed[0] as u8 + 1));
        store.write_data(idx, &expect[idx]).unwrap();
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert_eq!(store.read_data(idx).unwrap(), expect[idx], "{failed:?}");
    }

    #[test]
    fn the_dense_rung_is_bounded_for_every_triple_failure() {
        let (store, mut expect) = filled_store();
        let n = store.array().disks();
        for a in 0..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    serves_every_chunk_bounded(&store, &mut expect, &[a, b, c]);
                }
            }
        }
        assert!(store.check_parity().is_empty());

        // Dual inner parity: two down in one group, one outside it.
        let cfg = OiRaidConfig::new(bibd::fano(), 5, 1)
            .unwrap()
            .with_inner_parities(2)
            .unwrap();
        let store = OiRaidStore::new(cfg, 16).unwrap();
        let mut expect = Vec::new();
        for idx in 0..store.data_chunks() {
            let chunk: Vec<u8> = (0..16).map(|j| (idx * 61 + j * 19 + 7) as u8).collect();
            store.write_data(idx, &chunk).unwrap();
            expect.push(chunk);
        }
        for grp in 0..7 {
            for (a, b) in [(0, 1), (1, 3), (2, 4)] {
                for other in (0..7).filter(|&o| o != grp) {
                    let failed = [5 * grp + a, 5 * grp + b, 5 * other + (a + grp) % 5];
                    serves_every_chunk_bounded(&store, &mut expect, &failed);
                }
            }
        }
        assert!(store.check_parity().is_empty());
    }

    #[test]
    fn the_dense_rung_is_bounded_at_the_serving_geometry() {
        let cfg = OiRaidConfig::new(bibd::fano(), 3, 256).unwrap();
        let store = OiRaidStore::new(cfg, 4096).unwrap();
        let value =
            |idx: usize| -> Vec<u8> { (0..4096).map(|j| (idx * 131 + j * 17 + 3) as u8).collect() };
        let failed = [0usize, 1, 3];
        // The class that no relation of its own decodes: home disk down,
        // and another member down in its row *and* in its stripe.
        let geo = store.array().geometry().clone();
        let down = |a: &ChunkAddr| failed.contains(&a.disk);
        let dense: Vec<usize> = (0..store.data_chunks())
            .filter(|&idx| {
                let addr = store.locate(idx);
                let p = geo.payload_pos(addr);
                let row = geo.row_chunks(geo.group_of(addr.disk), addr.offset);
                let stripe = geo.stripe_chunks(p.block, p.stripe);
                down(&addr)
                    && [row, stripe]
                        .iter()
                        .all(|r| r.iter().filter(|a| down(a)).count() > 1)
            })
            .collect();
        assert!(!dense.is_empty(), "disks {failed:?} leave a dense class");
        // Fill what the class's decodes can reach: every chunk of a dense
        // chunk's row and stripe neighbourhoods is data somebody wrote.
        for idx in 0..store.data_chunks() {
            store.write_data(idx, &value(idx)).unwrap();
        }
        for d in failed {
            store.fail_disk(d).unwrap();
        }
        // The whole class in release (CI); a spread sample of it in debug,
        // where one plan of 6 912 missing chunks takes a large part of a
        // second.
        let step = if cfg!(debug_assertions) {
            dense.len().div_ceil(8)
        } else {
            1
        };
        let (mut worst, mut slowest) = (0, Duration::ZERO);
        for &idx in dense.iter().step_by(step) {
            let (before, began) = (device_reads(&store), Instant::now());
            assert_eq!(store.read_data(idx).unwrap(), value(idx), "idx {idx}");
            slowest = slowest.max(began.elapsed());
            worst = worst.max(device_reads(&store) - before);
        }
        println!(
            "dense class {} of {} degraded chunks: worst {worst} device reads, slowest {slowest:?}",
            dense.len(),
            (0..store.data_chunks())
                .filter(|&idx| down(&store.locate(idx)))
                .count(),
        );
        assert!(worst <= 16, "{worst} device reads for one dense read");
        // One dense write, then the rebuild that materialises it.
        let idx = dense[0];
        let new = vec![0xA5u8; 4096];
        store.write_data(idx, &new).unwrap();
        assert_eq!(store.read_data(idx).unwrap(), new);
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert_eq!(store.read_data(idx).unwrap(), new);
        assert_eq!(store.read_data(dense[1]).unwrap(), value(dense[1]));
    }

    #[test]
    fn batch_bounds_are_checked_before_any_io() {
        let store = OiRaidStore::new(OiRaidConfig::reference(), 16).unwrap();
        let cap = store.capacity_bytes();
        let big = [0xFF; 8];
        assert!(matches!(
            store.write_bytes_batch(&[(0, &[1u8; 4][..]), (cap - 4, &big[..])]),
            Err(StoreError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            store.read_data_batch(&[0, store.data_chunks()]),
            Err(StoreError::IndexOutOfRange { .. })
        ));
        // Nothing was applied.
        assert_eq!(store.read_data(0).unwrap(), vec![0u8; 16]);
        assert_eq!(store.telemetry().foreground_writes(), 0);
    }

    #[test]
    fn online_reconfig_through_shared_ref() {
        // The setter works through `&self`, even behind an Arc shared with
        // live I/O.
        let store = std::sync::Arc::new(OiRaidStore::new(OiRaidConfig::reference(), 16).unwrap());
        store.set_dag_workers(Some(5));
        assert_eq!(store.dag_workers(), Some(5));
        store.set_dag_workers(None);
        assert_eq!(store.dag_workers(), None);
    }
    /// `(window-mutex acquisitions, shared-pool lock acquisitions)` so far:
    /// the two store-wide locks that used to sit on the per-chunk path.
    fn shared_lock_counts<B: BlockDevice>(store: &OiRaidStore<B>) -> (usize, usize) {
        (store.online.window_locks(), store.pool.shared_locks())
    }

    /// The benchmark's serving array at 4 KiB chunks, every chunk written.
    fn serving_store() -> OiRaidStore {
        let cfg = OiRaidConfig::new(bibd::fano(), 3, 2).unwrap();
        let store = OiRaidStore::new(cfg, 4096).unwrap();
        for idx in 0..store.data_chunks() {
            store.write_data(idx, &vec![idx as u8 + 1; 4096]).unwrap();
        }
        store
    }

    #[test]
    fn healthy_foreground_ops_take_no_store_wide_lock() {
        let store = serving_store();
        // One warm-up call each: the thread's pool cache fills.
        store.write_data(5, &vec![6u8; 4096]).unwrap();
        store.read_data(5).unwrap();
        let before = shared_lock_counts(&store);
        assert_eq!(store.read_data(7).unwrap(), vec![8u8; 4096]);
        store.write_data(7, &vec![0x77u8; 4096]).unwrap();
        assert_eq!(store.read_data(7).unwrap(), vec![0x77u8; 4096]);
        assert_eq!(
            shared_lock_counts(&store),
            before,
            "a single healthy read or write takes neither"
        );

        let idxs: Vec<usize> = (0..45).map(|k| (k * 3) % store.data_chunks()).collect();
        let payload = vec![0x5Au8; 512];
        let writes: Vec<(u64, &[u8])> = (0..19u64)
            .map(|k| (k * 4096 * 2 + 512, payload.as_slice()))
            .collect();
        // Warm-up of the batch too, so the pool owns every buffer it needs.
        store.write_bytes_batch(&writes).unwrap();
        let before = shared_lock_counts(&store);
        let got = store.read_data_batch(&idxs).unwrap();
        assert_eq!(got.len(), 45);
        assert_eq!(store.write_bytes_batch(&writes).unwrap().chunks, 19);
        let after = shared_lock_counts(&store);
        assert_eq!(after.0, before.0);
        // A 19-chunk group has more buffers live than one thread caches:
        // what overflows goes through the shared list, once out, once back.
        let overflow = store.pool.peak().saturating_sub(store.pool.local_room());
        assert!(overflow > 0, "peak {}", store.pool.peak());
        assert!(
            after.1 - before.1 <= 2 * overflow,
            "{} shared-pool acquisitions for an overflow of {overflow}",
            after.1 - before.1
        );
        assert!(store.check_parity().is_empty());
    }

    #[test]
    fn an_open_window_is_still_consulted_and_answers_as_before() {
        let store = serving_store();
        let victim = store.locate(9).disk;
        store.fail_disk(victim).unwrap();
        store.online.begin([victim]);
        store.devices[victim].heal().unwrap();
        let before = shared_lock_counts(&store);
        // The healed chunk is blank but reads through the redundancy.
        assert_eq!(store.read_data(9).unwrap(), vec![10u8; 4096]);
        // A write validates it; a batch sees the same state.
        store.write_data(9, &vec![0x99u8; 4096]).unwrap();
        assert!(!store.online.chunk_invalid(store.locate(9)));
        let other = (0..store.data_chunks())
            .find(|&i| i != 9 && store.locate(i).disk == victim)
            .unwrap();
        let got = store.read_data_batch(&[9, other]).unwrap();
        assert_eq!(got[0], vec![0x99u8; 4096]);
        assert_eq!(got[1], vec![other as u8 + 1; 4096]);
        let after = shared_lock_counts(&store);
        assert!(after.0 > before.0, "window mutex consulted while open");
        store.online.end();
        let closed = shared_lock_counts(&store).0;
        store.read_data(3).unwrap();
        assert_eq!(shared_lock_counts(&store).0, closed, "and not after");
    }

    #[test]
    fn unrelated_writes_rarely_share_a_lock_stripe_related_ones_always_do() {
        use crate::online::{stripe_of, stripe_order};
        let cfg = OiRaidConfig::new(bibd::fano(), 3, 256).unwrap();
        let store = OiRaidStore::new(cfg, 1).unwrap();
        let footprint = |idx: usize| -> Vec<Region> {
            let addr = store.locate(idx);
            let outer = store.array.update_set(addr).unwrap()[1 + store.array.geometry().p_in];
            let mut r: Vec<Region> = store.regions_for(addr).collect();
            r.extend(store.regions_for(outer));
            r
        };
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let prints: Vec<Vec<Region>> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                footprint((x % store.data_chunks() as u64) as usize)
            })
            .collect();
        let stripes: Vec<Vec<usize>> = prints.iter().map(|p| stripe_order(p)).collect();
        let (mut unrelated, mut false_shared) = (0u64, 0u64);
        for i in 0..prints.len() {
            for j in 0..i {
                let related = prints[i].iter().any(|r| prints[j].contains(r));
                let shared = stripes[i].iter().any(|s| stripes[j].contains(s));
                if related {
                    assert!(shared, "writes {i} and {j} share a relation, no stripe");
                } else {
                    unrelated += 1;
                    false_shared += u64::from(shared);
                }
            }
        }
        assert!(unrelated > 1_000_000);
        assert!(
            false_shared * 100 <= unrelated,
            "{false_shared} of {unrelated} unrelated pairs share a stripe"
        );
        // A full write group takes its stripes strictly ascending.
        let group: Vec<Region> = (0..MAX_WRITE_GROUP)
            .flat_map(|i| footprint(i * 11))
            .collect();
        let order = stripe_order(&group);
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{order:?}");
        assert!(group.iter().all(|r| order.contains(&stripe_of(r))));
    }
}
