//! Self-healing, plan-driven rebuild engine: executes a
//! [`layout::RecoveryPlan`] against the store's block devices — serially
//! (the oracle) or as an op DAG on a worker pool, one op per batch of
//! chunks that reads, combines and writes them back on one worker while
//! their bytes are in cache — and *absorbs* device faults instead of dying
//! on them.
//!
//! The engine runs in rounds, and a round has one contract and one body on
//! every executor (`OiRaidStore::execute_round`): the plan is cut into
//! byte-sized batches of items, each batch is read, decoded
//! *and written back* under the region locks of the relations its items
//! decode through — the rule every foreground decode, write and scrub
//! repair follows — and the driver gets a `RoundOutput` to keep books on.
//! Every reconstructed chunk becomes live in exactly one place,
//! `OiRaidStore::writeback_chunks` — writes and validity marks under the
//! batch's locks, then per chunk crash point and checkpoint tick outside
//! them — called once per batch by the batch op.
//!
//! Every read goes through a
//! [`RetryReader`](blockdev::RetryReader): transient faults are retried
//! with bounded deterministic backoff; coalesced runs degrade to per-chunk
//! reads so one bad sector costs one chunk, not the batch. A chunk that
//! stays unreadable after its retry budget (a latent sector error) is
//! *re-routed*: the next round re-derives it — and everything that needed
//! it — through an alternate read set, then rewrites the bad sector in
//! place (repairing it). Every round is one plan of every chunk still
//! missing ([`crate::recovery::plan_recovery`]), with each item's lock set.
//! If a surviving disk dies outright mid-rebuild,
//! the engine *escalates*: the dead disk joins the rebuild targets, the
//! failure set is re-planned, and already-rebuilt chunks are not re-read.
//! Escalations are capped at the array's fault tolerance; patterns that
//! become unrecoverable return [`RebuildOutcome::Aborted`] with the target
//! disks re-failed — a half-written disk never masquerades as healthy.
//!
//! Both modes share one pure combine function per plan item, so serial and
//! DAG rebuilds are bit-identical by construction — including under
//! injected faults, because re-routed chunks are fixed by the same parity
//! relations (property-tested in `tests/rebuild_engine.rs` and
//! `tests/self_healing.rs`).
//!
//! The data path avoids per-chunk allocation and zero-filling: a
//! [`BufPool`] recycles chunk buffers from writeback back to the next read,
//! and adjacent same-disk reads of one batch are coalesced into single
//! [`BlockDevice::read_chunks`] calls. Both modes run the same batch ops,
//! so their device read counters are equal by construction, and a round
//! holds a batch of buffers per worker, not the plan's. A batch's device
//! calls leave no trace events: a rebuild's trace ends at its batches.
//!
//! While a rebuild is in flight the store stays **online**: the engine opens
//! a rebuild window (see `crate::online`) before healing the target devices,
//! so foreground reads treat not-yet-rebuilt chunks as missing and
//! foreground writes land degraded. A writer locks every relation holding a
//! chunk it modifies, so a batch reads the relations it holds untorn, and a
//! write of one waits for the batch to land (at most one batch) and then
//! updates the rebuilt chunk: a stale reconstruction never clobbers a
//! foreground write. Rebuild read batches are paced by the store's
//! [`QosConfig`](crate::QosConfig) token bucket whenever foreground traffic
//! is active.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gf::kernels::xor_acc;

use blockdev::{
    crash_point, write_chunk_retrying, BlockDevice, CounterSnapshot, DeviceError, RetryCounters,
    RetryReader, RetryStats,
};
use layout::{ChunkAddr, Layout, RecoveryPlan};
use telemetry::HistogramSnapshot;

use crate::bufpool::BufPool;
use crate::checkpoint::RebuildCheckpoint;
use crate::observe::{RebuildObserver, StageSummary};
use crate::online::{Region, RegionGuards};
use crate::recovery::{plan_recovery, LockSets};
use crate::store::{CheckpointPolicy, OiRaidStore, StoreError, RETRY};
use crate::RecoveryStrategy;

/// How the rebuild engine executes a recovery plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildMode {
    /// One batch of items at a time on the calling thread, reads issued
    /// inline in plan order.
    Serial,
    /// The same batches as ops of a [`crates/sched`](sched) graph (one
    /// read-combine-writeback op per batch; a batch holds whole dependency
    /// trees, so no op waits for another) executed by a worker pool in
    /// order — no round barrier between batches.
    Dag,
}

impl fmt::Display for RebuildMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Serial => write!(f, "serial"),
            Self::Dag => write!(f, "dag"),
        }
    }
}

/// How a rebuild ended — the structured verdict of the self-healing loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebuildOutcome {
    /// Every lost chunk rebuilt on the first pass; no faults absorbed.
    Complete,
    /// Rebuilt fully, but some source chunks stayed unreadable and were
    /// re-derived through alternate read sets (and repaired by rewrite).
    CompletedWithReroutes,
    /// One or more surviving disks failed mid-rebuild; the engine
    /// re-planned against the grown failure set and still recovered
    /// everything.
    Escalated,
    /// The failure pattern became unrecoverable (or the loop stalled); the
    /// rebuild-target disks were re-failed so no partial disk masquerades
    /// as healthy.
    Aborted {
        /// Disks left failed when the rebuild gave up.
        failed: Vec<usize>,
    },
}

impl RebuildOutcome {
    /// Whether the rebuild recovered all targeted data.
    pub fn is_recovered(&self) -> bool {
        !matches!(self, Self::Aborted { .. })
    }
}

impl fmt::Display for RebuildOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Complete => write!(f, "complete"),
            Self::CompletedWithReroutes => write!(f, "complete-with-reroutes"),
            Self::Escalated => write!(f, "escalated"),
            Self::Aborted { failed } => write!(f, "aborted (failed {failed:?})"),
        }
    }
}

/// Instrumentation from one [`OiRaidStore::rebuild`] run.
#[derive(Debug, Clone)]
pub struct RebuildReport {
    /// Execution mode.
    pub mode: RebuildMode,
    /// Disks this rebuild targeted: the initially-failed set plus any disk
    /// escalated into the rebuild after dying mid-run.
    pub rebuilt_disks: Vec<usize>,
    /// How the run ended.
    pub outcome: RebuildOutcome,
    /// Execution rounds: 1 for a fault-free run, +1 per re-plan.
    pub rounds: u32,
    /// Pool threads of the widest round (0 for serial mode).
    pub workers: usize,
    /// Wall-clock time of plan execution (excludes planning and healing).
    pub wall: Duration,
    /// Lost chunks reconstructed (including latent-sector repairs).
    pub chunks_rebuilt: u64,
    /// Bytes written back to the rebuilt disks.
    pub bytes_rebuilt: u64,
    /// Individual read/write attempts retried after transient faults.
    pub retries: u64,
    /// Operations that exhausted their retry budget while still transient.
    pub retries_exhausted: u64,
    /// Total deterministic backoff slept before retries.
    pub retry_backoff: Duration,
    /// Source chunks that stayed unreadable and were re-derived through an
    /// alternate read set.
    pub reroutes: u64,
    /// Surviving-disk deaths absorbed mid-rebuild by re-planning.
    pub escalations: u64,
    /// Unreadable source sectors repaired by rewriting the re-derived
    /// value in place.
    pub latent_repairs: u64,
    /// Rebuild read batches that slept for QoS tokens (foreground traffic
    /// was active and a throttle rate was configured).
    pub throttle_waits: u64,
    /// Total time rebuild readers slept waiting for QoS tokens.
    pub throttle_wait: Duration,
    /// Per-device I/O deltas over the run, indexed by disk.
    pub device_io: Vec<CounterSnapshot>,
    /// Injected faults observed across all devices during the run.
    pub injected_faults: u64,
    /// Latency summaries of the three sequential phases
    /// (`plan`/`heal`/`execute`, one sample per occurrence — their sums
    /// cover [`RebuildReport::wall`]), then of the pipeline stages in
    /// pipeline order (`read` and `coalesce` one sample per batch op,
    /// `combine` and `writeback` one per chunk), then of the per-round
    /// sub-phase `lower` (inside `execute`).
    pub stages: Vec<StageSummary>,
    /// Busy time per DAG pool worker, in worker order, summed over every
    /// round: time inside batch ops (read, combine, writeback) — compare against
    /// [`RebuildReport::wall`] for utilization. Empty for serial mode.
    pub worker_busy: Vec<Duration>,
    /// The scheduler's peak ready-queue depth per round (DAG mode); empty
    /// for serial mode.
    pub queue_depth: HistogramSnapshot,
    /// DAG-scheduler statistics summed over all rounds (all-zero for
    /// serial mode).
    pub sched: sched::SchedStats,
}

impl RebuildReport {
    /// Total chunk reads issued across all devices.
    pub fn total_reads(&self) -> u64 {
        self.device_io.iter().map(|c| c.reads).sum()
    }

    /// Largest per-device read count — the rebuild bottleneck under
    /// concurrent execution.
    pub fn max_device_reads(&self) -> u64 {
        self.device_io.iter().map(|c| c.reads).max().unwrap_or(0)
    }

    /// The named stage's latency summary, if it was recorded.
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// Mean worker utilization over the whole pool: total busy time
    /// divided by `wall × workers`, in `0.0..=1.0` (0.0 for serial mode).
    pub fn worker_utilization(&self) -> f64 {
        if self.worker_busy.is_empty() || self.wall.is_zero() {
            return 0.0;
        }
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        (busy / (self.wall.as_secs_f64() * self.worker_busy.len() as f64)).min(1.0)
    }

    /// Serializes the report as one JSON object — every field of the
    /// pinned [`fmt::Display`] line plus the heal, per-device, per-stage,
    /// and DAG-scheduler detail, for machine consumption (dashboards, the
    /// `stats` example, CI artifacts). Latency distributions are collapsed
    /// to `{count, mean, p50, p99, max}` summaries in nanoseconds.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let hist = |h: &HistogramSnapshot| {
            format!(
                "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                h.count,
                h.mean(),
                h.p50(),
                h.p99(),
                h.max
            )
        };
        let (outcome, failed) = match &self.outcome {
            RebuildOutcome::Complete => ("complete", Vec::new()),
            RebuildOutcome::CompletedWithReroutes => ("complete_with_reroutes", Vec::new()),
            RebuildOutcome::Escalated => ("escalated", Vec::new()),
            RebuildOutcome::Aborted { failed } => ("aborted", failed.clone()),
        };
        let mut s = String::with_capacity(1024);
        s.push('{');
        let _ = write!(
            s,
            "\"mode\":{},\"rebuilt_disks\":{:?},\"outcome\":{},\"failed\":{:?},\
             \"rounds\":{},\"workers\":{},\"wall_ns\":{},\"chunks_rebuilt\":{},\
             \"bytes_rebuilt\":{},\"retries\":{},\"retries_exhausted\":{},\
             \"retry_backoff_ns\":{},\"reroutes\":{},\"escalations\":{},\
             \"latent_repairs\":{},\"throttle_waits\":{},\"throttle_wait_ns\":{},\
             \"injected_faults\":{},\"total_reads\":{},\"max_device_reads\":{},\
             \"worker_utilization\":{:.4}",
            telemetry::json_escape(&self.mode.to_string()),
            self.rebuilt_disks,
            telemetry::json_escape(outcome),
            failed,
            self.rounds,
            self.workers,
            self.wall.as_nanos(),
            self.chunks_rebuilt,
            self.bytes_rebuilt,
            self.retries,
            self.retries_exhausted,
            self.retry_backoff.as_nanos(),
            self.reroutes,
            self.escalations,
            self.latent_repairs,
            self.throttle_waits,
            self.throttle_wait.as_nanos(),
            self.injected_faults,
            self.total_reads(),
            self.max_device_reads(),
            self.worker_utilization(),
        );
        s.push_str(",\"device_io\":[");
        for (i, d) in self.device_io.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"disk\":{i},\"reads\":{},\"writes\":{},\"bytes_read\":{},\
                 \"bytes_written\":{},\"faults\":{},\"injected_latency_ns\":{},\
                 \"max_inflight\":{}}}",
                d.reads,
                d.writes,
                d.bytes_read,
                d.bytes_written,
                d.faults,
                d.injected_latency_ns,
                d.max_inflight
            );
        }
        s.push_str("],\"stages\":[");
        for (i, st) in self.stages.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"stage\":{},\"latency\":{}}}",
                telemetry::json_escape(st.stage),
                hist(&st.latency)
            );
        }
        s.push_str("],\"worker_busy_ns\":[");
        for (i, w) in self.worker_busy.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}", w.as_nanos());
        }
        let _ = write!(
            s,
            "],\"queue_depth\":{},\"sched\":{{\"executed\":{},\"steals\":{},\
             \"max_ready_depth\":{},\"max_inflight\":{}}}}}",
            hist(&self.queue_depth),
            self.sched.executed,
            self.sched.steals,
            self.sched.max_ready_depth,
            self.sched.max_inflight,
        );
        s
    }
}

impl fmt::Display for RebuildReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rebuild of {:?}: {} chunks ({} bytes) in {:?}, {} reads \
             (max {}/disk), {} workers, {} injected faults; {} after {} \
             round(s), {} retries ({} exhausted), {} reroutes, \
             {} escalations, {} latent repairs",
            self.mode,
            self.rebuilt_disks,
            self.chunks_rebuilt,
            self.bytes_rebuilt,
            self.wall,
            self.total_reads(),
            self.max_device_reads(),
            self.workers,
            self.injected_faults,
            self.outcome,
            self.rounds,
            self.retries,
            self.retries_exhausted,
            self.reroutes,
            self.escalations,
            self.latent_repairs,
        )
    }
}

/// Reconstructs one lost chunk from the sources gathered for its plan item
/// — scheduled reads *and* outputs of dependency items, in any order.
///
/// Every relation is one XOR parity, so every item's value is the XOR of
/// its inputs: a row or stripe decode XORs the relation's other chunks, and
/// a remote row-parity recompute reads the outer stripes of the row's
/// payloads, which XOR to the payloads and so to their parity. The first
/// input's buffer is the accumulator (nothing is zero-filled or
/// allocated); the rest go back to `pool`, leaving `inputs` empty. Pure in
/// its inputs — this is what makes serial and DAG execution bit-identical.
pub(crate) fn combine(inputs: &mut Vec<Vec<u8>>, pool: &BufPool) -> Vec<u8> {
    let mut sources = inputs.drain(..);
    let mut acc = sources.next().expect("a plan item has sources");
    for bytes in sources {
        xor_acc(&mut acc, &bytes);
        pool.put(bytes);
    }
    acc
}

/// Bytes of reconstruction one batch op carries: what a round hands a
/// worker is sized so the scheduler's per-op cost is paid per 64 KiB, not
/// per chunk.
const BATCH_BYTES: usize = 64 << 10;
/// Most items in a batch whatever the chunk size, but for the rest of a
/// dependency tree it started ([`lower`]): a batch of row or stripe
/// decodes locks one relation per item, at most 16 stripes, the union of
/// 16 remote row recomputes' relations stays under the 96 a full write
/// group already holds, and a checkpoint interval of a few chunks stays
/// meaningful.
const BATCH_ITEMS: usize = 16;
/// Fewest batches a worker should get: a plan of a few dozen items still
/// fans out over the pool (and over slow devices) one item per op.
const BATCHES_PER_WORKER: usize = 4;

/// Most chunks worth handling as one: [`BATCH_BYTES`] of them, at least 1
/// and at most [`BATCH_ITEMS`]. It bounds a rebuild batch and a batch of
/// the foreground ladder's plan walk alike: what is gathered for more
/// has left the cache before it is combined, and at 64 KiB a chunk is
/// read straight into its buffer instead of staged in a run and copied.
pub(crate) fn run_chunks(chunk_size: usize) -> usize {
    (BATCH_BYTES / chunk_size.max(1)).clamp(1, BATCH_ITEMS)
}

/// How many consecutive plan items form one batch.
fn batch_items(chunk_size: usize, items: usize, workers: usize) -> usize {
    run_chunks(chunk_size)
        .min(items.div_ceil(BATCHES_PER_WORKER * workers.max(1)))
        .max(1)
}

/// One round's batches: runs of `per` plan items that cut no dependency
/// tree. The plan's `depends` point backwards and a lost chunk feeds at
/// most the one other relation it is in, so they link the items into
/// trees; each tree is placed whole, in plan order, where its last item
/// falls, and a batch closes once it holds `per` items and the next item
/// starts a tree. So every dependency is a value in hand: no batch waits
/// for another, and none reads back a chunk an earlier one landed, which a
/// source disk that faults every read could never serve. Returns the
/// items in batch order and the bounds of the batches in it: batch `b` is
/// `order[bounds[b]..bounds[b + 1]]`.
fn lower(items: &[layout::ChunkRecovery], per: usize) -> (Vec<usize>, Vec<usize>) {
    // Each item's tree, named by its last item: walking the plan backwards
    // meets every dependent before its dependencies.
    let mut tree: Vec<usize> = (0..items.len()).collect();
    for (idx, it) in items.iter().enumerate().rev() {
        it.depends.iter().for_each(|&d| tree[d] = tree[idx]);
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&idx| tree[idx]);
    let mut bounds = Vec::new();
    for (at, &idx) in order.iter().enumerate() {
        let starts_tree = at == 0 || tree[order[at - 1]] != tree[idx];
        if bounds.last().is_none_or(|&s| at - s >= per && starts_tree) {
            bounds.push(at);
        }
    }
    bounds.push(order.len());
    (order, bounds)
}

/// The source reads of one batch's plan `items`, in the order its op
/// issues them: `(slot, address)`, where slot `s` is the batch's `s`-th
/// read counting item by item in plan order, sorted by disk (stably, so
/// plan order holds within a disk). Each [`continues_run`] chunk of it is
/// one device run; runs end at the batch's edge, so no read feeds another
/// batch.
fn batch_reads<'a>(
    items: impl IntoIterator<Item = &'a layout::ChunkRecovery>,
) -> Vec<(usize, ChunkAddr)> {
    let mut reads: Vec<(usize, ChunkAddr)> = items
        .into_iter()
        .flat_map(|it| &it.reads)
        .copied()
        .enumerate()
        .collect();
    reads.sort_by_key(|r| r.1.disk);
    reads
}

/// Whether read `y` extends the device run that read `x` ends: same disk,
/// next offset. A run is one [`BlockDevice::read_chunks`] call.
fn continues_run(x: &(usize, ChunkAddr), y: &(usize, ChunkAddr)) -> bool {
    x.1.disk == y.1.disk && x.1.offset + 1 == y.1.offset
}

/// One coalesced read run: `(slot, source address)` pairs with
/// consecutive offsets on a single disk, `slot` being the caller's index
/// for the chunk.
pub(crate) type Run<'a> = &'a [(usize, ChunkAddr)];

/// Serves one coalesced run through a retrying reader, degrading instead of
/// failing: transient faults are retried, a chunk that stays unreadable is
/// reported (for re-routing) without poisoning the rest of the run. Every
/// chunk of the run goes to `sink` as `(slot, address, bytes or error)`;
/// returns whether the device died.
///
/// Every delivered chunk lands in a [`BufPool::take_dirty`] buffer. A
/// one-chunk run reads bytes `range_of(slot)` of its chunk
/// ([`RetryReader::read_range`]; the rebuild wants every chunk whole); a
/// multi-chunk run's slots all want their whole chunks, and it is read
/// into `staging` first — the caller's reused buffer, grown (never
/// re-zeroed) to the longest run seen — so a source byte is written twice
/// at most and nothing is memset per run.
pub(crate) fn read_run_healing<B: BlockDevice>(
    reader: &RetryReader<'_, B>,
    run: Run<'_>,
    range_of: impl Fn(usize) -> Range<usize>,
    chunk_size: usize,
    pool: &BufPool,
    staging: &Mutex<Vec<u8>>,
    mut sink: impl FnMut(usize, ChunkAddr, Result<Vec<u8>, DeviceError>),
) -> bool {
    if let [(idx, addr)] = run {
        let mut buf = pool.take_dirty();
        let read = reader.read_range(addr.offset, range_of(*idx), &mut buf);
        let died = matches!(read, Err(DeviceError::Failed));
        let read = match read {
            Ok(()) => Ok(buf),
            Err(e) => {
                pool.put(buf);
                Err(e)
            }
        };
        sink(*idx, *addr, read);
        return died;
    }
    let mut staging = lock(staging);
    let len = run.len() * chunk_size;
    if staging.len() < len {
        staging.resize(len, 0);
    }
    let batch = &mut staging[..len];
    let failures = reader.read_chunks_degrading(run[0].1.offset, run.len(), batch);
    for (&(idx, addr), bytes) in run.iter().zip(batch.chunks_exact(chunk_size)) {
        match failures.iter().find(|(o, _)| *o == addr.offset) {
            Some((_, e)) => sink(idx, addr, Err(e.clone())),
            None => {
                let mut buf = pool.take_dirty();
                buf.copy_from_slice(bytes);
                sink(idx, addr, Ok(buf));
            }
        }
    }
    failures
        .iter()
        .any(|(_, e)| matches!(e, DeviceError::Failed))
}

/// What one round of plan execution produced. A round reads, decodes
/// *and writes back* (through [`OiRaidStore::writeback_chunks`]); the
/// driver loop only keeps books on what it reports. Rounds are infallible:
/// faults become entries in `unreadable`/`dead_disks` for the driver to
/// heal around instead of errors that abort the rebuild.
struct RoundOutput {
    /// Chunks written back and marked valid, in completion order.
    written: Vec<ChunkAddr>,
    /// Source chunks that stayed unreadable after their retry budget.
    unreadable: Vec<(ChunkAddr, DeviceError)>,
    /// Disks that reported [`DeviceError::Failed`] while serving reads or
    /// taking writebacks (plus any already failed when the round began).
    dead_disks: BTreeSet<usize>,
    /// Retry activity summed over this round's readers and writebacks.
    retry: RetryCounters,
    workers: usize,
    worker_busy: Vec<Duration>,
    /// Scheduler statistics (all-zero outside DAG mode).
    sched: sched::SchedStats,
    /// Most chunk buffers the round had out of its pool at once.
    #[cfg(test)]
    peak_buffers: usize,
}

/// The checkpoint cadence of one rebuild (all its rounds): every
/// `policy.interval` landed chunks the window's valid set is persisted, so
/// a process killed mid-round resumes instead of restarting.
struct CheckpointTick {
    policy: CheckpointPolicy,
    /// Chunks landed since the rebuild began.
    landed: AtomicU64,
    /// Held while a save runs. A tick that finds it taken is covered by
    /// that save (the next tick picks up what it missed), so two workers
    /// never race on the checkpoint's temp file.
    saving: Mutex<()>,
}

impl CheckpointTick {
    fn new(policy: CheckpointPolicy) -> Self {
        Self {
            policy,
            landed: AtomicU64::new(0),
            saving: Mutex::new(()),
        }
    }
}

/// A set of chunk addresses kept as one bitmap per disk, indexed by
/// offset: the rebuild loop's books. Testing, inserting and voiding a whole
/// disk are word operations, and so is the difference the loop re-plans
/// from; the planner asks it chunk by chunk.
#[derive(Debug, Clone)]
struct ChunkBits {
    /// Words per disk.
    stride: usize,
    words: Vec<u64>,
}

impl ChunkBits {
    fn new(disks: usize, chunks_per_disk: usize) -> Self {
        let stride = chunks_per_disk.div_ceil(64);
        Self {
            stride,
            words: vec![0; disks * stride],
        }
    }

    /// Word index and bit of `a`.
    fn at(&self, a: ChunkAddr) -> (usize, u64) {
        (a.disk * self.stride + a.offset / 64, 1 << (a.offset % 64))
    }

    fn contains(&self, a: ChunkAddr) -> bool {
        let (w, bit) = self.at(a);
        self.words[w] & bit != 0
    }

    /// Adds `a`; whether it was absent.
    fn insert(&mut self, a: ChunkAddr) -> bool {
        let (w, bit) = self.at(a);
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        fresh
    }

    /// Removes `a`; whether it was present.
    fn remove(&mut self, a: ChunkAddr) -> bool {
        let (w, bit) = self.at(a);
        let present = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        present
    }

    fn disk_mut(&mut self, d: usize) -> &mut [u64] {
        &mut self.words[d * self.stride..(d + 1) * self.stride]
    }

    /// Adds all `chunks` chunks of disk `d`.
    fn fill_disk(&mut self, d: usize, chunks: usize) {
        let words = self.disk_mut(d);
        words.fill(!0);
        if let (Some(last), tail @ 1..) = (words.last_mut(), chunks % 64) {
            *last = (1 << tail) - 1;
        }
    }

    /// Removes every chunk of disk `d`; how many there were.
    fn clear_disk(&mut self, d: usize) -> usize {
        let words = self.disk_mut(d);
        let n = words.iter().map(|w| w.count_ones() as usize).sum();
        words.fill(0);
        n
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The members, offset by offset, the disks interleaved at each: the
    /// order a round plans them in, so a row's chunks and decodes come out
    /// together.
    fn by_offset(&self) -> Vec<ChunkAddr> {
        let mut members = Vec::with_capacity(self.len());
        for (at, &word) in self.words.iter().enumerate().filter(|(_, w)| **w != 0) {
            let (disk, base) = (at / self.stride, at % self.stride * 64);
            let bits = (0..64).filter(|b| word >> b & 1 != 0);
            members.extend(bits.map(|b| ChunkAddr::new(disk, base + b)));
        }
        members.sort_unstable_by_key(|a| (a.offset, a.disk));
        members
    }

    /// `self` without the members of `other`.
    fn minus(&self, other: &Self) -> Self {
        let words = self.words.iter().zip(&other.words);
        Self {
            stride: self.stride,
            words: words.map(|(a, b)| a & !b).collect(),
        }
    }

    /// Adds every member of `other`.
    fn union_with(&mut self, other: &Self) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// What [`OiRaidStore::writeback_chunks`] needs besides the chunks, and the
/// books it keeps: one per round, shared by every worker of the round.
struct Writeback<'a> {
    /// The round's chunk buffers: read targets, accumulators, outputs.
    pool: BufPool,
    obs: &'a RebuildObserver,
    tick: Option<&'a CheckpointTick>,
    write_stats: RetryStats,
    written: Mutex<Vec<ChunkAddr>>,
    /// Disks that take no (further) I/O this round.
    dead: Mutex<BTreeSet<usize>>,
}

impl Writeback<'_> {
    /// Closes the round's books.
    fn into_output<B: BlockDevice>(
        self,
        unreadable: Vec<(ChunkAddr, DeviceError)>,
        readers: &[RetryReader<'_, B>],
        workers: usize,
        worker_busy: Vec<Duration>,
        sched: sched::SchedStats,
    ) -> RoundOutput {
        let read_retry = readers
            .iter()
            .fold(RetryCounters::default(), |acc, r| acc.merged(&r.counters()));
        RoundOutput {
            #[cfg(test)]
            peak_buffers: self.pool.peak(),
            written: self.written.into_inner().unwrap_or_else(|p| p.into_inner()),
            unreadable,
            dead_disks: self.dead.into_inner().unwrap_or_else(|p| p.into_inner()),
            retry: read_retry.merged(&self.write_stats.snapshot()),
            workers,
            worker_busy,
            sched,
        }
    }
}

/// Locks a mutex, tolerating poisoning: a panicking op callback must not
/// wedge the rest of the pool.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl<B: BlockDevice> OiRaidStore<B> {
    /// Rebuilds *all* currently-failed disks by executing a recovery plan
    /// against the block devices, self-healing around device faults, and
    /// reports per-device instrumentation plus a structured
    /// [`RebuildOutcome`].
    ///
    /// Every round plans every chunk still missing through one planner, in
    /// `strategy`'s order (local rows first for `Inner`, outer stripes
    /// first otherwise, with `OuterAll` / `Hybrid` recomputing parity rows
    /// remotely), whatever the failure pattern. Serial and DAG modes
    /// produce bit-identical disks, with or without faults.
    ///
    /// Fault handling (see the module docs): transient faults are retried
    /// within the store's fixed retry budget, unreadable sectors are
    /// re-derived through alternate read sets and repaired in place, and
    /// mid-rebuild disk deaths escalate into the rebuild. None of these
    /// return `Err` — check [`RebuildReport::outcome`]; an unrecoverable
    /// run ends in [`RebuildOutcome::Aborted`] with the target disks
    /// re-failed.
    ///
    /// The store stays **online** throughout: foreground reads and writes
    /// keep working against not-yet-rebuilt chunks (served degraded), and
    /// stripes written during the rebuild are never clobbered by stale
    /// reconstructed data. Rebuild reads yield to foreground traffic per
    /// the store's [`QosConfig`](crate::QosConfig).
    ///
    /// # Errors
    ///
    /// [`StoreError::DataLoss`] when the *initial* failure pattern is
    /// unrecoverable (no state is changed); [`StoreError::Device`] if a
    /// failed disk cannot be brought back online for writing.
    pub fn rebuild(
        &self,
        mode: RebuildMode,
        strategy: RecoveryStrategy,
    ) -> Result<RebuildReport, StoreError> {
        self.rebuild_observed(mode, strategy, &RebuildObserver::default())
    }

    /// [`OiRaidStore::rebuild`] with caller-provided telemetry sinks: the
    /// observer's [`Progress`](telemetry::Progress) can be polled from
    /// another thread while this runs, its phase and stage histograms
    /// accumulate latencies, and its
    /// [`HealCounters`](crate::HealCounters) tick live as faults are
    /// absorbed (none are reset per call — hand in a fresh observer to
    /// scope them to one run).
    ///
    /// # Errors
    ///
    /// As for [`OiRaidStore::rebuild`].
    pub fn rebuild_observed(
        &self,
        mode: RebuildMode,
        strategy: RecoveryStrategy,
        obs: &RebuildObserver,
    ) -> Result<RebuildReport, StoreError> {
        self.rebuild_inner(mode, strategy, obs, None)
    }

    /// Resumes a crashed rebuild from the store's checkpoint (see
    /// [`crate::RebuildCheckpoint`] and
    /// [`OiRaidStore::set_checkpoint_policy`]): chunks the checkpoint
    /// records as already restored are pre-marked valid, the progress
    /// gauge starts pre-credited (never "0% again" after a restart), and
    /// recovery is planned only for what is still missing — a resumed
    /// rebuild reads strictly fewer source chunks than a from-scratch one.
    ///
    /// Degrades, never aborts: with no checkpoint policy, a missing /
    /// corrupt / truncated checkpoint file, or a checkpoint that does not
    /// cover the currently-failed disks (it is stale), this falls back to
    /// a full [`OiRaidStore::rebuild_observed`].
    ///
    /// Failure state decides what the checkpoint is worth per disk. A
    /// *healthy* target disk survived as a device (the process crashed,
    /// the platter did not): its checkpointed chunks are trusted and
    /// skipped. A *currently-failed* target disk is a real (re)failure —
    /// healing replaces it with a blank device (see
    /// [`blockdev::FileDevice`]'s heal semantics) — so its checkpointed
    /// chunks are discarded and the whole disk is rebuilt. Do **not**
    /// re-fail an intact mid-rebuild disk before resuming; re-fail only
    /// disks that are genuinely dead (see [`OiRaidStore::open_durable_with`]).
    ///
    /// The returned report's `chunks_rebuilt` counts every chunk that is
    /// valid when the rebuild finishes, including the checkpointed ones —
    /// compare device read counters, not the report, to measure the work
    /// saved by resuming.
    ///
    /// # Errors
    ///
    /// As for [`OiRaidStore::rebuild`].
    pub fn resume_rebuild(
        &self,
        mode: RebuildMode,
        strategy: RecoveryStrategy,
        obs: &RebuildObserver,
    ) -> Result<RebuildReport, StoreError> {
        let Some(policy) = self.checkpoint_policy() else {
            return self.rebuild_inner(mode, strategy, obs, None);
        };
        let Some(mut ckpt) = RebuildCheckpoint::load(&policy.path) else {
            return self.rebuild_inner(mode, strategy, obs, None);
        };
        let disks = self.array().disks();
        let chunks_per_disk = self.array().chunks_per_disk();
        let failed = self.failed_disks();
        let usable = !ckpt.targets.is_empty()
            && ckpt.targets.iter().all(|&d| d < disks)
            && ckpt
                .valid
                .iter()
                .all(|a| ckpt.targets.contains(&a.disk) && a.offset < chunks_per_disk)
            && failed.iter().all(|d| ckpt.targets.contains(d));
        if !usable {
            // A checkpoint that fails sanity (geometry drift, or a disk
            // failed that it knows nothing about) is stale: discard it and
            // rebuild everything that is down from scratch.
            RebuildCheckpoint::remove(&policy.path);
            return self.rebuild_inner(mode, strategy, obs, None);
        }
        // A currently-failed target is a real (re)failure: healing swaps in
        // a blank device, so whatever the checkpoint restored there is gone.
        ckpt.valid.retain(|a| !failed.contains(&a.disk));
        self.rebuild_inner(mode, strategy, obs, Some(ckpt))
    }

    fn rebuild_inner(
        &self,
        mode: RebuildMode,
        strategy: RecoveryStrategy,
        obs: &RebuildObserver,
        resume: Option<RebuildCheckpoint>,
    ) -> Result<RebuildReport, StoreError> {
        let initially_failed = match &resume {
            Some(ckpt) => ckpt.targets.iter().copied().collect(),
            None => self.failed_disks(),
        };
        let before: Vec<CounterSnapshot> = self.devices().iter().map(|d| d.counters()).collect();
        if initially_failed.is_empty() {
            return Ok(RebuildReport {
                mode,
                rebuilt_disks: initially_failed,
                outcome: RebuildOutcome::Complete,
                rounds: 0,
                workers: 0,
                wall: Duration::ZERO,
                chunks_rebuilt: 0,
                bytes_rebuilt: 0,
                retries: 0,
                retries_exhausted: 0,
                retry_backoff: Duration::ZERO,
                reroutes: 0,
                escalations: 0,
                latent_repairs: 0,
                throttle_waits: 0,
                throttle_wait: Duration::ZERO,
                device_io: vec![CounterSnapshot::default(); before.len()],
                injected_faults: 0,
                stages: Vec::new(),
                worker_busy: Vec::new(),
                queue_depth: HistogramSnapshot::default(),
                sched: sched::SchedStats::default(),
            });
        }
        // Rebuilds bypass request sampling (`trace_always`): there is at
        // most one in flight and its causal tree is the primary diagnostic
        // for a slow recovery. The tree ends at its batches — the root, one
        // node per round, one per DAG batch op — and the batches' device
        // calls record no leaves: at 4 KiB a leaf per call was ~7 000
        // events per disk, and ten rebuilds lapped the trace ring over the
        // sampled requests it keeps (EXPERIMENTS.md E39).
        let rebuild_trace = telemetry::trace_always();
        if rebuild_trace != 0 {
            telemetry::trace_event(
                telemetry::EventKind::Rebuild,
                rebuild_trace,
                0,
                initially_failed.len() as u64,
                initially_failed.first().map_or(0, |&d| d as u64),
            );
        }
        let chunks_per_disk = self.array().chunks_per_disk();
        let no_chunks = ChunkBits::new(self.array().disks(), chunks_per_disk);
        let mut lost = no_chunks.clone();
        for &d in &initially_failed {
            lost.fill_disk(d, chunks_per_disk);
        }
        let mut rebuilt = no_chunks.clone();
        if let Some(ckpt) = &resume {
            for &a in ckpt.valid.iter().filter(|&&a| lost.contains(a)) {
                rebuilt.insert(a);
            }
        }
        let planned = self.plan_round(&lost.minus(&rebuilt), strategy, obs);
        let (mut plan, mut locks) = planned.ok_or(StoreError::DataLoss)?;
        match &resume {
            Some(_) => {
                obs.progress
                    .begin_resumed(lost.len() as u64, rebuilt.len() as u64);
                telemetry::flight_event(
                    telemetry::EventKind::CheckpointResume,
                    rebuilt.len() as u64,
                    lost.len() as u64,
                );
            }
            None => obs.progress.begin(plan.items().len() as u64),
        }

        let began = Instant::now();
        // Open the rebuild window *before* healing: the instant a device
        // answers reads again, its not-yet-rebuilt chunks must already
        // read as missing to concurrent foreground I/O.
        self.online().begin(initially_failed.iter().copied());
        if let Some(ckpt) = &resume {
            // Checkpointed chunks hold trustworthy bytes: readable the
            // moment the devices heal, and excluded from re-recovery.
            self.online().mark_valid_all(ckpt.valid.iter().copied());
        }
        for &d in &initially_failed {
            if let Err(error) = self.devices()[d].heal() {
                for &t in &initially_failed {
                    self.devices()[t].fail();
                }
                self.online().end();
                return Err(StoreError::Device { disk: d, error });
            }
        }
        obs.stages.heal.record_duration(began.elapsed());
        let qos_before = self.qos().counters();
        let start = Instant::now();
        let chunk_size = self.chunk_size();
        let tolerance = self.array().fault_tolerance() as u64;
        // A generous hard ceiling on rounds: each round must either rebuild
        // a chunk or grow the avoid set, both bounded by the array size, so
        // hitting this means the loop is broken, not the disks.
        let round_cap = 4 * (self.array().disks() * chunks_per_disk) as u32 + 8;

        // The self-healing loop's state. `lost` / `rebuilt` track rebuild
        // targets; `avoid` is the (near-monotone) set of source chunks that
        // proved unreadable — never read again, always re-derived;
        // `repaired` marks avoided chunks whose re-derived value was
        // rewritten in place (readable again unless they fail anew).
        let mut target_disks = initially_failed.clone();
        let mut avoid = no_chunks.clone();
        let mut repaired = no_chunks;

        let mut rounds = 0u32;
        let mut escalations = 0u64;
        let mut reroutes = 0u64;
        let mut retry = RetryCounters::default();
        let mut workers = 0usize;
        let mut worker_busy: Vec<Duration> = Vec::new();
        let mut sched_stats = sched::SchedStats::default();
        let mut stall = 0u32;
        let mut aborted: Option<Vec<usize>> = None;
        // Checkpoints are cut inside the rounds, at the writeback atom (see
        // [`Self::writeback_chunks`]), and at each round boundary below.
        let tick = self.checkpoint_policy().map(CheckpointTick::new);

        loop {
            rounds += 1;
            // Each round is a child node; the whole round body (planning,
            // execution, bookkeeping) runs under it, so DAG nodes built this
            // round link back through it to the rebuild root.
            let round_trace = if rebuild_trace != 0 {
                let t = telemetry::alloc_trace_id();
                telemetry::trace_event(
                    telemetry::EventKind::RebuildRound,
                    t,
                    rebuild_trace,
                    u64::from(rounds),
                    0,
                );
                t
            } else {
                0
            };
            let _round_guard = (round_trace != 0).then(|| telemetry::enter_trace(round_trace));
            let began = Instant::now();
            let out = self.execute_round(mode, &plan, &locks, obs, tick.as_ref());
            obs.stages.execute.record_duration(began.elapsed());
            // `wall` spans every round, so busy time must too (per worker
            // slot; the pool is as wide as its widest round).
            workers = workers.max(out.workers);
            worker_busy.resize(workers, Duration::ZERO);
            for (total, busy) in worker_busy.iter_mut().zip(&out.worker_busy) {
                *total += *busy;
            }
            retry = retry.merged(&out.retry);
            sched_stats.absorb(&out.sched);
            let died = out.dead_disks;
            let mut progressed = false;
            // The round wrote each chunk back itself, under its batch's
            // region locks, the moment the batch was combined; only the heal
            // loop's books are left to keep here.
            for addr in out.written {
                let mut fresh = false;
                if lost.contains(addr) {
                    fresh |= rebuilt.insert(addr);
                }
                if avoid.contains(addr) && repaired.insert(addr) {
                    obs.heal.latent_repairs.inc();
                    telemetry::flight_event(
                        telemetry::EventKind::LatentRepair,
                        addr.disk as u64,
                        addr.offset as u64,
                    );
                    fresh = true;
                }
                if fresh {
                    obs.progress.chunk_written(chunk_size as u64);
                    progressed = true;
                }
            }
            for (addr, _e) in out.unreadable {
                if died.contains(&addr.disk) {
                    continue; // the whole disk escalates instead
                }
                let newly_avoided = avoid.insert(addr);
                let un_repaired = repaired.remove(addr);
                if newly_avoided {
                    reroutes += 1;
                    obs.heal.reroutes.inc();
                    telemetry::flight_event(
                        telemetry::EventKind::Reroute,
                        addr.disk as u64,
                        addr.offset as u64,
                    );
                }
                progressed |= newly_avoided || un_repaired;
            }
            // Mid-rebuild disk deaths: fold each dead disk into the rebuild
            // targets, void whatever was already credited on it, and bring
            // its (blank) device back online so re-planned writes land.
            for &d in &died {
                let newly_escalated = !target_disks.contains(&d);
                if newly_escalated {
                    escalations += 1;
                    obs.heal.escalations.inc();
                    telemetry::flight_event(
                        telemetry::EventKind::Escalation,
                        d as u64,
                        escalations,
                    );
                    target_disks.push(d);
                    lost.fill_disk(d, chunks_per_disk);
                }
                let voided = rebuilt.clear_disk(d) + repaired.clear_disk(d);
                avoid.clear_disk(d);
                let grown = if newly_escalated { chunks_per_disk } else { 0 } + voided;
                obs.progress.add_total_chunks(grown as u64);
                // Fold the dead disk into the window (its contents are
                // garbage again) *before* healing brings it back online.
                self.online().escalate(d);
                self.devices()[d].fail();
                if let Err(error) = self.devices()[d].heal() {
                    for &t in &target_disks {
                        self.devices()[t].fail();
                    }
                    self.online().end();
                    return Err(StoreError::Device { disk: d, error });
                }
                progressed = true;
            }
            if escalations > tolerance {
                aborted = Some(target_disks.clone());
                break;
            }
            let mut missing = lost.minus(&rebuilt);
            missing.union_with(&avoid.minus(&repaired));
            if missing.is_empty() {
                break;
            }
            stall = if progressed {
                0
            } else {
                telemetry::flight_event(
                    telemetry::EventKind::Stall,
                    u64::from(rounds),
                    u64::from(stall + 1),
                );
                stall + 1
            };
            if stall >= 2 || rounds >= round_cap {
                aborted = Some(target_disks.clone());
                break;
            }
            if let Some(t) = &tick {
                // Round boundary: persist the position before re-planning,
                // so a crash anywhere in the next round resumes from here.
                self.save_checkpoint_now(t);
            }
            let Some(replanned) = self.plan_round(&missing, strategy, obs) else {
                aborted = Some(target_disks.clone());
                break;
            };
            (plan, locks) = replanned;
        }
        let wall = start.elapsed();
        obs.heal.retries.inc_by(retry.retries);
        obs.heal.retries_exhausted.inc_by(retry.exhausted);
        obs.heal.backoff_ns.inc_by(retry.backoff_ns);
        // A write inside the window logs its members whole; once the window
        // closes it logs only their changed ranges, which redo patches onto
        // the chunks as the devices hold them. Under a power-safe flush
        // policy the rebuilt chunks must be durable first: a flush that
        // fails aborts the rebuild, so the targets go back offline.
        let flushed = if aborted.is_none() {
            self.flush_for_checkpoint(&target_disks)
        } else {
            Ok(())
        };
        if flushed.is_err() {
            aborted = Some(target_disks.clone());
        }
        let outcome = match aborted {
            Some(mut failed) => {
                failed.sort_unstable();
                for &d in &failed {
                    self.devices()[d].fail();
                }
                telemetry::flight_event(
                    telemetry::EventKind::Abort,
                    failed.len() as u64,
                    u64::from(rounds),
                );
                // An aborted rebuild is exactly the moment the flight
                // recorder exists for: dump the recent retry / reroute /
                // escalation history before anyone restarts the process.
                let _ = telemetry::flight().dump(std::io::stderr().lock(), "rebuild aborted");
                RebuildOutcome::Aborted { failed }
            }
            None => {
                obs.progress.finish();
                if escalations > 0 {
                    RebuildOutcome::Escalated
                } else if reroutes > 0 {
                    RebuildOutcome::CompletedWithReroutes
                } else {
                    RebuildOutcome::Complete
                }
            }
        };
        if let Some(t) = &tick {
            // Complete or aborted, the recorded position is obsolete — a
            // leftover checkpoint must not hijack the next rebuild.
            RebuildCheckpoint::remove(&t.policy.path);
        }
        // Close the window only after an abort has re-failed the targets:
        // their half-written contents must never become readable.
        self.online().end();
        flushed?;
        target_disks.sort_unstable();
        let qos = self.qos().counters();
        let chunks_rebuilt = (rebuilt.len() + repaired.len()) as u64;
        let device_io: Vec<CounterSnapshot> = self
            .devices()
            .iter()
            .zip(&before)
            .map(|(d, b)| d.counters().since(b))
            .collect();
        Ok(RebuildReport {
            mode,
            rebuilt_disks: target_disks,
            outcome,
            rounds,
            workers,
            wall,
            chunks_rebuilt,
            bytes_rebuilt: chunks_rebuilt * chunk_size as u64,
            retries: retry.retries,
            retries_exhausted: retry.exhausted,
            retry_backoff: Duration::from_nanos(retry.backoff_ns),
            reroutes,
            escalations,
            latent_repairs: repaired.len() as u64,
            throttle_waits: qos.throttle_waits.saturating_sub(qos_before.throttle_waits),
            throttle_wait: Duration::from_nanos(
                qos.throttle_wait_ns
                    .saturating_sub(qos_before.throttle_wait_ns),
            ),
            injected_faults: device_io.iter().map(|c| c.faults).sum(),
            device_io,
            stages: obs.stages.summaries(),
            worker_busy,
            queue_depth: obs.stages.queue_depth.snapshot(),
            sched: sched_stats,
        })
    }

    /// Best-effort snapshot of the rebuild position (window targets + valid
    /// chunks) to the policy's checkpoint path, unless a save is already in
    /// flight. Failures are swallowed: a checkpoint is an optimization; the
    /// journal and the parity math own correctness.
    fn save_checkpoint_now(&self, tick: &CheckpointTick) {
        let Ok(_saving) = tick.saving.try_lock() else {
            return;
        };
        if let Some((targets, valid)) = self.online().valid_snapshot() {
            // The checkpoint file is fsynced, so under a power-loss flush
            // policy it must not vouch for writeback chunks still in a
            // volatile device cache: flush the targets first, and skip
            // this checkpoint if the flush fails (it is an optimization).
            let target_disks: Vec<usize> = targets.iter().copied().collect();
            if self.flush_for_checkpoint(&target_disks).is_err() {
                return;
            }
            let _ = RebuildCheckpoint { targets, valid }.save(&tick.policy.path);
        }
    }

    /// One round's plan of every chunk in `missing` (see
    /// [`plan_recovery`]), in [`ChunkBits::by_offset`] order, with the
    /// relations each item's batch locks, timed as the `plan` stage;
    /// `None` when some chunk is out of every relation chain's reach.
    fn plan_round(
        &self,
        missing: &ChunkBits,
        strategy: RecoveryStrategy,
        obs: &RebuildObserver,
    ) -> Option<(RecoveryPlan, LockSets)> {
        let began = Instant::now();
        let targets = missing.by_offset();
        let available = |a| !missing.contains(a);
        let (items, locks) = plan_recovery(self.array(), &targets, available, strategy);
        let plan = RecoveryPlan::new(self.array().disks(), Vec::new(), items);
        obs.stages.plan.record_duration(began.elapsed());
        (plan.items().len() == targets.len()).then_some((plan, locks))
    }

    /// Opens one round's writeback books. Disks already failed when the
    /// round begins take no I/O and are reported dead like a disk that dies
    /// mid-round, and the rebuild escalates them.
    fn begin_writeback<'a>(
        &self,
        obs: &'a RebuildObserver,
        tick: Option<&'a CheckpointTick>,
    ) -> Writeback<'a> {
        Writeback {
            pool: BufPool::new(self.chunk_size()),
            obs,
            tick,
            write_stats: RetryStats::default(),
            written: Mutex::new(Vec::new()),
            dead: Mutex::new(self.failed_disks().into_iter().collect()),
        }
    }

    /// The one place a reconstructed chunk becomes live — every executor
    /// (serial walk, DAG batch op) lands plan items here, a batch at a
    /// time, as `(lost chunk, value)`, still holding `guard`: the region
    /// locks the batch took before its first read.
    ///
    /// The writes and the validity marks run under those locks, so no write
    /// of a landing chunk is under way; the window's lock is taken once for
    /// the batch. Then `guard` drops, and each landed chunk — outside the
    /// locks, in order — records the stage, passes the crash point and
    /// ticks the checkpoint cadence, so the recorded position advances
    /// mid-round, chunk by chunk, on every executor.
    fn writeback_chunks(
        &self,
        wb: &Writeback<'_>,
        chunks: &[(ChunkAddr, &[u8])],
        guard: RegionGuards<'_>,
    ) {
        let began = Instant::now();
        let mut dead = lock(&wb.dead).clone();
        let mut landed: Vec<ChunkAddr> = Vec::with_capacity(chunks.len());
        let mut died = false;
        for &(addr, value) in chunks {
            if dead.contains(&addr.disk) {
                continue;
            }
            let dev = &self.devices()[addr.disk];
            match write_chunk_retrying(dev, &RETRY, &wb.write_stats, addr.offset, value) {
                Ok(()) => landed.push(addr),
                // Write retry budget exhausted: the chunk stays un-rebuilt,
                // the next round retries.
                Err(e) if e.is_transient() => {}
                // The disk died (or broke permanently) under write: escalate
                // it, and spare it the rest of the batch.
                Err(_) => died |= dead.insert(addr.disk),
            }
        }
        self.online().mark_valid_all(landed.iter().copied());
        drop(guard);
        if died {
            lock(&wb.dead).append(&mut dead);
        }
        if landed.is_empty() {
            return;
        }
        lock(&wb.written).extend_from_slice(&landed);
        let share = began.elapsed() / landed.len() as u32;
        for _ in &landed {
            wb.obs.stages.writeback.record_duration(share);
            crash_point("rebuild_writeback");
            if let Some(tick) = wb.tick {
                let landed = tick.landed.fetch_add(1, Ordering::Relaxed) + 1;
                if landed % tick.policy.interval.max(1) == 0 {
                    self.save_checkpoint_now(tick);
                }
            }
        }
    }

    /// One round on either executor: the plan lowered into *batches*
    /// ([`lower`]), one op per batch and nothing else. A batch op runs start
    /// to finish on one worker: it pays the QoS token bucket once for all
    /// its reads, takes one `lock_regions` over its items' lock sets
    /// (`regions`, from [`Self::plan_round`]), serves its items'
    /// source runs back to back ([`batch_reads`]; no run crosses the
    /// batch's edge), combines the items in batch order and lands them
    /// through [`Self::writeback_chunks`], which drops the locks. A batch
    /// holds whole dependency trees, so the graph has no edges.
    ///
    /// [`RebuildMode::Dag`] hands the graph to the [`sched`] pool, which
    /// takes the batches in order. [`RebuildMode::Serial`]
    /// (the oracle) walks the same ops in order on the calling thread, so
    /// both issue the same device reads by construction. Either way the
    /// buffers alive at any moment are a batch per worker, not the plan's.
    ///
    /// Rounds never fail — faults land in the [`RoundOutput`]: an
    /// unreadable source costs exactly the items that needed it, an item
    /// whose dependency was not combined is skipped in turn (both inside
    /// their batch, whose other items land), and a dead disk stops only its own
    /// remaining reads.
    fn execute_round(
        &self,
        mode: RebuildMode,
        plan: &RecoveryPlan,
        regions: &LockSets,
        obs: &RebuildObserver,
        tick: Option<&CheckpointTick>,
    ) -> RoundOutput {
        let began = Instant::now();
        let chunk_size = self.chunk_size();
        let items = plan.items();
        let n = items.len();
        let mut read_from = vec![false; self.array().disks()];
        for it in items {
            it.reads.iter().for_each(|a| read_from[a.disk] = true);
        }
        let sources = read_from.iter().filter(|&&r| r).count();
        let workers = self.dag_workers().unwrap_or((2 * sources).max(1));
        let (order, bounds) = lower(items, batch_items(chunk_size, n, workers));
        // Op `b` is batch `b`; no batch needs another's output.
        let mut graph: sched::OpGraph<()> = sched::OpGraph::new();
        for _ in bounds.windows(2) {
            graph.add_node((), None);
        }

        let unreadable: Mutex<Vec<(ChunkAddr, DeviceError)>> = Mutex::new(Vec::new());
        let readers: Vec<RetryReader<'_, B>> = self
            .devices()
            .iter()
            .map(|dev| RetryReader::new(dev, RETRY))
            .collect();
        // One run-staging buffer per worker (the serial walk is worker 0).
        let staging: Vec<Mutex<Vec<u8>>> = (0..workers.max(1)).map(|_| Mutex::default()).collect();
        let wb = self.begin_writeback(obs, tick);
        let pool = &wb.pool;

        let batch = |w: usize, b: usize| {
            // The batch's node (its `SchedOp` on the DAG, the round on the
            // serial walk) stands for its device calls: they record no trace
            // leaves, and a retry among them still links to the node.
            let _leafless = telemetry::without_leaves();
            let members = &order[bounds[b]..bounds[b + 1]];
            let began = Instant::now();
            let reads = batch_reads(members.iter().map(|&idx| &items[idx]));
            obs.stages.coalesce.record_duration(began.elapsed());
            // Slot `s` receives the batch's `s`-th read; one left empty
            // (unreadable, or its disk dead) costs its item.
            let mut slots: Vec<Vec<u8>> = vec![Vec::new(); reads.len()];
            let mut failed = Vec::new();
            let mut delivered = 0;
            let mut dead = lock(&wb.dead).clone();
            let live = reads.iter().filter(|r| !dead.contains(&r.1.disk)).count();
            self.qos().throttle_rebuild(live);
            let locked: Vec<Region> = members
                .iter()
                .flat_map(|&i| regions.of(i))
                .copied()
                .collect();
            let guard = self.online().lock_regions(&locked);
            let began = Instant::now();
            for run in reads.chunk_by(continues_run) {
                let disk = run[0].1.disk;
                if dead.contains(&disk) {
                    continue;
                }
                let sink = |s, addr, read| match read {
                    Ok(bytes) => {
                        slots[s] = bytes;
                        delivered += 1;
                    }
                    Err(e) => failed.push((addr, e)),
                };
                let (reader, whole) = (&readers[disk], |_| 0..chunk_size);
                if read_run_healing(reader, run, whole, chunk_size, pool, &staging[w], sink) {
                    // The disk died under the run: the rest of its reads
                    // cost their items too.
                    dead.insert(disk);
                    lock(&wb.dead).insert(disk);
                }
            }
            obs.stages.read.record_duration(began.elapsed());

            let mut inputs: Vec<Vec<u8>> = Vec::new();
            let mut values: Vec<(ChunkAddr, Vec<u8>)> = Vec::with_capacity(members.len());
            let mut combined: Vec<Duration> = Vec::with_capacity(members.len());
            let mut next = 0;
            for &idx in members {
                // An empty input is a missing one: the item waits a round
                // (the pool takes back only chunk-sized buffers).
                let mut ready = true;
                for _ in &items[idx].reads {
                    let bytes = std::mem::take(&mut slots[next]);
                    next += 1;
                    ready &= !bytes.is_empty();
                    inputs.push(bytes);
                }
                for &d in &items[idx].depends {
                    // In hand: combined earlier in this batch, if at all.
                    let value = values.iter().find(|(a, _)| *a == items[d].lost);
                    let bytes = value.map_or(Vec::new(), |(_, v)| {
                        let mut copy = pool.take_dirty();
                        copy.copy_from_slice(v);
                        copy
                    });
                    ready &= !bytes.is_empty();
                    inputs.push(bytes);
                }
                if !ready {
                    inputs.drain(..).for_each(|bytes| pool.put(bytes));
                    continue;
                }
                let began = Instant::now();
                let value = combine(&mut inputs, pool);
                combined.push(began.elapsed());
                values.push((items[idx].lost, value));
            }
            obs.progress.add_bytes_read((delivered * chunk_size) as u64);
            if !failed.is_empty() {
                lock(&unreadable).append(&mut failed);
            }
            // Recorded back to back: the histogram's cache line crosses to
            // this core once per batch, not once per chunk.
            for took in combined {
                obs.stages.combine.record_duration(took);
                obs.progress.chunk_combined();
            }
            let landing: Vec<(ChunkAddr, &[u8])> =
                values.iter().map(|(a, v)| (*a, &v[..])).collect();
            self.writeback_chunks(&wb, &landing, guard);
            values.into_iter().for_each(|(_, value)| pool.put(value));
        };
        obs.stages.lower.record_duration(began.elapsed());

        let (workers, worker_busy, stats) = match mode {
            RebuildMode::Serial => {
                (0..graph.len()).for_each(|b| batch(0, b));
                (0, Vec::new(), sched::SchedStats::default())
            }
            RebuildMode::Dag => {
                let disks = self.array().disks();
                let report = sched::run(workers, disks, &obs.sched, &graph, |w, b, ()| {
                    batch(w, b);
                    sched::OpStatus::Done
                });
                debug_assert_eq!(report.stats.executed, graph.len() as u64, "every op ran");
                obs.stages.queue_depth.record(report.stats.max_ready_depth);
                (workers, report.worker_busy, report.stats)
            }
        };
        let unreadable = unreadable.into_inner().unwrap_or_else(|p| p.into_inner());
        debug_assert!(
            lock(&wb.written).len() == n
                || !unreadable.is_empty()
                || !lock(&wb.dead).is_empty()
                || wb.write_stats.snapshot().exhausted > 0,
            "a fault-free round lands every item"
        );
        wb.into_output(unreadable, &readers, workers, worker_busy, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multifail::First;
    use crate::{OiRaidConfig, OiRaidStore};
    use blockdev::{FaultConfig, FaultInjectingDevice, MemDevice};

    fn filled(chunk_size: usize) -> OiRaidStore {
        let store = OiRaidStore::new(OiRaidConfig::reference(), chunk_size).unwrap();
        for idx in 0..store.data_chunks() {
            let chunk: Vec<u8> = (0..chunk_size)
                .map(|j| (idx * 131 + j * 17 + 3) as u8)
                .collect();
            store.write_data(idx, &chunk).unwrap();
        }
        store
    }

    /// A filled store on fault-injecting devices, with no faults armed yet
    /// (arm per-disk with `set_config` after filling).
    fn filled_faulty(chunk_size: usize) -> OiRaidStore<FaultInjectingDevice<MemDevice>> {
        let cfg = OiRaidConfig::reference();
        let devices: Vec<_> = (0..cfg.disks())
            .map(|_| {
                FaultInjectingDevice::new(
                    MemDevice::new(chunk_size, cfg.chunks_per_disk()),
                    FaultConfig::default(),
                )
            })
            .collect();
        let store = OiRaidStore::with_devices(cfg, chunk_size, devices).unwrap();
        for idx in 0..store.data_chunks() {
            let chunk: Vec<u8> = (0..chunk_size)
                .map(|j| (idx * 131 + j * 17 + 3) as u8)
                .collect();
            store.write_data(idx, &chunk).unwrap();
        }
        store
    }

    fn disk_image<B: BlockDevice>(store: &OiRaidStore<B>, disk: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut buf = vec![0u8; store.chunk_size()];
        for o in 0..store.devices()[disk].chunks() {
            store.devices()[disk].read_chunk(o, &mut buf).unwrap();
            out.extend_from_slice(&buf);
        }
        out
    }

    /// [`combine`] against the row code it stands in for: random rows of
    /// random widths, every unit lost in turn (payload and parity alike),
    /// bit-identical to `XorParity::reconstruct` — and every source is
    /// consumed.
    #[test]
    fn a_single_xor_erasure_combines_to_what_the_row_code_reconstructs() {
        use ecc::ErasureCode;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x28);
        for (g, chunk) in [(3usize, 64usize), (5, 48), (7, 4096)] {
            let pool = BufPool::new(chunk);
            let code = ecc::XorParity::new(g - 1).unwrap();
            for _ in 0..20 {
                let payload: Vec<Vec<u8>> = (1..g)
                    .map(|_| (0..chunk).map(|_| rng.gen::<u32>() as u8).collect())
                    .collect();
                let parity = code.encode(&payload).unwrap();
                let units: Vec<Vec<u8>> = payload.into_iter().chain(parity).collect();
                for lost in 0..g {
                    let mut want: Vec<Option<Vec<u8>>> = units.iter().cloned().map(Some).collect();
                    want[lost] = None;
                    code.reconstruct(&mut want).unwrap();
                    let mut inputs: Vec<Vec<u8>> = (0..g)
                        .filter(|&u| u != lost)
                        .map(|u| units[u].clone())
                        .collect();
                    // Gather order is not unit order.
                    inputs.rotate_left(rng.gen_range(0..g - 1));
                    let got = combine(&mut inputs, &pool);
                    assert_eq!(Some(&got), want[lost].as_ref(), "g {g}, unit {lost}");
                    assert_eq!(got, units[lost]);
                    assert!(inputs.is_empty(), "every source consumed");
                }
            }
        }
    }

    /// Every decode is the XOR of its inputs: over every 1-, 2- and 3-disk
    /// pattern of a filled Fano × 3 store, each item of the single-failure
    /// plans (all four strategies), of the whole-array
    /// `chunk_recovery_plan` and of the backward plan of each failed disk's
    /// data has reads or depends, and the XOR of the stored bytes of its
    /// reads and of its depends' lost chunks is its lost chunk's stored
    /// bytes. Some 2-disk plan depends across a 4 KiB rebuild batch edge.
    #[test]
    fn every_decode_is_the_xor_of_its_inputs() {
        let store = filled(16);
        let array = store.array();
        let (n, t) = (array.disks(), array.chunks_per_disk());
        let stored: Vec<Vec<u8>> = (0..n * t)
            .map(|i| {
                let mut buf = vec![0u8; 16];
                store.devices()[i / t].read_chunk(i % t, &mut buf).unwrap();
                buf
            })
            .collect();
        let at = |a: ChunkAddr| &stored[a.disk * t + a.offset];
        let mut crossed = false;
        let mut check = |items: &[layout::ChunkRecovery], failed: &[usize]| {
            let per = batch_items(4096, items.len(), 2);
            for (idx, it) in items.iter().enumerate() {
                assert!(
                    !it.reads.is_empty() || !it.depends.is_empty(),
                    "{failed:?}: {} has no inputs",
                    it.lost
                );
                let mut acc = vec![0u8; 16];
                it.reads.iter().for_each(|&a| xor_acc(&mut acc, at(a)));
                it.depends
                    .iter()
                    .for_each(|&d| xor_acc(&mut acc, at(items[d].lost)));
                assert_eq!(&acc, at(it.lost), "{failed:?}: {}", it.lost);
                crossed |= failed.len() == 2 && it.depends.iter().any(|&d| d / per < idx / per);
            }
        };
        let patterns = (0..n).flat_map(|a| {
            let pairs = (a + 1..n).flat_map(move |b| {
                let triples = (b + 1..n).map(move |c| vec![a, b, c]);
                std::iter::once(vec![a, b]).chain(triples)
            });
            std::iter::once(vec![a]).chain(pairs)
        });
        for failed in patterns {
            if let [d] = failed[..] {
                for s in RecoveryStrategy::ALL {
                    check(round_plan(&store, &[d], s).0.items(), &failed);
                }
            }
            let down = |a: ChunkAddr| failed.contains(&a.disk);
            check(array.chunk_recovery_plan(down).unwrap().items(), &failed);
            for &d in &failed {
                let data: Vec<ChunkAddr> = (0..t)
                    .map(|o| ChunkAddr::new(d, o))
                    .filter(|&a| array.data_index(a).is_some())
                    .collect();
                for first in [First::Row, First::Stripe] {
                    let (plan, _) =
                        crate::multifail::plan_closure(array, &data, |a| !down(a), first);
                    let planned = |a: &ChunkAddr| plan.iter().any(|it| it.lost == *a);
                    assert!(data.iter().all(planned), "{failed:?}: disk {d} unplanned");
                    check(&plan, &failed);
                }
            }
        }
        assert!(crossed, "no 2-disk plan depends across a batch edge");
    }

    #[test]
    fn serial_rebuild_matches_legacy_for_every_strategy() {
        for strategy in RecoveryStrategy::ALL {
            let reference = filled(16);
            let store = filled(16);
            store.fail_disk(4).unwrap();
            let report = store.rebuild(RebuildMode::Serial, strategy).unwrap();
            assert_eq!(report.rebuilt_disks, vec![4]);
            assert_eq!(report.outcome, RebuildOutcome::Complete);
            assert_eq!(report.rounds, 1);
            assert!(report.chunks_rebuilt > 0);
            assert!(store.check_parity().is_empty(), "{strategy:?}");
            assert_eq!(
                disk_image(&store, 4),
                disk_image(&reference, 4),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn dag_rebuild_bit_identical_to_serial_single_failure() {
        for strategy in RecoveryStrategy::ALL {
            let serial = filled(16);
            let dag = filled(16);
            serial.fail_disk(7).unwrap();
            dag.fail_disk(7).unwrap();
            let rs = serial.rebuild(RebuildMode::Serial, strategy).unwrap();
            let rd = dag.rebuild(RebuildMode::Dag, strategy).unwrap();
            assert_eq!(disk_image(&serial, 7), disk_image(&dag, 7), "{strategy:?}");
            assert_eq!(rs.total_reads(), rd.total_reads(), "same read schedule");
            assert_eq!(rs.chunks_rebuilt, rd.chunks_rebuilt);
            // Per-device read counters match run for run, not just in sum.
            for (d, (s, p)) in rs.device_io.iter().zip(&rd.device_io).enumerate() {
                assert_eq!(s.reads, p.reads, "{strategy:?} disk {d} read count");
            }
            // The scheduler actually ran: one executed op per batch.
            assert!(rd.workers > 0);
            assert_eq!(rs.workers, 0);
            let (plan, _) = round_plan(&dag, &[7], strategy);
            let per = batch_items(16, plan.items().len(), rd.workers);
            let batches = plan.items().len().div_ceil(per);
            assert_eq!(rd.sched.executed, batches as u64);
            assert!(rd.sched.max_inflight >= 1);
            assert_eq!(rs.sched, sched::SchedStats::default());
        }
    }

    /// The 4 KiB rebuild the serving workloads run, counted: a
    /// single-failure DAG rebuild of Fano x 3 (2 304 chunks a disk) on two
    /// workers runs 144 sixteen-chunk batch ops, leaves one trace event per
    /// round and per batch under its root and nothing else — no device
    /// leaves — and writes the image the serial oracle writes.
    #[test]
    fn a_4k_dag_rebuild_traces_a_node_per_batch() {
        use telemetry::EventKind;
        const TARGET: usize = 17;
        let cfg = OiRaidConfig::new(bibd::fano(), 3, 256).unwrap();
        let store = OiRaidStore::new(cfg, 4 << 10).unwrap();
        store.set_dag_workers(Some(2));
        for idx in (0..store.data_chunks()).step_by(7) {
            store
                .write_data(idx, &[(idx % 251) as u8 + 1; 4 << 10])
                .unwrap();
        }
        let image = disk_image(&store, TARGET);
        let (plan, _) = round_plan(&store, &[TARGET], RecoveryStrategy::Outer);
        assert_eq!(plan.items().len(), 2304);
        let batches = plan.items().len().div_ceil(batch_items(4 << 10, 2304, 2));
        assert_eq!(batches, 144);

        if !telemetry::tracing_active() {
            telemetry::set_trace_sample(Some(64));
        }
        store.fail_disk(TARGET).unwrap();
        let first_id = telemetry::alloc_trace_id();
        let report = store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Outer)
            .unwrap();
        let ids = first_id..telemetry::alloc_trace_id();
        assert_eq!(report.outcome, RebuildOutcome::Complete);
        assert_eq!(report.sched.executed, batches as u64);
        let target_io = report.device_io[TARGET];
        assert_eq!(
            (target_io.writes, target_io.bytes_written),
            (2304, 9 << 20),
            "one write op per rebuilt chunk"
        );
        assert_eq!(report.total_reads(), 4608, "no two sources form a run");
        assert_eq!(disk_image(&store, TARGET), image);

        // Other tests share the ring: count this rebuild's root and its
        // descendants only.
        let events = telemetry::traces().snapshot();
        let roots: Vec<u64> = events
            .iter()
            .filter(|e| e.kind == EventKind::Rebuild && ids.contains(&e.trace))
            .filter(|e| (e.a, e.b) == (1, TARGET as u64))
            .map(|e| e.trace)
            .collect();
        let [root] = roots[..] else {
            panic!("one root for this rebuild: {roots:?}");
        };
        let mut tree = vec![root];
        let mut kinds = Vec::new();
        while let Some(parent) = tree.pop() {
            for e in events.iter().filter(|e| e.parent == parent) {
                tree.push(e.trace);
                kinds.push(e.kind);
            }
        }
        let count = |k: EventKind| kinds.iter().filter(|&&x| x == k).count();
        let rounds = report.rounds as usize;
        assert_eq!(count(EventKind::RebuildRound), rounds);
        assert_eq!(count(EventKind::SchedOp), batches);
        assert_eq!(
            1 + kinds.len(),
            1 + rounds + batches,
            "the root, its rounds and its batches, nothing else: {kinds:?}"
        );

        // The serial oracle writes the same image with the same ops.
        store.fail_disk(TARGET).unwrap();
        let serial = store
            .rebuild(RebuildMode::Serial, RecoveryStrategy::Outer)
            .unwrap();
        assert_eq!(serial.outcome, RebuildOutcome::Complete);
        assert_eq!(serial.device_io[TARGET].writes, 2304);
        assert_eq!(serial.total_reads(), 4608);
        assert_eq!(disk_image(&store, TARGET), image);
    }

    #[test]
    fn dag_worker_override_is_honored() {
        let store = filled(8);
        store.set_dag_workers(Some(3));
        store.fail_disk(11).unwrap();
        let report = store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert_eq!(report.workers, 3);
        assert_eq!(report.worker_busy.len(), 3);
        assert_eq!(report.outcome, RebuildOutcome::Complete);
        assert!(store.check_parity().is_empty());
        assert!(report.worker_utilization() > 0.0);
    }

    #[test]
    fn dag_rebuild_triple_failure() {
        let reference = filled(8);
        let store = filled(8);
        for d in [2, 9, 17] {
            store.fail_disk(d).unwrap();
        }
        let report = store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert_eq!(report.rebuilt_disks, vec![2, 9, 17]);
        assert!(store.failed_disks().is_empty());
        assert!(store.check_parity().is_empty());
        for d in [2, 9, 17] {
            assert_eq!(disk_image(&store, d), disk_image(&reference, d), "disk {d}");
        }
    }

    #[test]
    fn whole_group_rebuild_both_modes() {
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let reference = filled(8);
            let store = filled(8);
            for d in [6, 7, 8] {
                store.fail_disk(d).unwrap();
            }
            store.rebuild(mode, RecoveryStrategy::Hybrid).unwrap();
            for d in [6, 7, 8] {
                assert_eq!(
                    disk_image(&store, d),
                    disk_image(&reference, d),
                    "{mode} disk {d}"
                );
            }
        }
    }

    #[test]
    fn unrecoverable_pattern_is_rejected_without_state_change() {
        let store = filled(8);
        for d in [0, 1, 3, 4] {
            store.fail_disk(d).unwrap();
        }
        let err = store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap_err();
        assert_eq!(err, StoreError::DataLoss);
        assert_eq!(store.failed_disks(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn rebuild_with_nothing_failed_is_a_no_op() {
        let store = filled(8);
        let report = store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        assert_eq!(report.chunks_rebuilt, 0);
        assert_eq!(report.total_reads(), 0);
        assert_eq!(report.outcome, RebuildOutcome::Complete);
        assert_eq!(report.rounds, 0);
    }

    #[test]
    fn report_counters_reflect_the_plan() {
        let store = filled(16);
        store.fail_disk(4).unwrap();
        let report = store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        // The failed disk serves no reads; every read lands elsewhere.
        assert_eq!(report.device_io[4].reads, 0);
        assert_eq!(
            report.device_io[4].writes as usize,
            store.array().geometry().chunks_per_disk
        );
        assert_eq!(
            report.bytes_rebuilt,
            report.chunks_rebuilt * store.chunk_size() as u64
        );
        assert_eq!(report.retries, 0);
        assert_eq!(report.reroutes, 0);
        assert!(report.to_string().contains("dag"));
    }

    #[test]
    fn report_display_format_is_stable() {
        // Pinned: downstream log scrapers parse this line.
        let report = RebuildReport {
            mode: RebuildMode::Dag,
            rebuilt_disks: vec![4],
            outcome: RebuildOutcome::CompletedWithReroutes,
            rounds: 2,
            workers: 20,
            wall: Duration::from_millis(12),
            chunks_rebuilt: 30,
            bytes_rebuilt: 480,
            retries: 5,
            retries_exhausted: 1,
            retry_backoff: Duration::from_micros(350),
            reroutes: 1,
            escalations: 0,
            latent_repairs: 1,
            throttle_waits: 0,
            throttle_wait: Duration::ZERO,
            device_io: vec![
                CounterSnapshot {
                    reads: 7,
                    ..CounterSnapshot::default()
                },
                CounterSnapshot {
                    reads: 5,
                    ..CounterSnapshot::default()
                },
            ],
            injected_faults: 2,
            stages: Vec::new(),
            worker_busy: Vec::new(),
            queue_depth: HistogramSnapshot::default(),
            sched: sched::SchedStats::default(),
        };
        assert_eq!(
            report.to_string(),
            "dag rebuild of [4]: 30 chunks (480 bytes) in 12ms, \
             12 reads (max 7/disk), 20 workers, 2 injected faults; \
             complete-with-reroutes after 2 round(s), 5 retries \
             (1 exhausted), 1 reroutes, 0 escalations, 1 latent repairs"
        );
    }

    #[test]
    fn observed_rebuild_populates_stages_spans_and_progress() {
        telemetry::set_enabled(true);
        let store = filled(16);
        store.fail_disk(4).unwrap();
        let obs = crate::RebuildObserver::default();
        let report = store
            .rebuild_observed(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
            .unwrap();

        // Stages: every phase and pipeline stage saw work (heal runs once,
        // plan twice — the initial plan and the round's footprints —
        // coalesce once per queue, the others once per round/chunk/run).
        for stage in [
            "plan",
            "heal",
            "execute",
            "read",
            "coalesce",
            "combine",
            "writeback",
        ] {
            let s = report.stage(stage).unwrap_or_else(|| panic!("{stage}"));
            assert!(s.latency.count > 0, "{stage} recorded");
            assert!(
                s.latency.p50() <= s.latency.p99() && s.latency.p99() <= s.latency.max,
                "{stage} quantiles ordered: {}",
                s.latency.summary_ns()
            );
        }
        assert_eq!(
            report.stage("combine").unwrap().latency.count,
            report.chunks_rebuilt
        );
        assert_eq!(report.worker_busy.len(), report.workers);
        assert!(report.worker_utilization() > 0.0);
        assert!(report.queue_depth.count > 0, "peak ready depth per round");

        // Progress: complete and internally consistent.
        let p = obs.progress.snapshot();
        assert!(p.finished && p.fraction == 1.0, "{p:?}");
        assert_eq!(p.total_chunks, report.chunks_rebuilt);
        assert_eq!(p.chunks_written, report.chunks_rebuilt);
        assert_eq!(p.bytes_written, report.bytes_rebuilt);

        // The three phases cover (almost) all of the rebuild's wall time,
        // and the pool is the size the store asked for.
        assert_eq!(report.stage("execute").unwrap().latency.count, 1);
        let phases: u64 = ["plan", "heal", "execute"]
            .iter()
            .map(|p| report.stage(p).unwrap().latency.sum)
            .sum();
        let cov = phases as f64 / report.wall.as_nanos() as f64;
        assert!(cov >= 0.95, "phases cover the rebuild: {cov}");
        let queues = report.device_io.iter().filter(|c| c.reads > 0).count();
        assert_eq!(report.workers, 2 * queues, "two workers per read queue");
    }

    #[test]
    fn concurrent_writebacks_tick_checkpoints_that_always_load() {
        // Interval 1: every landed chunk ticks the cadence, from four
        // threads at once. A tick that finds a save in flight must skip it,
        // never share its temp file — so whatever checkpoint is on disk at
        // any instant loads, and vouches only for chunks already valid.
        const THREADS: usize = 4;
        const PASSES: usize = 20;
        let store = filled(16);
        let target = 4usize;
        let (plan, regions) = round_plan(&store, &[target], RecoveryStrategy::Hybrid);
        let path = std::env::temp_dir().join(format!("oi-tick-{}.ckpt", std::process::id()));
        RebuildCheckpoint::remove(&path);
        let tick = CheckpointTick::new(CheckpointPolicy {
            path: path.clone(),
            interval: 1,
        });
        let obs = crate::RebuildObserver::default();
        store.fail_disk(target).unwrap();
        store.online().begin([target]);
        store.devices()[target].heal().unwrap();
        let wb = store.begin_writeback(&obs, Some(&tick));
        let n = plan.items().len();
        let valid_now = || -> BTreeSet<ChunkAddr> {
            let (_, valid) = store.online().valid_snapshot().expect("window open");
            valid.into_iter().collect()
        };
        let check = |ckpt: RebuildCheckpoint| {
            assert_eq!(ckpt.targets, BTreeSet::from([target]));
            // The valid set only grows, so "valid by now" bounds "valid
            // when the checkpoint was cut".
            let now = valid_now();
            assert!(ckpt.valid.iter().all(|a| now.contains(a)), "{ckpt:?}");
        };

        let start = std::sync::Barrier::new(THREADS + 1);
        let mut loaded = 0usize;
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (store, wb, start) = (&store, &wb, &start);
                    let (plan, regions) = (&plan, &regions);
                    s.spawn(move || {
                        start.wait();
                        for idx in (0..PASSES).flat_map(|_| (t..n).step_by(THREADS)) {
                            let guard = store.online().lock_regions(regions.of(idx));
                            let lost = plan.items()[idx].lost;
                            store.writeback_chunks(wb, &[(lost, &[idx as u8; 16])], guard);
                        }
                    })
                })
                .collect();
            start.wait();
            while !workers.iter().all(|w| w.is_finished()) {
                match RebuildCheckpoint::load(&path) {
                    Some(ckpt) => {
                        loaded += 1;
                        check(ckpt);
                    }
                    // Renamed into place atomically and never removed: once
                    // a checkpoint has loaded, every later load succeeds.
                    None => assert_eq!(loaded, 0, "a saved checkpoint stopped loading"),
                }
            }
        });
        assert_eq!(lock(&wb.written).len(), n * PASSES, "every write landed");
        assert_eq!(valid_now().len(), n);
        check(RebuildCheckpoint::load(&path).expect("the first tick always saves"));
        RebuildCheckpoint::remove(&path);
    }

    /// Buffer lifetime: both executors run one batch op at a time per
    /// worker, which reads, combines and lands its batch before the next
    /// one, so a round holds a batch per worker — not two buffers per lost
    /// chunk, as it did when every read ran before the first combine. The
    /// bound is in bytes — per worker three batches' worth and what its
    /// thread may cache — whether a batch is one item of 64 KiB or sixteen
    /// of 4 KiB.
    #[test]
    fn a_round_keeps_a_few_buffers_live_not_the_plan() {
        const WORKERS: usize = 2;
        for (chunk, cycles) in [(64 << 10, 4), (4 << 10, 64)] {
            let cfg = OiRaidConfig::new(bibd::fano(), 3, cycles).unwrap();
            let reference = OiRaidStore::new(cfg, chunk).unwrap();
            for idx in 0..reference.data_chunks() {
                reference
                    .write_data(idx, &vec![(idx % 251) as u8 + 1; chunk])
                    .unwrap();
            }
            let target = 4usize;
            for mode in [RebuildMode::Serial, RebuildMode::Dag] {
                let store = reference.clone();
                store.set_dag_workers(Some(WORKERS));
                let (plan, regions) = round_plan(&store, &[target], RecoveryStrategy::Outer);
                let lost = plan.items().len();
                let bound = WORKERS * (3 * BATCH_BYTES + (128 << 10)) / chunk;
                assert!(lost > 2 * bound, "the plan dwarfs the bound: {lost} items");
                let obs = crate::RebuildObserver::default();
                store.fail_disk(target).unwrap();
                store.online().begin([target]);
                store.devices()[target].heal().unwrap();
                let out = store.execute_round(mode, &plan, &regions, &obs, None);
                store.online().end();
                assert_eq!(out.written.len(), lost, "{mode}");
                assert!(
                    out.peak_buffers <= bound,
                    "{mode} at {chunk} B: {} buffers live at once",
                    out.peak_buffers
                );
                assert_eq!(
                    disk_image(&store, target),
                    disk_image(&reference, target),
                    "{mode}"
                );
            }
        }
    }

    /// Each item's lock set holds its lost chunk, every read and every
    /// dependency's lost chunk, so a writer of any of them waits for the
    /// batch; a row or stripe decode locks exactly one relation, and only
    /// a remote row recompute more. Over every plan shape a rebuild runs:
    /// one disk, two disks of one group, three disks, a resume (every
    /// other chunk of the disk checkpointed) and a re-plan after a latent
    /// source on a row sibling, under every strategy.
    #[test]
    fn every_lock_set_holds_what_its_item_reads_and_lands() {
        let store = batch_fixture(8, |mem| mem);
        let (disks, chunks) = (store.array().disks(), store.array().chunks_per_disk());
        let geo = store.array().geometry();
        let missing = |failed: &[usize], keep: &dyn Fn(ChunkAddr) -> bool| {
            let mut bits = ChunkBits::new(disks, chunks);
            let lost = failed
                .iter()
                .flat_map(|&d| (0..chunks).map(move |o| ChunkAddr::new(d, o)));
            lost.filter(|&a| keep(a)).for_each(|a| {
                bits.insert(a);
            });
            bits
        };
        let every = |_: ChunkAddr| true;
        let mut replan = missing(&[BATCH_TARGET], &|a| a.offset % 3 != 0);
        replan.insert(ChunkAddr::new(BATCH_TARGET + 1, 1));
        let shapes = [
            ("one disk", missing(&[BATCH_TARGET], &every)),
            ("two disks of a group", missing(&[3, BATCH_TARGET], &every)),
            ("three disks", missing(&[0, BATCH_TARGET, 9], &every)),
            ("a resume", missing(&[BATCH_TARGET], &|a| a.offset % 2 == 1)),
            ("a re-plan", replan),
        ];
        let mut remote = 0;
        for (shape, missing) in &shapes {
            for strategy in RecoveryStrategy::ALL {
                let obs = crate::RebuildObserver::default();
                let planned = store.plan_round(missing, strategy, &obs);
                let (plan, locks) = planned.expect(shape);
                assert_eq!(plan.items().len(), missing.len(), "{shape} {strategy:?}");
                for (idx, it) in plan.items().iter().enumerate() {
                    let held: Vec<ChunkAddr> = locks
                        .of(idx)
                        .iter()
                        .flat_map(|&r| match r {
                            Region::Row(group, row) => geo.row_chunks(group, row),
                            Region::Stripe(block, stripe) => geo.stripe_chunks(block, stripe),
                        })
                        .collect();
                    let depends = it.depends.iter().map(|&d| plan.items()[d].lost);
                    for a in [it.lost].into_iter().chain(it.reads.clone()).chain(depends) {
                        assert!(
                            held.contains(&a),
                            "{shape} {strategy:?}: {} leaves {a} unlocked",
                            it.lost
                        );
                    }
                    let one = locks.of(idx).len() == 1;
                    if matches!(strategy, RecoveryStrategy::Inner | RecoveryStrategy::Outer) {
                        assert!(one, "{shape} {strategy:?}: {}", it.lost);
                    }
                    remote += usize::from(!one);
                }
            }
        }
        assert!(remote > 0, "no remote row recompute was planned");
    }

    /// A batch holds the union of its items' relations: on the serving
    /// geometry (4 KiB chunks, sixteen items a batch) that stays under the
    /// 96 lock stripes one full foreground write group may hold, and a row
    /// or stripe decode locks one relation, so an Inner or Outer batch holds
    /// sixteen stripes at most.
    #[test]
    fn a_batch_locks_no_more_stripes_than_a_write_group() {
        let cfg = OiRaidConfig::new(bibd::fano(), 3, 256).unwrap();
        let store = OiRaidStore::new(cfg, 1).unwrap();
        for strategy in RecoveryStrategy::ALL {
            let (plan, regions) = round_plan(&store, &[4], strategy);
            let n = plan.items().len();
            let per = batch_items(4096, n, 2);
            assert_eq!(per, BATCH_ITEMS);
            for lo in (0..n).step_by(per) {
                let union: Vec<Region> = (lo..n.min(lo + per))
                    .flat_map(|idx| regions.of(idx))
                    .copied()
                    .collect();
                let held = crate::online::stripe_order(&union).len();
                assert!(held <= 96, "{strategy:?} batch at {lo}: {held} stripes");
                if matches!(strategy, RecoveryStrategy::Inner | RecoveryStrategy::Outer) {
                    let ones = (lo..n.min(lo + per)).all(|idx| regions.of(idx).len() == 1);
                    assert!(
                        ones && held <= BATCH_ITEMS,
                        "{strategy:?} batch at {lo}: {held}"
                    );
                }
            }
        }
    }

    /// The loop's bitmap books against the `BTreeSet`s they replace: a
    /// seeded walk of inserts, removes, whole-disk fills and voids, with
    /// the re-plan difference checked after every step.
    #[test]
    fn chunk_bits_behave_as_the_sets_they_replace() {
        const DISKS: usize = 5;
        for chunks in [1, 63, 64, 65, 130] {
            let mut bits = [(); 4].map(|()| ChunkBits::new(DISKS, chunks));
            let mut sets: [BTreeSet<ChunkAddr>; 4] = Default::default();
            let mut x = chunks as u64 | 1;
            for step in 0..2_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (i, d) = ((x >> 8) as usize % 4, (x >> 16) as usize % DISKS);
                let a = ChunkAddr::new(d, (x >> 24) as usize % chunks);
                match x % 16 {
                    0 => {
                        bits[i].fill_disk(d, chunks);
                        sets[i].extend((0..chunks).map(|o| ChunkAddr::new(d, o)));
                    }
                    1 => {
                        let gone = sets[i].iter().filter(|a| a.disk == d).count();
                        sets[i].retain(|a| a.disk != d);
                        assert_eq!(bits[i].clear_disk(d), gone, "step {step}");
                    }
                    2..=8 => assert_eq!(bits[i].insert(a), sets[i].insert(a), "step {step}"),
                    _ => assert_eq!(bits[i].remove(a), sets[i].remove(&a), "step {step}"),
                }
                assert_eq!(bits[i].contains(a), sets[i].contains(&a));
                assert_eq!(bits[i].len(), sets[i].len());
                let [lost, rebuilt, avoid, repaired] = &bits;
                let mut missing = lost.minus(rebuilt);
                missing.union_with(&avoid.minus(repaired));
                let mut want: BTreeSet<ChunkAddr> = sets[0].difference(&sets[1]).copied().collect();
                want.extend(sets[2].difference(&sets[3]).copied());
                assert_eq!(missing.is_empty(), want.is_empty());
                assert_eq!(missing.len(), want.len());
                for d in 0..DISKS {
                    for o in 0..chunks {
                        let a = ChunkAddr::new(d, o);
                        assert_eq!(bits[i].contains(a), sets[i].contains(&a), "step {step}");
                        assert_eq!(missing.contains(a), want.contains(&a), "step {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_size_follows_bytes_count_and_pool() {
        // 64 KiB of chunks, sixteen items at most, one at least.
        assert_eq!(batch_items(4 << 10, 2304, 2), 16);
        assert_eq!(batch_items(256, 2304, 2), 16);
        assert_eq!(batch_items(16 << 10, 2304, 2), 4);
        assert_eq!(batch_items(64 << 10, 576, 2), 1);
        assert_eq!(batch_items(1 << 20, 576, 2), 1);
        // A small plan still gives every worker four ops: the crash suite's
        // 9-chunk disks are not one batch, and 42 workers on a 27-item
        // plan get one item per op.
        assert_eq!(batch_items(256, 9, 1), 3);
        assert_eq!(batch_items(256, 27, 42), 1);
        assert_eq!(batch_items(4 << 10, 0, 2), 1);
    }

    /// A device that dies on the write after `left` more succeeded (armed
    /// with [`DiesOnWrite::arm`]; unarmed it is its inner device).
    struct DiesOnWrite {
        inner: MemDevice,
        left: std::sync::atomic::AtomicI64,
    }

    impl DiesOnWrite {
        fn arm(&self, writes: i64) {
            self.left.store(writes, Ordering::SeqCst);
        }
    }

    impl BlockDevice for DiesOnWrite {
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
            self.inner.read_chunk(chunk, buf)
        }
        fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
            if self.left.fetch_sub(1, Ordering::SeqCst) <= 0 {
                self.inner.fail();
            }
            self.inner.write_chunk(chunk, data)
        }
        fn fail(&self) {
            self.inner.fail()
        }
        fn heal(&self) -> Result<(), DeviceError> {
            self.inner.heal()
        }
        fn counters(&self) -> CounterSnapshot {
            self.inner.counters()
        }
        fn reset_counters(&self) {
            self.inner.reset_counters()
        }
    }

    /// A filled 21-disk store of `9c` chunks a disk — at `c` = 8 its
    /// single-disk Outer plan (72 items of 64 B) runs in sixteen-item
    /// batches on its one-worker pool — over devices made by `wrap`.
    fn batch_fixture<B: BlockDevice>(c: usize, wrap: impl Fn(MemDevice) -> B) -> OiRaidStore<B> {
        let cfg = OiRaidConfig::new(bibd::fano(), 3, c).unwrap();
        let devices: Vec<B> = (0..cfg.disks())
            .map(|_| wrap(MemDevice::new(64, cfg.chunks_per_disk())))
            .collect();
        let store = OiRaidStore::with_devices(cfg, 64, devices).unwrap();
        for idx in 0..store.data_chunks() {
            let chunk: Vec<u8> = (0..64).map(|j| (idx * 131 + j * 17 + 3) as u8).collect();
            store.write_data(idx, &chunk).unwrap();
        }
        store.set_dag_workers(Some(1));
        store
    }

    const BATCH_TARGET: usize = 4;

    /// The plan and lock sets of a rebuild's first round of `failed` under
    /// `strategy`.
    fn round_plan<B: BlockDevice>(
        store: &OiRaidStore<B>,
        failed: &[usize],
        strategy: RecoveryStrategy,
    ) -> (RecoveryPlan, LockSets) {
        let chunks = store.array().chunks_per_disk();
        let mut missing = ChunkBits::new(store.array().disks(), chunks);
        failed.iter().for_each(|&d| missing.fill_disk(d, chunks));
        let obs = crate::RebuildObserver::default();
        let planned = store.plan_round(&missing, strategy, &obs);
        planned.expect("a survivable pattern")
    }

    fn batch_plan<B: BlockDevice>(store: &OiRaidStore<B>) -> (RecoveryPlan, LockSets) {
        let planned = round_plan(store, &[BATCH_TARGET], RecoveryStrategy::Outer);
        assert_eq!(batch_items(64, planned.0.items().len(), 1), BATCH_ITEMS);
        planned
    }

    /// Fails [`BATCH_TARGET`], opens the window, lets `arm` stage a fault,
    /// runs one round of `plan` and returns its output with the window's
    /// valid set as the round left it.
    fn batch_round<B: BlockDevice>(
        store: &OiRaidStore<B>,
        (plan, regions): &(RecoveryPlan, LockSets),
        mode: RebuildMode,
        arm: impl FnOnce(&OiRaidStore<B>),
    ) -> (RoundOutput, BTreeSet<ChunkAddr>) {
        let obs = crate::RebuildObserver::default();
        store.fail_disk(BATCH_TARGET).unwrap();
        store.online().begin([BATCH_TARGET]);
        store.devices()[BATCH_TARGET].heal().unwrap();
        arm(store);
        let out = store.execute_round(mode, plan, regions, &obs, None);
        let (_, valid) = store.online().valid_snapshot().expect("window open");
        store.online().end();
        (out, valid.into_iter().collect())
    }

    #[test]
    fn a_source_that_stays_unreadable_costs_its_items_not_their_batch() {
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let store = batch_fixture(8, |mem| {
                FaultInjectingDevice::new(mem, FaultConfig::default())
            });
            let planned = batch_plan(&store);
            let plan = &planned.0;
            // One latent sector among the sources of the first batch.
            let source = plan.items()[5].reads[0];
            let seed = (1..)
                .find(|&seed| {
                    let dev = &store.devices()[source.disk];
                    dev.set_config(FaultConfig {
                        seed,
                        latent_per_mille: 20,
                        ..FaultConfig::default()
                    });
                    let bad = |a: &ChunkAddr| a.disk == source.disk && dev.is_latent_bad(a.offset);
                    let hit: Vec<_> = plan.items().iter().flat_map(|it| &it.reads).collect();
                    bad(&source) && hit.into_iter().filter(|a| bad(a)).count() == 1
                })
                .unwrap();
            let (out, valid) = batch_round(&store, &planned, mode, |_| {});
            let needed: Vec<ChunkAddr> = plan
                .items()
                .iter()
                .filter(|it| it.reads.contains(&source))
                .map(|it| it.lost)
                .collect();
            assert!(
                !needed.is_empty() && needed.len() < BATCH_ITEMS,
                "{mode} seed {seed}"
            );
            let unreadable: Vec<ChunkAddr> = out.unreadable.iter().map(|(a, _)| *a).collect();
            assert_eq!(unreadable, [source], "{mode}");
            let written: BTreeSet<ChunkAddr> = out.written.iter().copied().collect();
            let expected: BTreeSet<ChunkAddr> = plan
                .items()
                .iter()
                .map(|it| it.lost)
                .filter(|lost| !needed.contains(lost))
                .collect();
            assert_eq!(
                written, expected,
                "{mode}: exactly the items that needed it miss"
            );
            assert_eq!(valid, expected, "{mode}");
            assert!(out.dead_disks.is_empty(), "{mode}");
        }
    }

    /// A write paused after its data member and before its parity members,
    /// holding its region locks, while a round runs on another thread. The
    /// first item decodes through a relation the write holds, so its batch
    /// reads none of its sources (they would be torn: new data, old parity)
    /// until the write lets go. Then the item lands from the relation as the
    /// write left it, and the rebuilt disk agrees with every parity.
    #[test]
    fn a_write_holding_a_relation_delays_the_batch_that_decodes_through_it() {
        use crate::store::tests::HookedDevice;
        use std::sync::mpsc;
        let wait = Duration::from_secs(10);
        let store = batch_fixture(8, HookedDevice::new);
        let (plan, regions) = batch_plan(&store);
        // A data source of the first item: read by the first batch.
        let (addr, idx) = plan.items()[0]
            .reads
            .iter()
            .find_map(|&a| Some((a, store.array().data_index(a)?)))
            .expect("the first item reads a data chunk");
        let mut expect: Vec<Vec<u8>> = (0..store.data_chunks())
            .map(|i| store.read_data(i).unwrap())
            .collect();
        expect[idx] = vec![0x3C; 64];
        store.fail_disk(BATCH_TARGET).unwrap();
        let (paused, on_pause) = mpsc::channel();
        let (release, on_release) = mpsc::channel::<()>();
        let pause = move || {
            paused.send(()).unwrap();
            on_release.recv_timeout(wait).expect("released");
        };
        let dev = &store.devices()[addr.disk];
        *dev.write_hook.lock().unwrap() = Some((addr.offset, 0, Box::new(pause)));
        let out = std::thread::scope(|scope| {
            let writer = scope.spawn(|| store.write_data(idx, &expect[idx]));
            on_pause
                .recv_timeout(wait)
                .expect("the write reached its data member");
            let (read, on_read) = mpsc::channel();
            let read = move || {
                let _ = read.send(());
            };
            *dev.hook.lock().unwrap() = Some((addr.offset, 0, Box::new(read)));
            store.online().begin([BATCH_TARGET]);
            store.devices()[BATCH_TARGET].heal().unwrap();
            let round = scope.spawn(|| {
                let obs = crate::RebuildObserver::default();
                store.execute_round(RebuildMode::Serial, &plan, &regions, &obs, None)
            });
            let early = on_read.recv_timeout(Duration::from_millis(250));
            assert!(early.is_err(), "the batch read a relation a write holds");
            release.send(()).unwrap();
            writer.join().unwrap().unwrap();
            on_read
                .recv_timeout(wait)
                .expect("the batch read the source");
            round.join().unwrap()
        });
        assert!(out.written.contains(&plan.items()[0].lost));
        assert_eq!(out.written.len(), plan.items().len());
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(store.read_data(i).unwrap(), *want, "in the window, idx {i}");
        }
        store.online().end();
        assert!(store.check_parity().is_empty());
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(store.read_data(i).unwrap(), *want, "idx {i}");
        }
    }

    /// Batches cut no dependency tree and lose or repeat no item, whatever
    /// their size: every two-disk pattern's plan (an in-group pair's row
    /// decodes depend on stripe decodes), at one, two and sixteen items a
    /// batch, has every dependency earlier in its dependent's batch, and
    /// some of them cross a plain cut every `per` items.
    #[test]
    fn a_dependency_tree_lands_in_one_batch() {
        let store = batch_fixture(8, |mem| mem);
        let disks = store.array().disks();
        let mut crossings = 0;
        for failed in (0..disks).flat_map(|a| (a + 1..disks).map(move |b| [a, b])) {
            let (plan, _) = round_plan(&store, &failed, RecoveryStrategy::Outer);
            let items = plan.items();
            for per in [1, 2, BATCH_ITEMS] {
                let (order, bounds) = lower(items, per);
                let once: BTreeSet<usize> = order.iter().copied().collect();
                assert!(once.len() == items.len() && order.len() == items.len());
                // Each item's (batch, place in the batch order).
                let mut at = vec![(0, 0); items.len()];
                for (b, w) in bounds.windows(2).enumerate() {
                    (w[0]..w[1]).for_each(|i| at[order[i]] = (b, i));
                }
                for (idx, it) in items.iter().enumerate() {
                    for &d in &it.depends {
                        assert!(
                            at[d].0 == at[idx].0 && at[d].1 < at[idx].1,
                            "{failed:?} {per}"
                        );
                        crossings += usize::from(d / per != idx / per);
                    }
                }
            }
        }
        assert!(crossings > 0, "some dependency crosses a plain cut");
    }

    /// A foreground write to a data chunk a two-disk rebuild landed and a
    /// row decode used, run from the checkpoint flush after their batch —
    /// outside every batch's locks, between two batches: one round rebuilds
    /// everything, and every chunk and parity reads as written.
    #[test]
    fn a_write_after_a_dependency_lands_leaves_its_dependent_consistent() {
        use crate::store::tests::HookedDevice;
        let cfg = OiRaidConfig::new(bibd::fano(), 3, 8).unwrap();
        let dir = std::env::temp_dir().join(format!("oi-dep-landed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let devices = (0..cfg.disks())
            .map(|_| HookedDevice::new(MemDevice::new(64, cfg.chunks_per_disk())))
            .collect();
        let policy = blockdev::FlushPolicy::PerWave;
        let store = OiRaidStore::create_durable_on(cfg, 64, devices, &dir, policy).unwrap();
        let store = std::sync::Arc::new(store);
        let mut expect: Vec<Vec<u8>> = (0..store.data_chunks())
            .map(|idx| (0..64).map(|j| (idx * 131 + j * 17 + 3) as u8).collect())
            .collect();
        for (idx, chunk) in expect.iter().enumerate() {
            store.write_data(idx, chunk).unwrap();
        }
        store.set_dag_workers(Some(1));
        let path = dir.join("rebuild.ckpt");
        store.set_checkpoint_policy(Some(CheckpointPolicy { path, interval: 1 }));
        // Disks 3 and 4 share a group, so row decodes depend on stripe ones.
        let failed = [3, 4];
        let (plan, _) = round_plan(&store, &failed, RecoveryStrategy::Hybrid);
        let items = plan.items();
        let (order, bounds) = lower(items, batch_items(64, items.len(), 1));
        let data = |d: usize| store.array().data_index(items[d].lost);
        let mut deps = items.iter().flat_map(|it| it.depends.iter().copied());
        let dep = deps.find(|&d| data(d).is_some()).unwrap();
        let at = order.iter().position(|&i| i == dep).unwrap();
        // Each landed chunk saves a checkpoint, which flushes every target
        // disk once: the flush after the dependency's batch runs the write.
        let after = bounds.iter().find(|&&b| b > at).unwrap() - 1;
        let idx = data(dep).unwrap();
        expect[idx] = vec![0x5A; 64];
        let (weak, bytes) = (std::sync::Arc::downgrade(&store), expect[idx].clone());
        let write = move || weak.upgrade().unwrap().write_data(idx, &bytes).unwrap();
        *store.devices()[3].flush_hook.lock().unwrap() = Some((0, after, Box::new(write)));
        failed.iter().for_each(|&d| store.fail_disk(d).unwrap());
        let report = store.rebuild(RebuildMode::Serial, RecoveryStrategy::Hybrid);
        let report = report.unwrap();
        assert_eq!(report.outcome, RebuildOutcome::Complete, "{report}");
        assert_eq!(report.rounds, 1, "{report}");
        assert!(store.devices()[3].flush_hook.lock().unwrap().is_none());
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(store.read_data(i).unwrap(), *want, "idx {i}");
        }
        assert!(store.check_parity().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_target_dying_mid_batch_lands_what_it_wrote_and_no_more() {
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let store = batch_fixture(8, |inner| DiesOnWrite {
                inner,
                left: i64::MAX.into(),
            });
            let planned = batch_plan(&store);
            let plan = &planned.0;
            let (out, valid) = batch_round(&store, &planned, mode, |store| {
                store.devices()[BATCH_TARGET].arm(4)
            });
            let first: Vec<ChunkAddr> = plan.items()[..4].iter().map(|it| it.lost).collect();
            assert_eq!(
                out.written, first,
                "{mode}: the fifth write killed the disk"
            );
            assert_eq!(out.dead_disks, BTreeSet::from([BATCH_TARGET]), "{mode}");
            assert_eq!(valid, first.into_iter().collect(), "{mode}");
            assert!(out.unreadable.is_empty(), "{mode}");
        }
    }

    /// A [`MemDevice`] that logs every read op as `(disk, first chunk,
    /// chunks)` into a log its array shares.
    struct LogsReads {
        inner: MemDevice,
        disk: usize,
        log: std::sync::Arc<Mutex<Vec<(usize, usize, usize)>>>,
    }

    impl LogsReads {
        fn log(&self, first: usize, count: usize) {
            lock(&self.log).push((self.disk, first, count));
        }
    }

    impl BlockDevice for LogsReads {
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
            self.log(chunk, 1);
            self.inner.read_chunk(chunk, buf)
        }
        fn read_chunks(
            &self,
            first: usize,
            count: usize,
            buf: &mut [u8],
        ) -> Result<(), DeviceError> {
            self.log(first, count);
            self.inner.read_chunks(first, count, buf)
        }
        fn read_range(
            &self,
            chunk: usize,
            range: Range<usize>,
            buf: &mut [u8],
        ) -> Result<(), DeviceError> {
            self.log(chunk, 1);
            self.inner.read_range(chunk, range, buf)
        }
        fn write_chunk(&self, chunk: usize, data: &[u8]) -> Result<(), DeviceError> {
            self.inner.write_chunk(chunk, data)
        }
        fn write_range(
            &self,
            chunk: usize,
            range: Range<usize>,
            buf: &[u8],
        ) -> Result<(), DeviceError> {
            self.inner.write_range(chunk, range, buf)
        }
        fn fail(&self) {
            self.inner.fail()
        }
        fn heal(&self) -> Result<(), DeviceError> {
            self.inner.heal()
        }
        fn counters(&self) -> CounterSnapshot {
            self.inner.counters()
        }
        fn reset_counters(&self) {
            self.inner.reset_counters()
        }
    }

    /// Device runs of a plan cut into batches of `per` items: what the
    /// batch ops issue.
    fn batch_runs(plan: &RecoveryPlan, per: usize) -> usize {
        let (order, bounds) = lower(plan.items(), per);
        let batches = bounds.windows(2).map(|w| &order[w[0]..w[1]]);
        let reads = batches.map(|b| batch_reads(b.iter().map(|&idx| &plan.items()[idx])));
        reads.map(|r| r.chunk_by(continues_run).count()).sum()
    }

    /// Device runs of the same plan coalesced over whole per-disk queues,
    /// with no batch edge to stop them.
    fn queue_runs(plan: &RecoveryPlan) -> usize {
        let queues = plan.reads_by_disk();
        let runs = queues
            .iter()
            .map(|(_, q)| q.chunk_by(continues_run).count());
        runs.sum()
    }

    /// Every read a batch op issues is a source of one of that batch's
    /// items, and the batch reads them all: the serial walk runs the batch
    /// ops in order, so the device log, cut batch by batch, is each batch's
    /// reads — in one device op per run of [`batch_reads`].
    #[test]
    fn a_batch_op_reads_its_own_items_sources_and_nothing_else() {
        for strategy in RecoveryStrategy::ALL {
            let log = std::sync::Arc::new(Mutex::new(Vec::new()));
            let disks = std::cell::Cell::new(0);
            let store = batch_fixture(8, |inner| {
                let disk = disks.replace(disks.get() + 1);
                let log = std::sync::Arc::clone(&log);
                LogsReads { inner, disk, log }
            });
            store.set_dag_workers(Some(2));
            let planned = round_plan(&store, &[BATCH_TARGET], strategy);
            let plan = &planned.0;
            lock(&log).clear();
            let (out, _) = batch_round(&store, &planned, RebuildMode::Serial, |_| {});
            assert_eq!(out.written.len(), plan.items().len(), "{strategy:?}");
            let per = batch_items(64, plan.items().len(), 2);
            let log = lock(&log);
            let mut ops = log.iter();
            for (b, batch) in plan.items().chunks(per).enumerate() {
                let mut want: Vec<ChunkAddr> =
                    batch.iter().flat_map(|it| &it.reads).copied().collect();
                let runs = batch_reads(batch).chunk_by(continues_run).count();
                for _ in 0..runs {
                    let &(disk, first, count) = ops.next().expect("the batch's reads were issued");
                    for offset in first..first + count {
                        let at = want.iter().position(|&a| a == ChunkAddr::new(disk, offset));
                        let at = at.unwrap_or_else(|| {
                            panic!("{strategy:?} batch {b} read disk {disk} chunk {offset}, not its own")
                        });
                        want.swap_remove(at);
                    }
                }
                assert!(
                    want.is_empty(),
                    "{strategy:?} batch {b} left {want:?} unread"
                );
            }
            assert!(
                ops.next().is_none(),
                "{strategy:?}: reads beyond the batches'"
            );
        }
    }

    /// Where runs do coalesce — rows read by the Inner and Hybrid
    /// strategies, and a two-disk pattern — serial and DAG rounds issue the
    /// same device read ops disk by disk, one per run of [`batch_reads`].
    /// A run that a batch edge cuts costs one device op more than coalescing
    /// whole per-disk queues would; that cost is printed (`--nocapture`)
    /// and bounded by one per source disk and batch edge.
    #[test]
    fn serial_and_dag_issue_the_same_device_reads_where_runs_coalesce() {
        let patterns: [(&[usize], RecoveryStrategy); 3] = [
            (&[BATCH_TARGET], RecoveryStrategy::Inner),
            (&[BATCH_TARGET], RecoveryStrategy::Hybrid),
            (&[BATCH_TARGET, 11], RecoveryStrategy::Hybrid),
        ];
        for (failed, strategy) in patterns {
            let reference = batch_fixture(8, |mem| mem);
            reference.set_dag_workers(Some(2));
            let (plan, _) = round_plan(&reference, failed, strategy);
            let reads = plan.total_reads() as usize;
            let per = batch_items(64, plan.items().len(), 2);
            let (split, whole) = (batch_runs(&plan, per), queue_runs(&plan));
            assert!(
                split < reads,
                "{failed:?} {strategy:?}: runs coalesce ({split} of {reads})"
            );
            let mut device_reads = Vec::new();
            for mode in [RebuildMode::Serial, RebuildMode::Dag] {
                let store = reference.clone();
                for &d in failed {
                    store.fail_disk(d).unwrap();
                }
                let report = store.rebuild(mode, strategy).unwrap();
                assert_eq!(report.outcome, RebuildOutcome::Complete, "{mode}");
                assert_eq!(
                    report.total_reads() as usize,
                    split,
                    "{failed:?} {strategy:?} {mode}"
                );
                for &d in failed {
                    assert_eq!(disk_image(&store, d), disk_image(&reference, d), "{mode}");
                }
                device_reads.push(report.device_io.iter().map(|c| c.reads).collect::<Vec<_>>());
            }
            assert_eq!(
                device_reads[0], device_reads[1],
                "{failed:?} {strategy:?}: per-disk reads"
            );
            let sources = device_reads[0].iter().filter(|&&r| r > 0).count();
            let edges = lower(plan.items(), per).1.len() - 2;
            println!(
                "{failed:?} {strategy:?}: {reads} source chunks, {whole} runs over whole queues, \
                 {split} cut at {edges} batch edges (+{})",
                split - whole
            );
            assert!(whole <= split && split - whole <= sources * edges);
        }
    }

    #[test]
    fn serial_observed_rebuild_records_stages_without_queue() {
        telemetry::set_enabled(true);
        let store = filled(8);
        store.fail_disk(2).unwrap();
        let obs = crate::RebuildObserver::default();
        let report = store
            .rebuild_observed(RebuildMode::Serial, RecoveryStrategy::Hybrid, &obs)
            .unwrap();
        assert!(report.stage("read").unwrap().latency.count > 0);
        assert_eq!(report.queue_depth.count, 0, "no queue in serial mode");
        assert_eq!(report.worker_utilization(), 0.0);
        assert!(obs.progress.snapshot().finished);
    }

    /// Under the Inner strategy, rebuilding disk 4 reads its row siblings on
    /// disks 3 and 5. Disk 3 faults on *every* read (1000‰ transient):
    /// retry cannot save it, so the engine must re-route every scheduled
    /// disk-3 read through alternate read sets — and still finish
    /// bit-identical. The re-plan repairs disk 3's chunks in place and
    /// decodes disk 4's through them, so it must never read one back: on
    /// the reference array its batches hold one item, with 144 chunks a
    /// disk and one worker sixteen.
    #[test]
    fn fully_transient_disk_is_rerouted_around() {
        let faulty = |mem| FaultInjectingDevice::new(mem, FaultConfig::default());
        for (sixteen, mode) in [false, true]
            .map(|s| [RebuildMode::Serial, RebuildMode::Dag].map(|m| (s, m)))
            .concat()
        {
            let (reference, store) = match sixteen {
                false => (filled(8), filled_faulty(8)),
                true => (batch_fixture(16, |mem| mem), batch_fixture(16, faulty)),
            };
            store.devices()[3].set_config(FaultConfig {
                seed: 99,
                transient_read_per_mille: 1000,
                ..FaultConfig::default()
            });
            store.fail_disk(4).unwrap();
            let report = store.rebuild(mode, RecoveryStrategy::Inner).unwrap();
            assert_eq!(
                report.outcome,
                RebuildOutcome::CompletedWithReroutes,
                "{mode}: {report}"
            );
            assert!(report.reroutes > 0, "{mode}");
            assert!(report.retries > 0, "{mode}");
            assert!(report.retries_exhausted > 0, "{mode}");
            assert!(report.rounds > 1, "{mode}");
            assert_eq!(report.escalations, 0, "{mode}");
            assert!(store.failed_disks().is_empty(), "{mode}");
            store.devices()[3].set_config(FaultConfig::default());
            for d in [3, 4] {
                assert_eq!(
                    disk_image(&store, d),
                    disk_image(&reference, d),
                    "{mode} disk {d}"
                );
            }
            assert!(store.check_parity().is_empty(), "{mode}");
        }
    }

    #[test]
    fn latent_sources_are_rerouted_and_repaired_in_place() {
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let reference = filled(8);
            let store = filled_faulty(8);
            // Deterministic latent sector errors on disk 5, a row sibling
            // the Inner strategy must read while rebuilding disk 4.
            store.devices()[5].set_config(FaultConfig {
                seed: 7,
                latent_per_mille: 200,
                ..FaultConfig::default()
            });
            let latent: Vec<usize> = (0..store.array().chunks_per_disk())
                .filter(|&o| store.devices()[5].is_latent_bad(o))
                .collect();
            assert!(!latent.is_empty(), "seed 7 plants at least one latent");
            store.fail_disk(4).unwrap();
            let report = store.rebuild(mode, RecoveryStrategy::Inner).unwrap();
            assert_eq!(
                report.outcome,
                RebuildOutcome::CompletedWithReroutes,
                "{mode}: {report}"
            );
            assert_eq!(report.reroutes, latent.len() as u64, "{mode}");
            assert_eq!(report.latent_repairs, report.reroutes, "{mode}");
            // Latent sectors were repaired by rewrite (remapped): with the
            // fault config still armed, every repaired chunk reads clean.
            for &o in &latent {
                assert!(!store.devices()[5].is_latent_bad(o), "{mode} chunk {o}");
            }
            for d in [4, 5] {
                assert_eq!(
                    disk_image(&store, d),
                    disk_image(&reference, d),
                    "{mode} disk {d}"
                );
            }
            assert!(store.check_parity().is_empty(), "{mode}");
        }
    }

    /// `wall` spans every round, so the pool's busy time must too. The
    /// latent-sector reroute takes two rounds at least; with every read
    /// slowed by an amount the devices count, the workers cannot have been
    /// busy for less than their ops slept — which the first round's busy
    /// time alone is.
    #[test]
    fn worker_busy_time_covers_every_round() {
        let store = filled_faulty(8);
        store.set_dag_workers(Some(2));
        for (d, dev) in store.devices().iter().enumerate() {
            dev.set_config(FaultConfig {
                seed: 7,
                latent_per_mille: if d == 5 { 200 } else { 0 },
                read_latency: Duration::from_millis(2),
                ..FaultConfig::default()
            });
        }
        store.fail_disk(4).unwrap();
        let report = store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Inner)
            .unwrap();
        assert_eq!(report.outcome, RebuildOutcome::CompletedWithReroutes);
        assert!(report.rounds >= 2, "{report}");
        assert_eq!(report.worker_busy.len(), report.workers);
        let slept: u64 = report.device_io.iter().map(|c| c.injected_latency_ns).sum();
        let busy: Duration = report.worker_busy.iter().sum();
        assert!(
            busy >= Duration::from_nanos(slept),
            "busy {busy:?} over {} rounds, ops slept {slept} ns",
            report.rounds
        );
        let utilization = report.worker_utilization();
        assert!(utilization > 0.0 && utilization <= 1.0, "{utilization}");
    }

    #[test]
    fn mid_rebuild_disk_death_escalates_and_recovers() {
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let reference = filled(8);
            let store = filled_faulty(8);
            // Disk 3 (a row sibling the Inner strategy reads 9 times) dies
            // after serving 3 rebuild reads.
            store.devices()[3].set_config(FaultConfig {
                fail_after_reads: 3,
                ..FaultConfig::default()
            });
            store.fail_disk(4).unwrap();
            let report = store.rebuild(mode, RecoveryStrategy::Inner).unwrap();
            assert_eq!(
                report.outcome,
                RebuildOutcome::Escalated,
                "{mode}: {report}"
            );
            assert_eq!(report.escalations, 1, "{mode}");
            assert_eq!(report.rebuilt_disks, vec![3, 4], "{mode}");
            assert!(report.rounds > 1, "{mode}");
            assert!(store.failed_disks().is_empty(), "{mode}");
            for d in [3, 4] {
                assert_eq!(
                    disk_image(&store, d),
                    disk_image(&reference, d),
                    "{mode} disk {d}"
                );
            }
            assert!(store.check_parity().is_empty(), "{mode}");
        }
    }

    #[test]
    fn unrecoverable_mid_rebuild_aborts_with_failure_set() {
        // Rebuilding disk 0 under the Inner strategy reads its group
        // siblings 1 and 2, which both die almost immediately; the re-plan
        // then fans out over the outer layer, where disks 3 and 4 die too.
        // Five candidate failures exceed the array's tolerance of three:
        // the engine must abort (not panic, not error) and re-fail every
        // rebuild target so no half-written disk looks healthy.
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let store = filled_faulty(8);
            for d in [1, 2, 3, 4] {
                store.devices()[d].set_config(FaultConfig {
                    fail_after_reads: 1,
                    ..FaultConfig::default()
                });
            }
            store.fail_disk(0).unwrap();
            let report = store.rebuild(mode, RecoveryStrategy::Inner).unwrap();
            match &report.outcome {
                RebuildOutcome::Aborted { failed } => {
                    assert_eq!(failed, &vec![0, 1, 2, 3, 4], "{mode}");
                }
                other => panic!("{mode}: expected abort, got {other:?}"),
            }
            assert_eq!(store.failed_disks(), vec![0, 1, 2, 3, 4], "{mode}");
            assert!(!report.outcome.is_recovered());
        }
    }
}
