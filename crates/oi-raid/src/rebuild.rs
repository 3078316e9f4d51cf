//! Self-healing, plan-driven rebuild engine: executes a
//! [`layout::RecoveryPlan`] against the store's block devices — serially
//! (the oracle) or as an op DAG on a worker pool, one op per batch of
//! chunks that reads, combines and writes them back on one worker while
//! their bytes are in cache — and *absorbs* device faults instead of dying
//! on them.
//!
//! The engine runs in rounds, and a round has one contract and one body on
//! every executor (`OiRaidStore::execute_round`): the plan is cut into
//! byte-sized batches of consecutive items, each batch is read, decoded
//! *and written back*, and the driver gets a `RoundOutput` to keep books
//! on. Every reconstructed chunk becomes live in exactly one place,
//! `OiRaidStore::writeback_chunks` — region locks, dirty check, writes,
//! validity marks, then per chunk crash point and checkpoint tick — called
//! once per batch by the batch op, which the serial walk and the DAG's
//! pool run alike.
//!
//! Every read goes through a
//! [`RetryReader`](blockdev::RetryReader): transient faults are retried
//! with bounded deterministic backoff; coalesced runs degrade to per-chunk
//! reads so one bad sector costs one chunk, not the batch. A chunk that
//! stays unreadable after its retry budget (a latent sector error) is
//! *re-routed*: the next round re-derives it — and everything that needed
//! it — through an alternate read set via the chunk-granular planner
//! ([`crate::OiRaid::chunk_recovery_plan`]), then rewrites the bad sector
//! in place (repairing it). If a surviving disk dies outright mid-rebuild,
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
//! holds a batch of buffers per worker, not the plan's.
//!
//! While a rebuild is in flight the store stays **online**: the engine opens
//! a rebuild window (see `crate::online`) before healing the target devices,
//! so foreground reads treat not-yet-rebuilt chunks as missing and
//! foreground writes land degraded, marking the parity relations they touch
//! dirty. Each round clears the dirty set as it starts; a
//! reconstruction whose (transitive) inputs intersect a dirtied relation is
//! discarded at writeback — the next round recomputes it from the updated
//! parity, so stale reconstructions never clobber foreground writes.
//! Rebuild read batches are paced by the store's
//! [`QosConfig`](crate::QosConfig) token bucket whenever foreground traffic
//! is active.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gf::kernels::xor_acc;

use blockdev::{
    crash_point, write_chunk_retrying, BlockDevice, CounterSnapshot, DeviceError, RetryCounters,
    RetryReader, RetryStats,
};
use ecc::ErasureCode;
use layout::{ChunkAddr, Layout, RecoveryPlan, SparePolicy};
use telemetry::HistogramSnapshot;

use crate::bufpool::BufPool;
use crate::checkpoint::RebuildCheckpoint;
use crate::geometry::Geometry;
use crate::observe::{RebuildObserver, StageSummary};
use crate::online::Region;
use crate::recovery::single_failure_plan;
use crate::store::{CheckpointPolicy, OiRaidStore, StoreError, RETRY};
use crate::RecoveryStrategy;

/// How the rebuild engine executes a recovery plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildMode {
    /// One batch of items at a time on the calling thread, reads issued
    /// inline in plan order.
    Serial,
    /// The same batches lowered into an explicit op DAG (one
    /// read-combine-writeback op per batch, edges only where a batch needs
    /// an earlier one's output, atomic indegrees) executed by a worker pool
    /// in plan order, downstream-first — no round barrier between batches;
    /// see [`crates/sched`](sched).
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
    /// sub-phases `regions` (inside `plan`) and `lower` (inside
    /// `execute`).
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

/// The sources gathered for one plan item — scheduled reads *and* outputs
/// of dependency items — by address. An item has a handful, so a scan
/// beats hashing, and one list serves a whole batch without reallocating.
pub(crate) type Inputs = Vec<(ChunkAddr, Vec<u8>)>;

/// Moves `addr`'s bytes out of `inputs`.
fn take_input(inputs: &mut Inputs, addr: ChunkAddr) -> Option<Vec<u8>> {
    let at = inputs.iter().position(|(a, _)| *a == addr)?;
    Some(inputs.swap_remove(at).1)
}

/// Reconstructs one lost chunk from gathered inputs.
///
/// Entries of `inputs` may be consumed (moved out), the caller recycles
/// whatever remains. `decoded` caches whole-row decodes so that co-decoded
/// siblings (multi-failure items with no sources of their own) can pick up
/// their value — a sibling directly follows its provider in the plan, so
/// the cache holds a few entries at most; it is locked on those two paths
/// only, so concurrent stripe XORs never meet there. Pure in its inputs —
/// this is what makes serial and DAG execution bit-identical.
pub(crate) fn combine(
    geo: &Geometry,
    code: &dyn ErasureCode,
    lost: ChunkAddr,
    inputs: &mut Inputs,
    decoded: &Mutex<Inputs>,
    pool: &BufPool,
) -> Vec<u8> {
    if inputs.is_empty() {
        // Sibling of an earlier whole-row decode (multi-failure plans emit
        // one item carrying the row's shared reads, then read-less items
        // for the other chunks co-decoded from them).
        return take_input(&mut lock(decoded), lost).expect("sibling item follows its row decode");
    }
    let grp = geo.group_of(lost.disk);
    let row = lost.offset;
    if inputs
        .iter()
        .all(|(a, _)| geo.group_of(a.disk) == grp && a.offset == row)
    {
        if geo.p_in == 1 {
            // One XOR erasure: the lost unit is the XOR of the row's g − 1
            // others, whatever its role. The first source's buffer is the
            // accumulator — nothing is zero-filled or allocated, and the
            // row costs one XOR pass fewer; the rest stay with the caller,
            // like a stripe's.
            debug_assert_eq!(inputs.len(), geo.g - 1, "a full XOR row but one");
            let (_, mut acc) = inputs.swap_remove(0);
            for (_, bytes) in inputs.iter() {
                xor_acc(&mut acc, bytes);
            }
            return acc;
        }
        // Inner-row decode (handles >1 erasure when p_in = 2).
        let ordered: Vec<ChunkAddr> = geo
            .row_payload(grp, row)
            .into_iter()
            .chain(geo.inner_parities_of_row(grp, row))
            .collect();
        let mut units: Vec<Option<Vec<u8>>> =
            ordered.iter().map(|a| take_input(inputs, *a)).collect();
        let erased: Vec<bool> = units.iter().map(Option::is_none).collect();
        code.reconstruct(&mut units).expect("within row tolerance");
        // Keep what a co-decoded sibling will ask for — the other erased
        // units — and recycle the sources at once: a single-erasure row
        // never touches the cache.
        let mut value = None;
        for ((a, unit), erased) in ordered.iter().zip(units).zip(erased) {
            let unit = unit.expect("reconstructed");
            if *a == lost {
                value = Some(unit);
            } else if erased {
                lock(decoded).push((*a, unit));
            } else {
                pool.put(unit);
            }
        }
        return value.expect("lost chunk is in its row");
    }
    let mut stripe_xor = |payload: ChunkAddr| -> Vec<u8> {
        let p = geo.payload_pos(payload);
        let mut sources = geo
            .stripe_chunks(p.block, p.stripe)
            .into_iter()
            .filter(|a| *a != payload);
        // The first source's buffer *is* the accumulator (every source
        // belongs to one stripe only): nothing is zero-filled and the
        // stripe costs one XOR pass fewer.
        let Some(first) = sources.next() else {
            return pool.take();
        };
        let mut acc = take_input(inputs, first).expect("stripe source gathered");
        for a in sources {
            let (_, bytes) = inputs
                .iter()
                .find(|(x, _)| *x == a)
                .expect("stripe source gathered");
            xor_acc(&mut acc, bytes);
        }
        acc
    };
    if !geo.is_inner_parity(lost) {
        // Outer-stripe XOR: the k − 1 other chunks of the lost payload's
        // stripe (sourced from reads and/or dependency outputs).
        return stripe_xor(lost);
    }
    // Remote inner-parity recompute (Outer-All / hybrid strategies): first
    // recover each payload of the row from its *outer* stripe, then
    // re-encode the row and keep the lost parity's role.
    let payloads: Vec<Vec<u8>> = geo
        .row_payload(grp, row)
        .into_iter()
        .map(&mut stripe_xor)
        .collect();
    let parities = code.encode(&payloads).expect("row encodes");
    let role = geo
        .inner_parities_of_row(grp, row)
        .iter()
        .position(|a| *a == lost)
        .expect("lost parity is in its row");
    parities[role].clone()
}

/// Item `idx`'s backward edges, identical for both executors: the plan's
/// `depends`, then the sibling link, marked `true` because a sibling reads
/// the decode cache instead of folding the provider's output into its
/// inputs.
fn depends_of<'a>(
    geo: &'a Geometry,
    items: &'a [layout::ChunkRecovery],
    idx: usize,
) -> impl Iterator<Item = (usize, bool)> + 'a {
    let planned = items[idx].depends.iter().map(|&d| (d, false));
    planned.chain(sibling_provider(geo, items, idx).map(|p| (p, true)))
}

/// Bytes of reconstruction one batch op carries: what a round hands a
/// worker is sized so the scheduler's per-op cost is paid per 64 KiB, not
/// per chunk.
const BATCH_BYTES: usize = 64 << 10;
/// Most items in a batch whatever the chunk size: the union of 16
/// footprints stays well under the 96 lock stripes a full write group
/// already holds, and a checkpoint interval of a few chunks stays
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

/// The source reads of one batch's plan `items`, in the order its op
/// issues them: `(slot, address)`, where slot `s` is the batch's `s`-th
/// read counting item by item in plan order, sorted by disk (stably, so
/// plan order holds within a disk). Each [`continues_run`] chunk of it is
/// one device run; runs end at the batch's edge, so no read feeds another
/// batch.
fn batch_reads(items: &[layout::ChunkRecovery]) -> Vec<(usize, ChunkAddr)> {
    let mut reads: Vec<(usize, ChunkAddr)> = items
        .iter()
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

/// The sibling linkage rule shared by [`depends_of`] and the dirty
/// footprints: a read-less, dependency-less plan item is a
/// co-decoded *sibling* whose value comes from the nearest **earlier**
/// same-inner-row item that has sources of its own (multi-failure plans
/// emit one item carrying a row's shared reads, then read-less items for
/// the other chunks co-decoded from them). `None` when `idx` is not a
/// sibling.
fn sibling_provider(geo: &Geometry, items: &[layout::ChunkRecovery], idx: usize) -> Option<usize> {
    if !items[idx].reads.is_empty() || !items[idx].depends.is_empty() {
        return None;
    }
    let lost = items[idx].lost;
    let (grp, row) = (geo.group_of(lost.disk), lost.offset);
    let provider = (0..idx)
        .rev()
        .find(|&j| {
            let l = items[j].lost;
            geo.group_of(l.disk) == grp
                && l.offset == row
                && !(items[j].reads.is_empty() && items[j].depends.is_empty())
        })
        .expect("sibling item has a row-decode provider");
    Some(provider)
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
    /// Writebacks discarded because a foreground write dirtied an input
    /// relation since the round began.
    dirty_skips: u32,
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

/// The conservative dirty-dependency footprint of every item of a plan
/// (see [`OiRaidStore::plan_regions`]), stored flat: two allocations per
/// plan, not one per item.
struct Footprints {
    regions: Vec<Region>,
    /// Item `idx`'s relations are `regions[start[idx]..start[idx + 1]]`.
    start: Vec<usize>,
}

impl Footprints {
    fn of(&self, idx: usize) -> &[Region] {
        &self.regions[self.start[idx]..self.start[idx + 1]]
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
    plan: &'a RecoveryPlan,
    regions: &'a Footprints,
    obs: &'a RebuildObserver,
    tick: Option<&'a CheckpointTick>,
    write_stats: RetryStats,
    written: Mutex<Vec<ChunkAddr>>,
    dirty_skips: AtomicU32,
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
            dirty_skips: self.dirty_skips.into_inner(),
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
    /// Single failures use the strategy-specific planner (`strategy` picks
    /// local-row / outer-stripe / declustered / hybrid reads); larger
    /// patterns use the multi-failure cascade planner. Serial and DAG
    /// modes produce bit-identical disks, with or without faults.
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
        // most one in flight and its causal tree — rounds, scheduled ops,
        // device I/O — is the primary diagnostic for a slow recovery.
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
        let began = Instant::now();
        let planned = if resume.is_some() {
            // Resume: only what the checkpoint does not cover needs
            // recovery — chunk-granular, same planner reroutes use.
            let missing = lost.minus(&rebuilt);
            self.array().chunk_recovery_plan(|a| missing.contains(a))
        } else if initially_failed.len() == 1 {
            single_failure_plan(
                self.array(),
                initially_failed[0],
                SparePolicy::Distributed,
                strategy,
            )
        } else {
            Layout::recovery_plan(self.array(), &initially_failed, SparePolicy::Distributed)
        };
        obs.stages.plan.record_duration(began.elapsed());
        let mut plan = planned.map_err(|_| StoreError::DataLoss)?;
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
            // New dirty epoch, with no lock: a write marks its relations
            // dirty after its last member write and before it drops its
            // region locks, so one whose mark comes before this clear is
            // wholly visible to every read this round issues, and one whose
            // mark comes after is caught at writeback.
            self.online().clear_dirty();
            let regions = self.plan_regions(&plan);
            obs.stages.plan.record_duration(began.elapsed());
            obs.stages.regions.record_duration(began.elapsed());
            let began = Instant::now();
            let out = self.execute_round(mode, &plan, &regions, obs, tick.as_ref());
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
            let dirty_skips = out.dirty_skips;
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
            // Dirty-skipped writebacks are deferred work, not a stall: the
            // next round recomputes them from the updated parity. Only
            // rounds that neither progressed nor deferred count toward the
            // stall abort (round_cap still bounds a pathological writer).
            if dirty_skips > 0 {
                telemetry::flight_event(
                    telemetry::EventKind::DirtySkip,
                    u64::from(dirty_skips),
                    u64::from(rounds),
                );
            }
            stall = if progressed {
                0
            } else if dirty_skips > 0 {
                stall
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
            let began = Instant::now();
            let replanned = self.array().chunk_recovery_plan(|a| missing.contains(a));
            obs.stages.plan.record_duration(began.elapsed());
            let Ok(replanned) = replanned else {
                aborted = Some(target_disks.clone());
                break;
            };
            plan = replanned;
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

    /// The conservative dirty-dependency footprint of every plan item: the
    /// parity relations of the lost chunk itself plus those of every chunk
    /// its reconstruction (transitively) reads. A writeback is discarded
    /// when a foreground write dirtied any of these since the round began.
    fn plan_regions(&self, plan: &RecoveryPlan) -> Footprints {
        let geo = self.array().geometry();
        let items = plan.items();
        let mut regions: Vec<Region> = Vec::with_capacity(4 * items.len());
        let mut start = Vec::with_capacity(items.len() + 1);
        for (idx, it) in items.iter().enumerate() {
            let from = regions.len();
            start.push(from);
            // An item's own footprint is a handful of relations: a scan of
            // what it has so far dedupes them.
            let add = |regions: &mut Vec<Region>, r: Region| {
                if !regions[from..].contains(&r) {
                    regions.push(r);
                }
            };
            for &a in std::iter::once(&it.lost).chain(&it.reads) {
                for r in self.regions_for(a) {
                    add(&mut regions, r);
                }
            }
            // Co-decoded sibling: its value comes from an earlier same-row
            // decode, so it inherits that provider's footprint (the same
            // linkage rule the executors use).
            for &d in it.depends.iter().chain(&sibling_provider(geo, items, idx)) {
                for i in start[d]..start[d + 1] {
                    let inherited = regions[i];
                    add(&mut regions, inherited);
                }
            }
        }
        start.push(regions.len());
        Footprints { regions, start }
    }

    /// Opens one round's writeback books. Disks already failed when the
    /// round begins take no I/O and are reported dead like a disk that dies
    /// mid-round, and the rebuild escalates them.
    fn begin_writeback<'a>(
        &self,
        plan: &'a RecoveryPlan,
        regions: &'a Footprints,
        obs: &'a RebuildObserver,
        tick: Option<&'a CheckpointTick>,
    ) -> Writeback<'a> {
        Writeback {
            pool: BufPool::new(self.chunk_size()),
            plan,
            regions,
            obs,
            tick,
            write_stats: RetryStats::default(),
            written: Mutex::new(Vec::new()),
            dirty_skips: AtomicU32::new(0),
            dead: Mutex::new(self.failed_disks().into_iter().collect()),
        }
    }

    /// The one place a reconstructed chunk becomes live — every executor
    /// (serial walk, DAG batch op) lands plan items here, a batch at a
    /// time, as `(item index, value)`.
    ///
    /// The dirty check, the writes, and the validity marks form one atom
    /// under the union of the items' region locks: no foreground write can
    /// slip between "inputs were clean" and "chunk is live" and then be
    /// clobbered, yet writes to unrelated relations proceed freely. The
    /// window's own lock is taken twice for the whole batch (one dirty
    /// check that answers per item, one pass of validity marks), the round's
    /// dead set is consulted once. A dirty item is dropped and counted
    /// while its clean batch-mates land. Each landed chunk then — outside
    /// the locks, in order — records the stage, passes the crash point and
    /// ticks the checkpoint cadence, so the recorded position advances
    /// mid-round, chunk by chunk, on every executor.
    fn writeback_chunks(&self, wb: &Writeback<'_>, chunks: &[(usize, &[u8])]) {
        let began = Instant::now();
        let items = wb.plan.items();
        let mut dead = lock(&wb.dead).clone();
        let live: Vec<(ChunkAddr, &[Region], &[u8])> = chunks
            .iter()
            .map(|&(idx, value)| (items[idx].lost, wb.regions.of(idx), value))
            .filter(|(addr, ..)| !dead.contains(&addr.disk))
            .collect();
        if live.is_empty() {
            return;
        }
        let union: Vec<Region> = live.iter().flat_map(|l| l.1).copied().collect();
        let guard = self.online().lock_regions(&union);
        let dirty = self.online().dirty_among(live.iter().map(|l| l.1));
        let mut landed: Vec<ChunkAddr> = Vec::with_capacity(live.len());
        let mut died = false;
        for (&(addr, _, value), dirty) in live.iter().zip(dirty) {
            if dirty {
                // A foreground write touched a relation this value was
                // derived from: the reconstruction may be stale or torn.
                // Drop it; the next round recomputes it from the updated
                // parity.
                wb.dirty_skips.fetch_add(1, Ordering::Relaxed);
            } else if !dead.contains(&addr.disk) {
                let dev = &self.devices()[addr.disk];
                match write_chunk_retrying(dev, &RETRY, &wb.write_stats, addr.offset, value) {
                    Ok(()) => landed.push(addr),
                    // Write retry budget exhausted: the chunk stays
                    // un-rebuilt, the next round retries.
                    Err(e) if e.is_transient() => {}
                    // The disk died (or broke permanently) under write:
                    // escalate it, and spare it the rest of the batch.
                    Err(_) => died |= dead.insert(addr.disk),
                }
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

    /// One round on either executor: the plan lowered into *batches* of
    /// consecutive items ([`batch_items`] each), one op per batch and
    /// nothing else. A batch op runs start to finish on one worker: it pays
    /// the QoS token bucket once for all its reads, serves its items'
    /// source runs back to back ([`batch_reads`]; no run crosses the
    /// batch's edge), combines the items in plan order and lands them
    /// through [`Self::writeback_chunks`]. Cross-batch dependencies (the
    /// plan's `depends` and sibling links, which only point backwards) are
    /// the graph's only edges; in-batch ones are satisfied by order.
    ///
    /// [`RebuildMode::Dag`] hands the graph to the [`sched`] pool, which
    /// takes ready batches in plan order and runs a batch another one
    /// unblocked on the worker that unblocked it. [`RebuildMode::Serial`]
    /// (the oracle) walks the same ops in order on the calling thread, so
    /// both issue the same device reads by construction. Either way the
    /// buffers alive at any moment are a batch per worker, not the plan's.
    ///
    /// Rounds never fail — faults land in the [`RoundOutput`]: an
    /// unreadable source costs exactly the items that needed it, an item
    /// whose dependency never completed is skipped in turn (both inside
    /// their batch, whose other items land), and a dead disk stops only its
    /// own remaining reads. `regions` is [`Self::plan_regions`] of `plan`.
    fn execute_round(
        &self,
        mode: RebuildMode,
        plan: &RecoveryPlan,
        regions: &Footprints,
        obs: &RebuildObserver,
        tick: Option<&CheckpointTick>,
    ) -> RoundOutput {
        let began = Instant::now();
        let geo = self.array().geometry();
        let code = self.inner_code();
        let chunk_size = self.chunk_size();
        let items = plan.items();
        let n = items.len();
        let mut read_from = vec![false; self.array().disks()];
        // How many later items fold each item's output into their inputs.
        let mut uses = vec![0usize; n];
        for it in items {
            it.reads.iter().for_each(|a| read_from[a.disk] = true);
            it.depends.iter().for_each(|&d| uses[d] += 1);
        }
        let sources = read_from.iter().filter(|&&r| r).count();
        let workers = self.dag_workers().unwrap_or((2 * sources).max(1));
        let per = batch_items(chunk_size, n, workers);
        let of_batch = |b: usize| b * per..n.min((b + 1) * per);

        // Op `b` is batch `b`, so op ids are a topological order, which is
        // all the serial walk needs.
        let mut graph: sched::OpGraph<()> = sched::OpGraph::new();
        for b in 0..n.div_ceil(per) {
            graph.add_node((), None);
            let mut after: Vec<usize> = Vec::new();
            for (d, _) in of_batch(b).flat_map(|idx| depends_of(geo, items, idx)) {
                if d / per != b && !after.contains(&(d / per)) {
                    after.push(d / per);
                    graph.add_edge(d / per, b);
                }
            }
        }

        // What the batch ops hand each other: which items are done, and the
        // output of each item a later one depends on, with its remaining
        // consumers. An item missing a source or a dependency is skipped
        // inside its batch, which matches what the rebuild loop expects of any
        // item that does not finish the round: it re-plans it.
        let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let outputs: Vec<Mutex<(Option<Vec<u8>>, usize)>> =
            uses.iter().map(|&u| Mutex::new((None, u))).collect();
        let decoded: Mutex<Inputs> = Mutex::default();
        let unreadable: Mutex<Vec<(ChunkAddr, DeviceError)>> = Mutex::new(Vec::new());
        let readers: Vec<RetryReader<'_, B>> = self
            .devices()
            .iter()
            .map(|dev| RetryReader::new(dev, RETRY))
            .collect();
        // One run-staging buffer per worker (the serial walk is worker 0).
        let staging: Vec<Mutex<Vec<u8>>> = (0..workers.max(1)).map(|_| Mutex::default()).collect();
        let wb = self.begin_writeback(plan, regions, obs, tick);
        let pool = &wb.pool;

        let batch = |w: usize, b: usize| {
            let span = of_batch(b);
            let began = Instant::now();
            let reads = batch_reads(&items[span.clone()]);
            obs.stages.coalesce.record_duration(began.elapsed());
            // Slot `s` receives the batch's `s`-th read; one left empty
            // (unreadable, or its disk dead) costs its item.
            let mut slots: Vec<Vec<u8>> = vec![Vec::new(); reads.len()];
            let mut failed = Vec::new();
            let mut delivered = 0;
            let mut dead = lock(&wb.dead).clone();
            let live = reads.iter().filter(|r| !dead.contains(&r.1.disk)).count();
            self.qos().throttle_rebuild(live);
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
            obs.progress.add_bytes_read((delivered * chunk_size) as u64);
            if !failed.is_empty() {
                lock(&unreadable).append(&mut failed);
            }

            let mut inputs: Inputs = Vec::new();
            let mut values: Vec<(usize, Vec<u8>)> = Vec::with_capacity(span.len());
            let mut combined: Vec<Duration> = Vec::with_capacity(span.len());
            let mut next = 0;
            for idx in span {
                let mut ready =
                    depends_of(geo, items, idx).all(|(d, _)| done[d].load(Ordering::Acquire));
                for &addr in &items[idx].reads {
                    let bytes = std::mem::take(&mut slots[next]);
                    next += 1;
                    if bytes.is_empty() {
                        ready = false;
                    } else {
                        inputs.push((addr, bytes));
                    }
                }
                if !ready {
                    inputs.drain(..).for_each(|(_, bytes)| pool.put(bytes));
                    continue;
                }
                // Fold dependency outputs in, keyed by the dep's lost
                // address; the last consumer (use count under the slot
                // lock) moves instead of cloning.
                for (d, _) in depends_of(geo, items, idx).filter(|(_, sibling)| !sibling) {
                    let mut slot = lock(&outputs[d]);
                    slot.1 -= 1;
                    let out = if slot.1 == 0 {
                        slot.0.take()
                    } else {
                        slot.0.clone()
                    };
                    inputs.push((items[d].lost, out.expect("dependency completed")));
                }
                let began = Instant::now();
                let value = combine(geo, code, items[idx].lost, &mut inputs, &decoded, pool);
                inputs.drain(..).for_each(|(_, bytes)| pool.put(bytes));
                combined.push(began.elapsed());
                if uses[idx] > 0 {
                    lock(&outputs[idx]).0 = Some(value.clone());
                }
                done[idx].store(true, Ordering::Release);
                values.push((idx, value));
            }
            // Recorded back to back: the histogram's cache line crosses to
            // this core once per batch, not once per chunk.
            for took in combined {
                obs.stages.combine.record_duration(took);
                obs.progress.chunk_combined();
            }
            let landing: Vec<(usize, &[u8])> = values.iter().map(|(i, v)| (*i, &v[..])).collect();
            self.writeback_chunks(&wb, &landing);
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
            done.iter().all(|d| d.load(Ordering::Acquire))
                || !unreadable.is_empty()
                || !lock(&wb.dead).is_empty(),
            "a fault-free round completes every item"
        );
        wb.into_output(unreadable, &readers, workers, worker_busy, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The single-XOR-erasure shortcut of [`combine`] against the row code
    /// it stands in for: random rows of random widths, every unit lost in
    /// turn (payload and parity alike), bit-identical to
    /// `XorParity::reconstruct` — and the sources it did not consume are
    /// still the caller's.
    #[test]
    fn a_single_xor_erasure_combines_to_what_the_row_code_reconstructs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x28);
        for (g, chunk) in [(3usize, 64usize), (5, 48), (7, 4096)] {
            let array = crate::OiRaid::new(OiRaidConfig::new(bibd::fano(), g, 1).unwrap()).unwrap();
            let (geo, pool) = (array.geometry(), BufPool::new(chunk));
            let code = ecc::XorParity::new(g - 1).unwrap();
            for _ in 0..20 {
                let grp = rng.gen_range(0..geo.v);
                let row = rng.gen_range(0..geo.chunks_per_disk);
                let payload: Vec<Vec<u8>> = (1..g)
                    .map(|_| (0..chunk).map(|_| rng.gen::<u32>() as u8).collect())
                    .collect();
                let parity = code.encode(&payload).unwrap();
                let ordered: Vec<ChunkAddr> = geo
                    .row_payload(grp, row)
                    .into_iter()
                    .chain(geo.inner_parities_of_row(grp, row))
                    .collect();
                let units: Vec<Vec<u8>> = payload.into_iter().chain(parity).collect();
                for lost in 0..g {
                    let mut want: Vec<Option<Vec<u8>>> = units.iter().cloned().map(Some).collect();
                    want[lost] = None;
                    code.reconstruct(&mut want).unwrap();
                    let mut inputs: Inputs = (0..g)
                        .filter(|&u| u != lost)
                        .map(|u| (ordered[u], units[u].clone()))
                        .collect();
                    // Gather order is not unit order.
                    inputs.rotate_left(rng.gen_range(0..g - 1));
                    let decoded = Mutex::default();
                    let got = combine(geo, &code, ordered[lost], &mut inputs, &decoded, &pool);
                    assert_eq!(Some(&got), want[lost].as_ref(), "g {g}, unit {lost}");
                    assert_eq!(got, units[lost]);
                    assert_eq!(inputs.len(), g - 2, "one source became the value");
                    assert!(lock(&decoded).is_empty(), "nothing parked for siblings");
                }
            }
        }
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
            let plan = single_failure_plan(dag.array(), 7, SparePolicy::Distributed, strategy);
            let plan = plan.unwrap();
            let per = batch_items(16, plan.items().len(), rd.workers);
            let batches = plan.items().len().div_ceil(per);
            assert_eq!(rd.sched.executed, batches as u64);
            assert!(rd.sched.max_inflight >= 1);
            assert_eq!(rs.sched, sched::SchedStats::default());
        }
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
    fn dual_parity_double_failure_in_group() {
        let cfg = OiRaidConfig::new(bibd::fano(), 5, 1)
            .unwrap()
            .with_inner_parities(2)
            .unwrap();
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let store = OiRaidStore::new(cfg.clone(), 8).unwrap();
            for idx in 0..store.data_chunks() {
                let chunk: Vec<u8> = (0..8).map(|j| (idx * 61 + j * 19 + 7) as u8).collect();
                store.write_data(idx, &chunk).unwrap();
            }
            let reference = store.clone();
            // Two failures inside one group: exercises the RAID6 row decode.
            for d in [5, 6] {
                store.fail_disk(d).unwrap();
            }
            store.rebuild(mode, RecoveryStrategy::Hybrid).unwrap();
            assert!(store.check_parity().is_empty(), "{mode}");
            for d in [5, 6] {
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
        let plan = single_failure_plan(
            store.array(),
            target,
            SparePolicy::Distributed,
            RecoveryStrategy::Hybrid,
        )
        .unwrap();
        let regions = store.plan_regions(&plan);
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
        let wb = store.begin_writeback(&plan, &regions, &obs, Some(&tick));
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
                    s.spawn(move || {
                        start.wait();
                        for idx in (0..PASSES).flat_map(|_| (t..n).step_by(THREADS)) {
                            store.writeback_chunks(wb, &[(idx, &[idx as u8; 16])]);
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
                let plan = single_failure_plan(
                    store.array(),
                    target,
                    SparePolicy::Distributed,
                    RecoveryStrategy::Outer,
                )
                .unwrap();
                let lost = plan.items().len();
                let bound = WORKERS * (3 * BATCH_BYTES + (128 << 10)) / chunk;
                assert!(lost > 2 * bound, "the plan dwarfs the bound: {lost} items");
                let regions = store.plan_regions(&plan);
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

    /// A batch's writeback holds the union of its items' footprints: on the
    /// serving geometry (4 KiB chunks, sixteen items a batch) that stays
    /// under the 96 lock stripes one full foreground write group may hold.
    #[test]
    fn a_batch_locks_no_more_stripes_than_a_write_group() {
        let cfg = OiRaidConfig::new(bibd::fano(), 3, 256).unwrap();
        let store = OiRaidStore::new(cfg, 1).unwrap();
        for strategy in RecoveryStrategy::ALL {
            let plan = single_failure_plan(store.array(), 4, SparePolicy::Distributed, strategy);
            let plan = plan.unwrap();
            let regions = store.plan_regions(&plan);
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

    /// A filled 21-disk store whose single-disk Outer plan (72 items of
    /// 64 B) runs in sixteen-item batches on a one-worker pool, over
    /// devices made by `wrap`.
    fn batch_fixture<B: BlockDevice>(wrap: impl Fn(MemDevice) -> B) -> OiRaidStore<B> {
        let cfg = OiRaidConfig::new(bibd::fano(), 3, 8).unwrap();
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

    fn batch_plan<B: BlockDevice>(store: &OiRaidStore<B>) -> RecoveryPlan {
        let plan = single_failure_plan(
            store.array(),
            BATCH_TARGET,
            SparePolicy::Distributed,
            RecoveryStrategy::Outer,
        )
        .unwrap();
        assert_eq!(batch_items(64, plan.items().len(), 1), BATCH_ITEMS);
        plan
    }

    /// Fails [`BATCH_TARGET`], opens the window, lets `arm` stage a fault,
    /// runs one round of `plan` and returns its output with the window's
    /// valid set as the round left it.
    fn batch_round<B: BlockDevice>(
        store: &OiRaidStore<B>,
        plan: &RecoveryPlan,
        mode: RebuildMode,
        arm: impl FnOnce(&OiRaidStore<B>),
    ) -> (RoundOutput, BTreeSet<ChunkAddr>) {
        let regions = store.plan_regions(plan);
        let obs = crate::RebuildObserver::default();
        store.fail_disk(BATCH_TARGET).unwrap();
        store.online().begin([BATCH_TARGET]);
        store.devices()[BATCH_TARGET].heal().unwrap();
        arm(store);
        let out = store.execute_round(mode, plan, &regions, &obs, None);
        let (_, valid) = store.online().valid_snapshot().expect("window open");
        store.online().end();
        (out, valid.into_iter().collect())
    }

    #[test]
    fn a_source_that_stays_unreadable_costs_its_items_not_their_batch() {
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let store = batch_fixture(|mem| FaultInjectingDevice::new(mem, FaultConfig::default()));
            let plan = batch_plan(&store);
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
            let (out, valid) = batch_round(&store, &plan, mode, |_| {});
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

    #[test]
    fn a_dirtied_relation_skips_its_items_and_the_rest_of_the_batch_lands() {
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let store = batch_fixture(|mem| mem);
            let plan = batch_plan(&store);
            let regions = store.plan_regions(&plan);
            // A relation of one item of the second batch, dirtied after the
            // round's epoch began.
            let relation = regions.of(BATCH_ITEMS + 3)[0];
            let holds = |idx: usize| regions.of(idx).contains(&relation);
            let (out, valid) = batch_round(&store, &plan, mode, |store| {
                store.online().mark_dirty([relation]);
            });
            let n = plan.items().len();
            let skipped = (0..n).filter(|&idx| holds(idx)).count();
            assert!((1..BATCH_ITEMS).contains(&skipped), "{mode}: {skipped}");
            assert_eq!(out.dirty_skips as usize, skipped, "{mode}");
            let expected: BTreeSet<ChunkAddr> = (0..n)
                .filter(|&idx| !holds(idx))
                .map(|idx| plan.items()[idx].lost)
                .collect();
            let written: BTreeSet<ChunkAddr> = out.written.iter().copied().collect();
            assert_eq!(written, expected, "{mode}");
            assert_eq!(valid, expected, "{mode}");
        }
    }

    /// A write paused after its data member and before its parity members
    /// (holding its region locks) while a round clears the dirty set and
    /// reads that relation — torn: new data, old parity. The round's read
    /// releases the write, which marks the relation dirty before the
    /// batch's writeback can take its locks, so the item is skipped, not
    /// landed from the torn read; a rebuild then converges exactly.
    #[test]
    fn a_write_straddling_a_rounds_dirty_reset_is_skipped_not_clobbered() {
        use crate::store::tests::HookedDevice;
        use std::sync::mpsc;
        let wait = Duration::from_secs(10);
        let store = batch_fixture(HookedDevice::new);
        let plan = batch_plan(&store);
        let regions = store.plan_regions(&plan);
        // A data source of the first item: read before any writeback.
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
            on_release
                .recv_timeout(wait)
                .expect("the round read the source");
        };
        let dev = &store.devices()[addr.disk];
        *dev.write_hook.lock().unwrap() = Some((addr.offset, 0, Box::new(pause)));
        let out = std::thread::scope(|scope| {
            let writer = scope.spawn(|| store.write_data(idx, &expect[idx]));
            on_pause
                .recv_timeout(wait)
                .expect("the write reached its data member");
            let read = move || release.send(()).unwrap();
            *dev.hook.lock().unwrap() = Some((addr.offset, 0, Box::new(read)));
            // The round as `rebuild_inner` runs it.
            store.online().begin([BATCH_TARGET]);
            store.devices()[BATCH_TARGET].heal().unwrap();
            store.online().clear_dirty();
            let obs = crate::RebuildObserver::default();
            let out = store.execute_round(RebuildMode::Serial, &plan, &regions, &obs, None);
            writer.join().unwrap().unwrap();
            out
        });
        assert!(out.dirty_skips >= 1, "{} dirty skips", out.dirty_skips);
        assert!(!out.written.contains(&plan.items()[0].lost));
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(store.read_data(i).unwrap(), *want, "in the window, idx {i}");
        }
        store.online().end();
        store.fail_disk(BATCH_TARGET).unwrap();
        store
            .rebuild(RebuildMode::Serial, RecoveryStrategy::Hybrid)
            .unwrap();
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(store.read_data(i).unwrap(), *want, "idx {i}");
        }
        assert!(store.check_parity().is_empty());
    }

    #[test]
    fn a_target_dying_mid_batch_lands_what_it_wrote_and_no_more() {
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let store = batch_fixture(|inner| DiesOnWrite {
                inner,
                left: i64::MAX.into(),
            });
            let plan = batch_plan(&store);
            let (out, valid) = batch_round(&store, &plan, mode, |store| {
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
        plan.items()
            .chunks(per)
            .map(|batch| batch_reads(batch).chunk_by(continues_run).count())
            .sum()
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
            let store = batch_fixture(|inner| {
                let disk = disks.replace(disks.get() + 1);
                let log = std::sync::Arc::clone(&log);
                LogsReads { inner, disk, log }
            });
            store.set_dag_workers(Some(2));
            let plan = single_failure_plan(
                store.array(),
                BATCH_TARGET,
                SparePolicy::Distributed,
                strategy,
            );
            let plan = plan.unwrap();
            lock(&log).clear();
            let (out, _) = batch_round(&store, &plan, RebuildMode::Serial, |_| {});
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
            let reference = batch_fixture(|mem| mem);
            reference.set_dag_workers(Some(2));
            let plan = match failed {
                [d] => {
                    single_failure_plan(reference.array(), *d, SparePolicy::Distributed, strategy)
                }
                _ => Layout::recovery_plan(reference.array(), failed, SparePolicy::Distributed),
            };
            let plan = plan.unwrap();
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
            let edges = plan.items().len().div_ceil(per) - 1;
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

    #[test]
    fn fully_transient_disk_is_rerouted_around() {
        // Under the Inner strategy, rebuilding disk 4 reads its row
        // siblings on disks 3 and 5. Disk 3 faults on *every* read (1000‰
        // transient): retry cannot save it, so the engine must re-route
        // every scheduled disk-3 read through alternate read sets — and
        // still finish bit-identical.
        for mode in [RebuildMode::Serial, RebuildMode::Dag] {
            let reference = filled(8);
            let store = filled_faulty(8);
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
