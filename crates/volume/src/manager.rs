//! The volume manager: many virtual volumes over one [`OiRaidStore`],
//! batch-first.
//!
//! # Batching model
//!
//! Requests enter per-shard submission queues (a shard is a slice of the
//! store's chunk space; a record's shard is the chunk its first byte lives
//! on, so all operations on one record always meet in the same shard).
//! Whichever submitting thread acquires a shard's *drain lock* becomes the
//! drainer and serves **everyone's** pending operations — a combining
//! funnel: concurrent submitters to a hot shard merge their work into one
//! store batch instead of contending chunk-by-chunk.
//!
//! Each drain wave (up to `MAX_WAVE` operations, tenants interleaved by
//! their QoS weight) is issued to the store as at most **one coalesced read
//! batch plus one coalesced write batch**:
//!
//! * a read that *follows* a write to the same record within the wave is
//!   absorbed — answered from the pending write's bytes with no I/O at all;
//! * the remaining reads execute first via
//!   [`OiRaidStore::read_data_batch`] (they precede any same-record write
//!   in submission order, so they must observe the pre-wave state);
//! * all writes then commit via [`OiRaidStore::write_bytes_batch`], which
//!   coalesces them into one read-modify-write per touched chunk.
//!
//! This preserves per-record program order, so a batched execution is
//! bit-identical to submitting the same operations one at a time (the
//! property tests in `tests/equivalence.rs` check exactly that, including
//! under failed disks and live rebuild windows).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock, TryLockError};
use std::time::Instant;

use blockdev::{BlockDevice, MemDevice};
use oi_raid::{OiRaidStore, StoreError};
use telemetry::{Histogram, Registry};

use crate::tenant::{Tenant, TenantClass, TenantId};

/// Identifies a volume within one [`VolumeManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VolumeId(usize);

impl VolumeId {
    /// The volume's index (creation order).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors from the volume layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VolumeError {
    /// The volume id does not name a volume of this manager.
    UnknownVolume {
        /// The offending id.
        volume: usize,
    },
    /// The tenant id does not name a tenant of this manager.
    UnknownTenant {
        /// The offending id.
        tenant: usize,
    },
    /// The record index exceeds the volume's record count.
    RecordOutOfRange {
        /// Requested record.
        record: u64,
        /// Records in the volume.
        records: u64,
    },
    /// A write's payload length does not match the volume's record size.
    WrongRecordSize {
        /// Bytes supplied.
        found: usize,
        /// The volume's record size.
        expected: usize,
    },
    /// The store has too little capacity left for the requested volume.
    CapacityExhausted {
        /// Bytes the volume needs.
        needed: u64,
        /// Bytes still unallocated.
        available: u64,
    },
    /// The underlying store failed.
    Store(StoreError),
}

impl fmt::Display for VolumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownVolume { volume } => write!(f, "unknown volume id {volume}"),
            Self::UnknownTenant { tenant } => write!(f, "unknown tenant id {tenant}"),
            Self::RecordOutOfRange { record, records } => {
                write!(f, "record {record} out of range (volume holds {records})")
            }
            Self::WrongRecordSize { found, expected } => {
                write!(f, "record payload of {found} bytes, volume uses {expected}")
            }
            Self::CapacityExhausted { needed, available } => write!(
                f,
                "volume needs {needed} bytes, store has {available} unallocated"
            ),
            Self::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for VolumeError {}

impl From<StoreError> for VolumeError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

/// One operation against a volume, submitted through
/// [`VolumeManager::submit`].
#[derive(Debug, Clone)]
pub enum Op {
    /// Read one whole record.
    Read {
        /// Target volume.
        volume: VolumeId,
        /// Record index within the volume.
        record: u64,
    },
    /// Overwrite one whole record (payload must be exactly the volume's
    /// record size).
    Write {
        /// Target volume.
        volume: VolumeId,
        /// Record index within the volume.
        record: u64,
        /// The new record contents.
        data: Vec<u8>,
    },
}

/// Per-operation outcome: `Some(bytes)` for reads, `None` for writes.
pub type OpResult = Result<Option<Vec<u8>>, VolumeError>;

/// One named volume: a record array carved out of the store's byte space.
#[derive(Debug)]
struct Volume {
    #[allow(dead_code)]
    name: String,
    tenant: TenantId,
    base: u64,
    record_size: usize,
    records: u64,
}

/// A planned (validated, address-resolved) operation waiting in a shard
/// queue.
struct Pending {
    tenant: usize,
    slot: usize,
    batch: Arc<BatchState>,
    /// Volume-and-record key — same-record ordering within a wave.
    key: (usize, u64),
    /// Absolute byte offset in the store.
    offset: u64,
    len: usize,
    /// `Some` for writes, `None` for reads.
    data: Option<Vec<u8>>,
    /// Root trace id when this request was sampled, else 0. Whichever
    /// thread drains the wave links the wave node back to this root.
    trace: u64,
}

/// Shared completion state of one `submit` call. Whoever drains an op
/// fills its slot; the slots are independent (one uncontended lock each)
/// and the count of unfilled ones is an atomic, so a drainer completing the
/// ops of one submitter and that submitter polling [`Self::is_complete`]
/// between waves share no lock. `sleep` + `done` exist only to park the
/// submitter in [`Self::wait`].
struct BatchState {
    results: Vec<Mutex<Option<OpResult>>>,
    /// Slots not yet filled. The `AcqRel` decrement in `fill` and the
    /// `Acquire` loads pair up: whoever reads 0 sees every slot's value.
    remaining: AtomicUsize,
    sleep: Mutex<()>,
    done: Condvar,
    began: Instant,
}

impl BatchState {
    /// `early` are the slots that failed validation: filled here, never
    /// queued, so they do not count as remaining.
    fn new(slots: usize, early: Vec<(usize, VolumeError)>) -> Arc<Self> {
        let remaining = slots - early.len();
        let results: Vec<_> = (0..slots).map(|_| Mutex::new(None)).collect();
        for (slot, e) in early {
            *results[slot].lock().expect("batch slot lock") = Some(Err(e));
        }
        Arc::new(Self {
            results,
            remaining: AtomicUsize::new(remaining),
            sleep: Mutex::new(()),
            done: Condvar::new(),
            began: Instant::now(),
        })
    }

    fn fill(&self, slot: usize, result: OpResult) {
        let previous = self.results[slot]
            .lock()
            .expect("batch slot lock")
            .replace(result);
        debug_assert!(previous.is_none(), "slot filled twice");
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Taking `sleep` orders this wake-up after the waiter's check:
            // it either saw 0 or is already parked on `done`.
            let _parked = self.sleep.lock().expect("batch sleep lock");
            self.done.notify_all();
        }
    }

    fn is_complete(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    fn wait(&self) -> Vec<OpResult> {
        if !self.is_complete() {
            let mut parked = self.sleep.lock().expect("batch sleep lock");
            while !self.is_complete() {
                parked = self.done.wait(parked).expect("batch state wait");
            }
        }
        self.results
            .iter()
            .map(|r| {
                let mut slot = r.lock().expect("batch slot lock");
                slot.take().expect("all slots filled")
            })
            .collect()
    }
}

/// One shard: per-tenant FIFO queues plus the combining drain lock.
struct Shard {
    queues: Mutex<Vec<VecDeque<Pending>>>,
    drain: Mutex<()>,
    /// Running mean of this shard's wave wall time in microseconds (0 until
    /// the first wave). Written by the drainer alone, under `drain`; read
    /// by submitters deciding whether a busy shard is worth waiting for.
    wave_us: AtomicU64,
}

/// A busy shard whose waves last longer than this is waited for in pass 1
/// of `submit` instead of being put off. Skipping a busy shard buys
/// parallelism (two drainers on two shards) at the price of combining (the
/// skipper goes on to drain other shards early, in smaller waves). Where a
/// wave takes a fraction of a millisecond — memory devices, the journaled
/// file store — sleeping on the lock costs as much as the wave and skipping
/// wins (E24). Where a wave takes tens of milliseconds it is the devices
/// that are slow: waiting is free by comparison, big waves are what pays,
/// and parallel drainers make tail latency a lottery (E19c's isolation
/// bound failed one run in three with unconditional skipping).
const PATIENT_ABOVE_US: u64 = 10_000;

/// Most operations one drain wave takes. Larger waves amortize better;
/// smaller waves bound per-wave memory and tail latency.
const MAX_WAVE: usize = 2048;

/// Maps many virtual volumes onto one [`OiRaidStore`] with per-tenant QoS
/// and a batch-first foreground path (see the module docs for the model).
///
/// All methods take `&self`; the manager is meant to be shared across
/// client threads behind an [`Arc`].
pub struct VolumeManager<B: BlockDevice = MemDevice> {
    store: Arc<OiRaidStore<B>>,
    shards: Vec<Shard>,
    tenants: RwLock<Vec<Arc<Tenant>>>,
    volumes: RwLock<Vec<Volume>>,
    /// Next unallocated store byte.
    alloc: Mutex<u64>,
    batches: AtomicU64,
    waves: AtomicU64,
    batch_ops: AtomicU64,
}

impl<B: BlockDevice> VolumeManager<B> {
    /// Wraps `store` with `shards` submission shards (clamped to at least
    /// one). Shard count bounds drain concurrency: submitters to different
    /// shards batch independently.
    pub fn new(store: Arc<OiRaidStore<B>>, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            store,
            shards: (0..shards)
                .map(|_| Shard {
                    queues: Mutex::new(Vec::new()),
                    drain: Mutex::new(()),
                    wave_us: AtomicU64::new(0),
                })
                .collect(),
            tenants: RwLock::new(Vec::new()),
            volumes: RwLock::new(Vec::new()),
            alloc: Mutex::new(0),
            batches: AtomicU64::new(0),
            waves: AtomicU64::new(0),
            batch_ops: AtomicU64::new(0),
        }
    }

    /// The wrapped store.
    pub fn store(&self) -> &Arc<OiRaidStore<B>> {
        &self.store
    }

    /// Registers a tenant; its id is stable for the manager's lifetime.
    pub fn add_tenant(&self, name: &str, class: TenantClass) -> TenantId {
        let mut tenants = self.tenants.write().expect("tenants lock");
        let id = TenantId(tenants.len());
        tenants.push(Arc::new(Tenant::new(id.0, name, class)));
        for shard in &self.shards {
            shard
                .queues
                .lock()
                .expect("shard queues lock")
                .push(VecDeque::new());
        }
        id
    }

    /// Creates a volume of `records` fixed-size records for `tenant`,
    /// carved from the next unallocated store bytes.
    ///
    /// # Errors
    ///
    /// [`VolumeError::UnknownTenant`], [`VolumeError::CapacityExhausted`],
    /// or [`VolumeError::WrongRecordSize`] for a zero record size.
    pub fn create_volume(
        &self,
        tenant: TenantId,
        name: &str,
        record_size: usize,
        records: u64,
    ) -> Result<VolumeId, VolumeError> {
        if record_size == 0 {
            return Err(VolumeError::WrongRecordSize {
                found: 0,
                expected: 1,
            });
        }
        if tenant.0 >= self.tenants.read().expect("tenants lock").len() {
            return Err(VolumeError::UnknownTenant { tenant: tenant.0 });
        }
        let mut alloc = self.alloc.lock().expect("alloc lock");
        let available = self.store.capacity_bytes().saturating_sub(*alloc);
        // `records` is caller input: a product that wrapped would pass the
        // capacity check and alias the next volume's bytes.
        let product = (record_size as u64).checked_mul(records);
        let needed = match product {
            Some(n) if n <= available => n,
            _ => {
                return Err(VolumeError::CapacityExhausted {
                    needed: product.unwrap_or(u64::MAX),
                    available,
                })
            }
        };
        let base = *alloc;
        *alloc += needed;
        drop(alloc);
        let mut volumes = self.volumes.write().expect("volumes lock");
        let id = VolumeId(volumes.len());
        volumes.push(Volume {
            name: name.to_string(),
            tenant,
            base,
            record_size,
            records,
        });
        Ok(id)
    }

    /// Resolves an op to `(tenant, key, offset, len)`.
    fn plan(&self, volume: VolumeId, record: u64, write_len: Option<usize>) -> OpPlan {
        let volumes = self.volumes.read().expect("volumes lock");
        let Some(v) = volumes.get(volume.0) else {
            return Err(VolumeError::UnknownVolume { volume: volume.0 });
        };
        if record >= v.records {
            return Err(VolumeError::RecordOutOfRange {
                record,
                records: v.records,
            });
        }
        if let Some(len) = write_len {
            if len != v.record_size {
                return Err(VolumeError::WrongRecordSize {
                    found: len,
                    expected: v.record_size,
                });
            }
        }
        Ok((
            v.tenant.0,
            (volume.0, record),
            v.base + record * v.record_size as u64,
            v.record_size,
        ))
    }

    /// The shard owning the store byte `offset` (the chunk its record
    /// starts on, so every op on one record lands in the same shard).
    fn shard_of(&self, offset: u64) -> usize {
        (offset / self.store.chunk_size() as u64) as usize % self.shards.len()
    }

    /// Submits a group of operations through the batched path and waits for
    /// all of them. Results are returned in submission order; each slot
    /// carries its own [`OpResult`], so one bad op fails alone.
    ///
    /// Per-record program order is preserved within the submission;
    /// operations on *different* records may be reordered relative to each
    /// other (they are concurrent — any interleaving is a valid
    /// serialization).
    pub fn submit(&self, ops: Vec<Op>) -> Vec<OpResult> {
        self.submit_traced(ops).0
    }

    /// [`Self::submit`], additionally returning each slot's root trace id
    /// (0 where the request was not sampled or failed validation). The ids
    /// key into the global trace ring ([`telemetry::traces`]) — with
    /// sampling at 1 (`OI_RAID_TRACE_SAMPLE=1`) every request's causal
    /// tree down to individual device I/Os is reconstructible from them.
    pub fn submit_traced(&self, ops: Vec<Op>) -> (Vec<OpResult>, Vec<u64>) {
        if ops.is_empty() {
            return (Vec::new(), Vec::new());
        }
        // Validate and resolve every op up front; invalid slots complete
        // immediately.
        let mut planned: Vec<(usize, OpSpec)> = Vec::with_capacity(ops.len());
        let mut early: Vec<(usize, VolumeError)> = Vec::new();
        let mut per_tenant: BTreeMap<usize, u64> = BTreeMap::new();
        let mut trace_ids: Vec<u64> = vec![0; ops.len()];
        for (slot, op) in ops.into_iter().enumerate() {
            let (volume, record, data) = match op {
                Op::Read { volume, record } => (volume, record, None),
                Op::Write {
                    volume,
                    record,
                    data,
                } => (volume, record, Some(data)),
            };
            match self.plan(volume, record, data.as_ref().map(Vec::len)) {
                Ok((tenant, key, offset, len)) => {
                    let trace = telemetry::sample_trace();
                    if trace != 0 {
                        telemetry::trace_event(
                            if data.is_some() {
                                telemetry::EventKind::VolumeWrite
                            } else {
                                telemetry::EventKind::VolumeRead
                            },
                            trace,
                            0,
                            volume.0 as u64,
                            record,
                        );
                        trace_ids[slot] = trace;
                    }
                    *per_tenant.entry(tenant).or_insert(0) += 1;
                    planned.push((
                        slot,
                        OpSpec {
                            tenant,
                            key,
                            offset,
                            len,
                            data,
                            trace,
                        },
                    ));
                }
                Err(e) => early.push((slot, e)),
            }
        }
        let batch = BatchState::new(planned.len() + early.len(), early);
        // Rate caps: each capped tenant pays for its ops *before* they
        // enter the shard queues — a throttled tenant paces itself without
        // holding any shared resource.
        {
            let tenants = self.tenants.read().expect("tenants lock");
            for (&t, &n) in &per_tenant {
                tenants[t].pay(n);
            }
        }
        // Enqueue (one `queues` lock per touched shard), then drain every
        // touched shard. The drain lock makes one thread the combiner for
        // everyone's pending ops, so our ops are served even if another
        // submitter drains them first.
        let mut by_shard: BTreeMap<usize, Vec<Pending>> = BTreeMap::new();
        for (slot, spec) in planned {
            by_shard
                .entry(self.shard_of(spec.offset))
                .or_default()
                .push(Pending {
                    tenant: spec.tenant,
                    slot,
                    batch: Arc::clone(&batch),
                    key: spec.key,
                    offset: spec.offset,
                    len: spec.len,
                    data: spec.data,
                    trace: spec.trace,
                });
        }
        let touched: Vec<usize> = by_shard.keys().copied().collect();
        for (shard, ops) in by_shard {
            let mut queues = self.shards[shard].queues.lock().expect("shard queues lock");
            for p in ops {
                queues[p.tenant].push_back(p);
            }
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        // Pass 1 puts off a shard someone else is draining (unless its
        // waves are long, see `PATIENT_ABOVE_US`), so two submitters that
        // touch the same shards work on different ones instead of queueing
        // behind each other shard by shard. Pass 2 is the blocking visit
        // that liveness rests on (see `drain_shard`).
        let mut busy: Vec<usize> = Vec::new();
        for shard in touched {
            if batch.is_complete() {
                break;
            }
            let s = &self.shards[shard];
            let drain = match s.drain.try_lock() {
                Ok(drain) => drain,
                Err(TryLockError::WouldBlock)
                    if s.wave_us.load(Ordering::Relaxed) < PATIENT_ABOVE_US =>
                {
                    busy.push(shard);
                    continue;
                }
                Err(TryLockError::WouldBlock) => s.drain.lock().expect("shard drain lock"),
                Err(TryLockError::Poisoned(_)) => panic!("shard drain lock poisoned"),
            };
            self.drain_shard(shard, drain, &batch);
        }
        for shard in busy {
            if batch.is_complete() {
                break;
            }
            let drain = self.shards[shard].drain.lock().expect("shard drain lock");
            self.drain_shard(shard, drain, &batch);
        }
        (batch.wait(), trace_ids)
    }

    /// Drains one shard as its combiner (the caller passes the shard's
    /// drain lock, held): pulls weighted waves and issues each as one
    /// coalesced store batch, stopping when the shard is empty or the
    /// caller's own batch has completed.
    ///
    /// What a drainer may assume in each of `submit`'s two passes. In pass 1
    /// it got the lock without waiting, or waited because this shard's waves
    /// are long (`PATIENT_ABOVE_US`); shards it found busy otherwise are
    /// merely put off, nothing is given up. In pass 2 it waits for the
    /// lock, exactly as the single pass used to. In both, its own ops are
    /// already queued, so "shard empty" implies they were served.
    ///
    /// The early exit bounds servitude — under sustained load a drainer is
    /// never stuck serving other submitters' streams forever — without
    /// stranding anything: when we release the lock, either this shard is
    /// empty or every remaining op's own submitter is still on its way
    /// here. Each submitter comes to every shard it touched with a
    /// *blocking* lock — in pass 2, if pass 1 found the shard busy — and
    /// only skips a visit once all its ops are done; a pass-1 visit that
    /// did get the lock ran until the shard was empty or its batch done.
    fn drain_shard(&self, shard: usize, _drain: MutexGuard<'_, ()>, own: &BatchState) {
        let s = &self.shards[shard];
        while !own.is_complete() {
            // One guard per wave serves the weights and the per-tenant
            // latency records; the `Arc`s are not cloned.
            let tenants = self.tenants.read().expect("tenants lock");
            let wave = self.take_wave(s, &tenants);
            if wave.is_empty() {
                return;
            }
            self.waves.fetch_add(1, Ordering::Relaxed);
            self.batch_ops
                .fetch_add(wave.len() as u64, Ordering::Relaxed);
            let began = Instant::now();
            self.execute_wave(wave, &tenants);
            let took = began.elapsed().as_micros() as u64;
            let mean = match s.wave_us.load(Ordering::Relaxed) {
                0 => took,
                mean => (3 * mean + took) / 4,
            };
            s.wave_us.store(mean, Ordering::Relaxed);
        }
    }

    /// Pops up to `MAX_WAVE` ops from a shard's tenant queues, interleaved
    /// by QoS weight (a weight-w tenant contributes up to w ops per
    /// round-robin cycle while its queue lasts).
    fn take_wave(&self, s: &Shard, tenants: &[Arc<Tenant>]) -> Vec<Pending> {
        let mut queues = s.queues.lock().expect("shard queues lock");
        let mut wave = Vec::new();
        let mut any = true;
        while any && wave.len() < MAX_WAVE {
            any = false;
            for (t, q) in queues.iter_mut().enumerate() {
                let weight = tenants.get(t).map_or(1, |t| t.class.weight.max(1));
                let take = (weight as usize).min(MAX_WAVE - wave.len());
                for _ in 0..take {
                    match q.pop_front() {
                        Some(p) => {
                            wave.push(p);
                            any = true;
                        }
                        None => break,
                    }
                }
                if wave.len() >= MAX_WAVE {
                    break;
                }
            }
        }
        wave
    }

    /// Executes one wave: absorb reads-after-writes, batch the remaining
    /// reads, batch all writes, complete every slot.
    fn execute_wave(&self, wave: Vec<Pending>, tenants: &[Arc<Tenant>]) {
        // Fan-in: every sampled request in the wave gets an edge to one
        // shared wave node, and the store batches below execute under that
        // node's context — so a request's tree shows exactly which
        // combined wave served it and what I/O that wave did.
        let wave_node = if wave.iter().any(|p| p.trace != 0) {
            let node = telemetry::alloc_trace_id();
            for (i, p) in wave.iter().enumerate() {
                if p.trace != 0 {
                    telemetry::trace_event(
                        telemetry::EventKind::Wave,
                        node,
                        p.trace,
                        i as u64,
                        wave.len() as u64,
                    );
                }
            }
            node
        } else {
            0
        };
        let _wave_guard = (wave_node != 0).then(|| telemetry::enter_trace(wave_node));
        let cs = self.store.chunk_size() as u64;
        // Pass 1 (submission order): a read that follows a write to the
        // same record is absorbed from the pending write's bytes; earlier
        // reads must see the pre-wave store state.
        let mut last_write: BTreeMap<(usize, u64), usize> = BTreeMap::new();
        // Wave position of an absorbed read -> position of the write it
        // is answered from.
        let mut absorbed: Vec<Option<usize>> = vec![None; wave.len()];
        let mut pre_reads: Vec<usize> = Vec::new();
        let mut write_order: Vec<usize> = Vec::new();
        for (i, p) in wave.iter().enumerate() {
            if p.data.is_some() {
                last_write.insert(p.key, i);
                write_order.push(i);
            } else if let Some(&w) = last_write.get(&p.key) {
                absorbed[i] = Some(w);
            } else {
                pre_reads.push(i);
            }
        }
        // Pass 2: one coalesced chunk-read batch for the pre-reads.
        let mut read_results: BTreeMap<usize, OpResult> = BTreeMap::new();
        if !pre_reads.is_empty() {
            let mut chunk_idxs: Vec<usize> = Vec::new();
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for &i in &pre_reads {
                let p = &wave[i];
                let first = p.offset / cs;
                let last = (p.offset + p.len as u64 - 1) / cs;
                for c in first..=last {
                    if seen.insert(c as usize) {
                        chunk_idxs.push(c as usize);
                    }
                }
            }
            match self.store.read_data_batch(&chunk_idxs) {
                Ok(chunks) => {
                    let by_idx: BTreeMap<usize, Vec<u8>> =
                        chunk_idxs.into_iter().zip(chunks).collect();
                    for &i in &pre_reads {
                        let p = &wave[i];
                        let mut out = Vec::with_capacity(p.len);
                        let mut pos = p.offset;
                        let end = p.offset + p.len as u64;
                        while pos < end {
                            let c = (pos / cs) as usize;
                            let within = (pos % cs) as usize;
                            let take = ((cs as usize) - within).min((end - pos) as usize);
                            let chunk = &by_idx[&c];
                            out.extend_from_slice(&chunk[within..within + take]);
                            pos += take as u64;
                        }
                        read_results.insert(i, Ok(Some(out)));
                    }
                }
                Err(e) => {
                    for &i in &pre_reads {
                        read_results.insert(i, Err(VolumeError::Store(e.clone())));
                    }
                }
            }
        }
        // Pass 3: one coalesced write batch, in submission order (the store
        // applies overlapping ranges last-wins, matching sequential issue).
        let mut write_result: Result<(), StoreError> = Ok(());
        if !write_order.is_empty() {
            let ranges: Vec<(u64, &[u8])> = write_order
                .iter()
                .map(|&i| {
                    let p = &wave[i];
                    (p.offset, p.data.as_deref().expect("write has data"))
                })
                .collect();
            write_result = self.store.write_bytes_batch(&ranges).map(|_| ());
        }
        // Complete every slot and record per-tenant latency/counters.
        let took = |p: &Pending| p.batch.began.elapsed();
        for (i, p) in wave.iter().enumerate() {
            let tenant = &tenants[p.tenant];
            let result: OpResult = if p.data.is_some() {
                tenant.record_write(took(p));
                match &write_result {
                    Ok(()) => Ok(None),
                    Err(e) => Err(VolumeError::Store(e.clone())),
                }
            } else if let Some(r) = read_results.remove(&i) {
                tenant.record_read(took(p));
                r
            } else {
                // Absorbed read.
                tenant.record_read(took(p));
                tenant.absorbed_reads.add(1);
                let w = absorbed[i].expect("read is pre-read, absorbed, or batched");
                Ok(Some(wave[w].data.clone().expect("write has data")))
            };
            p.batch.fill(p.slot, result);
        }
    }

    /// Reads one record through the **unbatched** path (one store call per
    /// op) — the baseline the closed-loop benchmark compares against. QoS
    /// caps and tenant telemetry apply exactly as on the batched path.
    ///
    /// # Errors
    ///
    /// Validation errors as in [`Self::submit`]; store errors pass through.
    pub fn read_record(&self, volume: VolumeId, record: u64) -> Result<Vec<u8>, VolumeError> {
        let (tenant, _, offset, len) = self.plan(volume, record, None)?;
        let trace = telemetry::sample_trace();
        let _guard = (trace != 0).then(|| {
            telemetry::trace_event(
                telemetry::EventKind::VolumeRead,
                trace,
                0,
                volume.0 as u64,
                record,
            );
            telemetry::enter_trace(trace)
        });
        let t = Arc::clone(&self.tenants.read().expect("tenants lock")[tenant]);
        t.pay(1);
        let began = Instant::now();
        let mut buf = vec![0u8; len];
        let result = self.store.read_bytes(offset, &mut buf);
        t.record_read(began.elapsed());
        result.map_err(VolumeError::Store)?;
        Ok(buf)
    }

    /// Writes one record through the **unbatched** path (one store RMW
    /// sequence per op). See [`Self::read_record`].
    ///
    /// # Errors
    ///
    /// Validation errors as in [`Self::submit`]; store errors pass through.
    pub fn write_record(
        &self,
        volume: VolumeId,
        record: u64,
        data: &[u8],
    ) -> Result<(), VolumeError> {
        let (tenant, _, offset, _) = self.plan(volume, record, Some(data.len()))?;
        let trace = telemetry::sample_trace();
        let _guard = (trace != 0).then(|| {
            telemetry::trace_event(
                telemetry::EventKind::VolumeWrite,
                trace,
                0,
                volume.0 as u64,
                record,
            );
            telemetry::enter_trace(trace)
        });
        let t = Arc::clone(&self.tenants.read().expect("tenants lock")[tenant]);
        t.pay(1);
        let began = Instant::now();
        let result = self.store.write_bytes(offset, data);
        t.record_write(began.elapsed());
        result.map_err(VolumeError::Store)
    }

    /// Live handle to a tenant's read-latency histogram (nanoseconds).
    pub fn tenant_read_latency(&self, tenant: TenantId) -> Option<Arc<Histogram>> {
        self.tenants
            .read()
            .expect("tenants lock")
            .get(tenant.0)
            .map(|t| Arc::clone(&t.read_latency))
    }

    /// Live handle to a tenant's write-latency histogram (nanoseconds).
    pub fn tenant_write_latency(&self, tenant: TenantId) -> Option<Arc<Histogram>> {
        self.tenants
            .read()
            .expect("tenants lock")
            .get(tenant.0)
            .map(|t| Arc::clone(&t.write_latency))
    }

    /// Submissions accepted through [`Self::submit`].
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Drain waves issued to the store.
    pub fn waves(&self) -> u64 {
        self.waves.load(Ordering::Relaxed)
    }

    /// Operations that went through the batched path.
    pub fn batch_ops(&self) -> u64 {
        self.batch_ops.load(Ordering::Relaxed)
    }

    /// Registers the volume layer's observable state with a metric
    /// registry as `oi_volume_*` series (snapshot counters + live latency
    /// histograms; call again to refresh the counters).
    pub fn export_metrics(&self, reg: &Registry) {
        reg.gauge("oi_volume_shards", "Submission shards", &[])
            .set(self.shards.len() as i64);
        reg.gauge("oi_volume_volumes", "Volumes carved from the store", &[])
            .set(self.volumes.read().expect("volumes lock").len() as i64);
        for (name, help, value) in [
            (
                "oi_volume_batches_total",
                "Submissions accepted by the batched path",
                self.batches(),
            ),
            (
                "oi_volume_waves_total",
                "Drain waves issued to the store",
                self.waves(),
            ),
            (
                "oi_volume_batch_ops_total",
                "Operations served by the batched path",
                self.batch_ops(),
            ),
        ] {
            reg.counter(name, help, &[]).set(value);
        }
        let tenants = self.tenants.read().expect("tenants lock");
        for t in tenants.iter() {
            let name = t.name.as_str();
            for (metric, help, op, value) in [
                (
                    "oi_volume_requests_total",
                    "Requests served per tenant and op",
                    "read",
                    t.reads.get(),
                ),
                (
                    "oi_volume_requests_total",
                    "Requests served per tenant and op",
                    "write",
                    t.writes.get(),
                ),
            ] {
                reg.counter(metric, help, &[("tenant", name), ("op", op)])
                    .set(value);
            }
            for (metric, help, value) in [
                (
                    "oi_volume_absorbed_reads_total",
                    "Reads answered from a pending batched write without I/O",
                    t.absorbed_reads.get(),
                ),
                (
                    "oi_volume_throttle_waits_total",
                    "Submissions delayed by the tenant's rate cap",
                    t.throttle_waits.load(Ordering::Relaxed),
                ),
                (
                    "oi_volume_throttle_wait_ns_total",
                    "Total time submissions slept for the tenant's rate cap",
                    t.throttle_wait_ns.load(Ordering::Relaxed),
                ),
            ] {
                reg.counter(metric, help, &[("tenant", name)]).set(value);
            }
            reg.register_histogram(
                "oi_volume_request_latency_ns",
                "End-to-end request latency per tenant and op",
                &[("tenant", name), ("op", "read")],
                Arc::clone(&t.read_latency),
            );
            reg.register_histogram(
                "oi_volume_request_latency_ns",
                "End-to-end request latency per tenant and op",
                &[("tenant", name), ("op", "write")],
                Arc::clone(&t.write_latency),
            );
            if let Some(slo) = &t.slo {
                let (rg, rb, wg, wb) = slo.counters();
                for (op, good, bad, snap) in [
                    ("read", rg, rb, slo.snapshot(true)),
                    ("write", wg, wb, slo.snapshot(false)),
                ] {
                    let labels = &[("tenant", name), ("op", op)];
                    reg.register_counter(
                        "oi_slo_good_total",
                        "Requests completing within the tenant's latency objective",
                        labels,
                        good,
                    );
                    reg.register_counter(
                        "oi_slo_bad_total",
                        "Requests completing over the tenant's latency objective",
                        labels,
                        bad,
                    );
                    reg.gauge(
                        "oi_slo_objective_ns",
                        "The tenant's latency objective",
                        labels,
                    )
                    .set(snap.objective_ns.min(i64::MAX as u64) as i64);
                    reg.gauge(
                        "oi_slo_window_good",
                        "Within-objective requests in the burn-rate window",
                        labels,
                    )
                    .set(snap.window_good.min(i64::MAX as u64) as i64);
                    reg.gauge(
                        "oi_slo_window_bad",
                        "Over-objective requests in the burn-rate window",
                        labels,
                    )
                    .set(snap.window_bad.min(i64::MAX as u64) as i64);
                    reg.gauge(
                        "oi_slo_burn_rate_milli",
                        "Windowed bad fraction over error budget, in thousandths",
                        labels,
                    )
                    .set(snap.burn_rate_milli.min(i64::MAX as u64) as i64);
                }
            }
        }
    }
}

/// A validated op before enqueue.
struct OpSpec {
    tenant: usize,
    key: (usize, u64),
    offset: u64,
    len: usize,
    data: Option<Vec<u8>>,
    trace: u64,
}

/// `plan` result alias, for clippy's sake.
type OpPlan = Result<(usize, (usize, u64), u64, usize), VolumeError>;

#[cfg(test)]
mod tests {
    use super::*;
    use oi_raid::OiRaidConfig;

    fn manager(shards: usize) -> VolumeManager {
        let store = Arc::new(OiRaidStore::new(OiRaidConfig::reference(), 16).unwrap());
        VolumeManager::new(store, shards)
    }

    #[test]
    fn create_volume_accounts_capacity_and_validates() {
        let m = manager(4);
        let t = m.add_tenant("a", TenantClass::default());
        assert_eq!(
            m.create_volume(TenantId(9), "x", 8, 1),
            Err(VolumeError::UnknownTenant { tenant: 9 })
        );
        assert!(matches!(
            m.create_volume(t, "x", 0, 1),
            Err(VolumeError::WrongRecordSize { .. })
        ));
        let cap = m.store().capacity_bytes();
        let v = m.create_volume(t, "big", 8, cap / 8).unwrap();
        assert_eq!(v.index(), 0);
        assert!(matches!(
            m.create_volume(t, "overflow", 8, 1),
            Err(VolumeError::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn create_volume_size_overflow_is_rejected_not_wrapped() {
        let m = manager(2);
        let t = m.add_tenant("a", TenantClass::default());
        // 16 * (2^60 + 1) wraps to 16 bytes in 64-bit arithmetic.
        let huge = m.create_volume(t, "huge", 16, (1 << 60) + 1);
        let neighbour = m.create_volume(t, "neighbour", 16, 1).unwrap();
        m.write_record(neighbour, 0, &[0xAA; 16]).unwrap();
        if let Ok(huge) = huge {
            // A wrapped volume's record 1 lands on the neighbour's record 0.
            m.write_record(huge, 1, &[0x55; 16]).unwrap();
        }
        assert!(
            matches!(huge, Err(VolumeError::CapacityExhausted { .. })),
            "{huge:?}"
        );
        assert_eq!(m.read_record(neighbour, 0).unwrap(), vec![0xAA; 16]);
    }

    #[test]
    fn direct_path_roundtrip_and_validation() {
        let m = manager(2);
        let t = m.add_tenant("a", TenantClass::default());
        // Record size 24 straddles the 16-byte chunks.
        let v = m.create_volume(t, "v", 24, 8).unwrap();
        let rec: Vec<u8> = (0..24u8).collect();
        m.write_record(v, 3, &rec).unwrap();
        assert_eq!(m.read_record(v, 3).unwrap(), rec);
        assert_eq!(m.read_record(v, 0).unwrap(), vec![0u8; 24]);
        assert_eq!(
            m.read_record(v, 8),
            Err(VolumeError::RecordOutOfRange {
                record: 8,
                records: 8
            })
        );
        assert_eq!(
            m.write_record(v, 0, &[1, 2, 3]),
            Err(VolumeError::WrongRecordSize {
                found: 3,
                expected: 24
            })
        );
        assert_eq!(
            m.read_record(VolumeId(7), 0),
            Err(VolumeError::UnknownVolume { volume: 7 })
        );
    }

    #[test]
    fn submit_matches_direct_path_bit_for_bit() {
        let batched = manager(3);
        let direct = manager(3);
        let ops_for = |m: &VolumeManager| {
            let t = m.add_tenant("a", TenantClass::default());
            m.create_volume(t, "v", 24, 16).unwrap()
        };
        let vb = ops_for(&batched);
        let vd = ops_for(&direct);
        let rec = |r: u64, tag: u8| -> Vec<u8> { (0..24).map(|i| tag ^ (r as u8) ^ i).collect() };
        // Same op stream down both paths: overlapping records, rewrites.
        let stream: Vec<(u64, u8)> = vec![(0, 1), (5, 2), (0, 3), (11, 4), (5, 5), (15, 6)];
        let mut ops = Vec::new();
        for &(r, tag) in &stream {
            direct.write_record(vd, r, &rec(r, tag)).unwrap();
            ops.push(Op::Write {
                volume: vb,
                record: r,
                data: rec(r, tag),
            });
        }
        for res in batched.submit(ops) {
            assert_eq!(res.unwrap(), None);
        }
        for r in 0..16 {
            assert_eq!(
                batched.read_record(vb, r).unwrap(),
                direct.read_record(vd, r).unwrap(),
                "record {r}"
            );
        }
        assert!(batched.store().check_parity().is_empty());
    }

    #[test]
    fn submit_preserves_per_record_program_order() {
        let m = manager(2);
        let t = m.add_tenant("a", TenantClass::default());
        let v = m.create_volume(t, "v", 16, 4).unwrap();
        // read(0) before any write sees the pre-batch state; read(0) after
        // the second write absorbs the *latest* pending write.
        m.write_record(v, 0, &[7u8; 16]).unwrap();
        let results = m.submit(vec![
            Op::Read {
                volume: v,
                record: 0,
            },
            Op::Write {
                volume: v,
                record: 0,
                data: vec![1u8; 16],
            },
            Op::Write {
                volume: v,
                record: 0,
                data: vec![2u8; 16],
            },
            Op::Read {
                volume: v,
                record: 0,
            },
        ]);
        assert_eq!(results[0].clone().unwrap(), Some(vec![7u8; 16]));
        assert_eq!(results[1].clone().unwrap(), None);
        assert_eq!(results[2].clone().unwrap(), None);
        assert_eq!(results[3].clone().unwrap(), Some(vec![2u8; 16]));
        // The final read was absorbed from the pending write: no extra I/O.
        let tenants = m.tenants.read().unwrap();
        assert_eq!(tenants[0].absorbed_reads.get(), 1);
        // And the store really holds the last write.
        drop(tenants);
        assert_eq!(m.read_record(v, 0).unwrap(), vec![2u8; 16]);
    }

    #[test]
    fn invalid_slots_fail_alone() {
        let m = manager(2);
        let t = m.add_tenant("a", TenantClass::default());
        let v = m.create_volume(t, "v", 16, 2).unwrap();
        let results = m.submit(vec![
            Op::Write {
                volume: v,
                record: 0,
                data: vec![9u8; 16],
            },
            Op::Read {
                volume: v,
                record: 99,
            },
            Op::Write {
                volume: v,
                record: 1,
                data: vec![1, 2, 3],
            },
            Op::Read {
                volume: v,
                record: 0,
            },
        ]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(VolumeError::RecordOutOfRange { record: 99, .. })
        ));
        assert!(matches!(
            results[2],
            Err(VolumeError::WrongRecordSize { found: 3, .. })
        ));
        assert_eq!(results[3].clone().unwrap(), Some(vec![9u8; 16]));
    }

    #[test]
    fn batched_path_survives_failed_disks() {
        let m = manager(4);
        let t = m.add_tenant("a", TenantClass::default());
        let v = m.create_volume(t, "v", 16, 32).unwrap();
        let seed: Vec<Op> = (0..32)
            .map(|r| Op::Write {
                volume: v,
                record: r,
                data: vec![r as u8 + 1; 16],
            })
            .collect();
        for res in m.submit(seed) {
            res.unwrap();
        }
        m.store().fail_disk(0).unwrap();
        m.store().fail_disk(7).unwrap();
        let mixed: Vec<Op> = (0..32)
            .flat_map(|r| {
                [
                    Op::Write {
                        volume: v,
                        record: r,
                        data: vec![0xA0 | (r as u8 & 0xF); 16],
                    },
                    Op::Read {
                        volume: v,
                        record: r,
                    },
                ]
            })
            .collect();
        let results = m.submit(mixed);
        for (i, res) in results.into_iter().enumerate() {
            let res = res.unwrap();
            if i % 2 == 1 {
                let r = i / 2;
                assert_eq!(res, Some(vec![0xA0 | (r as u8 & 0xF); 16]), "record {r}");
            }
        }
        for r in 0..32 {
            assert_eq!(
                m.read_record(v, r).unwrap(),
                vec![0xA0 | (r as u8 & 0xF); 16]
            );
        }
    }

    #[test]
    fn concurrent_submitters_combine() {
        let store = Arc::new(OiRaidStore::new(OiRaidConfig::reference(), 16).unwrap());
        let m = Arc::new(VolumeManager::new(store, 2));
        let t = m.add_tenant("a", TenantClass::default());
        let v = m.create_volume(t, "v", 16, 64).unwrap();
        let threads: Vec<_> = (0..4u8)
            .map(|w| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let ops: Vec<Op> = (0..16u64)
                        .map(|i| Op::Write {
                            volume: v,
                            record: w as u64 * 16 + i,
                            data: vec![w * 16 + i as u8 + 1; 16],
                        })
                        .collect();
                    for res in m.submit(ops) {
                        res.unwrap();
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        for r in 0..64u64 {
            assert_eq!(m.read_record(v, r).unwrap(), vec![r as u8 + 1; 16]);
        }
        assert!(m.store().check_parity().is_empty());
        assert_eq!(m.batch_ops(), 64);
    }

    /// The one measurement `submit` steers by: a shard's mean wave time
    /// puts memory devices far below `PATIENT_ABOVE_US` and devices with
    /// real latency far above it.
    #[test]
    fn wave_time_separates_fast_devices_from_slow_ones() {
        use blockdev::{FaultConfig, FaultInjectingDevice};
        use std::time::Duration;
        fn write<B: BlockDevice>(m: &VolumeManager<B>, v: VolumeId) {
            for res in m.submit(vec![Op::Write {
                volume: v,
                record: 0,
                data: vec![1u8; 16],
            }]) {
                res.unwrap();
            }
        }
        let fast = manager(1);
        let t = fast.add_tenant("a", TenantClass::default());
        let v = fast.create_volume(t, "v", 16, 4).unwrap();
        assert_eq!(fast.shards[0].wave_us.load(Ordering::Relaxed), 0);
        write(&fast, v);
        assert!(fast.shards[0].wave_us.load(Ordering::Relaxed) < PATIENT_ABOVE_US / 4);

        let cfg = OiRaidConfig::reference();
        let spindle = Duration::from_millis(5);
        let devices = (0..cfg.disks())
            .map(|_| {
                FaultInjectingDevice::new(
                    MemDevice::new(16, cfg.chunks_per_disk()),
                    FaultConfig::latency(spindle, spindle),
                )
            })
            .collect();
        let store = Arc::new(OiRaidStore::with_devices(cfg, 16, devices).unwrap());
        let slow = VolumeManager::new(store, 1);
        let t = slow.add_tenant("a", TenantClass::default());
        let v = slow.create_volume(t, "v", 16, 4).unwrap();
        // One chunk write is 4 reads and 4 writes of 5 ms each.
        write(&slow, v);
        assert!(slow.shards[0].wave_us.load(Ordering::Relaxed) > 2 * PATIENT_ABOVE_US);
    }

    #[test]
    fn metrics_export_has_volume_series() {
        let reg = Registry::new();
        let m = manager(2);
        let t = m.add_tenant("tenant-a", TenantClass::weighted(3));
        let v = m.create_volume(t, "v", 16, 4).unwrap();
        m.write_record(v, 0, &[5u8; 16]).unwrap();
        for res in m.submit(vec![Op::Read {
            volume: v,
            record: 0,
        }]) {
            res.unwrap();
        }
        m.export_metrics(&reg);
        let text = reg.prometheus();
        for series in [
            "oi_volume_shards",
            "oi_volume_batches_total",
            "oi_volume_waves_total",
            "oi_volume_batch_ops_total",
            "oi_volume_requests_total",
            "oi_volume_request_latency_ns",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
        assert!(text.contains("tenant-a"));
    }
}
