//! The one prefilled array and the one closed-loop driver the byte-store
//! experiments share: E13–E18 build their stores here, E19–E22 also run
//! their zipfian record workload here, each naming only what differs —
//! the device stack, the journal and flush policy, the clients, the
//! group size, who may stop the loop.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blockdev::{BlockDevice, FaultConfig, FaultInjectingDevice, FlushPolicy, MemDevice};
use oi_raid::{OiRaidConfig, OiRaidStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use volume::{Op, TenantClass, TenantId, VolumeId, VolumeManager, Zipf};

/// Bytes per record of the closed-loop volumes.
const RECORD: usize = 512;
/// Share of closed-loop ops that are reads.
const READ_FRAC: f64 = 0.7;
/// Skew of the closed loop's record popularity (YCSB's default).
const THETA: f64 = 0.99;

/// Writes the experiments' recognisable pattern to every data chunk.
pub(crate) fn prefill<B: BlockDevice>(store: &OiRaidStore<B>) {
    let chunk_size = store.chunk_size();
    for idx in 0..store.data_chunks() {
        let chunk: Vec<u8> = (0..chunk_size)
            .map(|j| (idx * 131 + j * 17 + 3) as u8)
            .collect();
        store.write_data(idx, &chunk).expect("prefill write");
    }
}

/// A prefilled store over `device(disk, chunks per disk)` members, with a
/// fresh journal in `journal`'s directory under its flush policy if given.
pub(crate) fn prefilled_store<B: BlockDevice>(
    cfg: &OiRaidConfig,
    chunk_size: usize,
    device: impl Fn(usize, usize) -> B,
    journal: Option<(&Path, FlushPolicy)>,
) -> OiRaidStore<B> {
    let devices = (0..cfg.disks())
        .map(|d| device(d, cfg.chunks_per_disk()))
        .collect();
    let store = match journal {
        Some((dir, policy)) => {
            OiRaidStore::create_durable_on(cfg.clone(), chunk_size, devices, dir, policy)
        }
        None => OiRaidStore::with_devices(cfg.clone(), chunk_size, devices),
    }
    .expect("valid devices");
    prefill(&store);
    store
}

/// A prefilled memory-backed store whose members charge `read_latency` per
/// read from the start. Read latency only: filling the store does reads
/// too, and write latency would just slow every mode compared identically.
pub(crate) fn slow_read_store(
    cfg: &OiRaidConfig,
    chunk_size: usize,
    read_latency: Duration,
) -> OiRaidStore<FaultInjectingDevice<MemDevice>> {
    let slow = FaultConfig::latency(read_latency, Duration::ZERO);
    let device = |_, chunks| FaultInjectingDevice::new(MemDevice::new(chunk_size, chunks), slow);
    prefilled_store(cfg, chunk_size, device, None)
}

/// Switches the spindle delay on, reads and writes alike — after a prefill
/// that ran without it.
pub(crate) fn spindles_on<B: BlockDevice>(
    store: &OiRaidStore<FaultInjectingDevice<B>>,
    latency: Duration,
) {
    for dev in store.devices() {
        dev.set_config(FaultConfig::latency(latency, latency));
    }
}

/// A volume manager over `store` with one equal-sized volume per tenant.
#[allow(clippy::type_complexity)]
pub(crate) fn volumes<B: BlockDevice>(
    store: OiRaidStore<B>,
    shards: usize,
    tenants: &[(&str, TenantClass)],
) -> (Arc<VolumeManager<B>>, Vec<(TenantId, VolumeId)>, u64) {
    let records = store.capacity_bytes() / RECORD as u64 / tenants.len() as u64;
    let mgr = Arc::new(VolumeManager::new(Arc::new(store), shards));
    let ids = tenants
        .iter()
        .map(|(name, class)| {
            let t = mgr.add_tenant(name, *class);
            let v = mgr
                .create_volume(t, name, RECORD, records)
                .expect("volume fits");
            (t, v)
        })
        .collect();
    (mgr, ids, records)
}

/// One closed loop: `workers` threads share `clients` logical clients (one
/// rng stream each); each turn a worker collects one op from each of its
/// next `group` clients and issues the group — one `submit` when
/// `batched`, one manager call per op when not.
pub(crate) struct LoopSpec<'a> {
    pub tenant: TenantId,
    pub vol: VolumeId,
    /// Records of `vol` the zipf(0.99) popularity ranges over.
    pub records: u64,
    pub total_ops: usize,
    pub clients: usize,
    pub group: usize,
    pub batched: bool,
    /// Decorrelates the phases of one experiment.
    pub seed: u64,
    pub zipf_seed: u64,
    /// Lets another tenant's loop stop this one early.
    pub done: Option<&'a AtomicBool>,
    pub workers: usize,
}

/// What a closed loop did; latencies (ns) are the tenant's histograms.
pub(crate) struct LoopResult {
    pub ops: usize,
    pub wall: Duration,
    pub read_p50: u64,
    pub read_p99: u64,
    pub read_p999: u64,
    pub write_p99: u64,
}

impl LoopResult {
    pub(crate) fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

pub(crate) fn closed_loop<B: BlockDevice>(
    mgr: &Arc<VolumeManager<B>>,
    spec: &LoopSpec<'_>,
) -> LoopResult {
    let &LoopSpec {
        tenant,
        vol,
        total_ops,
        clients,
        group,
        seed,
        workers,
        ..
    } = spec;
    let zipf = Zipf::scrambled(spec.records as usize, THETA, spec.zipf_seed);
    let read_latency = mgr.tenant_read_latency(tenant).expect("tenant exists");
    let before_read = read_latency.snapshot().count;
    let began = Instant::now();
    let ops_done: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let zipf = &zipf;
                s.spawn(move || {
                    let per_worker = (total_ops / workers).max(1);
                    let my_clients = (clients / workers).max(1);
                    let mut rngs: Vec<StdRng> = (0..my_clients.min(per_worker))
                        .map(|c| StdRng::seed_from_u64(seed ^ ((w * my_clients + c) as u64)))
                        .collect();
                    let mut next = 0usize;
                    let mut issued = 0usize;
                    while issued < per_worker {
                        if spec.done.is_some_and(|d| d.load(Ordering::Relaxed)) {
                            break;
                        }
                        let n = group.min(per_worker - issued);
                        let mut ops = Vec::with_capacity(n);
                        for _ in 0..n {
                            let n_clients = rngs.len();
                            let rng = &mut rngs[next];
                            next = (next + 1) % n_clients;
                            let record = zipf.sample(rng) as u64;
                            if rng.gen::<f64>() < READ_FRAC {
                                ops.push(Op::Read {
                                    volume: vol,
                                    record,
                                });
                            } else {
                                let tag = (rng.next_u64() & 0xFF) as u8;
                                ops.push(Op::Write {
                                    volume: vol,
                                    record,
                                    data: vec![tag; RECORD],
                                });
                            }
                        }
                        if spec.batched {
                            for res in mgr.submit(ops) {
                                res.expect("batched op");
                            }
                        } else {
                            for op in ops {
                                match op {
                                    Op::Read { record, .. } => {
                                        mgr.read_record(vol, record).expect("direct read");
                                    }
                                    Op::Write { record, data, .. } => {
                                        mgr.write_record(vol, record, &data).expect("direct write");
                                    }
                                }
                            }
                        }
                        issued += n;
                    }
                    issued
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).sum()
    });
    let wall = began.elapsed();
    let reads = read_latency.snapshot();
    let writes = mgr
        .tenant_write_latency(tenant)
        .expect("tenant exists")
        .snapshot();
    assert!(reads.count > before_read, "closed loop made no reads");
    LoopResult {
        ops: ops_done,
        wall,
        read_p50: reads.p50(),
        read_p99: reads.p99(),
        read_p999: reads.p999(),
        write_p99: writes.p99(),
    }
}
