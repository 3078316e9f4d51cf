//! The five workloads, the array each one runs on, and the seeded op
//! generator. Nothing here is timed except `Env::build`, which is the
//! `setup_s` metric.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use blockdev::{BlockDevice, FlushPolicy};
use oi_raid::{OiRaidConfig, OiRaidStore};
use volume::{Op, TenantClass, VolumeId, VolumeManager};

use crate::oracle::{self, Model, PREFILL_THREAD};
use crate::rng::{Keys, Rng};

/// Ops per `submit` / `read_data_batch` / `write_bytes_batch` call.
pub const GROUP: usize = 64;
/// Group size of the array: Fano (7,3,1) x 3 = 21 disks.
const GROUP_SIZE: usize = 3;
const VOLUMES: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// `MemDevice`, no journal: nothing but our own software.
    Mem,
    /// `FileDevice` under the checkout, journal, `FlushPolicy::PerWave`.
    File,
}

/// How the serving phase calls the product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `VolumeManager::submit` of `GROUP` ops.
    Submit,
    /// One op per `read_record` / `write_record` call.
    Single,
    /// No serving phase: the ops are the single-chunk degraded reads of
    /// the recovery cycles, which take the whole run.
    Recovery,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub chunk: usize,
    pub cycles: usize,
    pub record: usize,
    pub device: Device,
    pub shape: Shape,
    pub write_frac: f64,
    pub zipf: bool,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "serve_mem",
        why: "64-op submits, 70/30 zipf(0.99) 512 B records on MemDevice: volume combining and store batch paths only, the software ceiling",
        chunk: 4096,
        cycles: 256,
        record: 512,
        device: Device::Mem,
        shape: Shape::Submit,
        write_frac: 0.3,
        zipf: true,
    },
    Spec {
        name: "serve_durable",
        why: "same traffic on FileDevice with journal and PerWave flushes: journal append, group commit, pwrite and fsync dominate; must not follow serve_mem",
        chunk: 4096,
        cycles: 256,
        record: 512,
        device: Device::File,
        shape: Shape::Submit,
        write_frac: 0.3,
        zipf: true,
    },
    Spec {
        name: "single_mem",
        why: "same keys and mix, one op per read_record/write_record call: fixed per-request cost with no amortisation, guards the single-op path",
        chunk: 4096,
        cycles: 256,
        record: 512,
        device: Device::Mem,
        shape: Shape::Single,
        write_frac: 0.3,
        zipf: true,
    },
    Spec {
        name: "ingest_mem",
        why: "all writes, uniform keys, whole-chunk 4 KiB records: no dedupe or absorption, every op pays a full two-layer parity update; read-path gains must not move it",
        chunk: 4096,
        cycles: 256,
        record: 4096,
        device: Device::Mem,
        shape: Shape::Submit,
        write_frac: 1.0,
        zipf: false,
    },
    Spec {
        name: "fail_rebuild_mem",
        why: "64 KiB chunks, fail each disk in turn, degraded-read its data, DAG rebuild, verify: rebuild, sched, gf and planning do the work, the volume layer is bypassed",
        chunk: 65536,
        cycles: 64,
        record: 65536,
        device: Device::Mem,
        shape: Shape::Recovery,
        write_frac: 0.0,
        zipf: false,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `--smoke` size: same shape, a few hundred chunks.
    pub fn smoke(mut self) -> Spec {
        self.cycles = if self.shape == Shape::Recovery { 4 } else { 8 };
        self
    }

    pub fn config(&self) -> OiRaidConfig {
        OiRaidConfig::new(bibd::fano(), GROUP_SIZE, self.cycles).expect("Fano x 3 is a valid array")
    }

    pub fn records_per_chunk(&self) -> u64 {
        (self.chunk / self.record) as u64
    }

    /// Consecutive records that share a writer. The single-op path
    /// rewrites a whole chunk around a sub-chunk write without holding a
    /// lock from its read to its write, so two threads writing different
    /// records of one chunk lose one of the updates (this benchmark's
    /// first draft counted 6830 such misses in 2.2 M checks). Until that
    /// is fixed a chunk has one writer there; the batched path coalesces
    /// such writes correctly and keeps one writer per record.
    pub fn write_granule(&self) -> u64 {
        match self.shape {
            Shape::Single => self.records_per_chunk(),
            _ => 1,
        }
    }
}

/// Client threads: `min(nproc, 4)`, reported as `bench.threads`.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// What checking a read needs, kept apart from the array so it outlives
/// it (the durable workload drops and reopens the store).
pub struct Checker {
    pub spec: Spec,
    pub threads: usize,
    pub model: Model,
}

impl Checker {
    /// Data chunks covered by the volumes (all of them).
    pub fn chunks(&self) -> usize {
        (self.model.records() / self.spec.records_per_chunk()) as usize
    }

    /// Whether data chunk `idx` read as `bytes` differs from the
    /// acknowledged state. Only valid while no client is writing.
    pub fn chunk_is_bad(&self, idx: usize, bytes: &[u8]) -> bool {
        let first = idx as u64 * self.spec.records_per_chunk();
        bytes.len() != self.spec.chunk
            || self.model.check_chunk(bytes, first, self.spec.record) != 0
    }
}

/// Makes the device of disk `.0` with `.1` chunks.
pub type MakeDevice<'a, B> = &'a dyn Fn(usize, usize) -> Result<B, String>;

/// One built and prefilled array with its volumes and model.
pub struct Env<B: BlockDevice> {
    pub check: Checker,
    pub store: Arc<OiRaidStore<B>>,
    pub mgr: VolumeManager<B>,
    vols: Vec<VolumeId>,
    per_vol: u64,
    /// Seconds from the first allocation to the array being ready for its
    /// first timed op.
    pub setup_s: f64,
}

impl<B: BlockDevice> std::ops::Deref for Env<B> {
    type Target = Checker;
    fn deref(&self) -> &Checker {
        &self.check
    }
}

impl<B: BlockDevice> Env<B> {
    /// Builds the array over `device(disk)` for each disk (journaled in
    /// `dir` for `Device::File`), carves the volumes and writes every
    /// record once.
    pub fn build(
        spec: Spec,
        threads: usize,
        dir: &Path,
        device: MakeDevice<B>,
    ) -> Result<Self, String> {
        let began = Instant::now();
        let cfg = spec.config();
        let per_disk = cfg.chunks_per_disk();
        let devices = (0..cfg.disks())
            .map(|d| device(d, per_disk))
            .collect::<Result<Vec<B>, String>>()?;
        let store = match spec.device {
            Device::Mem => OiRaidStore::with_devices(cfg, spec.chunk, devices),
            Device::File => {
                OiRaidStore::create_durable_on(cfg, spec.chunk, devices, dir, FlushPolicy::PerWave)
            }
        }
        .map_err(|e| format!("store: {e}"))?;
        // Pinned: the default of 2 x queues = 42 pool threads on a few
        // cores made rebuild throughput swing several-fold between runs.
        store.set_dag_workers(Some(threads));
        let store = Arc::new(store);
        let mgr = VolumeManager::new(Arc::clone(&store), 2 * threads);
        let total = store.data_chunks() as u64 * spec.records_per_chunk();
        if !total.is_multiple_of(VOLUMES) {
            return Err(format!(
                "{total} records do not split into {VOLUMES} volumes"
            ));
        }
        let per_vol = total / VOLUMES;
        let mut vols = Vec::new();
        for t in 0..2 {
            let tenant = mgr.add_tenant(&format!("tenant{t}"), TenantClass::default());
            for v in 0..VOLUMES / 2 {
                let name = format!("vol{t}.{v}");
                vols.push(
                    mgr.create_volume(tenant, &name, spec.record, per_vol)
                        .map_err(|e| format!("volume: {e}"))?,
                );
            }
        }
        let mut env = Self {
            check: Checker {
                spec,
                threads,
                model: Model::new(total, spec.write_granule(), threads),
            },
            store,
            mgr,
            vols,
            per_vol,
            setup_s: 0.0,
        };
        env.prefill()?;
        env.setup_s = began.elapsed().as_secs_f64();
        Ok(env)
    }

    /// Writes every chunk once, whole, in `GROUP`-chunk batches dealt
    /// round-robin to the client threads.
    fn prefill(&self) -> Result<(), String> {
        let chunks = self.chunks() as u64;
        let batches = chunks.div_ceil(GROUP as u64);
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.threads as u64)
                .map(|t| {
                    s.spawn(move || -> Result<(), String> {
                        let mut bufs = vec![vec![0u8; self.spec.chunk]; GROUP];
                        for b in (t..batches).step_by(self.threads) {
                            let first = b * GROUP as u64;
                            let n = (chunks - first).min(GROUP as u64) as usize;
                            for (i, buf) in bufs[..n].iter_mut().enumerate() {
                                self.fill_chunk(buf, first + i as u64);
                            }
                            let writes: Vec<(u64, &[u8])> = bufs[..n]
                                .iter()
                                .enumerate()
                                .map(|(i, buf)| {
                                    ((first + i as u64) * self.spec.chunk as u64, &buf[..])
                                })
                                .collect();
                            self.store
                                .write_bytes_batch(&writes)
                                .map_err(|e| format!("prefill: {e}"))?;
                        }
                        Ok(())
                    })
                })
                .collect();
            workers
                .into_iter()
                .try_for_each(|w| w.join().expect("prefill thread"))
        })
    }

    fn fill_chunk(&self, buf: &mut [u8], chunk: u64) {
        let rpc = self.spec.records_per_chunk();
        for (i, rec) in buf.chunks_exact_mut(self.spec.record).enumerate() {
            oracle::fill(rec, chunk * rpc + i as u64, PREFILL_THREAD, 0);
        }
    }

    /// The volume and in-volume index of global record `record`. Volumes
    /// are carved back to back from byte 0, so global record `r` sits at
    /// store byte `r * record_size`.
    pub fn locate(&self, record: u64) -> (VolumeId, u64) {
        (
            self.vols[(record / self.per_vol) as usize],
            record % self.per_vol,
        )
    }

    /// Data-chunk indices of the chunks that live on each disk.
    pub fn chunks_by_disk(&self) -> Vec<Vec<usize>> {
        let mut by_disk = vec![Vec::new(); self.store.devices().len()];
        for idx in 0..self.chunks() {
            by_disk[self.store.locate(idx).disk].push(idx);
        }
        by_disk
    }
}

/// One generated op: `seq == 0` is a read, anything else the write of
/// that sequence by the record's owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSpec {
    pub record: u64,
    pub seq: u32,
}

/// A client thread's op stream, a function of `(seed, thread)` alone.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: Rng,
    keys: Arc<Keys>,
    thread: u64,
    threads: u64,
    records: u64,
    granule: u64,
    write_frac: f64,
    /// Next write sequence per record (only the owned ones advance).
    next_seq: Vec<u32>,
}

impl Generator {
    /// One generator per client thread, sharing one key table.
    pub fn all(spec: &Spec, records: u64, seed: u64, threads: usize) -> Vec<Generator> {
        let keys = Arc::new(if spec.zipf {
            Keys::zipf(records as usize, 0.99, seed)
        } else {
            Keys::Uniform(records)
        });
        (0..threads as u64)
            .map(|thread| Generator {
                rng: Rng::stream(seed, 1 + thread),
                keys: Arc::clone(&keys),
                thread,
                threads: threads as u64,
                records,
                granule: spec.write_granule(),
                write_frac: spec.write_frac,
                next_seq: vec![1; records as usize],
            })
            .collect()
    }

    pub fn next_op(&mut self) -> OpSpec {
        let key = self.keys.sample(&mut self.rng);
        if self.rng.unit() >= self.write_frac {
            return OpSpec {
                record: key,
                seq: 0,
            };
        }
        // A write goes to the sampled key's counterpart in the nearest
        // granule this thread owns, so every record keeps a single writer.
        let granule = key / self.granule;
        let owned = granule - granule % self.threads + self.thread;
        let mut record = owned * self.granule + key % self.granule;
        if record >= self.records {
            record -= self.threads * self.granule;
        }
        let slot = &mut self.next_seq[record as usize];
        let seq = *slot;
        *slot += 1;
        OpSpec { record, seq }
    }
}

/// `bench.input_hash`: 48 bits (exact in a JSON number) over the first
/// 4096 ops of every thread's stream.
pub fn input_hash(spec: &Spec, records: u64, seed: u64, threads: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for mut g in Generator::all(spec, records, seed, threads) {
        for _ in 0..4096 {
            let op = g.next_op();
            for word in [op.record, op.seq as u64] {
                h = (h ^ word).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    (h ^ h >> 48) & ((1 << 48) - 1)
}

/// One call's worth of ops with the compact copy kept for verification
/// (`submit` consumes the ops).
pub struct Group {
    pub ops: Vec<Op>,
    pub shadow: Vec<OpSpec>,
}

impl<B: BlockDevice> Env<B> {
    pub fn make_group(&self, gen: &mut Generator, thread: u16) -> Group {
        let shadow: Vec<OpSpec> = (0..GROUP).map(|_| gen.next_op()).collect();
        let ops = shadow
            .iter()
            .map(|s| {
                let (volume, record) = self.locate(s.record);
                if s.seq == 0 {
                    Op::Read { volume, record }
                } else {
                    Op::Write {
                        volume,
                        record,
                        data: oracle::payload(self.spec.record, s.record, thread, s.seq),
                    }
                }
            })
            .collect();
        Group { ops, shadow }
    }
}

/// Where a run keeps its files: under the benchmark's own directory in
/// the checkout, so nothing outside the checkout is read or written.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_op_stream() {
        let spec = Spec::by_name("serve_mem").unwrap();
        let ops = |seed, thread| -> Vec<OpSpec> {
            let mut g = Generator::all(&spec, 5000, seed, 2).swap_remove(thread);
            (0..2000).map(|_| g.next_op()).collect()
        };
        assert_eq!(ops(1, 0), ops(1, 0));
        assert_ne!(ops(1, 0), ops(2, 0));
        assert_ne!(ops(1, 0), ops(1, 1));
        assert_eq!(input_hash(&spec, 5000, 1, 2), input_hash(&spec, 5000, 1, 2));
        assert_ne!(input_hash(&spec, 5000, 1, 2), input_hash(&spec, 5000, 2, 2));
        assert!(input_hash(&spec, 5000, 1, 2) < 1 << 48);
    }

    #[test]
    fn writes_stay_with_their_owner_and_count_up() {
        for spec in [
            Spec::by_name("serve_mem").unwrap(),
            Spec::by_name("single_mem").unwrap(),
        ] {
            for thread in 0..3u64 {
                let mut g = Generator::all(&spec, 1000, 9, 3).swap_remove(thread as usize);
                let mut last = std::collections::BTreeMap::new();
                let mut writes = 0;
                for _ in 0..5000 {
                    let op = g.next_op();
                    assert!(op.record < 1000);
                    if op.seq != 0 {
                        writes += 1;
                        assert_eq!(
                            oracle::owner(op.record, spec.write_granule(), 3) as u64,
                            thread
                        );
                        let prev = last.insert(op.record, op.seq).unwrap_or(0);
                        assert_eq!(op.seq, prev + 1);
                    }
                }
                assert!((1200..1800).contains(&writes), "30% writes, got {writes}");
            }
        }
    }

    #[test]
    fn workload_names_are_the_contract() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            [
                "serve_mem",
                "serve_durable",
                "single_mem",
                "ingest_mem",
                "fail_rebuild_mem"
            ]
        );
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{}", w.name);
            assert_eq!(w.chunk % w.record, 0);
        }
    }
}
