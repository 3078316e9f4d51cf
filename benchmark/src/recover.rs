//! The recovery cycle every workload runs: fail one disk, read the data
//! that lived on it (all of it reconstructs), rebuild, and check that the
//! disk's contents came back bit-identical.

use std::sync::Barrier;
use std::time::Instant;

use blockdev::BlockDevice;
use oi_raid::{OiRaidStore, RebuildMode, RebuildReport, RecoveryStrategy};

use crate::calib::{self, Kernel};
use crate::span::{self, Kind};
use crate::workload::{Checker, Env, GROUP};

const MIB: f64 = 1024.0 * 1024.0;

/// Device counters summed over the array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Io {
    pub reads: u64,
    pub writes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl Io {
    pub fn of<B: BlockDevice>(store: &OiRaidStore<B>) -> Io {
        store.devices().iter().fold(Io::default(), |io, dev| {
            let c = dev.counters();
            Io {
                reads: io.reads + c.reads,
                writes: io.writes + c.writes,
                bytes_read: io.bytes_read + c.bytes_read,
                bytes_written: io.bytes_written + c.bytes_written,
            }
        })
    }

    pub fn since(self, earlier: Io) -> Io {
        Io {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
        }
    }

    pub fn plus(self, other: Io) -> Io {
        Io {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
        }
    }
}

pub struct CycleOut {
    /// Wall time of each single-chunk degraded `read_data`, microseconds.
    pub single_us: Vec<f64>,
    pub single_ops_per_s: f64,
    pub degraded_mib_per_s: f64,
    /// Chunks read by `read_data_batch` while degraded.
    pub batch_chunks: u64,
    pub rebuild_mib_per_s: f64,
    /// Wall time of the `rebuild()` call, seconds.
    pub rebuild_s: f64,
    pub report: Option<RebuildReport>,
    /// Device I/O of the two degraded-read phases, and of the rebuild.
    pub degraded_io: Io,
    pub rebuild_io: Io,
    pub attempted: u64,
    pub failed: u64,
    /// The machine's speed by the reference kernel during the degraded
    /// reads, and during the rebuild.
    pub degraded_speed: f64,
    pub rebuild_speed: f64,
}

impl CycleOut {
    /// The cycle's rates and latencies scaled to the speed its bursts saw
    /// (`rebuild_s` stays wall time: it is compared with the report's).
    pub fn normalised(mut self) -> Self {
        self.single_us
            .iter_mut()
            .for_each(|us| *us *= self.degraded_speed);
        self.single_ops_per_s /= self.degraded_speed;
        self.degraded_mib_per_s /= self.degraded_speed;
        self.rebuild_mib_per_s /= self.rebuild_speed;
        self
    }
}

/// Runs `work(thread)` on every client thread from a common start and
/// returns the results with the wall time until the last one finished.
fn on_clients<R: Send>(threads: usize, work: impl Fn(usize) -> R + Sync) -> (Vec<R>, f64) {
    let barrier = Barrier::new(threads);
    let outs: Vec<(R, f64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, work) = (&barrier, &work);
                s.spawn(move || {
                    barrier.wait();
                    let began = Instant::now();
                    let r = work(t);
                    let took = began.elapsed().as_secs_f64();
                    span::flush_local();
                    (r, took)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall = outs.iter().map(|o| o.1).fold(0.0, f64::max);
    (outs.into_iter().map(|o| o.0).collect(), wall)
}

/// Reads `chunks` through `read_data_batch` in batches of `GROUP` dealt
/// round-robin to the client threads and checks every chunk. Returns
/// `(bad chunks, wall seconds)`.
pub fn read_back<B: BlockDevice>(
    store: &OiRaidStore<B>,
    env: &Checker,
    chunks: &[usize],
    kind: Option<Kind>,
) -> (u64, f64) {
    let batches: Vec<&[usize]> = chunks.chunks(GROUP).collect();
    let (bad, wall) = on_clients(env.threads, |t| {
        let mut bad = 0u64;
        for batch in batches.iter().skip(t).step_by(env.threads) {
            let read = || store.read_data_batch(batch);
            let got = match kind {
                Some(kind) => span::root(kind, read),
                None => read(),
            };
            match got {
                Ok(bufs) if bufs.len() == batch.len() => {
                    for (idx, buf) in batch.iter().zip(&bufs) {
                        bad += u64::from(env.chunk_is_bad(*idx, buf));
                    }
                }
                _ => bad += batch.len() as u64,
            }
        }
        bad
    });
    (bad.iter().sum(), wall)
}

/// One fail / degraded-read / rebuild / verify cycle on `disk`, whose
/// data chunks are `chunks`. While the disk is down they are all read
/// twice: one chunk per `read_data` call (the latency a client sees while
/// a disk is down), then in `read_data_batch` calls of `GROUP`. A burst of
/// the reference kernel runs before the reads, between the reads and the
/// rebuild, and after the rebuild.
pub fn cycle<B: BlockDevice>(
    env: &Env<B>,
    kernels: &mut [Kernel],
    disk: usize,
    chunks: &[usize],
) -> CycleOut {
    let chunk_bytes = env.spec.chunk as f64;
    let attempted = 3 * chunks.len() as u64 + 2;
    let mut failed = 0u64;
    if env.store.fail_disk(disk).is_err() {
        failed += 1;
    }
    let (single, batched) = (chunks, chunks);
    let io_start = Io::of(&env.store);
    let speed_start = calib::sample(kernels);

    let (outs, single_wall) = on_clients(env.threads, |t| {
        let mut lat = Vec::new();
        let mut bad = 0u64;
        for idx in single.iter().skip(t).step_by(env.threads) {
            let began = Instant::now();
            let got = span::root(Kind::CallDegradedSingle, || env.store.read_data(*idx));
            lat.push(began.elapsed().as_secs_f64() * 1e6);
            bad += u64::from(!got.is_ok_and(|buf| !env.chunk_is_bad(*idx, &buf)));
        }
        (lat, bad)
    });
    let mut single_us = Vec::with_capacity(single.len());
    for (lat, bad) in outs {
        single_us.extend(lat);
        failed += bad;
    }

    let (bad, batch_wall) = read_back(&env.store, env, batched, Some(Kind::CallDegradedBatch));
    failed += bad;
    let io_degraded = Io::of(&env.store);
    let speed_degraded = calib::sample(kernels);

    let began = Instant::now();
    let report = span::root(Kind::CallRebuild, || {
        env.store.rebuild(RebuildMode::Dag, RecoveryStrategy::Outer)
    });
    let rebuild_s = began.elapsed().as_secs_f64();
    let io_rebuilt = Io::of(&env.store);
    let speed_rebuilt = calib::sample(kernels);
    let report = match report {
        Ok(r) if r.outcome.is_recovered() && r.rebuilt_disks == [disk] => Some(r),
        _ => {
            failed += 1;
            None
        }
    };

    // Bit-identical contents: every data chunk of the rebuilt disk, now
    // read from the disk itself, still matches the acknowledged writes.
    // (Its parity chunks are covered by `check_parity` when the run ends.)
    failed += read_back(&env.store, env, chunks, None).0;

    let disk_bytes = (env.store.devices()[disk].chunks() * env.spec.chunk) as f64;
    CycleOut {
        single_ops_per_s: single.len() as f64 / single_wall,
        single_us,
        degraded_mib_per_s: batched.len() as f64 * chunk_bytes / MIB / batch_wall,
        batch_chunks: batched.len() as u64,
        rebuild_mib_per_s: disk_bytes / MIB / rebuild_s,
        rebuild_s,
        report,
        degraded_io: io_degraded.since(io_start),
        rebuild_io: io_rebuilt.since(io_degraded),
        attempted,
        failed,
        degraded_speed: (speed_start + speed_degraded) / 2.0,
        rebuild_speed: (speed_degraded + speed_rebuilt) / 2.0,
    }
}

/// End-of-run check with the array quiesced: both parity layers hold and
/// every record reads back as last acknowledged. Returns
/// `(attempted, failed)`.
pub fn verify_all<B: BlockDevice>(store: &OiRaidStore<B>, env: &Checker) -> (u64, u64) {
    let chunks: Vec<usize> = (0..env.chunks()).collect();
    let bad_parity = store.check_parity().len() as u64;
    let (bad, _) = read_back(store, env, &chunks, None);
    (chunks.len() as u64 + 1, bad + bad_parity.min(1))
}
