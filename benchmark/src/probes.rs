//! Isolated probes: one layer's public functions timed alone, on one
//! thread, on inputs shaped like the workload's. Each value is the median
//! of `ROUNDS` timed rounds. They give the unit costs the `budget.*`
//! shares are built from.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use blockdev::journal::crc32;
use blockdev::{BlockDevice, FileDevice, FlushPolicy, Journal, MemDevice, MemberWrite};
use gf::kernels::{xor_acc, MulTable};
use layout::SparePolicy;
use oi_raid::{OiRaid, OiRaidStore, RecoveryStrategy};
use sched::{OpGraph, OpStatus, SchedMetrics};
use volume::Op;

use crate::rng::Rng;
use crate::span::NoSync;
use crate::stats::median;
use crate::workload::{Device, Env, Generator, Shape, Spec, GROUP};

const ROUNDS: usize = 15;
const GIB: f64 = (1u64 << 30) as f64;
const MIB: f64 = (1u64 << 20) as f64;

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Seconds `f` took.
fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let began = Instant::now();
    black_box(f());
    began.elapsed().as_secs_f64()
}

/// Median of `ROUNDS` calls of `round`, which returns the seconds its
/// timed part took.
fn rounds(mut round: impl FnMut() -> f64) -> f64 {
    median(&(0..ROUNDS).map(|_| round()).collect::<Vec<_>>())
}

/// Turns a probe's collected failure flag into its result.
fn done(what: &str, failed: bool) -> Result<(), String> {
    if failed {
        Err(format!("{what} probe: a call failed"))
    } else {
        Ok(())
    }
}

/// XOR and GF(2^8) multiply-accumulate rates over a 1 MiB ring of
/// chunk-sized buffers (beyond the L1 cache, as chunks in a batch are).
fn gf_probes(out: &mut Layers, spec: &Spec) {
    let rate = |n: usize, f: &dyn Fn(&mut [u8], &[u8])| -> f64 {
        let ring: Vec<Vec<u8>> = (0..(1 << 20) / n)
            .map(|i| vec![i as u8 ^ 0x5a; n])
            .collect();
        let mut dst = vec![0u8; n];
        let s = rounds(|| {
            timed(|| {
                for src in &ring {
                    f(&mut dst, black_box(src));
                }
            })
        });
        black_box(&dst);
        (ring.len() * n) as f64 / s / GIB
    };
    if spec.chunk == 4096 {
        let table = MulTable::new(0x1d);
        out.insert("gf.xor_acc_gib_per_s_4k", rate(4096, &xor_acc));
        out.insert(
            "gf.mul_acc_gib_per_s_4k",
            rate(4096, &|d, s| table.mul_acc_slice(s, d)),
        );
    } else {
        out.insert("gf.xor_acc_gib_per_s_64k", rate(65536, &xor_acc));
    }
}

/// The journal alone: checksum rate, append cost, group-commit cost.
fn journal_probes(out: &mut Layers, dir: &Path) -> Result<(), String> {
    let buf = vec![0xa5u8; 16 << 10];
    let s = rounds(|| {
        timed(|| {
            for _ in 0..16 {
                black_box(crc32(black_box(&buf)));
            }
        })
    });
    out.insert("journal.crc32_mib_per_s", 16.0 * buf.len() as f64 / s / MIB);

    let journal = Journal::create(dir.join("probe-journal.log"))
        .map_err(|e| format!("journal probe: {e}"))?;
    // One intent as a small write makes it: four member chunks of 4 KiB.
    let intent: Vec<MemberWrite> = (0..4)
        .map(|i| MemberWrite {
            disk: i,
            chunk: 7,
            data: vec![i as u8 + 1; 4096],
        })
        .collect();
    let mut failed = false;
    let append = |n: usize, failed: &mut bool| -> Vec<u64> {
        (0..n)
            .filter_map(|_| {
                let seq = journal.append_intent(&intent);
                *failed |= seq.is_err();
                seq.ok()
            })
            .collect()
    };
    // Every round retires what it appended (untimed), so the log drains
    // and truncates as it does under the workload.
    let retire = |seqs: &[u64], failed: &mut bool| {
        if let Some(last) = seqs.last() {
            *failed |= journal.commit(*last).is_err();
        }
        for seq in seqs {
            *failed |= journal.mark_applied(*seq).is_err();
        }
    };

    let s = rounds(|| {
        let mut seqs = Vec::new();
        let s = timed(|| seqs = append(GROUP, &mut failed));
        retire(&seqs, &mut failed);
        s
    });
    out.insert("journal.append_us_4x4k", s / GROUP as f64 * 1e6);

    let s = rounds(|| {
        let mut seqs = Vec::new();
        let s = timed(|| {
            seqs = append(GROUP, &mut failed);
            failed |= seqs.last().is_none_or(|l| journal.commit(*l).is_err());
        });
        retire(&seqs, &mut failed);
        s
    });
    out.insert("journal.append_commit_us_wave64", s * 1e6);

    let s = rounds(|| {
        let seqs = append(1, &mut failed);
        let s = timed(|| failed |= seqs.last().is_none_or(|l| journal.commit(*l).is_err()));
        retire(&seqs, &mut failed);
        s
    });
    out.insert("journal.commit_us", s * 1e6);
    done("journal", failed)
}

/// A small journaled file-backed store of `spec`'s chunk size in `dir`,
/// on the devices `serve_durable` runs on.
fn durable_probe_store(spec: &Spec, dir: &Path) -> Result<OiRaidStore<NoSync<FileDevice>>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("probe dir: {e}"))?;
    let cfg = spec.smoke().config();
    let devices = (0..cfg.disks())
        .map(|d| {
            FileDevice::create(
                dir.join(format!("disk-{d:03}.img")),
                spec.chunk,
                cfg.chunks_per_disk(),
            )
            .map(NoSync)
            .map_err(|e| format!("probe device: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    OiRaidStore::create_durable_on(cfg, spec.chunk, devices, dir, FlushPolicy::PerWave)
        .map_err(|e| format!("probe store: {e}"))
}

/// Journal bytes appended per user byte written, one write per commit:
/// our number for the logging-cost side of the write-hole trade.
fn journal_amplification(out: &mut Layers, spec: &Spec, dir: &Path) -> Result<(), String> {
    // 16 writes to distinct chunks stay far below the 1 MiB at which the
    // journal truncates itself, so the file length is the bytes appended.
    const WRITES: u64 = 16;
    for (name, size) in [
        ("journal.bytes_per_user_byte_512", 512usize),
        ("journal.bytes_per_user_byte_4096", 4096),
    ] {
        let store = durable_probe_store(spec, &dir.join("probe-amp"))?;
        let path = store.journal().expect("durable store").path().to_path_buf();
        let len = || {
            std::fs::metadata(&path)
                .map(|m| m.len())
                .map_err(|e| format!("journal size: {e}"))
        };
        let data = vec![0x3cu8; size];
        let before = len()?;
        for i in 0..WRITES {
            store
                .write_bytes_batch(&[(i * spec.chunk as u64, &data)])
                .map_err(|e| format!("amplification probe: {e}"))?;
        }
        out.insert(
            name,
            (len()? - before) as f64 / (WRITES * size as u64) as f64,
        );
    }
    Ok(())
}

/// Microseconds per touched chunk of `write_bytes_batch` for `GROUP`
/// record-sized writes on uniform keys.
fn write_batch_us_per_chunk<B: BlockDevice>(
    store: &OiRaidStore<B>,
    spec: &Spec,
    rng: &mut Rng,
    failed: &mut bool,
) -> f64 {
    let records = store.data_chunks() as u64 * spec.records_per_chunk();
    let payload = vec![0x77u8; spec.record];
    let mut touched = 0usize;
    let s = rounds(|| {
        let writes: Vec<(u64, &[u8])> = (0..GROUP)
            .map(|_| (rng.below(records) * spec.record as u64, &payload[..]))
            .collect();
        timed(|| match store.write_bytes_batch(&writes) {
            Ok(stats) => touched += stats.chunks,
            Err(_) => *failed = true,
        })
    });
    s / (touched.max(1) as f64 / ROUNDS as f64) * 1e6
}

/// The store alone on `MemDevice` (and, for the durable workload, once
/// journaled on `FileDevice`): batch and single-op paths.
fn store_probes(
    out: &mut Layers,
    spec: &Spec,
    store: &OiRaidStore<MemDevice>,
    dir: &Path,
    seed: u64,
) -> Result<(), String> {
    let chunks = store.data_chunks() as u64;
    let records = chunks * spec.records_per_chunk();
    let mut rng = Rng::stream(seed, 0x9706e);
    let mut failed = false;

    let s = rounds(|| {
        let idxs: Vec<usize> = (0..GROUP).map(|_| rng.below(chunks) as usize).collect();
        timed(|| failed |= store.read_data_batch(&idxs).is_err())
    });
    out.insert("store.read_batch_us_per_chunk", s / GROUP as f64 * 1e6);
    out.insert(
        "store.write_batch_us_per_chunk",
        write_batch_us_per_chunk(store, spec, &mut rng, &mut failed),
    );
    if spec.device == Device::File {
        let durable = durable_probe_store(spec, &dir.join("probe-store"))?;
        // Touch every chunk once, as the workload's prefill does, so the
        // timed writes do not pay for allocating file blocks.
        let zeroes = vec![0u8; spec.chunk];
        let all: Vec<(u64, &[u8])> = (0..durable.data_chunks() as u64)
            .map(|idx| (idx * spec.chunk as u64, &zeroes[..]))
            .collect();
        for batch in all.chunks(GROUP) {
            failed |= durable.write_bytes_batch(batch).is_err();
        }
        out.insert(
            "store.write_batch_us_per_chunk_journaled",
            write_batch_us_per_chunk(&durable, spec, &mut rng, &mut failed),
        );
    }
    if spec.shape == Shape::Single {
        let payload = vec![0x77u8; spec.record];
        let mut buf = vec![0u8; spec.record];
        let offsets = |rng: &mut Rng| -> Vec<u64> {
            (0..GROUP)
                .map(|_| rng.below(records) * spec.record as u64)
                .collect()
        };
        let s = rounds(|| {
            let offs = offsets(&mut rng);
            timed(|| {
                for off in offs {
                    failed |= store.read_bytes(off, &mut buf).is_err();
                }
            })
        });
        out.insert("store.read_single_us", s / GROUP as f64 * 1e6);
        let s = rounds(|| {
            let offs = offsets(&mut rng);
            timed(|| {
                for off in offs {
                    failed |= store.write_bytes(off, &payload).is_err();
                }
            })
        });
        out.insert("store.write_single_us", s / GROUP as f64 * 1e6);
    }
    done("store", failed)
}

/// The volume layer's own cost: one thread sending the workload's ops
/// through the volume calls, minus the same kind of ops sent straight to
/// the store calls the volume layer makes for them.
fn volume_probes(
    out: &mut Layers,
    spec: &Spec,
    env: &Env<MemDevice>,
    seed: u64,
) -> Result<(), String> {
    let mut gen = Generator::all(&env.spec, env.model.records(), seed, 1).swap_remove(0);
    let mut failed = false;
    let single = spec.shape == Shape::Single;

    let via_volume = rounds(|| {
        let ops = env.make_group(&mut gen, 0).ops;
        timed(|| {
            if !single {
                failed |= env.mgr.submit(ops).iter().any(|r| r.is_err());
                return;
            }
            for op in ops {
                failed |= match op {
                    Op::Read { volume, record } => env.mgr.read_record(volume, record).is_err(),
                    Op::Write {
                        volume,
                        record,
                        data,
                    } => env.mgr.write_record(volume, record, &data).is_err(),
                };
            }
        })
    });

    let mut buf = vec![0u8; spec.record];
    let direct = rounds(|| {
        let group = env.make_group(&mut gen, 0);
        let offset = |i: usize| group.shadow[i].record * spec.record as u64;
        timed(|| {
            if single {
                for (i, op) in group.ops.iter().enumerate() {
                    failed |= match op {
                        Op::Read { .. } => env.store.read_bytes(offset(i), &mut buf).is_err(),
                        Op::Write { data, .. } => env.store.write_bytes(offset(i), data).is_err(),
                    };
                }
                return;
            }
            let mut reads: Vec<usize> = Vec::new();
            let mut writes: Vec<(u64, &[u8])> = Vec::new();
            for (i, op) in group.ops.iter().enumerate() {
                match op {
                    Op::Read { .. } => reads.push((offset(i) / spec.chunk as u64) as usize),
                    Op::Write { data, .. } => writes.push((offset(i), &data[..])),
                }
            }
            failed |= env.store.read_data_batch(&reads).is_err();
            failed |= env.store.write_bytes_batch(&writes).is_err();
        })
    });
    out.insert(
        "volume.submit_us_per_op_1t",
        via_volume / GROUP as f64 * 1e6,
    );
    out.insert(
        "volume.self_us_per_op",
        (via_volume - direct) / GROUP as f64 * 1e6,
    );
    done("volume", failed)
}

/// The floor under every workload: one device call on a 4 KiB chunk.
fn device_probes(out: &mut Layers, dir: &Path, seed: u64) -> Result<(), String> {
    const CHUNKS: usize = 2304;
    let mut rng = Rng::stream(seed, 0xde71ce);
    let mut buf = vec![0x11u8; 4096];
    let mut failed = false;
    let mut per_call = |dev: &dyn BlockDevice, write: bool| -> f64 {
        let s = rounds(|| {
            let at: Vec<usize> = (0..GROUP)
                .map(|_| rng.below(CHUNKS as u64) as usize)
                .collect();
            timed(|| {
                for c in at {
                    failed |= if write {
                        dev.write_chunk(c, &buf).is_err()
                    } else {
                        dev.read_chunk(c, &mut buf).is_err()
                    };
                }
            })
        });
        s / GROUP as f64
    };
    // Every chunk is written once before timing, so no timed call pays
    // for a first-touch page fault or a file block allocation.
    let touch =
        |dev: &dyn BlockDevice| (0..CHUNKS).any(|c| dev.write_chunk(c, &[0x33; 4096]).is_err());
    let mem = MemDevice::new(4096, CHUNKS);
    let file = FileDevice::create(dir.join("probe-device.img"), 4096, CHUNKS)
        .map_err(|e| format!("device probe: {e}"))?;
    if touch(&mem) || touch(&file) {
        return done("device", true);
    }
    out.insert("device.mem_write_ns_4k", per_call(&mem, true) * 1e9);
    out.insert("device.mem_read_ns_4k", per_call(&mem, false) * 1e9);
    out.insert("device.file_write_us_4k", per_call(&file, true) * 1e6);
    out.insert("device.file_read_us_4k", per_call(&file, false) * 1e6);
    let chunk = vec![0x22u8; 4096];
    let s = rounds(|| {
        failed |= file.write_chunk(3, &chunk).is_err();
        timed(|| failed |= file.flush().is_err())
    });
    out.insert("device.file_flush_us", s * 1e6);
    done("device", failed)
}

/// `sched::run` over a graph of no-op nodes shaped like one rebuild
/// round: per item, read (on a source disk's queue) -> combine (shared
/// queue) -> writeback (on the target disk's queue).
fn sched_probes(out: &mut Layers, threads: usize) {
    const ITEMS: usize = 576;
    const DISKS: usize = 21;
    let mut graph: OpGraph<()> = OpGraph::new();
    for i in 0..ITEMS {
        let read = graph.add_node((), Some(1 + i % (DISKS - 1)));
        let combine = graph.add_node((), None);
        let writeback = graph.add_node((), Some(0));
        graph.add_edge(read, combine);
        graph.add_edge(combine, writeback);
    }
    let metrics = SchedMetrics::default();
    for (name, workers) in [
        ("sched.ns_per_op_noop", threads),
        ("sched.ns_per_op_noop_1w", 1),
    ] {
        let s = rounds(|| {
            timed(|| {
                let report = sched::run(workers, DISKS, &metrics, &graph, |_, _, _| OpStatus::Done);
                assert_eq!(report.stats.executed, graph.len() as u64);
            })
        });
        out.insert(name, s / graph.len() as f64 * 1e9);
    }
}

/// Planning cost of one single-disk recovery and of one update set.
fn layout_probes(out: &mut Layers, array: &OiRaid) -> Result<(), String> {
    let mut failed = false;
    let s = rounds(|| {
        timed(|| {
            failed |= array
                .recovery_plan_with_strategy(0, SparePolicy::Distributed, RecoveryStrategy::Outer)
                .is_err();
        })
    });
    out.insert("layout.plan_ms", s * 1e3);
    let n = array.data_chunks().min(1024);
    let s = rounds(|| {
        timed(|| {
            for idx in 0..n {
                failed |= black_box(array.update_set(array.locate_data(idx))).is_err();
            }
        })
    });
    out.insert("layout.update_set_ns", s / n as f64 * 1e9);
    done("layout", failed)
}

/// Runs the probes that belong to `spec`'s workload. `dir` is the run's
/// scratch directory inside the checkout.
pub fn run(
    spec: &Spec,
    array: &OiRaid,
    dir: &Path,
    threads: usize,
    seed: u64,
) -> Result<Layers, String> {
    let mut out = Layers::new();
    device_probes(&mut out, dir, seed)?;
    gf_probes(&mut out, spec);
    if spec.shape == Shape::Recovery {
        sched_probes(&mut out, threads);
        layout_probes(&mut out, array)?;
        return Ok(out);
    }
    // One small prefilled in-memory array for the store and volume probes.
    let mut small = *spec;
    small.cycles = spec.cycles.min(32);
    small.device = Device::Mem;
    let env = Env::build(small, 1, dir, &|_, per_disk| {
        Ok(MemDevice::new(spec.chunk, per_disk))
    })?;
    volume_probes(&mut out, spec, &env, seed)?;
    store_probes(&mut out, spec, &env.store, dir, seed)?;
    if spec.device == Device::File {
        journal_probes(&mut out, dir)?;
        journal_amplification(&mut out, spec, dir)?;
    }
    Ok(out)
}
