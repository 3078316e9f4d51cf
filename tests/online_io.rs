//! Online-I/O integration: the store must keep serving reads *and writes*
//! while disks are failed and while a rebuild is in flight, and the rebuild
//! must never clobber data written concurrently with it.
//!
//! The tests drive foreground traffic from the test thread while the rebuild
//! engine runs in a scoped thread against the same `&OiRaidStore` — the
//! whole I/O surface takes `&self`. Latency-injecting devices stretch the
//! rebuild so the two phases genuinely overlap. Set `OI_DEGRADED_IO=1` to
//! additionally run the heavy concurrent sweep with transient faults armed
//! (the CI degraded-io job does).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use oi_raid_repro::prelude::*;

type FaultyMemStore = OiRaidStore<FaultInjectingDevice<MemDevice>>;

/// A reference-config store on fault-injecting memory devices.
fn faulty_mem_store(chunk_size: usize) -> FaultyMemStore {
    let cfg = OiRaidConfig::reference();
    let devices: Vec<_> = (0..cfg.disks())
        .map(|_| {
            FaultInjectingDevice::new(
                MemDevice::new(chunk_size, cfg.chunks_per_disk()),
                FaultConfig::default(),
            )
        })
        .collect();
    OiRaidStore::with_devices(cfg, chunk_size, devices).unwrap()
}

/// Fills every data chunk with a deterministic pattern and returns the
/// expected contents by logical index.
fn fill<B: BlockDevice>(store: &OiRaidStore<B>, seed: u64) -> Vec<Vec<u8>> {
    let cs = store.chunk_size();
    let mut x = seed | 1;
    let mut expect = Vec::new();
    for idx in 0..store.data_chunks() {
        let chunk: Vec<u8> = (0..cs)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        store.write_data(idx, &chunk).unwrap();
        expect.push(chunk);
    }
    expect
}

/// Arms every device with symmetric read/write latency (a crude spindle).
fn arm_latency(store: &FaultyMemStore, lat: Duration) {
    for dev in store.devices() {
        dev.set_config(FaultConfig::latency(lat, lat));
    }
}

fn disarm(store: &FaultyMemStore) {
    for dev in store.devices() {
        dev.set_config(FaultConfig::default());
    }
}

/// Runs `writer` on the test thread while the rebuild engine recovers
/// `fail` on another; returns the report and the foreground writes made.
fn rebuild_with_foreground_writes(
    store: &FaultyMemStore,
    fail: &[usize],
    stride: usize,
) -> (RebuildReport, HashMap<usize, Vec<u8>>) {
    let cs = store.chunk_size();
    for &d in fail {
        store.fail_disk(d).unwrap();
    }
    let done = AtomicBool::new(false);
    let mut written: HashMap<usize, Vec<u8>> = HashMap::new();
    let report = std::thread::scope(|s| {
        let rebuild = s.spawn(|| {
            let r = store
                .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                .unwrap();
            done.store(true, Ordering::Relaxed);
            r
        });
        let mut round = 0usize;
        while !done.load(Ordering::Relaxed) && round < 10_000 {
            for idx in (round % stride..store.data_chunks()).step_by(stride) {
                let val: Vec<u8> = (0..cs).map(|j| (idx * 31 + j * 7 + round) as u8).collect();
                store.write_data(idx, &val).unwrap();
                written.insert(idx, val);
            }
            round += 1;
        }
        rebuild.join().expect("rebuild thread")
    });
    (report, written)
}

/// Every chunk — foreground-written or original — must read back exactly,
/// and both parity layers must be consistent.
fn verify_store(store: &FaultyMemStore, expect: &[Vec<u8>], written: &HashMap<usize, Vec<u8>>) {
    for (idx, orig) in expect.iter().enumerate() {
        let want = written.get(&idx).unwrap_or(orig);
        assert_eq!(&store.read_data(idx).unwrap(), want, "chunk {idx}");
    }
    assert!(store.check_parity().is_empty());
}

#[test]
fn foreground_writes_during_rebuild_are_never_clobbered() {
    let store = faulty_mem_store(16);
    let expect = fill(&store, 11);
    // Enough per-read latency that the rebuild is still running while the
    // foreground writer makes several passes.
    arm_latency(&store, Duration::from_micros(300));
    let (report, written) = rebuild_with_foreground_writes(&store, &[4], 7);
    assert!(report.outcome.is_recovered(), "{report}");
    disarm(&store);
    assert!(!written.is_empty());
    verify_store(&store, &expect, &written);
}

#[test]
fn foreground_writes_survive_triple_failure_rebuild() {
    let store = faulty_mem_store(16);
    let expect = fill(&store, 23);
    arm_latency(&store, Duration::from_micros(200));
    let (report, written) = rebuild_with_foreground_writes(&store, &[2, 9, 17], 5);
    assert!(report.outcome.is_recovered(), "{report}");
    assert_eq!(report.rebuilt_disks, vec![2, 9, 17]);
    disarm(&store);
    verify_store(&store, &expect, &written);
}

#[test]
fn degraded_writes_roundtrip_after_engine_rebuild() {
    // 1, 2, and 3 failed disks: writes land while the disks are down, read
    // back degraded, and the engine's rebuild materializes them.
    for fail in [vec![2usize], vec![2, 9], vec![2, 9, 17]] {
        let store = faulty_mem_store(8);
        let expect = fill(&store, 42);
        for &d in &fail {
            store.fail_disk(d).unwrap();
        }
        let mut written = HashMap::new();
        for idx in (0..store.data_chunks()).step_by(4) {
            let val: Vec<u8> = (0..8).map(|j| (idx * 53 + j * 29 + 11) as u8).collect();
            store.write_data(idx, &val).unwrap();
            written.insert(idx, val);
        }
        // Degraded readback before any recovery.
        for (idx, val) in &written {
            assert_eq!(&store.read_data(*idx).unwrap(), val, "{fail:?} degraded");
        }
        let report = store
            .rebuild(RebuildMode::Serial, RecoveryStrategy::Hybrid)
            .unwrap();
        assert!(report.outcome.is_recovered(), "{fail:?}: {report}");
        verify_store(&store, &expect, &written);
    }
}

#[test]
fn partial_byte_io_rmw_roundtrips_healthy_and_degraded() {
    let store = faulty_mem_store(16);
    let expect = fill(&store, 7);
    let cap = store.capacity_bytes();
    let last = store.data_chunks() - 1;

    // Healthy: unaligned offset and length into the tail chunk.
    store.write_bytes(cap - 7, &[0x5Au8; 5]).unwrap();
    let mut want = expect[last].clone();
    for b in &mut want[9..14] {
        *b = 0x5A;
    }
    assert_eq!(store.read_data(last).unwrap(), want);

    // Degraded: fail the tail chunk's disk, then byte-RMW both the tail and
    // a chunk-spanning range; the old bytes must be reconstructed.
    store.fail_disk(store.locate(last).disk).unwrap();
    store.write_bytes(cap - 3, &[0x6Bu8; 3]).unwrap();
    for b in &mut want[13..16] {
        *b = 0x6B;
    }
    let mut got = vec![0u8; 16];
    store.read_bytes(cap - 16, &mut got).unwrap();
    assert_eq!(got, want, "degraded byte readback");

    let report = store
        .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
        .unwrap();
    assert!(report.outcome.is_recovered());
    assert_eq!(store.read_data(last).unwrap(), want);
    assert!(store.check_parity().is_empty());
}

/// Sub-chunk `write_bytes` is atomic per chunk: writers that each own one
/// 512 B record of the *same* chunk never lose each other's updates (the
/// old read-patch-write held no lock between its read and its write).
#[test]
fn concurrent_partial_writes_to_one_chunk_lose_no_update() {
    const RECORD: usize = 512;
    const WRITERS: usize = 8;
    const ROUNDS: usize = 200;
    let store = faulty_mem_store(RECORD * WRITERS);
    fill(&store, 11);
    let idx = store.data_chunks() / 2;
    let base = (idx * store.chunk_size()) as u64;
    let payload = |writer: usize, round: usize| vec![(writer * 31 + round) as u8; RECORD];

    for failed in [None, Some(store.locate(idx).disk)] {
        if let Some(disk) = failed {
            store.fail_disk(disk).unwrap();
        }
        // The barrier lines every round's writers up on the same chunk,
        // then holds them until all have written, so each can check that
        // nobody's stale copy of the chunk overwrote its record. Misses are
        // counted, not asserted: a panicking writer would strand the rest
        // at the barrier.
        let barrier = std::sync::Barrier::new(WRITERS);
        let lost = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for writer in 0..WRITERS {
                let (store, barrier, lost) = (&store, &barrier, &lost);
                s.spawn(move || {
                    let offset = base + (writer * RECORD) as u64;
                    let mut got = vec![0u8; RECORD];
                    for round in 0..ROUNDS {
                        barrier.wait();
                        let wrote = store.write_bytes(offset, &payload(writer, round));
                        barrier.wait();
                        let read = store.read_bytes(offset, &mut got);
                        if wrote.is_err() || read.is_err() || got != payload(writer, round) {
                            lost.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            lost.load(Ordering::Relaxed),
            0,
            "lost updates of {} (failed disk: {failed:?})",
            WRITERS * ROUNDS
        );
        assert!(store.check_parity().is_empty(), "failed disk: {failed:?}");
    }
    // The degraded writes materialise on the rebuilt disk.
    let degraded = store.read_data(idx).unwrap();
    let report = store
        .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
        .unwrap();
    assert!(report.outcome.is_recovered());
    assert_eq!(store.read_data(idx).unwrap(), degraded);
    assert!(store.check_parity().is_empty());
}

#[test]
fn rebuild_throttle_yields_to_foreground_traffic() {
    let store = faulty_mem_store(16);
    fill(&store, 3);
    // A tight budget (well below the rebuild's appetite) with an ample
    // foreground window so the whole run counts as contended.
    let mut qos = QosConfig::throttled(500.0);
    qos.burst_chunks = 1;
    qos.foreground_window = Duration::from_secs(5);
    store.set_qos(qos);
    store.fail_disk(4).unwrap();
    store.read_data(0).unwrap(); // stamp foreground activity
    let report = store
        .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
        .unwrap();
    assert!(report.outcome.is_recovered(), "{report}");
    assert!(report.throttle_waits > 0, "throttle engaged: {report}");
    assert!(report.throttle_wait > Duration::ZERO);
    let c = store.qos_counters();
    assert!(c.throttle_waits >= report.throttle_waits);
    assert!(store.check_parity().is_empty());

    // Unthrottled control: no waits.
    store.set_qos(QosConfig::unlimited());
    store.fail_disk(9).unwrap();
    let free = store
        .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
        .unwrap();
    assert_eq!(free.throttle_waits, 0);
}

#[test]
fn foreground_latency_metrics_are_exported() {
    telemetry::set_enabled(true);
    let store = faulty_mem_store(8);
    fill(&store, 5);
    store.fail_disk(3).unwrap();
    for idx in 0..store.data_chunks() {
        store.read_data(idx).unwrap();
    }
    store.write_data(0, &[1u8; 8]).unwrap();
    let reg = Registry::new();
    store.export_metrics(&reg);
    let text = reg.prometheus();
    lint_prometheus(&text).expect("prometheus output is lint-clean");
    for series in [
        "oi_store_foreground_reads_total",
        "oi_store_foreground_writes_total",
        "oi_store_foreground_read_latency_ns",
        "oi_store_foreground_write_latency_ns",
        "oi_store_degraded_writes_total",
        "oi_store_rebuild_throttle_waits_total",
    ] {
        assert!(text.contains(series), "{series} missing from:\n{text}");
    }
}

/// The window edge: readers check the known bytes of every data chunk while
/// another thread fails and DAG-rebuilds each disk in turn. A healed disk
/// answers reads with zeroes until its chunks are rebuilt; the store's
/// window flag is published before the heal, so no read may ever return
/// those zeroes (every expected chunk is non-zero) — through the single
/// read, the batch read and the byte read alike, and through a batch of a
/// whole disk's data: while that disk is down or un-rebuilt it is one
/// degraded group, planned once and gathered in runs, and a window that
/// opens between the plan and the gather must make it ask again.
fn window_edge_hammer<B: BlockDevice>(store: &OiRaidStore<B>, laps: usize, readers: usize) {
    let expect = fill(store, 77);
    assert!(expect.iter().all(|c| c.iter().any(|&b| b != 0)));
    let on_disk = |d: usize| (0..expect.len()).filter(move |&i| store.locate(i).disk == d);
    let by_disk: Vec<Vec<usize>> = (0..store.array().disks())
        .map(|d| on_disk(d).collect())
        .collect();
    let done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(readers + 1);
    std::thread::scope(|s| {
        let (expect, by_disk, done, start) = (&expect, &by_disk, &done, &start);
        for r in 0..readers {
            s.spawn(move || {
                start.wait();
                let (mut pass, n) = (0usize, expect.len());
                while !done.load(Ordering::Relaxed) {
                    for k in 0..n {
                        let idx = (k * 5 + r + pass) % n;
                        if (k + r) % 4 == 0 {
                            let group = &by_disk[store.locate(idx).disk];
                            let got = store.read_data_batch(group).unwrap();
                            for (i, bytes) in group.iter().zip(&got) {
                                assert_eq!(bytes, &expect[*i], "group of {idx}: {i}");
                            }
                        }
                        match (k + r) % 3 {
                            0 => assert_eq!(store.read_data(idx).unwrap(), expect[idx], "{idx}"),
                            1 => {
                                let pair = [idx, (idx + 1) % n];
                                let got = store.read_data_batch(&pair).unwrap();
                                assert_eq!(got[0], expect[pair[0]], "batch {idx}");
                                assert_eq!(got[1], expect[pair[1]], "batch {idx} + 1");
                            }
                            _ => {
                                let cs = store.chunk_size();
                                let mut buf = vec![0u8; cs / 2];
                                let off = (idx * cs + cs / 4) as u64;
                                store.read_bytes(off, &mut buf).unwrap();
                                assert_eq!(
                                    buf,
                                    expect[idx][cs / 4..cs / 4 + cs / 2],
                                    "bytes {idx}"
                                );
                            }
                        }
                    }
                    pass += 1;
                }
            });
        }
        start.wait();
        for _ in 0..laps {
            for disk in 0..store.array().disks() {
                store.fail_disk(disk).unwrap();
                let report = store
                    .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                    .unwrap();
                assert_eq!(report.outcome, RebuildOutcome::Complete, "disk {disk}");
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    assert!(store.check_parity().is_empty());
    for (idx, want) in expect.iter().enumerate() {
        assert_eq!(&store.read_data(idx).unwrap(), want, "chunk {idx} at rest");
    }
}

/// More laps and more readers than cores under `OI_DEGRADED_IO=1`.
fn window_edge_load() -> (usize, usize) {
    if std::env::var("OI_DEGRADED_IO").is_ok() {
        (12, 6)
    } else {
        (2, 3)
    }
}

#[test]
fn reads_never_see_a_healed_but_unrebuilt_chunk_mem() {
    let (laps, readers) = window_edge_load();
    let store = OiRaidStore::new(OiRaidConfig::reference(), 16).unwrap();
    window_edge_hammer(&store, laps, readers);
}

#[test]
fn reads_never_see_a_healed_but_unrebuilt_chunk_file() {
    let (laps, readers) = window_edge_load();
    let dir = std::env::temp_dir().join(format!("oi-raid-window-edge-{}", std::process::id()));
    let store = OiRaidStore::create_in_dir(OiRaidConfig::reference(), 16, &dir).unwrap();
    window_edge_hammer(&store, laps.div_ceil(2), readers);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The heavy sweep: concurrent foreground writes during rebuild *with*
/// transient faults armed on the surviving disks. Gated behind
/// `OI_DEGRADED_IO=1` (the CI degraded-io job sets it).
#[test]
fn degraded_io_matrix_with_transient_faults() {
    if std::env::var("OI_DEGRADED_IO").is_err() {
        eprintln!("skipping: set OI_DEGRADED_IO=1 to run the degraded-io matrix");
        return;
    }
    for (seed, fail, per_mille) in [
        (101u64, vec![4usize], 30u16),
        (202, vec![2, 9], 20),
        (303, vec![0, 1, 2], 10), // a whole group
    ] {
        let store = faulty_mem_store(16);
        let expect = fill(&store, seed);
        for (d, dev) in store.devices().iter().enumerate() {
            if fail.contains(&d) {
                continue;
            }
            dev.set_config(FaultConfig {
                seed: seed ^ (d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                transient_read_per_mille: per_mille,
                transient_write_per_mille: per_mille,
                read_latency: Duration::from_micros(100),
                write_latency: Duration::from_micros(100),
                ..FaultConfig::default()
            });
        }
        let (report, written) = rebuild_with_foreground_writes(&store, &fail, 6);
        assert!(report.outcome.is_recovered(), "{fail:?}: {report}");
        disarm(&store);
        verify_store(&store, &expect, &written);
    }
}
