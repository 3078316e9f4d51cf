//! Multi-tenant volumes: carve one OI-RAID store into per-tenant volumes,
//! push a batch of operations through one submission (reads served on the
//! caller's thread, writes coalesced), and watch the QoS classes keep
//! tenants apart.
//!
//! ```text
//! cargo run --release --example volumes
//! ```

use std::sync::Arc;

use oi_raid_repro::prelude::*;

fn main() {
    // The paper's 21-disk reference array, wrapped by the volume layer:
    // 16 submission shards over the chunk space.
    let store = Arc::new(OiRaidStore::new(OiRaidConfig::reference(), 4096).expect("store"));
    let mgr = VolumeManager::new(store, 16);

    // Two tenants with different QoS classes: `app` is uncapped;
    // `batchjob` is capped at 2000 ops/s and paces itself.
    let app = mgr.add_tenant("app", TenantClass::default());
    let batchjob = mgr.add_tenant("batchjob", TenantClass::capped(2000.0));

    // Volumes are fixed-size record arrays carved from the store's bytes.
    let db = mgr
        .create_volume(app, "db", 512, 256)
        .expect("db volume fits");
    let scratch = mgr
        .create_volume(batchjob, "scratch", 4096, 32)
        .expect("scratch volume fits");
    println!(
        "volumes      : db = 256 x 512 B (tenant app), scratch = 32 x 4 KiB (tenant batchjob)"
    );

    // One submission, many operations: writes to the same chunk coalesce
    // into a single read-modify-write, and a read behind a write in the
    // same submission is answered from that write without touching a disk
    // at all (any other read is one store read on this thread).
    let mut ops = Vec::new();
    for r in 0..64u64 {
        ops.push(Op::Write {
            volume: db,
            record: r,
            data: vec![r as u8; 512],
        });
    }
    ops.push(Op::Read {
        volume: db,
        record: 7,
    }); // absorbed from the write above
    ops.push(Op::Read {
        volume: db,
        record: 7,
    }); // and again — still no I/O
    let results = mgr.submit(ops);
    let reads: Vec<_> = results.iter().flatten().flatten().collect();
    assert_eq!(reads.len(), 2);
    assert!(reads.iter().all(|r| r[0] == 7));
    println!(
        "one submit   : 64 writes + 2 reads -> {} write wave(s), {} ops accepted",
        mgr.waves(),
        mgr.batch_ops()
    );

    // The batched path is bit-identical to one-at-a-time submission — the
    // direct calls read back exactly what the batch wrote.
    for r in 0..64u64 {
        assert_eq!(mgr.read_record(db, r).expect("read"), vec![r as u8; 512]);
    }
    println!("readback     : all 64 records bit-identical via the direct path");

    // The capped tenant works the same way, just slower by decree.
    mgr.write_record(scratch, 0, &vec![0xAB; 4096])
        .expect("capped write");
    assert_eq!(
        mgr.read_record(scratch, 0).expect("capped read"),
        vec![0xAB; 4096]
    );

    // Everything is observable: per-tenant request counters, absorbed
    // reads, throttle waits, and latency histograms as oi_volume_* series.
    let reg = Registry::new();
    mgr.export_metrics(&reg);
    let text = reg.prometheus();
    let interesting = [
        "oi_volume_batch_ops_total",
        "oi_volume_absorbed_reads_total",
        "oi_volume_requests_total",
    ];
    println!("\nmetrics:");
    for line in text.lines() {
        if interesting.iter().any(|m| line.starts_with(m)) {
            println!("  {line}");
        }
    }

    // Volumes survive array failures like everything else in the store:
    // two disks die, records still read back through reconstruction.
    mgr.store().fail_disk(3).expect("valid disk");
    mgr.store().fail_disk(11).expect("valid disk");
    assert_eq!(mgr.read_record(db, 42).expect("degraded"), vec![42u8; 512]);
    println!("\ndegraded     : disks {{3, 11}} down, records reconstruct fine");
    let report = mgr
        .store()
        .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
        .expect("rebuild");
    println!(
        "rebuild      : {:?} in {:.1} ms",
        report.outcome,
        report.wall.as_secs_f64() * 1e3
    );
    assert!(mgr.store().check_parity().is_empty());
    println!("parity check : OK");
}
