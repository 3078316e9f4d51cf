//! What a degraded foreground op costs, by failure pattern (EXPERIMENTS.md
//! E27, E30): at the serving geometry (Fano x 3, 256 cycles, 4 KiB chunks)
//! every data chunk whose home disk is down is read once through
//! `read_data` and classed by the device reads it took, with the source
//! chunks read per lost chunk (the reconstruction load of Dau et al.), and
//! the same chunks again through `read_data_batch` 64 at a time (device
//! read ops, source chunks read and us, per chunk: EXPERIMENTS.md E28);
//! then, on the reference array with every disk up and 30 per mille of
//! sectors latent, how many foreground ops fail.
//!
//! `cargo run --release --example degraded_classes`

use std::collections::BTreeMap;
use std::time::Instant;

use oi_raid_repro::prelude::*;

fn device_reads<B: BlockDevice>(store: &OiRaidStore<B>) -> u64 {
    store.devices().iter().map(|d| d.counters().reads).sum()
}

fn device_bytes_read<B: BlockDevice>(store: &OiRaidStore<B>) -> u64 {
    store
        .devices()
        .iter()
        .map(|d| d.counters().bytes_read)
        .sum()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let store = OiRaidStore::new(OiRaidConfig::new(fano(), 3, 256)?, 4096)?;
    for idx in 0..store.data_chunks() {
        store.write_data(idx, &vec![(idx % 251) as u8 + 1; 4096])?;
    }
    println!(
        "failed disks | degraded ops | device reads x ops (mean us) per class \
         | single: chunks read per chunk | batches of 64: device reads, chunks read, us per chunk"
    );
    for failed in [
        vec![0],
        vec![0, 1],
        vec![0, 1, 2],
        vec![0, 1, 3],
        vec![0, 1, 4],
        vec![0, 3, 6],
    ] {
        for &d in &failed {
            store.fail_disk(d)?;
        }
        let mut classes: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
        let degraded: Vec<usize> = (0..store.data_chunks())
            .filter(|&i| failed.contains(&store.locate(i).disk))
            .collect();
        let bytes_before = device_bytes_read(&store);
        for &idx in &degraded {
            let (before, began) = (device_reads(&store), Instant::now());
            assert_eq!(store.read_data(idx)?, vec![(idx % 251) as u8 + 1; 4096]);
            let class = classes.entry(device_reads(&store) - before).or_default();
            *class = (class.0 + 1, class.1 + began.elapsed().as_secs_f64() * 1e6);
        }
        let n = degraded.len() as f64;
        let single = (device_bytes_read(&store) - bytes_before) as f64 / 4096.0 / n;
        let ops: u64 = classes.values().map(|c| c.0).sum();
        let classes: Vec<String> = classes
            .iter()
            .map(|(reads, (n, us))| format!("{reads} x {n} ({:.1})", us / *n as f64))
            .collect();
        let (ops_before, bytes_before) = (device_reads(&store), device_bytes_read(&store));
        let began = Instant::now();
        for batch in degraded.chunks(64) {
            let got = store.read_data_batch(batch)?;
            assert!(batch
                .iter()
                .zip(&got)
                .all(|(i, v)| v[0] == (i % 251) as u8 + 1));
        }
        let us = began.elapsed().as_secs_f64() * 1e6;
        println!(
            "{failed:?} | {ops} | {} | {single:.2} | {:.2}, {:.2}, {:.2}",
            classes.join(", "),
            (device_reads(&store) - ops_before) as f64 / n,
            (device_bytes_read(&store) - bytes_before) as f64 / 4096.0 / n,
            us / n,
        );
        store.rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)?;
    }

    // Latent sectors, all disks up: armed after the fill.
    let cfg = OiRaidConfig::reference();
    let devices: Vec<_> = (0..cfg.disks())
        .map(|_| MemDevice::new(16, cfg.chunks_per_disk()))
        .map(|mem| FaultInjectingDevice::new(mem, FaultConfig::default()))
        .collect();
    let store = OiRaidStore::with_devices(cfg, 16, devices)?;
    let n = store.data_chunks();
    for idx in 0..n {
        store.write_data(idx, &[idx as u8; 16])?;
    }
    for (d, dev) in store.devices().iter().enumerate() {
        dev.set_config(FaultConfig {
            seed: (5000 + d as u64) * 1_000_003,
            latent_per_mille: 30,
            ..FaultConfig::default()
        });
    }
    let reads = (0..n).filter(|&i| store.read_data(i).is_err()).count();
    let batch = store.read_data_batch(&(0..n).collect::<Vec<_>>()).is_err();
    let writes = (0..n)
        .filter(|&i| store.write_data(i, &[!(i as u8); 16]).is_err())
        .count();
    println!(
        "latent 30 per mille, all disks up: {reads} of {n} read_data failed, whole-store \
         read_data_batch {}, {writes} of {n} write_data failed, {} parity violations",
        if batch { "failed" } else { "ok" },
        store.check_parity().len()
    );
    Ok(())
}
