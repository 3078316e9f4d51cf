//! Quickstart: build the paper's reference OI-RAID array, store real data,
//! kill three disks, and get every byte back.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use oi_raid_repro::prelude::*;

fn main() {
    // The paper's running example: a Fano-plane (7,3,1) outer layer over 7
    // groups of 3 disks — 21 disks, RAID5 in both layers.
    let config = OiRaidConfig::reference();
    let array = OiRaid::new(config.clone()).expect("reference config is valid");
    println!("array        : {}", array.name());
    println!(
        "disks        : {} ({} groups x {})",
        array.disks(),
        array.groups(),
        array.group_size()
    );
    println!(
        "tolerance    : any {} disk failures",
        array.fault_tolerance()
    );
    println!(
        "efficiency   : {:.1}% of raw capacity is data",
        array.efficiency() * 100.0
    );
    println!("data chunks  : {}", array.data_chunks());

    // A byte-level store over the same geometry: real XOR parity in both
    // layers, 4 KiB chunks.
    let store = OiRaidStore::new(config, 4096).expect("store constructs");
    println!("\nwriting {} chunks of data...", store.data_chunks());
    let payload: Vec<Vec<u8>> = (0..store.data_chunks())
        .map(|i| {
            (0..4096)
                .map(|j| ((i * 2654435761 + j * 97) % 251) as u8)
                .collect()
        })
        .collect();
    for (i, chunk) in payload.iter().enumerate() {
        store.write_data(i, chunk).expect("write succeeds");
    }
    assert!(
        store.check_parity().is_empty(),
        "both parity layers consistent"
    );
    println!("parity check : OK (inner rows and outer stripes all consistent)");

    // Kill three disks — the worst the architecture guarantees against.
    for d in [2, 9, 17] {
        store.fail_disk(d).expect("valid disk");
    }
    println!("\nfailed disks : {:?}", store.failed_disks());

    // Reads still work (degraded reads reconstruct through the codes)...
    let sample = store.read_data(42).expect("degraded read");
    assert_eq!(sample, payload[42]);
    println!("degraded read: chunk 42 reconstructed correctly");

    // ...and the disks rebuild completely.
    store
        .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
        .expect("recoverable pattern");
    for (i, chunk) in payload.iter().enumerate() {
        assert_eq!(&store.read_data(i).expect("read"), chunk, "chunk {i}");
    }
    println!("rebuild      : all 3 disks restored, every byte verified");

    // How fast is that rebuild? Plan one failure and simulate 1 TB disks.
    let plan = array
        .recovery_plan(&[2], SparePolicy::Distributed)
        .expect("single failure plan");
    let capacity: u64 = 1_000_000_000_000;
    let sim = plan.simulate(
        &DiskSpec::hdd_7200(capacity),
        capacity / array.chunks_per_disk() as u64,
    );
    println!(
        "\nsimulated single-disk rebuild of a 1 TB disk: {} \
         (flat RAID5 on the same 21 disks: ~11100s)",
        sim.rebuild_time
    );
}
