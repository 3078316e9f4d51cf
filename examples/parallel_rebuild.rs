//! File-backed store + concurrent (DAG) rebuild engine, end to end.
//!
//! Creates a real on-disk array (one image file per disk), writes data,
//! fails three disks, rebuilds them on the DAG executor's worker pool,
//! and verifies the data survived — the
//! runnable version of the README's storage-backend example. An optional
//! argument caps rebuild reads (chunks per second) while foreground I/O is
//! active: `cargo run --release --example parallel_rebuild -- 3000`.

use oi_raid_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("oi-raid-demo-{}", std::process::id()));
    let store = OiRaidStore::create_in_dir(OiRaidConfig::reference(), 4096, &dir)?;
    if let Some(rate) = std::env::args().nth(1) {
        store.set_qos(QosConfig::throttled(rate.parse()?));
    }
    println!(
        "created {} disk images under {}",
        store.devices().len(),
        dir.display()
    );

    // Fill every payload slot with a recognizable pattern.
    let slots = store.data_chunks();
    for s in 0..slots {
        store.write_data(s, &vec![(s % 251) as u8 + 1; 4096])?;
    }

    for d in [2, 9, 17] {
        store.fail_disk(d)?;
    }
    println!("failed disks: {:?}", store.failed_disks());

    let report = store.rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)?;
    println!("{report}");

    for s in 0..slots {
        assert_eq!(store.read_data(s)?, vec![(s % 251) as u8 + 1; 4096]);
    }
    println!("all {slots} payload chunks verified after rebuild");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
