//! Update complexity (claim C6): trace exactly which chunks a single data
//! write touches in OI-RAID and compare the write amplification against the
//! other 3-failure-tolerant schemes.
//!
//! ```text
//! cargo run --release --example update_cost
//! ```

use oi_raid_repro::prelude::*;

fn main() {
    let array = OiRaid::new(OiRaidConfig::reference()).expect("reference");

    // Trace one update through the geometry.
    let idx = 17;
    let addr = array.locate_data(idx);
    let set = array.update_set(addr).expect("data chunk");
    println!("updating logical data chunk {idx} (at {addr}):");
    let labels = [
        "data chunk itself",
        "inner parity of its row (same group)",
        "outer parity of its stripe (other group)",
        "inner parity of the outer parity's row",
    ];
    for (a, label) in set.iter().zip(labels) {
        println!(
            "  write {a}  in group {:<2} - {label}",
            array.group_of(a.disk)
        );
    }
    println!(
        "\n=> {} writes on {} distinct disks; the minimum for any code\n\
         tolerating 3 erasures is 1 data + 3 parity writes, so OI-RAID is\n\
         update-optimal.",
        set.len(),
        set.iter()
            .map(|a| a.disk)
            .collect::<std::collections::HashSet<_>>()
            .len()
    );

    // Verify it holds for *every* data chunk, not just one.
    let all_optimal = (0..array.data_chunks()).all(|i| {
        array
            .update_set(array.locate_data(i))
            .is_ok_and(|s| s.len() == 4)
    });
    println!(
        "verified over all {} data chunks: {all_optimal}",
        array.data_chunks()
    );

    // Comparison table.
    println!("\nwrites per user write across schemes:");
    let schemes: Vec<(String, usize, usize)> = vec![
        ("OI-RAID (RAID5 x RAID5)".into(), 3, 4),
        {
            let c = XorParity::new(6).expect("raid5");
            (
                c.name(),
                c.fault_tolerance(),
                c.update_cost().total_writes(),
            )
        },
        {
            let c = Raid6::new(6).expect("raid6");
            (
                c.name(),
                c.fault_tolerance(),
                c.update_cost().total_writes(),
            )
        },
        {
            let c = ReedSolomon::new(6, 3).expect("rs");
            (
                c.name(),
                c.fault_tolerance(),
                c.update_cost().total_writes(),
            )
        },
        {
            let c = Replication::new(4).expect("rep");
            (
                c.name(),
                c.fault_tolerance(),
                c.update_cost().total_writes(),
            )
        },
    ];
    println!(
        "  {:<26}{:>10}{:>9}{:>10}",
        "scheme", "tolerance", "writes", "optimal"
    );
    for (name, tol, writes) in schemes {
        println!(
            "  {name:<26}{tol:>10}{writes:>9}{:>10}",
            if writes == tol + 1 { "yes" } else { "no" }
        );
    }

    // And the real thing: the device bytes one write moves on the byte
    // store, from the members' counters. Each member moves only the bytes
    // the write changes, so C6 holds per byte as well as per chunk: 4 B
    // read and 4 B written per user byte, whatever the write's size.
    const CHUNK: usize = 4096;
    let store = OiRaidStore::new(OiRaidConfig::reference(), CHUNK).expect("store");
    let moved = || {
        let counters = store.devices().iter().map(|d| d.counters());
        counters.fold((0, 0), |(r, w), c| (r + c.bytes_read, w + c.bytes_written))
    };
    println!("\ndevice bytes per user byte on the byte store ({CHUNK} B chunks, memory devices):");
    println!("  {:<12}{:>8}{:>10}", "write", "read", "written");
    for len in [512, CHUNK] {
        let before = moved();
        let offset = (idx * CHUNK + CHUNK - len) as u64;
        store.write_bytes(offset, &vec![0x5A; len]).expect("write");
        let after = moved();
        let per_byte = |d: u64| d as f64 / len as f64;
        println!(
            "  {:<12}{:>8.2}{:>10.2}",
            format!("{len} B"),
            per_byte(after.0 - before.0),
            per_byte(after.1 - before.1)
        );
        assert_eq!(after.1 - before.1, 4 * len as u64, "4 members x {len} B");
    }
    assert!(store.check_parity().is_empty());
    println!("the incremental updates left both parity layers consistent.");
}
