//! Two roads to cheap repair: code-level locality (Azure's LRC) vs
//! layout-level declustering (OI-RAID). Same goal — don't read the whole
//! stripe to fix one disk — achieved at different layers, with different
//! trade-offs.
//!
//! ```text
//! cargo run --release --example locality_codes
//! ```

use oi_raid_repro::prelude::*;

fn main() {
    // --- Code level: LRC(12, 2, 2), Azure's production parameters. -------
    let lrc = Lrc::new(12, 2, 2).expect("Azure parameters");
    println!("code-level locality: {}", lrc.name());
    println!(
        "  tolerance          : {} arbitrary erasures",
        lrc.fault_tolerance()
    );
    println!("  efficiency         : {:.3}", lrc.efficiency());
    println!(
        "  single-unit repair : {} reads (its local group) vs {} for RS(12,4)",
        lrc.local_group_size(),
        12
    );
    println!("  update cost        : {}", lrc.update_cost());

    // Prove the locality + the full decode on real bytes.
    let data: Vec<Vec<u8>> = (0..12).map(|i| vec![(i * 17 + 3) as u8; 64]).collect();
    let parity = lrc.encode(&data).expect("encode");
    let full: Vec<Vec<u8>> = data.iter().cloned().chain(parity).collect();
    let mut units: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
    units[3] = None; // single data loss -> local peel
    units[7] = None;
    units[14] = None; // three losses -> global solve
    lrc.reconstruct(&mut units).expect("within tolerance");
    assert!(units
        .iter()
        .zip(&full)
        .all(|(u, f)| u.as_deref() == Some(&f[..])));
    println!("  verified           : triple-erasure decode on real bytes\n");

    // --- Layout level: OI-RAID. ------------------------------------------
    let array = OiRaid::new(OiRaidConfig::reference()).expect("reference");
    let m = Model::of(&array);
    println!("layout-level declustering: {}", array.name());
    println!(
        "  tolerance          : {} arbitrary disk failures",
        array.fault_tolerance()
    );
    println!("  efficiency         : {:.3}", array.efficiency());
    println!(
        "  degraded read      : {} reads (inner row) for a chunk on a failed disk",
        array.group_size() - 1
    );
    println!(
        "  full-disk rebuild  : bottleneck {:.3} of one disk (hybrid strategy)",
        m.bottleneck_read_fraction(RecoveryStrategy::Hybrid)
    );
    let plan = array
        .recovery_plan(&[4], SparePolicy::Distributed)
        .expect("plan");
    println!(
        "  rebuild sources    : {} of {} survivors contribute reads",
        plan.read_load(21).iter().filter(|&&c| c > 0).count(),
        20
    );

    println!(
        "\nthe difference in kind:\n\
         - LRC makes *one lost unit* cheap to repair but a stripe is still a\n\
           stripe: rebuilding a whole disk drives every stripe it touched,\n\
           and tolerance is a property of each 16-unit stripe.\n\
         - OI-RAID makes the *whole-disk rebuild* parallel (every survivor\n\
           helps) and its tolerance is a property of the 21-disk array —\n\
           including the loss of an entire enclosure-like group.\n\
         The two compose: an OI-RAID outer layout could use a locality-aware\n\
         code inside each group; this crate keeps the paper's RAID5 rows."
    );

    // Degraded-read cost comparison under one failed disk.
    let idx = 12;
    let addr = array.locate_data(idx);
    match array.read_plan(idx, &[addr.disk]).expect("survivable") {
        ReadPlan::InnerDecode { reads } => {
            println!(
                "\ndegraded read of chunk {idx}: {} chunk reads (OI inner row) vs {} (RS stripe)",
                reads.len(),
                12
            );
        }
        other => println!("\nunexpected plan {other:?}"),
    }
}
