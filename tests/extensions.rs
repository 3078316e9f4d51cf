//! Integration tests for the implemented extensions (`DESIGN.md` §6):
//! degraded-read planning, the URE reliability model, and the searched
//! difference families — exercised together across crates.

use oi_raid_repro::prelude::*;
use reliability::ure::{array_mttdl_with_ure, exposure_profile, p_ure};

#[test]
fn read_plans_agree_with_store_behaviour() {
    // Wherever read_plan says "direct"/"inner"/"outer", the store must be
    // able to serve the read; where it reports loss, rebuild must fail too.
    let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
    let store = OiRaidStore::new(OiRaidConfig::reference(), 8).unwrap();
    for i in 0..store.data_chunks() {
        store.write_data(i, &[i as u8; 8]).unwrap();
    }
    let failed = [0usize, 4, 9];
    for &d in &failed {
        store.fail_disk(d).unwrap();
    }
    for idx in 0..array.data_chunks() {
        let plan = array.read_plan(idx, &failed).expect("triple is survivable");
        let got = store.read_data(idx).expect("store serves the read");
        assert_eq!(got, vec![idx as u8; 8]);
        // Plans never read failed disks.
        match plan {
            oi_raid::ReadPlan::Direct(a) => assert!(!failed.contains(&a.disk)),
            oi_raid::ReadPlan::InnerDecode { reads } | oi_raid::ReadPlan::OuterDecode { reads } => {
                assert!(reads.iter().all(|r| !failed.contains(&r.disk)));
            }
        }
    }
}

#[test]
fn ure_model_ranks_layers_correctly() {
    // Under aggressive BER, OI-RAID (slack 2 during single-disk rebuild)
    // must dwarf RAID5.
    let array = OiRaid::new(OiRaidConfig::reference()).unwrap();
    let raid5 = FlatRaid5::new(21, array.chunks_per_disk()).unwrap();
    let ber = 1e-14;
    let cap: u64 = 4_000_000_000_000;
    let q5 = survival_profile(&raid5, 1, 2_000, 1);
    let u5 = exposure_profile(&raid5, 1, cap, ber);
    let qo = survival_profile(&array, 3, 2_000, 1);
    let uo = exposure_profile(&array, 3, cap, ber);
    let m5 = array_mttdl_with_ure(21, 1.0e6, 12.0, &q5, &u5);
    let mo = array_mttdl_with_ure(21, 1.0e6, 12.0, &qo, &uo);
    assert!(mo > 1e4 * m5, "oi {mo} vs raid5 {m5}");
    // Sanity on the primitive.
    assert!(p_ure(cap, ber) > 0.0 && p_ure(cap, ber) < 1.0);
}

#[test]
fn searched_sts_builds_a_working_array() {
    // STS(55) comes from the backtracking difference-family search; the
    // resulting 165-disk array must behave like any other.
    let design = bibd::steiner_triple_system(55).expect("searched STS(55)");
    let cfg = OiRaidConfig::new(design, 3, 1).expect("config");
    let array = OiRaid::new(cfg).expect("array");
    assert_eq!(array.disks(), 165);
    assert_eq!(array.fault_tolerance(), 3);
    assert!(array.survives(&[0, 1, 2]));
    assert!(array.survives(&[0, 64, 128]));
    let plan = array
        .recovery_plan(&[7], SparePolicy::Distributed)
        .expect("plan");
    assert_eq!(plan.total_writes() as usize, array.chunks_per_disk());
}
