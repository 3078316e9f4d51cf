//! Property-based integration tests over randomly drawn configurations:
//! the core invariants of the reproduction must hold for *every* valid
//! `(design, g, c)` combination and every random failure pattern, not just
//! the reference array.

use proptest::prelude::*;

use oi_raid_repro::prelude::*;

/// Strategy over valid OI-RAID configurations (catalogued designs, prime
/// group sizes admitting the rotational skew, small cycle counts).
fn configs() -> impl Strategy<Value = OiRaidConfig> {
    let choices: Vec<(usize, usize, usize)> = vec![
        (7, 3, 3),
        (7, 3, 5),
        (9, 3, 3),
        (13, 3, 3),
        (13, 4, 5),
        (21, 5, 5),
    ];
    (0..choices.len(), 1usize..3).prop_map(move |(i, c)| {
        let (v, k, g) = choices[i];
        let design = find_design(v, k).expect("catalogued design");
        OiRaidConfig::new(design, g, c).expect("valid config")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn data_addressing_is_a_bijection(cfg in configs()) {
        let array = OiRaid::new(cfg).unwrap();
        let mut seen = std::collections::HashSet::new();
        for idx in 0..array.data_chunks() {
            let addr = array.locate_data(idx);
            prop_assert!(seen.insert(addr), "address {addr} reused");
            prop_assert_eq!(array.data_index(addr), Some(idx));
            prop_assert_eq!(array.chunk_role(addr), Role::Data);
        }
    }

    #[test]
    fn update_sets_are_always_optimal(cfg in configs(), pick in any::<u32>()) {
        let array = OiRaid::new(cfg).unwrap();
        let idx = pick as usize % array.data_chunks();
        let set = array.update_set(array.locate_data(idx)).unwrap();
        prop_assert_eq!(set.len(), 4);
        let disks: std::collections::HashSet<usize> = set.iter().map(|a| a.disk).collect();
        prop_assert_eq!(disks.len(), 4, "writes land on distinct disks");
    }

    #[test]
    fn all_triples_survive_on_random_configs(cfg in configs(), seed in any::<u64>()) {
        let array = OiRaid::new(cfg).unwrap();
        let n = array.disks();
        // Three pseudo-random distinct disks.
        let mut s = seed | 1;
        let mut pattern = Vec::new();
        while pattern.len() < 3 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = (s >> 33) as usize % n;
            if !pattern.contains(&d) {
                pattern.push(d);
            }
        }
        prop_assert!(array.survives(&pattern), "pattern {:?}", pattern);
        let plan = array.recovery_plan(&pattern, SparePolicy::Distributed);
        prop_assert!(plan.is_ok());
    }

    #[test]
    fn rebuild_plans_cover_failed_disks_exactly(cfg in configs(), disk_pick in any::<u32>()) {
        let array = OiRaid::new(cfg).unwrap();
        let d = disk_pick as usize % array.disks();
        for strategy in RecoveryStrategy::ALL {
            let plan = array
                .recovery_plan_with_strategy(d, SparePolicy::Distributed, strategy)
                .unwrap();
            prop_assert_eq!(plan.total_writes() as usize, array.chunks_per_disk());
            let mut offsets: Vec<usize> = plan.items().iter().map(|i| i.lost.offset).collect();
            offsets.sort_unstable();
            let expect: Vec<usize> = (0..array.chunks_per_disk()).collect();
            prop_assert_eq!(offsets, expect, "every offset rebuilt exactly once");
            prop_assert_eq!(plan.read_load(array.disks())[d], 0);
        }
    }

    #[test]
    fn store_roundtrip_under_random_triple_failure(
        cfg in configs(),
        seed in any::<u64>(),
    ) {
        let array = OiRaid::new(cfg.clone()).unwrap();
        let n = array.disks();
        let store = OiRaidStore::new(cfg, 8).unwrap();
        // Write a pseudo-random subset of chunks.
        let mut s = seed | 1;
        let mut written = std::collections::HashMap::new();
        for _ in 0..32.min(store.data_chunks()) {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(7);
            let idx = (s >> 32) as usize % store.data_chunks();
            let byte = (s >> 17) as u8;
            store.write_data(idx, &[byte; 8]).unwrap();
            written.insert(idx, byte);
        }
        // Fail three random distinct disks, rebuild, verify.
        let mut pattern = Vec::new();
        while pattern.len() < 3 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(11);
            let d = (s >> 33) as usize % n;
            if !pattern.contains(&d) {
                pattern.push(d);
            }
        }
        for &d in &pattern {
            store.fail_disk(d).unwrap();
        }
        store.rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid).unwrap();
        prop_assert!(store.check_parity().is_empty());
        for (idx, byte) in written {
            prop_assert_eq!(store.read_data(idx).unwrap(), vec![byte; 8]);
        }
    }

    #[test]
    fn outer_strategy_touches_all_other_groups(cfg in configs()) {
        // The C2 claim as a property: with the rotational skew, an Outer
        // rebuild of any disk draws reads from every other group.
        let array = OiRaid::new(cfg).unwrap();
        let plan = array
            .recovery_plan_with_strategy(0, SparePolicy::Distributed, RecoveryStrategy::Outer)
            .unwrap();
        let load = plan.read_load(array.disks());
        let g = array.group_size();
        for grp in 1..array.groups() {
            let total: u64 = (grp * g..(grp + 1) * g).map(|d| load[d]).sum();
            prop_assert!(total > 0, "group {grp} contributes no reads");
        }
    }
}
