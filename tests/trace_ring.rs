//! The trace ring keeps what it exists to keep. A sampled volume read's
//! tree, recorded before ten 4 KiB rebuilds of the serving array (Fano x 3,
//! 2 304 chunks a disk), is still whole in the ring after them: a
//! rebuild's trace ends at its batches — its root, a node per round, a
//! node per batch op, ~150 events — where a leaf per device call made it
//! ~7 000, and ten rebuilds lapped the 65 536-slot ring.

use std::collections::BTreeSet;
use std::sync::Arc;

use oi_raid_repro::prelude::*;

/// The events of `root`'s tree, the root's own first.
fn tree(events: &[Event], root: u64) -> Vec<Event> {
    let mut nodes = BTreeSet::from([root]);
    let mut out = Vec::new();
    // Ring order is publication order, and a node is published before its
    // children, so one pass finds every descendant.
    for e in events {
        if e.trace == root || nodes.contains(&e.parent) {
            nodes.insert(e.trace);
            out.push(e.clone());
        }
    }
    out
}

#[test]
fn a_sampled_read_outlives_ten_4k_rebuilds_in_the_trace_ring() {
    telemetry::set_enabled(true);
    telemetry::set_trace_sample(Some(1)); // trace every request
    let cfg = OiRaidConfig::new(fano(), 3, 256).unwrap();
    let store = Arc::new(OiRaidStore::new(cfg, 4 << 10).unwrap());
    store.set_dag_workers(Some(2));
    let disks = store.array().disks();
    let manager = VolumeManager::new(Arc::clone(&store), 4);
    let tenant = manager.add_tenant("reader", TenantClass::default());
    let volume = manager.create_volume(tenant, "v", 512, 8).unwrap();
    manager.write_record(volume, 3, &[0x5A; 512]).unwrap();
    let (results, roots) = manager.submit_traced(vec![Op::Read { volume, record: 3 }]);
    let bytes = results.into_iter().next().unwrap().unwrap();
    assert_eq!(bytes, Some(vec![0x5A; 512]));
    let root = roots[0];
    assert_ne!(root, 0, "the read was sampled");

    let before = tree(&telemetry::traces().snapshot(), root);
    assert_eq!(before[0].kind, EventKind::VolumeRead);
    assert!(
        before.iter().any(|e| e.kind == EventKind::DeviceRead),
        "the read's tree reaches its device leaf: {before:?}"
    );

    for i in 0..10 {
        let disk = (i * 5 + 4) % disks;
        store.fail_disk(disk).unwrap();
        let report = store
            .rebuild(RebuildMode::Dag, RecoveryStrategy::Outer)
            .unwrap();
        assert_eq!(report.outcome, RebuildOutcome::Complete, "{report}");
        assert_eq!(report.chunks_rebuilt, 2304);
    }
    let after = tree(&telemetry::traces().snapshot(), root);
    assert_eq!(after, before, "the read's whole tree is still in the ring");
}
