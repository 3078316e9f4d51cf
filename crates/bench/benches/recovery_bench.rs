//! End-to-end rebuild pipeline cost: plan + discrete-event simulation, and
//! the byte-level store's real reconstruction.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use disksim::DiskSpec;
use layout::{Layout, SparePolicy};
use oi_raid::{OiRaid, OiRaidConfig, OiRaidStore, RebuildMode, RecoveryStrategy};

fn bench_simulated_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_rebuild");
    group.sample_size(15);
    let oi = OiRaid::new(OiRaidConfig::new(bibd::fano(), 3, 8).unwrap()).unwrap();
    let spec = DiskSpec::hdd_7200(1_000_000_000_000);
    let chunk = 1_000_000_000_000 / oi.chunks_per_disk() as u64;
    for s in [RecoveryStrategy::Outer, RecoveryStrategy::Hybrid] {
        let plan = oi
            .recovery_plan_with_strategy(0, SparePolicy::Distributed, s)
            .unwrap();
        group.bench_function(format!("oi_{}", s.label()), |b| {
            b.iter(|| black_box(&plan).simulate(&spec, chunk).rebuild_time)
        });
    }
    group.finish();
}

fn bench_store_reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    let store = OiRaidStore::new(OiRaidConfig::reference(), 4096).unwrap();
    for idx in 0..store.data_chunks() {
        store.write_data(idx, &vec![idx as u8; 4096]).unwrap();
    }
    group.bench_function("rebuild_one_disk_4k_chunks", |b| {
        b.iter(|| {
            let s = store.clone();
            s.fail_disk(4).unwrap();
            s.rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid)
                .unwrap();
            s
        })
    });
    group.bench_function("write_update_path", |b| {
        let s = store.clone();
        let buf = vec![0xAAu8; 4096];
        b.iter(|| s.write_data(black_box(17), black_box(&buf)))
    });
    group.finish();
}

criterion_group!(benches, bench_simulated_rebuild, bench_store_reconstruction);
criterion_main!(benches);
