//! End-to-end telemetry: a fault-injected rebuild observed live from
//! another thread, phase coverage of the rebuild's wall time, and a
//! linted metric export of everything the run produced.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oi_raid_repro::prelude::*;

/// A reference-config store on latency-injected memory devices, filled
/// with seed-determined data.
fn slow_store(
    chunk_size: usize,
    latency: Duration,
) -> OiRaidStore<FaultInjectingDevice<MemDevice>> {
    let cfg = OiRaidConfig::reference();
    let probe = OiRaidStore::new(cfg.clone(), chunk_size).unwrap();
    let chunks = probe.devices()[0].chunks();
    let devices: Vec<_> = (0..probe.array().disks())
        .map(|_| {
            FaultInjectingDevice::new(
                MemDevice::new(chunk_size, chunks),
                FaultConfig::latency(latency, latency),
            )
        })
        .collect();
    let store = OiRaidStore::with_devices(cfg, chunk_size, devices).unwrap();
    let mut x = 0x5EED_u64;
    for idx in 0..store.data_chunks() {
        let chunk: Vec<u8> = (0..chunk_size)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        store.write_data(idx, &chunk).unwrap();
    }
    store
}

#[test]
fn progress_polled_mid_rebuild_is_monotone_and_reaches_one() {
    telemetry::set_enabled(true);
    let store = slow_store(16, Duration::from_micros(300));
    store.fail_disk(4).unwrap();

    let obs = RebuildObserver::default();
    let progress = Arc::clone(&obs.progress);
    let stop = AtomicBool::new(false);
    let (report, fractions) = std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut seen = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                seen.push(progress.snapshot().fraction);
                std::thread::sleep(Duration::from_micros(100));
            }
            seen.push(progress.snapshot().fraction);
            seen
        });
        let report = store
            .rebuild_observed(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
            .unwrap();
        stop.store(true, Ordering::Relaxed);
        (report, poller.join().unwrap())
    });

    assert!(report.chunks_rebuilt > 0);
    for pair in fractions.windows(2) {
        assert!(pair[1] >= pair[0], "fractions monotone: {fractions:?}");
    }
    assert_eq!(*fractions.last().unwrap(), 1.0, "ends at 100%");
    assert!(
        fractions.iter().any(|&f| f > 0.0 && f < 1.0),
        "observed mid-rebuild at least once: {fractions:?}"
    );
    let snap = progress.snapshot();
    assert!(snap.finished);
    assert_eq!(snap.chunks_written, report.chunks_rebuilt);
    assert!(snap.rate_mib_s > 0.0);
}

#[test]
fn stage_spans_cover_the_rebuild_wall_time() {
    telemetry::set_enabled(true);
    let store = slow_store(16, Duration::from_micros(200));
    store.fail_disk(7).unwrap();
    let obs = RebuildObserver::default();
    let report = store
        .rebuild_observed(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
        .unwrap();
    let phases: u64 = ["plan", "heal", "execute"]
        .iter()
        .map(|p| report.stage(p).expect("phase recorded").latency.sum)
        .sum();
    let cov = phases as f64 / report.wall.as_nanos() as f64;
    assert!(
        cov >= 0.95,
        "plan/heal/execute cover >=95% of the rebuild: {cov}"
    );
    assert_eq!(
        report.stage("execute").unwrap().latency.count,
        1,
        "one execute phase for the single round"
    );
    let queues = report.device_io.iter().filter(|c| c.reads > 0).count();
    assert_eq!(report.workers, 2 * queues, "two workers per read queue");
}

#[test]
fn full_run_exports_lint_clean() {
    telemetry::set_enabled(true);
    let store = slow_store(8, Duration::from_micros(50));
    store.fail_disk(2).unwrap();
    let obs = RebuildObserver::default();
    let report = store
        .rebuild_observed(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
        .unwrap();

    let reg = Registry::new();
    store.export_metrics(&reg);
    obs.export_metrics(&reg);
    reg.counter("oi_rebuild_chunks_total", "Chunks rebuilt", &[])
        .set(report.chunks_rebuilt);

    let text = reg.prometheus();
    lint_prometheus(&text).expect("prometheus output is lint-clean");
    assert!(text.contains("oi_rebuild_stage_latency_ns_bucket"));
    assert!(text.contains("oi_device_injected_latency_ns_total"));
    let json = reg.json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"oi_rebuild_stage_latency_ns\""));

    // Per-stage summaries surfaced on the report (satellite: p50/p99).
    for s in &report.stages {
        assert!(s.latency.p50() <= s.latency.p99());
        assert!(s.to_string().contains(s.stage));
    }
}
