//! Consolidated exposition lint: every layer's exporter — device, store,
//! rebuild, scheduler, volume, SLO, trace rings — registered into ONE
//! registry, scraped as one Prometheus document, and linted as a whole.
//! This is the shape an operator actually scrapes; per-crate tests can't
//! catch cross-exporter collisions (same series name registered twice
//! with different help text) or family-level formatting drift.

use std::sync::Arc;
use std::time::Duration;

use oi_raid_repro::prelude::*;

#[test]
fn union_of_all_exporters_lints_clean_and_covers_every_family() {
    telemetry::set_enabled(true);

    // A store with real traffic, a real degraded period, and a real
    // observed DAG rebuild, fronted by a volume manager with SLO-tracked
    // tenants — so every series below carries non-trivial samples.
    let cfg = OiRaidConfig::reference();
    let probe = OiRaidStore::new(cfg.clone(), 16).unwrap();
    let chunks = probe.devices()[0].chunks();
    let devices: Vec<_> = (0..probe.array().disks())
        .map(|_| FaultInjectingDevice::new(MemDevice::new(16, chunks), FaultConfig::default()))
        .collect();
    let store = Arc::new(OiRaidStore::with_devices(cfg, 16, devices).unwrap());

    let manager = VolumeManager::new(Arc::clone(&store), 4);
    let gold = manager.add_tenant(
        "gold",
        TenantClass::default().with_slo(SloPolicy::new(
            Duration::from_millis(50),
            Duration::from_millis(80),
        )),
    );
    let free = manager.add_tenant("free", TenantClass::default());
    let v1 = manager.create_volume(gold, "gold-v", 24, 16).unwrap();
    let v2 = manager.create_volume(free, "free-v", 24, 16).unwrap();
    for r in 0..16 {
        let rec = vec![r as u8; 24];
        manager.write_record(v1, r, &rec).unwrap();
        manager.write_record(v2, r, &rec).unwrap();
    }

    store.fail_disk(2).unwrap();
    // Degraded traffic while the disk is down.
    let ops: Vec<Op> = (0..16)
        .map(|record| Op::Read { volume: v1, record })
        .collect();
    for res in manager.submit(ops) {
        res.unwrap();
    }
    let obs = RebuildObserver::default();
    let report = store
        .rebuild_observed(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
        .unwrap();
    assert!(report.outcome.is_recovered(), "{report}");

    // One registry, every exporter.
    let reg = Registry::new();
    store.export_metrics(&reg);
    obs.export_metrics(&reg);
    manager.export_metrics(&reg);

    let text = reg.prometheus();
    lint_prometheus(&text).expect("union exposition lints clean");

    // One named series from each family, spanning every layer.
    for series in [
        // blockdev, per disk
        "oi_device_reads_total",
        "oi_device_read_latency_ns",
        "oi_device_faults_total",
        // store foreground/degraded/batch paths
        "oi_store_foreground_reads_total",
        "oi_store_degraded_reads_total",
        "oi_store_batch_read_chunks_total",
        "oi_store_rebuild_throttle_waits_total",
        // parity journal (zeros on a MemDevice store — exported regardless
        // so dashboards don't go blank on non-durable deployments)
        "oi_journal_appends_total",
        "oi_journal_flushes_total",
        "oi_journal_resets_total",
        "oi_journal_bytes_total",
        "oi_journal_tail_bytes",
        "oi_journal_replayed_total",
        "oi_journal_rolled_back_total",
        "oi_journal_batch_records",
        // rebuild engine
        "oi_rebuild_stage_latency_ns",
        "oi_rebuild_retries_total",
        "oi_rebuild_escalations_total",
        // DAG scheduler
        "oi_sched_ready_queue_depth",
        "oi_sched_steals_total",
        // volume layer
        "oi_volume_requests_total",
        "oi_volume_waves_total",
        "oi_volume_request_latency_ns",
        // per-tenant SLO burn rate
        "oi_slo_good_total",
        "oi_slo_burn_rate_milli",
        // lossy-ring drop accounting (trace and flight rings)
        "oi_trace_dropped_total",
    ] {
        assert!(text.contains(series), "union export carries {series}");
    }
    // The drop counter is labelled per ring.
    for ring in ["trace", "flight"] {
        assert!(
            text.contains(&format!("oi_trace_dropped_total{{ring=\"{ring}\"}}")),
            "ring=\"{ring}\" drop counter present"
        );
    }
    // SLO series are per tenant and only for tenants that opted in.
    assert!(text.contains("oi_slo_good_total{op=\"read\",tenant=\"gold\"}"));
    assert!(!text.contains("oi_slo_good_total{op=\"read\",tenant=\"free\"}"));

    // The JSON view of the same registry parses as one object per series.
    let json = reg.json();
    assert!(
        json.starts_with('{') || json.starts_with('['),
        "json export shape"
    );
    assert!(json.contains("oi_slo_burn_rate_milli"));
}
