//! Telemetry end to end: a fault-injected rebuild observed live, then the
//! whole run exported as Prometheus text and JSON (both self-linted).
//!
//! Builds a reference-config array on latency-injected devices, fails a
//! disk, and rebuilds it with the DAG scheduler while a second thread
//! polls the [`Progress`] handle. Afterwards it prints the per-stage
//! latency summaries, worker utilization, the scheduler series, and the
//! metric registry in both exposition formats — then closes with a real
//! crash: it re-execs itself against a durable (journaled) file-backed
//! store, kills the child mid-rebuild at a [`blockdev`] crash point, and
//! resumes from the on-disk checkpoint, showing `resumed_chunks` in the
//! progress snapshot.
//!
//! Run with `cargo run --example stats`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use oi_raid_repro::prelude::*;

const CHUNK: usize = 4096;

/// Child mode for the crash demo: open the durable store, fail a disk,
/// and rebuild — the inherited `OI_CRASH_*` environment aborts the
/// process partway through, leaving a checkpoint behind.
fn crash_child(dir: &std::path::Path) -> Result<(), Box<dyn std::error::Error>> {
    let store = OiRaidStore::open_durable(OiRaidConfig::reference(), CHUNK, dir)?;
    // The parent asks for a checkpoint per landed chunk; the library reads
    // no environment, so the child applies it.
    let interval = std::env::var("OI_RAID_CKPT_INTERVAL")
        .ok()
        .and_then(|v| v.parse().ok());
    if let (Some(interval), Some(mut policy)) = (interval, store.checkpoint_policy()) {
        policy.interval = interval;
        store.set_checkpoint_policy(Some(policy));
    }
    store.fail_disk(4)?;
    // One DAG worker, so the armed hit count names the same writeback on
    // every run.
    store.set_dag_workers(Some(1));
    let obs = RebuildObserver::default();
    store.resume_rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)?;
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Some(dir) = std::env::var_os("OI_STATS_CRASH_DIR") {
        return crash_child(std::path::Path::new(&dir));
    }
    telemetry::set_enabled(true);

    // Latency-injected devices make the rebuild slow enough to watch.
    let cfg = OiRaidConfig::reference();
    let probe = OiRaidStore::new(cfg.clone(), CHUNK)?;
    let chunks = probe.devices()[0].chunks();
    let latency = FaultConfig::latency(Duration::from_micros(400), Duration::from_micros(400));
    let devices: Vec<_> = (0..probe.array().disks())
        .map(|_| FaultInjectingDevice::new(MemDevice::new(CHUNK, chunks), latency))
        .collect();
    let store = OiRaidStore::with_devices(cfg, CHUNK, devices)?;
    for idx in 0..store.data_chunks() {
        store.write_data(idx, &vec![(idx % 251) as u8 + 1; CHUNK])?;
    }

    store.fail_disk(4)?;
    println!("failed disks: {:?}\n", store.failed_disks());

    // Rebuild on this thread; poll the shared progress handle from another.
    let obs = RebuildObserver::default();
    let progress = Arc::clone(&obs.progress);
    let stop = AtomicBool::new(false);
    let report = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let snap = progress.snapshot();
                if snap.total_chunks > 0 {
                    println!("  {snap}");
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let report = store.rebuild_observed(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs);
        stop.store(true, Ordering::Relaxed);
        report
    })?;

    println!("\n{report}");
    println!(
        "worker utilization {:.0}%  peak ready depth {}  peak in-flight {}  steals {}",
        report.worker_utilization() * 100.0,
        report.sched.max_ready_depth,
        report.sched.max_inflight,
        report.sched.steals,
    );
    // `report.stages`: the three sequential phases (plan / heal / execute,
    // one sample per occurrence), then the per-chunk pipeline stages inside
    // execute. The phases must account for the rebuild's wall time.
    println!("\nper-stage latency:");
    for stage in &report.stages {
        println!("  {stage}");
    }
    let phases: u64 = ["plan", "heal", "execute"]
        .iter()
        .filter_map(|p| report.stage(p))
        .map(|s| s.latency.sum)
        .sum();
    let cov = phases as f64 / report.wall.as_nanos() as f64;
    println!("phase coverage of the rebuild: {:.1}%", cov * 100.0);
    assert!(cov >= 0.95, "phases must cover the rebuild wall time");

    // Gather everything the run produced into one registry.
    let reg = Registry::new();
    store.export_metrics(&reg);
    obs.export_metrics(&reg);
    reg.counter("oi_rebuild_chunks_total", "Chunks rebuilt", &[])
        .set(report.chunks_rebuilt);
    reg.counter("oi_rebuild_bytes_total", "Bytes rebuilt", &[])
        .set(report.bytes_rebuilt);

    let text = reg.prometheus();
    lint_prometheus(&text).map_err(|errs| format!("exposition lint failed: {errs:?}"))?;
    for name in [
        "oi_sched_ready_queue_depth",
        "oi_sched_inflight_ops",
        "oi_sched_steals_total",
    ] {
        assert!(
            text.contains(name),
            "scheduler series {name} must be exported"
        );
    }
    // The run is over: the live scheduler gauges must have drained to 0.
    assert!(
        text.contains("oi_sched_inflight_ops 0"),
        "gauges drain after the run"
    );
    println!("\n--- prometheus ({} series, lint-clean) ---", reg.len());
    println!("{text}");

    let json = reg.json();
    println!("--- json ({} bytes) ---", json.len());
    println!("{json}");

    // The whole report as one JSON document — what a harness would archive
    // per run instead of scraping the human-readable display.
    let report_json = report.to_json();
    assert!(report_json.contains("\"outcome\":\"complete\""));
    println!("--- report json ({} bytes) ---", report_json.len());
    println!("{report_json}");

    // --- crash, checkpoint, resume -------------------------------------
    // A durable file-backed store this time: re-exec ourselves as a child
    // that fails a disk and rebuilds, with a crash point armed so the
    // child aborts mid-rebuild. The checkpoint it left behind lets the
    // resumed rebuild skip the chunks the crashed run already restored.
    let dir = std::env::temp_dir().join(format!("oi-raid-stats-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = OiRaidStore::create_durable(OiRaidConfig::reference(), CHUNK, &dir)?;
    for idx in 0..durable.data_chunks() {
        durable.write_data(idx, &vec![(idx % 250) as u8 + 1; CHUNK])?;
    }
    drop(durable);

    let status = std::process::Command::new(std::env::current_exe()?)
        .env("OI_STATS_CRASH_DIR", &dir)
        .env("OI_CRASH_POINT", "rebuild_writeback")
        .env("OI_CRASH_HITS", "6")
        .env("OI_RAID_CKPT_INTERVAL", "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()?;
    assert!(!status.success(), "child must abort mid-rebuild");
    println!("\n--- crash demo: child killed mid-rebuild ({status}) ---");

    // The device files survived the process crash intact, so the disk is
    // NOT re-failed here — the checkpoint reopens the rebuild window and
    // keeps the chunks the crashed run already wrote.
    let store = OiRaidStore::open_durable(OiRaidConfig::reference(), CHUNK, &dir)?;
    let obs = RebuildObserver::default();
    let report = store.resume_rebuild(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)?;
    let snap = obs.progress.snapshot();
    println!("resumed:  {report}");
    println!(
        "progress: {snap}\n          resumed past {} of {} chunks — the same field a live \
         scrape sees as \"resumed_chunks\" on /progress",
        snap.resumed_chunks, snap.total_chunks
    );
    assert!(report.outcome.is_recovered(), "{report}");
    assert!(
        snap.resumed_chunks > 0,
        "checkpoint must pre-credit restored chunks"
    );
    assert!(store.check_parity().is_empty(), "parity clean after resume");
    std::fs::remove_dir_all(&dir)?;

    Ok(())
}
