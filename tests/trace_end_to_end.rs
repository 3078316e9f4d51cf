//! Cross-layer request tracing, end to end: a degraded read submitted
//! through the [`VolumeManager`] while a DAG rebuild is live must be
//! reconstructible from the global trace ring — volume root → degraded
//! reconstruct → device run → individual device I/Os, the read served on
//! its submitter's thread with no combining wave between — a submitted
//! write's tree must run volume root → combining wave → store batch →
//! write group, and the same trees must be served over HTTP by the scrape
//! endpoint.
//! Separately, an induced `RebuildOutcome::Aborted` must leave the
//! escalation/retry history in the flight recorder.

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use oi_raid_repro::prelude::*;

/// A reference-config store on fault-injectable memory devices.
fn faulty_store(
    chunk_size: usize,
    cfg_per_disk: FaultConfig,
) -> OiRaidStore<FaultInjectingDevice<MemDevice>> {
    let cfg = OiRaidConfig::reference();
    let probe = OiRaidStore::new(cfg.clone(), chunk_size).unwrap();
    let chunks = probe.devices()[0].chunks();
    let devices: Vec<_> = (0..probe.array().disks())
        .map(|_| FaultInjectingDevice::new(MemDevice::new(chunk_size, chunks), cfg_per_disk))
        .collect();
    OiRaidStore::with_devices(cfg, chunk_size, devices).unwrap()
}

/// Blocking one-shot HTTP GET against the scrape server; returns the raw
/// response (status line, headers, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect scrape server");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read response");
    out
}

/// All events reachable from `root` by following parent → trace edges.
fn descendants(events: &[Event], root: u64) -> Vec<Event> {
    let mut children: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events {
        children.entry(e.parent).or_default().push(e);
    }
    let mut out = Vec::new();
    let mut frontier = vec![root];
    while let Some(id) = frontier.pop() {
        if let Some(kids) = children.get(&id) {
            for e in kids {
                out.push((*e).clone());
                frontier.push(e.trace);
            }
        }
    }
    out
}

/// Whether `events` hold a path of `kinds`, each hanging under the one
/// before it, the first under one of `roots`.
fn chain(events: &[Event], roots: &[u64], kinds: &[EventKind]) -> bool {
    let mut parents: Vec<u64> = roots.to_vec();
    for &kind in kinds {
        parents = events
            .iter()
            .filter(|e| e.kind == kind && parents.contains(&e.parent))
            .map(|e| e.trace)
            .collect();
    }
    !parents.is_empty()
}

#[test]
fn degraded_read_during_live_rebuild_reconstructs_from_traces() {
    telemetry::set_enabled(true);
    telemetry::set_trace_sample(Some(1)); // trace every request

    // Slow spindles make the rebuild long enough to overlap with reads.
    let store = Arc::new(faulty_store(
        16,
        FaultConfig::latency(Duration::from_micros(200), Duration::from_micros(200)),
    ));
    // While foreground reads arrive, the rebuild crawls — guaranteeing the
    // window stays open while the traced batches execute. The failed disk
    // holds only a handful of chunks, so the burst allowance must be
    // smaller than the rebuild or pacing never engages.
    store.set_qos(QosConfig {
        rebuild_chunks_per_sec: Some(20.0),
        burst_chunks: 1,
        foreground_window: Duration::from_millis(500),
    });

    let manager = VolumeManager::new(Arc::clone(&store), 4);
    let tenant = manager.add_tenant(
        "tracy",
        TenantClass::default().with_slo(SloPolicy::new(
            Duration::from_millis(250),
            Duration::from_millis(250),
        )),
    );
    let records = 48u64;
    let volume = manager.create_volume(tenant, "v", 24, records).unwrap();
    for r in 0..records {
        let rec: Vec<u8> = (0..24).map(|i| (r as u8) ^ i).collect();
        manager.write_record(volume, r, &rec).unwrap();
    }

    store.fail_disk(4).unwrap();
    // Prime the work-conserving throttle: a foreground batch immediately
    // before the spawn stamps "foreground active", so the rebuild starts
    // paced at 20 chunks/s instead of racing ahead of the first read.
    let ops: Vec<Op> = (0..records)
        .map(|record| Op::Read { volume, record })
        .collect();
    manager.submit(ops);

    let obs = RebuildObserver::default();
    let (roots, report) = std::thread::scope(|s| {
        let rebuild = s.spawn(|| {
            store
                .rebuild_observed(RebuildMode::Dag, RecoveryStrategy::Hybrid, &obs)
                .unwrap()
        });
        // Wait until the rebuild is genuinely live.
        while obs.progress.snapshot().fraction == 0.0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        // Read everything, repeatedly, while the window is open. A batch
        // counts as live only if the rebuild was still unfinished when the
        // batch *completed* — every read in it overlapped the rebuild. Each
        // batch also refreshes the foreground stamp, keeping the rebuild
        // paced until we have what we need.
        let mut live_roots: Vec<u64> = Vec::new();
        for _ in 0..200 {
            if live_roots.len() >= 2 || obs.progress.snapshot().finished {
                break;
            }
            let ops: Vec<Op> = (0..records)
                .map(|record| Op::Read { volume, record })
                .collect();
            let (results, ids) = manager.submit_traced(ops);
            let live = !obs.progress.snapshot().finished;
            for (r, res) in results.into_iter().enumerate() {
                let bytes = res.unwrap().expect("read returns bytes");
                let want: Vec<u8> = (0..24).map(|i| (r as u8) ^ i).collect();
                assert_eq!(bytes, want, "record {r} correct mid-rebuild");
            }
            if live {
                live_roots.extend(ids.into_iter().filter(|&t| t != 0));
            }
        }
        (live_roots, rebuild.join().unwrap())
    });
    assert!(report.outcome.is_recovered(), "{report}");
    assert!(
        !roots.is_empty(),
        "at least one batch completed while the rebuild was live"
    );

    let events = telemetry::traces().snapshot();
    // A read is served on its submitter's thread: no live root fans into a
    // combining wave.
    for &root in &roots {
        assert!(
            !events
                .iter()
                .any(|e| e.parent == root && e.kind == EventKind::Wave),
            "read root {root} has a wave edge"
        );
    }
    // Across the live roots, the full causal chain hangs off a root
    // directly: degraded reconstruct → device run → device I/O leaf.
    let all: Vec<Event> = roots
        .iter()
        .flat_map(|&r| descendants(&events, r))
        .collect();
    let has = |k: EventKind| all.iter().any(|e| e.kind == k);
    assert!(
        has(EventKind::DegradedRead),
        "reads of the failed disk took the reconstruct path"
    );
    assert!(has(EventKind::DiskRun), "device runs under a read");
    assert!(has(EventKind::DeviceRead), "device-level read leaves");
    assert!(
        chain(
            &all,
            &roots,
            &[
                EventKind::DegradedRead,
                EventKind::DiskRun,
                EventKind::DeviceRead
            ]
        ),
        "degraded read -> device run -> device read under a read root"
    );

    // A traced write submission goes through the combining funnel: its
    // root fans into a wave, which issues one store batch of write groups.
    let ops: Vec<Op> = (0..records)
        .map(|r| Op::Write {
            volume,
            record: r,
            data: (0..24).map(|i| (r as u8) ^ i ^ 0x5A).collect(),
        })
        .collect();
    let (results, write_roots) = manager.submit_traced(ops);
    assert!(results.into_iter().all(|r| r == Ok(None)), "writes land");
    let write_roots: Vec<u64> = write_roots.into_iter().filter(|&t| t != 0).collect();
    assert_eq!(write_roots.len(), records as usize, "every write sampled");
    let events = telemetry::traces().snapshot();
    let all: Vec<Event> = write_roots
        .iter()
        .flat_map(|&r| descendants(&events, r))
        .collect();
    assert!(
        chain(
            &all,
            &write_roots,
            &[
                EventKind::Wave,
                EventKind::BatchWrite,
                EventKind::WriteGroup
            ]
        ),
        "wave -> store batch -> write group under a write root"
    );
    // And the rebuild itself is traced, rounds hanging off its root.
    let rebuild_roots: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == EventKind::Rebuild)
        .map(|e| e.trace)
        .collect();
    assert!(!rebuild_roots.is_empty(), "rebuild root recorded");
    assert!(
        events
            .iter()
            .any(|e| e.kind == EventKind::RebuildRound && rebuild_roots.contains(&e.parent)),
        "rebuild rounds link to the rebuild root"
    );

    // The same tree is served over HTTP.
    let reg = Arc::new(Registry::new());
    store.export_metrics(&reg);
    obs.export_metrics(&reg);
    manager.export_metrics(&reg);
    let server = ScrapeServer::start(
        "127.0.0.1:0",
        Arc::clone(&reg),
        Some(Arc::clone(&obs.progress)),
    )
    .expect("scrape server starts");
    let traces = http_get(server.local_addr(), "/traces");
    assert!(traces.starts_with("HTTP/1.1 200"), "{traces}");
    let probe = roots[0];
    assert!(
        traces.contains(&format!("\"trace\":{probe}"))
            || traces.contains(&format!("\"parent\":{probe}")),
        "/traces carries the live root {probe}"
    );
    let health = http_get(server.local_addr(), "/health");
    assert!(health.starts_with("HTTP/1.1 200") && health.ends_with("ok\n"));
    let metrics = http_get(server.local_addr(), "/metrics");
    let body = metrics.split("\r\n\r\n").nth(1).expect("body");
    lint_prometheus(body).expect("scraped /metrics lints clean");
    assert!(body.contains("oi_slo_good_total"), "SLO series exported");

    telemetry::set_trace_sample(Some(64));
}

#[test]
fn aborted_rebuild_leaves_its_history_in_the_flight_recorder() {
    telemetry::set_enabled(true);
    // Reproduces the unrecoverable-escalation recipe: rebuilding disk 0
    // under the Inner strategy reads group siblings 1 and 2, which die on
    // their first read; the re-plan fans out to 3 and 4, which also die.
    // Five failures exceed the tolerance of three — the engine aborts.
    // The surviving disks roll transient-fault dice so the run also
    // produces retries.
    let store = faulty_store(8, FaultConfig::default());
    let mut x = 0xFEED_u64;
    for idx in 0..store.data_chunks() {
        let chunk: Vec<u8> = (0..8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        store.write_data(idx, &chunk).unwrap();
    }
    for d in [1, 2, 3, 4] {
        store.devices()[d].set_config(FaultConfig {
            fail_after_reads: 1,
            ..FaultConfig::default()
        });
    }
    for d in 5..store.array().disks() {
        store.devices()[d].set_config(FaultConfig {
            seed: d as u64,
            transient_read_per_mille: 200,
            ..FaultConfig::default()
        });
    }
    store.fail_disk(0).unwrap();
    let report = store
        .rebuild(RebuildMode::Dag, RecoveryStrategy::Inner)
        .unwrap();
    match &report.outcome {
        RebuildOutcome::Aborted { failed } => assert_eq!(failed, &vec![0, 1, 2, 3, 4]),
        other => panic!("expected abort, got {other:?}"),
    }
    assert!(report.retries > 0, "transient faults caused retries");

    // The flight recorder (always on, no sampling) holds the story: the
    // escalations and retries that led to the abort, and the abort itself.
    let events = telemetry::flight().snapshot();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    assert!(count(EventKind::Escalation) >= 4, "escalations recorded");
    assert!(count(EventKind::Retry) > 0, "retries recorded");
    assert!(count(EventKind::Abort) >= 1, "abort recorded");
    assert!(
        count(EventKind::DegradedTransition) >= 1,
        "initial disk failure recorded"
    );

    // The same dump the engine wrote to stderr on abort, reproduced into
    // a buffer: human-readable, cause-labelled, machine-greppable.
    let mut buf = Vec::new();
    telemetry::flight().dump(&mut buf, "test probe").unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("flight recorder dump: test probe"));
    for needle in ["escalation", "retry", "abort"] {
        assert!(text.contains(needle), "dump mentions {needle}:\n{text}");
    }
}
