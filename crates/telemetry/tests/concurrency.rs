//! Concurrency: recording from many threads must never lose a count —
//! every increment is a relaxed atomic on a fixed-size table, so the
//! totals have to add up exactly once the writers join.

use std::sync::Arc;

use telemetry::{Histogram, Registry};

#[test]
fn n_thread_record_loses_nothing() {
    telemetry::set_enabled(true);
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let h = Arc::new(Histogram::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = Arc::clone(&h);
            s.spawn(move || {
                // Values spread across the full bucket range, deterministic
                // per thread.
                let mut x = (t + 1) * 0x9E37_79B9;
                for _ in 0..PER_THREAD {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    h.record(x >> (x % 48));
                }
            });
        }
    });
    let snap = h.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD, "no recorded value lost");
    assert_eq!(
        snap.bucket_total(),
        THREADS * PER_THREAD,
        "per-bucket counts sum to the total"
    );
    assert!(snap.p50() <= snap.p99() && snap.p99() <= snap.max);
}

#[test]
fn concurrent_recording_through_registry_handles() {
    telemetry::set_enabled(true);
    let reg = Arc::new(Registry::new());
    let c = reg.counter("ops_total", "ops", &[]);
    let h = reg.histogram("lat_ns", "latency", &[]);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (c, h) = (c.clone(), Arc::clone(&h));
            s.spawn(move || {
                for i in 0..5_000u64 {
                    c.inc();
                    h.record(i);
                }
            });
        }
    });
    assert_eq!(c.get(), 20_000);
    assert_eq!(h.count(), 20_000);
    let text = reg.prometheus();
    assert!(text.contains("ops_total 20000"));
    telemetry::lint_prometheus(&text).expect("clean exposition");
}
