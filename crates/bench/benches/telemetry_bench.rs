//! Telemetry hot-path microbenchmarks: the cost of one histogram record
//! (the operation instrumented I/O pays per call), a snapshot+quantile,
//! the trace-ring hooks, and a full registry export. E15 in
//! `EXPERIMENTS.md` records the measured per-call costs and the end-to-end
//! rebuild overhead they imply.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use telemetry::{Histogram, Registry};

fn bench_histogram(c: &mut Criterion) {
    telemetry::set_enabled(true);
    let h = Histogram::new();
    let mut group = c.benchmark_group("histogram");
    group.sample_size(50);
    group.bench_function("record", |b| {
        let mut x = 0x9E37_79B9u64;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(black_box(x >> (x % 48)));
        })
    });
    for _ in 0..100_000 {
        h.record(rand_like(&h));
    }
    group.bench_function("snapshot_p99", |b| b.iter(|| black_box(h.snapshot().p99())));
    group.finish();

    // The kill switch: a disabled record must be near-free.
    telemetry::set_enabled(false);
    let off = Histogram::new();
    let mut group = c.benchmark_group("histogram_disabled");
    group.sample_size(50);
    group.bench_function("record", |b| b.iter(|| off.record(black_box(42))));
    group.finish();
    telemetry::set_enabled(true);
}

/// Cheap deterministic value derived from the histogram's own count.
fn rand_like(h: &Histogram) -> u64 {
    let mut x = h.count() | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x >> (x % 48)
}

fn bench_export(c: &mut Criterion) {
    telemetry::set_enabled(true);
    let reg = Registry::new();
    for d in 0..21 {
        let disk = d.to_string();
        let h = Arc::new(Histogram::new());
        for v in 0..1000u64 {
            h.record(v * 997);
        }
        reg.register_histogram("lat_ns", "latency", &[("disk", &disk)], h);
        reg.counter("reads_total", "reads", &[("disk", &disk)])
            .inc_by(12345);
    }
    let mut group = c.benchmark_group("export");
    group.sample_size(30);
    group.bench_function("prometheus_21_disks", |b| {
        b.iter(|| black_box(reg.prometheus()))
    });
    group.bench_function("json_21_disks", |b| b.iter(|| black_box(reg.json())));
    group.finish();
}

fn bench_trace_hooks(c: &mut Criterion) {
    // The cross-layer hooks every foreground op may pay (E20): root
    // sampling, ambient-context reads, ring pushes, and the scope helper.
    let mut group = c.benchmark_group("trace_hooks");
    group.sample_size(50);

    // Kill switch off: the per-op cost when tracing is disabled entirely.
    telemetry::set_enabled(false);
    group.bench_function("sample_trace_disabled", |b| {
        b.iter(|| black_box(telemetry::sample_trace()))
    });
    telemetry::set_enabled(true);

    // Enabled but sampling switched off (`OI_RAID_TRACE_SAMPLE=off`).
    telemetry::set_trace_sample(None);
    group.bench_function("sample_trace_off", |b| {
        b.iter(|| black_box(telemetry::sample_trace()))
    });

    // Default 1/64 sampling: mostly the counter increment, 1-in-64 an id.
    telemetry::set_trace_sample(Some(64));
    group.bench_function("sample_trace_1_in_64", |b| {
        b.iter(|| black_box(telemetry::sample_trace()))
    });

    group.bench_function("current_trace", |b| {
        b.iter(|| black_box(telemetry::current_trace()))
    });

    // Untraced request: the scope helper's fast path returns None.
    group.bench_function("trace_scope_untraced", |b| {
        b.iter(|| {
            let g = telemetry::trace_scope(telemetry::EventKind::BatchRead, 1, 0);
            black_box(g.is_none())
        })
    });

    // Sampled request: a full edge event push into the trace ring.
    group.bench_function("trace_event_push", |b| {
        let parent = telemetry::alloc_trace_id();
        b.iter(|| {
            telemetry::trace_event(
                telemetry::EventKind::DeviceRead,
                telemetry::alloc_trace_id(),
                black_box(parent),
                7,
                4096,
            )
        })
    });

    group.bench_function("flight_event_push", |b| {
        b.iter(|| telemetry::flight_event(telemetry::EventKind::Retry, black_box(7), 1))
    });

    telemetry::set_trace_sample(Some(64));
    group.finish();
}

criterion_group!(benches, bench_histogram, bench_export, bench_trace_hooks);
criterion_main!(benches);
