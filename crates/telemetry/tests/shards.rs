//! Exactness of the per-thread shards: once the writers join, a histogram
//! or a sharded counter that eight threads wrote holds exactly what one
//! thread writing the same values would — every bucket, the count, the
//! wrapping sum and the maximum.

use telemetry::{Histogram, Sharded};

const THREADS: u64 = 8;
const PER_THREAD: u64 = 20_000;

/// Thread `t`'s deterministic values, spread over the whole bucket range
/// and large enough (up to 2^64 - 1) that their sum wraps.
fn values(t: u64) -> impl Iterator<Item = u64> {
    let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..PER_THREAD).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x >> (x % 64)
    })
}

#[test]
fn eight_threads_lose_no_bucket_count_sum_or_max() {
    telemetry::set_enabled(true);
    let sharded = Histogram::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let h = &sharded;
            s.spawn(move || values(t).for_each(|v| h.record(v)));
        }
    });
    let serial = Histogram::new();
    let (mut sum, mut max) = (0u64, 0u64);
    for v in (0..THREADS).flat_map(values) {
        serial.record(v);
        sum = sum.wrapping_add(v);
        max = max.max(v);
    }
    let snap = sharded.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    assert_eq!(snap.sum, sum, "the sum wraps as one atomic's would");
    assert!(
        (0..THREADS).flat_map(values).any(|v| v > u64::MAX / 2),
        "the values reach the top range, so the sum did wrap"
    );
    assert_eq!(snap.max, max);
    assert_eq!(
        (sharded.count(), sharded.sum(), sharded.max()),
        (snap.count, snap.sum, snap.max)
    );
    assert_eq!(snap, serial.snapshot(), "every bucket matches");
    // merge_from and reset see every shard.
    let merged = Histogram::new();
    merged.merge_from(&sharded);
    assert_eq!(merged.snapshot(), snap);
    sharded.reset();
    assert_eq!(sharded.snapshot(), Histogram::new().snapshot());
}

#[test]
fn eight_threads_lose_no_counter_add() {
    let counter = Sharded::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let c = &counter;
            s.spawn(move || values(t).for_each(|v| c.add(v)));
        }
    });
    let sum = (0..THREADS)
        .flat_map(values)
        .fold(0u64, |s, v| s.wrapping_add(v));
    assert_eq!(counter.get(), sum);
    let ones = Sharded::new();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| (0..PER_THREAD).for_each(|_| ones.add(1)));
        }
    });
    assert_eq!(ones.get(), THREADS * PER_THREAD);
    ones.reset();
    assert_eq!(ones.get(), 0);
}
