//! Lock-free log-bucketed histogram with bounded relative error.
//!
//! The bucket scheme is HdrHistogram-style: values below 16 get exact
//! unit-width buckets; every power-of-two range `[2^m, 2^{m+1})` above
//! that is split into 16 linear sub-buckets. Quantiles read from a bucket
//! therefore carry at most `2^-4 = 6.25 %` relative error (plus the
//! exactly-tracked maximum as a clamp).
//!
//! A histogram is eight shards, one per thread index (see the `shard`
//! module), each allocated on its first record: `record` is three relaxed
//! `fetch_add`s and a compare on the calling thread's own shard, so two
//! threads recording into one histogram touch no common cache line, and a
//! histogram nobody records into costs an array of empty slots. Readers
//! fold the shards.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::shard::{shard_index, SHARDS};

/// log2 of the number of linear sub-buckets per power-of-two range.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two range (and the exact-value floor).
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count: 16 exact small-value buckets plus 16 sub-buckets
/// for each major range `[2^4, 2^5) .. [2^63, 2^64)`.
pub const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// Bucket index for a value (monotone in the value).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = ((v >> (exp - SUB_BITS)) & (SUB as u64 - 1)) as usize;
        SUB * (exp - SUB_BITS + 1) as usize + sub
    }
}

/// Inclusive upper bound of bucket `i` (the value reported for quantiles
/// landing in the bucket; an over-estimate by at most 6.25 %).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let exp = (i / SUB - 1) as u32 + SUB_BITS;
        let sub = (i % SUB) as u64;
        let lower = (1u64 << exp) + (sub << (exp - SUB_BITS));
        // For the very last bucket the upper bound is u64::MAX; compute
        // `lower + width - 1` with the subtraction first to avoid overflow.
        lower + ((1u64 << (exp - SUB_BITS)) - 1)
    }
}

/// A concurrent latency/value histogram.
///
/// `record` takes `&self` and performs only relaxed atomic operations on
/// the calling thread's shard, so any number of threads can record into
/// one histogram; totals are exact (nothing is sampled or dropped), bucket
/// placement is exact, and quantiles are approximate within the bucket
/// scheme's 6.25 % bound. Counts and sums fold the shards with wrapping
/// adds, as one atomic receiving every record would wrap.
///
/// # Example
///
/// ```
/// use telemetry::Histogram;
///
/// telemetry::set_enabled(true);
/// let h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let s = h.snapshot();
/// assert_eq!(s.count, 1000);
/// assert_eq!(s.max, 1000);
/// assert!(s.p50() >= 500 && s.p50() <= 532); // ≤ 6.25 % over
/// ```
pub struct Histogram {
    shards: [OnceLock<Box<Shard>>; SHARDS],
}

/// One thread index's share of a [`Histogram`], on lines of its own.
#[repr(align(128))]
struct Shard {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Shard {
    fn boxed() -> Box<Self> {
        Box::new(Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        })
    }

    fn record(&self, v: u64, n: u64) {
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        // Most records are below the maximum: skip the read-modify-write.
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            shards: [const { OnceLock::new() }; SHARDS],
        }
    }

    /// The calling thread's shard, allocated on first use.
    #[inline]
    fn mine(&self) -> &Shard {
        self.shards[shard_index()].get_or_init(Shard::boxed)
    }

    /// The shards some thread has recorded into.
    fn live(&self) -> impl Iterator<Item = &Shard> {
        self.shards.iter().filter_map(|s| s.get().map(|b| &**b))
    }

    /// Wrapping sum of one field over the shards.
    fn total(&self, field: fn(&Shard) -> &AtomicU64) -> u64 {
        self.live()
            .fold(0, |t, s| t.wrapping_add(field(s).load(Ordering::Relaxed)))
    }

    /// Records one value (no-op while telemetry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of the same value `v` — a batch whose
    /// members all saw one latency — at the cost of one (no-op while
    /// telemetry is disabled, or for `n == 0`).
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 || !crate::enabled() {
            return;
        }
        self.mine().record(v, n);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total(|s| &s.count)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.total(|s| &s.sum)
    }

    /// Largest recorded value (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.live()
            .map(|s| s.max.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Folds another histogram's counts into this one (into the calling
    /// thread's shard).
    pub fn merge_from(&self, other: &Histogram) {
        let theirs = other.snapshot();
        let mine = self.mine();
        for (i, &n) in theirs.buckets.iter().enumerate() {
            if n > 0 {
                mine.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        mine.count.fetch_add(theirs.count, Ordering::Relaxed);
        mine.sum.fetch_add(theirs.sum, Ordering::Relaxed);
        mine.max.fetch_max(theirs.max, Ordering::Relaxed);
    }

    /// Resets every bucket and total to zero.
    pub fn reset(&self) {
        for s in self.live() {
            for b in s.buckets.iter() {
                b.store(0, Ordering::Relaxed);
            }
            s.count.store(0, Ordering::Relaxed);
            s.sum.store(0, Ordering::Relaxed);
            s.max.store(0, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the histogram. Consistent once recording
    /// has quiesced; during concurrent recording the totals may lead or
    /// lag the buckets by in-flight operations.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::default();
        for s in self.live() {
            for (mine, theirs) in snap.buckets.iter_mut().zip(s.buckets.iter()) {
                *mine = mine.wrapping_add(theirs.load(Ordering::Relaxed));
            }
            snap.count = snap.count.wrapping_add(s.count.load(Ordering::Relaxed));
            snap.sum = snap.sum.wrapping_add(s.sum.load(Ordering::Relaxed));
            snap.max = snap.max.max(s.max.load(Ordering::Relaxed));
        }
        snap
    }

    /// Convenience quantile on a fresh snapshot (`q` in `0.0..=1.0`).
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Nearest-rank quantile, `q` in `0.0..=1.0`; returns the containing
    /// bucket's upper bound clamped to the exact maximum (so quantiles
    /// over-estimate by at most 6.25 % and never exceed `max`). Returns 0
    /// for an empty snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Sum of per-bucket counts (equals `count` once recording quiesced).
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_upper(i), n))
    }

    /// Folds another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// `"n=… mean=… p50=… p99=… max=…"` with nanosecond values rendered
    /// as human-readable durations.
    pub fn summary_ns(&self) -> String {
        fn t(ns: u64) -> String {
            if ns >= 1_000_000_000 {
                format!("{:.2}s", ns as f64 / 1e9)
            } else if ns >= 1_000_000 {
                format!("{:.2}ms", ns as f64 / 1e6)
            } else if ns >= 1_000 {
                format!("{:.2}us", ns as f64 / 1e3)
            } else {
                format!("{ns}ns")
            }
        }
        format!(
            "n={} mean={} p50={} p99={} max={}",
            self.count,
            t(self.mean()),
            t(self.p50()),
            t(self.p99()),
            t(self.max)
        )
    }
}

/// Exact nearest-rank quantile of an already **sorted** sample set —
/// the oracle the histogram's bucketed quantiles are property-tested
/// against, and the single implementation `disksim`'s summaries route
/// through so the two cannot drift. `q` is a fraction in `0.0..=1.0`.
///
/// # Panics
///
/// Panics if `sorted` is empty or `q` is outside `0.0..=1.0`.
pub fn exact_percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if q == 0.0 {
        return sorted[0];
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_exact_for_small_values() {
        let _switches = crate::hold_switches();
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        let mut last = 0;
        for v in [16u64, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last, "monotone at {v}");
            last = i;
            let ub = bucket_upper(i);
            assert!(ub >= v, "upper bound covers {v} (got {ub})");
            // ≤ 6.25 % relative over-estimate.
            assert!(ub as f64 <= v as f64 * (1.0 + 1.0 / 16.0) + 1.0);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn every_bucket_upper_maps_back_to_its_bucket() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_upper(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn quantiles_are_ordered_and_clamped_to_max() {
        let _switches = crate::hold_switches();
        let h = Histogram::new();
        for v in [5u64, 10, 100, 1000, 10_000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.p50() <= s.p90());
        assert!(s.p90() <= s.p99());
        assert!(s.p99() <= s.p999());
        assert!(s.p999() <= s.max);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1_011_115);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0);
        assert!(s.summary_ns().contains("n=0"));
    }

    #[test]
    fn record_n_equals_n_records() {
        let _switches = crate::hold_switches();
        let (batched, single) = (Histogram::new(), Histogram::new());
        for (v, n) in [(7u64, 3u64), (4096, 64), (1 << 40, 1), (9, 0)] {
            batched.record_n(v, n);
            (0..n).for_each(|_| single.record(v));
        }
        assert_eq!(batched.snapshot(), single.snapshot());
        assert_eq!(batched.count(), 68);
    }

    #[test]
    fn merge_adds_counts() {
        let _switches = crate::hold_switches();
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v);
            b.record(v + 1000);
        }
        a.merge_from(&b);
        let s = a.snapshot();
        assert_eq!(s.count, 200);
        assert_eq!(s.bucket_total(), 200);
        assert_eq!(s.max, 1099);
        let mut sa = Histogram::new().snapshot();
        sa.merge(&s);
        assert_eq!(sa, s);
    }

    #[test]
    fn reset_clears_everything() {
        let _switches = crate::hold_switches();
        let h = Histogram::new();
        h.record(42);
        h.reset();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max, s.bucket_total()), (0, 0, 0, 0));
    }

    #[test]
    fn exact_percentile_matches_known_values() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_percentile_sorted(&v, 0.0), 1);
        assert_eq!(exact_percentile_sorted(&v, 0.5), 50);
        assert_eq!(exact_percentile_sorted(&v, 0.95), 95);
        assert_eq!(exact_percentile_sorted(&v, 1.0), 100);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn exact_percentile_empty_panics() {
        exact_percentile_sorted(&[], 0.5);
    }

    #[test]
    fn record_duration_uses_nanos() {
        let _switches = crate::hold_switches();
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.max(), 3_000);
    }
}
