//! Order statistics for window values and latency samples.

/// Median and quartiles of a set of window values, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single measurement.
    pub fn exact(v: f64) -> Self {
        Self {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }
}

/// Quartiles by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so `repeat.sh` and this file
/// agree. Fewer than two values give that value for all three.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite window value"));
    let n = v.len();
    if n == 0 {
        return Summary {
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
            n,
        };
    }
    let at = |q: f64| -> f64 {
        if n == 1 {
            return v[0];
        }
        // Position q*(n+1) on a 1-based scale, clamped into the sample.
        let pos = (q * (n + 1) as f64).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        if lo >= n {
            v[n - 1]
        } else {
            v[lo - 1] + frac * (v[lo] - v[lo - 1])
        }
    };
    Summary {
        median: at(0.5),
        q1: at(0.25),
        q3: at(0.75),
        n,
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    // 99.9 / 100 * 10000 is 9990.000000000002 in floating point.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[4.0]).median, 4.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(10_000, 99.9), 10);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(19, 50.0), 9);
    }
}
