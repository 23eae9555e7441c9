//! Counters, histograms, and summary statistics.
//!
//! Every model in the workspace reports through these types so the
//! benchmark harness can aggregate uniformly. [`Counter`] is a named
//! monotonic count; [`Histogram`] buckets values by powers of two;
//! [`geomean`] is the figure-of-merit aggregator used in the paper's
//! cross-benchmark summaries.

use crate::{impl_json_newtype, impl_json_struct};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(pub u64);

impl_json_newtype!(to_json Counter);
impl_json_struct!(to_json Histogram {
    buckets,
    count,
    sum,
    min,
    max
});

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Value as f64.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl std::ops::AddAssign<u64> for Counter {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl std::fmt::Display for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Power-of-two bucketed histogram for latency / size distributions.
///
/// Bucket `i` holds values in `[2^i, 2^(i+1))`; bucket 0 additionally
/// holds 0 and 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let b = if v <= 1 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Minimum recorded value, or None if empty.
    #[cfg(test)]
    pub(crate) fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum recorded value, or None if empty.
    #[cfg(test)]
    pub(crate) fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate percentile (bucket upper bound). `p` is clamped
    /// into `[0, 100]` (NaN behaves like 0), and an empty histogram
    /// reports 0 at any percentile.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = if p.is_nan() { 0.0 } else { p.clamp(0.0, 100.0) };
        let target = (p / 100.0 * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                return if i == 0 { 1 } else { (1u64 << (i + 1)) - 1 };
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }
}

/// Geometric mean of strictly positive values. Returns 1.0 for an
/// empty slice (the multiplicative identity, matching how papers
/// report "geomean normalized to baseline").
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        c += 5;
        assert_eq!(c.get(), 10);
        assert_eq!(c.to_string(), "10");
    }

    #[test]
    fn histogram_mean_min_max() {
        let mut h = Histogram::new();
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert!((h.mean() - 26.5).abs() < 1e-9);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn histogram_empty_is_zero_at_any_percentile() {
        let h = Histogram::new();
        for p in [-10.0, 0.0, 50.0, 100.0, 250.0, f64::NAN] {
            assert_eq!(h.percentile(p), 0, "empty histogram at p={p}");
        }
    }

    #[test]
    fn histogram_percentile_clamps_out_of_range_p() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        // Below-range and NaN behave like p=0; above-range like p=100.
        assert_eq!(h.percentile(-5.0), h.percentile(0.0));
        assert_eq!(h.percentile(f64::NAN), h.percentile(0.0));
        assert_eq!(h.percentile(1e9), h.percentile(100.0));
        // The ends stay within the recorded range's bucket bounds.
        assert!(h.percentile(0.0) >= 1);
        assert!(h.percentile(100.0) >= 999);
    }

    #[test]
    fn histogram_percentile_monotone() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        let p90 = h.percentile(90.0);
        let p99 = h.percentile(99.0);
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(10);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 17);
        assert_eq!(a.min(), Some(2));
        assert_eq!(a.max(), Some(10));
    }

    #[test]
    fn geomean_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }
}
