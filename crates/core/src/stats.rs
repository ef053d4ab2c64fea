//! Summary statistics.
//!
//! The paper reports results as mean±std ("6.55±0.11 ms") and as boxplots
//! with 5th/25th/median/75th/95th percentiles plus the mean (Figures 4–6).
//! This module provides exactly those summaries:
//!
//! * [`StreamingStats`] — O(1)-memory mean / variance / min / max (Welford).
//! * [`Percentiles`] — exact percentiles over a retained sample set, using
//!   linear interpolation between order statistics (the same convention as
//!   numpy's default, so figures line up with the usual tooling).
//! * [`BoxplotSummary`] — the five-number-plus-mean summary the figures draw.

use crate::sanitizer;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;

/// Streaming mean/variance via Welford's algorithm, plus min/max.
#[derive(Clone, Debug, Default)]
pub struct StreamingStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation. A NaN/Inf observation is accepted (it poisons
    /// the accumulator exactly as it always did — the sanitizer is
    /// observe-only) but recorded as a violation when the
    /// [`crate::sanitizer`] is enabled.
    pub fn push(&mut self, x: f64) {
        sanitizer::check_finite("stats/streaming-nonfinite", x);
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (Bessel-corrected) standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for StreamingStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}±{:.3} (n={})", self.mean(), self.std_dev(), self.n)
    }
}

/// Exact percentile computation over a retained sample set.
#[derive(Clone, Debug, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// An empty sample set.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Build from an existing vector of samples.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        Percentiles {
            samples,
            sorted: false,
        }
    }

    /// Add one observation. Non-finite values are rejected (they would
    /// poison the sort order silently): with the [`crate::sanitizer`]
    /// enabled the rejection is a violation report and the sample is
    /// dropped; without it, a panic (the historical behaviour — a sweep
    /// with no supervision has nothing to collect a report).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            if sanitizer::enabled() {
                sanitizer::report(
                    "stats/percentile-nonfinite",
                    format!("rejected non-finite sample {x}"),
                );
                return;
            }
            panic!("non-finite sample {x}");
        }
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of retained samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            // total_cmp so a NaN smuggled in via `from_samples` cannot
            // panic the sort (it sorts last and is caught upstream by the
            // sanitizer's finite guards). It calls two values equal only
            // when their bits are, so an unstable sort, which needs no
            // scratch buffer, leaves the same bits as a stable one.
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `p`-th percentile with linear interpolation. `p` outside
    /// `[0, 100]` (including NaN) is clamped into range — reported as a
    /// sanitizer violation, never a panic: percentile requests reach this
    /// code from experiment configs, and a bad config must not take down
    /// a supervised cell. Returns NaN on an empty set.
    pub fn percentile(&mut self, p: f64) -> f64 {
        let p = if (0.0..=100.0).contains(&p) {
            p
        } else {
            if sanitizer::enabled() {
                sanitizer::report(
                    "stats/percentile-range",
                    format!("percentile {p} clamped into [0, 100]"),
                );
            }
            // NaN comparisons are all false, so a NaN `p` lands here;
            // clamp maps it to 0 rather than propagating into the rank.
            if p > 100.0 {
                100.0
            } else {
                0.0
            }
        };
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 1 {
            return self.samples[0];
        }
        let rank = p / 100.0 * (n - 1) as f64;
        // Both indices are clamped defensively: rank arithmetic at
        // p = 100 lands exactly on n-1 in every IEEE rounding mode we
        // know of, but an out-of-bounds read here would be silent UB-by-
        // panic in the middle of a figure sweep, so make it impossible.
        let lo = (rank.floor() as usize).min(n - 1);
        let hi = (rank.ceil() as usize).min(n - 1);
        let frac = rank - lo as f64;
        self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Arithmetic mean (NaN on empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Sample standard deviation (0 with fewer than two samples).
    pub fn std_dev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let ss: f64 = self.samples.iter().map(|x| (x - mean).powi(2)).sum();
        (ss / (n - 1) as f64).sqrt()
    }

    /// The boxplot summary used throughout the paper's figures.
    pub fn boxplot(&mut self) -> BoxplotSummary {
        BoxplotSummary {
            p5: self.percentile(5.0),
            p25: self.percentile(25.0),
            median: self.percentile(50.0),
            p75: self.percentile(75.0),
            p95: self.percentile(95.0),
            mean: self.mean(),
            count: self.count(),
        }
    }

    /// Immutable view of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Consume the set, returning its samples in ascending
    /// [`f64::total_cmp`] order without copying them.
    pub fn into_sorted(mut self) -> Vec<f64> {
        self.ensure_sorted();
        self.samples
    }

    /// Build from runs that are each in ascending [`f64::total_cmp`]
    /// order, as [`Percentiles::into_sorted`] returns them. A heap of the
    /// runs' heads merges them into one buffer of their total length,
    /// instead of concatenating them and sorting again. The result holds
    /// the same bits as that sort, because `total_cmp` calls two values
    /// equal only when their bits are.
    pub fn from_sorted_runs<'a>(runs: impl IntoIterator<Item = &'a [f64]>) -> Self {
        let runs: Vec<&[f64]> = runs.into_iter().collect();
        debug_assert!(runs
            .iter()
            .all(|r| r.is_sorted_by(|a, b| a.total_cmp(b).is_le())));
        let mut samples = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
        // Each run's next sample as (order key, run, index in run).
        let mut heads: BinaryHeap<Reverse<(u64, usize, usize)>> = runs
            .iter()
            .enumerate()
            .filter_map(|(run, r)| r.first().map(|&x| Reverse((total_order_key(x), run, 0))))
            .collect();
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((_, run, at)) = *head;
            samples.push(runs[run][at]);
            match runs[run].get(at + 1) {
                Some(&x) => *head = Reverse((total_order_key(x), run, at + 1)),
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        Percentiles {
            samples,
            sorted: true,
        }
    }
}

/// `x`'s bits mapped so that unsigned integer order is
/// [`f64::total_cmp`] order: a negative value flips every bit, any other
/// value sets the sign bit.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The five-number-plus-mean summary drawn as one box in Figures 4–6.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BoxplotSummary {
    /// 5th percentile (lower whisker).
    pub p5: f64,
    /// 25th percentile (box bottom).
    pub p25: f64,
    /// Median (the figures' red bar).
    pub median: f64,
    /// 75th percentile (box top).
    pub p75: f64,
    /// 95th percentile (upper whisker).
    pub p95: f64,
    /// Mean (the figures' blue dot).
    pub mean: f64,
    /// Number of samples behind the summary.
    pub count: usize,
}

impl fmt::Display for BoxplotSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p5={:.3} p25={:.3} med={:.3} p75={:.3} p95={:.3} mean={:.3} (n={})",
            self.p5, self.p25, self.median, self.p75, self.p95, self.mean, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_empty_set_is_nan_not_panic() {
        let mut p = Percentiles::new();
        assert!(p.percentile(0.0).is_nan());
        assert!(p.percentile(50.0).is_nan());
        assert!(p.percentile(100.0).is_nan());
        assert!(p.median().is_nan());
    }

    #[test]
    fn percentile_of_single_sample_is_that_sample() {
        let mut p = Percentiles::new();
        p.push(42.5);
        assert_eq!(p.percentile(0.0), 42.5);
        assert_eq!(p.percentile(50.0), 42.5);
        assert_eq!(p.percentile(100.0), 42.5);
    }

    #[test]
    fn percentile_endpoints_hit_min_and_max() {
        let mut p = Percentiles::new();
        for x in [3.0, 1.0, 4.0, 1.5, 9.0, 2.6] {
            p.push(x);
        }
        assert_eq!(p.percentile(0.0), 1.0);
        assert_eq!(p.percentile(100.0), 9.0);
        // Near-100 values must interpolate inside the range, never index
        // past the last retained sample.
        let near = p.percentile(99.999999999);
        assert!((1.0..=9.0).contains(&near));
    }

    #[test]
    fn out_of_range_percentile_clamps_instead_of_panicking() {
        let mut p = Percentiles::new();
        for x in [1.0, 2.0, 3.0] {
            p.push(x);
        }
        assert_eq!(p.percentile(-5.0), 1.0);
        assert_eq!(p.percentile(150.0), 3.0);
        assert_eq!(p.percentile(f64::NAN), 1.0);
    }

    #[test]
    fn streaming_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = StreamingStats::new();
        for &x in &data {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12); // population variance
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn streaming_merge_equals_sequential() {
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        let mut all = StreamingStats::new();
        for i in 0..50 {
            let x = (i as f64).sin() * 10.0;
            if i % 2 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
            all.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.std_dev() - all.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = StreamingStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert!(s.min().is_nan());
    }

    #[test]
    fn percentile_interpolation() {
        let mut p = Percentiles::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.percentile(0.0), 1.0);
        assert_eq!(p.percentile(100.0), 4.0);
        assert_eq!(p.median(), 2.5);
        assert!((p.percentile(25.0) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_sample() {
        let mut p = Percentiles::from_samples(vec![7.0]);
        assert_eq!(p.percentile(5.0), 7.0);
        assert_eq!(p.percentile(95.0), 7.0);
    }

    #[test]
    fn percentile_empty_is_nan() {
        let mut p = Percentiles::new();
        assert!(p.percentile(50.0).is_nan());
        assert!(p.mean().is_nan());
    }

    #[test]
    fn nonfinite_samples_are_reported_and_dropped_under_sanitizer() {
        let _g = crate::par::override_guard();
        crate::sanitizer::force(Some(true));
        crate::sanitizer::reset();
        let mut p = Percentiles::new();
        p.push(f64::NAN);
        p.push(1.0);
        assert_eq!(p.count(), 1, "NaN must be rejected, not retained");
        assert!(crate::sanitizer::take()
            .iter()
            .any(|v| v.site == "stats/percentile-nonfinite"));
        crate::sanitizer::force(None);
        crate::sanitizer::reset();
    }

    #[test]
    fn rejects_nan_samples_by_panic_without_sanitizer() {
        let _g = crate::par::override_guard();
        crate::sanitizer::force(Some(false));
        let r = std::panic::catch_unwind(|| Percentiles::new().push(f64::NAN));
        crate::sanitizer::force(None);
        assert!(r.is_err(), "unsanitized push must keep its panic contract");
    }

    #[test]
    fn boxplot_is_monotone() {
        let mut p = Percentiles::new();
        for i in 0..1_000 {
            p.push((i as f64 * 0.7).sin() * 50.0 + 100.0);
        }
        let b = p.boxplot();
        assert!(b.p5 <= b.p25);
        assert!(b.p25 <= b.median);
        assert!(b.median <= b.p75);
        assert!(b.p75 <= b.p95);
        assert_eq!(b.count, 1_000);
    }

    #[test]
    fn std_dev_matches_known_value() {
        let p = Percentiles::from_samples(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        // Sample std-dev of this classic set is sqrt(32/7).
        assert!((p.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }
}
