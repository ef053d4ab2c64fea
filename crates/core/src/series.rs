//! Throughput recording.
//!
//! [`RateSeries`] buckets byte-count events into fixed windows and reads
//! them back as a throughput series, which is how the paper's AP-side
//! Wireshark captures are reduced to Mbps figures.

use crate::time::{SimDuration, SimTime};
use crate::units::{ByteSize, DataRate};

/// Byte arrivals bucketed into fixed windows, read back as throughput.
#[derive(Clone, Debug)]
pub struct RateSeries {
    window: SimDuration,
    /// Bytes per window index.
    buckets: Vec<u64>,
    total: ByteSize,
    first: Option<SimTime>,
    last: Option<SimTime>,
}

impl RateSeries {
    /// A recorder with the given bucketing window (must be non-zero).
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "rate series needs a non-zero window");
        RateSeries {
            window,
            buckets: Vec::new(),
            total: ByteSize::ZERO,
            first: None,
            last: None,
        }
    }

    /// A recorder with the 1-second window used by the paper's throughput
    /// plots.
    pub fn per_second() -> Self {
        RateSeries::new(SimDuration::from_secs(1))
    }

    /// Record `size` bytes arriving at `at`.
    pub fn record(&mut self, at: SimTime, size: ByteSize) {
        let idx = (at.as_nanos() / self.window.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += size.as_bytes();
        self.total += size;
        if self.first.is_none() {
            self.first = Some(at);
        }
        self.last = Some(match self.last {
            Some(l) if l > at => l,
            _ => at,
        });
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> ByteSize {
        self.total
    }

    /// Throughput per window, one sample per elapsed bucket (including empty
    /// buckets between the first and last arrival — silence is data).
    pub fn rates(&self) -> Vec<DataRate> {
        self.buckets
            .iter()
            .map(|&b| ByteSize::from_bytes(b).rate_over(self.window))
            .collect()
    }

    /// Mean throughput over the observed span `[first arrival, end of last
    /// bucket]`. Zero when nothing was recorded.
    pub fn mean_rate(&self) -> DataRate {
        let (Some(first), Some(_)) = (self.first, self.last) else {
            return DataRate::ZERO;
        };
        let end_bucket = self.buckets.len() as u64 * self.window.as_nanos();
        let span = SimTime::from_nanos(end_bucket).since(first);
        self.total.rate_over(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_series_buckets_correctly() {
        let mut rs = RateSeries::per_second();
        // 1 MB in second 0, 2 MB in second 1.
        rs.record(SimTime::from_millis(100), ByteSize::from_mb(1));
        rs.record(SimTime::from_millis(1_500), ByteSize::from_mb(2));
        let rates = rs.rates();
        assert_eq!(rates.len(), 2);
        assert_eq!(rates[0], DataRate::from_mbps(8));
        assert_eq!(rates[1], DataRate::from_mbps(16));
        assert_eq!(rs.total_bytes(), ByteSize::from_mb(3));
    }

    #[test]
    fn constant_stream_mean_rate() {
        let mut rs = RateSeries::per_second();
        // 125 KB every 100 ms = 10 Mbps for 10 seconds.
        for i in 0..100u64 {
            rs.record(
                SimTime::from_millis(i * 100),
                ByteSize::from_bytes(125_000),
            );
        }
        let mean = rs.mean_rate().as_mbps_f64();
        assert!((mean - 10.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn empty_rate_series_is_zero() {
        let rs = RateSeries::per_second();
        assert_eq!(rs.mean_rate(), DataRate::ZERO);
        assert!(rs.rates().is_empty());
    }

    #[test]
    fn silent_gaps_count_as_zero_rate() {
        let mut rs = RateSeries::per_second();
        rs.record(SimTime::from_millis(500), ByteSize::from_mb(1));
        rs.record(SimTime::from_millis(3_500), ByteSize::from_mb(1));
        let rates = rs.rates();
        assert_eq!(rates.len(), 4);
        assert_eq!(rates[1], DataRate::ZERO);
        assert_eq!(rates[2], DataRate::ZERO);
    }
}
