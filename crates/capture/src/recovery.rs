//! Recovery metrics for chaos experiments.
//!
//! When a fault hits a session mid-run (link flap, rate cliff, server
//! death), the interesting numbers are not the steady-state averages but
//! the *transient* ones: how long until the session noticed, how long
//! until it was usable again, how many times it oscillated on the way,
//! and how much wall-clock was spent degraded. [`RecoveryTracker`] turns
//! a timeline of health samples — any boolean signal, e.g. "persona is
//! spatial" or "interval completeness ≥ 0.9" — into a [`RecoveryReport`]
//! relative to a known fault-injection instant.

use visionsim_core::time::{SimDuration, SimTime};

/// Accumulates a health timeline: one boolean sample per observation
/// instant, in non-decreasing time order.
#[derive(Clone, Debug, Default)]
pub struct RecoveryTracker {
    samples: Vec<(SimTime, bool)>,
}

/// The transient-response summary of one fault episode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryReport {
    /// Fault injection → first unhealthy sample at or after it. `None`
    /// when the signal never went unhealthy (the fault was absorbed).
    pub time_to_detect: Option<SimDuration>,
    /// Fault injection → start of the final healthy run (MTTR). `None`
    /// when the fault was absorbed, or when the timeline ends unhealthy
    /// (the session never recovered).
    pub time_to_recover: Option<SimDuration>,
    /// Healthy→unhealthy transitions across the whole timeline. A clean
    /// single-dip episode counts 1; oscillation counts each dip.
    pub flaps: u32,
    /// Total seconds spent unhealthy (each sample covers the interval up
    /// to the next sample; the final sample covers nothing).
    pub degraded_secs: f64,
}

impl RecoveryReport {
    /// True when the signal dipped and came back: the ideal chaos-drill
    /// outcome.
    pub fn recovered(&self) -> bool {
        self.time_to_detect.is_some() && self.time_to_recover.is_some()
    }
}

impl RecoveryTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build directly from a pre-collected timeline.
    pub fn from_samples(samples: Vec<(SimTime, bool)>) -> Self {
        let mut t = Self { samples };
        t.samples.sort_by_key(|&(at, _)| at);
        t
    }

    /// Append one observation. Samples must arrive in time order;
    /// out-of-order inserts are sorted in at report time by
    /// [`RecoveryTracker::from_samples`] but not here.
    pub fn record(&mut self, at: SimTime, healthy: bool) {
        self.samples.push((at, healthy));
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Summarize the transient response to a fault injected at `fault_at`.
    pub fn report(&self, fault_at: SimTime) -> RecoveryReport {
        // Detection: first unhealthy observation at/after the fault.
        let detect_at = self
            .samples
            .iter()
            .find(|&&(at, healthy)| at >= fault_at && !healthy)
            .map(|&(at, _)| at);

        // Recovery: start of the final healthy run *after* detection —
        // the first healthy sample following the last unhealthy one.
        let time_to_recover = detect_at.and_then(|d| {
            let last_bad = self
                .samples
                .iter()
                .rposition(|&(at, healthy)| at >= d && !healthy)?;
            let (rec_at, healthy) = *self.samples.get(last_bad + 1)?;
            healthy.then(|| rec_at.since(fault_at))
        });

        let mut flaps = 0u32;
        let mut degraded_secs = 0.0;
        for pair in self.samples.windows(2) {
            let ((at0, h0), (at1, h1)) = (pair[0], pair[1]);
            if h0 && !h1 {
                flaps += 1;
            }
            if !h0 {
                degraded_secs += at1.since(at0).as_secs_f64();
            }
        }
        // A timeline that *starts* unhealthy already dipped once.
        if self.samples.first().is_some_and(|&(_, h)| !h) {
            flaps += 1;
        }

        RecoveryReport {
            time_to_detect: detect_at.map(|d| d.since(fault_at)),
            time_to_recover,
            flaps,
            degraded_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(samples: &[(u64, bool)]) -> RecoveryTracker {
        RecoveryTracker::from_samples(
            samples
                .iter()
                .map(|&(ms, h)| (SimTime::from_millis(ms), h))
                .collect(),
        )
    }

    #[test]
    fn clean_dip_and_recovery() {
        // Healthy 0-2s, fault at 2s, unhealthy 2.5-4s, healthy from 4.5s.
        let t = timeline(&[
            (0, true),
            (1_000, true),
            (2_000, true),
            (2_500, false),
            (3_000, false),
            (3_500, false),
            (4_000, false),
            (4_500, true),
            (5_000, true),
            (6_000, true),
        ]);
        let r = t.report(SimTime::from_millis(2_000));
        assert_eq!(r.time_to_detect, Some(SimDuration::from_millis(500)));
        assert_eq!(r.time_to_recover, Some(SimDuration::from_millis(2_500)));
        assert_eq!(r.flaps, 1);
        assert!((r.degraded_secs - 2.0).abs() < 1e-9);
        assert!(r.recovered());
    }

    #[test]
    fn absorbed_fault_detects_nothing() {
        let t = timeline(&[(0, true), (1_000, true), (2_000, true), (3_000, true)]);
        let r = t.report(SimTime::from_millis(1_000));
        assert_eq!(r.time_to_detect, None);
        assert_eq!(r.time_to_recover, None);
        assert_eq!(r.flaps, 0);
        assert_eq!(r.degraded_secs, 0.0);
        assert!(!r.recovered());
    }

    #[test]
    fn never_recovering_yields_detect_but_no_mttr() {
        let t = timeline(&[(0, true), (1_000, false), (2_000, false), (3_000, false)]);
        let r = t.report(SimTime::from_millis(500));
        assert_eq!(r.time_to_detect, Some(SimDuration::from_millis(500)));
        assert_eq!(r.time_to_recover, None);
        assert!(!r.recovered());
        assert!((r.degraded_secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn oscillation_counts_each_flap_and_recovers_at_the_last_run() {
        let t = timeline(&[
            (0, true),
            (1_000, false),
            (2_000, true),
            (3_000, false),
            (4_000, true),
            (5_000, true),
        ]);
        let r = t.report(SimTime::from_millis(900));
        assert_eq!(r.flaps, 2);
        // Recovery measured to the *final* healthy run, not the first
        // blip back up at 2s.
        assert_eq!(
            r.time_to_recover,
            Some(SimDuration::from_millis(4_000 - 900))
        );
        assert!((r.degraded_secs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_timeline_is_harmless() {
        let t = RecoveryTracker::new();
        assert!(t.is_empty());
        let r = t.report(SimTime::from_millis(0));
        assert_eq!(r.time_to_detect, None);
        assert_eq!(r.flaps, 0);
    }

    #[test]
    fn fault_at_time_zero_with_unhealthy_first_sample() {
        // The fault lands at t=0 and the very first observation is already
        // unhealthy: detection latency is exactly zero, not skipped.
        let t = timeline(&[(0, false), (500, false), (1_000, true), (2_000, true)]);
        let r = t.report(SimTime::ZERO);
        assert_eq!(r.time_to_detect, Some(SimDuration::ZERO));
        assert_eq!(r.time_to_recover, Some(SimDuration::from_millis(1_000)));
        // Starting unhealthy counts as one dip, no phantom extra flap.
        assert_eq!(r.flaps, 1);
        assert!((r.degraded_secs - 1.0).abs() < 1e-9);
        assert!(r.recovered());
    }

    #[test]
    fn overlapping_faults_share_one_degraded_accounting() {
        // Two faults hit the same participant before the signal comes back:
        // fault A at 1s opens the dip, fault B at 2s lands inside it. Both
        // reports walk the same timeline, so degraded seconds are counted
        // once from the samples — never summed per fault, never negative.
        let t = timeline(&[
            (0, true),
            (1_500, false), // fault A (1s) detected here
            (2_500, false), // fault B (2s) lands inside the same dip
            (3_500, false),
            (4_000, true),
            (5_000, true),
        ]);
        let a = t.report(SimTime::from_millis(1_000));
        let b = t.report(SimTime::from_millis(2_000));
        assert_eq!(a.time_to_detect, Some(SimDuration::from_millis(500)));
        // Fault B's first unhealthy sample at/after injection is 2.5s.
        assert_eq!(b.time_to_detect, Some(SimDuration::from_millis(500)));
        assert_eq!(a.time_to_recover, Some(SimDuration::from_millis(3_000)));
        assert_eq!(b.time_to_recover, Some(SimDuration::from_millis(2_000)));
        // One dip, one flap — the overlapping fault does not re-open it.
        assert_eq!(a.flaps, 1);
        assert_eq!(b.flaps, 1);
        // 1.5s..4s unhealthy = 2.5 degraded seconds, identical under both
        // reports: no double-count from overlapping fault windows.
        assert!((a.degraded_secs - 2.5).abs() < 1e-9);
        assert_eq!(a.degraded_secs, b.degraded_secs);
        assert!(a.degraded_secs >= 0.0);
    }

    #[test]
    fn recovery_that_never_completes_keeps_degraded_exact() {
        // The timeline ends mid-outage: a healthy blip at 2s, then down for
        // good. MTTR must stay `None`, and degraded seconds must cover
        // exactly the observed unhealthy intervals — the final sample's
        // open-ended tail contributes nothing (so the sum can never run
        // negative or overshoot the timeline span).
        let t = timeline(&[
            (0, true),
            (1_000, false),
            (2_000, true),
            (3_000, false),
            (4_000, false),
            (5_000, false),
        ]);
        let r = t.report(SimTime::from_millis(500));
        assert_eq!(r.time_to_detect, Some(SimDuration::from_millis(500)));
        assert_eq!(r.time_to_recover, None);
        assert!(!r.recovered());
        assert_eq!(r.flaps, 2);
        // 1s..2s plus 3s..5s = 3.0s, strictly bounded by the 5s span.
        assert!((r.degraded_secs - 3.0).abs() < 1e-9);
        assert!(r.degraded_secs >= 0.0 && r.degraded_secs <= 5.0);
    }

    #[test]
    fn incremental_recording_matches_batch() {
        let mut inc = RecoveryTracker::new();
        for &(ms, h) in &[(0u64, true), (500, false), (1_000, true)] {
            inc.record(SimTime::from_millis(ms), h);
        }
        let batch = timeline(&[(0, true), (500, false), (1_000, true)]);
        assert_eq!(
            inc.report(SimTime::from_millis(0)),
            batch.report(SimTime::from_millis(0))
        );
        assert_eq!(inc.len(), 3);
    }
}
