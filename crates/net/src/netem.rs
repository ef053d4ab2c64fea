//! `tc netem`/`tbf`-style link impairments.
//!
//! The paper uses Linux `tc` twice: to inject 0–1000 ms of extra delay for
//! the display-latency experiment (§4.3) and to constrain uplink bandwidth
//! for the rate-adaptation experiment (also §4.3, the 700 kbps cliff).
//! [`Netem`] reproduces those knobs, plus the loss/corruption injection the
//! session guides' reference stack exposes for robustness testing.

use crate::fault::GilbertElliott;
use std::cell::Cell;
use visionsim_core::rng::SimRng;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::{ByteSize, DataRate};

/// Impairment configuration for one link direction.
#[derive(Clone, Debug, Default)]
pub struct Netem {
    /// Fixed extra one-way delay (the `tc netem delay` knob).
    pub extra_delay: SimDuration,
    /// Uniform jitter added on top of `extra_delay`: each packet gets
    /// `U[0, jitter]`.
    pub jitter: SimDuration,
    /// Independent per-packet drop probability in `[0, 1]`.
    pub loss: f64,
    /// Independent per-packet corruption probability in `[0, 1]`; corrupted
    /// packets are delivered but flagged.
    pub corrupt: f64,
    /// Optional token-bucket shaper (the `tc tbf` knob). Packets exceeding
    /// the bucket are delayed until tokens accrue.
    pub shaper: Option<TokenBucket>,
    /// Optional time-varying rate schedule driving the shaper (cellular /
    /// congested-WiFi trace playback). When set, the shaper's rate is
    /// updated from the profile before each packet; a shaper is created on
    /// first use if absent.
    pub profile: Option<RateProfile>,
    /// Link administratively/physically down: every packet dropped (the
    /// chaos engine's link-flap knob).
    pub down: bool,
    /// Optional Gilbert–Elliott bursty-loss channel, stepped per packet.
    /// Applied on top of (before) the independent `loss` probability.
    pub ge: Option<GilbertElliott>,
    /// Fraction of packets held back by `reorder_extra` (the `tc netem
    /// reorder` analogue: held packets arrive after later ones).
    pub reorder: f64,
    /// Extra delay applied to reordered packets.
    pub reorder_extra: SimDuration,
    /// Fraction of packets delivered twice (`tc netem duplicate`).
    pub duplicate: f64,
}

impl Netem {
    /// No impairment.
    pub fn none() -> Self {
        Netem::default()
    }

    /// Only a fixed extra delay (the display-latency experiment).
    pub fn with_delay(extra_delay: SimDuration) -> Self {
        Netem {
            extra_delay,
            ..Netem::default()
        }
    }

    /// Only a rate limit (the bandwidth-cliff experiment). Burst defaults
    /// to 32 KB, `tc tbf`'s common configuration for ~Mbps-class shaping.
    pub fn with_rate_limit(rate: DataRate) -> Self {
        Netem {
            shaper: Some(TokenBucket::new(rate, ByteSize::from_kb(32))),
            ..Netem::default()
        }
    }

    /// A time-varying rate limit following `profile` (trace playback).
    pub fn with_rate_profile(profile: RateProfile) -> Self {
        Netem {
            profile: Some(profile),
            ..Netem::default()
        }
    }

    /// True when no knob except `extra_delay` is active: the verdict is a
    /// constant `Deliver` and zero randomness is drawn. This is the common
    /// case on core links, and the netem half of
    /// [`crate::link::LinkState::is_passthrough`].
    #[inline]
    pub fn is_transparent(&self) -> bool {
        !self.down
            && self.ge.is_none()
            && self.loss == 0.0
            && self.jitter.is_zero()
            && self.profile.is_none()
            && self.shaper.is_none()
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.duplicate == 0.0
    }

    /// Sample the impairment's verdict for one packet.
    pub fn apply(&mut self, now: SimTime, size: ByteSize, rng: &mut SimRng) -> NetemVerdict {
        // Fused transparent-config check: an unimpaired link takes one
        // predictable branch and draws no randomness. The fall-through
        // handles every knob in the same order as always, so RNG draw
        // sequence — and therefore artifact determinism — is unchanged.
        if self.is_transparent() {
            return NetemVerdict::Deliver {
                delay: self.extra_delay,
                corrupt: false,
            };
        }
        if self.down {
            return NetemVerdict::Drop;
        }
        self.apply_impaired(now, size, rng)
    }

    /// The knob-by-knob verdict for a non-transparent, non-down config:
    /// the one place that fixes impairment order and RNG draw order.
    fn apply_impaired(&mut self, now: SimTime, size: ByteSize, rng: &mut SimRng) -> NetemVerdict {
        if let Some(ge) = &mut self.ge {
            if ge.sample_drop(rng) {
                return NetemVerdict::Drop;
            }
        }
        if self.loss > 0.0 && rng.chance(self.loss) {
            return NetemVerdict::Drop;
        }
        let mut delay = self.extra_delay;
        if !self.jitter.is_zero() {
            delay += SimDuration::from_nanos(rng.uniform_u64(0, self.jitter.as_nanos()));
        }
        if let Some(profile) = &self.profile {
            let rate = profile.rate_at(now);
            match &mut self.shaper {
                Some(shaper) => shaper.set_rate(rate),
                None => self.shaper = Some(TokenBucket::new(rate, ByteSize::from_kb(32))),
            }
        }
        if let Some(shaper) = &mut self.shaper {
            match shaper.admit(now, size) {
                Admission::Forward => {}
                Admission::DelayUntil(t) => delay += t.since(now),
                Admission::Drop => return NetemVerdict::Drop,
            }
        }
        if self.reorder > 0.0 && rng.chance(self.reorder) {
            // Held back: this packet will pop out behind packets sent
            // after it — reordering without loss.
            delay += self.reorder_extra;
        }
        let corrupt = self.corrupt > 0.0 && rng.chance(self.corrupt);
        if self.duplicate > 0.0 && rng.chance(self.duplicate) {
            // The duplicate trails the original by a wire-time-scale gap,
            // the way a retransmitting link layer duplicates.
            return NetemVerdict::Duplicate {
                delay,
                dup_delay: delay + SimDuration::from_micros(500),
                corrupt,
            };
        }
        NetemVerdict::Deliver { delay, corrupt }
    }
}

/// Outcome of applying impairments to one packet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NetemVerdict {
    /// Packet dropped.
    Drop,
    /// Packet delivered after `delay`, possibly corrupted.
    Deliver {
        /// Total extra delay to add.
        delay: SimDuration,
        /// Whether to flag the payload as corrupted.
        corrupt: bool,
    },
    /// Packet delivered twice: the original after `delay`, a byte-identical
    /// copy after `dup_delay`.
    Duplicate {
        /// Extra delay for the original.
        delay: SimDuration,
        /// Extra delay for the duplicate copy.
        dup_delay: SimDuration,
        /// Whether to flag both copies as corrupted.
        corrupt: bool,
    },
}

/// A piecewise-constant, cyclically repeating rate schedule — the shape
/// of cellular/congested-WiFi bandwidth traces used to replay real network
/// conditions against the shaper.
#[derive(Clone, Debug)]
pub struct RateProfile {
    /// (segment duration, rate) pairs; the schedule repeats after the last
    /// segment.
    segments: Vec<(SimDuration, DataRate)>,
    /// Cumulative end offset of each segment within the cycle, in
    /// nanoseconds — the binary-search keys for `rate_at`. `bounds[i]` is
    /// the exclusive end of segment `i`; the last entry equals the cycle.
    bounds: Vec<u64>,
    /// Total cycle length.
    cycle: SimDuration,
    /// Segment index the previous lookup landed in. Packet admission times
    /// are near-monotone, so consecutive lookups overwhelmingly re-hit the
    /// same segment; this is purely a cache — results are identical with
    /// or without it.
    last_hit: Cell<usize>,
}

impl RateProfile {
    /// Build from `(duration, rate)` segments (all durations non-zero).
    pub fn new(segments: Vec<(SimDuration, DataRate)>) -> Self {
        assert!(!segments.is_empty(), "profile needs at least one segment");
        assert!(
            segments.iter().all(|(d, r)| !d.is_zero() && *r > DataRate::ZERO),
            "segments need positive durations and rates"
        );
        let mut bounds = Vec::with_capacity(segments.len());
        let mut acc = 0u64;
        for (d, _) in &segments {
            acc += d.as_nanos();
            bounds.push(acc);
        }
        let cycle = SimDuration::from_nanos(acc);
        RateProfile {
            segments,
            bounds,
            cycle,
            last_hit: Cell::new(0),
        }
    }

    /// The rate in force at instant `t` (cyclic). O(1) when `t` lands in
    /// the same segment as the previous call, O(log n) otherwise.
    pub fn rate_at(&self, t: SimTime) -> DataRate {
        let offset = t.as_nanos() % self.cycle.as_nanos();
        let hit = self.last_hit.get();
        let start = if hit == 0 { 0 } else { self.bounds[hit - 1] };
        if start <= offset && offset < self.bounds[hit] {
            return self.segments[hit].1;
        }
        // `offset < cycle == bounds.last()`, so the partition point is
        // always a valid segment index.
        let idx = self.bounds.partition_point(|&end| end <= offset);
        self.last_hit.set(idx);
        self.segments[idx].1
    }

    /// The cycle length.
    pub fn cycle(&self) -> SimDuration {
        self.cycle
    }

    /// Mean rate over one cycle.
    pub fn mean_rate(&self) -> DataRate {
        let weighted: f64 = self
            .segments
            .iter()
            .map(|(d, r)| r.as_bps() as f64 * d.as_secs_f64())
            .sum();
        DataRate::from_bps_f64(weighted / self.cycle.as_secs_f64())
    }
}

/// Shaper admission outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Admission {
    Forward,
    DelayUntil(SimTime),
    Drop,
}

/// A token-bucket rate shaper (the `tc tbf` analogue).
///
/// Tokens are bytes; the bucket refills continuously at `rate` and holds at
/// most `burst` bytes. A packet needing more tokens than the bucket can ever
/// hold is dropped; otherwise it is scheduled for the instant enough tokens
/// will have accrued. A bounded backlog horizon (default 500 ms worth of
/// tokens) drop-tails sustained overload, as a real shaper's queue would.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: DataRate,
    burst: ByteSize,
    /// Token level, in bytes, at `updated`. May go negative (borrowed
    /// tokens) down to the backlog horizon.
    tokens: f64,
    updated: SimTime,
    /// How many bytes of deficit we allow before drop-tailing.
    backlog_limit: f64,
}

impl TokenBucket {
    /// A bucket with the given sustained rate and burst size.
    pub fn new(rate: DataRate, burst: ByteSize) -> Self {
        assert!(rate > DataRate::ZERO, "shaper needs a positive rate");
        let backlog_limit = rate.as_bps() as f64 / 8.0 * 0.5; // 500 ms of data
        TokenBucket {
            rate,
            burst,
            tokens: burst.as_bytes() as f64,
            updated: SimTime::ZERO,
            backlog_limit,
        }
    }

    /// The configured rate.
    pub fn rate(&self) -> DataRate {
        self.rate
    }

    /// Change the sustained rate in place (for trace-driven shaping).
    /// Accrued tokens persist; the backlog horizon follows the new rate.
    pub fn set_rate(&mut self, rate: DataRate) {
        assert!(rate > DataRate::ZERO, "shaper needs a positive rate");
        self.rate = rate;
        self.backlog_limit = rate.as_bps() as f64 / 8.0 * 0.5;
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.since(self.updated).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate.as_bps() as f64 / 8.0)
            .min(self.burst.as_bytes() as f64);
        self.updated = now;
    }

    fn admit(&mut self, now: SimTime, size: ByteSize) -> Admission {
        self.refill(now);
        let need = size.as_bytes() as f64;
        if need > self.burst.as_bytes() as f64 + self.backlog_limit {
            return Admission::Drop;
        }
        self.tokens -= need;
        if self.tokens >= 0.0 {
            Admission::Forward
        } else if -self.tokens > self.backlog_limit {
            // Refund and drop: the backlog is full.
            self.tokens += need;
            Admission::Drop
        } else {
            // Delay until the deficit is repaid.
            let wait_s = -self.tokens / (self.rate.as_bps() as f64 / 8.0);
            Admission::DelayUntil(now + SimDuration::from_secs_f64(wait_s))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_impairment_delivers_immediately() {
        let mut n = Netem::none();
        let mut rng = SimRng::seed_from_u64(1);
        let v = n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng);
        assert_eq!(
            v,
            NetemVerdict::Deliver {
                delay: SimDuration::ZERO,
                corrupt: false
            }
        );
    }

    #[test]
    fn fixed_delay_is_applied_exactly() {
        let mut n = Netem::with_delay(SimDuration::from_millis(250));
        let mut rng = SimRng::seed_from_u64(2);
        match n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) {
            NetemVerdict::Deliver { delay, .. } => {
                assert_eq!(delay, SimDuration::from_millis(250))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn loss_rate_is_respected_statistically() {
        let mut n = Netem {
            loss: 0.3,
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(3);
        let drops = (0..10_000)
            .filter(|_| {
                n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) == NetemVerdict::Drop
            })
            .count();
        assert!((drops as f64 / 10_000.0 - 0.3).abs() < 0.02, "{drops}");
    }

    #[test]
    fn corruption_flags_but_delivers() {
        let mut n = Netem {
            corrupt: 1.0,
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(4);
        match n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) {
            NetemVerdict::Deliver { corrupt, .. } => assert!(corrupt),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn jitter_stays_within_bound() {
        let mut n = Netem {
            extra_delay: SimDuration::from_millis(10),
            jitter: SimDuration::from_millis(5),
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..1_000 {
            if let NetemVerdict::Deliver { delay, .. } =
                n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng)
            {
                assert!(delay >= SimDuration::from_millis(10));
                assert!(delay <= SimDuration::from_millis(15));
            }
        }
    }

    #[test]
    fn rate_profile_schedule_and_cycle() {
        let p = RateProfile::new(vec![
            (SimDuration::from_secs(2), DataRate::from_mbps(4)),
            (SimDuration::from_secs(1), DataRate::from_kbps(500)),
        ]);
        assert_eq!(p.cycle(), SimDuration::from_secs(3));
        assert_eq!(p.rate_at(SimTime::from_millis(500)), DataRate::from_mbps(4));
        assert_eq!(p.rate_at(SimTime::from_millis(2_500)), DataRate::from_kbps(500));
        // Cyclic repetition.
        assert_eq!(p.rate_at(SimTime::from_millis(3_500)), DataRate::from_mbps(4));
        // Mean: (4e6*2 + 0.5e6*1)/3 = 2.833 Mbps.
        assert!((p.mean_rate().as_mbps_f64() - 2.8333).abs() < 0.001);
    }

    #[test]
    #[should_panic(expected = "positive durations")]
    fn rate_profile_rejects_zero_segments() {
        RateProfile::new(vec![(SimDuration::ZERO, DataRate::from_mbps(1))]);
    }

    #[test]
    fn rate_profile_exact_segment_boundaries() {
        // Bounds are exclusive ends: the instant a segment ends belongs to
        // the next segment, and the cycle end wraps to the first.
        let a = DataRate::from_mbps(4);
        let b = DataRate::from_kbps(500);
        let c = DataRate::from_mbps(2);
        let p = RateProfile::new(vec![
            (SimDuration::from_secs(2), a),
            (SimDuration::from_secs(1), b),
            (SimDuration::from_secs(3), c),
        ]);
        assert_eq!(p.rate_at(SimTime::ZERO), a);
        assert_eq!(p.rate_at(SimTime::from_secs(2)), b, "first boundary");
        assert_eq!(p.rate_at(SimTime::from_secs(3)), c, "second boundary");
        // The cycle end (t == cycle) is offset 0 again.
        assert_eq!(p.rate_at(SimTime::from_secs(6)), a, "cycle wrap");
        // One nanosecond either side of a boundary.
        let ns = SimDuration::from_nanos(1);
        assert_eq!(p.rate_at(SimTime::from_secs(2) - ns), a);
        assert_eq!(p.rate_at(SimTime::from_secs(2) + ns), b);
        assert_eq!(p.rate_at(SimTime::from_secs(6) - ns), c);
        assert_eq!(p.rate_at(SimTime::from_secs(6) + ns), a);
    }

    #[test]
    fn rate_profile_before_first_and_after_last_boundary() {
        let a = DataRate::from_mbps(8);
        let b = DataRate::from_kbps(160);
        let p = RateProfile::new(vec![
            (SimDuration::from_millis(10), a),
            (SimDuration::from_millis(5), b),
        ]);
        // Strictly inside the first segment (before the first bound).
        assert_eq!(p.rate_at(SimTime::from_millis(3)), a);
        // Past the last bound: offsets reduce mod the 15 ms cycle, however
        // many cycles out the query lands.
        assert_eq!(p.rate_at(SimTime::from_millis(26)), b); // 26 % 15 = 11
        // Huge t: 1000 s mod 15 ms is exactly the 10 ms bound — second
        // segment (exclusive ends).
        assert_eq!(p.rate_at(SimTime::from_secs(1_000)), b);
        assert_eq!(
            p.rate_at(SimTime::from_nanos(u64::MAX / 2)),
            p.rate_at(SimTime::from_nanos((u64::MAX / 2) % 15_000_000))
        );
    }

    #[test]
    fn rate_profile_out_of_order_queries_do_not_stale_the_cache() {
        // The cached segment index is an accelerator only: alternating
        // lookups that bounce between segments (and wrap the cycle) must
        // return exactly what a fresh binary search would.
        let rates = [
            DataRate::from_mbps(1),
            DataRate::from_mbps(2),
            DataRate::from_mbps(3),
            DataRate::from_mbps(4),
        ];
        let p = RateProfile::new(
            rates
                .iter()
                .map(|&r| (SimDuration::from_millis(100), r))
                .collect(),
        );
        let fresh = |t: SimTime| {
            // Reference: uncached lookup on a new profile.
            let q = RateProfile::new(
                rates
                    .iter()
                    .map(|&r| (SimDuration::from_millis(100), r))
                    .collect(),
            );
            q.rate_at(t)
        };
        // A hostile query order: forward, backward, same-instant repeats,
        // boundary hits, cycle wraps.
        let times_ms = [
            350u64, 50, 50, 399, 0, 250, 100, 99, 700, 300, 1_000_000, 150, 400, 401,
        ];
        for &ms in &times_ms {
            let t = SimTime::from_millis(ms);
            assert_eq!(p.rate_at(t), fresh(t), "stale cache at t={ms} ms");
        }
    }

    #[test]
    fn rate_profile_single_segment_is_constant() {
        let p = RateProfile::new(vec![(SimDuration::from_millis(7), DataRate::from_mbps(6))]);
        for ms in [0u64, 3, 7, 14, 20, 999] {
            assert_eq!(p.rate_at(SimTime::from_millis(ms)), DataRate::from_mbps(6));
        }
    }

    #[test]
    fn profiled_netem_throttles_during_the_dip() {
        // 2 s at 8 Mbps, 1 s at 160 kbps, cycling. Offer 1.6 Mbps steadily;
        // during dips the shaper backlog fills and drops engage.
        let profile = RateProfile::new(vec![
            (SimDuration::from_secs(2), DataRate::from_mbps(8)),
            (SimDuration::from_secs(1), DataRate::from_kbps(160)),
        ]);
        let mut n = Netem::with_rate_profile(profile);
        let mut rng = SimRng::seed_from_u64(9);
        let pkt = ByteSize::from_bytes(1_000);
        let mut t = SimTime::ZERO;
        let mut dropped_in_dip = 0u32;
        let mut dropped_in_clear = 0u32;
        for _ in 0..3_000 {
            // one packet per 5 ms = 1.6 Mbps offered
            let in_dip = t.as_nanos() % 3_000_000_000 >= 2_000_000_000;
            if n.apply(t, pkt, &mut rng) == NetemVerdict::Drop {
                if in_dip {
                    dropped_in_dip += 1;
                } else {
                    dropped_in_clear += 1;
                }
            }
            t += SimDuration::from_millis(5);
        }
        assert!(dropped_in_dip > 50, "dips never dropped: {dropped_in_dip}");
        assert!(
            dropped_in_clear < dropped_in_dip / 4,
            "clear periods dropped too much: {dropped_in_clear} vs {dropped_in_dip}"
        );
    }

    #[test]
    fn token_bucket_passes_within_burst() {
        let mut tb = TokenBucket::new(DataRate::from_mbps(1), ByteSize::from_kb(32));
        assert_eq!(
            tb.admit(SimTime::ZERO, ByteSize::from_kb(10)),
            Admission::Forward
        );
        assert_eq!(
            tb.admit(SimTime::ZERO, ByteSize::from_kb(10)),
            Admission::Forward
        );
    }

    #[test]
    fn token_bucket_delays_when_exhausted() {
        let mut tb = TokenBucket::new(DataRate::from_mbps(8), ByteSize::from_kb(10));
        assert_eq!(
            tb.admit(SimTime::ZERO, ByteSize::from_kb(10)),
            Admission::Forward
        );
        // Bucket is empty; 1 KB needs 1 ms at 8 Mbps (= 1 MB/s).
        match tb.admit(SimTime::ZERO, ByteSize::from_kb(1)) {
            Admission::DelayUntil(t) => {
                assert!((t.as_millis_f64() - 1.0).abs() < 0.01, "{t:?}")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn token_bucket_refills_over_time() {
        let mut tb = TokenBucket::new(DataRate::from_mbps(8), ByteSize::from_kb(10));
        tb.admit(SimTime::ZERO, ByteSize::from_kb(10));
        // After 10 ms at 1 MB/s, 10 KB of tokens are back.
        assert_eq!(
            tb.admit(SimTime::from_millis(10), ByteSize::from_kb(10)),
            Admission::Forward
        );
    }

    #[test]
    fn token_bucket_drops_sustained_overload() {
        let mut tb = TokenBucket::new(DataRate::from_kbps(100), ByteSize::from_kb(4));
        // Flood far beyond the 500 ms backlog horizon.
        let mut dropped = false;
        for _ in 0..100 {
            if tb.admit(SimTime::ZERO, ByteSize::from_kb(4)) == Admission::Drop {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "sustained overload must eventually drop");
    }

    #[test]
    fn link_down_drops_everything() {
        let mut n = Netem {
            down: true,
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng),
                NetemVerdict::Drop
            );
        }
    }

    #[test]
    fn gilbert_elliott_episode_drops_in_bursts() {
        use crate::fault::{GeConfig, GilbertElliott};
        let mut n = Netem {
            ge: Some(GilbertElliott::new(GeConfig {
                good_to_bad: 0.05,
                bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            })),
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(8);
        let verdicts: Vec<bool> = (0..5_000)
            .map(|_| {
                n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) == NetemVerdict::Drop
            })
            .collect();
        let drops = verdicts.iter().filter(|d| **d).count();
        // Stationary loss = 0.05/(0.05+0.2) = 0.2.
        assert!((drops as f64 / 5_000.0 - 0.2).abs() < 0.05, "{drops}");
        // Bursts: a drop is followed by another drop far more often than
        // the marginal rate alone would predict.
        let pairs = verdicts.windows(2).filter(|w| w[0]).count();
        let repeats = verdicts.windows(2).filter(|w| w[0] && w[1]).count();
        assert!(
            repeats as f64 / pairs as f64 > 0.5,
            "loss not bursty: {repeats}/{pairs}"
        );
    }

    #[test]
    fn reorder_holds_back_a_subset() {
        let mut n = Netem {
            reorder: 0.25,
            reorder_extra: SimDuration::from_millis(40),
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(9);
        let mut held = 0u32;
        for _ in 0..4_000 {
            match n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) {
                NetemVerdict::Deliver { delay, .. } => {
                    if delay == SimDuration::from_millis(40) {
                        held += 1;
                    } else {
                        assert_eq!(delay, SimDuration::ZERO);
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((held as f64 / 4_000.0 - 0.25).abs() < 0.03, "{held}");
    }

    #[test]
    fn duplicate_emits_trailing_copy() {
        let mut n = Netem {
            duplicate: 1.0,
            ..Netem::default()
        };
        let mut rng = SimRng::seed_from_u64(10);
        match n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) {
            NetemVerdict::Duplicate {
                delay, dup_delay, ..
            } => {
                assert!(dup_delay > delay);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rate_profile_lookup_is_cache_invariant() {
        let segs = vec![
            (SimDuration::from_millis(300), DataRate::from_mbps(8)),
            (SimDuration::from_millis(150), DataRate::from_kbps(700)),
            (SimDuration::from_millis(50), DataRate::from_mbps(2)),
            (SimDuration::from_millis(500), DataRate::from_kbps(160)),
        ];
        let p = RateProfile::new(segs.clone());
        // Reference linear scan, evaluated fresh each call.
        let linear = |t: SimTime| {
            let mut offset = SimDuration::from_nanos(t.as_nanos() % p.cycle().as_nanos());
            for (d, r) in &segs {
                if offset < *d {
                    return *r;
                }
                offset -= *d;
            }
            unreachable!()
        };
        // Forward sweep, backward sweep, and boundary-adjacent jumps: the
        // last-hit cache must never change an answer.
        let mut probes: Vec<u64> = (0..4_000u64).map(|k| k * 777_777).collect();
        probes.extend((0..4_000u64).rev().map(|k| k * 999_999));
        probes.extend([0, 299_999_999, 300_000_000, 499_999_999, 500_000_000, 999_999_999, 1_000_000_000]);
        for ns in probes {
            let t = SimTime::from_nanos(ns);
            assert_eq!(p.rate_at(t), linear(t), "diverged at {ns} ns");
        }
    }

    #[test]
    fn shaped_netem_long_run_rate_matches_config() {
        // Push 2x the shaped rate for 10 s; delivered volume must match the
        // shaper rate, not the offered rate.
        let rate = DataRate::from_kbps(700);
        let mut n = Netem::with_rate_limit(rate);
        let mut rng = SimRng::seed_from_u64(6);
        let pkt = ByteSize::from_bytes(875); // 7,000 bits
        let mut delivered: u64 = 0;
        let mut t = SimTime::ZERO;
        // Offered: one packet every 5 ms = 1.4 Mbps.
        for _ in 0..2_000 {
            if let NetemVerdict::Deliver { .. } = n.apply(t, pkt, &mut rng) {
                delivered += pkt.as_bytes();
            }
            t += SimDuration::from_millis(5);
        }
        let achieved = ByteSize::from_bytes(delivered)
            .rate_over(SimDuration::from_secs(10))
            .as_kbps_f64();
        assert!(
            (achieved - 700.0).abs() < 75.0,
            "achieved {achieved} kbps, want ~700"
        );
    }
}
