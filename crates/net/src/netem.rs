//! `tc netem`/`tbf`-style link impairments.
//!
//! The paper uses Linux `tc` twice: to inject 0–1000 ms of extra delay for
//! the display-latency experiment (§4.3) and to constrain uplink bandwidth
//! for the rate-adaptation experiment (also §4.3, the 700 kbps cliff).
//! [`Netem`] reproduces those knobs, plus jitter, random loss, and the
//! chaos engine's link-down and Gilbert–Elliott burst-loss states
//! ([`crate::fault`]).

use crate::fault::GilbertElliott;
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
    /// Optional token-bucket shaper (the `tc tbf` knob). Packets exceeding
    /// the bucket are delayed until tokens accrue.
    pub shaper: Option<TokenBucket>,
    /// Link administratively/physically down: every packet dropped (the
    /// chaos engine's link-flap knob).
    pub down: bool,
    /// Optional Gilbert–Elliott bursty-loss channel, stepped per packet.
    /// Applied on top of (before) the independent `loss` probability.
    pub ge: Option<GilbertElliott>,
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

    /// True when no knob except `extra_delay` is active: every packet gets
    /// exactly `extra_delay` and zero randomness is drawn. This is the
    /// common case on core links, and the netem half of
    /// [`crate::link::LinkState::is_passthrough`].
    #[inline]
    pub fn is_transparent(&self) -> bool {
        !self.down
            && self.ge.is_none()
            && self.loss == 0.0
            && self.jitter.is_zero()
            && self.shaper.is_none()
    }

    /// Sample the impairment for one packet: its extra delay, or `None`
    /// when it is dropped. This is the one place that fixes impairment
    /// order and RNG draw order.
    pub fn apply(&mut self, now: SimTime, size: ByteSize, rng: &mut SimRng) -> Option<SimDuration> {
        // An unimpaired link takes one predictable branch and draws no
        // randomness.
        if self.is_transparent() {
            return Some(self.extra_delay);
        }
        if self.down {
            return None;
        }
        if let Some(ge) = &mut self.ge {
            if ge.sample_drop(rng) {
                return None;
            }
        }
        if self.loss > 0.0 && rng.chance(self.loss) {
            return None;
        }
        let mut delay = self.extra_delay;
        if !self.jitter.is_zero() {
            delay += SimDuration::from_nanos(rng.uniform_u64(0, self.jitter.as_nanos()));
        }
        if let Some(shaper) = &mut self.shaper {
            match shaper.admit(now, size) {
                Admission::Forward => {}
                Admission::DelayUntil(t) => delay += t.since(now),
                Admission::Drop => return None,
            }
        }
        Some(delay)
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
        assert_eq!(v, Some(SimDuration::ZERO));
    }

    #[test]
    fn fixed_delay_is_applied_exactly() {
        let mut n = Netem::with_delay(SimDuration::from_millis(250));
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(
            n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng),
            Some(SimDuration::from_millis(250))
        );
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
                n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng)
                    .is_none()
            })
            .count();
        assert!((drops as f64 / 10_000.0 - 0.3).abs() < 0.02, "{drops}");
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
            if let Some(delay) = n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng) {
                assert!(delay >= SimDuration::from_millis(10));
                assert!(delay <= SimDuration::from_millis(15));
            }
        }
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
                None
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
                n.apply(SimTime::ZERO, ByteSize::from_bytes(100), &mut rng)
                    .is_none()
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
            if n.apply(t, pkt, &mut rng).is_some() {
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
