//! Scheduled mid-session faults: the chaos engine's vocabulary.
//!
//! The paper's most revealing results come from *perturbing* live sessions
//! (`tc` bandwidth cliffs, §4.3) — but real access networks misbehave in
//! richer ways than a static whole-run impairment: WiFi loss is bursty,
//! congestion arrives and leaves, links flap, servers die. This module
//! provides
//!
//! * [`GilbertElliott`] — the classic two-state bursty-loss channel model
//!   (good state ≈ clean, bad state ≈ heavy loss, geometric sojourn times),
//! * [`FaultKind`]/[`FaultEvent`]/[`FaultPlan`] — a deterministic schedule
//!   of timed fault events that the session layer replays against a link's
//!   [`Netem`] as virtual time advances: link flaps, rate cliffs, delay
//!   spikes and Gilbert–Elliott burst-loss episodes, plus SFU outages,
//!   which the session layer handles itself.
//!
//! A plan is pure data: replaying the same plan over the same seeds yields
//! a byte-identical run at any thread count, which is what makes the
//! resilience experiment matrix reproducible.

use crate::netem::{Netem, TokenBucket};
use visionsim_core::rng::SimRng;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::{ByteSize, DataRate};

/// Parameters of a Gilbert–Elliott two-state loss channel.
///
/// Transition probabilities are *per packet* (the model is stepped once per
/// admission): from Good the channel enters Bad with `good_to_bad`, from
/// Bad it returns with `bad_to_good`; each state drops packets i.i.d. at
/// its own rate. Mean sojourn in Bad is `1/bad_to_good` packets — the burst
/// length knob.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeConfig {
    /// P(Good → Bad) per packet.
    pub good_to_bad: f64,
    /// P(Bad → Good) per packet.
    pub bad_to_good: f64,
    /// Per-packet drop probability while Good (usually ~0).
    pub loss_good: f64,
    /// Per-packet drop probability while Bad.
    pub loss_bad: f64,
}

impl GeConfig {
    /// A congested-WiFi-shaped channel: short clean spells punctuated by
    /// loss bursts averaging ~12 packets at 60% loss.
    pub fn wifi_bursts() -> Self {
        GeConfig {
            good_to_bad: 0.02,
            bad_to_good: 0.08,
            loss_good: 0.001,
            loss_bad: 0.6,
        }
    }

    /// Stationary probability of being in the Bad state.
    pub fn stationary_bad(&self) -> f64 {
        let denom = self.good_to_bad + self.bad_to_good;
        if denom <= 0.0 {
            return 0.0;
        }
        self.good_to_bad / denom
    }

    /// Closed-form long-run packet loss rate:
    /// `π_G·loss_good + π_B·loss_bad`.
    pub fn stationary_loss(&self) -> f64 {
        let pb = self.stationary_bad();
        (1.0 - pb) * self.loss_good + pb * self.loss_bad
    }
}

/// The stateful Gilbert–Elliott channel.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    config: GeConfig,
    in_bad: bool,
}

impl GilbertElliott {
    /// A channel starting in the Good state.
    pub fn new(config: GeConfig) -> Self {
        GilbertElliott {
            config,
            in_bad: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &GeConfig {
        &self.config
    }

    /// True while the channel sits in the Bad state.
    pub fn in_bad(&self) -> bool {
        self.in_bad
    }

    /// Step the channel one packet: transition first, then sample the
    /// current state's loss. Returns true when the packet is dropped.
    pub fn sample_drop(&mut self, rng: &mut SimRng) -> bool {
        let leave = if self.in_bad {
            self.config.bad_to_good
        } else {
            self.config.good_to_bad
        };
        self.in_bad ^= rng.chance(leave);
        rng.chance(if self.in_bad {
            self.config.loss_bad
        } else {
            self.config.loss_good
        })
    }
}

/// One kind of fault the chaos engine can inject.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Link goes dark (every packet dropped) until [`FaultKind::LinkUp`].
    LinkDown,
    /// Link comes back.
    LinkUp,
    /// Install a token-bucket rate cliff at the given rate.
    RateCliff(DataRate),
    /// Remove the rate cliff.
    RateRestore,
    /// Add a fixed extra one-way delay.
    DelaySpike(SimDuration),
    /// Remove the extra delay.
    DelayRestore,
    /// Start a Gilbert–Elliott burst-loss episode.
    BurstLossStart(GeConfig),
    /// End the burst-loss episode.
    BurstLossEnd,
    /// The session's SFU server dies. Handled by the *session* layer, not
    /// by [`Netem`]: clients blackhole for `detect`, then spend `reconnect`
    /// reattaching to the next-nearest live site.
    ServerDown {
        /// Time-to-detect: how long clients keep talking to the dead site.
        detect: SimDuration,
        /// Reconnection gap once the failover target is chosen.
        reconnect: SimDuration,
    },
}

impl FaultKind {
    /// Stable short name, used as the flight-recorder site label.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LinkDown => "link_down",
            FaultKind::LinkUp => "link_up",
            FaultKind::RateCliff(_) => "rate_cliff",
            FaultKind::RateRestore => "rate_restore",
            FaultKind::DelaySpike(_) => "delay_spike",
            FaultKind::DelayRestore => "delay_restore",
            FaultKind::BurstLossStart(_) => "burst_loss_start",
            FaultKind::BurstLossEnd => "burst_loss_end",
            FaultKind::ServerDown { .. } => "server_down",
        }
    }

    /// True for the restoring half of an onset/recovery pair.
    /// `ServerDown` has no paired recovery event — the session layer's
    /// failover *is* the recovery — so it reports `false`.
    pub fn is_recovery(&self) -> bool {
        matches!(
            self,
            FaultKind::LinkUp
                | FaultKind::RateRestore
                | FaultKind::DelayRestore
                | FaultKind::BurstLossEnd
        )
    }
}

/// A fault scheduled at an instant of virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, time-ordered schedule of fault events with a replay
/// cursor. Construction sorts events by time (stable, so two events at the
/// same instant fire in insertion order).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// A plan from arbitrary events (sorted on construction).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events, cursor: 0 }
    }

    /// An empty plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// All scheduled events, time-ordered.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events due at or before `now` that have not fired yet. Advances the
    /// replay cursor; call with non-decreasing `now`.
    pub fn due(&mut self, now: SimTime) -> &[FaultEvent] {
        let start = self.cursor;
        while self.cursor < self.events.len() && self.events[self.cursor].at <= now {
            self.cursor += 1;
        }
        &self.events[start..self.cursor]
    }

    /// Reset the replay cursor (for re-running the same plan).
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Merge several plans into one time-ordered schedule.
    pub fn merged(plans: impl IntoIterator<Item = FaultPlan>) -> Self {
        FaultPlan::new(plans.into_iter().flat_map(|p| p.events).collect())
    }

    // --- episode builders -------------------------------------------

    /// A link flap: down at `at`, back up after `outage`.
    pub fn flap(at: SimTime, outage: SimDuration) -> Self {
        FaultPlan::new(vec![
            FaultEvent {
                at,
                kind: FaultKind::LinkDown,
            },
            FaultEvent {
                at: at.saturating_add(outage),
                kind: FaultKind::LinkUp,
            },
        ])
    }

    /// A bandwidth cliff: shape to `rate` at `at`, restore after `hold`.
    pub fn rate_cliff(at: SimTime, rate: DataRate, hold: SimDuration) -> Self {
        FaultPlan::new(vec![
            FaultEvent {
                at,
                kind: FaultKind::RateCliff(rate),
            },
            FaultEvent {
                at: at.saturating_add(hold),
                kind: FaultKind::RateRestore,
            },
        ])
    }

    /// A delay spike of `extra` held for `hold`.
    pub fn delay_spike(at: SimTime, extra: SimDuration, hold: SimDuration) -> Self {
        FaultPlan::new(vec![
            FaultEvent {
                at,
                kind: FaultKind::DelaySpike(extra),
            },
            FaultEvent {
                at: at.saturating_add(hold),
                kind: FaultKind::DelayRestore,
            },
        ])
    }

    /// A Gilbert–Elliott burst-loss episode lasting `hold`.
    pub fn burst_loss(at: SimTime, config: GeConfig, hold: SimDuration) -> Self {
        FaultPlan::new(vec![
            FaultEvent {
                at,
                kind: FaultKind::BurstLossStart(config),
            },
            FaultEvent {
                at: at.saturating_add(hold),
                kind: FaultKind::BurstLossEnd,
            },
        ])
    }

    /// A server outage at `at` with the given detection and reconnection
    /// windows (session-layer failover drill).
    pub fn server_outage(at: SimTime, detect: SimDuration, reconnect: SimDuration) -> Self {
        FaultPlan::new(vec![FaultEvent {
            at,
            kind: FaultKind::ServerDown { detect, reconnect },
        }])
    }
}

/// Apply a netem-level fault to a link's impairment state. Session-layer
/// kinds ([`FaultKind::ServerDown`]) are ignored here — the caller routes
/// those to its own failover machinery.
pub fn apply_to_netem(netem: &mut Netem, kind: &FaultKind) {
    match kind {
        FaultKind::LinkDown => netem.down = true,
        FaultKind::LinkUp => netem.down = false,
        FaultKind::RateCliff(rate) => {
            netem.shaper = Some(TokenBucket::new(*rate, ByteSize::from_kb(32)));
        }
        FaultKind::RateRestore => netem.shaper = None,
        FaultKind::DelaySpike(extra) => netem.extra_delay = *extra,
        FaultKind::DelayRestore => netem.extra_delay = SimDuration::ZERO,
        FaultKind::BurstLossStart(cfg) => netem.ge = Some(GilbertElliott::new(*cfg)),
        FaultKind::BurstLossEnd => netem.ge = None,
        FaultKind::ServerDown { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_and_replays_in_order() {
        let mut plan = FaultPlan::new(vec![
            FaultEvent {
                at: SimTime::from_secs(4),
                kind: FaultKind::LinkUp,
            },
            FaultEvent {
                at: SimTime::from_secs(2),
                kind: FaultKind::LinkDown,
            },
        ]);
        assert_eq!(plan.events()[0].kind, FaultKind::LinkDown);
        assert!(plan.due(SimTime::from_secs(1)).is_empty());
        let due = plan.due(SimTime::from_secs(3));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kind, FaultKind::LinkDown);
        // Already-fired events never fire again.
        assert!(plan.due(SimTime::from_secs(3)).is_empty());
        assert_eq!(plan.due(SimTime::from_secs(10)).len(), 1);
        plan.rewind();
        assert_eq!(plan.due(SimTime::from_secs(10)).len(), 2);
    }

    #[test]
    fn merged_plans_interleave_by_time() {
        let a = FaultPlan::flap(SimTime::from_secs(1), SimDuration::from_secs(5));
        let b = FaultPlan::delay_spike(
            SimTime::from_secs(2),
            SimDuration::from_millis(100),
            SimDuration::from_secs(1),
        );
        let m = FaultPlan::merged([a, b]);
        let times: Vec<u64> = m
            .events()
            .iter()
            .map(|e| e.at.as_nanos() / 1_000_000_000)
            .collect();
        assert_eq!(times, vec![1, 2, 3, 6]);
    }

    #[test]
    fn faults_mutate_and_restore_netem() {
        let mut n = Netem::none();
        apply_to_netem(&mut n, &FaultKind::LinkDown);
        assert!(n.down);
        apply_to_netem(&mut n, &FaultKind::LinkUp);
        assert!(!n.down);
        apply_to_netem(&mut n, &FaultKind::RateCliff(DataRate::from_kbps(400)));
        assert!(n.shaper.is_some());
        apply_to_netem(&mut n, &FaultKind::RateRestore);
        assert!(n.shaper.is_none());
        apply_to_netem(
            &mut n,
            &FaultKind::DelaySpike(SimDuration::from_millis(300)),
        );
        assert_eq!(n.extra_delay, SimDuration::from_millis(300));
        apply_to_netem(&mut n, &FaultKind::DelayRestore);
        assert!(n.extra_delay.is_zero());
        apply_to_netem(&mut n, &FaultKind::BurstLossStart(GeConfig::wifi_bursts()));
        assert!(n.ge.is_some());
        apply_to_netem(&mut n, &FaultKind::BurstLossEnd);
        assert!(n.ge.is_none());
        // Session-layer kinds leave netem untouched.
        let before = format!("{n:?}");
        apply_to_netem(
            &mut n,
            &FaultKind::ServerDown {
                detect: SimDuration::from_secs(1),
                reconnect: SimDuration::from_millis(500),
            },
        );
        assert_eq!(before, format!("{n:?}"));
    }

    #[test]
    fn ge_stationary_arithmetic() {
        let cfg = GeConfig {
            good_to_bad: 0.01,
            bad_to_good: 0.09,
            loss_good: 0.0,
            loss_bad: 0.5,
        };
        assert!((cfg.stationary_bad() - 0.1).abs() < 1e-12);
        assert!((cfg.stationary_loss() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn ge_losses_cluster_in_bursts() {
        let mut ge = GilbertElliott::new(GeConfig {
            good_to_bad: 0.01,
            bad_to_good: 0.2,
            loss_good: 0.0,
            loss_bad: 1.0,
        });
        let mut rng = SimRng::seed_from_u64(11);
        let drops: Vec<bool> = (0..50_000).map(|_| ge.sample_drop(&mut rng)).collect();
        // Probability a drop is followed by another drop must far exceed
        // the marginal drop rate — the definition of burstiness.
        let total = drops.iter().filter(|&&d| d).count() as f64 / drops.len() as f64;
        let pairs = drops.windows(2).filter(|w| w[0]).count();
        let repeat = drops.windows(2).filter(|w| w[0] && w[1]).count() as f64 / pairs as f64;
        assert!(repeat > total * 3.0, "repeat {repeat} vs marginal {total}");
    }
}
