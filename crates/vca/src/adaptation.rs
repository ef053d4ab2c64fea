//! Rate control and persona availability.
//!
//! Two very different control loops, mirroring §4.3's contrast:
//!
//! * [`RateController`] — the 2D-video loop: the receiver reports goodput
//!   and loss once a second; the sender multiplicatively backs off under
//!   loss and additively probes upward when clean (the AIMD shape every
//!   production VCA uses). This is why constrained links degrade 2D
//!   quality instead of killing the call.
//! * [`PersonaAvailability`] — the semantic stream has no ladder. The only
//!   observable is frame completeness; when it stays below a threshold,
//!   the persona is declared unavailable and the UI shows "poor
//!   connection". Recovery requires sustained clean delivery.

use visionsim_core::time::SimTime;
use visionsim_core::trace::{self, TraceKind};
use visionsim_core::units::DataRate;

/// One receiver report covering the last feedback interval.
#[derive(Clone, Copy, Debug)]
pub struct ReceiverReport {
    /// Bytes that arrived in the interval.
    pub received_bytes: u64,
    /// Fraction of packets lost in the interval, `[0, 1]`.
    pub loss: f64,
    /// Interval length, seconds.
    pub interval_s: f64,
}

impl ReceiverReport {
    /// Goodput implied by the report.
    pub fn goodput(&self) -> DataRate {
        if self.interval_s <= 0.0 {
            return DataRate::ZERO;
        }
        DataRate::from_bps_f64(self.received_bytes as f64 * 8.0 / self.interval_s)
    }
}

/// AIMD-style sender rate controller for adaptive 2D video.
#[derive(Clone, Debug)]
pub struct RateController {
    target: DataRate,
    /// Ceiling (the encoder's full-quality rate).
    max: DataRate,
    /// Floor (the encoder ladder bottom).
    min: DataRate,
}

impl RateController {
    /// A controller bounded by the encoder's ladder.
    pub fn new(max: DataRate, min: DataRate) -> Self {
        assert!(min <= max, "min must not exceed max");
        RateController {
            target: max,
            max,
            min,
        }
    }

    /// Current target rate.
    pub fn target(&self) -> DataRate {
        self.target
    }

    /// Process one receiver report, returning the new target.
    pub fn on_report(&mut self, report: &ReceiverReport) -> DataRate {
        if report.loss > 0.02 {
            // Multiplicative decrease toward observed goodput.
            let backed =
                (report.goodput().as_bps() as f64 * 0.85).min(self.target.as_bps() as f64 * 0.8);
            self.target = DataRate::from_bps_f64(backed);
        } else {
            // Additive increase: probe up by 5% of the ceiling.
            let probe = self.target.as_bps() + self.max.as_bps() / 20;
            self.target = DataRate::from_bps(probe);
        }
        self.target = self.target.clamp(self.min, self.max);
        self.target
    }
}

/// The congestion controller's probing state (GCC-style).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CtrlState {
    /// Additively probing for more bandwidth.
    Increase = 0,
    /// Holding the target while the queue drains or signals are marginal.
    Hold = 1,
    /// Backing off multiplicatively after overuse.
    Decrease = 2,
}

/// One feedback interval's congestion signals, as carried by the RR + XR
/// pair: loss from the RR, arrival rate and a queuing-delay estimate from
/// the XR.
#[derive(Clone, Copy, Debug)]
pub struct CongestionSignals {
    /// Fraction of packets lost in the interval, `[0, 1]`.
    pub loss: f64,
    /// Receiver's arrival-rate estimate over the interval.
    pub arrival: DataRate,
    /// Receiver-estimated queuing delay, µs (one-way delay above the
    /// running minimum, or smoothed interarrival jitter as a proxy).
    pub queue_delay_us: u64,
}

/// Delay+loss congestion controller (GCC/BBR-flavored).
///
/// AIMD with a delay-gradient early-warning: loss above a backoff
/// threshold — or a high *and rising* queue-delay estimate — cuts the
/// target multiplicatively toward what actually arrived; marginal signals
/// hold; clean intervals probe upward by a constant additive step. The
/// equal additive step with multiplicative decrease is what makes
/// competing flows converge to fair shares (Chiu–Jain), and the
/// post-backoff hold dwell keeps the controller from re-probing into a
/// queue it just drained.
///
/// Deterministic: state is a pure function of the report sequence. State
/// changes are traced as [`TraceKind::CtrlState`].
#[derive(Clone, Debug)]
pub struct CongestionController {
    /// Flow label used in trace events (e.g. SSRC).
    flow: u64,
    target: DataRate,
    max: DataRate,
    min: DataRate,
    /// Additive probe step per clean report.
    step: DataRate,
    state: CtrlState,
    prev_delay_us: f64,
    /// Smoothed per-report delay gradient, µs.
    gradient_ewma: f64,
    /// Reports left to dwell in `Hold` after a decrease.
    hold_left: u32,
    state_changes: u32,
}

/// Loss fraction above which the controller backs off.
const LOSS_BACKOFF: f64 = 0.10;
/// Loss fraction above which the controller stops probing.
const LOSS_HOLD: f64 = 0.02;
/// Absolute queue delay considered "standing queue", µs.
const DELAY_HIGH_US: f64 = 50_000.0;
/// Smoothed delay gradient above which probing pauses, µs per report.
const GRADIENT_HOLD_US: f64 = 2_000.0;
/// Multiplicative decrease factor.
const BETA: f64 = 0.85;
/// Hold dwell after a decrease, reports.
const HOLD_DWELL: u32 = 2;

impl CongestionController {
    /// A controller for `flow`, bounded by the encoder ladder, probing by
    /// `step` per clean report.
    pub fn new(flow: u64, max: DataRate, min: DataRate, step: DataRate) -> Self {
        assert!(min <= max, "min must not exceed max");
        CongestionController {
            flow,
            target: min,
            max,
            min,
            step,
            state: CtrlState::Increase,
            prev_delay_us: 0.0,
            gradient_ewma: 0.0,
            hold_left: 0,
            state_changes: 0,
        }
    }

    /// Start from a specific initial target (clamped to the bounds).
    pub fn with_initial(mut self, target: DataRate) -> Self {
        self.target = target.clamp(self.min, self.max);
        self
    }

    /// Current target rate.
    pub fn target(&self) -> DataRate {
        self.target
    }

    /// Current probing state.
    pub fn state(&self) -> CtrlState {
        self.state
    }

    /// State transitions so far.
    pub fn state_changes(&self) -> u32 {
        self.state_changes
    }

    /// Target as a fraction of the ceiling — the degradation ladder's
    /// congestion input (sustained backoff pushes this below the ladder
    /// threshold, settling the session in a degraded mode).
    pub fn utilization(&self) -> f64 {
        self.target.as_bps() as f64 / self.max.as_bps().max(1) as f64
    }

    /// Process one feedback interval, returning the new target.
    pub fn on_report(&mut self, now: SimTime, sig: &CongestionSignals) -> DataRate {
        let delay = sig.queue_delay_us as f64;
        let gradient = delay - self.prev_delay_us;
        self.prev_delay_us = delay;
        self.gradient_ewma = 0.5 * self.gradient_ewma + 0.5 * gradient;

        let overuse =
            sig.loss > LOSS_BACKOFF || (delay > DELAY_HIGH_US && self.gradient_ewma > 0.0);
        let marginal = sig.loss > LOSS_HOLD || self.gradient_ewma > GRADIENT_HOLD_US;
        let next = if overuse {
            CtrlState::Decrease
        } else if marginal || self.hold_left > 0 {
            self.hold_left = self.hold_left.saturating_sub(1);
            CtrlState::Hold
        } else {
            CtrlState::Increase
        };
        match next {
            CtrlState::Decrease => {
                // Toward what actually arrived, never above a plain
                // multiplicative cut of the current target.
                let backed =
                    (sig.arrival.as_bps() as f64 * BETA).min(self.target.as_bps() as f64 * BETA);
                self.target = DataRate::from_bps_f64(backed);
                self.hold_left = HOLD_DWELL;
            }
            CtrlState::Hold => {}
            CtrlState::Increase => {
                self.target = DataRate::from_bps(self.target.as_bps() + self.step.as_bps());
            }
        }
        self.target = self.target.clamp(self.min, self.max);
        if next != self.state {
            self.state_changes += 1;
            if trace::enabled() {
                trace::record(
                    TraceKind::CtrlState,
                    now.as_nanos(),
                    0,
                    self.flow,
                    next as u64,
                    self.target.as_bps() / 1_000,
                );
            }
        }
        self.state = next;
        self.target
    }
}

/// Persona availability states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersonaState {
    /// Persona rendering normally.
    Available,
    /// "Poor connection" — persona unavailable.
    PoorConnection,
}

/// The semantic stream's availability state machine.
#[derive(Clone, Debug)]
pub struct PersonaAvailability {
    state: PersonaState,
    /// Consecutive bad feedback intervals.
    bad_streak: u32,
    /// Consecutive good intervals while down.
    good_streak: u32,
    /// Completeness below this is a bad interval.
    threshold: f64,
    /// Bad intervals before declaring poor connection.
    down_after: u32,
    /// Good intervals before recovering.
    up_after: u32,
}

impl Default for PersonaAvailability {
    fn default() -> Self {
        PersonaAvailability {
            state: PersonaState::Available,
            bad_streak: 0,
            good_streak: 0,
            threshold: 0.9,
            down_after: 2,
            up_after: 3,
        }
    }
}

impl PersonaAvailability {
    /// A fresh state machine.
    pub fn new() -> Self {
        PersonaAvailability::default()
    }

    /// Current state.
    pub fn state(&self) -> PersonaState {
        self.state
    }

    /// True when the persona is up.
    pub fn is_available(&self) -> bool {
        self.state == PersonaState::Available
    }

    /// Feed one interval's frame completeness (fraction of semantic frames
    /// fully reassembled). Returns the state after the update.
    pub fn on_interval(&mut self, completeness: f64) -> PersonaState {
        let good = completeness >= self.threshold;
        match self.state {
            PersonaState::Available => {
                if good {
                    self.bad_streak = 0;
                } else {
                    self.bad_streak += 1;
                    if self.bad_streak >= self.down_after {
                        self.state = PersonaState::PoorConnection;
                        self.good_streak = 0;
                    }
                }
            }
            PersonaState::PoorConnection => {
                if good {
                    self.good_streak += 1;
                    if self.good_streak >= self.up_after {
                        self.state = PersonaState::Available;
                        self.bad_streak = 0;
                    }
                } else {
                    self.good_streak = 0;
                }
            }
        }
        self.state
    }
}

/// What a participant's persona is rendered as right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PersonaMode {
    /// Full spatial persona from the semantic stream.
    Spatial,
    /// Degraded: the 2D video fallback is shown instead, because the
    /// semantic stream starved.
    TwoDFallback,
}

/// Graceful-degradation state machine: spatial persona → 2D fallback when
/// the semantic stream starves, with hysteresis so one marginal interval
/// cannot flap the rendering mode.
///
/// Distinct from [`PersonaAvailability`] (which models the paper's observed
/// "poor connection" blankout): the ladder is the recovery behaviour a
/// resilient client *should* have — it swaps in the 2D stream instead of
/// showing nothing, and only swaps back after a sustained healthy window
/// (`up_after` > `down_after`, so recovery is deliberately stickier than
/// failure).
#[derive(Clone, Debug)]
pub struct DegradationLadder {
    mode: PersonaMode,
    bad_streak: u32,
    good_streak: u32,
    /// Completeness below this marks an interval unhealthy.
    threshold: f64,
    /// Unhealthy intervals before falling back to 2D.
    down_after: u32,
    /// Healthy intervals before restoring the spatial persona.
    up_after: u32,
    /// Spatial→2D transitions so far.
    fallbacks: u32,
}

impl Default for DegradationLadder {
    fn default() -> Self {
        DegradationLadder {
            mode: PersonaMode::Spatial,
            bad_streak: 0,
            good_streak: 0,
            threshold: 0.9,
            down_after: 2,
            up_after: 4,
            fallbacks: 0,
        }
    }
}

impl DegradationLadder {
    /// A fresh ladder rendering the spatial persona.
    pub fn new() -> Self {
        DegradationLadder::default()
    }

    /// Current rendering mode.
    pub fn mode(&self) -> PersonaMode {
        self.mode
    }

    /// True while the full spatial persona is rendered.
    pub fn is_spatial(&self) -> bool {
        self.mode == PersonaMode::Spatial
    }

    /// Number of spatial→2D fallback transitions so far.
    pub fn fallbacks(&self) -> u32 {
        self.fallbacks
    }

    /// Feed one interval's semantic frame completeness; returns the mode
    /// in force after the update.
    pub fn on_interval(&mut self, completeness: f64) -> PersonaMode {
        let good = completeness >= self.threshold;
        match self.mode {
            PersonaMode::Spatial => {
                if good {
                    self.bad_streak = 0;
                } else {
                    self.bad_streak += 1;
                    if self.bad_streak >= self.down_after {
                        self.mode = PersonaMode::TwoDFallback;
                        self.fallbacks += 1;
                        self.good_streak = 0;
                    }
                }
            }
            PersonaMode::TwoDFallback => {
                if good {
                    self.good_streak += 1;
                    if self.good_streak >= self.up_after {
                        self.mode = PersonaMode::Spatial;
                        self.bad_streak = 0;
                    }
                } else {
                    self.good_streak = 0;
                }
            }
        }
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_report(rate_mbps: f64) -> ReceiverReport {
        ReceiverReport {
            received_bytes: (rate_mbps * 1e6 / 8.0) as u64,
            loss: 0.0,
            interval_s: 1.0,
        }
    }

    fn lossy_report(rate_mbps: f64, loss: f64) -> ReceiverReport {
        ReceiverReport {
            received_bytes: (rate_mbps * 1e6 / 8.0) as u64,
            loss,
            interval_s: 1.0,
        }
    }

    #[test]
    fn goodput_arithmetic() {
        assert!((clean_report(4.0).goodput().as_mbps_f64() - 4.0).abs() < 1e-9);
        assert_eq!(
            ReceiverReport {
                received_bytes: 100,
                loss: 0.0,
                interval_s: 0.0
            }
            .goodput(),
            DataRate::ZERO
        );
    }

    #[test]
    fn loss_triggers_multiplicative_decrease() {
        let mut rc = RateController::new(DataRate::from_mbps(4), DataRate::from_kbps(300));
        let before = rc.target();
        let after = rc.on_report(&lossy_report(2.0, 0.1));
        assert!(after < before);
        assert!(after.as_mbps_f64() <= 2.0);
    }

    #[test]
    fn clean_reports_probe_upward_to_ceiling() {
        let mut rc = RateController::new(DataRate::from_mbps(4), DataRate::from_kbps(300));
        rc.on_report(&lossy_report(1.0, 0.2)); // knock it down
        let low = rc.target();
        for _ in 0..100 {
            rc.on_report(&clean_report(4.0));
        }
        assert!(rc.target() > low);
        assert_eq!(rc.target(), DataRate::from_mbps(4)); // back at ceiling
    }

    #[test]
    fn controller_respects_the_floor() {
        let mut rc = RateController::new(DataRate::from_mbps(4), DataRate::from_kbps(300));
        for _ in 0..50 {
            rc.on_report(&lossy_report(0.01, 0.5));
        }
        assert_eq!(rc.target(), DataRate::from_kbps(300));
    }

    #[test]
    fn converges_near_a_bottleneck() {
        // A 1 Mbps bottleneck: the controller should settle around it.
        let mut rc = RateController::new(DataRate::from_mbps(4), DataRate::from_kbps(300));
        for _ in 0..200 {
            let offered = rc.target().as_mbps_f64();
            let delivered = offered.min(1.0);
            let loss = if offered > 1.0 {
                (offered - 1.0) / offered
            } else {
                0.0
            };
            rc.on_report(&lossy_report(delivered, loss));
        }
        let settled = rc.target().as_mbps_f64();
        assert!((0.5..1.4).contains(&settled), "settled {settled}");
    }

    #[test]
    fn persona_goes_down_after_sustained_incompleteness() {
        let mut pa = PersonaAvailability::new();
        assert!(pa.is_available());
        pa.on_interval(0.5);
        assert!(pa.is_available(), "one bad interval is tolerated");
        pa.on_interval(0.5);
        assert_eq!(pa.state(), PersonaState::PoorConnection);
    }

    #[test]
    fn persona_recovers_after_sustained_clean_delivery() {
        let mut pa = PersonaAvailability::new();
        pa.on_interval(0.0);
        pa.on_interval(0.0);
        assert!(!pa.is_available());
        pa.on_interval(1.0);
        pa.on_interval(1.0);
        assert!(!pa.is_available(), "recovery needs three good intervals");
        pa.on_interval(1.0);
        assert!(pa.is_available());
    }

    #[test]
    fn isolated_glitches_do_not_flap() {
        let mut pa = PersonaAvailability::new();
        for i in 0..100 {
            let completeness = if i % 10 == 0 { 0.3 } else { 1.0 };
            pa.on_interval(completeness);
            assert!(pa.is_available(), "flapped at interval {i}");
        }
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn controller_rejects_inverted_bounds() {
        RateController::new(DataRate::from_kbps(100), DataRate::from_mbps(1));
    }

    #[test]
    fn ladder_falls_back_after_sustained_starvation() {
        let mut dl = DegradationLadder::new();
        assert!(dl.is_spatial());
        dl.on_interval(0.2);
        assert!(dl.is_spatial(), "one bad interval tolerated");
        dl.on_interval(0.2);
        assert_eq!(dl.mode(), PersonaMode::TwoDFallback);
        assert_eq!(dl.fallbacks(), 1);
    }

    #[test]
    fn ladder_recovery_is_stickier_than_failure() {
        let mut dl = DegradationLadder::new();
        dl.on_interval(0.0);
        dl.on_interval(0.0);
        assert!(!dl.is_spatial());
        for _ in 0..3 {
            dl.on_interval(1.0);
            assert!(!dl.is_spatial(), "recovery needs four healthy intervals");
        }
        dl.on_interval(1.0);
        assert!(dl.is_spatial());
        assert_eq!(dl.fallbacks(), 1, "round trip is one fallback");
    }

    #[test]
    fn ladder_does_not_flap_during_a_single_episode() {
        // One contiguous 2 s starvation episode (intervals at ~1 Hz):
        // exactly one spatial→2D transition, then recovery.
        let mut dl = DegradationLadder::new();
        let timeline = [1.0, 1.0, 0.1, 0.3, 0.2, 0.95, 1.0, 1.0, 1.0, 1.0, 1.0];
        for c in timeline {
            dl.on_interval(c);
        }
        assert_eq!(dl.fallbacks(), 1, "episode must cause exactly one fallback");
        assert!(dl.is_spatial(), "must recover after the healthy window");
    }

    fn sig(loss: f64, arrival_kbps: u64, queue_delay_us: u64) -> CongestionSignals {
        CongestionSignals {
            loss,
            arrival: DataRate::from_kbps(arrival_kbps),
            queue_delay_us,
        }
    }

    fn cc() -> CongestionController {
        CongestionController::new(
            1,
            DataRate::from_mbps(4),
            DataRate::from_kbps(150),
            DataRate::from_kbps(100),
        )
    }

    #[test]
    fn controller_probes_up_when_clean() {
        let mut c = cc();
        let start = c.target();
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            t += visionsim_core::time::SimDuration::from_millis(200);
            c.on_report(t, &sig(0.0, 1_000, 0));
        }
        assert_eq!(c.state(), CtrlState::Increase);
        assert_eq!(
            c.target().as_bps(),
            start.as_bps() + 5 * DataRate::from_kbps(100).as_bps()
        );
    }

    #[test]
    fn heavy_loss_backs_off_toward_arrival() {
        let mut c = cc().with_initial(DataRate::from_mbps(3));
        c.on_report(SimTime::from_millis(200), &sig(0.3, 1_000, 0));
        assert_eq!(c.state(), CtrlState::Decrease);
        // 0.85 × 1 Mbps arrival < 0.85 × 3 Mbps target.
        assert_eq!(c.target(), DataRate::from_bps_f64(1e6 * 0.85));
        // Post-backoff dwell: the next clean report holds, not probes.
        c.on_report(SimTime::from_millis(400), &sig(0.0, 850, 0));
        assert_eq!(c.state(), CtrlState::Hold);
    }

    #[test]
    fn rising_standing_queue_triggers_delay_backoff_without_loss() {
        let mut c = cc().with_initial(DataRate::from_mbps(3));
        let mut t = SimTime::ZERO;
        // Queue delay climbing through the 50 ms standing-queue bar.
        for d in [10_000u64, 30_000, 60_000, 90_000] {
            t += visionsim_core::time::SimDuration::from_millis(200);
            c.on_report(t, &sig(0.0, 2_000, d));
        }
        assert_eq!(
            c.state(),
            CtrlState::Decrease,
            "delay gradient must back off"
        );
        assert!(c.target() < DataRate::from_mbps(3));
    }

    #[test]
    fn marginal_loss_holds_instead_of_probing() {
        let mut c = cc().with_initial(DataRate::from_mbps(2));
        c.on_report(SimTime::from_millis(200), &sig(0.05, 2_000, 0));
        assert_eq!(c.state(), CtrlState::Hold);
        assert_eq!(c.target(), DataRate::from_mbps(2));
    }

    #[test]
    fn controller_respects_floor_and_ceiling() {
        let mut c = cc();
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t += visionsim_core::time::SimDuration::from_millis(200);
            c.on_report(t, &sig(0.5, 10, 0));
        }
        assert_eq!(c.target(), DataRate::from_kbps(150));
        for _ in 0..200 {
            t += visionsim_core::time::SimDuration::from_millis(200);
            c.on_report(t, &sig(0.0, 4_000, 0));
        }
        assert_eq!(c.target(), DataRate::from_mbps(4));
        assert!((c.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_controllers_converge_to_fair_shares_of_a_shared_bottleneck() {
        // Fluid model of a shared 4 Mbps FIFO: each flow's arrival is its
        // capacity share; loss and queue delay appear only when the sum
        // exceeds capacity. AIMD must equalize the rates from a 10:1
        // start.
        let cap = 4.0e6;
        let mut a = cc().with_initial(DataRate::from_kbps(3_000));
        let mut b = cc().with_initial(DataRate::from_kbps(300));
        let mut t = SimTime::ZERO;
        let mut queue_us = 0.0f64;
        for _ in 0..300 {
            t += visionsim_core::time::SimDuration::from_millis(200);
            let ra = a.target().as_bps() as f64;
            let rb = b.target().as_bps() as f64;
            let sum = ra + rb;
            let (loss, arr_a, arr_b) = if sum > cap {
                queue_us = (queue_us + 40_000.0 * (sum / cap - 1.0)).min(200_000.0);
                ((sum - cap) / sum, ra / sum * cap, rb / sum * cap)
            } else {
                queue_us = (queue_us - 20_000.0).max(0.0);
                (0.0, ra, rb)
            };
            a.on_report(t, &sig(loss, (arr_a / 1_000.0) as u64, queue_us as u64));
            b.on_report(t, &sig(loss, (arr_b / 1_000.0) as u64, queue_us as u64));
        }
        let ra = a.target().as_bps() as f64;
        let rb = b.target().as_bps() as f64;
        let jain = (ra + rb).powi(2) / (2.0 * (ra * ra + rb * rb));
        assert!(jain > 0.95, "fairness {jain:.3} (a={ra} b={rb})");
        for r in [ra, rb] {
            assert!(
                (0.3 * cap..=0.7 * cap).contains(&r),
                "flow stuck at {r} of {cap}"
            );
        }
    }

    #[test]
    fn ladder_marginal_interval_resets_recovery_streak() {
        let mut dl = DegradationLadder::new();
        dl.on_interval(0.0);
        dl.on_interval(0.0);
        dl.on_interval(1.0);
        dl.on_interval(1.0);
        dl.on_interval(0.5); // relapse mid-recovery
        dl.on_interval(1.0);
        dl.on_interval(1.0);
        dl.on_interval(1.0);
        assert!(!dl.is_spatial(), "streak must restart after relapse");
        dl.on_interval(1.0);
        assert!(dl.is_spatial());
    }
}
