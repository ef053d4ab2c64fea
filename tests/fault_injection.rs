//! Fault injection across the stack: loss, shaping, delay, and SFU
//! outages, pushed through the *full* session engine — the system must
//! degrade, never panic, and its degradation must match the designed
//! semantics (semantic streams fail hard, 2D streams adapt).

use visionsim::capture::analysis::CaptureAnalysis;
use visionsim::core::time::{SimDuration, SimTime};
use visionsim::core::units::DataRate;
use visionsim::device::device::DeviceKind;
use visionsim::geo::cities;
use visionsim::geo::sites::Provider;
use visionsim::net::fault::{FaultPlan, GeConfig};
use visionsim::vca::adaptation::PersonaMode;
use visionsim::vca::session::{SessionConfig, SessionRunner};

fn spatial_cfg(seed: u64) -> SessionConfig {
    let mut cfg = SessionConfig::two_party(
        Provider::FaceTime,
        (
            DeviceKind::VisionPro,
            cities::by_name("San Francisco, CA").unwrap(),
        ),
        (
            DeviceKind::VisionPro,
            cities::by_name("New York, NY").unwrap(),
        ),
        seed,
    );
    cfg.duration = SimDuration::from_secs(10);
    cfg
}

/// A `tc netem delay` of `ms` on an uplink for the whole session: faults
/// due at a tick apply before that tick's first send, so a delay spike at
/// t = 0 reaches every packet.
fn whole_session_delay(cfg: &SessionConfig, ms: u64) -> FaultPlan {
    FaultPlan::delay_spike(SimTime::ZERO, SimDuration::from_millis(ms), cfg.duration)
}

/// Extreme shaping (64 kbps) starves the stream completely; the session
/// still completes and reports the persona as unavailable.
#[test]
fn starved_uplink_is_survivable() {
    let mut cfg = spatial_cfg(1);
    cfg.uplink_limits = vec![(0, DataRate::from_kbps(64))];
    let out = SessionRunner::new(cfg).run();
    assert!(out.availability_fraction(1) < 0.5);
    // The receiver's own uplink is unconstrained; its persona flows fine
    // the other way.
    assert!(out.availability_fraction(0) > 0.8);
}

/// Both directions shaped at once, in one session: each participant's
/// incoming persona starves simultaneously.
#[test]
fn mutual_starvation_takes_both_personas_down() {
    let mut cfg = spatial_cfg(2);
    cfg.uplink_limits = vec![(0, DataRate::from_kbps(100)), (1, DataRate::from_kbps(100))];
    let out = SessionRunner::new(cfg).run();
    assert!(
        out.availability_fraction(0) < 0.5,
        "participant 0 still saw a persona: {}",
        out.availability_fraction(0)
    );
    assert!(
        out.availability_fraction(1) < 0.5,
        "participant 1 still saw a persona: {}",
        out.availability_fraction(1)
    );
}

/// Large injected delay does not reduce throughput or availability — the
/// stream is open-loop (no retransmission, no congestion response),
/// matching FaceTime's measured behaviour.
#[test]
fn delay_does_not_starve_an_open_loop_stream() {
    let mut cfg = spatial_cfg(3);
    cfg.fault_plans = vec![(0, whole_session_delay(&cfg, 800))];
    let out = SessionRunner::new(cfg).run();
    assert!(
        out.availability_fraction(1) > 0.8,
        "delay killed the persona: {}",
        out.availability_fraction(1)
    );
    let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
    assert!(a.uplink_rate().as_mbps_f64() > 0.3);
}

/// A Webex session under every impairment at once survives with reduced
/// quality.
#[test]
fn twod_session_survives_combined_impairments() {
    let mut cfg = SessionConfig::two_party(
        Provider::Webex,
        (
            DeviceKind::VisionPro,
            cities::by_name("Seattle, WA").unwrap(),
        ),
        (DeviceKind::IPad, cities::by_name("Miami, FL").unwrap()),
        4,
    );
    cfg.duration = SimDuration::from_secs(12);
    cfg.uplink_limits = vec![(0, DataRate::from_kbps(900))];
    cfg.fault_plans = vec![(0, whole_session_delay(&cfg, 200))];
    let out = SessionRunner::new(cfg).run();
    // Adapted down, still alive.
    assert!(out.final_quality[0] < 0.6, "q = {}", out.final_quality[0]);
    assert!(out.final_quality[0] >= 0.05);
    let a = CaptureAnalysis::new(out.taps[1].iter(), out.client_addrs[1]);
    assert!(a.downlink_rate().as_bps() > 0, "nothing arrived at U2");
}

/// Every device-mix combination on every provider runs to completion
/// (exhaustive smoke across the configuration matrix).
#[test]
fn configuration_matrix_never_panics() {
    let sf = cities::by_name("San Francisco, CA").unwrap();
    let chi = cities::by_name("Chicago, IL").unwrap();
    for provider in Provider::ALL {
        for peer in [
            DeviceKind::VisionPro,
            DeviceKind::MacBook,
            DeviceKind::IPad,
            DeviceKind::IPhone,
        ] {
            let mut cfg =
                SessionConfig::two_party(provider, (DeviceKind::VisionPro, sf), (peer, chi), 5);
            cfg.duration = SimDuration::from_secs(2);
            let out = SessionRunner::new(cfg).run();
            assert!(!out.taps[0].is_empty(), "{provider}/{peer}: empty capture");
        }
    }
}

/// A 2-second severe burst-loss episode mid-session: the degradation
/// ladder falls back to the 2D persona at most once (hysteresis — no
/// oscillation inside one episode) and recovers to spatial afterwards.
#[test]
fn burst_loss_falls_back_at_most_once_then_recovers() {
    let mut cfg = spatial_cfg(7);
    cfg.duration = SimDuration::from_secs(14);
    cfg.fault_plans = vec![(
        0,
        FaultPlan::burst_loss(
            SimTime::from_millis(4_000),
            GeConfig {
                good_to_bad: 0.05,
                bad_to_good: 0.02,
                loss_good: 0.0,
                loss_bad: 0.9,
            },
            SimDuration::from_secs(2),
        ),
    )];
    let out = SessionRunner::new(cfg).run();
    assert!(
        out.fallbacks[1] <= 1,
        "ladder oscillated during one episode: {} fallbacks",
        out.fallbacks[1]
    );
    let timeline = &out.mode_log[1];
    assert!(!timeline.is_empty(), "spatial session must log modes");
    assert_eq!(
        timeline.last().unwrap().1,
        PersonaMode::Spatial,
        "persona never recovered after the burst"
    );
    // The unimpaired direction never degrades at all.
    assert_eq!(out.fallbacks[0], 0);
}

/// The assigned SFU site dies mid-call: after the detection + reconnect
/// gap both clients reattach to the next-nearest live site and media
/// flows again — exactly one failover, and the persona is back by the
/// end of the session.
#[test]
fn sfu_failover_moves_the_session_and_recovers() {
    let mut cfg = spatial_cfg(8);
    cfg.duration = SimDuration::from_secs(14);
    cfg.fault_plans = vec![(
        0,
        FaultPlan::server_outage(
            SimTime::from_millis(4_000),
            SimDuration::from_secs(1),
            SimDuration::from_millis(500),
        ),
    )];
    let out = SessionRunner::new(cfg).run();
    assert_eq!(
        out.failovers.len(),
        1,
        "expected one failover: {:?}",
        out.failovers
    );
    let (at, ref new_site) = out.failovers[0];
    // Completion no earlier than detect + reconnect after injection.
    assert!(
        at >= SimTime::from_millis(5_500),
        "failover completed early: {at:?}"
    );
    // The replacement differs from the site the session started on.
    let original = out.assignment.as_ref().unwrap().attachments[0].label;
    assert_ne!(new_site, original, "failed over to the dead site");
    // Media is flowing again: the tail of the mode/availability timeline
    // is healthy for both participants.
    for p in [0, 1] {
        let tail: Vec<_> = out.mode_log[p]
            .iter()
            .filter(|(t, _)| *t >= SimTime::from_millis(11_000))
            .collect();
        assert!(!tail.is_empty());
        assert!(
            tail.iter().all(|(_, m)| *m == PersonaMode::Spatial),
            "participant {p} never recovered: {tail:?}"
        );
    }
}

/// Packet loss on a 2D session triggers the RTCP PLI loop: the receiver
/// asks for a keyframe, the sender honours every request.
#[test]
fn loss_triggers_pli_and_forced_keyframes() {
    let mut cfg = SessionConfig::two_party(
        Provider::Webex,
        (
            DeviceKind::VisionPro,
            cities::by_name("San Francisco, CA").unwrap(),
        ),
        (
            DeviceKind::MacBook,
            cities::by_name("New York, NY").unwrap(),
        ),
        9,
    );
    cfg.duration = SimDuration::from_secs(12);
    cfg.fault_plans = vec![(
        0,
        FaultPlan::burst_loss(
            SimTime::from_millis(3_000),
            GeConfig::wifi_bursts(),
            SimDuration::from_secs(4),
        ),
    )];
    let out = SessionRunner::new(cfg).run();
    assert!(
        out.pli_sent[1] > 0,
        "receiver never sent a PLI despite burst loss"
    );
    assert!(
        out.keyframes_forced[0] > 0,
        "sender ignored PLIs: {} sent, 0 honoured",
        out.pli_sent[1]
    );
    assert!(out.keyframes_forced[0] <= out.pli_sent[1]);
}

/// Three-to-five-party sessions with one impaired member: the impairment
/// stays contained to that member's streams.
#[test]
fn impairment_is_contained_in_group_sessions() {
    let cities = cities::us_vantages();
    let mut cfg = SessionConfig::facetime_avp(4, &cities, 6);
    cfg.duration = SimDuration::from_secs(10);
    cfg.uplink_limits = vec![(2, DataRate::from_kbps(100))];
    let out = SessionRunner::new(cfg).run();
    // Participant 2's persona is down for others, but 0's and 1's streams
    // still flow: availability is per-receiver over *all* incoming
    // personas, so others see partial loss (one of three personas gone ⇒
    // completeness ≈ 2/3 < 0.9 threshold...). The victim itself receives
    // everyone fine.
    assert!(
        out.availability_fraction(2) > 0.8,
        "victim's own downlink should be clean: {}",
        out.availability_fraction(2)
    );
}
