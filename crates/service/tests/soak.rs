//! CI-sized soak: ≥ 60 s of simulated live traffic, checked for the
//! long-run failure modes a batch run never sees — monotonic drift in
//! Sim-class gauges, unbounded growth in the intern table or trace
//! ring, and participant-conservation violations.
//!
//! Drives [`ServiceWorld`] directly (no sockets, no wall-clock pacing),
//! so the 70 simulated seconds take however long the CPU needs, not 70
//! wall seconds.

use visionsim_core::metrics;
use visionsim_core::par::override_guard;
use visionsim_core::sanitizer;
use visionsim_core::trace;
use visionsim_service::world::ServiceWorld;

#[derive(Debug, Clone, Copy)]
struct Sample {
    in_flight_bytes: i64,
    queue_depth: i64,
    intern_sites: usize,
    ring_events: usize,
}

fn sample() -> Sample {
    Sample {
        in_flight_bytes: metrics::gauge_value("net/in_flight_bytes").unwrap_or(0),
        queue_depth: metrics::gauge_value("net/queue_depth").unwrap_or(0),
        intern_sites: trace::intern_len(),
        ring_events: trace::follow(0).events.len(),
    }
}

/// A gauge drifts when every step adds and nothing is ever reclaimed.
/// Over the steady-state window the sequence must not be strictly
/// increasing, and the final value must stay within an order of
/// magnitude of the window median.
fn assert_no_drift(name: &str, series: &[i64]) {
    assert!(series.len() >= 10, "window too small for {name}");
    let strictly_up = series.windows(2).all(|w| w[1] > w[0]);
    assert!(
        !strictly_up,
        "{name} increased on every sample of the steady window: {series:?}"
    );
    let mut sorted = series.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2].max(1);
    let last = *series.last().unwrap();
    assert!(
        last <= median.saturating_mul(10).saturating_add(1_000_000),
        "{name} final value {last} is far above the window median {median}: {series:?}"
    );
}

#[test]
fn soak_seventy_simulated_seconds() {
    let _g = override_guard(); // process-global metrics/trace/sanitizer
    metrics::force(Some(true));
    metrics::reset();
    trace::force(Some(true));
    trace::reset();
    trace::reset_epoch();
    sanitizer::force(Some(true));
    sanitizer::reset();

    let mut world = ServiceWorld::new();
    // One spatial multi-party session with the full control plane, one
    // 2D two-party session — both outlive the 60 s floor.
    let spatial = world.join("facetime", 3, 11, 70).unwrap();
    let mixed = world.join("mixed", 2, 22, 70).unwrap();

    let mut samples: Vec<Sample> = Vec::new();
    for chunk in 1..=70u64 {
        world.advance_to(chunk * 1_000_000_000);
        // Periodic chaos on live sessions: loss bursts and flaps, the
        // recoverable kinds, so the world keeps churning without
        // permanently killing a path.
        if chunk % 12 == 0 {
            world.fault(spatial, 1, "burst-loss").unwrap();
        }
        if chunk % 15 == 0 && chunk < 40 {
            world.fault(mixed, 0, "flap").unwrap();
        }
        // Mid-soak leave: the second session exits early; the world
        // must keep conserving everyone else.
        if chunk == 40 {
            let summary = world.leave(mixed).unwrap();
            assert!(summary.left_early);
            assert!(
                summary.ticks >= 39 * 90,
                "left after {} ticks",
                summary.ticks
            );
        }
        samples.push(sample());
    }

    // ≥ 60 s simulated, everything ran to completion.
    assert!(world.virtual_now_ns() >= 60_000_000_000);
    assert_eq!(world.live_sessions(), 0, "sessions still live after 70 s");
    assert_eq!(world.completed_sessions(), 2);
    assert!(
        !world
            .completed()
            .iter()
            .find(|s| s.id == spatial)
            .unwrap()
            .left_early,
        "the 70 s session must run out its clock"
    );

    // Participant conservation held on every feedback interval (the
    // engine's sanitizer ran with the resilience control plane on).
    assert_eq!(
        sanitizer::total(),
        0,
        "sanitizer violations during soak: {:?}",
        sanitizer::take()
    );

    // Bounded growth: the intern table plateaus once every site label
    // is seen, and the ring never exceeds its capacity.
    let steady: &[Sample] = &samples[20..];
    let intern_at_20 = steady[0].intern_sites;
    let intern_final = steady.last().unwrap().intern_sites;
    assert!(intern_final <= trace::INTERN_CAP);
    assert_eq!(
        intern_at_20, intern_final,
        "intern table kept growing through the steady state"
    );
    assert_eq!(trace::intern_overflow(), 0);
    for s in &samples {
        assert!(
            s.ring_events <= trace::CAPACITY,
            "ring exceeded capacity: {} > {}",
            s.ring_events,
            trace::CAPACITY
        );
    }

    // No monotonic drift in the Sim-class gauges.
    let in_flight: Vec<i64> = steady.iter().map(|s| s.in_flight_bytes).collect();
    let queue: Vec<i64> = steady.iter().map(|s| s.queue_depth).collect();
    assert_no_drift("net/in_flight_bytes", &in_flight);
    assert_no_drift("net/queue_depth", &queue);

    sanitizer::force(None);
    trace::force(None);
    trace::reset();
    metrics::force(None);
    metrics::reset();
}
