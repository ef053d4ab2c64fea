//! Thread-count determinism: every formatted artifact must be
//! byte-identical whether the harness runs on one worker or all cores —
//! and, with the flight recorder on, the deterministic metrics snapshot
//! must be identical too, and must agree with what the artifacts report.
//!
//! Every test takes the `core::par::override_guard` so the process-global
//! knobs (`set_threads`, `trace::force`, `metrics::force`) are never raced
//! by the libtest runner.

use visionsim::experiments::{extensions, figure6, fleet, mesh_streaming, resilience, storms, table1};
use visionsim::core::{metrics, par, trace};
use visionsim::vca::server::resilience_metrics;

/// Render a small-but-representative slice of the suite at `seed`.
fn artifacts(seed: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}", table1::run(3, seed)));
    out.push_str(&format!("{}", figure6::run(4, seed)));
    out.push_str(&format!("{}", mesh_streaming::run(2, seed)));
    out.push_str(&format!("{}", resilience::run(8, seed)));
    out.push_str(&extensions::format_fec(&extensions::fec_under_loss(
        60, 1_500, seed,
    )));
    out.push_str(&format!("{}", storms::run(12, seed)));
    out.push_str(&format!("{}", fleet::run_smoke(seed)));
    out
}

#[test]
fn parallel_output_is_byte_identical_to_sequential() {
    // `set_threads` is process-global; serialize against any other test
    // in this binary that flips it.
    let _guard = par::override_guard();
    for seed in [2024u64, 7] {
        par::set_threads(Some(1));
        let sequential = artifacts(seed);
        // Force a real pool (not `None`): on a single-core runner the
        // default resolution would degrade to inline execution and the
        // test would compare nothing.
        par::set_threads(Some(4));
        let parallel = artifacts(seed);
        par::set_threads(None);
        assert!(
            par::threads() >= 1,
            "thread resolution must fall back to the environment"
        );
        assert_eq!(
            sequential, parallel,
            "seed {seed}: parallel output diverged from single-thread"
        );
    }
}

#[test]
fn metrics_are_identical_across_thread_counts_with_tracing_on() {
    let _guard = par::override_guard();
    trace::force(Some(true));
    metrics::force(Some(true));

    let mut baseline: Option<(String, String)> = None;
    for threads in [1usize, 4, 8] {
        par::set_threads(Some(threads));
        metrics::reset();
        trace::reset();
        let text = artifacts(2024);
        // Only the deterministic (`Class::Sim`) values; wall-clock
        // histograms legitimately differ run to run.
        let snap = metrics::snapshot_json(false);

        // The per-link byte counters must satisfy the same conservation
        // identity the sanitizer checks on every drained network:
        // accepted bytes all either exited or are still in flight when
        // the session ends.
        let sent = metrics::counter_value("net/link_bytes_sent").expect("counter registered");
        let exited = metrics::counter_value("net/link_bytes_exited").expect("counter registered");
        let in_flight = metrics::gauge_value("net/in_flight_bytes").expect("gauge registered");
        assert!(sent > 0, "the suite must exercise the datapath");
        assert!(in_flight >= 0, "in-flight bytes can never go negative");
        assert_eq!(
            sent,
            exited + in_flight as u64,
            "{threads} threads: metrics counters broke the byte-conservation identity"
        );

        match &baseline {
            None => baseline = Some((text, snap)),
            Some((text0, snap0)) => {
                assert_eq!(
                    &text, text0,
                    "{threads} threads: artifacts diverged with tracing on"
                );
                assert_eq!(
                    &snap, snap0,
                    "{threads} threads: metrics snapshot diverged"
                );
            }
        }
    }

    par::set_threads(None);
    trace::force(None);
    metrics::force(None);
    metrics::reset();
    trace::reset();
}

/// Storm drills reconnect through the same `SiteDirectory` step as
/// sessions, so the metrics sidecar must count exactly the attempts,
/// rejoins and abandonments the storms table reports.
#[test]
fn storm_metrics_count_every_reconnect_the_drills_report() {
    let _guard = par::override_guard();
    metrics::force(Some(true));
    metrics::reset();

    let drills = storms::run(12, 2024);
    let attempts: u64 = drills.scenarios.iter().map(|s| s.attempts).sum();
    let rejoins: u64 = drills
        .scenarios
        .iter()
        .flat_map(|s| s.attempt_hist)
        .map(u64::from)
        .sum();
    let abandoned: usize = drills.scenarios.iter().map(|s| s.abandoned).sum();
    assert!(attempts > 0 && rejoins > 0, "no reconnects");
    assert_eq!(
        metrics::counter_value("vca/reconnect_attempts"),
        Some(attempts),
        "vca/reconnect_attempts disagrees with the storms table"
    );
    let m = resilience_metrics();
    assert_eq!(m.rejoin_ms.count(), rejoins, "vca/rejoin_ms count");
    assert_eq!(m.reconnects_abandoned.get(), abandoned as u64);

    metrics::force(None);
    metrics::reset();
}
