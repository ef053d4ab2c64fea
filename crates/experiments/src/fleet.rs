//! Fleet artifact: a planet-scale population of concurrent telepresence
//! sessions over the global SFU map, run on the sharded conservative-PDES
//! engine (`core::shard` + `vca::fleet`).
//!
//! This is ROADMAP item 1's scale target made into an artifact: ≥ 100k
//! concurrent sessions (≥ 500k participants) in one run, reported as
//! per-site load curves, admission/rejection tallies, join-latency
//! percentiles (p50/p99, backbone RTTs included for remote members), and
//! the steady-state admitted-session rate. Everything printed is in the
//! simulated domain — no wall-clock numbers — so the artifact is
//! byte-identical at any thread count and any shard count; the wall-clock
//! throughput figure lives in BENCH.json (`fleet/sessions_per_sec`).

use crate::report::render_table;
use std::fmt;
use visionsim_core::stats::Percentiles;
use visionsim_vca::fleet::{run_fleet, FleetConfig, FleetOutcome};

/// Shard count used by the artifact run. Any value produces the same
/// bytes (pinned by `tests/fleet_props.rs`); 8 is the partition the
/// `fleet` bench and perfbench's `global_fleet` workload also run, so
/// their timings describe this run.
pub const ARTIFACT_SHARDS: usize = 8;

/// The rendered fleet artifact.
#[derive(Debug)]
pub struct Fleet {
    /// The simulation outcome, sites in global order.
    pub outcome: FleetOutcome,
    /// Scale floors asserted by `run` (sessions, participants); recorded
    /// so the artifact text states what it guarantees.
    pub floors: (u64, u64),
}

/// Run the full-scale fleet: 16 worldwide sites, hot metros pushed into
/// their admission envelopes, peaking above 100k concurrent sessions.
pub fn run(seed: u64) -> Fleet {
    let out = run_with(&FleetConfig::paper_scale(seed), ARTIFACT_SHARDS);
    let (peak_sessions, peak_participants) = out.peak_concurrency();
    assert!(
        peak_sessions >= 100_000,
        "fleet peaked at {peak_sessions} concurrent sessions, below the 100k target"
    );
    assert!(
        peak_participants >= 500_000,
        "fleet peaked at {peak_participants} concurrent participants, below the 500k target"
    );
    Fleet {
        outcome: out,
        floors: (100_000, 500_000),
    }
}

/// Run an arbitrary fleet configuration (the smoke-scale entry point the
/// determinism suite uses).
pub fn run_with(cfg: &FleetConfig, shards: usize) -> FleetOutcome {
    run_fleet(cfg, shards)
}

/// Render a smoke-scale fleet with the same formatting as the artifact,
/// minus the scale floors (used by `tests/determinism.rs`).
pub fn run_smoke(seed: u64) -> Fleet {
    Fleet {
        outcome: run_with(&FleetConfig::smoke(seed), 4),
        floors: (0, 0),
    }
}

impl fmt::Display for Fleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let out = &self.outcome;
        let header = vec![
            "site".to_string(),
            "arrivals".to_string(),
            "admitted".to_string(),
            "rejected".to_string(),
            "peak sess".to_string(),
            "peak part".to_string(),
            "join p50/p99 (ms)".to_string(),
        ];
        let rows: Vec<Vec<String>> = out
            .sites
            .iter()
            .map(|s| {
                vec![
                    s.label.to_string(),
                    s.arrivals.to_string(),
                    s.admitted_sessions.to_string(),
                    s.rejected_sessions.to_string(),
                    s.peak_sessions.to_string(),
                    s.peak_participants.to_string(),
                    format!("{:.1}/{:.1}", s.join_p50_ms, s.join_p99_ms),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(
                "Fleet: global SFU session population (conservative PDES)",
                &header,
                &rows
            )
        )?;

        let (peak_sessions, peak_participants) = out.peak_concurrency();
        writeln!(
            f,
            "peak concurrency: {peak_sessions} sessions / {peak_participants} participants (per-second samples)"
        )?;
        if self.floors.0 > 0 {
            writeln!(
                f,
                "scale floors asserted: >= {} sessions, >= {} participants",
                self.floors.0, self.floors.1
            )?;
        }
        let mut fleet_join =
            Percentiles::from_sorted_runs(out.sites.iter().map(|s| &s.join_samples[..]));
        if !fleet_join.is_empty() {
            writeln!(
                f,
                "fleet join latency: p50 {:.1} ms, p99 {:.1} ms over {} joins",
                fleet_join.percentile(50.0),
                fleet_join.percentile(99.0),
                fleet_join.count()
            )?;
        }
        writeln!(
            f,
            "steady-state admitted rate: {:.1} sessions/s (simulated, second half)",
            out.steady_sessions_per_sec()
        )?;
        writeln!(
            f,
            "backbone: {} envelopes over {} barrier rounds, lookahead {:.2} ms",
            out.messages,
            out.rounds,
            out.lookahead.as_millis_f64()
        )?;

        // Load curve, one line per sampled 5-second mark: per-site active
        // sessions plus the fleet-wide total.
        writeln!(f, "load curve (active sessions per site):")?;
        let horizon_s = out.duration.as_nanos() / 1_000_000_000;
        for sec in (0..=horizon_s).step_by(5) {
            write!(f, "  t={sec:>3}s")?;
            let mut total = 0u64;
            for site in &out.sites {
                let n = site
                    .samples
                    .iter()
                    .find(|(s, _, _)| *s == sec)
                    .map_or(0, |&(_, a, _)| a);
                total += n as u64;
                write!(f, " {}={}", site.label, n)?;
            }
            writeln!(f, " total={total}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_reaches_the_roadmap_target() {
        let fleet = run(2024);
        let (sessions, participants) = fleet.outcome.peak_concurrency();
        assert!(sessions >= 100_000, "only {sessions} concurrent sessions");
        assert!(
            participants >= 500_000,
            "only {participants} concurrent participants"
        );
        // The hot metros must actually hit their envelopes — rejection is
        // part of the modeled workload.
        assert!(
            fleet.outcome.sites.iter().any(|s| s.rejected_sessions > 0),
            "no site ever ran into its admission envelope"
        );
        assert!(fleet.outcome.messages > 0, "no backbone traffic");
    }

    #[test]
    fn smoke_render_contains_the_fleet_summary() {
        let text = format!("{}", run_smoke(9));
        assert!(text.contains("Fleet: global SFU session population"));
        assert!(text.contains("peak concurrency:"));
        assert!(text.contains("steady-state admitted rate:"));
        assert!(text.contains("lookahead"));
        assert!(text.contains("load curve"));
        assert!(text.contains("US-W"));
        assert!(text.contains("total="));
        // Never a wall-clock figure in an artifact.
        assert!(!text.to_lowercase().contains("wall"));
    }
}
