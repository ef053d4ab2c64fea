//! Motion-to-photon latency vs server placement.
//!
//! §4.1's discussion: single initiator-near serving "could become more
//! pronounced when users are distributed across continents... the one-way
//! propagation delay between Europe and Asia may already exceed 100 ms,
//! the threshold for maintaining a high QoE in immersive telepresence",
//! and proposes geo-distributed serving over a private backbone.
//!
//! This experiment runs *full sessions* (not just RTT math) on
//! increasingly spread rosters under both policies and reports end-to-end
//! semantic-frame latency (capture → reassembled at the receiver) against
//! the 100 ms threshold. It also cross-checks with the passive QoE
//! estimator: the receiver-side packet timing still shows ~90 frames/s
//! (delay shifts frames, it does not thin them).

use crate::report::render_table;
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::stats::Percentiles;
use visionsim_core::time::SimDuration;
use visionsim_geo::cities::{self, City};
use visionsim_vca::server::AssignmentPolicy;
use visionsim_vca::session::{SessionConfig, SessionRunner};

/// The QoE threshold the paper cites, ms.
pub const QOE_THRESHOLD_MS: f64 = 100.0;

/// One roster × policy measurement.
#[derive(Debug)]
pub struct M2pRow {
    /// Roster label.
    pub roster: &'static str,
    /// Placement policy.
    pub policy: AssignmentPolicy,
    /// Worst participant's end-to-end latency percentiles, ms.
    pub worst_e2e_ms: Percentiles,
    /// Passive frame-rate estimate at the worst participant's AP.
    pub passive_fps: f64,
}

/// The experiment.
#[derive(Debug)]
pub struct MotionToPhoton {
    /// All rows.
    pub rows: Vec<M2pRow>,
}

fn rosters() -> Vec<(&'static str, Vec<City>)> {
    let c = |n: &str| cities::by_name(n).expect("registry city");
    vec![
        (
            "US coast-to-coast",
            vec![c("New York, NY"), c("San Francisco, CA")],
        ),
        (
            "intercontinental",
            vec![c("New York, NY"), c("Frankfurt, DE"), c("Tokyo, JP")],
        ),
    ]
}

/// Run sessions of `secs` seconds per roster × policy.
pub fn run(secs: u64, seed: u64) -> MotionToPhoton {
    // Every roster × policy session is an independent cell. Both policies
    // of one roster share a derived conversation seed so the comparison is
    // paired (same traffic, different placement).
    let cells: Vec<((&'static str, Vec<City>), AssignmentPolicy)> = rosters()
        .into_iter()
        .flat_map(|r| {
            [
                AssignmentPolicy::NearestToInitiator,
                AssignmentPolicy::GeoDistributed,
            ]
            .into_iter()
            .map(move |p| (r.clone(), p))
        })
        .collect();
    let rows = par_map(cells, |((roster, cities), policy)| {
        {
            let mut cfg =
                SessionConfig::facetime_avp(cities.len(), &cities, derive_seed(seed, roster, 0));
            cfg.duration = SimDuration::from_secs(secs);
            cfg.policy = policy;
            let out = SessionRunner::new(cfg).run();
            // Worst participant by median E2E latency.
            let worst = (0..cities.len())
                .max_by(|&a, &b| {
                    let ma = out.e2e_latency_ms[a].clone().median();
                    let mb = out.e2e_latency_ms[b].clone().median();
                    // A participant with no delivered frames has a NaN
                    // median (empty percentile set); total_cmp sorts NaN
                    // last instead of panicking the cell.
                    ma.total_cmp(&mb)
                })
                .expect("non-empty roster");
            // Passive estimate on ONE incoming media flow (flows are
            // per-sender by source port; mixing senders would double-count
            // frames).
            let subject = out.client_addrs[worst];
            let flow_port = out.taps[worst]
                .iter()
                .filter(|r| r.dst == subject && r.ports.src < 5_100)
                .map(|r| r.ports.src)
                .next()
                .expect("some media arrived");
            let media: Vec<_> = out.taps[worst]
                .iter()
                .filter(|r| r.dst == subject && r.ports.src == flow_port)
                .cloned()
                .collect();
            let q = visionsim_capture::qoe::estimate(media.iter(), 90.0);
            M2pRow {
                roster,
                policy,
                worst_e2e_ms: out.e2e_latency_ms[worst].clone(),
                passive_fps: q.fps,
            }
        }
    });
    MotionToPhoton { rows }
}

impl MotionToPhoton {
    /// The row for (roster, policy).
    pub fn row(&self, roster: &str, policy: AssignmentPolicy) -> &M2pRow {
        self.rows
            .iter()
            .find(|r| r.roster == roster && r.policy == policy)
            .expect("known combination")
    }
}

impl std::fmt::Display for MotionToPhoton {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "roster".to_string(),
            "policy".to_string(),
            "worst E2E p50".to_string(),
            "worst E2E p95".to_string(),
            "passive FPS".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut p = r.worst_e2e_ms.clone();
                vec![
                    r.roster.to_string(),
                    format!("{:?}", r.policy),
                    format!("{:.0} ms", p.percentile(50.0)),
                    format!("{:.0} ms", p.percentile(95.0)),
                    format!("{:.0}", r.passive_fps),
                ]
            })
            .collect();
        writeln!(
            f,
            "{}",
            render_table(
                "Motion-to-photon: end-to-end semantic-frame latency vs server placement",
                &header,
                &rows
            )
        )?;
        writeln!(f, "QoE threshold (paper §4.1): {QOE_THRESHOLD_MS:.0} ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intercontinental_initiator_near_violates_the_threshold() {
        let m = run(8, 101);
        let bad = m.row("intercontinental", AssignmentPolicy::NearestToInitiator);
        let mut p = bad.worst_e2e_ms.clone();
        assert!(
            p.percentile(50.0) > QOE_THRESHOLD_MS,
            "median {} should exceed the threshold",
            p.percentile(50.0)
        );
    }

    #[test]
    fn geo_distribution_brings_latency_down() {
        let m = run(8, 102);
        let near = {
            let mut p = m
                .row("intercontinental", AssignmentPolicy::NearestToInitiator)
                .worst_e2e_ms
                .clone();
            p.percentile(50.0)
        };
        let geo = {
            let mut p = m
                .row("intercontinental", AssignmentPolicy::GeoDistributed)
                .worst_e2e_ms
                .clone();
            p.percentile(50.0)
        };
        assert!(geo < near, "geo {geo} !< near {near}");
    }

    #[test]
    fn domestic_sessions_are_comfortably_under_threshold() {
        let m = run(8, 103);
        let mut p = m
            .row("US coast-to-coast", AssignmentPolicy::NearestToInitiator)
            .worst_e2e_ms
            .clone();
        assert!(
            p.percentile(95.0) < QOE_THRESHOLD_MS,
            "p95 {}",
            p.percentile(95.0)
        );
    }

    #[test]
    fn delay_does_not_thin_the_frame_stream() {
        // Passive FPS stays near 90 even intercontinentally: latency moves
        // frames, it does not drop them.
        let m = run(8, 104);
        for r in &m.rows {
            assert!(
                (70.0..100.0).contains(&r.passive_fps),
                "{} / {:?}: fps {}",
                r.roster,
                r.policy,
                r.passive_fps
            );
        }
    }
}
