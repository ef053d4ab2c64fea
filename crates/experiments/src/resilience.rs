//! Chaos drill: scheduled mid-session faults and how each app survives.
//!
//! The paper measures steady-state behaviour and one static impairment at
//! a time (`tc tbf`, §4.3). This runner measures the *transient* story:
//! a fault is injected mid-session — burst loss, a rate cliff, a delay
//! spike, a radio flap, or the assigned SFU site going down — and the
//! session's recovery is scored with the metrics operators actually use:
//! time-to-detect, time-to-recover (MTTR), flap count, and degraded
//! seconds. The spatial-persona column exercises the degradation ladder
//! (spatial → 2D fallback with hysteresis); the 2D column exercises the
//! quality ladder of an adaptive app.

use crate::report::render_table;
use visionsim_capture::recovery::RecoveryTracker;
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::DataRate;
use visionsim_device::device::DeviceKind;
use visionsim_geo::cities;
use visionsim_geo::sites::Provider;
use visionsim_net::fault::{FaultPlan, GeConfig};
use visionsim_vca::adaptation::PersonaMode;
use visionsim_vca::session::{SessionConfig, SessionRunner};

/// The fault kinds the drill sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrillFault {
    /// Gilbert–Elliott burst loss on the uplink.
    BurstLoss,
    /// Uplink rate collapses, then restores.
    RateCliff,
    /// A propagation-delay spike (bufferbloat / rerouting), then restores.
    DelaySpike,
    /// The access radio drops entirely for the hold, both directions.
    LinkFlap,
    /// The assigned SFU site dies; clients must fail over.
    ServerFailover,
}

impl DrillFault {
    /// All faults, in sweep order.
    pub const ALL: [DrillFault; 5] = [
        DrillFault::BurstLoss,
        DrillFault::RateCliff,
        DrillFault::DelaySpike,
        DrillFault::LinkFlap,
        DrillFault::ServerFailover,
    ];

    fn label(self) -> &'static str {
        match self {
            DrillFault::BurstLoss => "burst loss",
            DrillFault::RateCliff => "rate cliff",
            DrillFault::DelaySpike => "delay spike",
            DrillFault::LinkFlap => "link flap",
            DrillFault::ServerFailover => "server failover",
        }
    }
}

/// How hard the fault hits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Survivable without much drama.
    Mild,
    /// Deep into degraded territory.
    Severe,
}

impl Severity {
    /// Both severities, in sweep order.
    pub const ALL: [Severity; 2] = [Severity::Mild, Severity::Severe];

    fn label(self) -> &'static str {
        match self {
            Severity::Mild => "mild",
            Severity::Severe => "severe",
        }
    }

    /// Episode length for episodic faults.
    fn hold(self) -> SimDuration {
        match self {
            Severity::Mild => SimDuration::from_secs(2),
            Severity::Severe => SimDuration::from_secs(4),
        }
    }
}

/// Virtual instant the fault is injected.
const FAULT_AT_SECS: u64 = 4;

/// Build the fault plan for one drill cell, attached to participant 0's
/// uplink (or their SFU site for [`DrillFault::ServerFailover`]).
pub fn drill_plan(fault: DrillFault, severity: Severity) -> FaultPlan {
    let at = SimTime::from_millis(FAULT_AT_SECS * 1_000);
    let hold = severity.hold();
    match (fault, severity) {
        (DrillFault::BurstLoss, Severity::Mild) => FaultPlan::burst_loss(
            at,
            GeConfig {
                good_to_bad: 0.02,
                bad_to_good: 0.08,
                loss_good: 0.0,
                loss_bad: 0.5,
            },
            hold,
        ),
        (DrillFault::BurstLoss, Severity::Severe) => FaultPlan::burst_loss(
            at,
            GeConfig {
                good_to_bad: 0.05,
                bad_to_good: 0.02,
                loss_good: 0.0,
                loss_bad: 0.9,
            },
            hold,
        ),
        (DrillFault::RateCliff, Severity::Mild) => {
            FaultPlan::rate_cliff(at, DataRate::from_kbps(600), hold)
        }
        (DrillFault::RateCliff, Severity::Severe) => {
            FaultPlan::rate_cliff(at, DataRate::from_kbps(150), hold)
        }
        (DrillFault::DelaySpike, Severity::Mild) => {
            FaultPlan::delay_spike(at, SimDuration::from_millis(300), hold)
        }
        (DrillFault::DelaySpike, Severity::Severe) => {
            FaultPlan::delay_spike(at, SimDuration::from_millis(1_000), hold)
        }
        (DrillFault::LinkFlap, _) => FaultPlan::flap(at, hold),
        (DrillFault::ServerFailover, Severity::Mild) => {
            FaultPlan::server_outage(at, SimDuration::from_secs(1), SimDuration::from_millis(500))
        }
        (DrillFault::ServerFailover, Severity::Severe) => {
            FaultPlan::server_outage(at, SimDuration::from_secs(2), SimDuration::from_secs(1))
        }
    }
}

/// One cell of the drill matrix.
#[derive(Debug)]
pub struct DrillCell {
    /// Which fault.
    pub fault: DrillFault,
    /// How hard.
    pub severity: Severity,
    /// True for the spatial FaceTime AVP–AVP profile, false for 2D Webex
    /// AVP–MacBook.
    pub spatial: bool,
    /// Fraction of the session the health signal was up (spatial persona
    /// rendered, or 2D quality ≥ 0.5).
    pub healthy_fraction: f64,
    /// Fault injection → first unhealthy sample, ms.
    pub detect_ms: Option<f64>,
    /// Fault injection → start of the final healthy run, ms (MTTR).
    pub recover_ms: Option<f64>,
    /// Healthy→unhealthy transitions over the whole session.
    pub flaps: u32,
    /// Seconds spent unhealthy.
    pub degraded_secs: f64,
    /// Spatial→2D ladder fallbacks (0 for the 2D profile).
    pub fallbacks: u32,
    /// SFU failovers completed during the session.
    pub failovers: usize,
}

/// The full drill matrix.
#[derive(Debug)]
pub struct Resilience {
    /// Cells in sweep order: fault × severity × {spatial, 2D}.
    pub cells: Vec<DrillCell>,
}

/// Run the drill with sessions of `secs` seconds (14+ recommended: fault
/// at t=4 s, up to 4 s of hold, then room to recover).
pub fn run(secs: u64, seed: u64) -> Resilience {
    let sf = cities::by_name("San Francisco, CA").expect("registry city");
    let nyc = cities::by_name("New York, NY").expect("registry city");
    let mut specs: Vec<(DrillFault, Severity, bool)> = Vec::new();
    for fault in DrillFault::ALL {
        for severity in Severity::ALL {
            for spatial in [true, false] {
                specs.push((fault, severity, spatial));
            }
        }
    }
    let cells = par_map(
        specs.into_iter().enumerate().collect::<Vec<_>>(),
        move |(i, (fault, severity, spatial))| {
            let mut cfg = if spatial {
                SessionConfig::two_party(
                    Provider::FaceTime,
                    (DeviceKind::VisionPro, sf),
                    (DeviceKind::VisionPro, nyc),
                    derive_seed(seed, "resilience", i as u64),
                )
            } else {
                SessionConfig::two_party(
                    Provider::Webex,
                    (DeviceKind::VisionPro, sf),
                    (DeviceKind::MacBook, nyc),
                    derive_seed(seed, "resilience", i as u64),
                )
            };
            cfg.duration = SimDuration::from_secs(secs);
            cfg.fault_plans = vec![(0, drill_plan(fault, severity))];
            let out = SessionRunner::new(cfg).run();

            // Health signal: what participant 1 sees of participant 0's
            // faulted stream. Spatial → the degradation ladder's mode;
            // 2D → the sender's quality ladder staying above half rate.
            let health: Vec<(SimTime, bool)> = if spatial {
                out.mode_log[1]
                    .iter()
                    .map(|&(at, m)| (at, m == PersonaMode::Spatial))
                    .collect()
            } else {
                out.quality_log[0]
                    .iter()
                    .map(|&(at, q)| (at, q >= 0.5))
                    .collect()
            };
            let healthy_fraction = if health.is_empty() {
                1.0
            } else {
                health.iter().filter(|&&(_, h)| h).count() as f64 / health.len() as f64
            };
            let report = RecoveryTracker::from_samples(health)
                .report(SimTime::from_millis(FAULT_AT_SECS * 1_000));
            DrillCell {
                fault,
                severity,
                spatial,
                healthy_fraction,
                detect_ms: report.time_to_detect.map(|d| d.as_millis_f64()),
                recover_ms: report.time_to_recover.map(|d| d.as_millis_f64()),
                flaps: report.flaps,
                degraded_secs: report.degraded_secs,
                fallbacks: if spatial { out.fallbacks[1] } else { 0 },
                failovers: out.failovers.len(),
            }
        },
    );
    Resilience { cells }
}

impl Resilience {
    /// Cells that dipped and came back — the drill's headline count.
    pub fn recovered_cells(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.detect_ms.is_some() && c.recover_ms.is_some())
            .count()
    }
}

fn fmt_opt_ms(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.0}"),
        None => "—".to_string(),
    }
}

impl std::fmt::Display for Resilience {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "fault".to_string(),
            "severity".to_string(),
            "app".to_string(),
            "healthy".to_string(),
            "detect (ms)".to_string(),
            "recover (ms)".to_string(),
            "flaps".to_string(),
            "degraded (s)".to_string(),
            "fallbacks".to_string(),
            "failovers".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.fault.label().to_string(),
                    c.severity.label().to_string(),
                    if c.spatial {
                        "facetime spatial"
                    } else {
                        "webex 2d"
                    }
                    .to_string(),
                    format!("{:.0}%", c.healthy_fraction * 100.0),
                    fmt_opt_ms(c.detect_ms),
                    fmt_opt_ms(c.recover_ms),
                    c.flaps.to_string(),
                    format!("{:.1}", c.degraded_secs),
                    c.fallbacks.to_string(),
                    c.failovers.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                "Chaos drill: mid-session faults, recovery metrics per cell",
                &header,
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_completes_without_aborting() {
        let r = run(14, 77);
        assert_eq!(
            r.cells.len(),
            DrillFault::ALL.len() * Severity::ALL.len() * 2
        );
        for c in &r.cells {
            assert!(
                (0.0..=1.0).contains(&c.healthy_fraction),
                "{c:?} fraction out of range"
            );
            // Degrade, never abort: a session always produces a report.
            assert!(c.degraded_secs >= 0.0);
        }
    }

    #[test]
    fn severe_burst_loss_dips_the_spatial_persona_then_recovers() {
        let r = run(14, 78);
        let cell = r
            .cells
            .iter()
            .find(|c| {
                c.fault == DrillFault::BurstLoss && c.severity == Severity::Severe && c.spatial
            })
            .expect("cell exists");
        assert!(cell.detect_ms.is_some(), "severe burst loss went unnoticed");
        assert!(
            cell.recover_ms.is_some(),
            "persona never recovered: {cell:?}"
        );
        // Hysteresis: one clean fallback episode, not oscillation.
        assert!(cell.fallbacks <= 2, "ladder flapped: {cell:?}");
    }

    #[test]
    fn server_failover_reattaches_to_a_live_site() {
        let r = run(14, 79);
        for c in r
            .cells
            .iter()
            .filter(|c| c.fault == DrillFault::ServerFailover)
        {
            assert_eq!(c.failovers, 1, "expected exactly one failover: {c:?}");
        }
        // Non-server faults never trigger failover.
        for c in r
            .cells
            .iter()
            .filter(|c| c.fault != DrillFault::ServerFailover)
        {
            assert_eq!(c.failovers, 0, "{c:?}");
        }
    }
}
