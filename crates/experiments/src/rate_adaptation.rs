//! §4.3 — the rate-adaptation cliff.
//!
//! `tc tbf` constrains one user's uplink while a FaceTime spatial session
//! runs. The paper finds the persona becomes unavailable ("poor
//! connection") below ~700 kbps: the semantic stream has no quality
//! ladder, so the only possible behaviours are "full rate" and "gone".
//! For contrast the same sweep runs against adaptive 2D Webex, which
//! degrades quality smoothly instead.

use crate::report::render_table;
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::time::SimDuration;
use visionsim_core::units::DataRate;
use visionsim_device::device::DeviceKind;
use visionsim_geo::cities;
use visionsim_geo::sites::Provider;
use visionsim_vca::session::{SessionConfig, SessionRunner};

/// One uplink-limit point.
#[derive(Debug)]
pub struct CliffPoint {
    /// The shaped uplink rate, kbps.
    pub uplink_kbps: u64,
    /// Fraction of the session the spatial persona stayed available.
    pub spatial_availability: f64,
    /// Final 2D encoder quality under the same limit on Webex.
    pub webex_quality: f64,
}

/// The sweep.
#[derive(Debug)]
pub struct RateAdaptation {
    /// Points, ascending uplink.
    pub points: Vec<CliffPoint>,
}

/// Run the sweep with sessions of `secs` seconds.
pub fn run(secs: u64, seed: u64) -> RateAdaptation {
    let sf = cities::by_name("San Francisco, CA").expect("registry city");
    let nyc = cities::by_name("New York, NY").expect("registry city");
    // Each (uplink point, app) session is an independent cell: twelve
    // sessions fan out, merged back per point afterwards.
    let uplinks = [300u64, 500, 650, 800, 1_500, 3_000];
    let cells: Vec<(u64, bool)> = uplinks
        .into_iter()
        .flat_map(|u| [(u, true), (u, false)])
        .collect();
    let measures = par_map(cells, |(uplink_kbps, spatial)| {
        let limit = DataRate::from_kbps(uplink_kbps);
        let mut cfg = if spatial {
            // FaceTime spatial.
            SessionConfig::two_party(
                Provider::FaceTime,
                (DeviceKind::VisionPro, sf),
                (DeviceKind::VisionPro, nyc),
                derive_seed(seed, "rate_adaptation/spatial", uplink_kbps),
            )
        } else {
            // Webex 2D under the same limit.
            SessionConfig::two_party(
                Provider::Webex,
                (DeviceKind::VisionPro, sf),
                (DeviceKind::MacBook, nyc),
                derive_seed(seed, "rate_adaptation/webex", uplink_kbps),
            )
        };
        cfg.duration = SimDuration::from_secs(secs);
        cfg.uplink_limits = vec![(0, limit)];
        let out = SessionRunner::new(cfg).run();
        if spatial {
            // Participant 1 receives participant 0's constrained stream.
            out.availability_fraction(1)
        } else {
            out.final_quality[0]
        }
    });
    let points = uplinks
        .into_iter()
        .zip(measures.chunks(2))
        .map(|(uplink_kbps, pair)| CliffPoint {
            uplink_kbps,
            spatial_availability: pair[0],
            webex_quality: pair[1],
        })
        .collect();
    RateAdaptation { points }
}

impl RateAdaptation {
    /// The lowest uplink at which the spatial persona stayed mostly up.
    pub fn cliff_kbps(&self) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.spatial_availability > 0.8)
            .map(|p| p.uplink_kbps)
    }
}

impl std::fmt::Display for RateAdaptation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "uplink (kbps)".to_string(),
            "spatial persona up".to_string(),
            "webex quality".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.uplink_kbps.to_string(),
                    format!("{:.0}%", p.spatial_availability * 100.0),
                    format!("{:.2}", p.webex_quality),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                "Rate-adaptation cliff (§4.3): semantic all-or-nothing vs adaptive 2D",
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
    fn cliff_sits_near_700_kbps() {
        let r = run(12, 61);
        // Below the stream rate: persona down.
        assert!(
            r.points[0].spatial_availability < 0.6,
            "300 kbps availability {}",
            r.points[0].spatial_availability
        );
        // Comfortably above: persona up.
        let top = r.points.last().unwrap();
        assert!(
            top.spatial_availability > 0.85,
            "3 Mbps availability {}",
            top.spatial_availability
        );
        // The transition happens in the 500–1500 kbps band around the
        // paper's ~700 kbps.
        let cliff = r.cliff_kbps().expect("persona recovers somewhere");
        assert!((500..=1_500).contains(&cliff), "cliff at {cliff} kbps");
    }

    #[test]
    fn webex_degrades_gracefully_instead() {
        let r = run(12, 62);
        // At a heavy constraint Webex is degraded but alive.
        assert!(r.points[0].webex_quality < 0.4);
        // Unconstrained-ish (3 Mbps < full 4.2 Mbps) it recovers most of
        // its quality.
        assert!(r.points.last().unwrap().webex_quality > 0.4);
        // Monotone-ish trend.
        assert!(r.points.last().unwrap().webex_quality > r.points[0].webex_quality);
    }
}
