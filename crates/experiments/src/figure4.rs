//! Figure 4 — two-party uplink throughput per application.
//!
//! Five configurations, as in the paper: FaceTime with spatial persona
//! (both users on Vision Pro), FaceTime with 2D persona (one user on a
//! MacBook), Zoom, Webex, and Teams. Sessions run on the simulated
//! network; throughput is measured at the sender's AP tap, reduced to the
//! paper's boxplot presentation (5/25/50/75/95th percentiles + mean).

use crate::report::{boxplot_cell, render_table};
use visionsim_capture::analysis::CaptureAnalysis;
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::stats::{BoxplotSummary, Percentiles};
use visionsim_core::time::SimDuration;
use visionsim_device::device::DeviceKind;
use visionsim_geo::cities;
use visionsim_geo::sites::Provider;
use visionsim_vca::session::{SessionConfig, SessionRunner};

/// One bar of Figure 4.
#[derive(Debug)]
pub struct Figure4Row {
    /// The paper's x-axis label (F, F*, Z, W, T).
    pub label: &'static str,
    /// Human-readable configuration.
    pub description: &'static str,
    /// Uplink throughput boxplot, Mbps.
    pub uplink: BoxplotSummary,
}

/// The figure.
#[derive(Debug)]
pub struct Figure4 {
    /// Rows in the paper's order.
    pub rows: Vec<Figure4Row>,
}

/// Run the Figure 4 measurement: `repeats` sessions of `secs` seconds per
/// configuration.
pub fn run(repeats: usize, secs: u64, seed: u64) -> Figure4 {
    let sf = cities::by_name("San Francisco, CA").expect("registry city");
    let nyc = cities::by_name("New York, NY").expect("registry city");
    let configs: [(&'static str, &'static str, Provider, DeviceKind); 5] = [
        (
            "F",
            "FaceTime spatial persona (AVP↔AVP)",
            Provider::FaceTime,
            DeviceKind::VisionPro,
        ),
        (
            "F*",
            "FaceTime 2D persona (AVP↔MacBook)",
            Provider::FaceTime,
            DeviceKind::MacBook,
        ),
        (
            "Z",
            "Zoom (AVP↔MacBook)",
            Provider::Zoom,
            DeviceKind::MacBook,
        ),
        (
            "W",
            "Webex (AVP↔MacBook)",
            Provider::Webex,
            DeviceKind::MacBook,
        ),
        (
            "T",
            "Teams (AVP↔MacBook)",
            Provider::Teams,
            DeviceKind::MacBook,
        ),
    ];
    // Every (configuration, repeat) pair is an independent session: fan
    // them all out as cells, each on its own derived seed stream.
    let cells: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..repeats).map(move |r| (c, r)))
        .collect();
    let per_cell = par_map(cells, |(c, r)| {
        let (label, _, provider, peer_device) = configs[c];
        let mut cfg = SessionConfig::two_party(
            provider,
            (DeviceKind::VisionPro, sf),
            (peer_device, nyc),
            derive_seed(seed, label, r as u64),
        );
        cfg.duration = SimDuration::from_secs(secs);
        let out = SessionRunner::new(cfg).run();
        let analysis = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        // Raw per-second throughput samples: pooling these across repeats
        // gives percentiles of the real sample distribution, not of a
        // quartile skeleton.
        (c, analysis.uplink_per_second_mbps())
    });
    let mut pooled: Vec<Percentiles> = configs.iter().map(|_| Percentiles::new()).collect();
    for (c, samples) in per_cell {
        for v in samples {
            if v.is_finite() {
                pooled[c].push(v);
            }
        }
    }
    let rows = configs
        .into_iter()
        .zip(pooled)
        .map(|((label, description, _, _), mut samples)| Figure4Row {
            label,
            description,
            uplink: samples.boxplot(),
        })
        .collect();
    Figure4 { rows }
}

impl Figure4 {
    /// Mean uplink of the row with `label`.
    pub fn mean_of(&self, label: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.uplink.mean)
            .unwrap_or(f64::NAN)
    }
}

impl std::fmt::Display for Figure4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "cfg".to_string(),
            "uplink (Mbps)".to_string(),
            "configuration".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    boxplot_cell(&r.uplink),
                    r.description.to_string(),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table("Figure 4: two-party uplink throughput", &header, &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_figure4() {
        let fig = run(1, 10, 11);
        let f = fig.mean_of("F");
        let f2d = fig.mean_of("F*");
        let z = fig.mean_of("Z");
        let w = fig.mean_of("W");
        let t = fig.mean_of("T");
        // Spatial persona is the *lowest* despite being 3D — the headline.
        assert!(
            f < f2d && f < z && f < w && f < t,
            "spatial not lowest: F={f}"
        );
        // Paper bands: F ≈ 0.67, F* ≈ 2, Z ≈ 1.5, W > 4.
        assert!((0.3..1.1).contains(&f), "F = {f}");
        assert!((1.2..3.0).contains(&f2d), "F* = {f2d}");
        assert!((0.9..2.2).contains(&z), "Z = {z}");
        assert!(w > 4.0, "W = {w}");
        assert!(z < t && t < w, "T = {t} not between Z and W");
    }

    #[test]
    fn display_has_five_rows() {
        let fig = run(1, 6, 1);
        let text = format!("{fig}");
        assert_eq!(text.lines().count(), 8); // title + header + rule + 5
        assert!(text.contains("F*"));
    }
}
