//! Figure 6 — scalability from 2 to 5 Vision Pro users.
//!
//! Full sessions at each size; per-frame rendered triangles and CPU/GPU
//! times from the receiver-side counters (Figure 6a/6b), downlink
//! throughput from the AP capture (Figure 6c).

use crate::report::{boxplot_cell, render_table};
use visionsim_capture::analysis::CaptureAnalysis;
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::stats::BoxplotSummary;
use visionsim_core::time::SimDuration;
use visionsim_geo::cities;
use visionsim_vca::session::{SessionConfig, SessionRunner};

/// One session size's measurements.
#[derive(Debug)]
pub struct Figure6Row {
    /// Number of users.
    pub users: usize,
    /// Rendered triangles per frame (Figure 6a).
    pub triangles: BoxplotSummary,
    /// GPU ms per frame (Figure 6b).
    pub gpu_ms: BoxplotSummary,
    /// CPU ms per frame (Figure 6b).
    pub cpu_ms: BoxplotSummary,
    /// Downlink throughput, Mbps (Figure 6c).
    pub downlink: BoxplotSummary,
}

/// The figure.
#[derive(Debug)]
pub struct Figure6 {
    /// Rows for 2..=5 users.
    pub rows: Vec<Figure6Row>,
}

/// Run the scalability sweep with sessions of `secs` seconds.
pub fn run(secs: u64, seed: u64) -> Figure6 {
    let cities = cities::us_vantages();
    // Each session size is an independent cell on its own derived seed.
    let rows = par_map((2..=5usize).collect(), |users| {
        {
            let mut cfg = SessionConfig::facetime_avp(
                users,
                &cities,
                derive_seed(seed, "figure6", users as u64),
            );
            cfg.duration = SimDuration::from_secs(secs);
            let out = SessionRunner::new(cfg).run();
            let analysis = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
            // Pool frame counters across every participant: each headset
            // is an independent sample of the same conversation (as the
            // paper's RealityKit readings are).
            let mut pooled = visionsim_render::counters::SessionCounters::new();
            let mut frames: Vec<_> = out
                .counters
                .iter()
                .flat_map(|c| c.frames().iter().copied())
                .collect();
            frames.sort_by_key(|f| f.at);
            for f in frames {
                pooled.record(
                    f.at,
                    &visionsim_render::cost::FrameCost {
                        gpu_ms: f.gpu_ms,
                        cpu_ms: f.cpu_ms,
                        triangles: f.triangles,
                        missed_deadline: f.missed,
                    },
                );
            }
            Figure6Row {
                users,
                triangles: pooled.triangles_boxplot(),
                gpu_ms: pooled.gpu_boxplot(),
                cpu_ms: pooled.cpu_boxplot(),
                downlink: analysis.downlink_boxplot_mbps(),
            }
        }
    });
    Figure6 { rows }
}

impl Figure6 {
    /// Row for a user count.
    pub fn row(&self, users: usize) -> &Figure6Row {
        self.rows
            .iter()
            .find(|r| r.users == users)
            .expect("2..=5 users")
    }
}

impl std::fmt::Display for Figure6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "users".to_string(),
            "triangles".to_string(),
            "GPU ms".to_string(),
            "CPU ms".to_string(),
            "downlink Mbps".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.users.to_string(),
                    format!("med={:.0} p5={:.0}", r.triangles.median, r.triangles.p5),
                    boxplot_cell(&r.gpu_ms),
                    boxplot_cell(&r.cpu_ms),
                    boxplot_cell(&r.downlink),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                "Figure 6: scalability with 2-5 Vision Pro users",
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
    fn scalability_shapes_match_paper() {
        let fig = run(15, 11);

        // (a) Rendered triangles rise roughly linearly with users: every
        // added persona adds load, and the total grows substantially.
        let means: Vec<f64> = (2..=5).map(|u| fig.row(u).triangles.mean).collect();
        for w in means.windows(2) {
            assert!(w[1] > w[0], "triangle means not increasing: {means:?}");
        }
        let t2 = means[0];
        let t5 = means[3];
        assert!(t5 > t2 * 1.6, "triangles: 2u {t2} vs 5u {t5}");
        // ...but the 5th percentile flattens (foveation): 5-user p5 stays
        // near the 3-user p5, far below the 5-user mean.
        let p5_3 = fig.row(3).triangles.p5;
        let p5_5 = fig.row(5).triangles.p5;
        assert!(
            p5_5 < p5_3 * 3.0,
            "p5 did not flatten: 3u {p5_3} vs 5u {p5_5}"
        );
        assert!(p5_5 < t5, "no spread at five users");

        // (b) GPU grows toward the deadline: paper 5.65 → 7.62 ms
        // (+34.9%), p95 > 9 ms at five users.
        let g2 = fig.row(2).gpu_ms.mean;
        let g5 = fig.row(5).gpu_ms.mean;
        assert!((4.0..7.2).contains(&g2), "2u GPU {g2}");
        assert!((6.2..10.5).contains(&g5), "5u GPU {g5}");
        assert!(g5 > g2 * 1.15, "GPU growth too small: {g2} → {g5}");
        assert!(fig.row(5).gpu_ms.p95 > 8.0, "p95 {}", fig.row(5).gpu_ms.p95);

        // CPU grows more modestly: paper 5.67 → 6.76 ms (+19.2%).
        let c2 = fig.row(2).cpu_ms.mean;
        let c5 = fig.row(5).cpu_ms.mean;
        assert!(c5 > c2, "CPU did not grow");
        assert!((c5 - c2) / c2 < (g5 - g2) / g2, "CPU grew faster than GPU");

        // (c) Downlink ~linear in remote personas.
        let d2 = fig.row(2).downlink.mean;
        let d5 = fig.row(5).downlink.mean;
        let ratio = d5 / d2;
        assert!((2.8..5.5).contains(&ratio), "downlink ratio {ratio}");
    }

    #[test]
    fn display_has_four_rows() {
        let fig = run(6, 3);
        assert_eq!(format!("{fig}").lines().count(), 7);
    }
}
