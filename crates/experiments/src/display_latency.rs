//! §4.3 "Streaming of 2D Video" — the display-latency experiment.
//!
//! `tc netem` injects 0–1000 ms of extra delay; after each abrupt viewport
//! change, the difference between when real-world objects and when the
//! remote persona are re-rendered is measured. Local reconstruction keeps
//! the difference under a frame (<16 ms) at every delay; a pre-rendered
//! video pipeline would track the RTT — so the flat curve is the evidence
//! that the persona is *not* sender-rendered video.

use crate::report::render_table;
use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::rng::SimRng;
use visionsim_core::stats::StreamingStats;
use visionsim_core::time::SimDuration;
use visionsim_device::display::{DeliveryMode, DisplayModel};

/// One injected-delay point.
#[derive(Debug)]
pub struct DelayPoint {
    /// Injected one-way delay, ms.
    pub injected_ms: u64,
    /// Measured difference with local reconstruction (the real system).
    pub local_diff_ms: StreamingStats,
    /// Counterfactual: the difference if the persona were sender-rendered.
    pub remote_diff_ms: StreamingStats,
}

/// The experiment.
#[derive(Debug)]
pub struct DisplayLatency {
    /// One point per injected delay.
    pub points: Vec<DelayPoint>,
}

/// Run with `trials` viewport changes per delay point.
pub fn run(trials: usize, seed: u64) -> DisplayLatency {
    let model = DisplayModel::default();
    // Each injected-delay point is an independent cell with its own
    // derived measurement-noise stream (previously all points shared one
    // sequential RNG).
    let points = par_map(vec![0u64, 100, 250, 500, 1_000], |injected_ms| {
        let mut rng = SimRng::seed_from_u64(derive_seed(seed, "display_latency", injected_ms));
        let delay = SimDuration::from_millis(injected_ms);
        let mut local_diff_ms = StreamingStats::new();
        let mut remote_diff_ms = StreamingStats::new();
        for _ in 0..trials {
            local_diff_ms.push(
                model
                    .display_latency_difference(DeliveryMode::LocalReconstruction, delay, &mut rng)
                    .as_millis_f64(),
            );
            remote_diff_ms.push(
                model
                    .display_latency_difference(DeliveryMode::RemotePreRendered, delay, &mut rng)
                    .as_millis_f64(),
            );
        }
        DelayPoint {
            injected_ms,
            local_diff_ms,
            remote_diff_ms,
        }
    });
    DisplayLatency { points }
}

impl DisplayLatency {
    /// Worst local-mode difference across all delays (the paper: <16 ms).
    pub fn worst_local_ms(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.local_diff_ms.max())
            .fold(0.0, f64::max)
    }
}

impl std::fmt::Display for DisplayLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let header = vec![
            "injected (ms)".to_string(),
            "diff, local recon (ms)".to_string(),
            "diff, remote render (ms)".to_string(),
        ];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.injected_ms.to_string(),
                    format!(
                        "{:.1} (max {:.1})",
                        p.local_diff_ms.mean(),
                        p.local_diff_ms.max()
                    ),
                    format!("{:.0}", p.remote_diff_ms.mean()),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            render_table(
                "Display-latency difference vs injected network delay (§4.3)",
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
    fn local_reconstruction_is_flat_and_sub_16ms() {
        let r = run(100, 41);
        assert!(r.worst_local_ms() < 16.0, "worst {}", r.worst_local_ms());
        // Flat: the 1000 ms point is no worse than the 0 ms point by more
        // than measurement noise.
        let at0 = r.points[0].local_diff_ms.mean();
        let at1000 = r.points.last().unwrap().local_diff_ms.mean();
        assert!((at1000 - at0).abs() < 4.0, "{at0} vs {at1000}");
    }

    #[test]
    fn remote_rendering_counterfactual_tracks_delay() {
        let r = run(50, 42);
        let at100 = r.points[1].remote_diff_ms.mean();
        let at1000 = r.points.last().unwrap().remote_diff_ms.mean();
        assert!(at100 > 150.0, "{at100}");
        assert!(at1000 > 1_900.0, "{at1000}");
    }

    #[test]
    fn display_renders_every_delay_point() {
        let text = format!("{}", run(10, 43));
        for ms in ["0", "100", "250", "500", "1000"] {
            assert!(text.lines().any(|l| l.trim_start().starts_with(ms)));
        }
    }
}
