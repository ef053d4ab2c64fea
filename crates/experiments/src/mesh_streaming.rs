//! §4.3 "Direct 3D Data Streaming" — the mesh-streaming bandwidth floor.
//!
//! Five head meshes from ~70k to ~90k triangles (the paper pulls five from
//! Sketchfab; we generate five seeds), compressed per-frame with the
//! Draco-style codec and streamed at 90 FPS. The paper measures
//! 107.4±14.1 Mbps without texture — two orders of magnitude above the
//! 0.67 Mbps spatial persona — and concludes the persona is not
//! mesh-streamed.

use visionsim_core::par::{derive_seed, par_map};
use visionsim_core::rng::SimRng;
use visionsim_core::stats::StreamingStats;
use visionsim_mesh::stream::MeshStreamer;
use visionsim_mesh::texture::TextureSpec;

/// The experiment outcome.
#[derive(Debug)]
pub struct MeshStreaming {
    /// Triangle counts of the five heads.
    pub triangle_counts: Vec<usize>,
    /// Per-head stream rate statistics, Mbps.
    pub rate_mbps: StreamingStats,
    /// Extra rate if the stream carried texture too (the paper's
    /// measurement is "even without texture"), Mbps.
    pub texture_overhead_mbps: f64,
    /// The spatial persona's measured rate for comparison, Mbps.
    pub persona_rate_mbps: f64,
}

/// Run with `frames` animated frames per head.
pub fn run(frames: usize, seed: u64) -> MeshStreaming {
    let targets = [70_000usize, 75_000, 78_030, 85_000, 90_000];
    let streamer = MeshStreamer::at_90fps();
    // Each head is an independent cell: generation goes through the
    // process-wide mesh cache (repeat runs share the built heads) and each
    // head animates on its own derived deformation stream.
    let per_head = par_map(targets.into_iter().enumerate().collect(), |(i, t)| {
        let mesh = visionsim_mesh::cache::head(t, derive_seed(seed, "mesh_streaming", i as u64));
        let mut rng = SimRng::seed_from_u64(derive_seed(seed, "mesh_streaming/deform", i as u64));
        let rate = streamer.experiment(std::slice::from_ref(&mesh), frames, &mut rng);
        (mesh.triangle_count(), mesh.vertex_count(), rate.mean())
    });
    let triangle_counts = per_head.iter().map(|&(t, _, _)| t).collect();
    let mut rate_mbps = StreamingStats::new();
    for &(_, _, rate) in &per_head {
        rate_mbps.push(rate);
    }
    let mean_vertices = per_head.iter().map(|&(_, v, _)| v).sum::<usize>() / per_head.len();
    let texture_overhead_mbps = TextureSpec::persona_default()
        .stream_overhead(mean_vertices, streamer.fps)
        .as_mbps_f64();
    MeshStreaming {
        triangle_counts,
        rate_mbps,
        texture_overhead_mbps,
        persona_rate_mbps: 0.67,
    }
}

impl MeshStreaming {
    /// The headline ratio: mesh streaming vs the observed persona rate.
    pub fn gap_factor(&self) -> f64 {
        self.rate_mbps.mean() / self.persona_rate_mbps
    }
}

impl std::fmt::Display for MeshStreaming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Mesh streaming (Draco-style, 90 FPS, {} heads of {:?} triangles):",
            self.triangle_counts.len(),
            self.triangle_counts
        )?;
        writeln!(
            f,
            "  rate = {:.1}±{:.1} Mbps — {:.0}x the {:.2} Mbps spatial persona\n  (+{:.0} Mbps more if textured — the paper's figure is texture-free)",
            self.rate_mbps.mean(),
            self.rate_mbps.std_dev(),
            self.gap_factor(),
            self.persona_rate_mbps,
            self.texture_overhead_mbps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_streaming_is_orders_of_magnitude_above_persona() {
        let r = run(2, 31);
        assert_eq!(r.triangle_counts.len(), 5);
        // Heads land in the Sketchfab band.
        for &t in &r.triangle_counts {
            assert!((65_000..95_000).contains(&t), "{t}");
        }
        // Tens of Mbps at minimum; the paper's conclusion needs ≥ ~50x.
        assert!(r.rate_mbps.mean() > 30.0, "rate {}", r.rate_mbps.mean());
        assert!(r.gap_factor() > 50.0, "gap {}", r.gap_factor());
        // Texture would add tens of Mbps on top.
        assert!(
            r.texture_overhead_mbps > 90.0,
            "{}",
            r.texture_overhead_mbps
        );
    }

    #[test]
    fn spread_across_heads_is_moderate() {
        let r = run(2, 32);
        // Paper: 107.4±14.1 — σ/µ ≈ 13%.
        assert!(
            r.rate_mbps.std_dev() / r.rate_mbps.mean() < 0.35,
            "σ/µ = {}",
            r.rate_mbps.std_dev() / r.rate_mbps.mean()
        );
    }
}
