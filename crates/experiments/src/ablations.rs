//! Design-choice ablations.
//!
//! The DESIGN.md-listed ablations, each quantifying a choice the paper
//! observes (or proposes):
//!
//! * [`entropy_coder`] — rANS vs the LZ+range coder on mesh-codec
//!   residual streams (Draco chose rANS; does it matter here?).
//! * [`delta_coding`] — absolute vs inter-frame-delta semantic coding:
//!   how much bandwidth FaceTime leaves on the table for loss resilience.
//! * [`foveation_granularity`] — sweep of the foveal half-angle: rendered
//!   load vs how aggressively the periphery is degraded.
//! * [`placement`] — nearest-to-initiator vs geo-distributed serving on an
//!   intercontinental roster (the §4.1 proposed fix, quantified).
//! * [`semantic_culling`] — visibility-aware *delivery* (the §4.4 proposed
//!   fix): skip sending personas outside the receiver's viewport.

use visionsim_core::rng::SimRng;
use visionsim_geo::propagation::LatencyModel;
use visionsim_geo::sites::{Provider, SiteRegistry};
use visionsim_mesh::geometry::Vec3;
use visionsim_render::visibility::{
    LodClass, PersonaInstance, VisibilityFlags, VisibilityPipeline,
};
use visionsim_semantic::codec::{CodecMode, SemanticCodec, SemanticConfig};
use visionsim_sensor::capture::RgbdCapture;
use visionsim_vca::scene::{GazeDynamics, SeatingLayout};
use visionsim_vca::server::{AssignmentPolicy, ServerAssignment};

/// Entropy-coder comparison on a mesh-residual-like stream.
#[derive(Debug)]
pub struct EntropyCoderAblation {
    /// Input bytes.
    pub input_len: usize,
    /// rANS output size.
    pub rans_len: usize,
    /// LZ+range-coder output size.
    pub lzma_len: usize,
}

/// Compare the two entropy stages on `n` bytes of zigzag-varint residuals.
pub fn entropy_coder(n: usize, seed: u64) -> EntropyCoderAblation {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut stream = Vec::with_capacity(n);
    while stream.len() < n {
        // Mesh-quantization residuals: geometric-ish small magnitudes.
        let mag = rng.exponential(2.0) as i64;
        let v = if rng.chance(0.5) { mag } else { -mag };
        visionsim_compress::varint::write_i64(&mut stream, v);
    }
    stream.truncate(n);
    EntropyCoderAblation {
        input_len: stream.len(),
        rans_len: visionsim_compress::rans::encode(&stream).len(),
        lzma_len: visionsim_compress::compress(&stream).len(),
    }
}

/// Delta-vs-absolute semantic coding comparison.
#[derive(Debug)]
pub struct DeltaCodingAblation {
    /// Mean payload, absolute mode (what the measurements indicate
    /// FaceTime ships).
    pub absolute_bytes: f64,
    /// Mean payload, delta mode.
    pub delta_bytes: f64,
    /// Stream rates at 90 FPS, Mbps.
    pub absolute_mbps: f64,
    /// Delta-mode stream rate, Mbps.
    pub delta_mbps: f64,
}

/// Run over `frames` captured frames.
pub fn delta_coding(frames: usize, seed: u64) -> DeltaCodingAblation {
    let mut capture = RgbdCapture::default_session();
    let mut rng = SimRng::seed_from_u64(seed);
    let trace: Vec<_> = capture
        .capture_trace(frames, &mut rng)
        .iter()
        .map(|f| f.persona_subset())
        .collect();
    let mut abs = SemanticCodec::new(SemanticConfig::default());
    let mut delta = SemanticCodec::new(SemanticConfig {
        mode: CodecMode::Delta {
            keyframe_every: 90,
            step_m: 0.0005,
        },
        fps: 90.0,
    });
    let abs_sizes: Vec<usize> = trace.iter().map(|f| abs.encode(f).len()).collect();
    let delta_sizes: Vec<usize> = trace.iter().map(|f| delta.encode(f).len()).collect();
    let mean = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len() as f64;
    DeltaCodingAblation {
        absolute_bytes: mean(&abs_sizes),
        delta_bytes: mean(&delta_sizes),
        absolute_mbps: abs.stream_rate(&abs_sizes).as_mbps_f64(),
        delta_mbps: delta.stream_rate(&delta_sizes).as_mbps_f64(),
    }
}

/// One foveal-angle point.
#[derive(Debug)]
pub struct FoveationPoint {
    /// Foveal half-angle, degrees.
    pub fovea_deg: f32,
    /// Mean rendered triangles across the session.
    pub mean_triangles: f64,
}

/// Sweep the foveal half-angle over a 4-persona gaze-dynamics run.
pub fn foveation_granularity(frames: usize, seed: u64) -> Vec<FoveationPoint> {
    let positions = SeatingLayout::Arc.positions(4, 1.4);
    let personas: Vec<PersonaInstance> = positions
        .iter()
        .map(|&p| PersonaInstance::paper_ladder(p))
        .collect();
    // Each angle is an independent cell; every cell replays the *same*
    // seed-derived gaze trace so the sweep stays a paired comparison.
    visionsim_core::par::par_map(vec![5.0f32, 10.0, 18.0, 30.0, 50.0], |fovea_deg| {
        let mut pipeline = VisibilityPipeline::new(VisibilityFlags::vision_pro());
        pipeline.fovea_deg = fovea_deg;
        let mut gaze = GazeDynamics::new(positions.clone());
        let mut rng = SimRng::seed_from_u64(seed);
        let mut total = 0usize;
        for _ in 0..frames {
            let viewer = gaze.step(1.0 / 90.0, &mut rng);
            let renders = pipeline.evaluate(&viewer, &personas);
            total += VisibilityPipeline::total_triangles(&renders);
        }
        FoveationPoint {
            fovea_deg,
            mean_triangles: total as f64 / frames as f64,
        }
    })
}

/// Placement-policy comparison on an intercontinental roster.
#[derive(Debug)]
pub struct PlacementAblation {
    /// Worst client→server RTT under nearest-to-initiator, ms.
    pub initiator_worst_rtt_ms: f64,
    /// Worst client→attachment RTT under geo-distributed serving, ms.
    pub geo_worst_rtt_ms: f64,
}

/// Compare policies for a session initiated in the US East with
/// participants in SF, Frankfurt, and Tokyo.
pub fn placement() -> PlacementAblation {
    let latency = LatencyModel::default();
    let roster = [
        visionsim_geo::cities::by_name("New York, NY").expect("city"),
        visionsim_geo::cities::by_name("San Francisco, CA").expect("city"),
        visionsim_geo::cities::by_name("Frankfurt, DE").expect("city"),
        visionsim_geo::cities::by_name("Tokyo, JP").expect("city"),
    ];
    let locations: Vec<_> = roster.iter().map(|c| c.location).collect();
    let registry = SiteRegistry::geo_distributed(Provider::FaceTime);
    let worst = |policy| {
        let a = ServerAssignment::assign(policy, &registry, Provider::FaceTime, &locations);
        a.attachments
            .iter()
            .zip(&locations)
            .map(|(s, l)| latency.path(l, &s.location(), 2.0).base_rtt_ms)
            .fold(0.0, f64::max)
    };
    PlacementAblation {
        initiator_worst_rtt_ms: worst(AssignmentPolicy::NearestToInitiator),
        geo_worst_rtt_ms: worst(AssignmentPolicy::GeoDistributed),
    }
}

/// Visibility-aware delivery (the §4.4 proposal).
#[derive(Debug)]
pub struct SemanticCullingAblation {
    /// Fraction of sender frames that actually needed delivery (persona in
    /// some receiver's viewport).
    pub delivered_fraction: f64,
    /// Bandwidth saving vs always-send, percent.
    pub saving_percent: f64,
}

/// Estimate the saving for one sender observed by one receiver running
/// gaze dynamics over `frames` frames.
pub fn semantic_culling(frames: usize, seed: u64) -> SemanticCullingAblation {
    let positions = SeatingLayout::Arc.positions(4, 1.4);
    let personas: Vec<PersonaInstance> = positions
        .iter()
        .map(|&p| PersonaInstance::paper_ladder(p))
        .collect();
    let pipeline = VisibilityPipeline::new(VisibilityFlags::vision_pro());
    let mut gaze = GazeDynamics::new(positions.clone());
    let mut rng = SimRng::seed_from_u64(seed);
    // Track visibility of persona 0 (the "sender" under study). Note that
    // the viewer's head swings far enough during gaze shifts that arc-edge
    // personas regularly leave the viewport.
    let mut delivered = 0usize;
    for _ in 0..frames {
        let viewer = gaze.step(1.0 / 90.0, &mut rng);
        let renders = pipeline.evaluate(&viewer, &personas);
        if renders[0].class != LodClass::Proxy {
            delivered += 1;
        }
    }
    let delivered_fraction = delivered as f64 / frames as f64;
    SemanticCullingAblation {
        delivered_fraction,
        saving_percent: (1.0 - delivered_fraction) * 100.0,
    }
}

/// Pull `Vec3` into scope for doc readers; the ablations place personas in
/// viewer space.
#[allow(dead_code)]
fn _doc_anchor(_: Vec3) {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_entropy_stages_compress_residuals() {
        let a = entropy_coder(50_000, 81);
        assert!(a.rans_len < a.input_len, "rANS expanded");
        assert!(a.lzma_len < a.input_len, "LZ+range expanded");
        // They should be in the same ballpark (within 3x either way).
        let ratio = a.rans_len as f64 / a.lzma_len as f64;
        assert!((0.33..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn delta_mode_saves_most_of_the_bandwidth() {
        let a = delta_coding(300, 82);
        assert!(
            a.delta_bytes * 2.0 < a.absolute_bytes,
            "delta {} vs absolute {}",
            a.delta_bytes,
            a.absolute_bytes
        );
        assert!(a.delta_mbps < a.absolute_mbps);
    }

    #[test]
    fn narrower_fovea_renders_fewer_triangles() {
        let points = foveation_granularity(600, 83);
        let narrow = points.first().expect("non-empty sweep");
        let wide = points.last().expect("non-empty sweep");
        assert!(narrow.fovea_deg < wide.fovea_deg);
        assert!(
            narrow.mean_triangles < wide.mean_triangles,
            "narrow {} !< wide {}",
            narrow.mean_triangles,
            wide.mean_triangles
        );
    }

    #[test]
    fn geo_distribution_slashes_worst_case_rtt() {
        let a = placement();
        // Intercontinental roster through a single US-East server: the
        // Tokyo participant eats >100 ms.
        assert!(
            a.initiator_worst_rtt_ms > 100.0,
            "{}",
            a.initiator_worst_rtt_ms
        );
        // With local attachment everyone is near a site.
        assert!(a.geo_worst_rtt_ms < 40.0, "{}", a.geo_worst_rtt_ms);
    }

    #[test]
    fn semantic_culling_saves_bandwidth() {
        let a = semantic_culling(2_000, 84);
        assert!(a.delivered_fraction > 0.2, "{}", a.delivered_fraction);
        assert!(a.delivered_fraction < 1.0, "nothing was ever culled");
        assert!(a.saving_percent > 0.0);
    }
}
