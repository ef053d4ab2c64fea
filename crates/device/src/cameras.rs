//! The Vision Pro camera suite (paper Figure 2) and the persona capture
//! pipeline.
//!
//! * Main cameras — the see-through view of the real world.
//! * Tracking cameras — position + extra surroundings.
//! * TrueDepth cameras — pre-capture the spatial persona *offline*.
//! * Downward cameras — monitor the user's face live.
//! * Internal cameras — track the eyes (enabling eye contact and
//!   foveation).
//!
//! The capture pipeline stitches these into the persona stream: an offline
//! TrueDepth scan yields the 78,030-triangle persona mesh (exchanged at
//! session setup), and at runtime the downward + internal cameras produce
//! the 74-keypoint semantic frames.

use std::sync::Arc;
use visionsim_core::rng::SimRng;
use visionsim_mesh::generate::PERSONA_TRIANGLES;
use visionsim_mesh::geometry::TriangleMesh;
use visionsim_sensor::capture::RgbdCapture;
use visionsim_sensor::keypoints::KeypointFrame;
use visionsim_sensor::motion::MotionConfig;

/// A camera class on the headset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CameraKind {
    /// Front main cameras (see-through feed).
    Main,
    /// Side tracking cameras (pose + surroundings).
    Tracking,
    /// TrueDepth cameras (offline persona pre-capture).
    TrueDepth,
    /// Downward cameras (live face monitoring).
    Downward,
    /// Internal cameras (eye tracking).
    Internal,
}

impl CameraKind {
    /// What the camera contributes to telepresence.
    pub fn role(&self) -> &'static str {
        match self {
            CameraKind::Main => "see-through view of the real world",
            CameraKind::Tracking => "user position and extra surroundings",
            CameraKind::TrueDepth => "offline spatial persona pre-capture",
            CameraKind::Downward => "live face monitoring",
            CameraKind::Internal => "eye tracking",
        }
    }

    /// Whether this camera feeds the *live* persona stream.
    pub fn feeds_live_persona(&self) -> bool {
        matches!(self, CameraKind::Downward | CameraKind::Internal)
    }
}

/// The full suite on one headset.
#[derive(Clone, Debug)]
pub struct CameraSuite {
    cams: Vec<CameraKind>,
}

impl Default for CameraSuite {
    fn default() -> Self {
        Self::vision_pro()
    }
}

impl CameraSuite {
    /// Vision Pro's suite per Figure 2.
    pub fn vision_pro() -> Self {
        CameraSuite {
            cams: vec![
                CameraKind::Main,
                CameraKind::Main,
                CameraKind::Tracking,
                CameraKind::Tracking,
                CameraKind::TrueDepth,
                CameraKind::TrueDepth,
                CameraKind::Downward,
                CameraKind::Downward,
                CameraKind::Internal,
                CameraKind::Internal,
            ],
        }
    }

    /// All cameras.
    pub fn cameras(&self) -> &[CameraKind] {
        &self.cams
    }

    /// Count of a given kind.
    pub fn count(&self, kind: CameraKind) -> usize {
        self.cams.iter().filter(|&&c| c == kind).count()
    }
}

/// The persona capture pipeline on one headset.
#[derive(Debug)]
pub struct PersonaCapturePipeline {
    /// The pre-captured persona mesh (offline TrueDepth scan; shared from
    /// the process-wide mesh cache — every session of the same user seed
    /// reuses one allocation).
    persona_mesh: Arc<TriangleMesh>,
    /// Live keypoint source (downward + internal cameras).
    live: RgbdCapture,
}

impl PersonaCapturePipeline {
    /// Run the offline pre-capture for a user identified by `seed` and set
    /// up live tracking.
    pub fn pre_capture(seed: u64) -> Self {
        PersonaCapturePipeline {
            persona_mesh: visionsim_mesh::cache::head(PERSONA_TRIANGLES, seed),
            live: RgbdCapture::new(MotionConfig::default()),
        }
    }

    /// The pre-captured persona mesh (what gets exchanged at session
    /// setup so remote peers can reconstruct locally).
    pub fn persona_mesh(&self) -> &TriangleMesh {
        &self.persona_mesh
    }

    /// Produce the next live semantic frame: the 74-point persona subset.
    pub fn capture_semantics(&mut self, rng: &mut SimRng) -> KeypointFrame {
        self.live.next_frame(rng).persona_subset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_figure2() {
        let s = CameraSuite::vision_pro();
        assert_eq!(s.count(CameraKind::Main), 2);
        assert_eq!(s.count(CameraKind::Tracking), 2);
        assert_eq!(s.count(CameraKind::TrueDepth), 2);
        assert_eq!(s.count(CameraKind::Downward), 2);
        assert_eq!(s.count(CameraKind::Internal), 2);
    }

    #[test]
    fn only_downward_and_internal_feed_live_persona() {
        for c in CameraSuite::vision_pro().cameras() {
            let expected = matches!(c, CameraKind::Downward | CameraKind::Internal);
            assert_eq!(c.feeds_live_persona(), expected, "{c:?}");
        }
    }

    #[test]
    fn roles_are_documented() {
        assert!(CameraKind::TrueDepth.role().contains("pre-capture"));
        assert!(CameraKind::Internal.role().contains("eye"));
    }

    #[test]
    fn pre_capture_yields_persona_budget_mesh() {
        let p = PersonaCapturePipeline::pre_capture(7);
        assert_eq!(p.persona_mesh().triangle_count(), PERSONA_TRIANGLES);
    }

    #[test]
    fn different_users_get_different_personas() {
        let a = PersonaCapturePipeline::pre_capture(1);
        let b = PersonaCapturePipeline::pre_capture(2);
        assert_ne!(a.persona_mesh().positions, b.persona_mesh().positions);
    }

    #[test]
    fn live_capture_emits_74_keypoints() {
        let mut p = PersonaCapturePipeline::pre_capture(3);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(p.capture_semantics(&mut rng).len(), 74);
    }
}
