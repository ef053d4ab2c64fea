//! Keypoint schemas.
//!
//! §4.3 accounting: "the 32 (mouth & eyes) + 2 × 21 (hands) = 74 extracted
//! keypoints". The 32 come from the dlib 68-point facial layout — eyes are
//! points 36–47 (12 points), the mouth 48–67 (20 points). Hands follow
//! OpenPose's 21-point layout (wrist + 4 joints × 5 fingers).

/// A keypoint layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeypointSchema {
    /// dlib's 68-point face layout.
    Face68,
    /// OpenPose's 21-point hand layout.
    Hand21,
    /// The eye+mouth subset of Face68 that the spatial persona tracks.
    EyeMouth32,
}

impl KeypointSchema {
    /// Number of keypoints in the schema.
    pub fn count(&self) -> usize {
        match self {
            KeypointSchema::Face68 => 68,
            KeypointSchema::Hand21 => 21,
            KeypointSchema::EyeMouth32 => 32,
        }
    }

    /// dlib indices of the eye region (36..=47).
    pub fn eye_indices() -> std::ops::RangeInclusive<usize> {
        36..=47
    }

    /// dlib indices of the mouth region (48..=67).
    pub fn mouth_indices() -> std::ops::RangeInclusive<usize> {
        48..=67
    }

    /// Extract the eye+mouth subset from a Face68 frame.
    pub fn eye_mouth_subset(face: &[[f32; 3]]) -> Vec<[f32; 3]> {
        assert_eq!(face.len(), 68, "expected a Face68 frame");
        Self::eye_indices()
            .chain(Self::mouth_indices())
            .map(|i| face[i])
            .collect()
    }
}

/// Total keypoints the spatial persona ships per frame: 32 (eye+mouth)
/// + 2 × 21 (hands) = 74.
pub const PERSONA_KEYPOINTS: usize = 74;

/// One frame of 3D keypoints (metres, camera frame).
#[derive(Clone, Debug, PartialEq)]
pub struct KeypointFrame {
    /// Points in schema order.
    pub points: Vec<[f32; 3]>,
}

impl KeypointFrame {
    /// A frame of `n` points at the origin.
    pub fn zeros(n: usize) -> Self {
        KeypointFrame {
            points: vec![[0.0; 3]; n],
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the frame has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Concatenate frames (e.g. face subset ‖ left hand ‖ right hand).
    pub fn concat(frames: &[&KeypointFrame]) -> KeypointFrame {
        KeypointFrame {
            points: frames
                .iter()
                .flat_map(|f| f.points.iter().copied())
                .collect(),
        }
    }

    /// Serialize as little-endian f32 triples — the raw form the semantic
    /// codec compresses.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.points.len() * 12);
        for p in &self.points {
            for c in p {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        out
    }

    /// Parse the serialization of [`KeypointFrame::to_bytes`]; `None` if
    /// the length is not a multiple of 12.
    pub fn from_bytes(bytes: &[u8]) -> Option<KeypointFrame> {
        if !bytes.len().is_multiple_of(12) {
            return None;
        }
        let points = bytes
            .chunks_exact(12)
            .map(|c| {
                [
                    f32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                    f32::from_le_bytes([c[4], c[5], c[6], c[7]]),
                    f32::from_le_bytes([c[8], c[9], c[10], c[11]]),
                ]
            })
            .collect();
        Some(KeypointFrame { points })
    }

    /// Maximum coordinate-wise displacement vs another frame (∞-norm);
    /// `None` when lengths differ.
    pub fn max_displacement(&self, other: &KeypointFrame) -> Option<f32> {
        if self.len() != other.len() {
            return None;
        }
        let mut max = 0.0f32;
        for (a, b) in self.points.iter().zip(&other.points) {
            for c in 0..3 {
                max = max.max((a[c] - b[c]).abs());
            }
        }
        Some(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_counts_match_tools() {
        assert_eq!(KeypointSchema::Face68.count(), 68);
        assert_eq!(KeypointSchema::Hand21.count(), 21);
        assert_eq!(KeypointSchema::EyeMouth32.count(), 32);
    }

    #[test]
    fn persona_accounting_is_74() {
        assert_eq!(
            KeypointSchema::EyeMouth32.count() + 2 * KeypointSchema::Hand21.count(),
            PERSONA_KEYPOINTS
        );
    }

    #[test]
    fn eye_mouth_subset_picks_right_indices() {
        let face: Vec<[f32; 3]> = (0..68).map(|i| [i as f32, 0.0, 0.0]).collect();
        let sub = KeypointSchema::eye_mouth_subset(&face);
        assert_eq!(sub.len(), 32);
        assert_eq!(sub[0][0], 36.0);
        assert_eq!(sub[11][0], 47.0);
        assert_eq!(sub[12][0], 48.0);
        assert_eq!(sub[31][0], 67.0);
    }

    #[test]
    #[should_panic(expected = "Face68")]
    fn subset_rejects_wrong_size() {
        KeypointSchema::eye_mouth_subset(&[[0.0; 3]; 21]);
    }

    #[test]
    fn bytes_round_trip() {
        let f = KeypointFrame {
            points: vec![[1.5, -2.0, 0.25], [0.0, 9.75, -1.0]],
        };
        let b = f.to_bytes();
        assert_eq!(b.len(), 24);
        assert_eq!(KeypointFrame::from_bytes(&b), Some(f));
    }

    #[test]
    fn from_bytes_rejects_ragged_input() {
        assert!(KeypointFrame::from_bytes(&[0u8; 13]).is_none());
    }

    #[test]
    fn persona_frame_is_888_bytes() {
        // 74 keypoints × 3 coords × 4 bytes: the §4.3 bandwidth arithmetic.
        let f = KeypointFrame::zeros(PERSONA_KEYPOINTS);
        assert_eq!(f.to_bytes().len(), 888);
    }

    #[test]
    fn concat_preserves_order() {
        let a = KeypointFrame {
            points: vec![[1.0, 0.0, 0.0]],
        };
        let b = KeypointFrame {
            points: vec![[2.0, 0.0, 0.0], [3.0, 0.0, 0.0]],
        };
        let c = KeypointFrame::concat(&[&a, &b]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.points[2][0], 3.0);
    }

    #[test]
    fn displacement_metric() {
        let a = KeypointFrame::zeros(2);
        let mut b = KeypointFrame::zeros(2);
        b.points[1][2] = -0.5;
        assert_eq!(a.max_displacement(&b), Some(0.5));
        assert!(a.max_displacement(&KeypointFrame::zeros(3)).is_none());
    }
}
