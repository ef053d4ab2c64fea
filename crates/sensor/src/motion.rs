//! Synthetic face and hand motion.
//!
//! The spatial persona tracks eye and mouth regions plus both hands. The
//! motion models synthesize plausible keypoint dynamics at the display
//! rate:
//!
//! * head pose — a damped random walk (people do not hold perfectly still);
//! * blinks — Poisson arrivals (~0.25 Hz) with ~150 ms lid closures;
//! * speech — talk spurts alternating with silence; while talking, the
//!   mouth opens/closes at syllabic rate (~4 Hz) with jitter;
//! * hands — rest/gesture states with smooth transitions;
//! * tracker noise — per-coordinate Gaussian jitter, the resolution limit
//!   of real keypoint extractors (dlib/OpenPose on RGB-D).
//!
//! All randomness flows through a caller-provided [`SimRng`].

use crate::keypoints::{KeypointFrame, KeypointSchema};
use visionsim_core::rng::SimRng;

/// Motion-model parameters.
#[derive(Clone, Debug)]
pub struct MotionConfig {
    /// Frame rate the trace is synthesized at.
    pub fps: f64,
    /// Mean blink rate, Hz.
    pub blink_rate_hz: f64,
    /// Blink duration, seconds.
    pub blink_duration_s: f64,
    /// Fraction of time spent talking.
    pub talk_fraction: f64,
    /// Syllabic mouth rate while talking, Hz.
    pub syllable_rate_hz: f64,
    /// Tracker noise sigma per coordinate, metres.
    pub tracker_noise_m: f64,
}

impl Default for MotionConfig {
    fn default() -> Self {
        MotionConfig {
            fps: 90.0,
            blink_rate_hz: 0.25,
            blink_duration_s: 0.15,
            talk_fraction: 0.5,
            syllable_rate_hz: 4.0,
            tracker_noise_m: 0.0004,
        }
    }
}

/// Neutral dlib-68 face template (metres, face centred at origin, looking
/// down +Z). Only the eye and mouth regions need anatomical fidelity; the
/// rest is a plausible oval.
fn face_template() -> Vec<[f32; 3]> {
    let mut pts = Vec::with_capacity(68);
    // 0-16: jaw line — half ellipse.
    for i in 0..17 {
        let t = std::f32::consts::PI * (i as f32 / 16.0);
        pts.push([0.075 * t.cos(), -0.03 - 0.055 * t.sin(), 0.01]);
    }
    // 17-26: brows.
    for i in 0..10 {
        let x = -0.05 + 0.1 * (i as f32 / 9.0);
        pts.push([x, 0.035, 0.02]);
    }
    // 27-35: nose bridge + base.
    for i in 0..4 {
        pts.push([0.0, 0.02 - 0.012 * i as f32, 0.03 + 0.004 * i as f32]);
    }
    for i in 0..5 {
        pts.push([-0.012 + 0.006 * i as f32, -0.022, 0.032]);
    }
    // 36-41: right eye; 42-47: left eye (hexagons).
    for side in [-1.0f32, 1.0] {
        let cx = side * 0.032;
        for i in 0..6 {
            let t = std::f32::consts::TAU * (i as f32 / 6.0);
            pts.push([cx + 0.012 * t.cos(), 0.012 + 0.006 * t.sin(), 0.022]);
        }
    }
    // 48-59: outer lip ring; 60-67: inner lip ring.
    for i in 0..12 {
        let t = std::f32::consts::TAU * (i as f32 / 12.0);
        pts.push([0.025 * t.cos(), -0.045 + 0.012 * t.sin(), 0.024]);
    }
    for i in 0..8 {
        let t = std::f32::consts::TAU * (i as f32 / 8.0);
        pts.push([0.015 * t.cos(), -0.045 + 0.006 * t.sin(), 0.024]);
    }
    debug_assert_eq!(pts.len(), 68);
    pts
}

/// OpenPose-21 neutral hand template (wrist at origin).
fn hand_template() -> Vec<[f32; 3]> {
    let mut pts = vec![[0.0, 0.0, 0.0]]; // wrist
    for finger in 0..5 {
        let spread = (finger as f32 - 2.0) * 0.018;
        for joint in 1..=4 {
            pts.push([spread, 0.02 * joint as f32, 0.0]);
        }
    }
    debug_assert_eq!(pts.len(), 21);
    pts
}

/// Face motion synthesizer.
#[derive(Clone, Debug)]
pub struct FaceMotion {
    config: MotionConfig,
    template: Vec<[f32; 3]>,
    /// Head pose offset (x, y, z) and its velocity — damped random walk.
    pose: [f64; 3],
    pose_vel: [f64; 3],
    /// Remaining blink time, seconds (0 = eyes open).
    blink_left_s: f64,
    /// Remaining talk-spurt (positive) or silence (negative) time.
    talk_left_s: f64,
    talking: bool,
    /// Phase of the syllabic oscillator.
    syllable_phase: f64,
    frame_index: u64,
}

impl FaceMotion {
    /// A synthesizer with the given config.
    pub fn new(config: MotionConfig) -> Self {
        FaceMotion {
            config,
            template: face_template(),
            pose: [0.0; 3],
            pose_vel: [0.0; 3],
            blink_left_s: 0.0,
            talk_left_s: 0.0,
            talking: false,
            syllable_phase: 0.0,
            frame_index: 0,
        }
    }

    /// Frames generated so far.
    pub fn frames_generated(&self) -> u64 {
        self.frame_index
    }

    /// True while a blink is in progress.
    pub fn blinking(&self) -> bool {
        self.blink_left_s > 0.0
    }

    /// True while inside a talk spurt.
    pub fn talking(&self) -> bool {
        self.talking
    }

    /// Synthesize the next Face68 frame.
    pub fn next_frame(&mut self, rng: &mut SimRng) -> KeypointFrame {
        let dt = 1.0 / self.config.fps;
        // Head pose: damped random walk (spring toward neutral).
        for a in 0..3 {
            self.pose_vel[a] += rng.normal(0.0, 0.002) * dt.sqrt()
                - self.pose[a] * 0.5 * dt
                - self.pose_vel[a] * 1.0 * dt;
            self.pose[a] += self.pose_vel[a] * dt;
        }
        // Blink process.
        if self.blink_left_s > 0.0 {
            self.blink_left_s -= dt;
        } else if rng.chance(self.config.blink_rate_hz * dt) {
            self.blink_left_s = self.config.blink_duration_s;
        }
        // Talk spurts: exponential durations biased by talk_fraction.
        self.talk_left_s -= dt;
        if self.talk_left_s <= 0.0 {
            self.talking = rng.chance(self.config.talk_fraction);
            self.talk_left_s = rng.exponential(2.0);
        }
        if self.talking {
            self.syllable_phase +=
                std::f64::consts::TAU * self.config.syllable_rate_hz * dt * rng.jitter(1.0, 0.2);
        }
        let mouth_open = if self.talking {
            0.008 * (0.5 - 0.5 * self.syllable_phase.cos())
        } else {
            0.0
        };
        let blink_close = if self.blinking() { 1.0f32 } else { 0.0 };

        let mut points = self.template.clone();
        for (i, p) in points.iter_mut().enumerate() {
            // Rigid head offset.
            p[0] += self.pose[0] as f32;
            p[1] += self.pose[1] as f32;
            p[2] += self.pose[2] as f32;
            // Eyes: collapse vertically during a blink.
            if KeypointSchema::eye_indices().contains(&i) {
                let lid_center = 0.012 + self.pose[1] as f32;
                p[1] = p[1] * (1.0 - blink_close) + lid_center * blink_close;
            }
            // Mouth: lower lip (outer 54..59 bottom half + inner 64..67)
            // drops with mouth_open.
            if (54..=59).contains(&i) || (64..=67).contains(&i) {
                p[1] -= mouth_open as f32;
            }
            // Tracker noise.
            for c in p.iter_mut() {
                *c += rng.normal(0.0, self.config.tracker_noise_m) as f32;
            }
        }
        self.frame_index += 1;
        KeypointFrame { points }
    }
}

/// Hand motion synthesizer (one hand).
#[derive(Clone, Debug)]
pub struct HandMotion {
    config: MotionConfig,
    template: Vec<[f32; 3]>,
    /// Base offset of the whole hand.
    offset: [f64; 3],
    /// Gesture intensity in `[0, 1]` and its target.
    gesture: f64,
    gesture_target: f64,
    /// Seconds until the next gesture decision.
    next_decision_s: f64,
    phase: f64,
}

impl HandMotion {
    /// A synthesizer for one hand, `side` = −1 (left) or +1 (right).
    pub fn new(config: MotionConfig, side: f64) -> Self {
        HandMotion {
            config,
            template: hand_template(),
            offset: [side * 0.25, -0.35, 0.1],
            gesture: 0.0,
            gesture_target: 0.0,
            next_decision_s: 0.0,
            phase: 0.0,
        }
    }

    /// Synthesize the next Hand21 frame.
    pub fn next_frame(&mut self, rng: &mut SimRng) -> KeypointFrame {
        let dt = 1.0 / self.config.fps;
        self.next_decision_s -= dt;
        if self.next_decision_s <= 0.0 {
            // Hands gesture ~30% of the time during conversation.
            self.gesture_target = if rng.chance(0.3) { 1.0 } else { 0.0 };
            self.next_decision_s = rng.exponential(3.0);
        }
        // Smooth approach to the target.
        self.gesture += (self.gesture_target - self.gesture) * (2.0 * dt).min(1.0);
        self.phase += std::f64::consts::TAU * 1.5 * dt;
        let wave = self.gesture * 0.04 * self.phase.sin();
        let mut points = self.template.clone();
        for p in &mut points {
            p[0] += self.offset[0] as f32 + wave as f32;
            p[1] += self.offset[1] as f32 + (self.gesture * 0.15) as f32;
            p[2] += self.offset[2] as f32;
            for c in p.iter_mut() {
                *c += rng.normal(0.0, self.config.tracker_noise_m) as f32;
            }
        }
        KeypointFrame { points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn face_frames_have_68_points() {
        let mut m = FaceMotion::new(MotionConfig::default());
        let mut rng = SimRng::seed_from_u64(1);
        let f = m.next_frame(&mut rng);
        assert_eq!(f.len(), 68);
        assert_eq!(m.frames_generated(), 1);
    }

    #[test]
    fn hand_frames_have_21_points() {
        let mut m = HandMotion::new(MotionConfig::default(), 1.0);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(m.next_frame(&mut rng).len(), 21);
    }

    #[test]
    fn motion_is_deterministic_given_seed() {
        let run = || {
            let mut m = FaceMotion::new(MotionConfig::default());
            let mut rng = SimRng::seed_from_u64(99);
            (0..50).map(|_| m.next_frame(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn consecutive_frames_move_a_little_not_a_lot() {
        let mut m = FaceMotion::new(MotionConfig::default());
        let mut rng = SimRng::seed_from_u64(2);
        let mut prev = m.next_frame(&mut rng);
        for _ in 0..300 {
            let next = m.next_frame(&mut rng);
            let d = prev.max_displacement(&next).unwrap();
            assert!(d > 0.0, "frames identical — no liveness");
            assert!(d < 0.02, "frame-to-frame jump {d} m is implausible");
            prev = next;
        }
    }

    #[test]
    fn blinks_happen_at_roughly_configured_rate() {
        let cfg = MotionConfig {
            blink_rate_hz: 1.0,
            ..MotionConfig::default()
        };
        let mut m = FaceMotion::new(cfg);
        let mut rng = SimRng::seed_from_u64(3);
        let frames = 90 * 60; // one minute
        let mut blinks = 0;
        let mut was_blinking = false;
        for _ in 0..frames {
            m.next_frame(&mut rng);
            if m.blinking() && !was_blinking {
                blinks += 1;
            }
            was_blinking = m.blinking();
        }
        assert!((20..=100).contains(&blinks), "blinks = {blinks}");
    }

    #[test]
    fn blinking_narrows_eye_region() {
        let cfg = MotionConfig {
            tracker_noise_m: 0.0,
            blink_rate_hz: 1_000.0, // force an immediate blink
            ..MotionConfig::default()
        };
        let mut m = FaceMotion::new(cfg);
        let mut rng = SimRng::seed_from_u64(4);
        let mut open_spread = 0.0f32;
        let mut closed_spread = f32::MAX;
        for _ in 0..30 {
            let f = m.next_frame(&mut rng);
            let ys: Vec<f32> = KeypointSchema::eye_indices()
                .map(|i| f.points[i][1])
                .collect();
            let spread = ys.iter().cloned().fold(f32::MIN, f32::max)
                - ys.iter().cloned().fold(f32::MAX, f32::min);
            if m.blinking() {
                closed_spread = closed_spread.min(spread);
            } else {
                open_spread = open_spread.max(spread);
            }
        }
        assert!(
            closed_spread < open_spread,
            "blink should narrow eyes: closed {closed_spread} vs open {open_spread}"
        );
    }

    #[test]
    fn talking_moves_the_mouth_more_than_silence() {
        let run = |talk: f64, seed: u64| {
            let cfg = MotionConfig {
                talk_fraction: talk,
                tracker_noise_m: 0.0,
                ..MotionConfig::default()
            };
            let mut m = FaceMotion::new(cfg);
            let mut rng = SimRng::seed_from_u64(seed);
            let mut travel = 0.0f32;
            let mut prev = m.next_frame(&mut rng);
            for _ in 0..900 {
                let next = m.next_frame(&mut rng);
                for i in 54..=59 {
                    travel += (next.points[i][1] - prev.points[i][1]).abs();
                }
                prev = next;
            }
            travel
        };
        assert!(run(1.0, 5) > run(0.0, 5) * 3.0);
    }

    #[test]
    fn hands_are_mirrored_left_right() {
        let cfg = MotionConfig {
            tracker_noise_m: 0.0,
            ..MotionConfig::default()
        };
        let mut l = HandMotion::new(cfg.clone(), -1.0);
        let mut r = HandMotion::new(cfg, 1.0);
        let mut rng1 = SimRng::seed_from_u64(6);
        let mut rng2 = SimRng::seed_from_u64(6);
        let lf = l.next_frame(&mut rng1);
        let rf = r.next_frame(&mut rng2);
        assert!((lf.points[0][0] + rf.points[0][0]).abs() < 1e-5);
    }
}
