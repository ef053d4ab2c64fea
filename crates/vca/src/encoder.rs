//! 2D-persona video encoder rate model.
//!
//! The 2D persona is "rendered from its corresponding spatial persona" for
//! a static virtual-camera viewport (§2), then encoded like any
//! videoconference stream. The model produces per-frame encoded sizes with
//! the structure that matters for traffic analysis: a closed GOP with
//! large I-frames and smaller, motion-dependent P-frames, averaging to
//! `resolution × fps × bits_per_pixel` at quality 1.0.
//!
//! The quality ladder (resolution scaling) is what rate adaptation walks —
//! the capability the semantic stream lacks.

use visionsim_core::rng::SimRng;
use visionsim_core::units::{ByteSize, DataRate};

/// Encoder configuration.
#[derive(Clone, Copy, Debug)]
pub struct VideoEncoderConfig {
    /// Full resolution (width, height).
    pub resolution: (u32, u32),
    /// Frame rate.
    pub fps: f64,
    /// Bits per pixel at quality 1.0.
    pub bits_per_pixel: f64,
    /// I-frame interval, frames (a 2 s GOP at 30 FPS).
    pub gop: u32,
    /// How much larger an I-frame is than a P-frame.
    pub i_frame_ratio: f64,
}

impl VideoEncoderConfig {
    /// Config from an app profile's 2D parameters.
    pub fn new(resolution: (u32, u32), fps: f64, bits_per_pixel: f64) -> Self {
        VideoEncoderConfig {
            resolution,
            fps,
            bits_per_pixel,
            gop: 60,
            i_frame_ratio: 4.0,
        }
    }

    /// Mean bitrate at a given quality (0 < q ≤ 1): quality scales pixel
    /// count (the resolution ladder), so bitrate scales linearly with it.
    pub fn bitrate_at(&self, quality: f64) -> DataRate {
        let (w, h) = self.resolution;
        DataRate::from_bps_f64(w as f64 * h as f64 * self.fps * self.bits_per_pixel * quality)
    }
}

/// The stateful encoder.
#[derive(Clone, Debug)]
pub struct VideoEncoder {
    config: VideoEncoderConfig,
    /// Current quality rung (0, 1]; 1.0 = full ladder.
    quality: f64,
    frame_index: u64,
    /// Emit an I-frame on the next `next_frame` call regardless of GOP
    /// position (PLI/keyframe-request recovery).
    force_i: bool,
}

/// The lowest quality rung the ladder can drop to (≈180p-class).
pub const MIN_QUALITY: f64 = 0.06;

impl VideoEncoder {
    /// An encoder at full quality.
    pub fn new(config: VideoEncoderConfig) -> Self {
        VideoEncoder {
            config,
            quality: 1.0,
            frame_index: 0,
            force_i: false,
        }
    }

    /// Current quality rung.
    pub fn quality(&self) -> f64 {
        self.quality
    }

    /// The configuration.
    pub fn config(&self) -> &VideoEncoderConfig {
        &self.config
    }

    /// Set the quality rung (clamped to `[MIN_QUALITY, 1.0]`).
    pub fn set_quality(&mut self, q: f64) {
        self.quality = q.clamp(MIN_QUALITY, 1.0);
    }

    /// Target so that the mean bitrate approximates `rate` (clamps at the
    /// ladder bottom — below that the encoder cannot go, and the call
    /// degrades to frozen video rather than disappearing).
    pub fn adapt_to(&mut self, rate: DataRate) {
        let full = self.config.bitrate_at(1.0).as_bps() as f64;
        if full <= 0.0 {
            return;
        }
        self.set_quality(rate.as_bps() as f64 / full);
    }

    /// Request an out-of-band keyframe: the next frame is encoded as an
    /// I-frame. This is the sender half of PLI recovery — after a loss
    /// burst the receiver cannot decode P-frames referencing lost data
    /// until a fresh I-frame resynchronises it.
    pub fn force_keyframe(&mut self) {
        self.force_i = true;
    }

    /// Encode the next frame, returning its size.
    pub fn next_frame(&mut self, rng: &mut SimRng) -> ByteSize {
        let mean_bits_per_frame =
            self.config.bitrate_at(self.quality).as_bps() as f64 / self.config.fps;
        let is_i = self.force_i || self.frame_index.is_multiple_of(self.config.gop as u64);
        self.force_i = false;
        self.frame_index += 1;
        // With GOP g and ratio r, I-frames carry r× a P-frame's bits and
        // the mean must hold: p·(g-1+r) = g·mean ⇒ p = g·mean/(g-1+r).
        let g = self.config.gop as f64;
        let r = self.config.i_frame_ratio;
        let p_bits = g * mean_bits_per_frame / (g - 1.0 + r);
        let bits = if is_i { p_bits * r } else { p_bits };
        // Motion-dependent variation.
        let jittered = rng.jitter(bits, 0.25).max(64.0);
        ByteSize::from_bytes((jittered / 8.0).round() as u64)
    }

    /// Frames encoded so far.
    pub fn frames_encoded(&self) -> u64 {
        self.frame_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn webex_config() -> VideoEncoderConfig {
        VideoEncoderConfig::new((1_920, 1_080), 30.0, 0.068)
    }

    #[test]
    fn mean_rate_matches_configuration() {
        let mut enc = VideoEncoder::new(webex_config());
        let mut rng = SimRng::seed_from_u64(1);
        let frames = 30 * 30; // 30 s
        let total: u64 = (0..frames)
            .map(|_| enc.next_frame(&mut rng).as_bytes())
            .sum();
        let mbps = total as f64 * 8.0 / 30.0 / 1e6;
        let expected = webex_config().bitrate_at(1.0).as_mbps_f64();
        assert!(
            (mbps - expected).abs() < expected * 0.1,
            "measured {mbps}, expected {expected}"
        );
        assert!(mbps > 4.0, "webex must exceed 4 Mbps: {mbps}");
    }

    #[test]
    fn i_frames_are_larger() {
        let mut enc = VideoEncoder::new(webex_config());
        let mut rng = SimRng::seed_from_u64(2);
        let sizes: Vec<u64> = (0..120)
            .map(|_| enc.next_frame(&mut rng).as_bytes())
            .collect();
        let i_mean = (sizes[0] + sizes[60]) as f64 / 2.0;
        let p_mean = sizes
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 60 != 0)
            .map(|(_, &s)| s as f64)
            .sum::<f64>()
            / 118.0;
        assert!(i_mean > p_mean * 2.5, "I {i_mean} vs P {p_mean}");
    }

    #[test]
    fn quality_scales_bitrate_linearly() {
        let cfg = webex_config();
        let full = cfg.bitrate_at(1.0).as_bps() as f64;
        let half = cfg.bitrate_at(0.5).as_bps() as f64;
        assert!((full / half - 2.0).abs() < 1e-9);
    }

    #[test]
    fn adapt_to_hits_the_requested_rate() {
        let mut enc = VideoEncoder::new(webex_config());
        enc.adapt_to(DataRate::from_mbps(1));
        let mut rng = SimRng::seed_from_u64(3);
        let total: u64 = (0..900).map(|_| enc.next_frame(&mut rng).as_bytes()).sum();
        let mbps = total as f64 * 8.0 / 30.0 / 1e6;
        assert!((mbps - 1.0).abs() < 0.15, "adapted rate {mbps}");
    }

    #[test]
    fn adaptation_clamps_at_the_ladder_bottom() {
        let mut enc = VideoEncoder::new(webex_config());
        enc.adapt_to(DataRate::from_kbps(1));
        assert_eq!(enc.quality(), MIN_QUALITY);
        enc.adapt_to(DataRate::from_mbps(100));
        assert_eq!(enc.quality(), 1.0);
    }

    #[test]
    fn forced_keyframe_is_i_sized_then_reverts() {
        let mut enc = VideoEncoder::new(webex_config());
        let mut rng = SimRng::seed_from_u64(5);
        enc.next_frame(&mut rng); // consume the GOP-opening I-frame
        let p = enc.next_frame(&mut rng).as_bytes() as f64;
        enc.force_keyframe();
        let forced = enc.next_frame(&mut rng).as_bytes() as f64;
        let after = enc.next_frame(&mut rng).as_bytes() as f64;
        assert!(forced > p * 2.0, "forced I {forced} vs P {p}");
        assert!(after < forced / 2.0, "flag must clear after one frame");
    }

    #[test]
    fn frames_never_empty() {
        let mut enc = VideoEncoder::new(VideoEncoderConfig::new((64, 36), 30.0, 0.01));
        enc.set_quality(MIN_QUALITY);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            assert!(enc.next_frame(&mut rng).as_bytes() > 0);
        }
    }
}
