//! Passive QoE estimation from packet timing.
//!
//! The paper's §5 points at IP-header and packet-pattern analysis (Sharma
//! et al.; Michel et al.) as the way to study encrypted telepresence
//! traffic. This module implements the core of that methodology for the
//! simulator's captures: from nothing but packet timestamps and sizes of
//! one media flow, estimate the media frame rate, detect stalls, and
//! derive a QoE grade — no payload inspection.
//!
//! Mechanism: media sources emit one frame per display tick; each frame
//! becomes one or more back-to-back packets. Inter-packet gaps therefore
//! cluster at ~0 (intra-frame) and at the frame interval (inter-frame).
//! A gap threshold splits the two populations, giving frame boundaries.

use visionsim_core::stats::Percentiles;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_net::tap::TapRecord;

/// Gap above which two packets belong to different media frames.
const FRAME_GAP: SimDuration = SimDuration::from_millis(4);

/// Passive estimate for one media flow.
#[derive(Clone, Debug)]
pub struct QoeEstimate {
    /// Inferred media frames.
    pub frames: usize,
    /// Estimated frame rate over the observation span.
    pub fps: f64,
    /// Stalls: inter-frame gaps exceeding 3 nominal intervals.
    pub stalls: usize,
    /// Longest inter-frame gap, ms.
    pub worst_gap_ms: f64,
    /// Inferred frame-interval percentiles, ms.
    pub interval_ms: Percentiles,
}

impl QoeEstimate {
    /// A coarse MOS-like grade in `[1, 5]` from fps and stalls: full marks
    /// at the nominal rate with no stalls, degrading with both.
    pub fn grade(&self, nominal_fps: f64) -> f64 {
        if self.frames == 0 {
            return 1.0;
        }
        let rate_factor = (self.fps / nominal_fps).clamp(0.0, 1.0);
        let stall_penalty = (self.stalls as f64 * 0.25).min(2.0);
        (1.0 + 4.0 * rate_factor - stall_penalty).clamp(1.0, 5.0)
    }
}

/// Estimate QoE for the packets of one flow (filtered by the caller),
/// given the nominal media frame rate.
pub fn estimate<'a, I: IntoIterator<Item = &'a TapRecord>>(
    records: I,
    nominal_fps: f64,
) -> QoeEstimate {
    assert!(nominal_fps > 0.0, "nominal fps must be positive");
    let mut times: Vec<SimTime> = records.into_iter().map(|r| r.at).collect();
    times.sort_unstable();
    if times.is_empty() {
        return QoeEstimate {
            frames: 0,
            fps: 0.0,
            stalls: 0,
            worst_gap_ms: 0.0,
            interval_ms: Percentiles::new(),
        };
    }
    // Frame boundaries: gaps larger than FRAME_GAP.
    let mut frame_starts = vec![times[0]];
    for w in times.windows(2) {
        if w[1].since(w[0]) > FRAME_GAP {
            frame_starts.push(w[1]);
        }
    }
    let nominal = SimDuration::from_secs_f64(1.0 / nominal_fps);
    let mut interval_ms = Percentiles::new();
    let mut stalls = 0usize;
    let mut worst_gap_ms = 0.0f64;
    for w in frame_starts.windows(2) {
        let gap = w[1].since(w[0]);
        interval_ms.push(gap.as_millis_f64());
        worst_gap_ms = worst_gap_ms.max(gap.as_millis_f64());
        if gap > nominal * 3 {
            stalls += 1;
        }
    }
    // `frame_starts` is seeded with `times[0]` above, so first/last always
    // exist — but prove it structurally instead of asserting it.
    let span = match (frame_starts.first(), frame_starts.last()) {
        (Some(&first), Some(&last)) => last.since(first),
        _ => SimDuration::ZERO,
    };
    let fps = if span.is_zero() {
        0.0
    } else {
        (frame_starts.len() - 1) as f64 / span.as_secs_f64()
    };
    QoeEstimate {
        frames: frame_starts.len(),
        fps,
        stalls,
        worst_gap_ms,
        interval_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_core::units::ByteSize;
    use visionsim_geo::geodb::NetAddr;
    use visionsim_net::packet::PortPair;
    use visionsim_net::tap::TapDirection;

    fn rec_at(us: u64) -> TapRecord {
        TapRecord {
            at: SimTime::from_micros(us),
            src: NetAddr(1),
            dst: NetAddr(2),
            ports: PortPair::new(5_000, 443),
            wire_size: ByteSize::from_bytes(900),
            header_snippet: Default::default(),
            direction: TapDirection::Transit,
        }
    }

    #[test]
    fn steady_90fps_flow_is_recognized() {
        // One packet per frame, 11.111 ms apart, for 3 s.
        let recs: Vec<TapRecord> = (0..270).map(|i| rec_at(i * 11_111)).collect();
        let q = estimate(recs.iter(), 90.0);
        assert_eq!(q.frames, 270);
        assert!((q.fps - 90.0).abs() < 1.0, "fps {}", q.fps);
        assert_eq!(q.stalls, 0);
        assert!(q.grade(90.0) > 4.8);
    }

    #[test]
    fn multi_packet_frames_group_correctly() {
        // Three packets back-to-back (0.2 ms apart) per 33.3 ms frame.
        let mut recs = Vec::new();
        for f in 0..90u64 {
            for p in 0..3u64 {
                recs.push(rec_at(f * 33_333 + p * 200));
            }
        }
        let q = estimate(recs.iter(), 30.0);
        assert_eq!(q.frames, 90);
        assert!((q.fps - 30.0).abs() < 0.5, "fps {}", q.fps);
    }

    #[test]
    fn stalls_are_detected() {
        let mut recs: Vec<TapRecord> = (0..90).map(|i| rec_at(i * 11_111)).collect();
        // A 200 ms freeze, then resume.
        recs.extend((0..90).map(|i| rec_at(1_000_000 + 200_000 + i * 11_111)));
        let q = estimate(recs.iter(), 90.0);
        assert!(q.stalls >= 1, "stall missed");
        assert!(q.worst_gap_ms > 150.0);
        assert!(q.grade(90.0) < 4.8);
    }

    #[test]
    fn empty_capture_grades_worst() {
        let q = estimate(std::iter::empty(), 90.0);
        assert_eq!(q.frames, 0);
        assert_eq!(q.grade(90.0), 1.0);
    }

    #[test]
    fn reduced_rate_lowers_grade() {
        // 30 FPS delivered where 90 was nominal.
        let recs: Vec<TapRecord> = (0..90).map(|i| rec_at(i * 33_333)).collect();
        let q = estimate(recs.iter(), 90.0);
        let g = q.grade(90.0);
        assert!(g < 3.0, "grade {g}");
        assert!(g >= 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_nominal() {
        estimate(std::iter::empty(), 0.0);
    }
}
