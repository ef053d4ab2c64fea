//! RTCP receiver reports (RFC 3550 §6.4, simplified).
//!
//! Every production VCA closes its adaptation loop with RTCP-class
//! feedback: the receiver periodically reports loss and reception volume
//! back to the sender. The session engine sends these *in-band* (they show
//! up at the AP taps on the RTP port + 1, just like real RTCP), and the
//! passive classifier can identify them — packet type 201 in the second
//! byte, version bits `10` like RTP.

/// RTCP packet type for receiver reports.
pub const PT_RECEIVER_REPORT: u8 = 201;

/// A (simplified) receiver report block for one source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReceiverReportPacket {
    /// SSRC of the reporting receiver.
    pub reporter_ssrc: u32,
    /// SSRC of the source being reported on.
    pub source_ssrc: u32,
    /// Fraction of packets lost since the last report, as a Q8 fixed-point
    /// value (0 = none, 255 ≈ 100%).
    pub fraction_lost: u8,
    /// Cumulative packets lost (24-bit on the wire).
    pub cumulative_lost: u32,
    /// Extended highest sequence number received.
    pub highest_seq: u32,
    /// Bytes received since the last report (a receiver-estimation field
    /// real systems carry in extended reports; used for goodput).
    pub received_bytes: u32,
}

/// Serialized length.
pub const RR_LEN: usize = 24;

impl ReceiverReportPacket {
    /// Loss fraction in `[0, 1]`.
    pub fn loss(&self) -> f64 {
        self.fraction_lost as f64 / 255.0
    }

    /// Build the Q8 loss field from a fraction.
    pub fn q8_loss(fraction: f64) -> u8 {
        (fraction.clamp(0.0, 1.0) * 255.0).round() as u8
    }

    /// Serialize to wire form.
    pub fn to_bytes(&self) -> [u8; RR_LEN] {
        let mut b = [0u8; RR_LEN];
        b[0] = 0x81; // V=2, P=0, RC=1
        b[1] = PT_RECEIVER_REPORT;
        // length in 32-bit words minus one.
        b[2..4].copy_from_slice(&((RR_LEN as u16 / 4) - 1).to_be_bytes());
        b[4..8].copy_from_slice(&self.reporter_ssrc.to_be_bytes());
        b[8..12].copy_from_slice(&self.source_ssrc.to_be_bytes());
        b[12] = self.fraction_lost;
        b[13..16].copy_from_slice(&self.cumulative_lost.to_be_bytes()[1..4]);
        b[16..20].copy_from_slice(&self.highest_seq.to_be_bytes());
        b[20..24].copy_from_slice(&self.received_bytes.to_be_bytes());
        b
    }

    /// Parse from wire bytes.
    pub fn parse(bytes: &[u8]) -> Option<ReceiverReportPacket> {
        if bytes.len() < RR_LEN || bytes[0] >> 6 != 2 || bytes[1] != PT_RECEIVER_REPORT {
            return None;
        }
        Some(ReceiverReportPacket {
            reporter_ssrc: u32::from_be_bytes(bytes[4..8].try_into().ok()?),
            source_ssrc: u32::from_be_bytes(bytes[8..12].try_into().ok()?),
            fraction_lost: bytes[12],
            cumulative_lost: u32::from_be_bytes([0, bytes[13], bytes[14], bytes[15]]),
            highest_seq: u32::from_be_bytes(bytes[16..20].try_into().ok()?),
            received_bytes: u32::from_be_bytes(bytes[20..24].try_into().ok()?),
        })
    }

    /// True when a packet's first bytes look like RTCP (for the passive
    /// classifier: version 2 + packet type in the RTCP range 200..=207,
    /// which covers SR/RR/SDES/BYE/APP, the RTPFB/PSFB feedback types,
    /// and XR extended reports).
    pub fn looks_like_rtcp(snippet: &[u8]) -> bool {
        snippet.len() >= 2 && snippet[0] >> 6 == 2 && (200..=207).contains(&snippet[1])
    }
}

/// RTCP packet type for payload-specific feedback (RFC 4585).
pub const PT_PSFB: u8 = 206;

/// PSFB feedback message type for Picture Loss Indication.
pub const FMT_PLI: u8 = 1;

/// Serialized PLI length: the fixed feedback header only (PLI carries no
/// FCI payload).
pub const PLI_LEN: usize = 12;

/// A Picture Loss Indication (RFC 4585 §6.3.1): the receiver lost enough
/// of the picture that it cannot decode forward and asks the sender for a
/// fresh keyframe. This is the recovery path every production VCA uses
/// after a loss burst — decode state is resynchronised by one I-frame
/// instead of waiting out the GOP.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PliPacket {
    /// SSRC of the receiver requesting the keyframe.
    pub reporter_ssrc: u32,
    /// SSRC of the media source being asked.
    pub source_ssrc: u32,
}

impl PliPacket {
    /// Serialize to wire form.
    pub fn to_bytes(&self) -> [u8; PLI_LEN] {
        let mut b = [0u8; PLI_LEN];
        b[0] = 0x80 | FMT_PLI; // V=2, P=0, FMT=1 (PLI)
        b[1] = PT_PSFB;
        b[2..4].copy_from_slice(&((PLI_LEN as u16 / 4) - 1).to_be_bytes());
        b[4..8].copy_from_slice(&self.reporter_ssrc.to_be_bytes());
        b[8..12].copy_from_slice(&self.source_ssrc.to_be_bytes());
        b
    }

    /// Parse from wire bytes.
    pub fn parse(bytes: &[u8]) -> Option<PliPacket> {
        if bytes.len() < PLI_LEN
            || bytes[0] >> 6 != 2
            || bytes[0] & 0x1F != FMT_PLI
            || bytes[1] != PT_PSFB
        {
            return None;
        }
        Some(PliPacket {
            reporter_ssrc: u32::from_be_bytes(bytes[4..8].try_into().ok()?),
            source_ssrc: u32::from_be_bytes(bytes[8..12].try_into().ok()?),
        })
    }
}

/// RTCP packet type for extended reports (RFC 3611).
pub const PT_XR: u8 = 207;

/// Serialized XR length.
pub const XR_LEN: usize = 20;

/// A (simplified) extended report carrying the congestion-control signals
/// a plain RR lacks: interarrival jitter and the receiver's arrival-rate
/// estimate. Sent alongside the RR on the same deterministic cadence; a
/// GCC/BBR-flavored controller uses the pair (RR loss + XR delay/rate) to
/// pick its next target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XrPacket {
    /// SSRC of the reporting receiver.
    pub reporter_ssrc: u32,
    /// SSRC of the source being reported on.
    pub source_ssrc: u32,
    /// Smoothed interarrival jitter, microseconds.
    pub jitter_us: u32,
    /// Arrival-rate estimate over the report interval, kbps.
    pub arrival_kbps: u32,
}

impl XrPacket {
    /// Serialize to wire form.
    pub fn to_bytes(&self) -> [u8; XR_LEN] {
        let mut b = [0u8; XR_LEN];
        b[0] = 0x80; // V=2, P=0, reserved=0
        b[1] = PT_XR;
        b[2..4].copy_from_slice(&((XR_LEN as u16 / 4) - 1).to_be_bytes());
        b[4..8].copy_from_slice(&self.reporter_ssrc.to_be_bytes());
        b[8..12].copy_from_slice(&self.source_ssrc.to_be_bytes());
        b[12..16].copy_from_slice(&self.jitter_us.to_be_bytes());
        b[16..20].copy_from_slice(&self.arrival_kbps.to_be_bytes());
        b
    }

    /// Parse from wire bytes.
    pub fn parse(bytes: &[u8]) -> Option<XrPacket> {
        if bytes.len() < XR_LEN || bytes[0] >> 6 != 2 || bytes[1] != PT_XR {
            return None;
        }
        Some(XrPacket {
            reporter_ssrc: u32::from_be_bytes(bytes[4..8].try_into().ok()?),
            source_ssrc: u32::from_be_bytes(bytes[8..12].try_into().ok()?),
            jitter_us: u32::from_be_bytes(bytes[12..16].try_into().ok()?),
            arrival_kbps: u32::from_be_bytes(bytes[16..20].try_into().ok()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rr() -> ReceiverReportPacket {
        ReceiverReportPacket {
            reporter_ssrc: 0xAABB_CCDD,
            source_ssrc: 0x1122_3344,
            fraction_lost: 64,
            cumulative_lost: 1_234,
            highest_seq: 99_999,
            received_bytes: 500_000,
        }
    }

    #[test]
    fn round_trips() {
        let r = rr();
        assert_eq!(ReceiverReportPacket::parse(&r.to_bytes()), Some(r));
    }

    #[test]
    fn loss_fraction_conversion() {
        assert_eq!(ReceiverReportPacket::q8_loss(0.0), 0);
        assert_eq!(ReceiverReportPacket::q8_loss(1.0), 255);
        assert_eq!(ReceiverReportPacket::q8_loss(2.5), 255);
        let r = ReceiverReportPacket {
            fraction_lost: ReceiverReportPacket::q8_loss(0.25),
            ..rr()
        };
        assert!((r.loss() - 0.25).abs() < 0.01);
    }

    #[test]
    fn cumulative_lost_is_24_bit() {
        let mut r = rr();
        r.cumulative_lost = 0x00FF_FFFF;
        assert_eq!(
            ReceiverReportPacket::parse(&r.to_bytes())
                .unwrap()
                .cumulative_lost,
            0x00FF_FFFF
        );
    }

    #[test]
    fn parse_rejects_rtp_and_garbage() {
        assert!(ReceiverReportPacket::parse(&[0x80, 96, 0, 0]).is_none()); // RTP
        assert!(ReceiverReportPacket::parse(&[0u8; RR_LEN]).is_none());
        assert!(ReceiverReportPacket::parse(&rr().to_bytes()[..10]).is_none());
    }

    #[test]
    fn rtcp_detection() {
        assert!(ReceiverReportPacket::looks_like_rtcp(&rr().to_bytes()));
        assert!(!ReceiverReportPacket::looks_like_rtcp(&[0x80, 96])); // RTP PT 96
        assert!(!ReceiverReportPacket::looks_like_rtcp(&[0x41, 201])); // wrong version
        assert!(ReceiverReportPacket::looks_like_rtcp(&[0x81, 206])); // PSFB
        assert!(ReceiverReportPacket::looks_like_rtcp(&[0x80, 207])); // XR
        assert!(!ReceiverReportPacket::looks_like_rtcp(&[0x80, 208])); // out of range
    }

    #[test]
    fn pli_round_trips() {
        let pli = PliPacket {
            reporter_ssrc: 0xDEAD_BEEF,
            source_ssrc: 0x0102_0304,
        };
        assert_eq!(PliPacket::parse(&pli.to_bytes()), Some(pli));
        assert!(ReceiverReportPacket::looks_like_rtcp(&pli.to_bytes()));
    }

    #[test]
    fn pli_rejects_receiver_reports_and_garbage() {
        assert!(PliPacket::parse(&rr().to_bytes()).is_none());
        assert!(PliPacket::parse(&[0u8; PLI_LEN]).is_none());
        let pli = PliPacket {
            reporter_ssrc: 1,
            source_ssrc: 2,
        };
        assert!(PliPacket::parse(&pli.to_bytes()[..8]).is_none());
        // RR must not parse as PLI and vice versa even though both pass
        // the RTCP sniff test.
        assert!(ReceiverReportPacket::parse(&pli.to_bytes()).is_none());
    }
}
