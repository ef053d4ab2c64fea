//! Passive protocol identification from captured header bytes.
//!
//! The paper's Wireshark analysis distinguishes RTP flows from QUIC flows
//! and reads RTP payload types from headers — the only fields visible given
//! end-to-end encryption. [`classify`] does the same over the first bytes a
//! tap retains, using the protocols' first-byte invariants:
//!
//! * RTP: version bits `10` in the two MSBs of byte 0 and a plausible
//!   remainder (no CSRC/extension in the studied flows).
//! * QUIC long header: byte 0 starts `11`, followed by a known version.
//! * QUIC short header: byte 0 starts `01`.

use crate::quic::QUIC_V1;
use crate::rtcp::ReceiverReportPacket;
use crate::rtp::PayloadType;

/// Classifier verdict for one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireProtocol {
    /// RTP carrying the given payload type.
    Rtp(PayloadType),
    /// RTCP control traffic (receiver reports etc.).
    Rtcp,
    /// QUIC (long or short header).
    Quic,
    /// Unrecognized.
    Unknown,
}

impl WireProtocol {
    /// True for any RTP verdict.
    pub fn is_rtp(&self) -> bool {
        matches!(self, WireProtocol::Rtp(_))
    }

    /// True for the QUIC verdict.
    pub fn is_quic(&self) -> bool {
        matches!(self, WireProtocol::Quic)
    }
}

/// Classify a packet from its first bytes (a tap's header snippet).
pub fn classify(snippet: &[u8]) -> WireProtocol {
    let Some(&first) = snippet.first() else {
        return WireProtocol::Unknown;
    };
    match first >> 6 {
        0b10 => {
            // RTCP shares RTP's version bits but uses packet types
            // 200..=206 in byte 1; check it first (an RTCP type would
            // otherwise parse as an RTP marker + dynamic PT).
            if ReceiverReportPacket::looks_like_rtcp(snippet) {
                return WireProtocol::Rtcp;
            }
            // RTP v2. Reject headers with CSRC count or extension set —
            // the studied applications do not use them, and requiring this
            // cuts false positives on random ciphertext.
            if first & 0x3F == 0 && snippet.len() >= 2 {
                WireProtocol::Rtp(PayloadType::from_code(snippet[1] & 0x7F))
            } else {
                WireProtocol::Unknown
            }
        }
        0b11 => {
            // QUIC long header: check version.
            if snippet.len() >= 5 {
                let version = u32::from_be_bytes([snippet[1], snippet[2], snippet[3], snippet[4]]);
                if version == QUIC_V1 {
                    return WireProtocol::Quic;
                }
            }
            WireProtocol::Unknown
        }
        0b01 => WireProtocol::Quic, // short header (fixed bit set, long bit clear)
        _ => WireProtocol::Unknown,
    }
}

/// Majority-vote flow classification over many packet snippets: returns the
/// dominant verdict and its fraction.
pub fn classify_flow<'a, I>(snippets: I) -> (WireProtocol, f64)
where
    I: IntoIterator<Item = &'a [u8]>,
{
    use std::collections::HashMap;
    let mut votes: HashMap<WireProtocol, usize> = HashMap::new();
    let mut total = 0usize;
    for s in snippets {
        *votes.entry(classify(s)).or_insert(0) += 1;
        total += 1;
    }
    match votes
        .into_iter()
        .max_by_key(|&(p, c)| (c, matches!(p, WireProtocol::Unknown) as usize))
    {
        Some((proto, count)) => (proto, count as f64 / total as f64),
        // No snippets at all — an empty flow is simply unknown, never a
        // panic (tap records can legitimately be empty).
        None => (WireProtocol::Unknown, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::quic::{QuicFrame, QuicPacket, QuicStreamSender};
    use crate::rtp::{RtpPacket, RtpStream};

    #[test]
    fn classifies_rtp_with_payload_type() {
        let mut s = RtpStream::video(PayloadType::H264Video, 99);
        let wire = s.packetize(0.0, vec![0u8; 50], true).to_bytes();
        assert_eq!(classify(&wire), WireProtocol::Rtp(PayloadType::H264Video));
    }

    #[test]
    fn classifies_quic_short_and_long() {
        let key = [1u8; 32];
        let mut sender = QuicStreamSender::new(*b"AVPSPAT1", 0, key);
        let short = sender.send(vec![0u8; 100]);
        assert_eq!(classify(&short), WireProtocol::Quic);
        let long = QuicPacket::Long {
            dcid: vec![1; 8],
            scid: vec![2; 8],
            packet_number: 0,
            frames: vec![QuicFrame::Ping],
        }
        .to_bytes(&key);
        assert_eq!(classify(&long), WireProtocol::Quic);
    }

    #[test]
    fn rejects_long_header_with_bogus_version() {
        let snippet = [0b1100_0000, 0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0];
        assert_eq!(classify(&snippet), WireProtocol::Unknown);
    }

    #[test]
    fn rejects_rtp_with_csrc_or_extension() {
        // Version 2 but CSRC count 3.
        assert_eq!(classify(&[0x83, 96, 0, 0]), WireProtocol::Unknown);
        // Version 2 but extension bit.
        assert_eq!(classify(&[0x90, 96, 0, 0]), WireProtocol::Unknown);
    }

    #[test]
    fn empty_and_garbage_are_unknown() {
        assert_eq!(classify(&[]), WireProtocol::Unknown);
        assert_eq!(classify(&[0x00, 1, 2]), WireProtocol::Unknown);
        assert_eq!(classify(&[0x3F]), WireProtocol::Unknown);
    }

    #[test]
    fn empty_flow_is_unknown_not_a_panic() {
        let (proto, frac) = classify_flow(std::iter::empty());
        assert_eq!(proto, WireProtocol::Unknown);
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn flow_majority_vote() {
        let mut s = RtpStream::video(PayloadType::H265Video, 7);
        let packets: Vec<Vec<u8>> = (0..20)
            .map(|i| s.packetize(i as f64 / 90.0, vec![0u8; 64], true).to_bytes())
            .collect();
        let mut snippets: Vec<&[u8]> = packets.iter().map(|p| &p[..16.min(p.len())]).collect();
        let garbage = [0u8; 16];
        snippets.push(&garbage);
        let (proto, frac) = classify_flow(snippets);
        assert_eq!(proto, WireProtocol::Rtp(PayloadType::H265Video));
        assert!(frac > 0.9);
    }

    #[test]
    fn pt_field_consistency_check_works_end_to_end() {
        // The paper verifies FaceTime's RTP PT matches traditional 2D
        // calls; we reproduce: two streams with the same PT classify
        // identically.
        let mut call_2d = RtpStream::video(PayloadType::H264Video, 1);
        let mut call_avp = RtpStream::video(PayloadType::H264Video, 2);
        let a = call_2d.packetize(0.0, vec![0; 10], true).to_bytes();
        let b = call_avp.packetize(0.0, vec![0; 10], true).to_bytes();
        assert_eq!(classify(&a), classify(&b));
    }

    #[test]
    fn rtp_parse_and_classify_agree() {
        let mut s = RtpStream::video(PayloadType::Vp8Video, 3);
        let wire = s.packetize(0.5, vec![1, 2, 3], false).to_bytes();
        let parsed = RtpPacket::parse(&wire).unwrap();
        match classify(&wire) {
            WireProtocol::Rtp(pt) => assert_eq!(pt, parsed.header.payload_type),
            other => panic!("unexpected {other:?}"),
        }
    }
}
