//! RTP framing (RFC 3550) and the payload-type registry (RFC 3551).
//!
//! All four VCAs carry 2D persona media over RTP; FaceTime additionally
//! reverts to RTP whenever at least one participant is not on Vision Pro
//! (§4.1), keeping the PT field consistent with its traditional 2D video
//! calls — a fact the paper verifies and we expose through
//! [`RtpHeader::payload_type`].

/// Payload types relevant to the studied applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PayloadType {
    /// Opus audio (dynamic PT, conventionally 111).
    OpusAudio,
    /// H.264 video (dynamic PT, FaceTime's traditional video PT 96).
    H264Video,
    /// H.265/HEVC video (dynamic PT 98).
    H265Video,
    /// VP8 video (dynamic PT 100; used by some Webex/Teams modes).
    Vp8Video,
    /// Comfort noise (static PT 13).
    ComfortNoise,
    /// Another dynamic PT we do not further interpret.
    Dynamic(u8),
}

impl PayloadType {
    /// The 7-bit PT value on the wire.
    pub fn code(&self) -> u8 {
        match self {
            PayloadType::OpusAudio => 111,
            PayloadType::H264Video => 96,
            PayloadType::H265Video => 98,
            PayloadType::Vp8Video => 100,
            PayloadType::ComfortNoise => 13,
            PayloadType::Dynamic(c) => *c & 0x7F,
        }
    }

    /// Interpret a wire PT value.
    pub fn from_code(code: u8) -> PayloadType {
        match code & 0x7F {
            111 => PayloadType::OpusAudio,
            96 => PayloadType::H264Video,
            98 => PayloadType::H265Video,
            100 => PayloadType::Vp8Video,
            13 => PayloadType::ComfortNoise,
            other => PayloadType::Dynamic(other),
        }
    }

    /// True for video-class payloads.
    pub fn is_video(&self) -> bool {
        matches!(
            self,
            PayloadType::H264Video | PayloadType::H265Video | PayloadType::Vp8Video
        )
    }
}

/// The fixed 12-byte RTP header (no CSRC, no extensions — the studied flows
/// do not use them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtpHeader {
    /// Payload type.
    pub payload_type: PayloadType,
    /// Marker bit (end of frame for video).
    pub marker: bool,
    /// Sequence number.
    pub seq: u16,
    /// Media timestamp.
    pub timestamp: u32,
    /// Synchronization source.
    pub ssrc: u32,
}

/// RTP protocol version (always 2).
pub const RTP_VERSION: u8 = 2;
/// Serialized header length.
pub const RTP_HEADER_LEN: usize = 12;

impl RtpHeader {
    /// Serialize to the 12-byte wire form.
    pub fn to_bytes(&self) -> [u8; RTP_HEADER_LEN] {
        let mut b = [0u8; RTP_HEADER_LEN];
        b[0] = RTP_VERSION << 6; // V=2, P=0, X=0, CC=0
        b[1] = ((self.marker as u8) << 7) | self.payload_type.code();
        b[2..4].copy_from_slice(&self.seq.to_be_bytes());
        b[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        b[8..12].copy_from_slice(&self.ssrc.to_be_bytes());
        b
    }

    /// Parse from wire bytes; `None` if too short or not version 2.
    pub fn parse(bytes: &[u8]) -> Option<RtpHeader> {
        if bytes.len() < RTP_HEADER_LEN || bytes[0] >> 6 != RTP_VERSION {
            return None;
        }
        Some(RtpHeader {
            payload_type: PayloadType::from_code(bytes[1] & 0x7F),
            marker: bytes[1] & 0x80 != 0,
            seq: u16::from_be_bytes([bytes[2], bytes[3]]),
            timestamp: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
            ssrc: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
        })
    }
}

/// A complete RTP packet (header + opaque payload).
#[derive(Clone, Debug, PartialEq)]
pub struct RtpPacket {
    /// The header.
    pub header: RtpHeader,
    /// Encrypted media payload (SRTP in reality; opaque bytes here).
    pub payload: Vec<u8>,
}

impl RtpPacket {
    /// Serialize header + payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.header.to_bytes().to_vec();
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parse a full packet.
    pub fn parse(bytes: &[u8]) -> Option<RtpPacket> {
        let header = RtpHeader::parse(bytes)?;
        Some(RtpPacket {
            header,
            payload: bytes[RTP_HEADER_LEN..].to_vec(),
        })
    }
}

/// Stateful packetizer: stamps monotone sequence numbers and timestamps for
/// one SSRC.
#[derive(Clone, Debug)]
pub struct RtpStream {
    payload_type: PayloadType,
    ssrc: u32,
    next_seq: u16,
    clock_rate: u32,
}

impl RtpStream {
    /// A stream with the given PT, SSRC, and media clock rate (90 kHz for
    /// video per RFC 3551).
    pub fn new(payload_type: PayloadType, ssrc: u32, clock_rate: u32) -> Self {
        RtpStream {
            payload_type,
            ssrc,
            next_seq: 0,
            clock_rate,
        }
    }

    /// A 90 kHz video stream.
    pub fn video(payload_type: PayloadType, ssrc: u32) -> Self {
        Self::new(payload_type, ssrc, 90_000)
    }

    /// The header of the next packet, for a media chunk captured at
    /// `media_time_s` seconds; `last_of_frame` sets the marker bit. Takes
    /// the stream's next sequence number, so a caller that writes the wire
    /// image itself stamps exactly what [`RtpStream::packetize`] would.
    pub fn next_header(&mut self, media_time_s: f64, last_of_frame: bool) -> RtpHeader {
        let header = RtpHeader {
            payload_type: self.payload_type,
            marker: last_of_frame,
            seq: self.next_seq,
            timestamp: (media_time_s * self.clock_rate as f64) as u32,
            ssrc: self.ssrc,
        };
        self.next_seq = self.next_seq.wrapping_add(1);
        header
    }

    /// Packetize one media chunk captured at `media_time_s` seconds.
    /// `last_of_frame` sets the marker bit.
    pub fn packetize(
        &mut self,
        media_time_s: f64,
        payload: Vec<u8>,
        last_of_frame: bool,
    ) -> RtpPacket {
        RtpPacket {
            header: self.next_header(media_time_s, last_of_frame),
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> RtpHeader {
        RtpHeader {
            payload_type: PayloadType::H264Video,
            marker: true,
            seq: 4_660,
            timestamp: 3_735_928_559,
            ssrc: 0x1122_3344,
        }
    }

    #[test]
    fn header_round_trips() {
        let h = header();
        assert_eq!(RtpHeader::parse(&h.to_bytes()), Some(h));
    }

    #[test]
    fn version_bits_are_two() {
        let b = header().to_bytes();
        assert_eq!(b[0] >> 6, 2);
    }

    #[test]
    fn marker_and_pt_share_byte_one() {
        let b = header().to_bytes();
        assert_eq!(b[1], 0x80 | 96);
    }

    #[test]
    fn parse_rejects_wrong_version() {
        let mut b = header().to_bytes();
        b[0] = 0x40; // version 1
        assert!(RtpHeader::parse(&b).is_none());
    }

    #[test]
    fn parse_rejects_short_input() {
        assert!(RtpHeader::parse(&[0x80; 11]).is_none());
    }

    #[test]
    fn payload_type_codes_round_trip() {
        for pt in [
            PayloadType::OpusAudio,
            PayloadType::H264Video,
            PayloadType::H265Video,
            PayloadType::Vp8Video,
            PayloadType::ComfortNoise,
            PayloadType::Dynamic(119),
        ] {
            assert_eq!(PayloadType::from_code(pt.code()), pt);
        }
    }

    #[test]
    fn video_classification() {
        assert!(PayloadType::H264Video.is_video());
        assert!(!PayloadType::OpusAudio.is_video());
    }

    #[test]
    fn packet_round_trips_with_payload() {
        let p = RtpPacket {
            header: header(),
            payload: vec![9, 8, 7, 6],
        };
        assert_eq!(RtpPacket::parse(&p.to_bytes()), Some(p));
    }

    #[test]
    fn stream_stamps_monotone_sequence() {
        let mut s = RtpStream::video(PayloadType::H264Video, 7);
        let a = s.packetize(0.0, vec![1], false);
        let b = s.packetize(1.0 / 30.0, vec![2], true);
        assert_eq!(a.header.seq + 1, b.header.seq);
        assert!(b.header.timestamp > a.header.timestamp);
        // 90 kHz clock: one 30 FPS frame = 3000 ticks.
        assert_eq!(b.header.timestamp - a.header.timestamp, 3_000);
        assert!(b.header.marker && !a.header.marker);
    }

    #[test]
    fn next_header_stamps_what_packetize_would() {
        let mut a = RtpStream::video(PayloadType::H264Video, 7);
        let mut b = a.clone();
        for i in 0..4 {
            let t = i as f64 / 30.0;
            assert_eq!(
                a.next_header(t, i == 3),
                b.packetize(t, vec![], i == 3).header
            );
        }
    }

    #[test]
    fn sequence_wraps_cleanly() {
        let mut s = RtpStream::video(PayloadType::H264Video, 7);
        s.next_seq = u16::MAX;
        let a = s.packetize(0.0, vec![], false);
        let b = s.packetize(0.0, vec![], false);
        assert_eq!(a.header.seq, u16::MAX);
        assert_eq!(b.header.seq, 0);
    }
}
