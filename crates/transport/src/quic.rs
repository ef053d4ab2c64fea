//! QUIC-like framing (RFC 9000 shapes: varints, long/short headers,
//! stream frames).
//!
//! §4.1: "When all users use Vision Pro, FaceTime delivers the content via
//! QUIC." The simulator's spatial-persona path frames its semantic payloads
//! exactly this way so that the passive classifier can make the same call
//! the paper made from its captures. Payload bytes are encrypted
//! ([`crate::cipher`]); only header structure is observable.

use crate::cipher;

/// The QUIC version value our long headers carry (QUIC v1).
pub const QUIC_V1: u32 = 0x0000_0001;

/// Encode an RFC 9000 variable-length integer.
pub fn write_varint(out: &mut Vec<u8>, v: u64) {
    match v {
        0..=0x3F => out.push(v as u8),
        0x40..=0x3FFF => out.extend_from_slice(&(0x4000u16 | v as u16).to_be_bytes()),
        0x4000..=0x3FFF_FFFF => out.extend_from_slice(&(0x8000_0000u32 | v as u32).to_be_bytes()),
        0x4000_0000..=0x3FFF_FFFF_FFFF_FFFF => {
            out.extend_from_slice(&(0xC000_0000_0000_0000u64 | v).to_be_bytes())
        }
        _ => panic!("varint out of range: {v}"),
    }
}

/// Decode an RFC 9000 varint, returning `(value, bytes_consumed)`.
pub fn read_varint(bytes: &[u8]) -> Option<(u64, usize)> {
    let first = *bytes.first()?;
    let len = 1usize << (first >> 6);
    if bytes.len() < len {
        return None;
    }
    let mut v = (first & 0x3F) as u64;
    for &b in &bytes[1..len] {
        v = (v << 8) | b as u64;
    }
    Some((v, len))
}

/// Frames carried inside a QUIC packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuicFrame {
    /// PADDING (type 0x00).
    Padding(usize),
    /// PING (type 0x01).
    Ping,
    /// STREAM with explicit offset and length (type 0x0e).
    Stream {
        /// Stream identifier.
        stream_id: u64,
        /// Byte offset within the stream.
        offset: u64,
        /// Application data.
        data: Vec<u8>,
    },
}

impl QuicFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            QuicFrame::Padding(n) => out.extend(std::iter::repeat_n(0u8, *n)),
            QuicFrame::Ping => out.push(0x01),
            QuicFrame::Stream {
                stream_id,
                offset,
                data,
            } => {
                out.push(0x0E); // STREAM | OFF | LEN
                write_varint(out, *stream_id);
                write_varint(out, *offset);
                write_varint(out, data.len() as u64);
                out.extend_from_slice(data);
            }
        }
    }

    fn decode(bytes: &[u8]) -> Option<(QuicFrame, usize)> {
        let ty = *bytes.first()?;
        match ty {
            0x00 => {
                let n = bytes.iter().take_while(|&&b| b == 0).count();
                Some((QuicFrame::Padding(n), n))
            }
            0x01 => Some((QuicFrame::Ping, 1)),
            0x0E => {
                let mut pos = 1;
                let (stream_id, n) = read_varint(&bytes[pos..])?;
                pos += n;
                let (offset, n) = read_varint(&bytes[pos..])?;
                pos += n;
                let (len, n) = read_varint(&bytes[pos..])?;
                pos += n;
                let end = pos.checked_add(len as usize)?;
                let data = bytes.get(pos..end)?.to_vec();
                Some((
                    QuicFrame::Stream {
                        stream_id,
                        offset,
                        data,
                    },
                    end,
                ))
            }
            _ => None,
        }
    }
}

/// A QUIC-like packet: long header (handshake) or short header (1-RTT).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuicPacket {
    /// Long header — carries version and connection IDs.
    Long {
        /// Destination connection ID (≤ 20 bytes).
        dcid: Vec<u8>,
        /// Source connection ID (≤ 20 bytes).
        scid: Vec<u8>,
        /// Packet number.
        packet_number: u64,
        /// Frames (encrypted on the wire).
        frames: Vec<QuicFrame>,
    },
    /// Short header — the steady-state data packets.
    Short {
        /// Destination connection ID (fixed 8 bytes in our framing).
        dcid: [u8; 8],
        /// Packet number.
        packet_number: u64,
        /// Frames (encrypted on the wire).
        frames: Vec<QuicFrame>,
    },
}

/// First-byte pattern: long header (fixed bit + long bit).
const LONG_FIRST: u8 = 0b1100_0000;
/// First-byte pattern: short header (fixed bit only).
const SHORT_FIRST: u8 = 0b0100_0000;

impl QuicPacket {
    /// Serialize, encrypting the frame body under `key`. The header stays
    /// in the clear (as QUIC's invariant bytes do).
    pub fn to_bytes(&self, key: &cipher::Key) -> Vec<u8> {
        let mut out = Vec::new();
        let (packet_number, frames) = match self {
            QuicPacket::Long {
                dcid,
                scid,
                packet_number,
                frames,
            } => {
                assert!(dcid.len() <= 20 && scid.len() <= 20, "cid too long");
                out.push(LONG_FIRST);
                out.extend_from_slice(&QUIC_V1.to_be_bytes());
                out.push(dcid.len() as u8);
                out.extend_from_slice(dcid);
                out.push(scid.len() as u8);
                out.extend_from_slice(scid);
                (*packet_number, frames)
            }
            QuicPacket::Short {
                dcid,
                packet_number,
                frames,
            } => {
                out.push(SHORT_FIRST);
                out.extend_from_slice(dcid);
                (*packet_number, frames)
            }
        };
        write_varint(&mut out, packet_number);
        let mut body = Vec::new();
        for f in frames {
            f.encode(&mut body);
        }
        let nonce = cipher::packet_nonce(0xC0DE, packet_number);
        cipher::apply(key, &nonce, &mut body);
        out.extend_from_slice(&body);
        out
    }

    /// Parse and decrypt a packet produced by [`QuicPacket::to_bytes`].
    pub fn parse(bytes: &[u8], key: &cipher::Key) -> Option<QuicPacket> {
        let first = *bytes.first()?;
        if first & 0b0100_0000 == 0 {
            return None; // fixed bit must be set
        }
        let long = first & 0b1000_0000 != 0;
        let mut pos = 1usize;
        let mut dcid_long = Vec::new();
        let mut scid = Vec::new();
        let mut dcid_short = [0u8; 8];
        if long {
            let version = u32::from_be_bytes(bytes.get(pos..pos + 4)?.try_into().ok()?);
            if version != QUIC_V1 {
                return None;
            }
            pos += 4;
            let dlen = *bytes.get(pos)? as usize;
            pos += 1;
            dcid_long = bytes.get(pos..pos + dlen)?.to_vec();
            pos += dlen;
            let slen = *bytes.get(pos)? as usize;
            pos += 1;
            scid = bytes.get(pos..pos + slen)?.to_vec();
            pos += slen;
        } else {
            dcid_short.copy_from_slice(bytes.get(pos..pos + 8)?);
            pos += 8;
        }
        let (packet_number, n) = read_varint(&bytes[pos..])?;
        pos += n;
        let mut body = bytes.get(pos..)?.to_vec();
        let nonce = cipher::packet_nonce(0xC0DE, packet_number);
        cipher::apply(key, &nonce, &mut body);
        let mut frames = Vec::new();
        let mut fpos = 0;
        while fpos < body.len() {
            let (frame, n) = QuicFrame::decode(&body[fpos..])?;
            frames.push(frame);
            fpos += n;
        }
        Some(if long {
            QuicPacket::Long {
                dcid: dcid_long,
                scid,
                packet_number,
                frames,
            }
        } else {
            QuicPacket::Short {
                dcid: dcid_short,
                packet_number,
                frames,
            }
        })
    }
}

/// A unidirectional QUIC-like stream sender: frames payloads into short
/// packets with monotone packet numbers and stream offsets.
#[derive(Clone, Debug)]
pub struct QuicStreamSender {
    dcid: [u8; 8],
    stream_id: u64,
    next_packet_number: u64,
    offset: u64,
    key: cipher::Key,
}

impl QuicStreamSender {
    /// A sender for one stream over one connection.
    pub fn new(dcid: [u8; 8], stream_id: u64, key: cipher::Key) -> Self {
        QuicStreamSender {
            dcid,
            stream_id,
            next_packet_number: 0,
            offset: 0,
            key,
        }
    }

    /// Wrap one application payload into a serialized short packet,
    /// returned as a shared buffer: the wire image is allocated exactly
    /// once per frame and every downstream consumer (the network send
    /// path, SFU fan-out, retransmission) shares it by refcount.
    pub fn send(&mut self, data: Vec<u8>) -> std::sync::Arc<[u8]> {
        let len = data.len() as u64;
        let pkt = QuicPacket::Short {
            dcid: self.dcid,
            packet_number: self.next_packet_number,
            frames: vec![QuicFrame::Stream {
                stream_id: self.stream_id,
                offset: self.offset,
                data,
            }],
        };
        self.next_packet_number += 1;
        self.offset += len;
        pkt.to_bytes(&self.key).into()
    }

    /// Packets sent so far.
    pub fn packets_sent(&self) -> u64 {
        self.next_packet_number
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: cipher::Key = [0xA5; 32];

    #[test]
    fn varint_round_trips_all_widths() {
        for v in [
            0u64,
            63,
            64,
            16_383,
            16_384,
            0x3FFF_FFFF,
            0x4000_0000,
            0x3FFF_FFFF_FFFF_FFFF,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (got, n) = read_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn varint_rejects_oversize() {
        write_varint(&mut Vec::new(), u64::MAX);
    }

    #[test]
    fn varint_width_is_minimal() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 63);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_varint(&mut buf, 64);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn short_packet_round_trips() {
        let pkt = QuicPacket::Short {
            dcid: *b"CONN0001",
            packet_number: 77,
            frames: vec![QuicFrame::Stream {
                stream_id: 4,
                offset: 1_024,
                data: vec![1, 2, 3, 4, 5],
            }],
        };
        let wire = pkt.to_bytes(&KEY);
        assert_eq!(QuicPacket::parse(&wire, &KEY), Some(pkt));
    }

    #[test]
    fn long_packet_round_trips() {
        let pkt = QuicPacket::Long {
            dcid: vec![1; 8],
            scid: vec![2; 8],
            packet_number: 0,
            frames: vec![QuicFrame::Ping, QuicFrame::Padding(16)],
        };
        let wire = pkt.to_bytes(&KEY);
        assert_eq!(QuicPacket::parse(&wire, &KEY), Some(pkt));
    }

    #[test]
    fn wrong_key_garbles_frames() {
        let pkt = QuicPacket::Short {
            dcid: *b"CONN0001",
            packet_number: 5,
            frames: vec![QuicFrame::Stream {
                stream_id: 4,
                offset: 0,
                data: vec![9; 100],
            }],
        };
        let wire = pkt.to_bytes(&KEY);
        let wrong = [0x5Au8; 32];
        // Decryption with the wrong key either fails to parse frames or
        // yields different content — never the plaintext.
        match QuicPacket::parse(&wire, &wrong) {
            None => {}
            Some(p) => assert_ne!(p, pkt),
        }
    }

    #[test]
    fn header_bits_match_quic_invariants() {
        let long = QuicPacket::Long {
            dcid: vec![],
            scid: vec![],
            packet_number: 0,
            frames: vec![],
        }
        .to_bytes(&KEY);
        assert_eq!(long[0] & 0b1100_0000, 0b1100_0000);
        let short = QuicPacket::Short {
            dcid: [0; 8],
            packet_number: 0,
            frames: vec![],
        }
        .to_bytes(&KEY);
        assert_eq!(short[0] & 0b1100_0000, 0b0100_0000);
    }

    #[test]
    fn parse_rejects_unset_fixed_bit() {
        assert!(QuicPacket::parse(&[0x00, 1, 2, 3], &KEY).is_none());
    }

    #[test]
    fn stream_sender_advances_offsets_and_numbers() {
        let mut s = QuicStreamSender::new(*b"PERSONA1", 0, KEY);
        let w1 = s.send(vec![0xAA; 100]);
        let w2 = s.send(vec![0xBB; 50]);
        assert_eq!(s.packets_sent(), 2);
        match QuicPacket::parse(&w2, &KEY).unwrap() {
            QuicPacket::Short {
                packet_number,
                frames,
                ..
            } => {
                assert_eq!(packet_number, 1);
                match &frames[0] {
                    QuicFrame::Stream { offset, data, .. } => {
                        assert_eq!(*offset, 100);
                        assert_eq!(data.len(), 50);
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        // Ciphertexts for same plaintext lengths differ (per-packet nonce).
        assert_ne!(w1[..20], w2[..20]);
    }
}
