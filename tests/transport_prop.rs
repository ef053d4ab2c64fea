//! Randomized property tests for wire framing: round-trips under arbitrary
//! field values, and parser robustness on arbitrary bytes. Cases are
//! deterministic SimRng draws.

use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::transport::cipher;
use visionsim::transport::classify::classify;
use visionsim::transport::quic::{read_varint, write_varint, QuicFrame, QuicPacket};
use visionsim::transport::rtcp::{
    PliPacket, ReceiverReportPacket, XrPacket, FMT_PLI, PT_PSFB, PT_RECEIVER_REPORT, PT_XR,
};
use visionsim::transport::rtp::{PayloadType, RtpHeader, RtpPacket};

const CASES: u64 = 128;

fn case_rng(label: &str, i: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(0x74A4_5907, label, i))
}

fn bytes(rng: &mut SimRng, min_len: u64, max_len: u64) -> Vec<u8> {
    let n = rng.uniform_u64(min_len, max_len) as usize;
    let mut v = vec![0u8; n];
    rng.fill_bytes(&mut v);
    v
}

fn array<const N: usize>(rng: &mut SimRng) -> [u8; N] {
    let mut a = [0u8; N];
    rng.fill_bytes(&mut a);
    a
}

#[test]
fn rtp_header_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("rtp_header", i);
        let h = RtpHeader {
            payload_type: PayloadType::from_code(rng.uniform_u64(0, 127) as u8),
            marker: rng.chance(0.5),
            seq: rng.next_u64() as u16,
            timestamp: rng.next_u32(),
            ssrc: rng.next_u32(),
        };
        assert_eq!(RtpHeader::parse(&h.to_bytes()), Some(h));
    }
}

#[test]
fn rtp_packet_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("rtp_packet", i);
        let p = RtpPacket {
            header: RtpHeader {
                payload_type: PayloadType::H264Video,
                marker: true,
                seq: 1,
                timestamp: 2,
                ssrc: 3,
            },
            payload: bytes(&mut rng, 0, 2_000),
        };
        assert_eq!(RtpPacket::parse(&p.to_bytes()), Some(p));
    }
}

#[test]
fn rtp_parse_never_panics() {
    for i in 0..CASES {
        let mut rng = case_rng("rtp_garbage", i);
        let garbage = bytes(&mut rng, 0, 64);
        let _ = RtpHeader::parse(&garbage);
        let _ = RtpPacket::parse(&garbage);
    }
}

/// Sessions parse every delivered RTCP payload as a receiver report, a
/// PLI and an XR report. Three cases in four carry one of those headers
/// (version 2 and the packet type), so each parser also reads bodies of
/// every length around its minimum.
#[test]
fn rtcp_parse_never_panics() {
    let headers = [
        [0x80, PT_RECEIVER_REPORT],
        [0x80 | FMT_PLI, PT_PSFB],
        [0x80, PT_XR],
    ];
    for i in 0..CASES {
        let mut rng = case_rng("rtcp_garbage", i);
        for _ in 0..8 {
            let mut garbage = bytes(&mut rng, 0, 32);
            let pick = rng.index(4);
            if pick < headers.len() && garbage.len() >= 2 {
                garbage[..2].copy_from_slice(&headers[pick]);
            }
            let _ = ReceiverReportPacket::parse(&garbage);
            let _ = PliPacket::parse(&garbage);
            let _ = XrPacket::parse(&garbage);
        }
    }
}

#[test]
fn quic_varint_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("quic_varint", i);
        for _ in 0..16 {
            let v = rng.uniform_u64(0, 0x4000_0000_0000_0000 - 1);
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (got, n) = read_varint(&buf).expect("wrote it");
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }
}

#[test]
fn quic_short_packet_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("quic_short", i);
        let pkt = QuicPacket::Short {
            dcid: array::<8>(&mut rng),
            packet_number: rng.uniform_u64(0, 0x4000_0000 - 1),
            frames: vec![QuicFrame::Stream {
                stream_id: rng.uniform_u64(0, 999),
                offset: rng.uniform_u64(0, 0x4000_0000 - 1),
                data: bytes(&mut rng, 0, 1_500),
            }],
        };
        let key = array::<32>(&mut rng);
        let wire = pkt.to_bytes(&key);
        assert_eq!(QuicPacket::parse(&wire, &key), Some(pkt));
    }
}

#[test]
fn quic_parse_never_panics() {
    for i in 0..CASES {
        let mut rng = case_rng("quic_garbage", i);
        let garbage = bytes(&mut rng, 0, 128);
        let _ = QuicPacket::parse(&garbage, &[0u8; 32]);
    }
}

#[test]
fn classify_never_panics() {
    for i in 0..CASES {
        let mut rng = case_rng("classify_garbage", i);
        let garbage = bytes(&mut rng, 0, 32);
        let _ = classify(&garbage);
    }
}

#[test]
fn chacha_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("chacha", i);
        let key = array::<32>(&mut rng);
        let nonce = array::<12>(&mut rng);
        let data = bytes(&mut rng, 0, 2_000);
        let ct = cipher::seal(&key, &nonce, &data);
        assert_eq!(ct.len(), data.len());
        assert_eq!(cipher::open(&key, &nonce, &ct), data);
    }
}

/// Ciphertext differs from plaintext for non-trivial inputs (the
/// keystream is never the zero stream for these parameters).
#[test]
fn chacha_actually_encrypts() {
    for i in 0..CASES {
        let mut rng = case_rng("chacha_nonzero", i);
        let key = array::<32>(&mut rng);
        let data = bytes(&mut rng, 64, 256);
        let nonce = [7u8; 12];
        let ct = cipher::seal(&key, &nonce, &data);
        assert_ne!(ct, data);
    }
}

/// Classifier verdicts on real framings are correct for arbitrary
/// header field values.
#[test]
fn classify_identifies_real_framings() {
    for i in 0..CASES {
        let mut rng = case_rng("classify_real", i);
        let seq = rng.next_u64() as u16;
        let ts = rng.next_u32();
        let key = array::<32>(&mut rng);
        let payload = bytes(&mut rng, 0, 100);
        let rtp = RtpPacket {
            header: RtpHeader {
                payload_type: PayloadType::H264Video,
                marker: false,
                seq,
                timestamp: ts,
                ssrc: 1,
            },
            payload: payload.clone(),
        }
        .to_bytes();
        assert!(classify(&rtp).is_rtp());

        let quic = QuicPacket::Short {
            dcid: [1; 8],
            packet_number: seq as u64,
            frames: vec![QuicFrame::Stream {
                stream_id: 0,
                offset: 0,
                data: payload,
            }],
        }
        .to_bytes(&key);
        assert!(classify(&quic).is_quic());
    }
}
