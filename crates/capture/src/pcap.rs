//! Binary pcap export.
//!
//! Captured tap records serialize to a standard libpcap file (linktype
//! RAW-IPv4), so traces from the simulator open in Wireshark/tshark — the
//! same tooling the paper's methodology is built on. IPv4 + UDP headers
//! are synthesized from the record metadata; the retained header snippet
//! becomes the visible payload prefix and `orig_len` preserves the true
//! wire size, exactly like a snaplen-truncated capture.

use visionsim_net::tap::TapRecord;

/// libpcap magic (microsecond timestamps, little-endian).
pub const PCAP_MAGIC: u32 = 0xA1B2_C3D4;
/// LINKTYPE_RAW: packets begin with an IPv4/IPv6 header.
pub const LINKTYPE_RAW: u32 = 101;

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

// Width-checked reads for the parser. `None` on a short slice, so every
// field access below is provably panic-free — no length-guarded
// `try_into().expect(...)` an edit three functions away can invalidate.

fn le_u32_at(bytes: &[u8], pos: usize) -> Option<u32> {
    let b: &[u8; 4] = bytes.get(pos..pos + 4)?.try_into().ok()?;
    Some(u32::from_le_bytes(*b))
}

fn be_u32_at(bytes: &[u8], pos: usize) -> Option<u32> {
    let b: &[u8; 4] = bytes.get(pos..pos + 4)?.try_into().ok()?;
    Some(u32::from_be_bytes(*b))
}

fn be_u16_at(bytes: &[u8], pos: usize) -> Option<u16> {
    let b: &[u8; 2] = bytes.get(pos..pos + 2)?.try_into().ok()?;
    Some(u16::from_be_bytes(*b))
}

/// Serialize records into a pcap file image.
pub fn to_pcap<'a, I: IntoIterator<Item = &'a TapRecord>>(records: I) -> Vec<u8> {
    let mut out = Vec::new();
    // Global header.
    push_u32(&mut out, PCAP_MAGIC);
    push_u16(&mut out, 2); // major
    push_u16(&mut out, 4); // minor
    push_u32(&mut out, 0); // thiszone
    push_u32(&mut out, 0); // sigfigs
    push_u32(&mut out, 65_535); // snaplen
    push_u32(&mut out, LINKTYPE_RAW);

    for rec in records {
        let payload = rec.header_snippet.as_slice();
        let ip_len = 20 + 8 + payload.len();
        let orig_len = rec.wire_size.as_bytes() as u32;
        let ts_us = rec.at.as_nanos() / 1_000;
        // Record header.
        push_u32(&mut out, (ts_us / 1_000_000) as u32);
        push_u32(&mut out, (ts_us % 1_000_000) as u32);
        push_u32(&mut out, ip_len as u32); // incl_len (snaplen-truncated)
        push_u32(&mut out, orig_len.max(ip_len as u32));
        // IPv4 header (20 bytes, big-endian fields).
        let total_len = orig_len.max(28) as u16;
        out.push(0x45); // v4, IHL 5
        out.push(0); // DSCP
        out.extend_from_slice(&total_len.to_be_bytes());
        out.extend_from_slice(&[0, 0, 0, 0]); // id + flags/frag
        out.push(64); // TTL
        out.push(17); // UDP
        out.extend_from_slice(&[0, 0]); // checksum (0 = unset, as tcpdump -w does for offloaded)
        out.extend_from_slice(&rec.src.0.to_be_bytes());
        out.extend_from_slice(&rec.dst.0.to_be_bytes());
        // UDP header.
        out.extend_from_slice(&rec.ports.src.to_be_bytes());
        out.extend_from_slice(&rec.ports.dst.to_be_bytes());
        out.extend_from_slice(&(total_len - 20).to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum
        out.extend_from_slice(payload);
    }
    out
}

/// One packet parsed back from a pcap image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapPacket {
    /// Timestamp, microseconds.
    pub ts_us: u64,
    /// Source IPv4 (raw u32).
    pub src: u32,
    /// Destination IPv4 (raw u32).
    pub dst: u32,
    /// Source UDP port.
    pub src_port: u16,
    /// Destination UDP port.
    pub dst_port: u16,
    /// Original wire length.
    pub orig_len: u32,
    /// Captured payload (post-UDP bytes).
    pub payload: Vec<u8>,
}

/// Why a pcap image failed to parse. Every variant is a property of the
/// *input bytes* — hostile or truncated files report an error; they never
/// panic the parser.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PcapError {
    /// Fewer than the 24 global-header bytes.
    TooShort,
    /// Magic number is not little-endian microsecond libpcap.
    BadMagic(u32),
    /// Linktype is not RAW-IPv4 (the only one this reader handles).
    BadLinktype(u32),
    /// A record header promised more bytes than the file contains.
    TruncatedRecord {
        /// Byte offset of the offending record header.
        offset: usize,
        /// Bytes the record claimed to include.
        claimed: usize,
        /// Bytes actually remaining in the file.
        available: usize,
    },
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::TooShort => write!(f, "pcap shorter than its 24-byte global header"),
            PcapError::BadMagic(m) => write!(f, "unrecognized pcap magic {m:#010x}"),
            PcapError::BadLinktype(l) => write!(f, "unsupported linktype {l} (want RAW=101)"),
            PcapError::TruncatedRecord {
                offset,
                claimed,
                available,
            } => write!(
                f,
                "record at offset {offset} claims {claimed} bytes but only {available} remain"
            ),
        }
    }
}

impl std::error::Error for PcapError {}

/// Parse a pcap image produced by [`to_pcap`] (or any raw-IPv4/UDP pcap).
///
/// Malformed input — wrong magic, foreign linktype, records whose length
/// field runs past the end of the buffer — returns a [`PcapError`];
/// non-IPv4/UDP frames inside a well-formed file are skipped silently
/// (as a display filter would).
pub fn parse_pcap(bytes: &[u8]) -> Result<Vec<PcapPacket>, PcapError> {
    if bytes.len() < 24 {
        return Err(PcapError::TooShort);
    }
    let magic = le_u32_at(bytes, 0).ok_or(PcapError::TooShort)?;
    if magic != PCAP_MAGIC {
        return Err(PcapError::BadMagic(magic));
    }
    let linktype = le_u32_at(bytes, 20).ok_or(PcapError::TooShort)?;
    if linktype != LINKTYPE_RAW {
        return Err(PcapError::BadLinktype(linktype));
    }
    let mut pos = 24;
    let mut packets = Vec::new();
    while pos < bytes.len() {
        let truncated_header = PcapError::TruncatedRecord {
            offset: pos,
            claimed: 16,
            available: bytes.len() - pos,
        };
        let sec = le_u32_at(bytes, pos).ok_or(truncated_header)? as u64;
        let usec = le_u32_at(bytes, pos + 4).ok_or(truncated_header)? as u64;
        let incl = le_u32_at(bytes, pos + 8).ok_or(truncated_header)? as usize;
        let orig_len = le_u32_at(bytes, pos + 12).ok_or(truncated_header)?;
        let header_at = pos;
        pos += 16;
        let Some(frame) = bytes.get(pos..pos.saturating_add(incl)) else {
            return Err(PcapError::TruncatedRecord {
                offset: header_at,
                claimed: incl,
                available: bytes.len() - pos,
            });
        };
        pos += incl;
        if frame.len() < 28 || frame[0] >> 4 != 4 || frame[9] != 17 {
            continue; // not IPv4/UDP; skip
        }
        // The frame is ≥ 28 bytes here, so these reads cannot fail; the
        // `continue` keeps the "skip foreign frames" display-filter
        // semantics if that guard ever drifts.
        let (Some(src), Some(dst), Some(src_port), Some(dst_port)) = (
            be_u32_at(frame, 12),
            be_u32_at(frame, 16),
            be_u16_at(frame, 20),
            be_u16_at(frame, 22),
        ) else {
            continue;
        };
        packets.push(PcapPacket {
            ts_us: sec * 1_000_000 + usec,
            src,
            dst,
            src_port,
            dst_port,
            orig_len,
            payload: frame[28..].to_vec(),
        });
    }
    Ok(packets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_core::time::SimTime;
    use visionsim_core::units::ByteSize;
    use visionsim_geo::geodb::NetAddr;
    use visionsim_net::packet::PortPair;
    use visionsim_net::tap::{HeaderSnippet, TapDirection};

    fn rec(at_ms: u64, src: u32, dst: u32, size: u64) -> TapRecord {
        TapRecord {
            at: SimTime::from_millis(at_ms),
            src: NetAddr(src),
            dst: NetAddr(dst),
            ports: PortPair::new(5_000, 443),
            wire_size: ByteSize::from_bytes(size),
            header_snippet: HeaderSnippet::from_payload(&[0x40, 1, 2, 3, 4, 5, 6, 7]),
            direction: TapDirection::Transit,
        }
    }

    #[test]
    fn round_trips_through_pcap() {
        let records = [rec(100, 0x0d000001, 0x22000002, 900),
            rec(111, 0x22000002, 0x0d000001, 120)];
        let image = to_pcap(records.iter());
        let parsed = parse_pcap(&image).expect("own output parses");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].ts_us, 100_000);
        assert_eq!(parsed[0].src, 0x0d000001);
        assert_eq!(parsed[0].dst, 0x22000002);
        assert_eq!(parsed[0].src_port, 5_000);
        assert_eq!(parsed[0].dst_port, 443);
        assert_eq!(parsed[0].orig_len, 900);
        assert_eq!(parsed[0].payload, records[0].header_snippet.as_slice());
    }

    #[test]
    fn global_header_is_wireshark_compatible() {
        let image = to_pcap(std::iter::empty());
        assert_eq!(image.len(), 24);
        assert_eq!(u32::from_le_bytes(image[0..4].try_into().unwrap()), PCAP_MAGIC);
        assert_eq!(u16::from_le_bytes(image[4..6].try_into().unwrap()), 2);
        assert_eq!(u16::from_le_bytes(image[6..8].try_into().unwrap()), 4);
        assert_eq!(
            u32::from_le_bytes(image[20..24].try_into().unwrap()),
            LINKTYPE_RAW
        );
    }

    #[test]
    fn parse_rejects_wrong_magic_or_linktype() {
        let mut image = to_pcap(std::iter::empty());
        image[0] ^= 0xFF;
        assert!(matches!(parse_pcap(&image), Err(PcapError::BadMagic(_))));
        let mut image = to_pcap(std::iter::empty());
        image[20] = 1; // Ethernet
        assert_eq!(parse_pcap(&image), Err(PcapError::BadLinktype(1)));
        assert_eq!(parse_pcap(&[]), Err(PcapError::TooShort));
    }

    #[test]
    fn truncated_record_is_an_error_not_a_panic() {
        let image = to_pcap([rec(1, 1, 2, 100)].iter());
        let cut = &image[..image.len() - 3];
        assert!(matches!(
            parse_pcap(cut),
            Err(PcapError::TruncatedRecord { .. })
        ));
        // Cutting inside the record *header* is also reported, not a slice
        // panic.
        let cut = &image[..24 + 7];
        assert!(matches!(
            parse_pcap(cut),
            Err(PcapError::TruncatedRecord { .. })
        ));
    }

    #[test]
    fn hostile_length_field_is_an_error_not_a_panic() {
        let mut image = to_pcap([rec(1, 1, 2, 100)].iter());
        // Claim 4 GiB of included bytes.
        image[24 + 8..24 + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        match parse_pcap(&image) {
            Err(PcapError::TruncatedRecord { claimed, .. }) => {
                assert_eq!(claimed, u32::MAX as usize);
            }
            other => panic!("expected TruncatedRecord, got {other:?}"),
        }
    }

    #[test]
    fn timestamps_are_microsecond_accurate() {
        let r = TapRecord {
            at: SimTime::from_nanos(1_234_567_890),
            ..rec(0, 1, 2, 64)
        };
        let parsed = parse_pcap(&to_pcap([r].iter())).unwrap();
        assert_eq!(parsed[0].ts_us, 1_234_567);
    }
}
