//! pcap-style text dump of a capture.
//!
//! A human-readable trace (one line per packet) for the examples and for
//! debugging experiment wiring — the moral equivalent of
//! `tshark -r capture.pcap`.

use visionsim_net::tap::{TapDirection, TapRecord};
use visionsim_transport::classify::{classify, WireProtocol};

/// Render one record as a trace line.
pub fn format_record(rec: &TapRecord) -> String {
    let dir = match rec.direction {
        TapDirection::Egress => "→",
        TapDirection::Ingress => "←",
        TapDirection::Transit => "⇄",
    };
    let proto = match classify(&rec.header_snippet) {
        WireProtocol::Rtp(pt) => format!("RTP(pt={})", pt.code()),
        WireProtocol::Quic => "QUIC".to_string(),
        WireProtocol::Rtcp => "RTCP".to_string(),
        WireProtocol::Unknown => "?".to_string(),
    };
    format!(
        "{:>12.3}ms {dir} {}:{} > {}:{} {:>6}B {proto}",
        rec.at.as_millis_f64(),
        rec.src,
        rec.ports.src,
        rec.dst,
        rec.ports.dst,
        rec.wire_size.as_bytes(),
    )
}

/// Render a whole capture.
pub fn format_capture<'a, I: IntoIterator<Item = &'a TapRecord>>(records: I) -> String {
    records
        .into_iter()
        .map(format_record)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_core::time::SimTime;
    use visionsim_core::units::ByteSize;
    use visionsim_geo::geodb::NetAddr;
    use visionsim_net::packet::PortPair;

    fn rec() -> TapRecord {
        TapRecord {
            at: SimTime::from_millis(1_234),
            src: NetAddr(0x0d000001),
            dst: NetAddr(0x22000002),
            ports: PortPair::new(443, 5004),
            wire_size: ByteSize::from_bytes(1_028),
            header_snippet: visionsim_net::tap::HeaderSnippet::from_payload(&[0x80, 96, 0, 0]),
            direction: TapDirection::Egress,
        }
    }

    #[test]
    fn line_contains_the_essentials() {
        let line = format_record(&rec());
        assert!(line.contains("13.0.0.1:443"));
        assert!(line.contains("1028B"));
        assert!(line.contains("RTP(pt=96)"));
        assert!(line.contains("→"));
    }

    #[test]
    fn capture_is_one_line_per_packet() {
        let records = [rec(), rec(), rec()];
        let dump = format_capture(records.iter());
        assert_eq!(dump.lines().count(), 3);
    }
}
