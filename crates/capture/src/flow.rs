//! Flow table.
//!
//! A *flow* is the unidirectional 4-tuple (src addr, dst addr, src port,
//! dst port). The table accumulates per-flow packet/byte counts, retains
//! header snippets for protocol classification, and buckets bytes into a
//! per-second [`RateSeries`] — the same reduction Wireshark's conversation
//! statistics perform.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use visionsim_core::metrics::{self, Class};
use visionsim_core::series::RateSeries;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::{ByteSize, DataRate};
use visionsim_geo::geodb::NetAddr;
use visionsim_net::packet::PortPair;
use visionsim_net::tap::{HeaderSnippet, TapRecord};
use visionsim_transport::classify::{classify_flow, WireProtocol};

/// Cached handles into the metrics registry: distinct-flow count plus a
/// tally per classification verdict. All [`Class::Sim`] — classification
/// is a pure function of captured bytes.
struct CaptureMetrics {
    flows: metrics::Counter,
    classified_rtp: metrics::Counter,
    classified_rtcp: metrics::Counter,
    classified_quic: metrics::Counter,
    classified_unknown: metrics::Counter,
}

fn capture_metrics() -> &'static CaptureMetrics {
    static M: OnceLock<CaptureMetrics> = OnceLock::new();
    M.get_or_init(|| CaptureMetrics {
        flows: metrics::counter("capture/flows", Class::Sim),
        classified_rtp: metrics::counter("capture/classified_rtp", Class::Sim),
        classified_rtcp: metrics::counter("capture/classified_rtcp", Class::Sim),
        classified_quic: metrics::counter("capture/classified_quic", Class::Sim),
        classified_unknown: metrics::counter("capture/classified_unknown", Class::Sim),
    })
}

/// Unidirectional flow key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    /// Source address.
    pub src: NetAddr,
    /// Destination address.
    pub dst: NetAddr,
    /// Ports.
    pub ports: PortPair,
}

/// Accumulated statistics for one flow.
#[derive(Debug)]
pub struct FlowStats {
    /// Packets seen.
    pub packets: u64,
    /// Total wire bytes.
    pub bytes: ByteSize,
    /// First packet time.
    pub first_seen: SimTime,
    /// Last packet time.
    pub last_seen: SimTime,
    /// Per-second throughput.
    pub rate: RateSeries,
    /// Retained header snippets (capped — classification needs a sample,
    /// not the universe). Inline `Copy` values: retention is a plain push,
    /// never a per-packet allocation.
    snippets: Vec<HeaderSnippet>,
}

/// How many snippets a flow retains for classification.
const SNIPPET_CAP: usize = 64;

impl FlowStats {
    fn new(at: SimTime) -> Self {
        FlowStats {
            packets: 0,
            bytes: ByteSize::ZERO,
            first_seen: at,
            last_seen: at,
            rate: RateSeries::per_second(),
            snippets: Vec::new(),
        }
    }

    /// Mean throughput over the flow's lifetime.
    pub fn mean_rate(&self) -> DataRate {
        self.rate.mean_rate()
    }

    /// Flow duration.
    pub fn duration(&self) -> SimDuration {
        self.last_seen.since(self.first_seen)
    }

    /// Majority-vote protocol verdict over retained snippets.
    pub fn protocol(&self) -> WireProtocol {
        let verdict = classify_flow(self.snippets.iter().map(|s| s.as_slice())).0;
        let m = capture_metrics();
        match verdict {
            WireProtocol::Rtp(_) => m.classified_rtp.inc(),
            WireProtocol::Rtcp => m.classified_rtcp.inc(),
            WireProtocol::Quic => m.classified_quic.inc(),
            WireProtocol::Unknown => m.classified_unknown.inc(),
        }
        verdict
    }
}

/// The flow table.
#[derive(Debug, Default)]
pub struct FlowTable {
    flows: BTreeMap<FlowKey, FlowStats>,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Ingest one tap record.
    pub fn ingest(&mut self, rec: &TapRecord) {
        let key = FlowKey {
            src: rec.src,
            dst: rec.dst,
            ports: rec.ports,
        };
        let stats = self.flows.entry(key).or_insert_with(|| {
            capture_metrics().flows.inc();
            FlowStats::new(rec.at)
        });
        stats.packets += 1;
        stats.bytes += rec.wire_size;
        stats.last_seen = rec.at;
        stats.rate.record(rec.at, rec.wire_size);
        if stats.snippets.len() < SNIPPET_CAP {
            stats.snippets.push(rec.header_snippet);
        }
    }

    /// Ingest a batch.
    pub fn ingest_all<'a, I: IntoIterator<Item = &'a TapRecord>>(&mut self, records: I) {
        for r in records {
            self.ingest(r);
        }
    }

    /// All flows.
    pub fn flows(&self) -> impl Iterator<Item = (&FlowKey, &FlowStats)> {
        self.flows.iter()
    }

    /// Number of distinct flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no packets have been ingested.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Flows with `addr` as the source (its uplink).
    pub fn uplink_of(&self, addr: NetAddr) -> Vec<(&FlowKey, &FlowStats)> {
        self.flows.iter().filter(|(k, _)| k.src == addr).collect()
    }

    /// Flows with `addr` as the destination (its downlink).
    pub fn downlink_of(&self, addr: NetAddr) -> Vec<(&FlowKey, &FlowStats)> {
        self.flows.iter().filter(|(k, _)| k.dst == addr).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_net::tap::TapDirection;

    fn record(src: u32, dst: u32, at_ms: u64, size: u64, snippet: &[u8]) -> TapRecord {
        TapRecord {
            at: SimTime::from_millis(at_ms),
            src: NetAddr(src),
            dst: NetAddr(dst),
            ports: PortPair::new(5004, 5004),
            wire_size: ByteSize::from_bytes(size),
            header_snippet: HeaderSnippet::from_payload(snippet),
            direction: TapDirection::Transit,
        }
    }

    #[test]
    fn flows_aggregate_by_tuple() {
        let mut t = FlowTable::new();
        t.ingest(&record(1, 2, 0, 100, &[]));
        t.ingest(&record(1, 2, 10, 200, &[]));
        t.ingest(&record(2, 1, 20, 50, &[]));
        assert_eq!(t.len(), 2);
        let up = t.uplink_of(NetAddr(1));
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].1.packets, 2);
        assert_eq!(up[0].1.bytes, ByteSize::from_bytes(300));
    }

    #[test]
    fn throughput_reduction_matches_hand_math() {
        let mut t = FlowTable::new();
        // 125 KB per 100 ms for 4 s = 10 Mbps.
        for i in 0..40 {
            t.ingest(&record(1, 2, i * 100, 125_000, &[]));
        }
        let (_, stats) = t.flows().next().unwrap();
        let rate = stats.mean_rate().as_mbps_f64();
        assert!((rate - 10.0).abs() < 0.5, "rate {rate}");
        assert_eq!(stats.duration(), SimDuration::from_millis(3_900));
    }

    #[test]
    fn protocol_verdict_from_snippets() {
        use visionsim_transport::rtp::{PayloadType, RtpStream};
        let mut s = RtpStream::video(PayloadType::H264Video, 9);
        let mut t = FlowTable::new();
        for i in 0..10 {
            let wire = s.packetize(i as f64 / 90.0, vec![0; 100], true).to_bytes();
            t.ingest(&record(1, 2, i, 128, &wire[..16]));
        }
        let (_, stats) = t.flows().next().unwrap();
        assert_eq!(stats.protocol(), WireProtocol::Rtp(PayloadType::H264Video));
    }

    #[test]
    fn snippet_retention_is_capped() {
        let mut t = FlowTable::new();
        for i in 0..1_000 {
            t.ingest(&record(1, 2, i, 100, &[0x80, 96]));
        }
        let (_, stats) = t.flows().next().unwrap();
        assert!(stats.snippets.len() <= SNIPPET_CAP);
        assert_eq!(stats.packets, 1_000);
    }

    #[test]
    fn empty_table_is_empty() {
        let t = FlowTable::new();
        assert!(t.is_empty());
        assert_eq!(t.uplink_of(NetAddr(1)).len(), 0);
    }
}
