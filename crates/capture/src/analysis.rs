//! Measurement reductions over a capture.
//!
//! [`CaptureAnalysis`] answers the questions the paper asks of its AP-side
//! captures:
//!
//! * What is the subject device's uplink/downlink throughput? (Figure 4,
//!   Figure 6c — reported as boxplot summaries over per-second samples.)
//! * Which protocol does each flow speak? (§4.1 — RTP vs QUIC.)
//! * Who are the peers, and where are they? (server discovery +
//!   geolocation, Table 1's first step; also the P2P-vs-SFU distinction —
//!   a P2P session's peer is another client, an SFU session's peer is a
//!   provider server.)

use crate::flow::{FlowKey, FlowTable};
use std::collections::BTreeMap;
use visionsim_core::stats::{BoxplotSummary, Percentiles};
use visionsim_core::units::{ByteSize, DataRate};
use visionsim_geo::geodb::{GeoDb, NetAddr};
use visionsim_geo::regions::Region;
use visionsim_net::tap::TapRecord;
use visionsim_transport::classify::WireProtocol;

/// Analysis of one capture with respect to one subject device.
#[derive(Debug)]
pub struct CaptureAnalysis {
    table: FlowTable,
    subject: NetAddr,
}

/// A discovered peer endpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct PeerInfo {
    /// Peer address.
    pub addr: NetAddr,
    /// Bytes exchanged with the subject (both directions).
    pub bytes: ByteSize,
    /// Geolocated org, if registered.
    pub org: Option<String>,
    /// Geolocated city, if registered.
    pub city: Option<String>,
    /// Geolocated region, if known.
    pub region: Option<Region>,
}

impl CaptureAnalysis {
    /// Build from tap records, analyzing traffic of `subject`.
    pub fn new<'a, I: IntoIterator<Item = &'a TapRecord>>(records: I, subject: NetAddr) -> Self {
        let mut table = FlowTable::new();
        table.ingest_all(records);
        CaptureAnalysis { table, subject }
    }

    /// The underlying flow table.
    pub fn flows(&self) -> &FlowTable {
        &self.table
    }

    /// Mean uplink rate of the subject (sum across its outgoing flows).
    pub fn uplink_rate(&self) -> DataRate {
        self.table
            .uplink_of(self.subject)
            .iter()
            .map(|(_, s)| s.mean_rate())
            .sum()
    }

    /// Mean downlink rate of the subject.
    pub fn downlink_rate(&self) -> DataRate {
        self.table
            .downlink_of(self.subject)
            .iter()
            .map(|(_, s)| s.mean_rate())
            .sum()
    }

    /// Boxplot of per-second uplink throughput samples, Mbps (the Figure 4
    /// presentation).
    pub fn uplink_boxplot_mbps(&self) -> BoxplotSummary {
        Percentiles::from_samples(self.direction_samples(true)).boxplot()
    }

    /// Boxplot of per-second downlink throughput samples, Mbps.
    pub fn downlink_boxplot_mbps(&self) -> BoxplotSummary {
        Percentiles::from_samples(self.direction_samples(false)).boxplot()
    }

    /// Raw per-second uplink throughput samples, Mbps, ramp-up/teardown
    /// seconds trimmed. Runners that pool across repeats should pool these
    /// rather than the boxplot skeleton, so pooled percentiles come from
    /// the real sample distribution.
    pub fn uplink_per_second_mbps(&self) -> Vec<f64> {
        self.direction_samples(true)
    }

    /// Raw per-second downlink throughput samples, Mbps (trimmed).
    pub fn downlink_per_second_mbps(&self) -> Vec<f64> {
        self.direction_samples(false)
    }

    fn direction_samples(&self, uplink: bool) -> Vec<f64> {
        // Sum same-second samples across flows of the direction.
        let flows = if uplink {
            self.table.uplink_of(self.subject)
        } else {
            self.table.downlink_of(self.subject)
        };
        let mut per_second: BTreeMap<usize, f64> = BTreeMap::new();
        for (_, stats) in flows {
            for (i, r) in stats.rate.rates().iter().enumerate() {
                *per_second.entry(i).or_insert(0.0) += r.as_mbps_f64();
            }
        }
        // Trim ramp-up/teardown seconds as the paper's methodology does.
        let mut samples: Vec<f64> = per_second.into_values().collect();
        if samples.len() > 2 {
            samples = samples[1..samples.len() - 1].to_vec();
        }
        samples
    }

    /// Per-flow protocol verdicts for the subject's flows (both
    /// directions).
    pub fn protocols(&self) -> Vec<(FlowKey, WireProtocol)> {
        self.table
            .flows()
            .filter(|(k, _)| k.src == self.subject || k.dst == self.subject)
            .map(|(k, s)| (*k, s.protocol()))
            .collect()
    }

    /// The dominant protocol across the subject's media flows (weighted by
    /// bytes).
    pub fn dominant_protocol(&self) -> WireProtocol {
        let mut weights: BTreeMap<u8, (u64, WireProtocol)> = BTreeMap::new();
        for (k, s) in self.table.flows() {
            if k.src != self.subject && k.dst != self.subject {
                continue;
            }
            let proto = s.protocol();
            let tag = match proto {
                WireProtocol::Rtp(_) => 0,
                WireProtocol::Quic => 1,
                WireProtocol::Rtcp => 2,
                WireProtocol::Unknown => 3,
            };
            let e = weights.entry(tag).or_insert((0, proto));
            e.0 += s.bytes.as_bytes();
        }
        weights
            .into_values()
            .max_by_key(|(b, _)| *b)
            .map(|(_, p)| p)
            .unwrap_or(WireProtocol::Unknown)
    }

    /// Discover the subject's peers, geolocating them through `geodb` —
    /// the server-discovery step of §4.1.
    pub fn peers(&self, geodb: &GeoDb) -> Vec<PeerInfo> {
        let mut acc: BTreeMap<NetAddr, u64> = BTreeMap::new();
        for (k, s) in self.table.flows() {
            let peer = if k.src == self.subject {
                k.dst
            } else if k.dst == self.subject {
                k.src
            } else {
                continue;
            };
            *acc.entry(peer).or_insert(0) += s.bytes.as_bytes();
        }
        acc.into_iter()
            .map(|(addr, bytes)| {
                let rec = geodb.lookup(addr);
                PeerInfo {
                    addr,
                    bytes: ByteSize::from_bytes(bytes),
                    org: rec.map(|r| r.org.clone()),
                    city: rec.map(|r| r.city.clone()),
                    region: rec.map(|r| r.region),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_core::time::SimTime;
    use visionsim_net::packet::PortPair;
    use visionsim_net::tap::TapDirection;
    use visionsim_transport::rtp::{PayloadType, RtpStream};

    fn rtp_records(src: u32, dst: u32, n: usize, bytes_each: u64) -> Vec<TapRecord> {
        let mut s = RtpStream::video(PayloadType::H264Video, src);
        (0..n)
            .map(|i| {
                let wire = s.packetize(i as f64 / 90.0, vec![0; 64], true).to_bytes();
                TapRecord {
                    at: SimTime::from_millis(i as u64 * 100),
                    src: NetAddr(src),
                    dst: NetAddr(dst),
                    ports: PortPair::new(5004, 5004),
                    wire_size: ByteSize::from_bytes(bytes_each),
                    header_snippet: visionsim_net::tap::HeaderSnippet::from_payload(&wire[..16]),
                    direction: TapDirection::Transit,
                }
            })
            .collect()
    }

    #[test]
    fn uplink_downlink_separate() {
        let subject = NetAddr(1);
        let mut recs = rtp_records(1, 2, 40, 125_000); // 10 Mbps up
        recs.extend(rtp_records(2, 1, 40, 25_000)); // 2 Mbps down
        let a = CaptureAnalysis::new(recs.iter(), subject);
        assert!((a.uplink_rate().as_mbps_f64() - 10.0).abs() < 0.6);
        assert!((a.downlink_rate().as_mbps_f64() - 2.0).abs() < 0.2);
    }

    #[test]
    fn boxplot_of_steady_stream_is_tight() {
        let subject = NetAddr(1);
        let recs = rtp_records(1, 2, 100, 125_000);
        let a = CaptureAnalysis::new(recs.iter(), subject);
        let b = a.uplink_boxplot_mbps();
        assert!((b.median - 10.0).abs() < 0.5, "{b}");
        assert!(b.p95 - b.p5 < 1.0, "{b}");
    }

    #[test]
    fn protocol_identification_per_flow() {
        let subject = NetAddr(1);
        let recs = rtp_records(1, 2, 10, 1_000);
        let a = CaptureAnalysis::new(recs.iter(), subject);
        let protos = a.protocols();
        assert_eq!(protos.len(), 1);
        assert!(protos[0].1.is_rtp());
        assert!(a.dominant_protocol().is_rtp());
    }

    #[test]
    fn peer_discovery_with_geolocation() {
        let subject = NetAddr(0x0d00_0001);
        let mut db = GeoDb::new();
        let server = db.allocate(
            "Apple Inc.",
            "San Jose",
            visionsim_geo::coords::GeoPoint::new(37.33, -121.88),
        );
        let recs = rtp_records(0x0d00_0001, server.0, 10, 1_000);
        let a = CaptureAnalysis::new(recs.iter(), subject);
        let peers = a.peers(&db);
        assert_eq!(peers.len(), 1);
        assert_eq!(peers[0].org.as_deref(), Some("Apple Inc."));
        assert_eq!(peers[0].region, Some(Region::UsWest));
        assert_eq!(peers[0].bytes, ByteSize::from_bytes(10_000));
    }

    #[test]
    fn unrelated_flows_are_ignored() {
        let subject = NetAddr(99);
        let recs = rtp_records(1, 2, 10, 1_000);
        let a = CaptureAnalysis::new(recs.iter(), subject);
        assert_eq!(a.uplink_rate(), DataRate::ZERO);
        assert!(a.protocols().is_empty());
        assert!(a.peers(&GeoDb::new()).is_empty());
    }
}
