//! Packet taps — the Wireshark-at-the-AP analogue.
//!
//! The paper captures traffic at each user's WiFi AP. A tap registered on a
//! node records a [`TapRecord`] for every packet transiting (entering or
//! being forwarded by) that node, including the direction relative to the
//! node, so downstream analysis can separate uplink from downlink exactly
//! as the paper does.
//!
//! A record is a fixed-size `Copy` value: the retained payload prefix lives
//! in an inline [`HeaderSnippet`] (no heap allocation per observation), so
//! capturing at line rate costs only an amortized `Vec` push.

use crate::packet::{Packet, PortPair};
use visionsim_core::time::SimTime;
use visionsim_core::units::ByteSize;
use visionsim_geo::geodb::NetAddr;

/// Identifier of a registered tap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TapId(pub usize);

/// Direction of a packet relative to the tapped node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TapDirection {
    /// Leaving the tapped node (uplink from its perspective).
    Egress,
    /// Arriving at the tapped node (downlink).
    Ingress,
    /// Transiting (the node forwards it) — seen by AP taps for the client
    /// behind them.
    Transit,
}

/// How many payload bytes a tap retains for classification.
pub const SNIPPET_LEN: usize = 16;

/// The first bytes of a captured payload, stored inline (length-prefixed
/// `[u8; SNIPPET_LEN]`) so a tap observation performs no heap allocation.
/// Dereferences to the valid prefix as a `&[u8]`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct HeaderSnippet {
    len: u8,
    bytes: [u8; SNIPPET_LEN],
}

impl HeaderSnippet {
    /// Retain the first [`SNIPPET_LEN`] bytes of `payload` (fewer if the
    /// payload is shorter).
    pub fn from_payload(payload: &[u8]) -> Self {
        let len = payload.len().min(SNIPPET_LEN);
        let mut bytes = [0u8; SNIPPET_LEN];
        bytes[..len].copy_from_slice(&payload[..len]);
        HeaderSnippet {
            len: len as u8,
            bytes,
        }
    }

    /// The retained bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl std::ops::Deref for HeaderSnippet {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for HeaderSnippet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq<[u8]> for HeaderSnippet {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for HeaderSnippet {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// One captured packet observation. `Copy` and heap-free: draining or
/// replaying a capture moves plain values.
#[derive(Clone, Copy, Debug)]
pub struct TapRecord {
    /// Capture timestamp.
    pub at: SimTime,
    /// Source address.
    pub src: NetAddr,
    /// Destination address.
    pub dst: NetAddr,
    /// UDP ports.
    pub ports: PortPair,
    /// On-the-wire size.
    pub wire_size: ByteSize,
    /// First bytes of the payload (enough for protocol classification —
    /// real payloads are encrypted anyway).
    pub header_snippet: HeaderSnippet,
    /// Direction relative to the tapped node.
    pub direction: TapDirection,
}

impl TapRecord {
    /// Build a record from a packet observed at `at`.
    pub fn capture(at: SimTime, packet: &Packet, direction: TapDirection) -> Self {
        TapRecord {
            at,
            src: packet.src,
            dst: packet.dst,
            ports: packet.ports,
            wire_size: packet.wire_size(),
            header_snippet: HeaderSnippet::from_payload(&packet.payload),
            direction,
        }
    }
}

/// Storage for one tap.
#[derive(Clone, Debug, Default)]
pub struct Tap {
    /// Which node the tap observes.
    pub node: usize,
    /// Captured records, in capture order.
    pub records: Vec<TapRecord>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_retains_header_snippet_only() {
        let p = Packet {
            seq: 1,
            src: NetAddr(10),
            dst: NetAddr(20),
            ports: PortPair::new(1000, 2000),
            payload: (0u8..64).collect::<Vec<u8>>().into(),
            sent_at: SimTime::ZERO,
        };
        let r = TapRecord::capture(SimTime::from_millis(3), &p, TapDirection::Egress);
        assert_eq!(r.header_snippet.len(), SNIPPET_LEN);
        assert_eq!(r.header_snippet[0], 0);
        assert_eq!(r.wire_size, ByteSize::from_bytes(64 + 28));
        assert_eq!(r.direction, TapDirection::Egress);
    }

    #[test]
    fn short_payloads_truncate_snippet() {
        let p = Packet {
            seq: 1,
            src: NetAddr(10),
            dst: NetAddr(20),
            ports: PortPair::new(1, 2),
            payload: vec![7, 8, 9].into(),
            sent_at: SimTime::ZERO,
        };
        let r = TapRecord::capture(SimTime::ZERO, &p, TapDirection::Ingress);
        assert_eq!(r.header_snippet, vec![7, 8, 9]);
    }

    #[test]
    fn records_are_fixed_size_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<TapRecord>();
        // The snippet is inline: a record owns no heap storage.
        let s = HeaderSnippet::from_payload(&[1, 2, 3]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        assert_eq!(&*s, &[1, 2, 3][..]);
        assert_eq!(HeaderSnippet::default().as_slice(), &[] as &[u8]);
    }
}
