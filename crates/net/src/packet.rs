//! Packets on the simulated wire.
//!
//! A [`Packet`] carries an opaque application payload (produced by
//! `visionsim-transport` framing) between two endpoint addresses. The wire
//! size adds the IPv4+UDP encapsulation overhead the paper's Wireshark
//! captures would count.
//!
//! The payload is a shared immutable buffer (`Arc<[u8]>`): multi-hop
//! forwarding, retransmission, and SFU fan-out to N subscribers all
//! reference one allocation made when the frame was emitted. Per-packet
//! state (`seq`, `sent_at`) stays inline in the `Packet` value, so
//! forwarding never copies the payload.

use std::sync::Arc;
use visionsim_core::time::SimTime;
use visionsim_core::units::ByteSize;
use visionsim_geo::geodb::NetAddr;

/// IPv4 (20 B) + UDP (8 B) encapsulation overhead.
pub const IP_UDP_OVERHEAD_BYTES: u64 = 28;

/// A (source port, destination port) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortPair {
    /// Source UDP port.
    pub src: u16,
    /// Destination UDP port.
    pub dst: u16,
}

impl PortPair {
    /// Construct a pair.
    pub fn new(src: u16, dst: u16) -> Self {
        PortPair { src, dst }
    }

    /// The reverse direction.
    pub fn flipped(self) -> Self {
        PortPair {
            src: self.dst,
            dst: self.src,
        }
    }
}

/// A packet in flight.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Network-wide unique sequence number (assigned at send).
    pub seq: u64,
    /// Source endpoint address.
    pub src: NetAddr,
    /// Destination endpoint address.
    pub dst: NetAddr,
    /// UDP ports.
    pub ports: PortPair,
    /// Application payload bytes (transport framing included), shared
    /// across every in-flight copy of the frame. Cloning a `Packet` bumps
    /// a refcount; it never copies payload bytes.
    pub payload: Arc<[u8]>,
    /// When the packet entered the network.
    pub sent_at: SimTime,
}

impl Packet {
    /// Total on-the-wire size: payload plus IP+UDP encapsulation.
    pub fn wire_size(&self) -> ByteSize {
        ByteSize::from_bytes(self.payload.len() as u64 + IP_UDP_OVERHEAD_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(payload_len: usize) -> Packet {
        Packet {
            seq: 0,
            src: NetAddr(1),
            dst: NetAddr(2),
            ports: PortPair::new(5004, 5004),
            payload: vec![0u8; payload_len].into(),
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn wire_size_includes_encapsulation() {
        assert_eq!(packet(1000).wire_size(), ByteSize::from_bytes(1028));
        assert_eq!(packet(0).wire_size(), ByteSize::from_bytes(28));
    }

    #[test]
    fn clone_shares_the_payload_allocation() {
        let p = packet(512);
        let q = p.clone();
        assert!(Arc::ptr_eq(&p.payload, &q.payload));
    }

    #[test]
    fn port_pair_flip_is_involutive() {
        let p = PortPair::new(1234, 443);
        assert_eq!(p.flipped().flipped(), p);
        assert_eq!(p.flipped(), PortPair::new(443, 1234));
    }
}
