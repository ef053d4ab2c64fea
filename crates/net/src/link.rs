//! Simplex links.
//!
//! A link serializes packets at `rate` (FIFO, one at a time — the
//! `busy_until` discipline), queues at most `queue_limit` bytes of backlog
//! (drop-tail), then applies propagation `delay` and any configured
//! [`Netem`] impairments.

use crate::netem::Netem;
use crate::shaper::{self, LinkShaper, ShaperConfig, ShaperVerdict};
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::{ByteSize, DataRate};

/// Identifier of a simplex link within a [`crate::Network`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Static configuration of one simplex link.
#[derive(Clone, Debug)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Serialization rate. `None` models an un-bottlenecked core path
    /// (packets incur only `delay`).
    pub rate: Option<DataRate>,
    /// Drop-tail backlog limit in bytes of queued-but-unserialized data.
    pub queue_limit: ByteSize,
    /// Impairments (netem/tbf analogue).
    pub netem: Netem,
    /// Token-bucket shaper with a finite FIFO queue (`tc tbf` with a
    /// BDP-sized queue). Applied after the serializer; its drops are
    /// queue drops, visible to the receiver as loss.
    pub shaper: Option<ShaperConfig>,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            delay: SimDuration::from_millis(1),
            rate: None,
            queue_limit: ByteSize::from_kb(256),
            netem: Netem::none(),
            shaper: None,
        }
    }
}

impl LinkConfig {
    /// An access link: typical WiFi AP uplink/downlink (the paper's APs
    /// sustain >300 Mbps).
    pub fn wifi_access() -> Self {
        LinkConfig {
            delay: SimDuration::from_millis(2),
            rate: Some(DataRate::from_mbps(300)),
            queue_limit: ByteSize::from_kb(512),
            netem: Netem::none(),
            shaper: None,
        }
    }

    /// A wide-area core path with the given one-way delay and no
    /// serialization bottleneck.
    pub fn core(delay: SimDuration) -> Self {
        LinkConfig {
            delay,
            rate: None,
            queue_limit: ByteSize::from_mb(16),
            netem: Netem::none(),
            shaper: None,
        }
    }

    /// This config with a token-bucket shaper attached (auto 2×BDP
    /// queue).
    pub fn shaped(mut self, rate: DataRate) -> Self {
        self.shaper = Some(ShaperConfig::new(rate));
        self
    }
}

/// Runtime state of one simplex link.
#[derive(Clone, Debug)]
pub struct LinkState {
    /// Static configuration.
    pub config: LinkConfig,
    /// Head node (ingress).
    pub from: usize,
    /// Tail node (egress).
    pub to: usize,
    /// When the serializer frees up.
    pub busy_until: SimTime,
    /// Runtime state of the configured shaper, if any.
    pub shaper: Option<LinkShaper>,
    /// Counters.
    pub stats: LinkStats,
}

/// Per-link counters.
///
/// The sanitizer's `net/conservation` check relies on the identities that
/// hold at every instant:
///
/// ```text
/// offered       == sent  + queue_drops        + netem_drops
/// offered_bytes == bytes + queue_dropped_bytes + netem_dropped_bytes
/// sent          == exited       + in_flight
/// bytes         == exited_bytes + in_flight_bytes
/// ```
///
/// i.e. every packet presented for admission is accounted for (accepted
/// or dropped at a named site), and every accepted packet is either still
/// propagating or has popped out at the tail — bytes are conserved per
/// link even with finite shaper queues dropping under overload.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Packets presented for admission (accepted + dropped).
    pub offered: u64,
    /// Bytes presented for admission.
    pub offered_bytes: u64,
    /// Packets accepted onto the link.
    pub sent: u64,
    /// Packets dropped by the drop-tail queue.
    pub queue_drops: u64,
    /// Bytes dropped by the drop-tail queue (serializer or shaper).
    pub queue_dropped_bytes: u64,
    /// Packets dropped by impairments (loss or shaper overload).
    pub netem_drops: u64,
    /// Bytes dropped by impairments.
    pub netem_dropped_bytes: u64,
    /// Total payload+encapsulation bytes accepted.
    pub bytes: u64,
    /// Packets that finished traversing the link (reached its tail node).
    pub exited: u64,
    /// Bytes that finished traversing the link.
    pub exited_bytes: u64,
    /// Packets currently on the wire (accepted, not yet exited).
    pub in_flight: u64,
    /// Bytes currently on the wire.
    pub in_flight_bytes: u64,
}

impl LinkStats {
    /// True when the per-link conservation identities hold (see the type
    /// docs). Checked by the sanitizer at `net/conservation`.
    pub fn conserved(&self) -> bool {
        self.offered == self.sent + self.queue_drops + self.netem_drops
            && self.offered_bytes
                == self.bytes + self.queue_dropped_bytes + self.netem_dropped_bytes
            && self.sent == self.exited + self.in_flight
            && self.bytes == self.exited_bytes + self.in_flight_bytes
    }
}

impl LinkState {
    /// Create a fresh link.
    pub fn new(from: usize, to: usize, config: LinkConfig) -> Self {
        let shaper = config
            .shaper
            .as_ref()
            .map(|cfg| LinkShaper::new(cfg, config.delay));
        LinkState {
            config,
            from,
            to,
            busy_until: SimTime::ZERO,
            shaper,
            stats: LinkStats::default(),
        }
    }

    /// Attach, replace, or remove the shaper mid-run (rate cliffs rebuild
    /// state; prefer [`LinkShaper::set_rate`] via the network accessor to
    /// keep the queue).
    pub fn set_shaper(&mut self, cfg: Option<ShaperConfig>) {
        self.shaper = cfg.as_ref().map(|c| LinkShaper::new(c, self.config.delay));
        self.config.shaper = cfg;
    }

    /// True when the link neither serializes (no rate bottleneck, no
    /// shaper) nor impairs beyond a fixed delay: admission is a
    /// constant-offset schedule with no randomness and no queue, so the
    /// network schedules the exit directly instead of calling
    /// [`Self::serialize`] and [`crate::netem::Netem::apply`].
    #[inline]
    pub fn is_passthrough(&self) -> bool {
        self.config.rate.is_none() && self.shaper.is_none() && self.config.netem.is_transparent()
    }

    /// Compute when a packet of `size` accepted at `now` finishes
    /// serializing (and, when a shaper is attached, clears the shaper's
    /// finite FIFO queue), updating the busy horizon. Returns `None` when
    /// a drop-tail queue is full. Draws no randomness.
    #[inline]
    pub fn serialize(&mut self, now: SimTime, size: ByteSize) -> Option<SimTime> {
        let serialized = match self.config.rate {
            None => now,
            Some(rate) => {
                let start = self.busy_until.max(now);
                // Backlog approximated by the serialization horizon.
                let queued = rate.bytes_in(start.since(now));
                if queued > self.config.queue_limit {
                    self.stats.queue_drops += 1;
                    self.stats.queue_dropped_bytes += size.as_bytes();
                    shaper::count_queue_drop(size.as_bytes());
                    return None;
                }
                let tx = rate.transmit_time(size).expect("positive rate");
                self.busy_until = start + tx;
                self.busy_until
            }
        };
        match &mut self.shaper {
            None => Some(serialized),
            Some(sh) => match sh.admit(serialized, size) {
                ShaperVerdict::Deliver { dequeue } => Some(dequeue),
                ShaperVerdict::Drop => {
                    self.stats.queue_drops += 1;
                    self.stats.queue_dropped_bytes += size.as_bytes();
                    shaper::count_queue_drop(size.as_bytes());
                    None
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbottlenecked_link_serializes_instantly() {
        let mut l = LinkState::new(0, 1, LinkConfig::core(SimDuration::from_millis(10)));
        let t = SimTime::from_millis(5);
        assert_eq!(l.serialize(t, ByteSize::from_mb(1)), Some(t));
    }

    #[test]
    fn serialization_is_fifo_and_cumulative() {
        let cfg = LinkConfig {
            rate: Some(DataRate::from_mbps(8)), // 1 MB/s
            ..LinkConfig::default()
        };
        let mut l = LinkState::new(0, 1, cfg);
        // 1 KB takes 1 ms.
        let a = l.serialize(SimTime::ZERO, ByteSize::from_kb(1)).unwrap();
        assert_eq!(a, SimTime::from_millis(1));
        // Next packet queues behind the first.
        let b = l.serialize(SimTime::ZERO, ByteSize::from_kb(1)).unwrap();
        assert_eq!(b, SimTime::from_millis(2));
        // A later arrival after the queue drains starts fresh.
        let c = l
            .serialize(SimTime::from_millis(10), ByteSize::from_kb(1))
            .unwrap();
        assert_eq!(c, SimTime::from_millis(11));
    }

    #[test]
    fn drop_tail_engages_when_backlogged() {
        let cfg = LinkConfig {
            rate: Some(DataRate::from_kbps(8)), // 1 KB/s
            queue_limit: ByteSize::from_kb(2),
            ..LinkConfig::default()
        };
        let mut l = LinkState::new(0, 1, cfg);
        let mut dropped = 0;
        for _ in 0..10 {
            if l.serialize(SimTime::ZERO, ByteSize::from_kb(1)).is_none() {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "queue never filled");
        assert_eq!(l.stats.queue_drops, dropped);
    }

    #[test]
    fn wifi_access_profile_matches_paper_testbed() {
        let cfg = LinkConfig::wifi_access();
        assert!(cfg.rate.unwrap() >= DataRate::from_mbps(300));
    }
}
