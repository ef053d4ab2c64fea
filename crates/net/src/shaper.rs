//! Per-link token-bucket shaping with a finite FIFO queue.
//!
//! The legacy serializer ([`crate::link::LinkState::serialize`] with a
//! `rate`) approximates its backlog from the busy horizon and drops
//! against a byte limit only. This module is the `tc tbf` analogue the
//! closed-loop congestion work needs: a token bucket whose deficit *is*
//! the queue, bounded in **packets or bytes** (default ~2× the
//! bandwidth-delay product), whose overflow produces real, traced,
//! metric-counted drops and whose occupancy produces real queuing delay
//! the receiver can observe.
//!
//! # Determinism
//!
//! Admission draws no randomness: the verdict is a pure function of the
//! admission sequence `(now, size)` and the configured rate. The network
//! admits packets through [`crate::link::LinkState::serialize`] one at a
//! time in per-packet order, so a shaped link replays bit-identically at
//! any thread count — the root `batch_equiv` test pins this with shapers
//! enabled against a reference model.

use std::collections::VecDeque;
use std::sync::OnceLock;
use visionsim_core::metrics::{self, Class};
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::{ByteSize, DataRate};

/// Cached handles for the shaper's registry entries. Both are
/// [`Class::Sim`]: pure functions of the seeded admission sequence,
/// updated via commutative atomic ops.
struct ShaperMetrics {
    /// Bytes dropped by finite-queue overflow, mirroring the per-link
    /// `queue_dropped_bytes` stat (the sanitizer's conservation identity
    /// counts these on the offered side).
    queue_dropped_bytes: metrics::Counter,
    /// Log2 histogram of per-packet queuing delay, microseconds.
    queue_delay_us: metrics::Histogram,
}

fn shaper_metrics() -> &'static ShaperMetrics {
    static M: OnceLock<ShaperMetrics> = OnceLock::new();
    M.get_or_init(|| ShaperMetrics {
        queue_dropped_bytes: metrics::counter("net/queue_dropped_bytes", Class::Sim),
        queue_delay_us: metrics::histogram("net/queue_delay_us", Class::Sim),
    })
}

/// Record a queue-overflow drop into the process-wide mirror counter.
/// Called from the link layer (which owns the per-link stat).
pub(crate) fn count_queue_drop(bytes: u64) {
    if metrics::enabled() {
        shaper_metrics().queue_dropped_bytes.add(bytes);
    }
}

/// Observe one packet's queuing delay (admission → dequeue) in µs.
fn observe_queue_delay(delay: SimDuration) {
    if metrics::enabled() {
        shaper_metrics().queue_delay_us.observe(delay.as_micros_f64() as u64);
    }
}

/// How the shaper's FIFO queue is bounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueLimit {
    /// At most this many packets queued (serialized-but-not-departed).
    Packets(u32),
    /// At most this many bytes queued.
    Bytes(ByteSize),
    /// ~2× the bandwidth-delay product of the link, floored at one
    /// typical congestion-window's worth so slow links still hold a few
    /// MTUs (see [`ShaperConfig::queue_bytes`]).
    Auto,
}

/// Configuration of one link shaper.
#[derive(Clone, Copy, Debug)]
pub struct ShaperConfig {
    /// Sustained token rate.
    pub rate: DataRate,
    /// Bucket depth: bytes that may pass at line rate before queuing
    /// starts.
    pub burst: ByteSize,
    /// Finite FIFO bound.
    pub queue: QueueLimit,
}

impl ShaperConfig {
    /// A shaper at `rate` with a 16 KB burst and the auto (2× BDP) queue.
    pub fn new(rate: DataRate) -> Self {
        ShaperConfig {
            rate,
            burst: ByteSize::from_kb(16),
            queue: QueueLimit::Auto,
        }
    }

    /// Same, with an explicit queue bound.
    pub fn with_queue(rate: DataRate, queue: QueueLimit) -> Self {
        ShaperConfig {
            rate,
            burst: ByteSize::from_kb(16),
            queue,
        }
    }

    /// Resolve the queue bound to bytes for a link with one-way
    /// propagation `delay`. `Auto` is 2× BDP computed against an RTT
    /// floor of 25 ms each way — access links have sub-millisecond
    /// propagation but real AP queues still buffer tens of milliseconds —
    /// and never below 16 KB.
    pub fn queue_bytes(&self, delay: SimDuration) -> u64 {
        match self.queue {
            QueueLimit::Bytes(b) => b.as_bytes(),
            // Packet bounds are enforced by count; give the byte bound
            // headroom so only the packet limit binds.
            QueueLimit::Packets(_) => u64::MAX,
            QueueLimit::Auto => {
                let horizon = delay.max(SimDuration::from_millis(25));
                let bdp = self.rate.bytes_in(horizon).as_bytes();
                (2 * bdp).max(16 * 1024)
            }
        }
    }

    /// The packet bound, if the queue is packet-limited.
    pub fn queue_packets(&self) -> Option<u32> {
        match self.queue {
            QueueLimit::Packets(n) => Some(n),
            _ => None,
        }
    }
}

/// What the shaper decided for one packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShaperVerdict {
    /// Departs the shaper at `dequeue` (== admission time when the bucket
    /// had tokens; later when the packet sat in the queue).
    Deliver {
        /// When the packet leaves the shaper queue.
        dequeue: SimTime,
    },
    /// Finite queue overflow: the packet is dropped at admission.
    Drop,
}

/// Runtime state of one link's shaper.
///
/// The token deficit is the queue: `tokens < 0` means `-tokens` bytes are
/// serialized into the future. The FIFO side table tracks per-packet
/// dequeue instants so the packet bound and occupancy queries are exact.
#[derive(Clone, Debug)]
pub struct LinkShaper {
    rate: DataRate,
    burst: ByteSize,
    /// Resolved byte bound on queued (admitted-but-not-departed) data.
    limit_bytes: u64,
    /// Optional packet bound.
    limit_packets: Option<u32>,
    /// Token level in bytes at `updated`; negative = queued bytes.
    tokens: f64,
    updated: SimTime,
    /// (dequeue instant ns, wire bytes) of packets still in the queue,
    /// oldest first. Pruned lazily at each admission.
    queue: VecDeque<(u64, u32)>,
    /// Sum of queued bytes (mirror of the `queue` entries).
    queued_bytes: u64,
    /// Lifetime totals for conservation checks: bytes admitted (forwarded
    /// or queued) and bytes dropped at the queue.
    pub admitted_bytes: u64,
    /// Bytes dropped by queue overflow.
    pub dropped_bytes: u64,
}

impl LinkShaper {
    /// Instantiate the runtime state for `cfg` on a link with propagation
    /// `delay` (used to resolve the auto queue bound).
    pub fn new(cfg: &ShaperConfig, delay: SimDuration) -> Self {
        assert!(cfg.rate > DataRate::ZERO, "shaper needs a positive rate");
        LinkShaper {
            rate: cfg.rate,
            burst: cfg.burst,
            limit_bytes: cfg.queue_bytes(delay),
            limit_packets: cfg.queue_packets(),
            tokens: cfg.burst.as_bytes() as f64,
            updated: SimTime::ZERO,
            queue: VecDeque::new(),
            queued_bytes: 0,
            admitted_bytes: 0,
            dropped_bytes: 0,
        }
    }

    /// The sustained rate.
    pub fn rate(&self) -> DataRate {
        self.rate
    }

    /// Change the sustained rate in place (duty-cycled capacity, handover
    /// cliffs). Accrued tokens and queued packets keep their schedule;
    /// only future admissions see the new rate.
    pub fn set_rate(&mut self, rate: DataRate) {
        assert!(rate > DataRate::ZERO, "shaper needs a positive rate");
        self.rate = rate;
    }

    /// The resolved byte bound.
    pub fn limit_bytes(&self) -> u64 {
        self.limit_bytes
    }

    /// Drop every queue entry that departed at or before `now`.
    fn prune(&mut self, now: SimTime) {
        let now_ns = now.as_nanos();
        while let Some(&(deq, bytes)) = self.queue.front() {
            if deq > now_ns {
                break;
            }
            self.queued_bytes -= bytes as u64;
            self.queue.pop_front();
        }
    }

    /// Packets queued (admitted, not yet departed) at `now`.
    pub fn queued_packets(&mut self, now: SimTime) -> usize {
        self.prune(now);
        self.queue.len()
    }

    /// Bytes queued at `now`.
    pub fn queued_bytes(&mut self, now: SimTime) -> u64 {
        self.prune(now);
        self.queued_bytes
    }

    /// Admit one packet at `now`. Deterministic: no RNG, and the verdict
    /// depends only on the admission sequence so far.
    pub fn admit(&mut self, now: SimTime, size: ByteSize) -> ShaperVerdict {
        self.prune(now);
        // Refill.
        let dt = now.since(self.updated).as_secs_f64();
        let rate_bytes = self.rate.as_bps() as f64 / 8.0;
        self.tokens = (self.tokens + dt * rate_bytes).min(self.burst.as_bytes() as f64);
        self.updated = now;

        let need = size.as_bytes();
        // Covered by tokens: forwards at line rate, never occupies the
        // queue, so the queue bound does not apply (tbf semantics).
        if self.tokens >= need as f64 {
            self.tokens -= need as f64;
            self.admitted_bytes += need;
            observe_queue_delay(SimDuration::ZERO);
            return ShaperVerdict::Deliver { dequeue: now };
        }
        // Would queue — drop-tail on either bound. The byte bound counts
        // this packet; the packet bound counts occupancy before it (the
        // packet itself would occupy the slot the bound is protecting).
        let over_bytes = self.queued_bytes + need > self.limit_bytes;
        let over_packets = self
            .limit_packets
            .is_some_and(|n| self.queue.len() >= n as usize);
        if over_bytes || over_packets {
            self.dropped_bytes += need;
            return ShaperVerdict::Drop;
        }
        self.tokens -= need as f64;
        self.admitted_bytes += need;
        let wait = SimDuration::from_secs_f64(-self.tokens / rate_bytes);
        let dequeue = now + wait;
        self.queue.push_back((dequeue.as_nanos(), need as u32));
        self.queued_bytes += need;
        observe_queue_delay(wait);
        ShaperVerdict::Deliver { dequeue }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shaper(rate_kbps: u64, queue: QueueLimit) -> LinkShaper {
        LinkShaper::new(
            &ShaperConfig::with_queue(DataRate::from_kbps(rate_kbps), queue),
            SimDuration::from_millis(2),
        )
    }

    #[test]
    fn burst_passes_at_line_rate_then_queues() {
        // 8 kbps = 1000 bytes/s; 16 KB burst.
        let mut s = shaper(8, QueueLimit::Bytes(ByteSize::from_kb(64)));
        // The whole burst forwards with zero queuing delay.
        match s.admit(SimTime::ZERO, ByteSize::from_kb(16)) {
            ShaperVerdict::Deliver { dequeue } => assert_eq!(dequeue, SimTime::ZERO),
            v => panic!("burst dropped: {v:?}"),
        }
        // The next packet waits for tokens: 1 KB at 1000 B/s = 1 s.
        match s.admit(SimTime::ZERO, ByteSize::from_kb(1)) {
            ShaperVerdict::Deliver { dequeue } => {
                assert_eq!(dequeue, SimTime::from_secs(1));
            }
            v => panic!("queued packet dropped: {v:?}"),
        }
        assert_eq!(s.queued_packets(SimTime::ZERO), 1);
        assert_eq!(s.queued_bytes(SimTime::ZERO), 1000);
        // After the dequeue instant the queue is empty again.
        assert_eq!(s.queued_packets(SimTime::from_secs(2)), 0);
    }

    #[test]
    fn byte_bound_drop_tails() {
        let mut s = shaper(8, QueueLimit::Bytes(ByteSize::from_kb(2)));
        // Exhaust the burst.
        assert!(matches!(
            s.admit(SimTime::ZERO, ByteSize::from_kb(16)),
            ShaperVerdict::Deliver { .. }
        ));
        // Two 1 KB packets fill the 2 KB queue; the third drops.
        for _ in 0..2 {
            assert!(matches!(
                s.admit(SimTime::ZERO, ByteSize::from_kb(1)),
                ShaperVerdict::Deliver { .. }
            ));
        }
        assert_eq!(
            s.admit(SimTime::ZERO, ByteSize::from_kb(1)),
            ShaperVerdict::Drop
        );
        assert_eq!(s.dropped_bytes, 1000);
        // Conservation: everything admitted is forwarded, queued, or was
        // dropped before counting.
        assert_eq!(s.admitted_bytes, 16_000 + 2_000);
    }

    #[test]
    fn packet_bound_drop_tails() {
        let mut s = shaper(8, QueueLimit::Packets(3));
        assert!(matches!(
            s.admit(SimTime::ZERO, ByteSize::from_kb(16)),
            ShaperVerdict::Deliver { .. }
        ));
        for _ in 0..3 {
            assert!(matches!(
                s.admit(SimTime::ZERO, ByteSize::from_kb(1)),
                ShaperVerdict::Deliver { .. }
            ));
        }
        assert_eq!(
            s.admit(SimTime::ZERO, ByteSize::from_kb(1)),
            ShaperVerdict::Drop
        );
        // Once the head departs, a slot frees up.
        let later = SimTime::from_secs(2);
        assert!(matches!(
            s.admit(later, ByteSize::from_bytes(100)),
            ShaperVerdict::Deliver { .. }
        ));
    }

    #[test]
    fn auto_queue_is_twice_bdp_with_floor() {
        // 4 Mbps over a 2 ms link: BDP uses the 25 ms floor →
        // 4e6/8 * 0.025 = 12.5 KB, doubled = 25 KB.
        let cfg = ShaperConfig::new(DataRate::from_mbps(4));
        assert_eq!(cfg.queue_bytes(SimDuration::from_millis(2)), 25_000);
        // A slow link floors at 16 KB.
        let slow = ShaperConfig::new(DataRate::from_kbps(100));
        assert_eq!(slow.queue_bytes(SimDuration::from_millis(2)), 16 * 1024);
        // A long fat link uses its real delay.
        let fat = ShaperConfig::new(DataRate::from_mbps(100));
        assert_eq!(
            fat.queue_bytes(SimDuration::from_millis(40)),
            2 * 100_000_000 / 8 * 40 / 1000
        );
    }

    #[test]
    fn fifo_delay_is_cumulative_and_drains() {
        // 80 kbps = 10 KB/s, tiny burst so queuing starts immediately.
        let mut s = LinkShaper::new(
            &ShaperConfig {
                rate: DataRate::from_kbps(80),
                burst: ByteSize::from_bytes(1_000),
                queue: QueueLimit::Bytes(ByteSize::from_kb(64)),
            },
            SimDuration::from_millis(2),
        );
        let mut last = SimTime::ZERO;
        for _ in 0..5 {
            match s.admit(SimTime::ZERO, ByteSize::from_bytes(1_000)) {
                ShaperVerdict::Deliver { dequeue } => {
                    assert!(dequeue >= last, "FIFO order violated");
                    last = dequeue;
                }
                v => panic!("unexpected {v:?}"),
            }
        }
        // 5 KB minus the 1 KB burst = 4 KB backlog at 10 KB/s: the last
        // packet departs at 400 ms.
        assert_eq!(last, SimTime::from_millis(400));
    }
}
