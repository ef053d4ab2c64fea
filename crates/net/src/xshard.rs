//! Cross-shard link buffers for the fleet-scale conservative-PDES engine.
//!
//! The sharded simulator ([`visionsim_core::shard`]) exchanges site-to-site
//! messages at lookahead barriers. This module supplies the network-side
//! plumbing those exchanges ride on:
//!
//! * [`LinkMatrix`] — the dense one-way inter-site latency table built from
//!   `geo`'s propagation model. Its minimum positive entry *is* the
//!   engine's lookahead, so the matrix is the single source of truth for
//!   both message timing and synchronization safety.
//! * [`SiteEgress`] — the per-site send half: stamps each outgoing message
//!   with a monotone per-source sequence number and the matrix delivery
//!   time. The `(deliver_at, src_site, src_seq)` triple is what keeps
//!   ingress ordering deterministic at any shard count; the engine sorts
//!   each shard's inbox by it before delivery.

use visionsim_core::shard::Envelope;
use visionsim_core::time::{SimDuration, SimTime};

/// Dense one-way latency matrix over `n` sites, nanosecond entries.
#[derive(Clone, Debug)]
pub struct LinkMatrix {
    n: usize,
    one_way_ns: Vec<u64>,
}

impl LinkMatrix {
    /// Build from a latency function over site index pairs. The diagonal
    /// is forced to zero (a site never sends to itself over the backbone).
    pub fn from_fn(n: usize, mut one_way: impl FnMut(usize, usize) -> SimDuration) -> Self {
        assert!(n > 0, "latency matrix needs at least one site");
        let mut one_way_ns = vec![0u64; n * n];
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    one_way_ns[a * n + b] = one_way(a, b).as_nanos();
                }
            }
        }
        LinkMatrix { n, one_way_ns }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the matrix covers no site pairs.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// One-way latency from site `a` to site `b`.
    pub fn one_way(&self, a: usize, b: usize) -> SimDuration {
        SimDuration::from_nanos(self.one_way_ns[a * self.n + b])
    }

    /// Minimum off-diagonal latency — the engine's safe lookahead.
    /// Panics if any off-diagonal entry is zero (zero-latency links make
    /// conservative synchronization impossible).
    pub fn min_latency(&self) -> SimDuration {
        let mut min = u64::MAX;
        for a in 0..self.n {
            for b in 0..self.n {
                if a != b {
                    let ns = self.one_way_ns[a * self.n + b];
                    assert!(ns > 0, "zero-latency link {a} -> {b} breaks lookahead");
                    min = min.min(ns);
                }
            }
        }
        assert!(min != u64::MAX, "single-site matrix has no links");
        SimDuration::from_nanos(min)
    }
}

/// Per-site egress: stamps outgoing cross-site messages with delivery
/// times from the [`LinkMatrix`] and a monotone sequence number.
#[derive(Clone, Debug)]
pub struct SiteEgress {
    site: u32,
    seq: u64,
}

impl SiteEgress {
    /// Egress for site index `site`.
    pub fn new(site: u32) -> Self {
        SiteEgress { site, seq: 0 }
    }

    /// Messages sent so far.
    pub fn sent(&self) -> u64 {
        self.seq
    }

    /// Stamp and emit one message onto `out`. `dst` must differ from the
    /// owning site — intra-site signaling never crosses the backbone.
    pub fn send<M>(
        &mut self,
        now: SimTime,
        dst: u32,
        matrix: &LinkMatrix,
        msg: M,
        out: &mut Vec<Envelope<M>>,
    ) {
        assert_ne!(dst, self.site, "cross-site egress addressed to itself");
        self.seq += 1;
        out.push(Envelope {
            sent_at: now,
            deliver_at: now.saturating_add(matrix.one_way(self.site as usize, dst as usize)),
            src_site: self.site,
            dst_site: dst,
            src_seq: self.seq,
            msg,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix3() -> LinkMatrix {
        // Asymmetric on purpose: one_way(a, b) = (a + 1) * 10ms + b * 1ms.
        LinkMatrix::from_fn(3, |a, b| {
            SimDuration::from_millis((a as u64 + 1) * 10 + b as u64)
        })
    }

    #[test]
    fn matrix_lookup_and_min_latency() {
        let m = matrix3();
        assert_eq!(m.len(), 3);
        assert_eq!(m.one_way(0, 0), SimDuration::ZERO);
        assert_eq!(m.one_way(1, 2), SimDuration::from_millis(22));
        assert_eq!(m.one_way(2, 1), SimDuration::from_millis(31));
        // min over off-diagonal: one_way(0, 1) = 11 ms.
        assert_eq!(m.min_latency(), SimDuration::from_millis(11));
    }

    #[test]
    #[should_panic(expected = "zero-latency link")]
    fn zero_latency_links_are_rejected() {
        LinkMatrix::from_fn(2, |_, _| SimDuration::ZERO).min_latency();
    }

    #[test]
    fn egress_stamps_monotone_sequence_and_matrix_delay() {
        let m = matrix3();
        let mut egress = SiteEgress::new(1);
        let mut out = Vec::new();
        let now = SimTime::from_secs(5);
        egress.send(now, 0, &m, "a", &mut out);
        egress.send(now, 2, &m, "b", &mut out);
        assert_eq!(egress.sent(), 2);
        assert_eq!(out[0].src_seq, 1);
        assert_eq!(out[1].src_seq, 2);
        assert_eq!(
            out[0].deliver_at,
            now.saturating_add(SimDuration::from_millis(20))
        );
        assert_eq!(
            out[1].deliver_at,
            now.saturating_add(SimDuration::from_millis(22))
        );
        assert_eq!(out[0].sent_at, now);
    }

    #[test]
    #[should_panic(expected = "addressed to itself")]
    fn self_send_is_rejected() {
        let m = matrix3();
        let mut out = Vec::new();
        SiteEgress::new(2).send(SimTime::ZERO, 2, &m, (), &mut out);
    }
}
