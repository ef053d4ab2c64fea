//! Randomized property tests for the network: conservation, ordering, and
//! impairment invariants, driven by deterministic SimRng cases.

use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::core::time::{SimDuration, SimTime};
use visionsim::core::units::{ByteSize, DataRate};
use visionsim::geo::coords::GeoPoint;
use visionsim::net::link::LinkConfig;
use visionsim::net::netem::{Netem, TokenBucket};
use visionsim::net::network::Network;
use visionsim::net::packet::PortPair;

const CASES: u64 = 48;

fn case_rng(label: &str, i: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(0x4E7_04E7, label, i))
}

/// Packet conservation: everything sent is either delivered or
/// counted as dropped — never duplicated, never lost silently.
#[test]
fn conservation_under_loss() {
    for i in 0..CASES {
        let mut rng = case_rng("conservation", i);
        let loss = rng.uniform();
        let count = rng.uniform_u64(1, 199) as usize;
        let seed = rng.next_u64();
        let mut net = Network::new(seed);
        let a = net.add_node("a", "t", GeoPoint::new(37.77, -122.42));
        let b = net.add_node("b", "t", GeoPoint::new(40.71, -74.01));
        net.add_duplex(a, b, LinkConfig::core(SimDuration::from_millis(10)));
        net.netem_mut(visionsim::net::link::LinkId(0)).loss = loss;
        let mut sent = 0u64;
        for k in 0..count {
            if net
                .send(a, b, PortPair::new(1, 2), vec![k as u8; 64])
                .is_some()
            {
                sent += 1;
            }
        }
        net.run_until(SimTime::from_secs(5));
        let delivered = net.poll_delivered(b).len() as u64;
        assert_eq!(delivered + net.total_dropped(), count as u64);
        assert_eq!(delivered, sent);
    }
}

/// Per-flow FIFO: packets between one pair arrive in send order on a
/// fixed-delay path.
#[test]
fn fifo_per_path() {
    for i in 0..CASES {
        let mut rng = case_rng("fifo", i);
        let count = rng.uniform_u64(2, 99) as usize;
        let seed = rng.next_u64();
        let mut net = Network::new(seed);
        let a = net.add_node("a", "t", GeoPoint::new(37.77, -122.42));
        let b = net.add_node("b", "t", GeoPoint::new(40.71, -74.01));
        let mut cfg = LinkConfig::core(SimDuration::from_millis(5));
        cfg.rate = Some(DataRate::from_mbps(100));
        cfg.queue_limit = ByteSize::from_mb(64);
        net.add_link(a, b, cfg);
        for k in 0..count {
            net.send(a, b, PortPair::new(1, 2), (k as u32).to_be_bytes().to_vec());
        }
        net.run_until(SimTime::from_secs(10));
        let got: Vec<u32> = net
            .poll_delivered(b)
            .iter()
            .map(|d| u32::from_be_bytes(d.packet.payload[..4].try_into().unwrap()))
            .collect();
        assert_eq!(got, (0..count as u32).collect::<Vec<_>>());
    }
}

/// Token-bucket conservation: over a long run, delivered volume never
/// exceeds rate × time + burst.
#[test]
fn token_bucket_never_exceeds_budget() {
    for i in 0..CASES {
        let mut rng = case_rng("token_bucket", i);
        let rate_kbps = rng.uniform_u64(50, 4_999);
        let burst_kb = rng.uniform_u64(1, 63);
        let pkt_bytes = rng.uniform_u64(64, 1_499);
        let spacing_us = rng.uniform_u64(100, 19_999);
        let count = rng.uniform_u64(1, 499) as usize;
        let rate = DataRate::from_kbps(rate_kbps);
        let mut netem = Netem {
            shaper: Some(TokenBucket::new(rate, ByteSize::from_kb(burst_kb))),
            ..Netem::default()
        };
        let mut apply_rng = SimRng::seed_from_u64(1);
        let size = ByteSize::from_bytes(pkt_bytes);
        let mut delivered_bytes = 0u64;
        let mut t = SimTime::ZERO;
        let mut last_deliver_at = SimTime::ZERO;
        for _ in 0..count {
            if let Some(delay) = netem.apply(t, size, &mut apply_rng) {
                delivered_bytes += size.as_bytes();
                last_deliver_at = last_deliver_at.max(t + delay);
            }
            t += SimDuration::from_micros(spacing_us);
        }
        // Budget up to the last delivery instant.
        let horizon_s = last_deliver_at.as_secs_f64().max(1e-9);
        let budget = rate.as_bps() as f64 / 8.0 * horizon_s
            + ByteSize::from_kb(burst_kb).as_bytes() as f64
            + pkt_bytes as f64; // in-flight rounding
        assert!(
            delivered_bytes as f64 <= budget * 1.01,
            "delivered {delivered_bytes} budget {budget}"
        );
    }
}

/// Gilbert–Elliott long-run loss converges to the closed-form stationary
/// probability π_B·loss_bad + π_G·loss_good.
#[test]
fn gilbert_elliott_converges_to_stationary_loss() {
    use visionsim::net::fault::{GeConfig, GilbertElliott};
    for i in 0..CASES {
        let mut rng = case_rng("ge_stationary", i);
        let config = GeConfig {
            good_to_bad: 0.005 + rng.uniform() * 0.1,
            bad_to_good: 0.02 + rng.uniform() * 0.4,
            loss_good: rng.uniform() * 0.05,
            loss_bad: 0.3 + rng.uniform() * 0.7,
        };
        let expected = config.stationary_loss();
        let mut ge = GilbertElliott::new(config);
        let trials = 200_000u64;
        let drops = (0..trials).filter(|_| ge.sample_drop(&mut rng)).count();
        let observed = drops as f64 / trials as f64;
        assert!(
            (observed - expected).abs() < 0.02,
            "case {i}: observed {observed:.4} vs stationary {expected:.4}"
        );
    }
}

/// Shared payloads stay intact over lossy, jittered multi-hop paths:
/// every per-link byte-conservation identity holds with the sanitizer
/// watching, every packet is delivered or counted as dropped, and every
/// delivered copy still references the allocation the sender interned.
#[test]
fn shared_payloads_conserve_bytes_over_lossy_jittered_paths() {
    use std::sync::Arc;
    use visionsim::core::sanitizer;

    let _guard = visionsim::core::par::override_guard();
    sanitizer::force(Some(true));
    sanitizer::reset();
    for i in 0..CASES {
        let mut rng = case_rng("shared_lossy_jittered", i);
        let loss = rng.uniform() * 0.3;
        let jitter = SimDuration::from_micros(rng.uniform_u64(0, 20_000));
        let hops = rng.uniform_u64(1, 4) as usize;
        let count = rng.uniform_u64(10, 99) as usize;
        let seed = rng.next_u64();
        let mut net = Network::new(seed);
        let nodes: Vec<_> = (0..=hops)
            .map(|h| {
                net.add_node(
                    &format!("n{h}"),
                    "t",
                    GeoPoint::new(37.0, -122.0 + h as f64),
                )
            })
            .collect();
        for w in nodes.windows(2) {
            net.add_duplex(w[0], w[1], LinkConfig::core(SimDuration::from_millis(5)));
        }
        for lid in 0..2 * hops {
            let netem = net.netem_mut(visionsim::net::link::LinkId(lid));
            netem.loss = loss;
            netem.jitter = jitter;
        }
        let payload: Arc<[u8]> = (0..64).map(|b| (b ^ i) as u8).collect::<Vec<u8>>().into();
        for _ in 0..count {
            // `None` means the first hop dropped it; the drop is counted.
            net.send(nodes[0], nodes[hops], PortPair::new(1, 2), payload.clone());
        }
        net.run_until(SimTime::from_secs(5));
        let delivered = net.poll_delivered(nodes[hops]);
        assert_eq!(
            delivered.len() as u64 + net.total_dropped(),
            count as u64,
            "case {i}: a packet was neither delivered nor counted as dropped"
        );
        for d in &delivered {
            assert!(
                Arc::ptr_eq(&d.packet.payload, &payload),
                "case {i}: a delivered copy re-allocated the payload"
            );
            assert_eq!(&d.packet.payload[..], &payload[..]);
        }
        for lid in 0..2 * hops {
            let s = net.link_stats(visionsim::net::link::LinkId(lid));
            assert!(s.conserved(), "case {i} link {lid}: {s:?}");
            assert_eq!(s.in_flight, 0, "case {i} link {lid} never drained");
        }
        let violations = sanitizer::take();
        assert!(
            violations.is_empty(),
            "case {i}: sanitizer reported {violations:?}"
        );
    }
    sanitizer::force(None);
    sanitizer::reset();
}

/// FaultPlan replay is pure data: the due-event stream is identical no
/// matter how work is distributed across worker threads.
#[test]
fn fault_plan_replay_identical_across_threads() {
    use visionsim::core::par::{par_map, set_threads};
    use visionsim::net::fault::FaultPlan;

    fn replay_digest(idx: u64) -> String {
        let mut plan = FaultPlan::merged(vec![
            FaultPlan::flap(
                SimTime::from_millis(1_000 + idx * 100),
                SimDuration::from_secs(2),
            ),
            FaultPlan::rate_cliff(
                SimTime::from_secs(3),
                DataRate::from_kbps(200 + idx),
                SimDuration::from_secs(2),
            ),
            FaultPlan::delay_spike(
                SimTime::from_millis(4_500),
                SimDuration::from_millis(300),
                SimDuration::from_secs(1),
            ),
        ]);
        let mut out = String::new();
        let mut now = SimTime::ZERO;
        while now <= SimTime::from_secs(12) {
            for ev in plan.due(now) {
                out.push_str(&format!("{:?}@{:?};", ev.kind, ev.at));
            }
            now += SimDuration::from_millis(100);
        }
        out
    }

    let idxs: Vec<u64> = (0..16).collect();
    // `set_threads` is process-global; hold the shared override guard so
    // concurrent tests in this binary cannot race the thread count.
    let _guard = visionsim::core::par::override_guard();
    set_threads(Some(1));
    let seq: Vec<String> = par_map(idxs.clone(), replay_digest);
    set_threads(Some(4));
    let par: Vec<String> = par_map(idxs, replay_digest);
    set_threads(None);
    assert_eq!(seq, par, "fault replay diverged across thread counts");
    assert!(seq.iter().all(|s| s.contains("LinkDown")));
}

/// Fixed netem delay shifts arrival exactly; never reorders a
/// fixed-delay path.
#[test]
fn extra_delay_is_exact() {
    for i in 0..CASES {
        let mut rng = case_rng("extra_delay", i);
        let delay_ms = rng.uniform_u64(0, 999);
        let seed = rng.next_u64();
        let mut net = Network::new(seed);
        let a = net.add_node("a", "t", GeoPoint::new(37.77, -122.42));
        let b = net.add_node("b", "t", GeoPoint::new(40.71, -74.01));
        net.add_duplex(a, b, LinkConfig::core(SimDuration::from_millis(20)));
        net.netem_mut(visionsim::net::link::LinkId(0)).extra_delay =
            SimDuration::from_millis(delay_ms);
        net.send(a, b, PortPair::new(1, 2), vec![0u8; 32]);
        net.run_until(SimTime::from_secs(5));
        let got = net.poll_delivered(b);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].at, SimTime::from_millis(20 + delay_ms));
    }
}
