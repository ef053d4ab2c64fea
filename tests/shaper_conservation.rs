//! Token-bucket byte conservation under chaos.
//!
//! Property: for every shaped link, at every observation point, the
//! shaper's lifetime ledger ties out exactly against the link counters:
//!
//! ```text
//! admitted + queue_dropped_bytes      == offered_bytes
//! admitted                            == bytes + netem_dropped_bytes
//! ```
//!
//! (every byte offered was admitted or dropped at a queue; every admitted
//! byte was accepted onto the wire or dropped by impairments), together
//! with the sanitizer's `LinkStats::conserved` identity — so bytes
//! admitted == bytes delivered + bytes dropped + bytes still in flight or
//! queued, at the end as at every step. Replayed across 16 chaos seeds;
//! `batch_equiv` separately pins the shaped totals themselves against its
//! scalar reference model.

use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::core::time::{SimDuration, SimTime};
use visionsim::core::units::{ByteSize, DataRate};
use visionsim::geo::coords::GeoPoint;
use visionsim::net::link::LinkConfig;
use visionsim::net::network::{Network, NodeId};
use visionsim::net::packet::PortPair;
use visionsim::net::shaper::{QueueLimit, ShaperConfig};
use visionsim::net::LinkId;

const SEEDS: u64 = 16;

fn check_links(net: &mut Network, now: SimTime, links: &[LinkId], seed: u64) {
    for &lid in links {
        let s = net.link_stats(lid);
        assert!(
            s.conserved(),
            "seed {seed}: link {lid:?} violates conservation: {s:?}"
        );
        let (admitted, dropped, queued, limit) = {
            let sh = net.shaper_mut(lid).expect("link is shaped");
            let queued = sh.queued_bytes(now);
            (
                sh.admitted_bytes,
                sh.dropped_bytes,
                queued,
                sh.limit_bytes(),
            )
        };
        // Serializer-level queue drops never reach the shaper; everything
        // else was admitted or dropped by the shaper's finite queue.
        assert_eq!(
            admitted + s.queue_dropped_bytes,
            s.offered_bytes,
            "seed {seed}: link {lid:?} offered-side ledger broke \
             (admitted={admitted} dropped={dropped} stats={s:?})"
        );
        // Every admitted byte went onto the wire or died in netem.
        assert_eq!(
            admitted,
            s.bytes + s.netem_dropped_bytes,
            "seed {seed}: link {lid:?} admitted-side ledger broke \
             (admitted={admitted} stats={s:?})"
        );
        assert!(
            queued <= limit,
            "seed {seed}: link {lid:?} queue ({queued} B) exceeds its bound ({limit} B)"
        );
    }
}

/// Drive one randomized overload scenario, checking conservation at every
/// step and at the end.
fn run_scenario(seed: u64) {
    let mut shape = SimRng::seed_from_u64(derive_seed(0xC0A5E, "shaper_conservation", seed));
    let mut net = Network::new(seed);

    let src = net.add_node("src", "t", GeoPoint::new(37.77, -122.42));
    let ap = net.add_node("ap", "t", GeoPoint::new(37.77, -122.41));
    let dsts: Vec<NodeId> = (0..3)
        .map(|k| net.add_node(&format!("d{k}"), "t", GeoPoint::new(40.0, -80.0 + k as f64)))
        .collect();
    net.add_duplex(src, ap, LinkConfig::wifi_access());
    for &d in &dsts {
        net.add_duplex(ap, d, LinkConfig::core(SimDuration::from_millis(5)));
    }

    // Shape the src→AP uplink tight enough that the offered load
    // overflows its finite queue, plus a random subset of AP→dst links.
    let rate = DataRate::from_kbps(100 + shape.uniform_u64(0, 400));
    let queue = match shape.uniform_u64(0, 2) {
        0 => QueueLimit::Auto,
        1 => QueueLimit::Bytes(ByteSize::from_kb(2 + shape.uniform_u64(0, 14))),
        _ => QueueLimit::Packets(2 + shape.uniform_u64(0, 14) as u32),
    };
    let shaped = LinkId(0);
    net.set_shaper(shaped, Some(ShaperConfig::with_queue(rate, queue)));
    let mut shaped_links = vec![shaped];
    for lid in 2..(2 + 2 * dsts.len()) {
        if shape.uniform_u64(0, 1) == 1 {
            let r = DataRate::from_kbps(300 + shape.uniform_u64(0, 2_000));
            net.set_shaper(LinkId(lid), Some(ShaperConfig::new(r)));
            shaped_links.push(LinkId(lid));
        }
    }
    // Random loss on one core link: netem drops must stay distinguishable
    // from queue drops in the identities.
    net.netem_mut(LinkId(3)).loss = 0.05;

    // Offered load: bursty, far above the shaped rate, for 4 s.
    let mut now = SimTime::ZERO;
    for step in 0..80u64 {
        let burst = 1 + shape.uniform_u64(0, 10);
        for k in 0..burst {
            let dst = dsts[(step + k) as usize % dsts.len()];
            net.send(
                src,
                dst,
                PortPair::new(5_000, 6_000),
                vec![(step + k) as u8; 200 + (k as usize % 5) * 250],
            );
        }
        now += SimDuration::from_millis(50);
        net.run_until(now);
        for &d in &dsts {
            net.poll_delivered(d);
        }
        check_links(&mut net, now, &shaped_links, seed);
    }
    // Let everything queued and in flight land, then re-check: with the
    // network idle, in-flight and queued bytes are zero and the ledger
    // reduces to admitted == delivered + dropped exactly.
    let end = SimTime::from_secs(60);
    net.run_until(end);
    check_links(&mut net, end, &shaped_links, seed);
    let s = net.link_stats(shaped);
    assert_eq!(
        s.in_flight_bytes, 0,
        "seed {seed}: bytes stranded in flight"
    );
    let queued = net
        .shaper_mut(shaped)
        .expect("uplink is shaped")
        .queued_bytes(end);
    assert_eq!(queued, 0, "seed {seed}: bytes stranded in the shaper queue");
    // The scenario is calibrated to overload: the property is vacuous if
    // nothing ever dropped.
    assert!(
        s.queue_drops > 0,
        "seed {seed}: shaped uplink never overflowed — scenario too gentle"
    );
}

#[test]
fn token_bucket_conserves_bytes_across_chaos_seeds() {
    for seed in 0..SEEDS {
        run_scenario(seed);
    }
}
