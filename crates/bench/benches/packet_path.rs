//! The packet datapath itself: per-hop forwarding, SFU-style fan-out, and
//! tap observation rates.
//!
//! Every experiment artifact funnels through `net::network`'s event loop,
//! so this target benchmarks that loop in isolation — hops/sec down a
//! forwarding chain, fan-out/sec when one delivered payload is re-sent to
//! many subscribers (the SFU pattern), and tap records/sec at an
//! observed node.

use visionsim_bench::{criterion_group, criterion_main, Criterion, Throughput};
use visionsim_core::time::SimDuration;
use visionsim_geo::coords::GeoPoint;
use visionsim_net::link::LinkConfig;
use visionsim_net::network::{Network, NodeId};
use visionsim_net::packet::PortPair;

/// A linear forwarding chain of `hops` links; taps on every node when
/// `tapped`.
fn chain(hops: usize, tapped: bool) -> (Network, NodeId, NodeId) {
    let mut net = Network::new(11);
    let nodes: Vec<NodeId> = (0..=hops)
        .map(|i| net.add_node(&format!("n{i}"), "bench", GeoPoint::new(37.0, -122.0 + i as f64)))
        .collect();
    for w in nodes.windows(2) {
        net.add_duplex(w[0], w[1], LinkConfig::core(SimDuration::from_micros(100)));
    }
    if tapped {
        for &n in &nodes {
            net.add_tap(n);
        }
    }
    (net, nodes[0], nodes[hops])
}

const HOPS: usize = 8;
const BATCH: usize = 64;
const PAYLOAD: usize = 1_200;
const SUBSCRIBERS: usize = 16;

fn bench_hops(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_path");
    g.throughput(Throughput::Elements((HOPS * BATCH) as u64));
    let (mut net, src, dst) = chain(HOPS, false);
    // Interned once, shared by every send — the datapath's intended idiom
    // (transport framing emits each frame as one Arc<[u8]>). Admitted as
    // one batch per tick, the steady-state shape the batched drain loop
    // is built around.
    let payload: std::sync::Arc<[u8]> = vec![0xEEu8; PAYLOAD].into();
    g.bench_function("hops", |b| {
        b.iter(|| {
            net.send_batch(
                src,
                dst,
                (0..BATCH).map(|i| (PortPair::new(5_000, 5_001 + i as u16), payload.clone())),
            );
            net.run_until(net.now() + SimDuration::from_millis(10));
            net.drain_delivered(dst).count()
        })
    });
    g.finish();
}

/// Upstream frames relayed per fan-out iteration: the SFU's steady-state
/// inflow between egress flushes — a multi-party session aggregates
/// several publishers' tiles, so a burst of frames is pending at each
/// flush. One frame per iteration would measure mostly fixed per-tick
/// overhead rather than the fan-out datapath.
const UPSTREAM: usize = 16;

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_path");
    // One element = one packet delivered end-to-end: the upstream relay
    // legs into the server plus every downstream fan-out copy. Both run
    // the identical send → admit → cohort → deliver → drain datapath
    // (the upstream legs on their own tick), so each counted element is
    // one full packet journey.
    g.throughput(Throughput::Elements((UPSTREAM + UPSTREAM * SUBSCRIBERS) as u64));
    // SFU star: a source, a relay server, and N subscribers.
    let mut net = Network::new(12);
    let server = net.add_node("sfu", "bench", GeoPoint::new(39.0, -95.0));
    let source = net.add_node("src", "bench", GeoPoint::new(37.0, -122.0));
    net.add_duplex(source, server, LinkConfig::core(SimDuration::from_micros(200)));
    let subs: Vec<NodeId> = (0..SUBSCRIBERS)
        .map(|i| {
            let n = net.add_node(&format!("sub{i}"), "bench", GeoPoint::new(40.0, -80.0 - i as f64));
            net.add_duplex(server, n, LinkConfig::core(SimDuration::from_micros(200)));
            n
        })
        .collect();
    let frame: std::sync::Arc<[u8]> = vec![0xABu8; PAYLOAD].into();
    // Reusable relay buffer: the drain iterator borrows the network, so
    // deliveries park here (capacity reused) while they are re-sent.
    let mut relay: Vec<visionsim_net::network::Delivered> = Vec::new();
    g.bench_function("fanout", |b| {
        b.iter(|| {
            net.send_batch(
                source,
                server,
                (0..UPSTREAM).map(|k| (PortPair::new(5_000, 443 + k as u16), frame.clone())),
            );
            net.run_until(net.now() + SimDuration::from_millis(1));
            // Relay the delivered burst to every subscriber, one egress
            // batch per subscriber socket — the SFU downlink fan-out
            // sharing each encoded buffer.
            relay.clear();
            relay.extend(net.drain_delivered(server));
            for &s in &subs {
                net.send_batch(
                    server,
                    s,
                    relay.iter().map(|d| (d.packet.ports, d.packet.payload.clone())),
                );
            }
            net.run_until(net.now() + SimDuration::from_millis(1));
            let mut got = 0usize;
            for &s in &subs {
                got += net.drain_delivered(s).count();
            }
            got
        })
    });
    g.finish();
}

fn bench_taps(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_path");
    // Each packet is observed once per node on its path: egress at the
    // source plus one record per hop exit.
    g.throughput(Throughput::Elements(((HOPS + 1) * BATCH) as u64));
    let (mut net, src, dst) = chain(HOPS, true);
    let payload: std::sync::Arc<[u8]> = vec![0x7Au8; PAYLOAD].into();
    g.bench_function("tap_records", |b| {
        b.iter(|| {
            for i in 0..BATCH {
                net.send(src, dst, PortPair::new(5_000, 5_001 + i as u16), payload.clone());
            }
            net.run_until(net.now() + SimDuration::from_millis(10));
            net.drain_delivered(dst).count();
            // Drain records so tap storage stays bounded across samples.
            let mut records = 0usize;
            for t in 0..=HOPS {
                records += net.take_tap_records(visionsim_net::tap::TapId(t)).len();
            }
            records
        })
    });
    g.finish();
}

criterion_group!(packet_path, bench_hops, bench_fanout, bench_taps);
criterion_main!(packet_path);
