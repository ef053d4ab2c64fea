//! The packet datapath itself: per-hop forwarding, SFU-style fan-out, and
//! tap observation rates.
//!
//! Every experiment artifact funnels through `net::network`'s event loop,
//! so this target benchmarks that loop in isolation — hops/sec down a
//! forwarding chain, fan-out/sec when one delivered payload is re-sent to
//! many subscribers (the SFU pattern), and tap records/sec at an
//! observed node.
//!
//! The traffic has the shape sessions send. Every session's client uplink
//! is a serializing `LinkConfig::wifi_access()` hop, so a burst leaves it
//! one packet at a time; an SFU's subscribers sit at different distances,
//! so the copies of one relayed frame leave the server at different
//! instants. A same-instant burst down a passthrough chain is a shape no
//! session produces, and it would time a different event mix.

use std::sync::Arc;
use visionsim_bench::{criterion_group, criterion_main, Criterion, Throughput};
use visionsim_core::time::SimDuration;
use visionsim_geo::coords::GeoPoint;
use visionsim_net::link::LinkConfig;
use visionsim_net::network::{Network, NodeId};
use visionsim_net::packet::PortPair;
use visionsim_net::tap::TapId;

/// A linear forwarding chain of `hops` links behind a WiFi access uplink
/// (the first link); taps on every node when `tapped`.
fn chain(hops: usize, tapped: bool) -> (Network, NodeId, NodeId) {
    let mut net = Network::new(11);
    let nodes: Vec<NodeId> = (0..=hops)
        .map(|i| {
            net.add_node(
                &format!("n{i}"),
                "bench",
                GeoPoint::new(37.0, -122.0 + i as f64),
            )
        })
        .collect();
    net.add_duplex(nodes[0], nodes[1], LinkConfig::wifi_access());
    for w in nodes[1..].windows(2) {
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

/// Send one `BATCH` burst down the chain and run until it has drained:
/// the uplink serializes 64 × 1,228 B in about 2.1 ms, plus 2 ms of
/// access delay and seven 100 µs core hops.
fn send_burst(net: &mut Network, src: NodeId, dst: NodeId, payload: &Arc<[u8]>) -> usize {
    for i in 0..BATCH {
        net.send(
            src,
            dst,
            PortPair::new(5_000, 5_001 + i as u16),
            payload.clone(),
        );
    }
    net.run_until(net.now() + SimDuration::from_millis(10));
    net.poll_delivered(dst).len()
}

fn bench_hops(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_path");
    g.throughput(Throughput::Elements((HOPS * BATCH) as u64));
    let (mut net, src, dst) = chain(HOPS, false);
    // Interned once, shared by every send — the datapath's intended idiom
    // (transport framing emits each frame as one Arc<[u8]>).
    let payload: Arc<[u8]> = vec![0xEEu8; PAYLOAD].into();
    g.bench_function("hops", |b| {
        b.iter(|| send_burst(&mut net, src, dst, &payload))
    });
    g.finish();
}

/// Upstream frames relayed per fan-out iteration.
const UPSTREAM: usize = 16;

fn bench_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_path");
    // One element = one packet delivered end-to-end: the upstream relay
    // legs into the server plus every downstream fan-out copy.
    g.throughput(Throughput::Elements(
        (UPSTREAM + UPSTREAM * SUBSCRIBERS) as u64,
    ));
    // SFU star: a source behind a WiFi uplink, a relay server, and N
    // subscribers 200–350 µs away.
    let mut net = Network::new(12);
    let server = net.add_node("sfu", "bench", GeoPoint::new(39.0, -95.0));
    let source = net.add_node("src", "bench", GeoPoint::new(37.0, -122.0));
    net.add_duplex(source, server, LinkConfig::wifi_access());
    let subs: Vec<NodeId> = (0..SUBSCRIBERS)
        .map(|i| {
            let n = net.add_node(
                &format!("sub{i}"),
                "bench",
                GeoPoint::new(40.0, -80.0 - i as f64),
            );
            let delay = SimDuration::from_micros(200 + 10 * i as u64);
            net.add_duplex(server, n, LinkConfig::core(delay));
            n
        })
        .collect();
    let frame: Arc<[u8]> = vec![0xABu8; PAYLOAD].into();
    g.bench_function("fanout", |b| {
        b.iter(|| {
            // The server relays each frame to every subscriber when it
            // arrives, sharing the encoded buffer; the copies of the
            // previous frame land while the next one crosses the uplink.
            for k in 0..UPSTREAM {
                net.send(
                    source,
                    server,
                    PortPair::new(5_000, 443 + k as u16),
                    frame.clone(),
                );
                net.run_until(net.now() + SimDuration::from_millis(3));
                for d in net.poll_delivered(server) {
                    for &s in &subs {
                        net.send(server, s, d.packet.ports, d.packet.payload.clone());
                    }
                }
            }
            net.run_until(net.now() + SimDuration::from_millis(1));
            subs.iter()
                .map(|&s| net.poll_delivered(s).len())
                .sum::<usize>()
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
    let payload: Arc<[u8]> = vec![0x7Au8; PAYLOAD].into();
    g.bench_function("tap_records", |b| {
        b.iter(|| {
            send_burst(&mut net, src, dst, &payload);
            // Drain records so tap storage stays bounded across samples.
            (0..=HOPS)
                .map(|t| net.take_tap_records(TapId(t)).len())
                .sum::<usize>()
        })
    });
    g.finish();
}

criterion_group!(packet_path, bench_hops, bench_fanout, bench_taps);
criterion_main!(packet_path);
