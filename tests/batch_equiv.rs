//! Datapath equivalence against a scalar reference model.
//!
//! `Network` parks in-flight packets in a slab, schedules slot indices on
//! its slab-backed event queue, drains whole ticks at once, and takes a
//! fixed-delay shortcut across passthrough links. None of that may be
//! visible: delivery order and times, per-packet verdicts (drops and
//! delays), per-link counters, tap captures, and the impairment RNG's
//! position in its stream must all match [`Reference`], a model that keeps
//! one `BTreeMap` entry per packet per hop. This test replays 32
//! randomized chaos scenarios (static loss, jitter and token buckets, fault
//! plans flipping links down, cliffing rates, spiking delay and injecting
//! Gilbert–Elliott bursts, link shapers with finite queues) and 32
//! same-instant burst scenarios through both and requires bit-identical
//! digests.

use std::collections::BTreeMap;
use std::sync::Arc;
use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::core::time::{SimDuration, SimTime};
use visionsim::core::units::{ByteSize, DataRate};
use visionsim::geo::coords::GeoPoint;
use visionsim::geo::geodb::{GeoDb, NetAddr};
use visionsim::net::fault::{apply_to_netem, FaultPlan, GeConfig};
use visionsim::net::link::{LinkConfig, LinkId, LinkState, LinkStats};
use visionsim::net::netem::Netem;
use visionsim::net::network::{Delivered, Network, NodeId};
use visionsim::net::packet::{Packet, PortPair};
use visionsim::net::shaper::{QueueLimit, ShaperConfig};
use visionsim::net::tap::{TapDirection, TapId, TapRecord};

const SEEDS: u64 = 32;

/// The datapath surface the scenarios drive, implemented by [`Network`]
/// and by [`Reference`].
trait Datapath {
    fn add_node(&mut self, name: &str, org: &str, location: GeoPoint) -> NodeId;
    fn add_duplex(&mut self, a: NodeId, b: NodeId, config: LinkConfig);
    fn netem_mut(&mut self, link: LinkId) -> &mut Netem;
    fn set_shaper(&mut self, link: LinkId, cfg: Option<ShaperConfig>);
    fn add_tap(&mut self, node: NodeId) -> TapId;
    fn send(&mut self, src: NodeId, dst: NodeId, ports: PortPair, payload: Arc<[u8]>);
    fn run_until(&mut self, until: SimTime);
    fn drain_delivered(&mut self, node: NodeId) -> Vec<Delivered>;
    fn link_stats(&self, link: LinkId) -> LinkStats;
    fn total_dropped(&self) -> u64;
    fn tap_records(&self, tap: TapId) -> Vec<TapRecord>;
    fn rng_fingerprint(&self) -> u64;
}

impl Datapath for Network {
    fn add_node(&mut self, name: &str, org: &str, location: GeoPoint) -> NodeId {
        Network::add_node(self, name, org, location)
    }
    fn add_duplex(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        Network::add_duplex(self, a, b, config);
    }
    fn netem_mut(&mut self, link: LinkId) -> &mut Netem {
        Network::netem_mut(self, link)
    }
    fn set_shaper(&mut self, link: LinkId, cfg: Option<ShaperConfig>) {
        Network::set_shaper(self, link, cfg)
    }
    fn add_tap(&mut self, node: NodeId) -> TapId {
        Network::add_tap(self, node)
    }
    fn send(&mut self, src: NodeId, dst: NodeId, ports: PortPair, payload: Arc<[u8]>) {
        Network::send(self, src, dst, ports, payload);
    }
    fn run_until(&mut self, until: SimTime) {
        Network::run_until(self, until)
    }
    fn drain_delivered(&mut self, node: NodeId) -> Vec<Delivered> {
        Network::poll_delivered(self, node)
    }
    fn link_stats(&self, link: LinkId) -> LinkStats {
        Network::link_stats(self, link)
    }
    fn total_dropped(&self) -> u64 {
        Network::total_dropped(self)
    }
    fn tap_records(&self, tap: TapId) -> Vec<TapRecord> {
        Network::tap_records(self, tap).to_vec()
    }
    fn rng_fingerprint(&self) -> u64 {
        Network::rng_fingerprint(self)
    }
}

/// One packet crossing hop `hop` of `route` (link indices).
struct HopCopy {
    packet: Packet,
    route: Arc<[usize]>,
    hop: usize,
}

/// The scalar reference model: every packet on every hop is its own
/// queue entry, keyed by (exit time, schedule order) so same-instant exits
/// pop first-scheduled first. It is built only from public primitives —
/// `LinkState::serialize`, `Netem::apply`, `TapRecord::capture`,
/// `GeoDb::allocate`, and `SimRng` — and shares no admission, exit, or
/// queueing code with [`Network`].
struct Reference {
    now: SimTime,
    rng: SimRng,
    geodb: GeoDb,
    addrs: Vec<NetAddr>,
    links: Vec<LinkState>,
    queue: BTreeMap<(SimTime, u64), HopCopy>,
    scheduled: u64,
    next_seq: u64,
    dropped: u64,
    inboxes: Vec<Vec<Delivered>>,
    /// `(node, records)` per tap.
    taps: Vec<(usize, Vec<TapRecord>)>,
}

impl Reference {
    fn new(seed: u64) -> Self {
        Reference {
            now: SimTime::ZERO,
            rng: SimRng::seed_from_u64(seed),
            geodb: GeoDb::new(),
            addrs: Vec::new(),
            links: Vec::new(),
            queue: BTreeMap::new(),
            scheduled: 0,
            next_seq: 0,
            dropped: 0,
            inboxes: Vec::new(),
            taps: Vec::new(),
        }
    }

    /// The links from `node` to `dst`, never stepping back to `prev`. The
    /// scenarios' topologies are trees and no link is down when a pair
    /// first sends (when `Network` fixes its route), so this one simple
    /// path is `Network`'s route.
    fn path(&self, node: usize, dst: usize, prev: usize) -> Option<Vec<usize>> {
        if node == dst {
            return Some(Vec::new());
        }
        self.links.iter().enumerate().find_map(|(lid, l)| {
            if l.from != node || l.to == prev {
                return None;
            }
            let mut rest = self.path(l.to, dst, node)?;
            rest.insert(0, lid);
            Some(rest)
        })
    }

    fn capture(&mut self, node: usize, packet: &Packet, dir: TapDirection) {
        for (_, records) in self.taps.iter_mut().filter(|(n, _)| *n == node) {
            records.push(TapRecord::capture(self.now, packet, dir));
        }
    }

    fn schedule(&mut self, at: SimTime, copy: HopCopy) {
        self.queue.insert((at, self.scheduled), copy);
        self.scheduled += 1;
    }

    /// Offer `copy` to the link its cursor points at.
    fn admit(&mut self, copy: HopCopy) {
        let link = &mut self.links[copy.route[copy.hop]];
        let size = copy.packet.wire_size();
        let bytes = size.as_bytes();
        link.stats.offered += 1;
        link.stats.offered_bytes += bytes;
        let Some(serialized) = link.serialize(self.now, size) else {
            self.dropped += 1;
            return;
        };
        let Some(delay) = link.config.netem.apply(self.now, size, &mut self.rng) else {
            link.stats.netem_drops += 1;
            link.stats.netem_dropped_bytes += bytes;
            self.dropped += 1;
            return;
        };
        link.stats.sent += 1;
        link.stats.bytes += bytes;
        link.stats.in_flight += 1;
        link.stats.in_flight_bytes += bytes;
        let exit = serialized + link.config.delay + delay;
        self.schedule(exit, copy);
    }
}

impl Datapath for Reference {
    fn add_node(&mut self, name: &str, org: &str, location: GeoPoint) -> NodeId {
        self.addrs.push(self.geodb.allocate(org, name, location));
        self.inboxes.push(Vec::new());
        NodeId(self.addrs.len() - 1)
    }
    fn add_duplex(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.links.push(LinkState::new(a.0, b.0, config.clone()));
        self.links.push(LinkState::new(b.0, a.0, config));
    }
    fn netem_mut(&mut self, link: LinkId) -> &mut Netem {
        &mut self.links[link.0].config.netem
    }
    fn set_shaper(&mut self, link: LinkId, cfg: Option<ShaperConfig>) {
        self.links[link.0].set_shaper(cfg);
    }
    fn add_tap(&mut self, node: NodeId) -> TapId {
        self.taps.push((node.0, Vec::new()));
        TapId(self.taps.len() - 1)
    }
    fn send(&mut self, src: NodeId, dst: NodeId, ports: PortPair, payload: Arc<[u8]>) {
        let Some(route) = self.path(src.0, dst.0, usize::MAX) else {
            return;
        };
        let packet = Packet {
            seq: self.next_seq,
            src: self.addrs[src.0],
            dst: self.addrs[dst.0],
            ports,
            payload,
            sent_at: self.now,
        };
        self.next_seq += 1;
        self.capture(src.0, &packet, TapDirection::Egress);
        self.admit(HopCopy {
            packet,
            route: route.into(),
            hop: 0,
        });
    }
    fn run_until(&mut self, until: SimTime) {
        while let Some(entry) = self.queue.first_entry() {
            if entry.key().0 > until {
                break;
            }
            self.now = entry.key().0;
            let copy = entry.remove();
            let link = &mut self.links[copy.route[copy.hop]];
            let bytes = copy.packet.wire_size().as_bytes();
            link.stats.exited += 1;
            link.stats.exited_bytes += bytes;
            link.stats.in_flight -= 1;
            link.stats.in_flight_bytes -= bytes;
            let node = link.to;
            if copy.hop + 1 < copy.route.len() {
                self.capture(node, &copy.packet, TapDirection::Transit);
                self.admit(HopCopy {
                    hop: copy.hop + 1,
                    ..copy
                });
            } else {
                self.capture(node, &copy.packet, TapDirection::Ingress);
                let at = self.now;
                self.inboxes[node].push(Delivered {
                    packet: copy.packet,
                    at,
                });
            }
        }
        self.now = self.now.max(until);
    }
    fn drain_delivered(&mut self, node: NodeId) -> Vec<Delivered> {
        std::mem::take(&mut self.inboxes[node.0])
    }
    fn link_stats(&self, link: LinkId) -> LinkStats {
        self.links[link.0].stats
    }
    fn total_dropped(&self) -> u64 {
        self.dropped
    }
    fn tap_records(&self, tap: TapId) -> Vec<TapRecord> {
        self.taps[tap.0].1.clone()
    }
    fn rng_fingerprint(&self) -> u64 {
        self.rng.state_fingerprint()
    }
}

/// Append a digest line per delivered packet: seq and arrival.
fn digest_deliveries(out: &mut String, tag: &str, delivered: &[Delivered]) {
    for d in delivered {
        out.push_str(&format!("{tag}:{}@{};", d.packet.seq, d.at.as_nanos()));
    }
}

/// Append every link's counters and the network-wide drop count.
fn digest_totals(out: &mut String, net: &impl Datapath, links: usize) {
    for lid in 0..links {
        out.push_str(&format!("l{lid}:{:?};", net.link_stats(LinkId(lid))));
    }
    out.push_str(&format!("dropped:{};", net.total_dropped()));
}

/// Give `link` a random static impairment, or none: independent loss,
/// jitter, both on one link, a netem token bucket (what `uplink_limits`
/// installs), or a link shaper. Gilbert–Elliott loss comes from the
/// scenarios' fault plans.
fn impair_randomly(net: &mut impl Datapath, shape: &mut SimRng, link: LinkId) {
    match shape.uniform_u64(0, 8) {
        0 => net.netem_mut(link).loss = 0.02 + shape.uniform() * 0.2,
        1 => {
            net.netem_mut(link).jitter = SimDuration::from_micros(shape.uniform_u64(10, 3_000));
        }
        2 => {
            let netem = net.netem_mut(link);
            netem.loss = shape.uniform() * 0.1;
            netem.jitter = SimDuration::from_millis(shape.uniform_u64(1, 20));
        }
        3 => {
            let rate = DataRate::from_kbps(300 + shape.uniform_u64(0, 3_700));
            *net.netem_mut(link) = Netem::with_rate_limit(rate);
        }
        4 => {
            // Token-bucket link shaper with a finite FIFO queue: forces
            // every admission off the passthrough fast arms and produces
            // real queue drops.
            let rate = DataRate::from_kbps(400 + shape.uniform_u64(0, 3_600));
            let queue = match shape.uniform_u64(0, 2) {
                0 => QueueLimit::Auto,
                1 => QueueLimit::Bytes(ByteSize::from_kb(4 + shape.uniform_u64(0, 60))),
                _ => QueueLimit::Packets(4 + shape.uniform_u64(0, 28) as u32),
            };
            net.set_shaper(link, Some(ShaperConfig::with_queue(rate, queue)));
        }
        _ => {}
    }
}

/// One chaos scenario, fully determined by `seed`, driven through `net`
/// (built with `Network::new(seed)` or `Reference::new(seed)`). Returns a
/// digest of everything observable.
fn scenario_digest(seed: u64, net: &mut impl Datapath) -> String {
    // Scenario shape comes from its own rng so both datapaths see
    // identical topology, traffic, and fault schedules.
    let mut shape = SimRng::seed_from_u64(derive_seed(0xBA7C4, "batch_equiv", seed));

    // Client → AP → core → SFU, SFU fanning out to subscribers.
    let client = net.add_node("client", "t", GeoPoint::new(37.77, -122.42));
    let ap = net.add_node("ap", "t", GeoPoint::new(37.77, -122.41));
    let sfu = net.add_node("sfu", "t", GeoPoint::new(40.71, -74.01));
    let subs: Vec<NodeId> = (0..4)
        .map(|s| {
            net.add_node(
                &format!("sub{s}"),
                "t",
                GeoPoint::new(34.05, -118.24 + s as f64),
            )
        })
        .collect();
    net.add_duplex(client, ap, LinkConfig::wifi_access());
    net.add_duplex(
        ap,
        sfu,
        LinkConfig::core(SimDuration::from_millis(1 + shape.uniform_u64(0, 20))),
    );
    for &s in &subs {
        net.add_duplex(
            sfu,
            s,
            LinkConfig::core(SimDuration::from_millis(1 + shape.uniform_u64(0, 30))),
        );
    }
    let n_links = 2 * (2 + subs.len());

    for lid in 0..n_links {
        impair_randomly(net, &mut shape, LinkId(lid));
    }
    let tap = net.add_tap(ap);

    // A chaos fault plan targeting the AP→SFU link.
    let target = LinkId(2);
    let mut plan = FaultPlan::merged(vec![
        FaultPlan::flap(
            SimTime::from_millis(400 + shape.uniform_u64(0, 400)),
            SimDuration::from_millis(100 + shape.uniform_u64(0, 300)),
        ),
        FaultPlan::rate_cliff(
            SimTime::from_millis(900 + shape.uniform_u64(0, 300)),
            DataRate::from_kbps(400 + shape.uniform_u64(0, 600)),
            SimDuration::from_millis(300),
        ),
        FaultPlan::delay_spike(
            SimTime::from_millis(1_400 + shape.uniform_u64(0, 300)),
            SimDuration::from_millis(shape.uniform_u64(5, 100)),
            SimDuration::from_millis(200),
        ),
        FaultPlan::burst_loss(
            SimTime::from_millis(1_800 + shape.uniform_u64(0, 300)),
            GeConfig::wifi_bursts(),
            SimDuration::from_millis(400),
        ),
        FaultPlan::delay_spike(
            SimTime::from_millis(2_300 + shape.uniform_u64(0, 200)),
            SimDuration::from_millis(shape.uniform_u64(1, 20)),
            SimDuration::from_millis(300),
        ),
        FaultPlan::rate_cliff(
            SimTime::from_millis(2_700 + shape.uniform_u64(0, 200)),
            DataRate::from_kbps(200 + shape.uniform_u64(0, 400)),
            SimDuration::from_millis(300),
        ),
    ]);

    // Drive traffic in 50 ms steps for 3.5 s of virtual time, relaying
    // everything the SFU receives out to every subscriber (fan-out bursts
    // are what build deep same-link admission runs).
    let mut digest = String::new();
    let mut now = SimTime::ZERO;
    for step in 0..70u64 {
        for ev in plan.due(now) {
            apply_to_netem(net.netem_mut(target), &ev.kind);
        }
        let burst = 1 + shape.uniform_u64(0, 12);
        for k in 0..burst {
            let payload = vec![(step + k) as u8; 64 + (k as usize % 3) * 300];
            net.send(client, sfu, PortPair::new(5_000, 6_000), payload.into());
        }
        now += SimDuration::from_millis(50);
        net.run_until(now);
        let relay = net.drain_delivered(sfu);
        digest_deliveries(&mut digest, "sfu", &relay);
        for d in &relay {
            for &s in &subs {
                net.send(
                    sfu,
                    s,
                    PortPair::new(6_000, 7_000),
                    d.packet.payload.clone(),
                );
            }
        }
    }
    net.run_until(SimTime::from_secs(5));

    for (si, &s) in subs.iter().enumerate() {
        digest_deliveries(&mut digest, &format!("s{si}"), &net.drain_delivered(s));
    }
    digest_totals(&mut digest, net, n_links);
    digest.push_str(&format!("taps:{:?};", net.tap_records(tap)));
    digest.push_str(&format!("rng:{:016x};", net.rng_fingerprint()));
    digest
}

/// For every seed, the network's digests of the chaos and the burst
/// scenario — delivery order, verdicts, stats, taps, and RNG stream
/// position — are byte-identical to the reference model's.
#[test]
fn network_matches_the_reference_model_across_chaos_seeds() {
    for seed in 0..SEEDS {
        assert_eq!(
            scenario_digest(seed, &mut Reference::new(seed)),
            scenario_digest(seed, &mut Network::new(seed)),
            "seed {seed}: the chaos scenario diverged from the scalar reference model"
        );
        assert_eq!(
            burst_digest(seed, &mut Reference::new(seed)),
            burst_digest(seed, &mut Network::new(seed)),
            "seed {seed}: the burst scenario diverged from the scalar reference model"
        );
    }
}

/// Same-instant bursts, fully determined by `seed`: each step sends a
/// burst from `src` to three destinations that exits a passthrough first
/// hop at one instant, splits at the tapped hub onto randomly impaired
/// links or the fault-plan link (delay spikes keep it passthrough with
/// extra delay; flaps and loss bursts do not), and crosses a last
/// passthrough hop.
fn burst_digest(seed: u64, net: &mut impl Datapath) -> String {
    let mut shape = SimRng::seed_from_u64(derive_seed(0xC0407, "batch_equiv_cohorts", seed));
    let at = GeoPoint::new(39.0, -98.0);
    let src = net.add_node("src", "t", at);
    let hub = net.add_node("hub", "t", at);
    net.add_duplex(src, hub, LinkConfig::core(SimDuration::from_millis(5)));
    let mut dsts = Vec::new();
    for k in 0..3u64 {
        let mid = net.add_node(&format!("mid{k}"), "t", at);
        let dst = net.add_node(&format!("dst{k}"), "t", at);
        net.add_duplex(hub, mid, LinkConfig::core(SimDuration::from_millis(3 + k)));
        net.add_duplex(mid, dst, LinkConfig::core(SimDuration::from_millis(2)));
        dsts.push(dst);
    }
    // Link 2 (hub → mid0) is left to the fault plan.
    let n_links = 2 + 4 * dsts.len();
    for lid in 3..n_links {
        impair_randomly(net, &mut shape, LinkId(lid));
    }
    let taps = [net.add_tap(hub), net.add_tap(dsts[0])];
    let mut plan = FaultPlan::merged(vec![
        FaultPlan::delay_spike(
            SimTime::from_millis(100 + shape.uniform_u64(0, 200)),
            SimDuration::from_millis(shape.uniform_u64(1, 30)),
            SimDuration::from_millis(300),
        ),
        FaultPlan::flap(
            SimTime::from_millis(500 + shape.uniform_u64(0, 100)),
            SimDuration::from_millis(50 + shape.uniform_u64(0, 100)),
        ),
        FaultPlan::burst_loss(
            SimTime::from_millis(800 + shape.uniform_u64(0, 100)),
            GeConfig::wifi_bursts(),
            SimDuration::from_millis(200),
        ),
    ]);
    let mut now = SimTime::ZERO;
    for step in 0..60u64 {
        for ev in plan.due(now) {
            apply_to_netem(net.netem_mut(LinkId(2)), &ev.kind);
        }
        // Even steps send destination by destination (long segments),
        // odd steps round-robin (one-member segments).
        let burst = 1 + shape.uniform_u64(0, 8);
        for i in 0..burst * 3 {
            let (d, k) = if step % 2 == 0 {
                (i / burst, i % burst)
            } else {
                (i % 3, i / 3)
            };
            let payload = vec![(step + k) as u8; 64 + (k as usize % 3) * 400];
            let ports = PortPair::new(1_000, 2_000 + k as u16);
            net.send(src, dsts[d as usize], ports, payload.into());
        }
        now += SimDuration::from_millis(20);
        net.run_until(now);
    }
    net.run_until(SimTime::from_secs(5));
    let mut digest = String::new();
    for (di, &d) in dsts.iter().enumerate() {
        digest_deliveries(&mut digest, &format!("d{di}"), &net.drain_delivered(d));
    }
    digest_totals(&mut digest, net, n_links);
    for tap in taps {
        digest.push_str(&format!("taps:{:?};", net.tap_records(tap)));
    }
    digest.push_str(&format!("rng:{:016x};", net.rng_fingerprint()));
    digest
}

/// Same-instant passthrough fan-out to eight destinations delivers every
/// packet, drops none, and leaves every link's bytes conserved and
/// drained.
#[test]
fn passthrough_fanout_delivers_every_packet_and_conserves_link_bytes() {
    let mut net = Network::new(7);
    let src = net.add_node("src", "t", GeoPoint::new(37.77, -122.42));
    let hub = net.add_node("hub", "t", GeoPoint::new(39.0, -98.0));
    let dsts: Vec<NodeId> = (0..8)
        .map(|k| net.add_node(&format!("d{k}"), "t", GeoPoint::new(40.0, -80.0 + k as f64)))
        .collect();
    net.add_duplex(src, hub, LinkConfig::core(SimDuration::from_millis(5)));
    for &d in &dsts {
        net.add_duplex(hub, d, LinkConfig::core(SimDuration::from_millis(7)));
    }
    for round in 0..50u64 {
        for &d in &dsts {
            for k in 0..16u64 {
                net.send(src, d, PortPair::new(1, 2), vec![(round + k) as u8; 200]);
            }
        }
        net.run_until(SimTime::from_millis((round + 1) * 20));
    }
    net.run_until(SimTime::from_secs(2));
    let total: usize = dsts.iter().map(|&d| net.poll_delivered(d).len()).sum();
    assert_eq!(total, 50 * 8 * 16);
    assert_eq!(net.total_dropped(), 0);
    for lid in 0..2 * (1 + dsts.len()) {
        let s = net.link_stats(LinkId(lid));
        assert!(s.conserved() && s.in_flight == 0, "link {lid}: {s:?}");
    }
}
