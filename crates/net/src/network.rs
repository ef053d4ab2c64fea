//! The network: topology + event loop.
//!
//! Nodes are endpoints or forwarders; simplex links connect them. Packets
//! are source-routed along the minimum-latency path computed by Dijkstra
//! over link delays at send time (route cache invalidated on topology
//! change). Delivered packets land in the destination node's inbox for the
//! application layer to poll; taps observe everything that transits their
//! node.
//!
//! # The zero-copy fast path
//!
//! The event loop is the hottest code in the workspace — every experiment
//! artifact funnels through it — so the datapath is built around shared
//! immutable buffers and O(1)-per-hop bookkeeping:
//!
//! * payloads are `Arc<[u8]>`, allocated once when the frame is emitted
//!   and shared by every copy (retransmissions, relays, SFU fan-out);
//! * routes are resolved once into `Arc<[LinkId]>` handed out by the
//!   route cache; a packet carries a `(route, hop)` cursor, never a
//!   per-event clone of the link list;
//! * in-flight packets live in a slab (`flights` + LIFO free list) and an
//!   [`EventQueue`] event's payload is just the `u32` slot index, so a heap
//!   entry is 32 bytes and a sift never moves a packet;
//! * each link is a FIFO lane of the queue
//!   ([`EventQueue::schedule_fifo`]): a link's exits wait in order behind
//!   one heap entry, so the heap holds one entry per busy link rather than
//!   one per packet in flight.
//!
//! Forwarding a warmed-up packet one hop performs no heap allocation (the
//! `alloc_gate` integration test pins this with a counting allocator, and
//! [`PER_HOP_ALLOC_BUDGET`] is the gated budget).
//!
//! # One event per packet-hop
//!
//! Every admitted packet schedules one queue event, at the instant it
//! leaves the link it is crossing, on that link's lane; the event's
//! payload is its flight slot. A link almost always releases packets in
//! the order it admitted them, and an exit that would overtake one
//! already pending on its link enters the heap as a plain event, so the
//! lanes never change the pop order. Same-instant exits pop in schedule
//! order, which is the per-packet order. `run_until` pops one due exit at
//! a time and processes it before popping the next. The root
//! `batch_equiv` test checks the result against a reference model that
//! shares no admission, exit or queueing code with [`Network`].
//!
//! # Metrics
//!
//! The network-wide counters (`net/link_packets_sent`, `net/link_bytes_sent`,
//! `net/link_bytes_exited`, `net/packets_dropped`) and gauges
//! (`net/in_flight_bytes`, `net/queue_depth`) are derived from the links'
//! [`crate::link::LinkStats`], the drop count and the queue length, and
//! published as deltas at the end of every [`Network::run_until`] and when
//! the network drops, so no packet-hop touches a process-wide atomic.

use crate::link::{LinkConfig, LinkId, LinkState};
use crate::packet::{Packet, PortPair};
use crate::tap::{Tap, TapDirection, TapId, TapRecord};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use visionsim_core::event::EventQueue;
use visionsim_core::metrics::{self, Class};
use visionsim_core::rng::SimRng;
use visionsim_core::sanitizer;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::trace::{self, TraceKind};
use visionsim_core::units::ByteSize;
use visionsim_geo::coords::GeoPoint;
use visionsim_geo::geodb::{GeoDb, NetAddr};

/// Heap allocations the steady-state datapath may perform per hop, gated
/// by the `alloc_gate` integration test: zero for the forwarding machinery
/// itself, with one budgeted for amortized growth of tap-record storage.
pub const PER_HOP_ALLOC_BUDGET: usize = 1;

/// Cached handles into the metrics registry, aggregated across every
/// [`Network`] instance in the process. Each network publishes deltas of
/// its [`NetTotals`], which sum the [`crate::link::LinkStats`]
/// bookkeeping, so the process-wide totals satisfy the same conservation
/// identity the sanitizer checks: `link_bytes_sent == link_bytes_exited`
/// once all traffic has drained (`net/in_flight_bytes` holds the
/// residual).
///
/// Everything here is [`Class::Sim`]: pure functions of the seeds, updated
/// via commutative atomic adds, so the totals are identical at any worker
/// thread count.
struct NetMetrics {
    link_packets_sent: metrics::Counter,
    link_bytes_sent: metrics::Counter,
    link_bytes_exited: metrics::Counter,
    packets_dropped: metrics::Counter,
    in_flight_bytes: metrics::Gauge,
    /// Pending link exits as of each network's last publication.
    queue_depth: metrics::Gauge,
    /// `run_until` calls that moved at least one link exit.
    batch_drains: metrics::Counter,
    /// Log2 histogram of link exits per `run_until` call that moved at
    /// least one, so its mean is exits per such call.
    batch_size: metrics::Histogram,
}

fn net_metrics() -> &'static NetMetrics {
    static M: OnceLock<NetMetrics> = OnceLock::new();
    M.get_or_init(|| NetMetrics {
        link_packets_sent: metrics::counter("net/link_packets_sent", Class::Sim),
        link_bytes_sent: metrics::counter("net/link_bytes_sent", Class::Sim),
        link_bytes_exited: metrics::counter("net/link_bytes_exited", Class::Sim),
        packets_dropped: metrics::counter("net/packets_dropped", Class::Sim),
        // Networks add deltas of their own levels; deltas commute, so the
        // gauges stay deterministic across thread counts (a `set` of one
        // network's level would not — last writer would win).
        in_flight_bytes: metrics::gauge("net/in_flight_bytes", Class::Sim),
        queue_depth: metrics::gauge("net/queue_depth", Class::Sim),
        batch_drains: metrics::counter("net/batch_drains", Class::Sim),
        batch_size: metrics::histogram("net/batch_size", Class::Sim),
    })
}

/// One network's contribution to the [`NetMetrics`] counters and gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct NetTotals {
    packets_sent: u64,
    bytes_sent: u64,
    bytes_exited: u64,
    in_flight_bytes: u64,
    dropped: u64,
    queue_depth: u64,
}

/// Identifier of a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A node in the topology.
#[derive(Clone, Debug)]
struct Node {
    name: String,
    addr: NetAddr,
    #[allow(dead_code)]
    location: GeoPoint,
    inbox: VecDeque<Delivered>,
    taps: Vec<usize>,
}

/// A packet delivered to its destination.
#[derive(Clone, Debug)]
pub struct Delivered {
    /// The packet.
    pub packet: Packet,
    /// Delivery timestamp.
    pub at: SimTime,
}

/// One in-flight packet: the packet itself plus its route cursor. Lives
/// in the network's flight slab; its queue event is the slot index. The
/// route is an index into the network's interned route table, so
/// creating and retiring a flight moves no refcount — only the payload
/// `Arc` is shared state.
#[derive(Clone, Debug)]
struct Flight {
    packet: Packet,
    /// Index into [`Network::routes`].
    route: u32,
    /// Position in the route of the link being crossed.
    hop: u32,
    /// Cached `packet.wire_size()`: the payload is immutable, so hop
    /// bookkeeping reads the size from the slab instead of chasing the
    /// payload `Arc` every time.
    size: ByteSize,
}

/// Multiply-rotate hasher for the route cache's small fixed-width
/// `(usize, usize)` keys. The default SipHash is DoS-hardened for
/// untrusted input; cache keys here are simulator-internal node indices,
/// and the hash sits on the per-send fast path.
#[derive(Default)]
struct RouteKeyHasher(u64);

impl std::hash::Hasher for RouteKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0 ^ n as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }
}

type RouteCache =
    HashMap<(usize, usize), Option<u32>, std::hash::BuildHasherDefault<RouteKeyHasher>>;

/// Slots in the direct-mapped route memo in front of [`RouteCache`].
/// Fan-out traffic cycles through one `(src, dst)` pair per subscriber,
/// so a single-entry memo thrashes; 64 slots cover any realistic working
/// set of concurrently-active flows, and a miss only falls back to the
/// hash map. Power of two so the index is a mask.
const ROUTE_MEMO_SLOTS: usize = 64;

/// Direct-mapped memo entry: packed `(src << 32) | dst` key and the
/// interned route id it resolved to. `key == u64::MAX` marks an empty
/// slot; only resolvable pairs are memoized.
type RouteMemoEntry = (u64, u32);

/// The simulated network.
#[derive(Debug)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<LinkState>,
    /// Outgoing link ids per node.
    adjacency: Vec<Vec<LinkId>>,
    /// One pending link exit per in-flight packet, on the lane of the
    /// link it is crossing; the payload is its flight slot.
    queue: EventQueue<u32>,
    route_cache: RouteCache,
    /// Interned routes, referenced by index from flights and the caches.
    /// Append-only: topology changes clear the *caches*, never this
    /// table, so ids held by packets already in flight stay valid.
    routes: Vec<Arc<[LinkId]>>,
    /// Direct-mapped memo in front of `route_cache`: steady traffic
    /// re-sends along a small working set of `(src, dst)` pairs, so most
    /// lookups are one compare. Invalidated together with the cache.
    route_memo: Vec<RouteMemoEntry>,
    /// In-flight packet slab; slot indices are what events carry.
    flights: Vec<Option<Flight>>,
    /// Reusable slab slots (LIFO, so a forwarded packet keeps its slot).
    free_flights: Vec<u32>,
    taps: Vec<Tap>,
    geodb: GeoDb,
    rng: SimRng,
    next_seq: u64,
    dropped: u64,
    /// The totals last added to the process-wide net metrics.
    published: NetTotals,
}

impl Network {
    /// An empty network with the given RNG seed (impairment sampling).
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
            queue: EventQueue::new(),
            route_cache: RouteCache::default(),
            routes: Vec::new(),
            route_memo: vec![(u64::MAX, 0); ROUTE_MEMO_SLOTS],
            flights: Vec::new(),
            free_flights: Vec::new(),
            taps: Vec::new(),
            geodb: GeoDb::new(),
            rng: SimRng::seed_from_u64(seed),
            next_seq: 0,
            dropped: 0,
            published: NetTotals::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// FNV-1a fold of the impairment RNG's position in its stream — the
    /// equivalence test pins this against its scalar reference model,
    /// proving the datapath consumed draws in exactly the per-packet order
    /// and count.
    pub fn rng_fingerprint(&self) -> u64 {
        self.rng.state_fingerprint()
    }

    /// The geolocation database tracking every node added so far.
    pub fn geodb(&self) -> &GeoDb {
        &self.geodb
    }

    /// Add a node; its address is allocated in the region-coded block for
    /// `location` and registered under `org` in the geo database.
    pub fn add_node(&mut self, name: &str, org: &str, location: GeoPoint) -> NodeId {
        let addr = self.geodb.allocate(org, name, location);
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            name: name.to_string(),
            addr,
            location,
            inbox: VecDeque::new(),
            taps: Vec::new(),
        });
        self.adjacency.push(Vec::new());
        self.route_cache.clear();
        self.route_memo.fill((u64::MAX, 0));
        id
    }

    /// The address of a node.
    pub fn addr(&self, node: NodeId) -> NetAddr {
        self.nodes[node.0].addr
    }

    /// The node owning an address, if any.
    pub fn node_of_addr(&self, addr: NetAddr) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.addr == addr).map(NodeId)
    }

    /// The node's display name.
    pub fn name(&self, node: NodeId) -> &str {
        &self.nodes[node.0].name
    }

    /// Add a simplex link.
    pub fn add_link(&mut self, from: NodeId, to: NodeId, config: LinkConfig) -> LinkId {
        assert!(from != to, "self-links are not allowed");
        let id = LinkId(self.links.len());
        self.links.push(LinkState::new(from.0, to.0, config));
        self.adjacency[from.0].push(id);
        self.route_cache.clear();
        self.route_memo.fill((u64::MAX, 0));
        id
    }

    /// Add a duplex link (two mirrored simplex links).
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, config.clone());
        let ba = self.add_link(b, a, config);
        (ab, ba)
    }

    /// Mutable access to a link's impairments (re-configuring `tc` mid-run).
    pub fn netem_mut(&mut self, link: LinkId) -> &mut crate::netem::Netem {
        &mut self.links[link.0].config.netem
    }

    /// Mutable access to the link's token-bucket shaper, if one is
    /// attached. Use [`crate::LinkShaper::set_rate`] through this to model
    /// a capacity change that keeps the queued backlog (WiFi duty cycle,
    /// handover rate cliff).
    pub fn shaper_mut(&mut self, link: LinkId) -> Option<&mut crate::shaper::LinkShaper> {
        self.links[link.0].shaper.as_mut()
    }

    /// Attach, replace, or remove a link's shaper. Rebuilds shaper state
    /// from scratch (empty queue, full burst). The route cache is
    /// untouched — shaping does not change topology.
    pub fn set_shaper(&mut self, link: LinkId, cfg: Option<crate::shaper::ShaperConfig>) {
        self.links[link.0].set_shaper(cfg);
    }

    /// Take a link down (or back up) *and* invalidate the route cache, so
    /// subsequently-sent packets route around it. Plain `netem_mut` with
    /// `down = true` keeps existing routes — packets blackhole on the dead
    /// link, which models an outage the routing layer has not noticed yet;
    /// `set_down` models one it has.
    pub fn set_down(&mut self, link: LinkId, down: bool) {
        self.links[link.0].config.netem.down = down;
        self.route_cache.clear();
        self.route_memo.fill((u64::MAX, 0));
    }

    /// Every link touching `node` in either direction (for taking a whole
    /// node out of service).
    pub fn links_of(&self, node: NodeId) -> Vec<LinkId> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.from == node.0 || l.to == node.0)
            .map(|(i, _)| LinkId(i))
            .collect()
    }

    /// Link counters.
    pub fn link_stats(&self, link: LinkId) -> crate::link::LinkStats {
        self.links[link.0].stats
    }

    /// Total packets dropped anywhere in the network so far.
    pub fn total_dropped(&self) -> u64 {
        self.dropped
    }

    /// Register a tap on `node`.
    pub fn add_tap(&mut self, node: NodeId) -> TapId {
        let id = TapId(self.taps.len());
        self.taps.push(Tap {
            node: node.0,
            records: Vec::new(),
        });
        self.nodes[node.0].taps.push(id.0);
        id
    }

    /// Records captured by a tap so far.
    pub fn tap_records(&self, tap: TapId) -> &[TapRecord] {
        &self.taps[tap.0].records
    }

    /// Drain records captured by a tap.
    pub fn take_tap_records(&mut self, tap: TapId) -> Vec<TapRecord> {
        std::mem::take(&mut self.taps[tap.0].records)
    }

    /// Associated (not `&mut self`) so callers can observe a packet still
    /// parked in the flight slab: `nodes` and `taps` are disjoint field
    /// borrows, and the node's tap list is only read while tap storage is
    /// written — no per-packet clone of the id list.
    #[inline]
    fn record_tap(
        nodes: &[Node],
        taps: &mut [Tap],
        node: usize,
        at: SimTime,
        packet: &Packet,
        dir: TapDirection,
    ) {
        let tap_ids = &nodes[node].taps;
        if tap_ids.is_empty() {
            return;
        }
        Self::record_tap_hit(taps, tap_ids, at, packet, dir);
    }

    /// Out-of-line capture body so the untapped-node check above inlines
    /// into the send and exit paths as a single load-and-branch.
    fn record_tap_hit(
        taps: &mut [Tap],
        tap_ids: &[usize],
        at: SimTime,
        packet: &Packet,
        dir: TapDirection,
    ) {
        let record = TapRecord::capture(at, packet, dir);
        for &t in tap_ids {
            taps[t].records.push(record);
        }
    }

    /// Minimum-latency route (sequence of links) from `src` to `dst`,
    /// computed by Dijkstra over link propagation delays, interned into a
    /// shared slice, and cached — every packet on the path carries a
    /// refcount on the same allocation.
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> Option<Arc<[LinkId]>> {
        self.route_id(src, dst)
            .map(|rid| self.routes[rid as usize].clone())
    }

    /// Interned-route id for `(src, dst)`: direct-mapped memo, then hash
    /// map, then Dijkstra + interning. The id — not an `Arc` clone — is
    /// what flights carry, so the per-send fast path moves no refcount.
    fn route_id(&mut self, src: NodeId, dst: NodeId) -> Option<u32> {
        let key = ((src.0 as u64) << 32) | dst.0 as u64;
        let slot =
            (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize & (ROUTE_MEMO_SLOTS - 1);
        let (memo_key, memo_rid) = self.route_memo[slot];
        if memo_key == key {
            return Some(memo_rid);
        }
        let rid = match self.route_cache.get(&(src.0, dst.0)) {
            Some(&cached) => cached,
            None => {
                let rid = self.dijkstra(src.0, dst.0).map(|path| {
                    let rid = self.routes.len() as u32;
                    self.routes.push(Arc::from(path));
                    rid
                });
                self.route_cache.insert((src.0, dst.0), rid);
                rid
            }
        };
        if let Some(rid) = rid {
            self.route_memo[slot] = (key, rid);
        }
        rid
    }

    fn dijkstra(&self, src: usize, dst: usize) -> Option<Vec<LinkId>> {
        #[derive(PartialEq, Eq)]
        struct Entry(SimDuration, usize);
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                other.0.cmp(&self.0).then_with(|| other.1.cmp(&self.1))
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        let n = self.nodes.len();
        let mut dist = vec![SimDuration::from_secs(u64::MAX / 2_000_000_000); n];
        let mut prev: Vec<Option<LinkId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src] = SimDuration::ZERO;
        heap.push(Entry(SimDuration::ZERO, src));
        while let Some(Entry(d, u)) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            if u == dst {
                break;
            }
            for &lid in &self.adjacency[u] {
                let link = &self.links[lid.0];
                // Administratively-down links carry no routes (only
                // relevant once the cache is invalidated; see `set_down`).
                if link.config.netem.down {
                    continue;
                }
                let nd = d + link.config.delay;
                if nd < dist[link.to] {
                    dist[link.to] = nd;
                    prev[link.to] = Some(lid);
                    heap.push(Entry(nd, link.to));
                }
            }
        }
        if src != dst && prev[dst].is_none() {
            return None;
        }
        let mut route = Vec::new();
        let mut cur = dst;
        while cur != src {
            let lid = prev[cur]?;
            route.push(lid);
            cur = self.links[lid.0].from;
        }
        route.reverse();
        Some(route)
    }

    /// Send a payload from `src` to `dst`. Returns the packet sequence
    /// number, or `None` when no route exists or the first hop drops it.
    ///
    /// Accepts anything convertible into a shared buffer: a `Vec<u8>` is
    /// interned once, an `Arc<[u8]>` (e.g. a frame already emitted by
    /// transport framing, or a delivered packet's payload being relayed)
    /// is shared without copying a byte.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        ports: PortPair,
        payload: impl Into<Arc<[u8]>>,
    ) -> Option<u64> {
        let rid = self.route_id(src, dst)?;
        let route = &self.routes[rid as usize];
        assert!(!route.is_empty(), "send to self is not supported");
        let first = route[0];
        let seq = self.next_seq;
        self.next_seq += 1;
        let now = self.now();
        let packet = Packet {
            seq,
            src: self.nodes[src.0].addr,
            dst: self.nodes[dst.0].addr,
            ports,
            payload: payload.into(),
            sent_at: now,
        };
        let size = packet.wire_size();
        // Park the flight first, then observe it from the slab: with no
        // pre-move borrows of `packet`, the compiler can construct it
        // straight into the slot instead of staging it on the stack.
        let slot = self.alloc_flight(Flight {
            packet,
            route: rid,
            hop: 0,
            size,
        });
        Self::record_tap(
            &self.nodes,
            &mut self.taps,
            src.0,
            now,
            &self.flights[slot as usize]
                .as_ref()
                .expect("freshly parked flight slot is empty")
                .packet,
            TapDirection::Egress,
        );
        if trace::enabled() {
            trace::record(
                TraceKind::PacketSend,
                now.as_nanos(),
                0,
                seq,
                src.0 as u64,
                dst.0 as u64,
            );
        }
        if self.admit(slot, size, first) {
            Some(seq)
        } else {
            None
        }
    }

    /// Park a flight in the slab, reusing a freed slot when one exists.
    /// Steady-state traffic allocates nothing here: the slab grows to the
    /// in-flight high-water mark once and slots recycle LIFO.
    #[inline]
    fn alloc_flight(&mut self, flight: Flight) -> u32 {
        match self.free_flights.pop() {
            Some(slot) => {
                self.flights[slot as usize] = Some(flight);
                slot
            }
            None => {
                let slot = self.flights.len() as u32;
                self.flights.push(Some(flight));
                slot
            }
        }
    }

    /// Remove and return the flight in `slot`, releasing the slot.
    fn free_flight(&mut self, slot: u32) -> Flight {
        self.free_flights.push(slot);
        self.flights[slot as usize]
            .take()
            .expect("event referenced an empty flight slot")
    }

    /// Admit the flight in `slot` (`size` on the wire) onto link `lid`,
    /// whose position its cursor already holds. The flight stays in its
    /// slab slot for the link crossing; only a drop touches the slab.
    /// Returns false (releasing the slot) if the link dropped the packet.
    #[inline]
    fn admit(&mut self, slot: u32, size: ByteSize, lid: LinkId) -> bool {
        // Unshaped, unimpaired links (the dominant core-link case) skip
        // the serializer and netem dispatch entirely: no RNG draw, fixed
        // exit time. A transparent netem consumes nothing from the
        // stream, so the draw order is unchanged. Kept small (and the
        // general path out of line) so this arm inlines into `send` and
        // the exit handler.
        let now = self.now();
        let link = &mut self.links[lid.0];
        link.stats.offered += 1;
        link.stats.offered_bytes += size.as_bytes();
        if link.is_passthrough() {
            let exit = now + link.config.delay + link.config.netem.extra_delay;
            self.count_sent(lid, size.as_bytes());
            self.schedule_exit(lid, exit, slot);
            return true;
        }
        self.admit_impaired(now, slot, size, lid)
    }

    /// The serializing or impaired arm of [`Self::admit`], after the
    /// offer is counted.
    fn admit_impaired(&mut self, now: SimTime, slot: u32, size: ByteSize, lid: LinkId) -> bool {
        let link = &mut self.links[lid.0];
        let Some(serialized) = link.serialize(now, size) else {
            self.drop_flight(TraceKind::QueueDrop, now, lid, slot, size.as_bytes());
            return false;
        };
        match link.config.netem.apply(now, size, &mut self.rng) {
            Some(delay) => {
                let exit = serialized + link.config.delay + delay;
                self.count_sent(lid, size.as_bytes());
                self.schedule_exit(lid, exit, slot);
                true
            }
            None => {
                let stats = &mut self.links[lid.0].stats;
                stats.netem_drops += 1;
                stats.netem_dropped_bytes += size.as_bytes();
                self.drop_flight(TraceKind::PacketDrop, now, lid, slot, 0);
                false
            }
        }
    }

    /// Bookkeeping for one packet of `bytes` accepted onto link `lid`.
    #[inline]
    fn count_sent(&mut self, lid: LinkId, bytes: u64) {
        let stats = &mut self.links[lid.0].stats;
        stats.sent += 1;
        stats.bytes += bytes;
        stats.in_flight += 1;
        stats.in_flight_bytes += bytes;
    }

    /// Count a dropped flight network-wide, release its slot, and trace
    /// the drop as `kind` with `detail` in the event's last field. Queue
    /// drops (`serialize` has already counted them on the link) trace
    /// their size; netem drops trace zero.
    fn drop_flight(&mut self, kind: TraceKind, now: SimTime, lid: LinkId, slot: u32, detail: u64) {
        self.dropped += 1;
        let flight = self.free_flight(slot);
        if trace::enabled() {
            trace::record(
                kind,
                now.as_nanos(),
                0,
                flight.packet.seq,
                lid.0 as u64,
                detail,
            );
        }
    }

    /// Schedule the exit of the flight in `slot` from link `lid`, on the
    /// link's lane.
    #[inline]
    fn schedule_exit(&mut self, lid: LinkId, at: SimTime, slot: u32) {
        self.queue.schedule_fifo(lid.0, at, slot);
    }

    /// Advance the simulation to `until`, processing all traffic events.
    ///
    /// Exits pop one at a time in `(at, seq)` order. An exit a handler
    /// schedules carries a later sequence number than every pending one,
    /// so it pops after every exit already due at its instant.
    pub fn run_until(&mut self, until: SimTime) {
        let mut exits = 0u64;
        while let Some(ev) = self.queue.pop_due(until) {
            self.process_exit(ev.at, ev.payload);
            exits += 1;
        }
        if metrics::enabled() {
            if exits > 0 {
                let metrics = net_metrics();
                metrics.batch_drains.inc();
                metrics.batch_size.observe(exits);
            }
            self.publish_metrics();
        }
        // Advance the clock even if idle: a bare clock move.
        if self.queue.now() < until {
            self.queue.advance_to(until);
        }
        // Per-link byte conservation: every accepted packet is either
        // still on the wire or has exited at the tail node (observe-only).
        if sanitizer::enabled() {
            for (i, link) in self.links.iter().enumerate() {
                let s = link.stats;
                sanitizer::check(s.conserved(), "net/conservation", || {
                    format!(
                        "link {i} ({}→{}): offered={} sent={} queue_drops={} netem_drops={} \
                         exited={} in_flight={} offered_bytes={} bytes={} \
                         queue_dropped_bytes={} netem_dropped_bytes={} \
                         exited_bytes={} in_flight_bytes={}",
                        link.from,
                        link.to,
                        s.offered,
                        s.sent,
                        s.queue_drops,
                        s.netem_drops,
                        s.exited,
                        s.in_flight,
                        s.offered_bytes,
                        s.bytes,
                        s.queue_dropped_bytes,
                        s.netem_dropped_bytes,
                        s.exited_bytes,
                        s.in_flight_bytes
                    )
                });
            }
        }
    }

    /// Pop the flight in `slot` out at the tail of the link its cursor
    /// points at: exit bookkeeping, then either admission onto the next
    /// hop or delivery into the destination inbox.
    fn process_exit(&mut self, at: SimTime, slot: u32) {
        // Read the cursor — and advance it when there are hops left —
        // without evicting the flight: a forwarded packet stays in its
        // slot hop after hop.
        let (lid, next, size) = {
            let flight = self.flights[slot as usize]
                .as_mut()
                .expect("event referenced an empty flight slot");
            let route = &self.routes[flight.route as usize];
            let hop = flight.hop as usize;
            let next = route.get(hop + 1).copied();
            if next.is_some() {
                flight.hop += 1;
            }
            (route[hop], next, flight.size)
        };
        self.count_exit(lid, size.as_bytes());
        let node = self.links[lid.0].to;
        if let Some(next_lid) = next {
            let flight = self.flights[slot as usize]
                .as_ref()
                .expect("event referenced an empty flight slot");
            Self::record_tap(
                &self.nodes,
                &mut self.taps,
                node,
                at,
                &flight.packet,
                TapDirection::Transit,
            );
            self.admit(slot, size, next_lid);
        } else {
            self.deliver(at, node, slot);
        }
    }

    /// Exit bookkeeping for one packet of `bytes` leaving link `lid`.
    #[inline]
    fn count_exit(&mut self, lid: LinkId, bytes: u64) {
        let link = &mut self.links[lid.0];
        link.stats.exited += 1;
        link.stats.exited_bytes += bytes;
        link.stats.in_flight -= 1;
        link.stats.in_flight_bytes -= bytes;
    }

    /// Move the flight in `slot` into `node`'s inbox at `at`, releasing
    /// the slot: ingress tap capture and trace, then the inbox push.
    #[inline]
    fn deliver(&mut self, at: SimTime, node: usize, slot: u32) {
        let flight = self.free_flight(slot);
        Self::record_tap(
            &self.nodes,
            &mut self.taps,
            node,
            at,
            &flight.packet,
            TapDirection::Ingress,
        );
        if trace::enabled() {
            trace::record(
                TraceKind::PacketDeliver,
                at.as_nanos(),
                0,
                flight.packet.seq,
                node as u64,
                0,
            );
        }
        self.nodes[node].inbox.push_back(Delivered {
            packet: flight.packet,
            at,
        });
    }

    /// This network's current [`NetTotals`].
    fn totals(&self) -> NetTotals {
        let mut t = NetTotals {
            dropped: self.dropped,
            queue_depth: self.queue.len() as u64,
            ..NetTotals::default()
        };
        for link in &self.links {
            let s = &link.stats;
            t.packets_sent += s.sent;
            t.bytes_sent += s.bytes;
            t.bytes_exited += s.exited_bytes;
            t.in_flight_bytes += s.in_flight_bytes;
        }
        t
    }

    /// Add what changed since the last publication to the process-wide
    /// net metrics. A network that has carried nothing publishes nothing,
    /// so it registers no metric either.
    fn publish_metrics(&mut self) {
        let now = self.totals();
        let was = std::mem::replace(&mut self.published, now);
        if now == was {
            return;
        }
        let m = net_metrics();
        m.link_packets_sent.add(now.packets_sent - was.packets_sent);
        m.link_bytes_sent.add(now.bytes_sent - was.bytes_sent);
        m.link_bytes_exited.add(now.bytes_exited - was.bytes_exited);
        m.packets_dropped.add(now.dropped - was.dropped);
        m.in_flight_bytes
            .add(now.in_flight_bytes as i64 - was.in_flight_bytes as i64);
        m.queue_depth
            .add(now.queue_depth as i64 - was.queue_depth as i64);
    }

    /// Drain the inbox of `node`.
    pub fn poll_delivered(&mut self, node: NodeId) -> Vec<Delivered> {
        self.nodes[node.0].inbox.drain(..).collect()
    }

    /// Number of packets waiting in `node`'s inbox.
    pub fn inbox_len(&self, node: NodeId) -> usize {
        self.nodes[node.0].inbox.len()
    }
}

/// Publishes what the network did since its last `run_until`: sends and
/// drops after the last drain, and the traffic still in flight.
impl Drop for Network {
    fn drop(&mut self) {
        if metrics::enabled() {
            self.publish_metrics();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_core::units::ByteSize;
    use visionsim_core::units::DataRate;

    fn two_node_net(delay_ms: u64) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(1);
        let a = net.add_node("a", "test", GeoPoint::new(37.77, -122.42));
        let b = net.add_node("b", "test", GeoPoint::new(40.71, -74.01));
        net.add_duplex(a, b, LinkConfig::core(SimDuration::from_millis(delay_ms)));
        (net, a, b)
    }

    #[test]
    fn packet_arrives_after_propagation_delay() {
        let (mut net, a, b) = two_node_net(25);
        net.send(a, b, PortPair::new(1, 2), vec![0u8; 100]).unwrap();
        net.run_until(SimTime::from_millis(24));
        assert_eq!(net.inbox_len(b), 0);
        net.run_until(SimTime::from_millis(26));
        let got = net.poll_delivered(b);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].at, SimTime::from_millis(25));
    }

    #[test]
    fn multi_hop_route_accumulates_delay() {
        let mut net = Network::new(1);
        let a = net.add_node("a", "t", GeoPoint::new(37.77, -122.42));
        let r = net.add_node("r", "t", GeoPoint::new(41.88, -87.63));
        let b = net.add_node("b", "t", GeoPoint::new(40.71, -74.01));
        net.add_duplex(a, r, LinkConfig::core(SimDuration::from_millis(10)));
        net.add_duplex(r, b, LinkConfig::core(SimDuration::from_millis(15)));
        net.send(a, b, PortPair::new(1, 2), vec![0u8; 10]).unwrap();
        net.run_until(SimTime::from_secs(1));
        let got = net.poll_delivered(b);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].at, SimTime::from_millis(25));
    }

    #[test]
    fn dijkstra_picks_the_faster_path() {
        let mut net = Network::new(1);
        let a = net.add_node("a", "t", GeoPoint::new(37.77, -122.42));
        let slow = net.add_node("slow", "t", GeoPoint::new(41.88, -87.63));
        let fast = net.add_node("fast", "t", GeoPoint::new(39.0, -94.0));
        let b = net.add_node("b", "t", GeoPoint::new(40.71, -74.01));
        net.add_duplex(a, slow, LinkConfig::core(SimDuration::from_millis(50)));
        net.add_duplex(slow, b, LinkConfig::core(SimDuration::from_millis(50)));
        net.add_duplex(a, fast, LinkConfig::core(SimDuration::from_millis(10)));
        net.add_duplex(fast, b, LinkConfig::core(SimDuration::from_millis(10)));
        let route = net.route(a, b).unwrap();
        assert_eq!(route.len(), 2);
        net.send(a, b, PortPair::new(1, 2), vec![0u8; 10]).unwrap();
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.poll_delivered(b)[0].at, SimTime::from_millis(20));
    }

    #[test]
    fn no_route_returns_none() {
        let mut net = Network::new(1);
        let a = net.add_node("a", "t", GeoPoint::new(37.77, -122.42));
        let b = net.add_node("b", "t", GeoPoint::new(40.71, -74.01));
        assert!(net.route(a, b).is_none());
        assert!(net
            .send(a, b, PortPair::new(1, 2), Vec::<u8>::new())
            .is_none());
    }

    #[test]
    fn serialization_rate_bounds_throughput() {
        let mut net = Network::new(1);
        let a = net.add_node("a", "t", GeoPoint::new(37.77, -122.42));
        let b = net.add_node("b", "t", GeoPoint::new(40.71, -74.01));
        let mut cfg = LinkConfig::core(SimDuration::from_millis(1));
        cfg.rate = Some(DataRate::from_mbps(8)); // 1 MB/s
        cfg.queue_limit = ByteSize::from_mb(64);
        net.add_link(a, b, cfg);
        // 100 × 10 KB = 1 MB, takes 1 s to serialize.
        for _ in 0..100 {
            net.send(a, b, PortPair::new(1, 2), vec![0u8; 10_000 - 28])
                .unwrap();
        }
        net.run_until(SimTime::from_millis(500));
        let early = net.poll_delivered(b).len();
        assert!(early < 60, "only ~half should have arrived, got {early}");
        net.run_until(SimTime::from_secs(2));
        assert_eq!(early + net.poll_delivered(b).len(), 100);
    }

    #[test]
    fn netem_loss_drops_packets() {
        let (mut net, a, b) = two_node_net(5);
        // Find the a→b link (index 0 by construction) and set 100% loss.
        net.netem_mut(LinkId(0)).loss = 1.0;
        for _ in 0..10 {
            net.send(a, b, PortPair::new(1, 2), vec![0u8; 100]);
        }
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.poll_delivered(b).len(), 0);
        assert_eq!(net.total_dropped(), 10);
    }

    #[test]
    fn netem_extra_delay_applies_one_direction_only() {
        let (mut net, a, b) = two_node_net(5);
        net.netem_mut(LinkId(0)).extra_delay = SimDuration::from_millis(100);
        net.send(a, b, PortPair::new(1, 2), vec![0u8; 10]).unwrap();
        net.send(b, a, PortPair::new(2, 1), vec![0u8; 10]).unwrap();
        net.run_until(SimTime::from_secs(1));
        assert_eq!(net.poll_delivered(b)[0].at, SimTime::from_millis(105));
        assert_eq!(net.poll_delivered(a)[0].at, SimTime::from_millis(5));
    }

    #[test]
    fn taps_observe_all_directions() {
        let mut net = Network::new(1);
        let client = net.add_node("client", "t", GeoPoint::new(37.77, -122.42));
        let ap = net.add_node("ap", "t", GeoPoint::new(37.77, -122.42));
        let server = net.add_node("server", "t", GeoPoint::new(40.71, -74.01));
        net.add_duplex(client, ap, LinkConfig::wifi_access());
        net.add_duplex(ap, server, LinkConfig::core(SimDuration::from_millis(30)));
        let tap = net.add_tap(ap);
        net.send(client, server, PortPair::new(1, 2), vec![0u8; 100])
            .unwrap();
        net.send(server, client, PortPair::new(2, 1), vec![0u8; 200])
            .unwrap();
        net.run_until(SimTime::from_secs(1));
        let records = net.tap_records(tap);
        // AP transits both packets.
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.direction == TapDirection::Transit));
    }

    #[test]
    fn link_stats_conserve_bytes_under_jitter_and_loss() {
        let _g = visionsim_core::par::override_guard();
        sanitizer::force(Some(true));
        sanitizer::reset();
        let (mut net, a, b) = two_node_net(5);
        net.netem_mut(LinkId(0)).loss = 0.3;
        net.netem_mut(LinkId(0)).jitter = SimDuration::from_millis(3);
        for _ in 0..200 {
            net.send(a, b, PortPair::new(1, 2), vec![0u8; 100]);
        }
        net.run_until(SimTime::from_secs(2));
        let s = net.link_stats(LinkId(0));
        assert!(s.conserved(), "conservation identity broken: {s:?}");
        assert_eq!(s.in_flight, 0, "everything should have drained");
        assert!(s.netem_drops > 0, "loss never fired at 30%");
        assert!(
            sanitizer::take()
                .iter()
                .all(|v| v.site != "net/conservation"),
            "healthy run must not report conservation violations"
        );
        sanitizer::force(None);
        sanitizer::reset();
    }

    #[test]
    fn geodb_registers_every_node() {
        let (net, a, b) = two_node_net(5);
        assert!(net.geodb().lookup(net.addr(a)).is_some());
        assert!(net.geodb().lookup(net.addr(b)).is_some());
        assert_eq!(net.node_of_addr(net.addr(a)), Some(a));
    }
}
