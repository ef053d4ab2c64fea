//! The allocation-regression gate.
//!
//! The zero-copy refactor's whole point is that steady-state forwarding
//! performs no per-hop heap work: payloads are `Arc<[u8]>` allocated once
//! at frame emission, routes are cached `Arc<[LinkId]>` slices, in-flight
//! state lives in a recycled slab, and tap records are inline `Copy`
//! values. This test pins that property with a counting global allocator
//! so a future "just clone it here" regression fails CI instead of
//! silently costing a malloc per packet per hop.
//!
//! Methodology: build a forwarding chain, run a warm-up burst so every
//! `Vec` in the datapath (slab, free list, queue heap, inboxes, tap
//! storage) reaches its high-water mark, then measure the allocation
//! delta across a second identical burst. The budget is
//! [`PER_HOP_ALLOC_BUDGET`] per traversed hop plus a flat slack for
//! inbox/drain bookkeeping — far below the several-allocations-per-hop
//! cost of the pre-refactor owned-`Vec` datapath.

//! Every test here holds `par::override_guard()`: the allocation counter
//! is process-global, so two tests measuring deltas concurrently would
//! pollute each other — and the tracing variant flips the process-global
//! `trace`/`metrics` force switches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::{metrics, par, trace};
use visionsim_device::device::DeviceKind;
use visionsim_geo::cities;
use visionsim_geo::coords::GeoPoint;
use visionsim_geo::sites::Provider;
use visionsim_net::link::LinkConfig;
use visionsim_net::network::{Network, NodeId, PER_HOP_ALLOC_BUDGET};
use visionsim_net::packet::PortPair;
use visionsim_vca::fleet::{run_fleet, FleetConfig};
use visionsim_vca::session::{ParticipantSpec, SessionConfig, SessionSim};

/// Counts every heap allocation made by the process.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

const HOPS: usize = 8;
const BATCH: usize = 32;

fn chain(hops: usize, tapped: bool) -> (Network, NodeId, NodeId) {
    let mut net = Network::new(7);
    let nodes: Vec<NodeId> = (0..=hops)
        .map(|i| {
            net.add_node(
                &format!("n{i}"),
                "gate",
                GeoPoint::new(37.0, -122.0 + i as f64),
            )
        })
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

/// Send `BATCH` copies of `payload` down the chain, run them to delivery,
/// and drain the destination inbox (plus taps when present).
fn burst(net: &mut Network, src: NodeId, dst: NodeId, payload: &Arc<[u8]>, taps: usize) -> usize {
    for i in 0..BATCH {
        net.send(
            src,
            dst,
            PortPair::new(5_000, 6_000 + i as u16),
            payload.clone(),
        );
    }
    net.run_until(net.now() + SimDuration::from_millis(10));
    let got = net.poll_delivered(dst).len();
    for t in 0..taps {
        net.take_tap_records(visionsim_net::tap::TapId(t));
    }
    got
}

/// The no-tap steady-state measurement, shared by the tracing-off and
/// tracing-on gates: warm up, then return the allocation delta of one
/// additional burst.
fn warmed_forwarding_delta() -> usize {
    let (mut net, src, dst) = chain(HOPS, false);
    let payload: Arc<[u8]> = vec![0xEEu8; 1_200].into();

    // Warm-up: grows the flight slab, queue heap, route cache, inboxes
    // and the destination drain vector to their steady-state capacity
    // (and, with tracing on, the preallocated event ring, the interned
    // site table, and the metrics registrations).
    for _ in 0..4 {
        assert_eq!(burst(&mut net, src, dst, &payload, 0), BATCH);
    }

    let before = allocations();
    let delivered = burst(&mut net, src, dst, &payload, 0);
    let delta = allocations() - before;
    assert_eq!(delivered, BATCH);
    delta
}

/// Budget for the no-tap burst: forwarding machinery itself must be
/// allocation-free; this covers amortized growth of reused containers plus
/// a flat slack for the drain `collect` in `poll_delivered`.
const NO_TAP_BUDGET: usize = PER_HOP_ALLOC_BUDGET * HOPS * BATCH / 8 + 16;

#[test]
fn warmed_forwarding_is_allocation_free_per_hop() {
    let _guard = par::override_guard();
    trace::force(Some(false));
    metrics::force(Some(false));
    let delta = warmed_forwarding_delta();
    trace::force(None);
    metrics::force(None);
    assert!(
        delta <= NO_TAP_BUDGET,
        "warmed no-tap burst allocated {delta} times \
         ({BATCH} packets x {HOPS} hops, budget {NO_TAP_BUDGET}); \
         the zero-copy fast path regressed"
    );
}

#[test]
fn warmed_forwarding_stays_allocation_free_with_tracing_on() {
    let _guard = par::override_guard();
    trace::force(Some(true));
    metrics::force(Some(true));
    let delta = warmed_forwarding_delta();
    trace::force(None);
    metrics::force(None);
    trace::reset();
    // The flight recorder records into a preallocated ring and bumps
    // preregistered atomics: turning it on must not add a single
    // allocation to the per-hop budget.
    assert!(
        delta <= NO_TAP_BUDGET,
        "warmed no-tap burst with tracing on allocated {delta} times \
         (budget {NO_TAP_BUDGET}); the flight recorder allocates in steady state"
    );
}

#[test]
fn tap_observation_stays_within_per_hop_budget() {
    let _guard = par::override_guard();
    trace::force(Some(false));
    metrics::force(Some(false));
    let taps = HOPS + 1;
    let (mut net, src, dst) = chain(HOPS, true);
    let payload: Arc<[u8]> = vec![0x7Au8; 1_200].into();

    for _ in 0..4 {
        assert_eq!(burst(&mut net, src, dst, &payload, taps), BATCH);
    }

    let before = allocations();
    let delivered = burst(&mut net, src, dst, &payload, taps);
    let delta = allocations() - before;
    assert_eq!(delivered, BATCH);

    // Tap records are inline `Copy` values, but draining with
    // `take_tap_records` swaps in fresh `Vec`s, so each record push can
    // hit amortized growth: budget one allocation per observed hop.
    let observations = taps * BATCH;
    let budget = PER_HOP_ALLOC_BUDGET * observations + 32;
    trace::force(None);
    metrics::force(None);
    assert!(
        delta <= budget,
        "warmed tapped burst allocated {delta} times \
         ({observations} observations, budget {budget}); \
         tap capture is no longer O(1)-allocation per record"
    );
}

#[test]
fn relaying_a_delivered_payload_allocates_nothing_for_the_bytes() {
    // Not a delta measurement, but it allocates freely — hold the guard so
    // it cannot run concurrently with one.
    let _guard = par::override_guard();
    // SFU-style relay: deliver once, re-send the same payload to a second
    // destination. The payload bytes must be shared, not copied.
    let (mut net, src, mid) = chain(2, false);
    let payload: Arc<[u8]> = vec![0x42u8; 4_096].into();
    net.send(src, mid, PortPair::new(1, 2), payload.clone());
    net.run_until(SimTime::from_millis(5));
    let d = net.poll_delivered(mid).pop().expect("delivered");
    assert!(
        Arc::ptr_eq(&d.packet.payload, &payload),
        "delivery must share the sent allocation"
    );
}

#[test]
fn a_2d_sfu_call_allocates_less_than_once_per_tap_record() {
    // An 8-party Webex call through an SFU, one Vision Pro and seven
    // MacBooks, so every persona is 2D video over RTP. Every delivered
    // packet shows up as tap records at the APs; a per-packet copy on the
    // send or receive side (building a wire image in several buffers,
    // parsing a payload out of a delivered packet) costs an allocation
    // per delivery and pushes the count past one per record.
    let _guard = par::override_guard();
    let vantages = cities::us_vantages();
    let mut cfg = SessionConfig::facetime_avp(8, &vantages, 17);
    cfg.provider = Provider::Webex;
    cfg.participants = (0..8)
        .map(|p| ParticipantSpec {
            name: format!("U{}", p + 1),
            device: if p == 0 {
                DeviceKind::VisionPro
            } else {
                DeviceKind::MacBook
            },
            city: vantages[p % vantages.len()],
        })
        .collect();
    cfg.duration = SimDuration::from_secs(2);
    let mut sim = SessionSim::new(cfg);
    let before = allocations();
    while !sim.done() {
        sim.step_tick();
    }
    let stepping = allocations() - before;
    let records: usize = sim.finish().taps.iter().map(Vec::len).sum();
    assert!(
        records > 10_000,
        "the call recorded only {records} tap records"
    );
    assert!(
        stepping < records,
        "stepping the call allocated {stepping} times for {records} tap records; \
         a per-delivery copy is back in the 2D media path"
    );
}

/// A fleet run's flat allowance: shard worlds, the link matrix, the
/// engine's mailboxes, per-site reports, and the doubling growth of every
/// container a site reuses (event heaps, session slabs, join-latency and
/// occupancy samples), which is logarithmic in what they hold. About
/// twice what the smoke fleet measures (471 at seed 2024, 8 shards).
const FLEET_SETUP_ALLOCS: usize = 1_000;

/// Arrivals per allowed allocation beyond the flat allowance. Session
/// bookkeeping reuses slab slots and keeps rosters inline, so no arrival,
/// departure or backbone message allocates; one allocation per arrival
/// (the smoke fleet sees 3,232) breaks the budget several times over.
const FLEET_ARRIVALS_PER_ALLOC: usize = 16;

#[test]
fn a_fleet_run_allocates_a_flat_setup_plus_a_small_budget_per_arrival() {
    let _guard = par::override_guard();
    // The smoke fleet, and the benchmark's fleet: paper scale at a fifth
    // of its arrival rates and capacities (about 80k arrivals).
    let mut big = FleetConfig::paper_scale(2024);
    big.base_arrival_hz /= 5.0;
    big.capacity.max_sessions /= 5;
    big.capacity.max_participants /= 5;
    for (name, cfg) in [("smoke", FleetConfig::smoke(2024)), ("fifth-scale", big)] {
        let before = allocations();
        let out = run_fleet(&cfg, 8);
        let allocs = allocations() - before;
        let arrivals = out.sites.iter().map(|s| s.arrivals).sum::<u64>() as usize;
        let budget = FLEET_SETUP_ALLOCS + arrivals / FLEET_ARRIVALS_PER_ALLOC;
        eprintln!("{name} fleet: {allocs} allocations for {arrivals} arrivals (budget {budget})");
        assert!(
            arrivals > 1_000,
            "the {name} fleet saw only {arrivals} arrivals"
        );
        assert!(
            allocs <= budget,
            "a {name} fleet run allocated {allocs} times for {arrivals} arrivals \
             (budget {budget}); session bookkeeping allocates per session again"
        );
    }
}
