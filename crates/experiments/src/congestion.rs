//! Closed-loop congestion control under contention.
//!
//! The paper's measurements are all of a *lone* call on a clean network;
//! every real call shares an access link with something. These scenarios
//! put the delay+loss controller ([`CongestionController`]) behind a
//! finite-queue token-bucket bottleneck ([`ShaperConfig`]) and measure the
//! closed loop end-to-end:
//!
//! * **competing-flows** — two identical VCA flows share one AP uplink;
//!   AIMD must converge them to fair shares (Jain ≥ 0.9).
//! * **cross-traffic** — an unresponsive bulk flow takes a fixed slice;
//!   the VCA flow must survive on the remainder instead of collapsing.
//! * **wifi-contention** — the bottleneck duty-cycles between a fast and
//!   a slow rate (a neighbour's transfer); the controller tracks it.
//! * **handover** — mid-call the link falls off a rate cliff and gains
//!   one-way delay (walking out of WiFi range onto cellular). Every
//!   packet the shaper drops is visible to the receiver: the seq-gap
//!   ledger ties out exactly against the link's drop counters.
//!
//! Everything is flow-level on the raw [`Network`]: packets carry
//! `(flow, seq, send-time)`, the receiver measures loss from gaps and
//! queue delay from the one-way-delay excess over its observed minimum,
//! and reports ride back through the same network on a deterministic
//! 200 ms cadence — an RTCP loop without the session machinery.

use crate::report::render_table;
use std::fmt;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::units::DataRate;
use visionsim_geo::coords::GeoPoint;
use visionsim_net::link::LinkConfig;
use visionsim_net::network::{Network, NodeId};
use visionsim_net::packet::PortPair;
use visionsim_net::shaper::ShaperConfig;
use visionsim_vca::adaptation::{CongestionController, CongestionSignals};

/// Pacing/feedback tick.
const TICK: SimDuration = SimDuration::from_millis(10);
/// Feedback cadence: one report per flow every 200 ms.
const REPORT_EVERY_TICKS: u64 = 20;
/// Media packet payload size.
const PKT_BYTES: usize = 1_200;
/// Flow-header length inside each payload: flow u32, seq u64, sent-ns u64.
const HDR: usize = 20;
/// Senders go quiet this long before the scenario end so the bottleneck
/// queue drains and the loss ledger can be read at quiescence.
const DRAIN: SimDuration = SimDuration::from_secs(2);

/// Encode a media payload of `len` bytes.
fn media_payload(flow: u32, seq: u64, now: SimTime, len: usize) -> Vec<u8> {
    let mut p = vec![0xD5u8; len.max(HDR)];
    p[0..4].copy_from_slice(&flow.to_be_bytes());
    p[4..12].copy_from_slice(&seq.to_be_bytes());
    p[12..20].copy_from_slice(&now.as_nanos().to_be_bytes());
    p
}

/// Decode a media payload header.
fn parse_media(p: &[u8]) -> Option<(u32, u64, SimTime)> {
    if p.len() < HDR {
        return None;
    }
    Some((
        u32::from_be_bytes(p[0..4].try_into().ok()?),
        u64::from_be_bytes(p[4..12].try_into().ok()?),
        SimTime::from_nanos(u64::from_be_bytes(p[12..20].try_into().ok()?)),
    ))
}

/// Encode a feedback payload: flow, loss per-mille, arrival kbps, queue
/// delay µs.
fn feedback_payload(flow: u32, loss_pm: u32, arrival_kbps: u32, queue_us: u64) -> Vec<u8> {
    let mut p = vec![0u8; 20];
    p[0..4].copy_from_slice(&flow.to_be_bytes());
    p[4..8].copy_from_slice(&loss_pm.to_be_bytes());
    p[8..12].copy_from_slice(&arrival_kbps.to_be_bytes());
    p[12..20].copy_from_slice(&queue_us.to_be_bytes());
    p
}

fn parse_feedback(p: &[u8]) -> Option<(u32, u32, u32, u64)> {
    if p.len() < 20 {
        return None;
    }
    Some((
        u32::from_be_bytes(p[0..4].try_into().ok()?),
        u32::from_be_bytes(p[4..8].try_into().ok()?),
        u32::from_be_bytes(p[8..12].try_into().ok()?),
        u64::from_be_bytes(p[12..20].try_into().ok()?),
    ))
}

/// One sending endpoint: either a controller-driven VCA flow or an
/// unresponsive constant-rate bulk flow.
struct FlowSender {
    node: NodeId,
    flow: u32,
    controller: Option<CongestionController>,
    /// Fixed rate for unresponsive flows.
    fixed: DataRate,
    /// Byte budget carried across ticks.
    budget: f64,
    seq: u64,
}

impl FlowSender {
    fn rate(&self) -> DataRate {
        match &self.controller {
            Some(c) => c.target(),
            None => self.fixed,
        }
    }
}

/// Receiver-side per-flow accounting.
#[derive(Default)]
struct FlowRx {
    highest_seq: Option<u64>,
    received: u64,
    /// Gap-inferred losses (the RTCP signal; tail losses excluded).
    gap_lost: u64,
    interval_bytes: u64,
    interval_recv: u64,
    interval_gap_lost: u64,
    /// Lifetime minimum one-way delay: the propagation floor.
    min_owd_us: u64,
    /// Most recent queue-delay estimate (owd − min owd), µs.
    queue_us: u64,
    /// All queue-delay samples, µs.
    queue_samples: Vec<u64>,
    /// Delivered kbps, sampled once per second.
    per_sec_kbps: Vec<f64>,
    sec_bytes: u64,
}

impl FlowRx {
    fn on_packet(&mut self, seq: u64, sent: SimTime, at: SimTime, wire: u64) {
        if let Some(h) = self.highest_seq {
            if seq > h + 1 {
                let gap = seq - h - 1;
                self.gap_lost += gap;
                self.interval_gap_lost += gap;
            }
        }
        self.highest_seq = Some(self.highest_seq.unwrap_or(0).max(seq));
        self.received += 1;
        self.interval_recv += 1;
        self.interval_bytes += wire;
        self.sec_bytes += wire;
        let owd_us = at.since(sent).as_nanos() / 1_000;
        if self.min_owd_us == 0 || owd_us < self.min_owd_us {
            self.min_owd_us = owd_us;
        }
        self.queue_us = owd_us.saturating_sub(self.min_owd_us);
        self.queue_samples.push(self.queue_us);
    }

    fn take_report(&mut self, interval_s: f64) -> (u32, u32, u64) {
        let total = self.interval_recv + self.interval_gap_lost;
        let loss_pm = (self.interval_gap_lost * 1_000)
            .checked_div(total)
            .unwrap_or(0) as u32;
        let kbps = (self.interval_bytes as f64 * 8.0 / 1_000.0 / interval_s).round() as u32;
        self.interval_bytes = 0;
        self.interval_recv = 0;
        self.interval_gap_lost = 0;
        (loss_pm, kbps, self.queue_us)
    }
}

/// A scheduled mid-scenario change to the bottleneck.
enum LinkEvent {
    /// Retune the shaper rate (the queue schedule is preserved).
    Rate(DataRate),
    /// Add one-way delay at the bottleneck egress.
    ExtraDelay(SimDuration),
}

/// Per-flow results.
#[derive(Debug)]
pub struct FlowOutcome {
    /// Flow label ("vca-a", "bulk", …).
    pub label: String,
    /// Whether the flow ran a controller (bulk traffic does not).
    pub responsive: bool,
    /// Mean delivered rate over the final 10 s of the active window, kbps.
    pub final_kbps: f64,
    /// Delivered kbps, one sample per second.
    pub per_sec_kbps: Vec<f64>,
    /// Packets sent / received / lost (sent − received, after drain).
    pub sent: u64,
    /// Packets received.
    pub received: u64,
    /// Packets lost end-to-end.
    pub lost: u64,
    /// Queue-delay percentiles at the receiver, µs.
    pub queue_p50_us: u64,
    /// 95th percentile queue delay, µs.
    pub queue_p95_us: u64,
    /// 99th percentile queue delay, µs.
    pub queue_p99_us: u64,
    /// Controller state transitions over the run.
    pub ctrl_switches: u32,
}

/// One scenario's results.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// Bottleneck capacity at scenario start, kbps.
    pub capacity_kbps: u64,
    /// Per-flow results.
    pub flows: Vec<FlowOutcome>,
    /// Jain fairness index across responsive flows' final-10 s rates.
    pub jain_final: f64,
    /// Packets dropped at the bottleneck queue (shaper ledger).
    pub bottleneck_queue_drops: u64,
    /// Sum of end-to-end packet losses across all flows.
    pub receiver_lost: u64,
}

/// Jain's fairness index over per-flow allocations.
pub fn jain(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Flow specification for [`run_scenario`].
struct FlowSpec {
    label: &'static str,
    /// `Some(initial)` for a controller-driven flow, `None` for bulk.
    initial: Option<DataRate>,
    /// Fixed rate for bulk flows; also the controller ceiling for
    /// responsive flows.
    rate: DataRate,
}

/// Drive one scenario: `flows` share a single shaped bottleneck of
/// `capacity`, with `events` applied to it mid-run.
fn run_scenario(
    name: &'static str,
    capacity: DataRate,
    secs: u64,
    flows: Vec<FlowSpec>,
    mut events: Vec<(SimTime, LinkEvent)>,
    seed: u64,
) -> ScenarioOutcome {
    let mut net = Network::new(seed);
    // Sources fan into an AP; the AP's single uplink to the sink is the
    // shaped bottleneck every flow shares.
    let ap = net.add_node("ap", "access", GeoPoint::new(37.77, -122.42));
    let sink = net.add_node("sink", "core", GeoPoint::new(37.78, -122.40));
    let (bottleneck, _) = net.add_duplex(ap, sink, LinkConfig::core(SimDuration::from_millis(10)));
    net.set_shaper(bottleneck, Some(ShaperConfig::new(capacity)));

    let mut senders: Vec<FlowSender> = flows
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let node = net.add_node(
                &format!("src-{}", spec.label),
                "client",
                GeoPoint::new(37.76, -122.44 + i as f64 * 0.01),
            );
            net.add_duplex(node, ap, LinkConfig::wifi_access());
            FlowSender {
                node,
                flow: i as u32,
                controller: spec.initial.map(|init| {
                    CongestionController::new(
                        i as u64,
                        spec.rate,
                        DataRate::from_kbps(150),
                        DataRate::from_kbps(50),
                    )
                    .with_initial(init)
                }),
                fixed: spec.rate,
                budget: 0.0,
                seq: 0,
            }
        })
        .collect();
    let mut rx: Vec<FlowRx> = flows.iter().map(|_| FlowRx::default()).collect();

    events.sort_by_key(|(at, _)| *at);
    let mut next_event = 0usize;
    let active = SimDuration::from_secs(secs).saturating_sub(DRAIN);
    let total_ticks = SimDuration::from_secs(secs).as_nanos() / TICK.as_nanos();
    let active_ticks = active.as_nanos() / TICK.as_nanos();
    let ticks_per_sec = SimDuration::from_secs(1).as_nanos() / TICK.as_nanos();
    let report_s = (REPORT_EVERY_TICKS * TICK.as_nanos()) as f64 / 1e9;

    for t in 0..total_ticks {
        let now = SimTime::from_nanos(t * TICK.as_nanos());

        while next_event < events.len() && events[next_event].0 <= now {
            match &events[next_event].1 {
                LinkEvent::Rate(rate) => {
                    if let Some(sh) = net.shaper_mut(bottleneck) {
                        sh.set_rate(*rate);
                    }
                }
                LinkEvent::ExtraDelay(d) => net.netem_mut(bottleneck).extra_delay = *d,
            }
            next_event += 1;
        }

        // Senders pace packets out of the controller (or fixed) budget.
        if t < active_ticks {
            for s in senders.iter_mut() {
                let refill = s.rate().as_bps() as f64 / 8.0 * TICK.as_secs_f64();
                s.budget = (s.budget + refill).min(refill * 10.0);
                while s.budget >= PKT_BYTES as f64 {
                    s.budget -= PKT_BYTES as f64;
                    let payload = media_payload(s.flow, s.seq, now, PKT_BYTES);
                    s.seq += 1;
                    net.send(
                        s.node,
                        sink,
                        PortPair::new(6_000 + s.flow as u16, 6_500),
                        payload,
                    );
                }
            }
        }

        net.run_until(now + TICK);

        // Receiver: account arrivals, one bucket per flow.
        for d in net.poll_delivered(sink) {
            if let Some((flow, seq, sent)) = parse_media(&d.packet.payload) {
                if let Some(r) = rx.get_mut(flow as usize) {
                    r.on_packet(seq, sent, d.at, d.packet.wire_size().as_bytes());
                }
            }
        }
        // Sender side: absorb feedback, step the controllers.
        for s in senders.iter_mut() {
            for d in net.poll_delivered(s.node) {
                let Some((flow, loss_pm, kbps, queue_us)) = parse_feedback(&d.packet.payload)
                else {
                    continue;
                };
                if flow != s.flow {
                    continue;
                }
                if let Some(ctrl) = &mut s.controller {
                    ctrl.on_report(
                        now,
                        &CongestionSignals {
                            loss: loss_pm as f64 / 1_000.0,
                            arrival: DataRate::from_kbps(kbps as u64),
                            queue_delay_us: queue_us,
                        },
                    );
                }
            }
        }

        // Feedback cadence: reports ride the reverse path.
        if t > 0 && t % REPORT_EVERY_TICKS == 0 {
            for (i, r) in rx.iter_mut().enumerate() {
                if senders[i].controller.is_none() {
                    continue; // bulk traffic ignores feedback
                }
                let (loss_pm, kbps, queue_us) = r.take_report(report_s);
                net.send(
                    sink,
                    senders[i].node,
                    PortPair::new(6_500, 6_000 + i as u16),
                    feedback_payload(i as u32, loss_pm, kbps, queue_us),
                );
            }
        }

        // Per-second throughput samples (active window only).
        if t > 0 && t % ticks_per_sec == 0 && t <= active_ticks {
            for r in rx.iter_mut() {
                r.per_sec_kbps.push(r.sec_bytes as f64 * 8.0 / 1_000.0);
                r.sec_bytes = 0;
            }
        }
    }
    // Drain whatever is still queued or in flight, then read the ledgers.
    let end = SimTime::from_secs(secs + 30);
    net.run_until(end);
    for d in net.poll_delivered(sink) {
        if let Some((flow, seq, sent)) = parse_media(&d.packet.payload) {
            if let Some(r) = rx.get_mut(flow as usize) {
                r.on_packet(seq, sent, d.at, d.packet.wire_size().as_bytes());
            }
        }
    }

    let stats = net.link_stats(bottleneck);
    let flows_out: Vec<FlowOutcome> = flows
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let r = &mut rx[i];
            let n = r.per_sec_kbps.len();
            let tail = &r.per_sec_kbps[n.saturating_sub(10)..];
            let final_kbps = if tail.is_empty() {
                0.0
            } else {
                tail.iter().sum::<f64>() / tail.len() as f64
            };
            let mut q = std::mem::take(&mut r.queue_samples);
            q.sort_unstable();
            let pct = |p: f64| -> u64 {
                if q.is_empty() {
                    0
                } else {
                    q[((q.len() - 1) as f64 * p).round() as usize]
                }
            };
            FlowOutcome {
                label: spec.label.to_string(),
                responsive: senders[i].controller.is_some(),
                final_kbps,
                per_sec_kbps: std::mem::take(&mut r.per_sec_kbps),
                sent: senders[i].seq,
                received: r.received,
                lost: senders[i].seq - r.received,
                queue_p50_us: pct(0.50),
                queue_p95_us: pct(0.95),
                queue_p99_us: pct(0.99),
                ctrl_switches: senders[i]
                    .controller
                    .as_ref()
                    .map_or(0, |c| c.state_changes()),
            }
        })
        .collect();
    let shares: Vec<f64> = flows_out
        .iter()
        .filter(|f| f.responsive)
        .map(|f| f.final_kbps)
        .collect();
    ScenarioOutcome {
        name,
        capacity_kbps: (capacity.as_bps() / 1_000),
        jain_final: jain(&shares),
        bottleneck_queue_drops: stats.queue_drops,
        receiver_lost: flows_out.iter().map(|f| f.lost).sum(),
        flows: flows_out,
    }
}

/// Two identical VCA flows share one uplink, starting far apart.
pub fn competing_flows(secs: u64, seed: u64) -> ScenarioOutcome {
    let cap = DataRate::from_mbps(4);
    run_scenario(
        "competing-flows",
        cap,
        secs,
        vec![
            FlowSpec {
                label: "vca-a",
                initial: Some(DataRate::from_kbps(2_500)),
                rate: cap,
            },
            FlowSpec {
                label: "vca-b",
                initial: Some(DataRate::from_kbps(500)),
                rate: cap,
            },
        ],
        vec![],
        seed,
    )
}

/// One VCA flow against an unresponsive 2.5 Mbps bulk transfer.
pub fn cross_traffic(secs: u64, seed: u64) -> ScenarioOutcome {
    let cap = DataRate::from_mbps(4);
    run_scenario(
        "cross-traffic",
        cap,
        secs,
        vec![
            FlowSpec {
                label: "vca",
                initial: Some(DataRate::from_kbps(3_000)),
                rate: cap,
            },
            FlowSpec {
                label: "bulk",
                initial: None,
                rate: DataRate::from_kbps(2_500),
            },
        ],
        vec![],
        seed,
    )
}

/// The bottleneck duty-cycles 4 ↔ 1.5 Mbps every 2 s (a contending
/// neighbour on the same AP).
pub fn wifi_contention(secs: u64, seed: u64) -> ScenarioOutcome {
    let fast = DataRate::from_mbps(4);
    let slow = DataRate::from_kbps(1_500);
    let events = (1..secs / 2)
        .map(|k| {
            let rate = if k % 2 == 1 { slow } else { fast };
            (SimTime::from_secs(k * 2), LinkEvent::Rate(rate))
        })
        .collect();
    run_scenario(
        "wifi-contention",
        fast,
        secs,
        vec![FlowSpec {
            label: "vca",
            initial: Some(DataRate::from_kbps(2_000)),
            rate: fast,
        }],
        events,
        seed,
    )
}

/// Mid-call handover: at 10 s the link falls from 4 Mbps to 1 Mbps and
/// gains 30 ms of one-way delay.
pub fn handover(secs: u64, seed: u64) -> ScenarioOutcome {
    let cap = DataRate::from_mbps(4);
    run_scenario(
        "handover",
        cap,
        secs,
        vec![FlowSpec {
            label: "vca",
            initial: Some(DataRate::from_kbps(3_000)),
            rate: cap,
        }],
        vec![
            (
                SimTime::from_secs(10),
                LinkEvent::Rate(DataRate::from_mbps(1)),
            ),
            (
                SimTime::from_secs(10),
                LinkEvent::ExtraDelay(SimDuration::from_millis(30)),
            ),
        ],
        seed,
    )
}

/// The full convergence/fairness artifact: all four scenarios.
#[derive(Debug)]
pub struct Congestion {
    /// Scenario outcomes in run order.
    pub scenarios: Vec<ScenarioOutcome>,
}

/// Run every scenario with `secs`-second runs.
pub fn run(secs: u64, seed: u64) -> Congestion {
    use visionsim_core::par::{derive_seed, par_map};
    let cells: Vec<u64> = (0..4).collect();
    let scenarios = par_map(cells, |i| {
        let s = derive_seed(seed, "congestion", i);
        match i {
            0 => competing_flows(secs, s),
            1 => cross_traffic(secs, s),
            2 => wifi_contention(secs, s),
            _ => handover(secs, s),
        }
    });
    Congestion { scenarios }
}

impl fmt::Display for Congestion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header = vec![
            "scenario".to_string(),
            "flow".to_string(),
            "final rate (kbps)".to_string(),
            "share".to_string(),
            "lost/sent".to_string(),
            "queue p50/p95/p99 (ms)".to_string(),
            "ctrl switches".to_string(),
        ];
        let mut rows = Vec::new();
        for sc in &self.scenarios {
            for fl in &sc.flows {
                rows.push(vec![
                    sc.name.to_string(),
                    fl.label.clone(),
                    format!("{:.0}", fl.final_kbps),
                    format!("{:.0}%", fl.final_kbps / sc.capacity_kbps as f64 * 100.0),
                    format!("{}/{}", fl.lost, fl.sent),
                    format!(
                        "{:.1}/{:.1}/{:.1}",
                        fl.queue_p50_us as f64 / 1_000.0,
                        fl.queue_p95_us as f64 / 1_000.0,
                        fl.queue_p99_us as f64 / 1_000.0
                    ),
                    fl.ctrl_switches.to_string(),
                ]);
            }
        }
        writeln!(
            f,
            "{}",
            render_table(
                "Closed-loop congestion control: convergence, fairness, survival",
                &header,
                &rows
            )
        )?;
        for sc in &self.scenarios {
            writeln!(
                f,
                "{}: Jain = {:.3}, bottleneck queue drops = {}, receiver-observed losses = {}",
                sc.name, sc.jain_final, sc.bottleneck_queue_drops, sc.receiver_lost
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn competing_flows_converge_to_fair_shares() {
        let out = competing_flows(40, 7);
        let cap = out.capacity_kbps as f64;
        for fl in &out.flows {
            let share = fl.final_kbps / cap;
            assert!(
                (0.40..=0.60).contains(&share),
                "{} ended at {:.0} kbps ({:.0}% of {cap})",
                fl.label,
                fl.final_kbps,
                share * 100.0
            );
        }
        assert!(out.jain_final >= 0.9, "Jain {:.3}", out.jain_final);
        // Convergence must arrive within 30 simulated seconds: both flows
        // already inside the band at the 25–30 s samples.
        for fl in &out.flows {
            let window = &fl.per_sec_kbps[25..30.min(fl.per_sec_kbps.len())];
            let mean = window.iter().sum::<f64>() / window.len() as f64;
            let share = mean / cap;
            assert!(
                (0.35..=0.65).contains(&share),
                "{} at 25–30 s: {:.0} kbps",
                fl.label,
                mean
            );
        }
    }

    #[test]
    fn competing_flows_deterministic_across_thread_counts() {
        use visionsim_core::par::set_threads;
        let _guard = visionsim_core::par::override_guard();
        let mut digests = Vec::new();
        for threads in [1usize, 4, 8] {
            set_threads(Some(threads));
            digests.push(format!("{}", run(12, 11)));
        }
        set_threads(None);
        assert_eq!(digests[0], digests[1], "1 vs 4 threads diverged");
        assert_eq!(digests[0], digests[2], "1 vs 8 threads diverged");
    }

    #[test]
    fn cross_traffic_leaves_the_vca_flow_alive() {
        let out = cross_traffic(30, 9);
        let vca = &out.flows[0];
        let bulk = &out.flows[1];
        // Bulk takes its fixed 2.5 Mbps slice of the 4 Mbps link; the
        // controller must settle into most of the remainder, not collapse
        // to its floor and not starve.
        assert!(
            (800.0..=2_200.0).contains(&vca.final_kbps),
            "vca settled at {:.0} kbps",
            vca.final_kbps
        );
        assert!(
            bulk.final_kbps > 2_000.0,
            "bulk got {:.0} kbps",
            bulk.final_kbps
        );
    }

    #[test]
    fn handover_drops_are_fully_visible_to_the_receiver() {
        let out = handover(30, 3);
        // The cliff must actually shed packets…
        assert!(out.bottleneck_queue_drops > 0, "no drops at the cliff");
        // …and each one is observable end-to-end: the only loss source is
        // the bottleneck queue, so the sent−received ledger ties out
        // exactly against the shaper's drop counter.
        assert_eq!(
            out.receiver_lost, out.bottleneck_queue_drops,
            "receiver saw {} losses, shaper recorded {} drops",
            out.receiver_lost, out.bottleneck_queue_drops
        );
    }

    #[test]
    fn wifi_contention_tracks_the_duty_cycle() {
        let out = wifi_contention(30, 5);
        let vca = &out.flows[0];
        // The controller stays live across the cycling and ends between
        // the slow and fast rates.
        assert!(
            (1_000.0..=4_000.0).contains(&vca.final_kbps),
            "ended at {:.0} kbps",
            vca.final_kbps
        );
        // It genuinely responded to the contention (anti-vacuity).
        assert!(vca.ctrl_switches > 0, "controller never reacted");
        // Queueing stayed bounded: the finite queue kept p99 under the
        // 500 ms a bufferbloated link would show.
        assert!(
            vca.queue_p99_us < 500_000,
            "queue p99 {} µs",
            vca.queue_p99_us
        );
    }

    #[test]
    fn jain_index_basics() {
        assert!((jain(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0]) - 0.5).abs() < 1e-12);
        assert_eq!(jain(&[]), 1.0);
        assert_eq!(jain(&[0.0, 0.0]), 1.0);
    }
}
