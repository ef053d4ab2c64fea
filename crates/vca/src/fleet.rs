//! Fleet-scale session population: 100k+ concurrent telepresence sessions
//! over the global SFU map, run on the sharded conservative-PDES engine.
//!
//! The paper measures one session with 2–8 users; this module models the
//! *population* such sessions form in production. Each SFU site hosts a
//! deterministic arrival/departure process: sessions arrive Poisson-style
//! at the site nearest their initiator, draw a 2–8-user roster, pass
//! through the PR 8 capacity/admission envelope, hold for an
//! exponentially distributed lifetime, and depart. Remote roster members
//! attach at their own regional site, so admission, join latency, and
//! teardown all cross the backbone as [`Envelope`]s through the
//! lookahead barrier — never as shared-memory shortcuts.
//!
//! The packet-level [`crate::session::SessionRunner`] is three orders of
//! magnitude too heavy to run 100k times; sessions here are modeled at
//! the signaling/occupancy level (slots, participants, join latency),
//! which is exactly what the fleet artifact reports on.
//!
//! Determinism at any shard count rests on per-*site* isolation: each
//! site owns its RNG stream, its egress sequence counters, and its
//! counters; cross-site effects ride the engine's deterministic exchange
//! between rounds.
//!
//! Each shard's queue holds 24-byte `Copy` events, and
//! [`ShardWorld::advance`] pops one due event at a time
//! ([`EventQueue::pop_due`]) and handles it before the next pop.
//!
//! Per-session bookkeeping is O(1) and allocates nothing once a site's
//! containers reach their high-water marks: a site keeps its live
//! sessions in a generational slab (`SessionSlab`), a session's roster
//! is stored inline (at most `MAX_GROUP` users), and a departure that
//! falls after the end of the run is never scheduled, since the engine
//! would never pop it.

use std::collections::BTreeMap;

use visionsim_core::event::EventQueue;
use visionsim_core::par::derive_seed;
use visionsim_core::sanitizer;
use visionsim_core::shard::{ConservativeEngine, Envelope, ShardWorld};
use visionsim_core::stats::Percentiles;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::SimRng;
use visionsim_geo::propagation::LatencyModel;
use visionsim_geo::sites::{SiteCapacity, SiteRegistry};
use visionsim_net::xshard::{LinkMatrix, SiteEgress};

/// Fleet workload parameters.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The SFU site map (sessions arrive at every site).
    pub registry: SiteRegistry,
    /// Per-site capacity envelope (PR 8 admission applies at every site).
    pub capacity: SiteCapacity,
    /// Baseline per-site session arrival rate, sessions per second.
    pub base_arrival_hz: f64,
    /// Labels of sites that run hot (popular metros).
    pub hot_sites: Vec<&'static str>,
    /// Arrival-rate multiplier applied to hot sites.
    pub hot_multiplier: f64,
    /// Probability that a roster member is remote (attaches at another
    /// site, crossing the backbone).
    pub remote_prob: f64,
    /// Mean session lifetime.
    pub mean_lifetime: SimDuration,
    /// Lifetime floor; kept well above the worst backbone RTT so attach
    /// acknowledgements always land before the session departs.
    pub min_lifetime: SimDuration,
    /// Simulated run length.
    pub duration: SimDuration,
    /// Root seed; per-site streams derive from it collision-free.
    pub seed: u64,
}

impl FleetConfig {
    /// The ROADMAP scale target: 16 worldwide sites sized so the fleet
    /// peaks above 100k concurrent sessions / 500k participants, with
    /// the hot metros pushed into their admission envelopes.
    pub fn paper_scale(seed: u64) -> Self {
        FleetConfig {
            registry: SiteRegistry::global_fleet(),
            capacity: SiteCapacity::hyperscale(),
            base_arrival_hz: 300.0,
            hot_sites: vec!["US-W", "US-E", "EU-W", "AS-E"],
            hot_multiplier: 1.4,
            remote_prob: 0.3,
            mean_lifetime: SimDuration::from_secs(30),
            min_lifetime: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(75),
            seed,
        }
    }

    /// A seconds-long miniature with the same shape (arrivals, remote
    /// attaches, rejections) for tests and the determinism suite.
    pub fn smoke(seed: u64) -> Self {
        FleetConfig {
            registry: SiteRegistry::global_fleet(),
            capacity: SiteCapacity::regional(),
            base_arrival_hz: 16.0,
            hot_sites: vec!["US-W", "EU-W"],
            hot_multiplier: 1.5,
            remote_prob: 0.35,
            mean_lifetime: SimDuration::from_secs(6),
            min_lifetime: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(12),
            seed,
        }
    }

    fn arrival_hz(&self, label: &str) -> f64 {
        if self.hot_sites.contains(&label) {
            self.base_arrival_hz * self.hot_multiplier
        } else {
            self.base_arrival_hz
        }
    }
}

/// Signaling messages crossing the backbone between sites.
#[derive(Clone, Copy, Debug)]
pub enum FleetMsg {
    /// Home site asks a regional site to attach `count` remote roster
    /// members of `session`.
    Attach { session: u64, count: u32 },
    /// Regional site's admission verdict, returned to the home site.
    AttachAck {
        session: u64,
        count: u32,
        admitted: bool,
    },
    /// Release `count` participants previously attached here.
    Detach { count: u32 },
}

/// Per-shard event payloads. Every event names its global site.
#[derive(Clone, Copy, Debug)]
enum FleetEvent {
    /// A new session arrives at `site`.
    Arrival { site: u32 },
    /// `session` (homed at `site`) reaches end of life.
    Departure { site: u32, session: u64 },
    /// Once-a-second occupancy sample at `site`.
    Sample { site: u32 },
    /// A barrier-delivered cross-site message for `dst`.
    Msg { src: u32, dst: u32, msg: FleetMsg },
}

/// Largest roster a session draws; rosters hold 2 to `MAX_GROUP` users.
const MAX_GROUP: usize = 8;

/// One remote roster group: (site, count, admission verdict if known).
type RemoteGroup = (u32, u32, Option<bool>);

/// A live session's bookkeeping at its home site.
#[derive(Clone, Copy, Debug)]
struct SessionRec {
    arrived_at: SimTime,
    local: u32,
    /// Remote roster groups, inline: the first `n_remote` entries are
    /// live. Every roster member but the initiator may be remote.
    remote: [RemoteGroup; MAX_GROUP - 1],
    n_remote: u8,
}

impl SessionRec {
    fn remote(&self) -> &[RemoteGroup] {
        &self.remote[..self.n_remote as usize]
    }

    fn remote_mut(&mut self) -> &mut [RemoteGroup] {
        &mut self.remote[..self.n_remote as usize]
    }

    /// Count one more remote member at `dst`, opening its group if new.
    fn add_remote(&mut self, dst: u32) {
        match self.remote_mut().iter_mut().find(|(s, _, _)| *s == dst) {
            Some((_, c, _)) => *c += 1,
            None => {
                self.remote[self.n_remote as usize] = (dst, 1, None);
                self.n_remote += 1;
            }
        }
    }
}

/// A site's live sessions, keyed by session id with O(1) `insert`,
/// `get_mut` and `remove`. Slots live in a `Vec` and are reused through
/// a free list, so the slab holds no more slots than the site's peak of
/// live sessions (at most `capacity.max_sessions`).
///
/// A session id packs its slot (low 32 bits) with the slot's generation
/// (high 32 bits), which `remove` bumps. A late `AttachAck` still names
/// its departed session's id after a new session took the slot over;
/// the stale generation makes it miss, so the ack never touches the new
/// session and the compensating `Detach` still runs.
#[derive(Debug, Default)]
struct SessionSlab {
    /// Per slot: its current generation and the session it holds.
    slots: Vec<(u32, Option<SessionRec>)>,
    /// Vacant slots, reused last-freed first.
    free: Vec<u32>,
}

impl SessionSlab {
    fn insert(&mut self, rec: SessionRec) -> u64 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push((0, None));
            (self.slots.len() - 1) as u32
        });
        let (gen, held) = &mut self.slots[slot as usize];
        *held = Some(rec);
        (*gen as u64) << 32 | slot as u64
    }

    /// The slot `id` names, if its generation is still `id`'s.
    fn slot_mut(&mut self, id: u64) -> Option<&mut (u32, Option<SessionRec>)> {
        self.slots
            .get_mut(id as u32 as usize)
            .filter(|(gen, _)| *gen == (id >> 32) as u32)
    }

    /// The live session `id` names, if its slot still holds it.
    fn get_mut(&mut self, id: u64) -> Option<&mut SessionRec> {
        self.slot_mut(id)?.1.as_mut()
    }

    fn remove(&mut self, id: u64) -> Option<SessionRec> {
        let (gen, held) = self.slot_mut(id)?;
        let rec = held.take()?;
        *gen = gen.wrapping_add(1);
        self.free.push(id as u32);
        Some(rec)
    }
}

/// One SFU site: RNG stream, occupancy, counters, join-latency record.
struct SiteCell {
    site: u32,
    label: &'static str,
    rng: SimRng,
    egress: SiteEgress,
    capacity: SiteCapacity,
    arrival_gap_mean_s: f64,
    remote_prob: f64,
    mean_extra_life_s: f64,
    min_lifetime: SimDuration,
    window_start: SimTime,
    end: SimTime,

    active_sessions: u32,
    attached: u32,
    sessions: SessionSlab,
    join_ms: Percentiles,

    arrivals: u64,
    admitted_sessions: u64,
    rejected_sessions: u64,
    admitted_participants: u64,
    rejected_participants: u64,
    released_participants: u64,
    departed_sessions: u64,
    admitted_in_window: u64,

    samples: Vec<(u64, u32, u32)>,
    peak_sessions: u32,
    peak_participants: u32,
}

impl SiteCell {
    fn new(site: u32, label: &'static str, cfg: &FleetConfig) -> Self {
        let hz = cfg.arrival_hz(label);
        assert!(hz > 0.0, "site {label} has no arrival process");
        let extra = cfg
            .mean_lifetime
            .saturating_sub(cfg.min_lifetime)
            .as_secs_f64();
        SiteCell {
            site,
            label,
            rng: SimRng::seed_from_u64(derive_seed(cfg.seed, "fleet/site", site as u64)),
            egress: SiteEgress::new(site),
            capacity: cfg.capacity,
            arrival_gap_mean_s: 1.0 / hz,
            remote_prob: cfg.remote_prob,
            mean_extra_life_s: extra,
            min_lifetime: cfg.min_lifetime,
            window_start: SimTime::from_nanos(cfg.duration.as_nanos() / 2),
            end: SimTime::from_nanos(cfg.duration.as_nanos()),
            active_sessions: 0,
            attached: 0,
            sessions: SessionSlab::default(),
            join_ms: Percentiles::new(),
            arrivals: 0,
            admitted_sessions: 0,
            rejected_sessions: 0,
            admitted_participants: 0,
            rejected_participants: 0,
            released_participants: 0,
            departed_sessions: 0,
            admitted_in_window: 0,
            samples: Vec::new(),
            peak_sessions: 0,
            peak_participants: 0,
        }
    }

    /// Last-mile access round trip for one participant, in ms: a short
    /// base plus a heavy-ish exponential tail, clamped to keep the
    /// percentiles about signaling, not pathological outliers.
    fn access_rtt_ms(&mut self) -> f64 {
        (6.0 + self.rng.exponential(18.0)).min(250.0)
    }

    fn note_peaks(&mut self) {
        self.peak_sessions = self.peak_sessions.max(self.active_sessions);
        self.peak_participants = self.peak_participants.max(self.attached);
    }

    fn attach_local(&mut self, count: u32) {
        self.attached += count;
        self.admitted_participants += count as u64;
        self.note_peaks();
    }

    fn release(&mut self, count: u32) {
        sanitizer::check(
            self.attached >= count,
            "fleet/participant_conservation",
            || {
                format!(
                    "site {} releasing {count} of {} attached",
                    self.label, self.attached
                )
            },
        );
        self.attached = self.attached.saturating_sub(count);
        self.released_participants += count as u64;
    }

    /// Process one session arrival. Returns the next arrival time and,
    /// when the session was admitted, its departure `(session, at)`.
    fn on_arrival(
        &mut self,
        at: SimTime,
        n_sites: u32,
        matrix: &LinkMatrix,
        out: &mut Vec<Envelope<FleetMsg>>,
    ) -> (SimTime, Option<(u64, SimTime)>) {
        self.arrivals += 1;

        // Draw the whole roster before the admission verdict so the RNG
        // stream is consumed identically on accept and reject.
        let group = 2 + self.rng.index(MAX_GROUP - 1) as u32; // 2..=8 users
        let mut rec = SessionRec {
            arrived_at: at,
            local: 1, // the initiator is always local
            remote: [(0, 0, None); MAX_GROUP - 1],
            n_remote: 0,
        };
        let mut local_access = [0.0; MAX_GROUP];
        local_access[0] = self.access_rtt_ms();
        for _ in 1..group {
            if self.rng.chance(self.remote_prob) {
                // Any other site, uniformly.
                let mut dst = self.rng.index(n_sites as usize - 1) as u32;
                if dst >= self.site {
                    dst += 1;
                }
                rec.add_remote(dst);
            } else {
                local_access[rec.local as usize] = self.access_rtt_ms();
                rec.local += 1;
            }
        }
        let local = rec.local;
        let lifetime = SimDuration::from_nanos(self.min_lifetime.as_nanos().saturating_add(
            SimDuration::from_secs_f64(self.rng.exponential(self.mean_extra_life_s)).as_nanos(),
        ));
        let gap =
            SimDuration::from_secs_f64(self.rng.exponential(self.arrival_gap_mean_s).max(1e-6));
        let next_arrival = at.saturating_add(gap);

        // PR 8 admission: a session slot plus participant headroom for
        // the local roster.
        let admitted = self.active_sessions < self.capacity.max_sessions
            && self.attached + local <= self.capacity.max_participants;
        if !admitted {
            self.rejected_sessions += 1;
            self.rejected_participants += group as u64;
            return (next_arrival, None);
        }

        self.admitted_sessions += 1;
        if at >= self.window_start && at <= self.end {
            self.admitted_in_window += 1;
        }
        self.active_sessions += 1;
        self.attach_local(local);
        for &ms in &local_access[..local as usize] {
            self.join_ms.push(ms);
        }

        let session = self.sessions.insert(rec);
        for &(dst, count, _) in rec.remote() {
            self.egress
                .send(at, dst, matrix, FleetMsg::Attach { session, count }, out);
        }
        (next_arrival, Some((session, at.saturating_add(lifetime))))
    }

    fn on_departure(
        &mut self,
        at: SimTime,
        session: u64,
        matrix: &LinkMatrix,
        out: &mut Vec<Envelope<FleetMsg>>,
    ) {
        let Some(rec) = self.sessions.remove(session) else {
            sanitizer::report(
                "fleet/participant_conservation",
                format!(
                    "site {} departure for unknown session {session}",
                    self.label
                ),
            );
            return;
        };
        sanitizer::check(
            self.active_sessions > 0,
            "fleet/participant_conservation",
            || format!("site {} departure with zero active sessions", self.label),
        );
        self.active_sessions = self.active_sessions.saturating_sub(1);
        self.departed_sessions += 1;
        self.release(rec.local);
        for &(dst, count, verdict) in rec.remote() {
            // Unadmitted (or still-pending) remote groups hold no slots
            // at the remote site; a late AttachAck for a departed session
            // triggers the compensating Detach below instead.
            if verdict == Some(true) {
                self.egress
                    .send(at, dst, matrix, FleetMsg::Detach { count }, out);
            }
        }
    }

    fn on_msg(
        &mut self,
        at: SimTime,
        src: u32,
        msg: FleetMsg,
        matrix: &LinkMatrix,
        out: &mut Vec<Envelope<FleetMsg>>,
    ) {
        match msg {
            FleetMsg::Attach { session, count } => {
                let admitted = self.attached + count <= self.capacity.max_participants;
                if admitted {
                    self.attach_local(count);
                } else {
                    self.rejected_participants += count as u64;
                }
                self.egress.send(
                    at,
                    src,
                    matrix,
                    FleetMsg::AttachAck {
                        session,
                        count,
                        admitted,
                    },
                    out,
                );
            }
            FleetMsg::AttachAck {
                session,
                count,
                admitted,
            } => match self.sessions.get_mut(session) {
                Some(rec) => {
                    if let Some(group) = rec
                        .remote_mut()
                        .iter_mut()
                        .find(|(s, c, v)| *s == src && *c == count && v.is_none())
                    {
                        group.2 = Some(admitted);
                    }
                    if admitted {
                        let backbone_ms = at.since(rec.arrived_at).as_millis_f64();
                        for _ in 0..count {
                            let ms = backbone_ms + self.access_rtt_ms();
                            self.join_ms.push(ms);
                        }
                    }
                }
                None => {
                    // Session already departed (only possible when a
                    // lifetime undercuts the backbone RTT); give the slots
                    // back rather than leaking them.
                    if admitted {
                        self.egress
                            .send(at, src, matrix, FleetMsg::Detach { count }, out);
                    }
                }
            },
            FleetMsg::Detach { count } => self.release(count),
        }
    }

    fn on_sample(&mut self, at: SimTime) {
        sanitizer::check(
            self.attached as u64 + self.released_participants == self.admitted_participants,
            "fleet/participant_conservation",
            || {
                format!(
                    "site {}: attached {} + released {} != admitted {}",
                    self.label,
                    self.attached,
                    self.released_participants,
                    self.admitted_participants
                )
            },
        );
        sanitizer::check(
            self.attached <= self.capacity.max_participants
                && self.active_sessions <= self.capacity.max_sessions,
            "fleet/participant_conservation",
            || {
                format!(
                    "site {} over envelope: {} sessions / {} participants",
                    self.label, self.active_sessions, self.attached
                )
            },
        );
        self.samples.push((
            at.as_nanos() / 1_000_000_000,
            self.active_sessions,
            self.attached,
        ));
    }

    fn into_report(mut self) -> SiteReport {
        let (join_p50_ms, join_p99_ms) = if self.join_ms.is_empty() {
            (0.0, 0.0)
        } else {
            (self.join_ms.percentile(50.0), self.join_ms.percentile(99.0))
        };
        SiteReport {
            label: self.label,
            arrivals: self.arrivals,
            admitted_sessions: self.admitted_sessions,
            rejected_sessions: self.rejected_sessions,
            admitted_participants: self.admitted_participants,
            rejected_participants: self.rejected_participants,
            departed_sessions: self.departed_sessions,
            admitted_in_window: self.admitted_in_window,
            peak_sessions: self.peak_sessions,
            peak_participants: self.peak_participants,
            join_p50_ms,
            join_p99_ms,
            join_samples: self.join_ms.into_sorted(),
            samples: self.samples,
        }
    }
}

/// One shard: a subset of sites plus a private event queue.
pub struct FleetShard {
    cells: Vec<SiteCell>,
    /// Global site index → local cell index (`usize::MAX` = foreign).
    local_of: Vec<usize>,
    matrix: LinkMatrix,
    n_sites: u32,
    queue: EventQueue<FleetEvent>,
    end: SimTime,
}

impl FleetShard {
    fn new(cfg: &FleetConfig, matrix: LinkMatrix, my_sites: &[u32], n_sites: u32) -> Self {
        let sites = cfg.registry.sites();
        let mut local_of = vec![usize::MAX; n_sites as usize];
        let mut cells = Vec::with_capacity(my_sites.len());
        let mut queue = EventQueue::new();
        for (local, &site) in my_sites.iter().enumerate() {
            local_of[site as usize] = local;
            let mut cell = SiteCell::new(site, sites[site as usize].label, cfg);
            // Every site starts its arrival process and its once-a-second
            // occupancy sampler. The first arrival gap comes from the
            // site's own stream, like every later one.
            let first_gap =
                SimDuration::from_secs_f64(cell.rng.exponential(cell.arrival_gap_mean_s).max(1e-6));
            queue.schedule(
                SimTime::ZERO.saturating_add(first_gap),
                FleetEvent::Arrival { site },
            );
            queue.schedule(SimTime::ZERO, FleetEvent::Sample { site });
            cells.push(cell);
        }
        FleetShard {
            cells,
            local_of,
            matrix,
            n_sites,
            queue,
            end: SimTime::from_nanos(cfg.duration.as_nanos()),
        }
    }

    fn handle(&mut self, at: SimTime, ev: FleetEvent, out: &mut Vec<Envelope<FleetMsg>>) {
        match ev {
            FleetEvent::Arrival { site } => {
                let local = self.local_of[site as usize];
                let (next_arrival, departure) =
                    self.cells[local].on_arrival(at, self.n_sites, &self.matrix, out);
                if next_arrival <= self.end {
                    self.queue
                        .schedule(next_arrival, FleetEvent::Arrival { site });
                }
                // Like an arrival after `end`, a departure after it would
                // never pop: leaving it out keeps the heap shallower and
                // changes no order among the events that do pop.
                if let Some((session, dep_at)) = departure {
                    if dep_at <= self.end {
                        self.queue
                            .schedule(dep_at, FleetEvent::Departure { site, session });
                    }
                }
            }
            FleetEvent::Departure { site, session } => {
                let local = self.local_of[site as usize];
                self.cells[local].on_departure(at, session, &self.matrix, out);
            }
            FleetEvent::Sample { site } => {
                let local = self.local_of[site as usize];
                self.cells[local].on_sample(at);
                let next = at.saturating_add(SimDuration::from_secs(1));
                if next <= self.end {
                    self.queue.schedule(next, FleetEvent::Sample { site });
                }
            }
            FleetEvent::Msg { src, dst, msg } => {
                let local = self.local_of[dst as usize];
                self.cells[local].on_msg(at, src, msg, &self.matrix, out);
            }
        }
    }
}

impl ShardWorld for FleetShard {
    type Msg = FleetMsg;

    fn next_event(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Envelopes arrive in the engine's `(deliver_at, src_site, src_seq)`
    /// order, so scheduling each on arrival keeps same-instant messages
    /// in that order.
    fn deliver(&mut self, env: Envelope<FleetMsg>) {
        self.queue.schedule(
            env.deliver_at,
            FleetEvent::Msg {
                src: env.src_site,
                dst: env.dst_site,
                msg: env.msg,
            },
        );
    }

    fn advance(&mut self, horizon: SimTime, out: &mut Vec<Envelope<FleetMsg>>) {
        while let Some(ev) = self.queue.pop_due(horizon) {
            self.handle(ev.at, ev.payload, out);
        }
    }
}

/// Per-site results, in global site order.
#[derive(Clone, Debug)]
pub struct SiteReport {
    pub label: &'static str,
    pub arrivals: u64,
    pub admitted_sessions: u64,
    pub rejected_sessions: u64,
    pub admitted_participants: u64,
    pub rejected_participants: u64,
    pub departed_sessions: u64,
    /// Sessions admitted during the steady-state window
    /// `[duration/2, duration]`.
    pub admitted_in_window: u64,
    pub peak_sessions: u32,
    pub peak_participants: u32,
    pub join_p50_ms: f64,
    pub join_p99_ms: f64,
    /// Per-participant join latencies (ms) in ascending order, for
    /// fleet-wide percentiles.
    pub join_samples: Vec<f64>,
    /// Once-a-second occupancy: (second, active sessions, participants).
    pub samples: Vec<(u64, u32, u32)>,
}

/// What one fleet run produced.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    pub sites: Vec<SiteReport>,
    /// Barrier rounds the engine stepped.
    pub rounds: u64,
    /// Cross-site envelopes exchanged.
    pub messages: u64,
    /// The lookahead used (min backbone one-way latency).
    pub lookahead: SimDuration,
    pub duration: SimDuration,
}

impl FleetOutcome {
    /// Peak fleet-wide concurrency, from the per-second samples:
    /// `(sessions, participants)` at the busiest sampled second.
    pub fn peak_concurrency(&self) -> (u64, u64) {
        let mut by_sec: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for site in &self.sites {
            for &(sec, sessions, participants) in &site.samples {
                let e = by_sec.entry(sec).or_insert((0, 0));
                e.0 += sessions as u64;
                e.1 += participants as u64;
            }
        }
        by_sec
            .values()
            .copied()
            .max_by_key(|&(s, p)| (s, p))
            .unwrap_or((0, 0))
    }

    /// Steady-state admitted-session throughput over the second half of
    /// the run, in sessions per *simulated* second (deterministic; the
    /// wall-clock figure lives in BENCH.json, not in artifacts).
    pub fn steady_sessions_per_sec(&self) -> f64 {
        let window_s = self.duration.as_secs_f64() / 2.0;
        if window_s <= 0.0 {
            return 0.0;
        }
        let admitted: u64 = self.sites.iter().map(|s| s.admitted_in_window).sum();
        admitted as f64 / window_s
    }
}

/// Partition the sites round-robin over `n_shards` shards, run the
/// conservative engine to `cfg.duration`, and collect per-site reports
/// in global site order (independent of the partition).
pub fn run_fleet(cfg: &FleetConfig, n_shards: usize) -> FleetOutcome {
    let sites = cfg.registry.sites();
    let n = sites.len();
    assert!(n > 1, "a fleet needs at least two sites");
    let n_shards = n_shards.clamp(1, n);
    let model = LatencyModel::default();
    let matrix = LinkMatrix::from_fn(n, |a, b| {
        model.one_way(&sites[a].location(), &sites[b].location())
    });
    let lookahead = matrix.min_latency();

    let site_shard: Vec<usize> = (0..n).map(|s| s % n_shards).collect();
    let worlds: Vec<FleetShard> = (0..n_shards)
        .map(|sh| {
            let mine: Vec<u32> = (0..n as u32)
                .filter(|&s| site_shard[s as usize] == sh)
                .collect();
            FleetShard::new(cfg, matrix.clone(), &mine, n as u32)
        })
        .collect();

    let mut engine = ConservativeEngine::new(worlds, site_shard.clone(), lookahead);
    let report = engine.run_until(SimTime::from_nanos(cfg.duration.as_nanos()));

    // Reassemble per-site reports in global site order regardless of how
    // the partition scattered them.
    let mut slots: Vec<Option<SiteReport>> = (0..n).map(|_| None).collect();
    for world in engine.into_worlds() {
        let local_of = world.local_of.clone();
        let mut cells: Vec<Option<SiteCell>> = world.cells.into_iter().map(Some).collect();
        for (site, &local) in local_of.iter().enumerate() {
            if local != usize::MAX {
                let cell = cells[local].take().expect("cell taken once");
                slots[site] = Some(cell.into_report());
            }
        }
    }
    let sites = slots
        .into_iter()
        .map(|s| s.expect("every site assigned to exactly one shard"))
        .collect();

    FleetOutcome {
        sites,
        rounds: report.rounds,
        messages: report.messages,
        lookahead,
        duration: cfg.duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Digest of everything observable in an outcome (ignores nothing
    /// but float formatting noise — values print with full precision).
    fn digest(out: &FleetOutcome) -> String {
        let mut s = String::new();
        for site in &out.sites {
            s.push_str(&format!(
                "{} a{} as{} rs{} ap{} rp{} dp{} w{} ps{} pp{} p50{:.6} p99{:.6} n{}\n",
                site.label,
                site.arrivals,
                site.admitted_sessions,
                site.rejected_sessions,
                site.admitted_participants,
                site.rejected_participants,
                site.departed_sessions,
                site.admitted_in_window,
                site.peak_sessions,
                site.peak_participants,
                site.join_p50_ms,
                site.join_p99_ms,
                site.join_samples.len(),
            ));
            for &(sec, a, p) in &site.samples {
                s.push_str(&format!("  {sec}:{a}/{p}\n"));
            }
        }
        s.push_str(&format!("rounds {} msgs {}\n", out.rounds, out.messages));
        s
    }

    #[test]
    fn smoke_fleet_runs_and_conserves_participants() {
        sanitizer::force(Some(true));
        sanitizer::reset();
        let out = run_fleet(&FleetConfig::smoke(11), 4);
        assert_eq!(
            sanitizer::total(),
            0,
            "conservation identities failed: {:?}",
            sanitizer::take()
        );
        sanitizer::force(None);
        sanitizer::reset();

        let arrivals: u64 = out.sites.iter().map(|s| s.arrivals).sum();
        assert!(arrivals > 100, "smoke fleet saw only {arrivals} arrivals");
        assert!(out.rounds > 0);
        assert!(out.messages > 0, "remote attaches must cross the backbone");
        let (peak_sessions, peak_participants) = out.peak_concurrency();
        assert!(peak_sessions > 0);
        assert!(
            peak_participants >= peak_sessions * 2,
            "groups are >= 2 users"
        );
        // The regional capacity envelope (64 sessions) must bind at the
        // hot sites, exercising rejection.
        assert!(
            out.sites.iter().any(|s| s.rejected_sessions > 0),
            "smoke config is meant to overrun the regional envelope"
        );
        assert!(out.steady_sessions_per_sec() > 0.0);
    }

    #[test]
    fn fleet_outcome_is_invariant_across_shard_counts() {
        let baseline = digest(&run_fleet(&FleetConfig::smoke(7), 1));
        for shards in [2usize, 5, 16] {
            let d = digest(&run_fleet(&FleetConfig::smoke(7), shards));
            assert_eq!(d, baseline, "{shards} shards diverged from 1");
        }
    }

    #[test]
    fn join_latency_includes_backbone_for_remote_members() {
        // With remote attaches forced on, p99 join latency must reflect
        // at least one backbone round trip above the pure-access baseline.
        let mut cfg = FleetConfig::smoke(3);
        cfg.remote_prob = 0.9;
        let remote_heavy = run_fleet(&cfg, 2);
        cfg.remote_prob = 0.0;
        let local_only = run_fleet(&cfg, 2);
        let p99 = |o: &FleetOutcome| {
            let mut all = Percentiles::from_samples(
                o.sites
                    .iter()
                    .flat_map(|s| s.join_samples.clone())
                    .collect(),
            );
            all.percentile(99.0)
        };
        assert!(
            p99(&remote_heavy) > p99(&local_only),
            "backbone RTTs must be visible in the join-latency tail"
        );
        assert_eq!(
            local_only.messages, 0,
            "no remote members, no backbone traffic"
        );
    }
}
