//! The telepresence session runner.
//!
//! Builds the full measured system end-to-end on the simulated network:
//!
//! ```text
//! sensors → semantic/video encoder → packetizer → QUIC/RTP framing
//!   → client ──WiFi── AP ──WAN── SFU server ──WAN── AP ──WiFi── client
//!   → reassembly → decode → visibility pipeline → frame-cost model
//! ```
//!
//! with Wireshark-style taps at every AP, per-second receiver feedback
//! (in-band RTCP receiver reports for 2D sessions) driving rate
//! adaptation, the receiver-side persona availability state machine for
//! spatial sessions (faithful to the paper: the semantic sender has no
//! feedback loop to close — "poor connection" is a receiver UI state),
//! Opus-class audio alongside every video/persona stream, and `tc`-style
//! impairments attachable to any participant's uplink.

use crate::adaptation::{
    CongestionController, CongestionSignals, DegradationLadder, PersonaAvailability, PersonaMode,
    PersonaState, RateController, ReceiverReport,
};
use crate::encoder::{VideoEncoder, VideoEncoderConfig};
use crate::profile::{AppProfile, PersonaType, Topology};
use crate::scene::{GazeDynamics, SeatingLayout};
use crate::server::{
    AssignmentPolicy, ReconnectPhase, Reconnector, ResilienceConfig, ServerAssignment,
    SiteDirectory,
};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use visionsim_core::metrics::{self, Class};
use visionsim_core::sanitizer;
use visionsim_core::rng::SimRng;
use visionsim_core::time::{SimDuration, SimTime};
use visionsim_core::trace::{self, TraceKind};
use visionsim_core::units::DataRate;
use visionsim_device::device::{Device, DeviceKind};
use visionsim_geo::cities::City;
use visionsim_geo::geodb::{GeoDb, NetAddr};
use visionsim_geo::propagation::LatencyModel;
use visionsim_geo::sites::{Provider, ServerSite, SiteRegistry};
use visionsim_net::fault::{apply_to_netem, FaultEvent, FaultKind, FaultPlan};
use visionsim_net::link::{LinkConfig, LinkId};
use visionsim_net::netem::Netem;
use visionsim_net::network::{Network, NodeId};
use visionsim_net::packet::PortPair;
use visionsim_net::tap::{TapId, TapRecord};
use visionsim_render::cost::CostModel;
use visionsim_render::counters::SessionCounters;
use visionsim_render::visibility::{PersonaInstance, VisibilityFlags, VisibilityPipeline};
use visionsim_semantic::codec::{SemanticCodec, SemanticConfig};
use visionsim_semantic::packetize::{Fragment, FrameAssembler, Packetizer};
use visionsim_sensor::capture::RgbdCapture;
use visionsim_sensor::motion::MotionConfig;
use visionsim_transport::cipher;
use visionsim_transport::quic::QuicStreamSender;
use visionsim_transport::rtp::{RtpHeader, RtpStream, RTP_HEADER_LEN};

/// Cached handles into the metrics registry for the session layer. All
/// [`Class::Sim`]: derived purely from seeded simulation state.
struct VcaMetrics {
    pli_sent: metrics::Counter,
    keyframes_forced: metrics::Counter,
    mode_switches: metrics::Counter,
    failovers: metrics::Counter,
    fault_onsets: metrics::Counter,
    fault_recoveries: metrics::Counter,
}

fn vca_metrics() -> &'static VcaMetrics {
    static M: OnceLock<VcaMetrics> = OnceLock::new();
    M.get_or_init(|| VcaMetrics {
        pli_sent: metrics::counter("vca/pli_sent", Class::Sim),
        keyframes_forced: metrics::counter("vca/keyframes_forced", Class::Sim),
        mode_switches: metrics::counter("vca/mode_switches", Class::Sim),
        failovers: metrics::counter("vca/failovers", Class::Sim),
        fault_onsets: metrics::counter("vca/fault_onsets", Class::Sim),
        fault_recoveries: metrics::counter("vca/fault_recoveries", Class::Sim),
    })
}

/// One participant's specification.
#[derive(Clone, Debug)]
pub struct ParticipantSpec {
    /// Display name ("U1").
    pub name: String,
    /// Device kind.
    pub device: DeviceKind,
    /// Where the participant is.
    pub city: City,
}

/// Session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Which application.
    pub provider: Provider,
    /// Participants; index 0 initiates the session.
    pub participants: Vec<ParticipantSpec>,
    /// Session length.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Server assignment policy.
    pub policy: AssignmentPolicy,
    /// Uplink shaping, per participant: (participant index, rate) —
    /// `tc tbf` on each listed uplink. Any subset of participants may be
    /// shaped in the same session.
    pub uplink_limits: Vec<(usize, DataRate)>,
    /// Seating layout for spatial rendering.
    pub layout: SeatingLayout,
    /// Visibility optimizations active on the headsets.
    pub visibility: VisibilityFlags,
    /// Chaos schedules, per participant: (participant index, plan). Netem
    /// events mutate that participant's access link as virtual time
    /// advances; `ServerDown` events take out the SFU site the participant
    /// is attached to (everyone stranded there reconnects through the
    /// session's [`SiteDirectory`]). Events due at a tick apply before
    /// that tick's first send, so a [`FaultPlan::delay_spike`] at t = 0
    /// held for the whole session is a static `tc netem delay` on the
    /// uplink.
    pub fault_plans: Vec<(usize, FaultPlan)>,
    /// Close the congestion loop: receivers send RTCP XR reports
    /// (jitter + arrival rate) alongside their RRs, every sender runs a
    /// delay+loss [`CongestionController`], spatial senders pace to its
    /// target, and the degradation ladder folds sustained congestion into
    /// its spatial→2D decision. Shaped uplinks get a finite-queue token
    /// bucket (real drops) instead of the open-loop netem rate limit.
    pub congestion_control: bool,
}

impl SessionConfig {
    /// A two-party session between `a_city` and `b_city` on `provider`,
    /// with the given device kinds. The first participant initiates.
    pub fn two_party(
        provider: Provider,
        a: (DeviceKind, City),
        b: (DeviceKind, City),
        seed: u64,
    ) -> Self {
        SessionConfig {
            provider,
            participants: vec![
                ParticipantSpec {
                    name: "U1".into(),
                    device: a.0,
                    city: a.1,
                },
                ParticipantSpec {
                    name: "U2".into(),
                    device: b.0,
                    city: b.1,
                },
            ],
            duration: SimDuration::from_secs(30),
            seed,
            policy: AssignmentPolicy::NearestToInitiator,
            uplink_limits: Vec::new(),
            layout: SeatingLayout::Arc,
            visibility: VisibilityFlags::vision_pro(),
            fault_plans: Vec::new(),
            congestion_control: false,
        }
    }

    /// An all-Vision-Pro FaceTime session with `n` users in the given
    /// cities (cycled if fewer cities than users).
    pub fn facetime_avp(n: usize, cities: &[City], seed: u64) -> Self {
        assert!(n >= 2, "a session needs at least two users");
        let participants = (0..n)
            .map(|i| ParticipantSpec {
                name: format!("U{}", i + 1),
                device: DeviceKind::VisionPro,
                city: cities[i % cities.len()],
            })
            .collect();
        SessionConfig {
            provider: Provider::FaceTime,
            participants,
            duration: SimDuration::from_secs(30),
            seed,
            policy: AssignmentPolicy::NearestToInitiator,
            uplink_limits: Vec::new(),
            layout: SeatingLayout::Arc,
            visibility: VisibilityFlags::vision_pro(),
            fault_plans: Vec::new(),
            congestion_control: false,
        }
    }
}

/// What a finished session exposes to the measurement tooling.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The persona type the session delivered.
    pub persona_type: PersonaType,
    /// The media topology used.
    pub topology: Topology,
    /// Server assignment (None for P2P).
    pub assignment: Option<ServerAssignment>,
    /// AP tap captures, per participant.
    pub taps: Vec<Vec<TapRecord>>,
    /// Client addresses, per participant (the capture "subject").
    pub client_addrs: Vec<NetAddr>,
    /// Render counters per participant (populated for Vision Pro receivers
    /// in spatial sessions).
    pub counters: Vec<SessionCounters>,
    /// Persona availability timeline per participant (receiver side).
    pub availability: Vec<Vec<(SimTime, PersonaState)>>,
    /// Encoded semantic frame sizes observed at senders (spatial only).
    pub semantic_frame_sizes: Vec<usize>,
    /// Semantic decode calls the session made: one per frame that at least
    /// one receiver completed, however many receivers completed it.
    pub semantic_decodes: u64,
    /// End-to-end semantic-frame latency samples per receiving
    /// participant, milliseconds: capture tick → frame fully reassembled
    /// (spatial sessions only). Motion-to-photon adds up to one display
    /// frame plus the ~12 ms passthrough pipeline on top.
    pub e2e_latency_ms: Vec<visionsim_core::stats::Percentiles>,
    /// The geolocation database covering every node in the session.
    pub geodb: GeoDb,
    /// Final encoder quality per participant (2D only; 1.0 otherwise).
    pub final_quality: Vec<f64>,
    /// Rendering-mode timeline per participant (spatial sessions): the
    /// graceful-degradation ladder's decisions at each feedback interval.
    pub mode_log: Vec<Vec<(SimTime, PersonaMode)>>,
    /// Spatial→2D fallback transitions per participant.
    pub fallbacks: Vec<u32>,
    /// Encoder quality per feedback interval per participant (2D only).
    pub quality_log: Vec<Vec<(SimTime, f64)>>,
    /// SFU failovers that happened: (completion time, new site label).
    pub failovers: Vec<(SimTime, String)>,
    /// PLI keyframe requests sent per participant (as receiver).
    pub pli_sent: Vec<u64>,
    /// Keyframes forced by incoming PLIs per participant (as sender).
    pub keyframes_forced: Vec<u64>,
    /// Reconnect episodes (SFU sessions; empty when no site died). A
    /// participant appears once per outage that hit their site.
    pub reconnects: Vec<ReconnectSummary>,
    /// Admissions the session's site directory refused (0 for P2P).
    pub admission_rejects: u64,
}

/// One participant's reconnect episode, summarized for the tooling.
#[derive(Clone, Debug)]
pub struct ReconnectSummary {
    /// Which participant.
    pub participant: usize,
    /// Attempts fired.
    pub attempts: u32,
    /// Attempts refused (admission reject or no live candidate).
    pub rejected: u32,
    /// Where the machine ended: reattached, abandoned, or still waiting
    /// when the session closed.
    pub phase: ReconnectPhase,
    /// Site death → reattached, when the episode completed.
    pub rejoin: Option<SimDuration>,
}

impl SessionOutcome {
    /// Fraction of the session each participant's incoming personas were
    /// available.
    pub fn availability_fraction(&self, participant: usize) -> f64 {
        let timeline = &self.availability[participant];
        if timeline.is_empty() {
            return 1.0;
        }
        let up = timeline
            .iter()
            .filter(|(_, s)| *s == PersonaState::Available)
            .count();
        up as f64 / timeline.len() as f64
    }

    /// Fraction of the session a participant rendered the full spatial
    /// persona (1.0 when the mode log is empty — 2D sessions have no
    /// ladder).
    pub fn spatial_fraction(&self, participant: usize) -> f64 {
        let timeline = &self.mode_log[participant];
        if timeline.is_empty() {
            return 1.0;
        }
        let spatial = timeline
            .iter()
            .filter(|(_, m)| *m == PersonaMode::Spatial)
            .count();
        spatial as f64 / timeline.len() as f64
    }
}

/// Per-sender media state.
#[allow(clippy::large_enum_variant)] // one Spatial per participant; boxing buys nothing
enum SenderState {
    Spatial {
        capture: RgbdCapture,
        codec: SemanticCodec,
        packetizer: Packetizer,
        quic: QuicStreamSender,
    },
    Video {
        encoder: VideoEncoder,
        rtp: RtpStream,
        controller: RateController,
    },
}

/// Per-receiver bookkeeping for one remote sender.
struct ReceiverPeer {
    assembler: FrameAssembler,
    /// RTP loss tracking.
    last_seq: Option<u16>,
    lost: u64,
    received: u64,
    /// Bytes received this feedback interval.
    interval_bytes: u64,
    /// Semantic-frame loss tracking: highest completed frame id, and this
    /// interval's completed/lost counts. Loss is inferred from id gaps —
    /// the way a real receiver tells loss from latency.
    last_frame_id: Option<u64>,
    frames_completed_interval: u64,
    frames_lost_interval: u64,
    abandoned_snapshot: u64,
    /// When the last PLI was sent toward this sender (rate-limits keyframe
    /// requests during a sustained loss burst).
    last_pli_at: Option<SimTime>,
    /// Congestion-signal tracking for XR extended reports: bytes this XR
    /// interval, last packet arrival, and the RFC 3550-style smoothed
    /// interarrival jitter (µs) — the receiver's queue-delay observable.
    xr_bytes: u64,
    last_arrival: Option<SimTime>,
    mean_gap_us: f64,
    jitter_us: f64,
}

impl ReceiverPeer {
    fn new() -> Self {
        ReceiverPeer {
            assembler: FrameAssembler::new(),
            last_seq: None,
            lost: 0,
            received: 0,
            interval_bytes: 0,
            last_frame_id: None,
            frames_completed_interval: 0,
            frames_lost_interval: 0,
            abandoned_snapshot: 0,
            last_pli_at: None,
            xr_bytes: 0,
            last_arrival: None,
            mean_gap_us: 0.0,
            jitter_us: 0.0,
        }
    }

    /// Record a media arrival for the congestion observables.
    fn on_arrival(&mut self, at: SimTime, wire_bytes: u64) {
        self.xr_bytes += wire_bytes;
        if let Some(last) = self.last_arrival {
            let gap = at.since(last).as_nanos() as f64 / 1_000.0;
            if self.mean_gap_us == 0.0 {
                self.mean_gap_us = gap;
            }
            let dev = (gap - self.mean_gap_us).abs();
            // RFC 3550 §6.4.1-shaped smoothing (gain 1/16).
            self.jitter_us += (dev - self.jitter_us) / 16.0;
            self.mean_gap_us += (gap - self.mean_gap_us) / 16.0;
        }
        self.last_arrival = Some(at);
    }

    /// This interval's XR payload: (jitter µs, arrival kbps), draining the
    /// byte counter. `interval_s` is the XR cadence.
    fn take_xr(&mut self, interval_s: f64) -> (u32, u32) {
        let kbps = (self.xr_bytes as f64 * 8.0 / 1_000.0 / interval_s).round() as u32;
        self.xr_bytes = 0;
        (self.jitter_us.round() as u32, kbps)
    }

    /// Record a completed semantic frame, inferring losses from id gaps.
    fn on_frame_complete(&mut self, frame_id: u64) {
        if let Some(last) = self.last_frame_id {
            if frame_id > last + 1 {
                self.frames_lost_interval += frame_id - last - 1;
            }
        }
        self.last_frame_id = Some(self.last_frame_id.unwrap_or(0).max(frame_id));
        self.frames_completed_interval += 1;
    }

    /// This interval's completeness, draining the interval counters.
    fn take_interval_completeness(&mut self) -> f64 {
        let abandoned_now = self.assembler.abandoned();
        let abandoned_delta = abandoned_now - self.abandoned_snapshot;
        self.abandoned_snapshot = abandoned_now;
        let complete = self.frames_completed_interval;
        let lost = self.frames_lost_interval + abandoned_delta;
        self.frames_completed_interval = 0;
        self.frames_lost_interval = 0;
        if complete + lost == 0 {
            // Total starvation: nothing even attempted to arrive.
            return 0.0;
        }
        complete as f64 / (complete + lost) as f64
    }
}

/// The session engine.
pub struct SessionRunner {
    config: SessionConfig,
}

const QUIC_PORT: u16 = 443;
const RTP_PORT: u16 = 5_004;
/// RTCP rides on the RTP port + 1, per convention.
const RTCP_PORT: u16 = 5_005;
/// The port plan's roster limit. Senders are told apart by source port:
/// one block of this many ports each for media, audio and RTCP, so a
/// larger session would overlap the blocks and misattribute streams.
pub const MAX_PARTICIPANTS: usize = 200;
const MEDIA_PORT_BASE: u16 = 5_000;
const AUDIO_PORT_BASE: u16 = MEDIA_PORT_BASE + MAX_PARTICIPANTS as u16;
const RTCP_PORT_BASE: u16 = AUDIO_PORT_BASE + MAX_PARTICIPANTS as u16;
const SESSION_KEY: cipher::Key = [0x5E; 32];

/// Which stream a source port identifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamKind {
    /// The persona/video media stream.
    Media,
    /// The Opus-class audio stream.
    Audio,
    /// RTCP feedback.
    Feedback,
}

/// Decode a source port into (sender index, stream kind).
fn sender_of(src_port: u16, n: usize) -> Option<(usize, StreamKind)> {
    for (base, kind) in [
        (MEDIA_PORT_BASE, StreamKind::Media),
        (AUDIO_PORT_BASE, StreamKind::Audio),
        (RTCP_PORT_BASE, StreamKind::Feedback),
    ] {
        if src_port >= base && ((src_port - base) as usize) < n {
            return Some(((src_port - base) as usize, kind));
        }
    }
    None
}

/// Opus-class audio: one ~88 B frame every other display tick (≈45 pps,
/// ≈32 kbps before encapsulation).
const AUDIO_PAYLOAD: usize = 88;
const AUDIO_EVERY_TICKS: u64 = 2;

/// The wire image of one RTP packet: `header`, then `len` bytes of `fill`.
/// It is assembled in `buf` (cleared first, capacity reused across the
/// tick) and copied once into the shared buffer that every hop and SFU
/// fan-out copy of the packet reads.
fn rtp_wire(buf: &mut Vec<u8>, header: RtpHeader, fill: u8, len: usize) -> std::sync::Arc<[u8]> {
    buf.clear();
    buf.extend_from_slice(&header.to_bytes());
    buf.resize(RTP_HEADER_LEN + len, fill);
    std::sync::Arc::from(&buf[..])
}

/// Uplink rate below which the spatial persona cannot be sustained
/// (paper §4.3: the persona needs ~0.67 Mbps; below ~700 kbps it fails).
/// The congestion loop feeds `target / floor` into the degradation ladder.
const SPATIAL_FLOOR_KBPS: u64 = 700;

impl SessionRunner {
    /// A runner for `config`.
    pub fn new(config: SessionConfig) -> Self {
        assert!(
            config.participants.len() >= 2,
            "a session needs at least two participants"
        );
        SessionRunner { config }
    }

    /// Run the session to completion.
    ///
    /// Batch path: builds a [`SessionSim`] and steps it to the end in a
    /// tight loop. Byte-identical to the pre-stepper monolithic loop —
    /// the setup, per-tick body, and tail run in the same order with the
    /// same RNG draws; only the stack frame boundaries moved.
    pub fn run(self) -> SessionOutcome {
        let mut sim = SessionSim::new(self.config);
        while !sim.done() {
            sim.step_tick();
        }
        sim.finish()
    }
}

/// The session engine as an incremental stepper.
///
/// [`SessionRunner::run`] drives it to completion for the batch path; the
/// live service drives it one [`step_tick`](SessionSim::step_tick) at a
/// time, slaved to a wall clock, injecting faults between ticks via
/// [`inject_fault`](SessionSim::inject_fault). All fields are the former
/// locals of the monolithic run loop; the split into `new`/`step_tick`/
/// `finish` preserves their exact initialization and update order.
pub struct SessionSim {
    config: SessionConfig,
    n: usize,
    persona_type: PersonaType,
    topology: Topology,
    rng: SimRng,
    latency: LatencyModel,
    net: Network,
    clients: Vec<NodeId>,
    aps: Vec<NodeId>,
    tap_ids: Vec<TapId>,
    access_links: Vec<(LinkId, LinkId)>,
    locations: Vec<visionsim_geo::coords::GeoPoint>,
    site_nodes: HashMap<&'static str, NodeId>,
    backbone_pairs: HashSet<(NodeId, NodeId)>,
    assignment: Option<ServerAssignment>,
    servers: Vec<NodeId>,
    audio_quic: Vec<QuicStreamSender>,
    audio_rtp: Vec<RtpStream>,
    senders: Vec<SenderState>,
    receivers: Vec<HashMap<usize, ReceiverPeer>>,
    persona_positions: Vec<visionsim_mesh::geometry::Vec3>,
    seat_drift: Vec<visionsim_mesh::geometry::Vec3>,
    pipeline: VisibilityPipeline,
    cost_model: CostModel,
    gazes: Vec<GazeDynamics>,
    counters: Vec<SessionCounters>,
    availability: Vec<PersonaAvailability>,
    availability_log: Vec<Vec<(SimTime, PersonaState)>>,
    rx_bytes_since_frame: Vec<usize>,
    semantic_frame_sizes: Vec<usize>,
    frame_sent_at: Vec<Vec<(SimTime, bool)>>,
    e2e_latency_ms: Vec<visionsim_core::stats::Percentiles>,
    fault_plans: Vec<(usize, FaultPlan)>,
    ladders: Vec<DegradationLadder>,
    mode_log: Vec<Vec<(SimTime, PersonaMode)>>,
    quality_log: Vec<Vec<(SimTime, f64)>>,
    dead_sites: Vec<&'static str>,
    dead_nodes: HashSet<NodeId>,
    failovers: Vec<(SimTime, String)>,
    directory: Option<SiteDirectory>,
    reconnectors: Vec<Reconnector>,
    next_probe: SimTime,
    pli_sent: Vec<u64>,
    keyframes_forced: Vec<u64>,
    controllers: Vec<Option<CongestionController>>,
    last_rr_loss: Vec<f64>,
    pace_budget: Vec<f64>,
    tick: SimDuration,
    total_ticks: u64,
    feedback_every: u64,
    t: u64,
}

impl SessionSim {
    /// Build the session world: topology, media state, chaos state, and
    /// the congestion loop — everything up to (but not including) the
    /// first tick.
    pub fn new(config: SessionConfig) -> SessionSim {
        assert!(
            (2..=MAX_PARTICIPANTS).contains(&config.participants.len()),
            "a session needs 2..={MAX_PARTICIPANTS} participants, got {}",
            config.participants.len()
        );
        let cfg = &config;
        let n = cfg.participants.len();
        let profile = AppProfile::of(cfg.provider);
        let devices: Vec<Device> = cfg
            .participants
            .iter()
            .map(|p| Device::new(p.device, &p.name))
            .collect();
        let persona_type = profile.persona_type(&devices);
        let topology = profile.topology(&devices);

        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let latency = LatencyModel::default();
        let mut net = Network::new(cfg.seed ^ 0x005E_5510);

        // --- Topology construction -----------------------------------
        let mut clients = Vec::with_capacity(n);
        let mut aps = Vec::with_capacity(n);
        let mut tap_ids: Vec<TapId> = Vec::with_capacity(n);
        // Access link ids per participant (uplink, downlink) — the chaos
        // engine's fault plans mutate these mid-run.
        let mut access_links: Vec<(LinkId, LinkId)> = Vec::with_capacity(n);
        for p in &cfg.participants {
            let client = net.add_node(
                &format!("{} ({})", p.name, p.device),
                "client",
                p.city.location,
            );
            let ap = net.add_node(&format!("{} AP", p.name), "access", p.city.location);
            let (up, down) = net.add_duplex(client, ap, LinkConfig::wifi_access());
            // tc attaches at the client's uplink egress. With the
            // congestion loop closed, the limit is a real token bucket
            // with a finite queue (tc tbf): overload produces drops and
            // queuing delay the receiver can observe and report, instead
            // of the open-loop netem serializer.
            for (idx, rate) in &cfg.uplink_limits {
                if *idx == clients.len() {
                    if cfg.congestion_control {
                        net.set_shaper(
                            up,
                            Some(visionsim_net::shaper::ShaperConfig::new(*rate)),
                        );
                    } else {
                        *net.netem_mut(up) = Netem::with_rate_limit(*rate);
                    }
                }
            }
            tap_ids.push(net.add_tap(ap));
            clients.push(client);
            aps.push(ap);
            access_links.push((up, down));
        }

        // The measured system only has the US fleet; the geo-distributed
        // policy (the paper's proposed fix) brings the worldwide fleet.
        let registry = match cfg.policy {
            AssignmentPolicy::NearestToInitiator => SiteRegistry::us_fleet(),
            AssignmentPolicy::GeoDistributed => SiteRegistry::geo_distributed(cfg.provider),
        };
        let locations: Vec<_> = cfg.participants.iter().map(|p| p.city.location).collect();
        // Site bookkeeping persists past construction: SFU failover adds
        // sites (and backbone links) mid-run.
        let mut site_nodes: HashMap<&'static str, NodeId> = HashMap::new();
        let mut backbone_pairs: HashSet<(NodeId, NodeId)> = HashSet::new();
        let (assignment, servers): (Option<ServerAssignment>, Vec<NodeId>) = match topology {
            Topology::P2P => {
                // Direct AP↔AP core path.
                for i in 0..n {
                    for j in i + 1..n {
                        let d = latency.one_way(&locations[i], &locations[j]);
                        net.add_duplex(aps[i], aps[j], LinkConfig::core(d));
                    }
                }
                (None, vec![])
            }
            Topology::Sfu => {
                let assignment = ServerAssignment::assign_with_salt(
                    cfg.policy,
                    &registry,
                    cfg.provider,
                    &locations,
                    cfg.seed,
                );
                // One node per distinct site; APs link to their attachment.
                for site in assignment.distinct_sites() {
                    let node = net.add_node(
                        &format!("{} {}", site.provider, site.label),
                        &format!("{}", site.provider),
                        site.location(),
                    );
                    site_nodes.insert(site.label, node);
                }
                let mut attach_nodes = Vec::with_capacity(n);
                for (i, site) in assignment.attachments.iter().enumerate() {
                    let node = site_nodes[site.label];
                    let d = latency.one_way(&locations[i], &site.location());
                    net.add_duplex(aps[i], node, LinkConfig::core(d));
                    attach_nodes.push(node);
                }
                // Private backbone between distinct sites (lower stretch).
                let distinct = assignment.distinct_sites();
                for i in 0..distinct.len() {
                    for j in i + 1..distinct.len() {
                        let (a, b) = (
                            site_nodes[distinct[i].label],
                            site_nodes[distinct[j].label],
                        );
                        let d = latency
                            .one_way(&distinct[i].location(), &distinct[j].location())
                            .mul_f64(0.8);
                        net.add_duplex(a, b, LinkConfig::core(d));
                        backbone_pairs.insert((a.min(b), a.max(b)));
                    }
                }
                (Some(assignment), attach_nodes)
            }
        };

        // --- Media state ----------------------------------------------
        // Audio senders: a QUIC stream alongside the persona stream for
        // spatial sessions, an RTP/Opus flow otherwise.
        let audio_quic: Vec<QuicStreamSender> = (0..n)
            .map(|i| QuicStreamSender::new(sender_dcid(i), 1, SESSION_KEY))
            .collect();
        let audio_rtp: Vec<RtpStream> = (0..n)
            .map(|i| RtpStream::new(
                visionsim_transport::rtp::PayloadType::OpusAudio,
                0x1000 + i as u32,
                48_000,
            ))
            .collect();
        let senders: Vec<SenderState> = (0..n)
            .map(|i| match persona_type {
                PersonaType::Spatial => SenderState::Spatial {
                    capture: RgbdCapture::new(MotionConfig::default()),
                    codec: SemanticCodec::new(SemanticConfig::default()),
                    packetizer: Packetizer::new(),
                    quic: QuicStreamSender::new(sender_dcid(i), 0, SESSION_KEY),
                },
                PersonaType::TwoD => {
                    let enc_cfg = VideoEncoderConfig::new(
                        profile.resolution_2d,
                        profile.fps_2d,
                        profile.bits_per_pixel,
                    );
                    let full = enc_cfg.bitrate_at(1.0);
                    SenderState::Video {
                        encoder: VideoEncoder::new(enc_cfg),
                        rtp: RtpStream::video(profile.video_pt, i as u32 + 1),
                        controller: RateController::new(full, DataRate::from_kbps(150)),
                    }
                }
            })
            .collect();

        // receivers[r] maps sender index → peer state.
        let receivers: Vec<HashMap<usize, ReceiverPeer>> = (0..n)
            .map(|r| {
                (0..n)
                    .filter(|&s| s != r)
                    .map(|s| (s, ReceiverPeer::new()))
                    .collect()
            })
            .collect();

        // Rendering state per participant (spatial sessions, AVP devices).
        // Seating with natural irregularity: nobody sits on an exact arc.
        // Radius and azimuth jitter per persona, plus slow in-seat drift
        // during the session — together these give Figure 6(a)'s triangle
        // distributions their spread.
        let persona_positions: Vec<_> = cfg
            .layout
            .positions(n - 1, 1.4)
            .into_iter()
            .map(|p| {
                let scale = rng.jitter(1.0, 0.12) as f32;
                visionsim_mesh::geometry::Vec3::new(
                    p.x * scale + rng.normal(0.0, 0.08) as f32,
                    p.y + rng.normal(0.0, 0.03) as f32,
                    p.z * scale,
                )
            })
            .collect();
        let seat_drift: Vec<visionsim_mesh::geometry::Vec3> =
            vec![visionsim_mesh::geometry::Vec3::ZERO; n - 1];
        let pipeline = VisibilityPipeline::new(cfg.visibility);
        let cost_model = CostModel::default();
        // Gaze targets: the remote personas, plus a shared-content window
        // off to the side attended ~15% of the time (FaceTime sessions
        // share apps/whiteboards; attention regularly leaves every
        // persona, which is what gives foveation its Figure 6 bite even in
        // two-party calls).
        let ambient = visionsim_mesh::geometry::Vec3::new(0.5, -0.8, -1.0);
        let gazes: Vec<GazeDynamics> = (0..n)
            .map(|_| {
                let mut g =
                    GazeDynamics::new(persona_positions.clone()).with_ambient(ambient, 0.15);
                // Attention shifts quicken as the group grows (more people
                // to track in conversation).
                g.mean_dwell_s = if n > 2 { 1.4 } else { 2.0 };
                g
            })
            .collect();
        let counters: Vec<SessionCounters> = (0..n).map(|_| SessionCounters::new()).collect();
        let availability: Vec<PersonaAvailability> =
            (0..n).map(|_| PersonaAvailability::new()).collect();
        let availability_log: Vec<Vec<(SimTime, PersonaState)>> = vec![Vec::new(); n];
        let rx_bytes_since_frame: Vec<usize> = vec![0; n];
        let semantic_frame_sizes: Vec<usize> = Vec::new();
        // Semantic frame ids are assigned sequentially per sender; log the
        // capture instant of each so receivers can measure end-to-end
        // latency on completion, and whether any receiver has decoded it.
        let frame_sent_at: Vec<Vec<(SimTime, bool)>> = vec![Vec::new(); n];
        let e2e_latency_ms: Vec<visionsim_core::stats::Percentiles> =
            (0..n).map(|_| visionsim_core::stats::Percentiles::new()).collect();

        // --- Chaos state ------------------------------------------------
        let fault_plans: Vec<(usize, FaultPlan)> = cfg.fault_plans.clone();
        // Graceful degradation: spatial → 2D fallback per participant.
        let ladders: Vec<DegradationLadder> =
            (0..n).map(|_| DegradationLadder::new()).collect();
        let mode_log: Vec<Vec<(SimTime, PersonaMode)>> = vec![Vec::new(); n];
        let quality_log: Vec<Vec<(SimTime, f64)>> = vec![Vec::new(); n];
        // SFU failover: sites currently dead and nodes to stop forwarding
        // from. Every SFU session carries a control-plane directory over
        // its provider's fleet, seeded with the initial attachments so
        // admission sees real load, plus one reconnect state machine per
        // stranded participant.
        let dead_sites: Vec<&'static str> = Vec::new();
        let dead_nodes: HashSet<NodeId> = HashSet::new();
        let failovers: Vec<(SimTime, String)> = Vec::new();
        let directory: Option<SiteDirectory> = assignment.as_ref().map(|a| {
            let mut dir = SiteDirectory::new(&registry, cfg.provider, ResilienceConfig::default());
            for (p, site) in a.attachments.iter().enumerate() {
                dir.try_admit(site.label, 0, p as u64, SimTime::ZERO);
            }
            dir
        });
        let reconnectors: Vec<Reconnector> = Vec::new();
        let next_probe = SimTime::ZERO;
        // PLI recovery accounting.
        let pli_sent = vec![0u64; n];
        let keyframes_forced = vec![0u64; n];

        // --- Congestion loop state --------------------------------------
        // One delay+loss controller per sender when the loop is closed.
        // The spatial ceiling sits above the nominal ~0.67 Mbps persona
        // rate so an unconstrained uplink keeps full fidelity; the 2D
        // ceiling is the encoder's own top rung.
        let controllers: Vec<Option<CongestionController>> = (0..n)
            .map(|i| {
                if !cfg.congestion_control {
                    return None;
                }
                let (max, min, start) = match persona_type {
                    PersonaType::Spatial => (
                        DataRate::from_kbps(1_200),
                        DataRate::from_kbps(200),
                        DataRate::from_kbps(800),
                    ),
                    PersonaType::TwoD => {
                        let full = VideoEncoderConfig::new(
                            profile.resolution_2d,
                            profile.fps_2d,
                            profile.bits_per_pixel,
                        )
                        .bitrate_at(1.0);
                        (full, DataRate::from_kbps(150), full)
                    }
                };
                Some(
                    CongestionController::new(i as u64, max, min, DataRate::from_kbps(50))
                        .with_initial(start),
                )
            })
            .collect();
        // Loss fraction from the newest RR, paired with the next XR into
        // one controller signal.
        let last_rr_loss: Vec<f64> = vec![0.0; n];
        // Spatial pacing: a per-sender byte budget refilled at the
        // controller target; capture ticks are skipped while it is spent.
        let pace_budget: Vec<f64> = vec![0.0; n];

        let tick = SimDuration::FRAME_90FPS;
        let total_ticks = cfg.duration.as_nanos() / tick.as_nanos();
        let feedback_every = 90u64; // ~1 s
        SessionSim {
            n,
            persona_type,
            topology,
            rng,
            latency,
            net,
            clients,
            aps,
            tap_ids,
            access_links,
            locations,
            site_nodes,
            backbone_pairs,
            assignment,
            servers,
            audio_quic,
            audio_rtp,
            senders,
            receivers,
            persona_positions,
            seat_drift,
            pipeline,
            cost_model,
            gazes,
            counters,
            availability,
            availability_log,
            rx_bytes_since_frame,
            semantic_frame_sizes,
            frame_sent_at,
            e2e_latency_ms,
            fault_plans,
            ladders,
            mode_log,
            quality_log,
            dead_sites,
            dead_nodes,
            failovers,
            directory,
            reconnectors,
            next_probe,
            pli_sent,
            keyframes_forced,
            controllers,
            last_rr_loss,
            pace_budget,
            tick,
            total_ticks,
            feedback_every,
            t: 0,
            config,
        }
    }

    /// Whether every tick has been stepped.
    pub fn done(&self) -> bool {
        self.t >= self.total_ticks
    }

    /// Simulated time at the *next* tick boundary (the time `step_tick`
    /// will advance through).
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.t * self.tick.as_nanos())
    }

    /// Ticks stepped so far and the configured total.
    pub fn progress(&self) -> (u64, u64) {
        (self.t, self.total_ticks)
    }

    /// Participant count.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Queue a fault plan against `participant`, effective from the next
    /// tick — the live service's `fault` command lands here between
    /// pacing ticks. Events already in the past fire on the next step.
    pub fn inject_fault(&mut self, participant: usize, plan: FaultPlan) {
        assert!(
            participant < self.n,
            "fault target {participant} out of range (session has {} participants)",
            self.n
        );
        self.fault_plans.push((participant, plan));
    }

    /// Advance the session by one display tick (1/90 s of simulated
    /// time). A no-op once [`done`](SessionSim::done) reports true.
    pub fn step_tick(&mut self) {
        if self.t >= self.total_ticks {
            return;
        }
        let SessionSim {
            config,
            n,
            persona_type,
            topology,
            rng,
            latency,
            net,
            clients,
            aps,
            access_links,
            locations,
            site_nodes,
            backbone_pairs,
            servers,
            audio_quic,
            audio_rtp,
            senders,
            receivers,
            persona_positions,
            seat_drift,
            pipeline,
            cost_model,
            gazes,
            counters,
            availability,
            availability_log,
            rx_bytes_since_frame,
            semantic_frame_sizes,
            frame_sent_at,
            e2e_latency_ms,
            fault_plans,
            ladders,
            mode_log,
            quality_log,
            dead_sites,
            dead_nodes,
            failovers,
            directory,
            reconnectors,
            next_probe,
            pli_sent,
            keyframes_forced,
            controllers,
            last_rr_loss,
            pace_budget,
            tick,
            feedback_every,
            t,
            ..
        } = self;
        let cfg: &SessionConfig = config;
        // The body below is the former monolithic loop body, verbatim:
        // the scalar copies keep the loop's local names compiling.
        let n = *n;
        let persona_type = *persona_type;
        let topology = *topology;
        let tick = *tick;
        let feedback_every = *feedback_every;
        let t = *t;
        {
            let now = SimTime::from_nanos(t * tick.as_nanos());
            // Where this tick's RTP wire images are assembled (see `rtp_wire`).
            let mut wire_buf: Vec<u8> = Vec::new();

            // Chaos engine: apply every fault event due by now.
            for (idx, plan) in fault_plans.iter_mut() {
                let due: Vec<FaultEvent> = plan.due(now).to_vec();
                for ev in due {
                    if ev.kind.is_recovery() {
                        vca_metrics().fault_recoveries.inc();
                    } else {
                        vca_metrics().fault_onsets.inc();
                    }
                    if trace::enabled() {
                        let kind = if ev.kind.is_recovery() {
                            TraceKind::FaultRecovery
                        } else {
                            TraceKind::FaultOnset
                        };
                        trace::record(
                            kind,
                            now.as_nanos(),
                            trace::intern(ev.kind.name()),
                            *idx as u64,
                            0,
                            0,
                        );
                    }
                    let (up, down) = access_links[*idx];
                    match ev.kind {
                        FaultKind::ServerDown { detect, reconnect } => {
                            // Take out the SFU site this participant is
                            // attached to; everyone attached there goes
                            // dark until a reconnect machine gets them
                            // admitted elsewhere. P2P sessions have no
                            // site to lose (and no directory).
                            let Some(dir) = directory.as_mut() else {
                                continue;
                            };
                            let victim = servers[*idx];
                            if !dead_nodes.insert(victim) {
                                continue;
                            }
                            let label = site_nodes
                                .iter()
                                .find(|(_, &node)| node == victim)
                                .map(|(&label, _)| label)
                                .expect("every SFU server is a site node");
                            dead_sites.push(label);
                            for lid in net.links_of(victim) {
                                net.set_down(lid, true);
                            }
                            // The directory learns the outage (ground
                            // truth; probes lag). Each stranded
                            // participant's first attempt fires after the
                            // detect + reconnect lag.
                            dir.set_site_up(label, false);
                            for p in (0..n).filter(|&p| servers[p] == victim) {
                                dir.detach(label, 0);
                                reconnectors.push(Reconnector::new(
                                    p as u64,
                                    now,
                                    now + detect + reconnect,
                                    dir.config().backoff,
                                    dir.config().rejoin_budget,
                                    cfg.seed,
                                ));
                            }
                        }
                        // Radio outages cut both directions of the access
                        // link; every other impairment applies at the
                        // uplink egress, where tc attaches.
                        FaultKind::LinkDown | FaultKind::LinkUp => {
                            apply_to_netem(net.netem_mut(up), &ev.kind);
                            apply_to_netem(net.netem_mut(down), &ev.kind);
                        }
                        _ => apply_to_netem(net.netem_mut(up), &ev.kind),
                    }
                }
            }

            // SFU failover: probe the fleet on its cadence, then fire every
            // due reconnect attempt through the directory. Candidate
            // selection routes around dead, observed-down and breaker-open
            // sites, and admission may still refuse; refusals reschedule
            // per backoff until the rejoin budget runs out. The candidate
            // is anchored where the assignment policy anchors placement:
            // the initiator under NearestToInitiator (what §4.1 measured),
            // the participant under GeoDistributed.
            if let Some(dir) = directory.as_mut() {
                if now >= *next_probe {
                    dir.probe_tick(now);
                    *next_probe = now + dir.config().probe_every;
                }
                let mut cohorts: Vec<(ServerSite, Vec<usize>)> = Vec::new();
                for rec in reconnectors.iter_mut().filter(|r| r.due(now)) {
                    let p = rec.participant() as usize;
                    let anchor = match cfg.policy {
                        AssignmentPolicy::NearestToInitiator => &locations[0],
                        AssignmentPolicy::GeoDistributed => &locations[p],
                    };
                    let Some(site) = dir.attempt_reconnect(rec, anchor, dead_sites, 0, now) else {
                        continue;
                    };
                    match cohorts.iter_mut().find(|(s, _)| s.label == site.label) {
                        Some((_, cohort)) => cohort.push(p),
                        None => cohorts.push((site, vec![p])),
                    }
                }
                // One failover per site per tick: everyone admitted to a
                // site this tick moves as one cohort — their access links,
                // then the backbone extended to every other live site in
                // node order, then one failover record.
                for (site, cohort) in cohorts {
                    let node = *site_nodes.entry(site.label).or_insert_with(|| {
                        net.add_node(
                            &format!("{} {}", site.provider, site.label),
                            &format!("{}", site.provider),
                            site.location(),
                        )
                    });
                    for &p in &cohort {
                        let d = latency.one_way(&locations[p], &site.location());
                        net.add_duplex(aps[p], node, LinkConfig::core(d));
                        servers[p] = node;
                    }
                    let mut others: Vec<NodeId> = site_nodes
                        .values()
                        .copied()
                        .filter(|&s| s != node && !dead_nodes.contains(&s))
                        .collect();
                    others.sort_unstable();
                    for other in others {
                        let pair = (node.min(other), node.max(other));
                        if backbone_pairs.insert(pair) {
                            let d = latency
                                .one_way(
                                    &site.location(),
                                    &net.geodb()
                                        .lookup(net.addr(other))
                                        .map(|e| e.location)
                                        .unwrap_or_else(|| site.location()),
                                )
                                .mul_f64(0.8);
                            net.add_duplex(node, other, LinkConfig::core(d));
                        }
                    }
                    vca_metrics().failovers.inc();
                    if trace::enabled() {
                        trace::record(
                            TraceKind::SfuFailover,
                            now.as_nanos(),
                            trace::intern(site.label),
                            cohort.len() as u64,
                            0,
                            0,
                        );
                    }
                    failovers.push((now, site.label.to_string()));
                }
                // Participant conservation: once per feedback interval the
                // sanitizer checks nobody has vanished — every participant
                // is attached to a live site, waiting on a reconnect
                // machine, or abandoned.
                if t > 0 && t % feedback_every == 0 {
                    let mut attached = 0usize;
                    let mut reconnecting = 0usize;
                    let mut abandoned = 0usize;
                    for (p, server) in servers.iter().enumerate().take(n) {
                        if !dead_nodes.contains(server) {
                            attached += 1;
                            continue;
                        }
                        match reconnectors
                            .iter()
                            .rev()
                            .find(|r| r.participant() == p as u64)
                            .map(|r| r.phase())
                        {
                            Some(ReconnectPhase::Waiting { .. }) => reconnecting += 1,
                            Some(ReconnectPhase::Abandoned { .. }) => abandoned += 1,
                            _ => {}
                        }
                    }
                    sanitizer::check(
                        attached + reconnecting + abandoned == n,
                        "vca/participant_conservation",
                        || {
                            format!(
                                "attached {attached} + reconnecting {reconnecting} \
                                 + abandoned {abandoned} != joined {n}"
                            )
                        },
                    );
                }
            }

            // Senders.
            for (i, state) in senders.iter_mut().enumerate() {
                match state {
                    SenderState::Spatial {
                        capture,
                        codec,
                        packetizer,
                        quic,
                    } => {
                        // Controller pacing: the budget refills at the
                        // target rate (capped at ~100 ms of burst) and a
                        // frame spends its wire bytes; capture ticks are
                        // skipped while the budget is in deficit. Frame
                        // ids stay aligned because a skipped tick assigns
                        // no id.
                        if let Some(ctrl) = &controllers[i] {
                            let refill =
                                ctrl.target().as_bps() as f64 / 8.0 * tick.as_secs_f64();
                            pace_budget[i] = (pace_budget[i] + refill).min(refill * 9.0);
                            if pace_budget[i] < 0.0 {
                                continue;
                            }
                        }
                        let frame = capture.next_frame(rng).persona_subset();
                        let payload = codec.encode(&frame);
                        semantic_frame_sizes.push(payload.len());
                        frame_sent_at[i].push((now, false));
                        let dst = match topology {
                            Topology::Sfu => servers[i],
                            Topology::P2P => clients[1 - i],
                        };
                        for frag in packetizer.split(&payload) {
                            let wire = quic.send(frag.to_bytes());
                            if controllers[i].is_some() {
                                pace_budget[i] -= wire.len() as f64;
                            }
                            net.send(
                                clients[i],
                                dst,
                                PortPair::new(MEDIA_PORT_BASE + i as u16, QUIC_PORT),
                                wire,
                            );
                        }
                    }
                    SenderState::Video { encoder, rtp, .. } => {
                        // 2D persona runs at 30 FPS: every third tick.
                        if t % 3 != 0 {
                            continue;
                        }
                        let size = encoder.next_frame(rng).as_bytes() as usize;
                        let dst = match topology {
                            Topology::Sfu => servers[i],
                            Topology::P2P => clients[1 - i],
                        };
                        let chunks = size.div_ceil(1_200).max(1);
                        for c in 0..chunks {
                            let len = if c + 1 == chunks {
                                size - 1_200 * (chunks - 1)
                            } else {
                                1_200
                            };
                            let header = rtp.next_header(now.as_secs_f64(), c + 1 == chunks);
                            net.send(
                                clients[i],
                                dst,
                                PortPair::new(MEDIA_PORT_BASE + i as u16, RTP_PORT),
                                rtp_wire(&mut wire_buf, header, 0xAB, len),
                            );
                        }
                    }
                }
            }

            // Audio: every participant talks intermittently; the audio
            // stream runs regardless of persona availability.
            if t % AUDIO_EVERY_TICKS == 0 {
                for i in 0..n {
                    let dst = match topology {
                        Topology::Sfu => servers[i],
                        Topology::P2P => clients[1 - i],
                    };
                    // Both framers hand back one shared wire image per
                    // frame; the network send below shares it without
                    // copying.
                    let (wire, dst_port): (std::sync::Arc<[u8]>, u16) = match persona_type {
                        PersonaType::Spatial => {
                            (audio_quic[i].send(vec![0x0A; AUDIO_PAYLOAD]), QUIC_PORT)
                        }
                        PersonaType::TwoD => (
                            rtp_wire(
                                &mut wire_buf,
                                audio_rtp[i].next_header(now.as_secs_f64(), true),
                                0x0A,
                                AUDIO_PAYLOAD,
                            ),
                            RTP_PORT,
                        ),
                    };
                    net.send(
                        clients[i],
                        dst,
                        PortPair::new(AUDIO_PORT_BASE + i as u16, dst_port),
                        wire,
                    );
                }
            }

            // Let the network move everything submitted this tick.
            net.run_until(now + tick);

            // SFU forwarding: servers relay to every other participant.
            if topology == Topology::Sfu {
                // Dead sites forward nothing; drain whatever was already
                // in flight toward them.
                let drained: Vec<NodeId> = dead_nodes.iter().copied().collect();
                for dn in drained {
                    net.poll_delivered(dn);
                }
                let mut server_list = servers.clone();
                server_list.sort_unstable();
                server_list.dedup();
                for server in server_list {
                    if dead_nodes.contains(&server) {
                        continue;
                    }
                    for d in net.poll_delivered(server) {
                        let Some((sender, _)) = sender_of(d.packet.ports.src, n) else {
                            continue;
                        };
                        for (r, &client) in clients.iter().enumerate() {
                            if r != sender {
                                net.send(server, client, d.packet.ports, d.packet.payload.clone());
                            }
                        }
                    }
                }
                net.run_until(net.now());
            }

            // Receivers (and, for RTCP, the senders being reported on).
            for r in 0..n {
                for d in net.poll_delivered(clients[r]) {
                    let Some((sender, kind)) = sender_of(d.packet.ports.src, n) else {
                        continue;
                    };
                    // RTCP arriving here means *this* node's outgoing
                    // stream is being reported on: close the loop.
                    if kind == StreamKind::Feedback {
                        // PLI: the remote receiver lost decode state and
                        // asks this sender for a fresh keyframe.
                        if let Some(pli) =
                            visionsim_transport::rtcp::PliPacket::parse(&d.packet.payload)
                        {
                            if pli.source_ssrc == r as u32 + 1 {
                                if let SenderState::Video { encoder, .. } = &mut senders[r] {
                                    encoder.force_keyframe();
                                    keyframes_forced[r] += 1;
                                    vca_metrics().keyframes_forced.inc();
                                }
                            }
                            continue;
                        }
                        if let Some(rr) =
                            visionsim_transport::rtcp::ReceiverReportPacket::parse(
                                &d.packet.payload,
                            )
                        {
                            if rr.source_ssrc == r as u32 + 1 {
                                last_rr_loss[r] = rr.loss();
                                if let SenderState::Video {
                                    encoder,
                                    controller,
                                    ..
                                } = &mut senders[r]
                                {
                                    let report = ReceiverReport {
                                        received_bytes: rr.received_bytes as u64,
                                        loss: rr.loss(),
                                        interval_s: 1.0,
                                    };
                                    let target = controller.on_report(&report);
                                    encoder.adapt_to(target);
                                }
                            }
                            continue;
                        }
                        // XR extended report: the delay/rate half of the
                        // congestion signal. Paired with the loss from the
                        // RR that rode the same cadence (it arrives just
                        // ahead on the same FIFO path).
                        if let Some(xr) =
                            visionsim_transport::rtcp::XrPacket::parse(&d.packet.payload)
                        {
                            if xr.source_ssrc == r as u32 + 1 {
                                if let Some(ctrl) = &mut controllers[r] {
                                    let sig = CongestionSignals {
                                        loss: last_rr_loss[r],
                                        arrival: DataRate::from_kbps(xr.arrival_kbps as u64),
                                        queue_delay_us: xr.jitter_us as u64,
                                    };
                                    let target = ctrl.on_report(now, &sig);
                                    if trace::enabled() {
                                        trace::record(
                                            TraceKind::RtcpReport,
                                            now.as_nanos(),
                                            0,
                                            r as u64,
                                            (last_rr_loss[r] * 1_000.0).round() as u64,
                                            xr.arrival_kbps as u64,
                                        );
                                    }
                                    if let SenderState::Video { encoder, .. } =
                                        &mut senders[r]
                                    {
                                        encoder.adapt_to(target);
                                    }
                                }
                            }
                        }
                        continue;
                    }
                    let Some(peer) = receivers[r].get_mut(&sender) else {
                        continue;
                    };
                    peer.interval_bytes += d.packet.wire_size().as_bytes();
                    peer.on_arrival(d.at, d.packet.wire_size().as_bytes());
                    rx_bytes_since_frame[r] += d.packet.payload.len();
                    if kind == StreamKind::Audio {
                        continue; // audio decodes out of band of this study
                    }
                    match persona_type {
                        PersonaType::Spatial => {
                            if let Some(quic_pkt) = visionsim_transport::quic::QuicPacket::parse(
                                &d.packet.payload,
                                &SESSION_KEY,
                            ) {
                                let frames = match quic_pkt {
                                    visionsim_transport::quic::QuicPacket::Short {
                                        frames, ..
                                    } => frames,
                                    visionsim_transport::quic::QuicPacket::Long {
                                        frames, ..
                                    } => frames,
                                };
                                for f in frames {
                                    if let visionsim_transport::quic::QuicFrame::Stream {
                                        data,
                                        ..
                                    } = f
                                    {
                                        if let Some(frag) = Fragment::parse(&data) {
                                            if let Some((frame_id, payload)) =
                                                peer.assembler.push(frag)
                                            {
                                                peer.on_frame_complete(frame_id);
                                                let Some((sent, decoded)) = frame_sent_at
                                                    [sender]
                                                    .get_mut(frame_id as usize)
                                                else {
                                                    continue;
                                                };
                                                e2e_latency_ms[r]
                                                    .push(d.at.since(*sent).as_millis_f64());
                                                // One decode per frame, not per receiver:
                                                // the first to complete it decodes through
                                                // the sender's own codec. Exact, because an
                                                // absolute-mode decode is a pure function of
                                                // the payload and touches no codec state;
                                                // sessions only build
                                                // `SemanticConfig::default()`, which is
                                                // absolute; and the network never alters a
                                                // payload, so every receiver reassembles
                                                // the sender's exact bytes.
                                                if *decoded {
                                                    continue;
                                                }
                                                *decoded = true;
                                                let SenderState::Spatial { codec, .. } =
                                                    &mut senders[sender]
                                                else {
                                                    unreachable!("semantic frame from a 2D sender")
                                                };
                                                let decode = codec.decode(&payload);
                                                sanitizer::check(
                                                    decode.is_ok(),
                                                    "semantic/decode",
                                                    || {
                                                        format!(
                                                            "frame {frame_id} of sender \
                                                             {sender}: {decode:?}"
                                                        )
                                                    },
                                                );
                                            }
                                        }
                                    }
                                }
                            }
                        }
                        PersonaType::TwoD => {
                            // Only the sequence number is read: parse the
                            // header alone rather than copy the payload out.
                            if let Some(header) = RtpHeader::parse(&d.packet.payload) {
                                let seq = header.seq;
                                let mut gap_seen = false;
                                if let Some(last) = peer.last_seq {
                                    let gap = seq.wrapping_sub(last) as u64;
                                    if gap > 1 && gap < 1_000 {
                                        peer.lost += gap - 1;
                                        gap_seen = true;
                                    }
                                }
                                peer.last_seq = Some(seq);
                                peer.received += 1;
                                // A gap means decode state is broken until
                                // the next I-frame: ask for one now, at
                                // most twice a second per sender.
                                let cooled = peer
                                    .last_pli_at
                                    .is_none_or(|at| now.since(at) >= SimDuration::from_millis(500));
                                if gap_seen && cooled {
                                    peer.last_pli_at = Some(now);
                                    pli_sent[r] += 1;
                                    vca_metrics().pli_sent.inc();
                                    let pli = visionsim_transport::rtcp::PliPacket {
                                        reporter_ssrc: r as u32 + 1,
                                        source_ssrc: sender as u32 + 1,
                                    };
                                    net.send(
                                        clients[r],
                                        clients[sender],
                                        PortPair::new(RTCP_PORT_BASE + r as u16, RTCP_PORT),
                                        pli.to_bytes().to_vec(),
                                    );
                                }
                            }
                        }
                    }
                }
            }

            // Rendering (spatial sessions, per AVP participant).
            if persona_type == PersonaType::Spatial {
                for r in 0..n {
                    if cfg.participants[r].device != DeviceKind::VisionPro {
                        continue;
                    }
                    let viewer = gazes[r].step(tick.as_secs_f64(), rng);
                    // Slow in-seat drift (OU process, ~10 cm scale).
                    for d in seat_drift.iter_mut() {
                        let pull = 0.5 * tick.as_secs_f64() as f32;
                        let dt_sqrt = (tick.as_secs_f64() as f32).sqrt();
                        d.x = d.x * (1.0 - pull) + rng.normal(0.0, 0.05) as f32 * dt_sqrt;
                        d.y = d.y * (1.0 - pull) + rng.normal(0.0, 0.02) as f32 * dt_sqrt;
                        d.z = d.z * (1.0 - pull) + rng.normal(0.0, 0.05) as f32 * dt_sqrt;
                    }
                    let personas: Vec<PersonaInstance> = persona_positions
                        .iter()
                        .zip(seat_drift.iter())
                        .map(|(&p, &d)| PersonaInstance::paper_ladder(p + d))
                        .collect();
                    // Unavailable personas are not rendered; a participant
                    // degraded to the 2D fallback renders no spatial
                    // geometry either (the fallback stream replaces it).
                    let renders = if availability[r].is_available() && ladders[r].is_spatial() {
                        pipeline.evaluate(&viewer, &personas)
                    } else {
                        Vec::new()
                    };
                    let cost =
                        cost_model.frame(&renders, rx_bytes_since_frame[r], rng);
                    counters[r].record(now, &cost);
                    rx_bytes_since_frame[r] = 0;
                }
            }

            // Feedback interval.
            if t > 0 && t % feedback_every == 0 {
                for r in 0..n {
                    match persona_type {
                        PersonaType::Spatial => {
                            // With the loop closed, the spatial stream is
                            // no longer open: report frame-gap loss (RR)
                            // plus jitter and arrival rate (XR) toward
                            // each sender, before the interval counters
                            // drain below.
                            if cfg.congestion_control {
                                let interval_s =
                                    (feedback_every * tick.as_nanos()) as f64 / 1e9;
                                let mut reports: Vec<(usize, Vec<u8>, Vec<u8>)> = receivers[r]
                                    .iter_mut()
                                    .map(|(&s, peer)| {
                                        let complete = peer.frames_completed_interval;
                                        let lost = peer.frames_lost_interval;
                                        let loss = if complete + lost == 0 {
                                            0.0
                                        } else {
                                            lost as f64 / (complete + lost) as f64
                                        };
                                        let (jitter_us, arrival_kbps) =
                                            peer.take_xr(interval_s);
                                        let rr =
                                            visionsim_transport::rtcp::ReceiverReportPacket {
                                                reporter_ssrc: r as u32 + 1,
                                                source_ssrc: s as u32 + 1,
                                                fraction_lost:
                                                    visionsim_transport::rtcp::ReceiverReportPacket::q8_loss(loss),
                                                cumulative_lost: lost as u32,
                                                highest_seq: peer
                                                    .last_frame_id
                                                    .unwrap_or(0)
                                                    as u32,
                                                received_bytes: peer.interval_bytes as u32,
                                            };
                                        peer.interval_bytes = 0;
                                        let xr = visionsim_transport::rtcp::XrPacket {
                                            reporter_ssrc: r as u32 + 1,
                                            source_ssrc: s as u32 + 1,
                                            jitter_us,
                                            arrival_kbps,
                                        };
                                        (s, rr.to_bytes().to_vec(), xr.to_bytes().to_vec())
                                    })
                                    .collect();
                                // `receivers[r]` is a `HashMap`: send in
                                // sender order so same-instant packets get
                                // the same seqs and taps in every run.
                                reports.sort_unstable_by_key(|&(s, ..)| s);
                                for (s, rr, xr) in reports {
                                    let ports =
                                        PortPair::new(RTCP_PORT_BASE + r as u16, RTCP_PORT);
                                    net.send(clients[r], clients[s], ports, rr);
                                    net.send(clients[r], clients[s], ports, xr);
                                }
                            }
                            // Per-interval completeness from frame-id gaps
                            // (delay is not loss; the stream is open-loop).
                            let mut worst: f64 = 1.0;
                            for peer in receivers[r].values_mut() {
                                worst = worst.min(peer.take_interval_completeness());
                            }
                            let state = availability[r].on_interval(worst);
                            availability_log[r].push((now, state));
                            // The same observable drives graceful
                            // degradation, with stickier recovery — and,
                            // with the loop closed, the sender's own
                            // controller folds in: a target below the
                            // ~700 kbps spatial floor (§4.3) reads as
                            // congestion, settling the ladder into 2D
                            // instead of oscillating on a noisy
                            // completeness signal.
                            let ladder_input = match &controllers[r] {
                                Some(ctrl) => {
                                    let head = ctrl.target().as_bps() as f64
                                        / DataRate::from_kbps(SPATIAL_FLOOR_KBPS).as_bps()
                                            as f64;
                                    worst.min(head.min(1.0))
                                }
                                None => worst,
                            };
                            let mode = ladders[r].on_interval(ladder_input);
                            let prev = mode_log[r].last().map(|&(_, m)| m);
                            if prev.is_some_and(|p| p != mode) {
                                vca_metrics().mode_switches.inc();
                                if trace::enabled() {
                                    trace::record(
                                        TraceKind::ModeSwitch,
                                        now.as_nanos(),
                                        0,
                                        r as u64,
                                        match mode {
                                            PersonaMode::Spatial => 0,
                                            PersonaMode::TwoDFallback => 1,
                                        },
                                        0,
                                    );
                                }
                            }
                            mode_log[r].push((now, mode));
                        }
                        PersonaType::TwoD => {
                            // Emit in-band RTCP receiver reports toward
                            // each sender; adaptation happens when (and
                            // if) the report arrives.
                            let mut reports: Vec<(usize, Vec<u8>, Option<Vec<u8>>)> = receivers[r]
                                .iter_mut()
                                .map(|(&s, peer)| {
                                    let loss = if peer.received + peer.lost == 0 {
                                        0.0
                                    } else {
                                        peer.lost as f64
                                            / (peer.received + peer.lost) as f64
                                    };
                                    let rr = visionsim_transport::rtcp::ReceiverReportPacket {
                                        reporter_ssrc: r as u32 + 1,
                                        source_ssrc: s as u32 + 1,
                                        fraction_lost:
                                            visionsim_transport::rtcp::ReceiverReportPacket::q8_loss(
                                                loss,
                                            ),
                                        cumulative_lost: peer.lost as u32,
                                        highest_seq: peer.last_seq.unwrap_or(0) as u32,
                                        received_bytes: peer.interval_bytes as u32,
                                    };
                                    peer.interval_bytes = 0;
                                    peer.lost = 0;
                                    peer.received = 0;
                                    let xr = if cfg.congestion_control {
                                        let interval_s =
                                            (feedback_every * tick.as_nanos()) as f64 / 1e9;
                                        let (jitter_us, arrival_kbps) =
                                            peer.take_xr(interval_s);
                                        Some(
                                            visionsim_transport::rtcp::XrPacket {
                                                reporter_ssrc: r as u32 + 1,
                                                source_ssrc: s as u32 + 1,
                                                jitter_us,
                                                arrival_kbps,
                                            }
                                            .to_bytes()
                                            .to_vec(),
                                        )
                                    } else {
                                        None
                                    };
                                    (s, rr.to_bytes().to_vec(), xr)
                                })
                                .collect();
                            // Sender order, as for the spatial reports.
                            reports.sort_unstable_by_key(|&(s, ..)| s);
                            for (s, payload, xr) in reports {
                                let ports =
                                    PortPair::new(RTCP_PORT_BASE + r as u16, RTCP_PORT);
                                net.send(clients[r], clients[s], ports, payload);
                                if let Some(xr) = xr {
                                    net.send(clients[r], clients[s], ports, xr);
                                }
                            }
                            if let SenderState::Video { encoder, .. } = &senders[r] {
                                quality_log[r].push((now, encoder.quality()));
                            }
                        }
                    }
                }
            }
        }
        self.t += 1;
    }

    /// Tear down and summarize: consumes the stepper and produces the
    /// same [`SessionOutcome`] the batch runner returns. Callable at any
    /// point — the live service finishes sessions early on `leave`.
    pub fn finish(self) -> SessionOutcome {
        let SessionSim {
            mut net,
            tap_ids,
            clients,
            senders,
            persona_type,
            topology,
            assignment,
            counters,
            availability_log,
            semantic_frame_sizes,
            frame_sent_at,
            e2e_latency_ms,
            mode_log,
            ladders,
            quality_log,
            failovers,
            pli_sent,
            keyframes_forced,
            reconnectors,
            directory,
            ..
        } = self;

        let taps: Vec<Vec<TapRecord>> = tap_ids
            .iter()
            .map(|&t| net.take_tap_records(t))
            .collect();
        let client_addrs = clients.iter().map(|&c| net.addr(c)).collect();
        let final_quality = senders
            .iter()
            .map(|s| match s {
                SenderState::Video { encoder, .. } => encoder.quality(),
                SenderState::Spatial { .. } => 1.0,
            })
            .collect();
        SessionOutcome {
            persona_type,
            topology,
            assignment,
            taps,
            client_addrs,
            counters,
            availability: availability_log,
            semantic_frame_sizes,
            semantic_decodes: frame_sent_at
                .iter()
                .flatten()
                .filter(|(_, decoded)| *decoded)
                .count() as u64,
            e2e_latency_ms,
            geodb: net.geodb().clone(),
            final_quality,
            mode_log,
            fallbacks: ladders.iter().map(|l| l.fallbacks()).collect(),
            quality_log,
            failovers,
            pli_sent,
            keyframes_forced,
            reconnects: reconnectors
                .iter()
                .map(|r| ReconnectSummary {
                    participant: r.participant() as usize,
                    attempts: r.attempts(),
                    rejected: r.rejected(),
                    phase: r.phase(),
                    rejoin: r.rejoin_latency(),
                })
                .collect(),
            admission_rejects: directory.as_ref().map(|d| d.total_rejects()).unwrap_or(0),
        }
    }
}

/// The 8-byte QUIC connection id encoding the sender index.
fn sender_dcid(i: usize) -> [u8; 8] {
    let mut d = *b"PRSN\0\0\0\0";
    d[4..].copy_from_slice(&(i as u32).to_le_bytes());
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use visionsim_capture::analysis::CaptureAnalysis;
    use visionsim_geo::cities;

    fn sf() -> City {
        cities::by_name("San Francisco, CA").unwrap()
    }
    fn nyc() -> City {
        cities::by_name("New York, NY").unwrap()
    }

    fn short(cfg: &mut SessionConfig) {
        cfg.duration = SimDuration::from_secs(8);
    }

    #[test]
    fn facetime_both_avp_is_spatial_quic_via_server() {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            1,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        assert_eq!(out.persona_type, PersonaType::Spatial);
        assert_eq!(out.topology, Topology::Sfu);
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        assert!(a.dominant_protocol().is_quic(), "{:?}", a.dominant_protocol());
        // Spatial persona uplink lands in the sub-Mbps band (paper: 0.67).
        let up = a.uplink_rate().as_mbps_f64();
        assert!((0.3..1.2).contains(&up), "uplink {up} Mbps");
    }

    #[test]
    fn facetime_mixed_devices_fall_back_to_rtp_p2p() {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            2,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        assert_eq!(out.persona_type, PersonaType::TwoD);
        assert_eq!(out.topology, Topology::P2P);
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        assert!(a.dominant_protocol().is_rtp());
        // FaceTime 2D persona ≈ 2 Mbps — more than spatial.
        let up = a.uplink_rate().as_mbps_f64();
        assert!((1.2..3.0).contains(&up), "uplink {up} Mbps");
    }

    #[test]
    fn webex_needs_most_bandwidth_zoom_least() {
        let run = |provider| {
            let mut cfg = SessionConfig::two_party(
                provider,
                (DeviceKind::VisionPro, sf()),
                (DeviceKind::VisionPro, nyc()),
                3,
            );
            short(&mut cfg);
            let out = SessionRunner::new(cfg).run();
            let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
            a.uplink_rate().as_mbps_f64()
        };
        let webex = run(Provider::Webex);
        let zoom = run(Provider::Zoom);
        let teams = run(Provider::Teams);
        assert!(webex > 4.0, "webex {webex}");
        assert!((1.0..2.2).contains(&zoom), "zoom {zoom}");
        assert!(zoom < teams && teams < webex, "ordering: z {zoom} t {teams} w {webex}");
    }

    #[test]
    fn sfu_peer_is_the_provider_server_p2p_peer_is_the_client() {
        // Webex (SFU): the subject's peer is a Webex node.
        let mut cfg = SessionConfig::two_party(
            Provider::Webex,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            4,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        let peers = a.peers(&out.geodb);
        assert!(peers.iter().any(|p| p.org.as_deref() == Some("Webex")));
        // Zoom (P2P at 2 users): the peer is the other client.
        let mut cfg = SessionConfig::two_party(
            Provider::Zoom,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            5,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        let peers = a.peers(&out.geodb);
        assert!(peers.iter().all(|p| p.org.as_deref() == Some("client")));
    }

    #[test]
    fn constrained_uplink_kills_the_spatial_persona() {
        // §4.3: below ~700 kbps the persona becomes unavailable.
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            6,
        );
        cfg.duration = SimDuration::from_secs(12);
        cfg.uplink_limits = vec![(0, DataRate::from_kbps(400))];
        let out = SessionRunner::new(cfg).run();
        // The receiver of the constrained sender (participant 1) sees the
        // persona go down.
        let frac = out.availability_fraction(1);
        assert!(frac < 0.7, "persona stayed up: {frac}");
    }

    #[test]
    fn unconstrained_spatial_session_stays_available() {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            7,
        );
        cfg.duration = SimDuration::from_secs(12);
        let out = SessionRunner::new(cfg).run();
        assert!(out.availability_fraction(0) > 0.9);
        assert!(out.availability_fraction(1) > 0.9);
    }

    #[test]
    fn constrained_uplink_degrades_2d_quality_instead() {
        // The adaptive path: Webex under a 1 Mbps uplink drops quality but
        // keeps flowing.
        let mut cfg = SessionConfig::two_party(
            Provider::Webex,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            8,
        );
        cfg.duration = SimDuration::from_secs(15);
        cfg.uplink_limits = vec![(0, DataRate::from_mbps(1))];
        let out = SessionRunner::new(cfg).run();
        assert!(
            out.final_quality[0] < 0.5,
            "encoder never adapted: q = {}",
            out.final_quality[0]
        );
    }

    #[test]
    fn closed_loop_congestion_settles_the_ladder_without_oscillating() {
        // A spatial sender behind a 400 kbps finite-queue uplink, with the
        // congestion loop closed: the controller throttles toward the
        // bottleneck, its utilization folds into the ladder, and the
        // session settles in the 2D fallback instead of flapping.
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            31,
        );
        cfg.duration = SimDuration::from_secs(24);
        cfg.uplink_limits = vec![(0, DataRate::from_kbps(400))];
        cfg.congestion_control = true;
        let out = SessionRunner::new(cfg).run();
        // The constrained participant degraded at all (anti-vacuity)…
        assert!(out.fallbacks[0] >= 1, "ladder never degraded");
        assert!(
            out.spatial_fraction(0) < 0.6,
            "spent too long spatial: {}",
            out.spatial_fraction(0)
        );
        // …and gracefully: after convergence (12 s in), at most one mode
        // switch per 10 simulated seconds.
        let converged: Vec<_> = out.mode_log[0]
            .iter()
            .filter(|(at, _)| *at >= SimTime::from_secs(12))
            .collect();
        let switches = converged
            .windows(2)
            .filter(|w| w[0].1 != w[1].1)
            .count();
        assert!(
            switches <= 1,
            "ladder oscillated after convergence: {switches} switches in 12 s \
             ({:?})",
            out.mode_log[0]
        );
    }

    #[test]
    fn closed_loop_unconstrained_session_stays_spatial() {
        // The loop must not tax a clean session: with headroom everywhere
        // the controller probes to its ceiling and the ladder never fires.
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            32,
        );
        cfg.duration = SimDuration::from_secs(16);
        cfg.congestion_control = true;
        let out = SessionRunner::new(cfg).run();
        assert_eq!(out.fallbacks[0], 0, "mode log: {:?}", out.mode_log[0]);
        assert_eq!(out.fallbacks[1], 0, "mode log: {:?}", out.mode_log[1]);
        assert!(out.availability_fraction(0) > 0.9);
        assert!(out.availability_fraction(1) > 0.9);
    }

    #[test]
    fn five_user_session_renders_in_the_figure6_band() {
        let cities: Vec<City> = visionsim_geo::cities::us_vantages();
        let mut cfg = SessionConfig::facetime_avp(5, &cities, 9);
        cfg.duration = SimDuration::from_secs(8);
        let out = SessionRunner::new(cfg).run();
        let gpu = out.counters[0].gpu_boxplot();
        assert!(
            (5.0..11.0).contains(&gpu.mean),
            "five-user GPU mean {} ms",
            gpu.mean
        );
        let tris = out.counters[0].triangles_boxplot();
        assert!(tris.mean > 78_030.0, "triangles {tris}");
    }

    #[test]
    fn audio_flows_alongside_media_in_both_modes() {
        // Spatial: audio rides QUIC (same connection, stream 1).
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            21,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        let audio_pkts = out.taps[0]
            .iter()
            .filter(|r| r.src == out.client_addrs[0] && r.ports.src == AUDIO_PORT_BASE)
            .count();
        assert!(audio_pkts > 200, "audio packets: {audio_pkts}");
        // Audio frames classify as QUIC too (same encrypted transport).
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        for (key, proto) in a.protocols() {
            if key.ports.src == AUDIO_PORT_BASE {
                assert!(proto.is_quic(), "spatial audio spoke {proto:?}");
            }
        }

        // 2D: audio is an RTP/Opus flow (PT 111).
        let mut cfg = SessionConfig::two_party(
            Provider::Zoom,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            22,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
        let audio_proto = a
            .protocols()
            .into_iter()
            .find(|(k, _)| k.ports.src == AUDIO_PORT_BASE && k.src == out.client_addrs[0])
            .map(|(_, p)| p)
            .expect("audio flow present");
        assert_eq!(
            audio_proto,
            visionsim_transport::classify::WireProtocol::Rtp(
                visionsim_transport::rtp::PayloadType::OpusAudio
            )
        );
    }

    #[test]
    fn rtcp_feedback_is_in_band_and_classified() {
        let mut cfg = SessionConfig::two_party(
            Provider::Webex,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::MacBook, nyc()),
            23,
        );
        short(&mut cfg);
        let out = SessionRunner::new(cfg).run();
        // U2's AP sees the RTCP reports U2 sends toward U1.
        let a = CaptureAnalysis::new(out.taps[1].iter(), out.client_addrs[1]);
        let rtcp_flows = a
            .protocols()
            .into_iter()
            .filter(|(k, p)| {
                k.ports.dst == RTCP_PORT
                    && *p == visionsim_transport::classify::WireProtocol::Rtcp
            })
            .count();
        assert!(rtcp_flows >= 1, "no classified RTCP flow at U2's AP");
        // RTCP byte volume must be tiny vs media (it is feedback, not a
        // stream of its own).
        let rtcp_bytes: u64 = out.taps[1]
            .iter()
            .filter(|r| r.ports.dst == RTCP_PORT)
            .map(|r| r.wire_size.as_bytes())
            .sum();
        let media_bytes: u64 = out.taps[1]
            .iter()
            .filter(|r| r.ports.dst != RTCP_PORT)
            .map(|r| r.wire_size.as_bytes())
            .sum();
        assert!(rtcp_bytes * 50 < media_bytes, "RTCP overhead too large");
    }

    #[test]
    fn downlink_scales_with_participant_count() {
        let cities: Vec<City> = visionsim_geo::cities::us_vantages();
        let rate_for = |users: usize| {
            let mut cfg = SessionConfig::facetime_avp(users, &cities, 10 + users as u64);
            cfg.duration = SimDuration::from_secs(8);
            let out = SessionRunner::new(cfg).run();
            let a = CaptureAnalysis::new(out.taps[0].iter(), out.client_addrs[0]);
            a.downlink_rate().as_mbps_f64()
        };
        let two = rate_for(2);
        let four = rate_for(4);
        // Figure 6(c): ~linear in the number of remote personas.
        let ratio = four / two;
        assert!((2.0..4.5).contains(&ratio), "scaling ratio {ratio}");
    }

    /// Regression: two staggered ServerDown faults on *different* sites,
    /// the second landing while the first cohort's reattach is still
    /// pending. A single pending-reattach slot once overwrote the earlier
    /// cohort, silently stranding it; per-participant reconnect machines
    /// reattach both.
    #[test]
    fn staggered_server_down_faults_reattach_both_cohorts() {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            77,
        );
        // Geo-distributed placement puts the coasts on distinct sites, so
        // the two faults kill two different servers.
        cfg.policy = AssignmentPolicy::GeoDistributed;
        cfg.duration = SimDuration::from_secs(10);
        // Cohort 1's reattach is due at 2.5 s; the second site dies at
        // 2 s, inside that window.
        cfg.fault_plans = vec![
            (
                0,
                FaultPlan::server_outage(
                    SimTime::from_secs(1),
                    SimDuration::from_secs(1),
                    SimDuration::from_millis(500),
                ),
            ),
            (
                1,
                FaultPlan::server_outage(
                    SimTime::from_secs(2),
                    SimDuration::from_secs(1),
                    SimDuration::from_millis(500),
                ),
            ),
        ];
        let out = SessionRunner::new(cfg).run();
        let sites: Vec<&str> = out
            .assignment
            .as_ref()
            .unwrap()
            .attachments
            .iter()
            .map(|s| s.label)
            .collect();
        assert_ne!(sites[0], sites[1], "test needs distinct initial sites");
        assert_eq!(
            out.failovers.len(),
            2,
            "both cohorts must reattach: {:?}",
            out.failovers
        );
        for (_, label) in &out.failovers {
            assert!(
                !sites.contains(&label.as_str()),
                "reattached to a dead site: {label}"
            );
        }
    }

    /// A ServerDown spawns one reconnect machine per stranded participant:
    /// everyone reattaches through admission, the episode summaries land
    /// in the outcome, and an idle fleet refuses nobody. Under
    /// NearestToInitiator the candidate is anchored on the initiator, so
    /// the SF and NYC participants both land on M1 — the SF initiator's
    /// next-nearest FaceTime site — as one failover.
    #[test]
    fn server_down_moves_the_call_to_the_initiators_next_nearest_site() {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (DeviceKind::VisionPro, sf()),
            (DeviceKind::VisionPro, nyc()),
            78,
        );
        cfg.duration = SimDuration::from_secs(10);
        cfg.fault_plans = vec![(
            0,
            FaultPlan::server_outage(
                SimTime::from_secs(2),
                SimDuration::from_secs(1),
                SimDuration::from_millis(500),
            ),
        )];
        let out = SessionRunner::new(cfg).run();
        // NearestToInitiator puts both participants on one site, so one
        // outage strands both.
        assert_eq!(out.reconnects.len(), 2, "{:?}", out.reconnects);
        for r in &out.reconnects {
            assert!(
                matches!(r.phase, ReconnectPhase::Reattached { .. }),
                "{r:?}"
            );
            assert_eq!(r.attempts, 1, "{r:?}");
            assert_eq!(r.rejected, 0, "{r:?}");
            let rejoin = r.rejoin.expect("rejoin latency once reattached");
            assert!(rejoin >= SimDuration::from_millis(1_500), "{rejoin:?}");
        }
        assert_eq!(out.admission_rejects, 0);
        let initial = out.assignment.as_ref().unwrap().attachments[0].label;
        assert_eq!(initial, "W", "the SF initiator starts on the western site");
        assert_eq!(out.failovers.len(), 1, "{:?}", out.failovers);
        assert_eq!(out.failovers[0].1, "M1", "{:?}", out.failovers);
    }
}
