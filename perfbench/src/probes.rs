//! Probes for layers that are only called inside a session tick or a
//! barrier round: each times one layer's public kernels on inputs made
//! from the workload seed, and reports the median cost of one call over
//! several batches.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use visionsim::compress::{compress, decompress};
use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::core::shard::{ConservativeEngine, Envelope, ShardWorld};
use visionsim::core::time::{SimDuration, SimTime};
use visionsim::geo::coords::GeoPoint;
use visionsim::mesh::geometry::Vec3;
use visionsim::net::link::LinkConfig;
use visionsim::net::network::{Network, NodeId};
use visionsim::net::packet::PortPair;
use visionsim::render::cost::CostModel;
use visionsim::render::visibility::{PersonaInstance, VisibilityFlags, VisibilityPipeline};
use visionsim::semantic::codec::{SemanticCodec, SemanticConfig};
use visionsim::semantic::packetize::Packetizer;
use visionsim::sensor::capture::RgbdCapture;
use visionsim::transport::quic::{QuicPacket, QuicStreamSender};
use visionsim::transport::rtp::{PayloadType, RtpPacket, RtpStream};
use visionsim::vca::scene::{GazeDynamics, SeatingLayout};

use crate::spans;
use crate::util::median;

const BATCHES: usize = 7;

/// Median over `BATCHES` batches of the mean time of one call, in
/// nanoseconds. `batch` runs `calls` calls and returns how many it made.
fn time_ns(name: &'static str, parent: u32, mut batch: impl FnMut() -> usize) -> f64 {
    let _s = spans::open(name, parent, 0);
    batch(); // warm caches and lazies
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let calls = batch().max(1);
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call)
}

/// Unit costs of the spatial media path: capture, semantic codec, the
/// compressor inside it, and QUIC framing with ChaCha20.
pub struct MediaCosts {
    pub capture_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub compress_us: f64,
    pub decompress_us: f64,
    pub quic_send_us: f64,
    pub quic_parse_us: f64,
}

const FRAMES: usize = 90;

pub fn media(seed: u64, parent: u32) -> MediaCosts {
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, "probe.media", 0));
    let mut capture = RgbdCapture::default_session();
    let capture_us = time_ns("probe.sensor.capture", parent, || {
        for _ in 0..FRAMES {
            black_box(capture.next_frame(&mut rng).persona_subset());
        }
        FRAMES
    }) / 1e3;

    let frames: Vec<_> = (0..FRAMES)
        .map(|_| capture.next_frame(&mut rng).persona_subset())
        .collect();
    let encode_us = time_ns("probe.semantic.encode", parent, || {
        let mut codec = SemanticCodec::new(SemanticConfig::default());
        frames.iter().for_each(|f| {
            black_box(codec.encode(f));
        });
        frames.len()
    }) / 1e3;
    let mut codec = SemanticCodec::new(SemanticConfig::default());
    let payloads: Vec<Vec<u8>> = frames.iter().map(|f| codec.encode(f)).collect();
    let decode_us = time_ns("probe.semantic.decode", parent, || {
        let mut codec = SemanticCodec::new(SemanticConfig::default());
        payloads.iter().for_each(|p| {
            black_box(codec.decode(p).expect("own payloads decode"));
        });
        payloads.len()
    }) / 1e3;

    let raw: Vec<Vec<u8>> = frames.iter().map(|f| f.to_bytes()).collect();
    let compress_us = time_ns("probe.compress.compress", parent, || {
        raw.iter().for_each(|r| {
            black_box(compress(r));
        });
        raw.len()
    }) / 1e3;
    let packed: Vec<Vec<u8>> = raw.iter().map(|r| compress(r)).collect();
    let decompress_us = time_ns("probe.compress.decompress", parent, || {
        packed.iter().for_each(|p| {
            black_box(decompress(p).expect("own payloads decompress"));
        });
        packed.len()
    }) / 1e3;

    let key = [0x5E; 32];
    let mut packetizer = Packetizer::new();
    let fragments: Vec<Vec<u8>> = payloads
        .iter()
        .flat_map(|p| packetizer.split(p))
        .map(|f| f.to_bytes())
        .collect();
    let mut sender = QuicStreamSender::new([7; 8], 0, key);
    let quic_send_us = time_ns("probe.transport.quic_send", parent, || {
        fragments.iter().for_each(|f| {
            black_box(sender.send(f.clone()));
        });
        fragments.len()
    }) / 1e3;
    let wire: Vec<Arc<[u8]>> = fragments.iter().map(|f| sender.send(f.clone())).collect();
    let quic_parse_us = time_ns("probe.transport.quic_parse", parent, || {
        wire.iter().for_each(|w| {
            black_box(QuicPacket::parse(w, &key).expect("own packets parse"));
        });
        wire.len()
    }) / 1e3;

    MediaCosts {
        capture_us,
        encode_us,
        decode_us,
        compress_us,
        decompress_us,
        quic_send_us,
        quic_parse_us,
    }
}

/// ns per `RtpPacket::parse` of an MTU-sized video packet.
pub fn rtp_parse_ns(seed: u64, parent: u32) -> f64 {
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, "probe.rtp", 0));
    let mut stream = RtpStream::video(PayloadType::H264Video, 1);
    let packets: Vec<Vec<u8>> = (0..256)
        .map(|i| {
            let len = 200 + rng.index(1_000);
            stream
                .packetize(i as f64 / 30.0, vec![(i % 251) as u8; len], i % 4 == 3)
                .to_bytes()
        })
        .collect();
    time_ns("probe.transport.rtp_parse", parent, || {
        for _ in 0..16 {
            packets.iter().for_each(|p| {
                black_box(RtpPacket::parse(p).expect("own packets parse"));
            });
        }
        16 * packets.len()
    })
}

/// ns per link hop: `Network::send` → `run_until` → `poll_delivered`
/// down a chain of core links.
pub fn hop_ns(seed: u64, parent: u32) -> f64 {
    const HOPS: usize = 4;
    const BURST: usize = 64;
    let mut net = Network::new(derive_seed(seed, "probe.net", 0));
    let nodes: Vec<NodeId> = (0..=HOPS)
        .map(|i| {
            net.add_node(
                &format!("n{i}"),
                "probe",
                GeoPoint::new(37.0, -122.0 + i as f64),
            )
        })
        .collect();
    for w in nodes.windows(2) {
        net.add_duplex(w[0], w[1], LinkConfig::core(SimDuration::from_micros(200)));
    }
    let payload: Arc<[u8]> = vec![0xA5u8; 1_200].into();
    let (src, dst) = (nodes[0], nodes[HOPS]);
    time_ns("probe.net.hop", parent, || {
        let mut delivered = 0;
        for _ in 0..8 {
            for i in 0..BURST {
                net.send(
                    src,
                    dst,
                    PortPair::new(5_000, 6_000 + i as u16),
                    payload.clone(),
                );
            }
            net.run_until(net.now() + SimDuration::from_millis(20));
            delivered += net.poll_delivered(dst).len();
        }
        assert_eq!(delivered, 8 * BURST, "clean chain delivers every packet");
        delivered * HOPS
    })
}

/// µs per rendered frame: `VisibilityPipeline::evaluate` +
/// `CostModel::frame` for a viewer facing four remote personas.
pub fn render_frame_us(seed: u64, parent: u32) -> f64 {
    let mut rng = SimRng::seed_from_u64(derive_seed(seed, "probe.render", 0));
    let positions: Vec<Vec3> = SeatingLayout::Arc.positions(4, 1.4);
    let personas: Vec<PersonaInstance> = positions
        .iter()
        .map(|&p| PersonaInstance::paper_ladder(p))
        .collect();
    let mut gaze = GazeDynamics::new(positions);
    let pipeline = VisibilityPipeline::new(VisibilityFlags::vision_pro());
    let cost = CostModel::default();
    time_ns("probe.render.frame", parent, || {
        for _ in 0..FRAMES {
            let viewer = gaze.step(1.0 / 90.0, &mut rng);
            let renders = pipeline.evaluate(&viewer, &personas);
            black_box(cost.frame(&renders, 9_000, &mut rng));
        }
        FRAMES
    }) / 1e3
}

/// A shard with one self-scheduled event per lookahead window and no
/// work: an engine over these measures the barrier alone.
struct IdleShard {
    next: SimTime,
    step: SimDuration,
}

impl ShardWorld for IdleShard {
    type Msg = ();

    fn next_event(&self) -> Option<SimTime> {
        Some(self.next)
    }

    fn deliver(&mut self, _env: Envelope<()>) {}

    fn advance(&mut self, horizon: SimTime, _out: &mut Vec<Envelope<()>>) {
        while self.next <= horizon {
            self.next += self.step;
        }
    }
}

/// µs per barrier round of `ConservativeEngine::run_until` over `shards`
/// idle shards.
pub fn idle_round_us(shards: usize, parent: u32) -> f64 {
    const ROUNDS: u64 = 2_000;
    let step = SimDuration::from_millis(1);
    time_ns("probe.shard.idle_round", parent, || {
        let worlds = (0..shards)
            .map(|_| IdleShard {
                next: SimTime::ZERO,
                step,
            })
            .collect();
        let mut engine = ConservativeEngine::new(worlds, (0..shards).collect(), step);
        let report = engine.run_until(SimTime::from_nanos(step.as_nanos() * (ROUNDS - 1)));
        report.rounds as usize
    }) / 1e3
}
