//! Cross-crate integration: the full capture → encode → transport →
//! network → reassemble → decode → reconstruct pipeline, exercised
//! end-to-end without the session engine, and the session engine's
//! global invariants.

use visionsim::core::par;
use visionsim::core::rng::SimRng;
use visionsim::core::sanitizer;
use visionsim::core::time::{SimDuration, SimTime};
use visionsim::device::cameras::PersonaCapturePipeline;
use visionsim::device::device::DeviceKind;
use visionsim::geo::cities;
use visionsim::geo::coords::GeoPoint;
use visionsim::geo::sites::Provider;
use visionsim::net::link::LinkConfig;
use visionsim::net::network::Network;
use visionsim::net::packet::PortPair;
use visionsim::semantic::codec::{SemanticCodec, SemanticConfig};
use visionsim::semantic::packetize::{Fragment, FrameAssembler, Packetizer};
use visionsim::semantic::reconstruct::PersonaRig;
use visionsim::transport::cipher;
use visionsim::transport::quic::{QuicPacket, QuicStreamSender};
use visionsim::vca::session::{SessionConfig, SessionRunner};

/// Drive a persona stream through a real network hop and reconstruct the
/// mesh at the far end; verify geometric fidelity.
#[test]
fn semantic_pipeline_reconstructs_geometry_across_the_network() {
    let mut rng = SimRng::seed_from_u64(77);
    let key: cipher::Key = [9u8; 32];

    // Sender side: pre-captured persona + live keypoints.
    let mut sender_pipeline = PersonaCapturePipeline::pre_capture(5);
    let persona_mesh = visionsim::mesh::lod::decimate_to(sender_pipeline.persona_mesh(), 4_000);
    let mut codec = SemanticCodec::new(SemanticConfig::default());
    let mut packetizer = Packetizer::new();
    let mut quic = QuicStreamSender::new(*b"E2ETEST1", 0, key);

    // Network: one WAN hop.
    let mut net = Network::new(1);
    let a = net.add_node("sender", "client", GeoPoint::new(37.77, -122.42));
    let b = net.add_node("receiver", "client", GeoPoint::new(40.71, -74.01));
    net.add_duplex(a, b, LinkConfig::core(SimDuration::from_millis(35)));

    // Receiver side: rig bound to the first frame (session setup).
    let reference = sender_pipeline.capture_semantics(&mut rng);
    let mut rig = PersonaRig::bind(persona_mesh, reference.clone(), 0.02);
    let mut dec_codec = SemanticCodec::new(SemanticConfig::default());
    let mut assembler = FrameAssembler::new();

    let mut reconstructed_frames = 0;
    for tick in 0..90 {
        let frame = sender_pipeline.capture_semantics(&mut rng);
        let payload = codec.encode(&frame);
        for frag in packetizer.split(&payload) {
            let wire = quic.send(frag.to_bytes());
            net.send(a, b, PortPair::new(5000, 443), wire)
                .expect("routable");
        }
        net.run_until(
            SimTime::from_nanos((tick + 1) * SimDuration::FRAME_90FPS.as_nanos())
                + SimDuration::from_millis(40),
        );
        for d in net.poll_delivered(b) {
            let pkt = QuicPacket::parse(&d.packet.payload, &key).expect("valid framing");
            let frames = match pkt {
                QuicPacket::Short { frames, .. } | QuicPacket::Long { frames, .. } => frames,
            };
            for f in frames {
                if let visionsim::transport::quic::QuicFrame::Stream { data, .. } = f {
                    let frag = Fragment::parse(&data).expect("valid fragment");
                    if let Some((_, payload)) = assembler.push(frag) {
                        let decoded = dec_codec.decode(&payload).expect("clean channel");
                        rig.apply(&decoded).expect("schema matches");
                        reconstructed_frames += 1;
                        // The decoded keypoints are bit-exact (absolute
                        // mode), so deformation is driven by true motion.
                        assert_eq!(decoded.len(), 74);
                    }
                }
            }
        }
    }
    assert!(
        reconstructed_frames >= 85,
        "only {reconstructed_frames}/90 frames reconstructed"
    );
    let current = rig.current().expect("frames were applied");
    assert!(current.validate().is_ok());
}

/// Same-seed sessions replay identically; different seeds differ.
#[test]
fn sessions_are_deterministic_in_the_seed() {
    let run = |seed: u64| {
        let mut cfg = SessionConfig::two_party(
            Provider::FaceTime,
            (
                DeviceKind::VisionPro,
                cities::by_name("San Francisco, CA").unwrap(),
            ),
            (
                DeviceKind::VisionPro,
                cities::by_name("New York, NY").unwrap(),
            ),
            seed,
        );
        cfg.duration = SimDuration::from_secs(5);
        let out = SessionRunner::new(cfg).run();
        (
            out.taps[0].len(),
            out.semantic_frame_sizes.clone(),
            out.counters[0].gpu_boxplot().mean,
        )
    };
    let a = run(1234);
    let b = run(1234);
    assert_eq!(a.0, b.0, "tap record counts differ");
    assert_eq!(a.1, b.1, "semantic payload sizes differ");
    assert_eq!(a.2, b.2, "render statistics differ");
    let c = run(5678);
    assert_ne!(a.1, c.1, "different seeds produced identical streams");
}

/// The sanitizer only observes. A spatial call stepped with it off, which
/// skips the semantic decode, matches the same call stepped with it on,
/// which decodes every frame a receiver completes, and none of those
/// decodes fails.
#[test]
fn spatial_calls_match_with_the_sanitizer_off_and_on() {
    let _guard = par::override_guard();
    let run = |n: usize, on: bool| {
        sanitizer::force(Some(on));
        let mut cfg = SessionConfig::facetime_avp(n, &cities::us_vantages(), 2024);
        cfg.duration = SimDuration::from_secs(2);
        let out = SessionRunner::new(cfg).run();
        let e2e: Vec<Vec<u64>> = out
            .e2e_latency_ms
            .iter()
            .map(|p| p.samples().iter().map(|x| x.to_bits()).collect())
            .collect();
        (
            format!("{:?}", out.taps),
            e2e,
            out.availability,
            out.mode_log,
            out.semantic_frame_sizes,
            out.semantic_decodes,
        )
    };
    sanitizer::reset();
    let runs: Vec<_> = [3, 8].map(|n| (n, run(n, false), run(n, true))).into();
    let violations = sanitizer::take();
    sanitizer::force(None);
    sanitizer::reset();
    for (n, off, on) in &runs {
        assert!(off.0 == on.0, "roster {n}: taps differ");
        assert_eq!(off.1, on.1, "roster {n}: e2e latency samples differ");
        assert_eq!(off.2, on.2, "roster {n}: availability logs differ");
        assert_eq!(off.3, on.3, "roster {n}: mode logs differ");
        assert_eq!(off.4, on.4, "roster {n}: semantic frame sizes differ");
        assert_eq!(off.5, on.5, "roster {n}: semantic decodes differ");
        assert!(on.5 > 0, "roster {n}: no frame was decoded");
    }
    assert!(violations.is_empty(), "violations: {violations:?}");
}

/// Same-instant RTCP receiver reports leave in sender order, so a 2D call
/// run twice in one process captures identical taps: each receiver's peer
/// map is a `HashMap`, whose per-instance hasher would otherwise reorder
/// the reports — and with them packet seqs and tap records — run to run.
#[test]
fn rtcp_report_order_is_identical_across_runs_in_one_process() {
    let run = || {
        let mut cfg = SessionConfig::facetime_avp(4, &cities::us_vantages(), 2024);
        cfg.provider = Provider::Zoom;
        for p in &mut cfg.participants {
            p.device = DeviceKind::MacBook;
        }
        cfg.duration = SimDuration::from_secs(3);
        format!("{:?}", SessionRunner::new(cfg).run().taps)
    };
    assert!(run() == run(), "tap records differ between identical runs");
}

/// Conservation at the AP: bytes the tap sees uplink equal what the
/// semantic sender emitted plus framing + encapsulation overheads.
#[test]
fn tap_accounting_is_consistent_with_sender_output() {
    let mut cfg = SessionConfig::two_party(
        Provider::FaceTime,
        (
            DeviceKind::VisionPro,
            cities::by_name("San Francisco, CA").unwrap(),
        ),
        (
            DeviceKind::VisionPro,
            cities::by_name("New York, NY").unwrap(),
        ),
        99,
    );
    cfg.duration = SimDuration::from_secs(6);
    let out = SessionRunner::new(cfg).run();

    // Sender 0's semantic payloads (both senders interleave in
    // semantic_frame_sizes; halve the total).
    let payload_total: usize = out.semantic_frame_sizes.iter().sum::<usize>() / 2;

    // Media flow only (src port 5000 = sender 0's persona stream); the
    // session also carries audio (port 5200) and, in 2D modes, RTCP.
    let uplink_total: u64 = out.taps[0]
        .iter()
        .filter(|r| r.src == out.client_addrs[0] && r.ports.src == 5_000)
        .map(|r| r.wire_size.as_bytes())
        .sum();
    // Uplink wire bytes = payloads + (fragment header 12 + QUIC ~11-13 +
    // IP/UDP 28) per packet. One fragment per frame at these sizes.
    let packets = out.taps[0]
        .iter()
        .filter(|r| r.src == out.client_addrs[0] && r.ports.src == 5_000)
        .count() as u64;
    let overhead_lo = packets * 45;
    let overhead_hi = packets * 70;
    assert!(
        uplink_total > payload_total as u64 + overhead_lo
            && uplink_total < payload_total as u64 + overhead_hi,
        "uplink {uplink_total} vs payload {payload_total} + overhead [{overhead_lo},{overhead_hi}]"
    );
}

/// The SFU actually forwards: each receiver gets every other sender's
/// stream, and the server's identity matches the assignment.
#[test]
fn sfu_fanout_reaches_every_participant() {
    let cities = cities::us_vantages();
    let mut cfg = SessionConfig::facetime_avp(4, &cities, 31);
    cfg.duration = SimDuration::from_secs(5);
    let out = SessionRunner::new(cfg).run();
    let assignment = out.assignment.as_ref().expect("SFU session");
    // Initiator is in SF (first vantage) → Western FaceTime site.
    assert_eq!(assignment.attachments[0].label, "W");
    for (i, tap) in out.taps.iter().enumerate() {
        // Each participant's downlink carries the 3 remote media streams
        // (ports 5000..5004) plus their 3 audio streams (5200..5204).
        let mut src_ports: Vec<u16> = tap
            .iter()
            .filter(|r| r.dst == out.client_addrs[i])
            .map(|r| r.ports.src)
            .collect();
        src_ports.sort_unstable();
        src_ports.dedup();
        let media: Vec<u16> = src_ports.iter().copied().filter(|p| *p < 5_100).collect();
        let audio: Vec<u16> = src_ports.iter().copied().filter(|p| *p >= 5_200).collect();
        assert_eq!(media.len(), 3, "participant {i} media {media:?}");
        assert_eq!(audio.len(), 3, "participant {i} audio {audio:?}");
    }
    // Every receiver still completes the other three streams, but each
    // frame is decoded once for the whole call, not once per receiver.
    let encoded = out.semantic_frame_sizes.len() as f64;
    let completed: usize = out.e2e_latency_ms.iter().map(|p| p.count()).sum();
    assert!(
        completed as f64 >= 0.9 * 3.0 * encoded,
        "{completed} completions for {encoded} frames fanned out to 3 receivers"
    );
    let decodes = out.semantic_decodes as f64;
    assert!(
        decodes <= encoded && decodes >= 0.9 * encoded,
        "{decodes} decodes for {encoded} encoded frames"
    );
}
