//! Randomized property tests for the semantic codec and packetization,
//! driven by deterministic SimRng cases.

use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::semantic::codec::{CodecMode, SemanticCodec, SemanticConfig};
use visionsim::semantic::packetize::{Fragment, FrameAssembler, Packetizer};
use visionsim::sensor::keypoints::KeypointFrame;

const CASES: u64 = 96;

fn case_rng(label: &str, i: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(0x5E3A_471C, label, i))
}

fn arb_frame(rng: &mut SimRng, n: usize) -> KeypointFrame {
    KeypointFrame {
        points: (0..n)
            .map(|_| {
                [
                    rng.uniform_range(-2.0, 2.0) as f32,
                    rng.uniform_range(-2.0, 2.0) as f32,
                    rng.uniform_range(-2.0, 2.0) as f32,
                ]
            })
            .collect(),
    }
}

fn bytes(rng: &mut SimRng, min_len: u64, max_len: u64) -> Vec<u8> {
    let n = rng.uniform_u64(min_len, max_len) as usize;
    let mut v = vec![0u8; n];
    rng.fill_bytes(&mut v);
    v
}

/// Absolute mode is bit-exact for any frame.
#[test]
fn absolute_mode_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("absolute", i);
        let frame = arb_frame(&mut rng, 74);
        let cfg = SemanticConfig::default();
        let mut enc = SemanticCodec::new(cfg);
        let mut dec = SemanticCodec::new(cfg);
        assert_eq!(dec.decode(&enc.encode(&frame)).expect("own output"), frame);
    }
}

/// Delta mode is lossy only to quantization, for any frame sequence.
#[test]
fn delta_mode_error_is_bounded() {
    for i in 0..CASES {
        let mut rng = case_rng("delta", i);
        let count = rng.uniform_u64(1, 29) as usize;
        let frames: Vec<KeypointFrame> = (0..count).map(|_| arb_frame(&mut rng, 10)).collect();
        let step = rng.uniform_u64(1, 49) as u32; // 0.1 mm .. 5 mm
        let step_m = step as f32 * 1e-4;
        let cfg = SemanticConfig {
            mode: CodecMode::Delta {
                keyframe_every: 7,
                step_m,
            },
            fps: 90.0,
        };
        let mut enc = SemanticCodec::new(cfg);
        let mut dec = SemanticCodec::new(cfg);
        for f in &frames {
            let got = dec.decode(&enc.encode(f)).expect("lossless channel");
            let err = got.max_displacement(f).expect("same arity");
            assert!(err <= step_m * 0.51 + 1e-5, "err {err} step {step_m}");
        }
    }
}

/// Decoding arbitrary garbage never panics.
#[test]
fn decode_never_panics() {
    for i in 0..CASES {
        let mut rng = case_rng("garbage", i);
        let garbage = bytes(&mut rng, 0, 300);
        let mut dec = SemanticCodec::new(SemanticConfig::default());
        let _ = dec.decode(&garbage);
        let mut dec = SemanticCodec::new(SemanticConfig {
            mode: CodecMode::Delta {
                keyframe_every: 5,
                step_m: 0.001,
            },
            fps: 90.0,
        });
        let _ = dec.decode(&garbage);
    }
}

/// Fragmentation reassembles any payload under any delivery order.
#[test]
fn reassembly_under_permutation() {
    for i in 0..CASES {
        let mut rng = case_rng("reassembly", i);
        let payload = bytes(&mut rng, 0, 8_000);
        let mut p = Packetizer::new();
        let mut frags = p.split(&payload);
        rng.shuffle(&mut frags);
        let mut asm = FrameAssembler::new();
        let mut out = None;
        for f in frags {
            if let Some((_, data)) = asm.push(f) {
                out = Some(data);
            }
        }
        assert_eq!(out.expect("complete delivery"), payload);
    }
}

/// Fragment wire format round-trips and its parser never panics.
#[test]
fn fragment_wire_round_trip() {
    for i in 0..CASES {
        let mut rng = case_rng("fragment_wire", i);
        let frame_id = rng.next_u64();
        let total = rng.uniform_u64(1, 99) as u16;
        let body = bytes(&mut rng, 0, 1_500);
        let garbage = bytes(&mut rng, 0, 40);
        let f = Fragment {
            frame_id,
            index: total - 1,
            total,
            body,
        };
        assert_eq!(Fragment::parse(&f.to_bytes()), Some(f));
        let _ = Fragment::parse(&garbage);
    }
}

/// Dropping any single fragment of a multi-fragment frame prevents
/// reconstruction (the all-or-nothing property).
#[test]
fn any_single_loss_blocks_frame() {
    for i in 0..CASES {
        let mut rng = case_rng("single_loss", i);
        let payload = bytes(&mut rng, 2_500, 6_000);
        let mut p = Packetizer::new();
        let mut frags = p.split(&payload);
        assert!(frags.len() >= 2, "payload should span fragments");
        let drop = rng.index(frags.len());
        frags.remove(drop);
        let mut asm = FrameAssembler::new();
        for f in frags {
            assert!(asm.push(f).is_none());
        }
        assert_eq!(asm.completed(), 0);
    }
}
