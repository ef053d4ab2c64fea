//! Micro-benchmarks of every in-tree codec: the LZMA-style compressor on
//! keypoint payloads, rANS on mesh residuals, the mesh codec on a persona
//! head, the semantic codec end-to-end, and ChaCha20.
//!
//! The keypoint benches (`lzma_like/*`, `semantic/*`) cycle through
//! `KEYPOINT_FRAMES` consecutive captured frames, one per iteration, as a
//! session does. Repeating one frame would let the branch predictor learn
//! that frame's coded bits and read about half the per-frame cost.

use std::hint::black_box;
use visionsim_bench::{criterion_group, criterion_main, Criterion, Throughput};
use visionsim_compress::{compress, decompress, rans};
use visionsim_core::rng::SimRng;
use visionsim_mesh::codec::{decode_mesh, encode_mesh, MeshCodecConfig};
use visionsim_mesh::generate::{head_mesh, PERSONA_TRIANGLES};
use visionsim_semantic::codec::{SemanticCodec, SemanticConfig};
use visionsim_sensor::capture::RgbdCapture;
use visionsim_transport::cipher;

const KEYPOINT_FRAMES: usize = 90;

fn bench(c: &mut Criterion) {
    // Realistic payloads.
    let mut cap = RgbdCapture::default_session();
    let mut rng = SimRng::seed_from_u64(1);
    let frames: Vec<_> = (0..KEYPOINT_FRAMES)
        .map(|_| cap.next_frame(&mut rng).persona_subset())
        .collect();
    let kp_bytes: Vec<Vec<u8>> = frames.iter().map(|f| f.to_bytes()).collect();
    let kp_compressed: Vec<Vec<u8>> = kp_bytes.iter().map(|b| compress(b)).collect();

    let mut g = c.benchmark_group("lzma_like");
    g.throughput(Throughput::Bytes(kp_bytes[0].len() as u64));
    let mut raw = kp_bytes.iter().cycle();
    g.bench_function("compress_keypoint_frame", |b| {
        b.iter(|| black_box(compress(raw.next().unwrap())))
    });
    let mut packed = kp_compressed.iter().cycle();
    g.bench_function("decompress_keypoint_frame", |b| {
        b.iter(|| black_box(decompress(packed.next().unwrap()).unwrap()))
    });
    g.finish();

    let residuals: Vec<u8> = (0..100_000u32)
        .map(|i| match i % 7 {
            0..=3 => 0u8,
            4 | 5 => 1,
            _ => 2,
        })
        .collect();
    let rans_encoded = rans::encode(&residuals);
    let mut g = c.benchmark_group("rans");
    g.throughput(Throughput::Bytes(residuals.len() as u64));
    g.bench_function("encode_100k_residuals", |b| {
        b.iter(|| black_box(rans::encode(&residuals)))
    });
    g.bench_function("decode_100k_residuals", |b| {
        b.iter(|| black_box(rans::decode(&rans_encoded).unwrap()))
    });
    g.finish();

    let head = head_mesh(PERSONA_TRIANGLES, 1);
    let cfg = MeshCodecConfig::default();
    let head_encoded = encode_mesh(&head, &cfg);
    let mut g = c.benchmark_group("mesh_codec");
    g.sample_size(20);
    g.throughput(Throughput::Elements(PERSONA_TRIANGLES as u64));
    g.bench_function("encode_persona_head", |b| {
        b.iter(|| black_box(encode_mesh(&head, &cfg)))
    });
    g.bench_function("decode_persona_head", |b| {
        b.iter(|| black_box(decode_mesh(&head_encoded).unwrap()))
    });
    g.finish();

    let mut g = c.benchmark_group("semantic");
    g.throughput(Throughput::Elements(1));
    let mut enc = SemanticCodec::new(SemanticConfig::default());
    let payloads: Vec<Vec<u8>> = frames.iter().map(|f| enc.encode(f)).collect();
    let mut frame = frames.iter().cycle();
    g.bench_function("encode_frame", |b| {
        b.iter(|| black_box(enc.encode(frame.next().unwrap())))
    });
    let mut dec = SemanticCodec::new(SemanticConfig::default());
    let mut payload = payloads.iter().cycle();
    g.bench_function("decode_frame", |b| {
        b.iter(|| black_box(dec.decode(payload.next().unwrap()).unwrap()))
    });
    g.finish();

    let key = [7u8; 32];
    let nonce = cipher::packet_nonce(1, 1);
    let block = vec![0u8; 1_200];
    let mut g = c.benchmark_group("chacha20");
    g.throughput(Throughput::Bytes(block.len() as u64));
    g.bench_function("seal_mtu_payload", |b| {
        b.iter(|| black_box(cipher::seal(&key, &nonce, &block)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
