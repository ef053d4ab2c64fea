//! Randomized property tests for mesh geometry, LOD, and the codec,
//! driven by deterministic SimRng cases.

use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::mesh::codec::{decode_mesh, encode_mesh, MeshCodecConfig};
use visionsim::mesh::geometry::{TriangleMesh, Vec3};
use visionsim::mesh::lod::{cluster, decimate_to};

const CASES: u64 = 96;

fn case_rng(label: &str, i: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(0x3E5_43E5, label, i))
}

/// A small arbitrary-but-valid triangle mesh.
fn arb_mesh(rng: &mut SimRng) -> TriangleMesh {
    let nv = rng.uniform_u64(4, 39) as usize;
    let positions: Vec<Vec3> = (0..nv)
        .map(|_| {
            Vec3::new(
                rng.uniform_range(-10.0, 10.0) as f32,
                rng.uniform_range(-10.0, 10.0) as f32,
                rng.uniform_range(-10.0, 10.0) as f32,
            )
        })
        .collect();
    let nt = rng.uniform_u64(1, 59) as usize;
    let triangles: Vec<[u32; 3]> = (0..nt)
        .map(|_| (rng.index(nv), rng.index(nv), rng.index(nv)))
        .filter(|&(a, b, c)| a != b && b != c && a != c)
        .map(|(a, b, c)| [a as u32, b as u32, c as u32])
        .collect();
    TriangleMesh {
        positions,
        triangles,
    }
}

/// Connectivity survives the codec bit-exactly; positions within the
/// quantization cell.
#[test]
fn codec_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("codec", i);
        let mesh = arb_mesh(&mut rng);
        let qbits = rng.uniform_u64(6, 14) as u32;
        let cfg = MeshCodecConfig {
            quantization_bits: qbits,
        };
        let decoded = decode_mesh(&encode_mesh(&mesh, &cfg)).expect("own output");
        assert_eq!(&decoded.triangles, &mesh.triangles);
        assert_eq!(decoded.vertex_count(), mesh.vertex_count());
        if let Some(bb) = mesh.bounds() {
            let cell = bb.max_extent() / ((1u32 << qbits) - 1) as f32;
            let tol = cell * 1.8 + 1e-6;
            for (a, b) in mesh.positions.iter().zip(&decoded.positions) {
                assert!(a.distance(b) <= tol, "{} > {}", a.distance(b), tol);
            }
        }
    }
}

/// Decoding arbitrary garbage never panics.
#[test]
fn decode_never_panics() {
    for i in 0..CASES {
        let mut rng = case_rng("decode_garbage", i);
        let n = rng.uniform_u64(0, 500) as usize;
        let mut garbage = vec![0u8; n];
        rng.fill_bytes(&mut garbage);
        let _ = decode_mesh(&garbage);
    }
}

/// Truncating a valid stream at any byte yields `Err`, never a panic.
#[test]
fn decode_truncation_errors_cleanly() {
    for i in 0..CASES {
        let mut rng = case_rng("decode_truncate", i);
        let enc = encode_mesh(&arb_mesh(&mut rng), &MeshCodecConfig::default());
        for cut in 0..enc.len() {
            assert!(decode_mesh(&enc[..cut]).is_err(), "cut {cut} decoded (case {i})");
        }
    }
}

/// Bit flips anywhere in a valid stream must never panic; they error or
/// decode to a different (still structurally valid) mesh.
#[test]
fn decode_bit_flips_never_panic() {
    for i in 0..CASES {
        let mut rng = case_rng("decode_bitflip", i);
        let mesh = arb_mesh(&mut rng);
        let enc = encode_mesh(&mesh, &MeshCodecConfig::default());
        for _ in 0..16 {
            let mut damaged = enc.clone();
            let pos = rng.index(damaged.len());
            damaged[pos] ^= 1 << rng.uniform_u64(0, 7);
            if let Ok(d) = decode_mesh(&damaged) {
                assert!(
                    d.triangles.iter().flatten().all(|&v| (v as usize) < d.vertex_count()),
                    "bit flip produced out-of-range indices (case {i})"
                );
            }
        }
    }
}

/// A header lying about element counts (claiming far more vertices or
/// triangles than the body can hold) errors without huge allocation.
#[test]
fn decode_length_lying_header_errors() {
    for i in 0..CASES {
        let mut rng = case_rng("decode_lying", i);
        let enc = encode_mesh(&arb_mesh(&mut rng), &MeshCodecConfig::default());
        let mut lying = Vec::new();
        // Rebuild the header with absurd counts, keep the rest verbatim.
        visionsim::compress::varint::write_u64(&mut lying, u64::MAX / 8);
        visionsim::compress::varint::write_u64(&mut lying, u64::MAX / 8);
        let (_, a) = visionsim::compress::varint::read_u64(&enc).expect("own header");
        let (_, b) = visionsim::compress::varint::read_u64(&enc[a..]).expect("own header");
        lying.extend_from_slice(&enc[a + b..]);
        assert!(decode_mesh(&lying).is_err(), "lying header accepted (case {i})");
    }
}

/// Clustering never increases counts and keeps indices valid.
#[test]
fn clustering_shrinks_and_stays_valid() {
    for i in 0..CASES {
        let mut rng = case_rng("cluster", i);
        let mesh = arb_mesh(&mut rng);
        let cells = rng.uniform_u64(1, 63) as usize;
        let c = cluster(&mesh, cells);
        assert!(c.triangle_count() <= mesh.triangle_count());
        assert!(c.vertex_count() <= mesh.vertex_count());
        assert!(c.validate().is_ok(), "{:?}", c.validate());
    }
}

/// Decimation to any target yields a valid mesh no larger than the
/// original, and decimation to ≥ the original count is identity.
#[test]
fn decimation_invariants() {
    for i in 0..CASES {
        let mut rng = case_rng("decimate", i);
        let mesh = arb_mesh(&mut rng);
        let target = rng.uniform_u64(0, 99) as usize;
        let d = decimate_to(&mesh, target);
        assert!(d.triangle_count() <= mesh.triangle_count().max(target));
        assert!(d.validate().is_ok());
        let same = decimate_to(&mesh, mesh.triangle_count());
        assert_eq!(same.triangle_count(), mesh.triangle_count());
    }
}

/// The decimated mesh stays inside the original bounding box (with
/// epsilon padding).
#[test]
fn decimation_stays_in_bounds() {
    for i in 0..CASES {
        let mut rng = case_rng("bounds", i);
        let mesh = arb_mesh(&mut rng);
        if mesh.positions.is_empty() {
            continue;
        }
        let outer = mesh.bounds().expect("non-empty");
        let d = cluster(&mesh, 4);
        if let Some(inner) = d.bounds() {
            assert!(visionsim::mesh::lod::bounds_contained(&inner, &outer, 1e-4));
        }
    }
}
