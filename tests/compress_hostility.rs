//! Decoder hostility suite: decoders are fed systematically damaged
//! streams — truncated at every byte, bit-flipped at random positions, and
//! headers lying about the decoded length — and must return `Err` (or a
//! clean wrong answer where the format cannot detect the damage), never
//! panic, and never allocate anywhere near a lying header's claim.

use visionsim::compress::lzma_like::{compress, decompress, MAX_DECODED_LEN};
use visionsim::compress::rans;
use visionsim::compress::varint;
use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::core::SimError;

const CASES: u64 = 48;

fn case_rng(label: &str, i: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(0xBAD_F00D, label, i))
}

fn sample_payload(rng: &mut SimRng) -> Vec<u8> {
    // Mix of compressible structure and noise, like a keypoint trace.
    let n = rng.uniform_u64(16, 800) as usize;
    (0..n)
        .map(|k| {
            if rng.chance(0.7) {
                (k % 23) as u8
            } else {
                rng.uniform_u64(0, 255) as u8
            }
        })
        .collect()
}

#[test]
fn truncation_at_every_cut_never_panics() {
    for i in 0..CASES {
        let mut rng = case_rng("truncate", i);
        let payload = sample_payload(&mut rng);
        for stream in [rans::encode(&payload), compress(&payload)] {
            for cut in 0..stream.len() {
                // `Err` is the common outcome; a short prefix that decodes
                // "successfully" to the wrong bytes is tolerated only for
                // cuts inside the trailing flush padding. Panic never is.
                let _ = rans::decode(&stream[..cut]);
                let _ = decompress(&stream[..cut]);
            }
        }
    }
}

#[test]
fn truncation_that_removes_body_bytes_errors() {
    for i in 0..CASES {
        let mut rng = case_rng("truncate_hard", i);
        let payload = sample_payload(&mut rng);
        let r = rans::encode(&payload);
        // Cut deep enough that real coded symbols are missing (the final
        // 5-ish bytes are flush padding a decoder can survive).
        assert!(
            rans::decode(&r[..r.len() / 2]).is_err(),
            "half a rans stream decoded cleanly (case {i})"
        );
        let c = compress(&payload);
        match decompress(&c[..c.len() / 2]) {
            Err(_) => {}
            Ok(d) => assert_ne!(d, payload, "half an lzma stream round-tripped (case {i})"),
        }
    }
}

#[test]
fn bit_flips_error_or_differ_but_never_panic() {
    for i in 0..CASES {
        let mut rng = case_rng("bitflip", i);
        let payload = sample_payload(&mut rng);
        let r = rans::encode(&payload);
        let c = compress(&payload);
        for _ in 0..16 {
            let mut damaged = r.clone();
            let pos = rng.index(damaged.len());
            damaged[pos] ^= 1 << rng.uniform_u64(0, 7);
            match rans::decode(&damaged) {
                Err(_) => {}
                Ok(d) => assert!(
                    d != payload || damaged == r,
                    "flipped rans byte {pos} went unnoticed (case {i})"
                ),
            }
            let mut damaged = c.clone();
            let pos = rng.index(damaged.len());
            damaged[pos] ^= 1 << rng.uniform_u64(0, 7);
            let _ = decompress(&damaged); // Err or wrong bytes; must not panic.
        }
    }
}

#[test]
fn length_lying_headers_are_capped_not_allocated() {
    // Headers claiming absurd decoded lengths must be rejected up front —
    // a `Vec::with_capacity(claim)` here would be a memory bomb.
    for claim in [MAX_DECODED_LEN as u64 + 1, u64::MAX / 2, u64::MAX] {
        let mut lying = Vec::new();
        varint::write_u64(&mut lying, claim);
        lying.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            rans::decode(&lying),
            Err(SimError::LimitExceeded { .. } | SimError::Corrupt { .. })
        ));
        assert!(matches!(
            decompress(&lying),
            Err(SimError::LimitExceeded { .. } | SimError::Corrupt { .. })
        ));
    }
}

#[test]
fn length_inflated_within_cap_errors_cleanly() {
    // A subtler lie: keep a valid body but inflate the claimed length a
    // little, so the decoder runs out of real symbols mid-stream.
    for i in 0..CASES {
        let mut rng = case_rng("inflate", i);
        let payload = sample_payload(&mut rng);
        let honest = compress(&payload);
        let (orig, hdr) = varint::read_u64(&honest).expect("own header");
        let mut lying = Vec::new();
        varint::write_u64(&mut lying, orig + 1 + rng.uniform_u64(0, 1000));
        lying.extend_from_slice(&honest[hdr..]);
        match decompress(&lying) {
            Err(_) => {}
            Ok(d) => assert_ne!(d, payload, "inflated claim round-tripped (case {i})"),
        }
    }
}

#[test]
fn pure_garbage_never_panics() {
    for i in 0..CASES {
        let mut rng = case_rng("garbage", i);
        let n = rng.uniform_u64(0, 2_000) as usize;
        let mut garbage = vec![0u8; n];
        rng.fill_bytes(&mut garbage);
        let _ = rans::decode(&garbage);
        let _ = decompress(&garbage);
    }
}
