//! Golden checksums across the zero-copy datapath refactor.
//!
//! The shared-payload refactor (`Packet.payload: Arc<[u8]>`, route cursors,
//! inline tap snippets) must not change a single output byte: these FNV-1a 64
//! checksums were recorded from the pre-refactor datapath and the regenerated
//! Figure 4 / Figure 6 / resilience artifacts must still hash to them at 1, 4,
//! and 8 worker threads. The LZMA-style compressor's output bytes are
//! pinned the same way, so a change in its match choices cannot hide
//! behind round-trip tests.
//!
//! To re-record after an *intentional* output change, run with
//! `GOLDEN_PRINT=1` and paste the printed table:
//!
//! ```sh
//! GOLDEN_PRINT=1 cargo test --test golden -- --nocapture
//! ```

use visionsim::compress::{compress, lz77::WINDOW};
use visionsim::core::par;
use visionsim::core::rng::SimRng;
use visionsim::experiments::harness::fnv1a64;
use visionsim::experiments::{figure4, figure6, resilience};
use visionsim::sensor::capture::RgbdCapture;

const SEED: u64 = 2024;

/// The artifact slice under checksum: the three experiment families whose
/// hot path is entirely `net::network` packet forwarding.
fn artifacts() -> [(&'static str, String); 3] {
    [
        ("figure4", format!("{}", figure4::run(2, 3, SEED))),
        ("figure6", format!("{}", figure6::run(3, SEED))),
        ("resilience", format!("{}", resilience::run(5, SEED))),
    ]
}

/// Checksums recorded from the pre-refactor (`Vec<u8>` payload) datapath.
const GOLDEN: [(&str, u64); 3] = [
    ("figure4", 0xf06c9073775c5dce),   // 601 bytes
    ("figure6", 0xe49c3db79e103424),   // 876 bytes
    ("resilience", 0x1c0614d4851436e3), // 2845 bytes
];

#[test]
fn artifacts_match_pre_refactor_golden_checksums_at_1_4_8_threads() {
    // `set_threads` is process-global; hold the override guard so no other
    // test in this binary races the worker count.
    let _guard = par::override_guard();
    for threads in [1usize, 4, 8] {
        par::set_threads(Some(threads));
        let got = artifacts();
        if std::env::var_os("GOLDEN_PRINT").is_some() {
            for (name, text) in &got {
                println!(
                    "    (\"{name}\", 0x{:016x}), // {} bytes @ {threads} threads",
                    fnv1a64(text.as_bytes()),
                    text.len()
                );
            }
            continue;
        }
        for ((name, text), (gname, golden)) in got.iter().zip(GOLDEN) {
            assert_eq!(*name, gname);
            assert_eq!(
                fnv1a64(text.as_bytes()),
                golden,
                "{name} @ {threads} threads diverged from the pre-refactor golden bytes"
            );
        }
    }
    par::set_threads(None);
}

/// Seeded compressor inputs, one class per entry: keypoint frames as a
/// spatial sender captures them, a compressible word stream, and one input
/// three match windows long.
fn compress_inputs() -> [(&'static str, Vec<Vec<u8>>); 3] {
    let mut rng = SimRng::seed_from_u64(SEED);
    let mut capture = RgbdCapture::default_session();
    let keypoints = (0..32)
        .map(|_| capture.next_frame(&mut rng).persona_subset().to_bytes())
        .collect();
    let words = [
        "persona ",
        "keypoint ",
        "spatial ",
        "frame ",
        "the ",
        "sfu ",
        "90fps ",
    ];
    let text = (0..1_500)
        .flat_map(|_| rng.choose(&words).bytes())
        .collect();
    // A noise block repeated with sparse damage for three windows: the
    // hash chains wrap the `prev` ring and walk into candidates past the
    // window.
    let mut block = vec![0u8; 40_000];
    rng.fill_bytes(&mut block);
    let mut long = Vec::with_capacity(WINDOW * 3);
    while long.len() < WINDOW * 3 {
        long.extend_from_slice(&block);
        let at = long.len() - 1 - rng.index(block.len());
        long[at] ^= 0x5a;
    }
    [
        ("keypoint_frames", keypoints),
        ("word_text", vec![text]),
        ("beyond_window", vec![long]),
    ]
}

/// FNV-1a 64 of `compress` output per input class, recorded before the
/// match finder's tables were sized to the input.
const COMPRESS_GOLDEN: [(&str, u64); 3] = [
    ("keypoint_frames", 0x182cfa8950b8995d),
    ("word_text", 0x6ccf5143b23d8b81),
    ("beyond_window", 0x499046656685c4d7),
];

#[test]
fn compressor_output_bytes_match_golden_checksums() {
    for ((name, inputs), (gname, golden)) in compress_inputs().into_iter().zip(COMPRESS_GOLDEN) {
        assert_eq!(name, gname);
        let mut out = Vec::new();
        for input in &inputs {
            out.extend_from_slice(&compress(input));
        }
        let got = fnv1a64(&out);
        if std::env::var_os("GOLDEN_PRINT").is_some() {
            println!("    (\"{name}\", 0x{got:016x}), // {} bytes", out.len());
            continue;
        }
        assert_eq!(got, golden, "{name}: compressed bytes changed");
    }
}
