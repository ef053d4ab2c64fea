//! Randomized property tests for `visionsim-compress`: every codec must
//! round-trip arbitrary inputs bit-exactly, decoders must never panic on
//! arbitrary (malformed) inputs, the range coder's branch-free bit step
//! must match a branchy reference model byte for byte, and LZ77 tokens
//! must not depend on earlier calls on the thread. Cases are deterministic
//! SimRng draws.

use visionsim::compress::lz77;
use visionsim::compress::lzma_like::{compress, decompress};
use visionsim::compress::range::{BitModel, RangeDecoder, RangeEncoder};
use visionsim::compress::rans;
use visionsim::compress::varint;
use visionsim::core::par::derive_seed;
use visionsim::core::rng::SimRng;
use visionsim::sensor::capture::RgbdCapture;

const CASES: u64 = 96;

fn case_rng(label: &str, i: u64) -> SimRng {
    SimRng::seed_from_u64(derive_seed(0xC0DE_C0DE, label, i))
}

fn bytes(rng: &mut SimRng, max_len: u64) -> Vec<u8> {
    let n = rng.uniform_u64(0, max_len) as usize;
    let mut v = vec![0u8; n];
    rng.fill_bytes(&mut v);
    v
}

/// Byte strings the matcher actually likes: runs, periods, and text-ish
/// symbols — random bytes alone never exercise long matches.
fn compressible_bytes(rng: &mut SimRng, max_len: u64) -> Vec<u8> {
    let n = rng.uniform_u64(0, max_len) as usize;
    let alphabet = rng.uniform_u64(2, 16) as u8;
    let mut v = Vec::with_capacity(n);
    while v.len() < n {
        if rng.chance(0.3) && !v.is_empty() {
            // Copy a chunk from earlier (plants real matches).
            let start = rng.index(v.len());
            let len = (rng.uniform_u64(1, 40) as usize)
                .min(v.len() - start)
                .min(n - v.len());
            for k in 0..len {
                let b = v[start + k];
                v.push(b);
            }
        } else {
            v.push(rng.uniform_u64(0, alphabet as u64 - 1) as u8);
        }
    }
    v
}

#[test]
fn varint_u64_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("varint_u64", i);
        for _ in 0..32 {
            let v = rng.next_u64() >> rng.uniform_u64(0, 63);
            let mut buf = Vec::new();
            varint::write_u64(&mut buf, v);
            let (got, n) = varint::read_u64(&buf).expect("wrote it");
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }
}

#[test]
fn varint_i64_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("varint_i64", i);
        for _ in 0..32 {
            let v = (rng.next_u64() >> rng.uniform_u64(0, 63)) as i64
                * if rng.chance(0.5) { -1 } else { 1 };
            let mut buf = Vec::new();
            varint::write_i64(&mut buf, v);
            let (got, n) = varint::read_i64(&buf).expect("wrote it");
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }
}

#[test]
fn varint_read_never_panics() {
    for i in 0..CASES {
        let mut rng = case_rng("varint_garbage", i);
        let garbage = bytes(&mut rng, 20);
        let _ = varint::read_u64(&garbage);
        let _ = varint::read_i64(&garbage);
    }
}

#[test]
fn lz77_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("lz77", i);
        let data = if i % 2 == 0 {
            bytes(&mut rng, 4_000)
        } else {
            compressible_bytes(&mut rng, 4_000)
        };
        let tokens = lz77::tokenize(&data);
        assert_eq!(lz77::detokenize(&tokens).expect("own tokens"), data);
    }
}

/// `lz77::tokenize` reuses one `head` table per thread, so a call must
/// leave it as it found it: tokenizing A, then B, whose 3-byte prefixes
/// hash to A's buckets at other positions, then A again must give the
/// tokens a fresh thread gives for A. The inputs cover 0–2 bytes (no
/// hashed position), a keypoint frame, and more than one window (the
/// chain links wrap).
#[test]
fn lz77_tokens_do_not_depend_on_earlier_calls() {
    let mut capture = RgbdCapture::default_session();
    let frame = capture
        .next_frame(&mut SimRng::seed_from_u64(61))
        .persona_subset()
        .to_bytes();
    let mut rng = case_rng("lz77_reuse", 0);
    let mut inputs = vec![Vec::new(), vec![7], vec![7, 7], frame];
    inputs.push(compressible_bytes(&mut rng, 3_000));
    let mut long = compressible_bytes(&mut rng, 40_000);
    while long.len() <= lz77::WINDOW + 5_000 {
        long.extend_from_within(..long.len() / 2);
    }
    inputs.push(long);
    for a in &inputs {
        let fresh = std::thread::scope(|s| s.spawn(|| lz77::tokenize(a)).join().unwrap());
        let mut b = vec![0xA5; 5];
        b.extend_from_slice(a);
        b.extend_from_slice(&a[..a.len() / 2]);
        assert_eq!(lz77::tokenize(a), fresh, "{}-byte A, first call", a.len());
        lz77::tokenize(&b);
        assert_eq!(lz77::tokenize(a), fresh, "{}-byte A, after B", a.len());
    }
}

#[test]
fn lz77_round_trips_repetitive() {
    for i in 0..CASES {
        let mut rng = case_rng("lz77_repetitive", i);
        let unit = {
            let n = rng.uniform_u64(1, 19) as usize;
            let mut u = vec![0u8; n];
            rng.fill_bytes(&mut u);
            u
        };
        let reps = rng.uniform_u64(1, 199) as usize;
        let data: Vec<u8> = unit
            .iter()
            .cycle()
            .take(unit.len() * reps)
            .copied()
            .collect();
        let tokens = lz77::tokenize(&data);
        assert_eq!(lz77::detokenize(&tokens).expect("own tokens"), data);
    }
}

#[test]
fn lzma_like_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("lzma_like", i);
        let data = if i % 2 == 0 {
            bytes(&mut rng, 3_000)
        } else {
            compressible_bytes(&mut rng, 3_000)
        };
        let packed = compress(&data);
        assert_eq!(decompress(&packed).expect("own output"), data);
    }
}

#[test]
fn lzma_like_decompress_never_panics() {
    for i in 0..CASES {
        let mut rng = case_rng("lzma_garbage", i);
        let garbage = bytes(&mut rng, 300);
        let _ = decompress(&garbage);
    }
}

#[test]
fn rans_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("rans", i);
        let data = if i % 2 == 0 {
            bytes(&mut rng, 3_000)
        } else {
            compressible_bytes(&mut rng, 3_000)
        };
        let packed = rans::encode(&data);
        assert_eq!(rans::decode(&packed).expect("own output"), data);
    }
}

#[test]
fn rans_decode_never_panics() {
    for i in 0..CASES {
        let mut rng = case_rng("rans_garbage", i);
        let garbage = bytes(&mut rng, 300);
        let _ = rans::decode(&garbage);
    }
}

#[test]
fn range_coder_round_trips_bit_patterns() {
    for i in 0..CASES {
        let mut rng = case_rng("range_coder", i);
        let n = rng.uniform_u64(0, 2_000) as usize;
        // Biased bit streams exercise the adaptive model harder than fair ones.
        let p = rng.uniform();
        let pattern: Vec<bool> = (0..n).map(|_| rng.chance(p)).collect();
        let mut enc = RangeEncoder::new();
        let mut m = BitModel::new();
        for &b in &pattern {
            enc.encode_bit(&mut m, b);
        }
        let encoded = enc.finish();
        let mut dec = RangeDecoder::new(&encoded).expect("5-byte preamble");
        let mut m = BitModel::new();
        for &b in &pattern {
            assert_eq!(dec.decode_bit(&mut m), b);
        }
    }
}

/// Compressing already-compressed data must still round-trip (the
/// classic double-compression stress).
#[test]
fn double_compression_round_trips() {
    for i in 0..CASES {
        let mut rng = case_rng("double_compress", i);
        let data = compressible_bytes(&mut rng, 1_000);
        let once = compress(&data);
        let twice = compress(&once);
        let back_once = decompress(&twice).expect("own output");
        assert_eq!(&back_once, &once);
        assert_eq!(decompress(&back_once).expect("own output"), data);
    }
}

/// A reference range coder whose every decision branches on the bit,
/// with a model as a plain `u16` probability of a 0.
/// `bit_coder_matches_the_reference_model` holds the library's
/// branch-free bit step to it byte for byte.
mod reference {
    const PROB_BITS: u32 = 11;
    const MOVE_BITS: u32 = 5;
    const TOP: u32 = 1 << 24;
    pub const PROB_INIT: u16 = 1 << (PROB_BITS - 1);

    fn update(p: &mut u16, bit: bool) {
        if bit {
            *p -= *p >> MOVE_BITS;
        } else {
            *p += ((1 << PROB_BITS) - *p) >> MOVE_BITS;
        }
    }

    pub struct Encoder {
        low: u64,
        range: u32,
        cache: u8,
        cache_size: u64,
        out: Vec<u8>,
        events: ByteEvents,
    }

    /// How often an encoder's `shift_low` took each rare byte path.
    #[derive(Debug, Default)]
    pub struct ByteEvents {
        /// Calls that added a carry to the cached byte.
        pub carries: u64,
        /// Of those, the calls that carried through deferred 0xFF bytes.
        pub deferred_carries: u64,
        /// Calls that deferred a 0xFF byte (`cache_size > 1`).
        pub deferrals: u64,
    }

    impl Encoder {
        pub fn new() -> Self {
            Encoder {
                low: 0,
                range: u32::MAX,
                cache: 0,
                cache_size: 1,
                out: Vec::new(),
                events: ByteEvents::default(),
            }
        }

        fn shift_low(&mut self) {
            if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
                let carry = (self.low >> 32) as u8;
                if carry != 0 {
                    self.events.carries += 1;
                    self.events.deferred_carries += (self.cache_size > 1) as u64;
                }
                let mut byte = self.cache;
                loop {
                    self.out.push(byte.wrapping_add(carry));
                    byte = 0xFF;
                    self.cache_size -= 1;
                    if self.cache_size == 0 {
                        break;
                    }
                }
                self.cache = (self.low >> 24) as u8;
            } else {
                self.events.deferrals += 1;
            }
            self.cache_size += 1;
            self.low = (self.low << 8) & 0xFFFF_FFFF;
        }

        fn normalize(&mut self) {
            while self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }

        pub fn encode_bit(&mut self, p: &mut u16, bit: bool) {
            let bound = (self.range >> PROB_BITS) * *p as u32;
            if !bit {
                self.range = bound;
            } else {
                self.low += bound as u64;
                self.range -= bound;
            }
            update(p, bit);
            self.normalize();
        }

        pub fn encode_direct(&mut self, value: u32, count: u32) {
            for i in (0..count).rev() {
                self.range >>= 1;
                if (value >> i) & 1 == 1 {
                    self.low += self.range as u64;
                }
                self.normalize();
            }
        }

        /// Flush; returns the bytes and how often each rare byte path ran.
        pub fn finish(mut self) -> (Vec<u8>, ByteEvents) {
            for _ in 0..5 {
                self.shift_low();
            }
            (self.out, self.events)
        }
    }

    pub struct Decoder<'a> {
        code: u32,
        range: u32,
        input: &'a [u8],
        pos: usize,
        pub overrun: usize,
    }

    impl<'a> Decoder<'a> {
        pub fn new(input: &'a [u8]) -> Option<Self> {
            if input.len() < 5 {
                return None;
            }
            let code = input[1..5].iter().fold(0u32, |c, &b| (c << 8) | b as u32);
            Some(Decoder {
                code,
                range: u32::MAX,
                input,
                pos: 5,
                overrun: 0,
            })
        }

        fn normalize(&mut self) {
            while self.range < TOP {
                let b = match self.input.get(self.pos) {
                    Some(&b) => b,
                    None => {
                        self.overrun += 1;
                        0
                    }
                };
                self.pos += 1;
                self.range <<= 8;
                self.code = (self.code << 8) | b as u32;
            }
        }

        pub fn decode_bit(&mut self, p: &mut u16) -> bool {
            let bound = (self.range >> PROB_BITS) * *p as u32;
            let bit = if self.code < bound {
                self.range = bound;
                false
            } else {
                self.code -= bound;
                self.range -= bound;
                true
            };
            update(p, bit);
            self.normalize();
            bit
        }

        pub fn decode_direct_bit(&mut self) -> bool {
            self.range >>= 1;
            let bit = self.code >= self.range;
            if bit {
                self.code -= self.range;
            }
            self.normalize();
            bit
        }
    }
}

/// One coded step of a [`bit_coder_matches_the_reference_model`] case.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Step {
    /// A byte through the 8-bit literal tree of context `ctx`.
    Literal { ctx: usize, byte: u8 },
    /// One bit under the shared run model.
    Run(bool),
    /// `count` fixed-probability bits of `value`.
    Direct { value: u32, count: u32 },
}

const CONTEXTS: usize = 16;

/// Float keypoint coordinates as bytes (their mantissa bits are coin
/// flips), long one-valued runs, and direct bits, interleaved.
fn coder_steps(rng: &mut SimRng) -> Vec<Step> {
    let mut steps = Vec::new();
    for _ in 0..rng.uniform_u64(4, 12) {
        match rng.uniform_u64(0, 2) {
            0 => {
                for _ in 0..rng.uniform_u64(2, 30) {
                    let ctx = rng.index(CONTEXTS);
                    let coord = rng.uniform_range(-2.0, 2.0) as f32;
                    for byte in coord.to_le_bytes() {
                        steps.push(Step::Literal { ctx, byte });
                    }
                }
            }
            1 => {
                let bit = rng.chance(0.5);
                for _ in 0..rng.uniform_u64(150, 400) {
                    steps.push(Step::Run(bit));
                }
            }
            _ => {
                for _ in 0..rng.uniform_u64(1, 20) {
                    let count = rng.uniform_u64(1, 32) as u32;
                    let value = (rng.next_u64() >> (64 - count)) as u32;
                    steps.push(Step::Direct { value, count });
                }
            }
        }
    }
    steps
}

/// Decode `steps`' shapes from `bytes` with the library and the reference
/// side by side, asserting equal bits and equal overrun after every bit.
/// Returns the decoded steps.
fn decode_side_by_side(bytes: &[u8], steps: &[Step], label: &str) -> Vec<Step> {
    let (lib, reference) = (RangeDecoder::new(bytes), reference::Decoder::new(bytes));
    assert_eq!(
        lib.is_ok(),
        reference.is_some(),
        "{label}: preamble verdicts differ"
    );
    let (Ok(mut lib), Some(mut reference)) = (lib, reference) else {
        return Vec::new();
    };
    let mut lib_literals = [[BitModel::new(); 256]; CONTEXTS];
    let mut ref_literals = [[reference::PROB_INIT; 256]; CONTEXTS];
    let (mut lib_run, mut ref_run) = (BitModel::new(), reference::PROB_INIT);
    let same_overrun = |lib: &RangeDecoder, reference: &reference::Decoder, at: usize| {
        assert_eq!(
            lib.overrun(),
            reference.overrun,
            "{label}: overrun differs at step {at}"
        );
    };
    let mut decoded = Vec::with_capacity(steps.len());
    for (at, step) in steps.iter().enumerate() {
        decoded.push(match *step {
            Step::Literal { ctx, .. } => {
                let mut m = 1usize;
                for _ in 0..8 {
                    let bit = lib.decode_bit(&mut lib_literals[ctx][m]);
                    assert_eq!(
                        bit,
                        reference.decode_bit(&mut ref_literals[ctx][m]),
                        "{label}: literal bit differs at step {at}"
                    );
                    same_overrun(&lib, &reference, at);
                    m = (m << 1) | bit as usize;
                }
                Step::Literal {
                    ctx,
                    byte: (m - 256) as u8,
                }
            }
            Step::Run(_) => {
                let bit = lib.decode_bit(&mut lib_run);
                assert_eq!(
                    bit,
                    reference.decode_bit(&mut ref_run),
                    "{label}: run bit differs at step {at}"
                );
                same_overrun(&lib, &reference, at);
                Step::Run(bit)
            }
            Step::Direct { count, .. } => {
                let mut value = 0u32;
                for _ in 0..count {
                    let bit = lib.decode_direct(1) == 1;
                    assert_eq!(
                        bit,
                        reference.decode_direct_bit(),
                        "{label}: direct bit differs at step {at}"
                    );
                    same_overrun(&lib, &reference, at);
                    value = (value << 1) | bit as u32;
                }
                Step::Direct { value, count }
            }
        });
    }
    decoded
}

/// The branch-free bit step (`BitModel::update`, `encode_bit`,
/// `decode_bit`) is the branchy reference's arithmetic with the branch
/// replaced by a mask select: the encoders must write identical bytes,
/// and the decoders must read identical bits with identical `overrun()`,
/// on their own streams and on arbitrary bytes. The cases must also reach
/// the encoder's rare byte paths, which the library codes out of line:
/// deferring a 0xFF byte, and a carry through deferred 0xFF bytes.
#[test]
fn bit_coder_matches_the_reference_model() {
    let (mut lowest, mut highest) = (reference::PROB_INIT, reference::PROB_INIT);
    let mut events = reference::ByteEvents::default();
    for i in 0..CASES {
        let mut rng = case_rng("bit_coder_reference", i);
        let steps = coder_steps(&mut rng);

        let mut lib = RangeEncoder::new();
        let mut reference = reference::Encoder::new();
        let mut lib_literals = [[BitModel::new(); 256]; CONTEXTS];
        let mut ref_literals = [[reference::PROB_INIT; 256]; CONTEXTS];
        let (mut lib_run, mut ref_run) = (BitModel::new(), reference::PROB_INIT);
        for step in &steps {
            match *step {
                Step::Literal { ctx, byte } => {
                    lib.encode_tree(&mut lib_literals[ctx], 8, byte as u32);
                    let mut m = 1usize;
                    for k in (0..8).rev() {
                        let bit = (byte >> k) & 1 == 1;
                        reference.encode_bit(&mut ref_literals[ctx][m], bit);
                        m = (m << 1) | bit as usize;
                    }
                }
                Step::Run(bit) => {
                    lib.encode_bit(&mut lib_run, bit);
                    reference.encode_bit(&mut ref_run, bit);
                    lowest = lowest.min(ref_run);
                    highest = highest.max(ref_run);
                }
                Step::Direct { value, count } => {
                    lib.encode_direct(value, count);
                    reference.encode_direct(value, count);
                }
            }
        }
        let encoded = lib.finish();
        let (expected, case_events) = reference.finish();
        assert_eq!(encoded, expected, "case {i}: encoder bytes differ");
        events.carries += case_events.carries;
        events.deferred_carries += case_events.deferred_carries;
        events.deferrals += case_events.deferrals;

        let decoded = decode_side_by_side(&encoded, &steps, &format!("case {i}"));
        assert!(decoded == steps, "case {i}: steps did not round-trip");

        let hostile = bytes(&mut rng, 64);
        decode_side_by_side(&hostile, &steps, &format!("case {i}, hostile"));
    }
    // The runs drove the run model to both ends of its range.
    assert_eq!((lowest, highest), (31, 2017));
    assert!(
        events.deferred_carries > 0 && events.deferrals > 0,
        "the cases reached too few rare byte paths: {events:?}"
    );
}
