//! Adaptive binary range coder (LZMA-style, carry-correct).
//!
//! The coder works on binary decisions, each guided by an adaptive 11-bit
//! probability model ([`BitModel`]). Composite symbols (bytes, lengths) are
//! coded through bit trees. This is the same construction LZMA uses, which
//! is exactly what the paper ran over its keypoint traces.

use visionsim_core::SimError;

/// Number of probability bits (LZMA convention).
const PROB_BITS: u32 = 11;
/// Initial probability = 0.5.
const PROB_INIT: u16 = (1 << PROB_BITS) / 2;
/// Adaptation shift: higher = slower adaptation.
const MOVE_BITS: u32 = 5;
/// Renormalization threshold.
const TOP: u32 = 1 << 24;

/// An adaptive probability estimate for one binary context.
#[derive(Clone, Copy, Debug)]
pub struct BitModel(u16);

impl Default for BitModel {
    fn default() -> Self {
        BitModel(PROB_INIT)
    }
}

impl BitModel {
    /// A fresh model at p = 0.5.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adapt the probability of a 0 to a coded bit. Both outcomes are
    /// computed and `mask` (all ones for a 1) keeps one: float mantissa
    /// bits are coin flips, which a branch on the bit mispredicts half the
    /// time. The probability stays in `[31, 2017]`.
    fn update(&mut self, mask: u32) {
        let p = self.0 as u32;
        let after_one = p - (p >> MOVE_BITS);
        let after_zero = p + (((1 << PROB_BITS) - p) >> MOVE_BITS);
        self.0 = ((after_one & mask) | (after_zero & !mask)) as u16;
    }
}

/// All ones for a 1 bit, all zeros for a 0 bit.
fn bit_mask(bit: bool) -> u32 {
    0u32.wrapping_sub(bit as u32)
}

/// Range encoder producing a byte stream.
#[derive(Debug)]
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    fn shift_low(&mut self) {
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
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
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xFFFF_FFFF;
    }

    /// Encode one bit under `model`: a 0 keeps `[low, low + bound)`, a 1
    /// keeps `[low + bound, low + range)`, selected without a branch.
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        let mask = bit_mask(bit);
        self.low += (bound & mask) as u64;
        self.range = (bound & !mask) | ((self.range - bound) & mask);
        model.update(mask);
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    /// Encode `count` bits of `value` (MSB-first) at fixed probability 1/2.
    pub fn encode_direct(&mut self, value: u32, count: u32) {
        for i in (0..count).rev() {
            self.range >>= 1;
            let bit = (value >> i) & 1;
            if bit == 1 {
                self.low += self.range as u64;
            }
            while self.range < TOP {
                self.range <<= 8;
                self.shift_low();
            }
        }
    }

    /// Encode `value` through a bit tree of `depth` levels. `models` must
    /// hold `1 << depth` entries.
    pub fn encode_tree(&mut self, models: &mut [BitModel], depth: u32, value: u32) {
        debug_assert!(models.len() >= (1usize << depth));
        let mut m: usize = 1;
        for i in (0..depth).rev() {
            let bit = (value >> i) & 1 == 1;
            self.encode_bit(&mut models[m], bit);
            m = (m << 1) | bit as usize;
        }
    }

    /// Flush and return the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Range decoder over a byte stream.
#[derive(Debug)]
pub struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    input: &'a [u8],
    pos: usize,
    overrun: usize,
}

impl<'a> RangeDecoder<'a> {
    /// Initialize over encoder output. Fails if the stream is too short to
    /// contain the 5-byte preamble.
    pub fn new(input: &'a [u8]) -> Result<Self, SimError> {
        if input.len() < 5 {
            return Err(SimError::Truncated {
                what: "range coder preamble",
            });
        }
        let mut code = 0u32;
        // First byte is always 0 (the initial cache); skip it.
        for &b in &input[1..5] {
            code = (code << 8) | b as u32;
        }
        Ok(RangeDecoder {
            code,
            range: u32::MAX,
            input,
            pos: 5,
            overrun: 0,
        })
    }

    fn next_byte(&mut self) -> u8 {
        let b = match self.input.get(self.pos) {
            Some(&b) => b,
            None => {
                self.overrun += 1;
                0
            }
        };
        self.pos += 1;
        b
    }

    /// How many bytes past the end of input have been (virtually) read.
    /// The encoder's flush emits five trailing bytes, so a small overrun is
    /// normal at stream end; a growing overrun means the caller is decoding
    /// past a truncated stream.
    pub fn overrun(&self) -> usize {
        self.overrun
    }

    /// Decode one bit under `model`, the mirror of
    /// [`RangeEncoder::encode_bit`]: the same branch-free selection.
    pub fn decode_bit(&mut self, model: &mut BitModel) -> bool {
        let bound = (self.range >> PROB_BITS) * model.0 as u32;
        let bit = self.code >= bound;
        let mask = bit_mask(bit);
        self.code -= bound & mask;
        self.range = (bound & !mask) | ((self.range - bound) & mask);
        model.update(mask);
        while self.range < TOP {
            self.range <<= 8;
            self.code = (self.code << 8) | self.next_byte() as u32;
        }
        bit
    }

    /// Decode `count` fixed-probability bits (MSB-first).
    pub fn decode_direct(&mut self, count: u32) -> u32 {
        let mut value = 0u32;
        for _ in 0..count {
            self.range >>= 1;
            let bit = if self.code >= self.range {
                self.code -= self.range;
                1
            } else {
                0
            };
            value = (value << 1) | bit;
            while self.range < TOP {
                self.range <<= 8;
                self.code = (self.code << 8) | self.next_byte() as u32;
            }
        }
        value
    }

    /// Decode a value from a bit tree of `depth` levels.
    pub fn decode_tree(&mut self, models: &mut [BitModel], depth: u32) -> u32 {
        debug_assert!(models.len() >= (1usize << depth));
        let mut m: usize = 1;
        for _ in 0..depth {
            let bit = self.decode_bit(&mut models[m]);
            m = (m << 1) | bit as usize;
        }
        m as u32 - (1 << depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_model_bit_stream_round_trips() {
        let bits: Vec<bool> = (0..2_000).map(|i| (i * 7 + i / 13) % 3 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut model = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut model, b);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut model = BitModel::new();
        for &b in &bits {
            assert_eq!(dec.decode_bit(&mut model), b);
        }
    }

    #[test]
    fn skewed_streams_compress() {
        // 99% zeros: adaptive model should get well under 1 bit/bit.
        let n = 10_000;
        let bits: Vec<bool> = (0..n).map(|i| i % 100 == 0).collect();
        let mut enc = RangeEncoder::new();
        let mut model = BitModel::new();
        for &b in &bits {
            enc.encode_bit(&mut model, b);
        }
        let bytes = enc.finish();
        assert!(
            bytes.len() < n / 8 / 4,
            "expected >4x compression, got {} bytes for {} bits",
            bytes.len(),
            n
        );
    }

    #[test]
    fn direct_bits_round_trip() {
        let values = [(0u32, 1u32), (1, 1), (0xABC, 12), (u32::MAX, 32), (5, 8)];
        let mut enc = RangeEncoder::new();
        for &(v, n) in &values {
            enc.encode_direct(v, n);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        for &(v, n) in &values {
            assert_eq!(dec.decode_direct(n), v);
        }
    }

    #[test]
    fn bit_tree_round_trips_bytes() {
        let data: Vec<u8> = (0..=255u8).chain((0..=255).rev()).collect();
        let mut enc = RangeEncoder::new();
        let mut tree = vec![BitModel::new(); 256];
        for &b in &data {
            enc.encode_tree(&mut tree, 8, b as u32);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut tree = vec![BitModel::new(); 256];
        for &b in &data {
            assert_eq!(dec.decode_tree(&mut tree, 8), b as u32);
        }
    }

    #[test]
    fn mixed_stream_round_trips() {
        // Interleave model bits, direct bits, and tree symbols.
        let mut enc = RangeEncoder::new();
        let mut model = BitModel::new();
        let mut tree = vec![BitModel::new(); 32];
        for i in 0..500u32 {
            enc.encode_bit(&mut model, i % 3 == 0);
            enc.encode_direct(i % 16, 4);
            enc.encode_tree(&mut tree, 5, i % 32);
        }
        let bytes = enc.finish();
        let mut dec = RangeDecoder::new(&bytes).unwrap();
        let mut model = BitModel::new();
        let mut tree = vec![BitModel::new(); 32];
        for i in 0..500u32 {
            assert_eq!(dec.decode_bit(&mut model), i % 3 == 0);
            assert_eq!(dec.decode_direct(4), i % 16);
            assert_eq!(dec.decode_tree(&mut tree, 5), i % 32);
        }
    }

    #[test]
    fn short_input_rejected() {
        assert!(matches!(
            RangeDecoder::new(&[1, 2, 3]),
            Err(SimError::Truncated { .. })
        ));
    }
}
