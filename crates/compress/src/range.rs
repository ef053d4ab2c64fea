//! Adaptive binary range coder (LZMA-style, carry-correct).
//!
//! The coder works on binary decisions, each guided by an adaptive 11-bit
//! probability model ([`BitModel`]). Composite symbols (bytes, lengths) are
//! coded through bit trees. This is the same construction LZMA uses, which
//! is exactly what the paper ran over its keypoint traces.
//!
//! A keypoint frame is about 7,900 serially dependent bits, so the bit
//! step is written for the CPU's one serial chain. No adaptive step
//! branches on the bit's value. Each bit tree and each single bit copies
//! the coder state (`low` and `range`, or `code` and `range`) into
//! locals, so it stays in registers across the tree rather than going to
//! memory and back on every bit. A renormalization is one 8-bit shift.
//! The encoder emits a byte with one inlined push; the rare pending-0xFF
//! work runs out of line. The decoder loads both children of a tree node
//! while it decodes the node's bit.

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

    /// Adapt the probability of a 0 to a coded bit without a branch on the
    /// bit (`mask` is all ones for a 1): float mantissa bits are coin
    /// flips, which a branch on the bit mispredicts half the time. A 0
    /// adds `(2048 - p) >> 5` and a 1 subtracts `p >> 5`; both are
    /// `p + ((target - p) >> 5)`, with target 2048 or 31, because an
    /// arithmetic shift gives `(31 - p) >> 5 = -(p >> 5)`. The
    /// probability stays in `[31, 2017]`.
    #[inline(always)]
    fn update(&mut self, mask: u32) {
        let floor = (1 << MOVE_BITS) - 1;
        let target = (1 << PROB_BITS) - (((1 << PROB_BITS) - floor) & mask);
        let p = self.0 as i32;
        self.0 = (p + ((target as i32 - p) >> MOVE_BITS)) as u16;
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
        Self::appending_to(Vec::new())
    }

    /// A fresh encoder whose bytes follow those already in `out`;
    /// [`finish`](Self::finish) returns `out` with them appended.
    pub(crate) fn appending_to(out: Vec<u8>) -> Self {
        RangeEncoder {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out,
        }
    }

    /// LZMA's cache-and-carry step: settle the cached byte with the carry
    /// out of `low`, cache `low`'s top byte, and return the shifted `low`.
    /// In the common case, no 0xFF byte is pending and the top byte is not
    /// 0xFF, that is one push.
    #[inline(always)]
    fn shift_low(&mut self, low: u64) -> u64 {
        if self.cache_size == 1 && low >> 24 != 0xFF {
            self.out.push(self.cache.wrapping_add((low >> 32) as u8));
            self.cache = (low >> 24) as u8;
            (low & 0x00FF_FFFF) << 8
        } else {
            self.shift_low_pending(low)
        }
    }

    /// The rest of [`shift_low`](Self::shift_low), about one call in a
    /// hundred: defer a 0xFF top byte, since a later carry may still turn
    /// it into 0x00, or settle the cached byte and the deferred 0xFF run,
    /// adding the carry to each.
    #[cold]
    #[inline(never)]
    fn shift_low_pending(&mut self, low: u64) -> u64 {
        if (low as u32) < 0xFF00_0000 || (low >> 32) != 0 {
            let carry = (low >> 32) as u8;
            let mut byte = self.cache;
            loop {
                self.out.push(byte.wrapping_add(carry));
                byte = 0xFF;
                self.cache_size -= 1;
                if self.cache_size == 0 {
                    break;
                }
            }
            self.cache = (low >> 24) as u8;
        }
        self.cache_size += 1;
        (low << 8) & 0xFFFF_FFFF
    }

    /// Restore `range ≥ TOP` after one bit. A bit leaves `range` at least
    /// `31 · 2^13` (a model bit: the probability stays in `[31, 2017]`) or
    /// `2^23` (a direct bit), so one 8-bit shift is always enough.
    #[inline(always)]
    fn normalize(&mut self, low: &mut u64, range: &mut u32) {
        if *range < TOP {
            *range <<= 8;
            *low = self.shift_low(*low);
        }
    }

    /// One adaptive bit on the caller's copy of the coder state: a 0 keeps
    /// `[low, low + bound)`, a 1 keeps `[low + bound, low + range)`,
    /// selected without a branch.
    #[inline(always)]
    fn code_bit(&mut self, low: &mut u64, range: &mut u32, model: &mut BitModel, bit: bool) {
        let bound = (*range >> PROB_BITS) * model.0 as u32;
        let mask = bit_mask(bit);
        *low += (bound & mask) as u64;
        *range = (bound & !mask) | ((*range - bound) & mask);
        model.update(mask);
        self.normalize(low, range);
    }

    /// Encode one bit under `model`.
    #[inline]
    pub fn encode_bit(&mut self, model: &mut BitModel, bit: bool) {
        let (mut low, mut range) = (self.low, self.range);
        self.code_bit(&mut low, &mut range, model, bit);
        (self.low, self.range) = (low, range);
    }

    /// Encode `count` bits of `value` (MSB-first) at fixed probability 1/2.
    pub fn encode_direct(&mut self, value: u32, count: u32) {
        let (mut low, mut range) = (self.low, self.range);
        for i in (0..count).rev() {
            range >>= 1;
            if (value >> i) & 1 == 1 {
                low += range as u64;
            }
            self.normalize(&mut low, &mut range);
        }
        (self.low, self.range) = (low, range);
    }

    /// Encode `value` through a bit tree of `depth` levels. `models` must
    /// hold `1 << depth` entries.
    #[inline]
    pub fn encode_tree(&mut self, models: &mut [BitModel], depth: u32, value: u32) {
        debug_assert!(models.len() >= (1usize << depth));
        let (mut low, mut range) = (self.low, self.range);
        let mut m: usize = 1;
        for i in (0..depth).rev() {
            let bit = (value >> i) & 1 == 1;
            self.code_bit(&mut low, &mut range, &mut models[m], bit);
            m = (m << 1) | bit as usize;
        }
        (self.low, self.range) = (low, range);
    }

    /// Flush and return the encoded bytes (after any the encoder was
    /// created to append to).
    pub fn finish(mut self) -> Vec<u8> {
        let mut low = self.low;
        for _ in 0..5 {
            low = self.shift_low(low);
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
    /// Index of the next input byte; past the end of `input`, the decoder
    /// reads zeros.
    pos: usize,
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
        })
    }

    /// How many bytes past the end of input have been (virtually) read.
    /// The encoder's flush emits five trailing bytes, so a small overrun is
    /// normal at stream end; a growing overrun means the caller is decoding
    /// past a truncated stream.
    pub fn overrun(&self) -> usize {
        self.pos.saturating_sub(self.input.len())
    }

    /// The decoder's side of [`RangeEncoder::normalize`]: one 8-bit shift
    /// is always enough.
    #[inline(always)]
    fn normalize(&mut self, code: &mut u32, range: &mut u32) {
        if *range < TOP {
            let byte = self.input.get(self.pos).copied().unwrap_or(0);
            self.pos += 1;
            *range <<= 8;
            *code = (*code << 8) | byte as u32;
        }
    }

    /// One adaptive bit under probability `p` on the caller's copy of the
    /// coder state, the mirror of [`RangeEncoder::code_bit`]. Returns the
    /// bit's mask (all ones for a 1).
    #[inline(always)]
    fn code_bit(&mut self, code: &mut u32, range: &mut u32, p: u16) -> u32 {
        let bound = (*range >> PROB_BITS) * p as u32;
        let mask = bit_mask(*code >= bound);
        *code -= bound & mask;
        *range = (bound & !mask) | ((*range - bound) & mask);
        self.normalize(code, range);
        mask
    }

    /// Decode one bit under `model`.
    #[inline(always)]
    pub fn decode_bit(&mut self, model: &mut BitModel) -> bool {
        let (mut code, mut range) = (self.code, self.range);
        let mask = self.code_bit(&mut code, &mut range, model.0);
        model.update(mask);
        (self.code, self.range) = (code, range);
        mask != 0
    }

    /// Decode `count` fixed-probability bits (MSB-first).
    pub fn decode_direct(&mut self, count: u32) -> u32 {
        let (mut code, mut range) = (self.code, self.range);
        let mut value = 0u32;
        for _ in 0..count {
            range >>= 1;
            let bit = code >= range;
            if bit {
                code -= range;
            }
            value = (value << 1) | bit as u32;
            self.normalize(&mut code, &mut range);
        }
        (self.code, self.range) = (code, range);
        value
    }

    /// Decode a value from a bit tree of `depth` levels. Each level but
    /// the last loads both children's probabilities while its own bit is
    /// decoded, so the next level's probability is a select on the bit,
    /// not a load that waits for it.
    #[inline(always)]
    pub fn decode_tree(&mut self, models: &mut [BitModel], depth: u32) -> u32 {
        debug_assert!(models.len() >= (1usize << depth));
        if depth == 0 {
            return 0;
        }
        let (mut code, mut range) = (self.code, self.range);
        let mut m: usize = 1;
        let mut p = models[1].0;
        for _ in 1..depth {
            let children = &models[2 * m..2 * m + 2];
            let (p0, p1) = (children[0].0, children[1].0);
            let mask = self.code_bit(&mut code, &mut range, p);
            models[m].update(mask);
            m = (m << 1) | (mask & 1) as usize;
            p = ((p1 as u32 & mask) | (p0 as u32 & !mask)) as u16;
        }
        let mask = self.code_bit(&mut code, &mut range, p);
        models[m].update(mask);
        m = (m << 1) | (mask & 1) as usize;
        (self.code, self.range) = (code, range);
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
    fn update_is_the_two_outcome_formula() {
        for p in 31..=2017u16 {
            let mut zero = BitModel(p);
            zero.update(bit_mask(false));
            assert_eq!(zero.0, p + ((2048 - p) >> MOVE_BITS), "p = {p} after a 0");
            let mut one = BitModel(p);
            one.update(bit_mask(true));
            assert_eq!(one.0, p - (p >> MOVE_BITS), "p = {p} after a 1");
            assert!((31..=2017).contains(&zero.0) && (31..=2017).contains(&one.0));
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
