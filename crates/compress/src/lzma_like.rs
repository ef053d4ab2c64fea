//! The assembled LZMA-style codec: LZ77 tokens entropy-coded with the
//! adaptive binary range coder.
//!
//! Stream layout:
//!
//! ```text
//! varint original_length ‖ range-coded token stream
//! ```
//!
//! Token coding: one adaptive bit chooses literal vs match. Literals go
//! through a context-conditioned 8-bit tree (context = high nibble of the
//! previous byte — keypoint delta streams are strongly locally
//! correlated). Match lengths go through a 9-bit tree (lengths 3..=273);
//! distances as a 5-bit slot tree (log₂ bucket) plus direct remainder bits,
//! the same shape LZMA uses.

use crate::lz77::{self, Token, MIN_MATCH};
use crate::range::{BitModel, RangeDecoder, RangeEncoder};
use crate::varint;
use visionsim_core::SimError;

const LITERAL_CONTEXTS: usize = 16;

/// Hard ceiling on a stream's claimed decompressed length (256 MiB).
pub const MAX_DECODED_LEN: usize = 256 << 20;

/// Every adaptive model of one stream, inline (about 9 KiB): a call
/// allocates nothing for them.
struct Models {
    is_match: BitModel,
    literals: [[BitModel; 256]; LITERAL_CONTEXTS],
    len_tree: [BitModel; 512],
    slot_tree: [BitModel; 32],
}

impl Models {
    fn new() -> Self {
        Models {
            is_match: BitModel::new(),
            literals: [[BitModel::new(); 256]; LITERAL_CONTEXTS],
            len_tree: [BitModel::new(); 512],
            slot_tree: [BitModel::new(); 32],
        }
    }
}

fn literal_context(prev: u8) -> usize {
    (prev >> 4) as usize
}

/// Compress `data`. The empty input encodes to a 1-byte stream.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    compress_into(data, &mut out);
    out
}

/// Compress `data`, appending the stream to `out`: a caller that frames
/// the stream (a tag byte in front, say) gets it without another copy.
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    varint::write_u64(out, data.len() as u64);
    if data.is_empty() {
        return;
    }
    let tokens = lz77::tokenize(data);
    // The coder appends to `out` itself and hands it back on `finish`.
    let mut enc = RangeEncoder::appending_to(std::mem::take(out));
    let mut models = Models::new();
    let mut prev_byte: u8 = 0;
    let mut pos = 0usize;
    for t in &tokens {
        match *t {
            Token::Literal(b) => {
                enc.encode_bit(&mut models.is_match, false);
                let ctx = literal_context(prev_byte);
                enc.encode_tree(&mut models.literals[ctx], 8, b as u32);
                prev_byte = b;
                pos += 1;
            }
            Token::Match { len, dist } => {
                enc.encode_bit(&mut models.is_match, true);
                enc.encode_tree(&mut models.len_tree, 9, (len - MIN_MATCH) as u32);
                let slot = 63 - (dist as u64).leading_zeros(); // floor(log2)
                enc.encode_tree(&mut models.slot_tree, 5, slot);
                if slot > 0 {
                    let rem = dist as u32 - (1 << slot);
                    enc.encode_direct(rem, slot);
                }
                pos += len;
                prev_byte = data[pos - 1];
            }
        }
    }
    *out = enc.finish();
}

/// Decompress a stream produced by [`compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, SimError> {
    let (orig_len, header) = varint::read_u64(input).ok_or(SimError::Truncated {
        what: "lzma length header",
    })?;
    let orig_len = usize::try_from(orig_len).map_err(|_| SimError::Corrupt {
        what: "lzma length header",
    })?;
    if orig_len == 0 {
        return Ok(Vec::new());
    }
    // A hostile header can claim any length. Cap the claim outright (the
    // workspace never compresses anything near this), and bail out as soon
    // as the range decoder reads meaningfully past the end of a truncated
    // body rather than synthesizing output from phantom zero bytes.
    if orig_len > MAX_DECODED_LEN {
        return Err(SimError::LimitExceeded {
            what: "lzma claimed decompressed length",
            limit: MAX_DECODED_LEN as u64,
        });
    }
    let mut dec = RangeDecoder::new(&input[header..])?;
    let mut models = Models::new();
    let mut out: Vec<u8> = Vec::with_capacity(orig_len.min(1 << 20));
    let mut prev_byte: u8 = 0;
    while out.len() < orig_len {
        if dec.overrun() > 8 {
            return Err(SimError::Truncated {
                what: "lzma range-coded body",
            });
        }
        if dec.decode_bit(&mut models.is_match) {
            let len = dec.decode_tree(&mut models.len_tree, 9) as usize + MIN_MATCH;
            let slot = dec.decode_tree(&mut models.slot_tree, 5);
            let dist = if slot == 0 {
                1usize
            } else {
                (1usize << slot) + dec.decode_direct(slot) as usize
            };
            if dist > out.len() || out.len() + len > orig_len {
                return Err(SimError::Corrupt {
                    what: "lzma match reference",
                });
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
            prev_byte = *out.last().expect("non-empty after match");
        } else {
            let ctx = literal_context(prev_byte);
            let b = dec.decode_tree(&mut models.literals[ctx], 8) as u8;
            out.push(b);
            prev_byte = b;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> usize {
        let c = compress(data);
        assert_eq!(decompress(&c).unwrap(), data, "round trip failed");
        c.len()
    }

    #[test]
    fn empty_input() {
        assert_eq!(round_trip(b""), 1);
    }

    #[test]
    fn short_inputs() {
        round_trip(b"x");
        round_trip(b"ab");
        round_trip(b"hello, world");
    }

    #[test]
    fn compress_into_appends_the_stream_after_what_out_holds() {
        for data in [&b""[..], b"x", &b"spatial persona ".repeat(40)] {
            let mut out = vec![0xA5, 0x5A];
            compress_into(data, &mut out);
            assert_eq!(out[..2], [0xA5, 0x5A]);
            assert_eq!(out[2..], compress(data)[..]);
        }
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let data: Vec<u8> = b"spatial persona ".repeat(500);
        let size = round_trip(&data);
        assert!(size < data.len() / 10, "{} of {}", size, data.len());
    }

    #[test]
    fn keypoint_like_delta_stream_compresses_hard() {
        // Quantized keypoint deltas: mostly small signed values, strong
        // inter-frame repetition — the regime the paper's LZMA stage
        // exploits.
        let mut data = Vec::new();
        for frame in 0..200u32 {
            for kp in 0..74u32 {
                let delta = ((frame + kp) % 5) as i8 - 2;
                data.push(delta as u8);
                data.push((delta / 2) as u8);
            }
        }
        let size = round_trip(&data);
        assert!(size < data.len() / 8, "{} of {}", size, data.len());
    }

    #[test]
    fn pseudo_random_data_survives() {
        let mut x = 0xDEADBEEFu32;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        let size = round_trip(&data);
        // Incompressible: expect mild expansion at most.
        assert!(size < data.len() + data.len() / 8 + 16);
    }

    #[test]
    fn all_byte_values_round_trip() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4_096).collect();
        round_trip(&data);
    }

    #[test]
    fn long_runs_round_trip() {
        let mut data = vec![0u8; 70_000]; // exceeds the LZ window
        data.extend_from_slice(&[1u8; 70_000]);
        round_trip(&data);
    }

    #[test]
    fn truncated_stream_errors_not_panics() {
        let c = compress(b"some reasonably long input to compress here");
        for cut in [0, 1, 2, c.len() / 2] {
            let r = decompress(&c[..cut]);
            // Either a clean error or (for cut beyond the meaningful data)
            // impossible; never a panic.
            if cut >= c.len() {
                continue;
            }
            assert!(r.is_err() || r.unwrap() != b"some reasonably long input to compress here");
        }
    }

    #[test]
    fn corrupt_body_is_detected_or_differs() {
        let data = b"the mesh of a spatial persona consists of 78,030 triangles".repeat(10);
        let mut c = compress(&data);
        let mid = c.len() / 2;
        c[mid] ^= 0xFF;
        match decompress(&c) {
            Err(_) => {}
            Ok(d) => assert_ne!(d, data),
        }
    }
}
