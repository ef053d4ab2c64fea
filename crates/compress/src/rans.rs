//! Static order-0 rANS entropy coder for byte symbols.
//!
//! Used by the mesh codec's Draco-style pipeline (Draco itself entropy-codes
//! with rANS). Frequencies are counted over the input, quantized to a
//! 12-bit table, written as a sparse header, and symbols are coded with a
//! byte-renormalizing rANS state — the `rans_byte` construction.
//!
//! Stream layout:
//!
//! ```text
//! varint n_symbols ‖ sparse freq table ‖ varint body_len ‖ body
//! ```

use crate::varint;
use visionsim_core::SimError;

/// Hard ceiling on a stream's claimed decoded length (256 MiB).
pub const MAX_DECODED_LEN: usize = 256 << 20;

const SCALE_BITS: u32 = 12;
const SCALE: u32 = 1 << SCALE_BITS;
/// Lower bound of the rANS state interval.
const RANS_L: u32 = 1 << 23;

/// Quantize raw counts to a table summing exactly to `SCALE`, keeping every
/// present symbol ≥ 1.
fn normalize(counts: &[u64; 256]) -> [u32; 256] {
    let total: u64 = counts.iter().sum();
    assert!(total > 0, "cannot normalize empty histogram");
    let mut freqs = [0u32; 256];
    let mut assigned: u32 = 0;
    for i in 0..256 {
        if counts[i] == 0 {
            continue;
        }
        let f = ((counts[i] as u128 * SCALE as u128) / total as u128) as u32;
        freqs[i] = f.max(1);
        assigned += freqs[i];
    }
    // Fix the rounding drift by adjusting the most frequent symbol(s).
    while assigned != SCALE {
        if assigned > SCALE {
            // Shrink the largest freq > 1.
            let i = (0..256)
                .filter(|&i| freqs[i] > 1)
                .max_by_key(|&i| freqs[i])
                .expect("some symbol must have freq > 1");
            freqs[i] -= 1;
            assigned -= 1;
        } else {
            let i = (0..256).max_by_key(|&i| freqs[i]).expect("non-empty");
            freqs[i] += 1;
            assigned += 1;
        }
    }
    freqs
}

fn write_freq_table(out: &mut Vec<u8>, freqs: &[u32; 256]) {
    let present: Vec<usize> = (0..256).filter(|&i| freqs[i] > 0).collect();
    varint::write_u64(out, present.len() as u64);
    for &i in &present {
        out.push(i as u8);
        varint::write_u64(out, freqs[i] as u64);
    }
}

fn read_freq_table(input: &[u8]) -> Option<([u32; 256], usize)> {
    let (count, mut pos) = varint::read_u64(input)?;
    if count == 0 || count > 256 {
        return None;
    }
    let mut freqs = [0u32; 256];
    let mut sum: u64 = 0;
    for _ in 0..count {
        let sym = *input.get(pos)? as usize;
        pos += 1;
        let (f, n) = varint::read_u64(&input[pos..])?;
        pos += n;
        if f == 0 || f > SCALE as u64 || freqs[sym] != 0 {
            return None;
        }
        freqs[sym] = f as u32;
        sum += f;
    }
    if sum != SCALE as u64 {
        return None;
    }
    Some((freqs, pos))
}

/// Encode `data` with a static rANS model. Empty input yields a minimal
/// header-only stream.
pub fn encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::write_u64(&mut out, data.len() as u64);
    if data.is_empty() {
        return out;
    }
    let mut counts = [0u64; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    let freqs = normalize(&counts);
    write_freq_table(&mut out, &freqs);
    let mut cum = [0u32; 257];
    for i in 0..256 {
        cum[i + 1] = cum[i] + freqs[i];
    }
    // rANS encodes in reverse.
    let mut state: u32 = RANS_L;
    let mut body_rev: Vec<u8> = Vec::new();
    for &b in data.iter().rev() {
        let f = freqs[b as usize];
        let start = cum[b as usize];
        // Renormalize: emit low bytes until state fits.
        let x_max = ((RANS_L >> SCALE_BITS) << 8) * f;
        while state >= x_max {
            body_rev.push((state & 0xFF) as u8);
            state >>= 8;
        }
        state = ((state / f) << SCALE_BITS) + (state % f) + start;
    }
    // Final state, little-endian, then the body (reversed back).
    let mut body = Vec::with_capacity(body_rev.len() + 4);
    body.extend_from_slice(&state.to_le_bytes());
    body.extend(body_rev.iter().rev());
    varint::write_u64(&mut out, body.len() as u64);
    out.extend_from_slice(&body);
    out
}

/// Decode a stream produced by [`encode`].
pub fn decode(input: &[u8]) -> Result<Vec<u8>, SimError> {
    let (n, mut pos) = varint::read_u64(input).ok_or(SimError::Truncated {
        what: "rans length header",
    })?;
    let n = usize::try_from(n).map_err(|_| SimError::Corrupt {
        what: "rans length header",
    })?;
    if n == 0 {
        return Ok(Vec::new());
    }
    // A single-symbol model legitimately costs ~0 bits/symbol, so output
    // size cannot be bounded by input size; cap the claim outright
    // instead (the workspace never encodes anything near this).
    if n > MAX_DECODED_LEN {
        return Err(SimError::LimitExceeded {
            what: "rans claimed decoded length",
            limit: MAX_DECODED_LEN as u64,
        });
    }
    let (freqs, table_len) = read_freq_table(&input[pos..]).ok_or(SimError::Corrupt {
        what: "rans frequency table",
    })?;
    pos += table_len;
    let (body_len, hdr) = varint::read_u64(&input[pos..]).ok_or(SimError::Truncated {
        what: "rans body length",
    })?;
    pos += hdr;
    let body = input
        .get(pos..pos.saturating_add(body_len as usize))
        .ok_or(SimError::Truncated { what: "rans body" })?;
    if body.len() < 4 {
        return Err(SimError::Truncated { what: "rans body" });
    }
    let mut cum = [0u32; 257];
    for i in 0..256 {
        cum[i + 1] = cum[i] + freqs[i];
    }
    // Symbol lookup by cumulative slot.
    let mut slot_to_sym = [0u8; SCALE as usize];
    for s in 0..256 {
        for slot in cum[s]..cum[s + 1] {
            slot_to_sym[slot as usize] = s as u8;
        }
    }
    let mut state = u32::from_le_bytes([body[0], body[1], body[2], body[3]]);
    let mut feed = body[4..].iter();
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let slot = state & (SCALE - 1);
        let sym = slot_to_sym[slot as usize];
        let f = freqs[sym as usize];
        let start = cum[sym as usize];
        state = f * (state >> SCALE_BITS) + slot - start;
        while state < RANS_L {
            let b = *feed
                .next()
                .ok_or(SimError::Truncated { what: "rans body" })?;
            state = (state << 8) | b as u32;
        }
        out.push(sym);
    }
    if state != RANS_L {
        return Err(SimError::Corrupt {
            what: "rans final state", // mismatch ⇒ corrupt stream
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> usize {
        let e = encode(data);
        assert_eq!(decode(&e).as_deref(), Ok(data), "round trip failed");
        e.len()
    }

    #[test]
    fn empty_input() {
        round_trip(b"");
    }

    #[test]
    fn single_symbol_stream() {
        let data = vec![42u8; 10_000];
        let size = round_trip(&data);
        // One symbol at freq 4096 costs ~0 bits each; header dominates.
        assert!(size < 64, "size = {size}");
    }

    #[test]
    fn two_symbol_skew() {
        let data: Vec<u8> = (0..8_192)
            .map(|i| if i % 16 == 0 { 1 } else { 0 })
            .collect();
        let size = round_trip(&data);
        // Entropy ≈ 0.337 bits/symbol → ~345 bytes + header.
        assert!(size < 500, "size = {size}");
    }

    #[test]
    fn uniform_bytes_do_not_expand_much() {
        let data: Vec<u8> = (0..16_384u32).map(|i| (i % 256) as u8).collect();
        let size = round_trip(&data);
        assert!(size < data.len() + 1_200, "size = {size}");
    }

    #[test]
    fn short_inputs() {
        round_trip(b"a");
        round_trip(b"abacabad");
    }

    #[test]
    fn quantized_residuals_compress() {
        // Mesh-codec-like residuals: zigzagged small deltas.
        let data: Vec<u8> = (0..50_000u32)
            .map(|i| match i % 10 {
                0..=5 => 0,
                6 | 7 => 1,
                8 => 2,
                _ => 3,
            })
            .collect();
        let size = round_trip(&data);
        assert!(size < data.len() / 3, "size = {size}");
    }

    #[test]
    fn truncated_stream_errors() {
        let e = encode(b"hello world hello world");
        for cut in 0..e.len().saturating_sub(1) {
            // Must never panic; usually Err, occasionally a short valid
            // prefix is impossible because length is in the header.
            let _ = decode(&e[..cut]);
        }
        assert!(decode(&e[..e.len() - 1]).is_err());
    }

    #[test]
    fn normalize_sums_to_scale() {
        let mut counts = [0u64; 256];
        counts[10] = 3;
        counts[20] = 1_000_000;
        counts[30] = 7;
        let freqs = normalize(&counts);
        assert_eq!(freqs.iter().sum::<u32>(), SCALE);
        assert!(freqs[10] >= 1 && freqs[30] >= 1);
        assert!(freqs[20] > 4_000);
    }
}
