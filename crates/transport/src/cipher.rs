//! ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//!
//! Spatial persona traffic is end-to-end encrypted (paper §5: MITM cannot
//! obtain the TLS certificate, so contents are opaque). The simulator
//! encrypts semantic payloads with ChaCha20 so that taps and classifiers
//! genuinely cannot shortcut through payload inspection — the measurement
//! tooling must infer from headers and traffic patterns, as the paper does.

/// A 256-bit key.
pub type Key = [u8; 32];
/// A 96-bit nonce.
pub type Nonce = [u8; 12];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

fn block(key: &Key, nonce: &Nonce, counter: u32) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[4 * i],
            nonce[4 * i + 1],
            nonce[4 * i + 2],
            nonce[4 * i + 3],
        ]);
    }
    let mut working = state;
    for _ in 0..10 {
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XOR `data` with the ChaCha20 keystream (encrypt == decrypt). The
/// keystream starts at block counter 1, per RFC 8439's AEAD convention.
pub fn apply(key: &Key, nonce: &Nonce, data: &mut [u8]) {
    let mut counter: u32 = 1;
    for chunk in data.chunks_mut(64) {
        let ks = block(key, nonce, counter);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// Convenience: encrypt a payload, returning a new vector.
pub fn seal(key: &Key, nonce: &Nonce, plaintext: &[u8]) -> Vec<u8> {
    let mut out = plaintext.to_vec();
    apply(key, nonce, &mut out);
    out
}

/// Convenience: decrypt (same operation as [`seal`]).
pub fn open(key: &Key, nonce: &Nonce, ciphertext: &[u8]) -> Vec<u8> {
    seal(key, nonce, ciphertext)
}

/// Derive a per-packet nonce from a stream id and packet number, the way
/// QUIC-style transports combine an IV with the packet number.
pub fn packet_nonce(stream_id: u32, packet_number: u64) -> Nonce {
    let mut n = [0u8; 12];
    n[..4].copy_from_slice(&stream_id.to_le_bytes());
    n[4..].copy_from_slice(&packet_number.to_le_bytes());
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.3.2 test vector (keystream block).
    #[test]
    fn rfc8439_block_test_vector() {
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce: Nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, &nonce, 1);
        let expected_first16: [u8; 16] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4,
        ];
        assert_eq!(&out[..16], &expected_first16);
    }

    /// RFC 8439 §2.4.2 encryption test vector (first bytes).
    #[test]
    fn rfc8439_encrypt_test_vector() {
        let mut key = [0u8; 32];
        for (i, k) in key.iter_mut().enumerate() {
            *k = i as u8;
        }
        let nonce: Nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = seal(&key, &nonce, plaintext);
        let expected_first8: [u8; 8] = [0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80];
        assert_eq!(&ct[..8], &expected_first8);
    }

    #[test]
    fn seal_open_round_trips() {
        let key = [7u8; 32];
        let nonce = packet_nonce(3, 42);
        let msg = b"74 keypoints at 90 fps".to_vec();
        let ct = seal(&key, &nonce, &msg);
        assert_ne!(ct, msg);
        assert_eq!(open(&key, &nonce, &ct), msg);
    }

    #[test]
    fn different_nonces_differ() {
        let key = [7u8; 32];
        let msg = vec![0u8; 64];
        let a = seal(&key, &packet_nonce(1, 1), &msg);
        let b = seal(&key, &packet_nonce(1, 2), &msg);
        assert_ne!(a, b);
    }

    #[test]
    fn multi_block_messages_work() {
        let key = [1u8; 32];
        let nonce = packet_nonce(0, 0);
        let msg: Vec<u8> = (0..1_000u32).map(|i| i as u8).collect();
        assert_eq!(open(&key, &nonce, &seal(&key, &nonce, &msg)), msg);
    }

    #[test]
    fn empty_message_is_fine() {
        let key = [0u8; 32];
        let nonce = [0u8; 12];
        assert!(seal(&key, &nonce, b"").is_empty());
    }

    #[test]
    fn ciphertext_looks_high_entropy() {
        let key = [9u8; 32];
        let nonce = packet_nonce(5, 5);
        let ct = seal(&key, &nonce, &vec![0u8; 4_096]);
        let mut counts = [0u32; 256];
        for &b in &ct {
            counts[b as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        // Uniform expectation is 16/byte; allow generous slack.
        assert!(max < 48, "suspiciously skewed keystream, max = {max}");
    }
}
