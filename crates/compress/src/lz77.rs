//! LZ77 match finding over a sliding window.
//!
//! A hash-chain matcher in the zlib/LZMA lineage: positions are indexed by
//! a hash of their 3-byte prefix; candidate matches are walked newest-first
//! up to a bounded chain depth. Greedy parsing with a one-step lazy
//! heuristic (defer a match if the next position matches longer).
//!
//! The 128 KiB table of chain heads is allocated once per thread, not once
//! per call. A call resets the entries it set before it returns the table,
//! so the tokens depend on the input alone. A call that unwinds drops the
//! table it holds.

use std::cell::Cell;
use visionsim_core::SimError;

/// Smallest useful match.
pub const MIN_MATCH: usize = 3;
/// Longest encodable match.
pub const MAX_MATCH: usize = 273;
/// Sliding window (maximum match distance).
pub const WINDOW: usize = 1 << 16;

const HASH_BITS: u32 = 15;
const CHAIN_DEPTH: usize = 64;
/// A chain-table entry that names no position.
const NONE: u32 = u32::MAX;

/// One parsed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    /// A literal byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Copy length, in `[MIN_MATCH, MAX_MATCH]`.
        len: usize,
        /// Distance back, in `[1, WINDOW]`.
        dist: usize,
    },
}

fn hash3(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(0x9E37)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(0x79B9))
        .wrapping_add((data[i + 2] as u32).wrapping_mul(0x0185));
    (h >> (16 - HASH_BITS) & ((1 << HASH_BITS) - 1)) as usize
}

fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut n = 0;
    while n < max && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

/// Find the best match for position `i` using the hash chains.
fn best_match(
    data: &[u8],
    i: usize,
    head: &[u32],
    prev: &[u32],
) -> Option<(usize, usize)> {
    if i + MIN_MATCH > data.len() {
        return None;
    }
    let max_len = MAX_MATCH.min(data.len() - i);
    let mut best: Option<(usize, usize)> = None;
    let mut cand = head[hash3(data, i)];
    let mut depth = 0;
    while cand != NONE && depth < CHAIN_DEPTH {
        let c = cand as usize;
        if i - c > WINDOW {
            break;
        }
        // Fast reject: to beat the current best, the candidate must agree
        // at the byte one past the best length (in-bounds: best < max_len,
        // else we would have broken out below). Skips the O(len) walk for
        // most chain entries.
        let plausible = match best {
            Some((bl, _)) => data[c + bl] == data[i + bl],
            None => true,
        };
        if plausible {
            let len = match_len(data, c, i, max_len);
            if len >= MIN_MATCH && best.is_none_or(|(bl, _)| len > bl) {
                best = Some((len, i - c));
                if len == max_len {
                    break;
                }
            }
        }
        cand = prev[c % WINDOW];
        depth += 1;
    }
    best
}

/// Entries of the `head` table.
const HEAD_LEN: usize = 1 << HASH_BITS;

thread_local! {
    /// This thread's `head` table between [`tokenize`] calls, all [`NONE`].
    /// A call takes it out and puts it back only once it is clean again,
    /// so a call that unwinds drops its table and the next call on the
    /// thread starts from a fresh one.
    static HEAD: Cell<Option<Box<[u32]>>> = const { Cell::new(None) };
}

/// Reset every `head` entry that tokenizing `data` can have set. Below
/// `HEAD_LEN / 16` positions, re-hashing them is cheaper than filling the
/// whole table.
fn clear_head(head: &mut [u32], data: &[u8]) {
    if data.len() < HEAD_LEN / 16 {
        for i in 0..data.len().saturating_sub(MIN_MATCH - 1) {
            head[hash3(data, i)] = NONE;
        }
    } else {
        head.fill(NONE);
    }
}

/// Parse `data` into LZ77 tokens.
///
/// The 128 KiB `head` table is reused from call to call on one thread
/// and holds nothing between calls, so the tokens depend on `data` alone.
///
/// # Panics
///
/// If `data` holds `u32::MAX` bytes or more: the chain tables store
/// positions as `u32`, with `u32::MAX` meaning none. Such an input could
/// not round-trip anyway: [`decompress`](crate::lzma_like::decompress)
/// refuses any stream that claims more than
/// [`MAX_DECODED_LEN`](crate::lzma_like::MAX_DECODED_LEN) (256 MiB).
pub fn tokenize(data: &[u8]) -> Vec<Token> {
    let n = data.len();
    assert!(
        n < u32::MAX as usize,
        "lz77 input of {n} bytes exceeds u32 positions"
    );
    let mut head = HEAD
        .take()
        .unwrap_or_else(|| vec![NONE; HEAD_LEN].into_boxed_slice());
    let tokens = tokenize_with(data, &mut head);
    clear_head(&mut head, data);
    HEAD.set(Some(head));
    tokens
}

/// [`tokenize`] on a `head` table that starts all [`NONE`].
fn tokenize_with(data: &[u8], head: &mut [u32]) -> Vec<Token> {
    let mut tokens = Vec::new();
    let n = data.len();
    // Chain links are indexed by `i % WINDOW`; below one window that is
    // `i` itself, so an input shorter than the window needs only `n` of
    // them (a keypoint frame is under 1 KiB).
    let mut prev = vec![NONE; n.min(WINDOW)];
    let insert = |head: &mut [u32], prev: &mut [u32], i: usize| {
        if i + MIN_MATCH <= n {
            let h = hash3(data, i);
            prev[i % WINDOW] = head[h];
            head[h] = i as u32;
        }
    };
    let mut i = 0;
    while i < n {
        let here = best_match(data, i, head, &prev);
        let use_match = match here {
            None => None,
            Some((len, dist)) => {
                // Lazy heuristic: if the next position matches strictly
                // longer, emit a literal now and take that match next.
                if i + 1 < n {
                    insert(head, &mut prev, i);
                    let next = best_match(data, i + 1, head, &prev);
                    if let Some((nlen, _)) = next {
                        if nlen > len + 1 {
                            tokens.push(Token::Literal(data[i]));
                            i += 1;
                            continue;
                        }
                    }
                    // `i` already inserted; emit match and insert the rest.
                    for j in i + 1..i + len {
                        insert(head, &mut prev, j);
                    }
                    tokens.push(Token::Match { len, dist });
                    i += len;
                    continue;
                }
                Some((len, dist))
            }
        };
        match use_match {
            Some((len, dist)) => {
                for j in i..i + len {
                    insert(head, &mut prev, j);
                }
                tokens.push(Token::Match { len, dist });
                i += len;
            }
            None => {
                insert(head, &mut prev, i);
                tokens.push(Token::Literal(data[i]));
                i += 1;
            }
        }
    }
    tokens
}

/// Reconstruct the original bytes from tokens. Fails on a match whose
/// distance reaches before the start of the output (hostile or corrupt
/// token streams).
pub fn detokenize(tokens: &[Token]) -> Result<Vec<u8>, SimError> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                if dist < 1 || dist > out.len() {
                    return Err(SimError::Inconsistent {
                        what: "lz77 match distance",
                    });
                }
                let start = out.len() - dist;
                // Overlapping copies are the point (run-length encoding).
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let tokens = tokenize(data);
        assert_eq!(detokenize(&tokens).as_deref(), Ok(data));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_text_round_trips_and_finds_matches() {
        let data = b"the quick brown fox the quick brown fox the quick brown fox";
        let tokens = tokenize(data);
        assert_eq!(detokenize(&tokens).as_deref(), Ok(&data[..]));
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "no matches found in repetitive input"
        );
        assert!(tokens.len() < data.len() / 2);
    }

    #[test]
    fn overlapping_run_length_copy() {
        // "aaaa..." compresses to one literal + one overlapping match.
        let data = vec![b'a'; 300];
        let tokens = tokenize(&data);
        assert_eq!(detokenize(&tokens).as_deref(), Ok(&data[..]));
        assert!(tokens.len() <= 4, "run should collapse, got {tokens:?}");
    }

    #[test]
    fn incompressible_data_round_trips() {
        // A pseudo-random byte string (xorshift) has few matches.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..2_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn match_lengths_are_bounded() {
        let data = vec![7u8; 10_000];
        for t in tokenize(&data) {
            if let Token::Match { len, dist } = t {
                assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
                assert!((1..=WINDOW).contains(&dist));
            }
        }
    }

    #[test]
    fn periodic_binary_data_round_trips() {
        // Mimics the keypoint stream: small periodic deltas.
        let data: Vec<u8> = (0..5_000u32)
            .map(|i| ((i % 74) as u8).wrapping_add((i / 740) as u8))
            .collect();
        round_trip(&data);
        let tokens = tokenize(&data);
        assert!(tokens.len() < data.len() / 4);
    }

    #[test]
    fn detokenize_rejects_bad_distance() {
        assert_eq!(
            detokenize(&[Token::Match { len: 3, dist: 5 }]),
            Err(SimError::Inconsistent {
                what: "lz77 match distance"
            })
        );
    }
}
