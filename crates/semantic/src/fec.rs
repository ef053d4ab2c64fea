//! Forward error correction for semantic frames — an *extension*, not a
//! reproduction: the measured system has no loss protection, which is why
//! its persona dies at the bandwidth cliff (§4.3). This module implements
//! the obvious fix — one XOR parity shard per frame — so the ablation
//! suite can quantify what it would cost (+1/k bandwidth) and buy
//! (single-loss recovery per frame).
//!
//! Shard layout: `frame_id (8) ‖ index (2) ‖ data_shards (2) ‖
//! payload_len (4) ‖ body`. Indices `0..data_shards` are data; index
//! `data_shards` is the parity shard. All shards of a frame carry equal
//! body sizes (data bodies are zero-padded to the longest chunk).

/// One FEC shard on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FecShard {
    /// Frame this shard belongs to.
    pub frame_id: u64,
    /// Shard index; `data_shards` = parity.
    pub index: u16,
    /// Number of data shards in the frame.
    pub data_shards: u16,
    /// True payload length of the whole frame.
    pub payload_len: u32,
    /// Shard body (padded).
    pub body: Vec<u8>,
}

impl FecShard {
    /// Serialize.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.body.len());
        out.extend_from_slice(&self.frame_id.to_be_bytes());
        out.extend_from_slice(&self.index.to_be_bytes());
        out.extend_from_slice(&self.data_shards.to_be_bytes());
        out.extend_from_slice(&self.payload_len.to_be_bytes());
        out.extend_from_slice(&self.body);
        out
    }

    /// Parse.
    pub fn parse(bytes: &[u8]) -> Option<FecShard> {
        if bytes.len() < 16 {
            return None;
        }
        let frame_id = u64::from_be_bytes(bytes[0..8].try_into().ok()?);
        let index = u16::from_be_bytes([bytes[8], bytes[9]]);
        let data_shards = u16::from_be_bytes([bytes[10], bytes[11]]);
        let payload_len = u32::from_be_bytes(bytes[12..16].try_into().ok()?);
        if data_shards == 0 || index > data_shards {
            return None;
        }
        Some(FecShard {
            frame_id,
            index,
            data_shards,
            payload_len,
            body: bytes[16..].to_vec(),
        })
    }
}

/// Splits frame payloads into data shards plus one XOR parity shard.
#[derive(Clone, Debug, Default)]
pub struct FecEncoder {
    next_frame_id: u64,
}

impl FecEncoder {
    /// A fresh encoder.
    pub fn new() -> Self {
        FecEncoder::default()
    }

    /// Protect one payload: `mtu` bounds the shard body size.
    pub fn protect(&mut self, payload: &[u8], mtu: usize) -> Vec<FecShard> {
        assert!(mtu > 0, "mtu must be positive");
        let frame_id = self.next_frame_id;
        self.next_frame_id += 1;
        let chunks: Vec<&[u8]> = if payload.is_empty() {
            vec![&[]]
        } else {
            payload.chunks(mtu).collect()
        };
        let data_shards = chunks.len() as u16;
        let body_len = chunks.iter().map(|c| c.len()).max().unwrap_or(0);
        let mut parity = vec![0u8; body_len];
        let mut shards: Vec<FecShard> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let mut body = c.to_vec();
                body.resize(body_len, 0);
                for (p, b) in parity.iter_mut().zip(&body) {
                    *p ^= b;
                }
                FecShard {
                    frame_id,
                    index: i as u16,
                    data_shards,
                    payload_len: payload.len() as u32,
                    body,
                }
            })
            .collect();
        shards.push(FecShard {
            frame_id,
            index: data_shards,
            data_shards,
            payload_len: payload.len() as u32,
            body: parity,
        });
        shards
    }
}

/// Reassembles frames from shards, recovering one lost shard per frame.
#[derive(Debug, Default)]
pub struct FecAssembler {
    pending: std::collections::BTreeMap<u64, Vec<Option<FecShard>>>,
    recovered: u64,
    complete: u64,
}

impl FecAssembler {
    /// A fresh assembler.
    pub fn new() -> Self {
        FecAssembler::default()
    }

    /// Frames completed so far.
    pub fn completed(&self) -> u64 {
        self.complete
    }

    /// Frames that needed parity recovery.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Feed one shard; returns the frame payload when decodable.
    pub fn push(&mut self, shard: FecShard) -> Option<(u64, Vec<u8>)> {
        let total = shard.data_shards as usize + 1;
        let frame_id = shard.frame_id;
        let slots = self
            .pending
            .entry(frame_id)
            .or_insert_with(|| vec![None; total]);
        if slots.len() != total || (shard.index as usize) >= total {
            return None;
        }
        let idx = shard.index as usize;
        slots[idx] = Some(shard);
        let present = slots.iter().filter(|s| s.is_some()).count();
        let data_present = slots[..total - 1].iter().filter(|s| s.is_some()).count();
        let data_shards = total - 1;
        // Decodable when all data shards are here, or all-but-one plus
        // parity.
        let decodable = data_present == data_shards
            || (data_present == data_shards - 1 && present == data_shards);
        if !decodable {
            return None;
        }
        let slots = self.pending.remove(&frame_id).expect("present");
        let payload_len = slots
            .iter()
            .flatten()
            .next()
            .expect("at least one shard")
            .payload_len as usize;
        let body_len = slots
            .iter()
            .flatten()
            .next()
            .map(|s| s.body.len())
            .unwrap_or(0);
        // Recover the missing data shard via XOR if needed.
        let mut bodies: Vec<Option<Vec<u8>>> = slots
            .iter()
            .take(data_shards)
            .map(|s| s.as_ref().map(|s| s.body.clone()))
            .collect();
        if let Some(missing) = bodies.iter().position(|b| b.is_none()) {
            let mut rec = slots[data_shards]
                .as_ref()
                .expect("parity present when recovering")
                .body
                .clone();
            rec.resize(body_len, 0);
            for (i, b) in bodies.iter().enumerate() {
                if i != missing {
                    if let Some(b) = b {
                        for (r, x) in rec.iter_mut().zip(b) {
                            *r ^= x;
                        }
                    }
                }
            }
            bodies[missing] = Some(rec);
            self.recovered += 1;
        }
        let mut payload = Vec::with_capacity(payload_len);
        for b in bodies.into_iter().flatten() {
            payload.extend_from_slice(&b);
        }
        payload.truncate(payload_len);
        self.complete += 1;
        Some((frame_id, payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_loss_round_trip() {
        let mut enc = FecEncoder::new();
        let payload: Vec<u8> = (0..3_000u32).map(|i| i as u8).collect();
        let shards = enc.protect(&payload, 1_200);
        assert_eq!(shards.len(), 4); // 3 data + parity
        let mut asm = FecAssembler::new();
        let mut got = None;
        for s in shards {
            if let Some((_, p)) = asm.push(s) {
                got = Some(p);
            }
        }
        assert_eq!(got.unwrap(), payload);
        assert_eq!(asm.recovered(), 0);
    }

    #[test]
    fn any_single_data_loss_is_recovered() {
        let payload: Vec<u8> = (0..2_500u32).map(|i| (i * 7) as u8).collect();
        for drop in 0..3 {
            let mut enc = FecEncoder::new();
            let mut shards = enc.protect(&payload, 1_000);
            shards.remove(drop);
            let mut asm = FecAssembler::new();
            let mut got = None;
            for s in shards {
                if let Some((_, p)) = asm.push(s) {
                    got = Some(p);
                }
            }
            assert_eq!(got.unwrap(), payload, "drop {drop}");
            assert_eq!(asm.recovered(), 1);
        }
    }

    #[test]
    fn parity_loss_is_harmless() {
        let payload = vec![42u8; 2_000];
        let mut enc = FecEncoder::new();
        let mut shards = enc.protect(&payload, 900);
        shards.pop(); // drop parity
        let mut asm = FecAssembler::new();
        let mut got = None;
        for s in shards {
            if let Some((_, p)) = asm.push(s) {
                got = Some(p);
            }
        }
        assert_eq!(got.unwrap(), payload);
        assert_eq!(asm.recovered(), 0);
    }

    #[test]
    fn double_loss_is_not_recoverable() {
        let payload = vec![7u8; 3_000];
        let mut enc = FecEncoder::new();
        let mut shards = enc.protect(&payload, 1_000);
        shards.remove(0);
        shards.remove(0);
        let mut asm = FecAssembler::new();
        for s in shards {
            assert!(asm.push(s).is_none());
        }
        assert_eq!(asm.completed(), 0);
    }

    #[test]
    fn shard_wire_format_round_trips() {
        let s = FecShard {
            frame_id: 9,
            index: 2,
            data_shards: 3,
            payload_len: 2_500,
            body: vec![1, 2, 3],
        };
        assert_eq!(FecShard::parse(&s.to_bytes()), Some(s));
        assert!(FecShard::parse(&[0u8; 10]).is_none());
    }

    #[test]
    fn parse_rejects_inconsistent_indices() {
        let s = FecShard {
            frame_id: 1,
            index: 5,
            data_shards: 3,
            payload_len: 10,
            body: vec![],
        };
        assert!(FecShard::parse(&s.to_bytes()).is_none());
    }

    #[test]
    fn overhead_is_one_over_k() {
        let payload = vec![0u8; 3_600];
        let mut enc = FecEncoder::new();
        let shards = enc.protect(&payload, 1_200);
        let total: usize = shards.iter().map(|s| s.body.len()).sum();
        // 3 data shards → parity adds exactly 1/3.
        assert_eq!(total, 4 * 1_200);
    }

    #[test]
    fn small_payload_single_shard_plus_parity() {
        let mut enc = FecEncoder::new();
        let shards = enc.protect(b"tiny", 1_200);
        assert_eq!(shards.len(), 2);
        // k = 1 degenerates to a repetition code: either shard alone
        // reconstructs the frame.
        let mut asm = FecAssembler::new();
        let got = asm.push(shards[1].clone());
        assert_eq!(got.unwrap().1, b"tiny");
        assert_eq!(asm.recovered(), 1);
        let mut asm = FecAssembler::new();
        let got = asm.push(shards[0].clone());
        assert_eq!(got.unwrap().1, b"tiny");
        assert_eq!(asm.recovered(), 0);
    }
}
