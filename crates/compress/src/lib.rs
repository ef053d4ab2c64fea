//! # visionsim-compress
//!
//! From-scratch lossless compression, built in-tree because the codecs are
//! part of the reproduction surface itself:
//!
//! * The paper compresses keypoint streams with **LZMA** (§4.3) —
//!   [`lzma_like`] implements the same construction (LZ77 match finding
//!   over a sliding window + adaptive binary range coding) and is what the
//!   semantic-communication codec uses.
//! * The paper compresses meshes with **Draco** — `visionsim-mesh` uses
//!   the static [`rans`] entropy coder from this crate for its
//!   quantize/delta/entropy pipeline.
//!
//! Layers, bottom-up: [`varint`] (LEB128 + zigzag), [`lz77`]
//! (hash-chain match finder), [`range`] (carry-correct adaptive binary
//! range coder), [`rans`] (static table-based rANS), and [`lzma_like`]
//! (the assembled general-purpose codec).

pub mod lz77;
pub mod lzma_like;
pub mod range;
pub mod rans;
pub mod varint;

pub use lzma_like::{compress, compress_into, decompress};
