//! Message-level codec API used by the anonymity protocols.
//!
//! The protocols in the paper operate on *messages*, not shards: the
//! initiator splits a message `M` into `n` coded segments of size `|M|/m`
//! and the responder reconstructs `M` from any `m` of them. This module
//! provides that framing on top of [`crate::rs::ReedSolomon`]:
//!
//! * a 4-byte big-endian length prefix so padding can be stripped,
//! * zero padding up to a multiple of `m`,
//! * per-segment indices so segments can be routed independently and arrive
//!   in any order.

use crate::rs::ReedSolomon;
use crate::ErasureError;

/// One coded message segment travelling over a single anonymous path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Position of this segment in the code word (`0..n`).
    pub index: usize,
    /// Segment payload (`ceil((|M| + 4) / m)` bytes for erasure coding).
    pub data: Vec<u8>,
}

impl Segment {
    /// Construct a segment.
    pub fn new(index: usize, data: Vec<u8>) -> Self {
        Segment { index, data }
    }

    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// A message codec in the paper's `(m, n)` model: `n` coded segments, any
/// `m` reconstruct. Implemented by [`ErasureCodec`] and
/// [`crate::replication::ReplicationCodec`].
pub trait Codec {
    /// Segments required for reconstruction (`m`).
    fn required(&self) -> usize;

    /// Total segments produced (`n`).
    fn total(&self) -> usize;

    /// Replication factor `r = n / m` as a float (need not be integral).
    fn replication_factor(&self) -> f64 {
        self.total() as f64 / self.required() as f64
    }

    /// Split a message into `n` coded segments.
    fn encode(&self, message: &[u8]) -> Vec<Segment>;

    /// Reconstruct the message from at least `m` distinct segments.
    fn decode(&self, segments: &[Segment]) -> Result<Vec<u8>, ErasureError>;

    /// Size in bytes of each coded segment for a message of `msg_len` bytes.
    fn segment_len(&self, msg_len: usize) -> usize;
}

const FRAME_LEN: usize = 4;

/// The part of `[offset, offset + part_len)` inside the shard that spans
/// `[start, start + shard_len)` of the framed message, as `a..b`; `None`
/// when they do not meet.
fn overlap(
    start: usize,
    shard_len: usize,
    offset: usize,
    part_len: usize,
) -> Option<(usize, usize)> {
    let (a, b) = (
        start.max(offset),
        (start + shard_len).min(offset + part_len),
    );
    (a < b).then_some((a, b))
}

/// Copy bytes `start..start + out.len()` of the framed message out of
/// its data shards, given as `(index, bytes)` pairs of `len` bytes each,
/// in any order.
fn gather<'a>(
    shards: impl Iterator<Item = (usize, &'a [u8])>,
    len: usize,
    start: usize,
    out: &mut [u8],
) {
    for (index, shard) in shards {
        let from = index * len;
        if let Some((a, b)) = overlap(from, len, start, out.len()) {
            out[a - start..b - start].copy_from_slice(&shard[a - from..b - from]);
        }
    }
}

/// The message framed across all `m` data shards (`(index, bytes)`
/// pairs of `len` bytes each): its length prefix read, its padding
/// dropped.
fn unframe<'a>(
    shards: impl Iterator<Item = (usize, &'a [u8])> + Clone,
    m: usize,
    len: usize,
) -> Result<Vec<u8>, ErasureError> {
    let framed_len = m * len;
    if framed_len < FRAME_LEN {
        return Err(ErasureError::BadFrame);
    }
    let mut prefix = [0u8; FRAME_LEN];
    gather(shards.clone(), len, 0, &mut prefix);
    let msg_len = u32::from_be_bytes(prefix) as usize;
    if FRAME_LEN + msg_len > framed_len {
        return Err(ErasureError::BadFrame);
    }
    let mut message = vec![0u8; msg_len];
    gather(shards, len, FRAME_LEN, &mut message);
    Ok(message)
}

/// Erasure-coding message codec: the paper's SimEra substrate.
///
/// ```
/// use erasure::{Codec, ErasureCodec};
///
/// // (m, n) = (3, 6): six coded segments, any three reconstruct (r = 2).
/// let codec = ErasureCodec::new(3, 6).unwrap();
/// let segments = codec.encode(b"anonymous message");
/// assert_eq!(segments.len(), 6);
///
/// // Lose half the segments — the message still decodes, regardless of
/// // which m survive or in what order they arrive.
/// let survivors: Vec<_> = segments.into_iter().step_by(2).rev().collect();
/// assert_eq!(codec.decode(&survivors).unwrap(), b"anonymous message");
/// ```
#[derive(Clone, Debug)]
pub struct ErasureCodec {
    rs: ReedSolomon,
}

impl ErasureCodec {
    /// Create an `(m, n)` erasure codec (`1 <= m <= n <= 255`).
    pub fn new(m: usize, n: usize) -> Result<Self, ErasureError> {
        Ok(ErasureCodec {
            rs: ReedSolomon::new(m, n)?,
        })
    }

    /// Convenience constructor from the paper's parameters: replication
    /// factor `r` and number of data segments `m`, so `n = m * r`.
    pub fn from_replication_factor(m: usize, r: usize) -> Result<Self, ErasureError> {
        Self::new(m, m * r)
    }
}

impl Codec for ErasureCodec {
    fn required(&self) -> usize {
        self.rs.data_shards()
    }

    fn total(&self) -> usize {
        self.rs.total_shards()
    }

    fn encode(&self, message: &[u8]) -> Vec<Segment> {
        let m = self.required();
        let shard_len = self.segment_len(message.len());
        // The framed message — 4-byte BE length, the message, zero
        // padding — written straight into the `m` data shards; every
        // segment buffer is allocated once, at the shard length.
        let prefix = (message.len() as u32).to_be_bytes();
        let mut segments: Vec<Segment> = (0..self.total())
            .map(|i| Segment::new(i, Vec::with_capacity(shard_len)))
            .collect();
        for seg in &mut segments[..m] {
            let start = seg.index * shard_len;
            for (offset, part) in [(0, &prefix[..]), (FRAME_LEN, message)] {
                if let Some((a, b)) = overlap(start, shard_len, offset, part.len()) {
                    seg.data.extend_from_slice(&part[a - offset..b - offset]);
                }
            }
            seg.data.resize(shard_len, 0);
        }
        let (data, parity) = segments.split_at_mut(m);
        for seg in parity {
            let shards = data.iter().map(|s| s.data.as_slice());
            self.rs.parity_into(seg.index, shards, &mut seg.data);
        }
        segments
    }

    fn decode(&self, segments: &[Segment]) -> Result<Vec<u8>, ErasureError> {
        let m = self.required();
        // `ReedSolomon::reconstruct`'s checks, in its order: every index
        // in range and distinct, at least `m`, the first `m` (the ones it
        // uses) of one length.
        let mut seen = [0u64; 4];
        for seg in segments {
            if seg.index >= self.total() {
                return Err(ErasureError::BadIndex(seg.index));
            }
            let (word, bit) = (seg.index / 64, 1u64 << (seg.index % 64));
            if seen[word] & bit != 0 {
                return Err(ErasureError::DuplicateIndex(seg.index));
            }
            seen[word] |= bit;
        }
        let Some(chosen) = segments.get(..m) else {
            return Err(ErasureError::NotEnoughSegments {
                have: segments.len(),
                need: m,
            });
        };
        let len = chosen[0].len();
        if chosen.iter().any(|s| s.len() != len) {
            return Err(ErasureError::LengthMismatch);
        }
        if chosen.iter().all(|s| s.index < m) {
            // Every data shard is here: the message is a copy out of them.
            let shards = chosen.iter().map(|s| (s.index, s.data.as_slice()));
            return unframe(shards, m, len);
        }
        let pairs: Vec<(usize, &[u8])> = chosen
            .iter()
            .map(|s| (s.index, s.data.as_slice()))
            .collect();
        let data = self.rs.reconstruct(&pairs)?;
        unframe(data.iter().map(Vec::as_slice).enumerate(), m, len)
    }

    fn segment_len(&self, msg_len: usize) -> usize {
        // ceil((len + frame) / m), at least 1 so empty messages still carry
        // a frame spread across shards.
        (msg_len + FRAME_LEN).div_ceil(self.required()).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_sizes() {
        let codec = ErasureCodec::new(4, 8).unwrap();
        for size in [0usize, 1, 3, 4, 5, 63, 64, 65, 1024, 1025, 4096] {
            let msg: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let segs = codec.encode(&msg);
            assert_eq!(segs.len(), 8);
            // All segments the advertised size.
            for s in &segs {
                assert_eq!(s.len(), codec.segment_len(size));
            }
            // Decode from exactly m parity-heavy survivors.
            let survivors: Vec<Segment> = segs.into_iter().skip(4).collect();
            assert_eq!(codec.decode(&survivors).unwrap(), msg, "size {size}");
        }
    }

    #[test]
    fn decode_from_arbitrary_m_subset() {
        let codec = ErasureCodec::new(3, 9).unwrap();
        let msg = b"erasure coded anonymous routing".to_vec();
        let segs = codec.encode(&msg);
        let pick = [8usize, 2, 5];
        let survivors: Vec<Segment> = pick.iter().map(|&i| segs[i].clone()).collect();
        assert_eq!(codec.decode(&survivors).unwrap(), msg);
    }

    #[test]
    fn decode_insufficient_segments_fails() {
        let codec = ErasureCodec::new(3, 6).unwrap();
        let segs = codec.encode(b"hello world");
        let err = codec.decode(&segs[..2]).unwrap_err();
        assert!(matches!(
            err,
            ErasureError::NotEnoughSegments { have: 2, need: 3 }
        ));
    }

    #[test]
    fn segment_size_matches_paper_model() {
        // Paper: each segment has length |M|/m (we add a 4-byte frame).
        let codec = ErasureCodec::new(4, 16).unwrap();
        let kb = 1024;
        assert_eq!(codec.segment_len(kb), (kb + 4).div_ceil(4));
        assert!((codec.replication_factor() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn from_replication_factor_builds_n_equals_m_times_r() {
        let codec = ErasureCodec::from_replication_factor(5, 3).unwrap();
        assert_eq!(codec.required(), 5);
        assert_eq!(codec.total(), 15);
    }

    #[test]
    fn tampered_frame_detected() {
        let codec = ErasureCodec::new(2, 4).unwrap();
        let segs = codec.encode(b"x");
        // Corrupt the length prefix in both data shards: claim a huge length.
        let mut bad: Vec<Segment> = segs[..2].to_vec();
        bad[0].data[0] = 0xff;
        bad[0].data[1] = 0xff;
        assert_eq!(codec.decode(&bad), Err(ErasureError::BadFrame));
    }

    #[test]
    fn empty_message_roundtrip() {
        let codec = ErasureCodec::new(6, 12).unwrap();
        let segs = codec.encode(b"");
        let survivors: Vec<Segment> = segs.into_iter().rev().take(6).collect();
        assert_eq!(codec.decode(&survivors).unwrap(), Vec::<u8>::new());
    }
}
