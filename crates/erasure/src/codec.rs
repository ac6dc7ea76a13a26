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

    /// Access the underlying shard-level code.
    pub fn reed_solomon(&self) -> &ReedSolomon {
        &self.rs
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
        // Frame: 4-byte BE length, then the message, zero-padded.
        let mut framed = Vec::with_capacity(shard_len * m);
        framed.extend_from_slice(&(message.len() as u32).to_be_bytes());
        framed.extend_from_slice(message);
        framed.resize(shard_len * m, 0);

        // `m` chunks of `shard_len` bytes: uniform by construction.
        let data: Vec<Vec<u8>> = framed.chunks(shard_len).map(|c| c.to_vec()).collect();
        debug_assert_eq!(data.len(), m);
        self.rs
            .encode_uniform(&data)
            .into_iter()
            .enumerate()
            .map(|(i, d)| Segment::new(i, d))
            .collect()
    }

    fn decode(&self, segments: &[Segment]) -> Result<Vec<u8>, ErasureError> {
        let pairs: Vec<(usize, &[u8])> = segments
            .iter()
            .map(|s| (s.index, s.data.as_slice()))
            .collect();
        let data = self.rs.reconstruct(&pairs)?;
        let framed: Vec<u8> = data.into_iter().flatten().collect();
        let Some(&prefix) = framed.first_chunk::<FRAME_LEN>() else {
            return Err(ErasureError::BadFrame);
        };
        let len = u32::from_be_bytes(prefix) as usize;
        if FRAME_LEN + len > framed.len() {
            return Err(ErasureError::BadFrame);
        }
        Ok(framed[FRAME_LEN..FRAME_LEN + len].to_vec())
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
