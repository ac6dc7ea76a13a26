//! `ErasureCodec` against the codec it replaced, which framed the message
//! into one buffer, cut it into shards with a copy each, and decoded by
//! flattening what `ReedSolomon::reconstruct` returned. The codec now
//! writes the frame straight into the segment buffers and, when every
//! data shard is present, copies the message straight out of them; the
//! bytes, and every error, must be the old ones.

use erasure::codec::{Codec, ErasureCodec, Segment};
use erasure::rs::ReedSolomon;
use erasure::ErasureError;
use proptest::prelude::*;

const FRAME_LEN: usize = 4;

/// The old encoder: frame, pad, chunk, `ReedSolomon::encode`.
fn reference_encode(m: usize, n: usize, message: &[u8]) -> Vec<Segment> {
    let shard_len = (message.len() + FRAME_LEN).div_ceil(m).max(1);
    let mut framed = (message.len() as u32).to_be_bytes().to_vec();
    framed.extend_from_slice(message);
    framed.resize(shard_len * m, 0);
    let data: Vec<Vec<u8>> = framed.chunks(shard_len).map(<[u8]>::to_vec).collect();
    let coded = ReedSolomon::new(m, n).unwrap().encode(&data).unwrap();
    coded
        .into_iter()
        .enumerate()
        .map(|(i, d)| Segment::new(i, d))
        .collect()
}

/// The old decoder: reconstruct, flatten, read the frame.
fn reference_decode(m: usize, n: usize, segments: &[Segment]) -> Result<Vec<u8>, ErasureError> {
    let pairs: Vec<(usize, &[u8])> = segments
        .iter()
        .map(|s| (s.index, s.data.as_slice()))
        .collect();
    let framed = ReedSolomon::new(m, n)
        .unwrap()
        .reconstruct(&pairs)?
        .concat();
    let Some(&prefix) = framed.first_chunk::<FRAME_LEN>() else {
        return Err(ErasureError::BadFrame);
    };
    let len = u32::from_be_bytes(prefix) as usize;
    if FRAME_LEN + len > framed.len() {
        return Err(ErasureError::BadFrame);
    }
    Ok(framed[FRAME_LEN..FRAME_LEN + len].to_vec())
}

/// Every ordering of every `m`-subset of `0..n`.
fn arrangements(n: usize, m: usize) -> Vec<Vec<usize>> {
    if m == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in arrangements(n, m - 1) {
        for i in (0..n).filter(|i| !shorter.contains(i)) {
            let mut longer = shorter.clone();
            longer.push(i);
            out.push(longer);
        }
    }
    out
}

#[test]
fn every_m_subset_in_every_order_decodes_to_the_same_bytes() {
    for (m, n) in [(1, 1), (2, 4), (3, 9), (4, 8)] {
        let codec = ErasureCodec::new(m, n).unwrap();
        // Sizes whose length prefix spans several shards (0, 1 with
        // m = 4: one- and two-byte shards), fills them exactly, or pads.
        for size in [0usize, 1, 4, 5, 63, 64, 333] {
            let message: Vec<u8> = (0..size).map(|i| (i * 37 + size) as u8).collect();
            let segments = codec.encode(&message);
            assert_eq!(
                segments,
                reference_encode(m, n, &message),
                "({m},{n}) {size} B"
            );
            let (mut data_path, mut matrix_path) = (0, 0);
            for order in arrangements(n, m) {
                let survivors: Vec<Segment> = order.iter().map(|&i| segments[i].clone()).collect();
                if order.iter().all(|&i| i < m) {
                    data_path += 1;
                } else {
                    matrix_path += 1;
                }
                assert_eq!(
                    codec.decode(&survivors).as_deref(),
                    Ok(&message[..]),
                    "({m},{n}) {size} B from {order:?}"
                );
            }
            // m! orderings of the one all-data subset; the rest invert.
            assert_eq!(data_path, (1..=m).product::<usize>());
            assert_eq!(matrix_path > 0, n > m);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hostile segment lists — duplicated, out-of-range and too few
    /// indices, ragged and arbitrary bytes, over-long lists — give the
    /// old decoder's result, error or message, exactly.
    #[test]
    fn hostile_segments_decode_as_the_old_codec_did(
        shape in 0usize..4,
        picks in proptest::collection::vec(any::<u32>(), 0..10),
        genuine in any::<bool>(),
    ) {
        let (m, n) = [(1, 1), (2, 4), (3, 9), (4, 8)][shape];
        let codec = ErasureCodec::new(m, n).unwrap();
        let message = b"hostile input reaches the decoder";
        let encoded = codec.encode(message);
        let len = encoded[0].len();
        let segments: Vec<Segment> = picks
            .iter()
            .map(|&word| {
                // One word per segment: its index, how short, its fill.
                let index = (word & 0xff) as usize % (n + 2);
                let (short, fill) = ((word >> 8) as usize % 3, (word >> 16) as u8);
                // Mostly well-formed lengths, sometimes ragged.
                let bytes = match (genuine, encoded.get(index)) {
                    (true, Some(seg)) => seg.data[..len - short.min(1)].to_vec(),
                    _ => vec![fill; len + 1 - short.min(2)],
                };
                Segment::new(index, bytes)
            })
            .collect();
        prop_assert_eq!(codec.decode(&segments), reference_decode(m, n, &segments));
    }
}
