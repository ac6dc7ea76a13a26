//! The versioned wire protocol: every message that crosses a link — in
//! the simulator or over a real socket — is one length-prefixed binary
//! frame with an explicit magic, version and type tag.
//!
//! Until this module existed the in-flight message enum was private to
//! [`crate::driver`] and never left process memory. [`Wire`] is now the
//! single protocol vocabulary shared by the event-driven simulator and
//! the live transports (`crates/transport`), and [`Frame`] is its
//! on-the-wire envelope. The encoding is deliberately explicit:
//!
//! ```text
//! frame  := magic "PANR" | version u8 | type u8 | body_len u32 BE | body
//!
//! body (by type):
//!   0x00 Hello      node u32 BE                      (transport-level peer id)
//!   0x01 Construct  sid u64 BE | initiator_sid u64 BE | onion bytes
//!   0x02 Payload    sid u64 BE | blob bytes
//!   0x03 Reverse    sid u64 BE | blob bytes
//!   0x04 Release    sid u64 BE
//! ```
//!
//! Framing carries *only* the link-local stream id and the opaque onion
//! ciphertext: everything an observer could use to distinguish flows is
//! inside the onion. In particular, two payload frames whose onions carry
//! equal-length segments are byte-length identical — cover traffic stays
//! indistinguishable at the framing layer (§4.6), which
//! `crates/transport` pins with a test.
//!
//! Decoding returns typed [`WireError`]s and never panics, whatever the
//! input; the proptests in `crates/core/tests/wire_proptests.rs` fuzz the
//! length-prefix edge cases.

use crate::ids::StreamId;
use simnet::NodeId;
use std::fmt;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"PANR";

/// Current protocol version. 2 is the ChaCha20-Poly1305 payload layer
/// (`sim_crypto::symmetric`); it replaced 1 (ChaCha20 + HMAC-SHA-256) with
/// the same frame lengths, so the version byte is what tells a v1 peer
/// apart before its every layer fails authentication.
pub const VERSION: u8 = 2;

/// Fixed header length: magic (4) + version (1) + type (1) + body length
/// (4).
pub const HEADER_LEN: usize = 10;

/// Upper bound on a frame body; decoders reject larger length prefixes
/// before allocating anything.
pub const MAX_BODY_LEN: usize = 1 << 20;

const TYPE_HELLO: u8 = 0x00;
const TYPE_CONSTRUCT: u8 = 0x01;
const TYPE_PAYLOAD: u8 = 0x02;
const TYPE_REVERSE: u8 = 0x03;
const TYPE_RELEASE: u8 = 0x04;

/// One kind of in-flight protocol message on a stream.
///
/// This is the enum the event-driven [`crate::driver`] schedules and the
/// live transports serialize; the variants mirror §4.1–§4.3 of the paper.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Wire {
    /// Path-construction onion, tagged with the initiator-side stream id
    /// so completions can be correlated.
    Construct {
        /// The initiator's stream id for the path being built.
        initiator_sid: StreamId,
        /// The (remaining) construction onion.
        onion: Vec<u8>,
    },
    /// Payload onion.
    Payload {
        /// The (remaining) payload onion.
        blob: Vec<u8>,
    },
    /// Reverse (response/ack) blob travelling back towards the initiator.
    Reverse {
        /// The layered reverse blob.
        blob: Vec<u8>,
    },
    /// Explicit path teardown propagating hop by hop (§4.3).
    Release,
}

impl Wire {
    /// The frame type tag this message encodes to.
    pub fn type_tag(&self) -> u8 {
        match self {
            Wire::Construct { .. } => TYPE_CONSTRUCT,
            Wire::Payload { .. } => TYPE_PAYLOAD,
            Wire::Reverse { .. } => TYPE_REVERSE,
            Wire::Release => TYPE_RELEASE,
        }
    }
}

/// A complete frame: either transport-level peer identification or
/// protocol traffic on a stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Peer identification, sent once as the first frame on a live
    /// connection. Never used inside the simulator.
    Hello {
        /// The sender's node id.
        node: NodeId,
    },
    /// Protocol traffic on link-local stream `sid`.
    Stream {
        /// Stream id on this link.
        sid: StreamId,
        /// The protocol message.
        wire: Wire,
    },
}

/// A typed decode failure. Every malformed input maps to exactly one of
/// these; decoding never panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Version byte differs from [`VERSION`].
    UnsupportedVersion(u8),
    /// Unknown frame type tag.
    UnknownType(u8),
    /// The input ends before the declared frame does. `needed` is the
    /// total frame length implied so far, `got` what was provided.
    Truncated {
        /// Bytes required to finish decoding.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The body is shorter than the fixed fields of its frame type.
    ShortBody {
        /// Frame type tag whose body was short.
        tag: u8,
        /// Declared body length.
        len: usize,
    },
    /// The declared body length exceeds [`MAX_BODY_LEN`].
    Oversized {
        /// Declared body length.
        len: usize,
    },
    /// The input continues past the end of the declared frame (strict
    /// whole-buffer decoding only; stream decoding leaves the tail).
    TrailingBytes {
        /// Bytes left over after the frame.
        extra: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            WireError::ShortBody { tag, len } => {
                write!(f, "body too short for frame type 0x{tag:02x}: {len} bytes")
            }
            WireError::Oversized { len } => {
                write!(f, "declared body length {len} exceeds cap {MAX_BODY_LEN}")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after frame")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Total encoded length of a frame (header plus body).
pub fn encoded_len(frame: &Frame) -> usize {
    HEADER_LEN
        + match frame {
            Frame::Hello { .. } => 4,
            Frame::Stream { wire, .. } => {
                8 + match wire {
                    Wire::Construct { onion, .. } => 8 + onion.len(),
                    Wire::Payload { blob } | Wire::Reverse { blob } => blob.len(),
                    Wire::Release => 0,
                }
            }
        }
}

/// Encode `frame` into `out` (cleared first). The buffer's capacity is
/// reused, so a pooled buffer makes steady-state encoding allocation-free.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(encoded_len(frame));
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    let tag = match frame {
        Frame::Hello { .. } => TYPE_HELLO,
        Frame::Stream { wire, .. } => wire.type_tag(),
    };
    out.push(tag);
    let body_len = encoded_len(frame) - HEADER_LEN;
    out.extend_from_slice(&(body_len as u32).to_be_bytes());
    match frame {
        Frame::Hello { node } => out.extend_from_slice(&node.0.to_be_bytes()),
        Frame::Stream { sid, wire } => {
            out.extend_from_slice(&sid.to_bytes());
            match wire {
                Wire::Construct {
                    initiator_sid,
                    onion,
                } => {
                    out.extend_from_slice(&initiator_sid.to_bytes());
                    out.extend_from_slice(onion);
                }
                Wire::Payload { blob } | Wire::Reverse { blob } => out.extend_from_slice(blob),
                Wire::Release => {}
            }
        }
    }
    debug_assert_eq!(out.len(), encoded_len(frame));
}

/// Encode `frame` into a fresh buffer.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    encode_frame_into(frame, &mut out);
    out
}

/// Parse the 10-byte header. Returns the frame type tag and body length.
fn decode_header(bytes: &[u8]) -> Result<(u8, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated {
            needed: HEADER_LEN,
            got: bytes.len(),
        });
    }
    let magic: [u8; 4] = bytes[..4].try_into().expect("length checked");
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if bytes[4] != VERSION {
        return Err(WireError::UnsupportedVersion(bytes[4]));
    }
    let tag = bytes[5];
    if tag > TYPE_RELEASE {
        return Err(WireError::UnknownType(tag));
    }
    let len = u32::from_be_bytes(bytes[6..10].try_into().expect("length checked")) as usize;
    if len > MAX_BODY_LEN {
        return Err(WireError::Oversized { len });
    }
    Ok((tag, len))
}

fn be_u64(body: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(body[at..at + 8].try_into().expect("caller checked length"))
}

/// Decode the body of a frame whose header already validated.
fn decode_body(tag: u8, body: &[u8]) -> Result<Frame, WireError> {
    let short = || WireError::ShortBody {
        tag,
        len: body.len(),
    };
    match tag {
        TYPE_HELLO => {
            if body.len() < 4 {
                return Err(short());
            }
            let node = u32::from_be_bytes(body[..4].try_into().expect("length checked"));
            Ok(Frame::Hello { node: NodeId(node) })
        }
        TYPE_CONSTRUCT => {
            if body.len() < 16 {
                return Err(short());
            }
            Ok(Frame::Stream {
                sid: StreamId(be_u64(body, 0)),
                wire: Wire::Construct {
                    initiator_sid: StreamId(be_u64(body, 8)),
                    onion: body[16..].to_vec(),
                },
            })
        }
        TYPE_PAYLOAD | TYPE_REVERSE => {
            if body.len() < 8 {
                return Err(short());
            }
            let sid = StreamId(be_u64(body, 0));
            let blob = body[8..].to_vec();
            let wire = if tag == TYPE_PAYLOAD {
                Wire::Payload { blob }
            } else {
                Wire::Reverse { blob }
            };
            Ok(Frame::Stream { sid, wire })
        }
        TYPE_RELEASE => {
            if body.len() < 8 {
                return Err(short());
            }
            Ok(Frame::Stream {
                sid: StreamId(be_u64(body, 0)),
                wire: Wire::Release,
            })
        }
        other => Err(WireError::UnknownType(other)),
    }
}

/// Decode exactly one frame from `bytes`; the buffer must hold the whole
/// frame and nothing else ([`WireError::TrailingBytes`] otherwise).
///
/// ```
/// use anon_core::wire::{decode_frame, encode_frame, Frame, Wire};
/// use anon_core::StreamId;
///
/// let frame = Frame::Stream {
///     sid: StreamId(7),
///     wire: Wire::Payload { blob: vec![1, 2, 3] },
/// };
/// assert_eq!(decode_frame(&encode_frame(&frame)).unwrap(), frame);
/// ```
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let (tag, len) = decode_header(bytes)?;
    let total = HEADER_LEN + len;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(WireError::TrailingBytes {
            extra: bytes.len() - total,
        });
    }
    decode_body(tag, &bytes[HEADER_LEN..])
}

/// Decode one frame from an owned buffer, reusing its allocation for the
/// decoded blob where possible (the header prefix is drained in place, so
/// payload-bearing frames decode without a second allocation). This is the
/// simulator hot-path entry: the driver encodes into a pooled buffer at
/// the sending edge and takes the blob back out here.
pub fn decode_frame_vec(mut buf: Vec<u8>) -> Result<Frame, WireError> {
    let (tag, len) = decode_header(&buf)?;
    let total = HEADER_LEN + len;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            got: buf.len(),
        });
    }
    if buf.len() > total {
        return Err(WireError::TrailingBytes {
            extra: buf.len() - total,
        });
    }
    match tag {
        TYPE_PAYLOAD | TYPE_REVERSE => {
            if len < 8 {
                return Err(WireError::ShortBody { tag, len });
            }
            let sid = StreamId(be_u64(&buf[HEADER_LEN..], 0));
            buf.drain(..HEADER_LEN + 8);
            let wire = if tag == TYPE_PAYLOAD {
                Wire::Payload { blob: buf }
            } else {
                Wire::Reverse { blob: buf }
            };
            Ok(Frame::Stream { sid, wire })
        }
        TYPE_CONSTRUCT => {
            if len < 16 {
                return Err(WireError::ShortBody { tag, len });
            }
            let body = &buf[HEADER_LEN..];
            let sid = StreamId(be_u64(body, 0));
            let initiator_sid = StreamId(be_u64(body, 8));
            buf.drain(..HEADER_LEN + 16);
            Ok(Frame::Stream {
                sid,
                wire: Wire::Construct {
                    initiator_sid,
                    onion: buf,
                },
            })
        }
        _ => decode_body(tag, &buf[HEADER_LEN..]),
    }
}

/// Incremental frame decoder over a byte stream (the sans-io half of a
/// live transport's read side): feed arbitrary chunks with
/// [`FrameReader::extend`], pull complete frames with
/// [`FrameReader::next_frame`].
///
/// ```
/// use anon_core::wire::{encode_frame, Frame, FrameReader, Wire};
/// use anon_core::StreamId;
///
/// let f = Frame::Stream { sid: StreamId(1), wire: Wire::Release };
/// let bytes = encode_frame(&f);
/// let mut reader = FrameReader::new();
/// reader.extend(&bytes[..6]); // partial header
/// assert_eq!(reader.next_frame().unwrap(), None);
/// reader.extend(&bytes[6..]);
/// assert_eq!(reader.next_frame().unwrap(), Some(f));
/// ```
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Append raw bytes received from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Try to decode the next complete frame. `Ok(None)` means more bytes
    /// are needed; errors are fatal for the stream (framing never
    /// resynchronizes after garbage).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let (tag, len) = decode_header(&self.buf)?;
        let total = HEADER_LEN + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame = decode_body(tag, &self.buf[HEADER_LEN..total])?;
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { node: NodeId(42) },
            Frame::Stream {
                sid: StreamId(0x1122334455667788),
                wire: Wire::Construct {
                    initiator_sid: StreamId(9),
                    onion: vec![0xAB; 100],
                },
            },
            Frame::Stream {
                sid: StreamId(1),
                wire: Wire::Payload {
                    blob: b"segment".to_vec(),
                },
            },
            Frame::Stream {
                sid: StreamId(2),
                wire: Wire::Reverse { blob: Vec::new() },
            },
            Frame::Stream {
                sid: StreamId(3),
                wire: Wire::Release,
            },
        ]
    }

    #[test]
    fn round_trips_all_variants() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            assert_eq!(bytes.len(), encoded_len(&frame));
            assert_eq!(decode_frame(&bytes).unwrap(), frame);
            assert_eq!(decode_frame_vec(bytes).unwrap(), frame);
        }
    }

    #[test]
    fn decode_vec_reuses_payload_allocation() {
        let frame = Frame::Stream {
            sid: StreamId(5),
            wire: Wire::Payload {
                blob: vec![7u8; 256],
            },
        };
        let bytes = encode_frame(&frame);
        let cap = bytes.capacity();
        match decode_frame_vec(bytes).unwrap() {
            Frame::Stream {
                wire: Wire::Payload { blob },
                ..
            } => assert_eq!(blob.capacity(), cap, "same backing buffer"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The version this one replaced is refused at the header, by name:
    /// there is no negotiation and no v1 code path left to fall back to.
    #[test]
    fn version_1_header_is_rejected() {
        let mut v1 = encode_frame(&Frame::Stream {
            sid: StreamId(1),
            wire: Wire::Payload { blob: vec![0; 44] },
        });
        assert_eq!(v1[4], VERSION);
        v1[4] = 1;
        assert_eq!(decode_frame(&v1), Err(WireError::UnsupportedVersion(1)));
    }

    #[test]
    fn header_errors_are_typed() {
        let good = encode_frame(&Frame::Stream {
            sid: StreamId(1),
            wire: Wire::Release,
        });
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_frame(&bad),
            Err(WireError::BadMagic([b'X', b'A', b'N', b'R']))
        ));
        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(decode_frame(&bad), Err(WireError::UnsupportedVersion(99)));
        let mut bad = good.clone();
        bad[5] = 0x77;
        assert_eq!(decode_frame(&bad), Err(WireError::UnknownType(0x77)));
        assert_eq!(
            decode_frame(&good[..4]),
            Err(WireError::Truncated {
                needed: HEADER_LEN,
                got: 4
            })
        );
    }

    #[test]
    fn length_prefix_edges() {
        let good = encode_frame(&Frame::Stream {
            sid: StreamId(1),
            wire: Wire::Payload {
                blob: vec![1, 2, 3],
            },
        });
        // Truncated body.
        assert_eq!(
            decode_frame(&good[..good.len() - 1]),
            Err(WireError::Truncated {
                needed: good.len(),
                got: good.len() - 1
            })
        );
        // Trailing bytes.
        let mut extra = good.clone();
        extra.push(0);
        assert_eq!(
            decode_frame(&extra),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        // Oversized length prefix rejected before any allocation.
        let mut huge = good.clone();
        huge[6..10].copy_from_slice(&(MAX_BODY_LEN as u32 + 1).to_be_bytes());
        assert_eq!(
            decode_frame(&huge),
            Err(WireError::Oversized {
                len: MAX_BODY_LEN + 1
            })
        );
        // Body shorter than the frame type's fixed fields.
        let mut short = Vec::new();
        short.extend_from_slice(&MAGIC);
        short.push(VERSION);
        short.push(TYPE_CONSTRUCT);
        short.extend_from_slice(&8u32.to_be_bytes());
        short.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            decode_frame(&short),
            Err(WireError::ShortBody {
                tag: TYPE_CONSTRUCT,
                len: 8
            })
        );
    }

    #[test]
    fn frame_reader_reassembles_split_stream() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        // Feed one byte at a time: every frame must come out exactly once.
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for &b in &stream {
            reader.extend(&[b]);
            while let Some(f) = reader.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn frame_reader_surfaces_garbage() {
        let mut reader = FrameReader::new();
        reader.extend(b"not a frame at all");
        assert!(matches!(reader.next_frame(), Err(WireError::BadMagic(_))));
    }
}
