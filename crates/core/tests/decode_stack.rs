//! The decode stack never panics and says why it refused.
//!
//! A received byte goes `FrameReader` / `wire::decode_frame` →
//! `Relay::handle_wire` → `Initiator::open_ack` (at the initiator) →
//! `Reassembler::push` → `Codec::decode` (at the responder). This test
//! records every frame of a 3-hop, `(2, 4)`-coded exchange over four
//! paths — constructions, their acks, one message's segments and their
//! acks — then feeds that stack arbitrary bytes and the recorded frames
//! mutated by bit flip, truncation, extension, a rewritten length field
//! and splicing two frames together, each at the node that received the
//! original.
//!
//! Every outcome is a value: a refusal is a `WireError`, or an
//! `AnonError` (which carries the `CryptoError` or `ErasureError` behind
//! it), never a panic. A refused frame leaves the receiving relay's path
//! table, the initiator's ledger and the responder's reassembly state
//! the size they were.

use anon_core::endpoint::{Initiator, Reassembler, CONSTRUCT_ACK};
use anon_core::relay::{Relay, Step};
use anon_core::wire::{decode_frame, encode_frame, Frame, FrameReader, Wire, WireError};
use anon_core::{AnonError, MessageId};
use erasure::ErasureCodec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::KeyPair;
use simnet::{NodeId, SimTime};
use std::collections::{HashMap, VecDeque};

const INITIATOR: NodeId = NodeId(0);
const PATHS: usize = 4;
const RELAYS: usize = 3;
const RESPONDER: NodeId = NodeId((1 + PATHS * RELAYS) as u32);

/// Frames as `(receiver, sender, bytes)`.
type Recorded = Vec<(NodeId, NodeId, Vec<u8>)>;

/// A network after the exchange, and the frames it carried.
type World = (Net, Recorded);

/// Every node of the exchange: relays and the responder as `Relay`s,
/// the initiator's `Initiator`, the responder's `Reassembler`.
struct Net {
    relays: HashMap<NodeId, Relay>,
    initiator: Initiator,
    reassembler: Reassembler,
    codec: ErasureCodec,
    rng: StdRng,
}

/// What a refusal must leave alone at node `at`.
fn sizes(net: &Net, at: NodeId) -> (usize, (usize, usize), usize, usize) {
    (
        net.relays.get(&at).map_or(0, Relay::cached_paths),
        net.initiator.ledger_len(),
        net.reassembler.pending(),
        net.reassembler.completed(),
    )
}

impl Net {
    fn new() -> Net {
        let mut rng = StdRng::seed_from_u64(37);
        let relays = (1..=RESPONDER.0)
            .map(|i| {
                (
                    NodeId(i),
                    Relay::new(NodeId(i), KeyPair::generate(&mut rng)),
                )
            })
            .collect();
        Net {
            relays,
            initiator: Initiator::new(INITIATOR),
            reassembler: Reassembler::new(),
            codec: ErasureCodec::new(2, 4).unwrap(),
            rng,
        }
    }

    /// One decoded frame at `at` from `from`, dispatched as
    /// `ProtocolNode` does; the frames it answers with.
    fn dispatch(
        &mut self,
        at: NodeId,
        from: NodeId,
        frame: Frame,
    ) -> Result<Vec<(NodeId, Frame)>, AnonError> {
        let now = SimTime::from_secs(1);
        let Frame::Stream { sid, mut wire } = frame else {
            return Ok(Vec::new());
        };
        if at == INITIATOR {
            if let Wire::Reverse { blob } = &mut wire {
                return self.initiator.open_ack(sid, blob, now).map(|_| Vec::new());
            }
        }
        let Some(relay) = self.relays.get_mut(&at) else {
            return Err(AnonError::UnknownStream);
        };
        let step = relay.handle_wire(from, sid, &mut wire, now, &mut self.rng)?;
        let (mid, index, mut buf) = match (step, wire) {
            (Step::Forward { to, sid }, wire) => {
                return Ok(vec![(to, Frame::Stream { sid, wire })]);
            }
            (Step::Constructed, Wire::Construct { onion, .. }) => (CONSTRUCT_ACK, 0, onion),
            (Step::Delivered { mid, index }, Wire::Payload { mut blob }) => {
                self.reassembler
                    .push(mid, index, &mut blob, &self.codec, now)?;
                (mid, index, blob)
            }
            _ => return Ok(Vec::new()),
        };
        relay.write_ack(from, sid, mid, index, &mut buf, &mut self.rng)?;
        let ack = Frame::Stream {
            sid,
            wire: Wire::Reverse { blob: buf },
        };
        Ok(vec![(from, ack)])
    }

    /// Deliver `sends` and everything they cause, recording each frame
    /// as `(receiver, sender, bytes)`.
    fn run(&mut self, sends: Vec<(NodeId, Frame)>, recorded: &mut Recorded) {
        let mut queue: VecDeque<_> = sends
            .into_iter()
            .map(|(to, frame)| (to, INITIATOR, frame))
            .collect();
        while let Some((to, from, frame)) = queue.pop_front() {
            let bytes = encode_frame(&frame);
            let frame = decode_frame(&bytes).expect("a recorded frame decodes");
            recorded.push((to, from, bytes));
            let answers = self
                .dispatch(to, from, frame)
                .expect("the exchange is valid");
            queue.extend(answers.into_iter().map(|(next, f)| (next, to, f)));
        }
    }
}

/// A network after a clean exchange, and every frame it carried.
fn recorded_exchange() -> World {
    let mut net = Net::new();
    let keys: Vec<_> = (1..=RESPONDER.0)
        .map(|i| (NodeId(i), net.relays[&NodeId(i)].public_key()))
        .collect();
    let hops: Vec<Vec<_>> = (0..PATHS)
        .map(|p| {
            let mut path = keys[p * RELAYS..(p + 1) * RELAYS].to_vec();
            path.push(keys[keys.len() - 1]);
            path
        })
        .collect();
    let mut recorded = Vec::new();
    let constructs = net.initiator.construct_paths(&hops, &mut net.rng);
    let sends = constructs
        .into_iter()
        .map(|o| {
            let wire = Wire::Construct {
                initiator_sid: o.sid,
                onion: o.blob,
            };
            (o.to, Frame::Stream { sid: o.sid, wire })
        })
        .collect();
    net.run(sends, &mut recorded);
    assert_eq!(net.initiator.established(), PATHS);
    let message = b"one (2,4)-coded message over four 3-hop paths".to_vec();
    let mid = MessageId(5);
    let segments = net
        .initiator
        .send_message(mid, &message, &net.codec, None, &mut net.rng)
        .unwrap();
    let sends = segments
        .into_iter()
        .map(|o| {
            let wire = Wire::Payload { blob: o.blob };
            (o.to, Frame::Stream { sid: o.sid, wire })
        })
        .collect();
    net.run(sends, &mut recorded);
    assert!(net.initiator.is_complete(mid));
    assert_eq!(net.reassembler.completed(), 1);
    // Four paths, each four hops out and four back, twice.
    assert_eq!(recorded.len(), 2 * PATHS * 2 * (RELAYS + 1));
    (net, recorded)
}

/// SplitMix64: one case's stream of choices from its seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A recorded frame mutated one way, or `noise` itself; the receiver
/// and sender of the frame it came from.
fn hostile(
    recorded: &[(NodeId, NodeId, Vec<u8>)],
    seed: u64,
    noise: &[u8],
) -> (NodeId, NodeId, Vec<u8>) {
    let mut state = seed;
    let mut next = || splitmix(&mut state);
    let (to, from, original) = &recorded[next() as usize % recorded.len()];
    let mut bytes = original.clone();
    let at = |n: u64, len: usize| n as usize % len.max(1);
    match next() % 6 {
        0 => {
            for _ in 0..1 + next() % 3 {
                let bit = at(next(), bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        1 => bytes.truncate(at(next(), bytes.len())),
        2 => bytes.extend_from_slice(noise),
        3 => {
            // A length field near the truth, or anywhere.
            let len = match next() % 3 {
                0 => (bytes.len() as u64 - 10)
                    .wrapping_add(next() % 17)
                    .wrapping_sub(8),
                1 => next() % (1 << 21),
                _ => next(),
            };
            bytes[6..10].copy_from_slice(&(len as u32).to_be_bytes());
        }
        4 => {
            let (_, _, other) = &recorded[next() as usize % recorded.len()];
            bytes.truncate(at(next(), bytes.len()) + 1);
            bytes.extend_from_slice(&other[at(next(), other.len())..]);
        }
        _ => {
            // Noise, half the time behind a valid magic and version.
            bytes.clear();
            if next() % 2 == 0 {
                bytes.extend_from_slice(&original[..6]);
            }
            bytes.extend_from_slice(noise);
        }
    }
    (*to, *from, bytes)
}

/// What the cases came to, by stage.
#[derive(Debug, Default)]
struct Tally {
    /// Frames `decode_frame` or the `FrameReader` refused.
    wire: u64,
    /// Frames an onion layer failed to open.
    crypto: u64,
    /// Frames refused for unknown state or a malformed layer.
    other: u64,
    /// Frames the stack accepted.
    accepted: u64,
    /// Messages the codec decoded from accepted segments.
    decoded: u64,
}

/// Feed `bytes` to node `at` as `decode_frame` and as a `FrameReader`
/// given them in two chunks would; check every refusal.
fn feed(
    net: &mut Net,
    (at, from, bytes): (NodeId, NodeId, Vec<u8>),
    split: usize,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut frames = vec![decode_frame(&bytes)];
    let mut reader = FrameReader::new();
    for chunk in [&bytes[..split], &bytes[split..]] {
        reader.extend(chunk);
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => frames.push(Ok(frame)),
                Ok(None) => break,
                Err(e) => {
                    frames.push(Err(e));
                    break;
                }
            }
        }
    }
    for frame in frames {
        let frame = match frame {
            Ok(frame) => frame,
            Err(refusal) => {
                tally.wire += 1;
                let _: WireError = refusal;
                continue;
            }
        };
        let before = sizes(net, at);
        let refusal = match net.dispatch(at, from, frame) {
            Ok(_) => {
                tally.accepted += 1;
                continue;
            }
            Err(refusal) => refusal,
        };
        match refusal {
            AnonError::Crypto(_) => tally.crypto += 1,
            AnonError::Erasure(ref e) => {
                return Err(format!("an unauthenticated segment reached the codec: {e}"))
            }
            _ => tally.other += 1,
        }
        let after = sizes(net, at);
        if after != before {
            return Err(format!(
                "{refusal:?} at {at:?} moved {before:?} to {after:?}"
            ));
        }
    }
    Ok(())
}

/// One case: a hostile input from `seed` and `noise`, fed to `net`. The
/// responder starts a fresh reassembler once one completes, so accepted
/// segments keep reaching the codec.
fn case(
    (net, recorded): &mut World,
    seed: u64,
    noise: &[u8],
    tally: &mut Tally,
) -> Result<(), String> {
    if net.reassembler.completed() > 0 {
        tally.decoded += 1;
        net.reassembler = Reassembler::new();
    }
    let input = hostile(recorded, seed, noise);
    let split = (seed >> 40) as usize % (input.2.len() + 1);
    feed(net, input, split, tally)
}

#[test]
fn a_replayed_message_is_accepted_and_changes_nothing() {
    let (mut net, recorded) = recorded_exchange();
    // The second half is the message: its segments out, their acks back.
    // Relays forward them again; the responder and the initiator ignore
    // what they already booked.
    for (to, from, bytes) in &recorded[recorded.len() / 2..] {
        let frame = decode_frame(bytes).unwrap();
        let before = sizes(&net, *to);
        net.dispatch(*to, *from, frame)
            .expect("a replay is accepted");
        assert_eq!(sizes(&net, *to), before);
    }
}

/// The proptest's cases reach every stage: some refused at the wire,
/// some at an onion layer, some accepted, and messages decoded.
#[test]
fn hostile_cases_reach_every_stage() {
    let mut world = recorded_exchange();
    // The exchange's own message is already booked: start empty.
    world.0.reassembler = Reassembler::new();
    let mut tally = Tally::default();
    let mut state = 1u64;
    for _ in 0..3_000 {
        let seed = splitmix(&mut state);
        let noise: Vec<u8> = (0..seed % 64)
            .map(|i| (seed >> (i % 8 * 8)) as u8)
            .collect();
        case(&mut world, seed, &noise, &mut tally).unwrap();
    }
    assert!(
        tally.wire > 0
            && tally.crypto > 0
            && tally.other > 0
            && tally.accepted > 0
            && tally.decoded > 0,
        "{tally:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn hostile_bytes_are_refused_by_type_without_moving_state(
        seed in any::<u64>(),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        thread_local! {
            static WORLD: std::cell::RefCell<Option<World>> =
                const { std::cell::RefCell::new(None) };
        }
        let outcome = WORLD.with(|cell| {
            let mut cell = cell.borrow_mut();
            let world = cell.get_or_insert_with(recorded_exchange);
            case(world, seed, &noise, &mut Tally::default())
        });
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
