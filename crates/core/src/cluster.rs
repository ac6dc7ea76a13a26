//! An in-memory, message-level network of relays: every byte really
//! travels through [`crate::relay::Relay`] state machines with full
//! layered encryption. Used by the examples and integration tests (and by
//! anyone who wants to embed the protocol without the trajectory-level
//! simulator).
//!
//! The cluster owns one key pair per node, routes wire messages hop by hop
//! synchronously, and can mark nodes down to inject failures: a message
//! reaching a down node is silently lost, exactly like the paper's relay
//! failure model.

use crate::endpoint::Outgoing;
use crate::ids::{MessageId, StreamId};
use crate::relay::{Relay, Step};
use crate::wire::Wire;
use crate::AnonError;
use erasure::Segment;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_crypto::{KeyPair, PublicKey, SymmetricKey};
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::HashMap;

/// Where a routed message ended up.
#[derive(Debug)]
pub enum RouteOutcome {
    /// A construction onion reached its terminal hop: the responder now
    /// holds path state addressed by `(from, sid)` with `session_key`.
    ConstructionDone {
        /// Terminal node (the responder).
        at: NodeId,
        /// Upstream hop of the terminal link.
        from: NodeId,
        /// Stream id on the terminal link.
        sid: StreamId,
        /// The responder's session key for this path.
        session_key: SymmetricKey,
    },
    /// A payload was delivered at its terminal hop.
    Delivered {
        /// Terminal node.
        at: NodeId,
        /// Upstream hop of the terminal link.
        from: NodeId,
        /// Stream id on the terminal link.
        sid: StreamId,
        /// Message the segment belongs to.
        mid: MessageId,
        /// The delivered coded segment.
        segment: Segment,
    },
    /// A reverse message reached the initiator.
    ReachedInitiator {
        /// The initiator's stream id (identifies the path).
        sid: StreamId,
        /// The fully wrapped reverse blob (peel with the path plan).
        blob: Vec<u8>,
    },
    /// The message hit a down node and was lost at that hop.
    Lost {
        /// The down node that swallowed the message.
        at: NodeId,
    },
}

/// An in-memory network of relay nodes.
pub struct Cluster {
    relays: HashMap<NodeId, Relay>,
    down: HashMap<NodeId, bool>,
    now: SimTime,
    /// RNG shared by all relay operations (stream-id generation etc.).
    pub rng: StdRng,
}

impl Cluster {
    /// Create `n` nodes with fresh key pairs (ids `0..n`).
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let relays = (0..n)
            .map(|i| {
                let id = NodeId::from(i);
                (id, Relay::new(id, KeyPair::generate(&mut rng)))
            })
            .collect();
        Cluster {
            relays,
            down: HashMap::new(),
            now: SimTime::ZERO,
            rng,
        }
    }

    /// Current cluster time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the clock (TTLs are evaluated against this time).
    pub fn advance(&mut self, dt: SimDuration) {
        self.now += dt;
    }

    /// Mark a node down (messages reaching it are lost) or back up.
    pub fn set_down(&mut self, node: NodeId, down: bool) {
        self.down.insert(node, down);
    }

    /// Whether a node is currently down.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.get(&node).copied().unwrap_or(false)
    }

    /// A node's public key (the PKI lookup).
    pub fn public_key(&self, node: NodeId) -> PublicKey {
        self.relays[&node].public_key()
    }

    /// Borrow a relay (e.g. to sweep its cache); `None` for an id outside
    /// the cluster.
    pub fn relay_mut(&mut self, node: NodeId) -> Option<&mut Relay> {
        self.relays.get_mut(&node)
    }

    /// Hop list with public keys for building a construction onion:
    /// `relays` then `responder`.
    pub fn hops(&self, relays: &[NodeId], responder: NodeId) -> Vec<(NodeId, PublicKey)> {
        relays
            .iter()
            .chain(std::iter::once(&responder))
            .map(|&n| (n, self.public_key(n)))
            .collect()
    }

    /// Route a construction onion from `initiator` until it terminates,
    /// is lost, or errors.
    pub fn route_construction(
        &mut self,
        initiator: NodeId,
        msg: &Outgoing,
    ) -> Result<RouteOutcome, AnonError> {
        let wire = Wire::Construct {
            initiator_sid: msg.sid,
            onion: msg.blob.clone(),
        };
        self.route(initiator, msg.to, msg.sid, wire, None, initiator)
    }

    /// Route a payload onion from `initiator` until delivery/loss.
    pub fn route_payload(
        &mut self,
        initiator: NodeId,
        msg: &Outgoing,
    ) -> Result<RouteOutcome, AnonError> {
        let wire = Wire::Payload {
            blob: msg.blob.clone(),
        };
        self.route(initiator, msg.to, msg.sid, wire, None, initiator)
    }

    /// Route a combined construction+payload message (§4.2) from
    /// `initiator` until terminal delivery or loss. `payload` is the first
    /// payload onion riding with the construction onion.
    pub fn route_combined(
        &mut self,
        initiator: NodeId,
        to: NodeId,
        sid: StreamId,
        onion: &[u8],
        payload: &[u8],
    ) -> Result<RouteOutcome, AnonError> {
        let wire = Wire::Construct {
            initiator_sid: sid,
            onion: onion.to_vec(),
        };
        self.route(initiator, to, sid, wire, Some(payload.to_vec()), initiator)
    }

    /// Route a reverse (reply) message starting at the terminal link:
    /// the responder hands `blob` to `first_relay` (the hop it received
    /// the request from) tagged with that link's stream id. The cluster
    /// walks it back to the initiator.
    pub fn route_reverse(
        &mut self,
        responder: NodeId,
        first_relay: NodeId,
        sid: StreamId,
        blob: Vec<u8>,
        initiator: NodeId,
    ) -> Result<RouteOutcome, AnonError> {
        self.route(
            responder,
            first_relay,
            sid,
            Wire::Reverse { blob },
            None,
            initiator,
        )
    }

    /// The hop loop: hand `wire` (with the §4.2 payload `rider`, if one
    /// travels with a construction onion) to `to` as arriving from `from`
    /// on `sid`, and follow it until it terminates, is lost, or — for
    /// reverse traffic — is addressed to `initiator`.
    fn route(
        &mut self,
        mut from: NodeId,
        mut to: NodeId,
        mut sid: StreamId,
        mut wire: Wire,
        mut rider: Option<Vec<u8>>,
        initiator: NodeId,
    ) -> Result<RouteOutcome, AnonError> {
        loop {
            if to == initiator {
                if let Wire::Reverse { blob } = wire {
                    return Ok(RouteOutcome::ReachedInitiator { sid, blob });
                }
            }
            if self.is_down(to) {
                return Ok(RouteOutcome::Lost { at: to });
            }
            let relay = self.relays.get_mut(&to).ok_or(AnonError::UnknownStream)?;
            let step = match (&mut wire, &mut rider) {
                (Wire::Construct { onion, .. }, Some(payload)) => {
                    relay.handle_combined(from, sid, onion, payload, self.now, &mut self.rng)?
                }
                _ => relay.handle_wire(from, sid, &mut wire, self.now, &mut self.rng)?,
            };
            match (step, wire) {
                (
                    Step::Forward {
                        to: next,
                        sid: nsid,
                    },
                    forwarded,
                ) => {
                    (from, to, sid, wire) = (to, next, nsid, forwarded);
                }
                (Step::Constructed, _) => {
                    // The relay cached the terminal entry as it answered
                    // `Constructed`; a miss would be its bug, reported as
                    // the stream it failed to keep.
                    let session_key = relay
                        .terminal_key(from, sid)
                        .ok_or(AnonError::UnknownStream)?;
                    return Ok(RouteOutcome::ConstructionDone {
                        at: to,
                        from,
                        sid,
                        session_key,
                    });
                }
                (Step::Delivered { mid, index }, wire) => {
                    let data = match (rider, wire) {
                        (Some(payload), _) | (None, Wire::Payload { blob: payload }) => payload,
                        (None, other) => unreachable!("{other:?} delivered a segment"),
                    };
                    return Ok(RouteOutcome::Delivered {
                        at: to,
                        from,
                        sid,
                        mid,
                        segment: Segment::new(index, data),
                    });
                }
                (Step::Released, _) => unreachable!("the cluster routes no release"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::Initiator;
    use crate::ids::MessageId;
    use erasure::{Codec, ErasureCodec};

    #[test]
    fn end_to_end_over_cluster_with_real_crypto() {
        let mut cluster = Cluster::new(16, 1);
        let initiator_id = NodeId(0);
        let responder_id = NodeId(15);
        let mut initiator = Initiator::new(initiator_id);

        // Two disjoint 3-relay paths.
        let paths = [
            vec![NodeId(1), NodeId(2), NodeId(3)],
            vec![NodeId(4), NodeId(5), NodeId(6)],
        ];
        let hop_lists: Vec<Vec<(NodeId, PublicKey)>> = paths
            .iter()
            .map(|p| cluster.hops(p, responder_id))
            .collect();
        let mut rng = StdRng::seed_from_u64(99);
        let cons = initiator.construct_paths(&hop_lists, &mut rng);
        let mut terminal = Vec::new();
        for msg in &cons {
            match cluster.route_construction(initiator_id, msg).unwrap() {
                RouteOutcome::ConstructionDone {
                    at,
                    from,
                    sid,
                    session_key,
                } => {
                    assert_eq!(at, responder_id);
                    terminal.push((from, sid, session_key));
                }
                other => panic!("construction failed: {other:?}"),
            }
        }

        // Erasure-code over the 2 paths (m = 1, n = 2: replication-grade).
        let codec = ErasureCodec::new(1, 2).unwrap();
        let mid = MessageId(5);
        let out = initiator
            .send_message(mid, b"hello responder", &codec, None, &mut rng)
            .unwrap();
        let mut delivered = 0;
        for msg in &out {
            match cluster.route_payload(initiator_id, msg).unwrap() {
                RouteOutcome::Delivered { at, mid: got, .. } => {
                    assert_eq!((at, got), (responder_id, mid));
                    delivered += 1;
                }
                other => panic!("payload lost: {other:?}"),
            }
        }
        assert_eq!(delivered, 2);
    }

    #[test]
    fn combined_construction_and_payload_single_round_trip() {
        // §4.2: path construction and message sending at the same time —
        // no prior construction round needed.
        let mut cluster = Cluster::new(10, 4);
        let initiator_id = NodeId(0);
        let responder_id = NodeId(9);
        let mut initiator = Initiator::new(initiator_id);
        let hop_lists = vec![
            cluster.hops(&[NodeId(1), NodeId(2), NodeId(3)], responder_id),
            cluster.hops(&[NodeId(4), NodeId(5), NodeId(6)], responder_id),
        ];
        let codec = ErasureCodec::new(1, 2).unwrap();
        let mid = MessageId(77);
        let mut rng = StdRng::seed_from_u64(5);
        let combined = initiator
            .construct_and_send(&hop_lists, mid, b"no extra round trips", &codec, &mut rng)
            .unwrap();
        assert_eq!(combined.len(), 2);
        for c in &combined {
            assert_eq!(c.payloads.len(), 1, "one segment per path here");
            match cluster
                .route_combined(initiator_id, c.to, c.sid, &c.onion, &c.payloads[0])
                .unwrap()
            {
                RouteOutcome::Delivered {
                    at,
                    mid: got,
                    segment,
                    ..
                } => {
                    assert_eq!((at, got), (responder_id, mid));
                    assert_eq!(codec.decode(&[segment]).unwrap(), b"no extra round trips");
                }
                other => panic!("combined routing failed: {other:?}"),
            }
        }
        // The path state is fully usable afterwards: a normal payload flows.
        let out = initiator
            .send_message(MessageId(78), b"follow-up", &codec, None, &mut rng)
            .unwrap();
        assert!(matches!(
            cluster.route_payload(initiator_id, &out[0]).unwrap(),
            RouteOutcome::Delivered { .. }
        ));
    }

    #[test]
    fn down_node_loses_messages() {
        let mut cluster = Cluster::new(8, 2);
        let initiator_id = NodeId(0);
        let responder_id = NodeId(7);
        let mut initiator = Initiator::new(initiator_id);
        let hops = vec![cluster.hops(&[NodeId(1), NodeId(2), NodeId(3)], responder_id)];
        let mut rng = StdRng::seed_from_u64(3);
        let cons = initiator.construct_paths(&hops, &mut rng);

        cluster.set_down(NodeId(2), true);
        match cluster.route_construction(initiator_id, &cons[0]).unwrap() {
            RouteOutcome::Lost { at } => assert_eq!(at, NodeId(2)),
            other => panic!("expected loss, got {other:?}"),
        }
        // Node comes back; a fresh construction succeeds.
        cluster.set_down(NodeId(2), false);
        let hops = vec![cluster.hops(&[NodeId(1), NodeId(2), NodeId(3)], responder_id)];
        let cons = initiator.construct_paths(&hops, &mut rng);
        assert!(matches!(
            cluster.route_construction(initiator_id, &cons[0]).unwrap(),
            RouteOutcome::ConstructionDone { .. }
        ));
    }
}
