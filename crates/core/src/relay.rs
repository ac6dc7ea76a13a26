//! Relay-side protocol processing: unseal construction layers, cache path
//! state, forward payloads, wrap reverse traffic (§4.1–§4.5).
//!
//! A relay's cache entry is the paper's tuple
//! `[P_{i−1}, sid_{i−1}, P_{i+1}, sid_i, R_i]`, stored here as a map from
//! `(prev, sid_prev)` to [`PathEntry`], with a reverse index from
//! `(next, sid_next)` for response traffic. Every entry carries a TTL
//! (§4.3) refreshed by payload traffic, and [`Relay::sweep`] reclaims
//! orphaned state left behind by failed upstream nodes.

use crate::ids::{MessageId, StreamId};
use crate::onion::{
    peel_construction_layer, peel_payload_layer, peel_payload_layer_in_place,
    wrap_reverse_layer_in_place, ConstructionLayer, PayloadLayer, PeeledPayload,
};
use crate::AnonError;
use erasure::Segment;
use rand::{CryptoRng, Rng};
use sim_crypto::{KeyPair, PublicKey, SymmetricKey};
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::HashMap;

/// Default path-state TTL (§4.3): refreshed by payload traffic.
pub const DEFAULT_STATE_TTL: SimDuration = SimDuration::from_secs(120);

/// Cached per-stream state at a relay: the paper's
/// `[P_{i−1}, sid_{i−1}, P_{i+1}, sid_i, R_i]` tuple.
#[derive(Clone, Debug)]
pub struct PathEntry {
    /// Downstream hop and the stream id we use towards it; `None` marks
    /// the end of the path (`⊥`) — this node consumes the payload.
    pub next: Option<(NodeId, StreamId)>,
    /// This hop's session key `R_i`.
    pub key: SymmetricKey,
    /// When this entry expires unless refreshed.
    pub expires: SimTime,
}

/// What a relay should do after processing an incoming message.
#[derive(Debug)]
pub enum RelayAction {
    /// Send a construction onion onwards.
    ForwardConstruction {
        /// Next hop.
        to: NodeId,
        /// Stream id on the downstream link.
        sid: StreamId,
        /// Remaining onion.
        onion: Vec<u8>,
    },
    /// This node is the path's terminal: construction complete here.
    /// (Endpoints see this; a pure relay treats it as path-end too.)
    ConstructionComplete,
    /// Send a payload blob onwards.
    ForwardPayload {
        /// Next hop.
        to: NodeId,
        /// Stream id on the downstream link.
        sid: StreamId,
        /// One-layer-peeled payload.
        blob: Vec<u8>,
    },
    /// The payload terminated here; the decrypted plaintext layer is
    /// returned for the endpoint to consume.
    Delivered {
        /// The terminal payload layer (Deliver / DeliverWithKey).
        layer: PayloadLayer,
    },
    /// Send a reverse (response) blob upstream.
    ForwardReverse {
        /// Upstream hop.
        to: NodeId,
        /// Stream id on the upstream link.
        sid: StreamId,
        /// One-layer-wrapped response.
        blob: Vec<u8>,
    },
}

/// Allocation-free result of [`Relay::handle_payload_in_place`]: the
/// processed bytes stay in the caller's buffer; only headers are parsed
/// out. Cold §4.4 paths fall back to the owned [`PayloadLayer`].
#[derive(Debug)]
pub enum PeeledAction {
    /// Send the buffer (now one layer lighter) downstream.
    Forward {
        /// Next hop.
        to: NodeId,
        /// Stream id on the downstream link.
        sid: StreamId,
    },
    /// Terminal delivery: the coded segment's bytes are in the buffer.
    Deliver {
        /// Message id correlating segments across paths.
        mid: MessageId,
        /// Segment index within the erasure-coded message.
        index: usize,
    },
    /// Terminal delivery on a cold path (deliver-with-key / unsolicited
    /// §4.4 reuse): the fully parsed, owned layer.
    DeliveredOwned {
        /// The terminal payload layer.
        layer: PayloadLayer,
    },
}

/// Result of processing a combined construction+payload message (§4.2).
#[derive(Debug)]
pub enum CombinedAction {
    /// Pass both the remaining onion and the peeled payload onwards.
    Forward {
        /// Next hop.
        to: NodeId,
        /// Downstream stream id.
        sid: StreamId,
        /// Remaining construction onion.
        onion: Vec<u8>,
        /// One-layer-peeled payload.
        payload: Vec<u8>,
    },
    /// Path terminated here and the payload was delivered with it.
    Delivered {
        /// The terminal payload layer.
        layer: PayloadLayer,
    },
}

/// A relay node: key pair plus path-state caches.
pub struct Relay {
    id: NodeId,
    keypair: KeyPair,
    state_ttl: SimDuration,
    forward: HashMap<(NodeId, StreamId), PathEntry>,
    reverse: HashMap<(NodeId, StreamId), (NodeId, StreamId)>,
}

impl Relay {
    /// Create a relay with its PKI key pair.
    pub fn new(id: NodeId, keypair: KeyPair) -> Self {
        Relay {
            id,
            keypair,
            state_ttl: DEFAULT_STATE_TTL,
            forward: HashMap::new(),
            reverse: HashMap::new(),
        }
    }

    /// Override the path-state TTL.
    pub fn with_state_ttl(mut self, ttl: SimDuration) -> Self {
        self.state_ttl = ttl;
        self
    }

    /// This relay's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This relay's public key (what the PKI would publish).
    pub fn public_key(&self) -> PublicKey {
        self.keypair.public
    }

    /// Number of cached path entries.
    pub fn cached_paths(&self) -> usize {
        self.forward.len()
    }

    /// Process a path-construction message arriving from `from` with
    /// upstream stream id `sid` (§4.1).
    pub fn handle_construction<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        onion: &[u8],
        now: SimTime,
        rng: &mut R,
    ) -> Result<RelayAction, AnonError> {
        match peel_construction_layer(&self.keypair.secret, onion)? {
            ConstructionLayer::Relay {
                next_hop,
                session_key,
                inner,
            } => {
                let next_sid = StreamId::generate(rng);
                self.forward.insert(
                    (from, sid),
                    PathEntry {
                        next: Some((next_hop, next_sid)),
                        key: session_key,
                        expires: now + self.state_ttl,
                    },
                );
                self.reverse.insert((next_hop, next_sid), (from, sid));
                Ok(RelayAction::ForwardConstruction {
                    to: next_hop,
                    sid: next_sid,
                    onion: inner,
                })
            }
            ConstructionLayer::Terminal { session_key } => {
                self.forward.insert(
                    (from, sid),
                    PathEntry {
                        next: None,
                        key: session_key,
                        expires: now + self.state_ttl,
                    },
                );
                Ok(RelayAction::ConstructionComplete)
            }
        }
    }

    /// Process a forward payload message (§4.2, §4.4). Refreshes the
    /// entry's TTL (payload traffic doubles as path refresh, §4.3).
    ///
    /// Allocating wrapper around [`Relay::handle_payload_in_place`] — the
    /// behavior (cache updates, RNG draws, errors) is identical; only the
    /// buffer handling differs.
    pub fn handle_payload<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        blob: &[u8],
        now: SimTime,
        rng: &mut R,
    ) -> Result<RelayAction, AnonError> {
        let mut buf = blob.to_vec();
        match self.handle_payload_in_place(from, sid, &mut buf, now, rng)? {
            PeeledAction::Forward { to, sid } => {
                Ok(RelayAction::ForwardPayload { to, sid, blob: buf })
            }
            PeeledAction::Deliver { mid, index } => Ok(RelayAction::Delivered {
                layer: PayloadLayer::Deliver {
                    mid,
                    segment: Segment::new(index, buf),
                },
            }),
            PeeledAction::DeliveredOwned { layer } => Ok(RelayAction::Delivered { layer }),
        }
    }

    /// [`Relay::handle_payload`] without per-hop allocations: the blob
    /// arrives in `buf`, is peeled in place, and the surviving bytes
    /// (inner ciphertext or delivered segment) stay in `buf`. On error the
    /// buffer contents are unspecified.
    pub fn handle_payload_in_place<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        buf: &mut Vec<u8>,
        now: SimTime,
        rng: &mut R,
    ) -> Result<PeeledAction, AnonError> {
        let Some(entry) = self.forward.get_mut(&(from, sid)) else {
            // §4.4 path reuse: an unsolicited DeliverWithKey opens a new
            // terminal stream — the new responder unseals its session key
            // from the payload and caches [P_L, sid'_L, ⊥, R_{L+1}]. Cold
            // path: allocations here are fine.
            if let Ok(crate::onion::PayloadLayer::DeliverWithKey { sealed_key, inner }) =
                crate::onion::parse_payload_plaintext(buf)
            {
                let key_bytes = sim_crypto::unseal(&self.keypair.secret, &sealed_key)?;
                let key_bytes: [u8; 32] = key_bytes
                    .try_into()
                    .map_err(|_| AnonError::Malformed("bad sealed session key length"))?;
                let key = SymmetricKey::from_bytes(key_bytes);
                self.forward.insert(
                    (from, sid),
                    PathEntry {
                        next: None,
                        key,
                        expires: now + self.state_ttl,
                    },
                );
                return match peel_payload_layer(&key, &inner)? {
                    PayloadLayer::Deliver { mid, segment } => {
                        buf.clear();
                        buf.extend_from_slice(&segment.data);
                        Ok(PeeledAction::Deliver {
                            mid,
                            index: segment.index,
                        })
                    }
                    layer => Ok(PeeledAction::DeliveredOwned { layer }),
                };
            }
            return Err(AnonError::UnknownStream);
        };
        if entry.expires < now {
            return Err(AnonError::UnknownStream);
        }
        entry.expires = now + self.state_ttl;
        match (peel_payload_layer_in_place(&entry.key, buf)?, entry.next) {
            (PeeledPayload::Forward, Some((to, next_sid))) => {
                Ok(PeeledAction::Forward { to, sid: next_sid })
            }
            (PeeledPayload::Forward, None) => {
                Err(AnonError::Malformed("forward layer at terminal hop"))
            }
            (PeeledPayload::Redirect { new_dest }, Some(old_next)) => {
                // §4.4: override the cached next hop with the new
                // destination under a fresh stream id.
                let new_sid = StreamId::generate(rng);
                self.reverse.remove(&old_next);
                entry.next = Some((new_dest, new_sid));
                self.reverse.insert((new_dest, new_sid), (from, sid));
                Ok(PeeledAction::Forward {
                    to: new_dest,
                    sid: new_sid,
                })
            }
            (PeeledPayload::Redirect { .. }, None) => {
                Err(AnonError::Malformed("redirect at terminal hop"))
            }
            (PeeledPayload::Deliver { mid, index }, None) => {
                Ok(PeeledAction::Deliver { mid, index })
            }
            (PeeledPayload::DeliverWithKey { sealed_len }, None) => {
                // Cold path: materialise the owned layer for the endpoint.
                Ok(PeeledAction::DeliveredOwned {
                    layer: PayloadLayer::DeliverWithKey {
                        sealed_key: buf[..sealed_len].to_vec(),
                        inner: buf[sealed_len..].to_vec(),
                    },
                })
            }
            (PeeledPayload::Deliver { .. } | PeeledPayload::DeliverWithKey { .. }, Some(_)) => {
                Err(AnonError::Malformed("deliver layer at non-terminal hop"))
            }
        }
    }

    /// Process a reverse (response) message arriving from downstream hop
    /// `from` with the downstream stream id `sid` (§4.2): wrap one layer
    /// with the cached key and pass it upstream.
    pub fn handle_reverse<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        blob: &[u8],
        now: SimTime,
        rng: &mut R,
    ) -> Result<RelayAction, AnonError> {
        let mut buf = blob.to_vec();
        let (to, sid) = self.handle_reverse_in_place(from, sid, &mut buf, now, rng)?;
        Ok(RelayAction::ForwardReverse { to, sid, blob: buf })
    }

    /// [`Relay::handle_reverse`] without allocations: wraps one layer in
    /// place (growing `buf` by the symmetric overhead) and returns the
    /// upstream hop and stream id to send it on.
    pub fn handle_reverse_in_place<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        buf: &mut Vec<u8>,
        now: SimTime,
        rng: &mut R,
    ) -> Result<(NodeId, StreamId), AnonError> {
        let &(prev, prev_sid) = self
            .reverse
            .get(&(from, sid))
            .ok_or(AnonError::UnknownStream)?;
        let entry = self
            .forward
            .get_mut(&(prev, prev_sid))
            .ok_or(AnonError::UnknownStream)?;
        if entry.expires < now {
            return Err(AnonError::UnknownStream);
        }
        entry.expires = now + self.state_ttl;
        wrap_reverse_layer_in_place(&entry.key, buf, rng);
        Ok((prev, prev_sid))
    }

    /// Combined construction + payload in one message (§4.2: "We can
    /// perform path construction and message sending in the same time").
    /// The relay peels its construction layer, caches the path state, then
    /// immediately peels the accompanying payload layer with the
    /// just-planted session key and forwards both to the next hop.
    pub fn handle_combined<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        onion: &[u8],
        payload: &[u8],
        now: SimTime,
        rng: &mut R,
    ) -> Result<CombinedAction, AnonError> {
        match self.handle_construction(from, sid, onion, now, rng)? {
            RelayAction::ForwardConstruction {
                to,
                sid: next_sid,
                onion: inner_onion,
            } => match self.handle_payload(from, sid, payload, now, rng)? {
                RelayAction::ForwardPayload {
                    to: pto,
                    sid: psid,
                    blob,
                } => {
                    debug_assert_eq!((to, next_sid), (pto, psid), "same cached next hop");
                    Ok(CombinedAction::Forward {
                        to,
                        sid: next_sid,
                        onion: inner_onion,
                        payload: blob,
                    })
                }
                other => Err(AnonError::Malformed(match other {
                    RelayAction::Delivered { .. } => "payload terminated before the onion",
                    _ => "combined payload produced a non-forward action",
                })),
            },
            RelayAction::ConstructionComplete => {
                match self.handle_payload(from, sid, payload, now, rng)? {
                    RelayAction::Delivered { layer } => Ok(CombinedAction::Delivered { layer }),
                    _ => Err(AnonError::Malformed("combined payload outlived the onion")),
                }
            }
            other => unreachable!("construction produced {other:?}"),
        }
    }

    /// Terminal-hop helper: look up the session key cached for an incoming
    /// stream (used by responders to decrypt and to key replies).
    pub fn terminal_key(&self, from: NodeId, sid: StreamId) -> Option<SymmetricKey> {
        self.forward
            .get(&(from, sid))
            .filter(|e| e.next.is_none())
            .map(|e| e.key)
    }

    /// Explicit path teardown (§4.3): the initiator asks relays to release
    /// state. Returns the downstream hop so the teardown can propagate.
    pub fn release(&mut self, from: NodeId, sid: StreamId) -> Option<(NodeId, StreamId)> {
        let entry = self.forward.remove(&(from, sid))?;
        if let Some(next) = entry.next {
            self.reverse.remove(&next);
            Some(next)
        } else {
            None
        }
    }

    /// Crash-restart: the node stays reachable but loses all soft path
    /// state, the failure mode injected by `simnet::FaultPlan`. Unlike
    /// [`Relay::sweep`], this is invisible to TTL accounting — upstream
    /// hops only find out when their next payload dies with
    /// [`AnonError::UnknownStream`]. Returns the number of entries wiped.
    pub fn crash(&mut self) -> usize {
        let wiped = self.forward.len();
        self.forward.clear();
        self.reverse.clear();
        wiped
    }

    /// Reclaim expired path state (§4.3's answer to orphaned entries).
    /// Returns the number of entries removed.
    pub fn sweep(&mut self, now: SimTime) -> usize {
        let before = self.forward.len();
        let expired: Vec<(NodeId, StreamId)> = self
            .forward
            .iter()
            .filter(|(_, e)| e.expires < now)
            .map(|(&k, _)| k)
            .collect();
        for key in expired {
            if let Some(entry) = self.forward.remove(&key) {
                if let Some(next) = entry.next {
                    self.reverse.remove(&next);
                }
            }
        }
        before - self.forward.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MessageId;
    use crate::onion::{build_construction_onion, build_payload_onion};
    use erasure::Segment;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct TestNet {
        relays: Vec<Relay>,
        plan: crate::onion::PathPlan,
        first_blob: Vec<u8>,
    }

    /// Build L relays + responder and the construction onion across them.
    fn build_net(rng: &mut StdRng, l: usize) -> TestNet {
        let keypairs: Vec<KeyPair> = (0..=l).map(|_| KeyPair::generate(rng)).collect();
        let hops: Vec<(NodeId, PublicKey)> = keypairs
            .iter()
            .enumerate()
            .map(|(i, kp)| (NodeId(i as u32), kp.public))
            .collect();
        let (plan, first_blob) = build_construction_onion(&hops, rng);
        let relays = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| Relay::new(NodeId(i as u32), kp))
            .collect();
        TestNet {
            relays,
            plan,
            first_blob,
        }
    }

    /// Drive a construction onion through the relays; returns the stream
    /// ids used on each link (initiator link first).
    fn run_construction(
        net: &mut TestNet,
        initiator: NodeId,
        rng: &mut StdRng,
        now: SimTime,
    ) -> Vec<(NodeId, StreamId)> {
        let mut links = Vec::new();
        let mut from = initiator;
        let mut sid = StreamId::generate(rng);
        let mut onion = net.first_blob.clone();
        let mut hop = 0usize;
        links.push((from, sid));
        loop {
            let relay = &mut net.relays[hop];
            match relay
                .handle_construction(from, sid, &onion, now, rng)
                .unwrap()
            {
                RelayAction::ForwardConstruction {
                    to,
                    sid: nsid,
                    onion: inner,
                } => {
                    from = NodeId(hop as u32);
                    sid = nsid;
                    onion = inner;
                    hop = to.index();
                    links.push((from, sid));
                }
                RelayAction::ConstructionComplete => break,
                other => panic!("unexpected action {other:?}"),
            }
        }
        links
    }

    #[test]
    fn full_path_construction_and_payload_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let now = SimTime::from_secs(0);
        let initiator = NodeId(1000);
        let mut net = build_net(&mut rng, 3);
        let links = run_construction(&mut net, initiator, &mut rng, now);
        assert_eq!(links.len(), 4, "one link per hop incl. responder");

        // Send a payload through.
        let mid = MessageId(42);
        let seg = Segment::new(0, b"hello anonymous world".to_vec());
        let (blob, _) = build_payload_onion(&net.plan, mid, &seg, None, &mut rng);
        let (mut from, mut sid) = links[0];
        let mut blob = blob;
        let mut hop = 0usize;
        let delivered = loop {
            let relay = &mut net.relays[hop];
            match relay
                .handle_payload(from, sid, &blob, now, &mut rng)
                .unwrap()
            {
                RelayAction::ForwardPayload {
                    to,
                    sid: nsid,
                    blob: inner,
                } => {
                    from = NodeId(hop as u32);
                    sid = nsid;
                    blob = inner;
                    hop = to.index();
                }
                RelayAction::Delivered { layer } => break layer,
                other => panic!("unexpected action {other:?}"),
            }
        };
        match delivered {
            PayloadLayer::Deliver { mid: got, segment } => {
                assert_eq!(got, mid);
                assert_eq!(segment, seg);
            }
            other => panic!("expected deliver, got {other:?}"),
        }
    }

    #[test]
    fn unknown_stream_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(&mut rng);
        let mut relay = Relay::new(NodeId(0), kp);
        let err = relay
            .handle_payload(NodeId(9), StreamId(1), b"junk", SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert_eq!(err, AnonError::UnknownStream);
    }

    #[test]
    fn expired_state_rejected_and_swept() {
        let mut rng = StdRng::seed_from_u64(3);
        let now = SimTime::ZERO;
        let mut net = build_net(&mut rng, 2);
        let links = run_construction(&mut net, NodeId(1000), &mut rng, now);
        let (from, sid) = links[0];

        let late = SimTime::from_secs(DEFAULT_STATE_TTL.as_micros() / 1_000_000 + 1);
        let seg = Segment::new(0, vec![1]);
        let (blob, _) = build_payload_onion(&net.plan, MessageId(1), &seg, None, &mut rng);
        let err = net.relays[0]
            .handle_payload(from, sid, &blob, late, &mut rng)
            .unwrap_err();
        assert_eq!(err, AnonError::UnknownStream);

        assert_eq!(net.relays[0].cached_paths(), 1);
        assert_eq!(net.relays[0].sweep(late), 1);
        assert_eq!(net.relays[0].cached_paths(), 0);
    }

    #[test]
    fn payload_traffic_refreshes_ttl() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = build_net(&mut rng, 2);
        let links = run_construction(&mut net, NodeId(1000), &mut rng, SimTime::ZERO);
        let (from, sid) = links[0];
        let seg = Segment::new(0, vec![7]);

        // Keep refreshing at 100 s intervals: the 120 s TTL never lapses.
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            t += SimDuration::from_secs(100);
            let (blob, _) = build_payload_onion(&net.plan, MessageId(1), &seg, None, &mut rng);
            net.relays[0]
                .handle_payload(from, sid, &blob, t, &mut rng)
                .expect("entry must stay alive under refresh traffic");
        }
        assert_eq!(net.relays[0].sweep(t), 0);
    }

    #[test]
    fn reverse_flow_wraps_back_to_initiator() {
        let mut rng = StdRng::seed_from_u64(5);
        let now = SimTime::ZERO;
        let mut net = build_net(&mut rng, 3);
        let links = run_construction(&mut net, NodeId(1000), &mut rng, now);

        // Responder (hop 3) replies along the reverse path.
        let (resp_from, resp_sid) = links[3];
        let responder_key = net.relays[3].terminal_key(resp_from, resp_sid).unwrap();
        let seg = Segment::new(0, b"pong".to_vec());
        let mut blob =
            crate::onion::build_reverse_payload(&responder_key, MessageId(8), &seg, &mut rng);

        // Walk back: the responder (hop 3) hands the blob to relay 2; each
        // relay keyed its reverse index by (downstream node, downstream sid).
        let mut hop = 2usize;
        let mut from = NodeId(3);
        let mut fsid = links[3].1;
        loop {
            match net.relays[hop]
                .handle_reverse(from, fsid, &blob, now, &mut rng)
                .unwrap()
            {
                RelayAction::ForwardReverse { to, sid, blob: b } => {
                    blob = b;
                    if to == NodeId(1000) {
                        // Reached the initiator on its original link.
                        assert_eq!(sid, links[0].1);
                        break;
                    }
                    from = NodeId(hop as u32);
                    fsid = sid;
                    hop = to.index();
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        let (mid, got) = crate::onion::peel_reverse_payload(&net.plan, &blob, None).unwrap();
        assert_eq!(mid, MessageId(8));
        assert_eq!(got, seg);
    }

    #[test]
    fn release_propagates_downstream() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = build_net(&mut rng, 3);
        let links = run_construction(&mut net, NodeId(1000), &mut rng, SimTime::ZERO);

        // Initiator tears down from the first relay.
        let (mut from, mut sid) = links[0];
        for hop in 0..4usize {
            let next = net.relays[hop].release(from, sid);
            assert_eq!(
                net.relays[hop].cached_paths(),
                0,
                "hop {hop} state released"
            );
            match next {
                Some((to, nsid)) => {
                    from = NodeId(hop as u32);
                    sid = nsid;
                    assert_eq!(to.index(), hop + 1);
                }
                None => {
                    assert_eq!(hop, 3, "only the responder terminates teardown");
                    break;
                }
            }
        }
    }

    #[test]
    fn crash_wipes_state_and_breaks_the_path() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = build_net(&mut rng, 2);
        let links = run_construction(&mut net, NodeId(1000), &mut rng, SimTime::ZERO);
        let (from, sid) = links[0];
        assert_eq!(net.relays[0].crash(), 1);
        assert_eq!(net.relays[0].cached_paths(), 0);
        let seg = Segment::new(0, vec![9]);
        let (blob, _) = build_payload_onion(&net.plan, MessageId(2), &seg, None, &mut rng);
        let err = net.relays[0]
            .handle_payload(from, sid, &blob, SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert_eq!(err, AnonError::UnknownStream);
    }

    #[test]
    fn terminal_key_only_at_terminal() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = build_net(&mut rng, 2);
        let links = run_construction(&mut net, NodeId(1000), &mut rng, SimTime::ZERO);
        // Relay 0 is not terminal.
        assert!(net.relays[0].terminal_key(links[0].0, links[0].1).is_none());
        // Hop 2 (responder) is.
        assert!(net.relays[2].terminal_key(links[2].0, links[2].1).is_some());
    }
}
