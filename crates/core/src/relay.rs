//! Relay-side protocol processing: unseal construction layers, cache path
//! state, forward payloads, wrap reverse traffic (§4.1–§4.5).
//!
//! [`Relay::handle_wire`] is the one place a [`Wire`] frame is mapped to
//! what a relay or responder does with it; the event-driven driver, the
//! sans-io node and the in-memory cluster all call it and add only their
//! own bookkeeping around the returned [`Step`].
//!
//! A relay's cache entry is the paper's tuple
//! `[P_{i−1}, sid_{i−1}, P_{i+1}, sid_i, R_i]`, stored here as a map from
//! `(prev, sid_prev)` to [`PathEntry`], with a reverse index from
//! `(next, sid_next)` for response traffic. Every entry carries a TTL
//! (§4.3) refreshed by payload traffic, and [`Relay::sweep`] reclaims
//! orphaned state left behind by failed upstream nodes.

use crate::ids::{MessageId, StreamId};
use crate::onion::{
    build_reverse_payload_into, peel_construction_layer, peel_payload_layer_in_place,
    unseal_deliver_with_key, wrap_reverse_layer_in_place, ConstructionLayer, PeeledPayload,
};
use crate::wire::Wire;
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

/// What a node does with one arriving frame, as decided by
/// [`Relay::handle_wire`]. The frame's bytes stay with the caller: a step
/// only says where they go next or what they now hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Send the frame on — one construction layer unsealed, one payload
    /// layer peeled, one reverse layer wrapped, or a release untouched,
    /// all within the frame's own buffer — to `to` under stream id `sid`.
    Forward {
        /// Next hop (upstream for reverse traffic).
        to: NodeId,
        /// Stream id on the link to it.
        sid: StreamId,
    },
    /// The construction onion's terminal layer was this node's: path
    /// state is cached and [`Relay::terminal_key`] answers for the stream.
    Constructed,
    /// The payload's terminal layer was this node's: the frame's buffer
    /// now holds the bytes of segment `index` of message `mid`.
    Delivered {
        /// Message id correlating segments across paths.
        mid: MessageId,
        /// Segment index within the erasure-coded message.
        index: usize,
    },
    /// A release ended here: this was the path's terminal hop, or nothing
    /// was cached for the stream.
    Released,
}

/// Result of [`Relay::handle_construction`].
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

    /// The path-state TTL in force.
    pub fn state_ttl(&self) -> SimDuration {
        self.state_ttl
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

    /// Process the frame `wire` arriving from `from` on stream `sid`: the
    /// single dispatch of §4.1 (cache and forward a construction layer),
    /// §4.2 (peel and forward or deliver a payload, wrap a reply on the way
    /// back) and §4.3 (release). The frame is rewritten in place and stays
    /// the caller's in every outcome; after an error its buffer keeps its
    /// capacity but holds unspecified bytes.
    ///
    /// `#[inline]`: the callers' receive paths are where this match
    /// belongs; left to the inliner's choice, `chain_small` ran 0.8 % slower.
    #[inline]
    pub fn handle_wire<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        wire: &mut Wire,
        now: SimTime,
        rng: &mut R,
    ) -> Result<Step, AnonError> {
        match wire {
            Wire::Construct { onion, .. } => self.construct_in_place(from, sid, onion, now, rng),
            Wire::Payload { blob } => self.handle_payload_in_place(from, sid, blob, now, rng),
            Wire::Reverse { blob } => self.handle_reverse_in_place(from, sid, blob, now, rng),
            Wire::Release => Ok(match self.release(from, sid) {
                Some((to, sid)) => Step::Forward { to, sid },
                None => Step::Released,
            }),
        }
    }

    /// The responder's end-to-end ack for segment `index` of `mid`: one
    /// reverse layer under the session key of the terminal entry
    /// `(from, sid)`, written into `buf` (cleared first). The caller sends
    /// it back to `from` on `sid`. Without such an entry there is no key to
    /// ack under: [`AnonError::UnknownStream`], `buf` untouched.
    pub fn write_ack<R: Rng + CryptoRng>(
        &self,
        from: NodeId,
        sid: StreamId,
        mid: MessageId,
        index: usize,
        buf: &mut Vec<u8>,
        rng: &mut R,
    ) -> Result<(), AnonError> {
        let entry = self
            .terminal_entry(from, sid)
            .ok_or(AnonError::UnknownStream)?;
        build_reverse_payload_into(&entry.key, mid, &Segment::new(index, Vec::new()), buf, rng);
        Ok(())
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
        let (next, key, action) = match peel_construction_layer(&self.keypair.secret, onion)? {
            ConstructionLayer::Relay {
                next_hop,
                session_key,
                inner,
            } => {
                let next_sid = StreamId::generate(rng);
                let action = RelayAction::ForwardConstruction {
                    to: next_hop,
                    sid: next_sid,
                    onion: inner,
                };
                (Some((next_hop, next_sid)), session_key, action)
            }
            ConstructionLayer::Terminal { session_key } => {
                (None, session_key, RelayAction::ConstructionComplete)
            }
        };
        let entry = PathEntry {
            next,
            key,
            expires: now + self.state_ttl,
        };
        // A repeated construction on one upstream stream (a requeued
        // duplicate, a replay) replaces the entry; the downstream id the
        // old one answered to must stop working with it.
        let replaced = self.forward.insert((from, sid), entry);
        if let Some(old_next) = replaced.and_then(|old| old.next) {
            self.reverse.remove(&old_next);
        }
        if let Some(next) = next {
            self.reverse.insert(next, (from, sid));
        }
        Ok(action)
    }

    /// [`Relay::handle_construction`] on a frame's own buffer: the
    /// remaining onion replaces the arrived one.
    fn construct_in_place<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        onion: &mut Vec<u8>,
        now: SimTime,
        rng: &mut R,
    ) -> Result<Step, AnonError> {
        match self.handle_construction(from, sid, onion, now, rng)? {
            RelayAction::ForwardConstruction {
                to,
                sid,
                onion: inner,
            } => {
                *onion = inner;
                Ok(Step::Forward { to, sid })
            }
            RelayAction::ConstructionComplete => Ok(Step::Constructed),
        }
    }

    /// Process a forward payload message (§4.2, §4.4): the blob arrives in
    /// `buf`, is peeled in place, and the surviving bytes (inner
    /// ciphertext or delivered segment) stay in `buf`. Refreshes the
    /// entry's TTL (payload traffic doubles as path refresh, §4.3). No
    /// per-hop allocation.
    pub fn handle_payload_in_place<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        buf: &mut Vec<u8>,
        now: SimTime,
        rng: &mut R,
    ) -> Result<Step, AnonError> {
        let Some(entry) = self.forward.get_mut(&(from, sid)) else {
            // §4.4 path reuse: an unsolicited deliver-with-key opens a new
            // terminal stream — the new responder unseals its session key
            // from the payload and caches [P_L, sid'_L, ⊥, R_{L+1}].
            let key = unseal_deliver_with_key(&self.keypair.secret, buf)?
                .ok_or(AnonError::UnknownStream)?;
            self.forward.insert(
                (from, sid),
                PathEntry {
                    next: None,
                    key,
                    expires: now + self.state_ttl,
                },
            );
            return match peel_payload_layer_in_place(&key, buf)? {
                PeeledPayload::Deliver { mid, index } => Ok(Step::Delivered { mid, index }),
                _ => Err(AnonError::Malformed(
                    "deliver-with-key must carry a deliver layer",
                )),
            };
        };
        if entry.expires < now {
            return Err(AnonError::UnknownStream);
        }
        entry.expires = now + self.state_ttl;
        match (peel_payload_layer_in_place(&entry.key, buf)?, entry.next) {
            (PeeledPayload::Forward, Some((to, sid))) => Ok(Step::Forward { to, sid }),
            (PeeledPayload::Redirect { new_dest }, Some(old_next)) => {
                // §4.4: override the cached next hop with the new
                // destination under a fresh stream id.
                let new_sid = StreamId::generate(rng);
                self.reverse.remove(&old_next);
                entry.next = Some((new_dest, new_sid));
                self.reverse.insert((new_dest, new_sid), (from, sid));
                Ok(Step::Forward {
                    to: new_dest,
                    sid: new_sid,
                })
            }
            (PeeledPayload::Deliver { mid, index }, None) => Ok(Step::Delivered { mid, index }),
            (PeeledPayload::Forward | PeeledPayload::Redirect { .. }, None) => {
                Err(AnonError::Malformed("forwarding layer at terminal hop"))
            }
            (PeeledPayload::Deliver { .. }, Some(_)) => {
                Err(AnonError::Malformed("deliver layer at non-terminal hop"))
            }
            (PeeledPayload::DeliverWithKey { .. }, _) => Err(AnonError::Malformed(
                "deliver-with-key on an established stream",
            )),
        }
    }

    /// Process a reverse (response) message arriving from downstream hop
    /// `from` with the downstream stream id `sid` (§4.2): wrap one layer
    /// in place with the cached key (growing `buf` by the symmetric
    /// overhead) and name the upstream hop and stream id to send it on.
    fn handle_reverse_in_place<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        buf: &mut Vec<u8>,
        now: SimTime,
        rng: &mut R,
    ) -> Result<Step, AnonError> {
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
        Ok(Step::Forward {
            to: prev,
            sid: prev_sid,
        })
    }

    /// Combined construction + payload in one message (§4.2: "We can
    /// perform path construction and message sending in the same time").
    /// The relay peels its construction layer, caches the path state, then
    /// immediately peels the accompanying payload layer with the
    /// just-planted session key; both buffers are rewritten in place and
    /// travel on together, or the segment is delivered in `payload`.
    pub fn handle_combined<R: Rng + CryptoRng>(
        &mut self,
        from: NodeId,
        sid: StreamId,
        onion: &mut Vec<u8>,
        payload: &mut Vec<u8>,
        now: SimTime,
        rng: &mut R,
    ) -> Result<Step, AnonError> {
        let built = self.construct_in_place(from, sid, onion, now, rng)?;
        let peeled = self.handle_payload_in_place(from, sid, payload, now, rng)?;
        match (built, peeled) {
            (Step::Forward { .. }, _) if built == peeled => Ok(built),
            (Step::Constructed, Step::Delivered { .. }) => Ok(peeled),
            _ => Err(AnonError::Malformed("combined payload and onion part ways")),
        }
    }

    fn terminal_entry(&self, from: NodeId, sid: StreamId) -> Option<&PathEntry> {
        self.forward.get(&(from, sid)).filter(|e| e.next.is_none())
    }

    /// Terminal-hop helper: look up the session key cached for an incoming
    /// stream (used by responders to decrypt and to key replies).
    pub fn terminal_key(&self, from: NodeId, sid: StreamId) -> Option<SymmetricKey> {
        self.terminal_entry(from, sid).map(|e| e.key)
    }

    /// Explicit path teardown (§4.3): the initiator asks relays to release
    /// state. Returns the downstream hop so the teardown can propagate.
    fn release(&mut self, from: NodeId, sid: StreamId) -> Option<(NodeId, StreamId)> {
        let next = self.forward.remove(&(from, sid))?.next?;
        self.reverse.remove(&next);
        Some(next)
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
    use crate::onion::{
        build_construction_onion, build_payload_onion, peel_reverse_payload_in_place, PathPlan,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sim_crypto::symmetric::OVERHEAD;

    const INITIATOR: NodeId = NodeId(1000);

    struct TestNet {
        relays: Vec<Relay>,
        plan: PathPlan,
        first_blob: Vec<u8>,
        /// The construction onion each hop received, filled by
        /// [`run_construction`].
        onions: Vec<Vec<u8>>,
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
            onions: Vec::new(),
        }
    }

    /// Drive a construction onion through the relays; returns the
    /// `(upstream node, stream id)` of the link into each hop.
    fn run_construction(
        net: &mut TestNet,
        rng: &mut StdRng,
        now: SimTime,
    ) -> Vec<(NodeId, StreamId)> {
        let (mut from, mut sid) = (INITIATOR, StreamId::generate(rng));
        let mut wire = Wire::Construct {
            initiator_sid: sid,
            onion: net.first_blob.clone(),
        };
        let mut links = Vec::new();
        for hop in 0.. {
            links.push((from, sid));
            if let Wire::Construct { onion, .. } = &wire {
                net.onions.push(onion.clone());
            }
            match net.relays[hop]
                .handle_wire(from, sid, &mut wire, now, rng)
                .unwrap()
            {
                Step::Forward { to, sid: nsid } => {
                    assert_eq!(to.index(), hop + 1);
                    (from, sid) = (NodeId(hop as u32), nsid);
                }
                Step::Constructed => break,
                other => panic!("unexpected step {other:?}"),
            }
        }
        links
    }

    fn payload(net: &TestNet, mid: MessageId, seg: &Segment, rng: &mut StdRng) -> Wire {
        Wire::Payload {
            blob: build_payload_onion(&net.plan, mid, seg, None, rng).0,
        }
    }

    #[test]
    fn full_path_construction_and_payload_flow() {
        let mut rng = StdRng::seed_from_u64(1);
        let now = SimTime::from_secs(0);
        let mut net = build_net(&mut rng, 3);
        let links = run_construction(&mut net, &mut rng, now);
        assert_eq!(links.len(), 4, "one link per hop incl. responder");

        // Send a payload through: every hop sees it on the link the
        // construction set up, the responder gets the segment.
        let mid = MessageId(42);
        let seg = Segment::new(0, b"hello anonymous world".to_vec());
        let mut wire = payload(&net, mid, &seg, &mut rng);
        for (hop, &(from, sid)) in links.iter().enumerate() {
            let step = net.relays[hop]
                .handle_wire(from, sid, &mut wire, now, &mut rng)
                .unwrap();
            if hop < 3 {
                let (to, sid) = (NodeId(hop as u32 + 1), links[hop + 1].1);
                assert_eq!(step, Step::Forward { to, sid });
            } else {
                assert_eq!(step, Step::Delivered { mid, index: 0 });
            }
        }
        assert_eq!(wire, Wire::Payload { blob: seg.data });
    }

    #[test]
    fn payload_traffic_refreshes_ttl() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = build_net(&mut rng, 2);
        let links = run_construction(&mut net, &mut rng, SimTime::ZERO);
        let (from, sid) = links[0];
        let seg = Segment::new(0, vec![7]);

        // Keep refreshing at 100 s intervals: the 120 s TTL never lapses.
        let mut t = SimTime::ZERO;
        for _ in 0..5 {
            t += SimDuration::from_secs(100);
            let mut wire = payload(&net, MessageId(1), &seg, &mut rng);
            net.relays[0]
                .handle_wire(from, sid, &mut wire, t, &mut rng)
                .expect("entry must stay alive under refresh traffic");
        }
        assert_eq!(net.relays[0].sweep(t), 0);
    }

    #[test]
    fn reverse_flow_wraps_back_to_initiator() {
        let mut rng = StdRng::seed_from_u64(5);
        let now = SimTime::ZERO;
        let mut net = build_net(&mut rng, 3);
        let links = run_construction(&mut net, &mut rng, now);

        // Responder (hop 3) acks along the reverse path: each relay keyed
        // its reverse index by (downstream node, downstream sid).
        let (mid, index) = (MessageId(8), 5);
        let mut blob = Vec::new();
        let (up, up_sid) = links[3];
        net.relays[3]
            .write_ack(up, up_sid, mid, index, &mut blob, &mut rng)
            .unwrap();
        let mut wire = Wire::Reverse { blob };
        for hop in (0..3).rev() {
            let (from, sid) = (NodeId(hop as u32 + 1), links[hop + 1].1);
            let step = net.relays[hop]
                .handle_wire(from, sid, &mut wire, now, &mut rng)
                .unwrap();
            let (to, sid) = links[hop];
            assert_eq!(step, Step::Forward { to, sid });
        }
        let Wire::Reverse { mut blob } = wire else {
            unreachable!()
        };
        let peeled = peel_reverse_payload_in_place(&net.plan, &mut blob, None).unwrap();
        assert_eq!(peeled, (mid, index));
        // Only a terminal entry can ack.
        let (up, up_sid) = links[1];
        assert_eq!(
            net.relays[1].write_ack(up, up_sid, mid, index, &mut blob, &mut rng),
            Err(AnonError::UnknownStream)
        );
    }

    #[test]
    fn repeated_construction_drops_the_stale_reverse_handle() {
        let mut rng = StdRng::seed_from_u64(9);
        let now = SimTime::ZERO;
        let mut net = build_net(&mut rng, 2);
        let links = run_construction(&mut net, &mut rng, now);
        let (from, sid) = links[0];
        let old_down = links[1].1;

        // The same construction frame again on the same upstream stream.
        let mut again = Wire::Construct {
            initiator_sid: sid,
            onion: net.first_blob.clone(),
        };
        let Step::Forward { to, sid: new_down } = net.relays[0]
            .handle_wire(from, sid, &mut again, now, &mut rng)
            .unwrap()
        else {
            panic!("relay layer forwards")
        };
        assert_eq!(to, NodeId(1));
        assert_ne!(new_down, old_down);
        assert_eq!(net.relays[0].cached_paths(), 1);

        // The first downstream id answers to nothing any more …
        let mut reply = Wire::Reverse {
            blob: b"reply".to_vec(),
        };
        assert_eq!(
            net.relays[0].handle_wire(NodeId(1), old_down, &mut reply, now, &mut rng),
            Err(AnonError::UnknownStream)
        );
        // … the second one does, and a release leaves nothing behind.
        assert_eq!(
            net.relays[0].handle_wire(NodeId(1), new_down, &mut reply, now, &mut rng),
            Ok(Step::Forward { to: from, sid })
        );
        let mut release = Wire::Release;
        net.relays[0]
            .handle_wire(from, sid, &mut release, now, &mut rng)
            .unwrap();
        assert!(net.relays[0].forward.is_empty() && net.relays[0].reverse.is_empty());
    }

    #[test]
    fn release_propagates_downstream() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = build_net(&mut rng, 3);
        let links = run_construction(&mut net, &mut rng, SimTime::ZERO);

        // Initiator tears down from the first relay.
        let mut wire = Wire::Release;
        for (hop, &(from, sid)) in links.iter().enumerate() {
            let step = net.relays[hop]
                .handle_wire(from, sid, &mut wire, SimTime::ZERO, &mut rng)
                .unwrap();
            assert_eq!(
                net.relays[hop].cached_paths(),
                0,
                "hop {hop} state released"
            );
            if hop < 3 {
                let (to, sid) = (NodeId(hop as u32 + 1), links[hop + 1].1);
                assert_eq!(step, Step::Forward { to, sid });
            } else {
                assert_eq!(step, Step::Released, "the responder ends the teardown");
            }
        }
    }

    #[test]
    fn crash_wipes_state_and_breaks_the_path() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = build_net(&mut rng, 2);
        let links = run_construction(&mut net, &mut rng, SimTime::ZERO);
        let (from, sid) = links[0];
        assert_eq!(net.relays[0].crash(), 1);
        assert_eq!(net.relays[0].cached_paths(), 0);
        let mut wire = payload(&net, MessageId(2), &Segment::new(0, vec![9]), &mut rng);
        let err = net.relays[0]
            .handle_wire(from, sid, &mut wire, SimTime::ZERO, &mut rng)
            .unwrap_err();
        assert_eq!(err, AnonError::UnknownStream);
    }

    #[test]
    fn terminal_key_only_at_terminal() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = build_net(&mut rng, 2);
        let links = run_construction(&mut net, &mut rng, SimTime::ZERO);
        // Relay 0 is not terminal.
        assert!(net.relays[0].terminal_key(links[0].0, links[0].1).is_none());
        // Hop 2 (responder) is.
        assert!(net.relays[2].terminal_key(links[2].0, links[2].1).is_some());
    }

    /// What a [`dispatch_table`] row expects of `handle_wire`; a `None`
    /// stream id is one the relay draws fresh.
    #[derive(Debug)]
    enum Want {
        Forward(NodeId, Option<StreamId>),
        Step(Step),
        Unknown,
        Malformed,
        Crypto,
    }

    impl Want {
        fn met_by(&self, got: &Result<Step, AnonError>) -> bool {
            match (self, got) {
                (Want::Forward(to, sid), Ok(Step::Forward { to: t, sid: s })) => {
                    to == t && sid.is_none_or(|sid| sid == *s)
                }
                (Want::Step(step), Ok(got)) => step == got,
                (Want::Unknown, Err(AnonError::UnknownStream))
                | (Want::Malformed, Err(AnonError::Malformed(_)))
                | (Want::Crypto, Err(AnonError::Crypto(_))) => true,
                _ => false,
            }
        }
    }

    /// One row: the frame `wire` arrives at `hop` from `link` at time `at`.
    struct Case {
        name: &'static str,
        hop: usize,
        link: (NodeId, StreamId),
        wire: Wire,
        at: SimTime,
        want: Want,
        /// `cached_paths()` of `hop` afterwards.
        cached: usize,
        /// On `Err`: the frame's bytes are exactly what arrived (always
        /// true of its capacity).
        untouched: bool,
    }

    /// The frame's byte buffer (a release has none).
    fn buffer(wire: &Wire) -> &Vec<u8> {
        static NONE: Vec<u8> = Vec::new();
        match wire {
            Wire::Construct { onion, .. } => onion,
            Wire::Payload { blob } | Wire::Reverse { blob } => blob,
            Wire::Release => &NONE,
        }
    }

    /// The shared entry point over every `Wire` variant × {live entry,
    /// unknown stream, expired entry, terminal / non-terminal mismatch,
    /// unsolicited deliver-with-key}: the step, the relay's state after,
    /// and that a refused frame is still the caller's to recycle.
    #[test]
    fn dispatch_table() {
        let live = SimTime::from_secs(1);
        let late = SimTime::from_secs(DEFAULT_STATE_TTL.as_micros() / 1_000_000 + 1);
        let (mid, seg) = (MessageId(3), Segment::new(4, b"segment".to_vec()));
        let stranger = (NodeId(77), StreamId(7));

        // A fresh 2-relay path per row (hop 2 is the responder, hop 3 a
        // bystander with keys but no state), built the same way each time
        // so rows can name its links.
        let fixture = || {
            let mut rng = StdRng::seed_from_u64(31);
            let mut net = build_net(&mut rng, 2);
            let links = run_construction(&mut net, &mut rng, SimTime::ZERO);
            net.relays
                .push(Relay::new(NodeId(3), KeyPair::generate(&mut rng)));
            (net, links, rng)
        };
        let (net, links, mut rng) = fixture();
        let key = |hop: usize| net.plan.session_keys[hop];
        let construct = |hop: usize| Wire::Construct {
            initiator_sid: links[0].1,
            onion: net.onions[hop].clone(),
        };
        // The payload as hop `n` receives it: `n` layers already peeled.
        let mut payload_at = |n: usize, redirect| {
            let (mut blob, _) = build_payload_onion(&net.plan, mid, &seg, redirect, &mut rng);
            for hop in 0..n {
                peel_payload_layer_in_place(&key(hop), &mut blob).unwrap();
            }
            Wire::Payload { blob }
        };
        // A deliver layer under relay 0's key, a forward layer under the
        // responder's: each is the other kind of hop's traffic.
        let one_hop = |hop: usize| PathPlan {
            hops: vec![NodeId(hop as u32)],
            session_keys: vec![key(hop)],
        };
        let mut misplaced_rng = StdRng::seed_from_u64(32);
        let deliver_at_relay = Wire::Payload {
            blob: build_payload_onion(&one_hop(0), mid, &seg, None, &mut misplaced_rng).0,
        };
        let forward_at_terminal = {
            let mut plan = one_hop(2);
            plan.hops.push(NodeId(9));
            plan.session_keys.push(key(0));
            Wire::Payload {
                blob: build_payload_onion(&plan, mid, &seg, None, &mut misplaced_rng).0,
            }
        };
        let mut tampered = payload_at(0, None);
        if let Wire::Payload { blob } = &mut tampered {
            blob[20] ^= 1;
        }
        let bystander = net.relays[3].public_key();
        let reply = || Wire::Reverse {
            blob: b"wrapped reply".to_vec(),
        };
        let down = |hop: usize| (NodeId(hop as u32 + 1), links[hop + 1].1);
        let to_hop = |hop: usize| Want::Forward(NodeId(hop as u32), Some(links[hop].1));
        let upstream = Want::Forward(links[0].0, Some(links[0].1));

        #[rustfmt::skip]
        let cases = vec![
            Case { name: "construct: relay layer, new upstream stream", hop: 0, link: stranger, wire: construct(0), at: live,
                   want: Want::Forward(NodeId(1), None), cached: 2, untouched: false },
            Case { name: "construct: terminal layer", hop: 2, link: stranger, wire: construct(2), at: live,
                   want: Want::Step(Step::Constructed), cached: 2, untouched: false },
            Case { name: "construct: another hop's layer", hop: 1, link: stranger, wire: construct(0), at: live,
                   want: Want::Crypto, cached: 1, untouched: true },
            Case { name: "payload: live relay entry", hop: 0, link: links[0], wire: payload_at(0, None), at: live,
                   want: to_hop(1), cached: 1, untouched: false },
            Case { name: "payload: live terminal entry", hop: 2, link: links[2], wire: payload_at(2, None), at: live,
                   want: Want::Step(Step::Delivered { mid, index: 4 }), cached: 1, untouched: false },
            Case { name: "payload: unknown stream", hop: 0, link: stranger, wire: payload_at(0, None), at: live,
                   want: Want::Unknown, cached: 1, untouched: true },
            Case { name: "payload: expired entry is refused, not reclaimed", hop: 0, link: links[0], wire: payload_at(0, None), at: late,
                   want: Want::Unknown, cached: 1, untouched: true },
            Case { name: "payload: tampered", hop: 0, link: links[0], wire: tampered, at: live,
                   want: Want::Crypto, cached: 1, untouched: true },
            Case { name: "payload: deliver layer at a relay", hop: 0, link: links[0], wire: deliver_at_relay, at: live,
                   want: Want::Malformed, cached: 1, untouched: false },
            Case { name: "payload: forward layer at the responder", hop: 2, link: links[2], wire: forward_at_terminal, at: live,
                   want: Want::Malformed, cached: 1, untouched: false },
            Case { name: "payload: redirect at the last relay", hop: 1, link: links[1], wire: payload_at(1, Some((NodeId(3), bystander))), at: live,
                   want: Want::Forward(NodeId(3), None), cached: 1, untouched: false },
            Case { name: "payload: unsolicited deliver-with-key", hop: 3, link: stranger, wire: payload_at(2, Some((NodeId(3), bystander))), at: live,
                   want: Want::Step(Step::Delivered { mid, index: 4 }), cached: 1, untouched: false },
            Case { name: "payload: deliver-with-key sealed to someone else", hop: 2, link: stranger, wire: payload_at(2, Some((NodeId(3), bystander))), at: live,
                   want: Want::Crypto, cached: 1, untouched: true },
            Case { name: "reverse: live entry", hop: 0, link: down(0), wire: reply(), at: live,
                   want: upstream, cached: 1, untouched: false },
            Case { name: "reverse: unknown stream", hop: 0, link: stranger, wire: reply(), at: live,
                   want: Want::Unknown, cached: 1, untouched: true },
            Case { name: "reverse: expired entry", hop: 0, link: down(0), wire: reply(), at: late,
                   want: Want::Unknown, cached: 1, untouched: true },
            Case { name: "reverse: a terminal entry has no downstream", hop: 2, link: links[2], wire: reply(), at: live,
                   want: Want::Unknown, cached: 1, untouched: true },
            Case { name: "release: relay entry", hop: 0, link: links[0], wire: Wire::Release, at: live,
                   want: to_hop(1), cached: 0, untouched: false },
            Case { name: "release: terminal entry", hop: 2, link: links[2], wire: Wire::Release, at: live,
                   want: Want::Step(Step::Released), cached: 0, untouched: false },
            Case { name: "release: unknown stream", hop: 0, link: stranger, wire: Wire::Release, at: live,
                   want: Want::Step(Step::Released), cached: 1, untouched: false },
            Case { name: "release: expired entry still goes", hop: 0, link: links[0], wire: Wire::Release, at: late,
                   want: to_hop(1), cached: 0, untouched: false },
        ];

        for case in cases {
            let (mut net, _, mut rng) = fixture();
            let relay = &mut net.relays[case.hop];
            let mut wire = case.wire.clone();
            let room = buffer(&wire).capacity();
            let (from, sid) = case.link;
            let got = relay.handle_wire(from, sid, &mut wire, case.at, &mut rng);
            assert!(case.want.met_by(&got), "{}: got {got:?}", case.name);
            assert_eq!(relay.cached_paths(), case.cached, "{}", case.name);
            assert_eq!(
                std::mem::discriminant(&wire),
                std::mem::discriminant(&case.wire),
                "{}",
                case.name
            );
            match got {
                Ok(Step::Forward { to, sid }) if matches!(wire, Wire::Reverse { .. }) => {
                    assert_eq!(buffer(&wire).len(), buffer(&case.wire).len() + OVERHEAD);
                    assert_eq!((to, sid), links[case.hop], "{}", case.name);
                }
                Ok(Step::Forward { to, sid }) if !matches!(wire, Wire::Release) => {
                    // What was forwarded is addressable from downstream.
                    assert!(buffer(&wire).len() < buffer(&case.wire).len());
                    assert_eq!(relay.reverse[&(to, sid)], case.link, "{}", case.name);
                }
                Ok(Step::Constructed) => {
                    assert!(relay.terminal_key(from, sid).is_some(), "{}", case.name)
                }
                Ok(Step::Delivered { .. }) => {
                    assert_eq!(buffer(&wire), &seg.data, "{}", case.name);
                    assert!(relay.terminal_key(from, sid).is_some(), "{}", case.name);
                }
                Ok(_) => {}
                Err(_) => {
                    assert!(
                        buffer(&wire).capacity() >= room,
                        "{}: buffer lost",
                        case.name
                    );
                    if case.untouched {
                        assert_eq!(wire, case.wire, "{}", case.name);
                    }
                }
            }
        }
    }

    #[test]
    fn expired_state_is_swept() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = build_net(&mut rng, 2);
        run_construction(&mut net, &mut rng, SimTime::ZERO);
        let late = SimTime::from_secs(DEFAULT_STATE_TTL.as_micros() / 1_000_000 + 1);
        assert_eq!(net.relays[0].sweep(SimTime::from_secs(1)), 0);
        assert_eq!(net.relays[0].sweep(late), 1);
        assert!(net.relays[0].forward.is_empty() && net.relays[0].reverse.is_empty());
    }
}
