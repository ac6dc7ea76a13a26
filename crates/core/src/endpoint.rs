//! Endpoint state machines: the initiator (path owner) and responder
//! (segment reassembly and replies).
//!
//! The initiator holds the [`PathPlan`]s for its `k` disjoint paths,
//! erasure-codes outgoing messages, allocates segments to paths
//! round-robin (SimEra's even allocation), and strips reverse onions from
//! replies. The responder is a [`Relay`](crate::relay::Relay) whose terminal cache entries feed
//! a [`Reassembler`] that reconstructs messages once any `m` segments of a
//! `MID` have arrived.

use crate::ids::{MessageId, StreamId};
use crate::onion::{
    build_construction_onion, build_payload_onion, build_reverse_payload,
    peel_reverse_payload_in_place, PathPlan,
};
use crate::AnonError;
use erasure::{Codec, Segment};
use rand::{CryptoRng, Rng};
use sim_crypto::{PublicKey, SymmetricKey};
use simnet::{NodeId, SimDuration, SimTime};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One outgoing wire message: destination plus opaque bytes, paired with
/// the stream id expected on that link.
#[derive(Debug)]
pub struct Outgoing {
    /// First-hop node to hand the blob to.
    pub to: NodeId,
    /// Stream id on the initiator → first-relay link.
    pub sid: StreamId,
    /// Payload or construction blob.
    pub blob: Vec<u8>,
}

/// A combined construction + first-payload wire message (§4.2).
#[derive(Debug)]
pub struct CombinedOutgoing {
    /// First-hop node.
    pub to: NodeId,
    /// Stream id on the first link.
    pub sid: StreamId,
    /// Construction onion.
    pub onion: Vec<u8>,
    /// Payload onions riding along (the segments this path carries).
    pub payloads: Vec<Vec<u8>>,
}

/// An established (or in-construction) path owned by an initiator.
#[derive(Debug)]
pub struct OwnedPath {
    /// Private plan: hops and session keys.
    pub plan: PathPlan,
    /// Stream id on the first link.
    pub sid: StreamId,
    /// Whether the end-to-end construction ack arrived.
    pub established: bool,
    /// Per-message fresh responder keys minted for reused paths,
    /// keyed by message id (needed to decrypt the replies).
    pub reuse_keys: HashMap<MessageId, SymmetricKey>,
}

/// The initiator: builds paths, codes messages, sends segments, decodes
/// replies.
pub struct Initiator {
    id: NodeId,
    paths: Vec<OwnedPath>,
    reassembler: Reassembler,
}

impl Initiator {
    /// New initiator with no paths.
    pub fn new(id: NodeId) -> Self {
        Initiator {
            id,
            paths: Vec::new(),
            reassembler: Reassembler::new(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Established + pending paths.
    pub fn paths(&self) -> &[OwnedPath] {
        &self.paths
    }

    /// Build construction onions for `k` disjoint paths. `paths_hops[i]`
    /// lists `(node, public_key)` for every hop of path `i`, responder
    /// last. Returns the wire messages for the first hops.
    pub fn construct_paths<R: Rng + CryptoRng>(
        &mut self,
        paths_hops: &[Vec<(NodeId, PublicKey)>],
        rng: &mut R,
    ) -> Vec<Outgoing> {
        let mut out = Vec::with_capacity(paths_hops.len());
        for hops in paths_hops {
            let (plan, blob) = build_construction_onion(hops, rng);
            let sid = StreamId::generate(rng);
            out.push(Outgoing {
                to: plan.first_hop(),
                sid,
                blob,
            });
            self.paths.push(OwnedPath {
                plan,
                sid,
                established: false,
                reuse_keys: HashMap::new(),
            });
        }
        out
    }

    /// §4.2's combined mode: build paths and send the first message's
    /// segments in the same round trip ("allows the initiator to form
    /// paths on-demand ... without message delays"). One combined wire
    /// message per segment-carrying path.
    pub fn construct_and_send<R: Rng + CryptoRng>(
        &mut self,
        paths_hops: &[Vec<(NodeId, PublicKey)>],
        mid: MessageId,
        message: &[u8],
        codec: &dyn Codec,
        rng: &mut R,
    ) -> Vec<CombinedOutgoing> {
        let start = self.paths.len();
        let cons = self.construct_paths(paths_hops, rng);
        let k = paths_hops.len();
        let segments = codec.encode(message);
        let mut out: Vec<CombinedOutgoing> = cons
            .into_iter()
            .map(|o| CombinedOutgoing {
                to: o.to,
                sid: o.sid,
                onion: o.blob,
                payloads: Vec::new(),
            })
            .collect();
        for seg in &segments {
            let path = &self.paths[start + seg.index % k];
            let (blob, _) = build_payload_onion(&path.plan, mid, seg, None, rng);
            out[seg.index % k].payloads.push(blob);
        }
        out
    }

    /// Mark a path established (end-to-end ack arrived on its stream).
    pub fn mark_established(&mut self, sid: StreamId) -> bool {
        for p in &mut self.paths {
            if p.sid == sid {
                p.established = true;
                return true;
            }
        }
        false
    }

    /// Drop a path (failure detected, §4.5). Returns true if it existed.
    pub fn drop_path(&mut self, sid: StreamId) -> bool {
        let before = self.paths.len();
        self.paths.retain(|p| p.sid != sid);
        self.paths.len() != before
    }

    /// Erasure-code `message` with `codec` and allocate segments evenly
    /// over this initiator's paths (SimEra: segment `i` goes to path
    /// `i % k`). Returns the wire messages, one per segment.
    ///
    /// With `reuse_for` set, paths are *reused* for a different responder
    /// (§4.4): the last relay redirects and the new responder's key rides
    /// along sealed to `reuse_for.1`.
    pub fn send_message<R: Rng + CryptoRng>(
        &mut self,
        mid: MessageId,
        message: &[u8],
        codec: &dyn Codec,
        reuse_for: Option<(NodeId, PublicKey)>,
        rng: &mut R,
    ) -> Result<Vec<Outgoing>, AnonError> {
        if self.paths.is_empty() {
            return Err(AnonError::InvalidParameters("no paths constructed".into()));
        }
        let segments = codec.encode(message);
        let k = self.paths.len();
        let mut out = Vec::with_capacity(segments.len());
        for seg in &segments {
            let path = &mut self.paths[seg.index % k];
            let (blob, fresh) = build_payload_onion(&path.plan, mid, seg, reuse_for, rng);
            if let Some(key) = fresh {
                path.reuse_keys.insert(mid, key);
            }
            out.push(Outgoing {
                to: path.plan.first_hop(),
                sid: path.sid,
                blob,
            });
        }
        Ok(out)
    }

    /// Re-send only the segments with the given `indices` (erasure-aware
    /// retransmission, §4.5): after an ack timeout the initiator needs
    /// just enough missing segments to reach `m`, never the whole
    /// message. Retransmits are spread round-robin over the *current*
    /// path set — which may differ from the original allocation if
    /// failed paths were torn down and replaced — so a retry naturally
    /// avoids concentrating on the slot that just failed.
    pub fn resend_segments<R: Rng + CryptoRng>(
        &mut self,
        mid: MessageId,
        message: &[u8],
        codec: &dyn Codec,
        indices: &[usize],
        rng: &mut R,
    ) -> Result<Vec<Outgoing>, AnonError> {
        if self.paths.is_empty() {
            return Err(AnonError::InvalidParameters("no paths constructed".into()));
        }
        let segments = codec.encode(message);
        let k = self.paths.len();
        let mut out = Vec::with_capacity(indices.len());
        for (slot, &idx) in indices.iter().enumerate() {
            let seg = segments.get(idx).ok_or(AnonError::InvalidParameters(
                "segment index out of range".into(),
            ))?;
            let path = &self.paths[slot % k];
            let (blob, _) = build_payload_onion(&path.plan, mid, seg, None, rng);
            out.push(Outgoing {
                to: path.plan.first_hop(),
                sid: path.sid,
                blob,
            });
        }
        Ok(out)
    }

    /// Process a reverse (reply) blob arriving on stream `sid`; feeds the
    /// reassembler and returns the reconstructed reply once `m` segments of
    /// its `MID` are in.
    pub fn handle_reply(
        &mut self,
        sid: StreamId,
        blob: &[u8],
        codec: &dyn Codec,
    ) -> Result<Option<(MessageId, Vec<u8>)>, AnonError> {
        let path = self
            .paths
            .iter()
            .find(|p| p.sid == sid)
            .ok_or(AnonError::UnknownStream)?;
        // Try the construction-time responder key first, then any minted
        // reuse keys (the reply's MID is inside the onion, so we cannot
        // pre-select; the paths hold few reuse keys in practice). A failed
        // attempt leaves the buffer half peeled, so each starts from `blob`.
        let mut buf = Vec::new();
        let mut peel = |key: Option<&SymmetricKey>| {
            buf.clear();
            buf.extend_from_slice(blob);
            peel_reverse_payload_in_place(&path.plan, &mut buf, key)
        };
        let mut peeled = peel(None);
        for key in path.reuse_keys.values() {
            if peeled.is_ok() {
                break;
            }
            peeled = peel(Some(key));
        }
        let (mid, index) = peeled?;
        let segment = Segment::new(index, buf);
        // This endpoint has no clock and never sweeps: the stamp goes unread.
        Ok(self
            .reassembler
            .push(mid, segment, codec, SimTime::ZERO)?
            .map(|msg| (mid, msg)))
    }
}

/// Reassembles erasure-coded segments into messages, per message id.
///
/// Every entry carries the time of its last arrival so that an owner with
/// a clock can [`sweep`](Self::sweep) what went quiet: the segment bodies
/// of a message that never reaches `m`, and the ids of delivered ones.
#[derive(Default)]
pub struct Reassembler {
    pending: HashMap<MessageId, Partial>,
    /// Delivered message ids, with when they completed.
    completed: HashMap<MessageId, SimTime>,
}

/// The segments of a message still short of `m`.
struct Partial {
    last_arrival: SimTime,
    segments: Vec<Segment>,
}

impl Reassembler {
    /// Empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of messages with outstanding segments.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Number of delivered message ids still remembered.
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// Add one segment, arriving at `now`. Returns the reconstructed
    /// message when `m` distinct segments have arrived (exactly once per
    /// message id — duplicates and late segments after completion are
    /// ignored).
    pub fn push(
        &mut self,
        mid: MessageId,
        segment: Segment,
        codec: &dyn Codec,
        now: SimTime,
    ) -> Result<Option<Vec<u8>>, AnonError> {
        if self.completed.contains_key(&mid) {
            return Ok(None);
        }
        let entry = match self.pending.entry(mid) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Partial {
                last_arrival: now,
                segments: Vec::new(),
            }),
        };
        if entry.segments.iter().any(|s| s.index == segment.index) {
            return Ok(None); // duplicate
        }
        entry.last_arrival = now;
        entry.segments.push(segment);
        if entry.segments.len() >= codec.required() {
            let partial = self.pending.remove(&mid).expect("just inserted");
            let msg = codec.decode(&partial.segments)?;
            self.completed.insert(mid, now);
            return Ok(Some(msg));
        }
        Ok(None)
    }

    /// Drop every entry whose last arrival is more than `ttl` before
    /// `now`. Returns the number of entries removed.
    ///
    /// Forgetting a *delivered* id reopens it: a segment of that message
    /// arriving later would start a fresh entry and, at `m = 1`, deliver
    /// twice. That needs a segment still in flight `ttl` after the message
    /// completed, so `ttl` must exceed the sender's retransmit horizon,
    /// `ack_timeout × (max_retries + 1)` — 5 s at the node's defaults
    /// against the 120-s relay TTL the node sweeps with.
    pub fn sweep(&mut self, now: SimTime, ttl: SimDuration) -> usize {
        let before = self.pending.len() + self.completed.len();
        self.pending
            .retain(|_, partial| now.since(partial.last_arrival) <= ttl);
        self.completed.retain(|_, &mut at| now.since(at) <= ttl);
        before - self.pending.len() - self.completed.len()
    }
}

/// The responder's upper half: reassembly plus reply emission. (Its lower
/// half is a [`crate::relay::Relay`] holding the terminal cache entries.)
pub struct Responder {
    id: NodeId,
    reassembler: Reassembler,
    /// Arrival records: for each message, which (upstream hop, sid, key)
    /// tuples delivered segments — the reverse-path handles for replying.
    arrivals: HashMap<MessageId, Vec<(NodeId, StreamId, SymmetricKey)>>,
}

impl Responder {
    /// New responder.
    pub fn new(id: NodeId) -> Self {
        Responder {
            id,
            reassembler: Reassembler::new(),
            arrivals: HashMap::new(),
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Record a delivered segment that arrived from `from` on stream `sid`
    /// secured by `key`. Returns the reconstructed message once complete.
    pub fn accept_segment(
        &mut self,
        from: NodeId,
        sid: StreamId,
        key: SymmetricKey,
        mid: MessageId,
        segment: Segment,
        codec: &dyn Codec,
    ) -> Result<Option<Vec<u8>>, AnonError> {
        self.arrivals.entry(mid).or_default().push((from, sid, key));
        // This endpoint has no clock and never sweeps: the stamp goes unread.
        self.reassembler.push(mid, segment, codec, SimTime::ZERO)
    }

    /// Build reply wire messages: the response is coded with `codec` and
    /// its segments sent back over the paths that delivered the request
    /// ("some time later he/she may send back the coded response segments
    /// over the k paths", §4).
    pub fn reply<R: Rng + CryptoRng>(
        &mut self,
        request_mid: MessageId,
        response: &[u8],
        codec: &dyn Codec,
        rng: &mut R,
    ) -> Result<Vec<Outgoing>, AnonError> {
        let arrivals = self
            .arrivals
            .get(&request_mid)
            .ok_or(AnonError::UnknownStream)?;
        if arrivals.is_empty() {
            return Err(AnonError::UnknownStream);
        }
        let segments = codec.encode(response);
        let k = arrivals.len();
        let mut out = Vec::with_capacity(segments.len());
        for seg in &segments {
            let (to, sid, key) = arrivals[seg.index % k];
            let blob = build_reverse_payload(&key, request_mid, seg, rng);
            out.push(Outgoing { to, sid, blob });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use erasure::{ErasureCodec, ReplicationCodec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reassembler_completes_at_m_segments() {
        let codec = ErasureCodec::new(3, 6).unwrap();
        let msg = b"reassemble me please".to_vec();
        let segs = codec.encode(&msg);
        let mut r = Reassembler::new();
        let mid = MessageId(1);
        assert_eq!(
            r.push(mid, segs[5].clone(), &codec, SimTime::ZERO).unwrap(),
            None
        );
        assert_eq!(
            r.push(mid, segs[1].clone(), &codec, SimTime::ZERO).unwrap(),
            None
        );
        let got = r.push(mid, segs[3].clone(), &codec, SimTime::ZERO).unwrap();
        assert_eq!(got, Some(msg));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn reassembler_ignores_duplicates_and_post_completion() {
        let codec = ReplicationCodec::new(3).unwrap();
        let msg = b"dup".to_vec();
        let segs = codec.encode(&msg);
        let mut r = Reassembler::new();
        let mid = MessageId(2);
        // Replication completes on the first segment.
        assert_eq!(
            r.push(mid, segs[0].clone(), &codec, SimTime::ZERO).unwrap(),
            Some(msg)
        );
        // Later segments of a completed message are swallowed.
        assert_eq!(
            r.push(mid, segs[1].clone(), &codec, SimTime::ZERO).unwrap(),
            None
        );
        assert_eq!(
            r.push(mid, segs[2].clone(), &codec, SimTime::ZERO).unwrap(),
            None
        );
    }

    #[test]
    fn reassembler_duplicate_segment_does_not_count() {
        let codec = ErasureCodec::new(2, 4).unwrap();
        let msg = b"two needed".to_vec();
        let segs = codec.encode(&msg);
        let mut r = Reassembler::new();
        let mid = MessageId(3);
        assert_eq!(
            r.push(mid, segs[0].clone(), &codec, SimTime::ZERO).unwrap(),
            None
        );
        assert_eq!(
            r.push(mid, segs[0].clone(), &codec, SimTime::ZERO).unwrap(),
            None,
            "same index again"
        );
        assert_eq!(
            r.push(mid, segs[2].clone(), &codec, SimTime::ZERO).unwrap(),
            Some(msg)
        );
    }

    #[test]
    fn reassembler_tracks_messages_independently() {
        let codec = ErasureCodec::new(2, 2).unwrap();
        let m1 = b"first".to_vec();
        let m2 = b"second".to_vec();
        let s1 = codec.encode(&m1);
        let s2 = codec.encode(&m2);
        let mut r = Reassembler::new();
        assert_eq!(
            r.push(MessageId(1), s1[0].clone(), &codec, SimTime::ZERO)
                .unwrap(),
            None
        );
        assert_eq!(
            r.push(MessageId(2), s2[1].clone(), &codec, SimTime::ZERO)
                .unwrap(),
            None
        );
        assert_eq!(r.pending(), 2);
        assert_eq!(
            r.push(MessageId(2), s2[0].clone(), &codec, SimTime::ZERO)
                .unwrap(),
            Some(m2)
        );
        assert_eq!(
            r.push(MessageId(1), s1[1].clone(), &codec, SimTime::ZERO)
                .unwrap(),
            Some(m1)
        );
    }

    #[test]
    fn sweep_drops_what_went_quiet_for_longer_than_the_ttl() {
        let codec = ErasureCodec::new(2, 3).unwrap();
        let segs = codec.encode(b"aged");
        let (at, ttl) = (SimTime::from_secs, SimDuration::from_secs(10));
        let mut r = Reassembler::new();
        // Message 1 completes at 1 s; 2 and 3 stay one segment short, 3
        // (which needs all three) with a last arrival at 8 s.
        r.push(MessageId(1), segs[0].clone(), &codec, at(0))
            .unwrap();
        r.push(MessageId(1), segs[1].clone(), &codec, at(1))
            .unwrap();
        r.push(MessageId(2), segs[0].clone(), &codec, at(1))
            .unwrap();
        let all = ErasureCodec::new(3, 3).unwrap();
        r.push(MessageId(3), segs[0].clone(), &all, at(1)).unwrap();
        r.push(MessageId(3), segs[2].clone(), &all, at(8)).unwrap();
        assert_eq!(r.sweep(at(11), ttl), 0, "exactly `ttl` old is kept");
        assert_eq!(r.sweep(at(12), ttl), 2);
        assert_eq!((r.pending(), r.completed()), (1, 0));
        assert_eq!(r.sweep(at(19), ttl), 1);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn construct_and_send_bundles_segments_per_path() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut initiator = Initiator::new(NodeId(0));
        let kp1 = sim_crypto::KeyPair::generate(&mut rng);
        let kp2 = sim_crypto::KeyPair::generate(&mut rng);
        let paths = vec![
            vec![(NodeId(10), kp1.public)],
            vec![(NodeId(20), kp2.public)],
        ];
        // 4 segments over 2 paths: each combined message carries 2 payloads.
        let codec = ErasureCodec::new(2, 4).unwrap();
        let out = initiator.construct_and_send(&paths, MessageId(1), b"bundle", &codec, &mut rng);
        assert_eq!(out.len(), 2);
        for c in &out {
            assert_eq!(c.payloads.len(), 2);
            assert!(!c.onion.is_empty());
        }
        assert_eq!(out[0].to, NodeId(10));
        assert_eq!(out[1].to, NodeId(20));
        assert_eq!(
            initiator.paths().len(),
            2,
            "paths are cached for later sends"
        );
    }

    #[test]
    fn initiator_allocates_segments_round_robin() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut initiator = Initiator::new(NodeId(0));
        // Two fake 1-hop paths (responder only) — enough to observe the
        // allocation pattern.
        let kp1 = sim_crypto::KeyPair::generate(&mut rng);
        let kp2 = sim_crypto::KeyPair::generate(&mut rng);
        let paths = vec![
            vec![(NodeId(10), kp1.public)],
            vec![(NodeId(20), kp2.public)],
        ];
        let cons = initiator.construct_paths(&paths, &mut rng);
        assert_eq!(cons.len(), 2);
        assert_eq!(cons[0].to, NodeId(10));
        assert_eq!(cons[1].to, NodeId(20));

        let codec = ErasureCodec::new(2, 4).unwrap();
        let out = initiator
            .send_message(MessageId(9), b"split me", &codec, None, &mut rng)
            .unwrap();
        assert_eq!(out.len(), 4);
        // Segments 0,2 -> path 0; 1,3 -> path 1.
        assert_eq!(out[0].to, NodeId(10));
        assert_eq!(out[1].to, NodeId(20));
        assert_eq!(out[2].to, NodeId(10));
        assert_eq!(out[3].to, NodeId(20));
    }

    #[test]
    fn resend_targets_only_missing_indices() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut initiator = Initiator::new(NodeId(0));
        let kp1 = sim_crypto::KeyPair::generate(&mut rng);
        let kp2 = sim_crypto::KeyPair::generate(&mut rng);
        let paths = vec![
            vec![(NodeId(10), kp1.public)],
            vec![(NodeId(20), kp2.public)],
        ];
        initiator.construct_paths(&paths, &mut rng);
        let codec = ErasureCodec::new(2, 4).unwrap();
        // Only segments 1 and 3 went missing: exactly two retransmits,
        // spread round-robin from path 0.
        let out = initiator
            .resend_segments(MessageId(4), b"partial loss", &codec, &[1, 3], &mut rng)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].to, NodeId(10));
        assert_eq!(out[1].to, NodeId(20));
        // Out-of-range index is an error, not a panic.
        assert!(initiator
            .resend_segments(MessageId(4), b"partial loss", &codec, &[9], &mut rng)
            .is_err());
    }

    #[test]
    fn initiator_without_paths_errors() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut initiator = Initiator::new(NodeId(0));
        let codec = ReplicationCodec::new(1).unwrap();
        assert!(initiator
            .send_message(MessageId(1), b"x", &codec, None, &mut rng)
            .is_err());
    }

    #[test]
    fn mark_established_and_drop() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut initiator = Initiator::new(NodeId(0));
        let kp = sim_crypto::KeyPair::generate(&mut rng);
        let out = initiator.construct_paths(&[vec![(NodeId(5), kp.public)]], &mut rng);
        let sid = out[0].sid;
        assert!(!initiator.paths()[0].established);
        assert!(initiator.mark_established(sid));
        assert!(initiator.paths()[0].established);
        assert!(!initiator.mark_established(StreamId(0xdead)));
        assert!(initiator.drop_path(sid));
        assert!(initiator.paths().is_empty());
        assert!(!initiator.drop_path(sid));
    }
}
