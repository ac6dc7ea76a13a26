//! Endpoint state machines: the initiator (path owner and sender ledger)
//! and responder (segment reassembly and replies).
//!
//! The initiator holds the [`PathPlan`]s for its `k` disjoint paths,
//! erasure-codes outgoing messages, allocates segments to paths
//! round-robin (SimEra's even allocation), keeps the one record of what
//! it sent and what was acked, and strips reverse onions from acks and
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

/// Sentinel message id carried by construction acks (reverse onions the
/// responder sends when a path finishes forming under auto-ack).
pub const CONSTRUCT_ACK: MessageId = MessageId(u64::MAX);

/// Strip every layer of the reverse onion in `blob` with the `plan` of the
/// path it rode: the segment it acks, or `None` for the path's own
/// [`CONSTRUCT_ACK`]. The one termination the driver and the node share.
pub fn open_ack(
    plan: &PathPlan,
    blob: &mut Vec<u8>,
) -> Result<Option<(MessageId, usize)>, AnonError> {
    let acked = peel_reverse_payload_in_place(plan, blob, None)?;
    Ok((acked.0 != CONSTRUCT_ACK).then_some(acked))
}

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

/// One segment of a sent message, as its sender last knew it.
#[derive(Clone, Copy, Debug)]
pub struct SentSegment {
    /// Whether its end-to-end ack arrived.
    pub acked: bool,
    /// Stream id of the path it last rode.
    pub path: StreamId,
    /// Retransmits spent on it.
    pub retries: u32,
    /// When its ack deadline was last armed: for a caller that arms one
    /// per send, when it last left.
    pub sent_at: SimTime,
    /// The caller's token for that deadline, while armed.
    deadline: Option<u64>,
}

/// The sender's record of one message.
struct SentMessage {
    /// Kept for re-coding until the last armed deadline is disarmed: the
    /// record is then *settled*, every segment acked or given up.
    payload: Option<Vec<u8>>,
    segments: Vec<SentSegment>,
    /// When a deadline of it was last armed or a segment of it acked.
    last_event: SimTime,
}

impl SentMessage {
    /// Take the deadline armed for segment `index`; with the message's
    /// last one goes the payload.
    fn disarm(&mut self, index: usize) -> Option<u64> {
        let token = self.segments.get_mut(index)?.deadline.take()?;
        if self.segments.iter().all(|s| s.deadline.is_none()) {
            self.payload = None;
        }
        Some(token)
    }
}

/// The initiator: builds paths, codes messages, sends segments, books
/// their acks, decodes replies. It owns all sender-side state; its callers
/// own time — when to [`resend`](Self::resend), and over which paths.
pub struct Initiator {
    id: NodeId,
    paths: Vec<OwnedPath>,
    /// Where in `paths` each stream id sits.
    index: HashMap<StreamId, usize>,
    /// How many of `paths` are established.
    established: usize,
    /// The ledger: one record per message sent and not yet swept.
    sent: HashMap<MessageId, SentMessage>,
    reassembler: Reassembler,
}

impl Initiator {
    /// New initiator with no paths.
    pub fn new(id: NodeId) -> Self {
        Initiator {
            id,
            paths: Vec::new(),
            index: HashMap::new(),
            established: 0,
            sent: HashMap::new(),
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

    /// The path built under stream id `sid`.
    pub fn path(&self, sid: StreamId) -> Option<&OwnedPath> {
        self.paths.get(*self.index.get(&sid)?)
    }

    /// Number of paths whose construction ack arrived.
    pub fn established(&self) -> usize {
        self.established
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
            self.index.insert(sid, self.paths.len());
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
        let pairs = (0..segments.len()).map(|i| (i, start + i % k));
        let onions = self.segment_onions(mid, &segments, pairs, None, rng);
        for (i, o) in onions.expect("paths just built").into_iter().enumerate() {
            out[i % k].payloads.push(o.blob);
        }
        out
    }

    /// Mark a path established (end-to-end ack arrived on its stream).
    pub fn mark_established(&mut self, sid: StreamId) -> bool {
        let Some(path) = self.index.get(&sid).map(|&at| &mut self.paths[at]) else {
            return false;
        };
        self.established += usize::from(!path.established);
        path.established = true;
        true
    }

    /// Drop a path (failure detected, §4.5). Returns true if it existed.
    pub fn drop_path(&mut self, sid: StreamId) -> bool {
        let Some(at) = self.index.remove(&sid) else {
            return false;
        };
        self.established -= usize::from(self.paths.remove(at).established);
        for later in &self.paths[at..] {
            *self
                .index
                .get_mut(&later.sid)
                .expect("every path is indexed") -= 1;
        }
        true
    }

    /// Erasure-code `message` with `codec`, allocate segments evenly
    /// over this initiator's paths (SimEra: segment `i` goes to path
    /// `i % k`) and open the message's ledger record. Returns the wire
    /// messages, one per segment.
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
        let segments = codec.encode(message);
        let pairs = (0..segments.len()).map(|i| (i, i));
        let out = self.segment_onions(mid, &segments, pairs, reuse_for, rng)?;
        let unacked = |path| SentSegment {
            acked: false,
            path,
            retries: 0,
            sent_at: SimTime::ZERO,
            deadline: None,
        };
        let record = SentMessage {
            payload: Some(message.to_vec()),
            segments: out.iter().map(|msg| unacked(msg.sid)).collect(),
            last_event: SimTime::ZERO,
        };
        self.sent.insert(mid, record);
        Ok(out)
    }

    /// Re-send the segments of `mid` named by `pairs` (erasure-aware
    /// retransmission, §4.5): after an ack timeout the initiator needs
    /// just enough missing segments to reach `m`, never the whole
    /// message. Each pair is `(segment index, path slot)`, the slot taken
    /// modulo the *current* path set — which may differ from the original
    /// allocation if failed paths were torn down and replaced. The slot
    /// rule is the caller's retransmit policy: a round passes `(idx, j)`
    /// for its `j`-th missing segment, a per-segment timer
    /// `(idx, idx + retry)`.
    pub fn resend<R: Rng + CryptoRng>(
        &mut self,
        mid: MessageId,
        codec: &dyn Codec,
        pairs: &[(usize, usize)],
        rng: &mut R,
    ) -> Result<Vec<Outgoing>, AnonError> {
        let payload = self.sent.get(&mid).and_then(|m| m.payload.as_ref());
        let no_payload = || AnonError::InvalidParameters("no payload kept for the message".into());
        let segments = codec.encode(payload.ok_or_else(no_payload)?);
        let out = self.segment_onions(mid, &segments, pairs.iter().copied(), None, rng)?;
        let record = self.sent.get_mut(&mid).expect("found above");
        for (&(index, _), msg) in pairs.iter().zip(&out) {
            if let Some(seg) = record.segments.get_mut(index) {
                (seg.path, seg.retries) = (msg.sid, seg.retries + 1);
            }
        }
        Ok(out)
    }

    /// The one segment-onion builder: for each `(segment index, path
    /// slot)` pair, in order, the onion carrying that segment of `mid`
    /// over `paths[slot mod k]`.
    fn segment_onions<R: Rng + CryptoRng>(
        &mut self,
        mid: MessageId,
        segments: &[Segment],
        pairs: impl Iterator<Item = (usize, usize)>,
        reuse_for: Option<(NodeId, PublicKey)>,
        rng: &mut R,
    ) -> Result<Vec<Outgoing>, AnonError> {
        if self.paths.is_empty() {
            return Err(AnonError::InvalidParameters("no paths constructed".into()));
        }
        let k = self.paths.len();
        let mut out = Vec::with_capacity(pairs.size_hint().0);
        for (index, slot) in pairs {
            let seg = segments.get(index).ok_or(AnonError::InvalidParameters(
                "segment index out of range".into(),
            ))?;
            let path = &mut self.paths[slot % k];
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

    /// What the ledger holds on segment `index` of `mid`.
    pub fn segment(&self, mid: MessageId, index: usize) -> Option<&SentSegment> {
        self.sent.get(&mid)?.segments.get(index)
    }

    /// Indices of `mid`'s segments not acked so far, ascending (none for
    /// a message the ledger does not hold).
    pub fn missing(&self, mid: MessageId) -> Vec<usize> {
        let segments = self.sent.get(&mid).map_or(&[][..], |m| &m.segments);
        (0..segments.len())
            .filter(|&i| !segments[i].acked)
            .collect()
    }

    /// Whether every segment of `mid` was acked end to end; `false` for a
    /// message never sent or already [swept](Self::sweep).
    pub fn is_complete(&self, mid: MessageId) -> bool {
        let record = self.sent.get(&mid);
        record.is_some_and(|m| m.segments.iter().all(|s| s.acked))
    }

    /// Messages the ledger holds a record of, and how many of them still
    /// keep their payload for re-coding (are not settled).
    pub fn ledger_len(&self) -> (usize, usize) {
        let kept = self.sent.values().filter(|m| m.payload.is_some());
        (self.sent.len(), kept.count())
    }

    /// Terminate the reverse onion `blob` that arrived on stream `sid` at
    /// `now` ([`open_ack`]) and book it: `None` and the path established,
    /// or the segment acked with what [`note_ack`](Self::note_ack)
    /// returned for it. On [`AnonError::UnknownStream`] — `sid` is no path
    /// of this initiator — `blob` is untouched; no error changes the ledger.
    pub fn open_ack(
        &mut self,
        sid: StreamId,
        blob: &mut Vec<u8>,
        now: SimTime,
    ) -> Result<Option<(MessageId, usize, Option<u64>)>, AnonError> {
        let path = self.path(sid).ok_or(AnonError::UnknownStream)?;
        let Some((mid, index)) = open_ack(&path.plan, blob)? else {
            self.mark_established(sid);
            return Ok(None);
        };
        Ok(Some((mid, index, self.note_ack(mid, index, now))))
    }

    /// Book an end-to-end ack, arriving at `now`, for segment `index` of
    /// `mid`; one for a segment the ledger does not hold changes nothing.
    /// Returns the token of the deadline it disarms, if one was armed.
    pub fn note_ack(&mut self, mid: MessageId, index: usize, now: SimTime) -> Option<u64> {
        let record = self.sent.get_mut(&mid)?;
        let seg = record.segments.get_mut(index)?;
        if !seg.acked {
            (seg.acked, record.last_event) = (true, now);
        }
        record.disarm(index)
    }

    /// The caller armed, at `now`, an ack deadline for segment `index` of
    /// `mid` under its own `token` (in place of any armed before).
    pub fn arm(&mut self, mid: MessageId, index: usize, token: u64, now: SimTime) {
        if let Some(record) = self.sent.get_mut(&mid) {
            if let Some(seg) = record.segments.get_mut(index) {
                (seg.deadline, seg.sent_at, record.last_event) = (Some(token), now, now);
            }
        }
    }

    /// The deadline of segment `index` of `mid` passed and the caller
    /// gives the segment up. Returns its token, if one was armed; a message
    /// with no deadline left is settled and lets go of its payload.
    pub fn disarm(&mut self, mid: MessageId, index: usize) -> Option<u64> {
        self.sent.get_mut(&mid)?.disarm(index)
    }

    /// Drop every settled record whose last event is more than `ttl`
    /// before `now`; returns how many. A swept id answers `false` to
    /// [`is_complete`](Self::is_complete) and ignores late acks, so `ttl`
    /// must outlast both. Only a caller that arms deadlines settles
    /// records, so only one with a clock has anything to sweep.
    pub fn sweep(&mut self, now: SimTime, ttl: SimDuration) -> usize {
        let before = self.sent.len();
        self.sent
            .retain(|_, m| m.payload.is_some() || now.since(m.last_event) <= ttl);
        before - self.sent.len()
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
        let path = self.path(sid).ok_or(AnonError::UnknownStream)?;
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
    use crate::onion::wrap_reverse_layer_in_place;
    use erasure::{ErasureCodec, ReplicationCodec};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};

    /// One hop list per entry of `paths` (node ids, responder last), keyed
    /// from a fixed stream of its own.
    fn hop_lists(paths: &[&[u32]]) -> Vec<Vec<(NodeId, PublicKey)>> {
        let mut keys = StdRng::seed_from_u64(99);
        let mut keyed = |&n| (NodeId(n), sim_crypto::KeyPair::generate(&mut keys).public);
        paths
            .iter()
            .map(|p| p.iter().map(&mut keyed).collect())
            .collect()
    }

    /// The reverse onion acking segment `index` of `mid` as it reaches the
    /// initiator over `path`: the responder's layer, then one per relay.
    fn ack_blob(path: &OwnedPath, mid: MessageId, index: usize, rng: &mut StdRng) -> Vec<u8> {
        let (responder, relays) = path.plan.session_keys.split_last().unwrap();
        let mut blob = build_reverse_payload(responder, mid, &Segment::new(index, vec![]), rng);
        for key in relays.iter().rev() {
            wrap_reverse_layer_in_place(key, &mut blob, rng);
        }
        blob
    }

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
        initiator.construct_paths(&hop_lists(&[&[10], &[20]]), &mut rng);
        let codec = ErasureCodec::new(2, 4).unwrap();
        let mid = MessageId(4);
        initiator
            .send_message(mid, b"partial loss", &codec, None, &mut rng)
            .unwrap();
        // Only segments 1 and 3 went missing: exactly two retransmits,
        // spread round-robin from path 0.
        let out = initiator
            .resend(mid, &codec, &[(1, 0), (3, 1)], &mut rng)
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].to, NodeId(10));
        assert_eq!(out[1].to, NodeId(20));
        let seg = |i| *initiator.segment(mid, i).unwrap();
        assert_eq!((seg(1).path, seg(1).retries), (out[0].sid, 1));
        assert_eq!((seg(2).path, seg(2).retries), (out[0].sid, 0));
        assert_eq!((seg(3).path, seg(3).retries), (out[1].sid, 1));
        // Out-of-range index and unknown message are errors, not panics.
        assert!(initiator.resend(mid, &codec, &[(9, 0)], &mut rng).is_err());
        let unsent = MessageId(5);
        assert!(initiator
            .resend(unsent, &codec, &[(1, 0)], &mut rng)
            .is_err());
    }

    /// Recorded on the parent commit, where the two retransmit paths were
    /// separate code: sha256 over `(to, sid, blob)` of the onions
    /// `resend_segments(.., &[1, 3])` returned (the runner's rounds) and of
    /// the ones `ProtocolNode::on_timer` sent for retry 1 and 2 of segment
    /// 1 (the node's timers), for `StdRng` seeds 1, 2 and 3. The blobs are
    /// ciphertext, so the hashes were taken again when the payload layer's
    /// tag changed (wire v2), on a commit that touched nothing in this file.
    #[test]
    fn resend_reproduces_both_retransmit_policies_byte_for_byte() {
        const RECORDED: [[&str; 3]; 3] = [
            [
                "8523037e8792d0ab506e85946f1f300611f0c4b1578023cc59cdf868d9a10912",
                "8502c895f68cfc0d5b89371a92c552bf58ec9c1a8e3787c79096e2c3015b8027",
                "4c3c03f2af35266221b84db94e8ccd8d52e586dca2a32692f0369b3d021cc608",
            ],
            [
                "7b5d844de2bad87557870f9d004d8ddda7a5a44d3cadb10a9b619e1185fc49f3",
                "b7c0ba998ded5a69483526b56a46ea67071481148c90ead2dec5516b26eda185",
                "e4fb3d5472458359685d85dbc13da48a69a8b6536eabe6ad22d56f25144746c1",
            ],
            [
                "3ecc6102dfd298030701096faa21e6b5d18cdade13c77877c47680e88646e054",
                "75d624a3405fdbd83c2624a47e21ba93b993a94718e4a68cfb317910846d2874",
                "a7a1249d88b6ca6c9eb53f4cab96496fae8e510986eaa28c119679d8ecfe212e",
            ],
        ];
        let digest = |out: Vec<Outgoing>| {
            let mut bytes = Vec::new();
            for o in &out {
                bytes.extend_from_slice(&o.to.0.to_le_bytes());
                bytes.extend_from_slice(&o.sid.0.to_le_bytes());
                bytes.extend_from_slice(&o.blob);
            }
            let hash = sim_crypto::sha256::sha256(&bytes);
            hash.iter().map(|b| format!("{b:02x}")).collect::<String>()
        };
        let codec = ErasureCodec::new(2, 4).unwrap();
        let mid = MessageId(4);
        let sent = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut initiator = Initiator::new(NodeId(0));
            initiator.construct_paths(&hop_lists(&[&[10, 11], &[20, 21]]), &mut rng);
            initiator
                .send_message(mid, b"partial loss", &codec, None, &mut rng)
                .unwrap();
            (initiator, rng)
        };
        for (seed, [round, retry_1, retry_2]) in (1..).zip(RECORDED) {
            // The runner's slot rule: the round's `j`-th segment on slot `j`.
            let (mut initiator, mut rng) = sent(seed);
            let out = initiator.resend(mid, &codec, &[(1, 0), (3, 1)], &mut rng);
            assert_eq!(digest(out.unwrap()), round, "rounds, seed {seed}");
            // The node's: retry `r` of segment `i` on slot `i + r`.
            let (mut initiator, mut rng) = sent(seed);
            for (retry, recorded) in [(1, retry_1), (2, retry_2)] {
                let out = initiator.resend(mid, &codec, &[(1, 1 + retry)], &mut rng);
                assert_eq!(digest(out.unwrap()), recorded, "timers, seed {seed}");
            }
        }
    }

    #[test]
    fn open_ack_errors_are_typed_and_leave_the_ledger_untouched() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut initiator = Initiator::new(NodeId(0));
        let cons = initiator.construct_paths(&hop_lists(&[&[10, 11], &[20, 21]]), &mut rng);
        let codec = ErasureCodec::new(2, 4).unwrap();
        let (mid, now) = (MessageId(1), SimTime::ZERO);
        initiator
            .send_message(mid, b"acked or not", &codec, None, &mut rng)
            .unwrap();
        let state = |i: &Initiator| (i.missing(mid), i.is_complete(mid), i.established());
        let before = state(&initiator);
        let good = ack_blob(&initiator.paths()[0], mid, 2, &mut rng);

        let mut blob = good.clone();
        let unknown = initiator.open_ack(StreamId(0xdead), &mut blob, now);
        assert_eq!(unknown, Err(AnonError::UnknownStream));
        assert_eq!(blob, good, "not ours: left for the relay half");
        let mut truncated = good[..good.len() - 1].to_vec();
        let err = initiator.open_ack(cons[0].sid, &mut truncated, now);
        assert!(matches!(err, Err(AnonError::Crypto(_))), "{err:?}");
        // Path 1's ack arriving on path 0: every layer under the wrong key.
        let mut misrouted = ack_blob(&initiator.paths()[1], mid, 2, &mut rng);
        let err = initiator.open_ack(cons[0].sid, &mut misrouted, now);
        assert!(matches!(err, Err(AnonError::Crypto(_))), "{err:?}");
        assert_eq!(state(&initiator), before);

        let opened = initiator.open_ack(cons[0].sid, &mut good.clone(), now);
        assert_eq!(opened, Ok(Some((mid, 2, None))));
        assert_eq!(initiator.missing(mid), [0, 1, 3]);
        let mut formed = ack_blob(&initiator.paths()[1], CONSTRUCT_ACK, 0, &mut rng);
        let opened = initiator.open_ack(cons[1].sid, &mut formed, now);
        assert_eq!(opened, Ok(None));
        assert_eq!(initiator.established(), 1);
    }

    #[test]
    fn a_record_settles_with_its_last_deadline_and_only_then_is_swept() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut initiator = Initiator::new(NodeId(0));
        initiator.construct_paths(&hop_lists(&[&[10]]), &mut rng);
        let codec = ErasureCodec::new(1, 2).unwrap();
        let (at, ttl) = (SimTime::from_secs, SimDuration::from_secs(10));
        let mid = MessageId(1);
        initiator
            .send_message(mid, b"two", &codec, None, &mut rng)
            .unwrap();
        initiator.arm(mid, 0, 70, at(1));
        initiator.arm(mid, 1, 71, at(1));
        initiator.arm(mid, 1, 72, at(2));
        assert_eq!(initiator.sweep(at(100), ttl), 0, "deadlines armed");
        assert_eq!(initiator.note_ack(mid, 0, at(3)), Some(70));
        assert_eq!(initiator.note_ack(mid, 0, at(4)), None, "duplicate");
        assert_eq!(initiator.segment(mid, 1).unwrap().sent_at, at(2));
        assert_eq!(initiator.ledger_len(), (1, 1));
        assert_eq!(initiator.disarm(mid, 1), Some(72), "given up");
        assert_eq!(initiator.ledger_len(), (1, 0), "nothing can re-send it");
        assert!(initiator.resend(mid, &codec, &[(1, 0)], &mut rng).is_err());
        assert_eq!(initiator.sweep(at(13), ttl), 0, "exactly `ttl` old is kept");
        assert!(!initiator.is_complete(mid) && initiator.missing(mid) == [1]);
        // A late ack still counts, and restarts the clock.
        assert_eq!(initiator.note_ack(mid, 1, at(13)), None);
        assert!(initiator.is_complete(mid));
        assert_eq!(initiator.sweep(at(23), ttl), 0);
        assert_eq!(initiator.sweep(at(24), ttl), 1);
        assert_eq!(initiator.ledger_len(), (0, 0));
        assert!(!initiator.is_complete(mid), "a swept id answers false");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of send / ack (first, duplicate, for a
        /// message or index never sent) / resend / path teardown and
        /// rebuild / establishment against a plain ordered-map model.
        #[test]
        fn ledger_matches_a_map_model(ops in prop::collection::vec(any::<[u8; 4]>(), 1..48)) {
            const MIDS: u64 = 4;
            let mut rng = StdRng::seed_from_u64(7);
            let hops = hop_lists(&[&[9]]);
            let codec = ErasureCodec::new(2, 4).unwrap();
            let mut initiator = Initiator::new(NodeId(0));
            // Model: paths in order with their established flag; per sent
            // message the path each segment last rode and the acked set.
            let mut paths: Vec<(StreamId, bool)> = Vec::new();
            let mut sent: BTreeMap<u64, (Vec<StreamId>, BTreeSet<usize>)> = BTreeMap::new();
            let mut last_ack = (MessageId(0), 0);
            for [kind, a, b, c] in ops {
                let (a, b, c) = (a as usize, b as usize, c as usize);
                let mid = MessageId(a as u64 % MIDS);
                match kind % 6 {
                    0 => {
                        let out = initiator.send_message(mid, &[c as u8; 24][..b % 24], &codec, None, &mut rng);
                        prop_assert_eq!(out.is_ok(), !paths.is_empty());
                        if let Ok(out) = out {
                            let rode = (0..4).map(|i| paths[i % paths.len()].0).collect::<Vec<_>>();
                            prop_assert_eq!(out.iter().map(|o| o.sid).collect::<Vec<_>>(), rode.clone());
                            sent.insert(mid.0, (rode, BTreeSet::new()));
                        }
                    }
                    // An ack, through the shared entry point when a path
                    // can carry it; every other one repeats the last.
                    1 | 2 => {
                        if kind % 6 == 1 {
                            last_ack = (mid, b % 6);
                        }
                        let (mid, index) = last_ack;
                        if paths.is_empty() {
                            initiator.note_ack(mid, index, SimTime::ZERO);
                        } else {
                            let path = &initiator.paths()[c % paths.len()];
                            let (sid, mut blob) = (path.sid, ack_blob(path, mid, index, &mut rng));
                            let opened = initiator.open_ack(sid, &mut blob, SimTime::ZERO);
                            prop_assert_eq!(opened, Ok(Some((mid, index, None))));
                        }
                        if let Some((rode, acked)) = sent.get_mut(&mid.0) {
                            if index < rode.len() {
                                acked.insert(index);
                            }
                        }
                    }
                    3 => {
                        let pairs = [(b % 5, c), (c % 5, b)];
                        let out = initiator.resend(mid, &codec, &pairs[..1 + a % 2], &mut rng);
                        let valid = pairs[..1 + a % 2].iter().all(|p| p.0 < 4);
                        let known = sent.get_mut(&mid.0).filter(|_| valid && !paths.is_empty());
                        prop_assert_eq!(out.is_ok(), known.is_some());
                        if let Some((rode, _)) = known {
                            for &(index, slot) in &pairs[..1 + a % 2] {
                                rode[index] = paths[slot % paths.len()].0;
                            }
                        }
                    }
                    4 if !paths.is_empty() => {
                        let (sid, _) = paths.remove(b % paths.len());
                        prop_assert!(initiator.drop_path(sid) && !initiator.drop_path(sid));
                        paths.push((initiator.construct_paths(&hops, &mut rng)[0].sid, false));
                    }
                    4 => paths.push((initiator.construct_paths(&hops, &mut rng)[0].sid, false)),
                    _ => {
                        let sid = paths.get(b % paths.len().max(1)).map_or(StreamId(b as u64), |p| p.0);
                        prop_assert_eq!(initiator.mark_established(sid), !paths.is_empty());
                        if let Some(p) = paths.iter_mut().find(|p| p.0 == sid) {
                            p.1 = true;
                        }
                    }
                }
                for m in 0..MIDS {
                    let model = sent.get(&m);
                    let missing = model.map_or(vec![], |(_, acked)| (0..4).filter(|i| !acked.contains(i)).collect());
                    prop_assert_eq!(initiator.missing(MessageId(m)), missing);
                    prop_assert_eq!(initiator.is_complete(MessageId(m)), model.is_some_and(|(_, acked)| acked.len() == 4));
                    for i in 0..5 {
                        let rode = initiator.segment(MessageId(m), i).map(|seg| seg.path);
                        prop_assert_eq!(rode, model.and_then(|(rode, _)| rode.get(i).copied()));
                    }
                }
                prop_assert_eq!(initiator.established(), paths.iter().filter(|p| p.1).count());
                let held = initiator.paths().iter().map(|p| (p.sid, p.established)).collect::<Vec<_>>();
                prop_assert_eq!(&held, &paths);
                prop_assert!(held.iter().all(|&(sid, _)| initiator.path(sid).is_some_and(|p| p.sid == sid)));
                prop_assert_eq!(initiator.ledger_len(), (sent.len(), sent.len()));
            }
        }
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
